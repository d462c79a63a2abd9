"""Experiment drivers: one module per paper artifact.

* :mod:`repro.experiments.sweep` — offered-load sweeps (serial or
  process-pool) with an in-process result cache so Figure 7 reuses the
  runs of Figures 5 and 6, and ``run_curves``, the one driver every
  figure and campaign below is a table of curves over.
* :mod:`repro.experiments.fig5` — fat-tree CNF curves (Figure 5 a–h).
* :mod:`repro.experiments.fig6` — cube CNF curves (Figure 6 a–h).
* :mod:`repro.experiments.fig7` — the normalized absolute comparison
  (Figure 7 a–h).
* :mod:`repro.experiments.tables` — Tables 1 and 2 (Chien model).
* :mod:`repro.experiments.report` — ASCII/markdown rendering of series,
  saturation summaries and paper-vs-measured records.
* :mod:`repro.experiments.chaos` — randomized fail-stop fault storms
  under the reliable transport (goodput-degradation campaigns).
"""

from .chaos import ChaosSeries, StormSpec, chaos_campaign, run_chaos_point
from .dimension import dimension_study, normalize_cube
from .drain import drain_permutation
from .fig5 import fig5_experiment, fig5_loads
from .fig6 import fig6_experiment
from .fig7 import fig7_experiment
from .report import render_ascii_plot, render_cnf, render_comparison, render_table
from .search import SaturationEstimate, find_saturation
from .stats import Estimate, replicate_point, t_confidence
from .sweep import clear_cache, run_curves, run_point, run_sweep
from .tables import table1_rows, table2_rows

__all__ = [
    "ChaosSeries",
    "StormSpec",
    "chaos_campaign",
    "run_chaos_point",
    "dimension_study",
    "normalize_cube",
    "drain_permutation",
    "fig5_experiment",
    "fig5_loads",
    "fig6_experiment",
    "fig7_experiment",
    "render_ascii_plot",
    "render_cnf",
    "render_comparison",
    "render_table",
    "SaturationEstimate",
    "find_saturation",
    "Estimate",
    "replicate_point",
    "t_confidence",
    "clear_cache",
    "run_curves",
    "run_point",
    "run_sweep",
    "table1_rows",
    "table2_rows",
]
