"""Figure 7 — the two networks compared in absolute units (paper §10).

The raw CNF data of Figures 5 and 6 is "filtered to take into account the
router complexity and the wire delay": every configuration's cycles are
scaled by its own clock period (Tables 1–2) and bandwidth fractions become
aggregate bits/ns using each network's flit width and capacity.

Paper shape to reproduce (saturation throughput, bits/ns):

* uniform — cube wins: Duato ≈440, deterministic ≈350, tree 4vc ≈280
  (best tree), tree 1vc ≈150; cube latency ≈0.5 µs pre-saturation, about
  half the tree's;
* complement — tree wins: all tree variants ≈400, best cube
  (deterministic) ≈280 (§10 text; the conclusion quotes ≈250);
* transpose / bit reversal — two classes: {cube Duato, tree 2vc, tree 4vc}
  at ≈250–300 and {cube deterministic, tree 1vc} at ≈100–150.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..metrics.cnf import AbsolutePoint, absolute_series, saturation_bits_per_ns
from ..metrics.series import LoadSweepSeries
from ..profiles import Profile, get_profile
from ..timing.chien import table1_cube_delays, table2_tree_delays
from ..timing.normalization import NetworkScaling, cube_scaling, tree_scaling
from .fig5 import fig5_experiment
from .fig6 import fig6_experiment


@dataclass
class Fig7Series:
    """One Figure-7 curve: raw CNF sweep plus its absolute-unit rendering."""

    label: str
    sweep: LoadSweepSeries
    scaling: NetworkScaling
    points: list[AbsolutePoint]

    def saturation_bits_per_ns(self) -> float:
        return saturation_bits_per_ns(self.sweep, self.scaling)


@dataclass
class Fig7Result:
    """One Figure-7 panel pair: all five configurations on one pattern."""

    title: str
    series: list[Fig7Series]

    def saturation_summary(self) -> dict[str, float]:
        """Label -> saturation throughput in bits/ns (the §10 headlines)."""
        return {s.label: s.saturation_bits_per_ns() for s in self.series}


def fig7_experiment(
    pattern: str,
    profile: Profile | None = None,
    parallel: bool = False,
) -> Fig7Result:
    """Run (or reuse from cache) both networks and rescale to bits/ns.

    The tree and cube sweeps are those of :func:`fig5_experiment` and
    :func:`fig6_experiment` at their default seeds (11 and 13), so when
    those experiments already ran in this process the raw simulations are
    reused from the sweep cache.
    """
    profile = profile or get_profile()
    tree_cnf = fig5_experiment(pattern, profile, parallel=parallel)
    cube_cnf = fig6_experiment(pattern, profile, parallel=parallel)
    tree_clocks = table2_tree_delays()
    cube_clocks = table1_cube_delays()
    out: list[Fig7Series] = []
    for sweep in cube_cnf.series:
        key = "deterministic" if sweep.algorithm == "dor" else "duato"
        scaling = cube_scaling(16, 2, clock_ns=cube_clocks[key].clock_ns)
        out.append(
            Fig7Series(
                label=f"cube, {sweep.label}",
                sweep=sweep,
                scaling=scaling,
                points=absolute_series(sweep, scaling),
            )
        )
    for sweep in tree_cnf.series:
        scaling = tree_scaling(4, 4, clock_ns=tree_clocks[sweep.vcs].clock_ns)
        out.append(
            Fig7Series(
                label=f"fat tree, {sweep.label}",
                sweep=sweep,
                scaling=scaling,
                points=absolute_series(sweep, scaling),
            )
        )
    return Fig7Result(title=f"normalized comparison, {pattern} traffic", series=out)
