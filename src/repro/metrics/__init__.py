"""Performance metrics and presentation (paper §6).

* :mod:`repro.metrics.series` — a load-sweep curve: offered vs accepted
  bandwidth and latency for one network configuration.
* :mod:`repro.metrics.saturation` — the §6 saturation-point estimator.
* :mod:`repro.metrics.cnf` — Chaos Normal Form assembly: the two-graph
  (accepted bandwidth, network latency) presentation used by Figures 5–6,
  plus the absolute-unit conversion used by Figure 7.
"""

from .analytic import expected_zero_load_latency, path_channels, zero_load_latency
from .cnf import CNFResult, absolute_series
from .saturation import saturation_point, sustained_rate
from .series import LoadPoint, LoadSweepSeries

__all__ = [
    "expected_zero_load_latency",
    "path_channels",
    "zero_load_latency",
    "CNFResult",
    "absolute_series",
    "saturation_point",
    "sustained_rate",
    "LoadPoint",
    "LoadSweepSeries",
]
