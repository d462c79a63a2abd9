"""Saturation-point estimation (paper §6).

"Saturation is defined as the minimum offered bandwidth where the accepted
bandwidth is lower than the global packet creation rate at the source
nodes.  It is worth noting that, before saturation, offered and accepted
bandwidth are the same."

On finite windows the two rates are equal only up to sampling noise, so a
sweep point is saturated by :func:`repro.sim.results.saturated`, which
allows a relative margin of
:data:`~repro.sim.results.SATURATION_TOLERANCE`.  The saturation point is
interpolated between the last unsaturated and the first saturated sweep
point, which keeps the estimate stable under coarse load grids.
"""

from __future__ import annotations

from ..errors import AnalysisError
from ..sim.results import SATURATION_TOLERANCE, saturated
from .series import LoadSweepSeries


def saturation_point(series: LoadSweepSeries) -> float:
    """Estimated saturation load (fraction of capacity) of a sweep.

    Returns the interpolated offered load where accepted bandwidth first
    falls :data:`~repro.sim.results.SATURATION_TOLERANCE` below offered.
    When no sweep point is saturated the last offered load is returned
    (the curve saturates beyond the sweep; callers sweeping to 1.0 read
    this as "at or above capacity").

    Raises:
        AnalysisError: on an empty series.
    """
    if not series.points:
        raise AnalysisError(f"empty sweep series {series.label!r}")
    prev = None
    for p in series.points:
        measured = p.offered_measured if p.offered_measured > 0 else p.offered
        if saturated(measured, p.accepted):
            if prev is None:
                return p.offered  # saturated from the first point
            # Linear interpolation on the deficit (offered - accepted).
            d0 = max(prev.offered_measured - prev.accepted, 0.0)
            d1 = measured - p.accepted
            thresh0 = SATURATION_TOLERANCE * max(prev.offered_measured, 1e-12)
            thresh1 = SATURATION_TOLERANCE * measured
            # the deficit crosses the margin somewhere in (prev, p)
            f0 = d0 - thresh0
            f1 = d1 - thresh1
            if f1 == f0:
                return p.offered
            frac = -f0 / (f1 - f0)
            frac = min(max(frac, 0.0), 1.0)
            return prev.offered + frac * (p.offered - prev.offered)
        prev = p
    return series.points[-1].offered


def _beyond_saturation(series: LoadSweepSeries) -> list[float]:
    """Accepted fractions of the points at or beyond the saturation load."""
    sat = saturation_point(series)
    return [p.accepted for p in series.points if p.offered >= sat]


def sustained_rate(series: LoadSweepSeries) -> float:
    """Average accepted bandwidth over the saturated sweep region (§6).

    The paper highlights post-saturation stability ("we usually expect the
    accepted bandwidth to remain stable after saturation"); this is the
    mean accepted fraction over points at or beyond the saturation load,
    falling back to the peak accepted value when nothing saturated.
    """
    post = _beyond_saturation(series)
    if not post:
        return series.peak_accepted()
    return sum(post) / len(post)


def post_saturation_stability(series: LoadSweepSeries) -> float:
    """Relative spread of accepted bandwidth beyond saturation.

    0 means perfectly flat (stable); the paper's algorithms — all source
    throttled — are expected to stay within a few percent.  Returns 0 when
    fewer than two post-saturation points exist.
    """
    post = _beyond_saturation(series)
    if len(post) < 2:
        return 0.0
    mean = sum(post) / len(post)
    if mean == 0:
        raise AnalysisError(f"zero accepted bandwidth beyond saturation in {series.label!r}")
    return (max(post) - min(post)) / mean
