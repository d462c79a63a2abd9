"""Adaptive saturation-point search.

The figure sweeps estimate saturation by interpolating a fixed load grid;
when a precise estimate of a single configuration's saturation point is
wanted, bisection over the offered load is far cheaper than refining the
whole grid.  The §6 criterion drives the search: a load is *saturated*
when accepted bandwidth falls more than ``tol`` below the measured
offered bandwidth.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from ..errors import AnalysisError
from ..sim.config import SimulationConfig
from .sweep import run_point


@dataclass(frozen=True)
class SaturationEstimate:
    """Bisection outcome."""

    load: float  # estimated saturation load (fraction of capacity)
    lo: float  # highest load observed unsaturated
    hi: float  # lowest load observed saturated (may equal upper bound)
    evaluations: int  # simulations spent


def is_saturated(result, tol: float = 0.05) -> bool:
    """§6 criterion with relative tolerance against sampling noise."""
    offered = result.offered_flits_per_cycle
    if offered <= 0:
        return False
    return result.accepted_flits_per_cycle < (1.0 - tol) * offered


def find_saturation(
    config_factory: Callable[[float], SimulationConfig],
    lo: float = 0.05,
    hi: float = 1.0,
    tol: float = 0.05,
    resolution: float = 0.02,
    max_evaluations: int = 12,
) -> SaturationEstimate:
    """Bisect the offered load for the saturation point.

    Args:
        config_factory: load -> run recipe (as for sweeps).
        lo, hi: initial bracket in fractions of capacity.
        tol: §6 saturation tolerance.
        resolution: stop when the bracket is narrower than this.
        max_evaluations: hard cap on simulations.

    Returns the bracket midpoint; when even ``hi`` is unsaturated the
    estimate is ``hi`` itself with a degenerate bracket (the network
    saturates at or beyond the swept range), and when ``lo`` is already
    saturated the estimate is ``lo``.

    Raises:
        AnalysisError: for an invalid bracket.
    """
    if not 0 < lo < hi:
        raise AnalysisError(f"invalid bracket [{lo}, {hi}]")
    evaluations = 0

    def saturated(load: float) -> bool:
        nonlocal evaluations
        evaluations += 1
        return is_saturated(run_point(config_factory(load)), tol)

    if saturated(lo):
        return SaturationEstimate(load=lo, lo=lo, hi=lo, evaluations=evaluations)
    if not saturated(hi):
        return SaturationEstimate(load=hi, lo=hi, hi=hi, evaluations=evaluations)
    while hi - lo > resolution and evaluations < max_evaluations:
        mid = (lo + hi) / 2
        if saturated(mid):
            hi = mid
        else:
            lo = mid
    return SaturationEstimate(
        load=(lo + hi) / 2, lo=lo, hi=hi, evaluations=evaluations
    )
