"""Adaptive saturation-point search.

The figure sweeps estimate saturation by interpolating a fixed load grid;
when a precise estimate of a single configuration's saturation point is
wanted, bisection over the offered load is far cheaper than refining the
whole grid.  The §6 criterion drives the search: a load is saturated
when its run is (:attr:`~repro.sim.results.RunResult.saturated`).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from ..errors import AnalysisError
from ..sim.config import SimulationConfig
from .sweep import run_point

#: hard cap on the simulations one :func:`find_saturation` spends
MAX_EVALUATIONS = 12


@dataclass(frozen=True)
class SaturationEstimate:
    """Bisection outcome."""

    load: float  # estimated saturation load (fraction of capacity)
    lo: float  # highest load observed unsaturated
    hi: float  # lowest load observed saturated (may equal upper bound)
    evaluations: int  # simulations spent


def find_saturation(
    config_factory: Callable[[float], SimulationConfig],
    lo: float = 0.05,
    hi: float = 1.0,
    resolution: float = 0.02,
) -> SaturationEstimate:
    """Bisect the offered load for the saturation point.

    Args:
        config_factory: load -> run recipe (as for sweeps).
        lo, hi: initial bracket in fractions of capacity.
        resolution: stop when the bracket is narrower than this, or
            after :data:`MAX_EVALUATIONS` simulations.

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
        return run_point(config_factory(load)).saturated

    if saturated(lo):
        return SaturationEstimate(load=lo, lo=lo, hi=lo, evaluations=evaluations)
    if not saturated(hi):
        return SaturationEstimate(load=hi, lo=hi, hi=hi, evaluations=evaluations)
    while hi - lo > resolution and evaluations < MAX_EVALUATIONS:
        mid = (lo + hi) / 2
        if saturated(mid):
            hi = mid
        else:
            lo = mid
    return SaturationEstimate(
        load=(lo + hi) / 2, lo=lo, hi=hi, evaluations=evaluations
    )
