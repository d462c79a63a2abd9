"""Load-sweep series: the data behind one curve of Figures 5–7.

A :class:`LoadSweepSeries` collects one :class:`LoadPoint` per offered
load, in CNF units (fractions of network capacity on both axes, latency
in cycles).  Conversions to the absolute units of §10 are in
:mod:`repro.metrics.cnf`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from ..errors import AnalysisError
from ..sim.results import RunResult


def latency_percentiles(
    result: RunResult, qs: Sequence[float] = (50.0, 95.0, 99.0)
) -> dict[float, float]:
    """Latency percentiles of a run (requires ``collect_latencies``).

    Averages hide the latency tail that matters for synchronization-bound
    applications; run the point with ``collect_latencies=True`` and read
    p50/p95/p99 here.

    Raises:
        AnalysisError: when the run kept no per-packet samples.
    """
    if not result.latencies:
        raise AnalysisError(
            "no latency samples; run with config.collect_latencies=True"
        )
    # imported here, not at module level: this is numpy's only use, and
    # the import costs every process ~0.1 s and ~11 MiB it rarely needs
    import numpy as np

    values = np.asarray(result.latencies, dtype=float)
    return {q: float(np.percentile(values, q)) for q in qs}


@dataclass(frozen=True)
class LoadPoint:
    """One sweep point of one configuration.

    Attributes:
        offered: nominal offered bandwidth (fraction of capacity; x-axis).
        offered_measured: realized offered bandwidth from the sources.
        accepted: accepted bandwidth (fraction of capacity; y-axis).
        latency_cycles: average network latency, or ``None`` when no
            packet completed inside the measurement window (deep
            saturation with short windows).
        delivered_packets: latency sample count, for error awareness.
    """

    offered: float
    offered_measured: float
    accepted: float
    latency_cycles: float | None
    delivered_packets: int

    @classmethod
    def from_result(cls, result: RunResult) -> LoadPoint:
        try:
            lat = result.avg_latency_cycles
        except AnalysisError:
            lat = None
        return cls(
            offered=result.config.load,
            offered_measured=result.offered_fraction,
            accepted=result.accepted_fraction,
            latency_cycles=lat,
            delivered_packets=result.delivered_packets,
        )


@dataclass(frozen=True)
class FailedPoint:
    """One sweep point that produced no result, recorded instead of aborting.

    The resilient sweep harness catches per-point failures (deadlocks,
    engine invariant violations, wall-clock timeouts), retries with fresh
    seeds up to its retry budget, and — when every attempt fails — files
    one of these so the campaign's remaining points still complete.

    Attributes:
        offered: the point's nominal offered load (its sweep x-position).
        error: exception class name, e.g. ``"DeadlockError"``.
        message: the final attempt's error message (includes the deadlock
            diagnostic snapshot text when the watchdog fired).
        attempts: how many simulation attempts were made.
        seeds: the seed used by each attempt, in order.
    """

    offered: float
    error: str
    message: str
    attempts: int
    seeds: tuple[int, ...]


@dataclass
class LoadSweepSeries:
    """All sweep points of one configuration, sorted by offered load.

    Attributes:
        label: legend label, e.g. ``"fat tree, 4 vc"`` or ``"cube, Duato"``.
        network: ``"tree"`` or ``"cube"``.
        algorithm / vcs / pattern: configuration echo for reports.
        points: the sweep data.
        failures: points that produced no result (resilient sweeps only).
    """

    label: str
    network: str
    algorithm: str
    vcs: int
    pattern: str
    points: list[LoadPoint] = field(default_factory=list)
    failures: list[FailedPoint] = field(default_factory=list)

    def add(self, result: RunResult) -> LoadPoint:
        point = LoadPoint.from_result(result)
        self.points.append(point)
        self.points.sort(key=lambda p: p.offered)
        return point

    def add_failure(self, failure: FailedPoint) -> FailedPoint:
        self.failures.append(failure)
        self.failures.sort(key=lambda f: f.offered)
        return failure

    @property
    def complete(self) -> bool:
        """True when every attempted point produced a result."""
        return not self.failures

    def offered(self) -> list[float]:
        return [p.offered for p in self.points]

    def accepted(self) -> list[float]:
        return [p.accepted for p in self.points]

    def latencies(self) -> list[float | None]:
        return [p.latency_cycles for p in self.points]

    def peak_accepted(self) -> float:
        """Highest accepted bandwidth anywhere on the curve."""
        if not self.points:
            raise AnalysisError(f"empty sweep series {self.label!r}")
        return max(p.accepted for p in self.points)

    def __len__(self) -> int:
        return len(self.points)
