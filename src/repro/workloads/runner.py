"""Playing traces through the simulation engine.

:func:`run_trace` is one run of the pipeline
(:func:`~repro.sim.run.simulate`) under :class:`~repro.workloads.trace.Replay`
with the config :func:`drained` makes, read as completion-time statistics;
:func:`repro.experiments.drain.drain_permutation` is this with a one-round
trace and :func:`repro.experiments.drain.drain_table` a table of them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..sim.config import SimulationConfig
from ..sim.results import RunResult
from ..sim.run import simulate
from .trace import Replay, Trace


def drained(config: SimulationConfig, max_cycles: int = 2_000_000) -> SimulationConfig:
    """The recipe a trace drains under on ``config``'s network.

    The traffic fields (pattern, load) do not apply — the trace *is* the
    workload, so the load is 0; the warm-up is 0 so every message is
    measured, latency samples are kept, and ``max_cycles`` is the
    ``total_cycles`` by which the trace must have drained.  Topology,
    routing, VC, buffer and arbiter settings apply unchanged.
    """
    return dataclasses.replace(
        config, load=0.0, warmup_cycles=0, total_cycles=max_cycles, collect_latencies=True
    )


@dataclass(frozen=True)
class TraceResult:
    """Completion statistics of one trace run: a view of its run document."""

    run: RunResult

    @property
    def config(self) -> SimulationConfig:
        return self.run.config

    @property
    def messages(self) -> int:
        return self.run.delivered_packets

    @property
    def total_flits(self) -> int:
        return self.run.delivered_flits

    @property
    def makespan_cycles(self) -> int:
        """Cycles until the network was seen empty."""
        return self.run.telemetry.cycles

    @property
    def avg_latency_cycles(self) -> float:
        return self.run.avg_latency_cycles

    @property
    def max_latency_cycles(self) -> int:
        return self.run.latency_max

    @property
    def aggregate_flits_per_cycle(self) -> float:
        """Delivered flits per cycle over the whole drain."""
        return self.total_flits / self.makespan_cycles


def run_trace(
    config: SimulationConfig, trace: Trace, max_cycles: int = 2_000_000
) -> TraceResult:
    """Drain ``trace`` on the network described by ``config``
    (:func:`drained` says what of ``config`` applies).  Per-message sizes
    come from the trace.

    Raises:
        ConfigurationError: if the trace is empty or its size does not
            match the network.
        DeadlockError: if it has not drained within ``max_cycles``.
    """
    return TraceResult(simulate(drained(config, max_cycles), [Replay(trace)]))
