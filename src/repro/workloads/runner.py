"""Playing traces through the simulation engine.

:func:`run_trace` builds a paper-normalized network, substitutes a
:class:`~repro.workloads.trace.TraceInjector` for the stochastic sources
and drains the trace, returning completion-time statistics;
:func:`repro.experiments.drain.drain_permutation` is this with a one-round
trace.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..errors import ConfigurationError
from ..sim.config import SimulationConfig
from ..sim.engine import Engine
from ..sim.run import network_of
from .trace import Trace, TraceInjector


@dataclass(frozen=True)
class TraceResult:
    """Completion statistics of one trace run."""

    config: SimulationConfig
    messages: int
    total_flits: int
    makespan_cycles: int
    avg_latency_cycles: float
    max_latency_cycles: int

    @property
    def aggregate_flits_per_cycle(self) -> float:
        """Delivered flits per cycle over the whole drain."""
        return self.total_flits / self.makespan_cycles


def run_trace(
    config: SimulationConfig, trace: Trace, max_cycles: int = 2_000_000
) -> TraceResult:
    """Drain ``trace`` on the network described by ``config``.

    The config's traffic fields (pattern, load) are ignored — the trace
    *is* the workload; its topology, routing, VC, buffer and arbiter
    settings apply unchanged.  Per-message sizes come from the trace, so
    ``config.packet_flits`` only caps nothing (it remains the default for
    entries without a size, which trace entries always carry).

    Raises:
        ConfigurationError: if the trace size does not match the network.
    """
    if trace.num_nodes != config.num_nodes:
        raise ConfigurationError(
            f"trace built for {trace.num_nodes} nodes, network has {config.num_nodes}"
        )
    if len(trace) == 0:
        raise ConfigurationError("empty trace")
    cfg = dataclasses.replace(
        config, load=0.0, warmup_cycles=0, total_cycles=max_cycles, collect_latencies=True
    )
    engine = Engine(*network_of(cfg), TraceInjector(trace), cfg)
    makespan = engine.run_until_drained(max_cycles)
    result = engine.result
    return TraceResult(
        config=cfg,
        messages=len(trace),
        total_flits=trace.total_flits(),
        makespan_cycles=makespan,
        avg_latency_cycles=result.latency_sum / result.delivered_packets,
        max_latency_cycles=result.latency_max,
    )
