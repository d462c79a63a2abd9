"""Batch permutation drains (paper §6: "executing a global permutation
pattern" is one of the post-saturation scenarios that motivates stable
throughput).

A drain experiment injects exactly one packet per communicating node at
cycle 0 — the whole permutation at once, i.e. operation far above
saturation — and measures the **makespan**: the cycle by which the last
tail is delivered.  This complements the steady-state CNF view: a pattern
with the same saturation bandwidth can still drain faster if its latency
tail is shorter.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

from ..errors import ConfigurationError
from ..sim.config import SimulationConfig
from ..sim.run import build_engine
from ..traffic.patterns import make_pattern


@dataclass(frozen=True)
class DrainResult:
    """Outcome of one batch drain."""

    config: SimulationConfig
    packets: int
    makespan_cycles: int
    avg_latency_cycles: float
    max_latency_cycles: int

    @property
    def throughput_flits_per_cycle(self) -> float:
        """Aggregate delivery rate over the drain."""
        return self.packets * self.config.packet_flits / self.makespan_cycles


def drain_permutation(config: SimulationConfig, max_cycles: int = 1_000_000) -> DrainResult:
    """Inject one packet per node under ``config.pattern`` and drain.

    The config's ``load`` is ignored (set to 0 — all traffic is the
    preloaded batch); its pattern must be a fixed permutation.  Warm-up
    is forced to 0 so every packet is measured; every other field
    (arbiter included) applies unchanged.

    Raises:
        ConfigurationError: for non-permutation patterns.
    """
    pattern = make_pattern(config.pattern, config.num_nodes, **config.pattern_kwargs)
    if not pattern.is_permutation():
        raise ConfigurationError(
            f"drain_permutation needs a fixed permutation, got {config.pattern!r}"
        )
    cfg = dataclasses.replace(
        config, load=0.0, warmup_cycles=0, total_cycles=max_cycles, collect_latencies=True
    )
    engine = build_engine(cfg)
    rng = random.Random(cfg.seed)
    packets = 0
    for src in range(cfg.num_nodes):
        dst = pattern.destination(src, rng)
        if dst != src:
            engine.preload_packet(src, dst)
            packets += 1
    if packets == 0:
        raise ConfigurationError(f"pattern {config.pattern!r} moves no packets")
    makespan = engine.run_until_drained(max_cycles)
    result = engine.result
    return DrainResult(
        config=cfg,
        packets=packets,
        makespan_cycles=makespan,
        avg_latency_cycles=result.latency_sum / result.delivered_packets,
        max_latency_cycles=result.latency_max,
    )
