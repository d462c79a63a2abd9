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

import random

from ..errors import ConfigurationError
from ..sim.config import SimulationConfig
from ..traffic.patterns import make_pattern
from ..workloads.runner import TraceResult, run_trace
from ..workloads.trace import Trace


def drain_permutation(config: SimulationConfig, max_cycles: int = 1_000_000) -> TraceResult:
    """Inject one packet per node under ``config.pattern`` and drain.

    The batch is a one-round :class:`~repro.workloads.trace.Trace` —
    every message at cycle 0, ``config.packet_flits`` long — played by
    :func:`~repro.workloads.runner.run_trace`, which ignores the config's
    ``load``, forces warm-up to 0 so every packet is measured and applies
    every other field (arbiter included) unchanged.  The pattern must be a
    fixed permutation; its fixed points send nothing.

    Raises:
        ConfigurationError: for non-permutation patterns.
    """
    pattern = make_pattern(config.pattern, config.num_nodes, **config.pattern_kwargs)
    if not pattern.is_permutation():
        raise ConfigurationError(
            f"drain_permutation needs a fixed permutation, got {config.pattern!r}"
        )
    rng = random.Random(config.seed)
    batch = Trace(config.num_nodes)
    for src in range(config.num_nodes):
        dst = pattern.destination(src, rng)
        if dst != src:
            batch.send(0, src, dst, config.packet_flits)
    if not batch.messages:
        raise ConfigurationError(f"pattern {config.pattern!r} moves no packets")
    return run_trace(config, batch, max_cycles)
