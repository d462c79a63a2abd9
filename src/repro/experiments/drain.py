"""Batch permutation drains (paper §6: "executing a global permutation
pattern" is one of the post-saturation scenarios that motivates stable
throughput).

A drain experiment injects exactly one packet per communicating node at
cycle 0 — the whole permutation at once, i.e. operation far above
saturation — and measures the **makespan**: the cycle by which the last
tail is delivered.  This complements the steady-state CNF view: a pattern
with the same saturation bandwidth can still drain faster if its latency
tail is shorter.

Any trace drains the same way (:func:`~repro.workloads.runner.run_trace`),
and a table of drains is a curve table (:func:`drain_table`).
"""

from __future__ import annotations

import random

from ..errors import ConfigurationError
from ..sim.config import SimulationConfig
from ..traffic.patterns import make_pattern
from ..workloads.runner import TraceResult, drained, run_trace
from ..workloads.trace import Replay, Trace
from .sweep import run_curves


def permutation_trace(config: SimulationConfig) -> Trace:
    """One packet per node under ``config.pattern``, all at cycle 0: a
    one-round trace of ``config.packet_flits``-flit messages.  The pattern's
    fixed points send nothing.

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
    return batch


def drain_permutation(config: SimulationConfig, max_cycles: int = 1_000_000) -> TraceResult:
    """Inject one packet per node under ``config.pattern`` and drain.

    :func:`~repro.workloads.runner.run_trace` of :func:`permutation_trace`:
    the config's ``load`` is ignored, warm-up is forced to 0 so every
    packet is measured and every other field (arbiter included) applies
    unchanged.
    """
    return run_trace(config, permutation_trace(config), max_cycles)


def drain_table(drains, max_cycles: int = 2_000_000, **harness) -> list[TraceResult]:
    """One :func:`~repro.workloads.runner.run_trace` per ``(label, config,
    trace)`` of ``drains``, as a curve table: a curve each over the single
    load 0, its point running under ``Replay(trace)``, filed as a
    ``"drain"`` ledger record (dedup off: drains of one network share
    config digest + seed; the ``Replay`` spec is what tells them apart).
    ``harness`` reaches :func:`~repro.experiments.sweep.run_curves`
    (``ledger``, ``parallel``, ``checkpoints``, ...).
    """
    curves = [
        (label, drained(config, max_cycles), (Replay(trace),))
        for label, config, trace in drains
    ]
    ran = run_curves(curves, [0.0], ledger_kind="drain", ledger_dedup=False, **harness)
    return [TraceResult(results[0]) for _, results in ran]
