"""Trace generators for the communication phases of parallel algorithms.

Every generator returns a :class:`~repro.workloads.trace.Trace` whose
messages are one packet each, of ``flits`` flits.
Times are *earliest injection* times — the engine's single injection
channel serializes whatever a schedule packs together.
"""

from __future__ import annotations

import random

from ..errors import ConfigurationError
from .trace import Trace


def alltoall_trace(
    num_nodes: int,
    flits: int = 16,
    spacing: int = 0,
    schedule: str = "shifted",
    seed: int = 0,
) -> Trace:
    """All-to-all personalized exchange: every node sends to every other.

    Args:
        flits: message size per pair.
        spacing: cycles between a node's successive sends (0 = enqueue
            everything at cycle 0 and let the injection channel pace it).
        schedule: ``"shifted"`` — round r pairs i with (i + r) mod N, the
            classic linear-shift schedule that makes each round a
            contention-balanced permutation; ``"naive"`` — every node
            sends in destination order 0, 1, 2, ..., creating the
            serialized hot destinations the shifted schedule avoids;
            ``"random"`` — per-node random destination order.
    """
    if schedule not in ("shifted", "naive", "random"):
        raise ConfigurationError(f"unknown alltoall schedule {schedule!r}")
    rng = random.Random(seed)
    trace = Trace(num_nodes)
    for src in range(num_nodes):
        if schedule == "shifted":
            dests = [(src + r) % num_nodes for r in range(1, num_nodes)]
        elif schedule == "naive":
            dests = [d for d in range(num_nodes) if d != src]
        else:
            dests = [d for d in range(num_nodes) if d != src]
            rng.shuffle(dests)
        for r, dst in enumerate(dests):
            trace.send(r * spacing, src, dst, flits)
    return trace


def butterfly_barrier_trace(
    num_nodes: int, flits: int = 16, round_gap: int | None = None
) -> Trace:
    """Butterfly barrier / recursive-doubling allreduce: log2(N) rounds.

    Round r exchanges with the partner at XOR distance ``2**r``.  Rounds
    are separated by ``round_gap`` cycles (default: enough for one
    message to drain an uncontended path, ``3·flits``), approximating
    the data dependency between rounds without modeling replies.

    Raises:
        ConfigurationError: for non-power-of-two node counts.
    """
    if num_nodes & (num_nodes - 1):
        raise ConfigurationError(
            f"butterfly barrier needs a power-of-two node count, got {num_nodes}"
        )
    gap = round_gap if round_gap is not None else 3 * flits
    trace = Trace(num_nodes)
    rounds = num_nodes.bit_length() - 1
    for r in range(rounds):
        mask = 1 << r
        for src in range(num_nodes):
            trace.send(r * gap, src, src ^ mask, flits)
    return trace


def broadcast_trace(num_nodes: int, root: int = 0, flits: int = 16) -> Trace:
    """Binomial-tree broadcast from ``root``: log2(N) rounds.

    In round r every node that already holds the data forwards it to the
    partner at XOR distance ``2**r`` (relative to the root's numbering).
    Message times chain the rounds by the uncontended forwarding delay.
    """
    if num_nodes & (num_nodes - 1):
        raise ConfigurationError(
            f"binomial broadcast needs a power-of-two node count, got {num_nodes}"
        )
    if not 0 <= root < num_nodes:
        raise ConfigurationError(f"root {root} out of range")
    trace = Trace(num_nodes)
    rounds = num_nodes.bit_length() - 1
    gap = 3 * flits
    for r in range(rounds):
        mask = 1 << r
        for rel in range(mask):
            src = rel ^ root
            dst = (rel | mask) ^ root
            if src != dst:
                trace.send(r * gap, src, dst, flits)
    return trace
