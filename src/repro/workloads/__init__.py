"""Trace-driven workloads and collective-operation generators.

The paper motivates its synthetic benchmarks as "representative of shared
memory computation and common parallel algorithms" (§1); this package
closes the loop for *algorithm-shaped* traffic: explicit message traces
(each message is a ``(cycle, src, dst, flits)`` tuple) played through the
same engine, plus generators for the classic communication phases of
parallel algorithms:

* **all-to-all personalized exchange** — the kernel of sample sort and
  matrix transposition (the paper cites Helman/Bader/JáJá [35]);
* **butterfly barrier / allreduce rounds** — log₂N rounds of pairwise
  exchange at hypercube distances (bit-complement sub-permutations);
* **stencil halo exchange** — nearest-neighbor rounds per dimension;
* **broadcast** — a binomial tree from one root.

Use :func:`~repro.workloads.runner.run_trace` to play any trace on a
paper-normalized network and get the makespan plus per-message latency
statistics, or hand :class:`~repro.workloads.trace.Replay` to
:func:`~repro.sim.run.simulate` with any other instrument.
"""

from .collectives import (
    alltoall_trace,
    broadcast_trace,
    butterfly_barrier_trace,
    stencil_trace,
)
from .runner import TraceResult, drained, run_trace
from .trace import Replay, Trace, TraceMessage, TraceSource

__all__ = [
    "alltoall_trace",
    "broadcast_trace",
    "butterfly_barrier_trace",
    "stencil_trace",
    "TraceResult",
    "drained",
    "run_trace",
    "Replay",
    "Trace",
    "TraceMessage",
    "TraceSource",
]
