"""Packet bookkeeping.

A packet is a worm of ``size`` flits; the first flit is the header (it
carries the routing information and allocates lanes), the last the tail
(it releases them).  Individual flits carry no payload in the model, so
the packet object only records identity and the timestamps needed for the
paper's metrics:

* ``created`` — cycle the source process generated it;
* ``injected`` — cycle the header entered the injection lane (the start of
  the paper's network latency, which excludes source queueing);
* ``delivered`` — cycle the tail reached the destination node;
* ``dropped`` — cycle a fail-stop fault killed the worm in flight (-1
  for the lossless default; a packet is never both delivered and
  dropped).

All nine fields are integers: on the kernel's storage
(:func:`repro.sim.native.storage`) a packet is nine machine words and
nothing the garbage collector needs to follow — though it still tracks every
packet, on both storages: the class statement makes a heap type, and CPython
gives each one the collector's flag.
"""

from __future__ import annotations

from .native import INT, storage


class Packet(
    storage(
        "Packet",
        (
            ("pid", INT),
            ("src", INT),
            ("dst", INT),
            ("size", INT),
            ("created", INT),
            ("injected", INT),
            ("head_delivered", INT),
            ("delivered", INT),
            ("dropped", INT),
        ),
    )
):
    """One wormhole packet."""

    __slots__ = ()

    def __init__(self, pid: int, src: int, dst: int, size: int, created: int):
        self.pid = pid
        self.src = src
        self.dst = dst
        self.size = size
        self.created = created
        self.injected = -1
        #: cycle the header flit reached the destination (§8 distinguishes
        #: head latency from tail latency for the flow-control analysis)
        self.head_delivered = -1
        self.delivered = -1
        #: cycle a fail-stop fault destroyed the worm in flight
        self.dropped = -1

    @property
    def network_latency(self) -> int:
        """Header injection to tail delivery, in cycles (§6).

        Only meaningful once delivered; -1 sentinel arithmetic is guarded
        by the caller (the stats collector only sees delivered packets).
        """
        return self.delivered - self.injected

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(pid={self.pid}, {self.src}->{self.dst}, size={self.size}, "
            f"created={self.created}, injected={self.injected}, delivered={self.delivered})"
        )


class _FaultSentinel(Packet):
    """The sentinel's own type, so pickling preserves ``is``-identity.

    Checkpointing pickles the whole engine graph; a sentinel pickled by
    value would come back as a copy and silently break every
    ``is FAULT_SENTINEL`` check after a restore.  Reducing to the module
    attribute costs nothing for ordinary packets (pickle consults
    ``__reduce_ex__`` per *type*, via C dispatch) — unlike a pickler-level
    ``persistent_id`` hook, which is a Python call per pickled object.  It
    is ``__reduce_ex__`` that is overridden, as on the storage base: pickle
    asks for it first, and a ``__reduce__`` here would never be called.
    """

    __slots__ = ()

    def __reduce_ex__(self, protocol):
        return _restore_fault_sentinel, ()


def _restore_fault_sentinel() -> "Packet":
    return FAULT_SENTINEL


#: Sentinel packet marking a lane as dead (fault injection): it never
#: moves and is never delivered, so allocating it to a lane makes the
#: lane permanently busy for routing without touching the hot paths.
#: Defined here (rather than in :mod:`repro.faults`) so low-level code —
#: the engine's deadlock diagnostics in particular — can recognize
#: faulted lanes without importing the fault subsystem.
FAULT_SENTINEL = _FaultSentinel(pid=-1, src=0, dst=0, size=1 << 30, created=-1)
