"""Virtual-channel lanes and link directions (paper §4, Fig. 4).

Wormhole switching allocates a virtual channel to one packet from header to
tail, so a lane never interleaves flits of different packets and can be
represented by counters instead of per-flit objects:

* an :class:`InputLane` tracks how many flits of its current packet it has
  ``received`` from the link and ``forwarded`` through the crossbar; the
  buffered amount is ``received - forwarded`` and is bounded by ``cap``;
* an :class:`OutputLane` tracks flits buffered after the crossbar and
  the credit counter of §4: initialized to the downstream input lane's
  buffer size, decremented per flit sent, incremented per acknowledgment
  (the downstream crossbar forwarding a flit).  How many flits it has
  ``sent`` on the link is read off its sink, which counts them as
  ``received``.

A :class:`LinkDirection` groups the output lanes multiplexed on one
physical channel direction; the engine's link phase moves at most one flit
per direction per cycle, chosen by a round-robin arbiter among lanes that
have a flit and a credit.

The counters are what the engine's loops spend their time on, so where the
compiled phases exist the classes keep their fields in C structs of the same
extension (:func:`repro.sim.native.storage`: each class declares its fields
once, as ``(name, kind)`` pairs, and subclasses what that returns with
``__slots__ = ()``): a counter, id or cycle stamp is a 64-bit integer there —
assigning anything else raises at the assignment — and a reference is any
object.  Elsewhere the same names are ``__slots__``.  Reading and writing
``lane.buffered`` is the same on both, and so is what is pickled: the field
values, in table order (``storage`` defines it once for every class).

One modeled simplification (see DESIGN.md): an output lane is allocatable
to a new packet only once its *downstream input lane* has fully drained the
previous packet, so the (output lane → input lane) pair always carries a
single packet.  With 4-flit buffers and 16/32-flit packets this removes an
overlap window of at most 4 flits per hop, identically for both networks.
"""

from __future__ import annotations

from ..sim.native import INT, REF, storage
from ..sim.packet import Packet


class InputLane(
    storage(
        "InputLane",
        (
            ("switch", INT),
            ("port", INT),
            ("vc", INT),
            ("cap", INT),
            ("packet", REF),
            ("received", INT),
            ("forwarded", INT),
            ("bound", REF),
            ("src_dir", INT),
            ("last_arrival", INT),
        ),
    )
):
    """Input buffer of one virtual channel at one switch port."""

    __slots__ = ()

    def __init__(self, switch: int, port: int, vc: int, cap: int, src_dir: int = -1):
        self.switch = switch
        self.port = port
        self.vc = vc
        self.cap = cap
        #: packet currently allocated to this lane (None = free)
        self.packet: Packet | None = None
        #: flits of the current packet received from the link so far
        self.received = 0
        #: flits forwarded through the crossbar so far
        self.forwarded = 0
        #: output lane this lane is bound to in the crossbar (None before
        #: the header is routed)
        self.bound: OutputLane | None = None
        #: position in ``Engine.dirs`` of the upstream direction whose lane
        #: ``vc`` feeds this lane (-1 for injection lanes, which are fed
        #: directly by the node)
        self.src_dir = src_dir
        #: cycle stamp of the most recent flit arrival, used to prevent a
        #: flit from crossing link and crossbar in the same cycle
        self.last_arrival = -1

    @property
    def buffered(self) -> int:
        return self.received - self.forwarded

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pid = self.packet.pid if self.packet else None
        return (
            f"InputLane(sw={self.switch}, port={self.port}, vc={self.vc}, "
            f"pkt={pid}, buf={self.buffered})"
        )


class OutputLane(
    storage(
        "OutputLane",
        (
            ("switch", INT),
            ("port", INT),
            ("vc", INT),
            ("cap", INT),
            ("packet", REF),
            ("buffered", INT),
            ("credits", INT),
            ("sink", REF),
            ("dir", INT),
        ),
    )
):
    """Output buffer of one virtual channel at one switch port."""

    __slots__ = ()

    def __init__(
        self,
        switch: int,
        port: int,
        vc: int,
        cap: int,
        sink: InputLane | EjectionLane | None = None,
        credits: int = 0,
    ):
        self.switch = switch
        self.port = port
        self.vc = vc
        self.cap = cap
        #: packet owning this lane (None = unallocated)
        self.packet: Packet | None = None
        #: flits buffered, waiting for the link
        self.buffered = 0
        #: free buffer slots at the downstream input lane (§4 ack counter)
        self.credits = credits
        #: downstream input lane (or EjectionLane) across the link
        self.sink = sink
        #: position in ``Engine.dirs`` of the link direction this lane is
        #: multiplexed onto (-1: not wired into an engine)
        self.dir = -1

    @property
    def sent(self) -> int:
        """Flits of the current packet already sent on the link: what the
        sink has received of it (the pair carries one packet at a time, see
        the module docstring), 0 before the header leaves and after the
        tail has."""
        packet = self.packet
        sink = self.sink
        if packet is None or sink is None or sink.packet is not packet:
            return 0
        return sink.received

    def is_free(self) -> bool:
        """Allocatable to a new packet (see module docstring)."""
        if self.packet is not None:
            return False
        sink = self.sink
        return sink is None or sink.packet is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pid = self.packet.pid if self.packet else None
        return (
            f"OutputLane(sw={self.switch}, port={self.port}, vc={self.vc}, "
            f"pkt={pid}, buf={self.buffered}, cred={self.credits})"
        )


class EjectionLane(storage("EjectionLane", (("node", INT), ("packet", REF), ("received", INT)))):
    """Node-side sink of one virtual channel of the ejection channel.

    The node consumes arriving flits immediately (the physical bottleneck
    — one flit per cycle on the node link — is enforced by the link-phase
    arbiter), so the lane only tracks reassembly progress of the current
    packet (``eject_hop`` of the link phase).
    """

    __slots__ = ()

    def __init__(self, node: int):
        self.node = node
        self.packet: Packet | None = None
        self.received = 0


class LinkDirection(
    storage(
        "LinkDirection",
        (
            ("lanes", REF),
            ("index", INT),
            ("rr", INT),
            ("nbusy", INT),
            ("to_node", REF),
            ("flits", INT),
            ("flits_at_warmup", INT),
            ("blocked", INT),
            ("blocked_at_warmup", INT),
        ),
    )
):
    """One direction of a physical channel: V output lanes, one flit/cycle.

    ``nbusy`` counts member lanes with buffered flits so the engine's link
    phase can skip idle directions with a single comparison; the engine
    maintains it on every buffered-count 0↔1 transition.
    """

    __slots__ = ()

    def __init__(self, lanes: list[OutputLane], to_node: bool = False, index: int = -1):
        self.lanes = lanes
        #: position in ``Engine.dirs`` — what per-direction tables of
        #: probes are indexed by (-1: not wired into an engine)
        self.index = index
        for lane in lanes:
            lane.dir = index
        #: round-robin pointer for the fair arbiter
        self.rr = 0
        #: number of lanes with buffered > 0
        self.nbusy = 0
        #: True for ejection channels (sinks are EjectionLanes)
        self.to_node = to_node
        #: flits transferred over this direction since cycle 0
        self.flits = 0
        #: snapshot of ``flits`` taken by the engine at the warm-up
        #: boundary, so utilization analyses can report measurement-window
        #: rates (``measured_flits``) instead of whole-run counts
        self.flits_at_warmup = 0
        #: cycles in which this direction held flits but moved none (no lane
        #: had both a flit and a credit): one per ``on_direction_blocked``
        self.blocked = 0
        #: snapshot of ``blocked`` at the warm-up boundary
        self.blocked_at_warmup = 0

    @property
    def measured_flits(self) -> int:
        """Flits transferred during the measurement window only."""
        return self.flits - self.flits_at_warmup

    @property
    def measured_blocked(self) -> int:
        """Blocked cycles during the measurement window only."""
        return self.blocked - self.blocked_at_warmup

    @property
    def label(self) -> str:
        """Stable name in documents and digests: ``n<node><`` for an
        ejection link, ``s<switch>p<port>`` for a fabric link."""
        if self.to_node:
            return f"n{self.lanes[0].sink.node}<"
        return f"s{self.switch}p{self.port}"

    @property
    def switch(self) -> int:
        """Sending switch of this direction."""
        return self.lanes[0].switch

    @property
    def port(self) -> int:
        """Sending port of this direction."""
        return self.lanes[0].port
