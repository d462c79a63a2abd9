"""The four phases of a cycle in Python: the reference (paper §4).

``link_phase``, ``injection_phase``, ``crossbar_phase`` and ``routing_phase``
are what :meth:`repro.sim.engine.Engine.step` calls, in that order, where the
compiled phases cannot be had — and what the compiled phases are held to
where they can.  They read like §4: a direction's arbiter picks a lane
(:func:`pick_lane`), the flit leaves it (:func:`take_flit`) and crosses to the
next switch (:func:`fabric_hop`) or to its node (:func:`eject_hop`); a node
starts a packet (:func:`start_packet`, :func:`inject_header`) or streams the
next flit of one (:func:`stream_flit`); a crossbar binding forwards a flit
(:func:`forward`); a switch routes one header (:func:`route_switch`,
:func:`bind`).  A lane is a handful of counters, not a queue of flits (see
:mod:`repro.router.lane`), and each function updates them in place.  The
lanes themselves are made here too: ``Engine.__init__`` wires them
(:func:`wire_switch_links`, :func:`wire_node_links`) and
``Engine.__setstate__`` re-derives what a pickle leaves out
(:func:`derive_directions`), through ``NATIVE_PHASES or`` this module as
``step`` does.

**The twin rule.**  Every function here has a function of the *same name* in
``_phases.c`` or ``_routing.c`` — the wiring in ``_storage.c``, beside the
struct types it allocates — with the same statement order, the same probe
calls and the same values stored; the classes ``Link``, ``Inject`` and
``Walk`` are those units' structs of the same names — what a phase keeps at
hand for the length of its call.  Change one and change the other, in the
same commit.  Three tests hold the pair together:

* ``tests/test_property_engine.py::TestTheTwinContract::test_every_reference_function_has_a_c_twin_of_its_name``
  — the names, and by name what exists in C only (``C_ONLY`` there:
  look-ahead, boxing and reference-holding helpers, ``age_order``);
* ``tests/test_property_engine.py::TestCompiledPhasesInLockstep`` — the
  behaviour: a kernel engine and a twin stepped through this module agree on
  the state fingerprint, the routing algorithm's state and all nine probe
  events after every cycle of every recipe drawn from the space the
  ``LOCKSTEP_*`` tables there declare (which ``SimulationConfig`` fields are
  drawn and from what, which are pinned and why, which instruments and
  algorithm classes), and
  ``TestTheTwinContract::test_the_recipe_space_names_every_config_field``
  fails when ``SimulationConfig`` has a field in no table.  A model change
  that comes with a new config field therefore cannot land in one
  implementation only.
* ``tests/test_wiring.py`` — the wiring: an engine wired (and restored) by
  either pickles to the same bytes, has the same detailed fingerprint and
  the same value in every field of every lane and direction.

``select``, ``pick_free_lane`` and ``randbelow`` of :mod:`repro.routing` and
their twins in ``_select.c`` are held together the same way by
``tests/test_routing_contract.py``.

Nothing selects between the implementations but whether the kernel could be
built.  Speed is the kernel's business: this module is written to be read
against the C, one call per step of a flit's way, and runs the paper's
256-node networks at about an eighth of the kernel's pace — and at ×0.7 of
the hand-inlined loops it replaced, above the 2.0 k / 0.8 k cycles/s the
kernel-absent path is held to (``BENCH_perf.json``, PR 22's two records).
"""

from __future__ import annotations

from ..errors import SimulationError
from ..router.lane import EjectionLane, InputLane, LinkDirection, OutputLane
from .packet import Packet


def handler(handlers, event: str):
    """``handlers.<event>``; ``None`` when nobody consumes the event."""
    return None if handlers is None else getattr(handlers, event)


def enqueue_header(engine, lane) -> None:
    """A header has entered ``lane``: it waits for the routing phase of its
    switch, which wakes and joins the routing queue."""
    s = lane.switch
    engine.pending[s].append(lane)
    engine._route_awake[s] = True
    if not engine._in_route_queue[s]:
        engine._in_route_queue[s] = True
        engine.route_queue.append(s)


# -- the link phase --------------------------------------------------------------


class Link:
    """What the link phase keeps at hand for the length of its call."""

    __slots__ = (
        "engine", "t", "warm", "age", "delivered", "awake",
        "on_blocked", "on_head_arrived", "on_head_delivered", "on_tail_delivered",
        "rr_after", "per_node", "config", "result",
    )

    def __init__(self, engine, t: int, handlers, warm: bool):
        self.engine = engine
        self.t = t
        self.warm = warm
        #: flits ejected so far this cycle
        self.delivered = 0
        self.awake = engine._route_awake
        self.on_blocked = handler(handlers, "on_direction_blocked")
        self.on_head_arrived = handler(handlers, "on_head_arrived")
        self.on_head_delivered = handler(handlers, "on_head_delivered")
        self.on_tail_delivered = handler(handlers, "on_tail_delivered")
        self.rr_after = engine._rr_after
        self.per_node = engine.delivered_flits_per_node
        self.config = engine.config
        self.result = engine.result
        self.age = engine._age_arbiter


def pick_lane(k: Link, d):
    """The arbiter of the busy direction ``d``: the lane whose flit crosses,
    or ``None`` (after counting the cycle ``d.blocked`` and telling the probe)
    when no lane has both a flit and a credit.  Oldest packet first, lowest
    lane on ties, under the age arbiter; else the first such lane from
    ``d.rr`` round."""
    age = k.age
    best = None
    # rot[rr]: the lanes from ``d.rr`` round (IndexError for a pointer past them)
    for cand in d.lanes if age else d.rot[d.rr]:
        if cand.buffered <= 0 or cand.credits <= 0:
            continue
        if not age:
            best = cand
            break
        created = cand.packet.created
        if best is None or created < best_age:
            best = cand
            best_age = created
    if best is None:
        d.blocked += 1
        if k.on_blocked is not None:
            k.on_blocked(k.t, d)
    return best


def take_flit(d, lane):
    """The flit leaves its output lane: counters of the lane and of ``d``.
    Returns the lane's packet and sink."""
    pkt = lane.packet
    left = lane.buffered - 1
    lane.buffered = left
    if left == 0:
        d.nbusy -= 1
    lane.credits -= 1
    d.flits += 1
    return pkt, lane.sink


def fabric_hop(k: Link, d) -> bool:
    """One switch->switch direction: True when a flit crossed."""
    lane = pick_lane(k, d)
    if lane is None:
        return False
    pkt, sink = take_flit(d, lane)
    sink.last_arrival = k.t
    if sink.packet is None:
        sink.packet = pkt
        sink.received = received = 1
        enqueue_header(k.engine, sink)
        if k.on_head_arrived is not None:
            k.on_head_arrived(k.t, sink, pkt)
    else:
        sink.received = received = sink.received + 1
    if received == pkt.size:  # tail left this switch: free the output lane
        lane.packet = None
    d.rr = k.rr_after[lane.vc]
    return True


def record_delivery(k: Link, pkt) -> None:
    """The measurement-window statistics of a delivered packet."""
    res = k.result
    injected = pkt.injected
    if injected < k.config.warmup_cycles:
        return
    latency = k.t - injected
    res.delivered_packets += 1
    res.latency_sum += latency
    res.head_latency_sum += pkt.head_delivered - injected
    if latency > res.latency_max:
        res.latency_max = latency
    if k.config.collect_latencies:
        res.latencies.append(latency)


def eject_hop(k: Link, d) -> bool:
    """One ejection direction; the node consumes the flit immediately."""
    lane = pick_lane(k, d)
    if lane is None:
        return False
    pkt, sink = take_flit(d, lane)
    if sink.packet is None:
        received = 1
        sink.packet = pkt
        pkt.head_delivered = k.t
        if k.on_head_delivered is not None:
            k.on_head_delivered(k.t, pkt)
    else:
        received = sink.received + 1
    k.delivered += 1
    if k.warm:
        k.per_node[sink.node] += 1
    if received == pkt.size:
        pkt.delivered = k.t
        sink.packet = None
        sink.received = 0
        # an output lane of this switch is allocatable again
        k.awake[lane.switch] = True
        k.engine.delivered_packets_total += 1
        if k.on_tail_delivered is not None:
            k.on_tail_delivered(k.t, pkt)
        record_delivery(k, pkt)
        # the tail left the switch too: free the output lane
        lane.packet = None
    else:
        sink.received = received
    d.rr = k.rr_after[lane.vc]
    return True


def walk(k: Link, dirs: list, hop) -> bool:
    """Every direction of ``dirs`` holding a flit, in list order: True when
    any flit crossed.  An idle direction costs one comparison."""
    moved = False
    for d in dirs:
        if d.nbusy != 0 and hop(k, d):
            moved = True
    return moved


def link_phase(engine, t: int, handlers, warm: bool) -> bool:
    """One flit per busy direction; returns progress."""
    k = Link(engine, t, handlers, warm)
    # switch->switch directions first, then ejection: the order of Engine.dirs
    fabric = walk(k, engine._fabric_dirs, fabric_hop)
    eject = walk(k, engine._eject_dirs, eject_hop)
    if k.delivered:
        engine.delivered_flits_total += k.delivered
        if warm:
            k.result.delivered_flits += k.delivered
            engine._interval_delivered += k.delivered
    return fabric or eject


# -- the injection phase -----------------------------------------------------------


class Inject:
    """What the injection phase keeps at hand for the length of its call."""

    __slots__ = (
        "engine", "t", "warm", "cap", "streamed", "on_generated", "on_injected",
        "result", "default_size",
    )

    def __init__(self, engine, t: int, handlers, warm: bool):
        self.engine = engine
        self.t = t
        self.warm = warm
        #: flits injected so far this cycle
        self.streamed = 0
        self.on_generated = handler(handlers, "on_packets_generated")
        self.on_injected = handler(handlers, "on_packet_injected")
        self.cap = engine.config.buffer_flits
        self.default_size = engine.config.packet_flits
        self.result = engine.result


def poll_source(j: Inject, node) -> None:
    """The cycle ``node.source`` next creates in has come: let it create."""
    src = node.source
    created = src.advance(j.t)
    node.wake = src.next_cycle()
    if created:
        if j.warm:
            j.result.generated_packets += created
        if j.on_generated is not None:
            j.on_generated(j.t, node.nid, created)


def inject_header(j: Inject, node, lane, entry: tuple) -> None:
    """The header of the queued packet ``entry`` enters ``lane``, which is free."""
    e = j.engine
    # trace-driven sources carry an explicit per-message size
    size = entry[2] if len(entry) > 2 else j.default_size
    pkt = Packet(e._next_pid, node.nid, entry[1], size, entry[0])
    e._next_pid += 1
    pkt.injected = j.t
    lane.packet = pkt
    lane.received = 1
    lane.last_arrival = j.t
    enqueue_header(e, lane)
    node.packet = pkt
    node.sent = 1
    node.lane = lane
    e.injected_packets_total += 1
    j.streamed += 1
    in_flight = e.in_flight_packets()
    if in_flight > e._peak_in_flight:
        e._peak_in_flight = in_flight
    if j.warm:
        j.result.injected_packets += 1
    if j.on_injected is not None:
        j.on_injected(j.t, pkt)
    if size == 1:  # degenerate tiny packets
        node.packet = None
        node.lane = None


def start_packet(j: Inject, node) -> None:
    """Nothing streaming at ``node``: if a packet is queued, allocate a free
    injection lane (rotating fair choice) and inject its header."""
    queue = node.source.queue
    if not queue:
        return
    lanes = node.lanes
    n = len(lanes)
    rr = node.rr
    for off in range(n):
        idx = (rr + off) % n
        lane = lanes[idx]
        if lane.packet is None:
            break
    else:  # every injection lane is taken
        return
    node.rr = (idx + 1) % n
    inject_header(j, node, lane, queue.popleft())


def stream_flit(j: Inject, node, pkt) -> None:
    """One more flit of ``node.packet`` enters ``node.lane``, if the lane has space."""
    lane = node.lane
    received = lane.received
    if received - lane.forwarded >= j.cap:
        return
    lane.received = received + 1
    lane.last_arrival = j.t
    node.sent += 1
    j.streamed += 1
    if node.sent == pkt.size:
        node.packet = None
        node.lane = None


def injection_phase(engine, t: int, handlers, warm: bool) -> bool:
    """Each node streams at most one flit into its injection channel (the
    source throttling of §3); returns progress.  A source is polled only from
    the cycle it next creates in (``node.wake``)."""
    j = Inject(engine, t, handlers, warm)
    for node in engine.active_nodes:
        if t >= node.wake:
            poll_source(j, node)
        pkt = node.packet
        if pkt is None:
            start_packet(j, node)
        else:
            stream_flit(j, node, pkt)
    if j.streamed:
        engine.injected_flits_total += j.streamed
    return j.streamed != 0


# -- the crossbar phase ------------------------------------------------------------


def forward(lane, now: int, cap: int, awake: list) -> tuple[bool, bool]:
    """One binding forwards a flit if it holds one that did not arrive this
    cycle and its output lane has space.  Returns ``(stays, moved)``: whether
    the binding stays (its tail has not gone through) and whether a flit
    crossed."""
    forwarded = lane.forwarded
    buffered = lane.received - forwarded
    # a flit that arrived in this cycle's link phase waits a cycle
    if buffered < 1 or (buffered == 1 and lane.last_arrival == now):
        return True, False
    out = lane.bound
    filled = out.buffered
    if filled >= cap:
        return True, False
    if filled == 0:
        out.direction.nbusy += 1
    out.buffered = filled + 1
    src_out = lane.src_out
    if src_out is not None:
        src_out.credits += 1
    forwarded += 1
    if forwarded != lane.packet.size:
        lane.forwarded = forwarded
        return True, True
    # tail through the crossbar: release the input lane, which makes the
    # upstream output lane allocatable again
    lane.packet = None
    lane.received = 0
    lane.forwarded = 0
    lane.bound = None
    if src_out is not None:
        awake[src_out.switch] = True
    return False, True


def crossbar_phase(engine, t: int) -> bool:
    """Every binding forwards at most one flit; returns progress.
    ``engine.bindings`` is replaced by a new list without the bindings whose
    tail went through (each binding touches only its own two lanes, so their
    order is immaterial)."""
    cap = engine.config.buffer_flits
    awake = engine._route_awake
    kept = []
    progress = False
    for lane in engine.bindings:
        stays, moved = forward(lane, t, cap, awake)
        if moved:
            progress = True
        if stays:
            kept.append(lane)
    engine.bindings = kept
    return progress


# -- the routing phase -------------------------------------------------------------


class Walk:
    """What the routing phase keeps at hand for the length of its call."""

    __slots__ = (
        "engine", "t", "age", "drained", "progress", "on_routed",
        "awake", "pending", "route_rr", "in_queue", "bindings", "select",
    )

    def __init__(self, engine, t: int, handlers):
        self.engine = engine
        self.t = t
        #: a switch left the queue: rebuild it
        self.drained = False
        #: a header was routed
        self.progress = False
        self.on_routed = handler(handlers, "on_header_routed")
        self.select = engine.routing.select
        self.pending = engine.pending
        self.route_rr = engine.route_rr
        self.in_queue = engine._in_route_queue
        self.awake = engine._route_awake
        self.bindings = engine.bindings
        self.age = engine._age_arbiter


def bind(w: Walk, s: int, lane, pkt, out) -> None:
    """The header on ``lane`` takes ``out``."""
    lane.bound = out
    out.packet = pkt
    w.bindings.append(lane)
    if w.on_routed is not None:
        w.on_routed(w.t, s, lane, out)


def route_switch(w: Walk, s: int) -> None:
    """One switch routes at most one header: its pending ones are tried from
    the round-robin pointer on (oldest first under the age arbiter) until one
    gets a lane.

    A switch whose pass tried every pending header in vain goes to sleep:
    ``select`` returning None draws no random number and changes no state
    (the RoutingAlgorithm contract), so re-running it is pointless until a
    header arrives there, one of the switch's output lanes becomes
    allocatable, or a cycle hook / ``kill_packet`` changes lanes behind the
    engine's back — each of which sets ``awake``."""
    if not w.awake[s]:
        return
    pend = w.pending[s]
    n = len(pend)
    if n == 0:
        w.drained = True
        w.in_queue[s] = False
        return
    if w.age:
        # oldest header first; sort stability breaks ties on arrival order
        # within the pending list
        ages = [lane.packet.created for lane in pend]
        order = sorted(range(n), key=ages.__getitem__)
    else:
        order = None
        rr = w.route_rr[s] % n
    routed = -1
    fresh = False
    for off in range(n):
        if order is not None:
            idx = order[off]
        else:
            idx = rr + off
            if idx >= n:
                idx -= n
        lane = pend[idx]
        if lane.received == 1 and lane.last_arrival == w.t:
            # the header itself arrived in this cycle's link phase; routing
            # it costs one full T_routing.  (received > 1 means the header
            # arrived earlier — last_arrival tracks the newest flit, not the
            # head.)
            fresh = True
            continue
        pkt = lane.packet
        out = w.select(s, lane, pkt)
        if out is not None:
            bind(w, s, lane, pkt, out)
            routed = idx
            break
    if routed >= 0:
        pend.pop(routed)
        w.progress = True
        if pend:
            w.route_rr[s] = routed % len(pend)
        else:
            w.drained = True
            w.route_rr[s] = 0
            w.in_queue[s] = False
    elif not fresh:  # every pending header tried in vain: sleep until something changes
        w.awake[s] = False


def rebuild_queue(w: Walk, queue: list) -> None:
    """``engine.route_queue`` = the members of ``queue`` still marked in
    ``_in_route_queue``, in their order."""
    w.engine.route_queue = list(filter(w.in_queue.__getitem__, queue))


def routing_phase(engine, t: int, handlers) -> bool:
    """Each switch with pending headers routes at most one; returns progress.
    The queue keeps its members and their order; a sleeping switch costs one
    flag test."""
    queue = engine.route_queue
    if not queue:
        return False
    w = Walk(engine, t, handlers)
    for s in queue:
        route_switch(w, s)
    if w.drained:
        rebuild_queue(w, queue)
    return w.progress


# -- construction ------------------------------------------------------------------

#: effectively infinite credit for ejection channels (the node consumes
#: flits as fast as the link can deliver them)
EJECT_CREDITS = 1 << 60


def wire_switch_links(engine, cap: int, vcs: int) -> None:
    """Create the lanes of every switch->switch channel, both ways: per
    direction the ``vcs`` input lanes downstream, the output lanes feeding
    them, and the direction they are multiplexed onto."""
    in_lanes, out_lanes, dirs = engine.in_lanes, engine.out_lanes, engine.dirs
    channels = range(vcs)
    for link in engine.topology.switch_links():
        for sa, pa, sb, pb in (
            (link.switch_a, link.port_a, link.switch_b, link.port_b),
            (link.switch_b, link.port_b, link.switch_a, link.port_a),
        ):
            if out_lanes[sa][pa] or in_lanes[sb][pb]:
                raise SimulationError(
                    f"port wired twice: switch {sa} port {pa} -> switch {sb} port {pb}"
                )
            ins = [InputLane(sb, pb, v, cap) for v in channels]
            outs = [OutputLane(sa, pa, v, cap, ins[v], cap) for v in channels]
            for v in channels:
                ins[v].src_out = outs[v]
            in_lanes[sb][pb] = ins
            out_lanes[sa][pa] = outs
            dirs.append(LinkDirection(outs, index=len(dirs)))


def wire_node_links(engine, cap: int, vcs: int, injection_lanes: int) -> None:
    """Create each node's ejection channel and injection lanes.

    A cube router has a single injection channel (P = 17 in §5); a
    tree leaf port carries the full V lanes (P = 2kV).
    """
    in_lanes, out_lanes, dirs = engine.in_lanes, engine.out_lanes, engine.dirs
    channels = range(vcs)
    for nl in engine.topology.node_links():
        s, p, node = nl.switch, nl.port, nl.node
        # ejection: switch output lanes -> per-VC ejection sinks
        sinks = [EjectionLane(node) for _ in channels]
        outs = [OutputLane(s, p, v, cap, sinks[v], EJECT_CREDITS) for v in channels]
        engine.eject_lanes[node] = sinks
        out_lanes[s][p] = outs
        dirs.append(LinkDirection(outs, to_node=True, index=len(dirs)))
        # injection: the node feeds the switch input lanes directly
        ins = [InputLane(s, p, v, cap) for v in range(injection_lanes)]
        in_lanes[s][p] = ins
        engine._injection_lanes[node] = ins


def derive_directions(dirs: list) -> None:
    """What a pickle of ``dirs`` leaves out (``LinkDirection.__getstate__``):
    each direction's ``index``, its position in the list, and its ``rot``."""
    for index, d in enumerate(dirs):
        d.index = index
        d.build_rot()
