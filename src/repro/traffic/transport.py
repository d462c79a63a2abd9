"""Source-side reliable transport: exactly-once delivery over a lossy
network.

The engine's fail-stop fault mode (:class:`~repro.faults.FaultPolicy`)
destroys in-flight worms, which breaks the lossless assumption every
metric in the paper rests on.  This module restores end-to-end delivery
above the network, with the textbook ARQ machinery scaled down to the
flit-level model:

* **sequence numbers** — every copy is injected for one message, and the
  sink recognises a copy through the message it was injected for (its
  packet id maps to it), so a retransmission counts against the message
  it repeats; ``seq`` names that message: a transport-wide sequence number
  per message, its creation index;
* **ACK return path** — a delivered first copy triggers an acknowledgment
  that arrives back at the source after a configurable modeled delay
  (the reverse path is not simulated flit-by-flit: ACKs are tiny and
  the paper's networks are symmetric, so a fixed delay is the honest
  abstraction);
* **timeout + retransmission** — every transmitted copy of an unACKed
  message arms a timer; on expiry the source re-enqueues the message,
  backing off exponentially with deterministic jitter to avoid retry
  storms;
* **retry budget** — after ``1 + max_retries`` transmissions the source
  gives the message up and records it (the bounded-loss escape hatch
  that keeps a dead destination from pinning the source forever);
* **duplicate suppression** — the sink counts every delivery after the
  first as a duplicate, so *goodput* (first-copy payload) is reported
  separately from raw accepted bandwidth.

:class:`ReliableTransport` is an ordinary
:class:`~repro.obs.probe.Probe`: it observes injections, deliveries and
drops, and drives its timer wheel from ``on_cycle``: one bucket per due
cycle, holding that cycle's events in the order they were scheduled, and
only live ones — an ACK takes its message's timeout out of its bucket.
It wraps every
node's :class:`~repro.traffic.generator.PacketSource` in a
:class:`ReliableSource` so retransmissions travel the normal
single-injection-channel path and a drain (a run of finite traffic) waits
for the protocol (not just the network) to quiesce.

Everything is deterministic given the transport seed: the only random
element is the retry jitter, drawn from a dedicated
:class:`random.Random` stream.

Optionally the transport closes the loop on congestion: wired to a
:class:`~repro.traffic.congestion.CongestionControl`, new messages wait
in a per-source hold queue until their destination's AIMD window has
room, marked ACKs and timeouts shrink the window, and give-ups release
their slot (see :mod:`repro.traffic.congestion`).
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass

from ..errors import ConfigurationError
from ..fields import field_list
from ..obs.probe import Instrument, Probe, compose_probe
from ..routing.base import randbelow


@dataclass(frozen=True)
class TransportConfig:
    """Tuning knobs of the reliable transport.

    Attributes:
        ack_delay: modeled cycles for an acknowledgment to travel back
            from the sink to the source.
        base_timeout: retransmission timer for the first copy, in
            cycles; should comfortably exceed the uncontended round
            trip (delivery latency + ``ack_delay``).
        backoff: multiplicative timer growth per retry (>= 1.0).
        jitter: maximum extra cycles added to each timer, drawn
            uniformly from ``[0, jitter]`` (decorrelates retry storms).
        max_retries: retransmissions allowed per message before the
            source gives it up; the total transmission budget is
            ``1 + max_retries``.
        seed: seed of the transport's dedicated jitter stream.
    """

    ack_delay: int = 8
    base_timeout: int = 64
    backoff: float = 2.0
    jitter: int = 4
    max_retries: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.ack_delay < 1:
            raise ConfigurationError(f"ack_delay must be >= 1, got {self.ack_delay}")
        if self.base_timeout < 1:
            raise ConfigurationError(
                f"base_timeout must be >= 1, got {self.base_timeout}"
            )
        if self.backoff < 1.0:
            raise ConfigurationError(f"backoff must be >= 1.0, got {self.backoff}")
        if self.jitter < 0:
            raise ConfigurationError(f"jitter must be >= 0, got {self.jitter}")
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )


@field_list
class _Message:
    """Transport state of one application message."""

    __slots__ = (
        "src",
        "dst",
        "seq",
        "size",
        "created",
        "attempts",
        "acked",
        "gave_up",
        "delivered_first",
        "deadline",
        "claimed",
        "last_sent",
    )

    def __init__(self, src: int, dst: int, seq: int, size: int, created: int):
        self.src = src
        self.dst = dst
        self.seq = seq
        self.size = size
        self.created = created
        #: transmissions so far (0 while the first copy waits to inject)
        self.attempts = 0
        self.acked = False
        self.gave_up = False
        #: cycle the first copy's tail reached the sink (-1 = never)
        self.delivered_first = -1
        #: due cycle of the message's live timeout in the wheel (-1: none)
        self.deadline = -1
        #: holds a congestion-window slot right now (closed loop only)
        self.claimed = False
        #: cycle the latest copy injected (drives the ACK RTT estimate)
        self.last_sent = created


@field_list
class ReliableSource:
    """A :class:`~repro.traffic.generator.PacketSource` wrapped for
    reliable delivery.

    Presents the same protocol the engine consumes
    (``advance``/``next_cycle``/``queue``/``active``/``finite``/``done``),
    draining the inner source's queue into its own while registering one
    :class:`_Message` per entry with the transport, in queue order.
    Retransmissions are appended by the transport and travel the same
    path.  It is as finite as the source it wraps, and ``done()``
    additionally waits for every message the transport registered, at any
    node, to resolve (ACK or give-up), so a drain covers protocol
    quiescence.
    """

    __slots__ = ("inner", "node", "queue", "active", "transport")

    def __init__(self, inner, transport: "ReliableTransport"):
        self.inner = inner
        self.node = inner.node
        #: entries the engine pops: (created, dst) or (created, dst, size)
        self.queue: deque[tuple] = deque()
        self.active = inner.active
        self.transport = transport

    def advance(self, cycle: int) -> int:
        created = self.inner.advance(cycle)
        inner_queue = self.inner.queue
        transport = self.transport
        if transport.congestion is None:
            while inner_queue:
                entry = inner_queue.popleft()
                transport.register(self.node, entry)
                self.queue.append(entry)
        else:
            # closed loop: new messages wait in the transport's hold
            # queue until their destination window has room.  Windows
            # only change on ACK/give-up events (which pump directly),
            # so a pump here is needed only when something new arrived.
            if inner_queue:
                while inner_queue:
                    transport.hold(self.node, inner_queue.popleft())
                transport.pump(self.node, self.queue)
        return created

    def next_cycle(self) -> int:
        # retransmissions reach the engine through ``queue``, which it
        # checks every cycle; only the inner source creates on a schedule
        return self.inner.next_cycle()

    @property
    def finite(self) -> bool:
        return self.inner.finite

    def done(self) -> bool:
        """The inner source is exhausted, this queue is empty and no message
        of the transport is unresolved.  The count is transport-wide, held
        messages included: a drain asks every source, so it ends exactly
        when the protocol has quiesced everywhere."""
        return (
            self.inner.done()
            and not self.queue
            and self.transport.total_unresolved() == 0
        )


class ReliableTransport(Probe):
    """The protocol engine: per-node sources, timer wheel, accounting.

    Attach with :meth:`install`; afterwards every measurement-window
    counter (retransmissions, duplicates, give-ups, goodput) lands on
    the run's :class:`~repro.sim.results.RunResult` and the full
    accounting document on ``telemetry.reliability`` via
    :func:`attach_reliability`.
    """

    #: timer-wheel event kinds
    _ACK = 0
    _TIMEOUT = 1

    def __init__(self, config: TransportConfig | None = None, congestion=None):
        self.config = config or TransportConfig()
        #: optional :class:`~repro.traffic.congestion.CongestionControl`;
        #: when set, new messages are window-gated through a hold queue
        self.congestion = congestion
        #: per-node hold queue of registered messages awaiting a window slot
        self._waiting: dict[int, deque[_Message]] = {}
        self.engine = None
        self._warmup = 0
        self._default_size = 1
        #: per-node FIFO of registered messages awaiting injection,
        #: aligned with the wrapper queue order
        self._fifo: dict[int, deque[_Message]] = {}
        #: pid of the copy currently in the network -> its message
        self._by_pid: dict[int, _Message] = {}
        #: due cycle -> that cycle's (kind, message, tag) events in the
        #: order they were scheduled; every one is live
        self._wheel: dict[int, list[tuple]] = {}
        self._rng = None  # seeded in install (import cycle-free)
        # whole-run totals (the summary document; RunResult carries the
        # measurement-window view)
        self.messages = 0
        self.acked = 0
        self.gave_up = 0
        self.retransmissions = 0
        self.duplicates = 0
        self.late_acks = 0
        self.drops_seen = 0
        self.max_attempts = 0
        #: EWMA of injection-to-ACK round trips (None until the first
        #: fresh ACK); includes the modeled ack_delay by construction
        self.rtt_estimate: float | None = None

    # -- wiring ---------------------------------------------------------------

    def install(self, engine) -> "ReliableTransport":
        """Wrap every node source of ``engine`` and attach as a probe.

        Composes with an already-attached probe
        (:func:`~repro.obs.probe.compose_probe`).
        Returns ``self`` so construction chains.
        """
        import random

        if self.engine is not None:
            raise ConfigurationError("this transport is already installed")
        self._rng = random.Random(self.config.seed)
        for node in engine.nodes:
            if isinstance(node.source, ReliableSource):
                raise ConfigurationError(
                    f"node {node.nid} already has a reliable source"
                )
            node.source = ReliableSource(node.source, self)
        compose_probe(engine, self)
        return self

    def bind(self, engine) -> None:
        self.engine = engine
        self._warmup = engine.config.warmup_cycles
        self._default_size = engine.config.packet_flits
        self._fifo = {node.nid: deque() for node in engine.nodes}
        self._waiting = {node.nid: deque() for node in engine.nodes}

    # -- source-side registry -------------------------------------------------

    def register(self, node: int, entry: tuple) -> _Message:
        """Register one source-queue entry as a tracked message."""
        msg = self._track(node, entry)
        self._fifo[node].append(msg)
        return msg

    def _track(self, node: int, entry: tuple) -> _Message:
        created, dst = entry[0], entry[1]
        size = entry[2] if len(entry) > 2 else self._default_size
        msg = _Message(node, dst, self.messages, size, created)
        self.messages += 1
        return msg

    def hold(self, node: int, entry: tuple) -> _Message:
        """Register one entry into the congestion hold queue."""
        msg = self._track(node, entry)
        self._waiting[node].append(msg)
        return msg

    def pump(self, node: int, queue=None) -> None:
        """Release held messages whose destination window has room.

        Scans at most ``pump_scan`` messages from the head of the hold
        queue, releasing every one whose (source, destination) window
        accepts it — so a saturated destination cannot head-of-line
        block traffic to open ones, and per-cycle work stays bounded
        under deep overload backlogs.  Released messages join the
        registry FIFO and the wrapper queue together, preserving the
        injection-order alignment ``on_packet_injected`` relies on.
        """
        waiting = self._waiting[node]
        if not waiting:
            return
        control = self.congestion
        if queue is None:
            queue = self.engine.nodes[node].source.queue
        fifo = self._fifo[node]
        kept = []
        for _ in range(min(len(waiting), control.config.pump_scan)):
            msg = waiting.popleft()
            if msg.acked or msg.gave_up:
                continue  # resolved while re-held (late ACK of a slow copy)
            if control.try_release(msg.src, msg.dst):
                msg.claimed = True
                fifo.append(msg)
                queue.append((msg.created, msg.dst, msg.size))
            else:
                kept.append(msg)
        for msg in reversed(kept):
            waiting.appendleft(msg)

    def held_total(self) -> int:
        """Messages waiting for a window slot across all nodes."""
        return sum(len(waiting) for waiting in self._waiting.values())

    def total_unresolved(self) -> int:
        """Messages registered but not yet ACKed or given up."""
        return self.messages - self.acked - self.gave_up

    # -- probe events ---------------------------------------------------------

    def on_packet_injected(self, cycle: int, packet) -> None:
        fifo = self._fifo[packet.src]
        if not fifo:
            return  # untracked (e.g. preloaded directly onto the queue)
        head = fifo[0]
        if head.dst != packet.dst or head.size != packet.size:
            return  # foreign entry interleaved; leave the registry alone
        msg = fifo.popleft()
        self._by_pid[packet.pid] = msg
        msg.last_sent = cycle
        if msg.attempts > 0:
            self.retransmissions += 1
            if cycle >= self._warmup:
                self.engine.result.retransmitted_packets += 1
        msg.attempts += 1
        if msg.attempts > self.max_attempts:
            self.max_attempts = msg.attempts
        self._arm_timeout(cycle, msg)

    def on_tail_delivered(self, cycle: int, packet) -> None:
        control = self.congestion
        msg = self._by_pid.pop(packet.pid, None)
        if msg is None:
            if control is not None:
                control.marker.discard(packet.pid)
            return
        if msg.delivered_first < 0:
            msg.delivered_first = cycle
            if cycle >= self._warmup:
                self.engine.result.goodput_flits += msg.size
            # the ACK event's tag carries the congestion mark back to
            # the source (the ECN echo on the modeled return path)
            marked = 1 if control is not None and control.marker.consume(packet.pid) else 0
            self._schedule(cycle + self.config.ack_delay, self._ACK, msg, marked)
        else:
            self.duplicates += 1
            if cycle >= self._warmup:
                self.engine.result.duplicate_packets += 1
            if control is not None:
                control.marker.discard(packet.pid)

    def on_packet_dropped(self, cycle: int, packet, reason: str) -> None:
        # the copy died in the network; recovery is timer-driven (the
        # source cannot observe a mid-network kill), so just unmap it
        if self._by_pid.pop(packet.pid, None) is not None:
            self.drops_seen += 1

    def on_cycle(self, cycle: int) -> None:
        bucket = self._wheel.get(cycle)
        if bucket is None:
            return
        # an ACK may cancel a timeout further down this very list, so the
        # bucket stays in the wheel, where the ACK finds it, until it has run
        for kind, msg, tag in bucket:
            if kind == self._ACK:
                self._handle_ack(cycle, msg, tag)
            else:
                self._handle_timeout(cycle, msg)
        del self._wheel[cycle]

    # -- timer wheel ----------------------------------------------------------

    def _schedule(self, due: int, kind: int, msg: _Message, tag: int) -> None:
        self._wheel.setdefault(due, []).append((kind, msg, tag))

    def _arm_timeout(self, cycle: int, msg: _Message) -> None:
        timeout = self.config.base_timeout * self.config.backoff ** (
            msg.attempts - 1
        )
        # randint(0, jitter)'s value and draws, without its argument checks
        jitter = self.config.jitter
        due = cycle + int(timeout) + (randbelow(self._rng, jitter + 1) if jitter else 0)
        if msg.acked:
            return  # a retransmission queued before its ACK: drawn, never timed
        msg.deadline = due
        self._schedule(due, self._TIMEOUT, msg, due)

    def _handle_ack(self, cycle: int, msg: _Message, marked: int = 0) -> None:
        if msg.gave_up:
            # the source had already written the message off; the sink
            # did get it, so the loss is accounting-only — record it.
            # The window slot was freed at give-up time, so the loop
            # must not decrement in-flight again here.
            self.late_acks += 1
            return
        msg.acked = True
        due = msg.deadline
        if due >= 0:
            bucket = self._wheel[due]
            bucket.remove((self._TIMEOUT, msg, due))
            if not bucket:
                del self._wheel[due]
            msg.deadline = -1
        self.acked += 1
        rtt = cycle - msg.last_sent
        if rtt >= 0:
            self.rtt_estimate = (
                float(rtt)
                if self.rtt_estimate is None
                else 0.875 * self.rtt_estimate + 0.125 * rtt
            )
        control = self.congestion
        if control is not None:
            control.on_ack(cycle, msg.src, msg.dst, bool(marked), msg.claimed)
            msg.claimed = False
            self.pump(msg.src)

    def _handle_timeout(self, cycle: int, msg: _Message) -> None:
        control = self.congestion
        if msg.attempts > self.config.max_retries:
            msg.gave_up = True
            msg.deadline = -1
            self.gave_up += 1
            if cycle >= self._warmup:
                self.engine.result.given_up_packets += 1
            if control is not None:
                # the abandoned message frees its window slot, so the
                # retry budget cannot leak window capacity
                if msg.claimed:
                    control.on_give_up(msg.src, msg.dst)
                    msg.claimed = False
                self.pump(msg.src)
            return
        msg.deadline = -1
        if control is not None:
            # closed loop: the timeout is a congestion signal (shrink
            # the window) and the retransmission is *re-held* at the
            # front of the hold queue — it releases its slot and must
            # re-claim one, so retransmissions and new traffic share a
            # single window-throttled injection path instead of the
            # retry storm bypassing the gate it caused.
            control.on_timeout(cycle, msg.src, msg.dst)
            if msg.claimed:
                control.on_requeue(msg.src, msg.dst)
                msg.claimed = False
            self._waiting[msg.src].appendleft(msg)
            self.pump(msg.src)
            return
        # open loop: re-enqueue through the normal injection path; the
        # timer for the new copy is armed when it actually injects
        entry = (cycle, msg.dst, msg.size)
        self._fifo[msg.src].append(msg)
        node = self.engine.nodes[msg.src]
        node.source.queue.append(entry)

    # -- reporting ------------------------------------------------------------

    def summary(self) -> dict:
        """The reliability accounting document (``telemetry.reliability``).

        ``pending`` counts the messages neither ACKed nor given up, so
        ``messages == acked + gave_up + pending`` at any instant; a
        quiesced run has none pending, and duplicate suppression counts
        every delivery after a message's first as a duplicate, never as
        goodput.
        """
        cfg = dataclasses.asdict(self.config)
        messages = self.messages
        doc = {
            "transport": cfg,
            "messages": messages,
            "acked": self.acked,
            "gave_up": self.gave_up,
            "pending": self.total_unresolved(),
            "retransmissions": self.retransmissions,
            "duplicates": self.duplicates,
            "late_acks": self.late_acks,
            "drops_seen": self.drops_seen,
            "max_attempts": self.max_attempts,
            # ratios guarded for zero-traffic / zero-delivery runs
            "acked_ratio": self.acked / messages if messages else 0.0,
            "give_up_ratio": self.gave_up / messages if messages else 0.0,
        }
        if self.congestion is not None:
            doc["congestion"] = self.congestion.summary()
        return doc


def attach_reliability(result, transport: ReliableTransport, extra: dict | None = None):
    """Fold ``transport``'s accounting document into ``result.telemetry``.

    ``extra`` entries (e.g. a chaos campaign's storm recipe) are merged
    into the document.  Returns the result; a result with no telemetry
    is returned unchanged (telemetry is frozen, so it is replaced).
    """
    if result.telemetry is not None:
        doc = transport.summary()
        if extra:
            doc.update(extra)
        result.telemetry = dataclasses.replace(result.telemetry, reliability=doc)
    return result


@dataclass(frozen=True)
class Reliable(Instrument):
    """The reliable transport as an instrument of
    :func:`~repro.sim.run.simulate`; the accounting document lands on
    ``telemetry.reliability``."""

    transport: TransportConfig | None = None

    def install(self, engine) -> ReliableTransport:
        return ReliableTransport(self.transport).install(engine)

    def finish(self, engine, live, result):
        return attach_reliability(result, live)


def simulate_reliable(
    config,
    transport_config: TransportConfig | None = None,
    probe=None,
    checkpoint=None,
):
    """``simulate(config)`` with the reliable transport installed.

    The transport accounting lands on the result's telemetry, so it
    survives pickling (parallel sweep workers), the run JSON document
    and the ledger.  ``probe`` composes with the transport through
    :class:`~repro.obs.probe.MultiProbe`.  ``checkpoint`` makes the run
    resumable — the transport (timer wheel, windows, RNG) rides inside
    the snapshot like everything else.
    """
    from ..sim.run import simulate

    return simulate(
        config, [Reliable(transport_config)], probe=probe, checkpoint=checkpoint
    )
