"""Message traces and the instrument that plays them.

A :class:`Trace` is an explicit list of messages ``(cycle, src, dst,
flits)``.  :class:`Replay` makes one the traffic of a run: it puts a
:class:`TraceSource` — one node's share of the trace — behind every node,
so trace-driven runs obey exactly the same flow control, routing and
source throttling as the stochastic experiments, and go through the same
pipeline (:func:`~repro.sim.run.simulate`).  A trace is finite, so its run
ends once it has drained.

Messages wider than one packet are *not* segmented automatically — real
systems make that a protocol decision.  :meth:`Trace.segmented` performs
the standard fixed-size segmentation when wanted.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass

from ..errors import ConfigurationError
from ..obs.probe import Instrument
from ..traffic.generator import NEVER


@dataclass(frozen=True, order=True)
class TraceMessage:
    """One message: injected at ``time`` (or later, if the node is busy)."""

    time: int
    src: int
    dst: int
    flits: int

    def validate(self, num_nodes: int) -> None:
        if self.time < 0:
            raise ConfigurationError(f"negative message time {self.time}")
        if not (0 <= self.src < num_nodes and 0 <= self.dst < num_nodes):
            raise ConfigurationError(
                f"message endpoints {self.src}->{self.dst} out of range [0, {num_nodes})"
            )
        if self.src == self.dst:
            raise ConfigurationError(f"self-message at node {self.src}")
        if self.flits < 2:
            raise ConfigurationError(
                f"a wormhole message needs header and tail: flits >= 2, got {self.flits}"
            )


class Trace:
    """An ordered collection of messages for a ``num_nodes`` network."""

    def __init__(self, num_nodes: int, messages: list[TraceMessage] | None = None):
        if num_nodes < 2:
            raise ConfigurationError(f"need at least 2 nodes, got {num_nodes}")
        self.num_nodes = num_nodes
        self.messages: list[TraceMessage] = []
        for msg in messages or []:
            self.add(msg)

    def add(self, msg: TraceMessage) -> None:
        msg.validate(self.num_nodes)
        self.messages.append(msg)

    def send(self, time: int, src: int, dst: int, flits: int) -> None:
        """Convenience: append a message."""
        self.add(TraceMessage(time=time, src=src, dst=dst, flits=flits))

    def sorted(self) -> list[TraceMessage]:
        return sorted(self.messages)

    def total_flits(self) -> int:
        return sum(m.flits for m in self.messages)

    def segmented(self, max_flits: int) -> Trace:
        """Split every message into packets of at most ``max_flits``.

        Segments inherit the original injection time; the engine's
        single injection channel serializes them naturally.  A wormhole
        segment needs at least 2 flits (header + tail), so a split that
        would strand a single flit is rebalanced: the preceding segment
        shrinks by one when it can (``max_flits > 2``), otherwise the
        stray flit is folded in and that one segment carries
        ``max_flits + 1`` flits (only possible for ``max_flits == 2``
        and odd message sizes).
        """
        if max_flits < 2:
            raise ConfigurationError(f"segments need >= 2 flits, got {max_flits}")
        out = Trace(self.num_nodes)
        for m in self.messages:
            remaining = m.flits
            while remaining:
                chunk = min(remaining, max_flits)
                if remaining - chunk == 1:
                    if chunk > 2:
                        chunk -= 1  # leave a 2-flit tail segment
                    else:
                        chunk += 1  # fold the stray flit (chunk becomes 3)
                out.send(m.time, m.src, m.dst, chunk)
                remaining -= chunk
        return out

    # -- persistence -----------------------------------------------------------

    def to_json(self) -> str:
        """Serialize as a compact JSON document, messages in trace order
        (same-time messages of a node are played in that order: it is part
        of the schedule)."""
        return json.dumps({"num_nodes": self.num_nodes, "messages": _rows(self.messages)})

    @classmethod
    def from_json(cls, text: str) -> Trace:
        """Inverse of :meth:`to_json` (validates every message)."""
        try:
            doc = json.loads(text)
            messages = [TraceMessage(*row) for row in doc["messages"]]
            return cls(doc["num_nodes"], messages)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed trace document: {exc}") from exc

    def __len__(self) -> int:
        return len(self.messages)


def _rows(messages) -> list:
    return [[m.time, m.src, m.dst, m.flits] for m in messages]


class TraceSource:
    """Per-node message schedule, duck-compatible with ``PacketSource``.

    Queue entries carry an explicit flit count ``(time, dst, flits)``; the
    engine reads the third element when present.
    """

    __slots__ = ("node", "schedule", "_next_idx", "queue", "active")

    #: the schedule runs dry: a run of these sources ends once it drained
    finite = True

    def __init__(self, node: int, schedule: list[TraceMessage]):
        self.node = node
        # stable sort by release time ONLY: same-time messages keep their
        # trace order (schedules encode intent in that order, e.g. the
        # shifted all-to-all)
        self.schedule = sorted(schedule, key=lambda m: m.time)
        self._next_idx = 0
        self.queue: deque[tuple[int, int, int]] = deque()
        self.active = bool(schedule)

    def advance(self, cycle: int) -> int:
        """Release every message scheduled at or before ``cycle``."""
        released = 0
        while self._next_idx < len(self.schedule):
            msg = self.schedule[self._next_idx]
            if msg.time > cycle:
                break
            self.queue.append((msg.time, msg.dst, msg.flits))
            self._next_idx += 1
            released += 1
        return released

    def next_cycle(self) -> int:
        """Release time of the schedule head (see ``PacketSource.next_cycle``)."""
        if self._next_idx < len(self.schedule):
            return self.schedule[self._next_idx].time
        return NEVER

    def done(self) -> bool:
        """Exhausted: nothing queued and nothing scheduled later."""
        return self._next_idx >= len(self.schedule) and not self.queue


@dataclass(frozen=True, init=False, repr=False)
class Replay(Instrument):
    """Play ``trace`` as the traffic of a run.

    ``install`` puts each node's share of the trace behind it as a
    :class:`TraceSource`, replacing whatever source the engine was built
    with, so list it before a tier that wraps the sources (``Reliable``).  The spec holds the messages in trace order and
    its ``repr`` — its identity in a sweep key, a ledger and a checkpoint
    directory — is their digest, so two traces that differ only in the
    order of same-time messages are two recipes.

    Raises:
        ConfigurationError: for an empty trace, or (at install) one built
            for another number of nodes.
    """

    num_nodes: int
    messages: tuple[TraceMessage, ...]

    def __init__(self, trace: Trace):
        if not trace.messages:
            raise ConfigurationError("empty trace")
        object.__setattr__(self, "num_nodes", trace.num_nodes)
        object.__setattr__(self, "messages", tuple(trace.messages))

    def __repr__(self) -> str:
        digest = hashlib.sha256(json.dumps(_rows(self.messages)).encode()).hexdigest()
        return f"Replay(num_nodes={self.num_nodes}, messages={len(self.messages)}, sha256={digest})"

    def install(self, engine) -> None:
        nodes = engine.topology.num_nodes
        if self.num_nodes != nodes:
            raise ConfigurationError(f"trace built for {self.num_nodes} nodes, network has {nodes}")
        schedules: list[list[TraceMessage]] = [[] for _ in range(nodes)]
        for msg in self.messages:
            schedules[msg.src].append(msg)
        for node, schedule in zip(engine.nodes, schedules):
            node.source = TraceSource(node.nid, schedule)
            node.wake = 0
        engine.active_nodes = [node for node in engine.nodes if node.source.active]
