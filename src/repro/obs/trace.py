"""Packet-lifecycle event tracing.

A :class:`TraceProbe` records the life of every packet — generation,
injection, one routing event per hop, header delivery, tail delivery —
plus coalesced blocked intervals per link direction, and exports the
record two ways:

* **JSONL** (:meth:`TraceProbe.write_jsonl`) — one JSON object per
  event, trivially greppable/streamable (`jq 'select(.pid == 7)'`);
* **Chrome trace_event** (:meth:`TraceProbe.write_chrome_trace`) — a
  document loadable in ``chrome://tracing`` / Perfetto: each packet is a
  duration slice on its source node's track (cycle ≙ microsecond), hops
  are instant events on the slice, and blocked intervals appear as
  slices on a per-switch "fabric" track.

Tracing every event of a saturated 256-node run produces millions of
records, so the probe takes a ``max_events`` cap: past it, new events are
dropped and :attr:`TraceProbe.truncated` is set (blocked-interval
bookkeeping continues so intervals already open still close correctly).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict, dataclass

from .probe import Probe

#: event kinds, in lifecycle order (drop ends a packet's life instead of
#: tail under fail-stop faults; blocked is fabric-side, unordered)
EVENT_KINDS = ("generate", "inject", "route", "head", "tail", "drop", "blocked")


@dataclass(frozen=True)
class TraceEvent:
    """One trace record.

    ``cycle`` is the event time; ``dur`` is nonzero only for ``blocked``
    intervals.  Packet events carry ``pid/src/dst/size``; ``route`` and
    ``blocked`` events also locate the switch (and port/vc for routes).
    Unused fields hold ``None`` so JSONL lines stay self-describing.
    """

    cycle: int
    kind: str
    pid: int | None = None
    src: int | None = None
    dst: int | None = None
    size: int | None = None
    switch: int | None = None
    port: int | None = None
    vc: int | None = None
    count: int | None = None
    dur: int | None = None


class TraceProbe(Probe):
    """Record flit-level lifecycle events for export.

    Besides the packet events it records per-direction blocked intervals,
    coalesced from the per-cycle blocked callbacks.

    Args:
        max_events: cap on stored events; exceeding it sets
            :attr:`truncated` instead of exhausting memory.
    """

    def __init__(self, max_events: int = 1_000_000):
        self.max_events = max_events
        self.events: list[TraceEvent] = []
        self.truncated = False
        #: direction -> (interval start cycle, last blocked cycle)
        self._open_blocks: dict = {}
        self._last_cycle = 0

    # -- probe callbacks -----------------------------------------------------

    def bind(self, engine) -> None:
        self._engine = engine

    def _emit(self, event: TraceEvent) -> None:
        if len(self.events) >= self.max_events:
            self.truncated = True
            return
        self.events.append(event)

    def on_packets_generated(self, cycle: int, node: int, count: int) -> None:
        self._emit(TraceEvent(cycle=cycle, kind="generate", src=node, count=count))

    def on_packet_injected(self, cycle: int, packet) -> None:
        self._emit(
            TraceEvent(
                cycle=cycle, kind="inject", pid=packet.pid,
                src=packet.src, dst=packet.dst, size=packet.size,
            )
        )

    def on_header_routed(self, cycle: int, switch: int, in_lane, out_lane) -> None:
        pkt = in_lane.packet
        self._emit(
            TraceEvent(
                cycle=cycle, kind="route", pid=pkt.pid, src=pkt.src, dst=pkt.dst,
                switch=switch, port=out_lane.port, vc=out_lane.vc,
            )
        )

    def on_head_delivered(self, cycle: int, packet) -> None:
        self._emit(
            TraceEvent(
                cycle=cycle, kind="head", pid=packet.pid,
                src=packet.src, dst=packet.dst,
            )
        )

    def on_tail_delivered(self, cycle: int, packet) -> None:
        self._emit(
            TraceEvent(
                cycle=cycle, kind="tail", pid=packet.pid,
                src=packet.src, dst=packet.dst, size=packet.size,
            )
        )

    def on_packet_dropped(self, cycle: int, packet, reason: str) -> None:
        self._emit(
            TraceEvent(
                cycle=cycle, kind="drop", pid=packet.pid,
                src=packet.src, dst=packet.dst, size=packet.size,
            )
        )

    def on_direction_blocked(self, cycle: int, direction) -> None:
        open_ = self._open_blocks.get(direction)
        if open_ is not None and open_[1] == cycle - 1:
            open_[1] = cycle  # extend the current interval
        else:
            if open_ is not None:
                self._close_block(direction, open_)
            self._open_blocks[direction] = [cycle, cycle]

    def on_cycle(self, cycle: int) -> None:
        self._last_cycle = cycle

    def on_run_end(self, engine) -> None:
        for direction, open_ in list(self._open_blocks.items()):
            self._close_block(direction, open_)
        self._open_blocks.clear()

    def _close_block(self, direction, open_) -> None:
        start, last = open_
        self._emit(
            TraceEvent(
                cycle=start, kind="blocked",
                switch=direction.switch, port=direction.port,
                dur=last - start + 1,
            )
        )

    # -- export --------------------------------------------------------------

    def write_jsonl(self, path: str | pathlib.Path) -> int:
        """Write one JSON object per event; returns the event count."""
        with open(path, "w") as fh:
            for ev in self.events:
                doc = {k: v for k, v in asdict(ev).items() if v is not None}
                fh.write(json.dumps(doc))
                fh.write("\n")
        return len(self.events)

    def chrome_trace_dict(self) -> dict:
        """Build the Chrome ``trace_event`` document as plain data.

        Packets become complete ("X") slices on track ``pid=0`` (one
        ``tid`` per source node); per-hop routes are instant ("i")
        events; blocked intervals are slices on track ``pid=1`` (one
        ``tid`` per switch).  One simulated cycle maps to one
        microsecond of trace time.
        """
        out: list[dict] = []
        inject: dict[int, TraceEvent] = {}
        for ev in self.events:
            if ev.kind == "inject":
                inject[ev.pid] = ev
            elif ev.kind == "route":
                out.append(
                    {
                        "name": f"route @sw{ev.switch}",
                        "ph": "i", "s": "t",
                        "ts": ev.cycle, "pid": 0, "tid": ev.src,
                        "args": {"packet": ev.pid, "port": ev.port, "vc": ev.vc},
                    }
                )
            elif ev.kind in ("tail", "drop"):
                start = inject.pop(ev.pid, None)
                ts = start.cycle if start is not None else ev.cycle
                delivered = ev.kind == "tail"
                name = f"pkt {ev.pid} {ev.src}->{ev.dst}"
                if not delivered:
                    name += " (dropped)"
                out.append(
                    {
                        "name": name,
                        "ph": "X", "ts": ts, "dur": max(ev.cycle - ts, 1),
                        "pid": 0, "tid": ev.src,
                        "args": {"packet": ev.pid, "dst": ev.dst,
                                 "size": ev.size, "delivered": delivered},
                    }
                )
            elif ev.kind == "blocked":
                out.append(
                    {
                        "name": f"blocked port {ev.port}",
                        "ph": "X", "ts": ev.cycle, "dur": ev.dur,
                        "pid": 1, "tid": ev.switch,
                        "args": {"port": ev.port, "cycles": ev.dur},
                    }
                )
        # packets still in flight at the end of the trace: open slices
        for pid, ev in inject.items():
            out.append(
                {
                    "name": f"pkt {pid} {ev.src}->{ev.dst} (in flight)",
                    "ph": "X", "ts": ev.cycle,
                    "dur": max(self._last_cycle - ev.cycle, 1),
                    "pid": 0, "tid": ev.src,
                    "args": {"packet": pid, "dst": ev.dst,
                             "size": ev.size, "delivered": False},
                }
            )
        meta = [
            {"name": "process_name", "ph": "M", "pid": 0,
             "args": {"name": "packets (tid = source node)"}},
            {"name": "process_name", "ph": "M", "pid": 1,
             "args": {"name": "fabric blocked intervals (tid = switch)"}},
        ]
        return {"traceEvents": meta + out, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str | pathlib.Path) -> int:
        """Write the Chrome-loadable trace; returns the trace event count."""
        doc = self.chrome_trace_dict()
        pathlib.Path(path).write_text(json.dumps(doc))
        return len(doc["traceEvents"])
