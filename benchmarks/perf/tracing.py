"""Spans and counters recorded by the harness around calls into the program.

A :class:`Tracer` always keeps the two outer levels of spans — the pass
and its *units*, the timed steps the end-to-end speed is computed from.
With ``detailed`` it also keeps every nested span and the workloads
attach a :class:`CountingProbe` to the engines they can reach; that is
the ``--trace 1`` run.  Spans live in memory and are written when the
run ends, as Chrome trace-event JSON plus a self-time table.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

from repro.obs.probe import MultiProbe, Probe


class Tracer:
    """In-memory span recorder; one per run."""

    def __init__(self, detailed: bool):
        self.detailed = detailed
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._pass = 0

    @contextlib.contextmanager
    def span(self, name: str, unit: bool = False):
        """Record ``name`` (``layer.operation``) around the body.

        Undetailed tracers drop spans nested below a unit, so an
        end-to-end run pays two clock reads per *unit*, nothing per call.
        """
        if not self.detailed and len(self._stack) >= 2:
            yield None
            return
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "pass": self._pass,
            "unit": unit,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def pass_span(self, workload: str):
        """The root span of one pass; numbers the pass."""
        self._pass += 1
        with self.span(f"pass.{workload}") as span:
            yield span

    def unit_seconds(self, pass_id: int) -> dict[str, float]:
        """``{unit name: seconds}`` of one pass, in execution order."""
        return {
            s["name"]: s["end"] - s["start"]
            for s in self.spans
            if s["unit"] and s["pass"] == pass_id
        }

    # -- output ------------------------------------------------------------------

    def self_times(self) -> list[dict]:
        """Per span name: calls, total seconds and self seconds (total
        minus the part covered by child spans), largest self time first."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        rows: dict[str, dict] = {}
        for s in self.spans:
            row = rows.setdefault(
                s["name"], {"name": s["name"], "calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            dur = s["end"] - s["start"]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child_time[s["id"]]
        return sorted(rows.values(), key=lambda r: -r["self_s"])

    def self_time_table(self) -> str:
        lines = [f"{'span':<34}{'calls':>7}{'total s':>11}{'self s':>11}"]
        for row in self.self_times():
            lines.append(
                f"{row['name']:<34}{row['calls']:>7}"
                f"{row['total_s']:>11.4f}{row['self_s']:>11.4f}"
            )
        return "\n".join(lines)

    def chrome_trace(self) -> str:
        """Chrome trace-event JSON (load in chrome://tracing or Perfetto)."""
        origin = self.spans[0]["start"] if self.spans else 0.0
        events = [
            {
                "name": s["name"],
                "cat": s["name"].split(".", 1)[0],
                "ph": "X",
                "ts": (s["start"] - origin) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": s["id"], "parent": s["parent"], "pass": s["pass"]},
            }
            for s in self.spans
        ]
        return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})


class CountingProbe(Probe):
    """Counts the two engine events no result field carries."""

    def __init__(self):
        self.header_arrivals = 0
        self.blocked_direction_events = 0

    def on_head_arrived(self, cycle, lane, packet):
        self.header_arrivals += 1

    def on_direction_blocked(self, cycle, direction):
        self.blocked_direction_events += 1


def attach_counter(engine) -> CountingProbe:
    """Compose a :class:`CountingProbe` onto ``engine``, the way
    ``ReliableTransport.install`` composes itself onto an existing probe."""
    counter = CountingProbe()
    if engine.probe is None:
        engine.attach_probe(counter)
    else:
        engine.probe = MultiProbe([engine.probe, counter])
        counter.bind(engine)
    return counter


class EngineCounts:
    """Exact event totals over the engines a traced pass could reach."""

    def __init__(self):
        self.flit_hops = 0
        self.slots = 0  # link directions x cycles
        self.header_arrivals = 0
        self.blocked_direction_events = 0

    def add(self, engine, counter: CountingProbe) -> None:
        """Fold in a finished engine (read after its run)."""
        self.flit_hops += sum(d.flits for d in engine.dirs)
        self.slots += len(engine.dirs) * engine.cycle
        self.header_arrivals += counter.header_arrivals
        self.blocked_direction_events += counter.blocked_direction_events
