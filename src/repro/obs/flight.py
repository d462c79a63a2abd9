"""Cross-layer flight recorder: bounded per-interval time series.

Every existing probe reports end-of-run aggregates; the flight recorder
answers *trajectory* questions ("when did goodput collapse, and what was
the control plane doing at that moment?") by sampling one aligned
timeline across all four layers at a fixed cycle interval:

* **engine** — injected/delivered/dropped flit rates, packets generated,
  in-flight packets, source-queue backlog and the offered-to-network
  rate derived from it;
* **links** — aggregate output-lane occupancy and the blocked fraction
  of the direction population, plus the top-N hottest physical links by
  flits moved in the interval;
* **transport** (when a :class:`~repro.traffic.transport.ReliableTransport`
  is installed) — outstanding messages, retransmission and give-up
  rates, and a smoothed ACK round-trip estimate;
* **control plane** (when the congestion loop is closed) — AIMD window
  mean/p50/min, hold-queue depth and the ECN mark rate.

Storage is strictly bounded: when the sample buffer reaches
``max_intervals`` rows, adjacent pairs are coalesced (rates summed,
gauges keeping the later value, hot-link tallies merged and re-ranked)
and the effective stride doubles — so a 2M-cycle run costs the same
memory as a 100k-cycle one, O(max_intervals) always.

The recorder stamps **annotations** on the same timeline: fault
strike/repair (from chaos schedules), the first ECN mark and first
window decrease, a deadlock precursor (sustained zero-progress with
packets in flight) and **collapse onset** — detected online as the
delivered rate diverging from the offered rate for
``collapse_intervals`` consecutive warm intervals.  Offered load is
reconstructed as injected flits plus source-queue backlog growth, which
is exactly what distinguishes open-loop collapse (retransmissions pile
into the source queues) from closed-loop degradation (held messages
wait in the transport's window gate and are *not* offered).

The serialized document is columnar and byte-deterministic; it rides on
``telemetry.flight`` into run documents and ledger records.  A live
``on_sample`` callback and an optional JSONL event stream (``events=``)
feed the CLI's ``--watch`` mode and external consumers.
"""

from __future__ import annotations

import dataclasses
import io
import json
import pathlib
from dataclasses import dataclass

from ..errors import CheckpointError, ConfigurationError
from ..traffic.transport import ReliableTransport
from .probe import Instrument, Probe, compose_probe

#: version stamp of the flight document schema
FLIGHT_FORMAT_VERSION = 1

#: per-row counters that accumulate over the interval (summed when rows
#: are coalesced)
_RATE_KEYS = ("span", "generated", "injected", "delivered", "dropped",
              "offered", "blocked", "retx", "gave_up", "marks")

#: engine-layer columns, always present
_ENGINE_KEYS = ("cycle", "span", "generated", "injected", "delivered",
                "dropped", "offered", "backlog", "in_flight", "occupancy",
                "blocked")

#: transport-layer columns, present when a reliable transport is installed
_TRANSPORT_KEYS = ("outstanding", "retx", "gave_up", "rtt")

#: control-plane columns, present when the congestion loop is closed
_CONTROL_KEYS = ("held", "marks", "cwnd_mean", "cwnd_p50", "cwnd_min")

#: annotation cap: timelines are for humans, not event logs
_MAX_ANNOTATIONS = 64

_LIVE_STREAM = (
    "a flight recorder with a live event stream or --watch callback cannot "
    "be checkpointed; drop --events/--watch for checkpointed runs"
)


@dataclass(frozen=True)
class FlightConfig:
    """Tuning knobs of the flight recorder.

    Attributes:
        interval_cycles: cycles per sample; the default matches the
            congestion marker's window (``DEFAULT_CONTROL``) so mark and
            window-decrease annotations land on aligned boundaries.
        max_intervals: sample-buffer cardinality bound; on overflow
            adjacent rows are coalesced and the stride doubles.
        top_links: hottest physical links recorded per interval.
        collapse_ratio: delivered/offered threshold below which an
            interval counts toward collapse onset.  0.7 separates the
            reference overload campaign cleanly: past saturation the
            open loop sustains ~0.6 (backlog diverging) while the
            closed loop holds >= 0.78 (held messages are not offered).
        collapse_intervals: consecutive diverging warm intervals before
            the collapse-onset annotation is stamped.
    """

    interval_cycles: int = 128
    max_intervals: int = 512
    top_links: int = 4
    collapse_ratio: float = 0.7
    collapse_intervals: int = 4

    def __post_init__(self) -> None:
        if self.interval_cycles < 1:
            raise ConfigurationError(
                f"interval_cycles must be >= 1, got {self.interval_cycles}"
            )
        if self.max_intervals < 8 or self.max_intervals % 2:
            raise ConfigurationError(
                f"max_intervals must be an even number >= 8, got {self.max_intervals}"
            )
        if self.top_links < 0:
            raise ConfigurationError(f"top_links must be >= 0, got {self.top_links}")
        if not 0.0 < self.collapse_ratio < 1.0:
            raise ConfigurationError(
                f"collapse_ratio must be in (0, 1), got {self.collapse_ratio}"
            )
        if self.collapse_intervals < 1:
            raise ConfigurationError(
                f"collapse_intervals must be >= 1, got {self.collapse_intervals}"
            )


class FlightRecorder(Probe):
    """The recorder: attach via ``build_engine(config, probe=...)`` (or
    compose under a :class:`~repro.obs.probe.MultiProbe`); a transport
    or congestion loop installed afterwards is discovered automatically
    at run start.

    Args:
        config: recorder tuning; defaults to :class:`FlightConfig`.
        on_sample: optional callable invoked with every *raw* sample row
            (a dict, before any coalescing) — the ``--watch`` hook.
        events: optional JSONL event-stream sink: a path (opened at run
            start, closed at run end) or a writable file object (left
            open).  Carries ``start``/``sample``/``annotation``/``end``
            records as they happen, unlike the document's coalesced view.
    """

    def __init__(self, config: FlightConfig | None = None, on_sample=None,
                 events=None):
        self.config = config or FlightConfig()
        self.on_sample = on_sample
        self._events_arg = events
        self._events_fh = None
        self._owns_events = False
        self.engine = None
        self.transport = None
        self._control = None
        self._running = False
        self._rows: list[dict] = []
        self._hot: list[list] = []
        self._annotations: list[dict] = []
        #: annotations stamped before run start (e.g. a fault schedule
        #: known up front); replayed onto the timeline at every run start
        self._pending: list[dict] = []
        self.annotations_dropped = 0
        self._decimations = 0
        self._collapse_cycle: int | None = None
        self._stall_cycle: int | None = None
        self._collapse_streak = 0
        self._stall_streak = 0
        self._first_mark_seen = False
        self._first_decrease_seen = False
        # interval bookkeeping (reset at run start)
        self._row_start = 0
        self._interval_end = 0
        self._generated = 0
        self._last = {}
        self._dir_flits: list[int] = []
        self._dir_labels: list[str] = []

    # -- wiring ---------------------------------------------------------------

    def __getstate__(self) -> dict:
        # a live event stream or watch callback cannot ride inside a
        # checkpoint; fail loudly rather than restore a recorder that
        # silently stopped streaming
        if self._events_fh is not None or self.on_sample is not None:
            raise CheckpointError(_LIVE_STREAM)
        return dict(self.__dict__)

    def bind(self, engine) -> None:
        self.engine = engine
        self._dir_labels = [d.label for d in engine.dirs]

    def on_run_start(self, engine) -> None:
        self.transport = engine.find_probe(ReliableTransport)
        self._control = self.transport.congestion if self.transport else None
        self._rows = []
        self._hot = []
        self._annotations = []
        self.annotations_dropped = 0
        self._decimations = 0
        self._collapse_cycle = None
        self._stall_cycle = None
        self._collapse_streak = 0
        self._stall_streak = 0
        self._first_mark_seen = False
        self._first_decrease_seen = False
        self._generated = 0
        self._row_start = engine.cycle
        self._interval_end = engine.cycle + self.config.interval_cycles
        self._last = {
            "injected": engine.injected_flits_total,
            "delivered": engine.delivered_flits_total,
            "dropped": engine.dropped_flits_total,
            "backlog": self._backlog_flits(),
            "retx": self.transport.retransmissions if self.transport else 0,
            "gave_up": self.transport.gave_up if self.transport else 0,
            "marks": (self._control.marker.packets_marked
                      if self._control is not None else 0),
            "blocked": sum(d.blocked for d in engine.dirs),
        }
        self._dir_flits = [d.flits for d in engine.dirs]
        self._open_events()
        self._emit({
            "type": "start",
            "label": engine.config.label(),
            "interval": self.config.interval_cycles,
            "warmup": engine.config.warmup_cycles,
            "total": engine.config.total_cycles,
        })
        self._running = True
        for note in self._pending:
            self._stamp(dict(note))

    # -- hot-path event counters ----------------------------------------------

    def on_packets_generated(self, cycle: int, node: int, count: int) -> None:
        self._generated += count

    def on_cycle(self, cycle: int) -> None:
        if cycle + 1 < self._interval_end:
            return
        self._sample(cycle)
        self._interval_end += self.config.interval_cycles

    def on_run_end(self, engine) -> None:
        if engine.cycle > self._row_start:
            # partial tail interval (run length not a stride multiple,
            # or a deadlock abort mid-interval)
            self._sample(engine.cycle - 1)
        self._running = False
        doc = self.document()
        self._emit({
            "type": "end",
            "cycles": engine.cycle,
            "rows": doc["rows"],
            "annotations": len(doc["annotations"]),
            "collapse_onset": doc["collapse_onset"],
        })
        self._close_events()
        if engine.result.telemetry is not None:
            engine.result.telemetry = dataclasses.replace(
                engine.result.telemetry, flight=doc
            )

    # -- annotations ----------------------------------------------------------

    def annotate(self, cycle: int, kind: str, detail: str | None = None) -> None:
        """Stamp a timeline event (fault strike, collapse onset, ...).

        Before run start the stamp is buffered and replayed when the run
        begins (run start resets the previous run's timeline): a fault
        schedule is annotated right after ``build_engine``, before the
        engine ever runs.
        """
        note = {"cycle": cycle, "kind": kind, "detail": detail}
        if not self._running:
            self._pending.append(note)
            return
        self._stamp(note)

    def _stamp(self, note: dict) -> None:
        if len(self._annotations) >= _MAX_ANNOTATIONS:
            self.annotations_dropped += 1
            return
        self._annotations.append(note)
        self._emit({"type": "annotation", **note})

    # -- sampling -------------------------------------------------------------

    def _backlog_flits(self) -> int:
        # len(queue) * packet_flits: entries may carry explicit sizes
        # (trace workloads) but scanning deep overload backlogs per
        # interval would be O(queue), not O(nodes)
        size = self.engine.config.packet_flits
        return sum(len(node.source.queue) for node in self.engine.nodes) * size

    def _sample(self, end_cycle: int) -> None:
        eng = self.engine
        cfg = self.config
        last = self._last
        span = end_cycle + 1 - self._row_start

        injected = eng.injected_flits_total - last["injected"]
        delivered = eng.delivered_flits_total - last["delivered"]
        dropped = eng.dropped_flits_total - last["dropped"]
        backlog = self._backlog_flits()
        offered = max(0, injected + backlog - last["backlog"])
        occupancy = 0
        blocked = 0
        hot = []
        dirs = eng.dirs
        flits_now = [d.flits for d in dirs]
        for d in dirs:
            blocked += d.blocked
            for lane in d.lanes:
                occupancy += lane.buffered
        if cfg.top_links:
            deltas = [
                (flits_now[i] - self._dir_flits[i], i)
                for i in range(len(dirs))
                if flits_now[i] > self._dir_flits[i]
            ]
            deltas.sort(key=lambda t: (-t[0], t[1]))
            hot = [[self._dir_labels[i], delta] for delta, i in deltas[:cfg.top_links]]
        self._dir_flits = flits_now

        row = {
            "cycle": end_cycle,
            "span": span,
            "generated": self._generated,
            "injected": injected,
            "delivered": delivered,
            "dropped": dropped,
            "offered": offered,
            "backlog": backlog,
            "in_flight": eng.in_flight_packets(),
            "occupancy": occupancy,
            "blocked": blocked - last["blocked"],
        }

        transport = self.transport
        if transport is not None:
            retx = transport.retransmissions - last["retx"]
            gave_up = transport.gave_up - last["gave_up"]
            rtt = transport.rtt_estimate
            row.update(
                outstanding=transport.total_unresolved(),
                retx=retx,
                gave_up=gave_up,
                rtt=None if rtt is None else round(rtt, 3),
            )
            last["retx"] = transport.retransmissions
            last["gave_up"] = transport.gave_up

        control = self._control
        if control is not None:
            marks = control.marker.packets_marked - last["marks"]
            cwnds = sorted(v[0] for v in control._windows.values())
            if cwnds:
                mean = sum(cwnds) / len(cwnds)
                p50 = cwnds[len(cwnds) // 2]
                lo = cwnds[0]
            else:
                mean = p50 = lo = control.config.initial_window
            row.update(
                held=transport.held_total(),
                marks=marks,
                cwnd_mean=round(mean, 4),
                cwnd_p50=round(p50, 4),
                cwnd_min=round(lo, 4),
            )
            last["marks"] = control.marker.packets_marked
            if marks and not self._first_mark_seen:
                self._first_mark_seen = True
                self.annotate(end_cycle, "first_mark",
                              f"{marks} packet(s) marked in this interval")
            if control.decreases and not self._first_decrease_seen:
                self._first_decrease_seen = True
                self.annotate(end_cycle, "first_decrease",
                              f"window p50 {row['cwnd_p50']:g}")

        last["injected"] = eng.injected_flits_total
        last["delivered"] = eng.delivered_flits_total
        last["dropped"] = eng.dropped_flits_total
        last["backlog"] = backlog
        last["blocked"] = blocked
        self._generated = 0
        self._row_start = end_cycle + 1

        self._detect(row)
        self._rows.append(row)
        self._hot.append(hot)
        if len(self._rows) >= cfg.max_intervals:
            self._coalesce()
        self._emit({"type": "sample", **row, "hot": hot})
        if self.on_sample is not None:
            self.on_sample(row)

    def _detect(self, row: dict) -> None:
        """Online collapse-onset and deadlock-precursor detection."""
        cfg = self.config
        warm = row["cycle"] >= self.engine.config.warmup_cycles
        diverging = (
            warm
            and row["offered"] > 0
            and row["delivered"] < cfg.collapse_ratio * row["offered"]
        )
        if diverging:
            self._collapse_streak += 1
            if (self._collapse_streak >= cfg.collapse_intervals
                    and self._collapse_cycle is None):
                onset = row["cycle"]
                self._collapse_cycle = onset
                self.annotate(
                    onset, "collapse_onset",
                    f"delivered < {cfg.collapse_ratio:g}x offered for "
                    f"{self._collapse_streak} intervals",
                )
        else:
            self._collapse_streak = 0
        stalled = (
            row["delivered"] == 0
            and row["injected"] == 0
            and row["in_flight"] > 0
        )
        if stalled:
            self._stall_streak += 1
            if self._stall_streak >= 2 and self._stall_cycle is None:
                self._stall_cycle = row["cycle"]
                self.annotate(
                    row["cycle"], "stall",
                    f"{row['in_flight']} packets in flight, zero progress "
                    "(deadlock precursor)",
                )
        else:
            self._stall_streak = 0

    def _coalesce(self) -> None:
        """Halve the buffer by merging adjacent row pairs (stride x2)."""
        rows, hot = self._rows, self._hot
        merged_rows, merged_hot = [], []
        for i in range(0, len(rows) - 1, 2):
            a, b = rows[i], rows[i + 1]
            row = dict(b)  # gauges keep the later value
            for key in _RATE_KEYS:
                if key in a:
                    row[key] = a[key] + b[key]
            merged_rows.append(row)
            if self.config.top_links:
                tally: dict[str, int] = {}
                for label, flits in hot[i] + hot[i + 1]:
                    tally[label] = tally.get(label, 0) + flits
                ranked = sorted(tally.items(), key=lambda t: (-t[1], t[0]))
                merged_hot.append(
                    [[label, flits] for label, flits in
                     ranked[: self.config.top_links]]
                )
            else:
                merged_hot.append([])
        if len(rows) % 2:  # odd tail row (partial final interval)
            merged_rows.append(rows[-1])
            merged_hot.append(hot[-1])
        self._rows, self._hot = merged_rows, merged_hot
        self._decimations += 1

    # -- event stream ---------------------------------------------------------

    def _open_events(self) -> None:
        target = self._events_arg
        if target is None:
            return
        if hasattr(target, "write"):
            self._events_fh = target
            self._owns_events = False
        else:
            self._events_fh = open(pathlib.Path(target), "w", encoding="utf-8")
            self._owns_events = True

    def _emit(self, record: dict) -> None:
        fh = self._events_fh
        if fh is None:
            return
        try:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()
        except (OSError, io.UnsupportedOperation):
            self._events_fh = None  # a broken sink must not kill the run

    def _close_events(self) -> None:
        if self._events_fh is not None and self._owns_events:
            self._events_fh.close()
        self._events_fh = None

    # -- serialization --------------------------------------------------------

    @property
    def collapse_onset(self) -> int | None:
        """Cycle the collapse-onset annotation was stamped at, or None."""
        return self._collapse_cycle

    def document(self) -> dict:
        """The versioned, byte-deterministic flight document.

        Columnar (one list per key, fixed key order) so reruns of the
        same recipe serialize identically; rides on
        ``telemetry.flight``.
        """
        has_transport = self.transport is not None
        has_control = self._control is not None
        keys = list(_ENGINE_KEYS)
        if has_transport:
            keys += _TRANSPORT_KEYS
        if has_control:
            keys += _CONTROL_KEYS
        series = {key: [row[key] for row in self._rows] for key in keys}
        return {
            "format": FLIGHT_FORMAT_VERSION,
            "interval": self.config.interval_cycles,
            "stride": self.config.interval_cycles * (2 ** self._decimations),
            "max_intervals": self.config.max_intervals,
            "decimations": self._decimations,
            "rows": len(self._rows),
            "layers": {"transport": has_transport, "control": has_control},
            "series": series,
            "hot": [list(entries) for entries in self._hot],
            "annotations": sorted(
                self._annotations, key=lambda a: (a["cycle"], a["kind"])
            ),
            "annotations_dropped": self.annotations_dropped,
            "collapse_onset": self._collapse_cycle,
        }


@dataclass(frozen=True)
class Flight(Instrument):
    """The flight recorder as an instrument of
    :func:`~repro.sim.run.simulate`; the recorder files its document on
    ``telemetry.flight`` at run end.  ``on_sample`` and ``events`` are
    for in-process use — a live stream cannot ride inside a snapshot, so
    a checkpointed run refuses them before its first cycle."""

    config: FlightConfig | None = None
    on_sample: object = None
    events: object = None

    def install(self, engine) -> FlightRecorder:
        live_stream = self.on_sample is not None or self.events is not None
        if live_stream and engine.checkpoint_policy is not None:
            raise ConfigurationError(_LIVE_STREAM)
        recorder = FlightRecorder(
            self.config, on_sample=self.on_sample, events=self.events
        )
        compose_probe(engine, recorder)
        return recorder


def describe_flight(doc: dict) -> str:
    """A short human-readable digest of a flight document."""
    rows = doc["rows"]
    lines = [
        f"flight timeline: {rows} rows, stride {doc['stride']} cycles"
        + (f" ({doc['decimations']} decimation(s))" if doc["decimations"] else ""),
    ]
    if rows:
        series = doc["series"]
        span = sum(series["span"])
        delivered = sum(series["delivered"])
        offered = sum(series["offered"])
        lines.append(
            f"  delivered {delivered} flits vs offered {offered} over "
            f"{span} cycles"
        )
    for note in doc["annotations"]:
        detail = f" — {note['detail']}" if note.get("detail") else ""
        lines.append(f"  @{note['cycle']:>7} {note['kind']}{detail}")
    if doc.get("annotations_dropped"):
        lines.append(f"  (+{doc['annotations_dropped']} annotations dropped)")
    return "\n".join(lines)
