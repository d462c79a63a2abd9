"""Layered state digests: a Merkle-style audit trail of engine state.

Two engines that claim to be the same simulation — a rewritten hot loop
against the reference loops, a restored checkpoint against the run that
wrote it, one interpreter against another — are held to it by proving
their state *byte-identical*, and when it is not, by saying **when and
where** the two diverged, not just that the final run documents differ.
This module is that contract.

The state is written down **once**, as rows of int64 beside static
schemas of field names (``_DIRECTION``, ``_OUT_LANE``, ``_IN_LANE``,
``_MESSAGE``, ...; DESIGN.md §7 lists them as the normative layout).
Every K cycles the :class:`StateDigestProbe` folds the rows into one
64-bit **root digest** built bottom-up:

- one record per :class:`~repro.router.lane.LinkDirection` (its arbiter
  state, then every output lane with its sink: occupancy, flit pid,
  credit counters), plus the routing state (round-robin pointers,
  pending headers, the route queue, crossbar bindings) — together the
  **fabric** digest;
- per-node **injection** digests (injection channel state, source
  queues, geometric-arrival cursors);
- the **transport** digest (ARQ registries, the timer wheel, AIMD
  windows and ECN marker state) when a reliable transport is installed;
- the **rng** digest (every source stream's position plus the
  transport's jitter stream).

Roots are linked into a tamper-evident chain seeded by the config
digest (``chain[i] = H(chain[i-1] ‖ root[i])``), bounded like the
flight recorder by pairwise decimation, and ride ``telemetry.statehash``
into run documents and the ledger.  :func:`engine_fingerprint` (exposed
as ``Engine.state_fingerprint``) hashes the rows; :func:`state_snapshot`
is the same rows under their names, the view the divergence debugger
(:mod:`repro.obs.diff`) walks to name the exact lane, flit or credit
counter that differs — a field added to a row is in both by construction.

Determinism rules: digests cover only *simulation* state — never wall
clock, ``id()`` values, measurement accumulators or phase timers — so
two runs of one config produce byte-identical chains, and another
backend can replay a chain entry-for-entry.

Example::

    from repro.obs.statehash import StateHash
    from repro.sim.run import simulate
    result = simulate(config, [StateHash()])
    print(result.telemetry.statehash["chain_head"])
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
import struct
from array import array

from ..errors import ConfigurationError
from ..traffic.transport import ReliableTransport
from .probe import Instrument, Probe, compose_probe
from .telemetry import config_digest

#: bump on breaking changes to the digest document layout
STATEHASH_FORMAT_VERSION = 1

#: digest algorithm tag recorded in every document; digests are the
#: first 64 bits of BLAKE2b, rendered as 16 hex chars
DIGEST_ALGO = "blake2b-64"

#: hashed in place of absent values (an empty lane, an unset RTT) and as
#: the separator between variable-length sections; far outside any cycle
#: count, pid or credit value yet inside int64
_NONE = -(1 << 62) - 11

# -- the schemas ---------------------------------------------------------------
#
# The field names of every fixed-width row, in pre-image order.  State is
# enumerated as tables ``(path, names, rows)``: ``rows`` maps each row's key
# to its ints, in pre-image order — the ints, end to end, are what gets
# hashed; ``path`` (keys under the subsystem), the row's key and ``names``
# (one of the tuples below, or None for a variable-length row, filed as a
# list) are where the snapshot puts them; a single row's key is ``()``.  A
# table with no path — a separator, the key opening a group — is hashed only.

_ENGINE = (
    "cycle", "injected_packets", "delivered_packets", "dropped_packets",
    "injected_flits", "delivered_flits", "dropped_flits", "next_pid",
)
_DIRECTION = ("index", "rr", "nbusy", "flits", "to_node")
_OUT_LANE = ("vc", "packet", "buffered", "sent", "credits")
_EJECTION_LANE = ("packet", "received")
_IN_LANE = _EJECTION_LANE + (
    "forwarded", "last_arrival", "bound_switch", "bound_port", "bound_vc",
)
_PENDING = ("port", "vc", "packet")
_BINDING = ("switch", "port", "vc", "packet")
_NODE = ("nid", "rr", "sent", "packet", "lane")
_NODE_LANE = ("vc",) + _IN_LANE
_TRANSPORT = (
    "messages", "acked", "gave_up", "retransmissions", "duplicates", "late_acks",
    "drops_seen", "max_attempts", "event_counter", "rtt_estimate",
)
_NEXT_SEQ = ("src", "dst", "seq")
_UNRESOLVED = ("node", "count")
_MESSAGE = (
    "src", "dst", "seq", "size", "created", "attempts", "acked", "gave_up",
    "delivered_first", "deadline", "claimed", "last_sent",
)
_EVENT = ("due", "counter", "kind", "src", "dst", "seq", "tag")
_CONGESTION = (
    "released", "held", "clean_acks", "marked_acks", "timeouts", "decreases",
    "min_cwnd_seen", "max_cwnd_seen",
)
_WINDOW = ("src", "dst", "cwnd", "in_flight", "last_decrease")
_MARKER = (
    "packets_marked", "windows", "hot_link_windows", "peak_hot_links", "window_end",
)
_BLOCKED = ("index", "cycles")

#: fields whose int64 is a float's IEEE-754 bit pattern
_FLOAT_FIELDS = frozenset(("rtt_estimate", "min_cwnd_seen", "max_cwnd_seen", "cwnd"))

_TO_NODE = _DIRECTION.index("to_node")


def _unnamed(*ints) -> tuple:
    return None, None, {(): ints}


_SEP = _unnamed(_NONE)


# -- hashing primitives --------------------------------------------------------


def _digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=8).digest()


def _hex(data: bytes) -> str:
    return _digest(data).hex()


def _ints(values) -> bytes:
    """Canonical byte form of an int64 stream (little-endian on every
    platform this targets; ``array`` keeps the hot path allocation-light)."""
    return array("q", values).tobytes()


def _preimage(tables) -> bytes:
    """The bytes a list of tables is hashed as: their ints, end to end."""
    flat = []
    for _, _, rows in tables:
        for ints in rows.values():
            flat += ints
    return _ints(flat)


def _f2i(x) -> int:
    """A float's exact IEEE-754 bit pattern as int64 (None -> sentinel).

    Hashing bit patterns instead of ``repr`` keeps float state (AIMD
    windows, RTT estimates) byte-exact with zero formatting ambiguity.
    """
    if x is None:
        return _NONE
    return struct.unpack("<q", struct.pack("<d", float(x)))[0]


def _pid(packet) -> int:
    return _NONE if packet is None else packet.pid


def _by_key(table: dict) -> list:
    """``sorted(table.items())`` without ever comparing a value: the keys
    are unique, and sorting them alone costs half as much."""
    return [(key, table[key]) for key in sorted(table)]


def _rng_digest(rng) -> bytes:
    """Digest of a ``random.Random`` stream position.

    ``getstate()`` for the Mersenne Twister is ``(version, 625 uints,
    gauss_next)``; ``hash()`` of that int tuple folds it in C.  Tuple and
    int hashing is unsalted (``PYTHONHASHSEED`` only perturbs str/bytes)
    and has not changed across CPython 3.10–3.13, so the value — and with
    it every root, chain and checkpoint gate — is the same on all four
    (measured; CI pins 3.10 against 3.12).  Another Python implementation
    may hash tuples differently: it validates the fabric, injection and
    transport digests instead.  This runs for every node every sample;
    pickling or packing 625 words per call was the probe's single largest
    cost.  Exotic states fall back to a pinned pickle.
    """
    if rng is None:
        return b"no-rng"
    version, internal, gauss = rng.getstate()
    if version == 3 and type(internal) is tuple:
        return _ints((version, hash(internal), _f2i(gauss)))
    return _digest(pickle.dumps((version, internal, gauss), protocol=4))


# -- the rows: each subsystem's state, read in exactly one place ---------------


def _fabric_rows(engine) -> list[list[int]]:
    """One record per direction: a ``_DIRECTION`` header, then for each
    lane its ``_OUT_LANE`` fields and its sink's (``_EJECTION_LANE`` on a
    link into a node, ``_IN_LANE`` otherwise).  Nine tenths of the ints a
    sample hashes are read here, so this stays one flat ``append`` loop per
    direction — no per-lane call or tuple; :func:`_lane_records` cuts a
    record back into lanes for whoever wants them apart."""
    none = _NONE
    rows = []
    for idx, d in enumerate(engine.dirs):
        to_node = d.to_node
        row = [idx, d.rr, d.nbusy, d.flits, 1 if to_node else 0]
        append = row.append
        for lane in d.lanes:
            p = lane.packet
            append(lane.vc)
            append(none if p is None else p.pid)
            append(lane.buffered)
            append(lane.sent)
            append(lane.credits)
            sink = lane.sink
            sp = sink.packet
            append(none if sp is None else sp.pid)
            append(sink.received)
            if not to_node:
                append(sink.forwarded)
                append(sink.last_arrival)
                bound = sink.bound
                if bound is None:
                    row += (none, none, none)
                else:
                    append(bound.switch)
                    append(bound.port)
                    append(bound.vc)
        rows.append(row)
    return rows


def _lane_records(row: list[int]) -> list[list[int]]:
    """A direction's record cut at its lane stride."""
    stride = len(_OUT_LANE) + len(_EJECTION_LANE if row[_TO_NODE] else _IN_LANE)
    return [row[at : at + stride] for at in range(len(_DIRECTION), len(row), stride)]


def _link_tables(engine, records) -> list:
    """The fabric records as tables, keyed by link label and lane (a table
    has one schema, so the sinks make two: ``sinks[to_node]``)."""
    links, lanes, sinks = {}, {}, ({}, {})
    for d, row in zip(engine.dirs, records):
        label = d.label
        links[label] = row
        for rec in _lane_records(row):
            lane = (label, "lanes", f"vc{rec[0]}")
            lanes[lane] = rec
            sinks[row[_TO_NODE]][lane + ("sink",)] = rec[len(_OUT_LANE) :]
    return [
        (("links",), _DIRECTION, links),
        (("links",), _OUT_LANE, lanes),
        (("links",), _IN_LANE, sinks[0]),
        (("links",), _EJECTION_LANE, sinks[1]),
    ]


def _routing_tables(engine) -> list:
    """Routing state: rr pointers, pending headers (order is semantic),
    the route queue (order is semantic) and crossbar bindings (sorted —
    the order of the engine's list is an implementation detail no
    alternative backend should have to reproduce)."""
    tables = [(("route_rr",), None, {(): engine.route_rr}), _SEP]
    for s, lanes in enumerate(engine.pending):
        if lanes:
            headers = {i: (l.port, l.vc, _pid(l.packet)) for i, l in enumerate(lanes)}
            tables += (_unnamed(s), (("pending", s), _PENDING, headers))
    tables += (_SEP, (("route_queue",), None, {(): engine.route_queue}), _SEP)
    bindings = sorted(engine.bindings, key=lambda l: (l.switch, l.port, l.vc))
    tables.append((("bindings",), _BINDING, {
        i: (l.switch, l.port, l.vc, _pid(l.packet)) for i, l in enumerate(bindings)
    }))
    return tables


def _source_tables(src, path: tuple) -> list:
    """A source's queue and arrival cursor, filed under ``path``."""
    nxt = getattr(src, "_next", None)
    queue = {i: (len(entry), *entry) for i, entry in enumerate(getattr(src, "queue", ()))}
    return [
        (path, ("active",), {(): (int(bool(getattr(src, "active", False))),)}),
        (path + ("queue",), None, queue),
        (path, ("next",), {(): (_NONE if nxt is None else nxt,)}),
    ]


def _node_tables(node) -> list:
    """One node's injection-side state: the injection channel, its input
    lanes at the switch boundary, and the source queue and arrival cursor
    — of the transport's wrapper and of the raw source underneath it when
    one is installed."""
    current = node.lane
    lanes = {}
    for lane in node.lanes:
        bound = lane.bound
        lanes[f"vc{lane.vc}"] = (
            lane.vc, _pid(lane.packet), lane.received, lane.forwarded, lane.last_arrival,
            *((_NONE, _NONE, _NONE) if bound is None else (bound.switch, bound.port, bound.vc)),
        )
    src = node.source
    inner = getattr(src, "inner", None)
    return [
        ((), _NODE, {(): (
            node.nid, node.rr, node.sent, _pid(node.packet),
            _NONE if current is None else current.vc,
        )}),
        (("lanes",), _NODE_LANE, lanes),
        *_source_tables(src, ("source",)),
        *(() if inner is None else _source_tables(inner, ("source", "inner"))),
    ]


def _message_ints(msg) -> tuple:
    return (
        msg.src, msg.dst, msg.seq, msg.size, msg.created, msg.attempts,
        int(msg.acked), int(msg.gave_up), msg.delivered_first, msg.deadline,
        int(msg.claimed), msg.last_sent,
    )


def _congestion_tables(control) -> list:
    """AIMD windows sorted by flow, then the ECN marker: its marked pids
    and hot direction indices sorted, its blocked-cycle cell per direction."""
    if control is None:
        return [_SEP]
    tables = [
        (("congestion",), _CONGESTION, {(): (
            control.released, control.held, control.clean_acks, control.marked_acks,
            control.timeouts, control.decreases,
            _f2i(control.min_cwnd_seen), _f2i(control.max_cwnd_seen),
        )}),
        (("congestion", "windows"), _WINDOW, {
            flow: (*flow, _f2i(cwnd), in_flight, last_decrease)
            for flow, (cwnd, in_flight, last_decrease) in _by_key(control._windows)
        }),
    ]
    marker = control.marker
    if marker is None:
        return tables
    here = ("congestion", "marker")
    return tables + [
        _SEP,
        (here, _MARKER, {(): (
            marker.packets_marked, marker.windows, marker.hot_link_windows,
            marker.peak_hot_links, marker._window_end,
        )}),
        (here + ("marked",), None, {(): sorted(marker._marked)}),
        _SEP,
        (here + ("hot",), None, {(): sorted(marker._hot)}),
        _SEP,
        (here + ("blocked",), _BLOCKED, {
            index: (index, cycles) for index, cycles in enumerate(marker.window_blocked())
        }),
    ]


def _transport_tables(tp) -> list:
    """The reliable transport: counters, sequence numbers and unresolved
    counts sorted by key, the per-node registries in queue order, the
    timer wheel in (due, counter) order, then the congestion loop."""
    tables = [
        ((), _TRANSPORT, {(): (
            tp.messages, tp.acked, tp.gave_up, tp.retransmissions, tp.duplicates,
            tp.late_acks, tp.drops_seen, tp.max_attempts, tp._counter,
            _f2i(tp.rtt_estimate),
        )}),
        (("next_seq",), _NEXT_SEQ, {
            flow: (*flow, seq) for flow, seq in _by_key(tp._next_seq)
        }),
        _SEP,
        (("unresolved",), _UNRESOLVED, {
            node: (node, count) for node, count in _by_key(tp._unresolved)
        }),
    ]
    for name, queues in (("fifo", tp._fifo), ("waiting", tp._waiting)):
        tables.append(_SEP)
        for node, queue in _by_key(queues):
            messages = dict(enumerate(map(_message_ints, queue)))
            tables += (_unnamed(node), ((name, node), _MESSAGE, messages))
    events = sorted(tp._events, key=lambda e: (e[0], e[1]))
    return tables + [
        _SEP,
        (("by_pid",), ("pid",) + _MESSAGE, {
            pid: (pid, *_message_ints(msg)) for pid, msg in _by_key(tp._by_pid)
        }),
        _SEP,
        (("events",), _EVENT, {
            i: (due, counter, kind, msg.src, msg.dst, msg.seq, tag)
            for i, (due, counter, kind, msg, tag) in enumerate(events)
        }),
        _SEP,
        *_congestion_tables(tp.congestion),
    ]


def _engine_ints(engine, cycle: int) -> tuple:
    return (
        cycle,
        engine.injected_packets_total, engine.delivered_packets_total,
        engine.dropped_packets_total, engine.injected_flits_total,
        engine.delivered_flits_total, engine.dropped_flits_total,
        engine._next_pid,
    )


def _rng_digests(engine, tp) -> list[bytes]:
    """Every node's source stream position, then the transport's jitter."""
    parts = []
    for node in engine.nodes:
        src = node.source
        parts.append(_rng_digest(getattr(getattr(src, "inner", src), "rng", None)))
    parts.append(b"no-transport" if tp is None else _rng_digest(tp._rng))
    return parts


# -- the fingerprint: the rows, hashed -----------------------------------------

#: subsystem keys of a fingerprint, in document order
SUBSYSTEMS = ("fabric", "injection", "transport", "rng")


def engine_fingerprint(engine, detail: bool = False, at_cycle: int | None = None) -> dict:
    """The layered digest of ``engine``'s complete simulation state.

    Returns ``{"cycle", "root", "fabric", "injection", "transport",
    "rng"}``; with ``detail`` also ``"links"``/``"lanes"``/``"nodes"``
    (the same rows hashed one at a time: per link, per lane, per node).
    ``at_cycle`` overrides the cycle folded into the root: probes sample
    from ``on_cycle(t)`` where the state is already post-step but
    ``engine.cycle`` has not yet advanced to ``t + 1``.

    This is the **backend validation contract** (DESIGN.md): any
    alternative engine backend must produce identical fingerprints at
    identical cycles for identical configs.
    """
    tp = engine.find_probe(ReliableTransport)
    records = _fabric_rows(engine)
    links = [_ints(row) for row in records]
    nodes = [_digest(_preimage(_node_tables(node))) for node in engine.nodes]
    subsystems = {
        "fabric": _hex(b"".join(links) + _digest(_preimage(_routing_tables(engine)))),
        "injection": _hex(b"".join(nodes)),
        "transport": _hex(b"" if tp is None else _preimage(_transport_tables(tp))),
        "rng": _hex(b"".join(_rng_digests(engine, tp))),
    }
    cycle = engine.cycle if at_cycle is None else at_cycle
    root = _hex(
        _ints(_engine_ints(engine, cycle)) + "".join(subsystems.values()).encode("ascii")
    )
    fp = {"cycle": cycle, "root": root, **subsystems}
    if detail:
        labels = [d.label for d in engine.dirs]
        fp["links"] = {label: _hex(data) for label, data in zip(labels, links)}
        fp["lanes"] = {
            label: {f"vc{rec[0]}": _hex(_ints(rec)) for rec in _lane_records(row)}
            for label, row in zip(labels, records)
        }
        fp["nodes"] = {str(node.nid): d.hex() for node, d in zip(engine.nodes, nodes)}
    return fp


# -- the snapshot: the rows, named ---------------------------------------------


def _named(tables) -> dict:
    """Tables as a nested document: each row under its path, its key and
    its field names, ``None`` back in for the sentinel and floats back out
    of their bit patterns."""
    doc: dict = {}
    for path, names, rows in tables:
        if path is None:
            continue
        floats = _FLOAT_FIELDS.intersection(names or ())
        for key, ints in rows.items():
            at = path + (key if type(key) is tuple else (key,))
            values = [None if v == _NONE else v for v in ints]
            node = doc
            for k in (at if names else at[:-1]):
                node = node.setdefault(str(k), {})
            if names is None:
                node[str(at[-1])] = values
                continue
            node.update(zip(names, values))
            for name in floats:
                if node[name] is not None:
                    node[name] = struct.unpack("<d", struct.pack("<q", node[name]))[0]
    return doc


def state_snapshot(engine) -> dict:
    """The fingerprint's pre-image as a nested JSON-able dict.

    The very rows :func:`engine_fingerprint` hashes, under their schema
    names — the divergence debugger flattens two snapshots into
    path -> value maps and reports exactly which lane, flit or counter
    differs.  Meant for diff-time, not per-interval sampling.
    """
    tp = engine.find_probe(ReliableTransport)
    *sources, jitter = (d.hex() for d in _rng_digests(engine, tp))
    return {
        "counters": dict(zip(_ENGINE, _engine_ints(engine, engine.cycle))),
        "fabric": {
            **_named(_link_tables(engine, _fabric_rows(engine))),
            "routing": _named(_routing_tables(engine)),
        },
        "injection": {str(node.nid): _named(_node_tables(node)) for node in engine.nodes},
        "transport": None if tp is None else _named(_transport_tables(tp)),
        "rng": {"sources": sources, "jitter": jitter},
    }


# -- the probe -----------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class StateDigestConfig:
    """Sampling knobs for the state-digest audit trail.

    Args:
        interval_cycles: cycles between digest samples; every sample is
            a full state fingerprint, so this is the overhead dial
            (``obs.statehash_cps`` against ``obs.off_cps`` in the
            ``benchmarks/perf`` matrix is its cost at the default).
        max_intervals: buffer bound; reaching it pairwise-decimates the
            chain (stride doubles), like the flight recorder, so a
            million-cycle run still fits one run document.
        audit: run :meth:`Engine.audit` at every digest boundary —
            invariant violations then surface within one interval of
            their origin instead of at drain time.
    """

    interval_cycles: int = 128
    max_intervals: int = 512
    audit: bool = False

    def __post_init__(self) -> None:
        if self.interval_cycles < 1:
            raise ConfigurationError(
                f"digest interval must be >= 1 cycle, got {self.interval_cycles}"
            )
        if self.max_intervals < 8 or self.max_intervals % 2:
            raise ConfigurationError(
                f"max_intervals must be even and >= 8, got {self.max_intervals}"
            )


class StateDigestProbe(Probe):
    """Samples layered state digests every K cycles into a hash chain.

    The chain is seeded by the config digest (``genesis``), so two
    chains are only comparable when the configs match — and a truncated
    or tampered chain cannot reproduce the recorded ``chain_head``.
    After decimation the chain values still commit to *all* sampled
    roots (dropped rows included); the divergence debugger therefore
    compares per-cycle **roots**, and uses ``chain_head`` as the
    whole-run integrity summary.
    """

    def __init__(self, config: StateDigestConfig | None = None):
        self.config = config or StateDigestConfig()
        self.engine = None
        #: (cycle, fingerprint) samples, oldest first; bounded
        self._entries: list[tuple[int, dict]] = []
        self._chain: list[str] = []
        self._chain_head = ""
        self._genesis = ""
        self._interval_end = 0
        self._stride = self.config.interval_cycles
        self._decimations = 0
        self._audits = 0

    def bind(self, engine) -> None:
        self.engine = engine

    def on_run_start(self, engine) -> None:
        self.engine = engine
        self._entries = []
        self._chain = []
        self._decimations = 0
        self._audits = 0
        self._stride = self.config.interval_cycles
        self._genesis = config_digest(engine.config)
        self._chain_head = self._genesis
        # genesis sample: state before the first stepped cycle
        self._sample(engine.cycle)
        self._interval_end = engine.cycle + self._stride

    def on_cycle(self, cycle: int) -> None:
        # on_cycle(t) runs with post-step state for cycle t; the sample
        # is stamped t + 1 so a replay that steps to engine.cycle == t+1
        # fingerprints the identical state
        if cycle + 1 < self._interval_end:
            return
        self._sample(cycle + 1)
        self._interval_end += self._stride
        if self.config.audit:
            self.engine.audit()
            self._audits += 1

    def on_run_end(self, engine) -> None:
        last = self._entries[-1][0] if self._entries else -1
        if engine.cycle > last:
            self._sample(engine.cycle)
        engine.result.telemetry = dataclasses.replace(
            engine.result.telemetry, statehash=self.document()
        )

    # -- internals -------------------------------------------------------------

    def _sample(self, at_cycle: int) -> None:
        fp = engine_fingerprint(self.engine, at_cycle=at_cycle)
        self._chain_head = _hex((self._chain_head + fp["root"]).encode("ascii"))
        self._entries.append((at_cycle, fp))
        self._chain.append(self._chain_head)
        if len(self._entries) >= self.config.max_intervals:
            self._coalesce()

    def _coalesce(self) -> None:
        """Halve the buffer, doubling the stride; index 0 (the genesis
        sample) always survives, so decimated chains stay alignable."""
        self._entries = self._entries[::2]
        self._chain = self._chain[::2]
        self._decimations += 1
        self._stride = self.config.interval_cycles * (1 << self._decimations)

    def document(self) -> dict:
        """The bounded digest chain as a JSON-able run-document block."""
        return {
            "format": STATEHASH_FORMAT_VERSION,
            "algo": DIGEST_ALGO,
            "interval": self.config.interval_cycles,
            "stride": self._stride,
            "max_intervals": self.config.max_intervals,
            "decimations": self._decimations,
            "entries": len(self._entries),
            "audited": self._audits,
            "genesis": self._genesis,
            "cycles": [c for c, _ in self._entries],
            "roots": [fp["root"] for _, fp in self._entries],
            "subsystems": {
                name: [fp[name] for _, fp in self._entries] for name in SUBSYSTEMS
            },
            "chain": list(self._chain),
            "chain_head": self._chain_head,
        }


# -- conveniences --------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class StateHash(Instrument):
    """The state-digest audit trail as an instrument of
    :func:`~repro.sim.run.simulate`; the probe files its chain on
    ``telemetry.statehash`` at run end."""

    config: StateDigestConfig | None = None

    def install(self, engine) -> StateDigestProbe:
        probe = StateDigestProbe(self.config)
        compose_probe(engine, probe)
        return probe


def describe_statehash(doc: dict) -> str:
    """One text block summarizing a digest-chain document."""
    lines = [
        f"state digests: {doc['entries']} samples, stride {doc['stride']} "
        f"cycles ({doc['algo']})",
        f"  genesis (config digest)  {doc['genesis']}",
        f"  chain head               {doc['chain_head']}",
    ]
    if doc.get("decimations"):
        lines.append(
            f"  decimated {doc['decimations']}x from interval {doc['interval']}"
        )
    if doc.get("audited"):
        lines.append(f"  invariant audits passed  {doc['audited']}")
    if doc["cycles"]:
        lines.append(
            f"  cycle {doc['cycles'][-1]} root          {doc['roots'][-1]}"
        )
    return "\n".join(lines)
