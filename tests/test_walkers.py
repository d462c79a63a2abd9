"""The kernel's reads of the whole engine outside ``Engine.step``, held to
their Python references.

Where the kernel is loaded they replace a Python iteration.  Each is read
from the engine's own phase table (``Engine.phases``, chosen when the engine
is built or restored), or from the kernel itself where no engine is in reach
(the Mersenne functions of the checkpoint's pickler):

* ``fabric_image(dirs, update)``, ``node_images(nodes)`` and
  ``routing_image(engine)`` — the words a plain fingerprint hashes; their
  references are ``obs/statehash.py``'s ``_fabric_rows``, ``_node_tables``
  and ``_routing_tables``, which the detailed fingerprint and
  ``state_snapshot`` still read (the transport's rows, ``_transport_tables``,
  are hashed on both paths);
* ``find_worm(dirs, packet)`` — the search of ``Engine.kill_packet``; its
  twin is ``sim/phases.py``'s ``find_worm``;
* ``link_totals(dirs)`` — what a flight sample reads of the links; its twin
  is ``sim/phases.py``'s ``link_totals``;
* ``mt_words``, ``mt_load`` and ``mt_hash`` — a ``random.Random``'s Mersenne
  state packed, restored and hashed where it lies, for the checkpoint and
  the fingerprint's rng digest; their references are ``getstate()``,
  ``setstate()`` and ``hash()``, and ``mt_setup`` binds them only once its
  reading of the struct agrees with those;
* ``__reduce_ex__`` / ``extend`` of the struct types — a stored object's
  pickled form; ``fields.field_list`` gives the ``__slots__`` storage the
  same one (``tests/test_lane.py::TestPickledState`` holds the bytes).

The lockstep suite (``tests/test_property_engine.py``) compares the walks and
images with their references every cycle of every recipe, and on every
fail-stop kill the recipes draw; here they meet on engines chosen to hold all
that a fingerprint reads, each beside a twin loaded under ``python_loops()``.
Without the kernel both sides are the reference, and the tests still hold.
"""

from __future__ import annotations

import contextlib
import io
import pickle
import random
import types

import pytest

import repro.sim.engine as engine_module
from repro.faults import FaultPolicy
from repro.obs.flight import Flight
from repro.obs.statehash import (
    _NONE,
    _fabric_rows,
    _ints,
    _node_tables,
    _preimage,
    _rng_digest,
    _routing_tables,
)
from repro.router.lane import EjectionLane, InputLane, LinkDirection, OutputLane
from repro.sim import checkpoint, native
from repro.sim import phases as reference
from repro.sim.packet import FAULT_SENTINEL
from repro.sim.run import build_engine, cube_config, simulate, tree_config
from repro.traffic.congestion import Congested, CongestionConfig
from repro.traffic.transport import ReliableTransport

from .test_property_engine import Recipe, build_recipe, python_loops

#: the most bytes ``fabric_image`` hands to ``update`` at once
CHUNK = 64 * 1024

_nothing = contextlib.nullcontext


def mid_run(network: str):
    """A 64-node engine 120 cycles into a heavy load, under the transport,
    two fail-stop faults struck at cycles 30 and 60 (a ``FAULT_SENTINEL`` on
    their lanes, the worms they met killed) and a third worm killed by hand:
    every kind of lane, sink and binding a fingerprint reads.  Stepped and
    killed through the reference, so the state the kernel's walks are held
    to here owes nothing to them; then restored on the phases this process
    has (:func:`loaded_on`)."""
    make = tree_config if network == "tree" else cube_config
    extra = {} if network == "tree" else {"algorithm": "duato"}
    config = make(k=4 if network == "tree" else 8, n=3 if network == "tree" else 2, vcs=4,
                  load=0.9, seed=5, warmup_cycles=20, total_cycles=400, **extra)
    faults = ((0, 30, None, FaultPolicy.FAIL_STOP), (1, 60, None, FaultPolicy.FAIL_STOP))
    with python_loops():
        engine, _ = build_recipe(Recipe(config, faults=faults, reliable=True))
    while engine.cycle < 100:
        engine.step()
    engine.kill_packet(worms(engine)[0])
    while engine.cycle < 120:
        engine.step()
    engine = loaded_on(engine, python=False)
    lanes = [lane for d in engine.dirs for lane in d.lanes]
    sinks = [lane.sink for lane in lanes]
    assert any(lane.packet is FAULT_SENTINEL for lane in lanes)
    assert any(type(sink) is EjectionLane and sink.packet is not None for sink in sinks)
    assert any(type(sink) is InputLane and sink.bound is not None for sink in sinks)
    assert engine.dropped_packets_total >= 2
    # a node streaming a packet, and a retransmission queued at its source
    assert any(node.packet is not None for node in engine.nodes)
    transport = engine.find_probe(ReliableTransport)
    assert any(msg.attempts > 0 for queue in transport._fifo.values() for msg in queue)
    return engine


def loaded_on(engine, python: bool):
    """``engine`` through pickle, loaded on the reference phases
    (``python``) or on the kernel where it is built."""
    data = pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL)
    with python_loops() if python else _nothing():
        return pickle.loads(data)


def worms(engine) -> list:
    """Every packet an output lane or a sink holds, in ``dirs`` order."""
    seen = {}
    for d in engine.dirs:
        for lane in d.lanes:
            for packet in (lane.packet, lane.sink.packet):
                if packet is not None and packet is not FAULT_SENTINEL:
                    seen.setdefault(id(packet), packet)
    return list(seen.values())


@pytest.fixture(scope="module", params=["tree", "cube"])
def engine(request):
    return mid_run(request.param)


def congested() -> object:
    """A 16-node tree 150 cycles into a transpose overload under the closed
    congestion loop: AIMD windows open, marked packets and hot links in the
    marker.  Stepped through the reference, restored on the kernel."""
    with python_loops():
        engine = build_engine(tree_config(k=4, n=2, vcs=2, pattern="transpose", load=0.9, seed=3,
                                          warmup_cycles=20, total_cycles=400))
    Congested(control=CongestionConfig(window_cycles=16, hot_fraction=0.2)).install(engine)
    engine.probe.on_run_start(engine)
    while engine.cycle < 150:
        engine.step()
    engine = loaded_on(engine, python=False)
    control = engine.find_probe(ReliableTransport).congestion
    assert control._windows and control.marker._marked and control.marker.peak_hot_links
    assert any(engine.find_probe(ReliableTransport)._waiting.values())
    return engine


def images(engine) -> dict:
    """Each image of the kernel beside the bytes of its reference rows."""
    kernel = engine_module.NATIVE_PHASES
    return {
        "nodes": (kernel.node_images(engine.nodes), [_preimage(_node_tables(n)) for n in engine.nodes]),
        "routing": (kernel.routing_image(engine), _preimage(_routing_tables(engine))),
    }


class TestTheFabricImage:
    def test_a_plain_fingerprint_hashes_what_the_detailed_one_does(self, engine):
        plain, detailed = engine.state_fingerprint(), engine.state_fingerprint(detail=True)
        assert {key: detailed[key] for key in plain} == plain
        assert loaded_on(engine, python=True).state_fingerprint() == plain

    def test_the_image_is_the_rows_in_bounded_chunks(self, engine):
        kernel = engine_module.NATIVE_PHASES
        if kernel is None:
            return  # the rows are the image: nothing else to hold them to
        chunks = []
        kernel.fabric_image(engine.dirs, chunks.append)
        assert b"".join(chunks) == b"".join(_ints(row) for row in _fabric_rows(engine))
        assert len(chunks) > 1 and max(map(len, chunks)) <= CHUNK
        assert all(type(chunk) is bytes for chunk in chunks)

    def test_what_update_raises_comes_out(self, engine):
        kernel = engine_module.NATIVE_PHASES
        if kernel is None:
            return

        def refuse(chunk):
            raise OSError("full")

        with pytest.raises(OSError, match="full"):
            kernel.fabric_image(engine.dirs, refuse)
        with pytest.raises(TypeError):
            kernel.fabric_image(tuple(engine.dirs), len)


class TestTheEngineImages:
    """``node_images`` and ``routing_image``: the bytes of the rows, on
    engines whose sources, headers and bindings all hold something, under a
    transport whose registries, timer wheel and congestion loop do too."""

    def test_each_image_is_the_bytes_of_its_rows(self, engine):
        if engine_module.NATIVE_PHASES is None:
            return
        for name, (image, rows) in images(engine).items():
            assert image == rows, name
        assert engine.pending and any(engine.pending) and engine.bindings and engine.route_queue

    def test_under_congestion_control_the_python_rows_follow_the_image(self):
        engine = congested()
        plain = engine.state_fingerprint()
        assert {key: value for key, value in engine.state_fingerprint(detail=True).items()
                if key in plain} == plain
        assert loaded_on(engine, python=True).state_fingerprint() == plain
        if engine_module.NATIVE_PHASES is not None:
            for name, (image, rows) in images(engine).items():
                assert image == rows, name

    def test_a_source_is_read_by_attribute_with_the_references_defaults(self, engine):
        # a source with no queue, no cursor and no activity flag, and one
        # whose cursor is None: the defaults of _source_tables
        kernel = engine_module.NATIVE_PHASES
        if kernel is None:
            return
        nodes = engine.nodes[:2]
        kept = [node.source for node in nodes]

        class Bare:
            pass

        class Idle:
            queue = ((3, 1), (4, 2, 9))
            _next = None
            active = 1

        try:
            nodes[0].source, nodes[1].source = Bare(), Idle()
            assert kernel.node_images(nodes) == [_preimage(_node_tables(node)) for node in nodes]
        finally:
            for node, source in zip(nodes, kept):
                node.source = source

    def test_what_a_row_cannot_hold_is_refused(self, engine):
        kernel = engine_module.NATIVE_PHASES
        if kernel is None:
            return
        with pytest.raises(TypeError):
            kernel.node_images(tuple(engine.nodes))
        with pytest.raises(TypeError, match="pending holds lists"):
            kernel.routing_image(types.SimpleNamespace(route_rr=engine.route_rr, pending=[()]))


class TestTheKillFinder:
    def test_the_kernel_finds_what_the_reference_finds(self, engine):
        kernel = engine.phases
        found = 0
        for packet in [*worms(engine), FAULT_SENTINEL]:
            owned, holding = kernel.find_worm(engine.dirs, packet)
            expected = reference.find_worm(engine.dirs, packet)
            assert [id(lane) for lane in owned] == [id(lane) for lane in expected[0]]
            assert [id(sink) for sink in holding] == [id(sink) for sink in expected[1]]
            found += len(holding)
        assert found > 0
        assert any(isinstance(sink, EjectionLane) for packet in worms(engine)
                   for sink in kernel.find_worm(engine.dirs, packet)[1])

    def test_a_kill_leaves_the_same_state_on_both_walks(self, engine):
        data = pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL)
        for packet in worms(engine)[::25]:
            kernel = pickle.loads(data)
            with python_loops():
                twin = pickle.loads(data)
            assert twin.phases is reference
            pid = packet.pid
            flushed = kernel.kill_packet(next(p for p in worms(kernel) if p.pid == pid))
            assert twin.kill_packet(next(p for p in worms(twin) if p.pid == pid)) == flushed
            assert kernel.state_fingerprint(detail=True)["root"] == twin.state_fingerprint(detail=True)["root"]
            kernel.audit()
            twin.audit()


class TestTheLinkTotals:
    def test_the_kernel_sums_what_the_reference_sums(self, engine):
        kernel = engine.phases
        flits, blocked, occupancy = kernel.link_totals(engine.dirs)
        assert (flits, blocked, occupancy) == reference.link_totals(engine.dirs)
        assert occupancy > 0 and blocked > 0 and sum(flits) > 0
        if kernel is not reference:
            with pytest.raises(TypeError):
                kernel.link_totals(tuple(engine.dirs))

    def test_a_flight_document_is_the_same_on_both_paths(self):
        config = tree_config(k=4, n=2, vcs=2, load=0.8, seed=4, warmup_cycles=30, total_cycles=300)
        kernel = simulate(config, [Flight()]).telemetry.flight
        with python_loops():
            assert simulate(config, [Flight()]).telemetry.flight == kernel
        assert all(kernel["series"]["occupancy"]) and all(kernel["series"]["blocked"])


# -- Mersenne streams in place ---------------------------------------------------


def streams() -> list:
    """Seeded streams at position 624 (just seeded), 0 and mid-block, each
    without and with a pending ``gauss_next``."""
    fresh = random.Random(7)
    at_zero = random.Random(8)
    at_zero.setstate((3, at_zero.getstate()[1][:-1] + (0,), None))
    mid = random.Random(9)
    mid.getrandbits(3000)
    out = []
    for rng in (fresh, at_zero, mid):
        pending = random.Random()
        version, words, _ = rng.getstate()
        pending.setstate((version, words, 0.375))
        out += (rng, pending)
    assert [rng.getstate()[1][-1] for rng in out[::2]] == [624, 0, 94]
    return out


def mersenne():
    """The kernel where ``mt_setup`` bound its Mersenne functions, else None."""
    kernel = engine_module.NATIVE_PHASES
    return kernel if hasattr(kernel, "mt_hash") else None


class OwnState(random.Random):
    """A stream whose state is not its words: the Python path's to read."""

    def getstate(self):
        return 3, tuple(range(625)), None


class TestMersenneStreamsInPlace:
    def test_the_guard_binds_the_three_where_the_kernel_is_built(self):
        # on the interpreters this runs on (CPython 3.10-3.13) the struct is
        # read right, so the checkpoint and the rng digest take the kernel
        kernel = engine_module.NATIVE_PHASES
        if kernel is None:
            return
        assert mersenne() is kernel, "mt_setup did not bind mt_words, mt_load and mt_hash"

    def test_words_load_and_hash_are_getstate_setstate_and_hash(self):
        kernel = mersenne()
        if kernel is None:
            return
        for rng in streams():
            version, words, gauss = rng.getstate()
            packed = kernel.mt_words(rng)
            assert packed == checkpoint._MT_STATE.pack(*words)
            assert kernel.mt_hash(rng) == hash(words)
            assert _rng_digest(rng, kernel.mt_hash) == _rng_digest(rng)
            target = random.Random(1)
            target.gauss_next = 0.25
            assert kernel.mt_load(target, packed) is None
            assert target.getstate() == (version, words, 0.25)  # gauss_next is the caller's
            assert rng.getstate() == (version, words, gauss)  # read, not changed

    def test_a_checkpoint_packs_and_restores_the_same_bytes_on_both_paths(self):
        data = pickle.dumps(streams(), protocol=pickle.HIGHEST_PROTOCOL)
        dumps = []
        for twin in (False, True):
            with python_loops() if twin else _nothing():
                out = io.BytesIO()
                checkpoint.checkpoint_pickler(out).dump(pickle.loads(data))
                dumps.append(out.getvalue())
                back = pickle.loads(dumps[-1])
            assert [rng.getstate() for rng in back] == [rng.getstate() for rng in pickle.loads(data)]
        assert dumps[0] == dumps[1]

    def test_a_position_past_the_words_is_refused_as_setstate_refuses_it(self):
        kernel = mersenne()
        if kernel is None:
            return
        rng = random.Random(5)
        words = rng.getstate()[1][:-1]
        with pytest.raises(ValueError) as refused:
            rng.setstate((3, words + (625,), None))
        before = rng.getstate()
        with pytest.raises(ValueError) as loaded:
            kernel.mt_load(rng, checkpoint._MT_STATE.pack(*words, 625))
        assert str(loaded.value) == str(refused.value) == "invalid state"
        assert rng.getstate() == before
        with pytest.raises(ValueError, match="2496 bytes, not 2500"):
            kernel.mt_load(rng, checkpoint._MT_STATE.pack(*words, 3)[:-4])
        # the checkpoint's gate: a packed position past the words is corrupt
        packed = checkpoint._MT_STATE.pack(*words, 625)
        with pytest.raises(ValueError, match="invalid state"):
            checkpoint._restore_rng(random.Random.__new__(random.Random), packed)

    def test_a_subclass_a_foreign_object_and_a_patched_stream_take_the_python_path(self):
        kernel = mersenne()
        if kernel is None:
            return
        own = _ints((3, hash(tuple(range(625))), _NONE))

        class Foreign:
            def getstate(self):
                return 3, tuple(range(625)), None

        patched = random.Random(2)
        patched.getstate = Foreign().getstate
        for rng in (OwnState(4), Foreign(), patched):
            assert _rng_digest(rng, kernel.mt_hash) == own
        for rng in (OwnState(4), Foreign()):
            for call in (kernel.mt_words, kernel.mt_hash):
                with pytest.raises(TypeError):
                    call(rng)
            with pytest.raises(TypeError):
                kernel.mt_load(rng, bytes(2500))

    def test_a_layout_that_misreads_the_struct_leaves_the_three_unbound(self, engine):
        kernel = engine_module.NATIVE_PHASES
        if kernel is None:
            return
        names = ("mt_words", "mt_load", "mt_hash")
        root = engine.state_fingerprint()["root"]
        try:
            for layout in ((16, 24), (20, 16), (16, 4000), (12, 20)):
                assert kernel.mt_setup(random.Random, *layout) is False
                assert not any(hasattr(kernel, name) for name in names)
            assert kernel.mt_setup(int, *native.MT_LAYOUT) is False
            assert not any(hasattr(kernel, name) for name in names)
            # the Python path: the same root, the same packed stream
            assert engine.state_fingerprint()["root"] == root
            rng = random.Random(6)
            assert checkpoint._reduce_rng(rng)[2] == checkpoint._MT_STATE.pack(*rng.getstate()[1])
        finally:
            assert kernel.mt_setup(random.Random, *native.MT_LAYOUT) is True
        assert all(hasattr(kernel, name) for name in names)


def counters():
    """(class, field) of every int field of the four lane and direction classes."""
    return [
        (cls, name)
        for cls in (InputLane, OutputLane, EjectionLane, LinkDirection)
        for name, kind in cls.FIELDS
        if kind == native.INT
    ]


def fresh(cls):
    """A new unwired instance of one of the four classes."""
    sink = InputLane(3, 1, 2, cap=4)
    return {
        InputLane: sink,
        OutputLane: OutputLane(2, 1, 3, cap=4, sink=sink, credits=4),
        EjectionLane: EjectionLane(7),
        LinkDirection: LinkDirection([], index=5),
    }[cls]


class TestARefusedAssignmentWritesNothing:
    """On the C storage an int field takes a 64-bit integer, and a value it
    refuses leaves the field as it was — not the -1 CPython's member
    descriptor would store before raising, which ``audit()`` cannot tell from
    the legal -1 of ``InputLane.last_arrival`` or an unwired direction's
    ``index``.  The ``__slots__`` storage takes any value as it is."""

    @pytest.mark.parametrize("cls, name", counters(), ids=lambda v: getattr(v, "__name__", v))
    @pytest.mark.parametrize("value", [2**70, "x", 2.5])
    def test_the_field_keeps_its_value(self, cls, name, value):
        obj = fresh(cls)
        setattr(obj, name, 11)
        if native.KERNEL is None:
            setattr(obj, name, value)
            assert getattr(obj, name) is value
            return
        with pytest.raises(OverflowError if isinstance(value, int) else TypeError):
            setattr(obj, name, value)
        assert getattr(obj, name) == 11

    def test_a_restore_refused_writes_nothing_either(self):
        lane = fresh(OutputLane)
        before = pickle.dumps(lane, protocol=pickle.HIGHEST_PROTOCOL)
        items = list(lane.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[3])
        items[[name for name, _ in OutputLane.FIELDS].index("credits")] = 2**70
        if native.KERNEL is None:
            lane.extend(items)
            assert lane.credits == 2**70
            return
        with pytest.raises(OverflowError):
            lane.extend(items)
        assert pickle.dumps(lane, protocol=pickle.HIGHEST_PROTOCOL) == before
