"""The kernel's whole-fabric walks outside ``Engine.step``, held to their
Python references.

Three reads of the C structs replace a Python iteration per lane where the
kernel is loaded, chosen like the phases through
``repro.sim.engine.NATIVE_PHASES`` at call time:

* ``fabric_image(dirs, update)`` — the fabric words a plain fingerprint
  hashes; its reference is ``obs/statehash.py``'s ``_fabric_rows``, which the
  detailed fingerprint and ``state_snapshot`` still read;
* ``find_worm(dirs, packet)`` — the search of ``Engine.kill_packet``; its
  twin is ``sim/phases.py``'s ``find_worm``;
* ``__reduce_ex__`` / ``extend`` of the struct types — a stored object's
  pickled form; ``fields.field_list`` gives the ``__slots__`` storage the
  same one (``tests/test_lane.py::TestPickledState`` holds the bytes).

The lockstep suite (``tests/test_property_engine.py``) compares the first two
with their references every cycle of every recipe, and on every fail-stop
kill the recipes draw; here they meet on engines chosen to hold all that a
fingerprint reads.  Without the kernel both sides are the reference, and the
tests still hold.
"""

from __future__ import annotations

import pickle

import pytest

import repro.sim.engine as engine_module
from repro.faults import FaultPolicy
from repro.obs.statehash import _fabric_rows, _ints
from repro.router.lane import EjectionLane, InputLane, LinkDirection, OutputLane
from repro.sim import native
from repro.sim import phases as reference
from repro.sim.packet import FAULT_SENTINEL
from repro.sim.run import cube_config, tree_config

from .test_property_engine import Recipe, build_recipe, python_loops

#: the most bytes ``fabric_image`` hands to ``update`` at once
CHUNK = 64 * 1024


def mid_run(network: str):
    """A 64-node engine 120 cycles into a heavy load, under the transport,
    two fail-stop faults struck at cycles 30 and 60 (a ``FAULT_SENTINEL`` on
    their lanes, the worms they met killed) and a third worm killed by hand:
    every kind of lane, sink and binding a fingerprint reads.  Stepped and
    killed through the reference, so the state the kernel's walks are held
    to here owes nothing to them."""
    make = tree_config if network == "tree" else cube_config
    extra = {} if network == "tree" else {"algorithm": "duato"}
    config = make(k=4 if network == "tree" else 8, n=3 if network == "tree" else 2, vcs=4,
                  load=0.9, seed=5, warmup_cycles=20, total_cycles=400, **extra)
    faults = ((0, 30, None, FaultPolicy.FAIL_STOP), (1, 60, None, FaultPolicy.FAIL_STOP))
    engine, _ = build_recipe(Recipe(config, faults=faults, reliable=True))
    with python_loops():
        while engine.cycle < 100:
            engine.step()
        engine.kill_packet(worms(engine)[0])
        while engine.cycle < 120:
            engine.step()
    lanes = [lane for d in engine.dirs for lane in d.lanes]
    sinks = [lane.sink for lane in lanes]
    assert any(lane.packet is FAULT_SENTINEL for lane in lanes)
    assert any(type(sink) is EjectionLane and sink.packet is not None for sink in sinks)
    assert any(type(sink) is InputLane and sink.bound is not None for sink in sinks)
    assert engine.dropped_packets_total >= 2
    return engine


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


class TestTheFabricImage:
    def test_a_plain_fingerprint_hashes_what_the_detailed_one_does(self, engine):
        plain, detailed = engine.state_fingerprint(), engine.state_fingerprint(detail=True)
        assert plain["fabric"] == detailed["fabric"]
        assert plain["root"] == detailed["root"]
        with python_loops():
            assert engine.state_fingerprint()["root"] == plain["root"]

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


class TestTheKillFinder:
    def test_the_kernel_finds_what_the_reference_finds(self, engine):
        kernel = engine_module.NATIVE_PHASES or reference
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
            kernel, twin = pickle.loads(data), pickle.loads(data)
            pid = packet.pid
            flushed = kernel.kill_packet(next(p for p in worms(kernel) if p.pid == pid))
            with python_loops():
                assert twin.kill_packet(next(p for p in worms(twin) if p.pid == pid)) == flushed
                twin_root = twin.state_fingerprint(detail=True)["root"]
            assert kernel.state_fingerprint(detail=True)["root"] == twin_root
            kernel.audit()
            twin.audit()


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
