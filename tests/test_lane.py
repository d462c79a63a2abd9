"""Unit tests for virtual-channel lanes (repro.router.lane)."""

import copy
import copyreg
import json
import pickle

import pytest

from repro.errors import SimulationError
from repro.router.lane import EjectionLane, InputLane, LinkDirection, OutputLane
from repro.sim import native
from repro.sim.engine import _Node
from repro.sim.packet import FAULT_SENTINEL, Packet
from repro.traffic.transport import _Message

from .conftest import built_for_the_pickle, on_the_other_storage
from .test_arbiter import Channel


def pkt(pid=0, size=4):
    return Packet(pid=pid, src=0, dst=1, size=size, created=0)


class TestInputLane:
    """What a flit does to the input lane it enters and leaves: ``fabric_hop``
    and ``forward`` of the reference and of the kernel, on twin engines."""

    def test_initial_state(self):
        lane = InputLane(switch=2, port=1, vc=0, cap=4)
        assert lane.packet is None
        assert lane.buffered == 0

    def test_header_allocates(self):
        ch = Channel(1)
        ch.load([1])
        for twin in ch.twins:
            ch.step(twin, cycle=5)
            _, engine, d = twin
            sink = d.lanes[0].sink
            assert sink.packet.pid == 0 and d.lanes[0].packet is sink.packet
            assert sink.buffered == 1
            assert sink.last_arrival == 5
            assert engine.pending[sink.switch] == [sink]  # the header waits to be routed

    def test_body_flits(self):
        ch = Channel(1)
        ch.load([2])
        for twin in ch.twins:
            ch.step(twin, cycle=0)
            ch.step(twin, cycle=1)
            _, engine, d = twin
            sink = d.lanes[0].sink
            assert sink.buffered == 2 and sink.last_arrival == 1
            assert engine.pending[sink.switch] == [sink]  # once: the second flit is no header

    def test_overflow_detected(self):
        # the credit protocol: a lane out of credits sends nothing, so its
        # sink never holds more than ``cap``; a buffer that does fails the audit
        ch = Channel(1)
        ch.load([3], credits=[0])
        for twin in ch.twins:
            _, engine, d = twin
            lane = d.lanes[0]
            sink = lane.sink
            sink.packet, sink.received = lane.packet, sink.cap  # full: what no credit means
            ch.step(twin)
            assert (lane.buffered, sink.received) == (3, sink.cap)
            sink.received += 1
            with pytest.raises(SimulationError, match="input buffer out of range"):
                engine.audit()

    @staticmethod
    def bound_pair(ch, size: int, received: int, forwarded: int):
        """Per twin, the input lane behind the channel bound to an output
        lane of its switch, holding part of a ``size``-flit packet."""
        for phases, engine, d in ch.twins:
            lane = d.lanes[0].sink
            lane.packet = pkt(size=size)
            lane.received, lane.forwarded = received, forwarded
            lane.bound = engine.out_lanes[lane.switch][0][0]
            lane.bound.packet = lane.packet
            engine.bindings = [lane]
            yield phases, engine, lane

    def test_release_after_tail(self):
        for phases, engine, lane in self.bound_pair(Channel(1), size=2, received=2, forwarded=1):
            out = lane.bound
            assert phases.crossbar_phase(engine, 7)
            assert lane.packet is None
            assert lane.buffered == 0
            assert lane.bound is None
            feed = engine._fabric_out[lane.src_dir * engine.config.vcs + lane.vc]
            assert feed.sink is lane  # the lane feeding it, named by index
            assert engine.bindings == [] and out.buffered == 1 and feed.credits == lane.cap + 1

    def test_release_before_tail_rejected(self):
        for phases, engine, lane in self.bound_pair(Channel(1), size=3, received=2, forwarded=1):
            assert phases.crossbar_phase(engine, 7)
            assert lane.packet is not None and lane.bound.packet is lane.packet
            assert (lane.received, lane.forwarded) == (2, 2)
            assert engine.bindings == [lane]


class TestOutputLane:
    def test_free_when_unallocated_and_sink_drained(self):
        out = OutputLane(0, 0, 0, cap=4)
        sink = InputLane(1, 1, 0, cap=4)
        out.sink = sink
        assert out.is_free()
        out.packet = pkt()
        assert not out.is_free()

    def test_not_free_while_sink_occupied(self):
        # what keeps two packets from interleaving on a lane pair
        out = OutputLane(0, 0, 0, cap=4)
        sink = InputLane(1, 1, 0, cap=4)
        out.sink = sink
        sink.packet = pkt()
        assert not out.is_free()

    def test_free_with_no_sink(self):
        out = OutputLane(0, 0, 0, cap=4)
        assert out.is_free()


class TestEjectionLane:
    """``eject_hop`` of the reference and of the kernel, on twin engines."""

    def test_single_flit_progress(self):
        ch = Channel(1, eject=True)
        ch.load([3], size=3)
        for twin in ch.twins:
            lane = twin[2].lanes[0]
            p, ej = lane.packet, lane.sink
            for cycle in range(3):
                assert p.delivered == -1
                ch.step(twin, cycle)
            assert (p.head_delivered, p.delivered) == (0, 2)
            assert ej.packet is None and lane.packet is None  # ready for the next packet

    def test_back_to_back_packets(self):
        ch = Channel(1, eject=True)
        ch.load([2], size=2)
        for twin in ch.twins:
            lane = twin[2].lanes[0]
            a = lane.packet
            ch.step(twin, 0)
            ch.step(twin, 1)
            b = lane.packet = pkt(1, size=2)
            lane.buffered = 2
            twin[2].nbusy = 1
            ch.step(twin, 2)
            ch.step(twin, 3)
            assert (a.delivered, b.head_delivered, b.delivered) == (1, 2, 3)


class TestLinkDirection:
    def test_wires_back_reference(self):
        # by index, the direction's place in Engine.dirs: no edge points back
        lanes = [OutputLane(0, 0, v, cap=4) for v in range(3)]
        assert all(lane.dir == -1 for lane in lanes)  # not wired yet
        d = LinkDirection(lanes, index=4)
        assert all(lane.dir == 4 for lane in lanes)
        assert d.nbusy == 0
        assert not d.to_node

    def test_to_node_flag(self):
        d = LinkDirection([OutputLane(0, 0, 0, cap=4)], to_node=True)
        assert d.to_node


def stored() -> list:
    """A fresh instance of each class on the storage."""
    return [
        InputLane(2, 1, 3, cap=4),
        OutputLane(2, 1, 3, cap=4),
        EjectionLane(7),
        pkt(),
        LinkDirection([]),
        _Node(5, None, []),
    ]


def numbered(obj):
    """``obj`` with field ``i`` set to ``100 + i``; the names."""
    names = [name for name, _ in obj.FIELDS]
    for i, name in enumerate(names):
        setattr(obj, name, 100 + i)
    return names


def describe_storage() -> dict:
    """Per class: the field table, whether the base is the C struct, the
    bytes a numbered instance pickles to and the containers built to pickle
    it."""
    described = {}
    for obj in stored():
        numbered(obj)
        cls = type(obj)
        described[cls.__name__] = [
            cls.FIELDS, cls.__slots__, hasattr(cls.__base__, "__slots__"),
            pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL).hex(),
            len(built_for_the_pickle(obj)),
        ]
    return described


class TestPickledState:
    """Checkpoints pickle lanes, directions, packets and nodes as the bare
    list of their field values: a field the list left out would come back
    unset, and a state container built for the pickle would stay in the
    pickler's memo until the dump ends."""

    @pytest.mark.parametrize("obj", stored(), ids=lambda obj: f"{type(obj).__name__}-")
    def test_every_slot_round_trips(self, obj):
        names = numbered(obj)
        values = [100 + i for i in range(len(names))]
        reduced = obj.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
        assert reduced[:3] == (copyreg.__newobj__, (type(obj),), None)
        assert list(reduced[3]) == values
        clone = pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
        assert [getattr(clone, name) for name in names] == values
        assert built_for_the_pickle(obj) == []

    @pytest.mark.parametrize("obj", [*stored(), _Message(0, 1, 2, 4, 5)],
                             ids=lambda obj: f"{type(obj).__name__}-")
    def test_copy_and_deepcopy_rebuild_the_field_list(self, obj):
        # copy's own rebuild hands the list items to append one at a time;
        # the classes have only extend, so they copy as the unpickler rebuilds
        names = [name for name, _ in obj.FIELDS] if hasattr(obj, "FIELDS") else obj.__slots__
        for twin in (copy.copy(obj), copy.deepcopy(obj)):
            assert type(twin) is type(obj) and twin is not obj
            assert [getattr(twin, name) for name in names] == [getattr(obj, name) for name in names]
        assert copy.copy(FAULT_SENTINEL) is FAULT_SENTINEL is copy.deepcopy(FAULT_SENTINEL)

    def test_a_field_list_of_another_length_is_refused(self):
        lane = EjectionLane(7)
        with pytest.raises(ValueError):
            lane.extend([1, None])
        with pytest.raises(ValueError):
            lane.extend([1, None, 0, 0])

    def test_the_two_storages_hold_the_same_fields_and_pickle_the_same_state(self, tmp_path):
        there = json.loads(on_the_other_storage(
            tmp_path, "__import__('json').dumps(tests.test_lane.describe_storage())"
        ))
        here = json.loads(json.dumps(describe_storage()))
        assert len(here) == 6
        for name, (fields, slots, slotted, pickled, built) in here.items():
            assert slots == [] and slotted == (native.KERNEL is None) and built == 0
            assert there[name] == [fields, slots, not slotted, pickled, built]

    @pytest.mark.parametrize("value", ["4", None, 2.5, 2**63])
    def test_what_a_counter_takes_is_the_storage_s_business(self, value):
        # the C struct refuses at the assignment what is not a 64-bit integer;
        # a slot takes anything, and the loops trip over it later
        lane = OutputLane(0, 0, 0, cap=4, credits=4)
        if native.KERNEL is None:
            lane.credits = value
            assert lane.credits is value
            del lane.credits
            assert not hasattr(lane, "credits")
        else:
            with pytest.raises(OverflowError if isinstance(value, int) else TypeError):
                lane.credits = value
            with pytest.raises(TypeError):
                del lane.credits
            lane.credits = True  # an int, to the machine
            assert lane.credits == 1 and type(lane.credits) is int

    def test_sent_is_read_off_the_sink(self):
        # the output-lane/sink pair carries one packet at a time, so the
        # flits the lane has sent are the flits its sink has received
        sink = InputLane(1, 0, 0, cap=4)
        lane = OutputLane(0, 0, 0, cap=4, sink=sink, credits=4)
        assert "sent" not in dict(OutputLane.FIELDS)
        assert lane.sent == 0  # unallocated
        p = pkt(size=3)
        lane.packet = p
        assert lane.sent == 0  # allocated, header not sent yet
        sink.packet, sink.received = p, 2
        assert lane.sent == 2
        clone = pickle.loads(pickle.dumps(lane, protocol=pickle.HIGHEST_PROTOCOL))
        assert clone.sent == 2 and clone.sink.received == 2
        sink.received = 3
        lane.packet = None  # the tail left: the sink still drains it
        assert lane.sent == 0
        with pytest.raises(AttributeError):
            lane.sent = 1
        assert OutputLane(0, 0, 0, cap=4).sent == 0  # unwired (unit tests)

    def test_step_makes_no_closure_cells(self):
        # a cell turns every access to the variable into a LOAD_DEREF and is
        # allocated once per cycle; ``step`` keeps its hot locals plain
        from repro.sim.engine import Engine

        assert Engine.step.__code__.co_cellvars == ()
