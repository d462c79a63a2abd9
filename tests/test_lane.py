"""Unit tests for virtual-channel lanes (repro.router.lane)."""

import pickle

import pytest

from repro.errors import SimulationError
from repro.router.lane import EjectionLane, InputLane, LinkDirection, OutputLane
from repro.sim.packet import Packet


def pkt(pid=0, size=4):
    return Packet(pid=pid, src=0, dst=1, size=size, created=0)


class TestInputLane:
    def test_initial_state(self):
        lane = InputLane(switch=2, port=1, vc=0, cap=4)
        assert lane.packet is None
        assert lane.buffered == 0
        assert lane.has_space()

    def test_header_allocates(self):
        lane = InputLane(0, 0, 0, cap=4)
        p = pkt()
        assert lane.accept_flit(p, cycle=5) is True  # header
        assert lane.packet is p
        assert lane.buffered == 1
        assert lane.last_arrival == 5

    def test_body_flits(self):
        lane = InputLane(0, 0, 0, cap=4)
        p = pkt()
        lane.accept_flit(p, 0)
        assert lane.accept_flit(p, 1) is False
        assert lane.buffered == 2

    def test_overflow_detected(self):
        lane = InputLane(0, 0, 0, cap=2)
        p = pkt()
        lane.accept_flit(p, 0)
        lane.accept_flit(p, 1)
        with pytest.raises(SimulationError, match="overflow"):
            lane.accept_flit(p, 2)

    def test_interleaving_detected(self):
        lane = InputLane(0, 0, 0, cap=4)
        lane.accept_flit(pkt(0), 0)
        with pytest.raises(SimulationError, match="different packet"):
            lane.accept_flit(pkt(1), 1)

    def test_release_after_tail(self):
        lane = InputLane(0, 0, 0, cap=4)
        p = pkt(size=2)
        lane.accept_flit(p, 0)
        lane.accept_flit(p, 1)
        lane.forwarded = 2
        lane.release()
        assert lane.packet is None
        assert lane.buffered == 0
        assert lane.bound is None

    def test_release_before_tail_rejected(self):
        lane = InputLane(0, 0, 0, cap=4)
        p = pkt(size=3)
        lane.accept_flit(p, 0)
        with pytest.raises(SimulationError, match="before the tail"):
            lane.release()


class TestOutputLane:
    def test_free_when_unallocated_and_sink_drained(self):
        out = OutputLane(0, 0, 0, cap=4)
        sink = InputLane(1, 1, 0, cap=4)
        out.sink = sink
        assert out.is_free()
        out.packet = pkt()
        assert not out.is_free()

    def test_not_free_while_sink_occupied(self):
        out = OutputLane(0, 0, 0, cap=4)
        sink = InputLane(1, 1, 0, cap=4)
        out.sink = sink
        sink.accept_flit(pkt(), 0)
        assert not out.is_free()

    def test_free_with_no_sink(self):
        out = OutputLane(0, 0, 0, cap=4)
        assert out.is_free()


class TestEjectionLane:
    def test_single_flit_progress(self):
        ej = EjectionLane(node=3)
        p = pkt(size=3)
        assert ej.accept_flit(p, 0) is False
        assert ej.accept_flit(p, 1) is False
        assert ej.accept_flit(p, 2) is True
        assert p.delivered == 2
        assert ej.packet is None  # ready for the next packet

    def test_interleaving_detected(self):
        ej = EjectionLane(0)
        ej.accept_flit(pkt(0, size=2), 0)
        with pytest.raises(SimulationError, match="interleaved"):
            ej.accept_flit(pkt(1, size=2), 1)

    def test_back_to_back_packets(self):
        ej = EjectionLane(0)
        a, b = pkt(0, size=2), pkt(1, size=2)
        ej.accept_flit(a, 0)
        ej.accept_flit(a, 1)
        ej.accept_flit(b, 2)
        assert ej.accept_flit(b, 3) is True
        assert b.delivered == 3


class TestLinkDirection:
    def test_wires_back_reference(self):
        lanes = [OutputLane(0, 0, v, cap=4) for v in range(3)]
        d = LinkDirection(lanes)
        assert all(lane.direction is d for lane in lanes)
        assert d.nbusy == 0
        assert not d.to_node

    def test_to_node_flag(self):
        d = LinkDirection([OutputLane(0, 0, 0, cap=4)], to_node=True)
        assert d.to_node


class TestPickledState:
    """Checkpoints pickle lanes and packets as lists of their slot values;
    a slot left out of ``__getstate__`` would come back unset."""

    @pytest.mark.parametrize(
        "obj, derived",
        [
            (InputLane(2, 1, 3, cap=4), ()),
            (OutputLane(2, 1, 3, cap=4), ()),
            (EjectionLane(7), ()),
            (pkt(), ()),
            (LinkDirection([]), ("rot", "index")),  # rebuilt by Engine.__setstate__
        ],
        ids=lambda v: type(v).__name__ if not isinstance(v, tuple) else "",
    )
    def test_every_slot_round_trips(self, obj, derived):
        slots = [name for name in type(obj).__slots__ if name not in derived]
        for i, name in enumerate(slots):
            setattr(obj, name, 100 + i)
        state = obj.__getstate__()
        assert state == [100 + i for i in range(len(slots))]
        clone = pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
        assert [getattr(clone, name) for name in slots] == state

    def test_sent_is_read_off_the_sink(self):
        # the output-lane/sink pair carries one packet at a time, so the
        # flits the lane has sent are the flits its sink has received
        sink = InputLane(1, 0, 0, cap=4)
        lane = OutputLane(0, 0, 0, cap=4, sink=sink, credits=4)
        assert "sent" not in OutputLane.__slots__
        assert lane.sent == 0  # unallocated
        p = pkt(size=3)
        lane.packet = p
        assert lane.sent == 0  # allocated, header not sent yet
        sink.accept_flit(p, 0)
        sink.accept_flit(p, 1)
        assert lane.sent == 2
        clone = pickle.loads(pickle.dumps(lane, protocol=pickle.HIGHEST_PROTOCOL))
        assert clone.sent == 2 and clone.sink.received == 2
        sink.accept_flit(p, 2)
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
