"""Tests for the engine's invariant audit — the safety net itself.

Each test corrupts a live engine in a specific way and asserts the audit
detects exactly that violation; a watchdog that cannot bark is worse than
none.
"""

import pytest

from repro.errors import SimulationError
from repro.sim.packet import Packet
from repro.sim.run import build_engine, cube_config


@pytest.fixture
def engine():
    eng = build_engine(
        cube_config(k=4, n=2, algorithm="dor", load=0.3, seed=3,
                    warmup_cycles=50, total_cycles=400)
    )
    eng.run()
    eng.audit()  # healthy after a normal run
    return eng


def some_wired_outlane(engine):
    for s in range(engine.topology.num_switches):
        for port_lanes in engine.out_lanes[s]:
            for lane in port_lanes:
                if lane.direction is not None and not lane.direction.to_node:
                    return lane
    raise AssertionError("no internal output lane found")


def unbound_inlane(engine):
    for switch_ports in engine.in_lanes:
        for port_lanes in switch_ports:
            for lane in port_lanes:
                if lane.bound is None:
                    return lane
    raise AssertionError("every input lane is bound")


class TestAuditDetectsCorruption:
    def test_credit_drift(self, engine):
        some_wired_outlane(engine).credits += 1
        with pytest.raises(SimulationError, match="credit drift"):
            engine.audit()

    def test_output_buffer_overflow(self, engine):
        lane = some_wired_outlane(engine)
        lane.buffered = lane.cap + 1
        with pytest.raises(SimulationError, match="out of range"):
            engine.audit()

    def test_input_buffer_underflow(self, engine):
        # tampering with a lane's counters trips either the buffer-range
        # check or the upstream credit mirror, whichever is visited first
        lane = some_wired_outlane(engine).sink
        lane.packet = Packet(0, 0, 1, 4, 0)
        lane.forwarded = lane.received + 1
        with pytest.raises(SimulationError, match="out of range|credit drift"):
            engine.audit()

    def test_residue_on_free_lane(self, engine):
        lane = some_wired_outlane(engine).sink
        lane.packet = None
        lane.received = 3
        lane.forwarded = 3
        with pytest.raises(SimulationError, match="residue"):
            engine.audit()

    def test_binding_mismatch(self, engine):
        inlane = some_wired_outlane(engine).sink
        outlane = some_wired_outlane(engine)
        a = Packet(1, 0, 1, 8, 0)
        b = Packet(2, 0, 1, 8, 0)
        inlane.packet = a
        inlane.received = 1
        inlane.bound = outlane
        outlane.packet = b
        with pytest.raises(
            SimulationError, match="binding mismatch|credit drift|conservation"
        ):
            engine.audit()

    def test_flit_leak(self, engine):
        engine.injected_flits_total += 1  # a flit that never existed
        with pytest.raises(SimulationError, match="conservation"):
            engine.audit()

    # -- derived state: kept up to date by the phases, never recomputed --------

    def test_busy_lane_count_drift(self, engine):
        # a direction whose nbusy reads 0 is skipped by the link phase
        some_wired_outlane(engine).direction.nbusy += 1
        with pytest.raises(SimulationError, match="busy-lane count drift"):
            engine.audit()

    @pytest.mark.parametrize("corrupt", [
        lambda d, cycle: setattr(d, "flits_at_warmup", d.flits + 1),
        lambda d, cycle: setattr(d, "blocked_at_warmup", d.blocked + 1),
        lambda d, cycle: setattr(d, "blocked", cycle + 1),
        lambda d, cycle: setattr(d, "blocked", cycle - d.flits + 1),
    ], ids=["flits-below-their-snapshot", "blocked-below-its-snapshot", "blocked-past-the-cycle",
            "more-busy-cycles-than-cycles"])
    def test_link_counters_out_of_range(self, engine, corrupt):
        # in each cycle a direction moves one flit, is blocked, or idles, and
        # no counter runs backwards past its warm-up snapshot
        corrupt(some_wired_outlane(engine).direction, engine.cycle)
        with pytest.raises(SimulationError, match="link counters out of range"):
            engine.audit()

    @pytest.mark.parametrize("corrupt, message", [
        (lambda e: e.bindings.pop(), "missing from the bindings"),
        (lambda e: e.bindings.append(e.bindings[0]), "bindings twice"),
        (lambda e: e.bindings.append(unbound_inlane(e)), "not bound"),
    ])
    def test_bindings_are_exactly_the_bound_lanes(self, engine, corrupt, message):
        assert engine.bindings  # the run ends with worms in flight
        corrupt(engine)
        with pytest.raises(SimulationError, match=message):
            engine.audit()

    def test_route_queue_mirror(self, engine):
        idle = engine._in_route_queue.index(False)
        engine._in_route_queue[idle] = True
        with pytest.raises(SimulationError, match="does not mirror"):
            engine.audit()
        engine._in_route_queue[idle] = False
        engine.route_queue += [idle, idle]
        with pytest.raises(SimulationError, match="routing queue twice"):
            engine.audit()

    def test_sleeping_switch_with_a_routable_header(self, engine):
        # a switch that sleeps is not asked again: its headers would never move
        def routable():
            return next((
                (s, lane) for s, lane in engine.unrouted_headers()
                if any(out.is_free() for out in engine.routing.candidates(s, lane, lane.packet))
            ), None)

        for _ in range(200):  # until a header has arrived that is yet to be asked
            if routable() is not None:
                break
            engine.step()
        s, lane = routable()
        engine.audit()
        assert engine._route_awake[s]
        engine._route_awake[s] = False
        with pytest.raises(SimulationError, match=f"switch {s} sleeps on a header"):
            engine.audit()

    @pytest.mark.parametrize("corrupt, message", [
        (lambda node: setattr(node, "lane", None), "one without the other"),
        (lambda node: setattr(node, "packet", None), "one without the other"),
        (lambda node: setattr(node, "sent", node.packet.size), "has sent"),
        (lambda node: setattr(node, "sent", 0), "has sent"),
        (lambda node: setattr(node, "packet", Packet(0, node.nid, 1, 99, 0)), "has sent"),
    ])
    def test_node_streaming_state(self, engine, corrupt, message):
        node = next(node for node in engine.nodes if node.packet is not None)
        corrupt(node)
        with pytest.raises(SimulationError, match=f"node {node.nid} .*{message}"):
            engine.audit()

    def test_active_nodes_lists_a_node_once(self, engine):
        engine.active_nodes.append(engine.active_nodes[0])
        with pytest.raises(SimulationError, match="active_nodes twice"):
            engine.audit()


class TestWiringChecks:
    def test_double_wiring_detected(self):
        # wiring the same port twice must fail fast at construction
        from repro.routing.base import make_routing
        from repro.sim.engine import Engine
        from repro.topology.base import SwitchLink
        from repro.topology.cube import KAryNCube
        from repro.traffic.generator import BernoulliInjector
        from repro.traffic.patterns import UniformPattern

        class BrokenCube(KAryNCube):
            def switch_links(self):
                links = super().switch_links()
                return links + [links[0]]  # duplicate

        cfg = cube_config(k=4, n=2)
        with pytest.raises(SimulationError, match="wired twice"):
            Engine(
                BrokenCube(4, 2),
                make_routing("dor"),
                BernoulliInjector(UniformPattern(16), 0.1, 16),
                cfg,
            )