"""Sleeping switches: a stalled header is not re-tried every cycle, yet is
routed in exactly the cycle it would have been.

The routing phase lets a switch sleep after a pass that tried every
pending header in vain, and wakes it when a header arrives there, when one
of its output lanes becomes allocatable, and after cycle hooks and
``kill_packet``.  These tests pin the wake-up cycle for each of those
causes on hand-built two-packet scenarios, and compare whole congested
runs against a twin that never sleeps.
"""

import pytest

from repro.faults import CubeLinkFault, FaultPolicy, FaultSchedule, TreeUplinkFault
from repro.obs.probe import Probe
from repro.sim.run import build_engine, cube_config, tree_config


class RouteLog(Probe):
    """Every routing decision and delivery, and whether ``watch`` (a
    switch id) was asleep at the end of each cycle."""

    def __init__(self, watch: int = 0):
        self.watch = watch
        self.routed: list[tuple] = []
        self.delivered: dict[int, int] = {}
        self.injected: dict[int, object] = {}
        self.asleep_cycles: list[int] = []

    def bind(self, engine) -> None:
        self.engine = engine

    def on_packet_injected(self, cycle, packet):
        self.injected[packet.pid] = packet

    def on_header_routed(self, cycle, switch, in_lane, out_lane):
        self.routed.append((cycle, switch, in_lane.packet.pid, out_lane.port, out_lane.vc))

    def on_tail_delivered(self, cycle, packet):
        self.delivered[packet.pid] = cycle

    def on_cycle(self, cycle):
        if not self.engine._route_awake[self.watch]:
            self.asleep_cycles.append(cycle)

    def routed_at(self, switch: int, pid: int) -> int:
        (cycle,) = [c for c, s, p, _, _ in self.routed if s == switch and p == pid]
        return cycle


def two_level_tree(log: RouteLog):
    """2-ary 2-tree, one lane per port: nodes 0, 1 on leaf switch 0."""
    config = tree_config(k=2, n=2, vcs=1, load=0.0, seed=1, warmup_cycles=0, total_cycles=200)
    return build_engine(config, probe=log)


class TestWakeUpCycle:
    def test_routed_in_the_cycle_the_blocking_tail_drains(self):
        log = RouteLog(watch=0)
        engine = two_level_tree(log)
        engine.preload_packet(0, 1)  # pid 0: one hop, takes node 1's only ejection lane
        engine.preload_packet(2, 1)  # pid 1: over the root, stalls at switch 0 behind it
        engine.run()
        assert log.routed_at(0, 0) < log.routed_at(0, 1)
        assert log.routed_at(0, 1) == log.delivered[0]
        # ... and switch 0 slept through the wait instead of re-trying
        waited = range(log.asleep_cycles[0], log.delivered[0])
        assert len(waited) > 10
        assert log.asleep_cycles == list(waited)

    def test_routed_in_the_cycle_a_fault_is_repaired(self):
        log = RouteLog(watch=0)
        engine = two_level_tree(log)
        schedule = FaultSchedule()
        for up_port in (2, 3):  # both ways up from leaf switch 0
            schedule.add(TreeUplinkFault(0, up_port), fail_at=0, repair_at=40)
        schedule.install(engine, validate=False)
        engine.preload_packet(0, 3)
        engine.run()
        assert log.routed_at(0, 0) == 40
        assert log.asleep_cycles == list(range(1, 40))

    def test_routed_in_the_cycle_the_blocker_is_killed(self):
        log = RouteLog(watch=0)
        engine = two_level_tree(log)
        engine.preload_packet(0, 1)
        engine.preload_packet(2, 1)
        while engine.cycle < 20:
            engine.step()
        # between two steps, not from a cycle hook (and no run() entry
        # after it): kill_packet wakes the switches on its own
        engine.kill_packet(log.injected[0])
        while engine.cycle < 30:
            engine.step()
        assert log.injected[0].dropped == 20
        assert log.routed_at(0, 1) == 20
        assert log.asleep_cycles and log.asleep_cycles[-1] == 19


def congested_tree():
    return tree_config(k=4, n=2, vcs=1, load=0.9, seed=4, warmup_cycles=50, total_cycles=400)


def struck_cube():
    return cube_config(k=4, n=2, algorithm="duato", vcs=4, load=0.9, seed=6,
                       warmup_cycles=50, total_cycles=400)


def storm() -> FaultSchedule:
    schedule = FaultSchedule()
    schedule.add(CubeLinkFault(5, 0), 80, 200, policy=FaultPolicy.FAIL_STOP)
    schedule.add(CubeLinkFault(10, 1), 120, 260, policy=FaultPolicy.DRAIN)
    return schedule


@pytest.mark.parametrize("make_config, make_schedule", [(congested_tree, None), (struck_cube, storm)])
def test_congested_run_equals_its_never_sleeping_twin(make_config, make_schedule):
    def run(never_sleep: bool):
        log = RouteLog()
        engine = build_engine(make_config(), probe=log)
        if make_schedule is not None:
            make_schedule().install(engine)
        slept = 0
        while engine.cycle < engine.config.total_cycles:
            if never_sleep:
                engine._wake_routing()
            engine.step()
            slept += sum(not engine._route_awake[s] for s in engine.route_queue)
        engine.audit()
        return log.routed, engine.state_fingerprint()["root"], slept

    routed, root, slept = run(never_sleep=False)
    twin_routed, twin_root, _ = run(never_sleep=True)
    assert slept > 500  # the scenario does make switches sleep
    assert routed == twin_routed
    assert root == twin_root
