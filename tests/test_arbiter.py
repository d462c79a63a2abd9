"""The fair arbiter of a link direction (paper §4: "an arbiter picks one of
them according to a fair policy"): ``pick_lane`` of the link phase, round
robin or — under ``config.arbiter == "age"`` — oldest packet first.

Driven through ``link_phase`` over a real :class:`LinkDirection` of a small
engine, for the reference (``repro.sim.phases``) and, where it was built, the
kernel: twin engines must make the same grant and leave the same pointer.
"""

import random
import types

import pytest

import repro.sim.engine as engine_module
from repro.sim import phases as reference
from repro.sim.config import ARBITER_POLICIES
from repro.sim.packet import Packet
from repro.sim.run import build_engine

from .conftest import small_tree_config

IMPLEMENTATIONS = [reference] + ([engine_module.NATIVE_PHASES] if engine_module.NATIVE_PHASES else [])


class Channel:
    """One link direction of ``lanes`` lanes — the only one its engine's link
    phase walks — in one twin per implementation."""

    def __init__(self, lanes: int, arbiter: str = "round_robin", eject: bool = False):
        #: times the last grant told the probe the direction was blocked
        self.blocked = 0
        self.handlers = types.SimpleNamespace(
            on_direction_blocked=self.count_blocked,
            on_head_arrived=None, on_head_delivered=None, on_tail_delivered=None,
        )
        self.twins = []
        for phases in IMPLEMENTATIONS:
            engine = build_engine(small_tree_config(vcs=lanes, arbiter=arbiter))
            d = (engine._eject_dirs if eject else engine._fabric_dirs)[0]
            engine._fabric_dirs, engine._eject_dirs = ([], [d]) if eject else ([d], [])
            self.twins.append((phases, engine, d))

    def count_blocked(self, cycle, direction):
        self.blocked += 1

    def load(self, flits, credits=None, ages=None, size: int = 1000) -> None:
        """Lane ``i`` holds ``flits[i]`` flits of a fresh ``size``-flit packet
        created in cycle ``ages[i]`` and ``credits[i]`` credits (default: a
        full buffer); its sink is empty."""
        for _, _, d in self.twins:
            for i, lane in enumerate(d.lanes):
                lane.buffered = flits[i]
                lane.credits = lane.cap if credits is None else credits[i]
                lane.packet = Packet(i, 0, 1, size, ages[i] if ages else 0) if flits[i] else None
                lane.sink.packet = None
                lane.sink.received = 0
            d.nbusy = sum(1 for held in flits if held)

    def step(self, twin, cycle: int = 0) -> None:
        phases, engine, _ = twin
        phases.link_phase(engine, cycle, self.handlers, False)

    def grant(self, flits, credits=None, ages=None):
        """The lane whose flit crossed (``None``: no grant), alike on every twin."""
        self.load(flits, credits, ages)
        outcomes = set()
        for twin in self.twins:
            self.blocked = 0
            self.step(twin)
            d = twin[2]
            sent = [i for i, lane in enumerate(d.lanes) if lane.buffered != flits[i]]
            assert len(sent) <= 1  # one flit per direction per cycle
            outcomes.add((sent[0] if sent else None, d.rr, self.blocked))
        assert len(outcomes) == 1, outcomes
        return outcomes.pop()[0]

    @property
    def rr(self) -> int:
        return self.twins[0][2].rr

    @rr.setter
    def rr(self, pointer: int) -> None:
        for _, _, d in self.twins:
            d.rr = pointer


class TestRoundRobinPick:
    def test_picks_first_eligible_from_start(self):
        ch = Channel(4)
        ch.rr = 1
        assert ch.grant([1, 0, 1, 0]) == 2
        assert ch.rr == 3

    def test_wraps_around(self):
        ch = Channel(3)
        ch.rr = 2
        assert ch.grant([1, 0, 0]) == 0
        assert ch.rr == 1

    def test_none_eligible(self):
        # flits without a credit: no grant, pointer unmoved, the probe told
        ch = Channel(3)
        ch.rr = 1
        assert ch.grant([1, 1, 0], credits=[0, 0, 4]) is None
        assert ch.rr == 1 and ch.blocked == 1

    def test_empty(self):
        # an idle direction is not blocked: the arbiter is not even asked
        ch = Channel(3)
        ch.rr = 2
        assert ch.grant([0, 0, 0]) is None
        assert ch.rr == 2 and ch.blocked == 0

    def test_rotation_is_fair(self):
        ch = Channel(3)
        assert [ch.grant([1, 1, 1]) for _ in range(6)] == [0, 1, 2, 0, 1, 2]


class TestRoundRobinArbiter:
    def test_grants_rotate(self):
        # the ejection walk advances the pointer like the fabric one
        ch = Channel(3, eject=True)
        assert [ch.grant([1, 1, 1]) for _ in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_no_requests(self):
        ch = Channel(2)
        assert ch.grant([1, 1]) == 0
        assert ch.grant([0, 0]) is None
        assert ch.rr == 1

    def test_no_starvation(self):
        # lane 2 requests constantly, 0 intermittently; both get served
        ch = Channel(3)
        served = {0: 0, 2: 0}
        for i in range(20):
            g = ch.grant([int(i % 2 == 0), 0, 1])
            if g is not None:
                served[g] += 1
        assert served[0] > 0 and served[2] > 0

    def test_size_validation(self):
        # a pointer past the lanes is refused, not wrapped
        ch = Channel(2)
        ch.load([1, 1])
        ch.rr = 2
        for twin in ch.twins:
            with pytest.raises(IndexError):
                ch.step(twin)

    @pytest.mark.parametrize("seed", [3, 17, 91])
    def test_bounded_wait_property(self, seed):
        # the no-starvation guarantee, as a property over random request
        # patterns: a persistently-requesting lane is granted within
        # ``size`` grants of any other grant
        size = 6
        target = 2
        ch = Channel(size)
        rng = random.Random(seed)
        since_target = 0
        for _ in range(500):
            requests = [int(rng.random() < 0.5) for _ in range(size)]
            requests[target] = 1
            granted = ch.grant(requests)
            assert granted is not None  # the target always requests
            if granted == target:
                since_target = 0
            else:
                since_target += 1
                assert since_target < size


class TestOldestPick:
    def test_picks_smallest_age_among_eligible(self):
        ch = Channel(4, arbiter="age")
        # lane 2 is oldest but has no credit
        assert ch.grant([1, 1, 1, 1], credits=[4, 4, 0, 4], ages=[30, 10, 5, 20]) == 1

    def test_ties_break_on_lowest_index(self):
        ch = Channel(2, arbiter="age")
        assert ch.grant([1, 1], ages=[7, 7]) == 0

    def test_none_eligible(self):
        ch = Channel(2, arbiter="age")
        assert ch.grant([1, 1], credits=[0, 0], ages=[1, 2]) is None
        assert ch.blocked == 1


class TestAgeArbiter:
    def test_grants_oldest_requester(self):
        ch = Channel(4, arbiter="age")
        assert ch.grant([1, 1, 0, 1], ages=[40, 12, 1, 33]) == 1

    def test_ties_break_on_lowest_index(self):
        # priority follows the packets, not the ports: wherever the pointer is
        ch = Channel(3, arbiter="age")
        ch.rr = 2
        assert ch.grant([1, 1, 1], ages=[5, 5, 5]) == 0

    def test_no_requests(self):
        ch = Channel(2, arbiter="age")
        assert ch.grant([0, 0], ages=[1, 2]) is None
        assert ch.blocked == 0

    def test_validation(self):
        # a lane holding a flit of no packet has no age to go by
        ch = Channel(2, arbiter="age")
        ch.load([1, 1], ages=[3, 4])
        for twin in ch.twins:
            twin[2].lanes[0].packet = None
            with pytest.raises(AttributeError):
                ch.step(twin)

    def test_age_order_is_starvation_free(self):
        # churn: every round a fresh (younger) request appears, yet the
        # population drains strictly oldest-first, so the early packets
        # are never starved by the late arrivals
        ch = Channel(8, arbiter="age")
        ages = [None] * 8
        next_age = 0
        for slot in range(4):  # pre-fill half the lanes
            ages[slot] = next_age
            next_age += 3
        drained = []
        rng = random.Random(5)
        for _ in range(30):
            free = [i for i, a in enumerate(ages) if a is None]
            if free:  # a younger packet joins at a random free lane
                ages[rng.choice(free)] = next_age
                next_age += 3
            requests = [int(a is not None) for a in ages]
            granted = ch.grant(requests, ages=[a or 0 for a in ages])
            drained.append(ages[granted])
            ages[granted] = None
        assert drained == sorted(drained)


class TestArbiterConfigKnob:
    """``config.arbiter`` selects the policy engine-wide."""

    def test_policies_registry_matches_config_validation(self):
        from repro.errors import ConfigurationError

        assert set(ARBITER_POLICIES) == {"round_robin", "age"}
        for policy in ARBITER_POLICIES:
            small_tree_config(arbiter=policy)  # validates
        with pytest.raises(ConfigurationError, match="arbiter"):
            small_tree_config(arbiter="lottery")

    def test_age_arbitration_changes_the_run(self):
        from repro.sim.run import simulate

        rr = simulate(small_tree_config(load=0.8))
        age = simulate(small_tree_config(load=0.8, arbiter="age"))
        assert age.delivered_packets > 0
        # the policy is live: under contention the grant order differs
        assert (
            rr.latency_sum != age.latency_sum
            or rr.delivered_packets != age.delivered_packets
        )
