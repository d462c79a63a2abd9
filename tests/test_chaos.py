"""Chaos-campaign tests: the exactly-once invariant under randomized
fail-stop storms across every paper routing configuration, the
strike -> repair lane-state round trip (including deferred drains and
halting mid-drain), and the campaign/scorecard plumbing."""

import random

import pytest

from repro.experiments.chaos import (
    ChaosSeries,
    StormSpec,
    _draw_storm_schedule,
    chaos_campaign,
    degradation_rows,
)
from repro.faults import CubeLinkFault, FaultPolicy, FaultSchedule, TreeUplinkFault
from repro.faults.schedule import _ActiveFault
from repro.obs.report import partition_results, reliability_curves, write_scorecard
from repro.profiles import FAST
from repro.sim.packet import FAULT_SENTINEL, Packet
from repro.sim.run import build_engine, tree_config
from repro.traffic.transport import ReliableTransport, TransportConfig

from .test_property_forensics import FIVE_CONFIGS, _build

#: randomized-storm draws for the property tests
STORM_SEEDS = [1, 9, 23]


def _all_lanes(engine):
    for bank in (engine.in_lanes, engine.out_lanes):
        for switch_ports in bank:
            for port_lanes in switch_ports:
                yield from port_lanes


def _install_storm(engine, spec, storm_seed):
    """A fail-stop storm appropriate to the routing configuration.

    Adaptive configurations take the campaign's own randomized
    lane-level draw; deterministic DOR has no lane redundancy to lose,
    so its storm is a transient full-channel death (killed occupants,
    repair before the watchdog) installed with validation off — the
    only fail-stop shape DOR can survive.
    """
    if spec["network"] == "cube" and spec["algorithm"] == "dor":
        rng = random.Random(storm_seed)
        schedule = FaultSchedule()
        node = rng.randrange(engine.topology.num_nodes)
        fail_at = rng.randrange(150, 400)
        schedule.add(
            CubeLinkFault(node, rng.randrange(2), full_channel=True),
            fail_at=fail_at,
            repair_at=fail_at + 150,
            policy=FaultPolicy.FAIL_STOP,
        )
        schedule.install(engine, validate=False)
        return schedule
    storm = StormSpec(fault_rate=0.25, storm_seed=storm_seed)
    schedule = _draw_storm_schedule(engine, storm)
    assert schedule is not None, "a 25% storm must draw at least one fault"
    schedule.install(engine)
    return schedule


class TestExactlyOnceUnderStorms:
    """The acceptance invariant: under randomized fail-stop storms, on
    all five paper routing configurations, every registered message is
    ACKed exactly once or recorded given-up, the source-side ledger
    balances at halt, and no lane references a killed worm."""

    @pytest.mark.parametrize("storm_seed", STORM_SEEDS)
    @pytest.mark.parametrize("spec", FIVE_CONFIGS)
    def test_invariant_at_halt(self, spec, storm_seed):
        engine = build_engine(_build(spec, load=0.6))
        transport = ReliableTransport(
            TransportConfig(base_timeout=96, max_retries=3)
        ).install(engine)
        _install_storm(engine, spec, storm_seed)
        engine.run()
        engine.audit()  # flit conservation survives the kills

        s = transport.summary()
        assert s["messages"] > 0
        # delivered exactly once or given up; the rest still in protocol
        assert s["messages"] == s["acked"] + s["gave_up"] + s["pending"]
        assert s["duplicates"] >= 0 and s["acked"] >= 0
        # a killed worm must be flushed network-wide: no lane may still
        # reference a packet stamped dropped
        for lane in _all_lanes(engine):
            pkt = lane.packet
            if pkt is None or pkt is FAULT_SENTINEL:
                continue
            assert pkt.dropped < 0, f"lane {lane!r} references killed worm {pkt!r}"
        # engine totals close: injected = delivered + dropped + in flight
        assert engine.in_flight_packets() >= 0
        assert (
            engine.injected_packets_total
            == engine.delivered_packets_total
            + engine.dropped_packets_total
            + engine.in_flight_packets()
        )

    def test_storms_actually_kill_worms(self):
        # sanity for the parametrized invariant: at this rate and load
        # the tree storm destroys in-flight worms and the transport
        # observes the kills
        engine = build_engine(_build(dict(network="tree", vcs=2), load=0.8))
        transport = ReliableTransport().install(engine)
        _install_storm(engine, dict(network="tree", vcs=2), storm_seed=9)
        result = engine.run()
        assert result.dropped_packets + transport.drops_seen > 0
        assert transport.retransmissions > 0


class TestStrikeRepairRoundTrip:
    """Property test of ``_ActiveFault``: strike -> (drain) -> repair
    returns every lane to its pre-fault reachable state, for randomized
    occupancy patterns and drain orders."""

    def _lanes(self):
        engine = build_engine(
            tree_config(k=2, n=3, vcs=4, load=0.0, warmup_cycles=0,
                        total_cycles=400)
        )
        return engine, engine.out_lanes[0][2]

    @pytest.mark.parametrize("seed", STORM_SEEDS)
    def test_random_occupancy_drain_order_roundtrip(self, seed):
        rng = random.Random(seed)
        engine, lanes = self._lanes()
        occupied = [lane for lane in lanes if rng.random() < 0.5]
        for i, lane in enumerate(occupied):
            lane.packet = Packet(pid=i + 1, src=0, dst=5, size=4, created=0)
        active = _ActiveFault(lanes, FaultPolicy.DRAIN)

        active.strike(engine)
        for lane in lanes:
            if lane in occupied:  # busy lanes deferred, never clobbered
                assert lane.packet is not FAULT_SENTINEL
            else:
                assert lane.packet is FAULT_SENTINEL
        # drain the occupants one at a time in random order; each
        # re-strike (the re-armed hook) seizes exactly the drained lanes
        rng.shuffle(occupied)
        for lane in occupied:
            lane.packet = None
            active.strike(engine)
            assert lane.packet is FAULT_SENTINEL
        assert active.pending == []

        active.repair(engine)
        assert all(lane.packet is None for lane in lanes)
        # a stray re-armed strike after repair must stay a no-op
        active.strike(engine)
        assert all(lane.packet is None for lane in lanes)

    def test_fail_stop_roundtrip_skips_the_drain(self):
        engine, lanes = self._lanes()
        worm = Packet(pid=1, src=0, dst=5, size=4, created=0)
        lanes[0].packet = worm
        active = _ActiveFault(lanes, FaultPolicy.FAIL_STOP)
        active.strike(engine)
        # no deferral: the occupant is killed and every lane seized now
        assert worm.dropped >= 0
        assert all(lane.packet is FAULT_SENTINEL for lane in lanes)
        assert active.pending == []
        active.repair(engine)
        assert all(lane.packet is None for lane in lanes)

    def test_halt_mid_drain_leaves_consistent_state(self):
        # a worm pinned on one lane for the whole run: the DRAIN strike
        # re-arms every cycle to the end, the engine halts with the
        # seizure still pending, and the worm is never clobbered
        engine, lanes = self._lanes()
        worm = Packet(pid=1, src=0, dst=5, size=4, created=0)
        lanes[0].packet = worm
        schedule = FaultSchedule().add(TreeUplinkFault(0, 2), fail_at=50)
        schedule.install(engine)
        active = engine._cycle_hooks[50][0].__self__
        engine.run()
        assert lanes[0].packet is worm
        assert all(lane.packet is FAULT_SENTINEL for lane in lanes[1:])
        # the post-halt repair still lifts the sentinels and cancels the
        # pending seizure, so a resumed engine would see healthy lanes
        assert active.pending == [lanes[0]]
        active.repair(engine)
        lanes[0].packet = None
        active.strike(engine)
        assert all(lane.packet is None for lane in lanes)


class TestChaosCampaign:
    def _campaign(self, **overrides):
        kwargs = dict(
            fault_rates=(0.0, 0.2),
            loads=[0.3, 0.6],
            profile=FAST,
            storm_seed=9,
        )
        kwargs.update(overrides)
        return chaos_campaign(tree_config(k=2, n=2, seed=11, **FAST.windows), **kwargs)

    def test_one_series_per_rate_with_storm_documents(self):
        campaign = self._campaign()
        assert len(campaign) == 2
        for cs in campaign:
            assert isinstance(cs, ChaosSeries)
            assert len(cs.results) == 2
            for result in cs.results:
                rel = result.telemetry.reliability
                assert rel["storm"]["fault_rate"] == cs.storm.fault_rate
                assert rel["messages"] == (
                    rel["acked"] + rel["gave_up"] + rel["pending"]
                )
        baseline, stormy = campaign
        assert baseline.storm.fault_rate == 0.0
        assert all(
            r.telemetry.reliability["storm"]["faults"] == 0
            for r in baseline.results
        )
        assert all(
            r.telemetry.reliability["storm"]["faults"] > 0
            for r in stormy.results
        )

    def test_degradation_rows_shape(self):
        rows = degradation_rows(self._campaign())
        assert [row["fault_rate"] for row in rows] == [0.0, 0.2]
        for row in rows:
            assert set(row) == {
                "fault_rate", "repair_cycles", "goodput_fraction",
                "retransmit_overhead", "dropped", "given_up", "points",
                "failures",
            }
            assert row["points"] == 2 and row["failures"] == 0

    def test_ledger_records_filed_as_chaos_without_dedup(self, tmp_path):
        from repro.obs.ledger import Ledger

        ledger = Ledger(tmp_path / "chaos.jsonl")
        self._campaign(ledger=ledger)
        records = list(ledger.records())
        # grid points share config digest + seed; dedup off keeps all 4
        assert len(records) == 4
        assert all(rec["kind"] == "chaos" for rec in records)

    def test_bad_storm_spec_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="fault_rate"):
            StormSpec(fault_rate=1.0)
        with pytest.raises(ConfigurationError, match="repair_cycles"):
            StormSpec(fault_rate=0.1, repair_cycles=-1)


class TestScorecardReliabilityPanel:
    def _chaos_results(self):
        campaign = chaos_campaign(
            tree_config(k=2, n=2, seed=11, **FAST.windows), fault_rates=(0.0, 0.2),
            loads=[0.4], profile=FAST, storm_seed=9,
        )
        return [r for cs in campaign for r in cs.results]

    def test_partition_splits_chaos_from_plain(self):
        from repro.sim.run import simulate

        chaos = self._chaos_results()
        plain_run = simulate(_build(dict(network="tree", vcs=2), load=0.3))
        plain, storms, overload = partition_results(chaos + [plain_run])
        assert plain == [plain_run]
        assert storms == chaos
        assert overload == []

    def test_curves_are_rate_sorted_and_load_averaged(self):
        curves = reliability_curves(self._chaos_results())
        (curve,) = curves
        assert "tree" in curve.label
        assert [p[0] for p in curve.points] == [0.0, 0.2]
        rate0, rate20 = curve.points
        assert rate0[4] == 0  # no drops without faults
        assert rate20[4] > 0

    def test_scorecard_renders_reliability_panel(self, tmp_path):
        out = tmp_path / "scorecard.html"
        figures = write_scorecard(self._chaos_results(), out)
        assert figures == []  # all-chaos ledger: no CNF figures
        html = out.read_text()
        assert "Reliability under fail-stop fault storms" in html
        assert "end-to-end goodput" in html
        assert "retransmit overhead" in html
