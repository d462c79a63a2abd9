"""Closed-loop congestion control tests: AIMD window arithmetic and the
injection gate (including the re-held retransmission path), hot-link
marking, campaign/ledger/scorecard plumbing, zero-delivery guards under a
kill-every-packet storm, and the graceful-degradation acceptance point on
the paper's 256-node tree."""

import json

import pytest

from repro.errors import AnalysisError, ConfigurationError
from repro.experiments.congestion import (
    DEFAULT_CONTROL,
    FALLBACK_SATURATION,
    OverloadSeries,
    OverloadSpec,
    collapse_rows,
    congestion_campaign,
    overload_loads,
    overload_recipe,
    saturation_reference,
)
from repro.metrics.io import run_result_to_dict
from repro.obs.ledger import ledger_record
from repro.obs.probe import Probe
from repro.obs.report import (
    congestion_curves,
    partition_results,
    write_scorecard,
)
from repro.profiles import FAST
from repro.sim.results import mean_goodput_fraction, total_given_up, worst_p99
from repro.sim.run import build_engine, simulate, tree_config
from repro.traffic.congestion import (
    CongestionConfig,
    CongestionControl,
    CongestionMarker,
    install_congestion,
    simulate_congested,
)
from repro.traffic.transport import (
    ReliableTransport,
    TransportConfig,
    attach_reliability,
)

from .conftest import small_tree_config


def _control(**overrides) -> CongestionControl:
    config = CongestionConfig(**overrides)
    return CongestionControl(config, CongestionMarker(config))


class TestCongestionConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(window_cycles=0),
            dict(hot_fraction=0.0),
            dict(hot_fraction=1.5),
            dict(occupancy_fraction=0.0),
            dict(min_window=0.5),
            dict(initial_window=0.5),
            dict(initial_window=100.0),
            dict(additive_increase=0.0),
            dict(multiplicative_decrease=0.0),
            dict(multiplicative_decrease=1.0),
            dict(cooldown=-1),
            dict(pump_scan=0),
        ],
    )
    def test_invalid_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            CongestionConfig(**overrides)

    def test_defaults_valid(self):
        CongestionConfig()
        DEFAULT_CONTROL  # the tuned campaign default must validate too


class TestCongestionControl:
    """Pure AIMD arithmetic: no engine, one synthetic flow."""

    def test_gate_admits_integer_window_then_holds(self):
        control = _control(initial_window=2.0)
        assert control.try_release(0, 5)
        assert control.try_release(0, 5)
        assert not control.try_release(0, 5)  # window full
        assert control.try_release(0, 6)  # other destinations unaffected
        assert control.released == 3 and control.held == 1

    def test_clean_ack_frees_slot_and_grows_window(self):
        control = _control(initial_window=2.0, additive_increase=1.0)
        assert control.try_release(0, 5) and control.try_release(0, 5)
        control.on_ack(cycle=10, src=0, dst=5, marked=False)
        # slot freed -> admits again; cwnd grew 2 -> 2.5 (ai / cwnd)
        assert control.try_release(0, 5)
        state = control._state(0, 5)
        assert state[0] == pytest.approx(2.5)
        assert control.clean_acks == 1

    def test_growth_caps_at_max_window(self):
        control = _control(initial_window=3.0, max_window=3.0)
        for cycle in range(20):
            control.try_release(0, 5)
            control.on_ack(cycle, 0, 5, marked=False)
        assert control._state(0, 5)[0] == 3.0
        assert control.max_cwnd_seen == 3.0

    def test_marked_ack_decreases_multiplicatively(self):
        control = _control(initial_window=8.0, multiplicative_decrease=0.5)
        control.try_release(0, 5)
        control.on_ack(cycle=100, src=0, dst=5, marked=True)
        assert control._state(0, 5)[0] == 4.0
        assert control.marked_acks == 1 and control.decreases == 1

    def test_decrease_floors_at_min_window(self):
        control = _control(
            initial_window=2.0, min_window=2.0, multiplicative_decrease=0.5,
            cooldown=0,
        )
        for cycle in (100, 300, 500):
            control.on_timeout(cycle, 0, 5)
        assert control._state(0, 5)[0] == 2.0
        assert control.min_cwnd_seen == 2.0

    def test_cooldown_coalesces_one_congestion_event(self):
        control = _control(
            initial_window=8.0, multiplicative_decrease=0.5, cooldown=64,
        )
        control.on_timeout(100, 0, 5)
        control.on_timeout(120, 0, 5)  # inside the cooldown: ignored
        assert control._state(0, 5)[0] == 4.0
        control.on_timeout(100 + 64, 0, 5)  # cooldown over: counts
        assert control._state(0, 5)[0] == 2.0
        assert control.decreases == 2

    def test_requeue_releases_slot_for_the_retry(self):
        # the retransmission path: a timed-out message frees its slot
        # (on_requeue) and must re-claim it through the same gate
        control = _control(initial_window=1.0)
        assert control.try_release(0, 5)
        assert not control.try_release(0, 5)
        control.on_requeue(0, 5)
        assert control.try_release(0, 5)  # the retry re-claims the slot

    def test_unclaimed_ack_does_not_double_free(self):
        # ACK of a message that already released its slot (it timed out
        # and was re-held) must not decrement in-flight a second time
        control = _control(initial_window=2.0)
        assert control.try_release(0, 5) and control.try_release(0, 5)
        control.on_requeue(0, 5)  # first slot freed by the timeout path
        control.on_ack(10, 0, 5, marked=False, claimed=False)
        state = control._state(0, 5)
        assert state[1] == 1  # one slot still claimed, not zero

    def test_give_up_releases_slot(self):
        control = _control(initial_window=1.0)
        assert control.try_release(0, 5)
        control.on_give_up(0, 5)
        assert control.try_release(0, 5)

    def test_summary_document_shape(self):
        control = _control()
        control.try_release(0, 5)
        doc = control.summary()
        assert doc["flows"] == 1 and doc["released"] == 1
        assert doc["control"]["initial_window"] == 2.0
        assert set(doc["marking"]) == {
            "packets_marked", "windows", "hot_link_windows",
            "peak_hot_links", "unconsumed_marks",
        }


class TestClosedLoopRuns:
    """The full loop on a small overloaded tree."""

    def _run(self, load=0.9, **control_overrides):
        knobs = dict(window_cycles=32, initial_window=2.0)
        knobs.update(control_overrides)
        control = CongestionConfig(**knobs)
        return simulate_congested(
            small_tree_config(load=load, total_cycles=800),
            TransportConfig(base_timeout=64, max_retries=3),
            control,
        )

    def test_accounting_invariants(self):
        result = self._run()
        rel = result.telemetry.reliability
        assert rel["messages"] == rel["acked"] + rel["gave_up"] + rel["pending"]
        loop = rel["congestion"]
        assert loop["released"] > 0
        assert loop["clean_acks"] + loop["marked_acks"] == rel["acked"]
        assert loop["min_cwnd"] <= loop["max_cwnd"]
        assert loop["marking"]["windows"] > 0
        assert 0.0 <= result.goodput_fraction <= 1.0

    def test_overload_marks_packets_and_binds_windows(self):
        # at 0.9 offered on a 2-ary 2-tree the fabric is far past
        # saturation: links go hot, packets get marked, windows shrink
        result = self._run(hot_fraction=0.3)
        loop = result.telemetry.reliability["congestion"]
        assert loop["marking"]["packets_marked"] > 0
        assert loop["marked_acks"] > 0
        assert loop["decreases"] > 0
        assert loop["held"] > 0  # the gate actually held something back
        assert loop["min_cwnd"] < 2.0

    def test_window_bounds_in_flight_per_flow(self):
        # the gate invariant, sampled every cycle: with the window
        # pinned at 1, no (src, dst) flow ever has more than one
        # released-but-unresolved message — including retransmissions,
        # which must re-claim their slot through the same gate
        config = small_tree_config(load=0.9, total_cycles=800)
        engine = build_engine(config)
        transport = install_congestion(
            engine,
            TransportConfig(base_timeout=64, max_retries=3),
            CongestionConfig(
                window_cycles=32, initial_window=1.0, max_window=1.0
            ),
        )
        violations = []

        def check(eng):
            for key, state in transport.congestion._windows.items():
                if state[1] > 1:
                    violations.append((eng.cycle, key, state[1]))
            if eng.cycle + 1 < config.total_cycles:
                eng.add_cycle_hook(eng.cycle + 1, check)

        engine.add_cycle_hook(1, check)
        engine.run()
        assert violations == []
        assert transport.summary()["congestion"]["held"] > 0

    def test_double_install_rejected(self):
        engine = build_engine(small_tree_config())
        install_congestion(engine)
        with pytest.raises(ConfigurationError):
            install_congestion(engine)


class _LiveTracker(Probe):
    """Records packets currently in the network, for the reaper hook."""

    def __init__(self):
        self.live = {}

    def on_packet_injected(self, cycle, packet):
        self.live[packet.pid] = packet

    def on_tail_delivered(self, cycle, packet):
        self.live.pop(packet.pid, None)

    def on_packet_dropped(self, cycle, packet, reason):
        self.live.pop(packet.pid, None)


def _kill_everything(engine, tracker):
    """Re-arming reaper: every cycle, kill every in-flight worm."""

    def reaper(eng):
        for pkt in list(tracker.live.values()):
            eng.kill_packet(pkt, reason="reaper")
        if eng.cycle + 1 < eng.config.total_cycles:
            eng.add_cycle_hook(eng.cycle + 1, reaper)

    engine.add_cycle_hook(1, reaper)


class TestZeroDeliveryGuards:
    """Kill-every-packet storm: nothing is ever delivered, and every
    summary/serialization path must degrade to zeros instead of
    dividing by them."""

    def _storm(self, closed_loop: bool):
        tracker = _LiveTracker()
        config = small_tree_config(
            load=0.4, warmup_cycles=50, total_cycles=400
        )
        engine = build_engine(config, probe=tracker)
        tcfg = TransportConfig(base_timeout=16, jitter=0, max_retries=0)
        if closed_loop:
            transport = install_congestion(
                engine, tcfg, CongestionConfig(window_cycles=16)
            )
        else:
            transport = ReliableTransport(tcfg).install(engine)
        _kill_everything(engine, tracker)
        result = engine.run()
        engine.audit()
        return attach_reliability(result, transport), transport

    @pytest.mark.parametrize("closed_loop", [False, True])
    def test_total_loss_degrades_to_zeros(self, closed_loop):
        result, transport = self._storm(closed_loop)
        assert result.dropped_packets > 0  # the reaper really struck
        assert result.delivered_packets == 0
        assert result.goodput_fraction == 0.0
        assert result.retransmit_overhead == 0.0  # guarded ratio
        with pytest.raises(AnalysisError):
            result.avg_latency_cycles
        # human digest and serialization survive the empty sample set
        assert "latency=n/a" in result.summary()
        doc = run_result_to_dict(result)
        assert doc["result"]["delivered_packets"] == 0

        s = transport.summary()
        assert s["messages"] > 0 and s["acked"] == 0
        assert s["acked_ratio"] == 0.0
        assert s["gave_up"] > 0 and s["give_up_ratio"] > 0.0
        assert s["messages"] == s["acked"] + s["gave_up"] + s["pending"]

    def test_give_ups_surface_in_the_ledger_record(self):
        result, _ = self._storm(closed_loop=False)
        record = ledger_record(result, kind="chaos")
        assert record["given_up"] == result.given_up_packets > 0
        json.dumps(record)  # the record must stay JSONL-serializable

    def test_closed_loop_storm_leaks_no_marks_or_slots(self):
        result, transport = self._storm(closed_loop=True)
        loop = transport.summary()["congestion"]
        # drops discard their marks; give-ups free their window slots
        assert loop["marking"]["unconsumed_marks"] == 0
        claimed = sum(s[1] for s in transport.congestion._windows.values())
        assert claimed == 0


class TestOverloadCampaign:
    def _campaign(self, **overrides):
        kwargs = dict(
            loads=[0.4, 0.9],
            profile=FAST,
            transport=TransportConfig(base_timeout=32, max_retries=2),
        )
        kwargs.update(overrides)
        return congestion_campaign(
            tree_config(k=2, n=2, vcs=2, seed=11, **FAST.windows), **kwargs
        )

    def test_helpers(self):
        assert overload_loads(0.6, points=5) == [0.3, 0.525, 0.75, 0.975, 1.2]
        assert overload_loads(0.6, points=1, max_factor=2.0) == [1.2]
        # unknown shapes fall back instead of crashing the campaign
        assert (
            saturation_reference(tree_config(k=2, n=2, vcs=2))
            == FALLBACK_SATURATION
        )

    def test_modes_and_overload_documents(self):
        campaign = self._campaign()
        assert [series.spec.mode for series in campaign] == ["open", "closed"]
        for series in campaign:
            assert isinstance(series, OverloadSeries)
            assert len(series.results) == 2
            for result in series.results:
                rel = result.telemetry.reliability
                doc = rel["overload"]
                assert doc["mode"] == series.spec.mode
                assert doc["arbiter"] == "round_robin"
                assert doc["saturation"] == series.spec.saturation
                assert doc["factor"] == pytest.approx(
                    result.config.load / series.spec.saturation
                )
                assert result.config.collect_latencies  # forced for p99
                assert ("congestion" in rel) == series.spec.closed_loop

    def test_series_aggregates(self):
        open_series, closed_series = self._campaign()
        for series in (open_series, closed_series):
            past = [r for r in series.results if r.config.load > series.spec.saturation]
            assert 0.0 < mean_goodput_fraction(past) <= 1.0
            assert worst_p99(past) > 0
            assert total_given_up(series.results) >= 0

    def test_collapse_rows_shape(self):
        rows = collapse_rows(self._campaign())
        assert len(rows) == 4
        for row in rows:
            assert set(row) == {
                "mode", "arbiter", "load", "factor", "goodput_fraction",
                "p99_latency", "retransmit_overhead", "given_up",
            }

    def test_ledger_records_filed_as_congestion_without_dedup(self, tmp_path):
        from repro.obs.ledger import Ledger

        ledger = Ledger(tmp_path / "congestion.jsonl")
        self._campaign(ledger=ledger)
        records = list(ledger.records())
        # open and closed sweeps share config digest + seed; dedup off
        assert len(records) == 4
        assert all(rec["kind"] == "congestion" for rec in records)


class TestScorecardCongestionPanel:
    def _overload_results(self):
        campaign = congestion_campaign(
            tree_config(k=2, n=2, vcs=2, seed=11, **FAST.windows),
            loads=[0.4, 0.9], profile=FAST,
            transport=TransportConfig(base_timeout=32, max_retries=2),
        )
        return [r for series in campaign for r in series.results]

    def test_partition_three_ways(self):
        overload = self._overload_results()
        plain_run = simulate(small_tree_config(load=0.3))
        plain, chaos, congestion = partition_results([plain_run] + overload)
        assert plain == [plain_run]
        assert chaos == []
        assert congestion == overload

    def test_curves_group_by_mode(self):
        curves = congestion_curves(self._overload_results())
        assert sorted(c.mode for c in curves) == ["closed", "open"]
        for curve in curves:
            assert "tree" in curve.label and curve.mode in curve.label
            assert [p[0] for p in curve.points] == sorted(
                p[0] for p in curve.points
            )
            for _factor, goodput, p99, given_up in curve.points:
                assert 0.0 <= goodput <= 1.0
                assert p99 is None or p99 > 0
                assert given_up >= 0

    def test_scorecard_renders_collapse_panel(self, tmp_path):
        out = tmp_path / "scorecard.html"
        figures = write_scorecard(self._overload_results(), out)
        assert figures == []  # all-overload ledger: no CNF figures
        html = out.read_text()
        assert "Congestion collapse past saturation" in html
        assert "open loop" in html and "closed loop" in html
        assert "saturation" in html


#: the acceptance operating point: the paper's 256-node 4-ary 4-tree
#: (Fig. 5, transpose, 4 vc, saturation 0.78) driven at 1.5x saturation
#: with a naive fixed-timer transport — the classic collapse regime
#: (no exponential backoff, timer below the congested round trip, so
#: the open loop wastes capacity on spurious retransmissions)
ACCEPTANCE_SATURATION = 0.78
ACCEPTANCE_TRANSPORT = TransportConfig(
    base_timeout=220, backoff=1.0, jitter=4, max_retries=8
)


def _acceptance_config():
    return tree_config(
        k=4, n=4, vcs=4, pattern="transpose",
        load=round(ACCEPTANCE_SATURATION * 1.5, 9),
        seed=29, warmup_cycles=250, total_cycles=1450,
    )


@pytest.mark.slow
class TestGracefulDegradationAcceptance:
    """The PR's acceptance criterion: at 1.5x saturation on a paper-scale
    network, the closed loop sustains strictly higher goodput AND lower
    p99 latency than the open loop (Pareto win, not a trade)."""

    def test_closed_loop_dominates_open_loop_past_saturation(self):
        config = _acceptance_config()
        open_spec = OverloadSpec(
            closed_loop=False,
            saturation=ACCEPTANCE_SATURATION,
            transport=ACCEPTANCE_TRANSPORT,
        )
        closed_spec = OverloadSpec(
            closed_loop=True,
            saturation=ACCEPTANCE_SATURATION,
            transport=ACCEPTANCE_TRANSPORT,
            control=DEFAULT_CONTROL,
        )
        open_run = simulate(*overload_recipe(config, open_spec))
        closed_run = simulate(*overload_recipe(config, closed_spec))

        assert closed_run.goodput_fraction > open_run.goodput_fraction
        open_p99 = open_run.latency_percentiles()["p99"]
        closed_p99 = closed_run.latency_percentiles()["p99"]
        assert closed_p99 < open_p99
        # the mechanism: window gating recovers the capacity the open
        # loop burns on spurious retransmissions into a congested fabric
        assert (
            closed_run.retransmitted_packets < open_run.retransmitted_packets
        )
        assert open_run.telemetry.reliability["overload"]["factor"] == 1.5
