"""Congestion-forensics tier: attribution, wait-for sampling, hotspots,
heatmaps, the analyze CLI and the 0-cycle guards (repro.obs.forensics,
repro.obs.heatmap)."""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.errors import AnalysisError
from repro.metrics.io import run_result_from_dict, run_result_to_dict
from repro.obs.forensics import (
    COMPONENTS,
    ForensicsProbe,
    LatencyAttributionProbe,
    StreamingHistogram,
    Forensics,
    describe_forensics,
    hotspots,
)
from repro.obs.heatmap import (
    hotspot_heatmap_svg,
    latency_breakdown_svg,
    standalone_svg,
)
from repro.obs.ledger import Ledger
from repro.obs.telemetry import RunTelemetry
from repro.sim.results import RunResult
from repro.sim.run import build_engine, simulate, simulate_post_mortem, tree_config
from repro.workloads import Replay, alltoall_trace, drained

from .conftest import small_cube_config, small_tree_config
from .test_sweep_resilient import ring_config


class TestStreamingHistogram:
    def test_empty(self):
        h = StreamingHistogram()
        assert h.count == 0 and h.mean == 0.0
        assert h.quantile(0.5) == 0
        assert h.to_dict()["p99"] == 0

    def test_exact_aggregates(self):
        h = StreamingHistogram()
        for v in (0, 1, 2, 7, 100):
            h.add(v)
        assert h.count == 5
        assert h.total == 110
        assert h.min == 0 and h.max == 100
        assert h.mean == 22.0

    def test_quantiles_bracket_the_data(self):
        h = StreamingHistogram()
        values = list(range(1, 201))
        for v in values:
            h.add(v)
        # log2 buckets over-estimate by < 2x and never exceed the max
        assert 100 <= h.quantile(0.50) < 200
        assert h.quantile(0.99) <= h.max == 200
        assert h.quantile(0.50) <= h.quantile(0.95) <= h.quantile(0.99)

    def test_zero_bucket_is_exact(self):
        h = StreamingHistogram()
        for _ in range(10):
            h.add(0)
        h.add(5)
        assert h.quantile(0.5) == 0

    def test_to_dict_round_trips_json(self):
        h = StreamingHistogram()
        h.add(3)
        doc = json.loads(json.dumps(h.to_dict()))
        assert doc["count"] == 1 and doc["max"] == 3


class TestLatencyAttribution:
    def test_uncontended_packet_is_pure_transfer(self):
        # one preloaded packet on an otherwise idle network: no stall, no
        # blocking, latency == 3 cycles/hop + tail serialization
        probe = LatencyAttributionProbe(include_warmup=True, keep_packets=4)
        engine = build_engine(
            small_tree_config(load=0.0, warmup_cycles=0), probe=probe
        )
        engine.preload_packet(0, 3)
        engine.run()
        (rec,) = probe.packets
        assert rec.check()
        assert rec.routing_stall == 0
        assert rec.blocked == 0
        assert rec.network_latency == rec.transfer == 3 * rec.hops + rec.size - 1

    def test_invariant_holds_under_contention(self):
        probe = LatencyAttributionProbe(include_warmup=True, keep_packets=10_000)
        engine = build_engine(small_tree_config(load=0.8), probe=probe)
        engine.run()
        assert probe.finished > 0
        assert probe.invariant_violations == 0
        for rec in probe.packets:
            assert rec.check()
            assert (
                rec.routing_stall + rec.blocked + rec.transfer
                == rec.network_latency
            )

    def test_warmup_packets_excluded_by_default(self):
        cfg = small_tree_config(load=0.5)
        all_probe = LatencyAttributionProbe(include_warmup=True)
        build_engine(cfg, probe=all_probe).run()
        window_probe = LatencyAttributionProbe()
        build_engine(cfg, probe=window_probe).run()
        assert window_probe.finished < all_probe.finished

    def test_shares_sum_to_one(self):
        probe = LatencyAttributionProbe()
        build_engine(small_cube_config(load=0.5), probe=probe).run()
        doc = probe.summary()
        assert doc["packets"] > 0
        assert sum(doc["share"].values()) == pytest.approx(1.0)
        assert set(doc["components"]) == set(COMPONENTS) | {"network_latency"}


class TestWaitForSampler:
    def test_idle_network_has_no_waiters(self):
        _, engine, deadlock = simulate_post_mortem(
            small_tree_config(load=0.0, total_cycles=500), [Forensics(100)]
        )
        assert deadlock is None
        wf = engine.find_probe(ForensicsProbe).waitfor
        assert wf.samples_taken > 0
        assert all(s.waiting == 0 and s.edges == 0 for s in wf.samples)
        assert wf.cycles_detected == 0 and wf.precursor is None

    def test_contended_network_records_chains(self):
        _, engine, _ = simulate_post_mortem(small_cube_config(load=0.9), [Forensics(50)])
        wf = engine.find_probe(ForensicsProbe).waitfor.summary()
        assert wf["max_waiting"] > 0
        assert wf["max_depth"] >= 2
        assert wf["worst_root"] is not None
        assert {"switch", "port", "vc", "waiters"} <= set(wf["worst_root"])


class TestHotspots:
    def test_covers_every_direction(self):
        result, engine, _ = simulate_post_mortem(small_cube_config(load=0.5), [Forensics()])
        doc = hotspots(engine)
        assert doc == result.telemetry.forensics["hotspots"]
        assert len(doc["links"]) == len(engine.dirs)
        assert doc["total_flits"] > 0
        assert all(r["blocked_cycles"] >= 0 for r in doc["links"])
        # top list is sorted and only holds actually-blocked links
        tops = [r["blocked_cycles"] for r in doc["top"]]
        assert tops == sorted(tops, reverse=True)
        assert all(t > 0 for t in tops)

    def test_the_window_ends_where_a_drain_stopped(self):
        result = simulate(
            drained(tree_config(k=2, n=3, vcs=2), 100_000),
            [Replay(alltoall_trace(8, flits=8)), Forensics()],
        )
        assert result.telemetry.cycles == 80
        assert result.telemetry.forensics["hotspots"]["measured_cycles"] == 80

    @pytest.mark.parametrize("warmup, window", [(100, 565), (1000, 665)])
    def test_the_window_ends_where_a_deadlock_stopped_the_run(self, warmup, window):
        # the unsafe ring wedges at cycle 665, past a warm-up of 100 and
        # before one of 1000; stopped before its warm-up, a run's window is
        # all of it, for its flits and its blocked cycles alike
        config = dataclasses.replace(ring_config(0.6), warmup_cycles=warmup)
        result, engine, deadlock = simulate_post_mortem(config, [Forensics()])
        assert deadlock is not None and engine.cycle == result.telemetry.cycles == 665
        doc = result.telemetry.forensics["hotspots"]
        assert doc["measured_cycles"] == window
        assert doc["total_flits"] == sum(d.flits - d.flits_at_warmup for d in engine.dirs)
        assert doc["total_blocked_cycles"] == sum(
            d.blocked - d.blocked_at_warmup for d in engine.dirs
        ) > 0


class TestForensicsDocument:
    def test_rides_telemetry_through_run_document(self):
        result = simulate(small_tree_config(load=0.5), [Forensics()])
        doc = result.telemetry.forensics
        assert doc["format"] == 1
        assert {"attribution", "waitfor", "hotspots"} <= set(doc)
        clone = run_result_from_dict(run_result_to_dict(result))
        assert clone.telemetry.forensics == doc

    def test_ledger_round_trip(self, tmp_path):
        ledger = Ledger(tmp_path / "runs.jsonl")
        ledger.append_run(
            simulate(small_cube_config(load=0.5), [Forensics()]),
            kind="forensics",
        )
        (rec,) = ledger.records()
        assert rec["kind"] == "forensics"
        assert rec["run"]["telemetry"]["forensics"]["attribution"]["packets"] > 0

    def test_describe_forensics_text(self):
        result = simulate(small_cube_config(load=0.5), [Forensics()])
        text = describe_forensics(result.telemetry.forensics)
        assert "latency attribution" in text
        assert "wait-for graph" in text
        assert "hotspots" in text
        for name in COMPONENTS:
            assert name in text

    def test_plain_run_has_no_forensics(self):
        assert simulate(small_tree_config()).telemetry.forensics is None


class TestHeatmapSvg:
    def _forensics(self, config):
        return simulate(config, [Forensics()]).telemetry.forensics

    def test_cube_grid(self):
        doc = self._forensics(small_cube_config(load=0.7))
        svg = hotspot_heatmap_svg(doc["hotspots"])
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        # every switch draws one cell
        assert svg.count("<rect") == doc["hotspots"]["num_switches"]

    def test_tree_levels(self):
        doc = self._forensics(small_tree_config(load=0.7))
        svg = hotspot_heatmap_svg(doc["hotspots"], metric="flits")
        assert svg.count("<rect") == doc["hotspots"]["num_switches"]
        assert "lvl 0" in svg  # level axis labels

    def test_empty_hotspots_raise(self):
        with pytest.raises(AnalysisError):
            hotspot_heatmap_svg({"network": "cube", "links": []})

    def test_breakdown_panel(self):
        doc = self._forensics(small_cube_config(load=0.7))
        svg = latency_breakdown_svg(doc["attribution"])
        assert svg.startswith("<svg")
        for name in COMPONENTS:
            assert name.replace("_", " ") in svg

    def test_breakdown_without_packets_raises(self):
        with pytest.raises(AnalysisError):
            latency_breakdown_svg({"packets": 0})

    def test_standalone_injects_css(self):
        svg = standalone_svg("<svg><rect/></svg>")
        assert svg.startswith("<svg><style>")
        assert svg.endswith("</svg>")


class TestAnalyzeCli:
    @pytest.fixture()
    def ledger_path(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        assert (
            main(
                [
                    "run", "--network", "cube", "--k", "4", "--n", "2",
                    "--pattern", "transpose", "--load", "0.7",
                    "--profile", "fast", "--forensics", "--ledger", str(path),
                ]
            )
            == 0
        )
        return path

    def test_run_forensics_prints_breakdown(self, capsys):
        assert (
            main(
                [
                    "run", "--network", "cube", "--k", "4", "--n", "2",
                    "--load", "0.5", "--profile", "fast", "--forensics",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "latency attribution" in out
        assert "latency percentiles" in out  # --forensics implies --latencies

    def test_analyze_round_trip(self, ledger_path, tmp_path, capsys):
        heat = tmp_path / "hot.svg"
        brk = tmp_path / "brk.svg"
        page = tmp_path / "forensics.html"
        code = main(
            [
                "analyze", "--ledger", str(ledger_path),
                "--heatmap", str(heat), "--breakdown", str(brk),
                "--out", str(page),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "latency attribution" in out and "transpose" in out
        assert heat.read_text().startswith("<svg")
        assert brk.read_text().startswith("<svg")
        assert "<h1>" in page.read_text()

    def test_analyze_json(self, ledger_path, capsys):
        assert main(["analyze", "--ledger", str(ledger_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["forensics"]["attribution"]["packets"] > 0

    def test_analyze_empty_ledger_errors(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["analyze", "--ledger", str(path)]) == 2
        assert "no forensics-instrumented runs" in capsys.readouterr().err

    def test_analyze_filters_exclude(self, ledger_path, capsys):
        assert (
            main(["analyze", "--ledger", str(ledger_path), "--network", "tree"])
            == 2
        )

    def test_run_latencies_flag(self, capsys):
        assert (
            main(
                [
                    "run", "--network", "tree", "--k", "2", "--n", "2",
                    "--vcs", "2", "--load", "0.4", "--profile", "fast",
                    "--latencies",
                ]
            )
            == 0
        )
        assert "latency percentiles" in capsys.readouterr().out


class TestZeroCycleGuards:
    def test_empty_window_rates_are_zero(self):
        result = RunResult(config=small_tree_config(), measured_cycles=0)
        assert result.offered_flits_per_cycle == 0.0
        assert result.accepted_flits_per_cycle == 0.0
        assert result.offered_fraction == 0.0
        assert "no measurement window" in result.summary()

    def test_zero_cycle_phase_summary(self):
        t = RunTelemetry(
            config_hash="0" * 16, seed=1, cycles=0, wall_clock_s=0.0,
            cycles_per_sec=0.0, peak_in_flight=0,
        )
        assert t.phase_summary() == "phases: none (0 cycles simulated)"


class TestLatencyPercentiles:
    def test_known_samples(self):
        result = RunResult(config=small_tree_config(), measured_cycles=100)
        result.latencies = list(range(100, 0, -1))  # in delivery order, not sorted
        pct = result.latency_percentiles()
        assert pct == {"samples": 100, "p50": 50, "p95": 95, "p99": 99, "max": 100}

    def test_none_without_samples(self):
        result = RunResult(config=small_tree_config(), measured_cycles=100)
        assert result.latency_percentiles() is None

    def test_persisted_in_run_document(self):
        cfg = dataclasses.replace(small_tree_config(), collect_latencies=True)
        doc = run_result_to_dict(simulate(cfg))
        assert doc["latency_percentiles"]["samples"] > 0
        assert doc["latency_percentiles"]["p50"] <= doc["latency_percentiles"]["max"]
