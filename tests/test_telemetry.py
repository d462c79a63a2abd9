"""Run telemetry and the versioned run document (repro.obs.telemetry,
repro.metrics.io run persistence, RunCache telemetry round-trip)."""

import dataclasses
import json

import pytest

from repro.errors import AnalysisError
from repro.experiments.runcache import RunCache
from repro.experiments.sweep import PointProgress, _cache_key, clear_cache, run_sweep
from repro.metrics.io import (
    RUN_FORMAT_VERSION,
    load_run,
    run_result_from_dict,
    run_result_to_dict,
    save_run,
)
from repro.obs import PHASE_NAMES, RunTelemetry, config_digest
from repro.sim.run import simulate, start
from repro.workloads import Replay, Trace, TraceMessage, drained

from .conftest import small_cube_config, small_tree_config


def _one_message(src: int, dst: int) -> Replay:
    """A one-packet trace on the 4 nodes of :func:`small_tree_config`."""
    flits = small_tree_config().packet_flits
    return Replay(Trace(4, [TraceMessage(0, src, dst, flits)]))


class TestRunTelemetry:
    def test_attached_by_simulate(self):
        cfg = small_tree_config()
        result = simulate(cfg)
        t = result.telemetry
        assert t is not None
        assert t.cycles == cfg.total_cycles
        assert t.seed == cfg.seed
        assert t.wall_clock_s > 0
        assert t.cycles_per_sec > 0
        assert t.config_hash == config_digest(cfg)
        assert "cyc/s" in t.summary()

    def test_peak_in_flight_tracks_backlog(self):
        light = simulate(small_tree_config(load=0.1)).telemetry
        heavy = simulate(small_tree_config(load=1.0)).telemetry
        assert heavy.peak_in_flight > light.peak_in_flight >= 1

    def test_attached_by_drain(self):
        result = simulate(drained(small_tree_config()), [_one_message(0, 3)])
        assert result.telemetry is not None
        assert result.telemetry.peak_in_flight >= 1
        assert result.telemetry.cycles < result.config.total_cycles  # it drained

    def test_dict_round_trip(self):
        t = simulate(small_tree_config()).telemetry
        assert RunTelemetry.from_dict(t.to_dict()) == t

    def test_config_digest_distinguishes_recipes(self):
        a = small_tree_config()
        b = small_tree_config(seed=99)
        assert config_digest(a) == config_digest(small_tree_config())
        assert config_digest(a) != config_digest(b)


class TestPhaseTimers:
    def test_every_phase_timed(self):
        t = simulate(small_tree_config()).telemetry
        assert set(t.phase_seconds) == set(PHASE_NAMES)
        assert all(v > 0 for v in t.phase_seconds.values())

    def test_phases_sum_close_to_wall_time(self):
        # step() is the run loop's body; the phase split must account for
        # most of the wall clock (the remainder is loop/probe overhead)
        t = simulate(small_cube_config(total_cycles=2000)).telemetry
        total = sum(t.phase_seconds.values())
        assert total <= t.wall_clock_s
        assert total >= 0.5 * t.wall_clock_s

    def test_timers_reset_between_runs_on_one_engine(self):
        engine, run = start(drained(small_tree_config()), [_one_message(0, 3)])
        first = run().telemetry.phase_seconds
        engine.preload_packet(1, 2)
        second = engine.run().telemetry.phase_seconds
        # each record covers only its own run; together they account for
        # the engine's cumulative phase time exactly
        cumulative = sum(engine._phase_seconds)
        assert sum(first.values()) + sum(second.values()) == pytest.approx(cumulative)

    def test_round_trip_with_phases(self):
        t = simulate(small_tree_config()).telemetry
        clone = RunTelemetry.from_dict(t.to_dict())
        assert clone.phase_seconds == t.phase_seconds

    def test_pre_phase_documents_still_load(self):
        doc = simulate(small_tree_config()).telemetry.to_dict()
        del doc["phase_seconds"]  # PR-2 era document
        t = RunTelemetry.from_dict(doc)
        assert t.phase_seconds is None
        assert t.phase_summary() == "phase timers unavailable"

    def test_phase_summary_lists_all_phases(self):
        t = simulate(small_tree_config()).telemetry
        summary = t.phase_summary()
        assert summary.startswith("phases:")
        for name in PHASE_NAMES:
            assert name in summary


class TestRunDocument:
    def test_round_trip(self):
        result = simulate(small_cube_config())
        clone = run_result_from_dict(run_result_to_dict(result))
        assert clone.config == result.config
        assert clone.delivered_packets == result.delivered_packets
        assert clone.latency_sum == result.latency_sum
        assert clone.telemetry == result.telemetry

    def test_document_is_versioned(self):
        doc = run_result_to_dict(simulate(small_tree_config()))
        assert doc["format"] == RUN_FORMAT_VERSION
        # it must be valid JSON end to end
        assert json.loads(json.dumps(doc))["telemetry"]["cycles_per_sec"] > 0

    def test_version_mismatch_rejected(self):
        doc = run_result_to_dict(simulate(small_tree_config()))
        doc["format"] = 999
        with pytest.raises(AnalysisError, match="unsupported run format"):
            run_result_from_dict(doc)

    def test_missing_fields_rejected(self):
        doc = run_result_to_dict(simulate(small_tree_config()))
        del doc["result"]["delivered_flits"]
        with pytest.raises(AnalysisError, match="malformed"):
            run_result_from_dict(doc)

    def test_telemetry_optional_for_hand_built_results(self):
        result = simulate(small_tree_config())
        doc = run_result_to_dict(dataclasses.replace(result, telemetry=None))
        assert doc["telemetry"] is None
        assert run_result_from_dict(doc).telemetry is None

    def test_save_and_load(self, tmp_path):
        result = simulate(small_tree_config())
        path = tmp_path / "point.json"
        save_run(result, path)
        clone = load_run(path)
        assert clone.telemetry == result.telemetry
        assert clone.accepted_fraction == result.accepted_fraction

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        with pytest.raises(AnalysisError):
            load_run(path)


class TestRunCacheTelemetry:
    def test_telemetry_survives_the_disk_cache(self, tmp_path):
        cache = RunCache(tmp_path)
        cfg = small_cube_config(load=0.2, total_cycles=300)
        result = simulate(cfg)
        key = _cache_key(cfg)
        cache.put(key, result)
        loaded = cache.get(key)
        assert loaded is not None
        assert loaded.telemetry == result.telemetry

    def test_pre_telemetry_entry_is_a_miss(self, tmp_path):
        # a v1-format entry (before telemetry) must be resimulated, not
        # misread
        cache = RunCache(tmp_path)
        cfg = small_cube_config(load=0.2, total_cycles=300)
        key = _cache_key(cfg)
        cache.put(key, simulate(cfg))
        doc = json.loads(cache.path_for(key).read_text())
        doc["format"] = 1
        cache.path_for(key).write_text(json.dumps(doc))
        assert cache.get(key) is None


class TestSweepProgress:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        clear_cache()
        yield
        clear_cache()

    def test_progress_reports_each_point_with_cycles_per_sec(self):
        seen: list[PointProgress] = []
        run_sweep(
            lambda load: small_cube_config(load=load, total_cycles=300),
            [0.1, 0.2],
            label="telemetry",
            progress=seen.append,
        )
        assert [p.done for p in seen] == [1, 2]
        assert all(p.total == 2 for p in seen)
        assert all(p.status == "ok" for p in seen)
        assert all(p.cycles_per_sec > 0 for p in seen)
        assert seen[0].offered == 0.1

    def test_cached_points_report_cached(self):
        factory = lambda load: small_cube_config(load=load, total_cycles=300)  # noqa: E731
        run_sweep(factory, [0.1], label="warm")
        seen: list[PointProgress] = []
        run_sweep(factory, [0.1, 0.2], label="second", progress=seen.append)
        statuses = {p.offered: p.status for p in seen}
        assert statuses == {0.1: "cached", 0.2: "ok"}

    def test_parallel_sweep_ships_telemetry_across_workers(self):
        seen: list[PointProgress] = []
        series = run_sweep(
            lambda load: small_cube_config(load=load, total_cycles=300),
            [0.1, 0.2],
            label="parallel",
            parallel=True,
            max_workers=2,
            use_cache=False,
            progress=seen.append,
        )
        assert len(series.points) == 2
        assert all(p.cycles_per_sec > 0 for p in seen)
