"""Perf baselines and the bench --compare regression gate (repro.obs.bench)."""

import copy
import json

import pytest

from repro.cli import main
from repro.errors import AnalysisError, ConfigurationError
from repro.obs.bench import (
    BENCH_FORMAT_VERSION,
    PROBE_FACTORIES,
    REGRESSION_EXIT_CODE,
    bench_document,
    compare,
    compare_document,
    load_baseline,
    measure_entry,
    remeasure,
    save_baseline,
)

from .conftest import small_cube_config


@pytest.fixture(scope="module")
def baseline():
    """One small measured baseline, shared across the module (seconds)."""
    config = small_cube_config(total_cycles=400, warmup_cycles=40)
    entries = [
        measure_entry("cube-off", config, "off", repeats=1),
        measure_entry("cube-null", config, "null", repeats=1),
    ]
    return bench_document(entries, repeats=1)


def slowed(baseline: dict, factor: float = 1.25) -> dict:
    """A doctored baseline pretending the machine used to be faster."""
    doc = copy.deepcopy(baseline)
    for entry in doc["entries"]:
        entry["cycles_per_sec"] *= factor
        entry["phase_seconds"] = {
            k: v / factor for k, v in entry["phase_seconds"].items()
        }
    return doc


class TestMeasure:
    def test_entry_document(self, baseline):
        entry = baseline["entries"][0]
        assert entry["name"] == "cube-off"
        assert entry["probe"] == "off"
        assert entry["cycles_per_sec"] > 0
        assert set(entry["phase_seconds"]) == {"link", "injection", "crossbar", "routing"}
        # the config travels whole, so any machine can replay the recipe
        assert entry["config"]["network"] == "cube"
        assert entry["telemetry"]["cycles"] == 400

    def test_document_is_versioned(self, baseline):
        assert baseline["format"] == BENCH_FORMAT_VERSION
        assert baseline["kind"] == "bench"
        assert baseline["host"]
        json.dumps(baseline)  # serializable end to end

    def test_unknown_probe_spec_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown probe spec"):
            measure_entry("x", small_cube_config(), "chrome")

    def test_bad_repeats_rejected(self):
        with pytest.raises(ConfigurationError, match="repeats"):
            measure_entry("x", small_cube_config(), "off", repeats=0)

    def test_probe_specs_cover_off_and_on(self):
        assert set(PROBE_FACTORIES) == {
            "off", "null", "traced", "forensics", "flight", "statehash",
            "checkpoint",
        }
        assert PROBE_FACTORIES["off"]() is None
        assert PROBE_FACTORIES["null"]() is not None
        assert PROBE_FACTORIES["forensics"]() is not None
        assert PROBE_FACTORIES["flight"]() is not None
        assert PROBE_FACTORIES["statehash"]() is not None
        assert PROBE_FACTORIES["checkpoint"]() is not None


class TestCompare:
    def test_no_change_passes(self, baseline):
        assert compare(baseline, copy.deepcopy(baseline["entries"])) == []

    def test_overall_slowdown_detected(self, baseline):
        findings = compare(slowed(baseline, 1.25), baseline["entries"])
        assert any("cyc/s vs baseline" in f for f in findings)
        assert any("slower" in f for f in findings)

    def test_slowdown_within_threshold_passes(self, baseline):
        doctored = slowed(baseline, 1.25)
        assert compare(doctored, baseline["entries"], threshold=0.5) == []

    def test_phase_findings_name_the_phase(self, baseline):
        findings = compare(slowed(baseline, 1.5), baseline["entries"])
        assert any("phase '" in f for f in findings)

    def test_pre_phase_timer_baseline_still_compares_rate(self, baseline):
        legacy = slowed(baseline, 1.5)
        for entry in legacy["entries"]:
            entry["phase_seconds"] = None
        findings = compare(legacy, baseline["entries"])
        assert findings  # overall rate regression still caught
        assert not any("phase" in f for f in findings)

    def test_missing_entry_rejected(self, baseline):
        with pytest.raises(AnalysisError, match="no fresh measurement"):
            compare(baseline, baseline["entries"][:1])

    def test_bad_threshold_rejected(self, baseline):
        with pytest.raises(ConfigurationError, match="threshold"):
            compare(baseline, baseline["entries"], threshold=0.0)


class TestCompareDocument:
    def test_clean_comparison_passes(self, baseline):
        doc = compare_document(baseline, copy.deepcopy(baseline["entries"]))
        assert doc["kind"] == "bench-compare"
        assert doc["passed"] is True
        assert doc["findings"] == []
        assert [e["name"] for e in doc["entries"]] == [
            e["name"] for e in baseline["entries"]
        ]
        assert all(e["delta"] == 0.0 for e in doc["entries"])
        assert not any(e["regressed"] for e in doc["entries"])

    def test_regression_marks_the_entry(self, baseline):
        doc = compare_document(slowed(baseline, 1.25), baseline["entries"])
        assert doc["passed"] is False
        assert doc["findings"]
        regressed = [e for e in doc["entries"] if e["regressed"]]
        assert regressed
        # the delta is relative to the doctored (faster) baseline
        assert all(e["delta"] < 0 for e in regressed)

    def test_document_is_json_serializable(self, baseline):
        doc = compare_document(baseline, copy.deepcopy(baseline["entries"]))
        assert json.loads(json.dumps(doc)) == doc


class TestPersistence:
    def test_save_load_round_trip(self, baseline, tmp_path):
        path = tmp_path / "bench.json"
        save_baseline(baseline, path)
        assert load_baseline(path) == json.loads(json.dumps(baseline))

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        with pytest.raises(AnalysisError, match="cannot load"):
            load_baseline(path)

    def test_load_rejects_wrong_version(self, baseline, tmp_path):
        doc = {**baseline, "format": 999}
        path = tmp_path / "v999.json"
        save_baseline(doc, path)
        with pytest.raises(AnalysisError, match="unsupported bench format"):
            load_baseline(path)

    def test_load_rejects_empty_entries(self, tmp_path):
        path = tmp_path / "empty.json"
        save_baseline({"format": BENCH_FORMAT_VERSION, "entries": []}, path)
        with pytest.raises(AnalysisError, match="no entries"):
            load_baseline(path)

    def test_remeasure_replays_recorded_recipes(self, baseline):
        fresh = remeasure(baseline, repeats=1)
        assert [e["name"] for e in fresh] == [e["name"] for e in baseline["entries"]]
        assert all(e["cycles_per_sec"] > 0 for e in fresh)

    def test_remeasure_rejects_malformed_entry(self, baseline):
        doc = copy.deepcopy(baseline)
        del doc["entries"][0]["config"]
        with pytest.raises(AnalysisError, match="malformed bench entry"):
            remeasure(doc, repeats=1)


class TestCli:
    def test_compare_pass_and_fail_paths(self, baseline, tmp_path, capsys):
        clean = tmp_path / "clean.json"
        save_baseline(baseline, clean)
        # generous threshold: identical recipes on the same box must pass
        assert main(["bench", "--compare", str(clean), "--threshold", "0.9"]) == 0
        assert "ok:" in capsys.readouterr().out

        doctored = tmp_path / "fast.json"
        save_baseline(slowed(baseline, 5.0), doctored)  # 80% "regression"
        code = main(["bench", "--compare", str(doctored), "--threshold", "0.15"])
        assert code == REGRESSION_EXIT_CODE
        assert "PERF REGRESSION" in capsys.readouterr().err

    def test_compare_json_output(self, baseline, tmp_path, capsys, monkeypatch):
        # the "current" measurement is the recorded one, not a second
        # timing of this host: two wall-clock samples of a 400-cycle run
        # taken seconds apart differ per phase by more than any threshold
        # whenever the suite pauses between them, and what is under test
        # is the comparison document, not the host
        monkeypatch.setattr(
            "repro.obs.bench.remeasure",
            lambda doc, repeats=None: copy.deepcopy(baseline["entries"]),
        )
        clean = tmp_path / "clean.json"
        save_baseline(baseline, clean)
        code = main(
            ["bench", "--compare", str(clean), "--threshold", "0.15", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "bench-compare"
        assert doc["passed"] is True
        assert all(e["delta"] == 0.0 for e in doc["entries"])

        doctored = tmp_path / "fast.json"
        save_baseline(slowed(baseline, 5.0), doctored)
        code = main(
            ["bench", "--compare", str(doctored), "--threshold", "0.15",
             "--json"]
        )
        assert code == REGRESSION_EXIT_CODE
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is False
        assert all(e["regressed"] for e in doc["entries"])

    def test_record_mode_writes_baseline(self, tmp_path, capsys):
        out = tmp_path / "BENCH_test.json"
        code = main(
            ["bench", "--out", str(out), "--repeats", "1", "--cycles", "300"]
        )
        assert code == 0
        doc = load_baseline(out)
        assert {e["name"] for e in doc["entries"]} == {
            "tree-off", "tree-null", "cube-off", "cube-traced", "cube-forensics"
        }
        assert "phases:" in capsys.readouterr().out

    def test_compare_missing_baseline_is_an_error(self, tmp_path, capsys):
        code = main(["bench", "--compare", str(tmp_path / "absent.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
