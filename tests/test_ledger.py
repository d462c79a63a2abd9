"""Append-only JSONL metrics ledger (repro.obs.ledger)."""

import json
import multiprocessing

import pytest

from repro.errors import AnalysisError
from repro.obs.ledger import LEDGER_FORMAT_VERSION, Ledger, ledger_record
from repro.sim.run import simulate

from .conftest import small_cube_config, small_tree_config


@pytest.fixture
def ledger(tmp_path):
    return Ledger(tmp_path / "runs.jsonl")


class TestAppend:
    def test_round_trip(self, ledger):
        result = simulate(small_tree_config())
        assert ledger.append_run(result)
        runs = ledger.runs()
        assert len(runs) == 1
        clone = runs[0]
        assert clone.config == result.config
        assert clone.delivered_packets == result.delivered_packets
        assert clone.telemetry == result.telemetry

    def test_lines_are_versioned_json(self, ledger):
        ledger.append_run(simulate(small_tree_config()))
        ledger.append_run(simulate(small_cube_config()))
        lines = ledger.path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            rec = json.loads(line)
            assert rec["format"] == LEDGER_FORMAT_VERSION
            assert rec["run"]["telemetry"]["cycles_per_sec"] > 0

    def test_dedup_by_digest_and_seed(self, ledger):
        result = simulate(small_tree_config())
        assert ledger.append_run(result)
        assert not ledger.append_run(result)  # same recipe + seed: no-op
        assert ledger.append_run(simulate(small_tree_config(seed=99)))
        assert len(ledger) == 2

    def test_dedup_survives_reopening(self, ledger):
        result = simulate(small_tree_config())
        ledger.append_run(result)
        assert not Ledger(ledger.path).append_run(result)

    def test_dedup_can_be_disabled(self, ledger):
        # degradation campaigns re-run one recipe with faults injected
        # outside the config, so every row must land
        result = simulate(small_tree_config())
        assert ledger.append_run(result, kind="faults", dedup=False)
        assert ledger.append_run(result, kind="faults", dedup=False)
        assert len(ledger) == 2

    def test_creates_parent_directories(self, tmp_path):
        ledger = Ledger(tmp_path / "deep" / "nested" / "runs.jsonl")
        ledger.append_run(simulate(small_tree_config()))
        assert ledger.path.exists()

    def test_record_metadata_echoes_config(self):
        cfg = small_cube_config(load=0.3)
        rec = ledger_record(simulate(cfg), kind="sweep", recorded_at=123.0)
        assert rec["network"] == "cube"
        assert rec["pattern"] == "uniform"
        assert rec["algorithm"] == "dor"
        assert rec["seed"] == cfg.seed
        assert rec["load"] == 0.3
        assert rec["kind"] == "sweep"
        assert rec["recorded_at"] == 123.0


class TestQuery:
    def test_empty_ledger_reads_empty(self, ledger):
        assert list(ledger.records()) == []
        assert len(ledger) == 0

    def test_filters(self, ledger):
        tree = simulate(small_tree_config())
        cube = simulate(small_cube_config())
        ledger.append_run(tree, kind="run")
        ledger.append_run(cube, kind="sweep")
        assert len(ledger.query(network="tree")) == 1
        assert len(ledger.query(network="cube", kind="sweep")) == 1
        assert ledger.query(network="cube", kind="run") == []
        assert len(ledger.query(pattern="uniform")) == 2
        assert ledger.query(algorithm="duato") == []

    def test_query_by_config_hash(self, ledger):
        result = simulate(small_tree_config())
        ledger.append_run(result)
        ledger.append_run(simulate(small_cube_config()))
        digest = result.telemetry.config_hash
        matches = ledger.query(config_hash=digest)
        assert len(matches) == 1
        assert matches[0]["network"] == "tree"

    def test_time_window(self, ledger):
        ledger._append_line(ledger_record(simulate(small_tree_config()), recorded_at=100.0))
        ledger._append_line(
            ledger_record(simulate(small_cube_config()), recorded_at=200.0)
        )
        assert len(ledger.query(since=100.0)) == 2
        assert len(ledger.query(since=150.0)) == 1
        assert len(ledger.query(until=200.0)) == 1  # until is exclusive
        assert ledger.query(since=150.0, until=160.0) == []

    def test_runs_respects_filters(self, ledger):
        ledger.append_run(simulate(small_tree_config()))
        ledger.append_run(simulate(small_cube_config()))
        runs = ledger.runs(network="cube")
        assert len(runs) == 1
        assert runs[0].config.network == "cube"


def _hammer_ledger(path, kind: str, seed: int, count: int) -> None:
    """Worker: append ``count`` records of one run to a shared ledger."""
    result = simulate(small_tree_config(seed=seed))
    ledger = Ledger(path)
    for _ in range(count):
        ledger.append_run(result, kind=kind, dedup=False)


class TestConcurrentAppend:
    def test_two_writers_interleave_whole_lines(self, ledger):
        # concurrent campaigns share one ledger; each append is a single
        # write of one line, so two processes hammering the same file
        # must never produce an interleaved or truncated record
        per_writer = 25
        ctx = multiprocessing.get_context("fork")
        writers = [
            ctx.Process(
                target=_hammer_ledger,
                args=(ledger.path, f"writer-{i}", 7 + i, per_writer),
            )
            for i in range(2)
        ]
        for p in writers:
            p.start()
        for p in writers:
            p.join(timeout=120)
            assert p.exitcode == 0
        raw = ledger.path.read_text()
        assert raw.endswith("\n")  # no truncated tail
        # every line parses as a versioned record (records() raises on
        # any fragment), and nothing was lost
        records = list(ledger.records())
        assert len(records) == 2 * per_writer
        by_kind = {}
        for rec in records:
            by_kind[rec["kind"]] = by_kind.get(rec["kind"], 0) + 1
        assert by_kind == {"writer-0": per_writer, "writer-1": per_writer}


class TestCorruption:
    def test_garbage_line_rejected(self, ledger):
        ledger.append_run(simulate(small_tree_config()))
        with ledger.path.open("a") as fh:
            fh.write("not json {\n")
        with pytest.raises(AnalysisError, match="unparseable"):
            list(ledger.records())

    def test_wrong_version_rejected(self, ledger):
        rec = ledger_record(simulate(small_tree_config()))
        rec["format"] = 999
        ledger._append_line(rec)
        with pytest.raises(AnalysisError, match="unsupported ledger format"):
            list(ledger.records())

    @pytest.mark.parametrize("line", ["[]", '"x"', "3"], ids=["list", "string", "number"])
    def test_a_line_of_the_wrong_shape_is_rejected(self, ledger, tmp_path, capsys, line):
        from repro.cli import main

        ledger.append_run(simulate(small_tree_config()))
        with ledger.path.open("a") as fh:
            fh.write(line + "\n")
        with pytest.raises(AnalysisError, match=r"runs\.jsonl:2: a ledger record is a JSON object"):
            list(ledger.records())
        out = str(tmp_path / "s.html")
        assert main(["report", "--ledger", str(ledger.path), "--out", out]) == 2
        assert main(["analyze", "--ledger", str(ledger.path)]) == 2
        assert capsys.readouterr().err.count("a ledger record is a JSON object") == 2

    @pytest.mark.parametrize("damage", ["truncated", "flipped-byte"])
    def test_a_damaged_line_is_refused_with_its_place(self, ledger, tmp_path, capsys, damage):
        from repro.cli import main

        ledger.append_run(simulate(small_tree_config()))
        ledger.append_run(simulate(small_cube_config()))
        data = ledger.path.read_bytes()
        second = data.index(b"\n") + 1
        if damage == "truncated":
            data = data[: (second + len(data)) // 2]
        else:
            data = data[: second + 40] + b"\xff" + data[second + 41 :]
        ledger.path.write_bytes(data)
        with pytest.raises(AnalysisError, match=r"runs\.jsonl:2: unparseable ledger line"):
            list(ledger.records())
        out = str(tmp_path / "s.html")
        assert main(["report", "--ledger", str(ledger.path), "--out", out]) == 2
        assert main(["analyze", "--ledger", str(ledger.path)]) == 2
        assert capsys.readouterr().err.count("runs.jsonl:2: unparseable ledger line") == 2

    def test_blank_lines_tolerated(self, ledger):
        ledger.append_run(simulate(small_tree_config()))
        with ledger.path.open("a") as fh:
            fh.write("\n\n")
        assert len(ledger) == 1
