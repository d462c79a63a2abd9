"""Unit tests for the command-line interface (repro.cli)."""

import ast
import json
import pathlib
import subprocess
import sys

import pytest

from repro.cli import build_parser, main

SRC = pathlib.Path(__file__).parents[1] / "src" / "repro"


def test_importing_the_cli_does_not_import_numpy():
    # its import would be a third of start-up time and ~11 MiB in every worker
    code = "import sys, repro.cli; sys.exit('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_the_package_has_no_runtime_dependency():
    # no module imports numpy, not even lazily, and pyproject.toml declares
    # nothing: a run, a campaign and a report need the standard library only
    importers = []
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert importers == []
    # tomllib is 3.11+: read the one line (a TOML list of strings is a Python literal)
    pyproject = (SRC.parents[1] / "pyproject.toml").read_text().splitlines()
    (declared,) = [line for line in pyproject if line.startswith("dependencies =")]
    assert ast.literal_eval(declared.split("=", 1)[1].strip()) == []


def test_the_saturation_rule_is_stated_once():
    # §6's rule is sim.results.saturated over its one SATURATION_TOLERANCE:
    # no function takes a tolerance of its own, no module names a second
    # tolerance or inlines the margin, and no second predicate exists
    tol_params, tolerances, inlined, predicates = [], [], [], []
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                if "tol" in {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}:
                    tol_params.append(f"{where}:{node.lineno}")
                if getattr(node, "name", None) == "is_saturated":
                    predicates.append(f"{where}:{node.lineno}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                tolerances += [
                    f"{where}:{t.id}" for t in targets
                    if isinstance(t, ast.Name) and "TOLERANCE" in t.id
                ]
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                if any(isinstance(side, ast.Constant) and side.value == 0.95
                       for side in (node.left, node.right)):
                    inlined.append(f"{where}:{node.lineno}")
    assert tol_params == []
    assert tolerances == ["sim/results.py:SATURATION_TOLERANCE"]
    assert inlined == []
    assert predicates == []


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.network == "tree"
        assert args.load == 0.5

    def test_fig_pattern_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", "--pattern", "tornado"])

    def test_sweep_accepts_extension_patterns(self):
        args = build_parser().parse_args(["sweep", "--pattern", "tornado"])
        assert args.pattern == "tornado"


class TestCommands:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 2" in out
        assert "6.340" in out

    def test_info_tree(self, capsys):
        assert main(["info", "--network", "tree"]) == 0
        out = capsys.readouterr().out
        assert "KAryNTree" in out
        assert "1.0 flits/cycle" in out

    def test_info_cube(self, capsys):
        assert main(["info", "--network", "cube", "--k", "4", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "16 nodes" in out

    def test_run_small(self, capsys):
        code = main(
            [
                "run",
                "--network", "cube",
                "--k", "4",
                "--n", "2",
                "--algorithm", "dor",
                "--load", "0.2",
                "--profile", "fast",
            ]
        )
        assert code == 0
        assert "accepted=" in capsys.readouterr().out

    def test_sweep_small(self, capsys):
        code = main(
            [
                "sweep",
                "--network", "tree",
                "--k", "2",
                "--n", "2",
                "--vcs", "2",
                "--profile", "fast",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "saturation:" in out

    def test_drain(self, capsys):
        code = main(
            [
                "drain",
                "--network", "tree",
                "--k", "2",
                "--n", "2",
                "--vcs", "2",
                "--pattern", "complement",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "packets drained: 4" in out

    def test_drain_rejects_uniform(self, capsys):
        code = main(
            ["drain", "--network", "tree", "--k", "2", "--n", "2", "--vcs", "2"]
        )
        assert code == 2  # uniform is not a permutation

    def test_find_sat(self, capsys):
        code = main(
            [
                "find-sat",
                "--network", "cube",
                "--k", "4",
                "--n", "2",
                "--algorithm", "dor",
                "--profile", "fast",
                "--resolution", "0.2",
            ]
        )
        assert code == 0
        assert "saturation:" in capsys.readouterr().out

    def test_fig_plot_flag(self, capsys):
        # plotting is only wired for fig5/fig6
        args = build_parser().parse_args(["fig5", "--plot"])
        assert args.plot
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig7", "--plot"])

    def test_error_exit_code(self, capsys):
        # duato needs >= 3 VCs: ConfigurationError -> exit 2, message on stderr
        code = main(
            [
                "run",
                "--network", "cube",
                "--k", "4",
                "--n", "2",
                "--algorithm", "duato",
                "--vcs", "2",
                "--profile", "fast",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestObservability:
    RUN_ARGS = [
        "run", "--network", "cube", "--k", "4", "--n", "2",
        "--algorithm", "dor", "--load", "0.2", "--profile", "fast",
    ]

    def test_run_json_document(self, capsys):
        assert main(self.RUN_ARGS + ["--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) >= {"format", "config", "result", "telemetry"}
        assert doc["config"]["load"] == 0.2
        assert doc["result"]["delivered_packets"] > 0
        assert doc["telemetry"]["cycles_per_sec"] > 0

    def test_run_json_round_trips_through_io(self, capsys):
        from repro.metrics.io import run_result_from_dict

        assert main(self.RUN_ARGS + ["--json"]) == 0
        result = run_result_from_dict(json.loads(capsys.readouterr().out))
        assert result.telemetry is not None

    def test_run_prints_telemetry_line(self, capsys):
        assert main(self.RUN_ARGS) == 0
        assert "cyc/s" in capsys.readouterr().out

    def test_sweep_json_includes_telemetry(self, capsys):
        from repro.experiments.sweep import clear_cache

        clear_cache()  # cached points are not re-simulated, so no rate
        code = main(
            [
                "sweep", "--network", "tree", "--k", "2", "--n", "2",
                "--vcs", "2", "--profile", "fast", "--json",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert set(doc) == {"format", "series", "telemetry"}
        assert doc["telemetry"]["points_simulated"] >= 1
        assert doc["telemetry"]["mean_cycles_per_sec"] > 0
        # live progress went to stderr, one line per point
        assert "[1/" in captured.err

    def test_trace_writes_chrome_loadable_json(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main(
            [
                "trace", "--network", "tree", "--k", "2", "--n", "2",
                "--vcs", "2", "--pattern", "transpose", "--load", "0.3",
                "--profile", "fast", "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases >= {"X", "M"}
        assert "trace:" in capsys.readouterr().out

    def test_trace_both_formats_and_counters(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        counters = tmp_path / "counters.json"
        code = main(
            [
                "trace", "--network", "cube", "--k", "4", "--n", "2",
                "--algorithm", "dor", "--load", "0.2", "--profile", "fast",
                "--out", str(out), "--format", "both",
                "--counters", str(counters), "--window", "100",
            ]
        )
        assert code == 0
        assert out.exists()
        jsonl = out.with_suffix(".jsonl")
        assert jsonl.exists()
        assert all(json.loads(line) for line in jsonl.read_text().splitlines())
        cdoc = json.loads(counters.read_text())
        assert cdoc["window_cycles"] == 100
        assert cdoc["windows"]

    def test_trace_lists_the_hottest_directions(self, tmp_path, capsys):
        # a saturating 16-node tree: the listing is pinned line for line
        code = main(
            [
                "trace", "--network", "tree", "--k", "2", "--n", "4",
                "--vcs", "2", "--pattern", "transpose", "--load", "0.9",
                "--profile", "fast", "--out", str(tmp_path / "trace.json"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        at = out.index("most blocked channel directions (switch, port):")
        assert out[at + 1:] == [
            "  sw28 port1: 197 blocked cycles, 140 flits over 400 measured cycles",
            "  sw24 port1: 196 blocked cycles, 132 flits over 400 measured cycles",
            "  sw26 port1: 177 blocked cycles, 68 flits over 400 measured cycles",
        ]

    def test_run_prints_phase_split(self, capsys):
        assert main(self.RUN_ARGS) == 0
        assert "phases: link" in capsys.readouterr().out

    def test_trace_json_parity_with_run(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main(
            [
                "trace", "--network", "tree", "--k", "2", "--n", "2",
                "--vcs", "2", "--load", "0.2", "--profile", "fast",
                "--out", str(out), "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        # same versioned run document as run --json ...
        assert set(doc) >= {"format", "config", "result", "telemetry"}
        assert doc["telemetry"]["phase_seconds"]["link"] > 0
        # ... plus the trace-specific section
        assert doc["trace"]["events"] > 0
        assert doc["trace"]["written"] == [str(out)]
        assert doc["trace"]["deadlock"] is None

    def test_cprofile_smoke(self, capsys):
        assert main(self.RUN_ARGS + ["--cprofile"]) == 0
        captured = capsys.readouterr()
        assert "accepted=" in captured.out
        assert "cumulative" in captured.err  # pstats table on stderr

    def test_cprofile_stats_file(self, tmp_path, capsys):
        import pstats

        stats = tmp_path / "run.pstats"
        assert main(self.RUN_ARGS + ["--cprofile", str(stats)]) == 0
        assert stats.exists()
        pstats.Stats(str(stats))  # parseable profile dump


class TestLedgerAndReport:
    SWEEP_ARGS = [
        "sweep", "--network", "tree", "--k", "2", "--n", "2",
        "--vcs", "2", "--profile", "fast",
    ]

    def test_run_appends_to_ledger(self, tmp_path, capsys):
        from repro.obs.ledger import Ledger

        ledger = tmp_path / "runs.jsonl"
        args = TestObservability.RUN_ARGS + ["--ledger", str(ledger)]
        assert main(args) == 0
        assert main(args) == 0  # same recipe again: deduplicated
        records = Ledger(ledger).query(kind="run")
        assert len(records) == 1
        assert records[0]["network"] == "cube"

    def test_sweep_ledger_holds_every_point(self, tmp_path, capsys):
        from repro.experiments.sweep import clear_cache
        from repro.obs.ledger import Ledger

        clear_cache()
        ledger = tmp_path / "runs.jsonl"
        assert main(self.SWEEP_ARGS + ["--ledger", str(ledger)]) == 0
        points = Ledger(ledger).query(kind="sweep")
        assert len(points) >= 2
        assert len({rec["load"] for rec in points}) == len(points)
        # replaying the sweep (now cache-warm) adds nothing
        assert main(self.SWEEP_ARGS + ["--ledger", str(ledger)]) == 0
        assert len(Ledger(ledger)) == len(points)

    def test_report_from_ledger(self, tmp_path, capsys):
        from repro.experiments.sweep import clear_cache

        clear_cache()
        ledger = tmp_path / "runs.jsonl"
        out = tmp_path / "scorecard.html"
        assert main(self.SWEEP_ARGS + ["--ledger", str(ledger)]) == 0
        capsys.readouterr()
        code = main(
            ["report", "--ledger", str(ledger), "--out", str(out),
             "--title", "small card"]
        )
        assert code == 0
        assert "scorecard:" in capsys.readouterr().out
        text = out.read_text()
        assert text.count("<svg") == 1
        assert "small card" in text

    def test_report_empty_ledger_is_an_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = main(
            ["report", "--ledger", str(empty), "--out", str(tmp_path / "s.html")]
        )
        assert code == 2
        assert "no scorable runs" in capsys.readouterr().err

    def test_faults_ledger_keeps_every_fraction(self, tmp_path, capsys):
        from repro.obs.ledger import Ledger

        ledger = tmp_path / "runs.jsonl"
        code = main(
            [
                "faults", "--network", "cube", "--k", "4", "--n", "2",
                "--profile", "fast", "--fractions", "0,0.1",
                "--ledger", str(ledger),
            ]
        )
        assert code == 0
        # same config+seed at both fractions: dedup must be off for faults
        records = Ledger(ledger).query(kind="faults")
        assert len(records) == 2
        # ... and the record itself says which faults it ran under
        documents = [rec["run"]["telemetry"]["faults"] for rec in records]
        assert [doc["fraction"] for doc in documents] == [0.0, 0.1]
        assert [doc["faults"] for doc in documents] == [0, 6]
        assert set(documents[1]) == {
            "fraction", "seed", "fail_at", "repair_at", "faults", "population",
            "escape_fraction",
        }
        assert (documents[1]["seed"], documents[1]["population"]) == (5, 64)
        assert 0.0 < documents[1]["escape_fraction"] < 1.0


class TestFaultsCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["faults"])
        assert args.load == 1.0
        assert args.fractions == "0,0.05,0.1,0.2"
        assert not args.transient

    def test_degradation_table_cube(self, capsys):
        code = main(
            [
                "faults",
                "--network", "cube",
                "--k", "4",
                "--n", "2",
                "--profile", "fast",
                "--fractions", "0,0.1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cube fault degradation" in out
        assert "escape frac" in out

    def test_degradation_table_tree(self, capsys):
        code = main(
            [
                "faults",
                "--network", "tree",
                "--k", "2",
                "--n", "3",
                "--vcs", "2",
                "--profile", "fast",
                "--fractions", "0,0.2",
            ]
        )
        assert code == 0
        assert "tree fault degradation" in capsys.readouterr().out

    def test_transient_timeline(self, capsys):
        code = main(
            [
                "faults",
                "--network", "cube",
                "--k", "4",
                "--n", "2",
                "--profile", "fast",
                "--transient",
                "--fraction", "0.2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "failed mid-run" in out
        assert "delivered flits per interval" in out

    @pytest.mark.parametrize("transient", [(), ("--transient",)], ids=["table", "transient"])
    def test_pattern_and_arbiter_reach_the_runs(self, transient, tmp_path):
        # both options used to be parsed and dropped: every pattern printed
        # the uniform table
        from repro.obs.ledger import Ledger

        def records(name, *options):
            ledger = tmp_path / name
            argv = [
                "faults", "--network", "cube", "--k", "4", "--n", "2", "--profile", "fast",
                "--fractions", "0.1", *transient, *options, "--ledger", str(ledger),
            ]
            assert main(argv) == 0
            return [rec["run"] for rec in Ledger(ledger).query(kind="faults")]

        (uniform,) = records("uniform.jsonl")
        (transpose,) = records("transpose.jsonl", "--pattern", "transpose", "--arbiter", "age")
        assert (uniform["config"]["pattern"], uniform["config"]["arbiter"]) == (
            "uniform", "round_robin",
        )
        assert (transpose["config"]["pattern"], transpose["config"]["arbiter"]) == (
            "transpose", "age",
        )
        assert uniform["result"]["delivered_flits"] != transpose["result"]["delivered_flits"]

    def test_bad_fractions_exit_code(self, capsys):
        code = main(["faults", "--network", "tree", "--fractions", "0,x", "--profile", "fast"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
