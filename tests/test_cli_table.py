"""The CLI as a table: options declared once, ``--help`` unchanged, and
tiers that combine — checkpointed — on ``run`` and ``sweep``."""

import inspect
import json
import pathlib

import pytest

import repro.cli as cli
from repro.cli import OPTIONS, build_parser, main

from .cli_snapshot import snapshot
from .test_determinism import _TIMING_FIELDS

RECORDED = pathlib.Path(__file__).parent / "data" / "cli_options.json"

SMALL = ["--network", "tree", "--k", "2", "--n", "2", "--vcs", "2", "--profile", "fast"]


class TestTable:
    def test_every_subcommand_lists_the_options_it_always_did(self):
        # recorded at the commit before the table existed, by
        # ``python tests/cli_snapshot.py``: same subcommands, same options in
        # the same --help order, same defaults, choices and help texts
        recorded = json.loads(RECORDED.read_text())
        current = snapshot()
        assert list(current) == list(recorded)
        for name, entry in recorded.items():
            assert current[name]["help"] == entry["help"], name
            flags = [row["flags"] for row in current[name]["options"]]
            assert flags == [row["flags"] for row in entry["options"]], name
            for now, then in zip(current[name]["options"], entry["options"]):
                assert now == then, (name, then["flags"])

    def test_each_option_is_declared_once(self):
        source = inspect.getsource(cli)
        assert source.count("add_argument(") == 1  # the one in build_parser
        used = set()
        for _name, _help, _handler, options in cli._commands():
            for entry in options:
                used.add(entry[0] if isinstance(entry, tuple) else entry)
        assert used == set(OPTIONS)
        flags = [flag for flag, _ in OPTIONS.values()]
        assert len(set(flags)) == len(flags)

    def test_overrides_do_not_leak_between_subcommands(self):
        parser = build_parser()
        assert parser.parse_args(["chaos"]).seed == 47
        assert parser.parse_args(["congestion"]).seed == 29
        assert parser.parse_args(["run"]).seed == 1
        assert parser.parse_args(["fig5"]).seed == 11
        assert parser.parse_args(["faults"]).load == 1.0
        assert parser.parse_args(["run"]).load == 0.5


def _document(capsys) -> dict:
    doc = json.loads(capsys.readouterr().out)
    for field in _TIMING_FIELDS:
        doc["telemetry"][field] = None
    return doc


class TestTiersCombine:
    """The two refusal rules are gone: nothing special-cases a tier."""

    def test_run_takes_every_tier_with_a_checkpoint_and_resumes(self, tmp_path, capsys):
        tiers = ["--forensics", "--flight", "64", "--statehash", "100", "--json"]
        assert main(["run", *SMALL, "--load", "0.6", *tiers]) == 0
        reference = _document(capsys)
        assert all(reference["telemetry"][t] for t in ("forensics", "flight", "statehash"))
        ckpt = ["--checkpoint", str(tmp_path / "ckpt"), "--checkpoint-every", "300"]
        assert main(["run", *SMALL, "--load", "0.6", *tiers, *ckpt]) == 0
        assert _document(capsys) == reference
        assert list((tmp_path / "ckpt").glob("ckpt-*.rckpt"))  # snapshots left behind
        # the second call restores the newest one and replays only the tail
        assert main(["run", *SMALL, "--load", "0.6", *tiers, "--resume", str(tmp_path / "ckpt")]) == 0
        assert _document(capsys) == reference
        manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        assert manifest["discarded"] == []

    def test_run_text_output_describes_every_tier(self, capsys):
        assert main(["run", *SMALL, "--forensics", "--flight", "--statehash"]) == 0
        out = capsys.readouterr().out
        for marker in ("latency attribution", "flight timeline", "state digests"):
            assert marker in out

    def test_sweep_takes_forensics_with_flight_and_resumes(self, tmp_path, capsys):
        from repro.obs.ledger import Ledger

        def records(name):
            docs = []
            for rec in Ledger(tmp_path / name).records():
                assert rec["kind"] == "forensics"
                telemetry = rec["run"]["telemetry"]
                assert telemetry["forensics"] and telemetry["flight"]
                for field in _TIMING_FIELDS:
                    telemetry[field] = None
                docs.append(json.dumps(rec["run"], sort_keys=True))
            return sorted(docs)

        base = ["sweep", *SMALL, "--forensics", "--flight", "64"]
        assert main([*base, "--ledger", str(tmp_path / "ref.jsonl")]) == 0
        camp = str(tmp_path / "camp")
        assert main([*base, "--ledger", str(tmp_path / "a.jsonl"), "--checkpoint", camp]) == 0
        assert main([*base, "--ledger", str(tmp_path / "b.jsonl"), "--resume", camp]) == 0
        capsys.readouterr()
        reference = records("ref.jsonl")
        assert len(reference) >= 2
        assert records("a.jsonl") == reference
        assert records("b.jsonl") == reference  # reloaded from the per-point caches

    @pytest.mark.parametrize("command", ["run", "trace"])
    def test_watch_and_events_still_stream(self, command, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        argv = [command, *SMALL, "--watch", "--events", str(events)]
        if command == "trace":
            argv += ["--out", str(tmp_path / "trace.json")]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "in-flight" in captured.err  # the in-place status line
        kinds = [json.loads(line)["type"] for line in events.read_text().splitlines()]
        assert kinds[0] == "start" and kinds[-1] == "end" and "sample" in kinds
