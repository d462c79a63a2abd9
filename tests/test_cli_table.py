"""The CLI as a table: options declared once, ``--help`` unchanged, and
tiers that combine — checkpointed — on ``run`` and ``sweep``."""

import inspect
import json
import pathlib

import pytest

import repro.cli as cli
import repro.experiments.chaos as chaos
import repro.experiments.congestion as congestion
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


class _Captured(Exception):
    """Raised by a stubbed experiment: what the command handed it."""

    def __init__(self, config, kwargs):
        super().__init__()
        self.config, self.kwargs = config, kwargs


def _first(config, *_, **__):
    return config


#: where each command hands its config to an experiment: ``(module, name,
#: config of the call)``
_ENTRY_POINTS = (
    (cli, "simulate_post_mortem", _first),
    (cli, "run_curves", lambda curves, *_, **__: curves[0][1]),
    (cli, "drain_permutation", _first),
    (cli, "find_saturation", lambda factory, *_, **__: factory(0.25)),
    (cli, "degradation_experiment", _first),
    (cli, "transient_experiment", _first),
    (chaos, "chaos_campaign", _first),
    (congestion, "congestion_campaign", _first),
)

#: a value no command defaults to, per recipe option: each names the config
#: field it sets, but congestion's closed-loop arbiter, a campaign keyword
_NON_DEFAULT = {
    "network": "cube", "k": "3", "n": "3", "algorithm": "tree_deterministic",
    "vcs": "3", "pattern": "transpose", "seed": "12345", "arbiter": "age",
    "load": "0.37", "arbiter_closed": "age",
}

#: every command that builds a config, as the argv that selects it
_BUILDERS = (
    ["run"], ["sweep"], ["trace"], ["drain"], ["find-sat"], ["faults"],
    ["faults", "--transient"], ["chaos"], ["congestion"],
)


def _declared(command: str) -> list[str]:
    (options,) = [row[3] for row in cli._commands() if row[0] == command]
    names = [entry[0] if isinstance(entry, tuple) else entry for entry in options]
    return [name for name in names if name in _NON_DEFAULT]


def _reach_cases():
    for argv in _BUILDERS:
        for option in _declared(argv[0]):
            yield pytest.param(argv, option, id=f"{' '.join(argv)}-{option}")


class TestEveryRecipeOptionReachesTheConfig:
    """A non-default value of every recipe option a command declares ends
    up in the config the command hands its experiment."""

    @pytest.mark.parametrize("argv, option", list(_reach_cases()))
    def test_option_reaches_the_config(self, argv, option, monkeypatch):
        for module, name, config_of in _ENTRY_POINTS:

            def stub(*args, _config_of=config_of, **kwargs):
                raise _Captured(_config_of(*args, **kwargs), kwargs)

            monkeypatch.setattr(module, name, stub)
        value = _NON_DEFAULT[option]
        argv = [*argv, "--profile", "fast", OPTIONS[option][0], value]
        if argv[0] == "chaos" and option != "network":
            argv += ["--network", "tree"]  # --network both ignores --algorithm
        with pytest.raises(_Captured) as captured:
            main(argv)
        if option == "arbiter_closed":
            reached = captured.value.kwargs[option]
        else:
            reached = getattr(captured.value.config, option)
        assert reached == type(reached)(value)

    def test_every_builder_is_covered(self):
        builders = {argv[0] for argv in _BUILDERS}
        for name, _help, _handler, _options in cli._commands():
            if _declared(name) and name not in builders:
                # takes a recipe option but hands no SimulationConfig on
                assert name in {"fig5", "fig6", "fig7", "analyze", "dimensions", "info"}
