"""The blocked-cycle link counter (``LinkDirection.blocked``) and its readers.

Both twins of the link phase count a blocked cycle where ``pick_lane`` finds
no lane, whether or not a probe listens, exactly once per
``on_direction_blocked`` they fire; the engine snapshots the count at the
warm-up boundary beside ``flits``.  The windowed counters, the flight
recorder, the forensics hotspot section and the ECN marker read windows of it
as deltas, so a restored engine must hand them the same counts an
uninterrupted run does — on either storage.
"""

import contextlib
import dataclasses
import json

import pytest

from repro.experiments.congestion import Overload, OverloadSpec
from repro.obs import WindowedCounterProbe
from repro.obs.flight import Flight, FlightConfig
from repro.obs.forensics import Forensics
from repro.obs.probe import Instrument, Probe, compose_probe
from repro.sim.checkpoint import CheckpointPolicy
from repro.sim.run import build_engine, finish, start, tree_config
from repro.traffic.congestion import CongestionConfig
from repro.traffic.transport import TransportConfig

from .conftest import on_the_other_storage
from .test_property_engine import python_loops
from .test_property_forensics import FIVE_CONFIGS, _build


class BlockedEvents(Probe):
    """``on_direction_blocked`` events per direction: before the warm-up and
    in all."""

    def bind(self, engine):
        self.warmup = engine.config.warmup_cycles
        self.before_warmup = [0] * len(engine.dirs)
        self.seen = [0] * len(engine.dirs)

    def on_direction_blocked(self, cycle, direction):
        self.seen[direction.index] += 1
        if cycle < self.warmup:
            self.before_warmup[direction.index] += 1


class TestTheCounterIsTheEvent:
    @pytest.mark.parametrize("spec", FIVE_CONFIGS)
    def test_one_count_per_event_on_both_twins(self, spec):
        def counts(python: bool):
            events = BlockedEvents()
            engine = build_engine(_build(spec, load=0.9), probe=events)
            with python_loops() if python else contextlib.nullcontext():
                engine.run()
            engine.audit()
            assert [d.blocked for d in engine.dirs] == events.seen
            assert [d.blocked_at_warmup for d in engine.dirs] == events.before_warmup
            return events.seen

        kernel = counts(python=False)
        assert sum(kernel) > 0
        assert counts(python=True) == kernel

    def test_counted_with_no_probe_at_all(self):
        config = _build(dict(network="cube", algorithm="duato", vcs=4), load=0.9)
        events = BlockedEvents()
        observed, bare = build_engine(config, probe=events), build_engine(config)
        observed.run()
        bare.run()
        assert bare._handlers is None
        assert [d.blocked for d in bare.dirs] == events.seen


# -- restores under the counter --------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Counters(Instrument):
    """Two windowed counter probes: from the warm-up on, and from cycle 0."""

    def install(self, engine):
        live = (
            WindowedCounterProbe(window_cycles=64),
            WindowedCounterProbe(window_cycles=64, include_warmup=True),
        )
        for probe in live:
            compose_probe(engine, probe)
        return live


#: a saturated 16-node tree (warm-up 100, counter windows of 64 cycles from
#: there, marker windows of 32 from cycle 0) under every reader of the counter
CONFIG = tree_config(k=4, n=2, vcs=2, load=0.9, warmup_cycles=100, total_cycles=500)
INSTRUMENTS = (
    Counters(),
    Forensics(),
    Flight(FlightConfig(interval_cycles=16, max_intervals=16)),
    Overload(OverloadSpec(
        closed_loop=True, transport=TransportConfig(base_timeout=32, max_retries=2),
        control=CongestionConfig(window_cycles=32, hot_fraction=0.3),
    )),
)
#: the cycle of the one snapshot a killed run leaves: before the warm-up
#: boundary (inside a marker window), inside a counter window (at a marker
#: window's start), inside a marker window (at a counter window's start)
KILLS = {"before-warmup": 90, "mid-counter-window": 192, "mid-marker-window": 228}

_KILL = {"armed": False}


def _kill(engine) -> None:
    """The crash, a cycle after the snapshot; it rides inside that snapshot
    too, disarmed."""
    if _KILL["armed"]:
        _KILL["armed"] = False
        raise KeyboardInterrupt


def blocked_counts(directory=None, kill_after=None) -> str:
    """What the readers of the counter report for :data:`CONFIG`, as JSON.
    With ``kill_after``: snapshot into ``directory`` at that cycle, die a
    cycle later and return ``"killed"``; with ``directory`` alone: resume
    from the snapshot found there."""
    policy = None
    if directory is not None:
        policy = CheckpointPolicy(directory, interval_cycles=kill_after or 10_000)
    engine, run = start(CONFIG, INSTRUMENTS, checkpoint=policy)
    if kill_after is not None:
        assert run == engine.run
        engine.add_cycle_hook(kill_after + 1, _kill)
        _KILL["armed"] = True
        try:
            run()
        except KeyboardInterrupt:
            return "killed"
        raise AssertionError("the run was not killed")
    assert (run == engine.resume_run) == (directory is not None)
    telemetry = finish(engine, run()).telemetry
    measured, whole = next(live for spec, live in engine.instruments if isinstance(spec, Counters))
    return json.dumps({
        "counters": measured.to_dicts(),
        "counters.warmup": whole.to_dicts(),
        "hotspots": telemetry.forensics["hotspots"],
        "flight": telemetry.flight,
        "marker": telemetry.reliability["congestion"]["marking"],
    }, sort_keys=True)


class TestRestoreUnderTheCounter:
    @pytest.fixture(scope="class")
    def reference(self):
        counts = json.loads(blocked_counts())
        assert counts["hotspots"]["total_blocked_cycles"] > 0
        assert counts["marker"]["hot_link_windows"] > 0
        return json.dumps(counts, sort_keys=True)

    @pytest.mark.parametrize("kill_after", KILLS.values(), ids=KILLS)
    def test_killed_and_resumed(self, tmp_path, reference, kill_after):
        assert blocked_counts(str(tmp_path), kill_after) == "killed"
        assert blocked_counts(str(tmp_path)) == reference

    @pytest.mark.parametrize("kill_after", KILLS.values(), ids=KILLS)
    def test_killed_on_one_storage_resumed_on_the_other(self, tmp_path, reference, kill_after):
        there, here = str(tmp_path / "there"), str(tmp_path / "here")
        kill = "tests.test_link_counters.blocked_counts(sys.argv[1], int(sys.argv[2]))"
        resume = "tests.test_link_counters.blocked_counts(sys.argv[1])"
        assert on_the_other_storage(tmp_path, kill, there, str(kill_after)).strip() == "killed"
        assert blocked_counts(here, kill_after) == "killed"
        assert blocked_counts(there) == reference
        assert on_the_other_storage(tmp_path, resume, here).strip() == reference
