"""The instrument matrix: any tier combines with any other, checkpointed.

``simulate(config, instruments=[...])`` is the one instrumented-run
pipeline.  On 16-node networks, for every subset of the observer tiers
{forensics, flight, statehash} under every transport stack {none,
reliable, congested} (plus one fail-stop storm):

* each tier's document equals the one its probe produces when attached
  by hand as the only observer;
* a run killed between two checkpoints and resumed yields the
  byte-identical canonical document — including the combinations the
  command line used to refuse;
* every spec survives ``pickle`` and runs in pool workers via
  ``run_sweep``.

``Faults`` — a random fraction of the channels, failed at a cycle and
optionally repaired — is held to the same contract, plus its own: striking
at cycle 0 is the static injectors' pre-run seizure, and its document is the
only thing it adds to a run's.  So is ``Replay`` — a trace as the traffic,
whose run stops once it drained.
"""

import dataclasses
import itertools
import json
import pickle

import pytest

from repro.errors import CheckpointError, ConfigurationError, DeadlockError
from repro.experiments.chaos import Storm, StormSpec, run_chaos_point
from repro.experiments.congestion import Overload, OverloadSpec, overload_recipe
from repro.experiments.sweep import run_sweep
from repro.faults import (
    Faults,
    fault_population,
    inject_cube_link_faults,
    inject_tree_uplink_faults,
    random_cube_link_faults,
    random_uplink_faults,
)
from repro.metrics.io import run_result_from_dict, run_result_to_dict
from repro.obs.flight import Flight, FlightConfig, FlightRecorder
from repro.obs.forensics import Forensics, ForensicsProbe
from repro.obs.statehash import StateDigestConfig, StateDigestProbe, StateHash
from repro.sim.checkpoint import (
    CheckpointPolicy,
    CheckpointProbe,
    checkpoint_files,
    read_checkpoint_header,
    read_manifest,
)
from repro.obs.ledger import Ledger
from repro.sim.run import Audit, build_engine, cube_config, finish, simulate, start, tree_config
from repro.traffic.congestion import Congested, CongestionConfig, simulate_congested
from repro.traffic.transport import Reliable, TransportConfig, simulate_reliable
from repro.workloads import Replay, butterfly_barrier_trace

from .conftest import on_the_other_storage
from .test_checkpoint import _BOOM, _boom  # the self-disarming crash hook
from .test_checkpoint import DRAINS, drained_run_snapshotting
from .test_checkpoint import FAULT_WINDOW as WINDOW
from .test_checkpoint import FAULTED_CUBE as CUBE
from .test_checkpoint import faulted_run_snapshotting
from .test_determinism import _canonical, _sans_faults

CONFIG = tree_config(
    k=4, n=2, vcs=2, pattern="transpose", load=0.7, seed=7,
    warmup_cycles=100, total_cycles=600,
)
FLIGHT = FlightConfig(interval_cycles=64)
DIGESTS = StateDigestConfig(interval_cycles=100)
TRANSPORT = TransportConfig(base_timeout=32, jitter=8, seed=3)
CONTROL = CongestionConfig(window_cycles=32, hot_fraction=0.3)
#: a trace that drains well inside the runs of :data:`CONFIG`
BARRIER = Replay(butterfly_barrier_trace(16, flits=8))

OBSERVERS = {
    "forensics": Forensics(sample_every=150),
    "flight": Flight(FLIGHT),
    "statehash": StateHash(DIGESTS),
}
STACKS = {
    "none": (),
    "reliable": (Reliable(TRANSPORT),),
    "congested": (Congested(TRANSPORT, CONTROL),),
}
#: the probe each observer is, attached by hand for the reference documents
PROBES = {
    "forensics": lambda: ForensicsProbe(sample_every=150),
    "flight": lambda: FlightRecorder(FLIGHT),
    "statehash": lambda: StateDigestProbe(DIGESTS),
}
SUBSETS = [
    subset
    for size in range(len(OBSERVERS) + 1)
    for subset in itertools.combinations(OBSERVERS, size)
]
MATRIX = [(subset, stack) for stack in STACKS for subset in SUBSETS]


def _id(case) -> str:
    subset, stack = case
    return "+".join(subset or ("plain",)) + "/" + stack


def _tiers(subset, stack) -> list:
    return [OBSERVERS[name] for name in subset] + list(STACKS[stack])


def _alone(stack: str, probe=None):
    """One run under ``stack`` through the entry point it always had."""
    if stack == "reliable":
        return simulate_reliable(CONFIG, TRANSPORT, probe=probe)
    if stack == "congested":
        return simulate_congested(CONFIG, TRANSPORT, CONTROL, probe=probe)
    return simulate(CONFIG, probe=probe)


def _single_tier_document(name: str, stack: str):
    """The document of observer ``name`` when it is the only observer,
    its probe attached by hand rather than through its instrument."""
    probe = PROBES[name]()
    result = _alone(stack, probe=probe)
    return probe.summary() if name == "forensics" else getattr(result.telemetry, name)


_REFERENCE: dict = {}


def _reference(key, make):
    if key not in _REFERENCE:
        _REFERENCE[key] = make()
    return _REFERENCE[key]


def _kill_and_resume(config, tiers, directory):
    """Run under a checkpoint policy, crash at cycle 450 (between the
    snapshots at 400 and 600), then call the pipeline again."""
    policy = CheckpointPolicy(str(directory), interval_cycles=200)
    engine, run = start(config, tiers, checkpoint=policy)
    engine.add_cycle_hook(450, _boom)
    _BOOM["armed"] = True
    try:
        with pytest.raises(KeyboardInterrupt):
            run()
    finally:
        _BOOM["armed"] = False
    newest = checkpoint_files(directory)[0]
    assert read_checkpoint_header(newest)["cycle"] == 400
    resumed = simulate(config, tiers, checkpoint=policy)
    assert not read_manifest(directory)["discarded"]
    return resumed


class TestMatrix:
    @pytest.mark.parametrize("case", MATRIX, ids=_id)
    def test_each_tier_document_equals_its_single_tier_run(self, case):
        subset, stack = case
        result = simulate(CONFIG, _tiers(subset, stack))
        telemetry = result.telemetry
        for name in OBSERVERS:
            doc = getattr(telemetry, name)
            if name not in subset:
                assert doc is None
                continue
            alone = _reference(
                (name, stack), lambda: _single_tier_document(name, stack)
            )
            assert json.dumps(doc, sort_keys=True) == json.dumps(alone, sort_keys=True)
        bare = _reference(("bare", stack), lambda: _alone(stack))
        assert telemetry.reliability == bare.telemetry.reliability
        assert (telemetry.reliability is None) == (stack == "none")
        # the observers do not perturb the run: strip their documents and
        # the whole run document is the bare stack's
        result.telemetry = dataclasses.replace(
            telemetry, **{name: None for name in OBSERVERS}
        )
        assert _canonical(result) == _canonical(bare)

    @pytest.mark.parametrize("case", MATRIX, ids=_id)
    def test_killed_run_resumes_byte_identically(self, case, tmp_path):
        subset, stack = case
        tiers = _tiers(subset, stack)
        reference = _reference(
            ("doc", subset, stack), lambda: _canonical(simulate(CONFIG, tiers))
        )
        assert _canonical(_kill_and_resume(CONFIG, tiers, tmp_path)) == reference

    def test_storm_with_every_observer(self, tmp_path):
        config = cube_config(
            k=4, n=2, algorithm="duato", vcs=4, load=0.6, seed=5,
            warmup_cycles=100, total_cycles=600,
        )
        storm = StormSpec(fault_rate=0.2, repair_cycles=150, storm_seed=9)
        alone = run_chaos_point(config, storm, flight=FLIGHT)
        assert alone.dropped_packets > 0  # the storm really struck
        tiers = [
            OBSERVERS["forensics"], Flight(FLIGHT), OBSERVERS["statehash"],
            Audit(), Storm(storm),
        ]
        combined = simulate(config, tiers)
        assert combined.telemetry.reliability == alone.telemetry.reliability
        assert combined.telemetry.flight == alone.telemetry.flight
        kinds = {a["kind"] for a in combined.telemetry.flight["annotations"]}
        assert {"fault_strike", "fault_repair"} <= kinds
        assert combined.telemetry.forensics is not None
        assert combined.telemetry.statehash is not None
        resumed = _kill_and_resume(config, tiers, tmp_path)
        assert _canonical(resumed) == _canonical(combined)


ALL_SPECS = [
    Forensics(sample_every=150, keep_packets=4),
    Flight(FLIGHT),
    StateHash(DIGESTS),
    Reliable(TRANSPORT),
    Congested(TRANSPORT, CONTROL),
    Storm(StormSpec(fault_rate=0.1, storm_seed=9, transport=TRANSPORT)),
    Overload(OverloadSpec(closed_loop=True, saturation=0.5, transport=TRANSPORT)),
    Audit(),
    Faults(0.2, seed=9, fail_at=300, repair_at=500),
    BARRIER,
]


class TestSpecs:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    def test_spec_is_frozen_hashable_and_pickles(self, spec):
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec and hash(clone) == hash(spec)
        with pytest.raises(Exception):
            setattr(spec, next(iter(vars(spec)), "x"), None)

    @pytest.mark.parametrize(
        "tiers",
        [
            (Forensics(sample_every=150), Flight(FLIGHT), StateHash(DIGESTS)),
            (Flight(FLIGHT), Congested(TRANSPORT, CONTROL)),
            (StateHash(DIGESTS), Audit(), Storm(StormSpec(fault_rate=0.1, storm_seed=9))),
            (Audit(), Overload(OverloadSpec(closed_loop=False, saturation=0.5))),
            (Flight(FLIGHT), Audit(), Faults(0.2, fail_at=300, repair_at=500)),
            (BARRIER, Flight(FLIGHT), StateHash(DIGESTS), Audit()),
        ],
        ids=lambda tiers: "+".join(type(t).__name__ for t in tiers),
    )
    def test_specs_run_in_pool_workers(self, tiers):
        loads = [0.3, 0.7]

        def factory(load):
            return dataclasses.replace(CONFIG, load=load)

        pooled: list = []
        run_sweep(
            factory, loads, "pooled", parallel=True, max_workers=2,
            instruments=tiers, on_result=pooled.append,
        )
        serial = [simulate(factory(load), tiers) for load in loads]
        assert [_canonical(r) for r in pooled] == [_canonical(r) for r in serial]

    def test_sweep_refuses_instruments_with_a_point_function(self):
        with pytest.raises(ConfigurationError, match="not both"):
            run_sweep(
                lambda load: CONFIG, [0.3], "both",
                instruments=[Flight()], simulate_fn=simulate,
            )

    def test_overload_point_is_the_pipeline(self):
        spec = OverloadSpec(
            closed_loop=True, saturation=0.4, arbiter="age",
            transport=TRANSPORT, control=CONTROL,
        )
        derived = dataclasses.replace(CONFIG, arbiter="age", collect_latencies=True)
        tiers = (Flight(FLIGHT), Audit(), Overload(spec))
        assert overload_recipe(CONFIG, spec, [Flight(FLIGHT)]) == (derived, tiers)
        direct = simulate(derived, tiers)
        assert direct.telemetry.reliability["overload"]["mode"] == "closed"
        assert direct.telemetry.flight["rows"] > 0

    def test_restored_run_is_finished_by_its_own_instruments(self, tmp_path):
        # the (spec, live) pairs ride inside the snapshot: the resuming call
        # need not know what the interrupted run was instrumented with
        tiers = [Forensics(sample_every=150), Reliable(TRANSPORT)]
        reference = _canonical(simulate(CONFIG, tiers))
        policy = CheckpointPolicy(str(tmp_path), interval_cycles=200)
        simulate(CONFIG, tiers, checkpoint=policy)
        engine, run = start(CONFIG, (), checkpoint=policy)
        assert [type(spec) for spec, _ in engine.instruments] == [Forensics, Reliable]
        assert engine.instruments[0][1] is engine.find_probe(ForensicsProbe)
        assert run == engine.resume_run
        assert _canonical(finish(engine, run())) == reference


class TestFaults:
    @pytest.mark.parametrize("config", [CONFIG, CUBE], ids=["tree", "cube"])
    @pytest.mark.parametrize("subset", SUBSETS, ids=lambda s: "+".join(s or ("plain",)))
    def test_killed_inside_the_fault_window_resumes_byte_identically(
        self, config, subset, tmp_path
    ):
        tiers = [*(OBSERVERS[name] for name in subset), Audit(), WINDOW]
        reference = simulate(config, tiers)
        assert reference.telemetry.faults["faults"] > 0
        resumed = _kill_and_resume(config, tiers, tmp_path)
        assert _canonical(resumed) == _canonical(reference)

    def test_a_fault_window_open_in_a_snapshot_crosses_storages(self, tmp_path):
        reference = faulted_run_snapshotting()
        there, here = str(tmp_path / "there"), str(tmp_path / "here_")
        child = "tests.test_checkpoint.faulted_run_snapshotting(sys.argv[1])"
        assert on_the_other_storage(tmp_path, child, there).strip() == reference
        assert faulted_run_snapshotting(here) == reference
        # each completed run left its snapshot of cycle 400 behind: resume
        # it, window open, on the storage that did not write it
        assert faulted_run_snapshotting(there) == reference
        assert on_the_other_storage(tmp_path, child, here).strip() == reference
        for resumed in (there, here):
            assert read_manifest(resumed)["discarded"] == []

    @pytest.mark.parametrize("config", [CONFIG, CUBE], ids=["tree", "cube"])
    @pytest.mark.parametrize("fraction", [0.05, 0.2])
    def test_striking_at_cycle_zero_is_the_static_injection(self, config, fraction):
        engine, run = start(config, [Faults(fraction, seed=3)])
        scheduled = finish(engine, run())
        by_hand = build_engine(config)
        count = round(fraction * fault_population(by_hand.topology))
        if config.network == "tree":
            draw = random_uplink_faults(by_hand.topology, count, seed=3)
            assert inject_tree_uplink_faults(by_hand, draw) == count
        else:
            draw = random_cube_link_faults(by_hand.topology, count, seed=3)
            assert inject_cube_link_faults(by_hand, draw) == count
        assert _sans_faults(scheduled) == _canonical(by_hand.run())
        assert engine.state_fingerprint()["root"] == by_hand.state_fingerprint()["root"]
        assert scheduled.telemetry.faults["faults"] == count

    def test_the_document(self):
        result = simulate(CUBE, [WINDOW])
        doc = result.telemetry.faults
        assert doc == {
            "fraction": 0.2, "seed": 5, "fail_at": 300, "repair_at": 500,
            "faults": 13, "population": 64,
            "escape_fraction": doc["escape_fraction"],
        }
        assert 0.0 < doc["escape_fraction"] < 1.0
        # no escape split, no escape share
        assert simulate(CONFIG, [WINDOW]).telemetry.faults["escape_fraction"] is None

    def test_a_flight_recorder_listed_first_sees_the_window(self):
        result = simulate(CUBE, [Flight(FLIGHT), WINDOW])
        stamps = [
            (a["kind"], a["cycle"]) for a in result.telemetry.flight["annotations"]
        ]
        count = result.telemetry.faults["faults"]
        assert stamps.count(("fault_strike", 300)) == count
        assert stamps.count(("fault_repair", 500)) == count
        # listed after the faults, the recorder is not there to be stamped
        late = simulate(CUBE, [WINDOW, Flight(FLIGHT)])
        kinds = {a["kind"] for a in late.telemetry.flight["annotations"]}
        assert not kinds & {"fault_strike", "fault_repair"}
        assert late.telemetry.faults == result.telemetry.faults

    def test_document_round_trips_through_the_ledger(self, tmp_path):
        result = simulate(CUBE, [WINDOW])
        ledger = Ledger(tmp_path / "runs.jsonl")
        ledger.append_run(result, kind="faults")
        (record,) = ledger.records()
        assert record["run"] == run_result_to_dict(result)
        (loaded,) = ledger.runs(kind="faults")
        assert loaded.telemetry.faults == result.telemetry.faults
        assert run_result_to_dict(run_result_from_dict(record["run"])) == record["run"]

    def test_a_fault_free_document_has_no_faults_key(self):
        plain = simulate(CUBE)
        assert plain.telemetry.faults is None
        assert "faults" not in run_result_to_dict(plain)["telemetry"]
        # ... and reads back as None like the four tiers that write a null
        assert run_result_from_dict(run_result_to_dict(plain)).telemetry.faults is None
        baseline = simulate(CUBE, [Faults(0.0)])
        assert baseline.telemetry.faults["faults"] == 0
        assert _sans_faults(baseline) == _canonical(plain)

    @pytest.mark.parametrize("fraction", [-0.1, 1.0])
    def test_fraction_outside_the_population_is_refused(self, fraction):
        with pytest.raises(ConfigurationError, match=r"outside \[0, 1\)"):
            Faults(fraction)

    def test_lane_level_faults_need_an_escape_split(self):
        dor = dataclasses.replace(CUBE, algorithm="dor")
        with pytest.raises(ConfigurationError, match="adaptive algorithm"):
            simulate(dor, [Faults(0.1)])


class TestReplay:
    @pytest.mark.parametrize("network", DRAINS)
    @pytest.mark.parametrize(
        "subset", [(), ("flight", "statehash")], ids=lambda s: "+".join(s or ("plain",))
    )
    def test_a_drain_killed_mid_run_resumes_byte_identically(self, network, subset, tmp_path):
        config, replay = DRAINS[network]
        tiers = [replay, *(OBSERVERS[name] for name in subset)]
        reference = simulate(config, tiers)
        assert 450 < reference.telemetry.cycles < config.total_cycles  # killed mid-drain
        assert _canonical(_kill_and_resume(config, tiers, tmp_path)) == _canonical(reference)

    @pytest.mark.parametrize("network", DRAINS)
    def test_a_drain_resumed_mid_run_crosses_storages(self, network, tmp_path):
        reference = drained_run_snapshotting(None, network)
        there, here = str(tmp_path / "there"), str(tmp_path / "here_")
        child = "tests.test_checkpoint.drained_run_snapshotting(*sys.argv[1:])"
        assert on_the_other_storage(tmp_path, child, there, network).strip() == reference
        assert drained_run_snapshotting(here, network) == reference
        # each completed run left its newest snapshots behind, the drain not
        # yet over in them: resume them on the storage that did not write them
        assert drained_run_snapshotting(there, network) == reference
        assert on_the_other_storage(tmp_path, child, here, network).strip() == reference
        for resumed in (there, here):
            assert read_manifest(resumed)["discarded"] == []

    def test_under_the_transport_a_drain_ends_when_the_protocol_is_quiescent(self):
        config, replay = DRAINS["cube"]
        plain = simulate(config, [replay])
        transport = TransportConfig(ack_delay=100, base_timeout=4096)
        reliable = simulate(config, [replay, Reliable(transport)])
        doc = reliable.telemetry.reliability
        assert doc["acked"] == doc["messages"] == len(replay.messages)
        assert doc["pending"] == 0
        # the network empties in the same cycle; the last ACK lands later
        assert reliable.delivered_flits == plain.delivered_flits
        assert reliable.telemetry.cycles == plain.telemetry.cycles + transport.ack_delay

    def test_an_undrained_trace_at_total_cycles_is_a_deadlock(self):
        config, replay = DRAINS["tree"]
        short = dataclasses.replace(config, total_cycles=300)
        with pytest.raises(
            DeadlockError, match=r"drain did not complete within 300 cycles \(\d+ packets in flight\)"
        ) as caught:
            simulate(short, [replay])
        snapshot = caught.value.snapshot
        assert snapshot.cycle == 300 and snapshot.in_flight > 0

    def test_a_trace_for_another_network_is_refused_at_install(self):
        config, replay = DRAINS["tree"]
        with pytest.raises(ConfigurationError, match="trace built for 16 nodes, network has 64"):
            simulate(dataclasses.replace(config, n=3), [replay])


class TestFlightStreamsAndCheckpoints:
    """A live event stream or watch callback cannot ride inside a
    snapshot: the combination is refused before the first cycle."""

    @pytest.mark.parametrize("stream", ["events", "on_sample"])
    def test_refused_at_install(self, stream, tmp_path):
        events = tmp_path / "events.jsonl"
        kwargs = (
            {"events": str(events)} if stream == "events"
            else {"on_sample": lambda row: None}
        )
        policy = CheckpointPolicy(str(tmp_path / "ckpt"), interval_cycles=100)
        with pytest.raises(ConfigurationError, match="cannot be checkpointed"):
            simulate(CONFIG, [Flight(FLIGHT, **kwargs)], checkpoint=policy)
        assert not events.exists()  # not a row was written
        assert not checkpoint_files(policy.directory)

    def test_streams_without_checkpoint_still_work(self, tmp_path):
        events = tmp_path / "events.jsonl"
        rows: list = []
        result = simulate(
            CONFIG, [Flight(FLIGHT, on_sample=rows.append, events=str(events))]
        )
        assert len(rows) == result.telemetry.flight["rows"]
        assert events.read_text().count('"type": "sample"') == len(rows)

    def test_getstate_guard_is_the_backstop(self, tmp_path):
        # a recorder composed by hand bypasses Flight.install; the snapshot
        # itself still refuses, loudly and typed
        recorder = FlightRecorder(FLIGHT, on_sample=lambda row: None)
        engine, run = start(
            CONFIG, probe=recorder,
            checkpoint=CheckpointPolicy(str(tmp_path), interval_cycles=100),
        )
        assert engine.find_probe(CheckpointProbe) is not None
        with pytest.raises(CheckpointError, match="cannot be checkpointed"):
            run()
        assert engine.cycle == 100  # it got as far as the first periodic save

    def test_cli_rejects_before_simulating(self, tmp_path, capsys):
        from repro.cli import main

        events = tmp_path / "events.jsonl"
        rc = main(
            [
                "run", "--network", "tree", "--k", "2", "--n", "2", "--vcs", "2",
                "--profile", "fast", "--flight", "--events", str(events),
                "--checkpoint", str(tmp_path / "ckpt"), "--checkpoint-every", "100",
            ]
        )
        assert rc == 2
        assert "cannot be checkpointed" in capsys.readouterr().err
        assert not events.exists()
