"""Checkpoint/restore and resumable-campaign regression tests.

The contract under test (see :mod:`repro.sim.checkpoint`): a restored
engine reproduces ``state_fingerprint()`` byte-identically, a resumed
run's document is byte-identical to an uninterrupted run's (wall-clock
telemetry aside), corrupt or stale checkpoints are rejected with
structured discard findings instead of being trusted, and campaign
supervision resumes interrupted points from their newest valid
checkpoint with the *original* seed."""

import copy
import copyreg
import hashlib
import io
import json
import os
import pathlib
import pickle
import pickletools
import random
import signal
import struct
import sys
import threading
import time
import weakref
from functools import partial

import pytest

from repro.errors import CheckpointError, PointTimeoutError, WorkerDiedError
from repro.experiments.chaos import Storm, StormSpec, run_chaos_point
from repro.experiments.congestion import OverloadSpec, overload_recipe
from repro.experiments.runcache import RunCache
from repro.experiments.sweep import _cache_key, _point_task, point_dir, run_sweep
from repro.faults import Faults
from repro.obs.flight import Flight, FlightConfig, FlightRecorder
from repro.obs import statehash
from repro.obs.statehash import StateDigestConfig, StateHash
from repro.router.lane import InputLane, LinkDirection, OutputLane
from repro.sim import checkpoint as checkpoint_module
from repro.sim.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointPolicy,
    CheckpointProbe,
    attach_checkpoints,
    checkpoint_files,
    checkpoint_pickler,
    clear_checkpoints,
    has_resumable,
    install_escalation_handler,
    load_checkpoint,
    manifest_path,
    newest_valid_checkpoint,
    read_checkpoint_header,
    read_manifest,
    record_discards,
    resume_point,
    save_checkpoint,
)
from repro.sim.packet import FAULT_SENTINEL, Packet
from repro.sim.results import RunResult
from repro.sim.run import Audit, build_engine, cube_config, simulate, start, tree_config
from repro.traffic.congestion import CongestionConfig, simulate_congested
from repro.traffic.transport import Reliable, ReliableTransport, TransportConfig, simulate_reliable
from repro.workloads import Replay, alltoall_trace, drained

from .conftest import built_for_the_pickle, on_the_other_storage, small_cube_config, small_tree_config
from .test_determinism import _canonical
from .test_property_forensics import FIVE_CONFIGS, _build


def _policy(directory, interval=250, **kwargs):
    return CheckpointPolicy(str(directory), interval_cycles=interval, **kwargs)


# -- the checkpoint file -------------------------------------------------------


class TestCheckpointFile:
    def test_save_load_fingerprint_roundtrip(self, tmp_path):
        engine = build_engine(small_tree_config(load=0.5))
        path = tmp_path / "ckpt-000000000000.rckpt"
        header = save_checkpoint(engine, path)
        assert header["cycle"] == 0
        assert header["root"] == engine.state_fingerprint()["root"]
        restored, loaded_header = load_checkpoint(path)
        assert loaded_header == header
        assert restored.state_fingerprint() == engine.state_fingerprint()

    def test_fault_sentinel_identity_survives_pickling(self):
        # every `pkt is FAULT_SENTINEL` check in routing/diagnostics
        # must keep working after a restore: the sentinel's reduction
        # overrides the one every packet has from the storage base
        clone = pickle.loads(pickle.dumps(FAULT_SENTINEL))
        assert clone is FAULT_SENTINEL
        payload = io.BytesIO()
        checkpoint_pickler(payload).dump([FAULT_SENTINEL, Packet(3, 0, 1, 4, 0)])
        sentinel, packet = pickle.loads(payload.getvalue())
        assert sentinel is FAULT_SENTINEL and type(packet) is Packet and packet.pid == 3

    @pytest.mark.parametrize("network", ["tree", "cube"])
    def test_the_pickler_memo_holds_the_engine_graph_and_nothing_beside_it(self, network):
        # a state built only to be pickled — a lane's list of values, a
        # slotted source's or message's (None, {name: value}) pair, a copy of
        # the engine's dict — would stay in the memo until the dump ends: a
        # second copy of the fabric, of the sources and of the messages
        engine, run = start(MEMO_CONFIGS[network], [
            Flight(FlightConfig(interval_cycles=64)),
            Reliable(TransportConfig(base_timeout=16, jitter=8, seed=3)),
        ])
        engine.add_cycle_hook(300, _boom)
        _BOOM["armed"] = True
        try:
            with pytest.raises(KeyboardInterrupt):
                run()
        finally:
            _BOOM["armed"] = False
        transport = engine.find_probe(ReliableTransport)
        assert transport._by_pid and any(b.packet is not None for b in engine.bindings)
        assert built_for_the_pickle(engine) == []

    def test_corrupt_payload_rejected(self, tmp_path):
        engine = build_engine(small_tree_config())
        path = tmp_path / "ckpt-000000000000.rckpt"
        save_checkpoint(engine, path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip one payload bit
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert exc.value.kind == "corrupt"
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob[: -len(blob) // 3]))  # cut inside the payload
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert exc.value.kind == "corrupt"

    def test_header_records_what_follows_it(self, tmp_path):
        # the payload streams to disk before its digest and size are known:
        # the header line is padded to a fixed width and rewritten in place
        engine = build_engine(small_tree_config(load=0.5))
        for _ in range(200):
            engine.step()
        path = tmp_path / "ckpt-000000000200.rckpt"
        header = save_checkpoint(engine, path)
        header_line, payload = path.read_bytes().split(b"\n", 1)
        assert header_line.endswith(b" ") and json.loads(header_line) == header
        assert read_checkpoint_header(path) == header
        assert header["payload_bytes"] == len(payload)
        assert header["payload_digest"] == hashlib.blake2b(payload, digest_size=16).hexdigest()
        assert pickle.loads(payload).cycle == 200
        assert not list(tmp_path.glob("*.tmp"))

    def test_mid_run_checkpoint_is_smaller_than_format_2(self, tmp_path):
        # lanes and packets pickle as value lists: no per-object dict, no
        # slot-name strings.  Format 2 wrote 534 030 bytes for this state.
        config = tree_config(
            k=4, n=3, vcs=4, load=0.6, seed=5, warmup_cycles=50, total_cycles=400
        )
        engine = build_engine(config)
        while engine.cycle < 200:
            engine.step()
        path = tmp_path / "ckpt-000000000200.rckpt"
        save_checkpoint(engine, path)
        assert path.stat().st_size < 0.8 * 534_030
        restored, _ = load_checkpoint(path, config=config)
        assert restored.state_fingerprint() == engine.state_fingerprint()

    def test_stale_config_rejected(self, tmp_path):
        engine = build_engine(small_tree_config(seed=7))
        path = tmp_path / "ckpt-000000000000.rckpt"
        save_checkpoint(engine, path)
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path, config=small_tree_config(seed=8))
        assert exc.value.kind == "stale"

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "ckpt-000000000000.rckpt"
        path.write_bytes(b"not a checkpoint\x00\x01")
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert exc.value.kind == "corrupt"

    def test_unpicklable_live_resource_raises(self, tmp_path):
        # a flight recorder streaming through a live callback cannot
        # ride inside a snapshot; the failure must be loud and typed
        recorder = FlightRecorder(
            FlightConfig(interval_cycles=64), on_sample=lambda row: None
        )
        engine = build_engine(small_tree_config(), probe=recorder)
        with pytest.raises(CheckpointError):
            save_checkpoint(engine, tmp_path / "ckpt-000000000000.rckpt")
        assert not list(tmp_path.iterdir())  # the half-written temp file is gone

    def test_discards_recorded_in_manifest(self, tmp_path):
        config = small_tree_config()
        engine = build_engine(config)
        good = tmp_path / "ckpt-000000000000.rckpt"
        save_checkpoint(engine, good)
        bad = tmp_path / "ckpt-000000000100.rckpt"  # newer, but corrupt
        blob = bytearray(good.read_bytes())
        blob[-1] ^= 0xFF
        bad.write_bytes(bytes(blob))
        loaded = newest_valid_checkpoint(tmp_path, config=config)
        assert loaded is not None
        assert loaded[1]["cycle"] == 0  # fell back past the corrupt file
        discarded = read_manifest(tmp_path)["discarded"]
        assert [d["kind"] for d in discarded] == ["corrupt"]
        assert discarded[0]["file"] == bad.name

    def test_previous_format_version_discarded_before_unpickling(self, tmp_path, monkeypatch):
        # a version-4 payload holds link directions without their blocked
        # counters, a list of values this build's LinkDirection.extend refuses;
        # it must be turned away at the header, as a structured finding with
        # its reason, not fail with a ValueError mid-unpickle
        config = small_tree_config()
        engine = build_engine(config)
        for _ in range(150):  # past the warm-up, with flits in flight
            engine.step()
        path = tmp_path / "ckpt-000000000150.rckpt"
        with monkeypatch.context() as old:
            old.setattr(checkpoint_module, "CHECKPOINT_FORMAT_VERSION", 4)
            old.setattr(LinkDirection, "__reduce_ex__", lambda d, protocol: (
                copyreg.__newobj__, (type(d),), None,
                iter([d.lanes, d.index, d.rr, d.nbusy, d.to_node, d.flits, d.flits_at_warmup]),
            ))
            save_checkpoint(engine, path)
        header_line, payload = path.read_bytes().split(b"\n", 1)
        assert json.loads(header_line)["format"] == 4
        with pytest.raises(ValueError):
            pickle.loads(payload)  # what the header gate spares a resume
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert exc.value.kind == "stale"
        assert not has_resumable(tmp_path, config)
        assert resume_point(_policy(tmp_path), config) is None
        discarded = read_manifest(tmp_path)["discarded"]
        assert [(d["file"], d["kind"]) for d in discarded] == [(path.name, "stale")]
        assert f"checkpoint format 4, this build reads {CHECKPOINT_FORMAT_VERSION}" in discarded[0]["error"]

    def test_saturated_cube_checkpoints_under_default_recursion_limit(self, tmp_path, monkeypatch):
        # pickle walks the lane graph depth-first; every edge between lanes
        # points downstream, so the dump goes as deep as one worm: a hundred
        # frames above the caller's are room enough, and the limit is never
        # raised
        config, engine = saturated_duato_cube()
        path = tmp_path / "ckpt-000000000400.rckpt"
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + 100)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(sys, "setrecursionlimit", _no_recursion_limit)
                save_checkpoint(engine, path)
                restored, _ = load_checkpoint(path, config=config)
        finally:
            sys.setrecursionlimit(limit)
        assert restored.state_fingerprint() == engine.state_fingerprint()

    def test_a_plain_pickle_of_the_saturated_cube_round_trips_under_the_default_limit(self):
        config, engine = saturated_duato_cube()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)  # CPython's default
        try:
            restored = pickle.loads(pickle.dumps(engine))
        finally:
            sys.setrecursionlimit(limit)
        assert restored.state_fingerprint() == engine.state_fingerprint()


def saturated_duato_cube():
    """A 16-ary 2-cube under Duato routing at load 0.9, at cycle 400: worms
    in every corner of the fabric.  The config and the engine."""
    config = cube_config(
        k=16, n=2, algorithm="duato", vcs=4, load=0.9, seed=3,
        warmup_cycles=100, total_cycles=900,
    )
    engine = build_engine(config)
    while engine.cycle < 400:
        engine.step()
    assert len(engine.bindings) > 1000
    return config, engine


def stack_depth() -> int:
    """Frames on the caller's stack, the caller's included."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def _no_recursion_limit(limit):
    raise AssertionError(f"sys.setrecursionlimit({limit}) called")


class TestDeepCopies:
    def test_a_deep_copy_of_a_chaos_engine_steps_beside_the_original(self):
        # copy's own rebuild feeds a reduction's list items to append, which
        # no field-list class has; the copy must share nothing it steps
        engine, _ = start(PACKED_CHAOS["tree"], [Flight(FlightConfig(interval_cycles=64)), PACKED_STORM])
        engine.probe.on_run_start(engine)
        while engine.cycle < 500:
            engine.step()
        assert engine.find_probe(ReliableTransport)._by_pid and engine.dropped_packets_total
        root = engine.state_fingerprint()["root"]
        twin = copy.deepcopy(engine)
        assert twin.state_fingerprint()["root"] == root
        for _ in range(200):
            twin.step()
        assert engine.state_fingerprint()["root"] == root
        for _ in range(200):
            engine.step()
        assert twin.state_fingerprint()["root"] == engine.state_fingerprint()["root"] != root
        twin.audit()


# -- packed Mersenne states ----------------------------------------------------


class TestPackedMersenneStates:
    @pytest.mark.parametrize("network", ["tree", "cube"])
    def test_a_mid_run_chaos_engine_restores_every_stream(self, network, tmp_path):
        # each node's source, the transport's jitter and the adaptive
        # routing draw on after the restore as they do live, under either
        # storage, and both storages write the same root and payload size
        here = packed_streams_roundtrip(tmp_path / "here", network)
        child = "tests.test_checkpoint.packed_streams_roundtrip(sys.argv[1], sys.argv[2])"
        there = on_the_other_storage(tmp_path, child, str(tmp_path / "there"), network)
        assert there.strip() == here

    def test_a_subclass_and_a_non_v3_state_keep_the_default_reduce(self, tmp_path):
        engine = build_engine(small_tree_config())
        older = random.Random(11)
        _version, internal, gauss = older.getstate()
        older.getstate = lambda: (2, internal, gauss)
        engine.spare_streams = [_SubRandom(7), older]
        assert checkpoint_module._reduce_rng(older)[0] is random.Random
        path = tmp_path / "ckpt-000000000000.rckpt"
        save_checkpoint(engine, path)
        payload = path.read_bytes().split(b"\n", 1)[1]
        assert _tuple_lengths(payload).count(MT_WORDS) == 2
        sub, back = load_checkpoint(path)[0].spare_streams
        assert type(sub) is _SubRandom and type(back) is random.Random
        assert _draws(sub) == _draws(_SubRandom(7))
        assert _draws(back) == _draws(random.Random(11))

    @pytest.mark.parametrize("delta", [-4, 4, -1], ids=["624-words", "626-words", "odd-length"])
    def test_a_packed_state_of_the_wrong_size_is_discarded_as_corrupt(self, delta, tmp_path):
        config = small_tree_config()
        engine = build_engine(config)
        for _ in range(150):
            engine.step()
        path = tmp_path / "ckpt-000000000150.rckpt"
        save_checkpoint(engine, path)
        _resize_first_packed_state(path, delta)
        assert read_checkpoint_header(path)["payload_bytes"] == len(path.read_bytes().split(b"\n", 1)[1])
        assert resume_point(_policy(tmp_path), config) is None
        discarded = read_manifest(tmp_path)["discarded"]
        assert [(d["file"], d["kind"]) for d in discarded] == [(path.name, "corrupt")]
        assert f"packed Mersenne state is {2500 + delta} bytes, not 2500" in discarded[0]["error"]

    def test_a_format_5_file_is_discarded_at_the_header(self, tmp_path, monkeypatch):
        config = small_tree_config()
        engine = build_engine(config)
        for _ in range(150):
            engine.step()
        path = tmp_path / "ckpt-000000000150.rckpt"
        with monkeypatch.context() as old:
            _as_format_5(old)
            save_checkpoint(engine, path)
        header_line, payload = path.read_bytes().split(b"\n", 1)
        assert json.loads(header_line)["format"] == 5
        assert MT_WORDS in _tuple_lengths(payload)

        def never(data):
            raise AssertionError("a stale payload was unpickled")

        monkeypatch.setattr(pickle, "loads", never)
        assert resume_point(_policy(tmp_path), config) is None
        discarded = read_manifest(tmp_path)["discarded"]
        assert [(d["file"], d["kind"]) for d in discarded] == [(path.name, "stale")]
        assert f"checkpoint format 5, this build reads {CHECKPOINT_FORMAT_VERSION}" in discarded[0]["error"]

    def test_a_format_6_file_is_discarded_at_the_header(self, tmp_path, monkeypatch):
        # format 6 pickled the routing algorithm's reference to its engine
        config = small_tree_config()
        engine = build_engine(config)
        for _ in range(150):
            engine.step()
        path = tmp_path / "ckpt-000000000150.rckpt"
        with monkeypatch.context() as old:
            old.setattr(checkpoint_module, "CHECKPOINT_FORMAT_VERSION", 6)
            old.setattr(engine.routing, "engine", engine, raising=False)
            save_checkpoint(engine, path)
        header_line, payload = path.read_bytes().split(b"\n", 1)
        assert json.loads(header_line)["format"] == 6
        restored = pickle.loads(payload)
        assert restored.routing.engine is restored

        def never(data):
            raise AssertionError("a stale payload was unpickled")

        monkeypatch.setattr(pickle, "loads", never)
        assert resume_point(_policy(tmp_path), config) is None
        discarded = read_manifest(tmp_path)["discarded"]
        assert [(d["file"], d["kind"]) for d in discarded] == [(path.name, "stale")]
        assert f"checkpoint format 6, this build reads {CHECKPOINT_FORMAT_VERSION}" in discarded[0]["error"]

    def test_a_format_7_file_is_discarded_at_the_header(self, tmp_path, monkeypatch):
        # format 7 pickled a direction as a state list without its index
        # (and its rotations rebuilt on restore): this build has no
        # __setstate__ to take it
        config = small_tree_config()
        engine = build_engine(config)
        for _ in range(150):
            engine.step()
        path = tmp_path / "ckpt-000000000150.rckpt"
        with monkeypatch.context() as old:
            old.setattr(checkpoint_module, "CHECKPOINT_FORMAT_VERSION", 7)
            old.setattr(LinkDirection, "__reduce_ex__", lambda d, protocol: (
                copyreg.__newobj__, (type(d),),
                [d.lanes, d.rr, d.nbusy, d.to_node, d.flits, d.flits_at_warmup,
                 d.blocked, d.blocked_at_warmup],
            ))
            save_checkpoint(engine, path)
        header_line, payload = path.read_bytes().split(b"\n", 1)
        assert json.loads(header_line)["format"] == 7
        with pytest.raises(pickle.UnpicklingError):
            pickle.loads(payload)

        def never(data):
            raise AssertionError("a stale payload was unpickled")

        monkeypatch.setattr(pickle, "loads", never)
        assert resume_point(_policy(tmp_path), config) is None
        discarded = read_manifest(tmp_path)["discarded"]
        assert [(d["file"], d["kind"]) for d in discarded] == [(path.name, "stale")]
        assert f"checkpoint format 7, this build reads {CHECKPOINT_FORMAT_VERSION}" in discarded[0]["error"]

    def test_a_format_8_file_is_discarded_at_the_header(self, tmp_path, monkeypatch):
        # format 8 pickled a lane's direction and its feeding output lane as
        # references (OutputLane.direction, InputLane.src_out) where this
        # build reads indices (dir, src_dir)
        config = small_tree_config()
        engine = build_engine(config)
        for _ in range(150):
            engine.step()
        path = tmp_path / "ckpt-000000000150.rckpt"
        vcs = config.vcs

        def as_format_8(cls, name, edge):
            def reduce_ex(lane, protocol):
                values = [getattr(lane, field) for field, _ in cls.FIELDS]
                values[[field for field, _ in cls.FIELDS].index(name)] = edge(lane)
                return copyreg.__newobj__, (type(lane),), None, iter(values)
            return reduce_ex

        with monkeypatch.context() as old:
            old.setattr(checkpoint_module, "CHECKPOINT_FORMAT_VERSION", 8)
            old.setattr(OutputLane, "__reduce_ex__", as_format_8(OutputLane, "dir", lambda lane: engine.dirs[lane.dir]))
            old.setattr(InputLane, "__reduce_ex__", as_format_8(InputLane, "src_dir", lambda lane: (
                None if lane.src_dir < 0 else engine._fabric_out[lane.src_dir * vcs + lane.vc])))
            save_checkpoint(engine, path)
        header_line, payload = path.read_bytes().split(b"\n", 1)
        assert json.loads(header_line)["format"] == 8
        try:
            restored = pickle.loads(payload)
        except TypeError:
            pass  # the kernel's storage refuses a reference where an index belongs
        else:  # the other stores it, and the crossbar would fail mid-run
            assert type(restored.dirs[0].lanes[0].dir) is type(restored.dirs[0])

        def never(data):
            raise AssertionError("a stale payload was unpickled")

        monkeypatch.setattr(pickle, "loads", never)
        assert resume_point(_policy(tmp_path), config) is None
        discarded = read_manifest(tmp_path)["discarded"]
        assert [(d["file"], d["kind"]) for d in discarded] == [(path.name, "stale")]
        assert f"checkpoint format 8, this build reads {CHECKPOINT_FORMAT_VERSION}" in discarded[0]["error"]

    def test_a_format_9_transport_file_is_discarded_as_stale(self, tmp_path, monkeypatch):
        # a format-9 header's root is a statehash format 1 fingerprint, which
        # hashed the transport's per-flow sequence table: its payload would
        # unpickle and restore fine, and only the root gate would refuse it
        config = small_tree_config()
        engine = build_engine(config)
        ReliableTransport(TransportConfig(base_timeout=16, jitter=8, seed=3)).install(engine)
        engine.probe.on_run_start(engine)
        for _ in range(150):
            engine.step()
        path = tmp_path / "ckpt-000000000150.rckpt"
        rows = statehash._transport_tables

        def as_format_1(tp):
            counters, *rest = rows(tp)
            flows = {(0, 1): (0, 1, 1)}
            return [counters, (("next_seq",), ("src", "dst", "seq"), flows), statehash._SEP, *rest]

        with monkeypatch.context() as old:
            old.setattr(checkpoint_module, "CHECKPOINT_FORMAT_VERSION", 9)
            with monkeypatch.context() as format_1:
                format_1.setattr(statehash, "_transport_tables", as_format_1)
                save_checkpoint(engine, path)
            with pytest.raises(CheckpointError) as exc:
                load_checkpoint(path, config)
            assert exc.value.kind == "fingerprint-mismatch"
        assert resume_point(_policy(tmp_path), config) is None
        discarded = read_manifest(tmp_path)["discarded"]
        assert [(d["file"], d["kind"]) for d in discarded] == [(path.name, "stale")]
        assert f"checkpoint format 9, this build reads {CHECKPOINT_FORMAT_VERSION}" in discarded[0]["error"]

    def test_a_format_10_transport_file_is_discarded_as_stale(self, tmp_path, monkeypatch):
        # a format-10 header's root is a statehash format 2 fingerprint, which
        # hashed a per-node unresolved table, every empty queue and the dead
        # timers: its payload would unpickle, and only the root gate would
        # refuse it
        config = small_tree_config()
        engine = build_engine(config)
        ReliableTransport(TransportConfig(base_timeout=16, jitter=8, seed=3)).install(engine)
        engine.probe.on_run_start(engine)
        for _ in range(150):
            engine.step()
        path = tmp_path / "ckpt-000000000150.rckpt"
        rows = statehash._transport_tables

        def as_format_2(tp):
            counters, *rest = rows(tp)
            unresolved = {node.nid: (node.nid, 0) for node in engine.nodes}
            return [counters, (("unresolved",), ("node", "count"), unresolved), *rest]

        with monkeypatch.context() as old:
            old.setattr(checkpoint_module, "CHECKPOINT_FORMAT_VERSION", 10)
            with monkeypatch.context() as format_2:
                format_2.setattr(statehash, "_transport_tables", as_format_2)
                save_checkpoint(engine, path)
            with pytest.raises(CheckpointError) as exc:
                load_checkpoint(path, config)
            assert exc.value.kind == "fingerprint-mismatch"
        assert resume_point(_policy(tmp_path), config) is None
        discarded = read_manifest(tmp_path)["discarded"]
        assert [(d["file"], d["kind"]) for d in discarded] == [(path.name, "stale")]
        assert f"checkpoint format 10, this build reads {CHECKPOINT_FORMAT_VERSION}" in discarded[0]["error"]

    def test_a_format_5_campaign_reruns_its_interrupted_point(self, tmp_path, monkeypatch):
        config = small_tree_config(load=0.3)
        reference = _canonical(simulate(config))
        checkpoints = CheckpointPolicy(str(tmp_path / "camp"), interval_cycles=200)
        sweep = partial(run_sweep, lambda load: small_tree_config(load=load), [0.3], "ckpt-format-5",
                        use_cache=False, checkpoints=checkpoints)
        with monkeypatch.context() as old:
            _as_format_5(old)
            with pytest.raises(KeyboardInterrupt):
                sweep(simulate_fn=_interrupt_after_checkpointing)
        pdir = point_dir(checkpoints, "ckpt-format-5", _cache_key(config))
        stale = checkpoint_files(pdir)
        assert [json.loads(p.read_bytes().split(b"\n", 1)[0])["format"] for p in stale] == [5, 5]
        resumed: list = []
        sweep(on_result=resumed.append)
        assert [_canonical(r) for r in resumed] == [reference]
        manifest = read_manifest(pdir)
        assert [(d["file"], d["kind"]) for d in manifest["discarded"]] == [(p.name, "stale") for p in stale]
        assert manifest["completed"] is True and checkpoint_files(pdir) == []


# -- resume identity -----------------------------------------------------------


class TestResumeIdentity:
    @pytest.mark.parametrize("spec", FIVE_CONFIGS)
    def test_resumed_run_matches_uninterrupted(self, spec, tmp_path):
        config = _build(spec)
        reference = _canonical(simulate(config))
        policy = _policy(tmp_path)
        # the checkpointed run itself must not perturb the simulation
        assert _canonical(simulate(config, checkpoint=policy)) == reference
        # mid-run snapshots remain on disk; a second call restores the
        # newest one and replays only the tail
        assert has_resumable(tmp_path, config)
        assert _canonical(simulate(config, checkpoint=policy)) == reference

    def test_interrupted_run_resumes_byte_identically(self, tmp_path):
        config = _build(dict(network="cube", algorithm="dor", vcs=4))
        reference = _canonical(simulate(config))
        policy = _policy(tmp_path, interval=200)
        engine = build_engine(config)
        attach_checkpoints(engine, policy)
        engine.add_cycle_hook(450, _boom)
        _BOOM["armed"] = True
        try:
            with pytest.raises(KeyboardInterrupt):
                engine.run()
        finally:
            _BOOM["armed"] = False
        # the crash landed between checkpoints 400 and 600
        assert [h["cycle"] for h in _headers(tmp_path)] == [200, 400]
        assert _canonical(simulate(config, checkpoint=policy)) == reference

    def test_statehash_chain_identical_across_resume(self, tmp_path):
        config = _build(dict(network="tree", vcs=2))
        tiers = [StateHash(StateDigestConfig(interval_cycles=100))]
        reference = simulate(config, tiers)
        policy = _policy(tmp_path)
        simulate(config, tiers, checkpoint=policy)
        resumed = simulate(config, tiers, checkpoint=policy)
        assert (
            resumed.telemetry.statehash["chain"]
            == reference.telemetry.statehash["chain"]
        )
        assert _canonical(resumed) == _canonical(reference)

    def test_flight_timeline_identical_across_resume(self, tmp_path):
        config = _build(dict(network="tree", vcs=2))
        tiers = [Flight(FlightConfig(interval_cycles=64))]
        reference = _canonical(simulate(config, tiers))
        policy = _policy(tmp_path)
        simulate(config, tiers, checkpoint=policy)
        resumed = simulate(config, tiers, checkpoint=policy)
        assert _canonical(resumed) == reference

    def test_reliable_transport_resume(self, tmp_path):
        config = small_tree_config(load=0.6)
        transport = TransportConfig(base_timeout=16, jitter=8, seed=3)
        reference = _canonical(simulate_reliable(config, transport))
        policy = _policy(tmp_path, interval=200)
        simulate_reliable(config, transport, checkpoint=policy)
        resumed = simulate_reliable(config, transport, checkpoint=policy)
        assert _canonical(resumed) == reference

    def test_closed_congestion_loop_resume(self, tmp_path):
        config = small_tree_config(load=0.8)
        transport = TransportConfig(base_timeout=32, jitter=8, seed=3)
        control = CongestionConfig(window_cycles=32, hot_fraction=0.3)
        reference = _canonical(simulate_congested(config, transport, control))
        policy = _policy(tmp_path, interval=200)
        simulate_congested(config, transport, control, checkpoint=policy)
        resumed = simulate_congested(config, transport, control, checkpoint=policy)
        assert _canonical(resumed) == reference

    def test_chaos_storm_resume(self, tmp_path):
        config = _build(dict(network="tree", vcs=2), load=0.6)
        storm = StormSpec(fault_rate=0.2, storm_seed=9)
        reference = _canonical(run_chaos_point(config, storm))
        policy = _policy(tmp_path, interval=200)
        run_chaos_point(config, storm, checkpoint=policy)
        resumed = run_chaos_point(config, storm, checkpoint=policy)
        assert _canonical(resumed) == reference

    def test_overload_point_resume(self, tmp_path):
        config = small_tree_config(load=0.6)
        spec = OverloadSpec(
            closed_loop=True,
            saturation=0.4,
            arbiter="age",
            transport=TransportConfig(base_timeout=32, jitter=4),
            control=CongestionConfig(window_cycles=32),
        )
        config, tiers = overload_recipe(config, spec)
        reference = _canonical(simulate(config, tiers))
        policy = _policy(tmp_path, interval=200)
        simulate(config, tiers, checkpoint=policy)
        resumed = simulate(config, tiers, checkpoint=policy)
        assert _canonical(resumed) == reference

    def test_a_snapshot_written_under_one_storage_resumes_under_the_other(self, tmp_path):
        # a run that completes leaves its mid-run snapshots behind; the next
        # call restores the newest and replays the tail.  The child process
        # keeps its lanes, packets and nodes in the storage this one does not
        reference = reliable_run_snapshotting()
        there, here = str(tmp_path / "there"), str(tmp_path / "here_")  # the path is in the payload
        child = "tests.test_checkpoint.reliable_run_snapshotting(sys.argv[1])"
        assert on_the_other_storage(tmp_path, child, there).strip() == reference
        assert reliable_run_snapshotting(here) == reference
        for first in (there, here):
            assert {header["format"] for header in _headers(first)} == {CHECKPOINT_FORMAT_VERSION}
        # the same payload sizes and roots: what is pickled does not say which storage held it
        assert read_manifest(there)["checkpoints"] == read_manifest(here)["checkpoints"]
        restored, header = load_checkpoint(checkpoint_files(there)[-1])
        assert restored.state_fingerprint()["root"] == header["root"]
        assert reliable_run_snapshotting(there) == reference
        assert on_the_other_storage(tmp_path, child, here).strip() == reference
        for resumed in (there, here):
            assert read_manifest(resumed)["discarded"] == []
            assert [header["cycle"] for header in _headers(resumed)] == [200, 400]

    def test_resume_point_without_checkpoints_returns_none(self, tmp_path):
        assert resume_point(_policy(tmp_path), small_tree_config()) is None

    def test_stale_checkpoints_fall_through_to_fresh_run(self, tmp_path):
        policy = _policy(tmp_path)
        simulate(small_tree_config(seed=7), checkpoint=policy)
        other = small_tree_config(seed=8)
        # the directory holds only seed-7 snapshots: a seed-8 run must
        # discard them (structured finding) and run from scratch
        assert _canonical(simulate(other, checkpoint=policy)) == _canonical(
            simulate(other)
        )
        kinds = {d["kind"] for d in read_manifest(tmp_path)["discarded"]}
        assert kinds == {"stale"}


# -- probe housekeeping --------------------------------------------------------


class TestProbeHousekeeping:
    def test_keep_prunes_and_manifest_tracks(self, tmp_path):
        config = small_tree_config()  # 600 cycles
        policy = _policy(tmp_path, interval=100)
        simulate(config, checkpoint=policy)
        headers = _headers(tmp_path)
        assert [h["cycle"] for h in headers] == [400, 500]
        manifest = read_manifest(tmp_path)
        assert [e["cycle"] for e in manifest["checkpoints"]] == [400, 500]
        assert manifest["config"] == headers[0]["config"]
        assert manifest["completed"] is False

    @pytest.mark.parametrize("damage", ["truncated", "flipped-byte", "older-format"])
    def test_a_damaged_manifest_reads_as_an_empty_one(self, tmp_path, damage):
        config = small_tree_config()
        simulate(config, checkpoint=_policy(tmp_path, interval=200))
        path = manifest_path(tmp_path)
        data = path.read_bytes()
        if damage == "truncated":
            data = data[: len(data) // 2]
        elif damage == "flipped-byte":
            data = data[:20] + b"\xff" + data[21:]
        else:
            data = json.dumps({**json.loads(data), "format": CHECKPOINT_FORMAT_VERSION - 1}).encode()
        path.write_bytes(data)
        manifest = read_manifest(tmp_path)
        assert (manifest["config"], manifest["checkpoints"], manifest["discarded"]) == (None, [], [])
        # and the directory still resumes to the uninterrupted document
        assert _canonical(simulate(config, checkpoint=_policy(tmp_path, interval=200))) == (
            _canonical(simulate(config))
        )

    def test_clear_checkpoints_marks_completed(self, tmp_path):
        simulate(small_tree_config(), checkpoint=_policy(tmp_path, interval=200))
        clear_checkpoints(tmp_path)
        assert checkpoint_files(tmp_path) == []
        manifest = read_manifest(tmp_path)
        assert manifest["checkpoints"] == []
        assert manifest["completed"] is True

    def test_has_resumable_filters_by_config(self, tmp_path):
        config = small_tree_config(seed=7)
        simulate(config, checkpoint=_policy(tmp_path))
        assert has_resumable(tmp_path, config)
        assert not has_resumable(tmp_path, small_tree_config(seed=8))
        assert not has_resumable(tmp_path / "absent", config)

    def test_escalation_request_checkpoints_at_next_boundary(self, tmp_path):
        config = small_tree_config()
        engine = build_engine(config)
        probe = attach_checkpoints(engine, _policy(tmp_path, interval=200))
        engine.add_cycle_hook(250, _request_checkpoint)
        engine.run()
        assert probe.escalations == 1
        # periodic at 200 (pruned later), escalation lands at 251
        assert 251 in [h["cycle"] for h in _headers(tmp_path)]
        snapshots = list(pathlib.Path(tmp_path).glob("escalation-*.json"))
        assert len(snapshots) == 1
        doc = json.loads(snapshots[0].read_text())
        assert doc["cycle"] == 251
        assert doc["reason"] == "soft-timeout escalation"

    def test_sigusr1_routes_to_live_probes(self, tmp_path):
        if not hasattr(signal, "SIGUSR1"):
            pytest.skip("no SIGUSR1 on this platform")
        previous = signal.getsignal(signal.SIGUSR1)
        try:
            assert install_escalation_handler()
            config = small_tree_config()
            engine = build_engine(config)
            probe = attach_checkpoints(engine, _policy(tmp_path, interval=200))
            engine.add_cycle_hook(250, _self_sigusr1)
            engine.run()
            assert probe.escalations == 1
        finally:
            signal.signal(signal.SIGUSR1, previous)


# -- durable writes ------------------------------------------------------------


class TestDurableWrites:
    """Cache entries, manifests and checkpoints share one write path
    (``atomic_write``): a write that fails leaves the old file as it was
    and no temp file behind."""

    @pytest.mark.parametrize("writer", ["cache entry", "manifest", "checkpoint"])
    def test_a_failed_write_leaves_the_old_file_and_no_temp_file(
        self, tmp_path, monkeypatch, writer
    ):
        engine = build_engine(small_tree_config())

        def write(version):
            if writer == "cache entry":
                result = RunResult(config=small_tree_config(seed=version), measured_cycles=1)
                return RunCache(tmp_path).put(("key",), result)
            if writer == "manifest":
                record_discards(tmp_path, [{"file": f"v{version}"}])
                return manifest_path(tmp_path)
            engine.step()
            save_checkpoint(engine, tmp_path / "ckpt-000000000001.rckpt")
            return tmp_path / "ckpt-000000000001.rckpt"

        path = write(1)
        before = path.read_bytes()

        def fsync(fd):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "fsync", fsync)
        with pytest.raises(OSError, match="no space left"):
            write(2)
        assert path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))


# -- campaign supervision ------------------------------------------------------


class TestCampaignSupervision:
    def test_sweep_resume_reloads_completed_points(self, tmp_path):
        loads = [0.2, 0.4, 0.6]
        factory = partial(small_tree_config)
        collected: list = []
        reference = run_sweep(
            lambda load: factory(load=load),
            loads,
            "ckpt-test",
            use_cache=False,
            on_result=collected.append,
        )
        reference_docs = sorted(_canonical(r) for r in collected)

        checkpoints = CheckpointPolicy(str(tmp_path / "camp"), interval_cycles=200)
        _CALLS["n"] = 0
        with pytest.raises(KeyboardInterrupt):
            run_sweep(
                lambda load: factory(load=load),
                loads,
                "ckpt-test",
                use_cache=False,
                simulate_fn=_interrupt_third_point,
                checkpoints=checkpoints,
            )
        # the two completed points were flushed to their per-point caches
        cached = [
            RunCache(point_dir(checkpoints, "ckpt-test", _cache_key(factory(load=l)))).get(
                _cache_key(factory(load=l))
            )
            for l in loads
        ]
        assert sum(r is not None for r in cached) == 2

        resumed: list = []
        series = run_sweep(
            lambda load: factory(load=load),
            loads,
            "ckpt-test",
            use_cache=False,
            checkpoints=checkpoints,
            on_result=resumed.append,
        )
        assert len(series) == len(reference)
        assert sorted(_canonical(r) for r in resumed) == reference_docs

    def test_completed_point_clears_its_checkpoints(self, tmp_path):
        config = small_tree_config(load=0.3)
        checkpoints = CheckpointPolicy(str(tmp_path / "camp"), interval_cycles=200)
        run_sweep(
            lambda load: small_tree_config(load=load),
            [0.3],
            "ckpt-clear",
            use_cache=False,
            checkpoints=checkpoints,
        )
        pdir = point_dir(checkpoints, "ckpt-clear", _cache_key(config))
        assert checkpoint_files(pdir) == []
        assert read_manifest(pdir)["completed"] is True
        assert RunCache(pdir).get(_cache_key(config)) is not None

    def test_a_campaign_directory_named_by_the_earlier_rule_resumes(self, tmp_path, monkeypatch):
        # the point directory name existing campaign directories carry,
        # computed here by hand: sha256 of [label, key], 32 hex digits
        label, camp = "ckpt-named", tmp_path / "camp"
        done, interrupted = small_tree_config(load=0.2), small_tree_config(load=0.4)

        def earlier_dir(config):
            text = json.dumps([label, list(_cache_key(config))], sort_keys=False)
            return camp / hashlib.sha256(text.encode()).hexdigest()[:32]

        RunCache(earlier_dir(done)).put(_cache_key(done), simulate(done))
        reference = _canonical(simulate(interrupted))
        with pytest.raises(KeyboardInterrupt):
            _interrupt_after_checkpointing(
                interrupted, checkpoint=CheckpointPolicy(str(earlier_dir(interrupted)), 200)
            )
        newest = checkpoint_files(earlier_dir(interrupted))[0]
        loaded = []
        real_load = checkpoint_module.load_checkpoint
        monkeypatch.setattr(
            checkpoint_module, "load_checkpoint",
            lambda path, config=None: loaded.append(pathlib.Path(path)) or real_load(path, config),
        )
        statuses, results = [], []
        run_sweep(
            lambda load: small_tree_config(load=load), [0.2, 0.4], label, use_cache=False,
            checkpoints=CheckpointPolicy(str(camp), interval_cycles=200),
            progress=lambda p: statuses.append(p.status), on_result=results.append,
        )
        assert statuses == ["cached", "ok"]
        assert loaded == [newest]
        assert _canonical(results[1]) == reference
        assert read_manifest(earlier_dir(interrupted))["completed"] is True

    def test_dead_worker_resumes_with_original_seed(self, tmp_path):
        config = small_tree_config(load=0.3)
        reference = _canonical(simulate(config))
        checkpoints = CheckpointPolicy(str(tmp_path / "camp"), interval_cycles=200)
        pdir = point_dir(checkpoints, "ckpt-died", _cache_key(config))
        flag = tmp_path / "died-once"
        outcome = _point_task(
            config,
            retries=1,
            timeout=60,
            simulate_fn=partial(_die_after_checkpointing, flag=str(flag)),
            checkpoints=CheckpointPolicy(pdir, interval_cycles=200),
        )
        assert outcome[0] == "ok"
        # the retry resumed the original recipe instead of reseeding
        assert outcome[1].config.seed == config.seed
        assert _canonical(outcome[1]) == reference

    def test_dead_worker_without_checkpoints_reseeds(self, tmp_path):
        config = small_tree_config(load=0.3)
        flag = tmp_path / "died-once"
        outcome = _point_task(
            config,
            retries=1,
            timeout=60,
            simulate_fn=partial(_die_after_checkpointing, flag=str(flag)),
        )
        assert outcome[0] == "ok"
        assert outcome[1].config.seed != config.seed

    def test_worker_death_is_typed_and_retryable(self, tmp_path):
        config = small_tree_config(load=0.3)
        outcome = _point_task(
            config,
            retries=0,
            timeout=60,
            simulate_fn=partial(
                _die_after_checkpointing, flag=str(tmp_path / "never-set")
            ),
        )
        # exhausted retries surface as a structured failure record
        assert outcome[0] == "fail"
        assert outcome[1].error == "WorkerDiedError"
        assert isinstance(outcome[2], WorkerDiedError)

    @pytest.mark.slow
    def test_timeout_resumes_with_original_seed(self, tmp_path):
        config = small_tree_config(load=0.3)
        reference = _canonical(simulate(config))
        checkpoints = CheckpointPolicy(str(tmp_path / "camp"), interval_cycles=200)
        pdir = point_dir(checkpoints, "ckpt-hang", _cache_key(config))
        flag = tmp_path / "hung-once"
        outcome = _point_task(
            config,
            retries=1,
            timeout=4.0,
            simulate_fn=partial(_hang_after_checkpointing, flag=str(flag)),
            checkpoints=CheckpointPolicy(pdir, interval_cycles=200),
        )
        assert outcome[0] == "ok"
        assert outcome[1].config.seed == config.seed
        assert _canonical(outcome[1]) == reference


# -- SIGTERM parity with Ctrl-C ------------------------------------------------


class TestSigtermParity:
    def test_sigterm_exits_143_and_flushes(self, tmp_path, capsys):
        if not hasattr(signal, "SIGTERM"):
            pytest.skip("no SIGTERM on this platform")
        from repro.cli import main

        timer = threading.Timer(0.6, os.kill, (os.getpid(), signal.SIGTERM))
        timer.start()
        try:
            rc = main(
                [
                    "sweep",
                    "--profile",
                    "default",
                    "--checkpoint",
                    str(tmp_path / "camp"),
                ]
            )
        finally:
            timer.cancel()
        assert rc == 143
        assert "terminated" in capsys.readouterr().err

    def test_sigterm_context_restores_previous_handler(self):
        if not hasattr(signal, "SIGTERM"):
            pytest.skip("no SIGTERM on this platform")
        from repro.cli import _SigtermInterrupt, _sigterm_as_interrupt

        before = signal.getsignal(signal.SIGTERM)
        with pytest.raises(_SigtermInterrupt):
            with _sigterm_as_interrupt():
                os.kill(os.getpid(), signal.SIGTERM)
                # the signal lands between bytecodes; give it a window
                for _ in range(100):
                    time.sleep(0.01)
        assert signal.getsignal(signal.SIGTERM) is before
        # parity contract: SIGTERM tears down exactly like Ctrl-C
        assert issubclass(_SigtermInterrupt, KeyboardInterrupt)

    @pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")
    @pytest.mark.parametrize("lands_after_point", [1, 2], ids=["mid-curve", "last-of-curve"])
    def test_sigterm_swallowed_in_a_weakref_callback_still_stops_the_campaign(
        self, lands_after_point, capsys
    ):
        # the signal can land while the collector runs a weakref callback:
        # CPython prints "Exception ignored in ..." and carries on, so the
        # handler's raise alone used to let the campaign run to completion
        from repro.cli import _guarded
        from repro.experiments.sweep import run_curves

        class Referent:
            pass

        done = []

        def progress(point):
            done.append(point.done)
            if len(done) == lands_after_point:
                handler = signal.getsignal(signal.SIGTERM)
                referent = Referent()
                ref = weakref.ref(referent, lambda _: handler(signal.SIGTERM, None))
                del referent  # the callback runs here; its exception is swallowed
                assert ref() is None

        config = small_tree_config()
        curves = [("a", config, ()), ("b", config, (Audit(),))]
        rc, value = _guarded(
            lambda: run_curves(curves, [0.1, 0.2], use_cache=False, progress=progress),
            "ledger",
        )
        assert (rc, value) == (143, None)
        assert "terminated" in capsys.readouterr().err
        # the point in flight was the last one to finish
        assert len(done) == lands_after_point


# -- module-level hooks and simulate_fns (pickled by reference) ----------------

_BOOM = {"armed": False}


def reliable_run_snapshotting(directory=None) -> str:
    """The canonical document of a small run under the reliable transport,
    snapshotting into (or resuming from) ``directory`` when one is given."""
    policy = None if directory is None else _policy(directory, interval=200)
    return _canonical(simulate_reliable(
        small_tree_config(load=0.6), TransportConfig(base_timeout=16, jitter=8, seed=3), checkpoint=policy,
    ))


#: a cube run and a fault window that is open at a kill of cycle 450 and
#: at the snapshot of cycle 400 before it (snapshots every 200 cycles)
FAULTED_CUBE = small_cube_config(algorithm="duato", load=0.6)
FAULT_WINDOW = Faults(0.2, fail_at=300, repair_at=500)


def faulted_run_snapshotting(directory=None) -> str:
    """The canonical document of :data:`FAULTED_CUBE` under
    :data:`FAULT_WINDOW`, snapshotting into (or resuming from) ``directory``."""
    policy = None if directory is None else _policy(directory, interval=200)
    return _canonical(simulate(FAULTED_CUBE, [FAULT_WINDOW], checkpoint=policy))


#: a trace drain per network, still draining at a kill of cycle 450: the
#: naive all-to-all takes 1088 cycles on the tree and 516 on the cube
DRAINS = {
    "tree": (
        drained(tree_config(k=4, n=2, vcs=4), 20_000),
        Replay(alltoall_trace(16, flits=32, schedule="naive")),
    ),
    "cube": (
        drained(cube_config(k=4, n=2, algorithm="duato"), 20_000),
        Replay(alltoall_trace(16, flits=16, schedule="naive")),
    ),
}


def drained_run_snapshotting(directory=None, network="tree") -> str:
    """The canonical document of the ``network`` drain of :data:`DRAINS`,
    snapshotting into (or resuming from) ``directory``."""
    config, replay = DRAINS[network]
    policy = None if directory is None else _policy(directory, interval=200)
    return _canonical(simulate(config, [replay], checkpoint=policy))


def _boom(engine) -> None:
    """A crash injector that disarms itself, so the copy of this hook
    riding inside earlier checkpoints is inert after the resume."""
    if _BOOM["armed"]:
        _BOOM["armed"] = False
        raise KeyboardInterrupt


def _request_checkpoint(engine) -> None:
    engine.find_probe(CheckpointProbe).request()


def _self_sigusr1(engine) -> None:
    os.kill(os.getpid(), signal.SIGUSR1)


_CALLS = {"n": 0}


def _interrupt_third_point(config, checkpoint=None):
    _CALLS["n"] += 1
    if _CALLS["n"] >= 3:
        raise KeyboardInterrupt
    return simulate(config, checkpoint=checkpoint)


def _interrupt_after_checkpointing(config, checkpoint=None):
    """Simulate, leaving the run's snapshots behind, then stop the campaign."""
    simulate(config, checkpoint=checkpoint)
    raise KeyboardInterrupt


#: words of a version-3 Mersenne state: what the default reduction pickles
MT_WORDS = 625

#: per network, a chaos point whose sources, transport jitter and adaptive
#: routing have all drawn by cycle 300
#: mid-run engines with flits, worms and transport messages in flight
MEMO_CONFIGS = {
    "tree": small_tree_config(load=0.6, total_cycles=800),
    "cube": small_cube_config(algorithm="duato", load=0.6, total_cycles=800),
}

PACKED_CHAOS = {
    "tree": small_tree_config(load=0.6, total_cycles=800),
    "cube": small_cube_config(algorithm="duato", load=0.6, total_cycles=800),
}
PACKED_STORM = Storm(StormSpec(
    fault_rate=0.2, storm_seed=9, transport=TransportConfig(base_timeout=16, jitter=8, seed=3),
))


class _SubRandom(random.Random):
    """A ``Random`` subclass: the packed reduction is for exactly ``Random``."""


def _draws(rng) -> list:
    return [rng.random() for _ in range(1000)]


def _streams(engine) -> list:
    """Every stream a chaos engine draws from: the nodes' sources, the
    transport's jitter, the adaptive routing's."""
    sources = [getattr(node.source, "inner", node.source).rng for node in engine.nodes]
    return [*sources, engine.find_probe(ReliableTransport)._rng, engine.routing.rng]


def _tuple_lengths(payload: bytes) -> list:
    """The length of every tuple ``payload`` builds, read off its opcodes."""
    stack, lengths = [], []
    for op, _arg, _pos in pickletools.genops(payload):
        below = op.stack_before
        if pickletools.markobject in below:
            mark = len(stack) - 1 - stack[::-1].index(pickletools.markobject)
            if op.name == "TUPLE":
                lengths.append(len(stack) - mark - 1)
            del stack[mark:]
            below = below[: below.index(pickletools.markobject)]
        elif op.name in ("TUPLE1", "TUPLE2", "TUPLE3"):
            lengths.append(len(below))
        del stack[len(stack) - len(below):]
        stack += op.stack_after
    return lengths


def packed_streams_roundtrip(directory, network) -> str:
    """Save and restore the :data:`PACKED_CHAOS` point of ``network`` at
    cycle 300, check the restore stream by stream, and return the header's
    root and payload size."""
    engine, run = start(PACKED_CHAOS[network], [Audit(), PACKED_STORM])
    engine.add_cycle_hook(300, _boom)
    _BOOM["armed"] = True
    try:
        run()
    except KeyboardInterrupt:
        pass
    finally:
        _BOOM["armed"] = False
    assert MT_WORDS in _tuple_lengths(pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL))
    path = pathlib.Path(directory) / "ckpt-000000000300.rckpt"
    header = save_checkpoint(engine, path)
    restored, _ = load_checkpoint(path, config=engine.config)
    assert restored.state_fingerprint(detail=True) == engine.state_fingerprint(detail=True)
    payload = path.read_bytes().split(b"\n", 1)[1]
    assert MT_WORDS not in _tuple_lengths(payload)
    for ours, theirs in zip(_streams(engine), _streams(restored)):
        assert type(theirs) is random.Random
        assert _draws(theirs) == _draws(ours)
    return f"{header['root']} {header['payload_bytes']}"


def _resize_first_packed_state(path, delta: int) -> None:
    """Grow or shrink the first packed Mersenne state in the checkpoint at
    ``path`` by ``delta`` bytes, keep its pickle frame consistent, and
    re-record the payload's digest and size: a file the digest gate passes."""
    header_line, payload = path.read_bytes().split(b"\n", 1)
    for op, arg, pos in pickletools.genops(payload):
        if op.name == "FRAME":
            frame, frame_bytes = pos, arg
        elif op.name == "BINBYTES" and len(arg) == 2500:
            break
    words = arg[:delta] if delta < 0 else arg + bytes(delta)
    payload = b"".join((
        payload[:frame], pickle.FRAME, struct.pack("<Q", frame_bytes + delta),
        payload[frame + 9:pos], pickle.BINBYTES, struct.pack("<I", len(words)), words,
        payload[pos + 5 + len(arg):],
    ))
    header = json.loads(header_line)
    header["payload_digest"] = hashlib.blake2b(payload, digest_size=16).hexdigest()
    header["payload_bytes"] = len(payload)
    path.write_bytes(json.dumps(header).encode("ascii") + b"\n" + payload)


def _as_format_5(patch) -> None:
    """Make ``save_checkpoint`` write what a format-5 build wrote: that
    version in the header, every ``Random`` reduced the default way."""
    patch.setattr(checkpoint_module, "CHECKPOINT_FORMAT_VERSION", 5)
    patch.setattr(checkpoint_module, "_reduce_rng", random.Random.__reduce__)


def _headers(directory):
    from repro.sim.checkpoint import read_checkpoint_header

    return sorted(
        (read_checkpoint_header(p) for p in checkpoint_files(directory)),
        key=lambda h: h["cycle"],
    )


def _die_after_checkpointing(config, checkpoint=None, flag=None):
    """First call: simulate (leaving snapshots behind), then die without
    reporting.  Subsequent calls behave normally — the retry path."""
    marker = pathlib.Path(flag)
    if marker.exists():
        return simulate(config, checkpoint=checkpoint)
    marker.touch()
    simulate(config, checkpoint=checkpoint)
    os._exit(1)


def _hang_after_checkpointing(config, checkpoint=None, flag=None):
    """First call: simulate, then hang past the wall-clock budget."""
    marker = pathlib.Path(flag)
    if marker.exists():
        return simulate(config, checkpoint=checkpoint)
    marker.touch()
    simulate(config, checkpoint=checkpoint)
    time.sleep(600)
