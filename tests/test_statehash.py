"""State-digest audit trail (PR 9): layered digests on a bounded chain.

Unit coverage for :mod:`repro.obs.statehash` — document shape, chain
integrity, decimation bounds, replay alignment, the snapshot diff that
names a differing leaf, the scorecard's audit panel and the ``--statehash``
/ ``--audit`` flags — plus the property every comparison rests on: the
digest chain is a pure function of the config, identical whether or not
passive observers (trace, counters, forensics, flight) ride alongside.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.obs import MultiProbe, TraceProbe, WindowedCounterProbe, config_digest
from repro.obs.flight import FlightRecorder
from repro.obs.report import render_scorecard, statehash_entries
from repro.obs.statehash import (
    _EVENT,
    _MESSAGE,
    _TRANSPORT,
    DIGEST_ALGO,
    STATEHASH_FORMAT_VERSION,
    SUBSYSTEMS,
    StateDigestConfig,
    StateDigestProbe,
    describe_statehash,
    StateHash,
    _preimage,
    _transport_tables,
    engine_fingerprint,
    snapshot_diff,
    state_snapshot,
)
from repro.sim.run import build_engine, simulate, simulate_post_mortem
from repro.traffic.congestion import Congested
from repro.traffic.transport import ReliableTransport, TransportConfig, simulate_reliable

from .conftest import small_cube_config, small_tree_config


def _chain_of(config, statehash=None, probe=None) -> dict:
    return simulate(config, [StateHash(statehash)], probe=probe).telemetry.statehash


class TestConfig:
    def test_defaults_valid(self):
        cfg = StateDigestConfig()
        assert cfg.interval_cycles == 128
        assert cfg.max_intervals == 512
        assert cfg.audit is False

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(interval_cycles=0),
            dict(max_intervals=6),   # even but below the floor
            dict(max_intervals=9),   # odd: coalescing halves pairs
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ConfigurationError):
            StateDigestConfig(**kwargs)


class TestDocumentShape:
    def test_chain_document(self):
        config = small_tree_config()
        doc = _chain_of(config, StateDigestConfig(interval_cycles=64))
        assert doc["format"] == STATEHASH_FORMAT_VERSION
        assert doc["algo"] == DIGEST_ALGO
        assert doc["interval"] == 64
        assert doc["genesis"] == config_digest(config)
        n = doc["entries"]
        assert n == len(doc["cycles"]) == len(doc["roots"]) == len(doc["chain"])
        assert set(doc["subsystems"]) == set(SUBSYSTEMS)
        for series in doc["subsystems"].values():
            assert len(series) == n
        # genesis sample precedes the first stepped cycle; the tail
        # sample lands on the final cycle
        assert doc["cycles"][0] == 0
        assert doc["cycles"][-1] == config.total_cycles
        assert doc["chain_head"] == doc["chain"][-1]

    def test_chain_links_commit_to_roots(self):
        # chain[i] = H(chain[i-1] ‖ root[i]), seeded by the genesis
        # config digest — recomputable by any consumer
        doc = _chain_of(small_tree_config(), StateDigestConfig(interval_cycles=64))
        head = doc["genesis"]
        for root, link in zip(doc["roots"], doc["chain"]):
            head = hashlib.blake2b((head + root).encode("ascii"), digest_size=8).hexdigest()
            assert link == head

    def test_describe_mentions_chain(self):
        doc = _chain_of(small_tree_config())
        text = describe_statehash(doc)
        assert "state digests" in text
        assert doc["chain_head"] in text
        assert doc["genesis"] in text


class TestDecimation:
    def test_bounded_with_doubling_stride(self):
        doc = _chain_of(
            small_tree_config(),
            StateDigestConfig(interval_cycles=4, max_intervals=8),
        )
        assert doc["entries"] < 8
        assert doc["decimations"] >= 1
        assert doc["stride"] == 4 * 2 ** doc["decimations"]
        # genesis always survives, so decimated chains stay alignable
        assert doc["cycles"][0] == 0


class TestReplayAlignment:
    def test_replayed_engine_reproduces_recorded_roots(self):
        # the cycle-stamping contract: an uninstrumented engine stepped
        # to a sampled cycle fingerprints the identical state
        config = small_cube_config(load=0.4)
        doc = _chain_of(config, StateDigestConfig(interval_cycles=128))
        engine = build_engine(config)
        for cycle, root in zip(doc["cycles"], doc["roots"]):
            while engine.cycle < cycle:
                engine.step()
            assert engine_fingerprint(engine)["root"] == root

    def test_detail_fingerprint_same_root(self):
        engine = build_engine(small_tree_config(load=0.4))
        for _ in range(200):
            engine.step()
        fp = engine_fingerprint(engine)
        detail = engine_fingerprint(engine, detail=True)
        assert detail["root"] == fp["root"]
        assert detail["fabric"] == fp["fabric"]
        assert detail["links"] and detail["lanes"] and detail["nodes"]

    def test_engine_state_fingerprint_method(self):
        engine = build_engine(small_tree_config(load=0.4))
        for _ in range(100):
            engine.step()
        assert engine.state_fingerprint() == engine_fingerprint(engine)

    def test_snapshot_matches_fingerprint_coverage(self):
        engine = _stepped(closed_loop=True)
        snap = state_snapshot(engine)
        assert json.loads(json.dumps(snap)) == snap
        assert set(snap) == {"counters", *SUBSYSTEMS}
        assert snap["counters"]["cycle"] == engine.cycle
        assert len(snap["injection"]) == len(engine.nodes)
        assert len(snap["fabric"]["links"]) == len(engine.dirs)


def _stepped(closed_loop: bool):
    """An engine 200 cycles into a small run: a plain cube, or a tree
    under the reliable transport with AIMD windows and the ECN marker."""
    if closed_loop:
        engine = build_engine(small_tree_config(load=0.9))
        Congested().install(engine)
    else:
        engine = build_engine(small_cube_config(load=0.6))
    for _ in range(200):
        engine.step()
    return engine


def _fabric_lane(engine):
    d = next(d for d in engine.dirs if not d.to_node)
    return d, d.lanes[0], f"fabric/links/{d.label}/lanes/vc{d.lanes[0].vc}"


# Each mutation flips one value of one row kind on the engine it is handed
# and returns the snapshot path that must name it.


def _flip_credits(engine):
    _, lane, path = _fabric_lane(engine)
    lane.credits += 1
    return f"{path}/credits"


def _flip_last_arrival(engine):
    _, lane, path = _fabric_lane(engine)
    lane.sink.last_arrival += 1
    return f"{path}/sink/last_arrival"


def _flip_direction_rr(engine):
    d, _, _ = _fabric_lane(engine)
    d.rr += 1
    return f"fabric/links/{d.label}/rr"


def _flip_route_rr(engine):
    engine.route_rr[3] += 1
    return "fabric/routing/route_rr/3"


def _flip_node_rr(engine):
    engine.nodes[2].rr += 1
    return "injection/2/rr"


def _flip_queue_entry(engine):
    node = next(n for n in engine.nodes if n.source.queue)
    created, dst = node.source.queue[0]
    node.source.queue[0] = (created, dst ^ 1)
    return f"injection/{node.nid}/source/queue/0/2"  # [len, created, dst]


def _flip_inner_active(engine):
    inner = engine.nodes[1].source.inner
    inner.active = not inner.active
    return "injection/1/source/inner/active"


def _transport(engine):
    return engine.find_probe(ReliableTransport)


def _flip_attempts(engine):
    pid, msg = min(_transport(engine)._by_pid.items())
    msg.attempts += 1
    return f"transport/by_pid/{pid}/attempts"


def _flip_cwnd(engine):
    (src, dst), state = min(_transport(engine).congestion._windows.items())
    state[0] += 0.5
    return f"transport/congestion/windows/{src}/{dst}/cwnd"


def _flip_blocked(engine):
    # one more blocked cycle in this window: a window start one lower
    _transport(engine).congestion.marker._blocked_base[5] -= 1
    return "transport/congestion/marker/blocked/5/cycles"


class TestOneDescriptionOfState:
    """The fingerprint and the snapshot read the same rows: whatever moves
    a root is named by the diff, whichever row kind holds it."""

    @pytest.mark.parametrize(
        "closed_loop, flip",
        [
            (False, _flip_credits),
            (False, _flip_last_arrival),
            (False, _flip_direction_rr),
            (False, _flip_route_rr),
            (False, _flip_node_rr),
            (False, _flip_queue_entry),
            (True, _flip_credits),
            (True, _flip_inner_active),
            (True, _flip_attempts),
            (True, _flip_cwnd),
            (True, _flip_blocked),
        ],
    )
    def test_every_hashed_value_is_a_named_leaf(self, closed_loop, flip):
        a, b = _stepped(closed_loop), _stepped(closed_loop)
        assert engine_fingerprint(a) == engine_fingerprint(b)
        assert snapshot_diff(state_snapshot(a), state_snapshot(b)) == ([], 0)
        path = flip(b)
        assert engine_fingerprint(a)["root"] != engine_fingerprint(b)["root"]
        findings, _ = snapshot_diff(state_snapshot(a), state_snapshot(b))
        assert [f["path"] for f in findings] == [path]


class TestTheTransportRows:
    def test_the_pre_image_counts_live_state_only(self):
        # format 3: no timer counter, no per-node table, no row for an empty
        # queue or a dead timer; a message's seq is its creation index, so
        # nothing counts flows either: the words follow what is queued, in
        # flight or timed
        engine = build_engine(small_tree_config(load=0.6))
        tp = ReliableTransport(TransportConfig(base_timeout=16, jitter=8, seed=3)).install(engine)
        engine.probe.on_run_start(engine)
        for _ in range(300):
            engine.step()
        queues = [q for q in (*tp._fifo.values(), *tp._waiting.values()) if q]
        timers = sum(map(len, tp._wheel.values()))  # every one live (tests/test_transport.py)
        assert queues and timers and len(queues) < len(engine.nodes)
        words = (
            len(_TRANSPORT)
            + 2 + sum(2 + len(_MESSAGE) * len(q) for q in queues)  # fifo, waiting: separators, (node, count), messages
            + 1 + (1 + len(_MESSAGE)) * len(tp._by_pid)  # separator, pid and message
            + 1 + len(_EVENT) * timers
            + 1 + 1  # separator, no congestion loop
        )
        assert len(_preimage(_transport_tables(tp))) == 8 * words


class TestDeterminism:
    def test_chain_byte_identical_across_reruns(self):
        config = small_tree_config(load=0.5)
        a = json.dumps(_chain_of(config), sort_keys=True)
        b = json.dumps(_chain_of(config), sort_keys=True)
        assert a == b

    def test_different_seeds_differ(self):
        a = _chain_of(small_tree_config(seed=7))
        b = _chain_of(small_tree_config(seed=8))
        assert a["roots"] != b["roots"]
        assert a["chain_head"] != b["chain_head"]

    def test_reliable_transport_chain_deterministic(self):
        def run():
            result = simulate_reliable(
                small_tree_config(load=0.6),
                TransportConfig(base_timeout=16, jitter=8, seed=3),
                probe=StateDigestProbe(),
            )
            return result.telemetry.statehash

        assert json.dumps(run(), sort_keys=True) == json.dumps(run(), sort_keys=True)


class TestProbeNonInterference:
    """The audit trail must digest the *engine*, not the observers."""

    @pytest.mark.parametrize(
        "extra", ["trace", "counters", "flight", "forensics", "stack"]
    )
    def test_chain_identical_under_observer_stacks(self, extra):
        config = small_cube_config(load=0.4)
        bare = _chain_of(config)
        if extra == "forensics":
            from repro.obs.forensics import Forensics

            result, _, deadlock = simulate_post_mortem(
                config, [Forensics()], probe=StateDigestProbe()
            )
            assert deadlock is None
            instrumented = result.telemetry.statehash
        else:
            observer = {
                "trace": lambda: TraceProbe(),
                "counters": lambda: WindowedCounterProbe(window_cycles=100),
                "flight": lambda: FlightRecorder(),
                "stack": lambda: MultiProbe(
                    [TraceProbe(), WindowedCounterProbe(window_cycles=100),
                     FlightRecorder()]
                ),
            }[extra]()
            instrumented = _chain_of(config, probe=observer)
        assert instrumented["roots"] == bare["roots"]
        assert instrumented["chain"] == bare["chain"]
        assert instrumented["chain_head"] == bare["chain_head"]


class TestAudit:
    def test_audit_counts_boundaries(self):
        doc = _chain_of(
            small_tree_config(),
            StateDigestConfig(interval_cycles=100, audit=True),
        )
        assert doc["audited"] >= 1
        assert "invariant audits passed" in describe_statehash(doc)


class TestSnapshotDiff:
    def test_classifies_paths(self):
        a = {"fabric": {"links": {"s0p1": {"lanes": {"vc0": {"credits": 3}}}}}}
        b = {"fabric": {"links": {"s0p1": {"lanes": {"vc0": {"credits": 5}}}}}}
        findings, dropped = snapshot_diff(a, b)
        assert dropped == 0
        (f,) = findings
        assert f["subsystem"] == "fabric"
        assert f["location"] == "s0p1"
        assert f["lane"] == "vc0"
        assert f["field"] == "credits"
        assert (f["a"], f["b"]) == (3, 5)

    def test_absent_leaf_reported(self):
        findings, _ = snapshot_diff({"injection": {"3": {"sent": 1}}}, {})
        (f,) = findings
        assert f["location"] == "node 3"
        assert f["b"] == "<absent>"


class TestScorecardPanel:
    def test_statehash_entries_and_scorecard_section(self):
        results = [
            simulate(small_tree_config(seed=s), [StateHash()]) for s in (7, 7)
        ]
        entries = statehash_entries(results)
        assert len(entries) == 2
        html = render_scorecard([], statehash=entries)
        assert "State-digest audit" in html
        # same recipe, same seed: replica chain heads must agree
        assert "consistent" in html and ">diverged<" not in html


class TestCli:
    def test_run_statehash_flag_attaches_chain(self, capsys):
        code = main(
            [
                "run", "--network", "cube", "--k", "4", "--n", "2",
                "--algorithm", "dor", "--load", "0.2", "--profile", "fast",
                "--statehash", "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["telemetry"]["statehash"]["entries"] >= 2
        assert doc["telemetry"]["statehash"]["format"] == 3

    def test_audit_flag_implies_statehash(self, capsys):
        code = main(
            [
                "run", "--network", "tree", "--k", "2", "--n", "2",
                "--vcs", "2", "--load", "0.2", "--profile", "fast",
                "--audit", "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["telemetry"]["statehash"]["audited"] >= 1

    def test_trace_composes_flight_and_statehash(self, capsys, tmp_path):
        code = main(
            [
                "trace", "--network", "tree", "--k", "2", "--n", "2",
                "--vcs", "2", "--load", "0.2", "--profile", "fast",
                "--flight", "--statehash",
                "--out", str(tmp_path / "trace.json"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "flight timeline:" in out
        assert "state digests:" in out
