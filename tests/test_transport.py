"""Unit tests for the source-side reliable transport (ARQ over the
flit-level network): exactly-once accounting on lossless runs, duplicate
suppression, timeout/backoff retransmission and the give-up budget."""

import dataclasses
import random
from collections import Counter

import pytest

from repro.errors import ConfigurationError
from repro.experiments.chaos import Storm, StormSpec, run_chaos_point
from repro.obs import NullProbe
from repro.sim.checkpoint import load_checkpoint, save_checkpoint
from repro.sim.run import build_engine, start
from repro.traffic.congestion import Congested
from repro.traffic.transport import (
    Reliable,
    ReliableTransport,
    TransportConfig,
    attach_reliability,
    simulate_reliable,
)
from repro.workloads import Replay, alltoall_trace, drained

from repro.traffic.transport import _Message

from .conftest import small_cube_config, small_tree_config


def _drained(config, transport_config=None):
    """Play an all-to-all under the transport until protocol and network
    have drained.

    One message per five packet times per node (load 0.2 of a flit per
    cycle).  A trace is finite, so the run ends once every source is done,
    which under the transport waits for the *protocol* to quiesce (every
    message ACKed or given up): the ``ReliableSource.done`` contract under
    test.
    """
    trace = alltoall_trace(
        config.num_nodes, flits=config.packet_flits, spacing=5 * config.packet_flits,
        schedule="random", seed=config.seed,
    )
    engine, run = start(
        drained(config, 100_000), [Replay(trace), Reliable(transport_config or TransportConfig())]
    )
    result = run()
    engine.audit()
    return result, engine.find_probe(ReliableTransport), engine


class TestTransportConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(ack_delay=0),
            dict(base_timeout=0),
            dict(backoff=0.5),
            dict(jitter=-1),
            dict(max_retries=-1),
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TransportConfig(**kwargs)

    def test_defaults_valid(self):
        cfg = TransportConfig()
        assert cfg.max_retries >= 0 and cfg.base_timeout >= 1


class TestInstall:
    def test_double_install_rejected(self):
        engine = build_engine(small_tree_config(load=0.0))
        transport = ReliableTransport()
        transport.install(engine)
        with pytest.raises(ConfigurationError, match="already installed"):
            transport.install(engine)

    def test_rewrapping_sources_rejected(self):
        engine = build_engine(small_tree_config(load=0.0))
        ReliableTransport().install(engine)
        with pytest.raises(ConfigurationError, match="reliable source"):
            ReliableTransport().install(engine)

    def test_composes_with_existing_probe(self):
        probe = NullProbe()
        engine = build_engine(small_tree_config(load=0.2))
        transport = ReliableTransport().install(engine)
        assert transport.engine is engine  # bound through MultiProbe
        engine.run()
        assert transport.messages > 0

        engine2 = build_engine(small_tree_config(load=0.2), probe=probe)
        transport2 = ReliableTransport().install(engine2)
        engine2.run()
        assert transport2.messages == transport.messages


class TestLosslessExactlyOnce:
    @pytest.mark.parametrize("make", [small_tree_config, small_cube_config])
    def test_every_message_acked_no_retransmits(self, make):
        # no faults, generous timer: the protocol must be invisible —
        # everything ACKs, nothing retransmits, nothing duplicates
        result, transport, _ = _drained(
            make(load=0.2), TransportConfig(base_timeout=4096)
        )
        s = transport.summary()
        assert s["messages"] > 0
        assert s["acked"] == s["messages"]
        assert s["gave_up"] == s["pending"] == 0
        assert s["retransmissions"] == s["duplicates"] == 0
        assert result.delivered_packets > 0

    def test_invariant_holds_at_halt_without_drain(self):
        # engine.run() stops at total_cycles with messages still in
        # flight; the source-side ledger must balance at that instant:
        # pending is exactly the unresolved messages the transport holds
        engine = build_engine(small_tree_config(load=0.6))
        transport = ReliableTransport().install(engine)
        engine.run()
        s = transport.summary()
        assert s["messages"] == s["acked"] + s["gave_up"] + s["pending"] and s["pending"] > 0
        _check_the_wheel(transport, engine.cycle - 1)


class TestDuplicateSuppression:
    def test_premature_timeout_duplicates_are_not_goodput(self):
        # timer far below the round trip: first copies deliver, but the
        # source retransmits before their ACKs land; the sink must count
        # every extra copy as a duplicate, never as goodput
        result, transport, _ = _drained(
            small_tree_config(load=0.2),
            TransportConfig(base_timeout=2, ack_delay=64, jitter=0,
                            max_retries=8),
        )
        s = transport.summary()
        assert s["retransmissions"] > 0
        assert s["duplicates"] > 0
        assert s["acked"] + s["gave_up"] == s["messages"]
        assert result.goodput_flits <= result.delivered_flits
        assert result.duplicate_packets > 0

    def test_backoff_grows_the_timer(self):
        cfg = TransportConfig(base_timeout=10, backoff=2.0, jitter=0)
        transport = ReliableTransport(cfg)
        engine = build_engine(small_tree_config(load=0.0))
        transport.install(engine)
        msg = transport.register(0, (0, 5))
        deadlines = []
        for attempt in (1, 2, 3):
            msg.attempts = attempt
            transport._arm_timeout(0, msg)
            deadlines.append(msg.deadline)
        assert deadlines == [10, 20, 40]  # base * backoff^(attempts-1)


class TestGiveUp:
    def test_retry_budget_exhaustion_is_recorded_loss(self):
        # ACKs arrive long after a tiny timer expires and the budget is
        # zero: every message is written off on its first timeout, and
        # the ACKs that still land mid-run are accounting-only
        result, transport, _ = _drained(
            small_tree_config(load=0.2),
            TransportConfig(base_timeout=2, ack_delay=100, jitter=0,
                            max_retries=0),
        )
        s = transport.summary()
        assert s["gave_up"] == s["messages"] > 0
        assert s["acked"] == 0
        assert s["late_acks"] > 0  # the sink did get them
        assert result.given_up_packets > 0
        assert result.reliable  # transport counters moved

    def test_max_attempts_bounded_by_budget(self):
        _, transport, _ = _drained(
            small_tree_config(load=0.2),
            TransportConfig(base_timeout=2, ack_delay=64, jitter=0,
                            max_retries=3),
        )
        assert transport.max_attempts <= 1 + 3


class TestReporting:
    def test_attach_reliability_folds_summary_into_telemetry(self):
        result = simulate_reliable(small_tree_config(load=0.2))
        doc = result.telemetry.reliability
        assert doc is not None
        assert doc["messages"] == doc["acked"] + doc["gave_up"] + doc["pending"]
        assert doc["transport"] == dataclasses.asdict(TransportConfig())

    def test_extra_entries_merge(self):
        engine = build_engine(small_tree_config(load=0.2))
        transport = ReliableTransport().install(engine)
        result = engine.run()
        attach_reliability(result, transport, extra={"storm": {"faults": 0}})
        assert result.telemetry.reliability["storm"] == {"faults": 0}

    def test_goodput_properties_consistent(self):
        result = simulate_reliable(small_tree_config(load=0.3))
        per_cycle = result.goodput_flits / (
            result.measured_cycles * result.config.num_nodes
        )
        assert result.goodput_flits_per_cycle == pytest.approx(per_cycle)
        assert result.goodput_fraction == pytest.approx(
            per_cycle / result.config.capacity_flits_per_cycle
        )
        assert result.goodput_flits_per_cycle <= result.accepted_flits_per_cycle


class TestTimerJitter:
    @pytest.mark.parametrize("jitter", [0, 1, 4, 7])
    def test_the_draw_is_randints_value_and_stream_position(self, jitter):
        # _arm_timeout draws through routing.base.randbelow, not
        # randint(0, jitter): the same getrandbits draws, so the same due
        # cycles and the same stream after them (none at all for jitter 0)
        config = TransportConfig(base_timeout=10, backoff=1.5, jitter=jitter)
        transport = ReliableTransport(config)
        transport._rng = random.Random(17)
        twin = random.Random(17)
        msg = _Message(0, 1, 0, 4, 0)
        for cycle in range(10_000):
            msg.attempts = 1 + cycle % 3
            transport._arm_timeout(cycle, msg)
            timeout = config.base_timeout * config.backoff ** (msg.attempts - 1)
            expected = cycle + int(timeout) + (twin.randint(0, jitter) if jitter else 0)
            assert msg.deadline == expected
        assert transport._rng.getstate() == twin.getstate()


class TestSequenceNumbers:
    def test_a_chaos_run_numbers_its_messages_in_creation_order(self, monkeypatch):
        # seq is transport-wide: the n-th message registered, held or not,
        # carries n, and no table of flows is kept to number them
        made = []
        track = ReliableTransport._track

        def tracked(self, node, entry):
            made.append(track(self, node, entry))
            return made[-1]

        monkeypatch.setattr(ReliableTransport, "_track", tracked)
        storm = StormSpec(fault_rate=0.2, storm_seed=9,
                          transport=TransportConfig(base_timeout=16, jitter=8, seed=3))
        reliability = run_chaos_point(small_tree_config(load=0.6, total_cycles=800), storm).telemetry.reliability
        assert reliability["retransmissions"] > 0 and reliability["messages"] == len(made)
        assert [msg.seq for msg in made] == list(range(len(made)))
        assert not hasattr(ReliableTransport(), "_next_seq")


def _check_the_wheel(tp, ran: int) -> None:
    """Every timer in ``tp``'s wheel is live once cycle ``ran`` has run, and
    every unresolved message sits where the transport can reach it."""
    for due, bucket in tp._wheel.items():
        assert due > ran and bucket
        for kind, msg, tag in bucket:
            if kind == tp._ACK:
                assert not msg.acked  # one ACK per message, pending
            else:
                assert not (msg.acked or msg.gave_up) and msg.deadline == due == tag
    held = [msg for queues in (tp._fifo, tp._waiting) for queue in queues.values() for msg in queue]
    timed = [msg for bucket in tp._wheel.values() for _, msg, _ in bucket]
    unresolved = {
        id(msg) for msg in (*held, *tp._by_pid.values(), *timed) if not (msg.acked or msg.gave_up)
    }
    assert len(unresolved) == tp.total_unresolved()


#: a fail-stop storm whose timer (6 cycles, no backoff) is shorter than the
#: round trip, so retransmissions queue behind ACKs, and a closed-loop
#: overload; both step fast enough to check after every cycle
WHEEL_RECIPES = {
    "storm": (
        small_cube_config(algorithm="duato", load=0.2, total_cycles=800),
        Storm(StormSpec(fault_rate=0.2, storm_seed=9, transport=TransportConfig(
            base_timeout=6, ack_delay=16, jitter=2, backoff=1.0, max_retries=8, seed=3,
        ))),
    ),
    "overload": (small_tree_config(k=4, n=2, load=1.0, total_cycles=800), Congested()),
}


class TestTheWheelHoldsOnlyLiveTimers:
    @pytest.mark.parametrize("recipe", sorted(WHEEL_RECIPES))
    def test_every_timer_left_after_a_step_is_live(self, recipe, tmp_path, monkeypatch):
        # an ACK takes its message's timeout out of the wheel (also one due
        # in the cycle being run), and a retransmission that injects after
        # its ACK draws its jitter but arms nothing; across a restore too
        fired = Counter()
        handle_ack, arm_timeout = ReliableTransport._handle_ack, ReliableTransport._arm_timeout

        def ack(self, cycle, msg, marked=0):
            if msg.deadline >= 0:
                fired["cancelled"] += 1
                fired["cancelled in its own cycle"] += msg.deadline == cycle
            handle_ack(self, cycle, msg, marked)

        def arm(self, cycle, msg):
            fired["acked and re-injected"] += msg.acked
            arm_timeout(self, cycle, msg)

        monkeypatch.setattr(ReliableTransport, "_handle_ack", ack)
        monkeypatch.setattr(ReliableTransport, "_arm_timeout", arm)
        config, instrument = WHEEL_RECIPES[recipe]
        engine, _ = start(config, [instrument])
        engine.probe.on_run_start(engine)
        path = tmp_path / "ckpt-000000000400.rckpt"
        while engine.cycle < config.total_cycles:
            engine.step()
            _check_the_wheel(engine.find_probe(ReliableTransport), engine.cycle - 1)
            if engine.cycle == 400:
                save_checkpoint(engine, path)
                engine, _ = load_checkpoint(path, config)
                _check_the_wheel(engine.find_probe(ReliableTransport), engine.cycle - 1)
        assert fired["cancelled"] and fired["acked and re-injected"]
        if recipe == "storm":
            assert fired["cancelled in its own cycle"]
