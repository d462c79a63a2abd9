"""Unit tests for the source-side reliable transport (ARQ over the
flit-level network): exactly-once accounting on lossless runs, duplicate
suppression, timeout/backoff retransmission and the give-up budget."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.obs import NullProbe
from repro.sim.run import build_engine, start
from repro.traffic.transport import (
    Reliable,
    ReliableTransport,
    TransportConfig,
    attach_reliability,
    simulate_reliable,
)
from repro.workloads import Replay, alltoall_trace, drained

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
        # flight; the source-side ledger must balance at that instant
        engine = build_engine(small_tree_config(load=0.6))
        transport = ReliableTransport().install(engine)
        engine.run()
        s = transport.summary()
        assert s["messages"] == s["acked"] + s["gave_up"] + s["pending"]


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
