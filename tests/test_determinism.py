"""Determinism regression: identical recipes produce byte-identical run
documents.

Every random element in a run — traffic draws, routing tie-breaks,
retry jitter, storm draws — comes from a seeded stream, so two runs of
the same config must agree on every counter, not just the aggregates.
Only wall-clock telemetry (``wall_clock_s``, ``cycles_per_sec``,
``phase_seconds``) is allowed to differ; the comparison nulls those
fields and demands byte equality on the serialized rest."""

import json

from repro.experiments.chaos import StormSpec, run_chaos_point
from repro.experiments.congestion import OverloadSpec, overload_recipe
from repro.metrics.io import run_result_to_dict
from repro.obs.flight import Flight, FlightConfig
from repro.obs.forensics import Forensics
from repro.obs.statehash import StateDigestConfig, StateHash
from repro.sim.run import simulate
from repro.traffic.congestion import CongestionConfig, simulate_congested
from repro.traffic.transport import TransportConfig, simulate_reliable

from .conftest import small_cube_config, small_tree_config
from .test_property_forensics import _build

#: telemetry fields measuring the host machine, not the simulation
_TIMING_FIELDS = ("wall_clock_s", "cycles_per_sec", "phase_seconds")


def _canonical(result) -> str:
    doc = run_result_to_dict(result)
    if doc["telemetry"] is not None:
        for field in _TIMING_FIELDS:
            doc["telemetry"][field] = None
    return json.dumps(doc, sort_keys=True)


def _sans_faults(result) -> str:
    """:func:`_canonical` without ``telemetry.faults`` — the one key a
    ``Faults`` instrument adds to the document of the run it degrades."""
    doc = json.loads(_canonical(result))
    doc["telemetry"].pop("faults", None)
    return json.dumps(doc, sort_keys=True)


def _assert_identical(make):
    assert _canonical(make()) == _canonical(make())


class TestRunDocumentDeterminism:
    def test_plain_tree_run(self):
        _assert_identical(lambda: simulate(small_tree_config(load=0.5)))

    def test_plain_cube_run(self):
        _assert_identical(lambda: simulate(small_cube_config(load=0.5)))

    def test_forensics_run(self):
        # the forensics document rides on telemetry, so the instrumented
        # run must be deterministic including its histograms and samples
        _assert_identical(
            lambda: simulate(small_cube_config(load=0.5), [Forensics()])
        )

    def test_reliable_transport_run(self):
        # retry jitter comes from the transport's dedicated stream
        _assert_identical(
            lambda: simulate_reliable(
                small_tree_config(load=0.6),
                TransportConfig(base_timeout=16, jitter=8, seed=3),
            )
        )

    def test_closed_congestion_loop_run(self):
        # marking windows, AIMD arithmetic and hold-queue pumping on top
        # of the transport's jitter stream — all seeded, so byte-stable
        _assert_identical(
            lambda: simulate_congested(
                small_tree_config(load=0.8),
                TransportConfig(base_timeout=32, jitter=8, seed=3),
                CongestionConfig(window_cycles=32, hot_fraction=0.3),
            )
        )

    def test_overload_point(self):
        # the campaign path: arbiter override + forced latency samples +
        # the overload document on telemetry
        spec = OverloadSpec(
            closed_loop=True,
            saturation=0.4,
            arbiter="age",
            transport=TransportConfig(base_timeout=32, jitter=4),
            control=CongestionConfig(window_cycles=32),
        )
        _assert_identical(
            lambda: simulate(*overload_recipe(small_tree_config(load=0.6), spec))
        )

    def test_flight_instrumented_run(self):
        # the flight timeline rides on telemetry.flight; its columnar
        # series, hot-link rankings and annotations must be byte-stable
        _assert_identical(
            lambda: simulate(
                small_tree_config(load=0.5), [Flight(FlightConfig(interval_cycles=64))]
            )
        )

    def test_statehash_instrumented_run(self):
        # the digest chain rides on telemetry.statehash; every root,
        # chain link and subsystem digest must be byte-stable or the
        # divergence debugger would bisect noise
        _assert_identical(
            lambda: simulate(
                small_cube_config(load=0.5), [StateHash(StateDigestConfig(interval_cycles=64))]
            )
        )

    def test_statehash_instrumented_run_with_decimation(self):
        # pair-coalescing drops the same rows in the same order, and the
        # chain head still commits to every root ever sampled
        _assert_identical(
            lambda: simulate(
                small_tree_config(load=0.5),
                [StateHash(StateDigestConfig(interval_cycles=4, max_intervals=8))],
            )
        )

    def test_flight_instrumented_run_with_decimation(self):
        # pair-coalescing must be deterministic too: same rows merge in
        # the same order, hot-link ties break on the label
        _assert_identical(
            lambda: simulate(
                small_tree_config(load=0.5),
                [Flight(FlightConfig(interval_cycles=4, max_intervals=8))],
            )
        )

    def test_flight_instrumented_overload_point(self):
        # recorder + transport + control loop: annotations (first mark,
        # first decrease) and the control-plane columns, end to end
        spec = OverloadSpec(
            closed_loop=True,
            saturation=0.4,
            transport=TransportConfig(base_timeout=32, jitter=4),
            control=CongestionConfig(window_cycles=32),
        )
        recorder = [Flight(FlightConfig(interval_cycles=64))]
        _assert_identical(
            lambda: simulate(*overload_recipe(small_tree_config(load=0.6), spec, recorder))
        )

    def test_chaos_point(self):
        # fault draw + strike times + kills + retransmissions, end to end
        storm = StormSpec(fault_rate=0.2, storm_seed=9)
        _assert_identical(
            lambda: run_chaos_point(
                _build(dict(network="tree", vcs=2), load=0.6), storm
            )
        )

    def test_different_seeds_actually_differ(self):
        # guard the guard: the canonicalization must not be so lossy
        # that any two runs compare equal
        a = _canonical(simulate(small_tree_config(load=0.5, seed=7)))
        b = _canonical(simulate(small_tree_config(load=0.5, seed=8)))
        assert a != b
