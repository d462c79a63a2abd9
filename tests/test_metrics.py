"""Unit tests for metrics (series, saturation, CNF, analytic model)."""

import pytest

from repro.errors import AnalysisError
from repro.metrics.analytic import (
    expected_zero_load_latency,
    path_channels,
    zero_load_latency,
)
from repro.metrics.cnf import CNFResult, absolute_series, saturation_bits_per_ns
from repro.metrics.saturation import (
    post_saturation_stability,
    saturation_point,
    sustained_rate,
)
from repro.metrics.series import LoadPoint, LoadSweepSeries
from repro.sim.results import saturated
from repro.timing.normalization import cube_scaling
from repro.topology.cube import KAryNCube
from repro.topology.tree import KAryNTree


def series(points, label="x"):
    """Build a series from (offered, accepted, latency) triples."""
    s = LoadSweepSeries(label=label, network="cube", algorithm="dor", vcs=4, pattern="uniform")
    s.points = [
        LoadPoint(
            offered=o,
            offered_measured=o,
            accepted=a,
            latency_cycles=l,
            delivered_packets=100,
        )
        for o, a, l in points
    ]
    return s


SATURATING = [
    (0.2, 0.2, 40.0),
    (0.4, 0.4, 50.0),
    (0.6, 0.55, 80.0),
    (0.8, 0.56, 120.0),
    (1.0, 0.55, 150.0),
]


class TestSeries:
    def test_points_sorted_on_add(self):
        from repro.sim.results import RunResult
        from .test_packet_results import cfg

        s = LoadSweepSeries(label="t", network="cube", algorithm="dor", vcs=4, pattern="uniform")
        for load in (0.5, 0.1, 0.3):
            r = RunResult(config=cfg(load=load), measured_cycles=1000, delivered_flits=100)
            s.add(r)
        assert s.offered() == [0.1, 0.3, 0.5]

    def test_peak_accepted(self):
        assert series(SATURATING).peak_accepted() == pytest.approx(0.56)

    def test_peak_requires_points(self):
        with pytest.raises(AnalysisError):
            series([]).peak_accepted()

    def test_accessors(self):
        s = series(SATURATING)
        assert len(s) == 5
        assert s.accepted()[0] == 0.2
        assert s.latencies()[-1] == 150.0


class TestSaturation:
    def test_unsaturated_returns_last_load(self):
        s = series([(0.2, 0.2, 40.0), (0.5, 0.5, 45.0)])
        assert saturation_point(s) == 0.5

    def test_interpolates_crossing(self):
        sat = saturation_point(series(SATURATING))
        assert 0.4 < sat < 0.62

    def test_saturated_from_start(self):
        s = series([(0.5, 0.2, 99.0), (1.0, 0.2, 200.0)])
        assert saturation_point(s) == 0.5

    def test_the_margin_is_relative_and_exclusive(self):
        # accepted exactly SATURATION_TOLERANCE below offered is still noise
        assert not saturated(1.0, 0.95)
        assert saturated(1.0, 0.9499)
        assert saturated(0.5, 0.47) and not saturated(0.5, 0.48)
        assert not saturated(0.0, 0.0)  # an empty window never saturates

    def test_empty_series_rejected(self):
        with pytest.raises(AnalysisError):
            saturation_point(series([]))

    def test_sustained_rate(self):
        rate = sustained_rate(series(SATURATING))
        assert rate == pytest.approx(0.5533, abs=0.02)

    def test_stability_flat_curve(self):
        s = series(SATURATING)
        assert post_saturation_stability(s) < 0.05

    def test_stability_degrading_curve(self):
        s = series(
            [(0.2, 0.2, 40.0), (0.5, 0.45, 60.0), (0.8, 0.30, 100.0), (1.0, 0.2, 150.0)]
        )
        assert post_saturation_stability(s) > 0.3


class TestCNF:
    def test_summaries(self):
        cnf = CNFResult(title="t", series=[series(SATURATING, "a"), series(SATURATING, "b")])
        sat = cnf.saturation_summary()
        assert set(sat) == {"a", "b"}
        sus = cnf.sustained_summary()
        assert all(0.5 < v < 0.6 for v in sus.values())

    def test_absolute_conversion(self):
        scaling = cube_scaling(16, 2, clock_ns=7.8)
        pts = absolute_series(series(SATURATING), scaling)
        assert len(pts) == 5
        # accepted 0.55 of capacity -> 0.55 * 0.5 * 256 * 32 bits / 7.8 ns
        assert pts[-1].accepted_bits_per_ns == pytest.approx(0.55 * 0.5 * 256 * 32 / 7.8)
        assert pts[0].latency_ns == pytest.approx(40 * 7.8)

    def test_absolute_handles_missing_latency(self):
        scaling = cube_scaling(16, 2, clock_ns=7.8)
        s = series([(1.0, 0.5, None)])
        assert absolute_series(s, scaling)[0].latency_ns is None

    def test_saturation_bits_per_ns(self):
        scaling = cube_scaling(16, 2, clock_ns=7.8)
        bits = saturation_bits_per_ns(series(SATURATING), scaling)
        assert bits == pytest.approx(scaling.aggregate_bits_per_ns(0.5533), rel=0.05)


class TestAnalytic:
    def test_zero_load_formula(self):
        assert zero_load_latency(2, 32) == 34
        assert zero_load_latency(3, 16) == 21

    def test_validation(self):
        with pytest.raises(AnalysisError):
            zero_load_latency(0, 16)
        with pytest.raises(AnalysisError):
            zero_load_latency(2, 0)

    def test_path_channels_tree_vs_cube(self):
        tree = KAryNTree(2, 2)
        cube = KAryNCube(4, 2)
        assert path_channels(tree, 0, 1) == 2
        assert path_channels(cube, 0, 1) == 3

    def test_path_channels_unknown_topology(self):
        with pytest.raises(AnalysisError):
            path_channels(object(), 0, 1)

    def test_expected_latency_uniform(self):
        cube = KAryNCube(4, 2)
        val = expected_zero_load_latency(cube, 16)
        # avg distance = 2*16/15 ... enumerated independently:
        from repro.topology.properties import exact_average_distance

        avg_hops = exact_average_distance(cube)
        assert val == pytest.approx(3 * (avg_hops + 2) + 16 - 4)

    def test_expected_latency_excludes_fixed_points(self):
        tree = KAryNTree(2, 2)
        with pytest.raises(AnalysisError):
            expected_zero_load_latency(tree, 8, mapping=lambda s: s)


class TestLatencyPercentiles:
    def test_from_live_run(self):
        from repro.sim.run import cube_config, simulate

        res = simulate(
            cube_config(
                k=4, n=2, algorithm="dor", load=0.4, seed=5,
                warmup_cycles=100, total_cycles=1100, collect_latencies=True,
            )
        )
        pcts = res.latency_percentiles()
        assert pcts["p50"] <= pcts["p95"] <= pcts["p99"] <= pcts["max"]
        assert pcts["p50"] >= res.config.packet_flits
        assert pcts["samples"] == len(res.latencies)
