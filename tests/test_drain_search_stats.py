"""Unit tests for drains, saturation search and replication statistics."""

import pytest

from repro.errors import AnalysisError, ConfigurationError
from repro.experiments.drain import drain_permutation
from repro.experiments.search import SaturationEstimate, find_saturation, is_saturated
from repro.experiments.stats import replicate_point, t_confidence
from repro.experiments.sweep import clear_cache
from repro.metrics.analytic import expected_zero_load_latency
from repro.sim.run import cube_config, tree_config


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestDrain:
    def test_complement_drain_on_tree(self):
        result = drain_permutation(tree_config(k=2, n=2, vcs=2, pattern="complement"))
        assert result.messages == 4
        assert result.makespan_cycles >= result.config.packet_flits
        assert result.avg_latency_cycles <= result.max_latency_cycles
        assert result.aggregate_flits_per_cycle > 0

    def test_drain_latency_bounded_below_by_model(self):
        from repro.topology.cube import KAryNCube
        from repro.traffic.address import bit_complement

        cfg = cube_config(k=4, n=2, algorithm="duato", pattern="complement")
        result = drain_permutation(cfg)
        assert result.messages == 16
        lower = expected_zero_load_latency(
            KAryNCube(4, 2), cfg.packet_flits, mapping=lambda s: bit_complement(s, 4)
        )
        # contention can only add latency
        assert result.avg_latency_cycles >= lower - 1e-9

    def test_drain_rejects_random_patterns(self):
        with pytest.raises(ConfigurationError, match="permutation"):
            drain_permutation(tree_config(k=2, n=2, pattern="uniform"))

    def test_drain_ignores_fixed_points(self):
        result = drain_permutation(tree_config(k=2, n=2, vcs=1, pattern="bitrev"))
        assert result.messages == 2  # 2 palindromes among 4 two-bit labels

    def test_identity_like_pattern_rejected(self):
        # shuffle on N=2 nodes fixes everything -> nothing to drain
        with pytest.raises(ConfigurationError):
            drain_permutation(tree_config(k=2, n=1, vcs=1, pattern="shuffle"))

    def test_drain_faster_for_congestion_free_pattern(self):
        free = drain_permutation(tree_config(k=4, n=2, vcs=1, pattern="complement"))
        congested = drain_permutation(tree_config(k=4, n=2, vcs=1, pattern="bitrev"))
        # per-packet normalized drain time (bitrev moves fewer packets)
        assert free.makespan_cycles / free.messages < congested.makespan_cycles / congested.messages

    def test_the_drained_config_keeps_every_field_it_does_not_override(self):
        # both drains used to rebuild the config field by field and lost
        # the arbiter and the timeline interval on the way
        from repro.workloads import alltoall_trace, run_trace

        config = tree_config(k=4, n=2, vcs=1, pattern="bitrev", arbiter="age", interval_cycles=50)
        for drained in (
            drain_permutation(config).config,
            run_trace(config, alltoall_trace(16, flits=8)).config,
        ):
            assert (drained.arbiter, drained.interval_cycles) == ("age", 50)
            assert (drained.load, drained.warmup_cycles, drained.collect_latencies) == (0.0, 0, True)


class TestSaturationSearch:
    @staticmethod
    def factory(load):
        return cube_config(
            k=4, n=2, algorithm="dor", load=load, seed=5,
            warmup_cycles=200, total_cycles=1700,
        )

    def test_bisection_brackets(self):
        est = find_saturation(self.factory, lo=0.05, hi=1.0, resolution=0.1)
        assert isinstance(est, SaturationEstimate)
        assert est.lo <= est.load <= est.hi
        assert 0.1 < est.load < 0.9  # the small cube saturates mid-range
        assert est.hi - est.lo <= 0.25
        assert est.evaluations <= 12

    def test_unsaturated_network_returns_hi(self):
        est = find_saturation(self.factory, lo=0.02, hi=0.1)
        assert est.load == 0.1
        assert est.hi == est.lo

    def test_invalid_bracket(self):
        with pytest.raises(AnalysisError):
            find_saturation(self.factory, lo=0.5, hi=0.2)

    def test_is_saturated_consistency(self):
        from repro.experiments.sweep import run_point

        low = run_point(self.factory(0.1))
        high = run_point(self.factory(1.0))
        assert not is_saturated(low)
        assert is_saturated(high)


class TestStatistics:
    def test_t_confidence_known_values(self):
        est = t_confidence([1.0, 2.0, 3.0])
        assert est.mean == pytest.approx(2.0)
        # s = 1, n = 3, t(2) = 4.303 -> hw = 4.303/sqrt(3)
        assert est.half_width == pytest.approx(4.303 / 3**0.5, rel=1e-3)
        assert est.lo < est.mean < est.hi

    def test_t_confidence_needs_two(self):
        with pytest.raises(AnalysisError):
            t_confidence([1.0])

    def test_zero_variance(self):
        est = t_confidence([5.0, 5.0, 5.0, 5.0])
        assert est.half_width == 0.0

    def test_large_sample_uses_normal(self):
        est = t_confidence([0.0, 1.0] * 40)
        assert est.half_width == pytest.approx(1.96 * (0.5031 / 80**0.5) ** 1, rel=0.05)

    def test_replicate_point(self):
        point = replicate_point(
            lambda seed: cube_config(
                k=4, n=2, algorithm="dor", load=0.2, seed=seed,
                warmup_cycles=200, total_cycles=1200,
            ),
            seeds=(1, 2, 3, 4),
        )
        assert point.load == 0.2
        assert point.accepted.samples == 4
        # at 20% load the point is comfortably unsaturated: accepted ~ 0.2
        assert point.accepted.mean == pytest.approx(0.2, abs=0.04)
        assert point.latency_cycles is not None
        assert point.latency_cycles.mean > 0

    def test_replicate_needs_seeds(self):
        with pytest.raises(ConfigurationError):
            replicate_point(lambda seed: cube_config(k=4, n=2, seed=seed), seeds=(1,))

    def test_replicate_rejects_varying_load(self):
        seeds = iter((0.1, 0.2, 0.3))

        def bad(seed):
            return cube_config(
                k=4, n=2, algorithm="dor", load=next(seeds), seed=seed,
                warmup_cycles=50, total_cycles=300,
            )

        with pytest.raises(ConfigurationError, match="fixed"):
            replicate_point(bad, seeds=(1, 2, 3))