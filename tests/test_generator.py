"""Unit tests for packet generation (repro.traffic.generator)."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.traffic.generator import BernoulliInjector, PacketSource
from repro.traffic.patterns import (
    BitReversalPattern,
    TransposePattern,
    UniformPattern,
)


def make_source(prob, node=0, num_nodes=16, seed=1):
    return PacketSource(node, UniformPattern(num_nodes), prob, random.Random(seed))


class TestPacketSource:
    def test_zero_probability_inactive(self):
        src = make_source(0.0)
        assert not src.active
        assert src.advance(10_000) == 0
        assert len(src.queue) == 0

    def test_rate_matches_probability(self):
        src = make_source(0.05)
        cycles = 50_000
        total = sum(src.advance(t) for t in range(cycles))
        assert 0.9 * 0.05 * cycles < total < 1.1 * 0.05 * cycles

    def test_at_most_one_per_cycle(self):
        src = make_source(1.0)
        for t in range(100):
            assert src.advance(t) <= 1
        assert len(src.queue) == 100

    def test_creation_times_recorded(self):
        src = make_source(0.2)
        src.advance(500)
        times = [t for t, _ in src.queue]
        assert times == sorted(times)
        assert all(0 <= t <= 500 for t in times)

    def test_inter_arrival_geometric_mean(self):
        src = make_source(0.1, seed=3)
        src.advance(200_000)
        times = [t for t, _ in src.queue]
        gaps = [b - a for a, b in zip(times, times[1:])]
        mean = sum(gaps) / len(gaps)
        assert 9.0 < mean < 11.0  # 1/p = 10

    def test_permutation_fixed_point_inactive(self):
        # node 0 is a palindrome under bit reversal: never injects
        pattern = BitReversalPattern(256)
        src = PacketSource(0, pattern, 0.5, random.Random(1))
        assert not src.active

    def test_permutation_moving_point_active(self):
        pattern = BitReversalPattern(256)
        src = PacketSource(1, pattern, 0.5, random.Random(1))
        assert src.active
        src.advance(100)
        assert all(dst == 128 for _, dst in src.queue)  # reverse of 00000001

    def test_invalid_probability(self):
        with pytest.raises(ConfigurationError):
            make_source(1.5)
        with pytest.raises(ConfigurationError):
            make_source(-0.1)


class TestBernoulliInjector:
    def test_per_node_sources(self):
        inj = BernoulliInjector(UniformPattern(8), 0.25, packet_flits=16, seed=5)
        assert len(inj.sources) == 8
        assert inj.offered_flits_per_cycle() == pytest.approx(0.25)

    def test_probability_derivation(self):
        inj = BernoulliInjector(UniformPattern(8), 0.5, packet_flits=16, seed=5)
        assert inj.prob == pytest.approx(0.5 / 16)

    def test_independent_streams(self):
        inj = BernoulliInjector(UniformPattern(8), 0.5, packet_flits=4, seed=5)
        for s in inj.sources:
            s.advance(2000)
        queues = [tuple(s.queue) for s in inj.sources]
        assert len(set(queues)) == len(queues)  # no two nodes identical

    def test_seed_reproducibility(self):
        a = BernoulliInjector(UniformPattern(8), 0.5, packet_flits=4, seed=9)
        b = BernoulliInjector(UniformPattern(8), 0.5, packet_flits=4, seed=9)
        for sa, sb in zip(a.sources, b.sources):
            sa.advance(1000)
            sb.advance(1000)
            assert list(sa.queue) == list(sb.queue)

    def test_seed_sensitivity(self):
        a = BernoulliInjector(UniformPattern(8), 0.5, packet_flits=4, seed=9)
        b = BernoulliInjector(UniformPattern(8), 0.5, packet_flits=4, seed=10)
        a.sources[0].advance(1000)
        b.sources[0].advance(1000)
        assert list(a.sources[0].queue) != list(b.sources[0].queue)

    def test_overload_rejected(self):
        with pytest.raises(ConfigurationError, match="exceeds one"):
            BernoulliInjector(UniformPattern(8), 20.0, packet_flits=16)

    def test_negative_load_rejected(self):
        with pytest.raises(ConfigurationError):
            BernoulliInjector(UniformPattern(8), -1.0, packet_flits=16)

    def test_fixed_points_do_not_inject(self):
        inj = BernoulliInjector(TransposePattern(256), 0.5, packet_flits=16, seed=2)
        active = sum(1 for s in inj.sources if s.active)
        assert active == 240  # 256 - 16 diagonal nodes
