"""Unit tests for traffic patterns (repro.traffic.patterns)."""

import random

import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.traffic.patterns import (
    PAPER_PATTERNS,
    PATTERNS,
    BitComplementPattern,
    BitReversalPattern,
    ButterflyPattern,
    HotspotPattern,
    NeighborPattern,
    ShufflePattern,
    TornadoPattern,
    TransposePattern,
    UniformPattern,
    make_pattern,
)

N = 256


@pytest.fixture
def rng():
    return random.Random(42)


class TestRegistry:
    def test_paper_patterns_registered(self):
        for name in PAPER_PATTERNS:
            assert name in PATTERNS

    def test_make_pattern(self):
        p = make_pattern("complement", N)
        assert isinstance(p, BitComplementPattern)

    def test_unknown_pattern(self):
        with pytest.raises(ConfigurationError, match="unknown traffic pattern"):
            make_pattern("nope", N)

    def test_all_registered_patterns_instantiable(self, rng):
        for name in PATTERNS:
            p = make_pattern(name, N)
            d = p.destination(3, rng)
            assert 0 <= d < N


class TestUniform:
    def test_never_self(self, rng):
        p = UniformPattern(N)
        for src in (0, 100, 255):
            for _ in range(200):
                assert p.destination(src, rng) != src

    def test_covers_all_destinations(self, rng):
        p = UniformPattern(8)
        seen = {p.destination(3, rng) for _ in range(2000)}
        assert seen == set(range(8)) - {3}

    def test_roughly_uniform(self, rng):
        p = UniformPattern(4)
        counts = [0] * 4
        for _ in range(9000):
            counts[p.destination(0, rng)] += 1
        assert counts[0] == 0
        for c in counts[1:]:
            assert 2700 < c < 3300  # 3000 expected, generous band

    def test_not_permutation(self):
        assert not UniformPattern(N).is_permutation()

    def test_too_small(self):
        with pytest.raises(ConfigurationError):
            UniformPattern(1)

    @pytest.mark.parametrize("nodes", [2, 3, 8, 17, 256])
    def test_the_draw_is_randranges_value_and_stream_position(self, nodes):
        # destination() draws through routing.base.randbelow, not
        # randrange(nodes - 1): the same getrandbits draws, so the same
        # destinations and the same stream after them (nodes=2 draws below 1)
        p = UniformPattern(nodes)
        rng, twin = random.Random(17), random.Random(17)
        for i in range(10_000):
            src = i % nodes
            dst = twin.randrange(nodes - 1)
            assert p.destination(src, rng) == (dst + 1 if dst >= src else dst)
        assert rng.getstate() == twin.getstate()


class TestComplement:
    def test_all_cross_bisection(self):
        # complement flips the MSB, so src and dst are always in different
        # halves of the node range
        p = BitComplementPattern(N)
        for src in range(N):
            dst = p.permute(src)
            assert (src < N // 2) != (dst < N // 2)

    def test_is_permutation(self):
        p = BitComplementPattern(N)
        assert p.is_permutation()
        assert sorted(p.permute(s) for s in range(N)) == list(range(N))

    def test_all_sources_active(self):
        assert BitComplementPattern(N).active_sources() == N

    def test_non_power_of_two_rejected(self):
        with pytest.raises(TopologyError):
            BitComplementPattern(100)


class TestBitReversal:
    def test_palindromes_inactive(self):
        p = BitReversalPattern(N)
        assert p.active_sources() == N - 16  # paper §9

    def test_is_permutation(self):
        p = BitReversalPattern(N)
        assert sorted(p.permute(s) for s in range(N)) == list(range(N))


class TestTranspose:
    def test_diagonal_inactive(self):
        p = TransposePattern(N)
        assert p.active_sources() == N - 16

    def test_is_permutation(self):
        p = TransposePattern(N)
        assert sorted(p.permute(s) for s in range(N)) == list(range(N))


class TestShuffle:
    def test_rotation(self):
        p = ShufflePattern(8)  # 3 bits
        assert p.permute(0b001) == 0b010
        assert p.permute(0b100) == 0b001

    def test_is_permutation(self):
        p = ShufflePattern(64)
        assert sorted(p.permute(s) for s in range(64)) == list(range(64))

    def test_fixed_points(self):
        p = ShufflePattern(16)
        assert p.permute(0) == 0
        assert p.permute(15) == 15


class TestButterfly:
    def test_swaps_extreme_bits(self):
        p = ButterflyPattern(16)  # 4 bits
        assert p.permute(0b1000) == 0b0001
        assert p.permute(0b0001) == 0b1000
        assert p.permute(0b1001) == 0b1001  # equal extremes: fixed

    def test_is_permutation(self):
        p = ButterflyPattern(64)
        assert sorted(p.permute(s) for s in range(64)) == list(range(64))


class TestTornado:
    def test_half_ring_offset(self):
        p = TornadoPattern(16)
        assert p.permute(0) == 7  # ceil(16/2) - 1
        assert p.permute(10) == 1

    def test_is_permutation(self):
        p = TornadoPattern(64)
        assert sorted(p.permute(s) for s in range(64)) == list(range(64))


class TestNeighbor:
    def test_successor(self):
        p = NeighborPattern(16)
        assert p.permute(5) == 6
        assert p.permute(15) == 0


class TestHotspot:
    def test_hotspot_bias(self, rng):
        p = HotspotPattern(N, hotspots=(7,), fraction=0.5)
        hits = sum(1 for _ in range(4000) if p.destination(0, rng) == 7)
        # ~50% directed + ~0.2% uniform share
        assert 1800 < hits < 2250

    def test_zero_fraction_is_uniform(self, rng):
        p = HotspotPattern(N, hotspots=(7,), fraction=0.0)
        hits = sum(1 for _ in range(2000) if p.destination(0, rng) == 7)
        assert hits < 40

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HotspotPattern(N, hotspots=())
        with pytest.raises(ConfigurationError):
            HotspotPattern(N, fraction=1.5)
        with pytest.raises(ConfigurationError):
            HotspotPattern(N, hotspots=(N,))

    @pytest.mark.parametrize("hotspots", [(7,), (3, 9), (1, 5, 200), tuple(range(0, 256, 16))])
    def test_the_draw_is_randranges_value_and_stream_position(self, hotspots):
        # the hot-spot pick draws through routing.base.randbelow too
        p = HotspotPattern(N, hotspots=hotspots, fraction=0.5)
        rng, twin = random.Random(23), random.Random(23)
        for i in range(10_000):
            src = i % N
            expected = None
            if twin.random() < 0.5:
                hot = hotspots[twin.randrange(len(hotspots))]
                if hot != src:
                    expected = hot
            if expected is None:
                dst = twin.randrange(N - 1)
                expected = dst + 1 if dst >= src else dst
            assert p.destination(src, rng) == expected
        assert rng.getstate() == twin.getstate()

    def test_never_self_via_hotspot(self, rng):
        p = HotspotPattern(N, hotspots=(0,), fraction=1.0)
        for _ in range(100):
            assert p.destination(0, rng) != 0
