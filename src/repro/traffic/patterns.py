"""Synthetic traffic patterns (paper §7, plus standard extensions).

A :class:`TrafficPattern` maps a source node to a destination node each time
a packet is created.  The paper's benchmark set is

* **uniform** — destinations chosen uniformly at random,
* **complement** — every bit of the label inverted (all packets cross the
  network bisection),
* **bit reversal** — the label bit string reversed,
* **transpose** — the two halves of the bit string swapped,

and this module adds the other permutations commonly used in interconnection
network studies (shuffle, butterfly, tornado, neighbor) plus a hotspot
pattern, used by the ablation benchmarks.

Nodes whose destination equals the source (e.g. palindromes under bit
reversal — the paper notes 16 such nodes in the 256-node networks) do not
inject packets; :meth:`TrafficPattern.destination` returns the source itself
and the generator skips injection for them.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod

from ..errors import ConfigurationError, TopologyError
from ..routing.base import randbelow
from .address import bit_complement, bit_reverse, bit_transpose


class TrafficPattern(ABC):
    """Destination chooser for a network of ``num_nodes`` nodes.

    Subclasses implement :meth:`destination`.  Patterns must be cheap: they
    are evaluated once per generated packet inside the simulation loop.
    """

    #: short identifier used by the CLI and experiment reports
    name: str = "abstract"

    def __init__(self, num_nodes: int):
        if num_nodes < 2:
            raise ConfigurationError(f"need at least 2 nodes, got {num_nodes}")
        self.num_nodes = num_nodes

    @abstractmethod
    def destination(self, source: int, rng: random.Random) -> int:
        """Return the destination for a packet injected at ``source``.

        A return value equal to ``source`` means "this node does not
        inject" for deterministic permutations, or is re-drawn by random
        patterns that exclude self-traffic.
        """

    def is_permutation(self) -> bool:
        """True when the pattern is a fixed permutation (one dest per source)."""
        return False

    def active_sources(self) -> int:
        """Number of nodes that actually inject packets.

        Deterministic permutations with fixed points (e.g. bit reversal
        palindromes) have fewer active sources than nodes.
        """
        rng = random.Random(0)
        return sum(
            1 for s in range(self.num_nodes) if self.destination(s, rng) != s
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(num_nodes={self.num_nodes})"


class UniformPattern(TrafficPattern):
    """Destinations drawn uniformly at random among the *other* nodes.

    The paper describes uniform traffic as representative of well-balanced
    shared-memory computations.
    """

    name = "uniform"

    def destination(self, source: int, rng: random.Random) -> int:
        dst = randbelow(rng, self.num_nodes - 1)
        if dst >= source:
            dst += 1
        return dst


class PermutationPattern(TrafficPattern):
    """Base class for fixed permutations defined on the label bit string."""

    def __init__(self, num_nodes: int):
        super().__init__(num_nodes)
        if num_nodes & (num_nodes - 1):
            raise TopologyError(
                f"bit-permutation patterns need a power-of-two node count, got {num_nodes}"
            )
        self.nbits = num_nodes.bit_length() - 1

    def is_permutation(self) -> bool:
        return True

    @abstractmethod
    def permute(self, source: int) -> int:
        """The underlying permutation (or fixed map) on node labels."""

    def destination(self, source: int, rng: random.Random) -> int:
        return self.permute(source)


class BitComplementPattern(PermutationPattern):
    """Complement traffic: every packet crosses the network bisection."""

    name = "complement"

    def permute(self, source: int) -> int:
        return bit_complement(source, self.nbits)


class BitReversalPattern(PermutationPattern):
    """Bit reversal: destination label is the reversed bit string."""

    name = "bitrev"

    def permute(self, source: int) -> int:
        return bit_reverse(source, self.nbits)


class TransposePattern(PermutationPattern):
    """Transpose: the two halves of the bit string are swapped."""

    name = "transpose"

    def permute(self, source: int) -> int:
        return bit_transpose(source, self.nbits)


class ShufflePattern(PermutationPattern):
    """Perfect shuffle: rotate the bit string left by one position."""

    name = "shuffle"

    def permute(self, source: int) -> int:
        hi = (source >> (self.nbits - 1)) & 1
        return ((source << 1) | hi) & ((1 << self.nbits) - 1)


class ButterflyPattern(PermutationPattern):
    """Butterfly: swap the most and least significant bits."""

    name = "butterfly"

    def permute(self, source: int) -> int:
        lo = source & 1
        hi = (source >> (self.nbits - 1)) & 1
        if lo == hi:
            return source
        mask = 1 | (1 << (self.nbits - 1))
        return source ^ mask


class TornadoPattern(PermutationPattern):
    """Tornado: destination is ``(source + ceil(N/2) - 1) mod N``.

    A classic adversarial pattern for tori: all packets travel nearly half
    way around each ring in the same direction.
    """

    name = "tornado"

    def permute(self, source: int) -> int:
        shift = (self.num_nodes + 1) // 2 - 1
        if shift == 0:
            return source
        return (source + shift) % self.num_nodes

    def is_permutation(self) -> bool:
        return True


class NeighborPattern(PermutationPattern):
    """Nearest neighbor: destination is ``(source + 1) mod N``."""

    name = "neighbor"

    def permute(self, source: int) -> int:
        return (source + 1) % self.num_nodes


class HotspotPattern(TrafficPattern):
    """Uniform traffic with a fraction of packets redirected to hot nodes.

    Args:
        num_nodes: network size.
        hotspots: node ids receiving extra traffic (default: node 0).
        fraction: probability that a packet targets a hotspot instead of a
            uniformly random node.
    """

    name = "hotspot"

    def __init__(
        self,
        num_nodes: int,
        hotspots: tuple[int, ...] = (0,),
        fraction: float = 0.1,
    ):
        super().__init__(num_nodes)
        if not hotspots:
            raise ConfigurationError("hotspot pattern needs at least one hotspot")
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError(f"hotspot fraction {fraction} not in [0, 1]")
        for h in hotspots:
            if not 0 <= h < num_nodes:
                raise ConfigurationError(f"hotspot {h} out of range")
        self.hotspots = tuple(hotspots)
        self.fraction = fraction
        self._uniform = UniformPattern(num_nodes)

    def destination(self, source: int, rng: random.Random) -> int:
        if rng.random() < self.fraction:
            dst = self.hotspots[randbelow(rng, len(self.hotspots))]
            if dst != source:
                return dst
        return self._uniform.destination(source, rng)


#: Registry of pattern constructors taking only the node count.  The four
#: paper patterns come first; the rest are extensions.
PATTERNS: dict[str, type[TrafficPattern]] = {
    UniformPattern.name: UniformPattern,
    BitComplementPattern.name: BitComplementPattern,
    BitReversalPattern.name: BitReversalPattern,
    TransposePattern.name: TransposePattern,
    ShufflePattern.name: ShufflePattern,
    ButterflyPattern.name: ButterflyPattern,
    TornadoPattern.name: TornadoPattern,
    NeighborPattern.name: NeighborPattern,
    HotspotPattern.name: HotspotPattern,
}

#: The four patterns evaluated in the paper, in figure order.
PAPER_PATTERNS = ("uniform", "complement", "transpose", "bitrev")


def make_pattern(name: str, num_nodes: int, **kwargs) -> TrafficPattern:
    """Instantiate a registered pattern by name.

    Raises:
        ConfigurationError: for unknown pattern names.
    """
    try:
        cls = PATTERNS[name]
    except KeyError:
        known = ", ".join(sorted(PATTERNS))
        raise ConfigurationError(
            f"unknown traffic pattern {name!r}; known: {known}"
        ) from None
    return cls(num_nodes, **kwargs)
