"""Packet generation processes (paper §4, §7).

Each node generates fixed-size packets according to a Bernoulli process: in
every cycle a packet is created with probability ``p`` chosen so that the
node offers ``load × capacity`` flits per cycle.  Rather than drawing one
random number per node per cycle, :class:`PacketSource` samples the
geometric inter-arrival gaps directly, which is equivalent and much cheaper
(one draw per packet).

Deterministic permutations with fixed points (``dest == source``) simply
never inject at those nodes, matching the paper's observation that under
bit reversal 16 nodes "do not inject any packet into the network".
"""

from __future__ import annotations

import math
import random
from collections import deque

from ..errors import ConfigurationError
from .patterns import TrafficPattern

#: "no further creation": what a source's ``next_cycle`` returns when it
#: will never create again (beyond any cycle count a run can reach)
NEVER = 1 << 62


class PacketSource:
    """Bernoulli packet source for a single node.

    Args:
        node: the source node id.
        pattern: destination chooser.
        prob: per-cycle packet creation probability in ``[0, 1]``.
        rng: dedicated random stream (sources must not share streams if
            runs are to be reproducible under refactoring).
    """

    __slots__ = ("node", "pattern", "prob", "rng", "queue", "_next", "_log1mp", "active")

    #: a Bernoulli process never runs dry, so a run it feeds lasts
    #: ``config.total_cycles`` (a trace's source is finite: its run drains)
    finite = False

    def __init__(self, node: int, pattern: TrafficPattern, prob: float, rng: random.Random):
        if not 0.0 <= prob <= 1.0:
            raise ConfigurationError(f"injection probability {prob} not in [0, 1]")
        self.node = node
        self.pattern = pattern
        self.prob = prob
        self.rng = rng
        #: queue of (creation_cycle, destination) awaiting injection
        self.queue: deque[tuple[int, int]] = deque()
        self.active = prob > 0.0
        if self.active and pattern.is_permutation():
            # Fixed-point sources never inject.
            if pattern.destination(node, rng) == node:
                self.active = False
        self._log1mp = math.log1p(-prob) if 0.0 < prob < 1.0 else 0.0
        # The first arrival counts failures from cycle 0 inclusive, so it
        # draws a gap from the virtual cycle -1 (arrival at cycle 0 is
        # possible); subsequent gaps are >= 1 cycle apart.
        self._next = self._draw_gap(start=-1) if self.active else -1

    def _draw_gap(self, start: int) -> int:
        """Next creation cycle at or after ``start`` (geometric gap >= 1)."""
        if self.prob >= 1.0:
            return start + 1
        u = self.rng.random()
        # Geometric number of failures before the first success.
        gap = int(math.log(u) / self._log1mp) + 1 if u > 0.0 else 1
        return start + max(gap, 1)

    def advance(self, cycle: int) -> int:
        """Generate all packets created up to and including ``cycle``.

        Returns the number of packets created this call.  Created packets
        are appended to :attr:`queue` with their creation cycle (used for
        measuring the offered load and, if ever needed, total latency
        including source queueing).
        """
        if not self.active:
            return 0
        created = 0
        while self._next <= cycle:
            dst = self.pattern.destination(self.node, self.rng)
            if dst != self.node:
                self.queue.append((self._next, dst))
                created += 1
            self._next = self._draw_gap(self._next)
        return created

    def next_cycle(self) -> int:
        """The next cycle :meth:`advance` creates a packet in.

        The engine polls a source only from that cycle on (calling
        ``advance`` earlier is harmless, calling it later is not: created
        packets are counted in the cycle of the call).
        """
        return self._next if self.active else NEVER


class BernoulliInjector:
    """Factory wiring one :class:`PacketSource` per node.

    Args:
        pattern: traffic pattern shared by all nodes.
        flits_per_cycle: offered load per node in flits/cycle
            (``fraction-of-capacity × node capacity``).
        packet_flits: packet length in flits; the per-cycle packet
            probability is ``flits_per_cycle / packet_flits``.
        seed: master seed; each node gets an independent substream.
    """

    def __init__(
        self,
        pattern: TrafficPattern,
        flits_per_cycle: float,
        packet_flits: int,
        seed: int = 0,
    ):
        if packet_flits < 1:
            raise ConfigurationError(f"packet_flits must be >= 1, got {packet_flits}")
        if flits_per_cycle < 0:
            raise ConfigurationError(f"negative offered load {flits_per_cycle}")
        prob = flits_per_cycle / packet_flits
        if prob > 1.0:
            raise ConfigurationError(
                f"offered load {flits_per_cycle} flits/cycle exceeds one "
                f"packet per cycle (packet is {packet_flits} flits)"
            )
        self.pattern = pattern
        self.packet_flits = packet_flits
        self.prob = prob
        self.seed = seed
        self.num_nodes = pattern.num_nodes
        master = random.Random(seed)
        self.sources = [
            PacketSource(node, pattern, prob, random.Random(master.getrandbits(64)))
            for node in range(pattern.num_nodes)
        ]

    def offered_flits_per_cycle(self) -> float:
        """Nominal per-node offered load in flits/cycle."""
        return self.prob * self.packet_flits
