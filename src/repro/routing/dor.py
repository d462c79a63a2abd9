"""Deterministic dimension-order routing on k-ary n-cubes (paper §3).

Packets correct one dimension at a time, in fixed order (dimension 0
first), always along a minimal direction (ties at exactly half the ring
take the positive direction, keeping the path unique).  The wrap-around
channels would close cyclic channel dependencies, so the classic
Dally–Seitz construction doubles the virtual channels into **two virtual
networks**: a packet uses the first virtual network until it crosses a
wrap-around connection (in the dimension it is currently correcting) and
the second afterwards.

We use the equivalent position-based formulation: the virtual network is
chosen from whether the *remaining* path in the current dimension still
crosses the wrap-around — "will cross" selects network 0, "will not"
network 1.  A minimal path crosses each wrap at most once, so this is
exactly "switch networks upon crossing", without per-packet state.  With
the paper's V = 4 each virtual network owns two virtual channels, giving
routing freedom F = 2 (the two channels of the current network on the
single allowed link).
"""

from __future__ import annotations

import itertools

from ..errors import ConfigurationError
from ..router.lane import InputLane, OutputLane
from ..sim.packet import Packet
from ..topology.cube import KAryNCube
from .base import RoutingAlgorithm, register


class _CubeRoutingBase(RoutingAlgorithm):
    """Shared cube helpers: coordinate math and the ejection channel."""

    network = "cube"

    def attach(self, engine) -> None:
        super().attach(engine)
        topo = engine.topology
        if not isinstance(topo, KAryNCube):
            raise ConfigurationError(f"{self.name} requires a KAryNCube topology")
        self.topo = topo
        self.k = topo.k
        self.n = topo.n
        self.eject_port = topo.ports_per_switch()
        k = self.k
        #: per node, its coordinate in every dimension (dimension 0 is the
        #: most significant digit, which is the order ``product`` counts in)
        self._coords = list(itertools.product(range(k), repeat=self.n))
        #: ``_hops[dim][a][b]``: how to correct dimension ``dim`` from
        #: coordinate ``a`` to ``b`` (None when equal), see :meth:`_dim_hops`.
        #: n·k² small entries, so a header's hop is table look-ups, not
        #: divisions, and there is nothing to warm up
        self._hops = [self._dim_hops(dim) for dim in range(self.n)]

    def _dim_hops(self, dim: int) -> list[list[tuple | None]]:
        """``[a][b] -> (dim, minimal ports, dor port, dor direction,
        virtual network)`` for one dimension.

        Both directions are minimal at exactly half the ring; the
        deterministic hop then takes the positive one, keeping the path
        unique.  The virtual network is 0 while the remaining path in
        ``dim`` crosses the wrap-around, 1 afterwards (module docstring).
        """
        k = self.k
        plus = self.topo.port_for(dim, 1)
        minus = self.topo.port_for(dim, -1)
        table: list[list[tuple | None]] = [[None] * k for _ in range(k)]
        for a in range(k):
            row = table[a]
            for b in range(k):
                if a == b:
                    continue
                delta = (b - a) % k
                if delta * 2 < k:
                    row[b] = (dim, (plus,), plus, 1, 0 if b < a else 1)
                elif delta * 2 == k:
                    row[b] = (dim, (plus, minus), plus, 1, 0 if b < a else 1)
                else:
                    row[b] = (dim, (minus,), minus, -1, 0 if b > a else 1)
        return table

    def _first_hop(self, switch: int, dst: int) -> tuple | None:
        """The :meth:`_dim_hops` entry of the lowest dimension still to
        correct (dimensions are corrected in fixed order); None when
        ``switch == dst``."""
        dim = 0
        for a, b in zip(self._coords[switch], self._coords[dst]):
            if a != b:
                return self._hops[dim][a][b]
            dim += 1
        return None

    def dor_hop(self, switch: int, dst: int) -> tuple[int, int, int] | None:
        """Deterministic next hop: ``(dim, direction, virtual_network)``.

        Returns None when ``switch == dst`` (time to eject).
        """
        hop = self._first_hop(switch, dst)
        if hop is None:
            return None
        dim, _, _, direction, vn = hop
        return dim, direction, vn

    def eject(self, switch: int) -> OutputLane | None:
        return self.pick_free_lane(self.out[switch][self.eject_port])


@register
class DimensionOrderRouting(_CubeRoutingBase):
    """Dally–Seitz deterministic routing, two virtual networks."""

    name = "dor"

    def attach(self, engine) -> None:
        super().attach(engine)
        if engine.config.vcs % 2:
            raise ConfigurationError("dor needs an even number of VCs")
        #: virtual channels per virtual network
        self.half = engine.config.vcs // 2

    def _lanes_for(self, switch: int, dst: int) -> list[OutputLane]:
        """The lanes a header at ``switch`` bound for ``dst`` may take."""
        hop = self._first_hop(switch, dst)
        if hop is None:
            return self.out[switch][self.eject_port]
        _, _, port, _, vn = hop
        base = vn * self.half
        return self.out[switch][port][base : base + self.half]

    def select(self, switch: int, inlane: InputLane, packet: Packet) -> OutputLane | None:
        return self.pick_free_lane(self._lanes_for(switch, packet.dst))

    def candidates(self, switch: int, inlane: InputLane, packet: Packet) -> list[OutputLane]:
        return list(self._lanes_for(switch, packet.dst))
