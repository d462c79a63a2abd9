"""k-ary n-cubes (paper §3).

A k-ary n-cube arranges ``k**n`` nodes on an n-dimensional grid with k nodes
per dimension and wrap-around connections (a torus).  The binary hypercube
is the ``k = 2`` special case and the 2-D torus the ``n = 2`` special case;
the paper's evaluation network is the 16-ary 2-cube.

It is a *direct* topology: every node owns one router (switch), so there
are ``k**n`` routing chips and the node interface is a dedicated
injection/ejection port on the local router.

Coordinates follow the paper's labeling: node id = base-k number
``p0 p1 ... p_{n-1}`` with ``p0`` most significant; dimension ``i`` moves
digit ``p_i``.  Router ports: port ``2i`` is the "+" direction of dimension
i (digit + 1 mod k) and port ``2i + 1`` the "−" direction.
"""

from __future__ import annotations

from ..errors import TopologyError
from ..traffic.address import digits_to_node, node_to_digits
from .base import NodeLink, SwitchLink, Topology


class KAryNCube(Topology):
    """A k-ary n-cube (torus) with ``k**n`` nodes and one router per node.

    Args:
        k: radix — nodes per dimension (``>= 2``).
        n: dimension (``>= 1``).  ``k == 2`` gives the binary hypercube
            (note that both the +/− ports then reach the same neighbor over
            two distinct physical channels; we collapse them to one channel
            per dimension, as real hypercubes do).
    """

    def __init__(self, k: int, n: int):
        if k < 2:
            raise TopologyError(f"k-ary n-cube needs k >= 2, got k={k}")
        if n < 1:
            raise TopologyError(f"k-ary n-cube needs n >= 1, got n={n}")
        self.k = k
        self.n = n
        self.num_nodes = k**n
        self.num_switches = self.num_nodes
        # Digit weight of dimension i: node id = sum(p_i * weight[i]).
        self._weight = [k ** (n - 1 - i) for i in range(n)]

    # -- coordinates ---------------------------------------------------------

    def coordinates(self, node: int) -> tuple[int, ...]:
        """Digits ``(p0, ..., p_{n-1})`` of a node id, p0 most significant."""
        return node_to_digits(node, self.k, self.n)

    def node_at(self, coords: tuple[int, ...] | list[int]) -> int:
        """Inverse of :meth:`coordinates`."""
        if len(coords) != self.n:
            raise TopologyError(f"expected {self.n} coordinates, got {len(coords)}")
        return digits_to_node(tuple(coords), self.k)

    def digit(self, node: int, dim: int) -> int:
        """Coordinate of ``node`` in dimension ``dim`` without full decode."""
        self._check_node(node)
        self._check_dim(dim)
        return (node // self._weight[dim]) % self.k

    def neighbor(self, node: int, dim: int, direction: int) -> int:
        """Neighbor of ``node`` one hop along ``dim``.

        Args:
            direction: ``+1`` (digit + 1 mod k) or ``-1``.
        """
        self._check_node(node)
        self._check_dim(dim)
        if direction not in (1, -1):
            raise TopologyError(f"direction must be +1 or -1, got {direction}")
        w = self._weight[dim]
        p = (node // w) % self.k
        q = (p + direction) % self.k
        return node + (q - p) * w

    # -- ports ---------------------------------------------------------------

    def ports_per_switch(self) -> int:
        """Link ports only; the engine adds the node-interface port itself."""
        if self.k == 2:
            return self.n  # one channel per dimension in a hypercube
        return 2 * self.n

    def port_for(self, dim: int, direction: int) -> int:
        """Router port for moving along ``dim`` in ``direction`` (+1/−1)."""
        self._check_dim(dim)
        if self.k == 2:
            return dim
        return 2 * dim + (0 if direction == 1 else 1)

    # -- wiring ----------------------------------------------------------------

    def switch_links(self) -> list[SwitchLink]:
        """One channel per node per dimension in the + direction.

        The + port of node r in dimension i meets the − port of its +
        neighbor (for k=2 the single per-dimension ports meet each other),
        enumerating every physical channel exactly once; for k=2 that is
        N·n/2 channels, otherwise N·n.
        """
        links = []
        seen = set()
        ports = [(self.port_for(dim, +1), self.port_for(dim, -1)) for dim in range(self.n)]
        for r in range(self.num_nodes):
            for dim, (plus, minus) in enumerate(ports):
                peer = self.neighbor(r, dim, +1)
                if self.k == 2:
                    key = (min(r, peer), max(r, peer), dim)
                    if key in seen:
                        continue
                    seen.add(key)
                    links.append(SwitchLink(r, plus, peer, plus))
                else:
                    links.append(SwitchLink(r, plus, peer, minus))
        return links

    def node_links(self) -> list[NodeLink]:
        """Each node attaches to its own router on the node-interface port.

        The port index is ``ports_per_switch()`` — one past the link ports;
        the engine reserves it for injection/ejection.
        """
        port = self.ports_per_switch()
        return [NodeLink(r, r, port) for r in range(self.num_nodes)]

    # -- distances and routing geometry ---------------------------------------

    def dimension_offset(self, src: int, dst: int, dim: int) -> int:
        """Signed minimal offset in ``dim``: positive means the + direction.

        For an exact half-ring tie (``k`` even, offset ``k/2``) the positive
        direction is returned; adaptive algorithms treat the tie specially
        via :meth:`minimal_directions`.
        """
        delta = (self.digit(dst, dim) - self.digit(src, dim)) % self.k
        if delta == 0:
            return 0
        if delta * 2 < self.k or delta * 2 == self.k:
            return delta
        return delta - self.k

    def minimal_directions(self, src: int, dst: int, dim: int) -> tuple[int, ...]:
        """All minimal directions (+1/−1) in ``dim``; empty when aligned.

        Both directions are minimal exactly when the offset is k/2.
        """
        delta = (self.digit(dst, dim) - self.digit(src, dim)) % self.k
        if delta == 0:
            return ()
        if delta * 2 == self.k:
            return (1, -1)
        return (1,) if delta * 2 < self.k else (-1,)

    def crosses_wraparound(self, src: int, dst: int, dim: int, direction: int) -> bool:
        """Whether the minimal path src→dst along ``dim`` in ``direction``
        crosses that dimension's wrap-around channel (between digit k-1 and 0).
        """
        a = self.digit(src, dim)
        b = self.digit(dst, dim)
        if a == b:
            return False
        if direction == 1:
            return b < a  # walked past k-1 -> 0
        return b > a  # walked past 0 -> k-1

    def min_distance(self, src: int, dst: int) -> int:
        """Minimal hop count between nodes (router-to-router channels only).

        The node-interface channels are not counted: on a direct topology
        they are part of every path and the paper's distance figures for
        cubes are router hops.
        """
        self._check_node(src)
        self._check_node(dst)
        total = 0
        for dim in range(self.n):
            delta = (self.digit(dst, dim) - self.digit(src, dim)) % self.k
            total += min(delta, self.k - delta)
        return total

    def _check_dim(self, dim: int) -> None:
        if not 0 <= dim < self.n:
            raise TopologyError(f"dimension {dim} out of range [0, {self.n})")
