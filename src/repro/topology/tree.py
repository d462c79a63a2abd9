"""k-ary n-trees (paper §2).

A k-ary n-tree has ``k**n`` processing nodes at the leaves and ``n`` levels
of ``k**(n-1)`` switches, each with ``2k`` ports (k "down" towards the
leaves, k "up" towards the roots).  Internally the switches are wired like a
k-ary butterfly, so every leaf can reach every root and minimal routing is
the classic *ascend to a nearest common ancestor, then descend*:

* the ascending phase is adaptive — any of the k up ports is on a minimal
  path until an ancestor of the destination is reached;
* the descending phase is deterministic — exactly one down port leads
  towards the destination.

Switch identity
---------------
Level 0 is adjacent to the processors; level ``n-1`` holds the roots (their
up ports are the paper's "external connections" and carry no traffic here).
A switch at level ``l`` is identified by ``n-1`` base-k digits split as
``(a, b)``:

* ``a`` — the top ``n-1-l`` digits: which subtree the switch belongs to
  (level-l switches serve the ``k**(l+1)`` nodes whose node label starts
  with ``a``);
* ``b`` — ``l`` digits distinguishing the ``k**l`` switches of that subtree
  at this level (the butterfly wiring).

Because ``a`` is a digit *prefix* of the node label, the set of nodes below
a switch is the contiguous range ``[a·k^(l+1), (a+1)·k^(l+1))``, which makes
the ancestor test used by routing a pair of integer comparisons.

Wiring (derived once and verified structurally in the test-suite):

* down port ``d`` of switch ``(l, a, b)`` with ``l > 0`` connects to the up
  port ``b[0]`` of switch ``(l-1, a+(d,), b[1:])``;
* down port ``d`` of a level-0 switch connects to node ``a·k + d``;
* up port ``u`` of switch ``(l, a, b)`` with ``l < n-1`` connects to the
  down port ``a[-1]`` of switch ``(l+1, a[:-1], (u,)+b)``.
"""

from __future__ import annotations

from ..errors import TopologyError
from ..traffic.address import node_to_digits
from .base import NodeLink, SwitchLink, Topology


class KAryNTree(Topology):
    """A k-ary n-tree with ``k**n`` nodes and ``n·k**(n-1)`` switches.

    Args:
        k: switch arity per side (the tree is "k-ary"): each switch has k
            down and k up ports.
        n: number of switch levels.
    """

    def __init__(self, k: int, n: int):
        if k < 2:
            raise TopologyError(f"k-ary n-tree needs k >= 2, got k={k}")
        if n < 1:
            raise TopologyError(f"k-ary n-tree needs n >= 1, got n={n}")
        self.k = k
        self.n = n
        self.num_nodes = k**n
        self.switches_per_level = k ** (n - 1)
        self.num_switches = n * self.switches_per_level
        # Precomputed per-switch routing data, indexed by switch id:
        #   level, subtree range [lo, hi), k**level (descend digit weight)
        self._level = [0] * self.num_switches
        self._range_lo = [0] * self.num_switches
        self._range_hi = [0] * self.num_switches
        for s in range(self.num_switches):
            level = s // self.switches_per_level
            w = s % self.switches_per_level
            # a = top (n-1-level) digits of w; w = a * k**level + b
            a = w // (k**level)
            span = k ** (level + 1)
            self._level[s] = level
            self._range_lo[s] = a * span
            self._range_hi[s] = a * span + span

    # -- identity helpers ---------------------------------------------------

    def switch_id(self, level: int, a: tuple[int, ...], b: tuple[int, ...]) -> int:
        """Switch id from its (level, subtree digits, intra digits) identity."""
        if not 0 <= level < self.n:
            raise TopologyError(f"level {level} out of range [0, {self.n})")
        if len(a) != self.n - 1 - level or len(b) != level:
            raise TopologyError(
                f"level-{level} switch needs |a|={self.n - 1 - level}, |b|={level}; "
                f"got |a|={len(a)}, |b|={len(b)}"
            )
        w = 0
        for d in a + b:
            if not 0 <= d < self.k:
                raise TopologyError(f"digit {d} out of range [0, {self.k})")
            w = w * self.k + d
        return level * self.switches_per_level + w

    def switch_identity(self, s: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """Inverse of :meth:`switch_id`: ``(level, a, b)`` for a switch id."""
        if not 0 <= s < self.num_switches:
            raise TopologyError(f"switch {s} out of range [0, {self.num_switches})")
        level = s // self.switches_per_level
        w = s % self.switches_per_level
        if self.n == 1:
            return level, (), ()
        digits = node_to_digits(w, self.k, self.n - 1)
        split = self.n - 1 - level
        return level, digits[:split], digits[split:]

    def level_of(self, s: int) -> int:
        """Switch level: 0 adjacent to nodes, ``n-1`` at the roots."""
        return self._level[s]

    def covered_range(self, s: int) -> tuple[int, int]:
        """Half-open range ``[lo, hi)`` of node ids below switch ``s``."""
        return self._range_lo[s], self._range_hi[s]

    def is_ancestor(self, s: int, node: int) -> bool:
        """True when ``node`` lies in the subtree below switch ``s``."""
        self._check_node(node)
        return self._range_lo[s] <= node < self._range_hi[s]

    def leaf_switch(self, node: int) -> int:
        """The level-0 switch that node attaches to."""
        self._check_node(node)
        return node // self.k

    # -- ports --------------------------------------------------------------
    # Ports 0..k-1 are down ports, k..2k-1 are up ports.

    def ports_per_switch(self) -> int:
        return 2 * self.k

    def down_ports(self) -> range:
        return range(self.k)

    def up_ports(self) -> range:
        return range(self.k, 2 * self.k)

    def down_port_towards(self, s: int, node: int) -> int:
        """Down port of switch ``s`` on the (unique) descending path to ``node``.

        Raises:
            TopologyError: if ``s`` is not an ancestor of ``node``.
        """
        if not self.is_ancestor(s, node):
            raise TopologyError(f"switch {s} is not an ancestor of node {node}")
        return (node // self.k ** self._level[s]) % self.k

    # -- wiring -------------------------------------------------------------

    def switch_links(self) -> list[SwitchLink]:
        """Inter-level channels: down port d of every switch above level 0."""
        # The wiring rule of the module docstring in arithmetic on
        # w = a·k**level + b (every engine built calls this once):
        # child (l-1, a+(d,), b[1:]) is w' = (a·k + d)·k**(l-1) + b[1:],
        # reached through its up port b[0].
        links = []
        k = self.k
        per_level = self.switches_per_level
        for s in range(per_level, self.num_switches):
            level, w = divmod(s, per_level)
            below = k ** (level - 1)
            a, b = divmod(w, below * k)
            b0, rest = divmod(b, below)
            child_up_port = k + b0
            first_child = (level - 1) * per_level + a * k * below + rest
            for d in range(k):
                links.append(SwitchLink(s, d, first_child + d * below, child_up_port))
        return links

    def node_links(self) -> list[NodeLink]:
        """Node-to-leaf-switch channels: node m on down port ``m % k``."""
        return [
            NodeLink(node, self.leaf_switch(node), node % self.k)
            for node in range(self.num_nodes)
        ]

    # -- distances ----------------------------------------------------------

    def nca_level(self, src: int, dst: int) -> int:
        """Level of the nearest common ancestors of two distinct nodes.

        All NCAs of a source/destination pair sit at the same level: the
        smallest ``l`` with ``src // k**(l+1) == dst // k**(l+1)``.
        """
        self._check_node(src)
        self._check_node(dst)
        if src == dst:
            raise TopologyError("nca_level undefined for src == dst")
        span = self.k
        for level in range(self.n):
            if src // span == dst // span:
                return level
            span *= self.k
        raise TopologyError("unreachable: roots cover all nodes")  # pragma: no cover

    def min_distance(self, src: int, dst: int) -> int:
        """Channel hops src→dst: 1 (node→leaf) + l ascending + l descending
        + 1 (leaf→node) = ``2·nca_level + 2``, and 0 when src == dst.

        This is the distance measure of the paper's eq. 5 (d_m = 7.125 for
        the 4-ary 4-tree under transpose/bit-reversal traffic).
        """
        if src == dst:
            self._check_node(src)
            return 0
        return 2 * self.nca_level(src, dst) + 2

    # -- congestion-free permutations (paper §8.1, Heller) -------------------

    def is_congestion_free(self, perm: dict[int, int] | list[int]) -> bool:
        """Membership in the paper's class of *congestion-free* permutations.

        §8.1 (after Heller): "The complement traffic belongs to a wide
        class of permutations that map a k-ary n-tree into itself.  These
        permutations do not generate any congestion on the descending
        phase."  The characterizing structure is **subtree preservation**:
        at every level, each subtree's image under the permutation lies
        within a *single* subtree of the same size.  Such permutations are
        self-coordinating — the packets descending into any subtree all
        ascend through the one source subtree, whose switches can spread
        them over distinct channels with purely local (greedy) choices, so
        no down channel is ever shared regardless of the flow-control
        strategy.  This is why the paper sees the complement pattern reach
        ~95% of capacity even with one virtual channel.

        Note this is an *online* property of the pattern, not offline
        routability: k-ary n-trees are rearrangeable (an unfolded tree is
        a Beneš network), so any permutation admits a conflict-free
        routing with global coordination; bit reversal and transpose fail
        this check and indeed congest under the paper's (local, adaptive)
        algorithm.  Fixed points (``d == s``) inject nothing and are
        ignored; partial permutations (dicts) are supported.
        """
        if isinstance(perm, dict):
            items = list(perm.items())
        else:
            items = list(enumerate(perm))
        for s, d in items:
            self._check_node(s)
            self._check_node(d)
        pairs = [(s, d) for s, d in items if s != d]
        for level in range(self.n - 1):
            span = self.k ** (level + 1)
            image: dict[int, int] = {}
            load: dict[int, int] = {}
            for s, d in pairs:
                src_tree = s // span
                dst_tree = d // span
                # (a) subtree preservation
                if image.setdefault(src_tree, dst_tree) != dst_tree:
                    return False
                # (b) capacity: a subtree is entered through `span` down
                # channels; more descending packets than that must share
                # one (only reachable by non-bijective mappings)
                if src_tree != dst_tree:
                    load[dst_tree] = load.get(dst_tree, 0) + 1
                    if load[dst_tree] > span:
                        return False
        return True
