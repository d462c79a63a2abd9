"""Minimal adaptive routing on k-ary n-trees (paper §2).

Every minimal path ascends to a nearest common ancestor of source and
destination, then descends.  The two phases are:

* **ascending (adaptive)** — while the current switch is *not* an ancestor
  of the destination, any of the k up ports is on a minimal path.  The
  paper's policy: "pick the less loaded link, that is the link that has
  the maximum number of free virtual channels (a fair choice is made when
  more links are in a similar state)".
* **descending (deterministic)** — once at an ancestor, exactly one down
  port leads towards the destination; only the virtual channel on that
  port is chosen (fairly, among the free ones).

Up*/down* routing induces no cyclic channel dependencies (every packet
makes all its up hops before any down hop, and levels strictly increase
then strictly decrease), so the algorithm is deadlock-free for any number
of virtual channels — which is why the paper can evaluate a 1-VC variant.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..router.lane import InputLane, OutputLane
from ..sim.packet import Packet
from ..topology.tree import KAryNTree
from .base import RoutingAlgorithm, randbelow, register


@register
class TreeAdaptiveRouting(RoutingAlgorithm):
    """Adaptive ascend / deterministic descend with least-loaded up links."""

    name = "tree_adaptive"
    network = "tree"

    def attach(self, engine) -> None:
        super().attach(engine)
        topo = engine.topology
        if not isinstance(topo, KAryNTree):
            raise ConfigurationError("tree_adaptive requires a KAryNTree topology")
        self.topo = topo
        self.k = topo.k
        # Per-switch tables (indexed by switch id): subtree ranges for the
        # ancestor test and the digit weight k**level for the down port.
        self._lo = topo._range_lo
        self._hi = topo._range_hi
        self._weight = [self.k ** topo.level_of(s) for s in range(topo.num_switches)]
        self._up_ports = list(topo.up_ports())

    def select(self, switch: int, inlane: InputLane, packet: Packet) -> OutputLane | None:
        dst = packet.dst
        out_ports = self.out[switch]
        if self._lo[switch] <= dst < self._hi[switch]:
            # Descending phase: unique down port towards dst.  At a leaf
            # switch this is the ejection channel to the node itself.
            port = (dst // self._weight[switch]) % self.k
            return self.pick_free_lane(out_ports[port])
        # Ascending phase: least-loaded up link by free-VC count.
        best_count = 0
        best_ports: list[int] = []
        for port in self._up_ports:
            count = 0
            for lane in out_ports[port]:
                if lane.packet is None:
                    sink = lane.sink
                    if sink is None or sink.packet is None:
                        count += 1
            if count > best_count:
                best_count = count
                best_ports = [port]
            elif count and count == best_count:
                best_ports.append(port)
        if not best_ports:
            return None
        if len(best_ports) == 1:
            port = best_ports[0]
        else:
            port = best_ports[randbelow(self.rng, len(best_ports))]
        return self.pick_free_lane(out_ports[port])

    def candidates(self, switch: int, inlane: InputLane, packet: Packet) -> list[OutputLane]:
        dst = packet.dst
        out_ports = self.out[switch]
        if self._lo[switch] <= dst < self._hi[switch]:
            return list(out_ports[(dst // self._weight[switch]) % self.k])
        # ascending: any up link is minimal, whatever the load ranking says
        return [lane for port in self._up_ports for lane in out_ports[port]]
