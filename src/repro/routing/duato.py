"""Minimal adaptive routing per Duato's methodology (paper §3).

Four virtual channels per link, split into:

* **adaptive channels** (the first ``V−2``; two for the paper's V=4) — a
  header may take any of them on *any* minimal direction: both productive
  dimensions, and both directions of a dimension when the offset is
  exactly half the ring.
* **escape (deterministic) channels** (the last two) — a connected,
  cycle-free subset: dimension-order routing with the Dally–Seitz
  two-virtual-network discipline (one escape channel per virtual network).
  A header falls back to the escape channel "when the adaptive choice is
  limited by network contention" — i.e. only when no adaptive candidate
  lane is free.

The channel allocation is **non monotonic**: routing is re-evaluated at
every switch, so a packet that took the escape channel at one hop competes
for adaptive channels again at the next — exactly the property the paper
highlights.  Duato's theorem gives deadlock freedom: the escape subnetwork
is deadlock-free by the Dally–Seitz argument and is reachable from every
adaptive channel at every hop.

Combined with the **source throttling** of §3 (a single injection channel
between processor and router, modeled by the engine for all algorithms),
this keeps throughput stable above saturation.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..router.lane import InputLane, OutputLane
from ..sim.packet import Packet
from .base import randbelow, register
from .dor import _CubeRoutingBase


@register
class DuatoAdaptiveRouting(_CubeRoutingBase):
    """Minimal adaptive + escape channels (Duato 1993/1995)."""

    name = "duato"

    def attach(self, engine) -> None:
        super().attach(engine)
        vcs = engine.config.vcs
        if vcs < 3:
            raise ConfigurationError(
                f"duato needs >= 3 VCs (V-2 adaptive + 2 escape), got {vcs}"
            )
        #: number of adaptive channels per link direction
        self.n_adaptive = vcs - 2
        #: lane index of the escape channel of each virtual network
        self.escape_base = vcs - 2
        #: instrumentation: successful bindings by channel class
        self.adaptive_grants = 0
        self.escape_grants = 0

    def escape_fraction(self) -> float:
        """Share of routing decisions that fell back to escape channels.

        A direct measure of "the adaptive choice is limited by network
        contention": near 0 at light load, growing towards saturation.
        """
        total = self.adaptive_grants + self.escape_grants
        return self.escape_grants / total if total else 0.0

    def select(self, switch: int, inlane: InputLane, packet: Packet) -> OutputLane | None:
        dst = packet.dst
        if switch == dst:
            return self.eject(switch)
        out_ports = self.out[switch]
        hops = self._hops
        n_adaptive = self.n_adaptive
        # Least-loaded minimal link by free adaptive-lane count.
        best_count = 0
        best_lanes: list[OutputLane] | None = None
        n_best = 0
        escape = None
        dim = 0
        for a, b in zip(self._coords[switch], self._coords[dst]):
            if a != b:
                _, ports, dor_port, _, vn = hops[dim][a][b]
                if escape is None:
                    # the deterministic hop: lowest dimension still to correct
                    escape = out_ports[dor_port][self.escape_base + vn]
                for port in ports:
                    lanes = out_ports[port]
                    count = 0
                    for i in range(n_adaptive):
                        lane = lanes[i]
                        if lane.packet is None:
                            sink = lane.sink
                            if sink is None or sink.packet is None:
                                count += 1
                    if count > best_count:
                        best_count = count
                        best_lanes = lanes
                        n_best = 1
                    elif count and count == best_count:
                        # Reservoir-style fair choice among tied links.
                        n_best += 1
                        if randbelow(self.rng, n_best) == 0:
                            best_lanes = lanes
            dim += 1
        if best_lanes is not None:
            self.adaptive_grants += 1
            return self.pick_free_lane(best_lanes[:n_adaptive])
        # Contention on all adaptive candidates: deterministic escape hop.
        if escape.packet is None:
            sink = escape.sink
            if sink is None or sink.packet is None:
                self.escape_grants += 1
                return escape
        return None

    def candidates(self, switch: int, inlane: InputLane, packet: Packet) -> list[OutputLane]:
        dst = packet.dst
        if switch == dst:
            return list(self.out[switch][self.eject_port])
        out_ports = self.out[switch]
        # adaptive channels of every minimal direction, plus the escape
        # channel of the DOR hop's virtual network
        lanes: list[OutputLane] = []
        for dim, (a, b) in enumerate(zip(self._coords[switch], self._coords[dst])):
            if a != b:
                for port in self._hops[dim][a][b][1]:
                    lanes.extend(out_ports[port][: self.n_adaptive])
        _, _, dor_port, _, vn = self._first_hop(switch, dst)
        lanes.append(out_ports[dor_port][self.escape_base + vn])
        return lanes
