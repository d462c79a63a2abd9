"""Closed-loop congestion control over the reliable transport (ECN-style).

The paper measures each network up to its saturation point; past it, the
ARQ transport of :mod:`repro.traffic.transport` retransmits blindly into
an already-congested fabric and goodput collapses.  This module closes
the loop with the three textbook ingredients, scaled to the flit-level
model:

* **marking** — :class:`CongestionMarker` reads every link direction's
  blocked-cycle counter (``LinkDirection.blocked``, the count the forensics
  hotspot section reports too), declares a link *hot* when it was blocked
  for more than a threshold fraction of the last window, and stamps each
  packet whose header crosses a hot or fully occupied link.  The stamp
  travels back to the source on the modeled ACK path (the transport folds
  it into the ACK event);
* **reaction** — :class:`CongestionControl` keeps one AIMD congestion
  window per (source, destination) pair.  New messages wait in a
  per-source hold queue until their destination's window has room, so
  retransmissions and fresh traffic share a single throttled injection
  path.  A clean ACK grows the window additively
  (``+ additive_increase / cwnd``), a marked ACK or a retransmission
  timeout shrinks it multiplicatively (floored at ``min_window``, with a
  per-destination cooldown so one congestion event is punished once);
  a given-up message releases its window slot like an ACK would, so the
  retry budget cannot leak window capacity;
* **arbitration** — pairs with ``config.arbiter = "age"``
  (:func:`repro.sim.phases.pick_lane`), which serves the oldest packet first
  and bounds tail latency while the windows shed load.

Everything is deterministic: marking is driven by cycle counts, windows
are pure arithmetic over the seeded event order, and the hold queues
release in a fixed scan order.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..errors import ConfigurationError
from ..obs.probe import Probe, compose_probe
from .transport import Reliable, ReliableTransport, TransportConfig


@dataclass(frozen=True)
class CongestionConfig:
    """Tuning knobs of the closed control loop.

    Attributes:
        window_cycles: marking window length; a link's blocked count is
            compared against the threshold at the end of every window.
        hot_fraction: fraction of a window a link must spend blocked to
            be declared hot for the next window.
        occupancy_fraction: instantaneous trigger — a header crossing a
            link with *more* than this fraction of its lanes busy is
            marked even if the link was not hot last window.  The
            comparison is strict, so 1.0 (the default) disables the
            trigger: full occupancy is the steady state of any link near
            saturation and marking on it alone pins every window at the
            floor (windowed blocked-time is the primary signal).
        initial_window: starting congestion window (packets in flight
            per destination).
        min_window: multiplicative-decrease floor; at least 1 packet may
            always be outstanding, so the loop never deadlocks a flow.
        max_window: additive-increase ceiling.
        additive_increase: window growth per clean ACK, scaled by the
            current window (``cwnd += additive_increase / cwnd``, the
            one-per-RTT TCP shape).
        multiplicative_decrease: window multiplier on a marked ACK or
            timeout (0 < factor < 1).
        cooldown: minimum cycles between two decreases of the same
            destination window, so one burst of marked ACKs counts as a
            single congestion event.
        pump_scan: how many held messages a single release pass may
            examine per source; bounds per-cycle work under deep
            overload backlogs while still letting traffic to open
            destinations bypass a saturated one.
    """

    window_cycles: int = 64
    hot_fraction: float = 0.5
    occupancy_fraction: float = 1.0
    initial_window: float = 2.0
    min_window: float = 1.0
    max_window: float = 64.0
    additive_increase: float = 1.0
    multiplicative_decrease: float = 0.5
    cooldown: int = 64
    pump_scan: int = 64

    def __post_init__(self) -> None:
        if self.window_cycles < 1:
            raise ConfigurationError(
                f"window_cycles must be >= 1, got {self.window_cycles}"
            )
        if not 0.0 < self.hot_fraction <= 1.0:
            raise ConfigurationError(
                f"hot_fraction must be in (0, 1], got {self.hot_fraction}"
            )
        if not 0.0 < self.occupancy_fraction <= 1.0:
            raise ConfigurationError(
                f"occupancy_fraction must be in (0, 1], got {self.occupancy_fraction}"
            )
        if self.min_window < 1.0:
            raise ConfigurationError(
                f"min_window must be >= 1 (a closed window deadlocks the "
                f"flow), got {self.min_window}"
            )
        if not self.min_window <= self.initial_window <= self.max_window:
            raise ConfigurationError(
                f"need min_window <= initial_window <= max_window, got "
                f"{self.min_window}/{self.initial_window}/{self.max_window}"
            )
        if self.additive_increase <= 0:
            raise ConfigurationError(
                f"additive_increase must be > 0, got {self.additive_increase}"
            )
        if not 0.0 < self.multiplicative_decrease < 1.0:
            raise ConfigurationError(
                f"multiplicative_decrease must be in (0, 1), got "
                f"{self.multiplicative_decrease}"
            )
        if self.cooldown < 0:
            raise ConfigurationError(f"cooldown must be >= 0, got {self.cooldown}")
        if self.pump_scan < 1:
            raise ConfigurationError(f"pump_scan must be >= 1, got {self.pump_scan}")


class CongestionMarker(Probe):
    """Stamps packets that cross congested links (the ECN half).

    A link direction is *hot* for a whole marking window when it spent
    at least ``hot_fraction`` of the previous window blocked (busy but
    unable to move a flit: the delta of its ``blocked`` counter over the
    window).  Independently, a header arriving over a direction with
    more than ``occupancy_fraction`` of its lanes busy is marked
    immediately (strict, so the 1.0 default disables this trigger).
    Ejection links participate through a node → direction map, so the
    classic hotspot-destination collapse is seen by the loop.

    Marks are keyed by packet id; the transport consumes them at
    delivery time and folds the flag into the modeled ACK.
    """

    def __init__(self, config: CongestionConfig | None = None):
        self.config = config or CongestionConfig()
        self.engine = None
        #: each direction's ``blocked`` counter at the start of this window,
        #: by ``LinkDirection.index``
        self._blocked_base: list[int] = []
        #: ``LinkDirection.index`` of the links hot for the current window
        self._hot: set[int] = set()
        #: node -> its ejection LinkDirection
        self._eject: dict[int, object] = {}
        #: pids stamped and not yet consumed
        self._marked: set[int] = set()
        self._window_end = 0
        # whole-run marking statistics (summary document)
        self.packets_marked = 0
        self.windows = 0
        self.hot_link_windows = 0
        self.peak_hot_links = 0

    def bind(self, engine) -> None:
        self.engine = engine
        self._blocked_base = [d.blocked for d in engine.dirs]
        self._eject = {
            d.lanes[0].sink.node: d for d in engine.dirs if d.to_node
        }
        self._window_end = engine.cycle + self.config.window_cycles

    # -- hot-link accounting --------------------------------------------------

    def window_blocked(self) -> list[int]:
        """Blocked cycles of each direction so far this window, by
        ``LinkDirection.index``."""
        return [d.blocked - base for d, base in zip(self.engine.dirs, self._blocked_base)]

    def on_cycle(self, cycle: int) -> None:
        if cycle + 1 < self._window_end:
            return
        threshold = self.config.hot_fraction * self.config.window_cycles
        hot = {i for i, cycles in enumerate(self.window_blocked()) if cycles >= threshold}
        self._blocked_base = [d.blocked for d in self.engine.dirs]
        self._hot = hot
        self.windows += 1
        nhot = len(hot)
        self.hot_link_windows += nhot
        if nhot > self.peak_hot_links:
            self.peak_hot_links = nhot
        self._window_end += self.config.window_cycles

    # -- stamping -------------------------------------------------------------

    def _crossed_congested(self, direction) -> bool:
        if direction.index in self._hot:
            return True
        lanes = direction.lanes
        return direction.nbusy > self.config.occupancy_fraction * len(lanes)

    def on_head_arrived(self, cycle: int, lane, packet) -> None:
        if self._crossed_congested(self.engine.dirs[lane.src_dir]):
            if packet.pid not in self._marked:
                self._marked.add(packet.pid)
                self.packets_marked += 1

    def on_head_delivered(self, cycle: int, packet) -> None:
        # the final (ejection) hop never fires on_head_arrived
        direction = self._eject.get(packet.dst)
        if direction is not None and self._crossed_congested(direction):
            if packet.pid not in self._marked:
                self._marked.add(packet.pid)
                self.packets_marked += 1

    def on_packet_dropped(self, cycle: int, packet, reason: str) -> None:
        self._marked.discard(packet.pid)

    # -- transport interface --------------------------------------------------

    def consume(self, pid: int) -> bool:
        """Pop and return the mark of ``pid`` (False if unmarked)."""
        if pid in self._marked:
            self._marked.remove(pid)
            return True
        return False

    def discard(self, pid: int) -> None:
        """Drop the mark of a packet that no longer needs it."""
        self._marked.discard(pid)

    def summary(self) -> dict:
        return {
            "packets_marked": self.packets_marked,
            "windows": self.windows,
            "hot_link_windows": self.hot_link_windows,
            "peak_hot_links": self.peak_hot_links,
            "unconsumed_marks": len(self._marked),
        }


class CongestionControl:
    """Per-destination AIMD windows gating injection (the reaction half).

    State per (source, destination) pair: ``[cwnd, in_flight,
    last_decrease_cycle]``.  The integer part of ``cwnd`` bounds how many
    messages of that pair may be unresolved past the hold queue at once;
    :class:`ReliableTransport` asks :meth:`try_release` before letting a
    held message join the injection path and reports ACKs, timeouts and
    give-ups back.
    """

    def __init__(self, config: CongestionConfig, marker: CongestionMarker):
        self.config = config
        self.marker = marker
        self._windows: dict[tuple[int, int], list] = {}
        # whole-run loop statistics (summary document)
        self.released = 0
        self.held = 0
        self.clean_acks = 0
        self.marked_acks = 0
        self.timeouts = 0
        self.decreases = 0
        self.min_cwnd_seen = config.initial_window
        self.max_cwnd_seen = config.initial_window

    def _state(self, src: int, dst: int) -> list:
        key = (src, dst)
        state = self._windows.get(key)
        if state is None:
            state = [self.config.initial_window, 0, -1]
            self._windows[key] = state
        return state

    # -- gating ---------------------------------------------------------------

    def try_release(self, src: int, dst: int) -> bool:
        """Claim a window slot for one message; False = keep holding."""
        state = self._state(src, dst)
        if state[1] < int(state[0]):
            state[1] += 1
            self.released += 1
            return True
        self.held += 1
        return False

    # -- feedback -------------------------------------------------------------

    def on_ack(
        self, cycle: int, src: int, dst: int, marked: bool, claimed: bool = True
    ) -> None:
        state = self._state(src, dst)
        if claimed and state[1] > 0:
            state[1] -= 1
        if marked:
            self.marked_acks += 1
            self._decrease(cycle, state)
            return
        self.clean_acks += 1
        cfg = self.config
        cwnd = state[0] + cfg.additive_increase / state[0]
        if cwnd > cfg.max_window:
            cwnd = cfg.max_window
        state[0] = cwnd
        if cwnd > self.max_cwnd_seen:
            self.max_cwnd_seen = cwnd

    def on_timeout(self, cycle: int, src: int, dst: int) -> None:
        """A retransmission timer fired: treat the loss as congestion."""
        self.timeouts += 1
        self._decrease(cycle, self._state(src, dst))

    def on_requeue(self, src: int, dst: int) -> None:
        """A timed-out message returned to the hold queue: release its
        slot (the retransmission re-claims one through
        :meth:`try_release`, so retries never bypass the gate)."""
        state = self._state(src, dst)
        if state[1] > 0:
            state[1] -= 1

    def on_give_up(self, src: int, dst: int) -> None:
        """A message left the protocol unACKed: free its window slot."""
        state = self._state(src, dst)
        if state[1] > 0:
            state[1] -= 1

    def _decrease(self, cycle: int, state: list) -> None:
        cfg = self.config
        if state[2] >= 0 and cycle - state[2] < cfg.cooldown:
            return
        state[2] = cycle
        cwnd = state[0] * cfg.multiplicative_decrease
        if cwnd < cfg.min_window:
            cwnd = cfg.min_window
        state[0] = cwnd
        self.decreases += 1
        if cwnd < self.min_cwnd_seen:
            self.min_cwnd_seen = cwnd

    def summary(self) -> dict:
        return {
            "control": dataclasses.asdict(self.config),
            "released": self.released,
            "held": self.held,
            "clean_acks": self.clean_acks,
            "marked_acks": self.marked_acks,
            "timeouts": self.timeouts,
            "decreases": self.decreases,
            "flows": len(self._windows),
            "min_cwnd": self.min_cwnd_seen,
            "max_cwnd": self.max_cwnd_seen,
            "marking": self.marker.summary(),
        }


@dataclasses.dataclass(frozen=True)
class Congested(Reliable):
    """The closed congestion loop (marker + AIMD windows over the reliable
    transport) as an instrument of :func:`~repro.sim.run.simulate`."""

    control: CongestionConfig | None = None

    def install(self, engine) -> ReliableTransport:
        """Attach a :class:`CongestionMarker` (before the transport, so
        marks exist by the time the transport sees a delivery) and a
        :class:`ReliableTransport` wired to a :class:`CongestionControl`.
        Returns the transport, whose summary carries the loop statistics.
        """
        config = self.control or CongestionConfig()
        marker = CongestionMarker(config)
        compose_probe(engine, marker)
        control = CongestionControl(config, marker)
        return ReliableTransport(self.transport, congestion=control).install(engine)


def simulate_congested(
    config,
    transport_config: TransportConfig | None = None,
    congestion_config: CongestionConfig | None = None,
    probe=None,
    checkpoint=None,
):
    """``simulate(config)`` with the closed congestion loop installed.

    The transport + control-loop accounting lands on the result's
    telemetry (``reliability["congestion"]``), so scorecards and the
    ledger can tell closed-loop runs from open-loop ones.
    ``checkpoint`` makes the run resumable — marker windows, AIMD state
    and hold queues ride inside the snapshot.
    """
    from ..sim.run import simulate

    return simulate(
        config,
        [Congested(transport_config, congestion_config)],
        probe=probe,
        checkpoint=checkpoint,
    )
