"""Windowed per-lane occupancy and blocked-cycle counters.

In the spirit of SpiNNaker's ``network_tester`` (programmable per-link,
per-window counters), a :class:`WindowedCounterProbe` divides the
measurement window into fixed-length windows and, for every link
direction, records per window:

* **flits** — flits that crossed the direction in the window (delta of
  the direction's cumulative counter);
* **blocked_cycles** — cycles in which the direction held buffered
  flits but moved none (all busy lanes out of credits): the direct
  measure of head-of-line blocking the paper's §8 argues about;
* **occupancy** — per-VC mean buffered flits in the direction's output
  lanes, sampled every cycle.

Flits and blocked cycles are the engine's own link counters
(:attr:`~repro.router.lane.LinkDirection.flits` and ``blocked``, with their
warm-up snapshots); a window is the delta of each over its cycles, so the
probe observes no per-flit or per-blocked-cycle event.  Counters start at
the config's warm-up cycle by default, so the reported rates describe the
measurement window only — unlike the engine's raw cumulative counters they
never mix warm-up transients into steady-state numbers.

The per-cycle occupancy sweep walks every lane, which costs real time on
big networks; this probe is for *instrumented* runs (the ``trace`` CLI,
saturation forensics), not for bulk sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from .probe import Probe


@dataclass(frozen=True)
class DirectionWindow:
    """One direction's counters over one window.

    Attributes:
        switch / port / to_node: the direction's identity.
        flits: flits that crossed in the window.
        blocked_cycles: cycles the direction was busy but stalled.
        occupancy: per-VC mean buffered flits over the window.
    """

    switch: int
    port: int
    to_node: bool
    flits: int
    blocked_cycles: int
    occupancy: tuple[float, ...]


@dataclass(frozen=True)
class CounterWindow:
    """All directions' counters over one window ``[start, end)``."""

    start: int
    end: int
    directions: tuple[DirectionWindow, ...]

    @property
    def cycles(self) -> int:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "start": self.start,
            "end": self.end,
            "directions": [
                {
                    "switch": d.switch,
                    "port": d.port,
                    "to_node": d.to_node,
                    "flits": d.flits,
                    "blocked_cycles": d.blocked_cycles,
                    "occupancy": list(d.occupancy),
                }
                for d in self.directions
            ],
        }


class WindowedCounterProbe(Probe):
    """Accumulate per-direction counters over fixed-length windows.

    Args:
        window_cycles: window length; the engine's cycle axis is split
            into consecutive windows of this many cycles.
        include_warmup: also count the warm-up period (default: counters
            begin at ``config.warmup_cycles``, the measurement window).
    """

    def __init__(self, window_cycles: int = 200, include_warmup: bool = False):
        if window_cycles < 1:
            raise ConfigurationError(
                f"window_cycles must be >= 1, got {window_cycles}"
            )
        self.window_cycles = window_cycles
        self.include_warmup = include_warmup
        self.windows: list[CounterWindow] = []
        self._engine = None

    def bind(self, engine) -> None:
        self._engine = engine
        self._dirs = engine.dirs
        self._start_cycle = 0 if self.include_warmup else engine.config.warmup_cycles
        self._window_start: int | None = None
        n = len(self._dirs)
        self._occ = [[0] * len(d.lanes) for d in self._dirs]
        self._flit_base = [0] * n
        self._blocked_base = [0] * n

    # -- callbacks -----------------------------------------------------------

    def on_cycle(self, cycle: int) -> None:
        if cycle < self._start_cycle:
            return
        if self._window_start is None:
            # on_cycle fires after the cycle's flit movement, so the
            # first window's baseline is each counter's value at the
            # *start* of this cycle: the warm-up snapshot (or zero when
            # counting from cycle 0)
            self._window_start = cycle
            if not self.include_warmup:
                for i, d in enumerate(self._dirs):
                    self._flit_base[i] = d.flits_at_warmup
                    self._blocked_base[i] = d.blocked_at_warmup
        for i, d in enumerate(self._dirs):
            if d.nbusy:  # else every lane of it holds 0: one counter read, not V
                occ = self._occ[i]
                for v, lane in enumerate(d.lanes):
                    occ[v] += lane.buffered
        if cycle - self._window_start + 1 >= self.window_cycles:
            self._flush(cycle + 1)

    def on_run_end(self, engine) -> None:
        if self._window_start is not None and engine.cycle > self._window_start:
            self._flush(engine.cycle)

    def _flush(self, end: int) -> None:
        start = self._window_start
        cycles = end - start
        records = tuple(
            DirectionWindow(
                switch=d.switch,
                port=d.port,
                to_node=d.to_node,
                flits=d.flits - self._flit_base[i],
                blocked_cycles=d.blocked - self._blocked_base[i],
                occupancy=tuple(s / cycles for s in self._occ[i]),
            )
            for i, d in enumerate(self._dirs)
        )
        self.windows.append(CounterWindow(start=start, end=end, directions=records))
        # the flush runs at the end of the window's last cycle, so the
        # live counters are exactly the next window's baseline
        self._window_start = end
        for i, d in enumerate(self._dirs):
            self._flit_base[i] = d.flits
            self._blocked_base[i] = d.blocked
            self._occ[i] = [0] * len(d.lanes)

    # -- analysis ------------------------------------------------------------

    def to_dicts(self) -> list[dict]:
        """Plain-data form of every window, for JSON export."""
        return [w.to_dict() for w in self.windows]
