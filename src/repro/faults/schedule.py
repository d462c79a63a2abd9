"""Time-varying faults: fail at cycle T, optionally repair at cycle T'.

The static injectors in :mod:`repro.faults.tree` and
:mod:`repro.faults.cube` seize lanes before a run starts.  A
:class:`FaultSchedule` drives the same fault specs through the engine's
cycle hooks instead, so faults can strike and heal *mid-run*:

* **drain-then-seize** (:attr:`FaultPolicy.DRAIN`, the default) — a
  striking fault seizes every currently-free lane immediately and
  re-arms itself each cycle for the rest, seizing each remaining lane
  the moment its tail drains.  This models a channel that stops
  accepting *new* packets at failure time and lets in-flight worms
  finish — graceful link retirement; no packet is ever lost.
* **fail-stop** (:attr:`FaultPolicy.FAIL_STOP`) — the link dies
  abruptly: any worm occupying a struck lane is destroyed on the spot
  (:meth:`Engine.kill_packet` flushes all its lanes network-wide and
  emits ``on_packet_dropped``), then the lane is seized.  No deferral
  or re-arming is needed.  Loss-recovery lives above the engine, in
  :mod:`repro.traffic.transport`.
* **repair** — at the repair cycle every sentinel is lifted and any
  still-pending seizure is cancelled; routing rediscovers the lanes on
  its next decision, no other state needs touching.

Validation mirrors the static injectors and runs at :meth:`install`
time over the union of all scheduled faults (conservative: two faults
whose windows never overlap are still validated as if simultaneous).
Unsafe classes — cube ``full_channel`` faults — require an explicit
``validate=False``; note that a *transient* unsafe fault is survivable
when the repair lands before the watchdog gives up, which is exactly
the ride-through scenario worth simulating.

Example::

    schedule = FaultSchedule()
    schedule.add(CubeLinkFault(node=5, dim=0), fail_at=200, repair_at=800)
    schedule.add(TreeUplinkFault(switch=0, port=4), fail_at=100)
    engine = build_engine(config)
    schedule.install(engine)
    result = engine.run()
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import ConfigurationError
from ..fields import field_list
from ..sim.engine import Engine
from ..sim.packet import FAULT_SENTINEL
from .cube import CubeLinkFault, validate_cube_link_faults
from .tree import TreeUplinkFault, validate_tree_uplink_faults


class FaultPolicy(enum.Enum):
    """What a striking fault does to a lane a worm still occupies."""

    #: wait for the worm's tail to drain, then seize (lossless default)
    DRAIN = "drain"
    #: kill the occupying worm immediately and seize (abrupt link death)
    FAIL_STOP = "fail_stop"


@dataclass(frozen=True)
class ScheduledFault:
    """One fault spec with its failure window and strike policy."""

    spec: TreeUplinkFault | CubeLinkFault
    fail_at: int
    repair_at: int | None = None
    policy: FaultPolicy = field(default=FaultPolicy.DRAIN)

    def __post_init__(self) -> None:
        if self.fail_at < 0:
            raise ConfigurationError(f"fail_at must be >= 0, got {self.fail_at}")
        if self.repair_at is not None and self.repair_at <= self.fail_at:
            raise ConfigurationError(
                f"repair_at {self.repair_at} must come after fail_at {self.fail_at}"
            )


@field_list
class _ActiveFault:
    """Runtime state of one scheduled fault on a live engine."""

    __slots__ = ("lanes", "pending", "repaired", "policy")

    def __init__(self, lanes, policy: FaultPolicy = FaultPolicy.DRAIN):
        self.lanes = lanes
        self.pending = list(lanes)
        self.repaired = False
        self.policy = policy

    def strike(self, engine: Engine) -> None:
        if self.repaired:
            return
        fail_stop = self.policy is FaultPolicy.FAIL_STOP
        still_busy = []
        for lane in self.pending:
            occupant = lane.packet
            if occupant is not None and occupant is not FAULT_SENTINEL:
                if not fail_stop:
                    still_busy.append(lane)  # seize after its tail drains
                    continue
                # abrupt link death: destroy the worm, then take the lane
                # (kill_packet flushes every lane it holds, this one
                # included, so the seizure below lands on a free lane)
                engine.kill_packet(occupant, reason="fault")
                occupant = lane.packet
            if occupant is None:
                lane.packet = FAULT_SENTINEL
        self.pending = still_busy
        if still_busy:
            engine.add_cycle_hook(engine.cycle + 1, self.strike)

    def repair(self, engine: Engine) -> None:
        self.repaired = True
        self.pending = []
        for lane in self.lanes:
            if lane.packet is FAULT_SENTINEL:
                lane.packet = None


class FaultSchedule:
    """A set of scheduled faults installable onto one engine."""

    def __init__(self) -> None:
        self._entries: list[ScheduledFault] = []
        self._installed = False

    @property
    def entries(self) -> tuple[ScheduledFault, ...]:
        """The scheduled faults, in add order (read-only view)."""
        return tuple(self._entries)

    def add(
        self,
        spec: TreeUplinkFault | CubeLinkFault,
        fail_at: int,
        repair_at: int | None = None,
        policy: FaultPolicy = FaultPolicy.DRAIN,
    ) -> FaultSchedule:
        """Schedule ``spec`` to fail at ``fail_at`` (repairing at ``repair_at``).

        ``policy`` selects what happens to worms occupying the struck
        lanes: :attr:`FaultPolicy.DRAIN` (default) defers the seizure
        until each worm's tail drains; :attr:`FaultPolicy.FAIL_STOP`
        kills the occupants outright.  Returns ``self`` so calls chain.
        """
        if not isinstance(spec, (TreeUplinkFault, CubeLinkFault)):
            raise ConfigurationError(
                f"expected a TreeUplinkFault or CubeLinkFault spec, got {type(spec).__name__}"
            )
        if not isinstance(policy, FaultPolicy):
            raise ConfigurationError(
                f"expected a FaultPolicy, got {type(policy).__name__}"
            )
        self._entries.append(ScheduledFault(spec, fail_at, repair_at, policy))
        return self

    def __len__(self) -> int:
        return len(self._entries)

    def install(self, engine: Engine, validate: bool = True) -> None:
        """Validate the fault set and arm the engine's cycle hooks.

        A schedule instance binds to one engine; installing twice (or an
        empty schedule) is a configuration error.

        Raises:
            ConfigurationError: on validation failure, double install, or
                fail cycles already in the engine's past.
        """
        if self._installed:
            raise ConfigurationError("this FaultSchedule is already installed")
        if not self._entries:
            raise ConfigurationError("empty fault schedule")
        tree_specs = [e.spec for e in self._entries if isinstance(e.spec, TreeUplinkFault)]
        cube_specs = [e.spec for e in self._entries if isinstance(e.spec, CubeLinkFault)]
        if tree_specs and cube_specs:
            raise ConfigurationError("a schedule targets one network, not both")
        if tree_specs:
            if validate:
                validate_tree_uplink_faults(
                    engine.topology, [(s.switch, s.port) for s in tree_specs]
                )
        else:
            for full in (False, True):
                group = [s for s in cube_specs if s.full_channel == full]
                if group:
                    validate_cube_link_faults(
                        engine,
                        [(s.node, s.dim, s.direction) for s in group],
                        full_channel=full,
                        validate=validate,
                    )
        for entry in self._entries:
            active = _ActiveFault(entry.spec.lanes(engine), entry.policy)
            engine.add_cycle_hook(entry.fail_at, active.strike)
            if entry.repair_at is not None:
                engine.add_cycle_hook(entry.repair_at, active.repair)
        self._installed = True

    def stamp(self, engine: Engine) -> None:
        """Annotate the engine's flight recorder, if it has one, with every
        scheduled ``fault_strike`` / ``fault_repair`` (the schedule is known
        up front, so the stamps carry the exact cycles)."""
        from ..obs.flight import FlightRecorder  # observer tier: not an import-time need

        recorder = engine.find_probe(FlightRecorder)
        if recorder is not None:
            for entry in self._entries:
                recorder.annotate(entry.fail_at, "fault_strike", str(entry.spec))
                if entry.repair_at is not None:
                    recorder.annotate(entry.repair_at, "fault_repair", str(entry.spec))
