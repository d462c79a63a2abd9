"""Chaos campaigns: randomized fail-stop fault storms under reliable
transport.

The degradation experiments (:mod:`repro.experiments.degradation`) ask
how much *bandwidth* survives a fault fraction when no packet is ever
lost (drain-then-seize).  A chaos campaign asks the harder operational
question: when links die **abruptly** — in-flight worms destroyed, the
engine's fail-stop mode (:class:`~repro.faults.FaultPolicy.FAIL_STOP`)
— how much *end-to-end goodput* does the reliable transport
(:mod:`repro.traffic.transport`) recover, and what does the recovery
cost in retransmissions?

One chaos point = one simulation of a paper configuration with

* the reliable transport installed on every source,
* ``round(fault_rate · population)`` random channel faults scheduled to
  strike at cycles drawn uniformly over the run, each repairing
  ``repair_cycles`` later (0 = permanent), all with fail-stop policy.

The campaign grids that point over offered load × fault rate (×
optionally several repair times) through the resilient sweep harness —
so chaos storms inherit retries, per-point watchdog timeouts, parallel
fan-out and failure recording.  Every point's reliability accounting
plus the storm recipe lands on ``telemetry.reliability`` and is filed
in the ledger as a ``"chaos"`` record (dedup off: grid points
intentionally share config digest + seed), which is what the scorecard
reliability panel reads.

Storms are deterministic given ``storm_seed``: the fault draw and the
strike times come from one dedicated stream, identical across the load
grid so fault-rate curves differ only in the knob under study.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..errors import ConfigurationError
from ..faults import FaultPolicy, FaultSchedule, fault_population, random_fault_specs
from ..metrics.series import LoadSweepSeries
from ..profiles import Profile, get_profile
from ..sim.config import SimulationConfig
from ..sim.results import (
    RunResult,
    mean_goodput_fraction,
    mean_retransmit_overhead,
    total_dropped,
    total_given_up,
)
from ..obs.probe import Instrument
from ..sim.run import Audit, build_engine, simulate
from ..traffic.transport import (
    ReliableTransport,
    TransportConfig,
    attach_reliability,
)
from .sweep import run_curves


@dataclass(frozen=True)
class StormSpec:
    """One fault storm's recipe (picklable: parallel workers rebuild it).

    Attributes:
        fault_rate: fraction of the failable channel population struck
            over the course of the run.
        repair_cycles: down time per fault in cycles; 0 means the fault
            is permanent.
        storm_seed: seed of the storm's dedicated stream (fault draw +
            strike times); independent of the traffic seed.
        transport: reliable-transport tuning for the run.
    """

    fault_rate: float
    repair_cycles: int = 0
    storm_seed: int = 5
    transport: TransportConfig = field(default_factory=TransportConfig)

    def __post_init__(self) -> None:
        if not 0.0 <= self.fault_rate < 1.0:
            raise ConfigurationError(
                f"fault_rate {self.fault_rate} outside [0, 1)"
            )
        if self.repair_cycles < 0:
            raise ConfigurationError(
                f"repair_cycles must be >= 0, got {self.repair_cycles}"
            )


@dataclass(frozen=True)
class ChaosSeries:
    """One fault-rate level of a chaos campaign: a full load sweep.

    ``results`` holds the raw per-point results (reliability accounting
    on each ``telemetry.reliability``); :func:`degradation_rows` averages
    them over the load grid, which is what the fault-rate curves plot.
    """

    storm: StormSpec
    series: LoadSweepSeries
    results: tuple[RunResult, ...]

    @property
    def mean_goodput_fraction(self) -> float:
        """Goodput (first-copy flits) as a capacity fraction, load-averaged."""
        return mean_goodput_fraction(self.results)


def _draw_storm_schedule(engine, storm: StormSpec) -> FaultSchedule | None:
    """Build the fail-stop schedule for ``storm`` on a built engine.

    Returns ``None`` for a zero-fault storm (the chaos baseline row).
    The draw is clamped to the safely failable population (trees cap at
    ``k - 1`` up-channels per switch); the clamp is visible in the storm
    document's ``faults`` count.
    """
    topo = engine.topology
    count = min(
        round(storm.fault_rate * fault_population(topo)),
        fault_population(topo, safe=True),
    )
    specs = random_fault_specs(topo, count, storm.storm_seed)
    if not specs:
        return None
    total = engine.config.total_cycles
    rng = random.Random(storm.storm_seed)
    schedule = FaultSchedule()
    for spec in specs:
        fail_at = rng.randrange(1, max(2, total))
        repair_at = fail_at + storm.repair_cycles if storm.repair_cycles else None
        schedule.add(
            spec, fail_at=fail_at, repair_at=repair_at, policy=FaultPolicy.FAIL_STOP
        )
    return schedule


@dataclass(frozen=True)
class Storm(Instrument):
    """One fail-stop storm under the reliable transport as an instrument
    of :func:`~repro.sim.run.simulate`.

    Installs the transport, then the storm's fail-stop schedule (its
    pending strikes ride the engine's cycle hooks, hence the snapshot);
    a flight recorder installed before it gets every scheduled
    strike/repair stamped on its timeline
    (:meth:`~repro.faults.FaultSchedule.stamp`).  The reliability document
    carries the storm recipe under ``"storm"``.
    """

    spec: StormSpec

    def install(self, engine):
        storm = self.spec
        transport = ReliableTransport(storm.transport).install(engine)
        schedule = _draw_storm_schedule(engine, storm)
        if schedule is not None:
            schedule.install(engine)
            schedule.stamp(engine)
        doc = {
            "fault_rate": storm.fault_rate,
            "repair_cycles": storm.repair_cycles,
            "storm_seed": storm.storm_seed,
            "faults": len(schedule) if schedule is not None else 0,
            "population": fault_population(engine.topology),
        }
        return transport, doc

    def finish(self, engine, live, result):
        transport, doc = live
        return attach_reliability(result, transport, extra={"storm": doc})


def run_chaos_point(
    config: SimulationConfig, storm: StormSpec, flight=None, checkpoint=None
) -> RunResult:
    """Simulate one chaos point: reliable transport + fail-stop storm.

    The engine is audited after the run — a storm that corrupts a
    network invariant fails loudly instead of skewing a curve.

    ``flight`` (a :class:`~repro.obs.flight.FlightConfig`) attaches a
    flight recorder, annotated by the :class:`Storm`.  ``checkpoint`` (a
    :class:`~repro.sim.checkpoint.CheckpointPolicy`) makes the point
    resumable.  The engine is built through this module's
    ``build_engine`` name, looked up per call.
    """
    tiers = [Audit(), Storm(storm)]
    if flight is not None:
        from ..obs.flight import Flight  # not needed to import the CLI

        tiers.insert(0, Flight(flight))
    return simulate(config, tiers, checkpoint=checkpoint, build=build_engine)


def default_transport(profile: Profile) -> TransportConfig:
    """Transport tuning scaled to a profile's time axis.

    The retransmission timer must exceed the uncontended round trip by a
    healthy margin or congestion alone triggers spurious retries; scale
    it with the measurement window so fast smoke profiles stay snappy.
    """
    return TransportConfig(base_timeout=max(128, profile.measure_cycles // 8))


def chaos_campaign(
    config: SimulationConfig,
    fault_rates: tuple[float, ...] = (0.0, 0.05, 0.10, 0.20),
    repair_grid: tuple[int, ...] = (0,),
    loads=None,
    profile: Profile | None = None,
    storm_seed: int = 5,
    transport: TransportConfig | None = None,
    instruments=(),
    record_failures: bool = True,
    **harness,
) -> list[ChaosSeries]:
    """Grid fail-stop storms over fault rate × repair time × offered load.

    One :class:`ChaosSeries` per (fault_rate, repair_cycles) pair: a
    curve of :func:`~repro.experiments.sweep.run_curves` over ``config``
    (the recipe of every point but its load) whose points run under
    ``(*instruments, Audit(), Storm(storm))`` — what
    :func:`run_chaos_point` runs one point under — through the resilient
    harness (``harness``: ``parallel``, ``max_workers``, ``retries``,
    ``timeout``, ``progress``, ``ledger``, ``checkpoints``).  ``loads``
    defaults to the ``profile``'s grid, ``transport`` to its
    :func:`default_transport`.  Adaptive algorithms only — the storms are
    lane-level, so deterministic baselines reject them at validation (by
    design: the unprotected contrast belongs to the fault tests, not the
    campaign).

    Every completed point is appended to ``ledger`` as a ``"chaos"``
    record with dedup off (grid points share config digest + seed; the
    storm recipe on ``telemetry.reliability`` is what distinguishes
    them).  ``instruments`` are observers installed ahead of the storm
    on every point — a :class:`~repro.obs.flight.Flight` gets the
    strike/repair annotations stamped on each timeline.  ``checkpoints``
    (a :class:`~repro.sim.checkpoint.CheckpointPolicy`) makes every
    point checkpointed and resumable; a rerun with the same directory
    reloads finished points and resumes interrupted ones.
    """
    profile = profile or get_profile()
    if transport is None:
        transport = default_transport(profile)
    storms = [
        StormSpec(
            fault_rate=rate,
            repair_cycles=repair_cycles,
            storm_seed=storm_seed,
            transport=transport,
        )
        for repair_cycles in repair_grid
        for rate in fault_rates
    ]
    curves = [
        (
            f"{config.network} chaos fr={storm.fault_rate:.2f}"
            + (f" repair={storm.repair_cycles}" if len(repair_grid) > 1 else ""),
            config,
            (*instruments, Audit(), Storm(storm)),
        )
        for storm in storms
    ]
    ran = run_curves(
        curves, loads, profile, ledger_kind="chaos", ledger_dedup=False,
        record_failures=record_failures, **harness,
    )
    return [
        ChaosSeries(storm=storm, series=series, results=results)
        for storm, (series, results) in zip(storms, ran)
    ]


def degradation_rows(campaign: list[ChaosSeries]) -> list[dict]:
    """Flatten a campaign into fault-rate curve rows (one per series).

    The rows feed the CLI table; the scorecard's reliability panel plots
    the same means (:mod:`repro.sim.results`) of the same runs, read back
    from the ledger.
    """
    return [
        {
            "fault_rate": cs.storm.fault_rate,
            "repair_cycles": cs.storm.repair_cycles,
            "goodput_fraction": mean_goodput_fraction(cs.results),
            "retransmit_overhead": mean_retransmit_overhead(cs.results),
            "dropped": total_dropped(cs.results),
            "given_up": total_given_up(cs.results),
            "points": len(cs.results),
            "failures": len(cs.series.failures),
        }
        for cs in campaign
    ]
