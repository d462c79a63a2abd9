"""Overload campaigns: open-loop vs closed-loop behaviour past saturation.

The paper's sweeps stop at each network's saturation point; an overload
campaign drives the same configurations *past* it (up to 2× the paper's
saturation load) and contrasts two operating modes:

* **open loop** — the plain reliable transport
  (:mod:`repro.traffic.transport`): sources inject at the offered rate
  and retransmit blindly into the congested fabric.  Past saturation,
  duplicates and queueing collapse goodput while tail latency grows
  without bound — the classic congestion-collapse curve;
* **closed loop** — the ECN-style control loop of
  :mod:`repro.traffic.congestion` (hot-link marking + per-destination
  AIMD windows), optionally paired with age-based lane arbitration
  (``config.arbiter = "age"``) so the oldest packets drain first.
  Age arbitration trades the tail for the median under deep overload
  (it improves p50 but lets young packets pile up behind old ones,
  inflating p99), so both campaign modes default to round-robin and
  ``arbiter_closed="age"`` is an explicit opt-in.

One overload point = one simulation with ``collect_latencies`` on (the
collapse panel plots p99, which needs the full sample), audited after
the run.  The campaign grids both modes over an offered-load axis
expressed as multiples of the paper's saturation reference, through the
resilient sweep harness; every point lands in the ledger as a
``"congestion"`` record (dedup off: modes share config digest + seed)
with the mode document on ``telemetry.reliability["overload"]`` — which
is what the scorecard's congestion-collapse panel reads.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from ..metrics.series import LoadSweepSeries
from ..obs.flight import FlightConfig
from ..obs.probe import Instrument
from ..obs.report import paper_reference
from ..profiles import Profile, get_profile
from ..sim.config import SimulationConfig
from ..sim.results import RunResult, worst_p99
from ..sim.run import Audit
from ..traffic.congestion import Congested, CongestionConfig
from ..traffic.transport import Reliable, TransportConfig, attach_reliability
from .chaos import default_transport
from .sweep import run_curves

#: overload axis when the paper gives no saturation reference for a shape
FALLBACK_SATURATION = 0.6

#: campaign-default control loop, tuned on the paper's 4-ary 4-tree at
#: 1.5-2x saturation: windows sized near the per-flow bandwidth-delay
#: product (min 3, cap 10) so binding trims the queueing tail without
#: pushing the fabric below its knee, one additive step per clean ACK,
#: and marking from windowed blocked-time only (the instantaneous
#: occupancy trigger stays off; full lanes are the steady state past
#: saturation and marking on them pins every window at the floor)
DEFAULT_CONTROL = CongestionConfig(
    window_cycles=128,
    hot_fraction=0.7,
    initial_window=6.0,
    min_window=3.0,
    max_window=10.0,
    additive_increase=1.0,
    multiplicative_decrease=0.7,
    cooldown=256,
)


def saturation_reference(config: SimulationConfig) -> float:
    """The paper's saturation load for a configuration (fraction of
    capacity), falling back to :data:`FALLBACK_SATURATION` for shapes
    the paper does not report."""
    ref = paper_reference(
        config.network, config.k, config.n, config.algorithm, config.vcs, config.pattern
    )
    return ref.saturation if ref is not None else FALLBACK_SATURATION


def overload_loads(
    saturation: float,
    points: int,
    max_factor: float = 2.0,
) -> list[float]:
    """Offered-load grid as saturation multiples, half the saturation load
    up to ``max_factor`` times it, inclusive."""
    if points < 2:
        return [round(saturation * max_factor, 9)]
    step = (max_factor - 0.5) / (points - 1)
    return [round(saturation * (0.5 + i * step), 9) for i in range(points)]


@dataclass(frozen=True)
class OverloadSpec:
    """One overload mode's recipe (picklable: workers rebuild it).

    Attributes:
        closed_loop: install the congestion control loop (True) or the
            plain reliable transport (False).
        saturation: the paper's saturation load for the swept shape;
            recorded so the collapse panel can plot saturation multiples.
        arbiter: lane arbitration policy for the run.
        transport: reliable-transport tuning.
        control: congestion-loop tuning (ignored when open loop).
        flight: read by nothing — a flight recorder is an instrument,
            ``overload_recipe(config, spec, [Flight(...)])``.  Kept because
            the spec's ``repr`` is part of every congestion point's cache
            key and checkpoint directory.
    """

    closed_loop: bool
    saturation: float = FALLBACK_SATURATION
    arbiter: str = "round_robin"
    transport: TransportConfig = field(default_factory=TransportConfig)
    control: CongestionConfig = field(default_factory=CongestionConfig)
    flight: "FlightConfig | None" = None

    @property
    def mode(self) -> str:
        return "closed" if self.closed_loop else "open"


@dataclass(frozen=True)
class Overload(Instrument):
    """One overload mode as an instrument of
    :func:`~repro.sim.run.simulate`: the closed congestion loop or the
    plain reliable transport, per ``spec.closed_loop``.  The reliability
    document carries the mode under ``"overload"``."""

    spec: OverloadSpec

    def install(self, engine):
        spec = self.spec
        if spec.closed_loop:
            return Congested(spec.transport, spec.control).install(engine)
        return Reliable(spec.transport).install(engine)

    def finish(self, engine, live, result):
        spec = self.spec
        doc = {
            "mode": spec.mode,
            "arbiter": spec.arbiter,
            "saturation": spec.saturation,
            "factor": round(engine.config.load / spec.saturation, 6),
        }
        return attach_reliability(result, live, extra={"overload": doc})


def overload_recipe(
    config: SimulationConfig, spec: OverloadSpec, instruments=()
) -> tuple[SimulationConfig, tuple]:
    """The complete recipe of one mode's points: the config with latency
    collection forced on (the collapse panel needs p99) and the spec's
    arbiter — so both are part of the recorded config document and of the
    point's identity — and the instruments to run it under, ``instruments``
    ahead of the audit and the mode itself."""
    config = dataclasses.replace(config, arbiter=spec.arbiter, collect_latencies=True)
    return config, (*instruments, Audit(), Overload(spec))


@dataclass(frozen=True)
class OverloadSeries:
    """One mode of an overload campaign: a full offered-load sweep."""

    spec: OverloadSpec
    series: LoadSweepSeries
    results: tuple[RunResult, ...]


def congestion_campaign(
    config: SimulationConfig,
    modes: tuple[bool, ...] = (False, True),
    loads=None,
    max_factor: float = 2.0,
    profile: Profile | None = None,
    transport: TransportConfig | None = None,
    control: CongestionConfig | None = None,
    instruments=(),
    arbiter_closed: str = "round_robin",
    record_failures: bool = True,
    **harness,
) -> list[OverloadSeries]:
    """Grid open-loop vs closed-loop runs of ``config`` over an overload
    axis.

    One :class:`OverloadSeries` per entry of ``modes`` (False = open
    loop, True = closed loop): a curve of
    :func:`~repro.experiments.sweep.run_curves` built by
    :func:`overload_recipe`, from 0.5× to ``max_factor``× the paper's
    saturation reference for the swept shape (``profile.sweep_points``
    loads unless ``loads`` is given), through the resilient harness
    (``harness``: ``parallel``, ``max_workers``, ``retries``,
    ``timeout``, ``progress``, ``ledger``, ``checkpoints``).  The open
    loop runs under ``config.arbiter``, the closed loop under
    ``arbiter_closed``.  Every completed point is appended to ``ledger``
    as a ``"congestion"`` record with dedup off (modes intentionally
    share config digest + seed; the mode document on
    ``telemetry.reliability`` is what distinguishes them).
    ``instruments`` are observers installed ahead of the mode on every
    point (a :class:`~repro.obs.flight.Flight` records the window
    dynamics).  ``checkpoints`` (a
    :class:`~repro.sim.checkpoint.CheckpointPolicy`) makes every
    point checkpointed and resumable; a rerun with the same directory
    reloads finished points and resumes interrupted ones.
    """
    profile = profile or get_profile()
    saturation = saturation_reference(config)
    if loads is None:
        loads = overload_loads(
            saturation, profile.sweep_points, max_factor=max_factor
        )
    specs = [
        OverloadSpec(
            closed_loop=closed_loop,
            saturation=saturation,
            arbiter=arbiter_closed if closed_loop else config.arbiter,
            transport=transport or default_transport(profile),
            control=control or DEFAULT_CONTROL,
        )
        for closed_loop in modes
    ]
    curves = [
        (
            f"{config.network} congestion {spec.mode}-loop",
            *overload_recipe(config, spec, instruments),
        )
        for spec in specs
    ]
    ran = run_curves(
        curves, loads, ledger_kind="congestion", ledger_dedup=False,
        record_failures=record_failures, **harness,
    )
    return [
        OverloadSeries(spec=spec, series=series, results=results)
        for spec, (series, results) in zip(specs, ran)
    ]


def collapse_rows(campaign: list[OverloadSeries]) -> list[dict]:
    """Flatten a campaign into collapse-curve rows (one per point).

    The rows feed the CLI table and mirror what the scorecard's
    congestion panel plots from the ledger: goodput and p99 latency vs
    offered load (in saturation multiples), per mode.
    """
    rows = []
    for series in campaign:
        for result in series.results:
            rows.append(
                {
                    "mode": series.spec.mode,
                    "arbiter": series.spec.arbiter,
                    "load": result.config.load,
                    "factor": round(
                        result.config.load / series.spec.saturation, 6
                    ),
                    "goodput_fraction": result.goodput_fraction,
                    "p99_latency": worst_p99([result]),
                    "retransmit_overhead": result.retransmit_overhead,
                    "given_up": result.given_up_packets,
                }
            )
    return rows
