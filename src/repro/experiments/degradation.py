"""Fault-degradation experiments for both networks.

The operational claim under test (paper §1–2, CM-5 lineage): an adaptive
algorithm masks channel faults with graceful, roughly proportional
bandwidth loss — no deadlock, no collapse.  This experiment fails a
growing fraction of random channels and measures sustained throughput at
a fixed offered load:

* **tree** — random ascending-channel faults
  (:func:`~repro.faults.tree.random_uplink_faults`), masked by the
  adaptive up-phase;
* **cube** — random lane-level link faults
  (:func:`~repro.faults.cube.random_cube_link_faults`) under Duato's
  algorithm, masked by adaptive channels while the validated escape
  subnetwork keeps the run deadlock-free.

Both experiments are curve tables of
:func:`~repro.experiments.sweep.run_curves` — one curve per fraction over
the single load, each point running under ``(Audit(), Faults(...))`` — and
their rows are read from the results' ``telemetry.faults``.  The transient
variant (:func:`transient_experiment`) gives the same instrument a window —
fail at cycle T, repair at T' — to show the network riding it out.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..errors import AnalysisError
from ..faults import Faults
from ..sim.config import SimulationConfig
from ..sim.results import RunResult
from ..sim.run import Audit
from .sweep import run_curves


@dataclass(frozen=True)
class DegradationRow:
    """One fault level of a degradation experiment.

    Attributes:
        fraction: requested fault fraction of the channel population.
        faults: concrete number of channel directions failed.
        accepted: sustained accepted bandwidth (fraction of capacity).
        latency_cycles: average network latency, or ``None`` when no
            packet completed in the window.
        escape_fraction: share of routing decisions that fell back to
            escape channels (Duato only; ``None`` otherwise) — a direct
            read on how hard the faults squeeze the adaptive lanes.
    """

    fraction: float
    faults: int
    accepted: float
    latency_cycles: float | None
    escape_fraction: float | None


def _row(result: RunResult) -> DegradationRow:
    try:
        latency = result.avg_latency_cycles
    except AnalysisError:
        latency = None
    doc = result.telemetry.faults
    return DegradationRow(
        fraction=doc["fraction"],
        faults=doc["faults"],
        accepted=result.accepted_fraction,
        latency_cycles=latency,
        escape_fraction=doc["escape_fraction"],
    )


def _fault_runs(config, faults, **harness) -> list[RunResult]:
    """One run of ``config`` per :class:`~repro.faults.Faults` spec of
    ``faults``: a curve each over the config's single load, audited,
    filed as a ``"faults"`` ledger record (dedup off: the curves share
    config digest + seed; ``telemetry.faults`` is what tells them apart)."""
    curves = [
        (f"{config.network} faults f={spec.fraction:g}", config, (Audit(), spec))
        for spec in faults
    ]
    ran = run_curves(
        curves, [config.load], ledger_kind="faults", ledger_dedup=False, **harness
    )
    return [results[0] for _, results in ran]


def degradation_experiment(
    config: SimulationConfig,
    fractions: tuple[float, ...] = (0.0, 0.05, 0.10, 0.20),
    fault_seed: int = 5,
    **harness,
) -> list[DegradationRow]:
    """Measure throughput of ``config`` under growing permanent fault
    fractions.

    Each fraction is one run of the same recipe (identical traffic seed)
    under ``Faults(fraction, fault_seed)`` — ``round(fraction ·
    population)`` random channel faults seized at cycle 0 — and is audited
    afterwards, so a fault-induced invariant violation fails loudly rather
    than skewing a row.  ``harness`` reaches
    :func:`~repro.experiments.sweep.run_curves` (``ledger``, ``parallel``,
    ``checkpoints``, ...).
    """
    faults = [Faults(fraction, fault_seed) for fraction in fractions]
    return [_row(result) for result in _fault_runs(config, faults, **harness)]


def transient_experiment(
    config: SimulationConfig,
    fraction: float = 0.10,
    fail_at: int | None = None,
    repair_at: int | None = None,
    fault_seed: int = 5,
    **harness,
) -> tuple[RunResult, DegradationRow]:
    """One run of ``config`` with a mid-run fault window: fail at T,
    repair at T'.

    Defaults place the window over the middle of the config's measurement
    window and record a throughput timeline (ten intervals, unless
    ``config.interval_cycles`` sets one), so the dip and recovery are
    visible in ``result.throughput_timeline``.
    """
    warmup = config.warmup_cycles
    measure = config.total_cycles - warmup
    if fail_at is None:
        fail_at = warmup + measure // 4
    if repair_at is None:
        repair_at = warmup + (3 * measure) // 4
    if not config.interval_cycles:
        config = dataclasses.replace(config, interval_cycles=max(1, measure // 10))
    window = Faults(fraction, fault_seed, fail_at, repair_at)
    (result,) = _fault_runs(config, [window], **harness)
    return result, _row(result)
