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

from dataclasses import dataclass

from ..errors import AnalysisError, ConfigurationError
from ..faults import Faults
from ..profiles import Profile, get_profile
from ..sim.results import RunResult
from ..sim.run import Audit, cube_config, tree_config
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


def _make_config(network, load, vcs, profile, seed, k, n, algorithm, **overrides):
    common = dict(
        vcs=vcs,
        load=load,
        seed=seed,
        warmup_cycles=profile.warmup_cycles,
        total_cycles=profile.total_cycles,
        **overrides,
    )
    if network == "tree":
        return tree_config(k=k or 4, n=n or 4, algorithm=algorithm or "tree_adaptive", **common)
    if network == "cube":
        return cube_config(k=k or 16, n=n or 2, algorithm=algorithm or "duato", **common)
    raise ConfigurationError(f"unknown network family {network!r}")


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
    network: str = "tree",
    fractions: tuple[float, ...] = (0.0, 0.05, 0.10, 0.20),
    profile: Profile | None = None,
    load: float = 1.0,
    vcs: int = 4,
    seed: int = 47,
    fault_seed: int = 5,
    k: int | None = None,
    n: int | None = None,
    algorithm: str | None = None,
    pattern: str = "uniform",
    arbiter: str = "round_robin",
    **harness,
) -> list[DegradationRow]:
    """Measure throughput under growing permanent fault fractions.

    Each fraction is one run of the same recipe (identical traffic seed)
    under ``Faults(fraction, fault_seed)`` — ``round(fraction ·
    population)`` random channel faults seized at cycle 0 — and is audited
    afterwards, so a fault-induced invariant violation fails loudly rather
    than skewing a row.  ``harness`` reaches
    :func:`~repro.experiments.sweep.run_curves` (``ledger``, ``parallel``,
    ``checkpoints``, ...).
    """
    config = _make_config(
        network, load, vcs, profile or get_profile(), seed, k, n, algorithm,
        pattern=pattern, arbiter=arbiter,
    )
    faults = [Faults(fraction, fault_seed) for fraction in fractions]
    return [_row(result) for result in _fault_runs(config, faults, **harness)]


def transient_experiment(
    network: str = "cube",
    fraction: float = 0.10,
    fail_at: int | None = None,
    repair_at: int | None = None,
    profile: Profile | None = None,
    load: float = 0.8,
    vcs: int = 4,
    seed: int = 47,
    fault_seed: int = 5,
    k: int | None = None,
    n: int | None = None,
    algorithm: str | None = None,
    interval_cycles: int | None = None,
    pattern: str = "uniform",
    arbiter: str = "round_robin",
    **harness,
) -> tuple[RunResult, DegradationRow]:
    """One run with a mid-run fault window: fail at T, repair at T'.

    Defaults place the window over the middle of the measurement window
    and record a throughput timeline, so the dip and recovery are visible
    in ``result.throughput_timeline``.
    """
    profile = profile or get_profile()
    if fail_at is None:
        fail_at = profile.warmup_cycles + profile.measure_cycles // 4
    if repair_at is None:
        repair_at = profile.warmup_cycles + (3 * profile.measure_cycles) // 4
    if interval_cycles is None:
        interval_cycles = max(1, profile.measure_cycles // 10)
    config = _make_config(
        network, load, vcs, profile, seed, k, n, algorithm,
        interval_cycles=interval_cycles, pattern=pattern, arbiter=arbiter,
    )
    window = Faults(fraction, fault_seed, fail_at, repair_at)
    (result,) = _fault_runs(config, [window], **harness)
    return result, _row(result)
