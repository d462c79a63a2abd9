"""Fault-degradation experiments for both networks.

The operational claim under test (paper §1–2, CM-5 lineage): an adaptive
algorithm masks channel faults with graceful, roughly proportional
bandwidth loss — no deadlock, no collapse.  This experiment injects a
growing fraction of random channel faults and measures sustained
throughput at a fixed offered load:

* **tree** — random ascending-channel faults
  (:func:`~repro.faults.tree.random_uplink_faults`), masked by the
  adaptive up-phase;
* **cube** — random lane-level link faults
  (:func:`~repro.faults.cube.random_cube_link_faults`) under Duato's
  algorithm, masked by adaptive channels while the validated escape
  subnetwork keeps the run deadlock-free.

A transient variant (:func:`transient_experiment`) drives the same fault
population through a :class:`~repro.faults.FaultSchedule` — fail at
cycle T, repair at T' — to show the network riding a fault window out.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import AnalysisError, ConfigurationError
from ..faults import (
    CubeLinkFault,
    FaultSchedule,
    TreeUplinkFault,
    inject_cube_link_faults,
    inject_tree_uplink_faults,
    random_cube_link_faults,
    random_uplink_faults,
)
from ..profiles import Profile, get_profile
from ..routing.duato import DuatoAdaptiveRouting
from ..sim.results import RunResult
from ..sim.run import build_engine, cube_config, tree_config
from ..topology.cube import KAryNCube
from ..topology.tree import KAryNTree


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


def fault_population(topo) -> int:
    """Size of the failable channel population of a topology.

    Tree: every ascending channel direction of the non-root levels.
    Cube: every inter-router channel direction.
    """
    if isinstance(topo, KAryNTree):
        return (topo.n - 1) * topo.switches_per_level * topo.k
    if isinstance(topo, KAryNCube):
        per_node = topo.n if topo.k == 2 else 2 * topo.n
        return topo.num_nodes * per_node
    raise ConfigurationError(f"no fault population defined for {type(topo).__name__}")


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


def random_fault_specs(topo, count: int, seed: int) -> list:
    """``count`` random channel faults of ``topo`` as schedulable specs
    (tree: ascending channels; cube: lane-level links)."""
    if isinstance(topo, KAryNTree):
        return [TreeUplinkFault(s, p) for s, p in random_uplink_faults(topo, count, seed=seed)]
    return [
        CubeLinkFault(node, dim, direction)
        for node, dim, direction in random_cube_link_faults(topo, count, seed=seed)
    ]


def _draw_and_inject(engine, network: str, count: int, fault_seed: int) -> int:
    if network == "tree":
        return inject_tree_uplink_faults(
            engine, random_uplink_faults(engine.topology, count, seed=fault_seed)
        )
    return inject_cube_link_faults(
        engine, random_cube_link_faults(engine.topology, count, seed=fault_seed)
    )


def _row(engine, result: RunResult, fraction: float, count: int) -> DegradationRow:
    try:
        latency = result.avg_latency_cycles
    except AnalysisError:
        latency = None
    routing = engine.routing
    escape = (
        routing.escape_fraction() if isinstance(routing, DuatoAdaptiveRouting) else None
    )
    return DegradationRow(
        fraction=fraction,
        faults=count,
        accepted=result.accepted_fraction,
        latency_cycles=latency,
        escape_fraction=escape,
    )


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
    ledger=None,
) -> list[DegradationRow]:
    """Measure throughput under growing permanent fault fractions.

    Each fraction gets a fresh engine (identical traffic seed) with
    ``round(fraction · population)`` random channel faults injected
    before the run; the engine is audited afterwards, so a fault-induced
    invariant violation fails loudly rather than skewing a row.  An
    optional :class:`~repro.obs.ledger.Ledger` receives every completed
    run as a ``"faults"`` record.
    """
    profile = profile or get_profile()
    rows = []
    for fraction in fractions:
        if not 0.0 <= fraction < 1.0:
            raise ConfigurationError(f"fault fraction {fraction} outside [0, 1)")
        engine = build_engine(
            _make_config(network, load, vcs, profile, seed, k, n, algorithm)
        )
        count = round(fraction * fault_population(engine.topology))
        _draw_and_inject(engine, network, count, fault_seed)
        result = engine.run()
        engine.audit()
        if ledger is not None:
            # every fraction runs the *same* recipe (faults are injected
            # outside the config), so digest+seed dedup must be off
            ledger.append_run(result, kind="faults", dedup=False)
        rows.append(_row(engine, result, fraction, count))
    return rows


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
    ledger=None,
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
    engine = build_engine(
        _make_config(
            network, load, vcs, profile, seed, k, n, algorithm,
            interval_cycles=interval_cycles,
        )
    )
    count = round(fraction * fault_population(engine.topology))
    specs = random_fault_specs(engine.topology, count, fault_seed)
    if specs:  # fraction 0 is a legal no-fault baseline
        schedule = FaultSchedule()
        for spec in specs:
            schedule.add(spec, fail_at=fail_at, repair_at=repair_at)
        schedule.install(engine)
    result = engine.run()
    engine.audit()
    if ledger is not None:
        ledger.append_run(result, kind="faults", dedup=False)
    return result, _row(engine, result, fraction, count)
