"""Random channel faults as an instrument of the run pipeline.

:class:`Faults` is the one way an experiment fails a *fraction* of a
network's channels: ``simulate(config, [Faults(0.1)])`` draws
``round(0.1 · population)`` random faults (:func:`random_fault_specs`),
schedules them through a :class:`~repro.faults.schedule.FaultSchedule` —
striking at cycle 0 by default, which seizes the lanes before the first
link phase exactly as the static injectors do before the run — and files
what it did on ``telemetry.faults``.  Being part of the recipe, the faults
ride sweeps, pool workers, ledgers and checkpoints like any other tier.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..errors import ConfigurationError
from ..obs.probe import Instrument
from ..topology.cube import KAryNCube
from ..topology.tree import KAryNTree
from .cube import CubeLinkFault, random_cube_link_faults
from .schedule import FaultSchedule
from .tree import TreeUplinkFault, random_uplink_faults


def fault_population(topo, safe: bool = False) -> int:
    """Size of the failable channel population of a topology.

    Tree: every ascending channel direction of the non-root levels —
    ``safe`` counts only what :func:`random_uplink_faults` can draw, every
    switch keeping one live up port.  Cube: every inter-router channel
    direction (lane-level faults need no placement constraint).
    """
    if isinstance(topo, KAryNTree):
        per_switch = topo.k - 1 if safe else topo.k
        return (topo.n - 1) * topo.switches_per_level * per_switch
    if isinstance(topo, KAryNCube):
        per_node = topo.n if topo.k == 2 else 2 * topo.n
        return topo.num_nodes * per_node
    raise ConfigurationError(f"no fault population defined for {type(topo).__name__}")


def random_fault_specs(topo, count: int, seed: int) -> list:
    """``count`` random channel faults of ``topo`` as schedulable specs
    (tree: ascending channels; cube: lane-level links)."""
    if isinstance(topo, KAryNTree):
        return [TreeUplinkFault(s, p) for s, p in random_uplink_faults(topo, count, seed=seed)]
    return [
        CubeLinkFault(node, dim, direction)
        for node, dim, direction in random_cube_link_faults(topo, count, seed=seed)
    ]


@dataclass(frozen=True)
class Faults(Instrument):
    """Fail ``fraction`` of the channel population, drawn from ``seed``, at
    cycle ``fail_at`` (drain-then-seize), repairing at ``repair_at`` if given.

    List it after a :class:`~repro.obs.flight.Flight`: the recorder must be
    attached for the fault window to be stamped on its timeline.  The
    document — the recipe, the realized ``faults`` count, the
    ``population`` it is a fraction of and the run's ``escape_fraction``
    (``None`` unless the routing has an escape split) — lands on
    ``telemetry.faults``.
    """

    fraction: float
    seed: int = 5
    fail_at: int = 0
    repair_at: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction < 1.0:
            raise ConfigurationError(f"fault fraction {self.fraction} outside [0, 1)")

    def install(self, engine) -> dict:
        population = fault_population(engine.topology)
        specs = random_fault_specs(
            engine.topology, round(self.fraction * population), self.seed
        )
        if specs:  # fraction 0 is a legal no-fault baseline
            schedule = FaultSchedule()
            for spec in specs:
                schedule.add(spec, self.fail_at, self.repair_at)
            schedule.install(engine)
            schedule.stamp(engine)
        return {**dataclasses.asdict(self), "faults": len(specs), "population": population}

    def finish(self, engine, live, result):
        if result.telemetry is not None:
            escape = getattr(engine.routing, "escape_fraction", None)
            doc = {**live, "escape_fraction": escape() if escape else None}
            result.telemetry = dataclasses.replace(result.telemetry, faults=doc)
        return result
