"""High-level simulation entry points.

:func:`simulate` turns a :class:`~repro.sim.config.SimulationConfig` — and
the instruments to run it under — into a
:class:`~repro.sim.results.RunResult`; :func:`tree_config` and
:func:`cube_config` build paper-faithful configurations (flit widths,
capacities and packet sizes from the §5 normalization) with one call.

Example::

    from repro.sim import simulate
    from repro.sim.run import tree_config

    result = simulate(tree_config(vcs=4, pattern="uniform", load=0.5))
    print(result.accepted_fraction, result.avg_latency_cycles)
"""

from __future__ import annotations

import dataclasses

from ..errors import DeadlockError
from ..obs.probe import Instrument
from ..routing.base import make_routing
from ..timing.normalization import cube_scaling, tree_scaling
from ..topology.cube import KAryNCube
from ..topology.tree import KAryNTree
from ..traffic.generator import BernoulliInjector
from ..traffic.patterns import make_pattern
from .config import SimulationConfig
from .engine import Engine, collector_paused
from .results import RunResult


def network_of(config: SimulationConfig) -> tuple:
    """The topology and the routing algorithm a config names."""
    family = KAryNTree if config.network == "tree" else KAryNCube
    return family(config.k, config.n), make_routing(config.algorithm)


def build_engine(config: SimulationConfig, probe=None) -> Engine:
    """Instantiate topology, routing, traffic and engine for a config.

    Args:
        config: the run recipe.
        probe: optional observability probe (:mod:`repro.obs`) attached
            before the first cycle, so it sees the whole run.
    """
    with collector_paused():
        topo, routing = network_of(config)
        pattern = make_pattern(config.pattern, topo.num_nodes, **config.pattern_kwargs)
        injector = BernoulliInjector(
            pattern,
            flits_per_cycle=config.injection_flits_per_cycle,
            packet_flits=config.packet_flits,
            seed=config.seed,
        )
        engine = Engine(topo, routing, injector, config)
    if probe is not None:  # outside the pause: a probe closes a cycle through the engine
        engine.attach_probe(probe)
    return engine


@dataclasses.dataclass(frozen=True)
class Audit(Instrument):
    """Verify the engine's global invariants after the run
    (:meth:`Engine.audit`): an instrumented run that corrupted one fails
    loudly instead of skewing a curve."""

    def install(self, engine):
        return None

    def finish(self, engine, live, result):
        engine.audit()
        return result


def start(config, instruments=(), probe=None, checkpoint=None, build=build_engine):
    """The engine of one instrumented run and the call that runs it.

    With a ``checkpoint`` policy whose directory holds a valid snapshot of
    ``config``, the restored engine and its ``resume_run`` — its
    instruments came back inside the snapshot.  Otherwise ``build(config,
    probe=probe)`` with every instrument installed in order (each sees the
    policy as ``engine.checkpoint_policy``), then a
    :class:`~repro.sim.checkpoint.CheckpointProbe` when a policy was
    given, and the engine's ``run``.
    """
    if checkpoint is not None:
        from .checkpoint import attach_checkpoints, resume_point

        engine = resume_point(checkpoint, config)
        if engine is not None:
            return engine, engine.resume_run
    engine = build(config, probe=probe)
    engine.checkpoint_policy = checkpoint
    for spec in instruments:
        engine.instruments.append((spec, spec.install(engine)))
    if checkpoint is not None:
        attach_checkpoints(engine, checkpoint)
    return engine, engine.run


def finish(engine: Engine, result: RunResult) -> RunResult:
    """Let every installed instrument attach its document to ``result``."""
    for spec, live in engine.instruments:
        result = spec.finish(engine, live, result)
    return result


def simulate(
    config: SimulationConfig,
    instruments=(),
    probe=None,
    checkpoint=None,
    build=build_engine,
) -> RunResult:
    """Run one simulation to completion and return its measurements.

    The one instrumented-run pipeline: a tier is an
    :class:`~repro.obs.probe.Instrument` spec in ``instruments`` —
    ``Forensics``, ``Flight``, ``StateHash``, ``Reliable``, ``Congested``,
    ``Storm``, ``Overload``, ``Faults``, ``Replay``, :class:`Audit` — and
    any of them combines with any other (:func:`simulate_post_mortem` when
    a deadlock must survive).  Specs are installed in list order — list
    observers before the transport tiers, so that they see a cycle before
    the protocol acts on it — and each attaches its document to the result
    afterwards.  An optional ``probe`` (:mod:`repro.obs`) is attached
    first; the returned result always carries
    :class:`~repro.obs.telemetry.RunTelemetry`.

    ``checkpoint`` (a :class:`~repro.sim.checkpoint.CheckpointPolicy`)
    makes the run resumable: a valid checkpoint in the policy's directory
    finishes the interrupted run with the instruments it was started
    with (byte-identical document, wall-clock aside); otherwise the run
    starts fresh and checkpoints itself.  ``build`` replaces
    :func:`build_engine`.

    The engine is released on return, also when the run raised
    (:meth:`~repro.sim.engine.Engine.release`): reference counting frees it
    at once, and an engine a ``build`` hook kept answers only for the
    finished run.  :func:`simulate_post_mortem` keeps it live.
    """
    engine, run = start(config, instruments, probe, checkpoint, build)
    try:
        return finish(engine, run())
    finally:
        engine.release()


def simulate_post_mortem(config, instruments=(), probe=None, checkpoint=None):
    """:func:`simulate` that survives a deadlock.

    Returns ``(result, engine, deadlock)`` where ``deadlock`` is the
    caught :class:`~repro.errors.DeadlockError` or ``None``.  On deadlock
    the partial result still carries every instrument's document — the
    post-mortem is the whole point.
    """
    engine, run = start(config, instruments, probe, checkpoint)
    deadlock = None
    try:
        result = run()
    except DeadlockError as exc:
        deadlock = exc
        result = engine.result
    return finish(engine, result), engine, deadlock


def tree_config(
    k: int = 4,
    n: int = 4,
    vcs: int = 4,
    pattern: str = "uniform",
    load: float = 0.1,
    algorithm: str = "tree_adaptive",
    **overrides,
) -> SimulationConfig:
    """Paper-normalized k-ary n-tree configuration (§5 defaults).

    2-byte flits (64-byte packets = 32 flits), capacity 1 flit/cycle/node,
    adaptive routing (``algorithm="tree_deterministic"`` selects the
    oblivious baseline).  ``overrides`` reach :class:`SimulationConfig`
    directly (seed, warmup_cycles, total_cycles, ...).
    """
    scaling = tree_scaling(k, n)
    return SimulationConfig(
        network="tree",
        k=k,
        n=n,
        algorithm=algorithm,
        vcs=vcs,
        packet_flits=overrides.pop("packet_flits", scaling.packet_flits),
        capacity_flits_per_cycle=scaling.capacity_flits_per_cycle,
        pattern=pattern,
        load=load,
        **overrides,
    )


def cube_config(
    k: int = 16,
    n: int = 2,
    algorithm: str = "duato",
    vcs: int = 4,
    pattern: str = "uniform",
    load: float = 0.1,
    **overrides,
) -> SimulationConfig:
    """Paper-normalized k-ary n-cube configuration (§5 defaults).

    4-byte flits (64-byte packets = 16 flits), capacity ``8/k`` flits per
    cycle per node (0.5 for the 16-ary 2-cube).
    """
    scaling = cube_scaling(k, n)
    return SimulationConfig(
        network="cube",
        k=k,
        n=n,
        algorithm=algorithm,
        vcs=vcs,
        packet_flits=overrides.pop("packet_flits", scaling.packet_flits),
        capacity_flits_per_cycle=scaling.capacity_flits_per_cycle,
        pattern=pattern,
        load=load,
        **overrides,
    )
