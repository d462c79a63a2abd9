"""The four workloads: input generation, one timed pass each, and the checks.

Closed loop, one driver process; only ``fig5_campaign`` starts workers,
at most ``min(2, nproc)``.  A workload's inputs are plain
``SimulationConfig``/``StormSpec`` objects derived from the benchmark
seed — the program never sees the seed itself.  Every pass of a run
repeats the *same* inputs, so passes are comparable timing samples and
later passes double as a determinism check against the first.

Why these four (the README has the full prediction table):

* ``paper_light`` — most (direction, cycle) slots carry no flit, so an
  active-set / cycle-skipping / no-probe ``step`` does its work here and
  a saturated-phase kernel does little;
* ``paper_sat`` — link, crossbar and routing all busy, blocked-direction
  retries dominate: the opposite predictions;
* ``fig5_campaign`` — what a user waits for: a permutation pattern,
  pool fan-out, pickling, cache writes, ledger appends, report;
* ``chaos_resume`` — every probe on, ARQ timers, fail-stop kills,
  checkpoint write beside restore.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import multiprocessing
import os
import pathlib
import random
import time
import traceback
from collections.abc import Callable

from repro import build_engine, cube_config, tree_config
from repro.experiments import chaos as chaos_module
from repro.experiments.chaos import StormSpec, run_chaos_point
from repro.experiments.runcache import RunCache
from repro.experiments.sweep import clear_cache, default_loads, run_sweep
from repro.metrics.io import run_result_to_dict
from repro.obs.flight import FlightConfig
from repro.obs.ledger import Ledger
from repro.obs.report import figures_from_results, render_scorecard
from repro.sim.checkpoint import (
    CheckpointPolicy,
    checkpoint_files,
    read_checkpoint_header,
    read_manifest,
)
from repro.sim.config import SimulationConfig
from repro.sim.results import RunResult
from repro.traffic.transport import TransportConfig

from .tracing import EngineCounts, Tracer, attach_counter


@dataclasses.dataclass(frozen=True)
class Scale:
    """Network sizes and windows.  ``paper`` is the benchmark; ``small``
    (16 nodes) exists so the harness self-test runs in seconds.

    The paper windows are shorter than ISSUE 11 proposed (300/3000,
    300/1500, 250/1450, 300/3000): the driver allows ~37 s per run, set-up
    included, and the host's slow stretches last 4-16 s, so a run needs
    four to six passes for its median to sit on a quiet one.
    """

    tree: tuple[int, int]
    cube: tuple[int, int]
    light_window: tuple[int, int]
    sat_window: tuple[int, int]
    fig5_window: tuple[int, int]
    fig5_points: int
    chaos_window: tuple[int, int]
    chaos_interval: int
    probe_window: tuple[int, int]
    setup_samples: int


SCALES = {
    "paper": Scale(
        tree=(4, 4),
        cube=(16, 2),
        light_window=(300, 1500),
        sat_window=(200, 700),
        fig5_window=(150, 650),
        fig5_points=7,
        chaos_window=(300, 1200),
        chaos_interval=400,
        probe_window=(50, 200),
        setup_samples=5,
    ),
    "small": Scale(
        tree=(4, 2),
        cube=(4, 2),
        light_window=(50, 250),
        sat_window=(50, 250),
        fig5_window=(50, 250),
        fig5_points=3,
        chaos_window=(50, 450),
        chaos_interval=150,
        probe_window=(20, 120),
        setup_samples=1,
    ),
}

#: simulated cycles per timing slice of a run the harness can reach:
#: 30-90 ms of host time.  Short enough that a few of a run's slices fall
#: between the host's slow patches even in a bad minute, long enough that
#: steady-state slices do nearly the same work (the windows are multiples)
SLICE_CYCLES = 50

#: pool size of the campaign workload
WORKERS = min(2, os.cpu_count() or 1)

_TIMING_FIELDS = ("wall_clock_s", "cycles_per_sec", "phase_seconds")


def canonical(result: RunResult) -> str:
    """The run document with wall-clock fields nulled, as
    ``tests/test_determinism._canonical`` and the CI resume-smoke job do."""
    doc = run_result_to_dict(result)
    if doc["telemetry"] is not None:
        for field in _TIMING_FIELDS:
            doc["telemetry"][field] = None
    return json.dumps(doc, sort_keys=True)


def digest(result: RunResult) -> str:
    return hashlib.sha256(canonical(result).encode()).hexdigest()[:32]


class Checks:
    """Operations attempted and failed: the benchmark's correctness count."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)

    @contextlib.contextmanager
    def guard(self, what: str):
        """Count the body as one operation; an exception fails it and the
        benchmark carries on, so one bad run cannot hide the others."""
        self.attempted += 1
        try:
            yield
        except Exception:  # noqa: BLE001 - boundary: recorded, reported, counted
            self.failed += 1
            self.notes.append(f"{what}: {traceback.format_exc(limit=4)}")


@dataclasses.dataclass
class Inputs:
    """Everything one pass of a workload feeds the program."""

    scale: Scale
    #: (unit label, config) per run; fig5 lists every point, series-major
    runs: list[tuple[str, SimulationConfig]]
    #: chaos only: one storm per run
    storms: list[StormSpec] = dataclasses.field(default_factory=list)

    @property
    def configs(self) -> list[SimulationConfig]:
        return [config for _, config in self.runs]


@dataclasses.dataclass
class PassOutcome:
    """What one pass produced, beyond its spans."""

    #: one result per run of the pass, in input order (None = failed)
    results: list[RunResult | None] = dataclasses.field(default_factory=list)
    #: simulated cycles the pass executed
    cycles: int = 0
    #: engines a detailed pass could reach
    counts: EngineCounts = dataclasses.field(default_factory=EngineCounts)
    #: workload-specific facts for the per-layer metrics
    facts: dict = dataclasses.field(default_factory=dict)
    #: {unit name: seconds per steady-state slice of that run}, where the
    #: harness holds the engine and can time inside the run
    slices: dict[str, list[float]] = dataclasses.field(default_factory=dict)


def _cycles(results) -> int:
    return sum(r.telemetry.cycles for r in results if r is not None)


def _seeds(workload: str, seed: int, n: int) -> list[int]:
    # str seeding hashes with sha512: stable across processes and versions
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(1, 2**31) for _ in range(n)]


# -- paper_light / paper_sat ----------------------------------------------------


def paper_configs(
    scale: Scale, load: float, window: tuple[int, int], seeds: list[int]
) -> list[tuple[str, SimulationConfig]]:
    """The paper's five routing configurations at one offered load."""
    (tk, tn), (ck, cn) = scale.tree, scale.cube
    common = dict(pattern="uniform", load=load, warmup_cycles=window[0], total_cycles=window[1])
    return [
        ("tree-1vc", tree_config(k=tk, n=tn, vcs=1, seed=seeds[0], **common)),
        ("tree-2vc", tree_config(k=tk, n=tn, vcs=2, seed=seeds[1], **common)),
        ("tree-4vc", tree_config(k=tk, n=tn, vcs=4, seed=seeds[2], **common)),
        ("cube-dor", cube_config(k=ck, n=cn, algorithm="dor", vcs=4, seed=seeds[3], **common)),
        ("cube-duato", cube_config(k=ck, n=cn, algorithm="duato", vcs=4, seed=seeds[4], **common)),
    ]


def _paper_inputs(workload: str, load: float, window_field: str):
    def make(seed: int, scale: Scale) -> Inputs:
        window = getattr(scale, window_field)
        return Inputs(scale, paper_configs(scale, load, window, _seeds(workload, seed, 5)))

    return make


def counted_run(
    config: SimulationConfig, tr: Tracer, out: PassOutcome, checks: Checks, unit: str | None = None
):
    """``build_engine(config).run()`` under spans, then audit the engine.

    With ``unit`` the build and the run are one timed unit of the pass,
    and clock reads at every :data:`SLICE_CYCLES`-th cycle of the
    measurement window — taken from engine cycle hooks, so the engine
    stays on its no-probe path — give the steady-state slice times
    (``out.slices``).  A detailed tracer also attaches the counting probe
    and folds the engine's exact event totals into ``out.counts``.
    """
    stamps: list[float] = []
    with tr.span(unit, unit=True) if unit else contextlib.nullcontext():
        with tr.span("sim.build_engine"):
            engine = build_engine(config)
        counter = attach_counter(engine) if tr.detailed else None
        if unit:
            for cycle in range(config.warmup_cycles, config.total_cycles, SLICE_CYCLES):
                engine.add_cycle_hook(cycle, lambda _engine: stamps.append(time.perf_counter()))
        with tr.span("sim.run"):
            result = engine.run()
        stamps.append(time.perf_counter())
    if unit:
        out.slices[unit] = [b - a for a, b in zip(stamps, stamps[1:])]
    with checks.guard(f"audit {config.label()}"), tr.span("sim.audit"):
        engine.audit()
    if counter is not None:
        out.counts.add(engine, counter)
    return result


def paper_pass(inputs: Inputs, tr: Tracer, checks: Checks, workdir, verify: bool) -> PassOutcome:
    out = PassOutcome()
    for label, config in inputs.runs:
        result = None
        with checks.guard(f"run {config.label()}"):
            result = counted_run(config, tr, out, checks, unit=f"unit.{label}")
        out.results.append(result)
    out.cycles = _cycles(out.results)
    return out


# -- fig5_campaign --------------------------------------------------------------


def _fig5_inputs(seed: int, scale: Scale) -> Inputs:
    (k, n), window = scale.tree, scale.fig5_window
    runs = []
    for vcs, series_seed in zip((1, 2, 4), _seeds("fig5_campaign", seed, 3)):
        for load in default_loads(scale.fig5_points):
            config = tree_config(
                k=k, n=n, vcs=vcs, pattern="transpose", load=load, seed=series_seed,
                warmup_cycles=window[0], total_cycles=window[1],
            )
            runs.append((f"{vcs}vc", config))
    return Inputs(scale, runs)


def _series(inputs: Inputs) -> dict[str, list[SimulationConfig]]:
    series: dict[str, list[SimulationConfig]] = {}
    for label, config in inputs.runs:
        series.setdefault(label, []).append(config)
    return series


def join_children() -> None:
    """Wait for every worker ``run_sweep`` left shutting down."""
    for proc in multiprocessing.active_children():
        proc.join()


def sat_fidelity_err(figures) -> float:
    """Mean relative saturation-point error against the paper's figures
    (``obs.report.paper_reference``); 0.0 when no series has a reference."""
    errors = [
        abs(fig.saturation[label] - ref.saturation) / ref.saturation
        for fig in figures
        for label, ref in fig.refs.items()
    ]
    return sum(errors) / len(errors) if errors else 0.0


def check_cache_hits(
    cache: RunCache, inputs: Inputs, fresh: list[RunResult | None], checks: Checks
) -> None:
    """Re-run the campaign against the disk cache alone: every point must
    be a hit, and every hit must equal the fresh result."""
    clear_cache()
    statuses: dict[str, str] = {}
    hits: dict[str, RunResult] = {}
    for label, configs in _series(inputs).items():
        by_load = {c.load: c for c in configs}
        run_sweep(
            by_load.__getitem__, list(by_load), label=label, cache=cache,
            progress=lambda p: statuses.update({p.label: p.status}),
            on_result=lambda r: hits.update({r.config.label(): r}),
        )
    for config, result in zip(inputs.configs, fresh):
        key = config.label()
        checks.expect(
            result is not None
            and statuses.get(key) == "cached"
            and canonical(hits[key]) == canonical(result),
            f"cache entry for {key} is missing or differs from the fresh result",
        )


def fig5_pass(inputs: Inputs, tr: Tracer, checks: Checks, workdir, verify: bool) -> PassOutcome:
    """The Fig. 5 transpose panel through ``run_sweep`` with a fresh disk
    cache and ledger, then the scorecard.

    Pooled, except under a detailed tracer: that pass runs serially with
    :func:`counted_run` as the point function, so the harness can reach
    the engines (``run_sweep`` then bypasses the cache, by its contract).
    """
    out = PassOutcome()
    workdir = pathlib.Path(workdir)
    cache, ledger = RunCache(workdir / "cache"), Ledger(workdir / "ledger.jsonl")
    clear_cache()
    pooled = not tr.detailed
    point_fn = None if pooled else (lambda config: counted_run(config, tr, out, checks))
    done: list[RunResult] = []
    failures = 0
    for label, configs in _series(inputs).items():
        by_load = {c.load: c for c in configs}
        with checks.guard(f"sweep {label}"), tr.span(f"unit.sweep-{label}", unit=True):
            with tr.span("sweep.run_sweep"):
                series = run_sweep(
                    by_load.__getitem__, list(by_load), label=label, parallel=pooled,
                    max_workers=WORKERS, cache=cache, ledger=ledger, record_failures=True,
                    on_result=done.append, simulate_fn=point_fn,
                )
            join_children()
            failures += len(series.failures)
    by_recipe = {(r.config.vcs, r.config.load): r for r in done}
    for config in inputs.configs:
        result = by_recipe.get((config.vcs, config.load))
        checks.expect(result is not None, f"point failed: {config.label()}")
        out.results.append(result)
    out.cycles = _cycles(out.results)
    with checks.guard("scorecard"), tr.span("unit.report", unit=True):
        with tr.span("report.figures_from_results"):
            figures = figures_from_results(done)
        with tr.span("report.render_scorecard"):
            render_scorecard(figures)
        out.facts["sat_fidelity_err"] = sat_fidelity_err(figures)
    out.facts["failed_points"] = failures
    if verify and pooled:
        with tr.span("runcache.warm_rerun") as span:
            check_cache_hits(cache, inputs, out.results, checks)
        out.facts["warm_rerun_s"] = span["end"] - span["start"]
        with checks.guard("ledger read"):
            checks.expect(
                len(list(ledger.records())) == len(done),
                "the ledger does not hold one record per finished point",
            )
    return out


# -- chaos_resume ---------------------------------------------------------------


def _chaos_inputs(seed: int, scale: Scale) -> Inputs:
    (tk, tn), (ck, cn), window = scale.tree, scale.cube, scale.chaos_window
    tree_seed, cube_seed, storm_seed = _seeds("chaos_resume", seed, 3)
    common = dict(pattern="uniform", load=0.5, warmup_cycles=window[0], total_cycles=window[1])
    storm = StormSpec(
        fault_rate=0.05, repair_cycles=200, storm_seed=storm_seed,
        transport=TransportConfig(base_timeout=256),
    )
    runs = [
        ("tree-4vc", tree_config(k=tk, n=tn, vcs=4, seed=tree_seed, **common)),
        ("cube-duato", cube_config(k=ck, n=cn, algorithm="duato", vcs=4, seed=cube_seed, **common)),
    ]
    return Inputs(scale, runs, storms=[storm, storm])


@contextlib.contextmanager
def _reach_chaos_engines(sink: list):
    """While active, every engine ``run_chaos_point`` builds also gets a
    counting probe and lands in ``sink`` — the one place the harness
    wraps a name inside the program, because that entry point neither
    returns its engine nor accepts a probe."""
    real = chaos_module.build_engine

    def capturing(config, probe=None):
        engine = real(config, probe=probe)
        sink.append((engine, attach_counter(engine)))
        return engine

    chaos_module.build_engine = capturing
    try:
        yield
    finally:
        chaos_module.build_engine = real


def check_resume(first: RunResult, resumed: RunResult, directory, checks: Checks) -> None:
    """A resumed run must equal its uninterrupted twin, and must really
    have been restored: a discarded snapshot makes ``run_chaos_point``
    silently start over, which would pass the equality check."""
    checks.expect(
        canonical(resumed) == canonical(first),
        f"resumed document differs from its uninterrupted twin ({first.config.label()})",
    )
    discarded = read_manifest(directory)["discarded"]
    checks.expect(not discarded, f"snapshots discarded on resume: {discarded}")


def chaos_pass(inputs: Inputs, tr: Tracer, checks: Checks, workdir, verify: bool) -> PassOutcome:
    """Each chaos point, then a second call on the same directory, which
    restores the newest snapshot and replays only the tail."""
    out = PassOutcome()
    reached: list = []
    reach = _reach_chaos_engines(reached) if tr.detailed else contextlib.nullcontext()
    with reach:
        for i, ((label, config), storm) in enumerate(zip(inputs.runs, inputs.storms)):
            policy = CheckpointPolicy(
                str(pathlib.Path(workdir) / f"ckpt-{i}"),
                interval_cycles=inputs.scale.chaos_interval,
            )
            first = None
            with checks.guard(f"chaos point {config.label()}"):
                with tr.span(f"unit.{label}-first", unit=True), tr.span("chaos.run_chaos_point"):
                    first = run_chaos_point(config, storm, flight=FlightConfig(), checkpoint=policy)
            out.results.append(first)
            if first is None:
                continue
            out.cycles += first.telemetry.cycles
            snapshots = checkpoint_files(policy.directory)
            checks.expect(bool(snapshots), f"no snapshot left to resume from ({config.label()})")
            if not snapshots:
                continue
            restored_at = read_checkpoint_header(snapshots[0])["cycle"]
            with checks.guard(f"resume {config.label()}"):
                with tr.span(f"unit.{label}-resume", unit=True), tr.span("checkpoint.resume"):
                    resumed = run_chaos_point(config, storm, flight=FlightConfig(), checkpoint=policy)
                out.cycles += config.total_cycles - restored_at
                check_resume(first, resumed, policy.directory, checks)
    for engine, counter in reached:
        out.counts.add(engine, counter)
    done = [r for r in out.results if r is not None]
    out.facts.update(
        retransmits=sum(r.retransmitted_packets for r in done),
        dropped_packets=sum(r.dropped_packets for r in done),
        strikes=sum(r.telemetry.reliability["storm"]["faults"] for r in done),
    )
    return out


# -- registry -------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable[[int, Scale], Inputs]
    run_pass: Callable[..., PassOutcome]
    #: set-up also starts (and stops) the worker pool
    pool: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper_light",
            "five paper configs, uniform, load 0.3: most link slots idle, routing a small "
            "share; active-set, cycle-skip and no-probe step changes do their work here",
            _paper_inputs("paper_light", 0.3, "light_window"),
            paper_pass,
        ),
        Workload(
            "paper_sat",
            "the same five configs at load 0.9, past saturation: link, crossbar and routing "
            "all busy; kernel and routing changes show here, active-set changes must not",
            _paper_inputs("paper_sat", 0.9, "sat_window"),
            paper_pass,
        ),
        Workload(
            "fig5_campaign",
            "Fig. 5 transpose panel via pooled run_sweep with fresh disk cache and ledger, "
            "then the scorecard: pool fan-out, pickling, cache and ledger I/O, report",
            _fig5_inputs,
            fig5_pass,
            pool=True,
        ),
        Workload(
            "chaos_resume",
            "two chaos points with flight, transport and checkpoint probes on, each resumed "
            "from its newest snapshot: probe dispatch, ARQ timers, checkpoint write and restore",
            _chaos_inputs,
            chaos_pass,
        ),
    )
}
