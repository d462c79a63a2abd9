"""Offered-load sweeps, with a resilient campaign harness.

A sweep (:func:`run_sweep`) runs one simulation per offered-load point
and assembles a :class:`~repro.metrics.series.LoadSweepSeries`;
:func:`run_curves` runs a table of them — the shape every figure,
ablation and campaign has — over one load grid.  Two execution modes:

* **serial** (default) — one process; right for the single-CPU benchmark
  environment and for reproducibility layering.
* **process pool** — ``parallel=True`` fans points out over
  ``ProcessPoolExecutor`` workers (simulation points are embarrassingly
  parallel, the classic HPC sweep shape); results are identical because
  every point carries its own seeded RNG streams.

Completed points are memoized in an in-process cache keyed by the full
run recipe, so the Figure 7 comparison reuses the raw runs of Figures 5
and 6 instead of simulating everything twice.  Passing a
:class:`~repro.experiments.runcache.RunCache` additionally persists every
completed point to disk (atomic write-then-rename), so a crashed or
killed campaign resumes from its last finished point.  A single point
(:func:`run_point`) is a one-point sweep, so it meets the memo and the
disk cache the same way.  Passing ``checkpoints`` (a
:class:`~repro.sim.checkpoint.CheckpointPolicy`) checkpoints every point
into its own subdirectory (:func:`point_dir`), so a killed campaign also
resumes its interrupted points mid-run.

Resilience knobs — a single bad point must not abort a campaign:

* ``timeout`` — per-point wall-clock budget in seconds.  The point runs
  in a watchdog subprocess that is terminated on expiry, turning a hung
  simulation into a catchable
  :class:`~repro.errors.PointTimeoutError`.
* ``retries`` — failed points (deadlock, engine invariant violation,
  timeout) are re-attempted up to this many extra times, each attempt
  with a fresh derived seed, since transient pathologies are often
  seed-specific.
* ``record_failures`` — when set, a point that exhausts its attempts is
  filed as a structured :class:`~repro.metrics.series.FailedPoint` on
  ``series.failures`` and the sweep carries on; when unset (default) the
  last error propagates, preserving the historical fail-fast behavior.

Configuration errors always propagate immediately: they would fail every
attempt of every point, so retrying or recording them only hides a bug.

Campaigns are observable: pass ``progress`` a callable and it receives a
:class:`PointProgress` after every point — completion counts, the
point's outcome and the worker engine's cycles/sec (from the run's
:class:`~repro.obs.telemetry.RunTelemetry`, which survives the process
boundary of parallel workers) — so a long sweep can render a live
progress line instead of going dark for minutes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import multiprocessing
import os
import pathlib
import signal
import threading
import time
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from functools import partial

from ..errors import (
    ConfigurationError,
    PointTimeoutError,
    RoutingError,
    SimulationError,
    WorkerDiedError,
)
from ..metrics.series import FailedPoint, LoadSweepSeries
from ..profiles import Profile, get_profile
from ..sim.checkpoint import (
    CheckpointPolicy,
    clear_checkpoints,
    has_resumable,
    install_escalation_handler,
)
from ..sim.config import SimulationConfig
from ..sim.results import RunResult
from ..sim.run import simulate
from .runcache import RunCache

#: in-process memo: cache key -> RunResult
_CACHE: dict[tuple, RunResult] = {}

#: per-point failures the resilient harness retries/records; anything
#: else (ConfigurationError above all) is a campaign-level bug and raises
_RETRYABLE = (SimulationError, RoutingError, PointTimeoutError)

#: seed stride between retry attempts (a prime, to dodge accidental
#: correlation with user seed conventions like 0/1/2/...)
_RESEED_STRIDE = 7919

#: set when a KeyboardInterrupt reached the campaign layer, so worker
#: threads stop retrying points whose watchdogs were just terminated — or
#: by :func:`request_stop`, for an interrupt that could not be raised;
#: polled before every attempt, per consumed point of a pool and per curve
_INTERRUPTED = threading.Event()

#: live watchdog subprocesses, so an interrupt can terminate them all
#: instead of leaving orphans behind blocked pipe reads
_ACTIVE_WATCHDOGS: set = set()

#: supervisor poll granularity (seconds) for the watchdog pipe loop
_POLL_SLICE = 0.25

#: fraction of the hard timeout at which the supervisor sends the
#: worker SIGUSR1 — the soft-timeout escalation: checkpoint + snapshot
_SOFT_TIMEOUT_FRACTION = 0.5

#: worker heartbeat cadence (seconds) through the watchdog pipe
_HEARTBEAT_SECONDS = 1.0

#: beats may be delayed by GIL pressure; only this much silence from a
#: worker (alive or not) is treated as death
_HEARTBEAT_GRACE = 15.0

#: exponential backoff (seconds) before relaunching after a dead worker
_BACKOFF_BASE = 0.25
_BACKOFF_CAP = 2.0


def point_dir(policy: CheckpointPolicy, label: str, key: tuple) -> str:
    """The subdirectory of a campaign's ``policy.directory`` one point
    checkpoints into.

    Named by a digest of the point's key (:func:`_cache_key`: config
    fields plus instrument specs, so chaos and congestion grid cells that
    share a plain config never collide) and the campaign label — the only
    namespace an opaque ``simulate_fn`` campaign has.  It holds the
    point's periodic checkpoints, its manifest and — once the point
    finishes — its result document as a one-entry :class:`RunCache`,
    which is what a later ``--resume`` reloads completed points from even
    where the global cache is bypassed.
    """
    digest = hashlib.sha256(
        json.dumps([label, list(key)], sort_keys=False).encode()
    ).hexdigest()[:32]
    return str(pathlib.Path(policy.directory) / digest)


@dataclasses.dataclass(frozen=True)
class PointProgress:
    """One progress report from a running sweep campaign.

    Attributes:
        done: points finished so far (including this one).
        total: points in the campaign.
        offered: the point's offered load.
        label: the point's config label.
        status: ``"ok"`` (simulated), ``"cached"`` (memo or disk hit) or
            ``"failed"`` (recorded as a :class:`FailedPoint`).
        cycles_per_sec: the worker engine's throughput for this point,
            when the result carries telemetry (cached and failed points
            report ``None``).
        flight: compact digest of the point's flight-recorder timeline
            (``rows``, ``annotations``, ``collapse_onset``) when the run
            was flight-instrumented; ``None`` otherwise.  The full
            document stays on the result's telemetry — this is just
            enough for a live ``--watch`` status line.
    """

    done: int
    total: int
    offered: float
    label: str
    status: str
    cycles_per_sec: float | None
    flight: dict | None = None


def _cache_key(config: SimulationConfig, instruments=()) -> tuple:
    """A point's identity — in the memo, in a :class:`RunCache` and as a
    checkpoint directory: the values of the config's
    :meth:`~repro.sim.config.SimulationConfig.recipe` (every field but a
    model choice at its default) plus the instrument specs it runs under
    (frozen dataclasses, so their ``repr`` is their recipe)."""
    recipe = config.recipe()
    recipe["pattern_kwargs"] = tuple(sorted(config.pattern_kwargs.items()))
    recipe["load"] = round(config.load, 9)
    return (*recipe.values(), *map(repr, instruments))


def clear_cache() -> int:
    """Drop all memoized runs; returns how many were dropped."""
    n = len(_CACHE)
    _CACHE.clear()
    return n


def run_point(
    config: SimulationConfig, use_cache: bool = True, cache: RunCache | None = None
) -> RunResult:
    """Simulate one point: a one-point :func:`run_sweep`, so the memo and
    the disk ``cache`` are consulted and filled exactly as in a campaign."""
    results: list[RunResult] = []
    run_sweep(
        lambda load: config, [config.load], config.label(),
        use_cache=use_cache, cache=cache, on_result=results.append,
    )
    return results[0]


def default_loads(points: int, lo: float = 0.1, hi: float = 1.0) -> list[float]:
    """Evenly spaced offered-load grid, as in the paper's CNF x-axis."""
    if points < 2:
        raise ConfigurationError(f"a sweep needs >= 2 points, got {points}")
    step = (hi - lo) / (points - 1)
    return [round(lo + i * step, 6) for i in range(points)]


# -- resilient point execution --------------------------------------------------


def _reseeded(config: SimulationConfig, attempt: int) -> SimulationConfig:
    """Attempt 0 is the recipe as given; retries derive fresh seeds."""
    if attempt == 0:
        return config
    return dataclasses.replace(config, seed=config.seed + _RESEED_STRIDE * attempt)


def _watchdog_child(
    config: SimulationConfig,
    conn,
    simulate_fn,
    supervised: bool = False,
    heartbeat: float | None = None,
) -> None:
    """Subprocess body: simulate and ship the result (or error) back.

    With ``heartbeat`` set, a daemon thread pulses ``("hb", None)``
    through the pipe so the supervisor can tell a busy worker from a
    dead one; the lock keeps beats and the final payload from
    interleaving (``Connection.send`` is not thread-safe).  When
    ``supervised`` (the point checkpoints itself), SIGUSR1 is routed to
    the checkpoint probe so the supervisor's soft-timeout escalation
    lands as a checkpoint plus a diagnostic snapshot.
    """
    lock = threading.Lock()
    stop = threading.Event()
    if heartbeat:
        def _beat() -> None:
            while not stop.wait(heartbeat):
                try:
                    with lock:
                        conn.send(("hb", None))
                except Exception:  # noqa: BLE001 - parent gone; just stop
                    return

        threading.Thread(target=_beat, daemon=True, name="sweep-heartbeat").start()
    if supervised:
        install_escalation_handler()
    try:
        payload = ("ok", simulate_fn(config))
    except Exception as exc:  # noqa: BLE001 - shipped to the parent verbatim
        payload = ("err", exc)
    stop.set()
    try:
        with lock:
            conn.send(payload)
    except Exception:
        # an unpicklable exotic error: degrade to its text form
        with lock:
            conn.send(("err", SimulationError(f"{type(payload[1]).__name__}: {payload[1]}")))
    finally:
        conn.close()


def _simulate_under_timeout(
    config: SimulationConfig,
    timeout: float,
    simulate_fn=simulate,
    supervised: bool = False,
) -> RunResult:
    """Run one point under a wall-clock watchdog in a subprocess.

    The supervisor polls the worker pipe in short slices, filtering
    heartbeats.  At ``_SOFT_TIMEOUT_FRACTION`` of the budget (with
    checkpointing active) the worker gets SIGUSR1 — the soft timeout:
    it checkpoints and writes a diagnostic snapshot but keeps running.
    At the hard deadline the worker is terminated.

    Raises:
        PointTimeoutError: budget exceeded; the subprocess is terminated,
            so even an engine stuck in an infinite loop is contained.
        WorkerDiedError: the worker vanished (or went silent past the
            heartbeat grace) without reporting a result.
    """
    recv, send = multiprocessing.Pipe(duplex=False)
    proc = multiprocessing.Process(
        target=_watchdog_child,
        args=(config, send, simulate_fn, supervised, _HEARTBEAT_SECONDS),
    )
    proc.start()
    _ACTIVE_WATCHDOGS.add(proc)
    send.close()
    deadline = time.monotonic() + timeout
    soft_at = None
    if supervised and hasattr(signal, "SIGUSR1"):
        soft_at = time.monotonic() + timeout * _SOFT_TIMEOUT_FRACTION
    last_beat = time.monotonic()
    try:
        while True:
            now = time.monotonic()
            if now >= deadline:
                proc.terminate()
                proc.join()
                raise PointTimeoutError(
                    f"point {config.label()} exceeded its {timeout:g}s wall-clock budget"
                )
            wait = min(_POLL_SLICE, max(0.0, deadline - now))
            if soft_at is not None:
                wait = min(wait, max(0.0, soft_at - now))
            if recv.poll(wait):
                try:
                    tag, payload = recv.recv()
                except EOFError:
                    raise WorkerDiedError(
                        f"worker for {config.label()} died without reporting a result"
                    ) from None
                if tag == "hb":
                    last_beat = time.monotonic()
                    continue
                break
            now = time.monotonic()
            if soft_at is not None and now >= soft_at:
                soft_at = None
                with contextlib.suppress(OSError):
                    os.kill(proc.pid, signal.SIGUSR1)
            if now - last_beat > _HEARTBEAT_GRACE:
                proc.terminate()
                proc.join()
                raise WorkerDiedError(
                    f"worker for {config.label()} stopped heartbeating "
                    f"({_HEARTBEAT_GRACE:g}s of silence)"
                )
    finally:
        _ACTIVE_WATCHDOGS.discard(proc)
        recv.close()
        proc.join()
    if tag == "ok":
        return payload
    raise payload


def request_stop() -> None:
    """Ask the running campaign to stop with ``KeyboardInterrupt`` where it
    next polls, no later than the end of the point in flight — for signal
    handlers, whose own raise the interpreter may swallow."""
    _INTERRUPTED.set()


def _point_task(
    config: SimulationConfig,
    retries: int = 0,
    timeout: float | None = None,
    simulate_fn=simulate,
    checkpoints: CheckpointPolicy | None = None,
):
    """Run one point with bounded retry-with-reseed.

    Returns ``("ok", result)`` or ``("fail", FailedPoint, last_error)``;
    non-retryable errors propagate.  Top-level so process pools can pickle
    it.

    ``checkpoints`` is the point's own policy (its directory already the
    point's, :func:`point_dir`).  With it, two deviations from plain
    retry-with-reseed: a retry after a timeout or a dead worker keeps
    the *original* seed when the point directory holds a resumable
    checkpoint (resuming a reseeded recipe would reject the checkpoint
    as stale — the whole point is to not lose the completed cycles),
    and a dead worker earns exponential backoff before the relaunch,
    since worker death usually means host pressure, not a bad seed.
    Deadlocks and engine errors still reseed: resuming a deadlocked
    run's own state would deadlock again.
    """
    seeds: list[int] = []
    last: Exception | None = None
    for attempt in range(retries + 1):
        if _INTERRUPTED.is_set():
            # the campaign is tearing down: a retry here would race the
            # interrupt handler's worker cleanup
            raise KeyboardInterrupt
        if isinstance(last, WorkerDiedError):
            delay = min(_BACKOFF_CAP, _BACKOFF_BASE * (2 ** (attempt - 1)))
            if _INTERRUPTED.wait(delay):
                raise KeyboardInterrupt
        resume = (
            checkpoints is not None
            and isinstance(last, (PointTimeoutError, WorkerDiedError))
            and has_resumable(checkpoints.directory, config)
        )
        cfg = config if resume else _reseeded(config, attempt)
        seeds.append(cfg.seed)
        # the checkpoint policy is threaded through only when supervision
        # asked for one (an arbitrary ``simulate_fn`` need not accept it)
        fn = simulate_fn
        if checkpoints is not None:
            fn = partial(fn, checkpoint=checkpoints)
        try:
            if timeout is None:
                return ("ok", fn(cfg))
            return (
                "ok", _simulate_under_timeout(cfg, timeout, fn, checkpoints is not None)
            )
        except _RETRYABLE as exc:
            last = exc
    failure = FailedPoint(
        offered=config.load,
        error=type(last).__name__,
        message=str(last),
        attempts=len(seeds),
        seeds=tuple(seeds),
    )
    return ("fail", failure, last)


def _terminate_workers(pool) -> None:
    """Best-effort kill of everything a campaign has in flight."""
    for proc in list(_ACTIVE_WATCHDOGS):
        try:
            proc.terminate()
        except Exception:  # noqa: BLE001 - already-dead processes etc.
            pass
    procs = getattr(pool, "_processes", None)  # ProcessPoolExecutor only
    if procs:
        for proc in list(procs.values()):
            try:
                proc.terminate()
            except Exception:  # noqa: BLE001
                pass


def _run_parallel(pending, policies, retries, timeout, max_workers, simulate_fn, consume):
    """Fan points out over a pool, consuming outcomes in ``pending`` order.

    Points are *started* heaviest first — descending offered load, the
    run time of a point growing with it — so the pass does not end with
    one worker idle while another finishes a saturated point.

    On ``KeyboardInterrupt`` the pool's workers and all live watchdog
    subprocesses are terminated, but every point that had *already
    finished* is still flushed through ``consume`` — into the series,
    the disk cache and the ledger — before the interrupt propagates, so
    an interrupted campaign keeps its completed work.
    """
    workers = min(max_workers or os.cpu_count() or 1, len(pending))
    task = partial(_point_task, retries=retries, timeout=timeout, simulate_fn=simulate_fn)
    # with a timeout every task already manages its own watchdog
    # subprocess, so the fan-out layer only needs threads to block on pipes
    pool_cls = ProcessPoolExecutor if timeout is None else ThreadPoolExecutor
    pool = pool_cls(max_workers=workers)
    futures = [None] * len(pending)
    for i in sorted(range(len(pending)), key=lambda i: -pending[i].load):
        futures[i] = pool.submit(task, pending[i], checkpoints=policies[i])
    consumed = 0
    try:
        for config, fut in zip(pending, futures):
            if _INTERRUPTED.is_set():
                raise KeyboardInterrupt
            consume(config, fut.result())
            consumed += 1
    except KeyboardInterrupt:
        # snapshot completion *before* killing workers: termination flips
        # still-running futures into error states we must not flush
        finished = [f.done() and not f.cancelled() for f in futures]
        _INTERRUPTED.set()
        _terminate_workers(pool)
        for idx in range(consumed, len(futures)):
            if finished[idx] and futures[idx].exception() is None:
                try:
                    consume(pending[idx], futures[idx].result())
                except Exception:  # noqa: BLE001 - teardown must not mask the interrupt
                    pass
        raise
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


# -- campaigns ------------------------------------------------------------------


def run_sweep(
    config_factory: Callable[[float], SimulationConfig],
    loads: Sequence[float],
    label: str,
    parallel: bool = False,
    max_workers: int | None = None,
    use_cache: bool = True,
    retries: int = 0,
    timeout: float | None = None,
    record_failures: bool = False,
    cache: RunCache | None = None,
    progress: Callable[[PointProgress], None] | None = None,
    ledger=None,
    simulate_fn=None,
    instruments=(),
    ledger_kind: str | None = None,
    ledger_dedup: bool = True,
    on_result: Callable[[RunResult], None] | None = None,
    checkpoints: CheckpointPolicy | None = None,
) -> LoadSweepSeries:
    """Run one configuration over a load grid.

    Args:
        config_factory: maps an offered load (fraction of capacity) to a
            full run recipe.
        loads: the offered-load grid.
        label: legend label for the resulting series.
        parallel: fan points out over a process pool.
        max_workers: pool size; defaults to ``os.cpu_count()``.
        use_cache: memoize/reuse identical points within this process.
        retries: extra attempts (with fresh derived seeds) per failed point.
        timeout: per-point wall-clock budget in seconds; enforced by a
            terminating watchdog subprocess.
        record_failures: file exhausted points as ``series.failures``
            entries instead of raising (the resilient-campaign mode).
        cache: optional on-disk :class:`RunCache`; completed points are
            persisted atomically and reloaded on the next campaign.
        progress: optional live-telemetry sink; called once per finished
            point with a :class:`PointProgress` (cached hits included).
        ledger: optional :class:`~repro.obs.ledger.Ledger`; every point
            that produced a result (cached hits included) is appended as
            a ``"sweep"`` record, deduplicated by config digest + seed,
            so repeated campaigns accrete one durable results file.
        simulate_fn: optional picklable callable replacing the
            point-simulation function entirely (a module-level function
            or :func:`functools.partial` of one, taking a
            :class:`SimulationConfig`) — the seam tests inject failures
            through.  It is opaque, so the memo and ``cache`` are
            bypassed: nothing says which recipe its results belong to
            beyond the config (``label`` keeps its checkpoint
            directories apart from other campaigns').
        instruments: :class:`~repro.obs.probe.Instrument` specs every
            point runs under — the point function is then
            :func:`~repro.sim.run.simulate` with them bound, and they are
            part of each point's identity (:func:`_cache_key`).  The memo
            and ``cache`` are bypassed: instrumented results carry
            documents no later plain campaign should be handed.  Not
            with ``simulate_fn``, which brings its own.
        ledger_kind: the kind ledger records are filed under (default
            ``"sweep"``).
        ledger_dedup: pass ``dedup=False`` for campaigns whose points
            intentionally share a config digest + seed (e.g. a chaos
            grid varying only the storm parameters).
        on_result: optional callable invoked with every
            :class:`RunResult` added to the series (cached hits
            included), for campaigns that need the raw results beyond
            the series' load points.
        checkpoints: optional campaign checkpoint supervision, a
            :class:`~repro.sim.checkpoint.CheckpointPolicy` for the whole
            campaign.  Every pending point runs under a copy of it whose
            directory is the point's own subdirectory (:func:`point_dir`:
            periodic snapshots + manifest); finished points
            persist their result there as a one-entry :class:`RunCache`
            and drop their snapshots.  A later campaign passing the same
            directory reloads completed points from those per-point
            caches (even when the global cache is bypassed) and restarts
            interrupted points from their newest valid checkpoint.  With
            a ``timeout``, supervision also enables worker heartbeats,
            the SIGUSR1 soft-timeout escalation and
            resume-from-checkpoint retries.  When ``simulate_fn`` is
            set it must accept a ``checkpoint=`` keyword.
    """
    instruments = tuple(instruments)
    if instruments and simulate_fn is not None:
        raise ConfigurationError("pass instruments or simulate_fn, not both")
    if instruments or simulate_fn is not None:
        use_cache = False
        cache = None
    if instruments:
        simulate_fn = partial(simulate, instruments=instruments)
    elif simulate_fn is None:
        simulate_fn = simulate
    _INTERRUPTED.clear()
    kind = ledger_kind or "sweep"
    if not loads:
        raise ConfigurationError("empty load grid")
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    if timeout is not None and timeout <= 0:
        raise ConfigurationError(f"timeout must be positive, got {timeout}")
    configs = [config_factory(load) for load in loads]
    sample = configs[0]
    series = LoadSweepSeries(
        label=label,
        network=sample.network,
        algorithm=sample.algorithm,
        vcs=sample.vcs,
        pattern=sample.pattern,
    )

    total = len(configs)
    done = 0

    def report(config: SimulationConfig, status: str, result=None) -> None:
        nonlocal done
        done += 1
        if progress is None:
            return
        telemetry = result.telemetry if result is not None else None
        flight = None
        if telemetry is not None and telemetry.flight is not None:
            doc = telemetry.flight
            flight = {
                "rows": doc["rows"],
                "annotations": [a["kind"] for a in doc["annotations"]],
                "collapse_onset": doc["collapse_onset"],
            }
        progress(
            PointProgress(
                done=done,
                total=total,
                offered=config.load,
                label=config.label(),
                status=status,
                cycles_per_sec=telemetry.cycles_per_sec if telemetry else None,
                flight=flight,
            )
        )

    def accept(config: SimulationConfig, result: RunResult, status: str) -> None:
        series.add(result)
        if ledger is not None:
            ledger.append_run(result, kind=kind, dedup=ledger_dedup)
        if on_result is not None:
            on_result(result)
        # a reloaded point's telemetry describes the run that produced it
        report(config, status, result if status == "ok" else None)

    def key_of(config: SimulationConfig) -> tuple:
        return _cache_key(config, instruments)

    def policy_of(config: SimulationConfig) -> CheckpointPolicy | None:
        if checkpoints is None:
            return None
        return dataclasses.replace(
            checkpoints, directory=point_dir(checkpoints, label, key_of(config))
        )

    # Classify by cache key — never by config equality: two configs that
    # compare equal are the same *recipe* regardless of which factory call
    # produced them, and key sets keep this O(n).
    pending: list[SimulationConfig] = []
    for config in configs:
        key = key_of(config)
        result = _CACHE.get(key) if use_cache else None
        if result is None and use_cache and cache is not None:
            result = cache.get(key)
            if result is not None:
                _CACHE[key] = result
        if result is None and checkpoints is not None:
            # the point's own one-entry cache — how --resume reloads
            # completed points even where the global cache is bypassed
            result = RunCache(policy_of(config).directory).get(key)
        if result is not None:
            accept(config, result, "cached")
        else:
            pending.append(config)
    if not pending:  # fully cached: no pool, no subprocesses, no work
        return series

    def consume(config: SimulationConfig, outcome) -> None:
        if outcome[0] != "ok":
            if not record_failures:
                raise outcome[2]
            series.add_failure(outcome[1])
            report(config, "failed")
            return
        result = outcome[1]
        if use_cache:
            # a reseeded retry is filed under the recipe that produced it
            produced = _cache_key(result.config)
            _CACHE[produced] = result
            if cache is not None:
                cache.put(produced, result)
        if checkpoints is not None:
            # ... but under the ORIGINAL recipe's key here (it must still
            # satisfy the same grid point on resume); then drop the
            # now-redundant snapshots
            pdir = policy_of(config).directory
            RunCache(pdir).put(key_of(config), result)
            clear_checkpoints(pdir)
        accept(config, result, "ok")

    policies = [policy_of(config) for config in pending]
    if parallel and len(pending) > 1:
        _run_parallel(pending, policies, retries, timeout, max_workers, simulate_fn, consume)
        return series
    for config, policy in zip(pending, policies):
        duplicate = _CACHE.get(key_of(config)) if use_cache else None
        if duplicate is not None:  # the same recipe earlier in this grid
            accept(config, duplicate, "cached")
            continue
        consume(
            config,
            _point_task(
                config,
                retries=retries,
                timeout=timeout,
                simulate_fn=simulate_fn,
                checkpoints=policy,
            ),
        )
    return series


def _at_load(config: SimulationConfig, load: float) -> SimulationConfig:
    return dataclasses.replace(config, load=load)


def run_curves(
    curves,
    loads: Sequence[float] | None = None,
    profile: Profile | None = None,
    ledger_kind: str | None = None,
    ledger_dedup: bool = True,
    **harness,
) -> list[tuple[LoadSweepSeries, tuple[RunResult, ...]]]:
    """Run a table of curves over one offered-load grid — the shape of
    every figure, ablation and campaign of this repo.

    A curve is ``(label, config, instruments)``: ``config`` is the
    *complete* recipe of its points at a placeholder load (arbiter,
    ``collect_latencies``, windows already applied) and ``instruments``
    the specs they run under; the driver only varies ``config.load``.
    ``loads`` defaults to the ``profile``'s grid (``profile`` to
    :func:`~repro.profiles.get_profile`).  ``harness`` reaches every
    curve's :func:`run_sweep` (``parallel``, ``max_workers``,
    ``retries``, ``timeout``, ``record_failures``, ``cache``,
    ``progress``, ``ledger``, ``checkpoints``).

    Returns, per curve, its series and the raw results behind it.
    """
    if loads is None:
        loads = default_loads((profile or get_profile()).sweep_points)
    out = []
    for label, config, instruments in curves:
        results: list[RunResult] = []
        series = run_sweep(
            partial(_at_load, config),
            loads,
            label,
            instruments=instruments,
            ledger_kind=ledger_kind,
            ledger_dedup=ledger_dedup,
            on_result=results.append,
            **harness,
        )
        if _INTERRUPTED.is_set():
            # requested during the curve's last point: the next curve's
            # sweep would clear the flag and run
            raise KeyboardInterrupt
        out.append((series, tuple(results)))
    return out
