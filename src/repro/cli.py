"""Command-line interface: ``repro-net`` / ``python -m repro``.

Subcommands:

* ``run`` — one simulation point, printing the §6 metrics (``--json``
  emits the versioned run document with telemetry instead);
* ``sweep`` — a load sweep for one configuration (one CNF curve), with
  live per-point progress on stderr (``--json`` for machine output);
* ``trace`` — one instrumented run: packet-lifecycle event trace
  (Chrome ``trace_event`` and/or JSONL) plus windowed per-lane counters
  (compose ``--flight`` / ``--statehash`` for the timeline and digest
  chain alongside the trace);
* ``fig5`` / ``fig6`` / ``fig7`` — regenerate a paper figure's series
  (``--plot`` adds terminal scatter plots for fig5/fig6);
* ``tables`` — print Tables 1 and 2 next to the paper's values;
* ``drain`` — batch-drain one full permutation and report the makespan;
* ``faults`` — fault-degradation experiments on either network (add
  ``--transient`` for a mid-run fail/repair window with a throughput
  timeline);
* ``chaos`` — randomized fail-stop fault storms with the reliable
  transport installed: goodput-degradation and retransmit-overhead
  curves over a fault-rate × repair-time × load grid, appended to the
  ledger as ``chaos`` records for the scorecard's reliability panel;
* ``analyze`` — congestion forensics from a ``--ledger`` JSONL file:
  the latency-attribution breakdown, wait-for graph digest (deadlock
  precursors) and link-hotspot ranking of a ``--forensics`` run, with
  optional standalone SVG heatmap/breakdown or HTML output;
* ``report`` — render the HTML reproduction scorecard (paper-reference
  overlays + fidelity scores) from a ``--ledger`` JSONL file;
* ``find-sat`` — bisect the offered load for the saturation point;
* ``dimensions`` — the cube-dimensionality study (§11 outlook);
* ``info`` — topology/normalization facts for a network.

``--cprofile`` (on ``run``, ``sweep`` and ``trace``) wraps the command
in :mod:`cProfile`; note ``--profile`` keeps its historical meaning of
the simulation *effort* profile (fast/default/full).  ``--ledger`` (on
``run``, ``sweep``, ``trace`` and ``faults``) appends every completed
run's document to an append-only JSONL metrics ledger that ``report``
renders into a scorecard.  ``--forensics`` (on ``run`` and ``sweep``)
attaches the congestion-forensics tier — per-packet latency
attribution, wait-for graph sampling, link hotspots — whose document
rides on the run's telemetry into the ledger for ``analyze``.
``--flight`` (on ``run``, ``sweep``, ``trace``, ``chaos`` and
``congestion``) attaches the flight recorder (:mod:`repro.obs.flight`):
a bounded multi-layer time series — engine rates, link occupancy,
transport retransmissions, congestion windows — riding on
``telemetry.flight`` into the run document and ledger for the
scorecard's dynamics panel.  ``--watch`` adds a live in-place status
line on stderr and ``--events PATH`` streams samples/annotations (or
per-point campaign records) as JSONL; both imply ``--flight``.
``--statehash`` (on ``run`` and ``trace``) attaches the state-digest
audit trail (:mod:`repro.obs.statehash`): a bounded chain of layered
Merkle-style state roots on ``telemetry.statehash``, the input of the
scorecard's audit panel; ``--audit`` additionally runs the engine
invariant audit at every digest boundary (and implies ``--statehash``).
``--checkpoint DIR`` (on ``run``, ``sweep``, ``chaos`` and
``congestion``) writes digest-verified engine checkpoints
(:mod:`repro.sim.checkpoint`) every ``--checkpoint-every`` cycles;
``--resume DIR`` finishes an interrupted run or campaign from
the newest valid checkpoint, reloading already-completed campaign
points from their per-point caches.  Campaigns exit 130 on Ctrl-C and
143 on SIGTERM, flushing completed points either way.

Examples::

    repro-net run --network cube --algorithm duato --load 0.5 --json
    repro-net run --network cube --load 0.5 --statehash --json > a.json
    repro-net run --network cube --pattern transpose --load 0.7 \\
        --forensics --ledger runs.jsonl
    repro-net analyze --ledger runs.jsonl --heatmap hotspots.svg
    repro-net sweep --pattern uniform --ledger runs.jsonl
    repro-net report --ledger runs.jsonl --out scorecard.html
    repro-net trace --network tree --vcs 2 --pattern transpose --load 0.8
    repro-net fig6 --pattern complement --profile fast --plot
    repro-net drain --network tree --pattern bitrev
    repro-net tables
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import signal
import sys
import threading
from functools import partial

from .errors import ConfigurationError, ReproError
from .experiments.degradation import degradation_experiment, transient_experiment
from .experiments.dimension import dimension_study
from .experiments.drain import drain_permutation
from .experiments.fig5 import fig5_experiment
from .experiments.fig6 import fig6_experiment
from .experiments.fig7 import fig7_experiment
from .experiments.report import (
    render_ascii_plot,
    render_cnf,
    render_comparison,
    render_delay_table,
)
from .experiments.search import find_saturation
from .experiments.sweep import request_stop, run_curves
from .experiments.tables import table1_rows, table2_rows
from .profiles import get_profile
from .sim.checkpoint import CheckpointPolicy
from .sim.config import ARBITER_POLICIES
from .sim.run import cube_config, simulate_post_mortem, tree_config
from .timing.normalization import cube_scaling, equal_cost_pairs, tree_scaling
from .topology.cube import KAryNCube
from .topology.tree import KAryNTree
from .traffic.patterns import PATTERNS


def _instruments(args, streams: bool = True) -> list:
    """The instrument specs the command line asked for, in install order.

    One row per tier flag — a subcommand that does not take a flag simply
    never sets it, so every simulating command builds its list here and
    any tier combines with any other.  ``streams`` off (campaigns) keeps
    the per-run ``--watch`` callback and ``--events`` file out of the
    flight spec: there they are per-point progress records, and a live
    stream neither pickles to pool workers nor rides inside a checkpoint.
    """
    tiers = []
    if getattr(args, "forensics", False):
        from .obs.forensics import Forensics

        tiers.append(Forensics(getattr(args, "sample_every", 200)))
    interval = getattr(args, "flight", None)
    # --watch and --events imply --flight
    if interval is not None or getattr(args, "watch", False) or getattr(args, "events", None):
        from .obs.flight import Flight, FlightConfig

        watch = streams and args.watch
        tiers.append(
            Flight(
                FlightConfig(interval_cycles=interval) if interval else FlightConfig(),
                on_sample=_watch_sampler() if watch else None,
                events=args.events if streams else None,
            )
        )
    interval = getattr(args, "statehash", None)
    audit = getattr(args, "audit", False)
    if interval is not None or audit:
        from .obs.statehash import StateDigestConfig, StateHash

        tiers.append(
            StateHash(
                StateDigestConfig(interval_cycles=interval, audit=audit)
                if interval
                else StateDigestConfig(audit=audit)
            )
        )
    return tiers


def _watch_sampler(stream=None):
    """An ``on_sample`` callback rendering one in-place status line."""
    stream = stream or sys.stderr

    def on_sample(row) -> None:
        span = row["span"] or 1
        parts = [
            f"t={row['cycle'] + 1:>8,}",
            f"inj {row['injected'] / span:6.2f}",
            f"dlv {row['delivered'] / span:6.2f} fl/cyc",
            f"in-flight {row['in_flight']:>6,}",
            f"backlog {row['backlog']:>8,}",
        ]
        if "retx" in row:
            parts.append(f"retx {row['retx']:>5}")
        if "cwnd_mean" in row:
            parts.append(f"cwnd {row['cwnd_mean']:5.2f}")
            parts.append(f"held {row['held']:>5}")
        print("\r  " + "  ".join(parts) + "\x1b[K", end="", file=stream, flush=True)

    return on_sample


def _campaign_events(path):
    """A per-point JSONL event writer for campaign --events, or None."""
    if path is None:
        return None
    fh = open(path, "w", encoding="utf-8")

    def write(p) -> None:
        record = {
            "type": "point",
            "done": p.done,
            "total": p.total,
            "label": p.label,
            "offered": p.offered,
            "status": p.status,
            "flight": getattr(p, "flight", None),
        }
        fh.write(json.dumps(record, sort_keys=True) + "\n")
        fh.flush()

    write.close = fh.close
    return write


def _campaign_progress(args):
    """Compose the progress callback for a campaign command.

    Honors ``--watch`` (in-place status line instead of one line per
    point) and ``--events`` (per-point JSONL records, flight digest
    included).  Returns ``(progress, close)``.
    """
    printer = _progress_printer(inplace=getattr(args, "watch", False))
    events = _campaign_events(getattr(args, "events", None))
    if events is None:
        return printer, lambda: None

    def progress(p) -> None:
        printer(p)
        events(p)

    return progress, events.close


def _checkpoints(args):
    """The CheckpointPolicy requested by --checkpoint/--resume, or None
    (a campaign checkpoints each point in a subdirectory of it)."""
    directory = getattr(args, "checkpoint", None)
    resume = getattr(args, "resume", None)
    if resume is not None:
        if (
            directory is not None
            and pathlib.Path(directory).resolve() != pathlib.Path(resume).resolve()
        ):
            raise ConfigurationError(
                "--checkpoint and --resume name different directories"
            )
        if not pathlib.Path(resume).is_dir():
            raise ConfigurationError(
                f"--resume directory {resume!r} does not exist"
            )
        directory = resume
    if directory is None:
        return None
    return CheckpointPolicy(directory=directory, interval_cycles=args.checkpoint_every)


class _SigtermInterrupt(KeyboardInterrupt):
    """SIGTERM, promoted to the KeyboardInterrupt teardown path."""


@contextlib.contextmanager
def _sigterm_as_interrupt():
    """Give SIGTERM the same grace as Ctrl-C for the enclosed campaign.

    Campaigns already checkpoint in-flight points and flush completed
    ones on KeyboardInterrupt; a supervisor's TERM (systemd, Slurm, CI
    runners) deserves the identical teardown instead of an abrupt die.
    Yields an event that is set once the signal has arrived.  The previous
    handler is restored on exit; off the main thread this is a no-op
    (signal handlers can only be installed there).
    """
    terminated = threading.Event()
    if threading.current_thread() is not threading.main_thread() or not hasattr(
        signal, "SIGTERM"
    ):
        yield terminated
        return

    def raise_interrupt(signum, frame):
        # record before raising: CPython swallows an exception raised while
        # a weakref/GC callback or a finalizer runs ("Exception ignored in
        # ..."; the run cache's weakref callbacks, say), and the campaign
        # must still stop — where the sweep next polls its flag, no later
        # than the end of the point in flight
        terminated.set()
        request_stop()
        raise _SigtermInterrupt

    previous = signal.signal(signal.SIGTERM, raise_interrupt)
    try:
        yield terminated
    finally:
        signal.signal(signal.SIGTERM, previous)


def _guarded(campaign, flushed_to: str):
    """Run ``campaign()`` with SIGTERM promoted to the Ctrl-C teardown.

    Returns ``(0, value)``, or ``(130, None)`` on Ctrl-C and ``(143,
    None)`` on SIGTERM — completed points were flushed either way.
    """
    with _sigterm_as_interrupt() as terminated:
        try:
            value = campaign()
            if not terminated.is_set():
                return 0, value
        except KeyboardInterrupt:
            pass
    term = terminated.is_set()
    print(
        f"{'terminated' if term else 'interrupted'}: completed points "
        f"were flushed to the {flushed_to}",
        file=sys.stderr,
    )
    return (143 if term else 130), None


def _transport_override(args, profile):
    """The profile-scaled TransportConfig with the command line's timer
    and retry overrides applied, or None when it asked for none."""
    asked = {
        name: getattr(args, name, None)
        for name in ("base_timeout", "backoff", "max_retries")
    }
    if all(value is None for value in asked.values()):
        return None
    import dataclasses

    from .experiments.chaos import default_transport

    asked["base_timeout"] = asked["base_timeout"] or None  # 0 = the default
    return dataclasses.replace(
        default_transport(profile),
        **{name: value for name, value in asked.items() if value is not None},
    )


def _open_ledger(args):
    """The Ledger named by ``--ledger``, or None."""
    path = getattr(args, "ledger", None)
    if path is None:
        return None
    from .obs.ledger import Ledger

    return Ledger(path)


#: the recipe options, named as the SimulationConfig fields they set
_RECIPE = ("k", "n", "algorithm", "vcs", "pattern", "seed", "arbiter", "load")


def _make_config(args, network: str | None = None, **fields):
    """The SimulationConfig of a command line — every command's one recipe.

    The paper network named by ``network`` (default ``--network``), built
    by :func:`tree_config` / :func:`cube_config` (which own the §5
    defaults) from every recipe option the command takes and was given,
    over the ``--profile``'s windows; ``fields`` go on top, a ``None``
    there leaving that field at its paper default.
    """
    recipe = {name: getattr(args, name, None) for name in _RECIPE}
    recipe.update(fields)
    build = tree_config if (network or args.network) == "tree" else cube_config
    return build(
        **get_profile(args.profile).windows,
        **{name: value for name, value in recipe.items() if value is not None},
    )


def _with_cprofile(args, body):
    """Run ``body`` under cProfile when ``--cprofile`` was given.

    ``--cprofile`` with no value prints the top cumulative functions to
    stderr; with a path it dumps a :mod:`pstats` file for ``snakeviz``
    and friends.  (The effort profile stays on ``--profile``.)
    """
    target = getattr(args, "cprofile", None)
    if target is None:
        return body()
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return body()
    finally:
        profiler.disable()
        if target == "-":
            pstats.Stats(profiler, stream=sys.stderr).sort_stats(
                "cumulative"
            ).print_stats(25)
        else:
            profiler.dump_stats(target)
            print(f"cProfile stats written to {target}", file=sys.stderr)


def _print_result(result) -> None:
    print(result.summary())
    if result.telemetry is not None:
        print(result.telemetry.summary())
        print(result.telemetry.phase_summary())


def _print_tiers(result) -> None:
    """The text digest of every tier document riding on the result."""
    telemetry = result.telemetry
    if telemetry is None:
        return
    if telemetry.forensics is not None:
        from .obs.forensics import describe_forensics

        print(describe_forensics(telemetry.forensics))
    if telemetry.flight is not None:
        from .obs.flight import describe_flight

        print(describe_flight(telemetry.flight))
    if telemetry.statehash is not None:
        from .obs.statehash import describe_statehash

        print(describe_statehash(telemetry.statehash))


def cmd_run(args) -> int:
    def body() -> int:
        config = _make_config(args, collect_latencies=args.latencies or args.forensics)
        result, _engine, deadlock = simulate_post_mortem(
            config, _instruments(args), checkpoint=_checkpoints(args)
        )
        if args.watch:
            print(file=sys.stderr)  # finish the in-place status line
        if deadlock is not None and not args.forensics:
            raise deadlock  # only the forensics tier promises a post-mortem
        ledger = _open_ledger(args)
        if ledger is not None:
            ledger.append_run(result, kind="forensics" if args.forensics else "run")
        if args.json:
            from .metrics.io import run_result_to_dict

            doc = run_result_to_dict(result)
            if args.forensics:
                doc["deadlock"] = str(deadlock) if deadlock is not None else None
            print(json.dumps(doc, indent=1))
            return 1 if deadlock is not None else 0
        _print_result(result)
        pct = result.latency_percentiles()
        if pct is not None:
            from .obs.percentiles import format_percentiles

            print(format_percentiles(pct))
        _print_tiers(result)
        if deadlock is not None:
            print(f"error: {deadlock}", file=sys.stderr)
            return 1
        return 0

    return _with_cprofile(args, body)


def _progress_printer(stream=None, inplace=False):
    """Live per-point sweep progress (stderr by default).

    ``inplace`` rewrites one status line (``--watch``) instead of
    printing one line per point; either way a flight digest rides along
    when the point was flight-instrumented.
    """
    stream = stream or sys.stderr

    def report(p) -> None:
        rate = f"{p.cycles_per_sec:,.0f} cyc/s" if p.cycles_per_sec else p.status
        line = f"  [{p.done}/{p.total}] load {p.offered:.3f} {p.status:<6} {rate}"
        digest = getattr(p, "flight", None)
        if digest:
            annotations = ",".join(digest["annotations"]) or "-"
            line += f"  flight {digest['rows']} rows [{annotations}]"
        if inplace:
            end = "\n" if p.done >= p.total else ""
            print("\r" + line + "\x1b[K", end=end, file=stream, flush=True)
        else:
            print(line, file=stream)

    return report


def cmd_sweep(args) -> int:
    def body() -> int:
        telemetry: list = []

        campaign_progress, close_events = _campaign_progress(args)

        def progress(p) -> None:
            campaign_progress(p)
            if p.cycles_per_sec is not None:
                telemetry.append(p.cycles_per_sec)

        try:
            curve = (
                args.pattern,
                _make_config(args),
                _instruments(args, streams=False),
            )
            rc, curves = _guarded(
                lambda: run_curves(
                    [curve],
                    profile=get_profile(args.profile),
                    progress=progress,
                    ledger=_open_ledger(args),
                    ledger_kind="forensics" if args.forensics else None,
                    checkpoints=_checkpoints(args),
                ),
                "cache/ledger",
            )
        finally:
            close_events()
        if rc:
            return rc
        ((series, _),) = curves
        from .metrics.saturation import saturation_point

        if args.json:
            from .metrics.io import sweep_document

            print(json.dumps(sweep_document(series, telemetry), indent=1))
            return 0

        from .experiments.report import render_table

        rows = [
            [p.offered, p.offered_measured, p.accepted, p.latency_cycles, p.delivered_packets]
            for p in series.points
        ]
        print(
            render_table(
                ["offered", "measured", "accepted", "latency_cyc", "packets"],
                rows,
                title=f"{args.network} sweep, {args.pattern} traffic",
            )
        )
        print(f"saturation: {saturation_point(series):.3f} of capacity")
        return 0

    return _with_cprofile(args, body)


def cmd_trace(args) -> int:
    def body() -> int:
        from .obs import MultiProbe, TraceProbe, WindowedCounterProbe
        from .obs.forensics import hotspots

        config = _make_config(args)
        tracer = TraceProbe(max_events=args.max_events)
        counters = WindowedCounterProbe(window_cycles=args.window)
        # survives a deadlock: the trace up to the wedge is exactly what
        # one wants to see
        result, engine, deadlocked = simulate_post_mortem(
            config, _instruments(args), probe=MultiProbe([tracer, counters])
        )
        if args.watch:
            print(file=sys.stderr)

        ledger = _open_ledger(args)
        if ledger is not None:
            ledger.append_run(result, kind="trace")

        out = pathlib.Path(args.out)
        written = []
        if args.format in ("chrome", "both"):
            tracer.write_chrome_trace(out)
            written.append(str(out))
        if args.format in ("jsonl", "both"):
            jsonl = out.with_suffix(".jsonl") if args.format == "both" else out
            tracer.write_jsonl(jsonl)
            written.append(str(jsonl))
        if args.counters:
            pathlib.Path(args.counters).write_text(
                json.dumps({"window_cycles": args.window, "windows": counters.to_dicts()})
            )
            written.append(args.counters)

        if args.json:
            from .metrics.io import run_result_to_dict

            doc = run_result_to_dict(result)
            doc["trace"] = {
                "events": len(tracer.events),
                "truncated": tracer.truncated,
                "counter_windows": len(counters.windows),
                "written": written,
                "deadlock": str(deadlocked) if deadlocked is not None else None,
            }
            print(json.dumps(doc, indent=1))
            return 1 if deadlocked is not None else 0

        _print_result(result)
        print(
            f"trace: {len(tracer.events)} events"
            + (" (truncated)" if tracer.truncated else "")
            + f", {len(counters.windows)} counter windows -> {', '.join(written)}"
        )
        _print_tiers(result)
        hot = hotspots(engine, top=3)
        if hot["top"]:
            print("most blocked channel directions (switch, port):")
            for rec in hot["top"]:
                print(
                    f"  sw{rec['switch']} port{rec['port']}: {rec['blocked_cycles']} "
                    f"blocked cycles, {rec['flits']} flits over "
                    f"{hot['measured_cycles']} measured cycles"
                )
        if deadlocked is not None:
            print(f"error: {deadlocked}", file=sys.stderr)
            return 1
        return 0

    return _with_cprofile(args, body)


def cmd_cnf(args) -> int:
    """``fig5`` / ``fig6``: one panel of a paper figure's CNF curves."""
    experiment = {"fig5": fig5_experiment, "fig6": fig6_experiment}[args.command]
    cnf = experiment(args.pattern, get_profile(args.profile), seed=args.seed)
    print(render_cnf(cnf))
    if args.plot:
        print()
        print(render_ascii_plot(cnf, "accepted"))
        print()
        print(render_ascii_plot(cnf, "latency"))
    return 0


def cmd_fig7(args) -> int:
    print(render_comparison(fig7_experiment(args.pattern, get_profile(args.profile))))
    return 0


def cmd_drain(args) -> int:
    result = drain_permutation(_make_config(args))
    print(f"pattern:         {args.pattern}")
    print(f"packets drained: {result.messages}")
    print(f"makespan:        {result.makespan_cycles} cycles")
    print(f"avg latency:     {result.avg_latency_cycles:.1f} cycles")
    print(f"max latency:     {result.max_latency_cycles} cycles")
    print(f"throughput:      {result.aggregate_flits_per_cycle:.2f} flits/cycle aggregate")
    return 0


def cmd_find_sat(args) -> int:
    estimate = find_saturation(
        lambda load: _make_config(args, load=load),
        resolution=args.resolution,
    )
    print(
        f"saturation: {estimate.load:.3f} of capacity "
        f"(bracket [{estimate.lo:.3f}, {estimate.hi:.3f}], "
        f"{estimate.evaluations} simulations)"
    )
    return 0


def cmd_dimensions(args) -> int:
    from .experiments.report import render_table

    rows = dimension_study(
        algorithm=args.algorithm,
        pattern=args.pattern,
        profile=get_profile(args.profile),
    )
    print(
        render_table(
            ["shape", "flit B", "wires", "T_clock ns", "sat bits/ns", "latency ns"],
            [
                [
                    r.variant.label,
                    r.variant.flit_bytes,
                    r.variant.wire.value,
                    round(r.variant.clock_ns, 2),
                    round(r.saturation_bits_per_ns, 1),
                    round(r.low_load_latency_ns, 1),
                ]
                for r in rows
            ],
            title="Cube dimensionality under physical constraints (N=256)",
        )
    )
    return 0


def cmd_faults(args) -> int:
    from .experiments.report import render_table

    config = _make_config(args)
    ledger = _open_ledger(args)
    if args.transient:
        result, row = transient_experiment(
            config, args.fraction, args.fail_at, args.repair_at, args.fault_seed,
            ledger=ledger,
        )
        print(result.summary())
        print(f"faults: {row.faults} channel directions failed mid-run, then repaired")
        if result.throughput_timeline:
            peak = max(result.throughput_timeline) or 1
            print("delivered flits per interval (fault window dips, repair recovers):")
            for i, flits in enumerate(result.throughput_timeline):
                bar = "#" * round(40 * flits / peak)
                print(f"  t{i:<3d} {flits:>7d} {bar}")
        return 0
    try:
        fractions = tuple(float(f) for f in args.fractions.split(",") if f.strip())
    except ValueError:
        raise ConfigurationError(f"bad --fractions {args.fractions!r}") from None
    rows = degradation_experiment(config, fractions, args.fault_seed, ledger=ledger)
    print(
        render_table(
            ["fault frac", "failed chans", "accepted", "latency_cyc", "escape frac"],
            [
                [
                    r.fraction,
                    r.faults,
                    round(r.accepted, 4),
                    None if r.latency_cycles is None else round(r.latency_cycles, 1),
                    None if r.escape_fraction is None else round(r.escape_fraction, 3),
                ]
                for r in rows
            ],
            title=f"{args.network} fault degradation, load {args.load:g}",
        )
    )
    return 0


def _chaos(args):
    """The ``chaos`` row of the campaign table (see :func:`cmd_campaign`)."""
    from .experiments.chaos import chaos_campaign, degradation_rows

    try:
        rates = tuple(float(f) for f in args.rates.split(",") if f.strip())
        repairs = tuple(int(f) for f in args.repairs.split(",") if f.strip())
    except ValueError:
        raise ConfigurationError(
            f"bad --rates {args.rates!r} or --repairs {args.repairs!r}"
        ) from None
    if args.network == "both":  # --algorithm is ignored
        configs = [_make_config(args, net, algorithm=None) for net in ("tree", "cube")]
    else:
        configs = [_make_config(args)]
    return (
        partial(chaos_campaign, fault_rates=rates, repair_grid=repairs,
                storm_seed=args.storm_seed),
        configs,
        lambda config, campaign: [
            {"network": config.network, **row} for row in degradation_rows(campaign)
        ],
        (
            ("network", lambda r: r["network"]),
            ("fault rate", lambda r: r["fault_rate"]),
            ("repair", lambda r: r["repair_cycles"] or "perm"),
            ("goodput", lambda r: round(r["goodput_fraction"], 4)),
            ("retx ovh", lambda r: round(r["retransmit_overhead"], 4)),
            ("dropped", lambda r: r["dropped"]),
            ("gave up", lambda r: r["given_up"]),
            ("failures", lambda r: r["failures"]),
        ),
        "fail-stop chaos campaign (load-averaged per fault rate)",
        "goodput",
    )


def _congestion(args):
    """The ``congestion`` row of the campaign table."""
    from .experiments.congestion import collapse_rows, congestion_campaign

    return (
        partial(
            congestion_campaign,
            modes={"both": (False, True), "open": (False,), "closed": (True,)}[args.mode],
            max_factor=args.max_factor, arbiter_closed=args.arbiter_closed,
        ),
        [_make_config(args)],
        lambda config, campaign: collapse_rows(campaign),
        (
            ("mode", lambda r: r["mode"]),
            ("arbiter", lambda r: r["arbiter"]),
            ("load", lambda r: round(r["load"], 3)),
            ("x sat", lambda r: round(r["factor"], 2)),
            ("goodput", lambda r: round(r["goodput_fraction"], 4)),
            ("p99 lat", lambda r: r["p99_latency"]),
            ("retx ovh", lambda r: round(r["retransmit_overhead"], 4)),
            ("gave up", lambda r: r["given_up"]),
        ),
        "overload campaign: open vs closed loop past saturation",
        "collapse",
    )


def cmd_campaign(args) -> int:
    """``chaos`` and ``congestion``: one campaign per config of the
    command's table row — campaign (its grid keywords bound), configs, row
    flattener, ``(heading, cell)`` columns, table title and the scorecard
    panel its ledger records feed — under the shared harness options,
    then the rows as a table or JSON."""
    from .experiments.report import render_table

    campaign_fn, configs, flatten, columns, title, panel = {
        "chaos": _chaos, "congestion": _congestion
    }[args.command](args)
    profile = get_profile(args.profile)
    ledger = _open_ledger(args)
    rows = []
    progress, close_events = _campaign_progress(args)
    try:
        harness = dict(
            profile=profile,
            transport=_transport_override(args, profile),
            instruments=_instruments(args, streams=False),
            parallel=args.parallel,
            max_workers=args.workers,
            retries=args.retries,
            timeout=args.timeout,
            progress=progress,
            ledger=ledger,
            checkpoints=_checkpoints(args),
        )
        for config in configs:
            print(f"{args.command} campaign: {config.network}", file=sys.stderr)
            rc, campaign = _guarded(lambda: campaign_fn(config, **harness), "ledger")
            if rc:
                return rc
            rows += flatten(config, campaign)
    finally:
        close_events()
    if args.json:
        print(json.dumps({"rows": rows}, indent=1))
        return 0
    print(
        render_table(
            [heading for heading, _ in columns],
            [[cell(row) for _, cell in columns] for row in rows],
            title=title,
        )
    )
    if ledger is not None:
        print(
            f"{args.command} records appended to {args.ledger}; render the "
            f"{panel} panel with: repro-net report --ledger {args.ledger} "
            "--out scorecard.html",
            file=sys.stderr,
        )
    return 0


def cmd_analyze(args) -> int:
    from .obs.ledger import Ledger

    matches = [
        rec
        for rec in Ledger(args.ledger).query(
            network=args.network, pattern=args.pattern, algorithm=args.algorithm
        )
        if (rec["run"]["telemetry"] or {}).get("forensics")
    ]
    if not matches:
        raise ConfigurationError(
            f"ledger {args.ledger} holds no forensics-instrumented runs "
            "matching the filters (record one with run/sweep --forensics)"
        )
    try:
        rec = matches[args.index]
    except IndexError:
        raise ConfigurationError(
            f"--index {args.index} out of range: {len(matches)} matching record(s)"
        ) from None
    doc = rec["run"]["telemetry"]["forensics"]
    label = (
        f"{rec.get('network', '?')} k={rec.get('k', '?')} n={rec.get('n', '?')} "
        f"{rec.get('algorithm', '?')} {rec.get('vcs', '?')}vc "
        f"{rec.get('pattern', '?')} load {rec.get('load', 0):g}"
    )

    if args.json:
        print(json.dumps({"record": label, "forensics": doc}, indent=1))
    else:
        if len(matches) > 1:
            which = args.index if args.index >= 0 else len(matches) + args.index
            print(
                f"{len(matches)} forensics record(s) in {args.ledger}; "
                f"analyzing [{which}] (select with --index)"
            )
        print(label)
        from .obs.forensics import describe_forensics

        print(describe_forensics(doc))

    written = []
    if args.heatmap or args.breakdown or args.out:
        from .obs.heatmap import (
            hotspot_heatmap_svg,
            latency_breakdown_svg,
            page,
            standalone_svg,
        )

        if args.heatmap:
            svg = hotspot_heatmap_svg(doc["hotspots"], metric=args.metric)
            pathlib.Path(args.heatmap).write_text(standalone_svg(svg))
            written.append(args.heatmap)
        if args.breakdown:
            svg = latency_breakdown_svg(doc["attribution"])
            pathlib.Path(args.breakdown).write_text(standalone_svg(svg))
            written.append(args.breakdown)
        if args.out:
            # the page's stylesheet covers the classes the figures use
            figures = [
                latency_breakdown_svg(doc["attribution"]),
                hotspot_heatmap_svg(doc["hotspots"], metric=args.metric),
            ]
            pathlib.Path(args.out).write_text(page(f"Congestion forensics — {label}", figures))
            written.append(args.out)
    if written:
        print(f"wrote {', '.join(written)}", file=sys.stderr)
    return 0


def cmd_report(args) -> int:
    from .metrics.io import run_result_from_dict
    from .obs.ledger import Ledger
    from .obs.report import partition_results, write_scorecard

    results = [
        run_result_from_dict(rec["run"])
        for rec in Ledger(args.ledger).records()
        if args.include_faults or rec["kind"] != "faults"
    ]
    if not results:
        raise ConfigurationError(
            f"ledger {args.ledger} holds no scorable runs "
            "(fault records are excluded unless --include-faults)"
        )
    figures = write_scorecard(results, args.out, title=args.title)
    _, chaos, congestion = partition_results(results)
    extras = f" + {len(chaos)} chaos run(s)" if chaos else ""
    if congestion:
        extras += f" + {len(congestion)} overload run(s)"
    print(
        f"scorecard: {len(results)} runs -> {len(figures)} figure(s)"
        f"{extras} -> {args.out}"
    )
    for fig in figures:
        if fig.score is None:
            print(f"  {fig.title}: no paper reference (unscored)")
        else:
            print(f"  {fig.title}: fidelity {fig.score:.0%}")
            for label, score in sorted(fig.fidelity.items()):
                ref = fig.refs[label]
                print(
                    f"    {label}: saturation {fig.saturation[label]:.3f} "
                    f"vs {ref.figure} {ref.saturation:.3f} -> {score:.0%}"
                )
    return 0


def cmd_tables(args) -> int:
    print(render_delay_table(table1_rows(), "Table 1 — 16-ary 2-cube routing delays (ns)"))
    print()
    print(render_delay_table(table2_rows(), "Table 2 — 4-ary 4-tree routing delays (ns)"))
    return 0


def cmd_info(args) -> int:
    if args.network == "tree":
        topo = KAryNTree(args.k or 4, args.n or 4)
        scaling = tree_scaling(topo.k, topo.n)
    else:
        topo = KAryNCube(args.k or 16, args.n or 2)
        scaling = cube_scaling(topo.k, topo.n)
    print(topo.describe())
    print(f"flit width:        {scaling.flit_bytes} bytes")
    print(f"packet length:     {scaling.packet_flits} flits (64 bytes)")
    print(f"node capacity:     {scaling.capacity_flits_per_cycle} flits/cycle (§5)")
    print("equal-cost pairs (§5):")
    for entry in equal_cost_pairs(max_nodes=4000):
        print(f"  N={entry['nodes']}: tree {entry['tree']}, cubes {entry['cubes']}")
    return 0


# -- the command table ---------------------------------------------------------
#
# Every option is declared once, in OPTIONS; a subcommand is a row of
# _commands() naming the options it takes, in --help order.  A row entry is
# an option name or ``(name, overrides)``, the overrides replacing keyword
# arguments of the declaration (a campaign's own ``--seed`` default, a
# command-specific help text).


def _opt(flag, type=None, default=None, help=None, **extra):
    """One declared option: its flag and ``add_argument`` keywords."""
    if type is not None:
        extra["type"] = type
    return flag, dict(default=default, help=help, **extra)


def _switch(flag, help=None):
    return flag, dict(action="store_true", help=help)


OPTIONS = {
    # the simulated recipe
    "network": _opt("--network", default="tree", choices=("tree", "cube")),
    "k": _opt("--k", int, help="radix (default: paper network)"),
    "n": _opt("--n", int, help="dimension/levels"),
    "algorithm": _opt(
        "--algorithm", help="tree_adaptive (tree) or dor/duato (cube); default per network"
    ),
    "vcs": _opt("--vcs", int, 4),
    "pattern": _opt("--pattern", default="uniform", choices=sorted(PATTERNS)),
    "seed": _opt("--seed", int, 1),
    "profile": _opt("--profile", help="fast, default or full"),
    "arbiter": _opt(
        "--arbiter", default="round_robin", choices=ARBITER_POLICIES,
        help="lane arbitration policy (age = oldest packet first)",
    ),
    "load": _opt("--load", float, 0.5, "fraction of capacity"),
    # instrument tiers
    "latencies": _switch(
        "--latencies", "collect per-packet latency samples and print exact percentiles"
    ),
    "forensics": _switch("--forensics"),
    "sample_every": _opt(
        "--sample-every", int, 200, "wait-for graph sampling period in cycles (with --forensics)"
    ),
    "flight": _opt(
        "--flight", int, nargs="?", const=0, metavar="CYCLES",
        help="attach the flight recorder (bounded multi-layer time series on "
        "telemetry.flight); optional value overrides the sampling "
        "interval in cycles (default 128)",
    ),
    "watch": _switch(
        "--watch",
        "live in-place status line on stderr while the run/campaign "
        "progresses (implies --flight)",
    ),
    "events": _opt(
        "--events", metavar="JSONL",
        help="stream flight samples/annotations to this JSONL file as they "
        "happen (implies --flight); campaigns stream one point record "
        "per completed point",
    ),
    "statehash": _opt(
        "--statehash", int, nargs="?", const=0, metavar="CYCLES",
        help="attach the state-digest audit trail (bounded Merkle-style "
        "digest chain on telemetry.statehash); optional value overrides "
        "the digest interval in cycles (default 128)",
    ),
    "audit": _switch(
        "--audit",
        "run the engine invariant audit at every digest boundary "
        "(implies --statehash); violations then surface within one "
        "interval of their origin instead of at drain time",
    ),
    # machine output, ledger, CPU profiling
    "json": _switch(
        "--json", "emit a versioned machine-readable JSON document (with telemetry)"
    ),
    "ledger": _opt(
        "--ledger", metavar="JSONL",
        help="append every completed run's versioned document to this JSONL "
        "metrics ledger (deduplicated by config digest + seed)",
    ),
    "cprofile": _opt(
        "--cprofile", nargs="?", const="-", metavar="STATS",
        help="run under cProfile; with no value print the top functions to "
        "stderr, with a path dump pstats there (--profile remains the "
        "simulation effort profile)",
    ),
    "out": _opt("--out"),
    # checkpoint / resume
    "checkpoint": _opt(
        "--checkpoint", metavar="DIR",
        help="write digest-verified engine checkpoints into this directory "
        "(periodic snapshots + manifest); an interrupted run/campaign "
        "can later be finished with --resume DIR",
    ),
    "checkpoint_every": _opt(
        "--checkpoint-every", int, 1000, "cycles between periodic checkpoints (default 1000)",
        metavar="CYCLES",
    ),
    "resume": _opt(
        "--resume", metavar="DIR",
        help="resume from an existing checkpoint directory: completed "
        "campaign points reload from their per-point caches, "
        "interrupted ones restart from their newest valid checkpoint "
        "(corrupt or stale checkpoints are discarded with a recorded "
        "finding); keeps checkpointing into the same directory",
    ),
    # trace
    "format": _opt(
        "--format", default="chrome", choices=("chrome", "jsonl", "both"),
        help="chrome://tracing document, JSONL event stream, or both",
    ),
    "window": _opt("--window", int, 200, "counter window length in cycles"),
    "counters": _opt("--counters", help="also write the windowed counters to this JSON path"),
    "max_events": _opt(
        "--max-events", int, 1_000_000, "trace event cap (the trace is marked truncated past it)"
    ),
    "plot": _switch("--plot", "add terminal scatter plots"),
    # faults
    "fractions": _opt(
        "--fractions", default="0,0.05,0.1,0.2",
        help="comma-separated fault fractions of the channel population",
    ),
    "fault_seed": _opt("--fault-seed", int, 5, "fault placement seed"),
    "transient": _switch(
        "--transient", "single run with a mid-run fault window (fail at T, repair at T')"
    ),
    "fraction": _opt("--fraction", float, 0.1, "fault fraction for --transient"),
    "fail_at": _opt("--fail-at", int, help="fault strike cycle"),
    "repair_at": _opt("--repair-at", int, help="fault repair cycle"),
    # campaigns (chaos, congestion)
    "storm_seed": _opt("--storm-seed", int, 5, "fault draw + strike seed"),
    "rates": _opt(
        "--rates", default="0,0.05,0.1,0.2",
        help="comma-separated fault rates (fraction of the channel population)",
    ),
    "repairs": _opt(
        "--repairs", default="0",
        help="comma-separated per-fault down times in cycles (0 = permanent)",
    ),
    "mode": _opt(
        "--mode", default="both", choices=("both", "open", "closed"),
        help="which control modes to sweep (default: both, for the contrast)",
    ),
    "max_factor": _opt(
        "--max-factor", float, 2.0, "top of the offered-load axis in saturation multiples"
    ),
    "arbiter_closed": _opt(
        "--arbiter-closed", default="round_robin", choices=ARBITER_POLICIES,
        help="lane arbitration policy for closed-loop runs (age improves the "
        "median past saturation but inflates the tail; default: round_robin)",
    ),
    "base_timeout": _opt(
        "--base-timeout", int,
        help="transport retransmission timer in cycles (default: profile-scaled)",
    ),
    "backoff": _opt(
        "--backoff", float,
        help="timeout backoff multiplier per retry (1.0 reproduces a naive "
        "fixed-timer transport, the classic collapse regime; default 2.0)",
    ),
    "max_retries": _opt(
        "--max-retries", int, help="retransmissions per message before giving up (default 4)"
    ),
    "parallel": _switch("--parallel", "fan points over a pool"),
    "workers": _opt("--workers", int, help="pool size"),
    "retries": _opt("--retries", int, 0, "attempts per failed point"),
    "timeout": _opt(
        "--timeout", float, help="per-point wall-clock budget in seconds (watchdog subprocess)"
    ),
    # analyze
    "index": _opt(
        "--index", int, -1, "which matching record to analyze (default -1: the most recent)"
    ),
    "heatmap": _opt(
        "--heatmap", metavar="SVG", help="write the link-hotspot heatmap as a standalone SVG file"
    ),
    "breakdown": _opt(
        "--breakdown", metavar="SVG",
        help="write the latency-breakdown panel as a standalone SVG file",
    ),
    "metric": _opt(
        "--metric", default="blocked_cycles", choices=("blocked_cycles", "flits"),
        help="heatmap cell metric (congestion vs utilization)",
    ),
    # report
    "title": _opt("--title", default="Reproduction scorecard"),
    "include_faults": _switch(
        "--include-faults", "also plot runs recorded by fault experiments (degraded points)"
    ),
    "resolution": _opt("--resolution", float, 0.02),
}

_SHAPE = ("network", "k", "n")
_COMMON = (*_SHAPE, "algorithm", "vcs", "pattern", "seed", "profile", "arbiter")
_FLIGHT = ("flight", "watch", "events")
_STATEHASH = ("statehash", "audit")
_OBSERVABILITY = ("json", "ledger", "cprofile")
_CHECKPOINT = ("checkpoint", "checkpoint_every", "resume")
_POOL = ("parallel", "workers", "retries", "timeout")
_FIGURE = (
    ("pattern", dict(choices=("uniform", "complement", "transpose", "bitrev"))),
    ("profile", dict(help=None)),
)
_ROWS_JSON = ("json", dict(help="emit the rows as JSON"))


def _commands() -> tuple:
    """``(name, help, handler, options)`` per subcommand, in listing order."""
    return (
        ("run", "simulate one offered-load point", cmd_run, (
            *_COMMON, "load", "latencies",
            ("forensics", dict(
                help="attach the congestion-forensics tier (latency attribution, "
                "wait-for graph sampling, link hotspots); implies --latencies "
                "and survives a deadlock with a post-mortem")),
            "sample_every", *_FLIGHT, *_STATEHASH, *_OBSERVABILITY, *_CHECKPOINT,
        )),
        ("sweep", "run a load sweep for one configuration", cmd_sweep, (
            *_COMMON,
            ("forensics", dict(
                help="instrument every point with the congestion-forensics tier; "
                "ledger records are filed as kind=forensics for analyze")),
            *_FLIGHT, *_OBSERVABILITY, *_CHECKPOINT,
        )),
        ("trace", "one instrumented run: event trace + windowed lane counters", cmd_trace, (
            *_COMMON, "load",
            ("out", dict(
                default="trace.json",
                help="trace output path (Chrome trace_event JSON; .jsonl for jsonl)")),
            "format", "window", "counters", "max_events",
            *_FLIGHT, *_STATEHASH, *_OBSERVABILITY,
        )),
        ("fig5", "fat-tree CNF curves (Figure 5)", cmd_cnf,
         (*_FIGURE, ("seed", dict(default=11)), "plot")),
        ("fig6", "cube CNF curves (Figure 6)", cmd_cnf,
         (*_FIGURE, ("seed", dict(default=13)), "plot")),
        ("fig7", "absolute comparison (Figure 7)", cmd_fig7, _FIGURE),
        ("drain", "batch-drain one full permutation", cmd_drain, _COMMON),
        ("faults", "fault-degradation experiments (both networks)", cmd_faults, (
            *_COMMON, ("load", dict(default=1.0)), "fractions", "fault_seed", "transient",
            "fraction", "fail_at", "repair_at",
            ("ledger", dict(
                help="append every fault run's document to this JSONL metrics ledger")),
        )),
        ("chaos", "fail-stop fault storms under reliable transport (goodput curves)",
         cmd_campaign, (
            ("network", dict(
                choices=("tree", "cube", "both"), default="both",
                help="paper network(s) to storm (default: both, for the scorecard panel)")),
            "k", "n",
            ("algorithm", dict(
                help="adaptive algorithm override (lane-level storms need one); "
                "ignored with --network both")),
            "vcs", ("seed", dict(default=47, help="traffic seed")), "storm_seed", "profile",
            "rates", "repairs", "base_timeout", "max_retries", *_POOL, _ROWS_JSON, *_FLIGHT,
            ("ledger", dict(
                help="append every chaos run as a kind=chaos record (report renders "
                "the goodput-degradation panel from them)")),
            *_CHECKPOINT,
        )),
        ("congestion",
         "overload campaign past saturation: open vs closed loop (collapse curves)",
         cmd_campaign, (
            *_SHAPE,
            ("algorithm", dict(help="routing algorithm override; default per network")),
            "vcs", "pattern", ("seed", dict(default=29, help="traffic seed")), "profile",
            "mode", "max_factor", "arbiter_closed", "base_timeout", "backoff", "max_retries",
            *_POOL, _ROWS_JSON, *_FLIGHT,
            ("ledger", dict(
                help="append every overload run as a kind=congestion record (report "
                "renders the collapse panel from them)")),
            *_CHECKPOINT,
        )),
        ("analyze", "congestion forensics (attribution/wait-for/hotspots) from a ledger",
         cmd_analyze, (
            ("ledger", dict(required=True, help="ledger to analyze")),
            ("network", dict(default=None, help="filter records")),
            ("pattern", dict(default=None, help="filter records")),
            ("algorithm", dict(help="filter records")),
            "index", "heatmap", "breakdown",
            ("out", dict(metavar="HTML", help="write an HTML page with both panels")),
            "metric",
            ("json", dict(help="print the raw forensics document instead of the text digest")),
        )),
        ("report", "render the HTML reproduction scorecard from a metrics ledger", cmd_report, (
            ("ledger", dict(required=True, help="ledger to score")),
            ("out", dict(default="scorecard.html", help="output HTML path")),
            "title", "include_faults",
        )),
        ("find-sat", "bisect the saturation point", cmd_find_sat, (*_COMMON, "resolution")),
        ("dimensions", "cube dimensionality study (§11)", cmd_dimensions, (
            ("pattern", dict(choices=("uniform", "complement"))),
            ("algorithm", dict(choices=("dor", "duato"), default="duato", help=None)),
            ("profile", dict(help=None)),
        )),
        ("tables", "print Tables 1 and 2 (Chien cost model)", cmd_tables, ()),
        ("info", "topology and normalization facts", cmd_info,
         ("network", ("k", dict(help=None)), ("n", dict(help=None)))),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-net",
        description=(
            "Reproduction of 'Network Performance under Physical Constraints' "
            "(Petrini & Vanneschi, ICPP 1997)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_, handler, options in _commands():
        p = sub.add_parser(name, help=help_)
        for entry in options:
            option, overrides = entry if isinstance(entry, tuple) else (entry, {})
            flag, declared = OPTIONS[option]
            p.add_argument(flag, **{**declared, **overrides})
        p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
