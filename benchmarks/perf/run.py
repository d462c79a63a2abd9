"""One benchmark run: one workload, one seed, tracing on or off.

    python3 benchmarks/perf/run.py --workload paper_light --seed 11 --seconds 28 --trace 0

Prints every metric by name with its unit and, as the last line of
standard output, the result object ``BENCHMARK.json`` documents.

``--trace 0`` repeats the workload's pass — at least :data:`MIN_PASSES`
times, then until ``--seconds`` are used — with a fresh-interpreter
set-up sample before each of the first passes, and reports the
end-to-end metrics.  ``--trace 1`` runs one plain pass, one pass under
the detailed tracer and the fixed layer probes, reports the per-layer
metrics and writes the span file and self-time table under
``benchmarks/perf/out/``.

Host time and simulated time are never mixed: ``sim_*`` end-to-end
metrics and every per-layer count are simulated and repeat exactly for a
seed; everything in seconds, MiB or cycles *per second* is host time.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import tempfile
import time

# cold, clean and repeatable: no .pyc lands in the checkout, and every
# fresh interpreter (set-up samples, pool workers) compiles the same way
sys.dont_write_bytecode = True

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"

#: passes a ``--trace 0`` run makes at the very least
MIN_PASSES = 3

#: CPython's default limit (1000) is too low to pickle a congested
#: 16-ary 2-cube: ``save_checkpoint`` recursed ~2200 frames deep on one of
#: ten seeds tried.  Raised for the harness process so the chaos workload
#: never fails on it; the program bug is recorded in the README.
RECURSION_LIMIT = 10000


def _bootstrap() -> None:
    """Make ``repro`` and this package importable, whatever the cwd."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"error: {ROOT / 'src' / 'repro'} not found: the benchmark needs the program's source")
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def load_spec() -> dict:
    """``BENCHMARK.json``: the one list of metric names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# -- set-up ---------------------------------------------------------------------


def setup_child(workload: str, seed: int, scale_name: str) -> None:
    """What a fresh interpreter pays before the first cycle: import the
    CLI, build every engine of one pass (and start the pool, where the
    workload has one).  Prints the split; the parent times the whole."""
    start = time.perf_counter()
    import repro.cli  # noqa: F401 - the import is the measurement

    imported = time.perf_counter()
    from repro import KAryNCube, KAryNTree, build_engine

    from benchmarks.perf.workloads import SCALES, WORKERS, WORKLOADS

    spec = WORKLOADS[workload]
    topology_s = build_s = 0.0
    for config in spec.make_inputs(seed, SCALES[scale_name]).configs:
        t0 = time.perf_counter()
        (KAryNTree if config.network == "tree" else KAryNCube)(config.k, config.n)
        t1 = time.perf_counter()
        build_engine(config)
        topology_s += t1 - t0
        build_s += time.perf_counter() - t1
    if spec.pool:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=WORKERS) as pool:
            list(pool.map(abs, range(WORKERS)))
    print(json.dumps({
        "cli.import_ms": (imported - start) * 1e3,
        "topology.build_ms": topology_s * 1e3,
        "sim.build_engine_ms": build_s * 1e3,
    }))


def measure_setup(workload: str, seed: int, scale_name: str, samples: int) -> list[dict]:
    """Time ``samples`` fresh-interpreter set-ups; each dict carries the
    child's split plus ``setup_s``, the wall time the parent saw."""
    command = [
        sys.executable, str(HERE / "run.py"), "--setup-child",
        "--workload", workload, "--seed", str(seed), "--scale", scale_name,
    ]
    out = []
    for _ in range(samples):
        start = time.perf_counter()
        proc = subprocess.run(command, capture_output=True, text=True, timeout=150)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        out.append({**json.loads(proc.stdout.splitlines()[-1]), "setup_s": wall})
    return out


# -- one run --------------------------------------------------------------------


def _units(tracer, passes: int) -> dict[str, list[float]]:
    """``{unit name: [seconds in each pass]}``."""
    units: dict[str, list[float]] = {}
    for pass_id in range(1, passes + 1):
        for name, seconds in tracer.unit_seconds(pass_id).items():
            units.setdefault(name, []).append(seconds)
    return units


def _speed(outcomes, units: dict[str, list[float]], slice_cycles: int) -> float:
    """Simulated cycles per host second, from the fastest observed times.

    On this kind of host slowdowns are one-sided, last seconds to minutes
    and reach +40 %, patchy at the 10-100 ms scale; the median of 4-6
    passes moves with them, the minimum much less (README, *Noise*).

    Where the harness holds the engines (``paper_*``) the steady-state
    slices of a run are near-identical work repeated ~100 times over the
    passes, so the fastest one is clean even in a bad minute: the speed is
    the measurement windows' cycles at each run's fastest-slice rate.
    Elsewhere it is the pass's cycles over its units' fastest times.
    """
    first = outcomes[0]
    if first.slices:
        fastest = {u: min(min(o.slices[u]) for o in outcomes if u in o.slices) for u in first.slices}
        count = {u: len(slices) for u, slices in first.slices.items()}
        return slice_cycles * sum(count.values()) / sum(count[u] * fastest[u] for u in count)
    return first.cycles / sum(min(v) for v in units.values())


def _run_wall(outcome) -> float:
    return sum(r.telemetry.wall_clock_s for r in outcome.results if r is not None)


def _golden_counts(workload: str, seed: int, scale_name: str, digests: list[str]) -> tuple[int, int]:
    """(runs compared, runs whose digest differs) against ``golden.json``,
    which holds one seed at one scale; other runs compare nothing."""
    if not GOLDEN.exists():
        return 0, 0
    golden = json.loads(GOLDEN.read_text())
    if (golden["seed"], golden["scale"]) != (seed, scale_name):
        return 0, 0
    expected = golden["digests"].get(workload, [])
    mismatches = sum(a != b for a, b in zip(digests, expected)) + abs(len(digests) - len(expected))
    return len(expected), mismatches


def _end_to_end(samples: dict, outcomes, speed: float) -> dict:
    """The five end-to-end values of a ``--trace 0`` run; both host times
    are fastest-observed (see :func:`_speed`)."""
    done = [r for r in outcomes[0].results if r is not None]
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return {
        "setup_s": min(samples["setup_s"]),
        "sim_cycles_per_s": speed,
        "peak_rss_mb": usage / 1024,
        "sim_accepted_frac": statistics.fmean(r.accepted_fraction for r in done),
        "sim_latency_cycles": statistics.fmean(r.avg_latency_cycles for r in done),
    }


def _per_layer(setups, tracer, first, detailed, traced, points: int, workers: int) -> dict:
    """The pass-derived per-layer values of a ``--trace 1`` run: ``first``
    is the plain pass (spans in ``tracer``), ``traced`` the one under the
    ``detailed`` tracer.  A layer the workload bypasses reads 0."""
    from repro.obs.telemetry import PHASE_NAMES

    phases = dict.fromkeys(PHASE_NAMES, 0.0)
    traced_done = [r for r in traced.results if r is not None]
    for r in traced_done:
        for phase, seconds in r.telemetry.phase_seconds.items():
            phases[phase] += seconds
    counts = traced.counts
    pooled_s, serial_s = (
        sum(v for k, v in t.unit_seconds(1).items() if k.startswith("unit.sweep-"))
        for t in (tracer, detailed)
    )
    resume_tail_s = sum(v for k, v in detailed.unit_seconds(1).items() if k.endswith("-resume"))
    return {
        **{k: statistics.median(s[k] for s in setups) for k in setups[0] if k != "setup_s"},
        **{f"sim.{phase}_s": seconds for phase, seconds in phases.items()},
        "sim.flit_hops": counts.flit_hops,
        "sim.header_arrivals": counts.header_arrivals,
        "sim.blocked_direction_events": counts.blocked_direction_events,
        "sim.idle_slot_frac": 1.0 - counts.flit_hops / counts.slots,
        "sim.ns_per_flit_hop": _run_wall(traced) * 1e9 / counts.flit_hops,
        "sim.routing_ns_per_header": phases["routing"] * 1e9 / counts.header_arrivals,
        "sim.peak_in_flight": max(r.telemetry.peak_in_flight for r in traced_done),
        "traffic.retransmits": traced.facts.get("retransmits", 0),
        "traffic.dropped_packets": traced.facts.get("dropped_packets", 0),
        "faults.strikes": traced.facts.get("strikes", 0),
        "checkpoint.resume_tail_s": resume_tail_s,
        "sweep.pooled_s": pooled_s,
        "sweep.serial_s": serial_s,
        "sweep.pool_efficiency": _run_wall(first) / (workers * pooled_s) if pooled_s else 0.0,
        "sweep.overhead_s": workers * pooled_s - _run_wall(first) if pooled_s else 0.0,
        "sweep.points_per_s": points / pooled_s if pooled_s else 0.0,
        "sweep.failed_points": first.facts.get("failed_points", 0),
        "runcache.warm_rerun_s": first.facts.get("warm_rerun_s", 0.0),
        "report.sat_fidelity_err": first.facts.get("sat_fidelity_err", 0.0),
        "trace.overhead_frac": _run_wall(traced) / _run_wall(first) - 1.0,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, scale_name: str = "paper") -> dict:
    """Run the benchmark once; returns the result document (the contract
    object plus ``digests``, ``samples`` and ``notes`` for the matrix)."""
    _bootstrap()
    from benchmarks.perf.layers import layer_probes
    from benchmarks.perf.tracing import Tracer
    from benchmarks.perf.workloads import SCALES, SLICE_CYCLES, WORKERS, WORKLOADS, Checks, digest

    sys.setrecursionlimit(max(sys.getrecursionlimit(), RECURSION_LIMIT))
    spec, scale = WORKLOADS[workload], SCALES[scale_name]
    inputs = spec.make_inputs(seed, scale)
    checks = Checks()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{workload}-") as work:
        # everything the program writes to "the temp dir" stays in the checkout
        os.environ["TMPDIR"] = tempfile.tempdir = work
        try:
            tracer = Tracer(detailed=False)
            setups, outcomes = [], []
            started = time.perf_counter()
            while True:
                # set-up samples go between the passes, not back to back, so
                # one slow stretch of the host cannot cover them all
                if len(setups) < scale.setup_samples:
                    setups += measure_setup(workload, seed, scale_name, 1)
                with tracer.pass_span(workload):
                    outcomes.append(
                        spec.run_pass(inputs, tracer, checks, tempfile.mkdtemp(dir=work), verify=not outcomes)
                    )
                walls = [s["end"] - s["start"] for s in tracer.spans if s["parent"] is None]
                spent = time.perf_counter() - started
                if trace or (len(outcomes) >= MIN_PASSES and spent + statistics.median(walls) > seconds):
                    break
            setups += measure_setup(workload, seed, scale_name, scale.setup_samples - len(setups))
            first = outcomes[0]
            digests = [digest(r) if r is not None else "" for r in first.results]
            for later in outcomes[1:]:
                for config, a, b in zip(inputs.configs, digests, later.results):
                    checks.expect(
                        b is not None and digest(b) == a,
                        f"a repeat of {config.label()} differs from the first pass",
                    )

            if trace:
                detailed = Tracer(detailed=True)
                with detailed.pass_span(workload):
                    traced = spec.run_pass(inputs, detailed, checks, tempfile.mkdtemp(dir=work), verify=False)
                with detailed.span("pass.layer_probes"):
                    probes = layer_probes(seed, scale, detailed, work)
        finally:
            tempfile.tempdir = None
            os.environ.pop("TMPDIR", None)

    samples = {"pass_s": walls, "setup_s": [s["setup_s"] for s in setups]}
    if trace:
        checked, mismatches = _golden_counts(workload, seed, scale_name, digests)
        values = {
            **_per_layer(setups, tracer, first, detailed, traced, len(inputs.runs), WORKERS),
            **probes,
            "sim.golden_checked": checked,
            "sim.golden_mismatches": mismatches,
        }
        declared = load_spec()["per_layer"]
        stem = f"{workload}-seed{seed}"
        (OUT / f"trace-{stem}.json").write_text(detailed.chrome_trace())
        (OUT / f"selftime-{stem}.txt").write_text(detailed.self_time_table() + "\n")
    else:
        speed = _speed(outcomes, _units(tracer, len(outcomes)), SLICE_CYCLES)
        values = _end_to_end(samples, outcomes, speed)
        declared = load_spec()["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing or len(values) != len(declared):
        raise RuntimeError(
            f"BENCHMARK.json and the harness disagree: missing {missing}, "
            f"undeclared {sorted(set(values) - {m['name'] for m in declared})}"
        )
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
        "digests": digests,
        "samples": samples,
        "notes": checks.notes,
    }


def render(workload: str, doc: dict) -> str:
    """Every metric by name with its unit, one per line."""
    lines = []
    for name, m in doc["metrics"].items():
        lines.append(f"{workload:<14} {name:<34} {m['value']:>16.6g} {m['unit']}")
    for what in ("setup_s", "pass_s"):
        q1, q2, q3 = quartiles(doc["samples"][what])
        lines.append(
            f"{workload:<14} {what} samples: fastest {min(doc['samples'][what]):.4g}, median {q2:.4g}, "
            f"quartiles {q1:.4g}..{q3:.4g}, n={len(doc['samples'][what])}"
        )
    lines.append(f"{workload:<14} operations: {doc['attempted']} attempted, {doc['failed']} failed")
    lines.extend(f"{workload:<14} FAILED: {note}" for note in doc["notes"])
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("paper", "small"), default="paper")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _bootstrap()
    if args.setup_child:
        setup_child(args.workload, args.seed, args.scale)
        return 0
    nproc = os.cpu_count() or 1
    if os.getloadavg()[0] > nproc / 2:
        print(
            f"warning: 1-min load average {os.getloadavg()[0]:.2f} exceeds half of "
            f"{nproc} cores; timings will be noisy",
            file=sys.stderr,
        )
    doc = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(render(args.workload, doc))
    print(json.dumps({k: doc[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
