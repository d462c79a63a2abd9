"""The whole matrix: every workload, interleaved repeats, medians.

    PYTHONPATH=src python -m benchmarks.perf [--workload W] [--seed S] [--traced] [--out F]
    PYTHONPATH=src python -m benchmarks.perf --aa          # two sets of the same code
    PYTHONPATH=src python -m benchmarks.perf --spread 10   # steadiness over ten seeds
    PYTHONPATH=src python -m benchmarks.perf --record-golden

Each measurement is one ``run.py`` process (so peak memory is per run
and every run starts cold); repeats go round the workloads A B C D
A B C D so a slow minute on the host lands on all of them alike.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from . import run

RESULTS = run.HERE / "results"


def environment() -> dict:
    """Where the numbers were taken; warns when the host is already busy."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    env = {
        "nproc": os.cpu_count() or 1,
        "cpu": model,
        "python": platform.python_version(),
        "load_1min": os.getloadavg()[0],
    }
    if env["load_1min"] > env["nproc"] / 2:
        print(
            f"warning: 1-min load average {env['load_1min']:.2f} exceeds half of "
            f"{env['nproc']} cores; timings will be noisy",
            file=sys.stderr,
        )
    return env


def run_once(workload: str, seed: int, args, trace: bool) -> dict:
    """One ``run.py`` process; returns its result object."""
    command = [
        sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(int(trace)), "--scale", args.scale,
    ]
    proc = subprocess.run(command, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} failed:\n{proc.stdout}\n{proc.stderr}")
    *report, last = proc.stdout.splitlines()
    print("\n".join(line for line in report if "FAILED" in line or "operations" in line), flush=True)
    return json.loads(last)


def run_set(workloads: list[str], seeds: list[int], args, trace: bool = False) -> dict:
    """``len(seeds)`` rounds over the workloads, interleaved; returns
    ``{workload: {"attempted", "failed", "metrics": {name: {...}}}}``
    with median, quartiles, n and the raw values per metric."""
    docs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            docs[workload].append(run_once(workload, seed, args, trace))
    summary = {}
    for workload, runs in docs.items():
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = run.quartiles(values)
            metrics[name] = {
                "unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                "n": len(values), "values": values,
            }
        summary[workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    return summary


def print_set(summary: dict) -> None:
    for workload, doc in summary.items():
        for name, m in doc["metrics"].items():
            print(
                f"{workload:<14} {name:<34} {m['median']:>16.6g} {m['unit']:<9} "
                f"quartiles {m['q1']:.5g}..{m['q3']:.5g}  n={m['n']}"
            )
        print(f"{workload:<14} operations: {doc['attempted']} attempted, {doc['failed']} failed")


def document(env: dict, args, seeds, end_to_end: dict, per_layer: dict | None = None) -> dict:
    return {
        "env": env, "seeds": seeds, "scale": args.scale, "seconds": args.seconds,
        "end_to_end": end_to_end, "per_layer": per_layer,
    }


def worse_by(metric: dict, a: float, b: float) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    change = (b - a) / a if a else (0.0 if b == a else float("inf"))
    return change if metric["better"] == "lower" else -change


def compare_sets(spec: dict, a: dict, b: dict) -> bool:
    """Print both medians, the relative difference and the bound for every
    (end-to-end metric, workload); True when all agree within the bound."""
    ok = True
    print(f"{'workload':<14} {'metric':<20} {'set A':>14} {'set B':>14} {'|diff|':>9} {'bound':>7}")
    for workload in a:
        for metric in spec["end_to_end"]:
            ma = a[workload]["metrics"][metric["name"]]["median"]
            mb = b[workload]["metrics"][metric["name"]]["median"]
            diff = abs(worse_by(metric, ma, mb))
            within = diff <= metric["bound"]
            ok &= within
            print(
                f"{workload:<14} {metric['name']:<20} {ma:>14.6g} {mb:>14.6g} "
                f"{diff:>9.4f} {metric['bound']:>7.2f}{'' if within else '  EXCEEDED'}"
            )
    return ok


def print_spread(spec: dict, summary: dict) -> bool:
    """Interquartile range over median per (end-to-end metric, workload),
    against a third of the metric's bound (``setup_s`` is exempt)."""
    ok = True
    print(f"{'workload':<14} {'metric':<20} {'median':>14} {'IQR/median':>11} {'bound/3':>8}")
    for workload, doc in summary.items():
        for metric in spec["end_to_end"]:
            m = doc["metrics"][metric["name"]]
            spread = (m["q3"] - m["q1"]) / m["median"]
            steady = metric["name"] == "setup_s" or spread <= metric["bound"] / 3
            ok &= steady
            print(
                f"{workload:<14} {metric['name']:<20} {m['median']:>14.6g} {spread:>11.4f} "
                f"{metric['bound'] / 3:>8.4f}{'' if steady else '  UNSTEADY'}"
            )
    return ok


def record_golden(workloads: list[str], args) -> None:
    """Write the canonical run-document digests of every run of every
    workload at ``--seed`` (in process: the digests are not in run.py's
    printed result)."""
    digests = {w: run.measure(w, args.seed, 0, False, args.scale)["digests"] for w in workloads}
    doc = {"seed": args.seed, "scale": args.scale, "python": platform.python_version(), "digests": digests}
    run.GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"recorded {sum(map(len, digests.values()))} digests in {run.GOLDEN}")


def main(argv=None) -> int:
    spec = run.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names, help="default: all four")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--repeats", type=int, default=1, help="runs per workload, interleaved")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--scale", choices=("paper", "small"), default="paper")
    parser.add_argument("--traced", action="store_true", help="add one --trace 1 run per workload")
    parser.add_argument("--out", help="write the summary document here")
    parser.add_argument("--aa", action="store_true", help="two sets back to back; fail beyond the bounds")
    parser.add_argument("--spread", type=int, metavar="N", help="one run at each of N seeds; report IQR/median")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    workloads = args.workload or names
    if args.record_golden:
        record_golden(workloads, args)
        return 0
    env = environment()
    print(f"environment: {env}")
    seeds = [args.seed] * args.repeats
    if args.spread:
        seeds = list(range(args.seed, args.seed + args.spread))
    summary = run_set(workloads, seeds, args)
    print_set(summary)
    ok = all(doc["failed"] == 0 for doc in summary.values())
    per_layer = None
    if args.traced:
        per_layer = run_set(workloads, [args.seed], args, trace=True)
        print_set(per_layer)
        ok &= all(doc["failed"] == 0 for doc in per_layer.values())
        ok &= all(doc["metrics"]["sim.golden_mismatches"]["median"] == 0 for doc in per_layer.values())
        print(f"spans and self-time tables: {run.OUT}")
    if args.spread:
        ok &= print_spread(spec, summary)
    if args.aa:
        second = run_set(workloads, seeds, args)
        RESULTS.mkdir(exist_ok=True)
        for name, doc in (("seed-a.json", summary), ("seed-b.json", second)):
            (RESULTS / name).write_text(json.dumps(document(env, args, seeds, doc), indent=1) + "\n")
        ok &= all(doc["failed"] == 0 for doc in second.values())
        ok &= compare_sets(spec, summary, second)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(document(env, args, seeds, summary, per_layer), fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
