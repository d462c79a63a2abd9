"""Append one record to ``BENCH_perf.json``: what a PR measured, as data.

    python tools/bench_record.py RUNS --pr 21 --title "..." --kernel yes

``RUNS/<side>/<workload>/*.json`` hold the last line of standard output of
``python3 benchmarks/perf/run.py`` runs — ``<side>`` is ``parent`` or
``change``, the checkout the run was made in.  A ``--trace 0`` run adds its
five end-to-end values to the side's samples (reported as median and
quartiles, the values kept); each ``--trace 1`` run adds its per-phase seconds.
``--kernel`` says whether the runs had the compiled phases.
"""

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess

ROOT = pathlib.Path(__file__).resolve().parents[1]
PHASES = ("link", "injection", "crossbar", "routing")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs", type=pathlib.Path)
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--title", required=True)
    parser.add_argument("--kernel", choices=("yes", "no"), required=True)
    parser.add_argument("--out", type=pathlib.Path, default=ROOT / "BENCH_perf.json")
    args = parser.parse_args()
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    cpu = [line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo") if line.startswith("model name")]
    workloads: dict = {}
    for path in sorted(args.runs.glob("*/*/*.json")):
        side, workload = path.parts[-3:-1]
        doc = json.loads(path.read_text().splitlines()[-1])
        entry = workloads.setdefault(workload, {}).setdefault(side, {"failed": 0, "end_to_end": {}})
        entry["failed"] += doc["failed"]
        if "sim.link_s" in doc["metrics"]:
            phases = {phase: doc["metrics"][f"sim.{phase}_s"]["value"] for phase in PHASES}
            entry.setdefault("phase_s", []).append(phases)
        else:
            for name, metric in doc["metrics"].items():
                entry["end_to_end"].setdefault(name, {"values": []})["values"].append(metric["value"])
    for sides in workloads.values():
        for entry in sides.values():
            for summary in entry["end_to_end"].values():
                values = summary["values"]
                q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
                summary.update(median=q2, q1=q1, q3=q3)
    records = json.loads(args.out.read_text()) if args.out.exists() else []
    records.append({
        "pr": args.pr,
        "title": args.title,
        "parent_commit": commit.stdout.strip(),
        "host": {"cpu": cpu[0] if cpu else platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "kernel": args.kernel == "yes",
        "workloads": workloads,
    })
    args.out.write_text(json.dumps(records, indent=1) + "\n")


if __name__ == "__main__":
    main()
