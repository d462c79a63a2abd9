"""Probe-overhead smoke benchmark: cycles/sec with probes off vs on.

The engine binds each probe event to the probes that override it, so a
run without a probe pays one ``is not None`` test per event site and a
:class:`~repro.obs.NullProbe`, which overrides nothing, pays the same.
This script measures these operating points on a short uniform-traffic
run:

* **off** — no probe attached (the bulk-sweep configuration);
* **null** — ``NullProbe`` attached: no event has a consumer, so this is
  the *off* loop again and the two should read alike;
* **traced** — ``TraceProbe`` + ``WindowedCounterProbe``: the fully
  instrumented ``repro trace`` configuration (also writes the Chrome
  trace, which CI uploads as an artifact);
* **forensics** — the congestion-forensics tier (latency attribution +
  wait-for graph sampling + link hotspots): the ``--forensics``
  configuration, so its overhead is on record in ``BENCH_obs.json`` and
  gated by ``repro-net bench --compare`` alongside the rest;
* **reliable** — the source-side reliable transport installed on every
  node (sequence numbers, ACK/timeout timer wheel, wrapped sources)
  with zero faults: the protocol's fault-free overhead, gated so the
  ARQ machinery never silently taxes lossless runs;
* **congestion** — the closed congestion loop on top of the transport
  (hot-link marker probe, per-destination AIMD windows, hold-queue
  pump): the ``repro congestion --mode closed`` configuration, gated so
  the loop's bookkeeping never silently regresses;
* **flight** — the flight recorder at its default interval: the
  ``--flight``/``--watch`` configuration.  Its *marginal* cost is gated
  against the null probe (``--flight-threshold``, default 10%);
* **statehash** — the state-digest audit trail at its default interval:
  the ``--statehash`` configuration.  Gated against the null probe the
  same way (``--statehash-threshold``, default 10%), isolating the
  per-interval hashing sweep over every lane, node and RNG;
* **checkpoint** — the digest-verified checkpoint probe at its default
  interval: the ``--checkpoint`` configuration.  Gated against the null
  probe the same way (``--checkpoint-threshold``, default 10%),
  isolating the periodic engine pickle + atomic write + manifest
  update.

It exits nonzero when the *null* overhead relative to *off* exceeds
``--threshold``, or when the *flight*/*statehash* overhead relative to
*null* exceeds its per-probe threshold.  The thresholds are deliberately
generous for a 16-node, 0.1 s sample; what each tier costs at 256 nodes
is measured by ``benchmarks/perf`` (``obs.*_cps``).

Results are also written as a versioned bench baseline document
(``BENCH_obs.json`` at the repo root by default) in the same schema as
``repro-net bench``, so the perf-regression gate can replay exactly
these recipes later::

    PYTHONPATH=src python benchmarks/obs_overhead.py --repeats 3
    PYTHONPATH=src python -m repro bench --compare BENCH_obs.json
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.obs import MultiProbe, TraceProbe, WindowedCounterProbe
from repro.obs.bench import bench_document, measure_entry, save_baseline
from repro.sim.run import cube_config, simulate, tree_config

#: committed reference baseline, next to README at the repo root
DEFAULT_OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_obs.json"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--network", choices=("tree", "cube"), default="cube")
    ap.add_argument("--load", type=float, default=0.3)
    ap.add_argument("--cycles", type=int, default=2000,
                    help="total cycles per run (warm-up is one tenth)")
    ap.add_argument("--repeats", type=int, default=3,
                    help="runs per operating point; best-of is reported")
    ap.add_argument("--threshold", type=float, default=0.75,
                    help="max tolerated null-probe overhead fraction")
    ap.add_argument("--flight-threshold", type=float, default=0.10,
                    help="max tolerated flight-recorder overhead relative"
                         " to the null probe (marginal sampling cost)")
    ap.add_argument("--statehash-threshold", type=float, default=0.10,
                    help="max tolerated state-digest overhead relative"
                         " to the null probe (marginal hashing cost)")
    ap.add_argument("--checkpoint-threshold", type=float, default=0.10,
                    help="max tolerated checkpoint-probe overhead relative"
                         " to the null probe (marginal snapshot cost)")
    ap.add_argument("--trace-out", default=None,
                    help="write the instrumented run's Chrome trace here")
    ap.add_argument("--out", default=str(DEFAULT_OUT),
                    help="bench baseline document to write (repro-net bench"
                         " --compare consumes it); empty string disables")
    args = ap.parse_args(argv)

    common = dict(
        load=args.load, seed=11,
        warmup_cycles=args.cycles // 10, total_cycles=args.cycles,
    )
    if args.network == "cube":
        config = cube_config(k=4, n=2, algorithm="dor", **common)
    else:
        config = tree_config(k=2, n=3, vcs=2, **common)

    entries = [
        measure_entry(f"obs-{spec}", config, spec, repeats=args.repeats)
        for spec in ("off", "null", "traced", "forensics", "reliable",
                     "congestion", "flight", "statehash", "checkpoint")
    ]
    rates = {e["probe"]: e["cycles_per_sec"] for e in entries}
    off = rates["off"]

    if args.trace_out:
        # measure_entry builds its probes internally; one extra
        # instrumented run supplies the uploadable Chrome trace.
        tracer = TraceProbe()
        simulate(config, probe=MultiProbe(
            [tracer, WindowedCounterProbe(window_cycles=200)]))
        tracer.write_chrome_trace(args.trace_out)

    print(f"probe overhead, {args.network} {config.num_nodes} nodes, "
          f"load {args.load}, {args.cycles} cycles, best of {args.repeats}:")
    for name, rate in rates.items():
        overhead = (off - rate) / off if off else 0.0
        print(f"  {name:<9} {rate:>12,.0f} cyc/s   overhead {overhead:+7.1%}")

    if args.out:
        save_baseline(bench_document(entries, repeats=args.repeats), args.out)
        print(f"baseline -> {args.out}")

    failed = False
    null_overhead = (off - rates["null"]) / off if off else 0.0
    if null_overhead > args.threshold:
        print(
            f"FAIL: null-probe overhead {null_overhead:.1%} exceeds "
            f"threshold {args.threshold:.0%}",
            file=sys.stderr,
        )
        failed = True
    else:
        print(f"ok: null-probe overhead {null_overhead:.1%} "
              f"<= threshold {args.threshold:.0%}")
    null = rates["null"]
    flight_overhead = (null - rates["flight"]) / null if null else 0.0
    if flight_overhead > args.flight_threshold:
        print(
            f"FAIL: flight-recorder overhead {flight_overhead:.1%} over the "
            f"null probe exceeds threshold {args.flight_threshold:.0%}",
            file=sys.stderr,
        )
        failed = True
    else:
        print(f"ok: flight-recorder overhead {flight_overhead:+.1%} over "
              f"the null probe <= threshold {args.flight_threshold:.0%}")
    statehash_overhead = (null - rates["statehash"]) / null if null else 0.0
    if statehash_overhead > args.statehash_threshold:
        print(
            f"FAIL: state-digest overhead {statehash_overhead:.1%} over the "
            f"null probe exceeds threshold {args.statehash_threshold:.0%}",
            file=sys.stderr,
        )
        failed = True
    else:
        print(f"ok: state-digest overhead {statehash_overhead:+.1%} over "
              f"the null probe <= threshold {args.statehash_threshold:.0%}")
    checkpoint_overhead = (null - rates["checkpoint"]) / null if null else 0.0
    if checkpoint_overhead > args.checkpoint_threshold:
        print(
            f"FAIL: checkpoint-probe overhead {checkpoint_overhead:.1%} over "
            f"the null probe exceeds threshold {args.checkpoint_threshold:.0%}",
            file=sys.stderr,
        )
        failed = True
    else:
        print(f"ok: checkpoint-probe overhead {checkpoint_overhead:+.1%} over "
              f"the null probe <= threshold {args.checkpoint_threshold:.0%}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
