#!/usr/bin/env python3
"""Fat-tree graceful degradation under channel faults.

Fails growing fractions of the ascending channels of the paper's 4-ary
4-tree (the ``Faults`` instrument) and measures uniform-traffic throughput
with the adaptive algorithm — the CM-5-style operational argument for
fat-trees.  Also shows the contrast, with the static injector on a
hand-built engine: the deterministic source-digit baseline strands the
traffic of any node whose fixed ascent dies.

Run:  python examples/fault_tolerance.py
"""

from repro.errors import DeadlockError
from repro.faults import Faults, inject_tree_uplink_faults
from repro.sim.run import build_engine, simulate, tree_config

WINDOWS = dict(warmup_cycles=250, total_cycles=1450, seed=59)


def main() -> None:
    print("Adaptive routing under ascending-channel faults (4-ary 4-tree, 768 channels):\n")
    print("  failed  accepted (frac. of capacity)  latency (cycles)")
    for fraction in (0.0, 0.025, 0.05, 0.10, 0.20):
        res = simulate(tree_config(vcs=4, load=1.0, **WINDOWS), [Faults(fraction)])
        count = res.telemetry.faults["faults"]
        pct = 100 * count / res.telemetry.faults["population"]
        print(
            f"  {count:>4} ({pct:4.1f}%)   {res.accepted_fraction:20.3f}"
            f"   {res.avg_latency_cycles:12.1f}"
        )

    print("\nSame fault, oblivious baseline, only node 0 sending:")
    eng = build_engine(
        tree_config(
            vcs=4, algorithm="tree_deterministic", load=0.0,
            warmup_cycles=0, total_cycles=4000, watchdog_cycles=800,
        )
    )
    inject_tree_uplink_faults(eng, [(0, 4)])  # node 0's fixed ascent channel
    eng.preload_packet(0, 255)
    try:
        eng.run()
        print("  unexpectedly delivered!")
    except DeadlockError:
        print("  packet stranded forever -> watchdog raised DeadlockError, as expected.")
    print("\nAdaptivity masks ascent faults for free; oblivious routing needs")
    print("rerouting tables or spares.")


if __name__ == "__main__":
    main()
