"""Workload bench — collective communication phases (extension).

Plays algorithm-shaped traces (all-to-all, butterfly barrier, binomial
broadcast) through both network families at 64 nodes — a curve table of
one drain per (phase, network) — and checks the qualitative expectations:

* the shifted all-to-all schedule (rounds are permutations) beats the
  naive destination order (hot-destination convoys) on both networks;
* the barrier and broadcast track their round structure (log2 N rounds);
* the cube's denser low-level connectivity drains the all-to-all faster
  in cycles, consistent with its uniform-traffic advantage in Figure 7
  (before clock scaling).
"""

from repro.experiments.drain import drain_table
from repro.experiments.report import render_table
from repro.sim.run import cube_config, tree_config
from repro.workloads import alltoall_trace, broadcast_trace, butterfly_barrier_trace

from .conftest import run_once

N = 64
TREE = dict(k=4, n=3, vcs=4)
CUBE = dict(k=8, n=2, algorithm="duato")


def run_all():
    phases = (
        (
            "alltoall/shifted",
            alltoall_trace(N, flits=32, schedule="shifted"),
            alltoall_trace(N, flits=16, schedule="shifted"),
        ),
        (
            "alltoall/naive",
            alltoall_trace(N, flits=32, schedule="naive"),
            alltoall_trace(N, flits=16, schedule="naive"),
        ),
        (
            "barrier",
            butterfly_barrier_trace(N, flits=32),
            butterfly_barrier_trace(N, flits=16),
        ),
        (
            "broadcast",
            broadcast_trace(N, flits=32),
            broadcast_trace(N, flits=16),
        ),
    )
    tree, cube = tree_config(**TREE), cube_config(**CUBE)
    results = drain_table(
        [
            drain
            for name, tree_trace, cube_trace in phases
            for drain in ((f"tree {name}", tree, tree_trace), (f"cube {name}", cube, cube_trace))
        ]
    )
    return {name: (results[2 * i], results[2 * i + 1]) for i, (name, *_) in enumerate(phases)}


def test_collectives(benchmark, reporter):
    results = run_once(benchmark, run_all)
    reporter(
        "workload_collectives",
        render_table(
            ["phase", "tree makespan", "tree flits/cyc", "cube makespan", "cube flits/cyc"],
            [
                [
                    name,
                    tree.makespan_cycles,
                    round(tree.aggregate_flits_per_cycle, 1),
                    cube.makespan_cycles,
                    round(cube.aggregate_flits_per_cycle, 1),
                ]
                for name, (tree, cube) in results.items()
            ],
            title="Collective phases — 64-node networks, one packet per message",
        ),
    )
    for idx in (0, 1):
        shifted = results["alltoall/shifted"][idx].makespan_cycles
        naive = results["alltoall/naive"][idx].makespan_cycles
        assert shifted < 0.8 * naive  # scheduling matters on both networks
    # round structure dominates the barrier: >= (rounds-1) gaps
    tree_barrier = results["barrier"][0]
    assert tree_barrier.makespan_cycles >= 5 * 3 * 32  # 5 gaps of 3*flits
    # broadcast reaches everyone with N-1 messages
    assert results["broadcast"][0].messages == N - 1
    assert results["broadcast"][1].messages == N - 1