"""Batch permutation drains (extension of §6's global-permutation scenario).

Injects one full permutation at once — operation far above saturation —
and measures the makespan on both networks: a curve table of one drain
per (pattern, network), each a one-load curve under its trace.  The steady-state results of
Figures 5–6 predict the ordering: complement drains fastest on the tree
(congestion-free) and slowest per-capacity on the cube (bisection-bound),
while transpose/bitrev need the adaptive cube algorithm.
"""

from repro.experiments.drain import drain_table, permutation_trace
from repro.experiments.report import render_table
from repro.sim.run import cube_config, tree_config

from .conftest import run_once

PATTERNS = ("complement", "transpose", "bitrev")


def run_all():
    configs = [
        (pattern, config)
        for pattern in PATTERNS
        for config in (
            tree_config(vcs=4, pattern=pattern, seed=43),
            cube_config(algorithm="duato", pattern=pattern, seed=43),
        )
    ]
    results = drain_table(
        [(f"{c.network} {p}", c, permutation_trace(c)) for p, c in configs],
        max_cycles=1_000_000,
    )
    return {p: (results[2 * i], results[2 * i + 1]) for i, p in enumerate(PATTERNS)}


def test_permutation_drains(benchmark, reporter):
    results = run_once(benchmark, run_all)
    reporter(
        "drain_permutations",
        render_table(
            [
                "pattern",
                "tree makespan (cyc)",
                "tree avg lat",
                "cube makespan (cyc)",
                "cube avg lat",
            ],
            [
                [
                    pattern,
                    tree.makespan_cycles,
                    tree.avg_latency_cycles,
                    cube.makespan_cycles,
                    cube.avg_latency_cycles,
                ]
                for pattern, (tree, cube) in results.items()
            ],
            title="One-shot permutation drains — 256 nodes, 64-byte packets",
        ),
    )
    for pattern, (tree, cube) in results.items():
        assert tree.messages in (240, 256)  # fixed points excluded
        assert cube.messages == tree.messages
        # a full permutation cannot drain faster than one packet stream
        # through a single ejection channel plus the pipeline depth
        assert tree.makespan_cycles >= tree.config.packet_flits
        assert cube.makespan_cycles >= cube.config.packet_flits
    # the congestion-free pattern drains fastest on the tree
    tree_makespans = {p: results[p][0].makespan_cycles for p in PATTERNS}
    assert tree_makespans["complement"] == min(tree_makespans.values())
    # and the lower bound is nearly met: every node receives exactly one
    # 32-flit packet over its own ejection channel
    assert tree_makespans["complement"] < 5 * 32
