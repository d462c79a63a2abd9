"""Ablation — extension traffic patterns beyond the paper's four.

Exercises the extra generators (neighbor, shuffle, butterfly, tornado,
hotspot) on both paper networks at a few loads, and checks the expected
qualitative behaviors:

* neighbor traffic is congestion-free-like on the tree (mostly intra-leaf)
  and light on the cube (single-hop rings);
* tornado is the adversarial torus pattern: it degrades the cube far more
  than neighbor does, and adaptive routing cannot rescue it (all packets
  need the same ring direction);
* a strong hotspot collapses accepted bandwidth towards the single
  ejection channel limit shared by all sources.
"""

from repro.experiments.report import render_table
from repro.experiments.sweep import run_curves
from repro.profiles import get_profile
from repro.sim.run import cube_config, tree_config

from .conftest import run_once

LOADS = (0.3, 0.6, 0.9)


PATTERNS = ("neighbor", "shuffle", "butterfly", "tornado")


def run_all():
    common = dict(seed=17, **get_profile().windows)
    table = {}
    for pattern in PATTERNS:
        table["tree", pattern] = tree_config(vcs=4, pattern=pattern, **common)
        table["cube", pattern] = cube_config(algorithm="duato", pattern=pattern, **common)
    table["cube", "hotspot"] = cube_config(
        algorithm="duato",
        pattern="hotspot",
        pattern_kwargs={"hotspots": (0,), "fraction": 0.2},
        **common,
    )
    curves = [(f"{net}/{pattern}", config, ()) for (net, pattern), config in table.items()]
    series = {key: s for key, (s, _) in zip(table, run_curves(curves, LOADS))}
    rows = [
        [p, series["tree", p].peak_accepted(), series["cube", p].peak_accepted()]
        for p in PATTERNS
    ]
    rows.append(["hotspot(20%)", None, series["cube", "hotspot"].peak_accepted()])
    return rows, series


def test_extension_patterns(benchmark, reporter):
    rows, series = run_once(benchmark, run_all)
    reporter(
        "ablation_patterns",
        render_table(
            ["pattern", "tree 4vc peak acc", "cube Duato peak acc"],
            rows,
            title="Extension patterns — peak accepted bandwidth (fraction of capacity)",
        ),
    )
    peak = {key: s.peak_accepted() for key, s in series.items()}
    # neighbor is near-local on both networks
    assert peak[("tree", "neighbor")] >= 0.8
    assert peak[("cube", "neighbor")] >= 0.8
    # tornado hurts the cube much more than neighbor traffic does
    assert peak[("cube", "tornado")] <= 0.7 * peak[("cube", "neighbor")]
    # the tree is insensitive to tornado's ring structure (it has none)
    assert peak[("tree", "tornado")] >= peak[("cube", "tornado")]
    # a 20% hotspot caps global accepted bandwidth well below uniform
    assert peak[("cube", "hotspot")] <= 0.5
