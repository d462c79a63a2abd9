"""Ablation — adaptivity on the fat-tree (extension).

The paper evaluates only the adaptive up*/down* algorithm; this bench
quantifies what the adaptive ascent is worth against a strong oblivious
baseline (source-digit ascent, the d-mod-k family used by later fat-tree
systems) at equal VC count.

Measured finding (recorded in EXPERIMENTS.md): the value of adaptivity is
*pattern dependent* —

* uniform and complement: the source-spread deterministic ascent is
  perfectly load balanced, and matches or slightly beats the adaptive
  heuristic;
* transpose: the fixed ascent funnels the permutation's descending
  conflicts through fixed roots and collapses (~10x worse); adaptivity
  reroutes around them.

This mirrors the §9 cube lesson (DOR wins complement, loses transpose):
obliviousness is fine exactly when the pattern's structure already
matches the routing function.
"""

from repro.experiments.report import render_table
from repro.experiments.sweep import run_curves
from repro.metrics.saturation import sustained_rate
from repro.profiles import get_profile
from repro.sim.run import tree_config

from .conftest import run_once

LOADS = (0.3, 0.5, 0.7, 0.9)
PATTERNS = ("uniform", "complement", "transpose")


def run_all():
    windows = get_profile().windows
    keys = [(p, a) for p in PATTERNS for a in ("tree_adaptive", "tree_deterministic")]
    curves = [
        (f"{p}/{a}", tree_config(vcs=4, algorithm=a, pattern=p, seed=41, **windows), ())
        for p, a in keys
    ]
    return {
        key: sustained_rate(series)
        for key, (series, _) in zip(keys, run_curves(curves, LOADS))
    }


def test_tree_adaptivity_gain(benchmark, reporter):
    rates = run_once(benchmark, run_all)
    reporter(
        "ablation_tree_routing",
        render_table(
            ["pattern", "adaptive sustained", "deterministic sustained"],
            [
                [p, rates[(p, "tree_adaptive")], rates[(p, "tree_deterministic")]]
                for p in PATTERNS
            ],
            title="Tree routing ablation — 4-ary 4-tree, 4 VCs, sustained accepted bandwidth",
        ),
    )
    # balanced patterns: the oblivious source-spread ascent is competitive
    for pattern in ("uniform", "complement"):
        ratio = rates[(pattern, "tree_adaptive")] / rates[(pattern, "tree_deterministic")]
        assert 0.75 <= ratio <= 1.35, (pattern, ratio)
    # transpose: adaptivity reroutes around the fixed-root funnels
    assert rates[("transpose", "tree_adaptive")] > 4 * rates[("transpose", "tree_deterministic")]