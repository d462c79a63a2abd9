"""Fault-degradation bench — fat-tree resilience (extension).

Injects growing numbers of random ascending-channel faults into the
4-ary 4-tree and measures the sustained uniform-traffic throughput with
the adaptive algorithm.  Expected shape: graceful, roughly proportional
degradation — the CM-5-style operational argument for fat-trees — with
no deadlocks and no collapse even at 20% failed ascent channels.
"""

from repro.experiments.degradation import degradation_experiment
from repro.experiments.report import render_table
from repro.profiles import get_profile
from repro.sim.run import tree_config

from .conftest import run_once

#: 4-ary 4-tree: 3 levels x 64 switches x 4 up channels = 768 ascent
#: channels, so these fail 0, 38, 77 and 154 of them
FRACTIONS = (0.0, 0.05, 0.10, 0.20)
LOAD = 1.0
SEED = 47


def run_all():
    return [
        (row.faults, row.accepted, row.latency_cycles)
        for row in degradation_experiment(
            tree_config(load=LOAD, seed=SEED, **get_profile().windows), FRACTIONS
        )
    ]


def test_fault_degradation(benchmark, reporter):
    rows = run_once(benchmark, run_all)
    reporter(
        "fault_degradation",
        render_table(
            ["failed ascent channels", "accepted (frac of capacity)", "latency (cyc)"],
            [list(r) for r in rows],
            title="Fat-tree fault degradation — uniform traffic at full load, adaptive routing",
        ),
    )
    accepted = [r[1] for r in rows]
    # monotone non-increasing within noise
    for healthy, degraded in zip(accepted, accepted[1:]):
        assert degraded <= healthy + 0.03
    # graceful: 20% channel loss keeps more than half the throughput
    assert accepted[-1] > 0.5 * accepted[0]
    # and strictly measurable: 20% loss does cost something
    assert accepted[-1] < accepted[0]