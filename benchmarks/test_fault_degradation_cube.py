"""Fault-degradation bench — torus resilience under Duato (extension).

Injects growing numbers of random lane-level link faults into the
16-ary 2-cube and measures the sustained uniform-traffic throughput
under Duato's adaptive algorithm.  Faults seize only adaptive lanes, so
the validated escape subnetwork stays intact: expected shape is the same
graceful, roughly proportional degradation as the fat-tree bench — no
deadlocks, no collapse — with the escape-channel share of routing
decisions rising as faults squeeze the adaptive lanes.
"""

from repro.experiments.degradation import degradation_experiment
from repro.experiments.report import render_table
from repro.profiles import get_profile
from repro.sim.run import cube_config

from .conftest import run_once

#: 16-ary 2-cube: 256 nodes x 2 dims x 2 directions = 1024 channel
#: directions, so these fail 0, 51, 102 and 205 of them
FRACTIONS = (0.0, 0.05, 0.10, 0.20)
LOAD = 1.0
SEED = 47


def run_all():
    return [
        (row.faults, row.accepted, row.latency_cycles, row.escape_fraction)
        for row in degradation_experiment(
            cube_config(load=LOAD, seed=SEED, **get_profile().windows), FRACTIONS
        )
    ]


def test_fault_degradation_cube(benchmark, reporter):
    rows = run_once(benchmark, run_all)
    reporter(
        "fault_degradation_cube",
        render_table(
            ["failed channel lanes", "accepted (frac of capacity)",
             "latency (cyc)", "escape fraction"],
            [list(r) for r in rows],
            title="Torus fault degradation — uniform traffic at full load, Duato routing",
        ),
    )
    accepted = [r[1] for r in rows]
    escape = [r[3] for r in rows]
    # monotone non-increasing within noise
    for healthy, degraded in zip(accepted, accepted[1:]):
        assert degraded <= healthy + 0.03
    # graceful: 20% lane loss keeps more than half the throughput
    assert accepted[-1] > 0.5 * accepted[0]
    # and strictly measurable: 20% loss does cost something
    assert accepted[-1] < accepted[0]
    # faults squeeze adaptive lanes, pushing traffic onto escape channels
    assert escape[-1] > escape[0]
