"""Ablation — beyond 4 virtual channels on the fat-tree (paper §11).

"When we use four virtual channels the routing delay is equalized with
the wire delay, so we expect a diminishing return with more virtual
channels."  This bench runs the 8-VC variant the paper never simulated:
in raw cycles the gain over 4 VCs is small, and after applying Chien's
model (8 VCs make T_routing the clock at 11.67 ns) the *absolute*
bits/ns advantage largely evaporates — confirming the §11 prediction.
"""

from repro.experiments.report import render_table
from repro.experiments.sweep import run_curves
from repro.metrics.saturation import sustained_rate
from repro.profiles import get_profile
from repro.sim.run import tree_config
from repro.timing.chien import router_delays, tree_crossbar_ports, tree_freedom_adaptive
from repro.timing.chien import WireLength
from repro.timing.normalization import tree_scaling

from .conftest import run_once

LOADS = (0.4, 0.7, 1.0)
VC_VARIANTS = (1, 2, 4, 8)


def run_all():
    windows = get_profile().windows
    curves = [
        (f"{vcs} vc", tree_config(vcs=vcs, seed=23, **windows), ()) for vcs in VC_VARIANTS
    ]
    out = {}
    for vcs, (series, _) in zip(VC_VARIANTS, run_curves(curves, LOADS)):
        clock = router_delays(
            tree_freedom_adaptive(4, vcs),
            tree_crossbar_ports(4, vcs),
            vcs,
            WireLength.MEDIUM,
        ).clock_ns
        rate = sustained_rate(series)
        bits = tree_scaling(4, 4, clock_ns=clock).aggregate_bits_per_ns(rate)
        out[vcs] = (rate, clock, bits)
    return out


def test_diminishing_returns(benchmark, reporter):
    data = run_once(benchmark, run_all)
    reporter(
        "ablation_vcs",
        render_table(
            ["vcs", "sustained acc (frac)", "T_clock (ns)", "sustained (bits/ns)"],
            [[v, *data[v]] for v in VC_VARIANTS],
            title="Virtual-channel ablation — 4-ary 4-tree, uniform traffic",
        ),
    )
    # raw cycles: monotone gains up to 4 VCs ...
    assert data[1][0] < data[2][0] < data[4][0]
    # ... but the 4 -> 8 cycle-level gain is much smaller than 2 -> 4
    gain_24 = data[4][0] - data[2][0]
    gain_48 = data[8][0] - data[4][0]
    assert gain_48 < max(0.6 * gain_24, 0.04)
    # §11: with the slower 8-VC clock the absolute gain mostly evaporates
    assert data[8][2] < 1.08 * data[4][2]
    # and the 8-VC clock is routing-limited
    d8 = router_delays(
        tree_freedom_adaptive(4, 8), tree_crossbar_ports(4, 8), 8, WireLength.MEDIUM
    )
    assert d8.limiting_factor() == "routing"
