"""Ablation — lane buffer depth (the paper fixes 4 flits per lane, §5).

Sweeps the input/output lane depth on both networks under uniform
traffic.  Expected shape: throughput grows monotonically (more slack
before backpressure) with clearly diminishing returns — the paper's
choice of 4 sits near the knee for 16/32-flit packets.
"""

from repro.experiments.report import render_table
from repro.experiments.sweep import run_curves
from repro.profiles import get_profile
from repro.sim.run import cube_config, tree_config

from .conftest import run_once

DEPTHS = (1, 2, 4, 8)
LOADS = (0.5, 0.8, 1.0)


def run_all():
    common = dict(seed=19, **get_profile().windows)
    curves = []
    for depth in DEPTHS:
        curves += [
            (f"tree/buf{depth}", tree_config(vcs=4, buffer_flits=depth, **common), ()),
            (f"cube/buf{depth}", cube_config(algorithm="duato", buffer_flits=depth, **common), ()),
        ]
    peaks = [series.peak_accepted() for series, _ in run_curves(curves, LOADS)]
    return {depth: tuple(peaks[2 * i : 2 * i + 2]) for i, depth in enumerate(DEPTHS)}


def test_buffer_depth(benchmark, reporter):
    peaks = run_once(benchmark, run_all)
    reporter(
        "ablation_buffers",
        render_table(
            ["buffer flits", "tree 4vc peak acc", "cube Duato peak acc"],
            [[d, *peaks[d]] for d in DEPTHS],
            title="Lane depth ablation — uniform traffic, peak accepted bandwidth",
        ),
    )
    # monotone non-decreasing within noise
    for net in (0, 1):
        values = [peaks[d][net] for d in DEPTHS]
        for a, b in zip(values, values[1:]):
            assert b >= a - 0.05
    # diminishing returns: 4 -> 8 gains far less than 1 -> 4
    for net in (0, 1):
        early_gain = peaks[4][net] - peaks[1][net]
        late_gain = peaks[8][net] - peaks[4][net]
        assert late_gain < max(0.5 * early_gain, 0.08)
