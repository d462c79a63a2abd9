"""Ablation — packet size / message granularity (the paper fixes 64 B).

Holds the offered load (flits per cycle per node) constant and varies
the packet length.  Expected shape: zero-load latency grows linearly
with the worm length (serialization term ``S − 1``), while the
saturation bandwidth is only mildly affected — wormhole switching
pipelines long packets well until blocking chains grow with worm length
and start eroding throughput at the largest sizes.
"""

from repro.experiments.report import render_table
from repro.experiments.sweep import run_curves
from repro.metrics.saturation import sustained_rate
from repro.profiles import get_profile
from repro.sim.run import cube_config

from .conftest import run_once

SIZES = (4, 8, 16, 32, 64)
LOADS = (0.15, 0.5, 0.8, 1.0)


def run_all():
    windows = get_profile().windows
    curves = [
        (f"{size} flits", cube_config(algorithm="duato", packet_flits=size, seed=53, **windows), ())
        for size in SIZES
    ]
    return {
        size: (series.points[0].latency_cycles, sustained_rate(series))
        for size, (series, _) in zip(SIZES, run_curves(curves, LOADS))
    }


def test_packet_size(benchmark, reporter):
    data = run_once(benchmark, run_all)
    reporter(
        "ablation_packet_size",
        render_table(
            ["packet flits", "latency @ 15% load (cyc)", "sustained accepted (frac)"],
            [[s, *data[s]] for s in SIZES],
            title="Packet-size ablation — 16-ary 2-cube, Duato routing, uniform traffic",
        ),
    )
    # latency scales with the serialization term: each doubling of the
    # packet adds roughly `size/2` cycles at light load
    lat = {s: data[s][0] for s in SIZES}
    for small, big in zip(SIZES, SIZES[1:]):
        gain = lat[big] - lat[small]
        assert 0.5 * (big - small) <= gain <= 2.5 * (big - small)
    # throughput is far less sensitive than latency: within ~50% across a
    # 16x size range, peaking at an intermediate size (very short packets
    # pay the per-packet routing overhead, very long ones lengthen
    # blocking chains)
    rates = [data[s][1] for s in SIZES]
    assert max(rates) <= 1.5 * min(rates)
    best = max(SIZES, key=lambda s: data[s][1])
    assert best not in (SIZES[0], SIZES[-1])
    assert data[64][1] < data[16][1]