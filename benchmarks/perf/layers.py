"""Fixed per-layer probes: small seeded measurements of single layers.

They run in every ``--trace 1`` run, on the same inputs whatever the
workload, so each layer has a number even where a workload's own pass
cannot isolate it (probe dispatch, checkpoint write, ledger append).
All of them time public calls from outside; every timing is the median
of the repeats stated beside it.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import random
import statistics
import tempfile
import time

from repro import build_engine, cube_config, simulate, tree_config
from repro.experiments.runcache import RunCache
from repro.metrics.io import run_result_to_dict
from repro.obs.bench import PROBE_FACTORIES
from repro.obs.ledger import Ledger
from repro.obs.report import figures_from_results, render_scorecard
from repro.sim.checkpoint import (
    CheckpointConfig,
    CheckpointProbe,
    load_checkpoint,
    save_checkpoint,
)
from repro.sim.packet import Packet
from repro.traffic.congestion import simulate_congested
from repro.traffic.transport import simulate_reliable

from .tracing import Tracer
from .workloads import Scale

#: interleaved rounds of the cycles/sec variants (median of this many)
CPS_ROUNDS = 3
#: samples of each millisecond-scale operation
OP_SAMPLES = 10
#: (switch, lane, packet) triples per routing algorithm
ROUTING_SAMPLE = 4000


def _median_ms(fn, samples: int) -> float:
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def _routing_candidates_ns(config, rng: random.Random) -> float:
    """ns per ``RoutingAlgorithm.candidates()`` over a seeded sample of
    headers on an idle network (the call is read-only)."""
    engine = build_engine(config)
    nodes = engine.topology.num_nodes
    sample = []
    for pid in range(ROUTING_SAMPLE):
        switch = rng.randrange(engine.topology.num_switches)
        lane = next(lane for port in engine.in_lanes[switch] for lane in port)
        src, dst = rng.sample(range(nodes), 2)
        sample.append((switch, lane, Packet(pid, src, dst, config.packet_flits, 0)))
    candidates = engine.routing.candidates

    def sweep():
        for switch, lane, packet in sample:
            candidates(switch, lane, packet)

    return _median_ms(sweep, 5) * 1e6 / ROUTING_SAMPLE


def layer_probes(seed: int, scale: Scale, tr: Tracer, workdir) -> dict[str, float]:
    """Run every fixed probe; returns ``{metric name: value}``."""
    workdir = pathlib.Path(workdir)
    rng = random.Random(f"layers/{seed}")
    (tk, tn), (ck, cn) = scale.tree, scale.cube
    warmup, total = scale.probe_window
    window = dict(warmup_cycles=warmup, total_cycles=total, seed=rng.randrange(1, 2**31))
    config = tree_config(k=tk, n=tn, vcs=4, pattern="uniform", load=0.6, **window)
    metrics: dict[str, float] = {}

    with tr.span("routing.candidates"):
        for name, cfg in (
            ("tree_adaptive", config),
            ("dor", cube_config(k=ck, n=cn, algorithm="dor", vcs=4, **window)),
            ("duato", cube_config(k=ck, n=cn, algorithm="duato", vcs=4, **window)),
        ):
            metrics[f"routing.candidates_ns.{name}"] = _routing_candidates_ns(cfg, rng)

    # cycles/sec with each probe tier and each transport stack, interleaved
    factories = dict(PROBE_FACTORIES)
    # the stock factory's 1000-cycle interval would never fire in this window
    factories["checkpoint"] = lambda: CheckpointProbe(
        tempfile.mkdtemp(dir=workdir), CheckpointConfig(interval_cycles=total // 2)
    )
    variants = {f"obs.{name}_cps": (lambda f=f: simulate(config, probe=f())) for name, f in factories.items()}
    variants["traffic.reliable_cps"] = lambda: simulate_reliable(config)
    variants["traffic.congested_cps"] = lambda: simulate_congested(config)
    rates: dict[str, list[float]] = {name: [] for name in variants}
    plain = None
    for _ in range(CPS_ROUNDS):
        for name, run in variants.items():
            with tr.span(name.removesuffix("_cps")):
                start = time.perf_counter()
                result = run()
                rates[name].append(result.telemetry.cycles / (time.perf_counter() - start))
            if name == "obs.off_cps":
                plain = result
    for name, samples in rates.items():
        metrics[name] = statistics.median(samples)
    metrics["obs.null_overhead_frac"] = metrics["obs.off_cps"] / metrics["obs.null_cps"] - 1.0

    # one engine stepped to mid-run: digests, audit, checkpoint write and restore
    engine = build_engine(config)
    while engine.cycle < total // 2:
        engine.step()
    with tr.span("obs.fingerprint"):
        metrics["obs.fingerprint_ms"] = _median_ms(engine.state_fingerprint, 5)
        metrics["obs.fingerprint_detail_ms"] = _median_ms(
            lambda: engine.state_fingerprint(detail=True), 3
        )
    with tr.span("sim.audit"):
        metrics["obs.audit_ms"] = _median_ms(engine.audit, 5)
    snapshot = workdir / "probe.rckpt"
    with tr.span("checkpoint.save"):
        metrics["checkpoint.save_ms"] = _median_ms(lambda: save_checkpoint(engine, snapshot), OP_SAMPLES)
    metrics["checkpoint.bytes"] = snapshot.stat().st_size
    with tr.span("checkpoint.load"):
        metrics["checkpoint.load_ms"] = _median_ms(lambda: load_checkpoint(snapshot, config), OP_SAMPLES)

    # result-document plumbing, on the plain run's result
    keys = itertools.count()
    cache = RunCache(workdir / "probe-cache")
    with tr.span("runcache.put"):
        metrics["runcache.put_ms"] = _median_ms(lambda: cache.put(("probe", next(keys)), plain), OP_SAMPLES)
    ledger = Ledger(workdir / "probe-ledger.jsonl")
    with tr.span("ledger.append"):
        metrics["ledger.append_ms"] = _median_ms(lambda: ledger.append_run(plain, dedup=False), OP_SAMPLES)
    with tr.span("ledger.read"):
        metrics["ledger.read_ms"] = _median_ms(lambda: list(ledger.records()), 5)
    with tr.span("metrics.run_doc"):
        metrics["metrics.run_doc_ms"] = _median_ms(lambda: json.dumps(run_result_to_dict(plain)), OP_SAMPLES)
    metrics["metrics.run_doc_bytes"] = len(json.dumps(run_result_to_dict(plain)))
    with tr.span("report.scorecard"):
        metrics["report.scorecard_ms"] = _median_ms(
            lambda: render_scorecard(figures_from_results([plain])), 5
        )
    return metrics
