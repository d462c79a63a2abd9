"""Self-test of the benchmark harness on 16-node networks.

    pytest benchmarks/perf -q

Not part of the tier-1 suite (``testpaths = ["tests"]``): it checks the
instrument, not the program.
"""

from __future__ import annotations

import json
import pathlib
import re
import tempfile

import pytest

from benchmarks.perf import run

run._bootstrap()

from benchmarks.perf.tracing import Tracer  # noqa: E402 - needs the bootstrap
from benchmarks.perf.workloads import (  # noqa: E402
    SCALES,
    WORKLOADS,
    Checks,
    check_cache_hits,
    check_resume,
    fig5_pass,
)
from repro.experiments.chaos import run_chaos_point  # noqa: E402
from repro.experiments.runcache import RunCache  # noqa: E402
from repro.sim.checkpoint import CheckpointPolicy, checkpoint_files  # noqa: E402

SPEC = run.load_spec()
SMALL = SCALES["small"]
EXACT = ("sim_accepted_frac", "sim_latency_cycles")


@pytest.fixture(scope="module")
def docs():
    """One small-scale run per (workload, trace), shared by the tests."""
    return {
        (workload, trace): run.measure(workload, 11, 0, trace, "small")
        for workload in WORKLOADS
        for trace in (False, True)
    }


@pytest.fixture
def workdir():
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as path:
        yield pathlib.Path(path)


def test_benchmark_json_names_the_harness():
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {w.name: w.why for w in WORKLOADS.values()}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert set(json.loads(run.GOLDEN.read_text())["digests"]) == set(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", (False, True))
def test_every_declared_metric_is_emitted(docs, workload, trace):
    doc = docs[workload, trace]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(doc["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        emitted = doc["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1, doc["notes"]
    if not trace:
        assert all(doc["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_traced_run_writes_spans_and_self_times(docs):
    for workload in WORKLOADS:
        trace = json.loads((run.OUT / f"trace-{workload}-seed11.json").read_text())
        names = {event["name"] for event in trace["traceEvents"]}
        assert f"pass.{workload}" in names and "pass.layer_probes" in names
        assert "self s" in (run.OUT / f"selftime-{workload}-seed11.txt").read_text()


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_exact_metrics_repeat_for_a_seed(docs, workload):
    again = run.measure(workload, 11, 0, False, "small")
    for name in EXACT:
        assert again["metrics"][name] == docs[workload, False]["metrics"][name]
    assert again["digests"] == docs[workload, False]["digests"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_another_seed_changes_the_inputs(workload):
    make = WORKLOADS[workload].make_inputs
    assert make(11, SMALL).configs == make(11, SMALL).configs
    assert make(11, SMALL).configs != make(12, SMALL).configs
    assert make(11, SMALL).storms != make(12, SMALL).storms or not make(11, SMALL).storms


def test_corrupt_checkpoint_is_counted_as_failed(workdir):
    inputs = WORKLOADS["chaos_resume"].make_inputs(11, SMALL)
    config, storm = inputs.configs[0], inputs.storms[0]
    policy = CheckpointPolicy(str(workdir), interval_cycles=SMALL.chaos_interval)
    first = run_chaos_point(config, storm, checkpoint=policy)
    newest = checkpoint_files(workdir)[0]
    blob = bytearray(newest.read_bytes())
    blob[-1] ^= 0xFF
    newest.write_bytes(bytes(blob))
    resumed = run_chaos_point(config, storm, checkpoint=policy)
    checks = Checks()
    check_resume(first, resumed, workdir, checks)
    assert checks.failed == 1 and "discarded" in checks.notes[0]


def test_corrupt_cache_entry_is_counted_as_failed(workdir):
    inputs = WORKLOADS["fig5_campaign"].make_inputs(11, SMALL)
    out = fig5_pass(inputs, Tracer(detailed=False), Checks(), workdir, verify=False)
    cache = RunCache(workdir / "cache")
    victim = sorted(cache.directory.glob("*.json"))[0]
    victim.write_text(victim.read_text()[:-20])
    checks = Checks()
    check_cache_hits(cache, inputs, out.results, checks)
    assert checks.attempted == len(inputs.runs) and checks.failed == 1
