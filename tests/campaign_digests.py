"""What the campaign drivers produce, as sha256 digests.

``digests()`` runs every curve-table experiment once on 16-node networks
(one Fig. 5 and one Fig. 6 panel, the dimension study on two shapes, a
chaos campaign serial and pooled, a congestion campaign in both modes,
the fault-degradation tables, a transient fault window, the permutation
drains and the collective phases) and hashes the canonical — timing-nulled —
run documents, plus each campaign's ledger records, and every blocked-cycle
count a document carries on two saturated networks.
``tests/data/campaign_digests.json`` is this function's output at the commit
before ``run_curves`` existed; the ``drain.documents`` and ``collectives``
keys were recorded while a drain still had its own engine and run loop,
before it became a run of the pipeline, and the ``blocked`` key while four
probes still counted blocked cycles each in a tally of its own:
``python -m tests.campaign_digests > tests/data/campaign_digests.json``
re-records it after a deliberate change of a run document.
"""

import dataclasses
import hashlib
import json
import pathlib
import sys
import tempfile

from repro.experiments import sweep
from repro.experiments.chaos import chaos_campaign
from repro.experiments.congestion import OverloadSpec, congestion_campaign, overload_recipe
from repro.experiments.degradation import degradation_experiment, transient_experiment
from repro.experiments.dimension import dimension_study
from repro.experiments.drain import drain_permutation, drain_table
from repro.experiments.fig5 import fig5_experiment
from repro.experiments.fig6 import fig6_experiment
from repro.obs import MultiProbe, WindowedCounterProbe
from repro.obs.flight import Flight, FlightConfig
from repro.obs.forensics import Forensics
from repro.obs.ledger import Ledger
from repro.profiles import Profile
from repro.sim.run import cube_config, simulate, tree_config
from repro.traffic.congestion import CongestionConfig
from repro.traffic.transport import TransportConfig
from repro.workloads import alltoall_trace, broadcast_trace, butterfly_barrier_trace

from .test_determinism import _TIMING_FIELDS, _canonical, _sans_faults

#: two offered loads per curve (0.1 and 1.0), short windows
PROFILE = Profile(name="pin", warmup_cycles=100, total_cycles=500, sweep_points=2)
_FLIGHT = (Flight(FlightConfig(interval_cycles=64)),)
_TRANSPORT = TransportConfig(base_timeout=32, max_retries=2)
_FRACTIONS = (0.0, 0.05, 0.2)


def _sha(texts) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


def _memoised(experiment) -> str:
    """Digest of every run ``experiment()`` leaves in the sweep memo."""
    sweep.clear_cache()
    experiment()
    return _sha(sorted(_canonical(result) for result in sweep._CACHE.values()))


def _ledger_digest(path) -> str:
    records = []
    for record in Ledger(path).records():
        record["recorded_at"] = None
        # the fault experiments were pinned while the faults were seized by
        # hand, outside the recipe: their documents equal today's but for
        # this one key
        record["run"]["telemetry"].pop("faults", None)
        for field in _TIMING_FIELDS:
            record["run"]["telemetry"][field] = None
        records.append(json.dumps(record, sort_keys=True))
    return _sha(records)


def _campaign(name: str, campaign, config, out: dict, **kwargs) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "ledger.jsonl"
        series = campaign(
            config, profile=PROFILE, instruments=_FLIGHT, ledger=Ledger(path), **kwargs
        )
        out[f"{name}.runs"] = _sha(_canonical(r) for s in series for r in s.results)
        out[f"{name}.ledger"] = _ledger_digest(path)


def _degradation(config) -> dict:
    """Rows and ledger documents of one degradation table (three fractions)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "ledger.jsonl"
        rows = degradation_experiment(config, _FRACTIONS, ledger=Ledger(path))
        return {
            "rows": [list(dataclasses.astuple(row)) for row in rows],
            "documents": _ledger_digest(path),
        }


def _transient() -> dict:
    """One fault window over the middle of the measurement: the row and the
    document (``throughput_timeline`` included)."""
    config = cube_config(k=4, n=2, load=0.8, seed=47, **PROFILE.windows)
    result, row = transient_experiment(config, 0.2)
    return {
        "row": list(dataclasses.astuple(row)),
        "timeline": list(result.throughput_timeline),
        "document": _sha([_sans_faults(result)]),  # as in _ledger_digest
    }


def _row(result) -> list:
    """``[messages, makespan, avg latency, max latency]`` of a drain."""
    return [result.messages, result.makespan_cycles, result.avg_latency_cycles,
            result.max_latency_cycles]


def _drains(out: dict) -> None:
    """``[network, pattern, *row]`` of one-shot permutation drains on both
    16-node networks, and the digest of their run documents."""
    runs = [
        (network, pattern, drain_permutation(config(k=4, n=2, pattern=pattern, seed=43)))
        for pattern in ("complement", "transpose", "bitrev")
        for network, config in (("tree", tree_config), ("cube", cube_config))
    ]
    out["drain"] = [[network, pattern, *_row(r)] for network, pattern, r in runs]
    out["drain.documents"] = _sha(_canonical(r.run) for *_, r in runs)


#: the phases of ``benchmarks/test_workload_collectives.py`` on 16 nodes,
#: as ``(phase, trace of flits)``; 64-byte messages are 32 tree flits and
#: 16 cube flits
_PHASES = (
    ("alltoall/shifted", lambda flits: alltoall_trace(16, flits=flits, schedule="shifted")),
    ("alltoall/naive", lambda flits: alltoall_trace(16, flits=flits, schedule="naive")),
    ("barrier", lambda flits: butterfly_barrier_trace(16, flits=flits)),
    ("broadcast", lambda flits: broadcast_trace(16, flits=flits)),
)
_COLLECTIVE_NETWORKS = (
    ("tree", tree_config(k=4, n=2, vcs=4), 32),
    ("cube", cube_config(k=4, n=2, algorithm="duato"), 16),
)


def _collectives() -> dict:
    """``[network, phase, *row]`` of the collective phases on both 16-node
    networks, and the digest of their run documents."""
    cases = [
        (network, phase, config, make(flits))
        for phase, make in _PHASES
        for network, config, flits in _COLLECTIVE_NETWORKS
    ]
    runs = drain_table([(f"{n} {p}", config, trace) for n, p, config, trace in cases])
    return {
        "rows": [[n, p, *_row(r)] for (n, p, *_), r in zip(cases, runs)],
        "documents": _sha(_canonical(r.run) for r in runs),
    }


#: saturated 16-node networks with a warm-up: where directions block
_SATURATED = (
    ("tree", tree_config(k=4, n=2, vcs=2, load=0.9, warmup_cycles=100, total_cycles=500)),
    ("cube", cube_config(k=4, n=2, algorithm="duato", load=0.9, warmup_cycles=100,
                         total_cycles=500)),
)
#: a stride short enough for the recorder to coalesce its rows
_BLOCKED_FLIGHT = Flight(FlightConfig(interval_cycles=16, max_intervals=16))
_MARKING = OverloadSpec(
    closed_loop=True, transport=_TRANSPORT,
    control=CongestionConfig(window_cycles=32, hot_fraction=0.3),
)


def _json_sha(doc) -> str:
    return _sha([json.dumps(doc, sort_keys=True)])


def _blocked() -> dict:
    """Every blocked-cycle count a document carries, on both saturated
    networks: the windowed counters (from the warm-up on, and from cycle 0),
    the forensics ``hotspots`` section, the flight recorder's ``blocked``
    column, and the ECN marker's summary of a closed-loop overload run."""
    out = {}
    for network, config in _SATURATED:
        measured = WindowedCounterProbe(window_cycles=64)
        whole = WindowedCounterProbe(window_cycles=64, include_warmup=True)
        telemetry = simulate(
            config, [Forensics(), _BLOCKED_FLIGHT], probe=MultiProbe([measured, whole])
        ).telemetry
        marking = simulate(*overload_recipe(config, _MARKING)).telemetry.reliability
        out[network] = {
            "counters": _json_sha(measured.to_dicts()),
            "counters.warmup": _json_sha(whole.to_dicts()),
            "hotspots": _json_sha(telemetry.forensics["hotspots"]),
            "flight": _json_sha(telemetry.flight["series"]["blocked"]),
            "marker": _json_sha(marking["congestion"]["marking"]),
        }
    return out


def digests() -> dict:
    out = {
        "fig5.transpose": _memoised(
            lambda: fig5_experiment("transpose", PROFILE, k=4, n=2)
        ),
        "fig6.transpose": _memoised(
            lambda: fig6_experiment("transpose", PROFILE, k=4, n=2)
        ),
        "dimension": _memoised(
            lambda: dimension_study(shapes=((4, 2), (2, 4)), profile=PROFILE)
        ),
    }
    storms = tree_config(k=4, n=2, vcs=2, seed=47, **PROFILE.windows)
    chaos = dict(fault_rates=(0.05, 0.2), loads=[0.3, 0.6], transport=_TRANSPORT)
    _campaign("chaos.serial", chaos_campaign, storms, out, **chaos)
    _campaign(
        "chaos.parallel", chaos_campaign, storms, out, parallel=True, max_workers=2, **chaos
    )
    _campaign(
        "congestion", congestion_campaign,
        tree_config(k=4, n=2, vcs=2, pattern="transpose", seed=29, **PROFILE.windows), out,
        loads=[0.4, 0.9], transport=_TRANSPORT,
    )
    faulted = dict(k=4, n=2, load=1.0, seed=47, **PROFILE.windows)
    out["degradation.tree"] = _degradation(tree_config(**faulted))
    out["degradation.cube"] = _degradation(cube_config(**faulted))
    out["transient.cube"] = _transient()
    _drains(out)
    out["collectives"] = _collectives()
    out["blocked"] = _blocked()
    return out


if __name__ == "__main__":
    json.dump(digests(), sys.stdout, indent=1)
    sys.stdout.write("\n")
