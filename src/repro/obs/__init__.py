"""Observability: flit-level probes, windowed counters, run telemetry.

The paper's claims rest on *where* flits spend their cycles — blocked
behind busy lanes, waiting in injection queues, crossing the cube's
bisection.  This package makes those places visible without taxing
uninstrumented runs:

* :mod:`repro.obs.probe` — the probe interface the engine calls at flit
  granularity (``Engine.attach_probe``); a no-op :class:`Probe` base (a
  probe pays only for the events it overrides, so its ``NullProbe`` alias
  costs nothing), a :class:`MultiProbe` combinator,
  :func:`compose_probe` to add a probe to a built engine, and
  :class:`Instrument`, the picklable recipe for one tier that
  ``simulate(config, instruments=[...])`` installs and lets finish the
  result (``Forensics``, ``Flight``, ``StateHash`` below; ``Reliable``,
  ``Congested``, ``Storm``, ``Overload`` in the traffic and experiment
  packages).  A tier has no entry point of its own: an instrumented run
  is ``simulate(config, [Forensics(), ...])``, or
  ``simulate_post_mortem`` when a deadlock must leave its documents.
* :mod:`repro.obs.trace` — :class:`TraceProbe`: a packet-lifecycle event
  trace exportable as JSONL and Chrome ``trace_event`` format
  (``chrome://tracing`` / Perfetto).
* :mod:`repro.obs.counters` — :class:`WindowedCounterProbe`: per-window,
  per-direction flit/blocked-cycle/occupancy counters that respect the
  measurement window (windows of the engine's own link counters), the
  file ``repro-net trace --counters`` writes.
* :mod:`repro.obs.telemetry` — :class:`RunTelemetry`: the provenance and
  performance record (config digest, seed, wall clock, cycles/sec, peak
  in-flight, per-phase wall-time split) attached to every
  :class:`~repro.sim.results.RunResult`.

On top of the per-run signals sits the aggregation tier:

* :mod:`repro.obs.ledger` — :class:`Ledger`: the append-only JSONL
  results store every ``--ledger`` CLI invocation feeds, queryable by
  config digest / network / pattern / time window, deduplicated by
  recipe digest + seed.
* :mod:`repro.obs.report` — the HTML reproduction scorecard.  A data
  half (ledger runs grouped into figures, campaign curves and per-tier
  entries, the paper's Figure 5/6 saturation points, per-figure
  fidelity) and the page as section specs — heading, blurb, panel
  pair, table columns — over the primitives of :mod:`repro.obs.heatmap`.
* :mod:`repro.obs.bench` — ``PROBE_FACTORIES``: one factory per probe
  tier, the operating points ``benchmarks/perf`` times.
* :mod:`repro.obs.forensics` — the congestion-forensics tier:
  per-packet latency attribution (:class:`ForensicsProbe` et al.),
  wait-for graph sampling with deadlock-precursor detection, and the
  per-link hotspot section read off the engine's link counters, feeding
  ``repro-net analyze``, the scorecard's breakdown/heatmap panels and the
  most-blocked listing of ``repro-net trace``.
* :mod:`repro.obs.heatmap` — all markup, once: the drawing primitives
  (``svg_open``, ``panel_pair``, ``legend``, ``table``, ``page`` and
  the stylesheet) and the stdlib-SVG figures of one forensics document
  (hotspot heatmap, latency-breakdown panel) or flight document
  (stacked dynamics timeline).
* :mod:`repro.obs.flight` — :class:`FlightRecorder`: the cross-layer
  flight recorder sampling one bounded per-interval timeline over
  engine, links, transport and control plane, with collapse-onset /
  fault / deadlock-precursor annotations, a live ``--watch`` hook and a
  JSONL event stream; the document rides on ``telemetry.flight``.
* :mod:`repro.obs.percentiles` — the shared latency-percentile
  formatting used by ``run --latencies``, ``analyze`` and the flight
  digests.
* :mod:`repro.obs.statehash` — :class:`StateDigestProbe`: the layered
  Merkle-style state-digest audit trail (per-lane leaves rolled up per
  link / node / subsystem into per-interval roots on a bounded hash
  chain), ``Engine.state_fingerprint()`` and the un-hashed
  :func:`state_snapshot` — the backend validation contract of
  DESIGN.md; the chain rides on ``telemetry.statehash``.
  :func:`snapshot_diff` names every lane, flit or credit counter where
  two snapshots differ: the failure message of a lockstep comparison.

CLI entry points: ``repro-net trace`` for instrumented single runs,
``repro-net run/sweep/trace --json`` for machine-readable results
including telemetry, ``--ledger`` on run/sweep/trace/faults for durable
result capture, ``repro-net report`` for the scorecard, and
``benchmarks/perf`` for the 256-node benchmark matrix (probe tiers
included) behind every performance claim.
"""

from .counters import CounterWindow, DirectionWindow, WindowedCounterProbe
from .probe import Instrument, MultiProbe, NullProbe, Probe, compose_probe
from .telemetry import PHASE_NAMES, RunTelemetry, config_digest
from .trace import EVENT_KINDS, TraceEvent, TraceProbe

# The aggregation tier (ledger/report) sits *above* the simulation
# layer, while the probe/telemetry leaves sit *below* it (the engine
# imports repro.obs.telemetry).  Importing the tier eagerly here would
# close a cycle engine -> obs -> report -> sim -> engine, so its names
# resolve lazily on first attribute access (PEP 562).
_LAZY = {
    "LEDGER_FORMAT_VERSION": "ledger",
    "Ledger": "ledger",
    "ledger_record": "ledger",
    "CongestionCurve": "report",
    "PaperRef": "report",
    "ReliabilityCurve": "report",
    "ScorecardFigure": "report",
    "congestion_curves": "report",
    "figures_from_results": "report",
    "forensics_by_figure": "report",
    "paper_reference": "report",
    "partition_results": "report",
    "reliability_curves": "report",
    "render_scorecard": "report",
    "write_scorecard": "report",
    "FORENSICS_FORMAT_VERSION": "forensics",
    "Forensics": "forensics",
    "ForensicsProbe": "forensics",
    "LatencyAttributionProbe": "forensics",
    "PacketAttribution": "forensics",
    "StreamingHistogram": "forensics",
    "WaitForGraphSampler": "forensics",
    "WaitForSample": "forensics",
    "describe_forensics": "forensics",
    "hotspot_heatmap_svg": "heatmap",
    "latency_breakdown_svg": "heatmap",
    "standalone_svg": "heatmap",
    "flight_timeline_svg": "heatmap",
    "FLIGHT_FORMAT_VERSION": "flight",
    "FlightConfig": "flight",
    "Flight": "flight",
    "FlightRecorder": "flight",
    "describe_flight": "flight",
    "format_percentiles": "percentiles",
    "percentile_table": "percentiles",
    "STATEHASH_FORMAT_VERSION": "statehash",
    "DIGEST_ALGO": "statehash",
    "StateDigestConfig": "statehash",
    "StateDigestProbe": "statehash",
    "StateHash": "statehash",
    "describe_statehash": "statehash",
    "engine_fingerprint": "statehash",
    "state_snapshot": "statehash",
    "snapshot_diff": "statehash",
    "statehash_entries": "report",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(__all__) | set(globals()))

__all__ = [
    "CounterWindow",
    "DirectionWindow",
    "WindowedCounterProbe",
    "Instrument",
    "MultiProbe",
    "NullProbe",
    "Probe",
    "compose_probe",
    "PHASE_NAMES",
    "RunTelemetry",
    "config_digest",
    "EVENT_KINDS",
    "TraceEvent",
    "TraceProbe",
    *_LAZY,
]
