"""The run and sweep documents: results as stable, versioned JSON.

:func:`run_result_to_dict` is the one document of a finished run
(:class:`~repro.sim.results.RunResult` with its telemetry): ``repro-net
run --json`` prints it, a :class:`~repro.experiments.runcache.RunCache`
entry and a :class:`~repro.obs.ledger.Ledger` record wrap it, and
:func:`run_result_from_dict` reads it back for both::

    from repro.metrics.io import run_result_from_dict, run_result_to_dict
    doc = run_result_to_dict(simulate(config))
    again = run_result_from_dict(json.loads(json.dumps(doc)))

:func:`sweep_document` is ``repro-net sweep --json``'s document of one
:class:`~repro.metrics.series.LoadSweepSeries`; nothing reads it back.

Every document is versioned; loading rejects documents from incompatible
versions, or of the wrong shape, instead of misreading them.
Observability documents ride the telemetry section rather than defining
their own formats here: the forensics summary lands on
``telemetry.forensics``, transport accounting on ``telemetry.reliability``
and the flight recorder's timeline on ``telemetry.flight``, so
instrumented runs round-trip through the cache and the ledger unchanged.
"""

from __future__ import annotations

from ..errors import AnalysisError, ConfigurationError
from ..obs.telemetry import RunTelemetry
from ..sim.config import SimulationConfig
from ..sim.results import RunResult
from .series import LoadSweepSeries

#: version of the sweep document (``repro-net sweep --json``); bump on
#: breaking changes
FORMAT_VERSION = 1

#: version of the single-run JSON document (``repro-net run --json``,
#: RunCache entries); bump on breaking changes
RUN_FORMAT_VERSION = 1

#: RunResult counter fields persisted in the run document (config and
#: telemetry travel in their own sections)
RUN_RESULT_FIELDS = (
    "measured_cycles",
    "generated_packets",
    "injected_packets",
    "delivered_packets",
    "delivered_flits",
    "latency_sum",
    "head_latency_sum",
    "latency_max",
    "latencies",
    "in_flight_at_end",
    "throughput_timeline",
    "dropped_packets",
    "dropped_flits",
    "retransmitted_packets",
    "duplicate_packets",
    "given_up_packets",
    "goodput_flits",
)

#: fields added after RUN_FORMAT_VERSION 1 shipped; absent from older
#: archives and RunCache entries, so loading defaults them instead of
#: rejecting the document
_OPTIONAL_RESULT_FIELDS = frozenset(
    {
        "dropped_packets",
        "dropped_flits",
        "retransmitted_packets",
        "duplicate_packets",
        "given_up_packets",
        "goodput_flits",
    }
)


def run_result_to_dict(result: RunResult) -> dict:
    """Versioned plain-data document for one run (the ``--json`` schema).

    Layout: ``format`` (int), ``config`` (the config's
    :meth:`~repro.sim.config.SimulationConfig.recipe`: every field but a
    model choice at its default, which a loader fills back in),
    ``result`` (the :data:`RUN_RESULT_FIELDS` counters), ``telemetry``
    (the :class:`~repro.obs.telemetry.RunTelemetry` record, or ``None``
    for results that never ran through the engine), and
    ``latency_percentiles`` (exact p50/p95/p99/max over the per-packet
    samples when ``config.collect_latencies`` gathered any, else
    ``None``; derived from ``result.latencies``, so loaders may ignore
    it).
    """
    return {
        "format": RUN_FORMAT_VERSION,
        "config": result.config.recipe(),
        "result": {name: getattr(result, name) for name in RUN_RESULT_FIELDS},
        "telemetry": result.telemetry.to_dict() if result.telemetry else None,
        "latency_percentiles": result.latency_percentiles(),
    }


def run_result_from_dict(doc: dict) -> RunResult:
    """Inverse of :func:`run_result_to_dict`.

    Raises:
        AnalysisError: on a version mismatch, missing fields, a config
            section :class:`SimulationConfig` refuses, or a document (or
            section) that is not a JSON object.
    """
    if not isinstance(doc, dict):
        raise AnalysisError(f"a run document is a JSON object, not {type(doc).__name__}")
    version = doc.get("format")
    if version != RUN_FORMAT_VERSION:
        raise AnalysisError(
            f"unsupported run format {version!r} (expected {RUN_FORMAT_VERSION})"
        )
    try:
        config = SimulationConfig(**doc["config"])
        fields = {
            name: (
                doc["result"].get(name, 0)
                if name in _OPTIONAL_RESULT_FIELDS
                else doc["result"][name]
            )
            for name in RUN_RESULT_FIELDS
        }
        telemetry_doc = doc.get("telemetry")
        telemetry = (
            RunTelemetry.from_dict(telemetry_doc) if telemetry_doc is not None else None
        )
    except (AttributeError, ConfigurationError, KeyError, TypeError) as exc:
        raise AnalysisError(f"malformed run document: {exc}") from exc
    return RunResult(config=config, telemetry=telemetry, **fields)


def series_to_dict(series: LoadSweepSeries) -> dict:
    """Plain-data form of one sweep series."""
    return {
        "label": series.label,
        "network": series.network,
        "algorithm": series.algorithm,
        "vcs": series.vcs,
        "pattern": series.pattern,
        "points": [
            {
                "offered": p.offered,
                "offered_measured": p.offered_measured,
                "accepted": p.accepted,
                "latency_cycles": p.latency_cycles,
                "delivered_packets": p.delivered_packets,
            }
            for p in series.points
        ],
        "failures": [
            {
                "offered": f.offered,
                "error": f.error,
                "message": f.message,
                "attempts": f.attempts,
                "seeds": list(f.seeds),
            }
            for f in series.failures
        ],
    }


def sweep_document(series: LoadSweepSeries, point_rates: list[float] | None = None) -> dict:
    """Versioned machine document for one sweep (``repro-net sweep --json``).

    ``point_rates`` are the per-point engine cycles/sec figures collected
    from the campaign's live telemetry; the document summarizes them so a
    consumer can judge the measurement cost next to the measurement.
    """
    rates = point_rates or []
    return {
        "format": FORMAT_VERSION,
        "series": series_to_dict(series),
        "telemetry": {
            "points_simulated": len(rates),
            "mean_cycles_per_sec": sum(rates) / len(rates) if rates else None,
        },
    }
