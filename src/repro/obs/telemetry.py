"""Run telemetry: provenance and performance facts about one simulation.

Every :class:`~repro.sim.results.RunResult` produced by ``Engine.run`` (a
drain included) carries a :class:`RunTelemetry`: a compact
record of *how* the numbers were produced — which exact recipe (a stable
config digest), which seed, how long the run took on the wall clock, the
engine's cycles/sec, and the peak number of packets simultaneously in
flight.  Telemetry travels with the result through pickling (parallel
sweep workers), the JSON run document (:mod:`repro.metrics.io`) and the
on-disk sweep :class:`~repro.experiments.runcache.RunCache`, so archived
results stay attributable and every future optimisation PR has a
recorded baseline to beat.

This module deliberately depends on nothing inside :mod:`repro` so the
result layer can import it without cycles.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

#: names of the engine's per-cycle phases, in execution order; keys of
#: :attr:`RunTelemetry.phase_seconds` (see ``Engine.step``)
PHASE_NAMES = ("link", "injection", "crossbar", "routing")


def config_digest(config) -> str:
    """Stable short digest of a full run recipe.

    Hashes the canonical JSON (sorted keys) of the config's
    :meth:`~repro.sim.config.SimulationConfig.recipe` — every field but a
    model choice at its default — so two configs collide exactly when every
    knob, including the seed and the statistics windows, agrees.  16 hex
    chars keep it greppable in logs while leaving collisions out of
    practical reach.
    """
    doc = json.dumps(config.recipe(), sort_keys=True, default=str)
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class RunTelemetry:
    """Provenance and performance record of one finished run.

    Attributes:
        config_hash: :func:`config_digest` of the run recipe.
        seed: master RNG seed (echoed out of the config for quick access).
        cycles: simulated cycles covered by this run call.
        wall_clock_s: wall-clock duration of the run call in seconds.
        cycles_per_sec: simulated cycles per wall-clock second (the
            engine-throughput figure of merit for optimisation PRs).
        peak_in_flight: maximum number of packets simultaneously in the
            network at any point of the run (memory/backlog high-water
            mark; grows sharply past saturation).
        phase_seconds: wall-clock seconds spent in each phase of
            ``Engine.step`` over the run, keyed by :data:`PHASE_NAMES`
            (link traversal, injection, crossbar forwarding, header
            routing).  The phases nearly partition the step, so their sum
            approximates ``wall_clock_s`` minus loop overhead.  ``None``
            for documents written before the timers existed.
        forensics: the congestion-forensics document (latency
            attribution, wait-for graph summary, link hotspots) attached
            by the :class:`~repro.obs.forensics.Forensics` instrument at
            run end; ``None`` for uninstrumented runs and older archives.
        reliability: the reliable-transport accounting document (message
            states, retransmissions, ack latencies — and, for chaos
            campaign points, the fault-storm recipe under ``"storm"``)
            attached by :func:`repro.traffic.transport.attach_reliability`;
            ``None`` for runs without the transport and older archives.
        flight: the flight-recorder timeline document (cross-layer
            per-interval series, hot links, annotations) attached by
            :class:`repro.obs.flight.FlightRecorder` at run end; ``None``
            for unrecorded runs and older archives.
        statehash: the state-digest audit trail (the bounded chain of
            per-interval Merkle-style state roots) attached by
            :class:`repro.obs.statehash.StateDigestProbe` at run end —
            the input of the scorecard's audit panel; ``None`` for
            undigested runs and older archives.
        faults: what a :class:`repro.faults.Faults` instrument did — its
            recipe (``fraction``, ``seed``, ``fail_at``, ``repair_at``), the
            realized ``faults`` count, the ``population`` it is a fraction
            of and the run's ``escape_fraction`` (``None`` without an escape
            split); ``None`` for runs without the instrument.
    """

    config_hash: str
    seed: int
    cycles: int
    wall_clock_s: float
    cycles_per_sec: float
    peak_in_flight: int
    phase_seconds: dict[str, float] | None = None
    forensics: dict | None = None
    reliability: dict | None = None
    flight: dict | None = None
    statehash: dict | None = None
    faults: dict | None = None

    def to_dict(self) -> dict:
        """Plain-data form for JSON documents."""
        doc = dataclasses.asdict(self)
        # the four tiers above write an explicit null; this one, added after
        # documents, ledgers and digests were pinned, is left out instead, so
        # every run without the instrument keeps the bytes it had
        if doc["faults"] is None:
            del doc["faults"]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> RunTelemetry:
        """Inverse of :meth:`to_dict`; raises KeyError/TypeError on
        malformed input (callers wrap into AnalysisError)."""
        return cls(
            config_hash=doc["config_hash"],
            seed=doc["seed"],
            cycles=doc["cycles"],
            wall_clock_s=doc["wall_clock_s"],
            cycles_per_sec=doc["cycles_per_sec"],
            peak_in_flight=doc["peak_in_flight"],
            # absent from pre-phase-timer archives
            phase_seconds=doc.get("phase_seconds"),
            # absent from pre-forensics archives and uninstrumented runs
            forensics=doc.get("forensics"),
            # absent from pre-reliability archives and transportless runs
            reliability=doc.get("reliability"),
            # absent from pre-flight archives and unrecorded runs
            flight=doc.get("flight"),
            # absent from pre-statehash archives and undigested runs
            statehash=doc.get("statehash"),
            # absent from fault-free runs (see to_dict)
            faults=doc.get("faults"),
        )

    def summary(self) -> str:
        """One-line digest for logs and CLI output."""
        return (
            f"config {self.config_hash} seed {self.seed}: "
            f"{self.cycles} cycles in {self.wall_clock_s:.2f}s "
            f"({self.cycles_per_sec:,.0f} cyc/s), "
            f"peak in-flight {self.peak_in_flight}"
        )

    def phase_summary(self) -> str:
        """One-line wall-time split across the engine's step phases.

        Shares are of the phase total (not the full wall clock), so they
        sum to 100% and stay comparable across runs with different
        amounts of loop overhead.  A 0-cycle run (e.g. a run call on an
        engine already past ``total_cycles``) has no phase time to
        split; an explicit empty summary is returned instead of nonsense
        percentages or a division error.
        """
        if self.cycles == 0:
            return "phases: none (0 cycles simulated)"
        if not self.phase_seconds:
            return "phase timers unavailable"
        total = sum(self.phase_seconds.values()) or 1.0
        parts = (
            f"{name} {self.phase_seconds.get(name, 0.0) / total:.0%}"
            for name in PHASE_NAMES
        )
        return "phases: " + " | ".join(parts)
