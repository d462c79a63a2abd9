"""Raw measurements from one simulation run (paper §6).

The two quantitative parameters of §6 are computed here:

* **accepted bandwidth** — flits delivered to their destinations during the
  measurement window, per node per cycle, reported both in flits/cycle and
  as a fraction of the network capacity (the CNF y-axis);
* **network latency** — average header-injection-to-tail-delivery delay of
  packets measured in the window (source queueing excluded, as in §6).

§6's saturation rule is also stated here, once: :func:`saturated` and
:data:`SATURATION_TOLERANCE` decide every per-run flag, Figure 5/6/7 cell,
``find-sat`` bracket and scorecard fidelity score.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import AnalysisError
from ..obs.telemetry import RunTelemetry
from .config import SimulationConfig

#: §6's relative saturation margin: accepted bandwidth this fraction below
#: the offered rate is saturation, anything closer is the sampling noise of
#: a finite window (paper-length windows may retune it)
SATURATION_TOLERANCE = 0.05


def saturated(offered: float, accepted: float) -> bool:
    """§6: "the accepted bandwidth is lower than the packet creation rate",
    by more than :data:`SATURATION_TOLERANCE` of that rate."""
    return accepted < (1.0 - SATURATION_TOLERANCE) * offered


@dataclass
class RunResult:
    """Outcome of one simulation run.

    All counters refer to the measurement window ``[warmup, total)`` only.

    Attributes:
        config: the run recipe.
        measured_cycles: length of the measurement window.
        generated_packets: packets created by the sources in the window
            (the realized offered load).
        injected_packets: packets whose header entered an injection lane
            in the window.
        delivered_packets: packets whose tail reached the destination in
            the window *and* whose header was injected after the warm-up
            (latency samples come from these).
        delivered_flits: all flits delivered in the window, regardless of
            injection time (throughput counts every delivery).
        latency_sum / latency_max: over the latency sample set.
        latencies: per-packet samples when ``config.collect_latencies``.
        in_flight_at_end: packets still in the network when the run halted.
        dropped_packets / dropped_flits: worms destroyed in the window by
            fail-stop faults (``Engine.kill_packet``) and the flits
            flushed with them; always 0 under the lossless default.
        retransmitted_packets: copies re-injected by the reliable
            transport after a timeout (window-scoped, like injections).
        duplicate_packets: deliveries the transport's sink-side filter
            suppressed as duplicates of an already-delivered message.
        given_up_packets: messages the transport abandoned after
            exhausting its retry budget.
        goodput_flits: flits of *first-copy* deliveries in the window —
            the useful payload, excluding duplicates and (by
            construction) retransmitted copies of lost worms.
        telemetry: provenance/performance record attached by the engine
            when the run completes (config digest, seed, wall clock,
            cycles/sec, peak in-flight); ``None`` for hand-built results.
    """

    config: SimulationConfig
    measured_cycles: int
    generated_packets: int = 0
    injected_packets: int = 0
    delivered_packets: int = 0
    delivered_flits: int = 0
    latency_sum: int = 0
    head_latency_sum: int = 0
    latency_max: int = 0
    latencies: list[int] = field(default_factory=list)
    in_flight_at_end: int = 0
    dropped_packets: int = 0
    dropped_flits: int = 0
    retransmitted_packets: int = 0
    duplicate_packets: int = 0
    given_up_packets: int = 0
    goodput_flits: int = 0
    #: delivered flits per interval of ``config.interval_cycles`` cycles
    #: (empty unless that option is set); trailing partial intervals are
    #: dropped
    throughput_timeline: list[int] = field(default_factory=list)
    telemetry: RunTelemetry | None = None

    # -- §6 metrics -----------------------------------------------------------

    @property
    def offered_flits_per_cycle(self) -> float:
        """Realized offered load per node (flits/cycle).

        A run with an empty measurement window (``warmup == total``, or a
        second ``run()`` call on a finished engine) has no rate to
        report: 0.0, explicitly, rather than a ZeroDivisionError.
        """
        if self.measured_cycles <= 0:
            return 0.0
        return (
            self.generated_packets
            * self.config.packet_flits
            / (self.measured_cycles * self.config.num_nodes)
        )

    @property
    def accepted_flits_per_cycle(self) -> float:
        """Accepted bandwidth per node (flits/cycle): the sustained data
        delivery rate given the offered bandwidth at the input.  0.0
        when the measurement window is empty (see
        :attr:`offered_flits_per_cycle`)."""
        if self.measured_cycles <= 0:
            return 0.0
        return self.delivered_flits / (self.measured_cycles * self.config.num_nodes)

    @property
    def offered_fraction(self) -> float:
        """Realized offered load as a fraction of capacity."""
        return self.offered_flits_per_cycle / self.config.capacity_flits_per_cycle

    @property
    def accepted_fraction(self) -> float:
        """Accepted bandwidth as a fraction of capacity (CNF y-axis)."""
        return self.accepted_flits_per_cycle / self.config.capacity_flits_per_cycle

    @property
    def goodput_flits_per_cycle(self) -> float:
        """First-copy delivered payload per node (flits/cycle).

        The reliability counterpart of :attr:`accepted_flits_per_cycle`:
        duplicates and retransmitted copies carry no new payload, so
        under faults goodput <= accepted bandwidth.  0.0 when the
        measurement window is empty, and equal to the accepted bandwidth
        when no reliable transport is attached (``goodput_flits`` stays
        0 then, so callers should gate on :attr:`reliable`).
        """
        if self.measured_cycles <= 0:
            return 0.0
        return self.goodput_flits / (self.measured_cycles * self.config.num_nodes)

    @property
    def goodput_fraction(self) -> float:
        """First-copy goodput as a fraction of network capacity."""
        return self.goodput_flits_per_cycle / self.config.capacity_flits_per_cycle

    @property
    def reliable(self) -> bool:
        """True when a reliable transport accounted this run (any of the
        transport counters moved, or first-copy goodput was recorded)."""
        return bool(
            self.goodput_flits
            or self.retransmitted_packets
            or self.duplicate_packets
            or self.given_up_packets
        )

    @property
    def retransmit_overhead(self) -> float:
        """Retransmitted copies per injected packet in the window (0.0
        for an empty window or a run without the transport)."""
        if self.injected_packets <= 0:
            return 0.0
        return self.retransmitted_packets / self.injected_packets

    @property
    def avg_latency_cycles(self) -> float:
        """Average network latency in cycles over the sample set.

        Raises:
            AnalysisError: when no packet completed inside the window
                (deep saturation with a tiny window) — callers decide how
                to present the missing point.
        """
        if self.delivered_packets == 0:
            raise AnalysisError(f"no delivered packets in run {self.config.label()}")
        return self.latency_sum / self.delivered_packets

    @property
    def avg_head_latency_cycles(self) -> float:
        """Average injection-to-header-delivery delay (§8: head latency).

        The path-acquisition component of the network latency: rises with
        contention but is insensitive to link multiplexing.
        """
        if self.delivered_packets == 0:
            raise AnalysisError(f"no delivered packets in run {self.config.label()}")
        return self.head_latency_sum / self.delivered_packets

    @property
    def avg_tail_latency_cycles(self) -> float:
        """Average header-to-tail delay (§8: tail latency).

        The serialization component: ``S − 1`` cycles uncontended, and
        up to V times that when V packets multiplex each link.
        """
        return self.avg_latency_cycles - self.avg_head_latency_cycles

    @property
    def saturated(self) -> bool:
        """Per-run saturation flag: :func:`saturated` on this run's
        offered and accepted flits per cycle."""
        return saturated(self.offered_flits_per_cycle, self.accepted_flits_per_cycle)

    def latency_percentiles(self) -> dict | None:
        """Exact percentiles over the per-packet latency samples.

        Requires ``config.collect_latencies``; returns ``None`` when no
        samples exist (flag off, or nothing delivered in the window).
        Keys: ``samples``, ``p50``, ``p95``, ``p99``, ``max`` — the same
        vocabulary as the forensics attribution histograms, but computed
        from the full sorted sample set, so values are exact.
        """
        if not self.latencies:
            return None
        samples = sorted(self.latencies)
        n = len(samples)

        def at(q: float) -> int:
            return samples[min(n - 1, max(0, round(q * n) - 1))]

        return {
            "samples": n,
            "p50": at(0.50),
            "p95": at(0.95),
            "p99": at(0.99),
            "max": samples[-1],
        }

    def summary(self) -> str:
        """One-line human-readable digest."""
        if self.measured_cycles <= 0:
            return f"{self.config.label()}: no measurement window (0 cycles)"
        try:
            lat = f"{self.avg_latency_cycles:.1f}"
        except AnalysisError:
            lat = "n/a"
        line = (
            f"{self.config.label()}: offered={self.offered_fraction:.3f} "
            f"accepted={self.accepted_fraction:.3f} latency={lat}cyc "
            f"delivered={self.delivered_packets}"
        )
        if self.dropped_packets:
            line += f" dropped={self.dropped_packets}"
        if self.reliable:
            line += (
                f" goodput={self.goodput_fraction:.3f} "
                f"retx={self.retransmitted_packets} "
                f"gave_up={self.given_up_packets}"
            )
        return line


# What a campaign reports for a group of runs — a fault rate's load grid,
# an overload factor's seeds.  The chaos and overload tables
# (repro.experiments) and the scorecard's curves (repro.obs.report) are
# these functions over the same runs, so the two cannot drift apart.


def mean_goodput_fraction(runs) -> float:
    """First-copy goodput as a capacity fraction, averaged (0.0 for none)."""
    return sum(r.goodput_fraction for r in runs) / len(runs) if runs else 0.0


def mean_retransmit_overhead(runs) -> float:
    """Retransmitted share of injected packets, averaged (0.0 for none)."""
    return sum(r.retransmit_overhead for r in runs) / len(runs) if runs else 0.0


def total_given_up(runs) -> int:
    return sum(r.given_up_packets for r in runs)


def total_dropped(runs) -> int:
    return sum(r.dropped_packets for r in runs)


def worst_p99(runs) -> int | None:
    """The largest p99 latency among the runs that kept latency samples."""
    kept = [pct["p99"] for pct in (r.latency_percentiles() for r in runs) if pct is not None]
    return max(kept) if kept else None
