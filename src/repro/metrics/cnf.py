"""Chaos Normal Form assembly and absolute-unit conversion (paper §6, §10).

The CNF presents each experiment as two graphs over the same x-axis
(offered bandwidth normalized by the uniform-traffic capacity):

* accepted bandwidth (same normalization) — Figures 5/6 panels a, c, e, g;
* network latency in cycles — panels b, d, f, h.

For the final comparison (§10, Figure 7) the paper switches to absolute
units because the configurations have different clocks and flit widths:
traffic in bits/ns (aggregate over the whole network) and latency in ns.
:func:`absolute_series` applies exactly that rescaling using the
:class:`~repro.timing.normalization.NetworkScaling` of each configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..timing.normalization import NetworkScaling
from .saturation import saturation_point, sustained_rate
from .series import LoadSweepSeries


@dataclass
class CNFResult:
    """One experiment in Chaos Normal Form: the two graphs plus digests."""

    title: str
    series: list[LoadSweepSeries]

    def saturation_summary(self) -> dict[str, float]:
        """Label -> estimated saturation load, for report tables."""
        return {s.label: saturation_point(s) for s in self.series}

    def sustained_summary(self) -> dict[str, float]:
        """Label -> mean accepted bandwidth beyond saturation."""
        return {s.label: sustained_rate(s) for s in self.series}


@dataclass(frozen=True)
class AbsolutePoint:
    """One Figure-7 point: aggregate bits/ns and latency in ns."""

    offered_bits_per_ns: float
    accepted_bits_per_ns: float
    latency_ns: float | None


def absolute_series(series: LoadSweepSeries, scaling: NetworkScaling) -> list[AbsolutePoint]:
    """Convert a CNF sweep to the absolute units of Figure 7.

    Args:
        series: sweep in fractions of capacity / cycles.
        scaling: the configuration's flit width, capacity and clock (must
            carry a positive ``clock_ns``).
    """
    out = []
    for p in series.points:
        out.append(
            AbsolutePoint(
                offered_bits_per_ns=scaling.aggregate_bits_per_ns(p.offered),
                accepted_bits_per_ns=scaling.aggregate_bits_per_ns(p.accepted),
                latency_ns=(
                    scaling.cycles_to_ns(p.latency_cycles)
                    if p.latency_cycles is not None
                    else None
                ),
            )
        )
    return out


def saturation_bits_per_ns(series: LoadSweepSeries, scaling: NetworkScaling) -> float:
    """Saturation throughput in bits/ns — the §10 headline numbers.

    This is the sustained accepted bandwidth beyond saturation, rescaled
    to absolute units (e.g. the paper's "440 bits/nsec" for Duato under
    uniform traffic).
    """
    return scaling.aggregate_bits_per_ns(sustained_rate(series))
