"""HTML reproduction scorecard: our curves against the paper's figures.

Ledger or sweep data in, one self-contained HTML file out — no external
assets, no plotting dependencies, just stdlib string assembly of inline
SVG.  Each *figure* (one network/shape/pattern group) renders as a
side-by-side pair of panels inside a single ``<svg>``: accepted
bandwidth vs offered load (the CNF bandwidth graph) and average latency
vs offered load, one curve per routing/VC variant, exactly the panel
layout of the paper's Figures 5 and 6.

Where a measured series corresponds to a configuration the paper
reports, the hard-coded reference saturation point (from §8/§9) is
overlaid as a dashed vertical marker and the scorecard computes a
**fidelity score** — ``1 − |sat_measured − sat_paper| / sat_paper``,
clamped at zero — per series and per figure.  The summary table at the
top of the page is the reproduction health dashboard: a fidelity dip
after a code change flags a behavioural regression the unit tests may
not see.

Typical use::

    repro-net sweep --network tree --pattern uniform --ledger runs.jsonl
    repro-net report --ledger runs.jsonl --out scorecard.html
"""

from __future__ import annotations

import html
import pathlib
from dataclasses import dataclass, field

from ..errors import AnalysisError
from ..metrics.saturation import DEFAULT_TOLERANCE, saturation_point
from ..metrics.series import LoadSweepSeries
from ..sim.results import RunResult

#: Okabe–Ito colour-blind-safe palette, cycled across series
_PALETTE = ("#0072B2", "#D55E00", "#009E73", "#CC79A7", "#E69F00", "#56B4E9")


@dataclass(frozen=True)
class PaperRef:
    """One paper-reported operating point for a specific configuration.

    Attributes:
        figure: the source figure, e.g. ``"Fig 5"``.
        saturation: saturation load as a fraction of capacity.
        latency_presat: pre-saturation latency plateau in cycles, where
            the paper quotes one (``None`` otherwise).
    """

    figure: str
    saturation: float
    latency_presat: float | None = None


#: Figure 5 (§8): 4-ary 4-tree, adaptive routing — (pattern, vcs) -> saturation
_FIG5_SATURATION = {
    ("uniform", 1): 0.36,
    ("uniform", 2): 0.55,
    ("uniform", 4): 0.72,
    ("complement", 1): 0.95,
    ("complement", 2): 0.95,
    ("complement", 4): 0.95,
    ("transpose", 1): 0.33,
    ("transpose", 2): 0.60,
    ("transpose", 4): 0.78,
    ("bitrev", 1): 0.33,
    ("bitrev", 2): 0.60,
    ("bitrev", 4): 0.78,
}

#: Figure 6 (§9): 16-ary 2-cube, 4 VCs — (pattern, algorithm) -> saturation
_FIG6_SATURATION = {
    ("uniform", "dor"): 0.60,
    ("uniform", "duato"): 0.80,
    ("complement", "dor"): 0.47,
    ("complement", "duato"): 0.35,
    ("transpose", "dor"): 0.22,
    ("transpose", "duato"): 0.50,
    ("bitrev", "dor"): 0.20,
    ("bitrev", "duato"): 0.60,
}

#: §9 quotes ≈70 cycles of pre-saturation latency for the uniform cube
_FIG6_LATENCY_PRESAT = {("uniform", "dor"): 70.0, ("uniform", "duato"): 70.0}


def paper_reference(
    network: str, k: int, n: int, algorithm: str, vcs: int, pattern: str
) -> PaperRef | None:
    """The paper's reference point for one exact configuration, if any.

    Only the paper's own networks carry references: the 4-ary 4-tree
    under adaptive routing (Figure 5, keyed by VC count) and the 16-ary
    2-cube with 4 VCs (Figure 6, keyed by algorithm).  Everything else —
    extension patterns, other shapes — renders without an overlay.
    """
    if network == "tree" and (k, n) == (4, 4) and algorithm == "tree_adaptive":
        sat = _FIG5_SATURATION.get((pattern, vcs))
        if sat is not None:
            return PaperRef(figure="Fig 5", saturation=sat)
    if network == "cube" and (k, n) == (16, 2) and vcs == 4:
        sat = _FIG6_SATURATION.get((pattern, algorithm))
        if sat is not None:
            return PaperRef(
                figure="Fig 6",
                saturation=sat,
                latency_presat=_FIG6_LATENCY_PRESAT.get((pattern, algorithm)),
            )
    return None


@dataclass
class ScorecardFigure:
    """One rendered figure: all curves sharing a network shape + pattern.

    Attributes:
        title: heading, e.g. ``"tree 4-ary 4-dim, uniform traffic"``.
        series: one sweep series per routing/VC variant, each labelled.
        refs: label -> :class:`PaperRef` for series the paper reports.
        saturation: label -> measured saturation point.
        fidelity: label -> fidelity score in [0, 1] (referenced series
            only).
    """

    title: str
    series: list[LoadSweepSeries] = field(default_factory=list)
    refs: dict[str, PaperRef] = field(default_factory=dict)
    saturation: dict[str, float] = field(default_factory=dict)
    fidelity: dict[str, float] = field(default_factory=dict)

    @property
    def score(self) -> float | None:
        """Mean fidelity over the referenced series (None if none)."""
        if not self.fidelity:
            return None
        return sum(self.fidelity.values()) / len(self.fidelity)


def _series_label(algorithm: str, vcs: int) -> str:
    return f"{algorithm}, {vcs} vc"


def _figure_title(network: str, k: int, n: int, pattern: str) -> str:
    return f"{network} {k}-ary {n}-dim, {pattern} traffic"


def forensics_by_figure(results: list[RunResult]) -> dict[str, tuple[str, dict]]:
    """Pick one forensics document per scorecard figure.

    Runs instrumented with the forensics tier carry the document on
    their telemetry; for each (network, shape, pattern) figure the run
    at the highest offered load wins — congestion forensics are most
    informative where the network is closest to saturation.  Returns
    ``figure title -> (run label, forensics document)``.
    """
    chosen: dict[str, tuple[float, str, dict]] = {}
    for result in results:
        t = result.telemetry
        if t is None or not getattr(t, "forensics", None):
            continue
        c = result.config
        title = _figure_title(c.network, c.k, c.n, c.pattern)
        load = c.load
        prev = chosen.get(title)
        if prev is None or load > prev[0]:
            label = f"{_series_label(c.algorithm, c.vcs)}, load {load:g}"
            chosen[title] = (load, label, t.forensics)
    return {title: (label, doc) for title, (_, label, doc) in chosen.items()}


def partition_results(
    results: list[RunResult],
) -> tuple[list[RunResult], list[RunResult], list[RunResult]]:
    """Split chaos and overload runs out of a result set.

    A chaos run carries the storm recipe on ``telemetry.reliability``
    and an overload run the mode document (``"overload"``); both measure
    behaviour the paper's CNF figures do not — goodput under faults and
    congestion collapse past saturation — so neither may contaminate
    the paper figures (nor each other's panel).  Returns
    ``(plain, chaos, congestion)``.
    """
    plain: list[RunResult] = []
    chaos: list[RunResult] = []
    congestion: list[RunResult] = []
    for result in results:
        rel = getattr(result.telemetry, "reliability", None) or {}
        if "storm" in rel:
            chaos.append(result)
        elif "overload" in rel:
            congestion.append(result)
        else:
            plain.append(result)
    return plain, chaos, congestion


@dataclass
class ReliabilityCurve:
    """One configuration's fault-rate curve from a chaos campaign.

    ``points`` are ``(fault_rate, goodput_fraction, retransmit_overhead,
    given_up, dropped)`` rows, load-averaged per fault rate and sorted
    by fault rate.
    """

    label: str
    points: list[tuple[float, float, float, int, int]] = field(default_factory=list)


def reliability_curves(results: list[RunResult]) -> list[ReliabilityCurve]:
    """Aggregate chaos runs into goodput-degradation curves.

    Runs sharing (network, shape, algorithm, vcs, repair time) form one
    curve; within it every fault rate averages its load grid — the same
    aggregation :func:`repro.experiments.chaos.degradation_rows` applies
    campaign-side, recomputed here from the ledger so the scorecard
    needs only run documents.
    """
    groups: dict[tuple, dict[float, list[RunResult]]] = {}
    for result in results:
        rel = getattr(result.telemetry, "reliability", None) or {}
        storm = rel.get("storm")
        if storm is None:
            continue
        c = result.config
        key = (c.network, c.k, c.n, c.algorithm, c.vcs, storm["repair_cycles"])
        groups.setdefault(key, {}).setdefault(storm["fault_rate"], []).append(result)
    curves = []
    for (network, k, n, algorithm, vcs, repair), rates in sorted(groups.items()):
        label = f"{network} {k}-ary {n}-dim, {_series_label(algorithm, vcs)}"
        if repair:
            label += f", repair {repair} cyc"
        curve = ReliabilityCurve(label=label)
        for rate, runs in sorted(rates.items()):
            curve.points.append(
                (
                    rate,
                    sum(r.goodput_fraction for r in runs) / len(runs),
                    sum(r.retransmit_overhead for r in runs) / len(runs),
                    sum(r.given_up_packets for r in runs),
                    sum(r.dropped_packets for r in runs),
                )
            )
        curves.append(curve)
    return curves


@dataclass
class CongestionCurve:
    """One overload mode's collapse curve from a congestion campaign.

    ``points`` are ``(factor, goodput_fraction, p99_latency, given_up)``
    rows — offered load in saturation multiples, seed-averaged per
    factor and sorted by factor (``p99_latency`` is None when the run
    kept no latency samples).
    """

    label: str
    mode: str
    saturation: float
    points: list[tuple[float, float, float | None, int]] = field(default_factory=list)


def congestion_curves(results: list[RunResult]) -> list[CongestionCurve]:
    """Aggregate overload runs into congestion-collapse curves.

    Runs sharing (network, shape, algorithm, vcs, mode, arbiter) form
    one curve; within it every saturation factor averages its seeds.
    Open- and closed-loop sweeps of the same shape therefore render as
    two curves over one axis — the collapse comparison the campaign
    exists to make.
    """
    groups: dict[tuple, dict[float, list[RunResult]]] = {}
    sats: dict[tuple, float] = {}
    for result in results:
        rel = getattr(result.telemetry, "reliability", None) or {}
        overload = rel.get("overload")
        if overload is None:
            continue
        c = result.config
        key = (
            c.network, c.k, c.n, c.algorithm, c.vcs,
            overload["mode"], overload["arbiter"],
        )
        sats[key] = overload["saturation"]
        groups.setdefault(key, {}).setdefault(overload["factor"], []).append(result)
    curves = []
    for key, factors in sorted(groups.items()):
        network, k, n, algorithm, vcs, mode, arbiter = key
        label = (
            f"{network} {k}-ary {n}-dim, {_series_label(algorithm, vcs)}, "
            f"{mode} loop ({arbiter})"
        )
        curve = CongestionCurve(label=label, mode=mode, saturation=sats[key])
        for factor, runs in sorted(factors.items()):
            p99s = []
            for r in runs:
                pct = r.latency_percentiles()
                if pct is not None:
                    p99s.append(pct["p99"])
            curve.points.append(
                (
                    factor,
                    sum(r.goodput_fraction for r in runs) / len(runs),
                    max(p99s) if p99s else None,
                    sum(r.given_up_packets for r in runs),
                )
            )
        curves.append(curve)
    return curves


def figures_from_results(
    results: list[RunResult], tol: float = DEFAULT_TOLERANCE
) -> list[ScorecardFigure]:
    """Group raw runs into scorecard figures with fidelity scores.

    Runs sharing (network, k, n, pattern) land in one figure; within it,
    each (algorithm, vcs) variant becomes one curve sorted by offered
    load.  Duplicate recipes (same load, different seeds) all plot —
    scatter is information, not noise.

    Raises:
        AnalysisError: when ``results`` is empty.
    """
    if not results:
        raise AnalysisError("no runs to score: the ledger matched nothing")
    groups: dict[tuple, dict[tuple, LoadSweepSeries]] = {}
    for result in results:
        c = result.config
        fig_key = (c.network, c.k, c.n, c.pattern)
        curves = groups.setdefault(fig_key, {})
        curve_key = (c.algorithm, c.vcs)
        series = curves.get(curve_key)
        if series is None:
            series = LoadSweepSeries(
                label=_series_label(c.algorithm, c.vcs),
                network=c.network,
                algorithm=c.algorithm,
                vcs=c.vcs,
                pattern=c.pattern,
            )
            curves[curve_key] = series
        series.add(result)

    figures = []
    for (network, k, n, pattern), curves in sorted(groups.items()):
        fig = ScorecardFigure(title=_figure_title(network, k, n, pattern))
        for (algorithm, vcs), series in sorted(curves.items()):
            fig.series.append(series)
            sat = saturation_point(series, tol)
            fig.saturation[series.label] = sat
            ref = paper_reference(network, k, n, algorithm, vcs, pattern)
            if ref is not None:
                fig.refs[series.label] = ref
                err = abs(sat - ref.saturation) / ref.saturation
                fig.fidelity[series.label] = max(0.0, 1.0 - err)
        figures.append(fig)
    return figures


# -- SVG assembly ----------------------------------------------------------------

#: panel geometry (one figure = two panels in a single <svg>)
_PANEL_W, _PANEL_H = 340, 230
_MARGIN_L, _MARGIN_T = 64, 30
_PANEL_GAP = 120
_SVG_W = _MARGIN_L + 2 * _PANEL_W + _PANEL_GAP + 30
_SVG_H = _MARGIN_T + _PANEL_H + 60


def _fmt(value: float) -> str:
    """Short, locale-free coordinate/tick formatting."""
    return f"{value:.4g}"


class _Panel:
    """Maps data coordinates into one panel's SVG pixel box."""

    def __init__(self, x0: float, x1: float, y0: float, y1: float, left: float):
        self.x0, self.x1 = x0, x1 or 1.0
        self.y0, self.y1 = y0, y1 or 1.0
        self.left = left

    def x(self, v: float) -> float:
        span = (self.x1 - self.x0) or 1.0
        return self.left + (v - self.x0) / span * _PANEL_W

    def y(self, v: float) -> float:
        span = (self.y1 - self.y0) or 1.0
        return _MARGIN_T + _PANEL_H - (v - self.y0) / span * _PANEL_H

    def frame(self, title: str, xlabel: str, ylabel: str) -> list[str]:
        top, bottom = _MARGIN_T, _MARGIN_T + _PANEL_H
        right = self.left + _PANEL_W
        parts = [
            f'<rect x="{self.left}" y="{top}" width="{_PANEL_W}" height="{_PANEL_H}" '
            f'class="panel"/>',
            f'<text x="{self.left + _PANEL_W / 2}" y="{top - 10}" class="ptitle">'
            f"{html.escape(title)}</text>",
            f'<text x="{self.left + _PANEL_W / 2}" y="{bottom + 36}" class="axis">'
            f"{html.escape(xlabel)}</text>",
            f'<text x="{self.left - 48}" y="{top + _PANEL_H / 2}" class="axis" '
            f'transform="rotate(-90 {self.left - 48} {top + _PANEL_H / 2})">'
            f"{html.escape(ylabel)}</text>",
        ]
        for frac in (0.0, 0.5, 1.0):
            xv = self.x0 + frac * (self.x1 - self.x0)
            yv = self.y0 + frac * (self.y1 - self.y0)
            px, py = self.x(xv), self.y(yv)
            parts.append(
                f'<line x1="{px:.1f}" y1="{top}" x2="{px:.1f}" y2="{bottom}" class="grid"/>'
            )
            parts.append(
                f'<line x1="{self.left}" y1="{py:.1f}" x2="{right}" y2="{py:.1f}" class="grid"/>'
            )
            parts.append(
                f'<text x="{px:.1f}" y="{bottom + 16}" class="tick">{_fmt(xv)}</text>'
            )
            parts.append(
                f'<text x="{self.left - 6}" y="{py + 4:.1f}" class="tick ylab">{_fmt(yv)}</text>'
            )
        return parts

    def polyline(self, pts: list[tuple[float, float]], color: str) -> list[str]:
        if not pts:
            return []
        coords = " ".join(f"{self.x(x):.1f},{self.y(y):.1f}" for x, y in pts)
        parts = []
        if len(pts) > 1:
            parts.append(f'<polyline points="{coords}" class="curve" stroke="{color}"/>')
        parts.extend(
            f'<circle cx="{self.x(x):.1f}" cy="{self.y(y):.1f}" r="2.6" fill="{color}"/>'
            for x, y in pts
        )
        return parts

    def vline(self, xv: float, color: str, label: str) -> list[str]:
        px = self.x(xv)
        return [
            f'<line x1="{px:.1f}" y1="{_MARGIN_T}" x2="{px:.1f}" '
            f'y2="{_MARGIN_T + _PANEL_H}" class="ref" stroke="{color}"/>',
            f'<text x="{px:.1f}" y="{_MARGIN_T + 12}" class="reftext" fill="{color}">'
            f"{html.escape(label)}</text>",
        ]

    def hline(self, yv: float, color: str, label: str) -> list[str]:
        py = self.y(yv)
        right = self.left + _PANEL_W
        return [
            f'<line x1="{self.left}" y1="{py:.1f}" x2="{right}" y2="{py:.1f}" '
            f'class="ref" stroke="{color}"/>',
            f'<text x="{right - 4}" y="{py - 4:.1f}" class="reftext anchor-end" '
            f'fill="{color}">{html.escape(label)}</text>',
        ]


def _figure_svg(fig: ScorecardFigure) -> str:
    """One figure as a single standalone ``<svg>`` (two panels)."""
    xs = [p.offered for s in fig.series for p in s.points]
    bw = [max(p.accepted, p.offered_measured) for s in fig.series for p in s.points]
    lat = [p.latency_cycles for s in fig.series for p in s.points if p.latency_cycles]
    ref_sats = [r.saturation for r in fig.refs.values()]
    ref_lats = [r.latency_presat for r in fig.refs.values() if r.latency_presat]
    x_hi = max(xs + ref_sats) * 1.05
    bw_hi = max(bw + ref_sats) * 1.1
    lat_hi = max(lat + ref_lats) * 1.1 if (lat or ref_lats) else 1.0

    left_b = _Panel(0.0, x_hi, 0.0, bw_hi, _MARGIN_L)
    left_l = _Panel(0.0, x_hi, 0.0, lat_hi, _MARGIN_L + _PANEL_W + _PANEL_GAP)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_SVG_W} {_SVG_H}" '
        f'width="{_SVG_W}" height="{_SVG_H}" role="img">'
    ]
    parts += left_b.frame("accepted bandwidth", "offered (fraction of capacity)",
                          "accepted (fraction)")
    parts += left_l.frame("network latency", "offered (fraction of capacity)",
                          "latency (cycles)")
    for i, series in enumerate(fig.series):
        color = _PALETTE[i % len(_PALETTE)]
        parts += left_b.polyline(
            [(p.offered, p.accepted) for p in series.points], color
        )
        parts += left_l.polyline(
            [
                (p.offered, p.latency_cycles)
                for p in series.points
                if p.latency_cycles is not None
            ],
            color,
        )
        ref = fig.refs.get(series.label)
        if ref is not None:
            parts += left_b.vline(
                ref.saturation, color, f"paper {_fmt(ref.saturation)}"
            )
            if ref.latency_presat is not None:
                parts += left_l.hline(
                    ref.latency_presat, color, f"paper ≈{_fmt(ref.latency_presat)}"
                )
    parts.append("</svg>")
    return "\n".join(parts)


def _reliability_svg(curves: list[ReliabilityCurve]) -> str:
    """Goodput-degradation and retransmit-overhead panels (one ``<svg>``)."""
    rates = [p[0] for c in curves for p in c.points]
    goodput = [p[1] for c in curves for p in c.points]
    overhead = [p[2] for c in curves for p in c.points]
    x_hi = (max(rates) * 1.1) if max(rates, default=0.0) else 0.25
    g_hi = (max(goodput) * 1.15) if goodput else 1.0
    o_hi = (max(overhead) * 1.15) if max(overhead, default=0.0) else 0.1

    left = _Panel(0.0, x_hi, 0.0, g_hi, _MARGIN_L)
    right = _Panel(0.0, x_hi, 0.0, o_hi, _MARGIN_L + _PANEL_W + _PANEL_GAP)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_SVG_W} {_SVG_H}" '
        f'width="{_SVG_W}" height="{_SVG_H}" role="img">'
    ]
    parts += left.frame("end-to-end goodput", "fault rate (fraction of channels)",
                        "goodput (fraction of capacity)")
    parts += right.frame("retransmit overhead", "fault rate (fraction of channels)",
                         "retransmitted / injected")
    for i, curve in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        parts += left.polyline([(p[0], p[1]) for p in curve.points], color)
        parts += right.polyline([(p[0], p[2]) for p in curve.points], color)
    parts.append("</svg>")
    return "\n".join(parts)


def _reliability_section(curves: list[ReliabilityCurve]) -> list[str]:
    """The chaos-campaign panel: curves, legend and accounting table."""
    parts = ["<h2>Reliability under fail-stop fault storms</h2>"]
    parts.append(
        '<p class="muted">Randomized fail-stop link faults destroy in-flight '
        "worms; the source-side reliable transport recovers them by timeout "
        "and retransmission.  Goodput counts first-copy payload only; each "
        "point averages a chaos campaign's offered-load grid.</p>"
    )
    legend = []
    for i, curve in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        legend.append(
            f'<span><i class="swatch" style="background:{color}"></i>'
            f"{html.escape(curve.label)}</span>"
        )
    parts.append(f'<p class="legend">{"".join(legend)}</p>')
    parts.append(_reliability_svg(curves))
    parts.append("<table>")
    parts.append(
        "<tr><th>configuration</th><th>fault rate</th><th>goodput</th>"
        "<th>retransmit overhead</th><th>given up</th><th>dropped</th></tr>"
    )
    for curve in curves:
        for rate, goodput, overhead, gave_up, dropped in curve.points:
            gave_up_cls = "num" if gave_up == 0 else "num warn"
            parts.append(
                f"<tr><td>{html.escape(curve.label)}</td>"
                f'<td class="num">{rate:.2f}</td>'
                f'<td class="num">{goodput:.3f}</td>'
                f'<td class="num">{overhead:.1%}</td>'
                f'<td class="{gave_up_cls}">{gave_up}</td>'
                f'<td class="num">{dropped}</td></tr>'
            )
    parts.append("</table>")
    return parts


def _congestion_svg(curves: list[CongestionCurve]) -> str:
    """Goodput and p99-latency collapse panels (one ``<svg>``).

    The x axis is offered load in saturation multiples, so open- and
    closed-loop curves of any shape share one frame, with the paper's
    saturation point at exactly 1.0 (dashed marker).
    """
    factors = [p[0] for c in curves for p in c.points]
    goodput = [p[1] for c in curves for p in c.points]
    p99 = [p[2] for c in curves for p in c.points if p[2] is not None]
    x_hi = (max(factors + [1.0])) * 1.05
    g_hi = (max(goodput) * 1.15) if goodput else 1.0
    l_hi = (max(p99) * 1.1) if p99 else 1.0

    left = _Panel(0.0, x_hi, 0.0, g_hi, _MARGIN_L)
    right = _Panel(0.0, x_hi, 0.0, l_hi, _MARGIN_L + _PANEL_W + _PANEL_GAP)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_SVG_W} {_SVG_H}" '
        f'width="{_SVG_W}" height="{_SVG_H}" role="img">'
    ]
    parts += left.frame("goodput past saturation", "offered load (× saturation)",
                        "goodput (fraction of capacity)")
    parts += right.frame("tail latency", "offered load (× saturation)",
                         "p99 latency (cycles)")
    for i, curve in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        parts += left.polyline([(p[0], p[1]) for p in curve.points], color)
        parts += right.polyline(
            [(p[0], p[2]) for p in curve.points if p[2] is not None], color
        )
    parts += left.vline(1.0, "#666", "saturation")
    parts += right.vline(1.0, "#666", "saturation")
    parts.append("</svg>")
    return "\n".join(parts)


def _congestion_section(curves: list[CongestionCurve]) -> list[str]:
    """The congestion-collapse panel: curves, legend and per-point table."""
    parts = ["<h2>Congestion collapse past saturation</h2>"]
    parts.append(
        '<p class="muted">Overload campaigns drive the network past the '
        "paper's saturation load.  Open loop, the reliable transport "
        "retransmits blindly and goodput collapses while tail latency "
        "grows; closed loop, hot-link marking and per-destination AIMD "
        "windows throttle injection at the source — graceful degradation "
        "instead of collapse.  Goodput counts first-copy payload only.</p>"
    )
    legend = []
    for i, curve in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        legend.append(
            f'<span><i class="swatch" style="background:{color}"></i>'
            f"{html.escape(curve.label)}</span>"
        )
    parts.append(f'<p class="legend">{"".join(legend)}</p>')
    parts.append(_congestion_svg(curves))
    parts.append("<table>")
    parts.append(
        "<tr><th>configuration</th><th>× saturation</th><th>goodput</th>"
        "<th>p99 latency</th><th>given up</th></tr>"
    )
    for curve in curves:
        for factor, goodput, p99, gave_up in curve.points:
            gave_up_cls = "num" if gave_up == 0 else "num warn"
            p99_cell = f"{p99:.0f}" if p99 is not None else "—"
            parts.append(
                f"<tr><td>{html.escape(curve.label)}</td>"
                f'<td class="num">{factor:.2f}</td>'
                f'<td class="num">{goodput:.3f}</td>'
                f'<td class="num">{p99_cell}</td>'
                f'<td class="{gave_up_cls}">{gave_up}</td></tr>'
            )
    parts.append("</table>")
    return parts


#: dynamics panel cap: entries beyond this stay in the ledger only
_MAX_DYNAMICS = 8


def flight_entries(results: list[RunResult]) -> list[tuple[str, dict]]:
    """Pick the flight documents worth rendering in the dynamics panel.

    Flight-instrumented runs carry the timeline on ``telemetry.flight``.
    Overload runs keep one entry per (shape, mode, arbiter) — the
    highest saturation factor wins, where the open/closed contrast is
    starkest.  Chaos runs keep one per (shape, fault rate) and plain
    runs one per (shape, pattern, variant), the highest offered load
    winning in both.  Returns ``[(label, flight document), ...]``
    sorted by label, capped at :data:`_MAX_DYNAMICS` entries.
    """
    chosen: dict[tuple, tuple[float, str, dict]] = {}
    for result in results:
        t = result.telemetry
        if t is None or getattr(t, "flight", None) is None:
            continue
        c = result.config
        shape = f"{c.network} {c.k}-ary {c.n}-dim"
        rel = getattr(t, "reliability", None) or {}
        overload = rel.get("overload")
        storm = rel.get("storm")
        if overload is not None:
            key = (shape, "overload", overload["mode"], overload["arbiter"])
            rank = overload["factor"]
            label = (
                f"{shape}, {c.pattern}, {overload['mode']} loop "
                f"({overload['arbiter']}), {overload['factor']:g}× saturation"
            )
        elif storm is not None:
            key = (shape, "chaos", storm["fault_rate"], storm["repair_cycles"])
            rank = c.load
            label = (
                f"{shape}, chaos fault rate {storm['fault_rate']:g}, "
                f"load {c.load:g}"
            )
        else:
            key = (shape, "plain", c.pattern, c.algorithm, c.vcs)
            rank = c.load
            label = (
                f"{shape}, {c.pattern}, {_series_label(c.algorithm, c.vcs)}, "
                f"load {c.load:g}"
            )
        prev = chosen.get(key)
        if prev is None or rank > prev[0]:
            chosen[key] = (rank, label, t.flight)
    entries = sorted(
        ((label, doc) for _, label, doc in chosen.values()), key=lambda e: e[0]
    )
    return entries[:_MAX_DYNAMICS]


def statehash_entries(results: list[RunResult]) -> list[tuple[str, dict]]:
    """The digest chains worth rendering in the audit panel.

    Every result carrying ``telemetry.statehash`` contributes one row,
    labelled like the dynamics panel.  All rows are kept (the table is
    cheap and the whole point is spotting an odd chain head among
    replicas), sorted by (label, seed) for stable output.
    """
    entries = []
    for result in results:
        t = result.telemetry
        if t is None or getattr(t, "statehash", None) is None:
            continue
        c = result.config
        label = (
            f"{c.network} {c.k}-ary {c.n}-dim, {c.pattern}, "
            f"{_series_label(c.algorithm, c.vcs)}, load {c.load:g}, "
            f"seed {c.seed}"
        )
        entries.append((label, t.statehash))
    entries.sort(key=lambda e: e[0])
    return entries


def _dynamics_svg(entries: list[tuple[str, dict, str]]) -> str:
    """Delivered-rate and backlog overlays over the shared cycle axis.

    One curve per flight entry; for an open-vs-closed overload pair this
    is the collapse contrast in the time domain — the open loop's
    delivered rate sagging under a growing backlog while the closed
    loop's stays level.  Annotations render as dashed markers with
    hover tooltips on the rate panel.
    """
    x_hi = y_hi = b_hi = 0.0
    for _, doc, _ in entries:
        series = doc.get("series", {})
        cycles = series.get("cycle") or [1]
        spans = series.get("span") or [1] * len(cycles)
        x_hi = max(x_hi, cycles[-1])
        for key in ("offered", "delivered"):
            for i, v in enumerate(series.get(key) or ()):
                y_hi = max(y_hi, v / (spans[i] or 1))
        b_hi = max(b_hi, max(series.get("backlog") or [0]))
    left = _Panel(0.0, x_hi or 1.0, 0.0, (y_hi or 1.0) * 1.1, _MARGIN_L)
    right = _Panel(
        0.0, x_hi or 1.0, 0.0, (b_hi or 1.0) * 1.1,
        _MARGIN_L + _PANEL_W + _PANEL_GAP,
    )
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_SVG_W} {_SVG_H}" '
        f'width="{_SVG_W}" height="{_SVG_H}" role="img">'
    ]
    parts += left.frame("delivery rate", "cycle", "delivered (flits/cycle)")
    parts += right.frame("source backlog", "cycle", "queued flits")
    top, bottom = _MARGIN_T, _MARGIN_T + _PANEL_H
    for label, doc, color in entries:
        series = doc.get("series", {})
        cycles = series.get("cycle") or []
        spans = series.get("span") or [1] * len(cycles)
        delivered = series.get("delivered") or []
        backlog = series.get("backlog") or []
        rate = " ".join(
            f"{left.x(cycles[i]):.1f},"
            f"{left.y(delivered[i] / (spans[i] or 1)):.1f}"
            for i in range(len(cycles))
        )
        parts.append(
            f'<polyline points="{rate}" class="curve" stroke="{color}">'
            f"<title>{html.escape(label)}</title></polyline>"
        )
        if backlog:
            queue = " ".join(
                f"{right.x(cycles[i]):.1f},{right.y(backlog[i]):.1f}"
                for i in range(len(cycles))
            )
            parts.append(
                f'<polyline points="{queue}" class="curve" stroke="{color}">'
                f"<title>{html.escape(label)}</title></polyline>"
            )
        for ann in doc.get("annotations", ()):
            px = left.x(min(ann.get("cycle", 0), x_hi))
            tooltip = f"{label}: {ann.get('kind', '?')} @ {ann.get('cycle', '?')}"
            parts.append(
                f'<line x1="{px:.1f}" y1="{top}" x2="{px:.1f}" y2="{bottom}" '
                f'class="ref" stroke="{color}">'
                f"<title>{html.escape(tooltip)}</title></line>"
            )
    parts.append("</svg>")
    return "\n".join(parts)


def _dynamics_section(entries: list[tuple[str, dict]]) -> list[str]:
    """The flight-recorder panel: rate/backlog overlay + per-run timelines."""
    from .heatmap import flight_timeline_svg

    colored = [
        (label, doc, _PALETTE[i % len(_PALETTE)])
        for i, (label, doc) in enumerate(entries)
    ]
    parts = ["<h2>Dynamics (flight recorder)</h2>"]
    parts.append(
        '<p class="muted">Bounded multi-layer time series sampled during '
        "flight-instrumented runs: injection and delivery rates, fabric "
        "occupancy, transport retransmissions and congestion-window "
        "dynamics on one cycle axis.  Dashed markers stamp annotated "
        "events — fault strikes, the first ECN mark and window decrease, "
        "and the collapse onset (sustained delivery shortfall against the "
        "offered rate).</p>"
    )
    legend = [
        f'<span><i class="swatch" style="background:{color}"></i>'
        f"{html.escape(label)}</span>"
        for label, _, color in colored
    ]
    parts.append(f'<p class="legend">{"".join(legend)}</p>')
    parts.append(_dynamics_svg(colored))
    rows = []
    for label, doc, _ in colored:
        for ann in doc.get("annotations", ()):
            rows.append((label, ann))
    if rows:
        parts.append("<table>")
        parts.append(
            "<tr><th>run</th><th>annotation</th><th>cycle</th>"
            "<th>detail</th></tr>"
        )
        for label, ann in rows:
            kind = ann.get("kind", "?")
            cls = "warn" if kind in ("collapse_onset", "stall") else "num"
            parts.append(
                f"<tr><td>{html.escape(label)}</td>"
                f'<td class="{cls}">{html.escape(kind)}</td>'
                f'<td class="num">{ann.get("cycle", "?")}</td>'
                f"<td>{html.escape(str(ann.get('detail') or ''))}</td></tr>"
            )
        parts.append("</table>")
    for label, doc, _ in colored:
        parts.append(f"<h3>flight timeline ({html.escape(label)})</h3>")
        parts.append(flight_timeline_svg(doc))
    return parts


def _statehash_section(entries: list[tuple[str, dict]]) -> list[str]:
    """The state-digest audit panel: one chain summary row per run.

    Runs sharing a genesis (identical full config, seed included) are
    replica groups: matching chain heads render as a reproducibility
    check mark, a mismatch flags a divergence for ``repro diff``.
    """
    parts = ["<h2>State-digest audit</h2>"]
    parts.append(
        '<p class="muted">Bounded Merkle-style chains of per-interval '
        "state roots (lanes, credits, routing, injection queues, "
        "transport windows, RNG positions).  Two runs of one recipe must "
        "agree on every root; <code>repro diff</code> bisects any "
        "mismatch to the exact first divergent cycle.</p>"
    )
    by_genesis: dict[str, set[str]] = {}
    for _, doc in entries:
        by_genesis.setdefault(doc["genesis"], set()).add(doc["chain_head"])
    parts.append("<table>")
    parts.append(
        "<tr><th>run</th><th>genesis (config digest)</th><th>samples</th>"
        "<th>stride</th><th>final root</th><th>chain head</th>"
        "<th>replicas</th></tr>"
    )
    for label, doc in entries:
        heads = by_genesis[doc["genesis"]]
        if len(heads) > 1:
            replica = '<td class="bad">diverged</td>'
        else:
            replica = '<td class="good">consistent</td>'
        final_root = doc["roots"][-1] if doc["roots"] else "—"
        parts.append(
            f"<tr><td>{html.escape(label)}</td>"
            f"<td><code>{html.escape(doc['genesis'])}</code></td>"
            f'<td class="num">{doc["entries"]}</td>'
            f'<td class="num">{doc["stride"]}</td>'
            f"<td><code>{html.escape(final_root)}</code></td>"
            f"<td><code>{html.escape(doc['chain_head'])}</code></td>"
            f"{replica}</tr>"
        )
    parts.append("</table>")
    return parts


def render_diff_html(doc: dict, title: str = "Divergence report") -> str:
    """Self-contained HTML for one ``repro diff`` outcome document."""
    verdict = (
        '<p class="good">IDENTICAL over '
        f"{doc['compared_entries']} common sampled cycles</p>"
        if doc["identical"]
        else '<p class="bad">DIVERGED — first divergent interval ends cycle '
        f"{doc['first_divergent_interval_cycle']}, subsystems: "
        f"{html.escape(', '.join(doc['subsystems_divergent']) or '?')}</p>"
    )
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8"/>',
        f"<title>{html.escape(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
        verdict,
        "<table>",
        "<tr><th>side</th><th>label</th><th>config</th><th>seed</th>"
        "<th>samples</th><th>stride</th><th>chain head</th></tr>",
    ]
    for key in ("a", "b"):
        side = doc[key]
        parts.append(
            f"<tr><td>{key}</td><td>{html.escape(side['label'])}</td>"
            f"<td><code>{html.escape(side['config_hash'])}</code></td>"
            f'<td class="num">{side["seed"]}</td>'
            f'<td class="num">{side["entries"]}</td>'
            f'<td class="num">{side["stride"]}</td>'
            f"<td><code>{html.escape(side['chain_head'])}</code></td></tr>"
        )
    parts.append("</table>")
    for note in doc["notes"]:
        parts.append(f'<p class="muted">{html.escape(note)}</p>')
    bisection = doc.get("bisection")
    if bisection is not None:
        status = bisection["status"]
        if status == "exact":
            parts.append(
                f"<h2>Bisected to cycle {bisection['cycle']}</h2>"
                f'<p>Divergent subsystems at that cycle: '
                f"{html.escape(', '.join(bisection.get('subsystems', [])) or 'root only')}"
                "</p>"
            )
        else:
            parts.append(f'<h2>Bisection: <span class="warn">{html.escape(status)}</span></h2>')
    if doc["findings"]:
        parts.append("<table>")
        parts.append(
            "<tr><th>subsystem</th><th>location</th><th>lane</th>"
            "<th>field</th><th>a</th><th>b</th></tr>"
        )
        for f in doc["findings"]:
            parts.append(
                f"<tr><td>{html.escape(f['subsystem'])}</td>"
                f"<td>{html.escape(str(f['location'] or ''))}</td>"
                f"<td>{html.escape(str(f['lane'] or ''))}</td>"
                f"<td><code>{html.escape(f['path'])}</code></td>"
                f"<td><code>{html.escape(repr(f['a']))}</code></td>"
                f"<td><code>{html.escape(repr(f['b']))}</code></td></tr>"
            )
        parts.append("</table>")
        if doc["findings_dropped"]:
            parts.append(
                f'<p class="muted">… {doc["findings_dropped"]} more differing '
                "fields (raise --max-findings to see them)</p>"
            )
    parts.append("</body></html>")
    return "\n".join(parts)


_CSS = """
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto; max-width: 960px;
       color: #1a1a2e; background: #fff; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2.2rem; }
table { border-collapse: collapse; margin: 1rem 0; width: 100%; }
th, td { border-bottom: 1px solid #d7d7e0; padding: .35rem .6rem; text-align: left; }
th { background: #f4f4f8; }
td.num { font-variant-numeric: tabular-nums; text-align: right; }
.good { color: #00705f; font-weight: 600; }
.warn { color: #9a4a00; font-weight: 600; }
.bad  { color: #a02020; font-weight: 600; }
.muted { color: #777; }
svg { display: block; margin: .6rem 0 0; }
svg .panel { fill: none; stroke: #444; stroke-width: 1; }
svg .grid { stroke: #e4e4ec; stroke-width: 1; }
svg .curve { fill: none; stroke-width: 1.8; }
svg .ref { stroke-dasharray: 5 4; stroke-width: 1.4; opacity: .85; }
svg .reftext { font: 10px system-ui, sans-serif; text-anchor: middle; }
svg .anchor-end { text-anchor: end; }
svg .ptitle { font: 600 12px system-ui, sans-serif; text-anchor: middle; }
svg .axis { font: 11px system-ui, sans-serif; text-anchor: middle; fill: #444; }
svg .tick { font: 10px system-ui, sans-serif; text-anchor: middle; fill: #666; }
svg .ylab { text-anchor: end; }
svg .barlabel { font: 600 10px system-ui, sans-serif; fill: #fff; text-anchor: middle; }
h3 { font-size: .95rem; margin: 1.2rem 0 0; }
.legend span { display: inline-block; margin-right: 1.2rem; }
.swatch { display: inline-block; width: .8em; height: .8em; border-radius: 2px;
          margin-right: .35em; vertical-align: -1px; }
"""


def _fidelity_class(score: float) -> str:
    if score >= 0.9:
        return "good"
    if score >= 0.7:
        return "warn"
    return "bad"


def _summary_table(figures: list[ScorecardFigure]) -> list[str]:
    rows = [
        "<table>",
        "<tr><th>figure</th><th>series</th><th>paper ref</th>"
        "<th>saturation (paper)</th><th>saturation (measured)</th>"
        "<th>fidelity</th></tr>",
    ]
    for fig in figures:
        for series in fig.series:
            ref = fig.refs.get(series.label)
            sat = fig.saturation[series.label]
            if ref is None:
                ref_cells = (
                    '<td class="muted">—</td><td class="num muted">—</td>'
                    f'<td class="num">{sat:.3f}</td><td class="muted">unscored</td>'
                )
            else:
                score = fig.fidelity[series.label]
                ref_cells = (
                    f"<td>{html.escape(ref.figure)}</td>"
                    f'<td class="num">{ref.saturation:.3f}</td>'
                    f'<td class="num">{sat:.3f}</td>'
                    f'<td class="{_fidelity_class(score)}">{score:.0%}</td>'
                )
            rows.append(
                f"<tr><td>{html.escape(fig.title)}</td>"
                f"<td>{html.escape(series.label)}</td>{ref_cells}</tr>"
            )
    rows.append("</table>")
    return rows


def _forensics_section(label: str, doc: dict) -> list[str]:
    """The latency-breakdown + hotspot-heatmap panels for one figure."""
    from .heatmap import hotspot_heatmap_svg, latency_breakdown_svg

    parts = [
        f"<h3>congestion forensics ({html.escape(label)})</h3>",
    ]
    attribution = doc.get("attribution") or {}
    if attribution.get("packets"):
        parts.append(latency_breakdown_svg(attribution))
    hotspots = doc.get("hotspots") or {}
    if hotspots.get("links"):
        parts.append(hotspot_heatmap_svg(hotspots))
    waitfor = doc.get("waitfor") or {}
    notes = []
    if waitfor.get("samples"):
        notes.append(
            f"wait-for graph: {waitfor['samples']} samples, "
            f"max blocked-chain depth {waitfor.get('max_depth', 0)}"
        )
        if waitfor.get("cycles_detected"):
            notes.append(
                f'<span class="bad">{waitfor["cycles_detected"]} sample(s) '
                "contained a wait cycle (deadlock precursor)</span>"
            )
        root = waitfor.get("worst_root")
        if root:
            notes.append(
                f"hottest root channel: switch {root['switch']} "
                f"port {root['port']} vc {root['vc']} "
                f"({root['waiters']} waiters)"
            )
    if notes:
        parts.append(f'<p class="muted">{"; ".join(notes)}.</p>')
    return parts


def render_scorecard(
    figures: list[ScorecardFigure],
    title: str = "Reproduction scorecard",
    forensics: dict[str, tuple[str, dict]] | None = None,
    reliability: list[ReliabilityCurve] | None = None,
    congestion: list[CongestionCurve] | None = None,
    dynamics: list[tuple[str, dict]] | None = None,
    statehash: list[tuple[str, dict]] | None = None,
) -> str:
    """The full self-contained HTML document for a set of figures.

    ``forensics`` maps figure titles to ``(run label, forensics
    document)`` pairs (see :func:`forensics_by_figure`); matching
    figures gain a latency-breakdown panel and a link-hotspot heatmap
    under their CNF panels.  ``reliability`` curves (from
    :func:`reliability_curves`) append the chaos-campaign
    goodput-degradation panel after the figures, and ``congestion``
    curves (from :func:`congestion_curves`) the congestion-collapse
    panel contrasting open- and closed-loop overload behaviour.
    ``dynamics`` entries (from :func:`flight_entries`) append the
    flight-recorder panel: time-domain rate/backlog overlays, the
    annotation table and one stacked timeline per entry.  ``statehash``
    entries (from :func:`statehash_entries`) append the state-digest
    audit panel: one chain summary per digested run with a per-recipe
    replica-consistency verdict.
    """
    scored = [f.score for f in figures if f.score is not None]
    overall = sum(scored) / len(scored) if scored else None
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8"/>',
        f"<title>{html.escape(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
    ]
    if overall is not None:
        parts.append(
            f'<p>Overall fidelity <span class="{_fidelity_class(overall)}">'
            f"{overall:.0%}</span> over {len(scored)} paper-referenced "
            "figure(s); fidelity is 1 − relative saturation-point error "
            "vs the paper.</p>"
        )
    else:
        parts.append(
            '<p class="muted">No series matches a paper-reported '
            "configuration, so no fidelity score is available; curves are "
            "rendered unscored.</p>"
        )
    parts += _summary_table(figures)
    for fig in figures:
        parts.append(f"<h2>{html.escape(fig.title)}</h2>")
        legend = []
        for i, series in enumerate(fig.series):
            color = _PALETTE[i % len(_PALETTE)]
            legend.append(
                f'<span><i class="swatch" style="background:{color}"></i>'
                f"{html.escape(series.label)}</span>"
            )
        parts.append(f'<p class="legend">{"".join(legend)}</p>')
        parts.append(_figure_svg(fig))
        extra = (forensics or {}).get(fig.title)
        if extra is not None:
            parts += _forensics_section(*extra)
    if reliability:
        parts += _reliability_section(reliability)
    if congestion:
        parts += _congestion_section(congestion)
    if dynamics:
        parts += _dynamics_section(dynamics)
    if statehash:
        parts += _statehash_section(statehash)
    parts.append("</body></html>")
    return "\n".join(parts)


def write_scorecard(
    results: list[RunResult],
    path: str | pathlib.Path,
    title: str = "Reproduction scorecard",
    tol: float = DEFAULT_TOLERANCE,
) -> list[ScorecardFigure]:
    """Score a result set and write the HTML scorecard to ``path``.

    Results carrying a forensics document (``--forensics`` runs) add
    latency-breakdown and hotspot-heatmap panels to their figures.
    Chaos-campaign runs are partitioned out of the paper figures into
    the reliability panel (goodput degradation vs fault rate), and
    overload runs into the congestion-collapse panel (goodput and p99
    vs saturation multiples, open vs closed loop).  Flight-instrumented
    runs of any kind feed the dynamics panel (time-domain overlays with
    annotations), and digest-instrumented runs the state-digest audit
    panel.  Returns the figures (with fidelity populated) for
    programmatic use.
    """
    plain, chaos, congestion = partition_results(results)
    figures = figures_from_results(plain, tol) if plain else []
    pathlib.Path(path).write_text(
        render_scorecard(
            figures,
            title,
            forensics=forensics_by_figure(plain),
            reliability=reliability_curves(chaos),
            congestion=congestion_curves(congestion),
            dynamics=flight_entries(results),
            statehash=statehash_entries(results),
        ),
        encoding="utf-8",
    )
    return figures
