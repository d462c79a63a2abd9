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

The module has two halves.  The data half reads
:class:`~repro.sim.results.RunResult` objects and emits no markup:
:func:`paper_reference`, :func:`figures_from_results`,
:func:`partition_results`, the campaign curves
(:func:`reliability_curves`, :func:`congestion_curves`) and the per-tier
entry pickers (:func:`forensics_by_figure`, :func:`flight_entries`,
:func:`statehash_entries`).  The rendering half reads no run: each
section of the scorecard is a :class:`_Section` — heading, blurb, panel
pair and ``(header, format, class)`` table columns — laid over the
drawing primitives of :mod:`repro.obs.heatmap`; to add a panel, add one
spec and the rows it is drawn from (DESIGN.md, *Report layer*).

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
from ..sim.results import (
    RunResult,
    mean_goodput_fraction,
    mean_retransmit_overhead,
    total_dropped,
    total_given_up,
    worst_p99,
)
from .heatmap import (
    flight_timeline_svg,
    fmt,
    hotspot_heatmap_svg,
    latency_breakdown_svg,
    legend,
    page,
    panel_pair,
    table,
)


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


def _documents(results: list[RunResult], tier: str):
    """``(result, document)`` of every run whose telemetry carries a
    document of observer ``tier`` (``"forensics"``, ``"flight"``, ...)."""
    for result in results:
        doc = getattr(result.telemetry, tier, None)
        if doc:
            yield result, doc


def forensics_by_figure(results: list[RunResult]) -> dict[str, tuple[str, dict]]:
    """Pick one forensics document per scorecard figure.

    Runs instrumented with the forensics tier carry the document on
    their telemetry; for each (network, shape, pattern) figure the run
    at the highest offered load wins — congestion forensics are most
    informative where the network is closest to saturation.  Returns
    ``figure title -> (run label, forensics document)``.
    """
    chosen: dict[str, tuple[float, str, dict]] = {}
    for result, doc in _documents(results, "forensics"):
        c = result.config
        title = _figure_title(c.network, c.k, c.n, c.pattern)
        load = c.load
        prev = chosen.get(title)
        if prev is None or load > prev[0]:
            label = f"{_series_label(c.algorithm, c.vcs)}, load {load:g}"
            chosen[title] = (load, label, doc)
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


def _campaign_groups(results: list[RunResult], tag: str, variant: tuple, axis: str):
    """Campaign runs — those with a ``tag`` recipe on
    ``telemetry.reliability`` — as curves: ``[(key, [(x, runs), ...]),
    ...]``, one key per (network, k, n, algorithm, vcs, the recipe's
    ``variant`` fields) with its runs grouped by ``recipe[axis]``, both
    levels sorted."""
    groups: dict[tuple, dict[float, list[RunResult]]] = {}
    for result in results:
        recipe = (getattr(result.telemetry, "reliability", None) or {}).get(tag)
        if recipe is None:
            continue
        c = result.config
        key = (c.network, c.k, c.n, c.algorithm, c.vcs, *(recipe[name] for name in variant))
        groups.setdefault(key, {}).setdefault(recipe[axis], []).append(result)
    return [(key, sorted(by_x.items())) for key, by_x in sorted(groups.items())]


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
    curve; within it every fault rate averages its load grid — the means
    :func:`repro.experiments.chaos.degradation_rows` prints campaign-side
    (:mod:`repro.sim.results`), taken here over the ledger's runs so the
    scorecard needs only run documents.
    """
    curves = []
    for key, rates in _campaign_groups(results, "storm", ("repair_cycles",), "fault_rate"):
        network, k, n, algorithm, vcs, repair = key
        label = f"{network} {k}-ary {n}-dim, {_series_label(algorithm, vcs)}"
        if repair:
            label += f", repair {repair} cyc"
        points = [
            (
                rate,
                mean_goodput_fraction(runs),
                mean_retransmit_overhead(runs),
                total_given_up(runs),
                total_dropped(runs),
            )
            for rate, runs in rates
        ]
        curves.append(ReliabilityCurve(label, points))
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
    points: list[tuple[float, float, float | None, int]] = field(default_factory=list)


def congestion_curves(results: list[RunResult]) -> list[CongestionCurve]:
    """Aggregate overload runs into congestion-collapse curves.

    Runs sharing (network, shape, algorithm, vcs, mode, arbiter) form
    one curve; within it every saturation factor averages its seeds.
    Open- and closed-loop sweeps of the same shape therefore render as
    two curves over one axis — the collapse comparison the campaign
    exists to make.
    """
    curves = []
    for key, factors in _campaign_groups(results, "overload", ("mode", "arbiter"), "factor"):
        network, k, n, algorithm, vcs, mode, arbiter = key
        label = (
            f"{network} {k}-ary {n}-dim, {_series_label(algorithm, vcs)}, "
            f"{mode} loop ({arbiter})"
        )
        points = [
            (factor, mean_goodput_fraction(runs), worst_p99(runs), total_given_up(runs))
            for factor, runs in factors
        ]
        curves.append(CongestionCurve(label, mode, points))
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
    for result, doc in _documents(results, "flight"):
        c = result.config
        shape = f"{c.network} {c.k}-ary {c.n}-dim"
        rel = getattr(result.telemetry, "reliability", None) or {}
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
            chosen[key] = (rank, label, doc)
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
    for result, doc in _documents(results, "statehash"):
        c = result.config
        label = (
            f"{c.network} {c.k}-ary {c.n}-dim, {c.pattern}, "
            f"{_series_label(c.algorithm, c.vcs)}, load {c.load:g}, "
            f"seed {c.seed}"
        )
        entries.append((label, doc))
    entries.sort(key=lambda e: e[0])
    return entries


# -- rendering: the pages as data over the primitives of repro.obs.heatmap ---------


@dataclass(frozen=True)
class _Section:
    """One scorecard section as data: heading, blurb (HTML), a panel pair
    (``x``, ``left``, ``right``, ``marks`` and ``hover`` are
    :func:`~repro.obs.heatmap.panel_pair`'s) and a table (``columns`` are
    :func:`~repro.obs.heatmap.table`'s), either of which may be absent."""

    heading: str = ""
    blurb: str = ""
    x: tuple | None = None
    left: tuple = ()
    right: tuple = ()
    marks: tuple = ()
    hover: bool = False
    columns: tuple = ()


def _section(spec, curves=(), rows=(), heading=None, reach=((), (), ())) -> list[str]:
    """``spec`` over its data: ``curves`` and ``reach`` go to the panel
    pair (and the curves' labels to its legend), ``rows`` fill the table."""
    parts = [f"<h2>{html.escape(heading or spec.heading)}</h2>"]
    if spec.blurb:
        parts.append(f'<p class="muted">{spec.blurb}</p>')
    if spec.x is not None:
        parts.append(legend([label for label, _, _ in curves]))
        parts.append(
            panel_pair(spec.x, spec.left, spec.right, curves, reach, spec.marks, spec.hover)
        )
    if rows:
        parts += table(spec.columns, rows)
    return parts


def _fidelity_class(score: float | None) -> str:
    if score is None:
        return "muted"
    if score >= 0.9:
        return "good"
    if score >= 0.7:
        return "warn"
    return "bad"


def _warn_unless_zero(count: int) -> str:
    return "num warn" if count else "num"


#: the summary table: one row per series of every figure
_SUMMARY = (
    ("figure", "{}", ""),
    ("series", "{}", ""),
    ("paper ref", "{}", lambda ref: "muted" if ref is None else ""),
    ("saturation (paper)", "{:.3f}", lambda sat: "num muted" if sat is None else "num"),
    ("saturation (measured)", "{:.3f}", "num"),
    ("fidelity", lambda score: "unscored" if score is None else f"{score:.0%}", _fidelity_class),
)

#: the CNF pair of the paper's Figures 5 and 6 (headed by the figure's title)
_CNF = _Section(
    x=("offered (fraction of capacity)", 1.05, 1.0),
    left=("accepted bandwidth", "accepted (fraction)", 1.1, 1.0),
    right=("network latency", "latency (cycles)", 1.1, 1.0),
)

_RELIABILITY = _Section(
    heading="Reliability under fail-stop fault storms",
    blurb=(
        "Randomized fail-stop link faults destroy in-flight "
        "worms; the source-side reliable transport recovers them by timeout "
        "and retransmission.  Goodput counts first-copy payload only; each "
        "point averages a chaos campaign's offered-load grid."
    ),
    x=("fault rate (fraction of channels)", 1.1, 0.25),
    left=("end-to-end goodput", "goodput (fraction of capacity)", 1.15, 1.0),
    right=("retransmit overhead", "retransmitted / injected", 1.15, 0.1),
    columns=(
        ("configuration", "{}", ""),
        ("fault rate", "{:.2f}", "num"),
        ("goodput", "{:.3f}", "num"),
        ("retransmit overhead", "{:.1%}", "num"),
        ("given up", "{}", _warn_unless_zero),
        ("dropped", "{}", "num"),
    ),
)

#: the x axis is offered load in saturation multiples, so open- and
#: closed-loop curves of any shape share one frame, with the paper's
#: saturation point at exactly 1.0 (dashed marker)
_COLLAPSE = _Section(
    heading="Congestion collapse past saturation",
    blurb=(
        "Overload campaigns drive the network past the "
        "paper's saturation load.  Open loop, the reliable transport "
        "retransmits blindly and goodput collapses while tail latency "
        "grows; closed loop, hot-link marking and per-destination AIMD "
        "windows throttle injection at the source — graceful degradation "
        "instead of collapse.  Goodput counts first-copy payload only."
    ),
    x=("offered load (× saturation)", 1.05, 1.0),
    left=("goodput past saturation", "goodput (fraction of capacity)", 1.15, 1.0),
    right=("tail latency", "p99 latency (cycles)", 1.1, 1.0),
    marks=((0, "x", 1.0, "saturation"), (1, "x", 1.0, "saturation")),
    columns=(
        ("configuration", "{}", ""),
        ("× saturation", "{:.2f}", "num"),
        ("goodput", "{:.3f}", "num"),
        ("p99 latency", "{:.0f}", "num"),
        ("given up", "{}", _warn_unless_zero),
    ),
)

#: one curve per flight entry over the shared cycle axis; for an
#: open-vs-closed overload pair this is the collapse contrast in the time
#: domain — the open loop's delivered rate sagging under a growing backlog
#: while the closed loop's stays level
_DYNAMICS = _Section(
    heading="Dynamics (flight recorder)",
    blurb=(
        "Bounded multi-layer time series sampled during "
        "flight-instrumented runs: injection and delivery rates, fabric "
        "occupancy, transport retransmissions and congestion-window "
        "dynamics on one cycle axis.  Dashed markers stamp annotated "
        "events — fault strikes, the first ECN mark and window decrease, "
        "and the collapse onset (sustained delivery shortfall against the "
        "offered rate)."
    ),
    x=("cycle", 1.0, 1.0),
    left=("delivery rate", "delivered (flits/cycle)", 1.1, 1.1),
    right=("source backlog", "queued flits", 1.1, 1.1),
    hover=True,
    columns=(
        ("run", "{}", ""),
        ("annotation", "{}", lambda kind: "warn" if kind in ("collapse_onset", "stall") else "num"),
        ("cycle", "{}", "num"),
        ("detail", "{}", ""),
    ),
)

#: runs sharing a genesis (identical full config, seed included) are
#: replica groups: matching chain heads render as a reproducibility check
#: mark, a mismatch flags a divergence for ``repro diff``
_AUDIT = _Section(
    heading="State-digest audit",
    blurb=(
        "Bounded Merkle-style chains of per-interval "
        "state roots (lanes, credits, routing, injection queues, "
        "transport windows, RNG positions).  Two runs of one recipe must "
        "agree on every root; <code>repro diff</code> bisects any "
        "mismatch to the exact first divergent cycle."
    ),
    columns=(
        ("run", "{}", ""),
        ("genesis (config digest)", "{}", "code"),
        ("samples", "{}", "num"),
        ("stride", "{}", "num"),
        ("final root", "{}", "code"),
        ("chain head", "{}", "code"),
        ("replicas", "{}", {"consistent": "good", "diverged": "bad"}.get),
    ),
)

_DIFF_SIDES = (
    ("side", "{}", ""),
    ("label", "{}", ""),
    ("config", "{}", "code"),
    ("seed", "{}", "num"),
    ("samples", "{}", "num"),
    ("stride", "{}", "num"),
    ("chain head", "{}", "code"),
)

_DIFF_FINDINGS = (
    ("subsystem", "{}", ""),
    ("location", "{}", ""),
    ("lane", "{}", ""),
    ("field", "{}", "code"),
    ("a", "{}", "code"),
    ("b", "{}", "code"),
)


def _cnf_section(fig: ScorecardFigure) -> list[str]:
    """One figure: a curve per series, the paper's saturation point (and
    latency plateau) as marks in the series' colour.  The bandwidth axis
    also covers the measured offered load and the paper's saturation
    loads (accepted meets offered there)."""
    curves = []
    for series in fig.series:
        marks = []
        ref = fig.refs.get(series.label)
        if ref is not None:
            marks.append((0, "x", ref.saturation, f"paper {fmt(ref.saturation)}"))
            if ref.latency_presat is not None:
                marks.append((1, "y", ref.latency_presat, f"paper ≈{fmt(ref.latency_presat)}"))
        points = [(p.offered, p.accepted, p.latency_cycles) for p in series.points]
        curves.append((series.label, points, marks))
    sats = [ref.saturation for ref in fig.refs.values()]
    offered = [p.offered_measured for series in fig.series for p in series.points]
    return _section(_CNF, curves, heading=fig.title, reach=((), offered + sats, ()))


def _campaign_section(spec: _Section, curves) -> list[str]:
    """A campaign's curves (``label`` and ``points``): every point is drawn
    and is a row of the table."""
    return _section(
        spec,
        [(curve.label, curve.points, ()) for curve in curves],
        [(curve.label, *point) for curve in curves for point in curve.points],
    )


def _dynamics_section(entries: list[tuple[str, dict]]) -> list[str]:
    """The flight-recorder panel: delivery rate and source backlog per
    sampled interval (the rate axis also covers the offered rate),
    annotations as marks on the rate panel and rows of the table, then one
    stacked timeline per run."""
    traces, offered = [], []
    for label, doc in entries:
        series = doc.get("series", {})
        cycles = series.get("cycle") or []
        spans = series.get("span") or [1] * len(cycles)
        rates = {
            key: [v / (spans[i] or 1) for i, v in enumerate(series.get(key) or ())]
            for key in ("offered", "delivered")
        }
        offered += rates["offered"]
        backlog = series.get("backlog") or [None] * len(cycles)
        traces.append((label, doc, list(zip(cycles, rates["delivered"], backlog))))
    x_hi = max((points[-1][0] for _, _, points in traces if points), default=0)
    curves, rows = [], []
    for label, doc, points in traces:
        marks = []
        for ann in doc.get("annotations", ()):
            kind, cycle = ann.get("kind", "?"), ann.get("cycle", "?")
            marks.append((0, "x", min(ann.get("cycle", 0), x_hi), f"{label}: {kind} @ {cycle}"))
            rows.append((label, kind, cycle, str(ann.get("detail") or "")))
        curves.append((label, points, marks))
    parts = _section(_DYNAMICS, curves, rows, reach=((), offered, ()))
    for label, doc in entries:
        parts.append(f"<h3>flight timeline ({html.escape(label)})</h3>")
        parts.append(flight_timeline_svg(doc))
    return parts


def _audit_section(entries: list[tuple[str, dict]]) -> list[str]:
    """The state-digest audit panel: one chain summary row per run."""
    heads: dict[str, set[str]] = {}
    for _, doc in entries:
        heads.setdefault(doc["genesis"], set()).add(doc["chain_head"])
    return _section(
        _AUDIT,
        rows=[
            (
                label,
                doc["genesis"],
                doc["entries"],
                doc["stride"],
                doc["roots"][-1] if doc["roots"] else None,
                doc["chain_head"],
                "diverged" if len(heads[doc["genesis"]]) > 1 else "consistent",
            )
            for label, doc in entries
        ],
    )


def _forensics_section(label: str, doc: dict) -> list[str]:
    """The latency-breakdown + hotspot-heatmap panels for one figure."""
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


def render_diff_html(doc: dict, title: str = "Divergence report") -> str:
    """Self-contained HTML for one ``repro diff`` outcome document."""
    if doc["identical"]:
        body = [
            '<p class="good">IDENTICAL over '
            f"{doc['compared_entries']} common sampled cycles</p>"
        ]
    else:
        body = [
            '<p class="bad">DIVERGED — first divergent interval ends cycle '
            f"{doc['first_divergent_interval_cycle']}, subsystems: "
            f"{html.escape(', '.join(doc['subsystems_divergent']) or '?')}</p>"
        ]
    body += table(
        _DIFF_SIDES,
        [
            (
                key, side["label"], side["config_hash"], side["seed"],
                side["entries"], side["stride"], side["chain_head"],
            )
            for key, side in (("a", doc["a"]), ("b", doc["b"]))
        ],
    )
    for note in doc["notes"]:
        body.append(f'<p class="muted">{html.escape(note)}</p>')
    bisection = doc.get("bisection")
    if bisection is not None:
        status = bisection["status"]
        if status == "exact":
            body.append(
                f"<h2>Bisected to cycle {bisection['cycle']}</h2>"
                f'<p>Divergent subsystems at that cycle: '
                f"{html.escape(', '.join(bisection.get('subsystems', [])) or 'root only')}"
                "</p>"
            )
        else:
            body.append(f'<h2>Bisection: <span class="warn">{html.escape(status)}</span></h2>')
    if doc["findings"]:
        body += table(
            _DIFF_FINDINGS,
            [
                (
                    f["subsystem"], str(f["location"] or ""), str(f["lane"] or ""),
                    f["path"], repr(f["a"]), repr(f["b"]),
                )
                for f in doc["findings"]
            ],
        )
        if doc["findings_dropped"]:
            body.append(
                f'<p class="muted">… {doc["findings_dropped"]} more differing '
                "fields (raise --max-findings to see them)</p>"
            )
    return page(title, body)


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
    if scored:
        overall = sum(scored) / len(scored)
        body = [
            f'<p>Overall fidelity <span class="{_fidelity_class(overall)}">'
            f"{overall:.0%}</span> over {len(scored)} paper-referenced "
            "figure(s); fidelity is 1 − relative saturation-point error "
            "vs the paper.</p>"
        ]
    else:
        body = [
            '<p class="muted">No series matches a paper-reported '
            "configuration, so no fidelity score is available; curves are "
            "rendered unscored.</p>"
        ]
    summary = []
    for fig in figures:
        for series in fig.series:
            ref = fig.refs.get(series.label)
            summary.append(
                (
                    fig.title,
                    series.label,
                    ref and ref.figure,
                    ref and ref.saturation,
                    fig.saturation[series.label],
                    fig.fidelity[series.label] if ref else None,
                )
            )
    body += table(_SUMMARY, summary)
    for fig in figures:
        body += _cnf_section(fig)
        extra = (forensics or {}).get(fig.title)
        if extra is not None:
            body += _forensics_section(*extra)
    if reliability:
        body += _campaign_section(_RELIABILITY, reliability)
    if congestion:
        body += _campaign_section(_COLLAPSE, congestion)
    if dynamics:
        body += _dynamics_section(dynamics)
    if statehash:
        body += _audit_section(statehash)
    return page(title, body)


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
