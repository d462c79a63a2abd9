"""Stdlib-SVG and HTML rendering: the report layer's drawing primitives
and the forensics/flight figures built on them.

Pure string assembly, no plotting dependency.  Everything the package
writes as markup is assembled here, once:

* :func:`svg_open` — the ``<svg>`` opener every figure starts with;
* :func:`panel_pair` — two panels over one x axis in a single ``<svg>``,
  the CNF pair of the paper's Figures 5 and 6: a frame per side, one
  palette colour per curve, dashed reference marks;
* :func:`legend` — the colour key of a panel pair;
* :func:`table` — an HTML table from ``(header, format, class)`` columns;
* :func:`page` — the self-contained HTML page (the CSS lives here too).

:mod:`repro.obs.report` describes the scorecard and the divergence page
as data over these; ``repro-net analyze --out`` is a :func:`page` as well.

The figures of one forensics or flight document:

* :func:`hotspot_heatmap_svg` — per-switch congestion heatmap from the
  per-physical-link hotspot records.  Layout follows the topology: a
  k-ary n-tree renders as *levels × switches-per-level* (level 0, the
  leaf row, at the bottom — congestion on the paper's tree lives in the
  upper levels), a k-ary 2-cube as its natural k × k grid (16 × 16 for
  the paper's network).  Cell colour encodes the switch's share of the
  run's worst blocked-cycle total; hovering a cell shows exact counts.
* :func:`latency_breakdown_svg` — one stacked bar of the four latency
  components' shares plus a per-component percentile table
  (mean/p50/p95/p99/max) from the attribution histograms.
* :func:`flight_timeline_svg` — stacked sparkline panels over one
  flight-recorder document (:mod:`repro.obs.flight`): injection vs
  delivery rates, fabric occupancy, transport and control dynamics,
  with annotation stripes (fault strikes, first mark/decrease,
  collapse onset).

All three are embedded in the ``repro-net report`` scorecard next to the
CNF panels; ``repro-net analyze`` writes the first two as standalone
files (:func:`standalone_svg`).
"""

from __future__ import annotations

import html

from ..errors import AnalysisError

# -- primitives --------------------------------------------------------------

#: Okabe–Ito colour-blind-safe palette, cycled across the curves of a pair
_PALETTE = ("#0072B2", "#D55E00", "#009E73", "#CC79A7", "#E69F00", "#56B4E9")

#: panel geometry (one pair = two panels in a single <svg>)
_PANEL_W, _PANEL_H = 340, 230
_MARGIN_L, _MARGIN_T = 64, 30
_PANEL_GAP = 120
_SVG_W = _MARGIN_L + 2 * _PANEL_W + _PANEL_GAP + 30
_SVG_H = _MARGIN_T + _PANEL_H + 60


def _curve_color(index: int) -> str:
    """The palette colour of a pair's ``index``-th curve (and legend entry)."""
    return _PALETTE[index % len(_PALETTE)]


def svg_open(width: int, height: int) -> str:
    """The opening tag of a ``width`` × ``height`` figure."""
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}" role="img">'
    )


def fmt(value: float) -> str:
    """Short, locale-free coordinate/tick formatting."""
    return f"{value:.4g}"


class _Panel:
    """Maps data coordinates into one panel's SVG pixel box."""

    def __init__(self, x1: float, y1: float, left: float):
        self.x1, self.y1 = x1 or 1.0, y1 or 1.0
        self.left = left

    def x(self, v: float) -> float:
        return self.left + v / self.x1 * _PANEL_W

    def y(self, v: float) -> float:
        return _MARGIN_T + _PANEL_H - v / self.y1 * _PANEL_H

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
            xv, yv = frac * self.x1, frac * self.y1
            px, py = self.x(xv), self.y(yv)
            parts.append(
                f'<line x1="{px:.1f}" y1="{top}" x2="{px:.1f}" y2="{bottom}" class="grid"/>'
            )
            parts.append(
                f'<line x1="{self.left}" y1="{py:.1f}" x2="{right}" y2="{py:.1f}" class="grid"/>'
            )
            parts.append(
                f'<text x="{px:.1f}" y="{bottom + 16}" class="tick">{fmt(xv)}</text>'
            )
            parts.append(
                f'<text x="{self.left - 6}" y="{py + 4:.1f}" class="tick ylab">{fmt(yv)}</text>'
            )
        return parts

    def polyline(self, pts: list[tuple[float, float]], color: str, hover=None) -> list[str]:
        """One curve: connected point markers — or, with ``hover`` text, a
        bare line that shows it (a sampled time series has too many points
        to mark)."""
        if not pts:
            return []
        coords = " ".join(f"{self.x(x):.1f},{self.y(y):.1f}" for x, y in pts)
        if hover is not None:
            return [
                f'<polyline points="{coords}" class="curve" stroke="{color}">'
                f"<title>{html.escape(hover)}</title></polyline>"
            ]
        parts = []
        if len(pts) > 1:
            parts.append(f'<polyline points="{coords}" class="curve" stroke="{color}"/>')
        parts.extend(
            f'<circle cx="{self.x(x):.1f}" cy="{self.y(y):.1f}" r="2.6" fill="{color}"/>'
            for x, y in pts
        )
        return parts

    def mark(self, axis: str, value: float, color: str, text: str, hover: bool) -> list[str]:
        """A dashed reference line at ``value`` on ``axis`` (``"x"``: a
        vertical line), ``text`` printed beside it or shown on hover."""
        top, right = _MARGIN_T, self.left + _PANEL_W
        if axis == "x":
            px = self.x(value)
            ends = f'x1="{px:.1f}" y1="{top}" x2="{px:.1f}" y2="{top + _PANEL_H}"'
            label = f'<text x="{px:.1f}" y="{top + 12}" class="reftext" fill="{color}">'
        else:
            py = self.y(value)
            ends = f'x1="{self.left}" y1="{py:.1f}" x2="{right}" y2="{py:.1f}"'
            label = (
                f'<text x="{right - 4}" y="{py - 4:.1f}" class="reftext anchor-end" '
                f'fill="{color}">'
            )
        line = f'<line {ends} class="ref" stroke="{color}"'
        if hover:
            return [f"{line}><title>{html.escape(text)}</title></line>"]
        return [f"{line}/>", f"{label}{html.escape(text)}</text>"]


def panel_pair(x, left, right, curves, reach=((), (), ()), marks=(), hover=False) -> str:
    """Two panels over one x axis as a single ``<svg>``.

    ``x`` is ``(axis label, headroom, empty)``; ``left`` and ``right`` are
    ``(panel title, axis label, headroom, empty)``.  An axis runs from 0 to
    the largest value on it — drawn or marked — times ``headroom``, to
    ``empty`` when it carries nothing but zeros; ``reach`` lists what else
    the x, left and right axes must cover (a quantity measured but not
    drawn).

    ``curves`` is ``[(label, points, marks), ...]`` with points ``(x, left
    y, right y, ...)`` — a y of ``None`` is not drawn — each curve in the
    next palette colour, the order :func:`legend` keys.  A mark is
    ``(side, axis, value, text)``: a dashed line on panel ``side`` (0 left,
    1 right) at ``value`` of ``axis``, in its curve's colour; the pair's
    own ``marks`` are grey.  With ``hover``, curve labels and mark texts
    become hover text instead of point markers and print.
    """
    on_axes = [list(also) for also in reach]
    for side, axis, value, _ in [*marks, *(mark for _, _, own in curves for mark in own)]:
        on_axes[0 if axis == "x" else 1 + side].append(value)
    tops = []
    for axis, (*_, headroom, empty) in enumerate((x, left, right)):
        on_axis = [p[axis] for _, points, _ in curves for p in points if p[axis] is not None]
        top = max(on_axis + on_axes[axis], default=0.0)
        tops.append(top * headroom if top else empty)
    panels = [
        _Panel(tops[0], tops[1 + side], _MARGIN_L + side * (_PANEL_W + _PANEL_GAP))
        for side in (0, 1)
    ]
    parts = [svg_open(_SVG_W, _SVG_H)]
    for panel, (title, ylabel, _, _) in zip(panels, (left, right)):
        parts += panel.frame(title, x[0], ylabel)
    for index, (label, points, own) in enumerate(curves):
        color = _curve_color(index)
        for side, panel in enumerate(panels):
            drawn = [(p[0], p[1 + side]) for p in points if p[1 + side] is not None]
            parts += panel.polyline(drawn, color, label if hover else None)
        for side, axis, value, text in own:
            parts += panels[side].mark(axis, value, color, text, hover)
    for side, axis, value, text in marks:
        parts += panels[side].mark(axis, value, "#666", text, hover)
    parts.append("</svg>")
    return "\n".join(parts)


def legend(labels) -> str:
    """The colour key of a :func:`panel_pair` whose curves carry ``labels``."""
    swatches = "".join(
        f'<span><i class="swatch" style="background:{_curve_color(index)}"></i>'
        f"{html.escape(label)}</span>"
        for index, label in enumerate(labels)
    )
    return f'<p class="legend">{swatches}</p>'


def table(columns, rows) -> list[str]:
    """An HTML table, one line per row.

    ``columns`` are ``(header, format, class)`` over positional ``rows``:
    cell *i* is ``format`` — a function, or a ``str.format`` template
    that prints ``None`` as an em dash — applied to value *i* of the row,
    escaped, in a ``<td>`` of ``class``: a string (empty for none,
    ``"code"`` for a ``<code>`` cell) or a function of the value.
    """
    parts = [
        "<table>",
        "<tr>" + "".join(f"<th>{html.escape(h)}</th>" for h, _, _ in columns) + "</tr>",
    ]
    for row in rows:
        cells = []
        for value, (_, form, cls) in zip(row, columns):
            if callable(form):
                text = form(value)
            else:
                text = "—" if value is None else form.format(value)
            text = html.escape(text)
            if callable(cls):
                cls = cls(value)
            if cls == "code":
                cells.append(f"<td><code>{text}</code></td>")
            else:
                cells.append(f'<td class="{cls}">{text}</td>' if cls else f"<td>{text}</td>")
        parts.append("<tr>" + "".join(cells) + "</tr>")
    parts.append("</table>")
    return parts


def page(title: str, body: list[str]) -> str:
    """The self-contained HTML document: ``title`` as ``<title>`` and
    ``<h1>``, the stylesheet inline, then ``body`` line by line."""
    return "\n".join(
        [
            "<!DOCTYPE html>",
            '<html lang="en"><head><meta charset="utf-8"/>',
            f"<title>{html.escape(title)}</title>",
            f"<style>{_CSS}</style></head><body>",
            f"<h1>{html.escape(title)}</h1>",
            *body,
            "</body></html>",
        ]
    )


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

# -- forensics and flight figures ------------------------------------------------

#: Okabe–Ito colours for the four latency components (+ the total)
COMPONENT_COLORS = {
    "source_wait": "#0072B2",
    "routing_stall": "#E69F00",
    "blocked": "#D55E00",
    "transfer": "#009E73",
    "network_latency": "#555555",
}

#: heat ramp endpoints: white (cold) to Okabe–Ito vermilion (hot)
_COLD = (255, 255, 255)
_HOT = (213, 94, 0)


def _heat_color(frac: float) -> str:
    """Linear white→vermilion ramp over ``frac`` in [0, 1]."""
    frac = min(1.0, max(0.0, frac))
    r, g, b = (round(c + (h - c) * frac) for c, h in zip(_COLD, _HOT))
    return f"#{r:02x}{g:02x}{b:02x}"


def _switch_totals(hotspots: dict) -> dict[int, dict]:
    """Aggregate the per-link records per switch (sum over directions)."""
    totals: dict[int, dict] = {}
    for rec in hotspots.get("links", ()):
        s = rec["switch"]
        entry = totals.setdefault(s, {"blocked_cycles": 0, "flits": 0})
        entry["blocked_cycles"] += rec["blocked_cycles"]
        entry["flits"] += rec["flits"]
    return totals


def _grid_geometry(hotspots: dict) -> tuple[int, int, list[tuple[int, int, int]]]:
    """(cols, rows, [(switch, col, row)]) for the network's natural grid."""
    network = hotspots.get("network")
    k = hotspots.get("k") or 1
    n = hotspots.get("n") or 1
    num_switches = hotspots.get("num_switches") or 0
    if not num_switches:
        raise AnalysisError("hotspot document carries no switches to draw")
    cells = []
    if network == "tree":
        # one row per level; level 0 (the leaf row) rendered at the bottom
        per_level = max(1, num_switches // max(1, n))
        cols, rows = per_level, n
        for s in range(num_switches):
            level = s // per_level
            cells.append((s, s % per_level, rows - 1 - level))
    else:
        # cube: k columns; n=2 gives the natural k x k grid, n=1 one row
        cols = k
        rows = (num_switches + cols - 1) // cols
        for s in range(num_switches):
            cells.append((s, s % cols, s // cols))
    return cols, rows, cells


def hotspot_heatmap_svg(
    hotspots: dict, metric: str = "blocked_cycles", title: str | None = None
) -> str:
    """The per-switch congestion heatmap as one standalone ``<svg>``.

    Args:
        hotspots: the ``hotspots`` section of a forensics document.
        metric: ``"blocked_cycles"`` (congestion, default) or
            ``"flits"`` (utilization).
        title: heading inside the SVG (defaults to a metric description).

    Raises:
        AnalysisError: when the document describes no switches.
    """
    cols, rows, cells = _grid_geometry(hotspots)
    totals = _switch_totals(hotspots)
    peak = max((t[metric] for t in totals.values()), default=0)

    cell = max(8, min(30, 640 // cols))
    pad, top = 34, 40
    width = pad + cols * cell + 14
    height = top + rows * cell + 16
    label = title or (
        f"{hotspots.get('network', '?')} link hotspots — {metric.replace('_', ' ')} "
        f"per switch (peak {peak})"
    )
    parts = [
        svg_open(width, height),
        f'<text x="{pad}" y="16" class="ptitle" text-anchor="start">'
        f"{html.escape(label)}</text>",
    ]
    if hotspots.get("network") == "tree":
        for row in range(rows):
            level = rows - 1 - row
            parts.append(
                f'<text x="{pad - 6}" y="{top + row * cell + cell / 2 + 3:.0f}" '
                f'class="tick ylab">lvl {level}</text>'
            )
    for s, col, row in cells:
        entry = totals.get(s, {"blocked_cycles": 0, "flits": 0})
        value = entry[metric]
        frac = value / peak if peak else 0.0
        x, y = pad + col * cell, top + row * cell
        tooltip = (
            f"switch {s}: {entry['blocked_cycles']} blocked cycles, "
            f"{entry['flits']} flits"
        )
        parts.append(
            f'<rect x="{x}" y="{y}" width="{cell - 1}" height="{cell - 1}" '
            f'fill="{_heat_color(frac)}" stroke="#ccc" stroke-width="0.5">'
            f"<title>{html.escape(tooltip)}</title></rect>"
        )
    parts.append("</svg>")
    return "\n".join(parts)


def latency_breakdown_svg(attribution: dict, title: str | None = None) -> str:
    """The latency-breakdown panel: stacked component bar + percentiles.

    Args:
        attribution: the ``attribution`` section of a forensics document.
        title: heading inside the SVG.

    Raises:
        AnalysisError: when the document recorded no packets.
    """
    # not at the top: ``import repro`` loads this module for the scorecard's
    # primitives, and should not load the forensics probes for one tuple
    from .forensics import COMPONENTS

    packets = attribution.get("packets", 0)
    if not packets:
        raise AnalysisError("attribution document holds no delivered packets")
    shares = attribution.get("share", {})
    components = attribution.get("components", {})

    bar_x, bar_y, bar_w, bar_h = 20, 34, 560, 24
    row_h, table_y = 17, bar_y + bar_h + 24
    names = list(COMPONENTS) + ["network_latency"]
    width = bar_x + bar_w + 20
    height = table_y + (len(names) + 1) * row_h + 12
    label = title or (
        f"latency attribution — {packets} packets "
        f"({attribution.get('pattern', '?')} traffic)"
    )
    parts = [
        svg_open(width, height),
        f'<text x="{bar_x}" y="16" class="ptitle" text-anchor="start">'
        f"{html.escape(label)}</text>",
    ]
    x = float(bar_x)
    for name in COMPONENTS:
        share = shares.get(name, 0.0)
        w = share * bar_w
        if w > 0:
            parts.append(
                f'<rect x="{x:.1f}" y="{bar_y}" width="{w:.1f}" height="{bar_h}" '
                f'fill="{COMPONENT_COLORS[name]}">'
                f"<title>{html.escape(name)}: {share:.1%}</title></rect>"
            )
            if w > 46:
                parts.append(
                    f'<text x="{x + w / 2:.1f}" y="{bar_y + bar_h - 8}" '
                    f'class="barlabel">{share:.0%}</text>'
                )
        x += w
    cols = (160, 250, 320, 390, 460, 530)
    header = ("component", "mean", "p50", "p95", "p99", "max")
    parts += [
        f'<text x="{cx}" y="{table_y}" class="tick" text-anchor="end">'
        f"{html.escape(h)}</text>"
        for cx, h in zip(cols, header)
    ]
    for i, name in enumerate(names):
        hist = components.get(name, {})
        y = table_y + (i + 1) * row_h
        color = COMPONENT_COLORS.get(name, "#555")
        parts.append(
            f'<rect x="{bar_x}" y="{y - 9}" width="9" height="9" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{cols[0]}" y="{y}" class="tick" text-anchor="end">'
            f"{html.escape(name.replace('_', ' '))}</text>"
        )
        values = (
            f"{hist.get('mean', 0.0):.1f}",
            str(hist.get("p50", 0)),
            str(hist.get("p95", 0)),
            str(hist.get("p99", 0)),
            str(hist.get("max", 0)),
        )
        parts += [
            f'<text x="{cx}" y="{y}" class="tick" text-anchor="end">{v}</text>'
            for cx, v in zip(cols[1:], values)
        ]
    parts.append("</svg>")
    return "\n".join(parts)


#: annotation stripe colours by kind (anything else renders grey)
_ANNOTATION_COLORS = {
    "fault_strike": "#D55E00",
    "fault_repair": "#009E73",
    "first_mark": "#E69F00",
    "first_decrease": "#0072B2",
    "collapse_onset": "#000000",
    "stall": "#CC79A7",
}

#: flight timeline panels: (title, ((series key, colour, per-cycle), ...))
#: gated on the layer flags; per-cycle series are divided by the row span
_FLIGHT_PANELS = (
    (None, "rates (flits/cycle)", (
        ("offered", "#555555", True),
        ("injected", "#0072B2", True),
        ("delivered", "#009E73", True),
    )),
    (None, "fabric (occupancy, blocked)", (
        ("occupancy", "#E69F00", False),
        ("blocked", "#D55E00", True),
    )),
    ("transport", "transport (outstanding, retx)", (
        ("outstanding", "#0072B2", False),
        ("retx", "#D55E00", False),
    )),
    ("control", "control (cwnd, marks)", (
        ("cwnd_mean", "#0072B2", False),
        ("cwnd_min", "#56B4E9", False),
        ("marks", "#D55E00", False),
    )),
)


def flight_timeline_svg(doc: dict, title: str | None = None, width: int = 640) -> str:
    """A flight-recorder timeline as one standalone ``<svg>``.

    Stacked sparkline panels sharing the cycle axis — injection/delivery
    rates, fabric occupancy, and (when the run carried them) transport
    and control-loop dynamics.  Each series is normalized to its own
    peak (the hover tooltip carries the exact peak), so panels mixing
    units stay readable; annotations render as vertical stripes coloured
    by kind, with the collapse onset dashed.

    Args:
        doc: a flight document (``telemetry.flight`` /
            :meth:`~repro.obs.flight.FlightRecorder.document`).
        title: heading inside the SVG.

    Raises:
        AnalysisError: when the document holds no sampled intervals.
    """
    series = doc.get("series", {})
    cycles = series.get("cycle") or []
    if not cycles:
        raise AnalysisError("flight document holds no sampled intervals")
    spans = series.get("span") or [1] * len(cycles)
    layers = doc.get("layers", {})
    panels = [
        (heading, keys)
        for layer, heading, keys in _FLIGHT_PANELS
        if layer is None or layers.get(layer)
    ]

    pad, right, top = 40, 10, 24
    panel_h, head_h, gap = 52, 16, 12
    plot_w = width - pad - right
    xmax = max(cycles[-1], 1)
    height = top + len(panels) * (head_h + panel_h + gap) + 14
    label = title or (
        f"flight timeline — {doc.get('rows', len(cycles))} intervals, "
        f"stride {doc.get('stride', doc.get('interval', '?'))} cycles"
    )
    parts = [
        svg_open(width, height),
        f'<text x="{pad}" y="15" class="ptitle" text-anchor="start">'
        f"{html.escape(label)}</text>",
    ]

    def x_of(cycle: int) -> float:
        return pad + plot_w * cycle / xmax

    y = top
    for heading, keys in panels:
        y += head_h
        legend = []
        parts.append(
            f'<rect x="{pad}" y="{y}" width="{plot_w}" height="{panel_h}" '
            f'fill="none" stroke="#ddd" stroke-width="0.5"/>'
        )
        for key, color, per_cycle in keys:
            values = series.get(key)
            if values is None:
                continue
            points = [
                v / (spans[i] or 1) if per_cycle else float(v)
                for i, v in enumerate(values)
            ]
            peak = max(points)
            scale = peak if peak > 0 else 1.0
            coords = " ".join(
                f"{x_of(cycles[i]):.1f},{y + panel_h - panel_h * p / scale:.1f}"
                for i, p in enumerate(points)
            )
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.3"><title>{html.escape(key)}: peak '
                f"{peak:.2f}{'/cycle' if per_cycle else ''}</title></polyline>"
            )
            legend.append(f'<tspan fill="{color}">{html.escape(key)}</tspan>')
        parts.append(
            f'<text x="{pad}" y="{y - 4}" class="tick" text-anchor="start">'
            f"{html.escape(heading)}   " + "  ".join(legend) + "</text>"
        )
        y += panel_h + gap

    plot_top, plot_bot = top + head_h, y - gap
    for ann in doc.get("annotations", ()):
        kind = ann.get("kind", "?")
        ax = x_of(min(ann.get("cycle", 0), xmax))
        color = _ANNOTATION_COLORS.get(kind, "#888888")
        dash = ' stroke-dasharray="4 3"' if kind == "collapse_onset" else ""
        tooltip = f"{kind} @ {ann.get('cycle', '?')}"
        if ann.get("detail"):
            tooltip += f": {ann['detail']}"
        parts.append(
            f'<line x1="{ax:.1f}" y1="{plot_top}" x2="{ax:.1f}" y2="{plot_bot}" '
            f'stroke="{color}" stroke-width="1" opacity="0.7"{dash}>'
            f"<title>{html.escape(tooltip)}</title></line>"
        )
    parts.append(
        f'<text x="{pad}" y="{height - 4}" class="tick" text-anchor="start">0</text>'
    )
    parts.append(
        f'<text x="{pad + plot_w}" y="{height - 4}" class="tick" '
        f'text-anchor="end">{xmax:,} cycles</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


#: minimal inline CSS for standalone SVG files (the scorecard's page CSS
#: covers these classes when embedded there)
_STANDALONE_CSS = (
    "<style>"
    ".ptitle { font: 600 12px system-ui, sans-serif; }"
    ".tick { font: 10px system-ui, sans-serif; fill: #444; }"
    ".ylab { text-anchor: end; }"
    ".barlabel { font: 600 10px system-ui, sans-serif; fill: #fff;"
    " text-anchor: middle; }"
    "</style>"
)


def standalone_svg(svg: str) -> str:
    """Inject the inline stylesheet so the SVG renders outside the
    scorecard page (e.g. the file ``repro-net analyze --heatmap``
    writes, viewed directly in a browser)."""
    head, sep, tail = svg.partition(">")
    return head + sep + _STANDALONE_CSS + tail
