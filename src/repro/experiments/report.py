"""Plain-text rendering of experiment results.

The benchmark harness prints the same rows/series the paper's figures
plot; these helpers format them as aligned ASCII tables (also valid
markdown) so `pytest benchmarks/ --benchmark-only -s` doubles as a
readable reproduction report.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..metrics.cnf import CNFResult
from ..metrics.saturation import saturation_point
from .fig7 import Fig7Result


def render_table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "") -> str:
    """Align a list of rows under headers; floats get 3 decimals."""

    def fmt(v) -> str:
        if v is None:
            return "-"
        if isinstance(v, float):
            return f"{v:.3f}"
        # a literal | in a cell would split the markdown column
        return str(v).replace("|", "\\|")

    cells = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("-|-".join("-" * w for w in widths))
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_cnf(result: CNFResult) -> str:
    """Both CNF graphs of one experiment as tables, plus saturation points.

    Layout mirrors the paper's panels: one column of accepted bandwidth
    and one of latency per series, over the shared offered-load x-axis.
    """
    series = result.series
    loads = series[0].offered()
    headers = ["offered"]
    for s in series:
        headers += [f"acc[{s.label}]", f"lat[{s.label}]"]
    rows = []
    for i, load in enumerate(loads):
        row: list = [load]
        for s in series:
            p = s.points[i]
            row += [p.accepted, p.latency_cycles]
        rows.append(row)
    out = [render_table(headers, rows, title=result.title)]
    out.append("saturation points (fraction of capacity):")
    for s in series:
        out.append(f"  {s.label}: {saturation_point(s):.3f}")
    return "\n".join(out)


def render_comparison(result: Fig7Result) -> str:
    """The Figure-7 panels: absolute accepted traffic and latency.

    x-axis is the offered traffic in bits/ns of each configuration (they
    differ per series, exactly as in the paper's absolute plots), so the
    table keys rows by the underlying offered fraction and reports each
    series' own bits/ns values.
    """
    headers = ["offered_frac"]
    for s in result.series:
        headers += [f"acc_bits/ns[{s.label}]", f"lat_ns[{s.label}]"]
    npoints = len(result.series[0].points)
    rows = []
    fractions = result.series[0].sweep.offered()
    for i in range(npoints):
        row: list = [fractions[i]]
        for s in result.series:
            p = s.points[i]
            row += [round(p.accepted_bits_per_ns, 1), p.latency_ns]
        rows.append(row)
    out = [render_table(headers, rows, title=result.title)]
    out.append("saturation throughput (bits/ns):")
    for label, bits in result.saturation_summary().items():
        out.append(f"  {label}: {bits:.0f}")
    return "\n".join(out)


def render_ascii_plot(
    result: CNFResult,
    metric: str = "accepted",
    width: int = 60,
    height: int = 16,
) -> str:
    """Terminal scatter plot of one CNF graph (marker per series).

    Args:
        result: the experiment to plot.
        metric: ``"accepted"`` (bandwidth graph) or ``"latency"``.
    """
    if metric not in ("accepted", "latency"):
        raise ValueError(f"metric must be 'accepted' or 'latency', got {metric!r}")
    markers = "ox+*#@"
    points: list[tuple[float, float, str]] = []
    for i, series in enumerate(result.series):
        mark = markers[i % len(markers)]
        for p in series.points:
            y = p.accepted if metric == "accepted" else p.latency_cycles
            if y is not None:
                points.append((p.offered, y, mark))
    if not points:
        return f"{result.title}: no data"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = 0.0, max(ys) * 1.05 or 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y, mark in points:
        col = int((x - x0) / (x1 - x0 or 1) * (width - 1))
        row = height - 1 - int((y - y0) / (y1 - y0 or 1) * (height - 1))
        grid[row][col] = mark
    unit = "fraction of capacity" if metric == "accepted" else "cycles"
    lines = [f"{result.title} — {metric} ({unit})"]
    for r, row in enumerate(grid):
        label = f"{y1 - r * (y1 - y0) / (height - 1):8.2f} |"
        lines.append(label + "".join(row))
    lines.append(" " * 9 + "+" + "-" * width)
    lines.append(" " * 10 + f"{x0:.2f}" + " " * (width - 10) + f"{x1:.2f}")
    legend = "  ".join(
        f"{markers[i % len(markers)]}={s.label}" for i, s in enumerate(result.series)
    )
    lines.append(" " * 10 + "offered (fraction of capacity)   " + legend)
    return "\n".join(lines)


def render_delay_table(rows: list[dict], title: str) -> str:
    """Tables 1/2 rendering with the paper's printed values alongside."""
    headers = [
        "algorithm",
        "F",
        "P",
        "V",
        "T_routing",
        "T_crossbar",
        "T_link",
        "T_clock",
        "limiting",
        "paper (Tr, Tc, Tl, Tclk)",
    ]
    body = []
    for r in rows:
        body.append(
            [
                r["algorithm"],
                r["F"],
                r["P"],
                r["V"],
                r["T_routing"],
                r["T_crossbar"],
                r["T_link"],
                r["T_clock"],
                r["limiting"],
                str(r["paper"]),
            ]
        )
    return render_table(headers, body, title=title)
