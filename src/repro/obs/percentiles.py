"""Shared latency-percentile formatting.

One vocabulary (``p50``/``p95``/``p99``/``max``, the keys of both
:meth:`~repro.sim.results.RunResult.latency_percentiles`, which adds
``samples``, and :meth:`~repro.obs.forensics.StreamingHistogram.to_dict`,
which adds ``count`` and ``mean``) and two render styles:

* :func:`format_percentiles` — the compact one-liner printed by
  ``repro-net run --latencies``;
* :func:`percentile_table` — the aligned-column row used by the
  forensics digest (``repro-net run --forensics`` / ``analyze``).

Keeping both here means the CLI and the analyzers cannot drift apart on
which percentiles a "latency summary" contains.
"""

from __future__ import annotations

#: canonical percentile keys, in print order
PERCENTILE_KEYS = ("p50", "p95", "p99", "max")


def format_percentiles(pct: dict, unit: str = "cycles",
                       label: str = "latency percentiles") -> str:
    """Compact one-line summary of a percentile dict.

    ``{label} (N samples): p50=.. p95=.. p99=.. max=.. {unit}``
    """
    values = " ".join(f"{key}={pct[key]}" for key in PERCENTILE_KEYS)
    return f"{label} ({pct['samples']} samples): {values} {unit}"


def percentile_table(name: str, hist: dict, share: float | None = None) -> str:
    """One aligned table row of a percentile dict (forensics style).

    ``share`` renders as a percentage in a fixed-width cell; ``None``
    leaves the cell blank (the forensics digest's "network total" row).
    """
    cell = f"{share:>6.1%}" if share is not None else f"{'':>6}"
    return (
        f"  {name:<14} {cell}  mean {hist.get('mean', 0.0):>7.1f}  "
        f"p50 {hist.get('p50', 0):>5} p95 {hist.get('p95', 0):>5}  "
        f"p99 {hist.get('p99', 0):>5}  max {hist.get('max', 0):>5}"
    )
