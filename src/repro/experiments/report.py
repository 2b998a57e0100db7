"""Plain-text rendering of experiment tables.

Benchmarks and examples print their regenerated figure rows through
:func:`format_table`, so the output mirrors the series the paper plots.
"""

from __future__ import annotations

from typing import Sequence


def format_table(rows: Sequence[dict], title: str | None = None) -> str:
    """Render dict rows as an aligned ASCII table.

    Column order follows the first row's key order; missing values render
    as ``-``.
    """
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns = list(rows[0].keys())
    for row in rows[1:]:
        for key in row:
            if key not in columns:
                columns.append(key)
    table = [[_fmt(row.get(col, "-")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in table))
        for i, col in enumerate(columns)
    ]
    header = " | ".join(col.ljust(w) for col, w in zip(columns, widths))
    rule = "-+-".join("-" * w for w in widths)
    body = "\n".join(
        " | ".join(cell.ljust(w) for cell, w in zip(line, widths)) for line in table
    )
    out = f"{header}\n{rule}\n{body}"
    if title:
        out = f"{title}\n{out}"
    return out


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def kernel_summary(counters) -> dict:
    """Kernel-vs-scalar usage summary of one run (``repro.core.kernels``).

    Args:
        counters: a :class:`repro.core.counters.Counters` (or any object with
            a ``snapshot()``), or an already-snapshotted plain dict.

    Returns:
        Dict with ``kernel_invocations``, ``kernel_elements``, the mean
        ``elements_per_invocation`` (batch granularity — the rough vectorised
        work per interpreter round-trip) and ``scalar_fallbacks``.
    """
    snap = counters.snapshot() if hasattr(counters, "snapshot") else dict(counters)
    invocations = int(snap.get("kernel_invocations", 0))
    elements = int(snap.get("kernel_elements", 0))
    return {
        "kernel_invocations": invocations,
        "kernel_elements": elements,
        "elements_per_invocation": elements / invocations if invocations else 0.0,
        "scalar_fallbacks": int(snap.get("scalar_fallbacks", 0)),
    }


def kernel_summary_table(stats: dict) -> str:
    """Render per-operator kernel summaries from workload stats.

    Args:
        stats: mapping of operator name to
            :class:`repro.experiments.harness.WorkloadStats` (the return
            shape of :func:`repro.experiments.harness.evaluate_workload`).
    """
    rows = [
        {"operator": name, **kernel_summary(ws.counters)}
        for name, ws in stats.items()
    ]
    return format_table(rows, "Kernel utilisation")
