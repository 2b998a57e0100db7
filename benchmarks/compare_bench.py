"""Diff two ``bench_kernels.py`` result files and flag ratio regressions.

Compares the end-to-end section per operator on the kernel/scalar time
ratio, ``kernel_time / scalar_time``.  The ratio is machine-independent:
both times come from the same run on the same box, so it survives CI-runner
vs laptop comparisons.  It answers "did the kernels lose their edge over the
scalar reference?"  A current ratio more than 15% above the baseline's is a
regression.

The ratio is scale-sensitive, so a baseline/current ``scale`` mismatch is a
usage error.

Exit codes: 0 ok, 1 regression, 2 usage error (missing or invalid file,
scale mismatch).

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke --out /tmp/now.json
    PYTHONPATH=src python benchmarks/compare_bench.py \
        benchmarks/results/BENCH_smoke_baseline.json /tmp/now.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

THRESHOLD = 0.15


def load_bench(path: str | Path) -> dict:
    """Load one ``bench_kernels.py`` payload, validating the shape."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data.get("end_to_end"), list):
        raise ValueError(f"{path}: not a bench_kernels result (no end_to_end)")
    return data


def _ratio(row: dict) -> float | None:
    scalar = float(row.get("scalar_time", 0.0))
    return float(row["kernel_time"]) / scalar if scalar else None


def compare(baseline: dict, current: dict) -> tuple[list[dict], list[str]]:
    """Per-operator comparison rows plus the list of regression messages.

    A regression is a current ratio more than :data:`THRESHOLD` (relative)
    above the baseline's.  Operators present in only one file are reported
    but never flagged.
    """
    base_rows = {row["operator"]: row for row in baseline["end_to_end"]}
    cur_rows = {row["operator"]: row for row in current["end_to_end"]}
    rows: list[dict] = []
    regressions: list[str] = []
    for op in list(base_rows) + [op for op in cur_rows if op not in base_rows]:
        base_val = _ratio(base_rows[op]) if op in base_rows else None
        cur_val = _ratio(cur_rows[op]) if op in cur_rows else None
        row = {"operator": op, "baseline": base_val, "current": cur_val}
        if base_val is not None and cur_val is not None and base_val > 0:
            change = cur_val / base_val - 1.0
            row["change"] = f"{change:+.1%}"
            if change > THRESHOLD:
                regressions.append(
                    f"{op}: ratio {base_val:.4g} -> {cur_val:.4g} "
                    f"({change:+.1%} > {THRESHOLD:.0%} threshold)"
                )
        else:
            row["change"] = "-"
        rows.append(row)
    return rows, regressions


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; see the module docstring for exit codes."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline bench_kernels JSON")
    parser.add_argument("current", help="current bench_kernels JSON")
    args = parser.parse_args(argv)
    try:
        baseline = load_bench(args.baseline)
        current = load_bench(args.current)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    base_scale = baseline.get("scale")
    cur_scale = current.get("scale")
    if base_scale != cur_scale:
        print(
            f"error: scale mismatch: baseline={base_scale!r} "
            f"current={cur_scale!r} — end-to-end ratios are not comparable "
            "across workload scales",
            file=sys.stderr,
        )
        return 2

    from repro.experiments.report import format_table

    rows, regressions = compare(baseline, current)
    print(format_table(rows, f"End-to-end ratio vs baseline (threshold {THRESHOLD:.0%})"))
    if regressions:
        print()
        for msg in regressions:
            print(f"REGRESSION {msg}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
