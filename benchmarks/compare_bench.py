"""Diff two benchmark result files and flag regressions.

Understands two payload shapes, auto-detected from the JSON:

* **kernels** (``bench_kernels.py``, has ``end_to_end``) — compares the
  end-to-end section per operator.  Two comparison metrics::

      --metric ratio   kernel_time / scalar_time per operator (default).
                       Machine-independent: both times come from the same
                       run on the same box, so the ratio survives CI-runner
                       vs laptop comparisons.  It answers "did the kernels
                       lose their edge over the scalar reference?"
      --metric time    absolute kernel_time.  Only meaningful when baseline
                       and current ran on comparable hardware.

* **serve** (``bench_serve.py``, has ``shard_scaling``) — gates on the
  machine-independent numbers: per-K ``speedup_vs_1`` (both runs normalise
  against their own K=1, so core counts cancel out of the comparison) and
  the cache ``hit_ratio``; a false ``equal`` flag (sharded answer diverged
  from the monolith) in the *current* file is always a hard failure, as is
  a non-zero ``observability.degraded_rate`` (the bench workload carries
  no budgets, so a degraded answer is a serve-path correctness problem).
  When the payload has a ``router`` section, two more gates apply: a
  non-zero ``router.answer_mismatches`` (router answers diverged from the
  single-process oracle) is a hard failure, and the hedge-win ratio is
  gated like the other gauges — with the same loud one-core skip, since
  queueing on one core trips the hedge threshold for scheduling reasons.
  ``--metric`` is ignored for serve payloads.

All metrics are scale-sensitive, so a baseline/current ``scale`` mismatch
downgrades the run to informational (warn, exit 0) unless ``--strict`` makes
it a hard error.  A kernels/serve kind mismatch is a usage error.

Exit codes: 0 ok / informational, 1 regression, 2 usage or strict-mode
scale mismatch.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke --out /tmp/now.json
    PYTHONPATH=src python benchmarks/compare_bench.py \
        benchmarks/results/BENCH_smoke_baseline.json /tmp/now.json
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke --out /tmp/serve.json
    PYTHONPATH=src python benchmarks/compare_bench.py \
        benchmarks/results/BENCH_serve_smoke_baseline.json /tmp/serve.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_THRESHOLD = 0.15


def load_bench(path: str | Path) -> dict:
    """Load one benchmark payload (kernels or serve), validating the shape."""
    data = json.loads(Path(path).read_text())
    if isinstance(data.get("end_to_end"), list):
        return data
    if isinstance(data.get("shard_scaling"), list):
        return data
    raise ValueError(
        f"{path}: neither a bench_kernels result (no end_to_end) nor a "
        "bench_serve result (no shard_scaling)"
    )


def bench_kind(data: dict) -> str:
    """``"serve"`` for bench_serve payloads, ``"kernels"`` otherwise."""
    return "serve" if "shard_scaling" in data else "kernels"


def _metric_value(row: dict, metric: str) -> float | None:
    if metric == "time":
        return float(row["kernel_time"])
    scalar = float(row.get("scalar_time", 0.0))
    return float(row["kernel_time"]) / scalar if scalar else None


def compare(
    baseline: dict,
    current: dict,
    *,
    metric: str = "ratio",
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[list[dict], list[str]]:
    """Per-operator comparison rows plus the list of regression messages.

    A regression is a current metric value more than ``threshold`` (relative)
    above the baseline's.  Operators present in only one file are reported
    but never flagged.
    """
    base_rows = {row["operator"]: row for row in baseline["end_to_end"]}
    cur_rows = {row["operator"]: row for row in current["end_to_end"]}
    rows: list[dict] = []
    regressions: list[str] = []
    for op in list(base_rows) + [op for op in cur_rows if op not in base_rows]:
        base_val = (
            _metric_value(base_rows[op], metric) if op in base_rows else None
        )
        cur_val = _metric_value(cur_rows[op], metric) if op in cur_rows else None
        row = {"operator": op, "baseline": base_val, "current": cur_val}
        if base_val is not None and cur_val is not None and base_val > 0:
            change = cur_val / base_val - 1.0
            row["change"] = f"{change:+.1%}"
            if change > threshold:
                regressions.append(
                    f"{op}: {metric} {base_val:.4g} -> {cur_val:.4g} "
                    f"({change:+.1%} > {threshold:.0%} threshold)"
                )
        else:
            row["change"] = "-"
        rows.append(row)
    return rows, regressions


def compare_serve(
    baseline: dict,
    current: dict,
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[list[dict], list[str]]:
    """Serve-payload comparison rows plus regression messages.

    Gated metrics are machine-independent: per-K ``speedup_vs_1`` (each run
    is normalised against its own K=1) and the cache ``hit_ratio``.  Both
    are higher-is-better, so a regression is a *drop* beyond ``threshold``.
    A false ``equal`` flag in the current file — the sharded answer diverged
    from the single-process one — is flagged unconditionally.

    On a single-core runner (current ``meta.cpu_count == 1``) the speedup
    gate is skipped — with one core every parallel backend time-slices
    serial work plus scatter overhead, so ``speedup_vs_1`` measures the
    machine, not the code.  The skip is loud (a ``SKIPPED`` row per gate),
    and the correctness gates (``equal``, ``degraded_rate``) still apply.
    """
    rows: list[dict] = []
    regressions: list[str] = []
    one_core = (current.get("meta") or {}).get("cpu_count") == 1

    def _gauge(name: str, base_val, cur_val) -> None:
        row = {"metric": name, "baseline": base_val, "current": cur_val}
        if base_val is not None and cur_val is not None and base_val > 0:
            change = cur_val / base_val - 1.0
            row["change"] = f"{change:+.1%}"
            if change < -threshold:
                regressions.append(
                    f"{name}: {base_val:.4g} -> {cur_val:.4g} "
                    f"({change:+.1%} < -{threshold:.0%} threshold)"
                )
        else:
            row["change"] = "-"
        rows.append(row)

    base_rows = {row["shards"]: row for row in baseline["shard_scaling"]}
    cur_rows = {row["shards"]: row for row in current["shard_scaling"]}
    for shards in sorted(set(base_rows) | set(cur_rows)):
        cur = cur_rows.get(shards)
        if cur is not None and not cur.get("equal", True):
            regressions.append(
                f"K={shards}: sharded answer diverged from the monolith "
                "(equal=false) — correctness, not perf"
            )
        if shards == 1:
            continue  # speedup_vs_1 is 1.0 by construction
        base = base_rows.get(shards)
        if one_core:
            print(
                f"SKIPPED speedup gate [K={shards}]: current run recorded "
                "cpu_count=1 — parallel speedup is unmeasurable on one "
                "core; correctness gates still apply"
            )
            rows.append({
                "metric": f"speedup_vs_1[K={shards}]",
                "baseline": base.get("speedup_vs_1") if base else None,
                "current": cur.get("speedup_vs_1") if cur else None,
                "change": "SKIPPED (cpu_count=1)",
            })
            continue
        _gauge(
            f"speedup_vs_1[K={shards}]",
            base.get("speedup_vs_1") if base else None,
            cur.get("speedup_vs_1") if cur else None,
        )
    _gauge(
        "cache.hit_ratio",
        baseline.get("cache", {}).get("hit_ratio"),
        current.get("cache", {}).get("hit_ratio"),
    )
    cur_router = current.get("router")
    if cur_router is not None:
        base_router = baseline.get("router") or {}
        mismatches = cur_router.get("answer_mismatches")
        rows.append(
            {
                "metric": "router.answer_mismatches",
                "baseline": base_router.get("answer_mismatches"),
                "current": mismatches,
                "change": "-",
            }
        )
        if mismatches:
            # The router must be bit-identical to the monolith — a single
            # divergent answer is a correctness failure, not a perf one.
            regressions.append(
                f"router.answer_mismatches: {mismatches} != 0 — router "
                "answers diverged from the single-process oracle"
            )
        cur_ratio = (cur_router.get("hedging") or {}).get("hedge_win_ratio")
        base_ratio = (base_router.get("hedging") or {}).get(
            "hedge_win_ratio"
        )
        if one_core:
            # With one core every request queues past the hedge threshold,
            # so hedges fire for scheduling reasons, not slow replicas —
            # the ratio measures the machine.  Same loud skip as the
            # speedup gates; the mismatch gate above still applies.
            print(
                "SKIPPED hedge-win gate: current run recorded cpu_count=1 "
                "— queueing delay trips the hedge threshold on one core; "
                "the answer-mismatch gate still applies"
            )
            rows.append({
                "metric": "router.hedge_win_ratio",
                "baseline": base_ratio,
                "current": cur_ratio,
                "change": "SKIPPED (cpu_count=1)",
            })
        else:
            _gauge("router.hedge_win_ratio", base_ratio, cur_ratio)

    cur_obs = current.get("observability")
    if cur_obs is not None:
        degraded = cur_obs.get("degraded_rate")
        rows.append(
            {
                "metric": "observability.degraded_rate",
                "baseline": (baseline.get("observability") or {}).get(
                    "degraded_rate"
                ),
                "current": degraded,
                "change": "-",
            }
        )
        if degraded:
            # The bench workload is unbudgeted: any degraded answer means
            # the serve path degraded spontaneously — correctness, not perf.
            regressions.append(
                f"observability.degraded_rate: {degraded:.4g} != 0 on an "
                "unbudgeted workload"
            )
    return rows, regressions


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; see the module docstring for exit codes."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline BENCH_*.json")
    parser.add_argument("current", help="current BENCH_*.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="relative regression budget (default 0.15 = 15%%)",
    )
    parser.add_argument(
        "--metric",
        choices=["ratio", "time"],
        default="ratio",
        help="ratio = kernel_time/scalar_time (machine-independent, default); "
        "time = absolute kernel_time",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail (exit 2) on a baseline/current scale mismatch instead of "
        "downgrading to informational",
    )
    args = parser.parse_args(argv)
    try:
        baseline = load_bench(args.baseline)
        current = load_bench(args.current)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    kind = bench_kind(current)
    if bench_kind(baseline) != kind:
        print(
            f"error: kind mismatch: baseline is {bench_kind(baseline)}, "
            f"current is {kind}",
            file=sys.stderr,
        )
        return 2

    informational = False
    base_scale = baseline.get("scale")
    cur_scale = current.get("scale")
    if base_scale != cur_scale:
        msg = (
            f"scale mismatch: baseline={base_scale!r} current={cur_scale!r} — "
            "end-to-end numbers are not comparable across workload scales"
        )
        if args.strict:
            print(f"error: {msg}", file=sys.stderr)
            return 2
        print(f"warning: {msg}; comparison is informational only", file=sys.stderr)
        informational = True

    if kind == "serve":
        rows, regressions = compare_serve(
            baseline, current, threshold=args.threshold
        )
        title = f"Serve scaling vs baseline (threshold {args.threshold:.0%}"
    else:
        rows, regressions = compare(
            baseline, current, metric=args.metric, threshold=args.threshold
        )
        title = (
            f"End-to-end {args.metric} vs baseline "
            f"(threshold {args.threshold:.0%}"
        )
    from repro.experiments.report import format_table

    title += ", informational)" if informational else ")"
    print(format_table(rows, title))
    if regressions:
        print()
        for msg in regressions:
            print(f"REGRESSION {msg}", file=sys.stderr)
        if not informational:
            return 1
        print("(ignored: scale mismatch)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
