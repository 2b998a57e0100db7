"""Kernel benchmark — batch kernels vs the scalar reference path.

Measures two things and writes both to ``BENCH_kernels.json``:

* **micro** — ops/sec of each batch kernel in :mod:`repro.core.kernels`
  against its scalar twin on paper-shaped inputs (one object's worth of
  instances, one node's worth of boxes);
* **end-to-end** — full NNC search wall time on the Figure 12 default A-N
  workload for each operator, run once with ``QueryContext(kernels=True)``
  and once with ``kernels=False``, asserting the candidate sets are
  identical and reporting the speedup;
* **obs** — observability overhead: the default context vs an explicit
  ``NullTracer`` (asserted within a 3% budget — tracing off must be free)
  and vs a fully enabled ``Tracer`` + ``MetricsRegistry`` (informational);
* **resilience** — resilience overhead: the default context vs one armed
  with a generous :class:`repro.resilience.Budget` (asserted within the
  same 3% budget — caps that never trip must be near-free).

``benchmarks/compare_bench.py`` diffs two result files and flags end-to-end
regressions (used by CI against the committed smoke baseline).

Run directly::

    PYTHONPATH=src python benchmarks/bench_kernels.py            # full (tiny scale)
    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke    # CI-sized
    PYTHONPATH=src python benchmarks/bench_kernels.py --scale small --out BENCH_kernels.json
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.core import kernels as K
from repro.core.context import QueryContext
from repro.core.nnc import NNCSearch
from repro.experiments import provenance
from repro.experiments.figures import build_dataset
from repro.experiments.params import SCALES, ExperimentParams
from repro.experiments.report import format_table, kernel_summary
from repro.geometry.halfspace import closer_to_query
from repro.geometry.mbr import MBR, mbr_dominates
from repro.stats.distribution import DiscreteDistribution
from repro.stats.stochastic import stochastic_leq

END_TO_END_KINDS = ("SSD", "SSSD", "PSD", "FSD")


def _time_ops(fn, *, repeats: int, min_time: float = 0.05) -> float:
    """Ops/sec of ``fn``: repeat until ``min_time`` seconds have elapsed."""
    fn()  # warm-up (and fail fast)
    done = 0
    t0 = time.perf_counter()
    while True:
        for _ in range(repeats):
            fn()
        done += repeats
        elapsed = time.perf_counter() - t0
        if elapsed >= min_time:
            return done / elapsed


def micro_benchmarks(*, repeats: int, rng: np.random.Generator) -> list[dict]:
    """Ops/sec of each kernel and its scalar twin on paper-shaped inputs."""
    m_u, m_q, d, n_boxes = 40, 30, 3, 16
    us = rng.uniform(0, 100, (m_u, d))
    qs = rng.uniform(0, 100, (m_q, d))
    los = rng.uniform(0, 90, (n_boxes, d))
    his = los + rng.uniform(1, 10, (n_boxes, d))
    boxes = [MBR(lo, hi) for lo, hi in zip(los, his)]
    q_mbr = MBR(qs.min(axis=0), qs.max(axis=0))
    v_mbr = boxes[0]
    x = DiscreteDistribution(np.sort(rng.uniform(0, 50, m_u * m_q)), None)
    y = DiscreteDistribution(np.sort(rng.uniform(1, 51, m_u * m_q)), None)
    du = K.distance_matrix(us, qs)
    dv = K.distance_matrix(us + 0.5, qs)
    u_stats = rng.uniform(0, 50, (64, 3))
    u_stats.sort(axis=1)  # (min, mean, max) rows
    v_stats = np.array([25.0, 30.0, 35.0])

    class _Scan:
        def count_comparisons(self, n: int) -> None:
            pass

    scan_counter = _Scan()  # forces the Python merge scan in stochastic_leq
    cases = [
        (
            "distance_matrix",
            lambda: K.distance_matrix(us, qs),
            lambda: K.distance_matrix_scalar(us, qs),
        ),
        (
            "cdf_dominates",
            lambda: K.cdf_dominates(x.values, x.probs, y.values, y.probs),
            lambda: stochastic_leq(x, y, counter=scan_counter),
        ),
        (
            "partition_bounds",
            lambda: K.partition_bounds(los, his, qs),
            lambda: [(b.mindist(q), b.maxdist(q)) for b in boxes for q in qs],
        ),
        (
            "mbr_dominance_mask",
            lambda: K.mbr_dominance_mask(los, his, v_mbr, q_mbr, strict=True),
            lambda: [mbr_dominates(b, v_mbr, q_mbr, strict=True) for b in boxes],
        ),
        (
            "halfspace_adjacency",
            lambda: K.halfspace_adjacency(du, dv),
            lambda: [[closer_to_query(u, v, qs) for v in us + 0.5] for u in us],
        ),
        (
            "statistic_prune",
            lambda: K.statistic_prune(u_stats, v_stats),
            lambda: [bool(np.all(row <= v_stats + 1e-9)) for row in u_stats],
        ),
    ]
    rows = []
    for name, kernel_fn, scalar_fn in cases:
        kernel_ops = _time_ops(kernel_fn, repeats=repeats)
        scalar_ops = _time_ops(scalar_fn, repeats=max(1, repeats // 10))
        rows.append(
            {
                "kernel": name,
                "kernel_ops_per_sec": kernel_ops,
                "scalar_ops_per_sec": scalar_ops,
                "speedup": kernel_ops / scalar_ops,
            }
        )
    return rows


def end_to_end(scale_name: str, *, rounds: int = 3) -> list[dict]:
    """Full NNC wall time per operator, kernels on vs off, identical outputs.

    Each mode is timed ``rounds`` times interleaved and the minimum total is
    reported, so the kernel/scalar ratio (what ``compare_bench.py`` gates on)
    is robust against scheduler jitter within a run.
    """
    params = ExperimentParams().scaled(SCALES[scale_name])
    rng = np.random.default_rng(params.seed)
    objects, queries = build_dataset("A-N", params, rng)
    search = NNCSearch(objects)
    rows = []
    for kind in END_TO_END_KINDS:
        # Warm object-level caches (local R-trees, packed node arrays) first:
        # they are shared dataset state, built once per dataset like the
        # paper's index, so neither mode pays their construction inside its
        # timed region.  Query contexts themselves stay cold below.
        for query in queries:
            search.run(query, kind, ctx=QueryContext(query, kernels=True))
        times = {True: float("inf"), False: float("inf")}
        oid_sets = {True: [], False: []}
        summaries = {}
        for round_no in range(rounds):
            for kernels in (True, False):
                total = 0.0
                oids = []
                for query in queries:
                    ctx = QueryContext(query, kernels=kernels)
                    t0 = time.perf_counter()
                    result = search.run(query, kind, ctx=ctx)
                    total += time.perf_counter() - t0
                    oids.append(frozenset(result.oids()))
                times[kernels] = min(times[kernels], total)
                oid_sets[kernels] = oids
                if round_no == 0:
                    summaries[kernels] = kernel_summary(ctx.counters)
        identical = oid_sets[True] == oid_sets[False]
        if not identical:
            raise AssertionError(
                f"{kind}: kernels=True and kernels=False candidate sets differ"
            )
        rows.append(
            {
                "operator": kind,
                "kernel_time": times[True],
                "scalar_time": times[False],
                "speedup": times[False] / times[True] if times[True] else 0.0,
                "identical_candidates": identical,
                "n_objects": len(objects),
                "n_queries": len(queries),
                "kernel_invocations": summaries[True]["kernel_invocations"],
                "elements_per_invocation": summaries[True][
                    "elements_per_invocation"
                ],
                "scalar_fallbacks": summaries[False]["scalar_fallbacks"],
            }
        )
    return rows


def obs_overhead(scale_name: str) -> dict:
    """Observability overhead on the end-to-end search (tracing off vs on).

    Tracing-off must be near-free: an untraced query pays one
    ``tracer.enabled`` attribute check per instrumentation site and nothing
    else.  The baseline (default context) and an explicit ``NullTracer``
    context are timed interleaved (min of 3 rounds each, robust against
    machine drift within the run) and asserted within a 3% + 2 ms budget of
    each other.  A fully enabled ``Tracer`` + ``MetricsRegistry`` run is
    reported informationally as ``overhead_enabled``.
    """
    from repro.obs import MetricsRegistry, NullTracer, Tracer

    params = ExperimentParams().scaled(SCALES[scale_name])
    rng = np.random.default_rng(params.seed)
    objects, queries = build_dataset("A-N", params, rng)
    search = NNCSearch(objects)
    kind = "PSD"
    for query in queries:  # warm shared dataset caches, as in end_to_end()
        search.run(query, kind, ctx=QueryContext(query))

    def run_all(make_ctx) -> float:
        t0 = time.perf_counter()
        for query in queries:
            search.run(query, kind, ctx=make_ctx(query))
        return time.perf_counter() - t0

    base = off = enabled = float("inf")
    for _ in range(3):
        base = min(base, run_all(QueryContext))
        off = min(off, run_all(lambda q: QueryContext(q, tracer=NullTracer())))
        enabled = min(
            enabled,
            run_all(
                lambda q: QueryContext(q, tracer=Tracer(), metrics=MetricsRegistry())
            ),
        )
    overhead_off = off / base - 1.0
    if off - base > 0.03 * base + 0.002:
        raise AssertionError(
            f"tracing-disabled overhead {overhead_off:.1%} exceeds the 3% budget "
            f"(baseline {base:.4f}s, null-tracer {off:.4f}s)"
        )
    return {
        "operator": kind,
        "n_queries": len(queries),
        "baseline_time": base,
        "null_tracer_time": off,
        "enabled_time": enabled,
        "overhead_disabled": overhead_off,
        "overhead_enabled": enabled / base - 1.0,
    }


def resilience_overhead(scale_name: str) -> dict:
    """Resilience overhead on the end-to-end search (disabled vs armed).

    Resilience-disabled must be near-free: an unbudgeted, unfaulted query
    pays one ``ctx.resilient`` attribute check per dominance check (the
    end-to-end section, gated by ``compare_bench.py`` against the committed
    baseline, catches any drift of that path).  Here the default context is
    timed against a context armed with a *generous* budget — caps far above
    what the workload spends, so nothing degrades and every checkpoint runs
    — and asserted within a 3% + 2 ms budget.
    """
    from repro.resilience import Budget

    params = ExperimentParams().scaled(SCALES[scale_name])
    rng = np.random.default_rng(params.seed)
    objects, queries = build_dataset("A-N", params, rng)
    search = NNCSearch(objects)
    kind = "PSD"
    for query in queries:  # warm shared dataset caches, as in end_to_end()
        search.run(query, kind, ctx=QueryContext(query))

    def run_all(make_ctx) -> float:
        t0 = time.perf_counter()
        for query in queries:
            search.run(query, kind, ctx=make_ctx(query))
        return time.perf_counter() - t0

    def generous_ctx(q):
        return QueryContext(
            q,
            budget=Budget(
                deadline_ms=600_000.0,
                max_dominance_checks=10**12,
                max_flow_augmentations=10**12,
            ),
        )

    disabled = armed = float("inf")
    for _ in range(3):
        disabled = min(disabled, run_all(QueryContext))
        armed = min(armed, run_all(generous_ctx))
    overhead_armed = armed / disabled - 1.0
    if armed - disabled > 0.03 * disabled + 0.002:
        raise AssertionError(
            f"budget-armed overhead {overhead_armed:.1%} exceeds the 3% budget "
            f"(disabled {disabled:.4f}s, armed {armed:.4f}s)"
        )
    return {
        "operator": kind,
        "n_queries": len(queries),
        "disabled_time": disabled,
        "armed_time": armed,
        "overhead_armed": overhead_armed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: fewer micro repeats, end-to-end at tiny scale",
    )
    parser.add_argument(
        "--scale",
        default=None,
        choices=sorted(SCALES),
        help="end-to-end workload scale (default: tiny; --smoke forces tiny)",
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_kernels.json"),
        help="output JSON path (default: repo-root BENCH_kernels.json)",
    )
    args = parser.parse_args(argv)
    scale = "tiny" if args.smoke else (args.scale or "tiny")
    repeats = 10 if args.smoke else 50
    rng = np.random.default_rng(20150531)
    micro = micro_benchmarks(repeats=repeats, rng=rng)
    e2e = end_to_end(scale)
    obs = obs_overhead(scale)
    resilience = resilience_overhead(scale)
    payload = provenance.stamp({
        "scale": scale,
        "smoke": args.smoke,
        "micro": micro,
        "end_to_end": e2e,
        "obs": obs,
        "resilience": resilience,
    })
    print(format_table(micro, "Micro kernels (ops/sec)"))
    print()
    print(format_table(e2e, f"End-to-end NNC, Fig 12 default A-N ({scale})"))
    print()
    print(format_table([obs], "Observability overhead (off asserted <3%)"))
    print()
    print(
        format_table(
            [resilience], "Resilience overhead (generous budget asserted <3%)"
        )
    )
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
