"""Kernel benchmark — batch kernels vs the scalar reference path.

Measures these sections and writes them to ``BENCH_kernels.json``:

* **micro** — ops/sec of each batch kernel in :mod:`repro.core.kernels`
  against its scalar twin on paper-shaped inputs (one object's worth of
  instances, one node's worth of boxes);
* **end-to-end** — full NNC search wall time on the Figure 12 default A-N
  workload for each operator, run once with ``QueryContext(kernels=True)``
  and once with ``kernels=False``, asserting the candidate sets are
  identical and reporting the speedup;
* **obs** — observability overhead: the default context vs an explicit
  ``NullTracer`` (asserted within a 3% budget plus the rounds' noise band
  — tracing off must be free; :func:`paired_overhead`) and vs a fully
  enabled ``Tracer`` + ``MetricsRegistry`` (informational);
* **resilience** — resilience overhead: the default context vs one armed
  with a generous :class:`repro.resilience.Budget` (asserted within the
  same 3% budget — caps that never trip must be near-free);
* **serve** — serving overhead: ``ServeApp.dispatch`` vs
  ``DatasetManager.query`` on the same queries (asserted within the same
  3% budget — the request path around a search must be near-free).

The three overhead gates share one rule (:func:`overhead_gate`).
``benchmarks/compare_bench.py`` diffs two result files and flags end-to-end
ratio regressions (used by CI against the committed smoke baseline).

Run directly::

    PYTHONPATH=src python benchmarks/bench_kernels.py            # full (tiny scale)
    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke    # CI-sized
    PYTHONPATH=src python benchmarks/bench_kernels.py --scale small --out BENCH_kernels.json
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np

from repro.core import kernels as K
from repro.core.context import QueryContext
from repro.core.nnc import NNCSearch
from repro.experiments import provenance
from repro.experiments.figures import build_dataset
from repro.experiments.params import SCALES, ExperimentParams, Scale
from repro.experiments.report import format_table, kernel_summary
from repro.geometry.halfspace import closer_to_query
from repro.geometry.mbr import MBR, mbr_dominates
from repro.stats.distribution import DiscreteDistribution
from repro.stats.stochastic import stochastic_leq

END_TO_END_KINDS = ("SSD", "SSSD", "PSD", "FSD")

#: An overhead gate fails when the gated run costs more than this share of
#: its base run, plus the noise band of that share.
OVERHEAD_BUDGET = 0.03
#: Paired rounds behind an overhead gate: at least the first; then 20 more at
#: a time while the noise band is wider than the budget, up to the second.
GATE_ROUNDS = (21, 201)
#: The serve gate's workload: A-N, n = 200, m_d = 4, m_q = 2, d = 2 and 8
#: queries per round.  Dispatch costs the same per request at any scale.
SERVE_SCALE = Scale("serve", n_factor=0.002, m_factor=0.1, q_factor=0.07, n_queries=8)


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


def interleaved(runs: dict, rounds: int) -> dict[str, list[float]]:
    """Seconds of each ``runs`` callable, once per round, alternating order.

    Odd rounds run the callables in reverse, so a drift in host speed over
    the run lands on every side alike.
    """
    names = list(runs)
    times: dict[str, list[float]] = {name: [] for name in names}
    for round_no in range(rounds):
        for name in names if round_no % 2 == 0 else names[::-1]:
            times[name].append(runs[name]())
    return times


def paired_overhead(base: list[float], other: list[float]) -> dict:
    """Median paired overhead of ``other`` over ``base``, with its noise band.

    ``base[i]`` and ``other[i]`` ran back to back in round ``i``, so the
    round's ratio ``other[i] / base[i] - 1`` cancels the host speed the two
    shared.  The band is two standard errors of the median ratio,
    ``1.2533 * sigma / sqrt(n)``, with ``sigma`` estimated robustly as the
    ratios' interquartile range over 1.349.
    """
    ratios = [o / b - 1.0 for b, o in zip(base, other)]
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    return {
        "overhead": statistics.median(ratios),
        "band": 2 * 1.2533 * (q3 - q1) / 1.349 / math.sqrt(len(ratios)),
        "rounds": len(ratios),
    }


def overhead_gate(
    name: str, base, other, *, extra: dict | None = None
) -> tuple[dict, dict[str, list[float]]]:
    """Time ``other`` against ``base`` in paired rounds; fail past the budget.

    ``base`` and ``other`` are callables returning seconds.  They run in
    :func:`interleaved` rounds, ``GATE_ROUNDS[0]`` to start with (``extra``
    callables ride along in those, for informational numbers); while the
    noise band of :func:`paired_overhead` is wider than
    :data:`OVERHEAD_BUDGET`, 20 more rounds of the pair run, up to
    ``GATE_ROUNDS[1]``.  Raises :class:`AssertionError` when the median paired
    overhead passes the budget plus its band.  Returns the verdict and every
    run's times, keyed ``"base"``, ``"other"`` and by ``extra``'s names.
    """
    first, most = GATE_ROUNDS
    pair = {"base": base, "other": other}
    times = interleaved({**pair, **(extra or {})}, first)
    verdict = paired_overhead(times["base"], times["other"])
    while verdict["band"] > OVERHEAD_BUDGET and verdict["rounds"] < most:
        for key, more in interleaved(pair, 20).items():
            times[key] += more
        verdict = paired_overhead(times["base"], times["other"])
    if verdict["overhead"] > OVERHEAD_BUDGET + verdict["band"]:
        raise AssertionError(
            f"{name} overhead {verdict['overhead']:.1%} exceeds the "
            f"{OVERHEAD_BUDGET:.0%} budget plus its noise band "
            f"{verdict['band']:.1%} (median paired overhead over "
            f"{verdict['rounds']} rounds)"
        )
    return verdict, times


def end_to_end(scale_name: str, *, rounds: int = 9) -> list[dict]:
    """Full NNC wall time per operator, kernels on vs off, identical outputs.

    Each mode is timed ``rounds`` times in interleaved rounds, the order
    alternating per round, and the minimum total is reported, so the
    kernel/scalar ratio (what ``compare_bench.py`` gates on) is robust
    against scheduler jitter and host drift within a run.
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
        oid_sets = {}
        summaries = {}

        def timed(kernels: bool) -> float:
            total = 0.0
            oids = []
            for query in queries:
                ctx = QueryContext(query, kernels=kernels)
                t0 = time.perf_counter()
                result = search.run(query, kind, ctx=ctx)
                total += time.perf_counter() - t0
                oids.append(frozenset(result.oids()))
            oid_sets[kernels] = oids
            if kernels not in summaries:
                summaries[kernels] = kernel_summary(ctx.counters)
            return total

        runs = interleaved(
            {True: lambda: timed(True), False: lambda: timed(False)}, rounds
        )
        times = {kernels: min(runs[kernels]) for kernels in runs}
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
                "rounds": rounds,
            }
        )
    return rows


def obs_overhead(scale_name: str) -> dict:
    """Observability overhead on the end-to-end search (tracing off vs on).

    Tracing-off must be near-free: an untraced query pays one
    ``tracer.enabled`` attribute check per instrumentation site and nothing
    else.  The baseline (default context) is gated against an explicit
    ``NullTracer`` context by :func:`overhead_gate`; a fully enabled
    ``Tracer`` + ``MetricsRegistry`` context rides along in the first
    rounds, and its overhead is reported informationally as
    ``overhead_enabled``.
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

    off, times = overhead_gate(
        "tracing-disabled",
        lambda: run_all(QueryContext),
        lambda: run_all(lambda q: QueryContext(q, tracer=NullTracer())),
        extra={
            "enabled": lambda: run_all(
                lambda q: QueryContext(q, tracer=Tracer(), metrics=MetricsRegistry())
            ),
        },
    )
    return {
        "operator": kind,
        "n_queries": len(queries),
        "rounds": off["rounds"],
        "baseline_time": statistics.median(times["base"]),
        "null_tracer_time": statistics.median(times["other"]),
        "enabled_time": statistics.median(times["enabled"]),
        "overhead_disabled": off["overhead"],
        "noise_band": off["band"],
        "overhead_enabled": paired_overhead(
            times["base"][: len(times["enabled"])], times["enabled"]
        )["overhead"],
    }


def resilience_overhead(scale_name: str) -> dict:
    """Resilience overhead on the end-to-end search (disabled vs armed).

    Resilience-disabled must be near-free: an unbudgeted, unfaulted query
    pays one ``ctx.resilient`` attribute check per dominance check (the
    end-to-end section, gated by ``compare_bench.py`` against the committed
    baseline, catches any drift of that path).  Here :func:`overhead_gate`
    times the default context against a context armed with a *generous*
    budget — caps far above what the workload spends, so nothing degrades
    and every checkpoint runs.
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

    armed, times = overhead_gate(
        "budget-armed", lambda: run_all(QueryContext), lambda: run_all(generous_ctx)
    )
    return {
        "operator": kind,
        "n_queries": len(queries),
        "rounds": armed["rounds"],
        "disabled_time": statistics.median(times["base"]),
        "armed_time": statistics.median(times["other"]),
        "overhead_armed": armed["overhead"],
        "noise_band": armed["band"],
    }


def serve_overhead() -> dict:
    """Serving overhead: ``ServeApp.dispatch`` vs ``DatasetManager.query``.

    A default app (no cache, sampling and profiler off) over a two-shard
    serial manager answers the :data:`SERVE_SCALE` F-SD queries, sent as
    ``"cache": false``; the same manager's ``query`` answers the same
    queries directly.  Protocol decode, admission, metrics, SLO accounting
    and the response body must be near-free next to the search:
    :func:`overhead_gate` times the two.  The served answers are asserted
    equal to the direct ones first.
    """
    from repro.serve.server import ServeApp
    from repro.serve.updates import DatasetManager

    params = ExperimentParams(d=2).scaled(SERVE_SCALE)
    rng = np.random.default_rng(params.seed)
    objects, queries = build_dataset("A-N", params, rng)
    kind = "FSD"
    manager = DatasetManager(objects, shards=2)
    app = ServeApp(manager)
    payloads = [
        {
            "points": q.points.tolist(),
            "probs": q.probs.tolist(),
            "operator": kind,
            "cache": False,
        }
        for q in queries
    ]
    try:
        for query, payload in zip(queries, payloads):
            status, body = app.dispatch("POST", "/query", payload)
            direct = manager.query(query, kind)[0].oids()
            if status != 200 or [c["oid"] for c in body["candidates"]] != direct:
                raise AssertionError(
                    f"served answer {status} {body} differs from the manager's {direct}"
                )

        def direct_all() -> float:
            t0 = time.perf_counter()
            for query in queries:
                manager.query(query, kind)
            return time.perf_counter() - t0

        def served_all() -> float:
            t0 = time.perf_counter()
            for payload in payloads:
                app.dispatch("POST", "/query", payload)
            return time.perf_counter() - t0

        served, times = overhead_gate("serve-dispatch", direct_all, served_all)
    finally:
        app.close()
    return {
        "operator": kind,
        "n_objects": len(objects),
        "n_queries": len(queries),
        "shards": 2,
        "rounds": served["rounds"],
        "query_time": statistics.median(times["base"]),
        "dispatch_time": statistics.median(times["other"]),
        "overhead_dispatch": served["overhead"],
        "noise_band": served["band"],
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
    serve = serve_overhead()
    payload = provenance.stamp({
        "scale": scale,
        "smoke": args.smoke,
        "micro": micro,
        "end_to_end": e2e,
        "obs": obs,
        "resilience": resilience,
        "serve": serve,
    })
    print(format_table(micro, "Micro kernels (ops/sec)"))
    print()
    print(format_table(e2e, f"End-to-end NNC, Fig 12 default A-N ({scale})"))
    print()
    print(format_table([obs], "Observability overhead (off asserted <3% + noise band)"))
    print()
    print(format_table([resilience], "Resilience overhead (armed asserted <3% + noise band)"))
    print()
    print(format_table([serve], "Serve overhead (dispatch asserted <3% + noise band)"))
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
