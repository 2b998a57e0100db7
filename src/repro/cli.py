"""Command-line interface.

``python -m repro <command>``:

* ``search``   — generate (or load) a dataset and run the NN candidates
  search with a chosen operator, printing the candidates progressively.
* ``figures``  — build registered figures (the paper's Figures 10-16 and
  the live-snapshot views): print each table, write CSV + Vega-Lite specs
  and a self-contained dashboard (see :mod:`repro.experiments.registry`).
* ``report``   — regenerate every paper figure and write the Markdown
  report.
* ``generate`` — synthesise a dataset to a ``.npz`` file for reuse.
* ``serve``    — serve NNC queries over HTTP (sharded, cached, dynamic
  updates; see :mod:`repro.serve`).
* ``router``   — the same HTTP API scatter-gathered over remote node
  servers (see :mod:`repro.serve.router`).
* ``client``   — query / mutate a running server from the shell.
* ``replay``   — re-execute a serve audit log against a dataset and verify
  every recorded answer digest (see :mod:`repro.serve.audit`).
* ``info``     — library / configuration summary.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np


def _add_search(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("search", help="run an NN candidates search")
    p.add_argument("--operator", default="PSD",
                   choices=["SSD", "SSSD", "PSD", "FSD", "F+SD"])
    p.add_argument("--dataset", help=".npz dataset (from `generate`)")
    p.add_argument("--n", type=int, default=500, help="synthetic object count")
    p.add_argument("--m", type=int, default=10, help="instances per object")
    p.add_argument("--d", type=int, default=2, help="dimensionality")
    p.add_argument("--k", type=int, default=1, help="k-NN candidates (k-skyband)")
    p.add_argument("--metric", default="euclidean",
                   choices=["euclidean", "manhattan", "chebyshev"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quiet", action="store_true", help="summary only")
    p.add_argument("--trace", metavar="PATH",
                   help="record spans and write a trace file "
                   "(.jsonl = flat event log, else Chrome trace JSON "
                   "for chrome://tracing / ui.perfetto.dev)")
    p.add_argument("--trace-format", choices=["chrome", "jsonl"],
                   help="override the trace format inferred from the suffix")
    p.add_argument("--metrics", metavar="PATH",
                   help="collect metrics and write them "
                   "(.json = JSON dump, else Prometheus text format)")
    p.add_argument("--breakdown", action="store_true",
                   help="print the per-span comparison-count breakdown "
                   "(Figure 16 style; implies tracing) and, for degraded "
                   "runs, the full degradation report")
    p.add_argument("--deadline-ms", type=float, metavar="MS",
                   help="wall-clock budget; on exhaustion the search "
                   "degrades to a certified superset (exit code 3)")
    p.add_argument("--max-dominance-checks", type=int, metavar="N",
                   help="cap on dominance checks (degrades like "
                   "--deadline-ms)")
    p.add_argument("--max-flow-augmentations", type=int, metavar="N",
                   help="cap on P-SD max-flow augmentation iterations; "
                   "interrupted flow checks fall back to conservative "
                   "non-dominance")
    p.add_argument("--on-invalid", choices=["strict", "repair", "skip"],
                   help="validate input objects: strict rejects the dataset "
                   "(exit code 2), repair fixes what it can, skip "
                   "quarantines dirty objects")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="json prints one machine-readable document "
                   "(candidates + dominator counts + counters + "
                   "degradation) instead of the progressive text output")
    p.add_argument("--explain", action="store_true",
                   help="run through the serving-layer instrumentation and "
                   "print the per-stage cost breakdown (Figure 16 for this "
                   "one query; stage counters + refine + untracked "
                   "reconcile exactly with the counter bag)")


def _add_serve(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "serve", help="serve NNC queries over HTTP (sharded, cached)"
    )
    p.add_argument("--dataset", help=".npz dataset (from `generate`); "
                   "omit for a synthetic one")
    p.add_argument("--n", type=int, default=500, help="synthetic object count")
    p.add_argument("--m", type=int, default=10, help="instances per object")
    p.add_argument("--d", type=int, default=2, help="dimensionality")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--partitioner", default="round-robin",
                   choices=["round-robin", "centroid", "hash"],
                   help="hash = content-hash placement (shard_of); required "
                   "for node servers behind `repro router`")
    p.add_argument("--node-id", metavar="ID",
                   help="fleet identity surfaced in /healthz and /status "
                   "(node servers behind a router)")
    p.add_argument("--backend", default="serial", choices=["serial", "pool"])
    p.add_argument("--workers", type=int, metavar="N",
                   help="worker processes for --backend pool "
                   "(default: min(shards, cpu count), at least 2)")
    p.add_argument("--start-method", metavar="METHOD",
                   choices=["spawn", "fork", "forkserver"],
                   help="multiprocessing start method for --backend pool "
                   "(default spawn)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080,
                   help="0 picks an ephemeral port")
    p.add_argument("--cache-size", type=int, default=256,
                   help="LRU result-cache entries (0 disables)")
    p.add_argument("--max-inflight", type=int, default=8,
                   help="concurrent engine requests before 429")
    p.add_argument("--deadline-ms", type=float, metavar="MS",
                   help="default per-query budget for requests without one")
    p.add_argument("--on-invalid", default="strict",
                   choices=["strict", "repair", "skip"])
    p.add_argument("--compact-threshold", type=float, default=0.3,
                   help="masked fraction that triggers a shard rebuild")
    p.add_argument("--sample", type=float, default=0.0, metavar="RATE",
                   help="fraction of requests traced end to end "
                   "(deterministic; 1.0 traces everything)")
    p.add_argument("--trace-dir", metavar="DIR",
                   help="write one merged Chrome trace JSON per sampled "
                   "request into DIR")
    p.add_argument("--audit-log", metavar="PATH",
                   help="append one replayable JSONL audit record per "
                   "served query/insert/delete (see `repro replay`)")
    p.add_argument("--data-dir", metavar="DIR",
                   help="durable tier: own DIR/wal.log + DIR/snap-*.snap; "
                   "restart recovers the exact pre-crash epoch (warm, "
                   "memory-mapped) instead of rebuilding from --dataset")
    p.add_argument("--fsync", default="always",
                   choices=["always", "interval", "never"],
                   help="WAL (and audit) fsync policy; only `always` makes "
                   "every acknowledged epoch crash-exact")
    p.add_argument("--fsync-interval-s", type=float, default=0.5,
                   metavar="S", help="max seconds between fsyncs under "
                   "--fsync interval")
    p.add_argument("--snapshot-every", type=int, default=256, metavar="N",
                   help="mutations between checkpoints (0: only on drain)")
    p.add_argument("--log-json", action="store_true",
                   help="structured JSON logs on stderr, request-id "
                   "correlated")
    p.add_argument("--slo-latency-ms", type=float, metavar="MS",
                   help="latency objective; slower requests burn "
                   "repro_slo_burn_total{slo=latency}")
    p.add_argument("--profile-hz", type=float, default=0.0, metavar="HZ",
                   help="continuous sampling profiler rate (0 disables); "
                   "folded stacks + flamegraph at GET /profile, pool "
                   "workers profiled and merged")


def _add_router(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "router",
        help="front N shard servers: consistent-hash placement, replica "
        "groups, hedged reads, failover",
        description="Serves the same /query /insert /delete protocol as "
        "`repro serve`, scatter-gathering over remote node servers "
        "(started with `repro serve --partitioner hash --shards S "
        "--node-id ID`).  Answers are bit-identical to a single process "
        "over the same dataset; see DESIGN.md §18.",
    )
    p.add_argument("--node", action="append", default=[], metavar="ID=URL",
                   required=True,
                   help="one fleet member, e.g. n1=http://127.0.0.1:8081; "
                   "repeatable (bare URLs get node ids host:port)")
    p.add_argument("--shards", type=int, required=True,
                   help="logical shard count; must equal every node's "
                   "--shards")
    p.add_argument("--replication", type=int, default=1, metavar="R",
                   help="replica group size (reads fail over inside the "
                   "group; writes fan out to all of it)")
    p.add_argument("--vnodes", type=int, default=64,
                   help="virtual nodes per ring member")
    p.add_argument("--hedge-ms", type=float, default=None, metavar="MS",
                   help="hedging threshold; default adapts to each node's "
                   "observed p95, 0 disables hedging")
    p.add_argument("--health-interval-s", type=float, default=2.0,
                   metavar="S", help="background /healthz sweep period "
                   "(0 disables)")
    p.add_argument("--node-timeout-s", type=float, default=10.0, metavar="S",
                   help="per-call socket timeout talking to nodes")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080,
                   help="0 picks an ephemeral port")
    p.add_argument("--cache-size", type=int, default=256,
                   help="router-side LRU result cache (0 disables)")
    p.add_argument("--max-inflight", type=int, default=32,
                   help="concurrent engine requests before 429")
    p.add_argument("--deadline-ms", type=float, metavar="MS",
                   help="default per-query budget forwarded to nodes")
    p.add_argument("--sample", type=float, default=0.0, metavar="RATE",
                   help="fraction of requests traced end to end (forces "
                   "sampling on every node the request touches)")
    p.add_argument("--trace-dir", metavar="DIR",
                   help="write one merged Chrome trace JSON per sampled "
                   "request into DIR")
    p.add_argument("--audit-log", metavar="PATH",
                   help="router-side replayable audit log; verify with "
                   "`repro replay --partitioner hash --shards S`")
    p.add_argument("--slo-latency-ms", type=float, metavar="MS",
                   help="latency objective; slower requests burn "
                   "repro_slo_burn_total{slo=latency}")
    p.add_argument("--profile-hz", type=float, default=0.0, metavar="HZ",
                   help="continuous sampling profiler rate (0 disables); "
                   "folded stacks + flamegraph at GET /profile")
    p.add_argument("--log-json", action="store_true",
                   help="structured JSON logs on stderr")


def _add_replay(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "replay",
        help="re-execute a serve audit log and verify answer digests",
    )
    p.add_argument("audit", help="JSONL audit file (from `serve --audit-log`)")
    p.add_argument("--dataset", required=True,
                   help=".npz dataset the server was started with")
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--partitioner", default="round-robin",
                   choices=["round-robin", "centroid", "hash"])
    p.add_argument("--format", choices=["text", "json"], default="text")


def _add_client(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("client", help="talk to a running `repro serve`")
    p.add_argument("action",
                   choices=["query", "insert", "delete", "health", "status",
                            "metrics", "fleet", "profile"])
    p.add_argument("--request-id", metavar="ID",
                   help="propagate an X-Request-Id for log/trace correlation")
    p.add_argument("--url", default="http://127.0.0.1:8080")
    p.add_argument("--points", help="JSON 2-D array of instances")
    p.add_argument("--probs", help="JSON array of instance weights")
    p.add_argument("--operator", default="FSD",
                   choices=["SSD", "SSSD", "PSD", "FSD", "F+SD"])
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--metric", default="euclidean",
                   choices=["euclidean", "manhattan", "chebyshev"])
    p.add_argument("--oid", help="object id (insert/delete)")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the server result cache")
    p.add_argument("--explain", action="store_true",
                   help="query only: ask the server for the per-stage cost "
                   "breakdown (forces end-to-end tracing; through a router "
                   "the view is fleet-merged with per-node timings)")
    p.add_argument("--deadline-ms", type=float, metavar="MS",
                   help="per-request budget")
    p.add_argument("--retries", type=int, default=5, metavar="N",
                   help="attempts after a connection failure or a 503 "
                   "retryable answer (bounded exponential backoff + "
                   "jitter); 0 fails fast")
    p.add_argument("--retry-base-ms", type=float, default=100.0, metavar="MS",
                   help="first backoff delay; doubles per retry, capped at "
                   "5s")
    p.add_argument("--format", choices=["text", "json"], default="json",
                   help="json prints the raw server response")


def _add_figures(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "figures",
        help="build registered figures: CSV + Vega-Lite specs + dashboard",
        description="Build figures from the declarative registry "
        "(repro.experiments.registry): the paper reproductions and the "
        "live-snapshot views (SLO quantiles, flamegraph, fleet overview).  "
        "Each figure prints its table and emits data/<id>.csv and "
        "specs/<id>.vl.json plus a section in a self-contained "
        "<out-dir>/index.html (inline SVG, no network).",
    )
    p.add_argument("ids", nargs="*", metavar="ID",
                   help="figure ids to build (default: none; see --list)")
    p.add_argument("--all", action="store_true", dest="all_figures",
                   help="build every registered figure")
    p.add_argument("--list", action="store_true", dest="list_figures",
                   help="list registered figure ids and exit")
    p.add_argument("--scale", default="smoke",
                   choices=["smoke", "tiny", "small", "medium"],
                   help="scale preset for the paper figures")
    p.add_argument("--out-dir", default="dashboard",
                   help="artifact directory (default: dashboard/)")
    p.add_argument("--slo", metavar="PATH",
                   help="status JSON for slo-quantiles (a node's /status "
                        "body, `client status --format json`)")
    p.add_argument("--profile", metavar="PATH",
                   help="profiler snapshot JSON for the flamegraph figure "
                        "(a GET /profile body)")
    p.add_argument("--fleet", metavar="PATH",
                   help="fleet snapshot JSON for fleet-overview (a router "
                        "GET /fleet body)")
    p.add_argument("--check", action="store_true",
                   help="build + self-check only, write no files")


def _add_report(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("report", help="regenerate every figure into a report")
    p.add_argument("--scale", default="small", choices=["tiny", "small", "medium"])
    p.add_argument("--output", default="EXPERIMENTS.md")


def _add_generate(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("generate", help="synthesise a dataset to .npz")
    p.add_argument("output")
    p.add_argument("--kind", default="anti",
                   choices=["anti", "indep", "nba", "gowalla", "house", "ca", "usa"])
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--h", type=float, default=400.0, dest="edge")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Optimal spatial dominance NN candidate search "
        "(SIGMOD 2015 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_search(sub)
    _add_figures(sub)
    _add_report(sub)
    _add_generate(sub)
    _add_serve(sub)
    _add_router(sub)
    _add_client(sub)
    _add_replay(sub)
    sub.add_parser("info", help="print library information")
    return parser


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.core.context import QueryContext
    from repro.core.nnc import NNCSearch
    from repro.datasets.synthetic import (
        anticorrelated_centers,
        make_objects,
        make_query,
    )
    from repro.objects.io import load_objects
    from repro.objects.validate import InvalidInputError

    rng = np.random.default_rng(args.seed)
    registry = None
    if args.metrics:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
    report = None
    try:
        if args.dataset:
            if args.on_invalid:
                objects, report = load_objects(
                    args.dataset, on_invalid=args.on_invalid, metrics=registry
                )
            else:
                objects = load_objects(args.dataset)
            if not objects:
                print("no objects survived quarantine", file=sys.stderr)
                return 2
            center = objects[rng.integers(len(objects))].mbr.center
            query = make_query(center, max(2, args.m // 2), 200.0, rng)
        else:
            centers = anticorrelated_centers(args.n, args.d, rng)
            scale = (args.n / 100_000) ** (-1.0 / args.d)
            objects = make_objects(
                centers, args.m, 400.0 * scale, rng, on_invalid=args.on_invalid
            )
            query = make_query(
                centers[rng.integers(args.n)], max(2, args.m // 2), 200.0 * scale, rng
            )
    except InvalidInputError as exc:
        print(f"input rejected: {exc}", file=sys.stderr)
        for issue in exc.report.issues[:10]:
            print(
                f"  object #{issue.row} ({issue.oid!r}): "
                f"[{issue.code}] {issue.message}",
                file=sys.stderr,
            )
        return 2
    if report is not None and not report.clean:
        print(report.summary())
    budget = None
    if (
        args.deadline_ms is not None
        or args.max_dominance_checks is not None
        or args.max_flow_augmentations is not None
    ):
        from repro.resilience import Budget

        budget = Budget(
            deadline_ms=args.deadline_ms,
            max_dominance_checks=args.max_dominance_checks,
            max_flow_augmentations=args.max_flow_augmentations,
        )
    if args.explain:
        return _search_explain(args, objects, query, budget, registry)
    search = NNCSearch(objects)
    tracer = None
    if args.trace or args.breakdown:
        from repro.obs import Tracer

        tracer = Tracer()
    ctx = QueryContext(
        query,
        metric=args.metric,
        tracer=tracer,
        metrics=registry,
        budget=budget,
    )
    if args.format == "json":
        import json as _json

        result = search.run(query, args.operator, k=args.k, ctx=ctx)
        print(_json.dumps(search_json_document(result, args, len(objects)),
                          indent=2))
        return 3 if result.degradation is not None else 0
    start = time.perf_counter()
    count = 0
    for candidate in search.stream(query, args.operator, k=args.k, ctx=ctx):
        count += 1
        if not args.quiet:
            elapsed = (time.perf_counter() - start) * 1000
            print(f"[{elapsed:8.1f} ms] candidate {candidate.oid}")
    total = time.perf_counter() - start
    print(
        f"{args.operator}: {count} candidate(s) of {len(objects)} objects "
        f"in {total * 1000:.1f} ms (k={args.k})"
    )
    degradation = search.last_degradation
    if degradation is not None:
        print(degradation.summary())
    if args.breakdown:
        from repro.obs import stage_rows, untracked_counters

        stages = stage_rows([tracer.spans()])
        bag = ctx.counters.snapshot()
        print()
        print("Span breakdown (exclusive per stage):")
        _print_stages(stages, untracked_counters(bag, stages))
        checks = bag.get("dominance_checks", 0)
        if checks:
            comparisons = bag.get("instance_comparisons", 0)
            print(
                f"  {comparisons / checks:.2f} instance comparison(s) per "
                f"dominance check ({comparisons} / {checks})"
            )
        if degradation is not None:
            import json

            print()
            print("degradation report:")
            print(json.dumps(degradation.to_dict(), indent=2))
    if args.trace:
        from repro.obs import write_trace

        path = write_trace(args.trace, tracer, format=args.trace_format)
        dropped = f" ({tracer.dropped} dropped)" if tracer.dropped else ""
        print(f"trace: {len(tracer)} span(s){dropped} -> {path}")
    if args.metrics:
        from repro.obs import write_metrics

        path = write_metrics(args.metrics, registry)
        print(f"metrics -> {path}")
    # Exit code 3: the answer is a certified superset, not exact (see
    # repro.resilience); 0 means exact.
    return 3 if degradation is not None else 0


def search_json_document(result, args, n_objects: int) -> dict:
    """Machine-readable search outcome (shared with ``repro client``).

    Same candidate shape as the server's /query response
    (:func:`repro.serve.protocol.query_response`), plus the counter bag.
    """
    return {
        "operator": args.operator,
        "k": args.k,
        "metric": args.metric,
        "n_objects": n_objects,
        "candidates": [
            {
                "oid": obj.oid,
                "dominators": count,
                "yield_ms": when * 1000.0,
            }
            for obj, count, when in zip(
                result.candidates, result.dominator_counts, result.yield_times
            )
        ],
        "count": len(result.candidates),
        "elapsed_ms": result.elapsed * 1000.0,
        "degraded": result.degradation is not None,
        "degradation": (
            result.degradation.to_dict()
            if result.degradation is not None
            else None
        ),
        "counters": result.counters.snapshot(),
    }


def _search_explain(args, objects, query, budget, registry) -> int:
    """``search --explain``: one query through the instrumented path.

    Runs the same sharded pipeline a server runs (single shard, serial)
    under a sampled request context, so the breakdown comes from the
    identical span/counter machinery as a server-side ``"explain": true``.
    """
    import json as _json

    from repro.obs.request import RequestContext
    from repro.obs.tracer import Tracer
    from repro.serve.explain import build_explain
    from repro.serve.shard import ShardedSearch

    request = RequestContext.new(sampled=True)
    request.tracer = Tracer(epoch=request.trace_epoch)
    sharded = ShardedSearch(
        objects, shards=1, backend="serial", metrics=registry
    )
    result = sharded.run(
        query, args.operator, k=args.k, metric=args.metric,
        budget=budget, request=request,
    )
    explain = build_explain(
        result, operator=args.operator, k=args.k, request=request
    )
    if args.format == "json":
        print(_json.dumps(explain, indent=2))
    else:
        _print_explain(explain)
    return 3 if result.degradation is not None else 0


def _counter_list(counters: dict) -> str:
    return ", ".join(
        f"{key}={value}" for key, value in sorted(counters.items())
    ) or "-"


def _print_stages(
    stages: list, untracked: dict, *, refine: dict | None = None
) -> None:
    """Print :func:`repro.obs.stage_rows` rows, refine, and the residual."""
    if stages:
        width = max(len(row["stage"]) for row in stages)
        print(f"  {'stage':<{width}}  count  excl ms  incl ms  counters")
        for row in stages:
            print(
                f"  {row['stage']:<{width}}  {row['count']:5d}  "
                f"{row.get('exclusive_ms', 0.0):7.2f}  "
                f"{row.get('total_ms', 0.0):7.2f}  "
                f"{_counter_list(row.get('counters', {}))}"
            )
    if refine is not None:
        print(
            f"  refine: {refine.get('checks', 0)} check(s); "
            f"{_counter_list(refine.get('counters') or {})}"
        )
    if untracked:
        print(f"  untracked: {_counter_list(untracked)}")


def _print_explain(explain: dict) -> None:
    """Render an explain body (node- or router-shaped) as text."""
    print(
        f"explain {explain.get('operator')} k={explain.get('k')} "
        f"backend={explain.get('backend')}: "
        f"{explain.get('candidates')} candidate(s) in "
        f"{explain.get('elapsed_ms', 0.0):.2f} ms"
        + (" (hedged)" if explain.get("hedged") else "")
    )
    _print_stages(
        explain.get("stages") or [],
        explain.get("untracked") or {},
        refine=explain.get("refine") or None,
    )
    nodes = explain.get("nodes") or {}
    for nid in sorted(nodes):
        entry = nodes[nid]
        fetches = entry.get("fetches") or []
        shards = ",".join(str(f.get("shard")) for f in fetches)
        hedged = sum(1 for f in fetches if f.get("hedged"))
        print(
            f"  node {nid}: shard(s) [{shards}] "
            f"{entry.get('elapsed_ms', 0.0):.2f} ms"
            + (f" ({hedged} hedged)" if hedged else "")
        )


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.objects.io import load_objects
    from repro.objects.validate import InvalidInputError
    from repro.obs import MetricsRegistry
    from repro.serve.cache import ResultCache
    from repro.serve.server import NNCServer, ServeApp
    from repro.serve.updates import DatasetManager

    rng = np.random.default_rng(args.seed)
    try:
        if args.dataset:
            objects = load_objects(args.dataset)
        else:
            from repro.datasets.synthetic import (
                anticorrelated_centers,
                make_objects,
            )

            centers = anticorrelated_centers(args.n, args.d, rng)
            scale = (args.n / 100_000) ** (-1.0 / args.d)
            objects = make_objects(centers, args.m, 400.0 * scale, rng)
        registry = MetricsRegistry()
        if args.data_dir:
            from repro.serve.durable import DurableDatasetManager

            manager = DurableDatasetManager(
                objects,
                data_dir=args.data_dir,
                fsync=args.fsync,
                fsync_interval_s=args.fsync_interval_s,
                snapshot_every=args.snapshot_every,
                audit_path=args.audit_log,
                shards=args.shards,
                partitioner=args.partitioner,
                backend=args.backend,
                on_invalid=args.on_invalid,
                compact_threshold=args.compact_threshold,
                metrics=registry,
                workers=args.workers,
                start_method=args.start_method,
                profile_hz=args.profile_hz,
            )
            rec = manager.recovery
            print(
                f"recovered epoch {rec.recovered_epoch} from {rec.source} "
                f"in {rec.elapsed_s * 1000.0:.1f} ms "
                f"({rec.wal_frames_replayed} WAL frame(s) replayed"
                + (", torn WAL tail flagged" if rec.wal_torn else "")
                + (f", {rec.audit_reconciled} audit record(s) reconciled"
                   if rec.audit_reconciled else "")
                + ")",
                flush=True,
            )
        else:
            manager = DatasetManager(
                objects,
                shards=args.shards,
                partitioner=args.partitioner,
                backend=args.backend,
                on_invalid=args.on_invalid,
                compact_threshold=args.compact_threshold,
                metrics=registry,
                workers=args.workers,
                start_method=args.start_method,
                profile_hz=args.profile_hz,
            )
    except InvalidInputError as exc:
        print(f"input rejected: {exc}", file=sys.stderr)
        return 2
    default_budget = (
        {"deadline_ms": args.deadline_ms}
        if args.deadline_ms is not None
        else None
    )
    if args.log_json:
        from repro.obs import JsonLogger, set_logger

        set_logger(JsonLogger(sys.stderr, service="repro-serve"))
    audit = None
    if args.audit_log:
        from repro.serve.audit import AuditLog

        # Under the durable tier the audit trail shares the WAL's fsync
        # policy, so both logs lose at most the same crash window.
        audit = AuditLog(
            args.audit_log,
            metrics=registry,
            fsync=args.fsync if args.data_dir else "never",
            fsync_interval_s=args.fsync_interval_s,
        )
    app = ServeApp(
        manager,
        cache=ResultCache(args.cache_size, metrics=registry),
        registry=registry,
        max_inflight=args.max_inflight,
        default_budget=default_budget,
        sample_rate=args.sample,
        audit=audit,
        trace_dir=args.trace_dir,
        slo_latency_ms=args.slo_latency_ms,
        node_id=args.node_id,
        profile_hz=args.profile_hz,
    )
    server = NNCServer(app, host=args.host, port=args.port)

    async def _run() -> None:
        await server.start()
        print(
            f"serving {manager.size} objects on http://{args.host}:"
            f"{server.port} ({manager.search.shards} shard(s), "
            f"backend={manager.search.backend}); Ctrl-C / SIGTERM drains",
            flush=True,
        )
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        import signal as _signal

        for sig in (_signal.SIGTERM, _signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):
                pass
        await stop.wait()
        print("draining...", flush=True)
        await server.drain()

    asyncio.run(_run())
    if audit is not None:
        audit.close()
    print("drained cleanly")
    return 0


def _cmd_router(args: argparse.Namespace) -> int:
    import asyncio

    from repro.obs import MetricsRegistry
    from repro.serve.cache import ResultCache
    from repro.serve.remote import RemoteNode, RemoteNodeError
    from repro.serve.router import RouterApp
    from repro.serve.server import NNCServer

    nodes = {}
    for spec in args.node:
        if "=" in spec:
            nid, url = spec.split("=", 1)
        else:
            nid, url = spec.split("//")[-1], spec
        nid = nid.strip()
        if not nid or nid in nodes:
            print(f"bad or duplicate --node {spec!r}", file=sys.stderr)
            return 2
        try:
            nodes[nid] = RemoteNode(
                nid, url.strip(), timeout_s=args.node_timeout_s
            )
        except ValueError as exc:
            print(f"bad --node {spec!r}: {exc}", file=sys.stderr)
            return 2
    if args.log_json:
        from repro.obs import JsonLogger, set_logger

        set_logger(JsonLogger(sys.stderr, service="repro-router"))
    registry = MetricsRegistry()
    audit = None
    if args.audit_log:
        from repro.serve.audit import AuditLog

        audit = AuditLog(args.audit_log, metrics=registry)
    default_budget = (
        {"deadline_ms": args.deadline_ms}
        if args.deadline_ms is not None
        else None
    )
    try:
        app = RouterApp(
            nodes,
            shards=args.shards,
            replication=args.replication,
            vnodes=args.vnodes,
            hedge_ms=args.hedge_ms,
            health_interval_s=args.health_interval_s,
            cache=ResultCache(args.cache_size, metrics=registry),
            registry=registry,
            max_inflight=args.max_inflight,
            default_budget=default_budget,
            sample_rate=args.sample,
            audit=audit,
            trace_dir=args.trace_dir,
            slo_latency_ms=args.slo_latency_ms,
            profile_hz=args.profile_hz,
        )
    except ValueError as exc:
        print(f"router: {exc}", file=sys.stderr)
        return 2
    # One synchronous sweep before binding: a router that can't see any
    # node should say so immediately, not on the first query.
    up = app._sweep_health()
    reachable = sum(1 for ok in up.values() if ok)
    for nid, node in nodes.items():
        try:
            status, body = node.call("GET", "/healthz", timeout_s=2.0)
        except RemoteNodeError:
            continue
        if status == 200 and body.get("shards") not in (None, args.shards):
            print(
                f"warning: node {nid} serves {body.get('shards')} shard(s), "
                f"router expects {args.shards}",
                file=sys.stderr,
            )
    server = NNCServer(app, host=args.host, port=args.port)

    async def _run() -> None:
        await server.start()
        print(
            f"routing {args.shards} shard(s) x {args.replication} "
            f"replica(s) over {len(nodes)} node(s) "
            f"({reachable} reachable) on http://{args.host}:{server.port}; "
            f"Ctrl-C / SIGTERM drains",
            flush=True,
        )
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        import signal as _signal

        for sig in (_signal.SIGTERM, _signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):
                pass
        await stop.wait()
        print("draining...", flush=True)
        await server.drain()

    asyncio.run(_run())
    if audit is not None:
        audit.close()
    print("drained cleanly")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    """Re-execute an audit log; exit 0 verified, 1 mismatch, 2 load error."""
    import json as _json

    from repro.objects.io import load_objects
    from repro.serve.audit import load_audit, replay_audit

    try:
        records = load_audit(args.audit)
    except (OSError, ValueError) as exc:
        print(f"cannot read audit log: {exc}", file=sys.stderr)
        return 2
    try:
        objects = load_objects(args.dataset)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot load dataset: {exc}", file=sys.stderr)
        return 2
    report = replay_audit(
        records,
        objects,
        shards=args.shards,
        partitioner=args.partitioner,
    )
    if args.format == "json":
        print(_json.dumps(report.to_dict(), indent=2))
    else:
        print(
            f"replayed {report.replayed} of {report.records} record(s): "
            f"{report.verified} verified, {report.mismatch_count} "
            f"mismatch(es), {report.mutations_applied} mutation(s), "
            f"{report.skipped_degraded} degraded + "
            f"{report.skipped_budgeted} budgeted skipped, "
            f"{report.epoch_errors} epoch error(s)"
        )
        if report.torn_tail:
            print(
                f"  torn audit tail at byte {report.torn_tail['offset']} "
                f"({report.torn_tail['detail']}) — skipped, not verified"
            )
        for row in report.mismatches:
            print(
                f"  seq {row['seq']} epoch {row['epoch']} {row['operator']}: "
                f"expected {row['expected']}, got {row['actual']}"
            )
    return 0 if report.ok else 1


def _cmd_client(args: argparse.Namespace) -> int:
    import http.client
    import json as _json
    from urllib.parse import urlparse

    url = urlparse(args.url)
    host = url.hostname or "127.0.0.1"
    port = url.port or 8080

    method, path, payload = "GET", None, None
    if args.action == "health":
        path = "/healthz"
    elif args.action == "status":
        path = "/status"
    elif args.action == "metrics":
        path = "/metrics"
    elif args.action == "fleet":
        path = "/fleet"
    elif args.action == "profile":
        path = "/profile"
    elif args.action == "query":
        if not args.points:
            print("query needs --points", file=sys.stderr)
            return 2
        method, path = "POST", "/query"
        try:
            payload = {
                "points": _json.loads(args.points),
                "operator": args.operator,
                "k": args.k,
                "metric": args.metric,
            }
            if args.probs:
                payload["probs"] = _json.loads(args.probs)
        except _json.JSONDecodeError as exc:
            print(f"--points/--probs must be JSON: {exc}", file=sys.stderr)
            return 2
        if args.no_cache:
            payload["cache"] = False
        if args.explain:
            payload["explain"] = True
        if args.deadline_ms is not None:
            payload["budget"] = {"deadline_ms": args.deadline_ms}
    elif args.action == "insert":
        if not args.points:
            print("insert needs --points", file=sys.stderr)
            return 2
        method, path = "POST", "/insert"
        try:
            payload = {"points": _json.loads(args.points)}
            if args.probs:
                payload["probs"] = _json.loads(args.probs)
        except _json.JSONDecodeError as exc:
            print(f"--points/--probs must be JSON: {exc}", file=sys.stderr)
            return 2
        if args.oid is not None:
            payload["oid"] = args.oid
    else:  # delete
        if args.oid is None:
            print("delete needs --oid", file=sys.stderr)
            return 2
        method, path = "POST", "/delete"
        payload = {"oid": args.oid}

    headers = {"Content-Type": "application/json"}
    if args.request_id:
        headers["X-Request-Id"] = args.request_id

    # Transient failures — connection refused/reset, or a 503 whose body
    # says `retryable` (pool worker death, recovering warm restart, a
    # router with every replica briefly out) — are retried with bounded
    # exponential backoff + jitter instead of failing the first attempt.
    import random as _random
    import time as _time

    max_attempts = max(0, args.retries) + 1
    retries = 0
    for attempt in range(max_attempts):
        conn = http.client.HTTPConnection(host, port, timeout=60.0)
        failure = None
        try:
            conn.request(
                method, path,
                body=_json.dumps(payload) if payload is not None else None,
                headers=headers,
            )
            resp = conn.getresponse()
            raw = resp.read()
            status = resp.status
            is_json = resp.getheader("Content-Type", "").startswith(
                "application/json"
            )
        except (ConnectionError, OSError) as exc:
            failure = exc
        finally:
            conn.close()
        if failure is None:
            body = _json.loads(raw) if is_json else None
            retryable = (
                status == 503
                and isinstance(body, dict)
                and body.get("retryable")
            )
            if not retryable:
                break
        if attempt + 1 >= max_attempts:
            if failure is not None:
                print(f"connection failed: {failure}", file=sys.stderr)
                return 2
            break
        delay = min(5.0, (args.retry_base_ms / 1000.0) * (2 ** attempt))
        delay *= 0.5 + _random.random() / 2.0
        reason = (
            f"connection failed ({failure})" if failure is not None
            else f"503 retryable ({(body or {}).get('error', '?')})"
        )
        print(
            f"retrying in {delay * 1000.0:.0f} ms after {reason} "
            f"[attempt {attempt + 1}/{max_attempts}]",
            file=sys.stderr,
        )
        _time.sleep(delay)
        retries += 1
    if retries:
        print(f"succeeded after {retries} retr"
              + ("y" if retries == 1 else "ies")
              if status == 200 else
              f"gave up after {retries} retr"
              + ("y" if retries == 1 else "ies"),
              file=sys.stderr)
    if not is_json:
        print(raw.decode())
        return 0 if status == 200 else 1
    if args.format == "json":
        print(_json.dumps(body, indent=2))
    elif args.action == "query" and status == 200:
        oids = [c["oid"] for c in body["candidates"]]
        tag = " (cached)" if body.get("cached") else ""
        flag = " DEGRADED" if body.get("degraded") else ""
        retried = f" [{retries} retries]" if retries else ""
        print(
            f"{args.operator}: {body['count']} candidate(s) in "
            f"{body['elapsed_ms']:.1f} ms{tag}{flag}{retried}: {oids}"
        )
        if body.get("explain"):
            _print_explain(body["explain"])
    elif args.action == "fleet" and status == 200:
        quantiles = body.get("quantiles") or {}
        for op in sorted(quantiles):
            q = quantiles[op]
            clamp = " [clamped]" if q.get("clamped") else ""
            print(
                f"{op}: {q.get('count')} query(ies), "
                f"p50 {q.get('p50', 0.0) * 1000:.2f} ms, "
                f"p95 {q.get('p95', 0.0) * 1000:.2f} ms, "
                f"p99 {q.get('p99', 0.0) * 1000:.2f} ms{clamp}"
            )
        for nid in sorted(body.get("nodes") or {}):
            view = body["nodes"][nid]
            if not view.get("ok"):
                print(f"node {nid}: DOWN ({view.get('error', '?')}), "
                      f"breaker {view.get('breaker')}")
                continue
            alerts = view.get("alerts") or []
            print(
                f"node {nid}: {view.get('status')}, "
                f"epoch {view.get('epoch')}, "
                f"{view.get('objects')} object(s), "
                f"up {view.get('uptime_seconds') or 0.0:.0f}s, "
                f"breaker {view.get('breaker')}"
                + (f", alerts: {', '.join(alerts)}" if alerts else "")
            )
    elif args.action == "profile" and status == 200:
        state = "on" if body.get("enabled") else "off"
        print(
            f"profiler {state} @ {body.get('hz')} Hz: "
            f"{body.get('samples')} sample(s), "
            f"{body.get('attributed')} attributed to requests, "
            f"{body.get('distinct_stacks')} distinct stack(s)"
        )
        top = sorted(
            (body.get("stacks") or {}).items(), key=lambda kv: -kv[1]
        )
        for stack, count in top[:10]:
            print(f"  {count:6d}  {stack.split(';')[-1]}")
    elif args.action == "status" and status == 200:
        print(
            f"status {body.get('status')}: epoch {body.get('epoch')}, "
            f"{body.get('objects')} object(s), {body.get('shards')} "
            f"shard(s), backend {body.get('backend')}"
        )
        active = (body.get("alerts") or {}).get("active") or []
        if active:
            print(f"ALERTS FIRING: {', '.join(active)}")
        dur = body.get("durability")
        if dur:
            rec = dur.get("recovery") or {}
            print(
                f"durable: wal_seq {dur.get('wal_seq')}, last snapshot "
                f"epoch {dur.get('last_snapshot_epoch')}, fsync "
                f"{dur.get('fsync')}; recovered epoch "
                f"{rec.get('recovered_epoch')} from {rec.get('source')} "
                f"in {(rec.get('elapsed_s') or 0) * 1000.0:.1f} ms"
            )
    else:
        print(_json.dumps(body, indent=2))
    if status != 200:
        return 1
    # Mirror the search verb: degraded answers exit 3.
    if args.action == "query" and body.get("degraded"):
        return 3
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments import provenance, registry
    from repro.experiments.dashboard import render_dashboard
    from repro.experiments.report import format_table

    if args.list_figures:
        for fid in registry.registered_ids():
            fig = registry.get(fid)
            print(f"{fid:16s} [{fig.category:13s}] {fig.title}")
        return 0
    if args.all_figures:
        fids = registry.registered_ids()
    elif args.ids:
        fids = list(args.ids)
    else:
        print("figures: name ids or pass --all (try --list)", file=sys.stderr)
        return 2

    overrides = {"scale": args.scale}
    for name in ("slo", "profile", "fleet"):
        value = getattr(args, name)
        if value:
            overrides[name] = Path(value)
    inputs = registry.BuildInputs(**overrides)

    try:
        arts = registry.build_many(
            fids, inputs,
            on_progress=lambda fid: print(f"building {fid} ...", flush=True),
        )
    except registry.UnknownFigureError as exc:
        print(f"figures: {exc}", file=sys.stderr)
        return 2
    except (registry.FigureInputError, registry.SelfCheckError) as exc:
        print(f"figures: {exc}", file=sys.stderr)
        return 1

    for art in arts:
        summary = registry.self_check(art)
        print(format_table(art.rows, f"{art.title} — {art.description}"))
        print(
            f"  {art.fid}: {summary['rows']} row(s), "
            f"{summary['series']} series — self-check ok"
        )
    if args.check:
        print(f"checked {len(arts)} figure(s); nothing written (--check)")
        return 0

    out_dir = Path(args.out_dir)
    for art in arts:
        registry.write_artifacts(art, out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    html = render_dashboard(
        arts,
        provenance_record=provenance.collect(),
        scale=args.scale,
    )
    (out_dir / "index.html").write_text(html)
    print(f"wrote {len(arts)} figure(s) to {out_dir}/ (index.html, data/, specs/)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments import registry
    from repro.experiments.figures import FIGURES
    from repro.experiments.report import write_report

    marks: list[float] = []

    def progress(fid: str) -> None:
        marks.append(time.perf_counter())
        print(f"building {fid} ...", file=sys.stderr, flush=True)

    arts = registry.build_many(
        list(FIGURES), registry.BuildInputs(scale=args.scale),
        on_progress=progress,
    )
    marks.append(time.perf_counter())
    elapsed = [end - start for start, end in zip(marks, marks[1:])]
    write_report(list(zip(arts, elapsed)), args.scale, Path(args.output))
    print(f"wrote {args.output}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.datasets import semireal, synthetic
    from repro.objects.io import save_objects

    rng = np.random.default_rng(args.seed)
    if args.kind == "nba":
        objects = semireal.nba_like(args.n, args.m, rng)
    elif args.kind == "gowalla":
        objects = semireal.gowalla_like(args.n, args.m, rng)
    else:
        if args.kind == "anti":
            centers = synthetic.anticorrelated_centers(args.n, args.d, rng)
        elif args.kind == "indep":
            centers = synthetic.independent_centers(args.n, args.d, rng)
        elif args.kind == "house":
            centers = semireal.house_like(args.n, rng)
        elif args.kind == "ca":
            centers = semireal.ca_like(args.n, rng)
        else:
            centers = semireal.usa_like(args.n, rng)
        objects = synthetic.make_objects(centers, args.m, args.edge, rng)
    save_objects(args.output, objects)
    total = sum(len(o) for o in objects)
    print(f"wrote {len(objects)} objects ({total} instances) to {args.output}")
    return 0


def _cmd_info() -> int:
    import repro

    print(f"repro {repro.__version__}")
    print("operators: SSD, SSSD, PSD, FSD, F+SD (+ NN-core, sphere baselines)")
    print("functions: N1 min/max/expected/quantile; N2 NN-probability,")
    print("           expected-rank, global top-k, parameterized ranking;")
    print("           N3 Hausdorff, SumMin, EMD/Netflow")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.command == "search":
        return _cmd_search(args)
    if args.command == "figures":
        return _cmd_figures(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "router":
        return _cmd_router(args)
    if args.command == "client":
        return _cmd_client(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "info":
        return _cmd_info()
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
