"""Per-query explain: the Figure-16 cost breakdown for one live request.

Figure 16 of the paper attributes search cost to filter stages (MBR
tests, dominance checks, CDF sweeps, flow augmentations) — but averaged
over a workload.  ``"explain": true`` on a ``/query`` request produces
the same attribution for *that one query*, assembled entirely from the
span/counter machinery the serving layer already runs:

* every traced span records the **inclusive** counter deltas of its
  subtree (:class:`repro.obs.tracer._ActiveSpan` snapshots the context's
  counter bag around the span);
* :func:`repro.obs.tracer.stage_rows` converts them to **exclusive**
  per-stage costs — each stage is charged only for work done in its own
  frames;
* summing exclusive stage counters, the refine-phase delta, and the
  :func:`repro.obs.tracer.untracked_counters` residual reconciles
  *exactly* with the query's :class:`repro.core.counters.Counters` bag.

An explain request is forcibly sampled (tracing end to end, router hop
included via ``X-Sampled``), so the breakdown covers every shard on
every backend.  The router merges per-node explains into one fleet view
with per-node timings and the hedge outcome.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.obs.tracer import (
    _add,
    _nonzero,
    _stage_row,
    stage_rows,
    untracked_counters,
)

__all__ = ["build_explain", "merge_explains"]


def build_explain(
    result: Any,
    *,
    operator: str,
    k: int,
    request: Any = None,
    counters: Mapping[str, int] | None = None,
) -> dict:
    """Node-side explain body for one :class:`ShardedResult`.

    ``counters`` overrides the reconciliation target (the router passes
    its fleet-merged bag); by default it is ``result.counters.snapshot()``
    — the exact bag the Prometheus bridge exports, so the identity

        sum(stage counters) + refine + untracked == bag

    holds field for field by construction, with ``untracked`` as the
    explicit (reported) residual of uninstrumented code paths.
    """
    buffers: list[Sequence[Any]] = []
    if request is not None:
        tracer = getattr(request, "tracer", None)
        spans = tracer.spans() if tracer is not None else []
        if spans:
            buffers.append(spans)
        for _shard, shard_buffer in getattr(request, "shard_spans", ()):
            buffers.append(shard_buffer)
    stages = stage_rows(buffers)
    bag = _nonzero(
        dict(counters)
        if counters is not None
        else result.counters.snapshot()
    )
    refine_counters = _nonzero(getattr(result, "refine_counters", {}) or {})
    untracked = untracked_counters(bag, stages, refine_counters)
    degradation = getattr(result, "degradation", None)
    return {
        "operator": operator,
        "k": k,
        "backend": result.backend,
        "elapsed_ms": result.elapsed * 1000.0,
        "candidates": len(result.candidates),
        "sampled": bool(getattr(request, "sampled", False)),
        "stages": stages,
        "counters": bag,
        "refine": {
            "checks": result.refine_checks,
            "counters": refine_counters,
        },
        "untracked": untracked,
        "per_shard": list(getattr(result, "per_shard", ()) or ()),
        "fanout": result.fanout,
        "degraded": degradation is not None,
    }


def merge_explains(
    fetches: Sequence[Mapping[str, Any]],
    *,
    refine_checks: int,
    refine_counters: Mapping[str, int],
    hedged: bool,
) -> dict:
    """Router-side merge of per-node explain sections into one fleet view.

    Args:
        fetches: one entry per gathered shard read:
            ``{shard, node, hedged, explain}`` (``explain`` may be None
            when a node predates the feature — the merge degrades to
            timings only).
        refine_checks: the router's own cross-node refine checks.
        refine_counters: counter deltas of the router's refine phase.
        hedged: whether any shard read was hedged.

    Stage rows are summed across nodes; the merged ``counters`` bag is
    the sum of every node's bag plus the router's refine deltas, so the
    fleet-level reconciliation identity is inherited from the per-node
    ones.  Per-node timings (and which fetches were hedged) land in the
    ``nodes`` section.
    """
    stages: dict[str, dict] = {}
    counters: dict[str, int] = {}
    untracked: dict[str, int] = {}
    node_refine_checks = 0
    nodes: dict[str, dict] = {}
    for fetch in fetches:
        node_id = fetch.get("node")
        entry = nodes.setdefault(
            node_id, {"node": node_id, "fetches": [], "elapsed_ms": 0.0}
        )
        explain = fetch.get("explain")
        shard_row: dict[str, Any] = {
            "shard": fetch.get("shard"),
            "hedged": bool(fetch.get("hedged")),
        }
        if explain:
            shard_row["elapsed_ms"] = explain.get("elapsed_ms")
            entry["elapsed_ms"] += explain.get("elapsed_ms") or 0.0
            _add(counters, explain.get("counters") or {})
            _add(untracked, explain.get("untracked") or {})
            refine = explain.get("refine") or {}
            node_refine_checks += refine.get("checks") or 0
            for row in explain.get("stages") or ():
                merged = stages.setdefault(
                    row["stage"], _stage_row(row["stage"])
                )
                merged["count"] += row.get("count", 0)
                merged["total_ms"] += row.get("total_ms", 0.0)
                merged["exclusive_ms"] += row.get("exclusive_ms", 0.0)
                _add(merged["counters"], row.get("counters") or {})
            node_refine = refine.get("counters") or {}
            if node_refine:
                merged = stages.setdefault(
                    "node-refine", _stage_row("node-refine")
                )
                merged["count"] += 1
                _add(merged["counters"], node_refine)
        entry["fetches"].append(shard_row)
    router_refine = _nonzero(dict(refine_counters))
    _add(counters, router_refine)
    return {
        "stages": sorted(stages.values(), key=lambda r: -r["exclusive_ms"]),
        "counters": _nonzero(counters),
        "refine": {
            "checks": refine_checks,
            "counters": router_refine,
            "node_checks": node_refine_checks,
        },
        "untracked": _nonzero(untracked),
        "nodes": {nid: nodes[nid] for nid in sorted(nodes)},
        "hedged": hedged,
    }
