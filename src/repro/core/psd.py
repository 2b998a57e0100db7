"""Peer spatial dominance P-SD (Definition 5) — optimal w.r.t. N1 ∪ N2 ∪ N3.

``P-SD(U, V, Q)`` iff some match ``M_{U,V}`` pairs every instance of ``U``
with instances of ``V`` it is ``<=_Q``-closer than (and ``U_Q != V_Q``).
Theorem 12 reduces the existence of such a match to a max-flow problem on
the bipartite network ``source -> U-instances -> V-instances -> sink`` whose
instance edges are exactly the pairs with ``u <=_Q v``; dominance holds iff
the max flow saturates the unit supply.

The paper's accelerations, all implemented here behind flags:

* **MBR validation** (Theorem 4) and **cover-based pruning** via SS-SD
  (``P-SD ⊂ SS-SD``, Theorem 2);
* **geometric filters** (Section 5.1.2): only convex-hull vertices of the
  query participate in ``<=_Q`` tests, and an instance of ``V`` strictly
  inside ``CH(Q)`` kills the check outright unless ``U`` has an instance at
  the same location;
* **degree-based shortcuts**: a ``V`` instance with no incoming edge or a
  ``U`` instance with no outgoing edge caps the flow below 1 with no
  max-flow run;
* **level-by-level networks** (Section 5.1.2): coarse networks over local
  R-tree partitions — ``G-`` (edges = MBR-level F-SD) validates when its
  flow reaches 1; ``G+`` (edges = not strictly reverse-dominated) prunes
  when its flow stays below 1.
"""

from __future__ import annotations

import numpy as np

from repro.core import kernels as K
from repro.core.context import QueryContext
from repro.core import sssd
from repro.core.sssd import ss_dominates
from repro.flow.maxflow import FlowBudgetError, FlowNetwork, max_flow
from repro.geometry.convexhull import point_in_hull
from repro.geometry.mbr import mbr_dominates
from repro.objects.uncertain import UncertainObject
from repro.stats.stochastic import stochastic_equal

_TOL = 1e-9
_FLOW_TOL = 1e-6


def point_in_query_hull(point: np.ndarray, ctx: QueryContext) -> bool:
    """Whether ``point`` lies inside the convex hull of the query instances.

    A half-space test against ``ctx.hull``'s facets with a margin, so a
    borderline point answers False — that only skips the hull-interior
    rule, never changes a verdict.  A context without a hull (``use_hull``
    off, non-Euclidean, at most two query instances) answers False.
    """
    hull = ctx.hull
    if hull is None or not ctx.query_mbr.contains_point(point):
        return False
    return point_in_hull(point, hull)


def psd_adjacency(
    u: UncertainObject, v: UncertainObject, ctx: QueryContext
) -> np.ndarray:
    """The ``u <=_Q v`` instance adjacency matrix, shape ``(m, n)``."""
    du = ctx.hull_distance_vectors(u)  # (m, k)
    dv = ctx.hull_distance_vectors(v)  # (n, k)
    if ctx.kernels:
        adj = K.halfspace_adjacency(du, dv, tol=_TOL, counters=ctx.counters)
    else:
        adj = np.all(du[:, None, :] <= dv[None, :, :] + _TOL, axis=2)
    ctx.counters.count_comparisons(du.shape[0] * dv.shape[0])
    return adj


def build_psd_network(
    u: UncertainObject,
    v: UncertainObject,
    ctx: QueryContext,
    adj: np.ndarray | None = None,
) -> tuple[FlowNetwork, int, int, np.ndarray]:
    """The Theorem 12 network ``G_{U,V}`` plus its adjacency matrix.

    Vertices: ``0`` source, ``1..m`` U-instances, ``m+1..m+n`` V-instances,
    ``m+n+1`` sink.  Instance edges carry infinite capacity and exist iff
    ``u <=_Q v`` (checked against hull vertices only).  Pass a precomputed
    :func:`psd_adjacency` to skip recomputing it.
    """
    if adj is None:
        adj = psd_adjacency(u, v, ctx)
    m, n = len(u), len(v)
    net = FlowNetwork(m + n + 2)
    source, sink = 0, m + n + 1
    for i in range(m):
        net.add_edge(source, 1 + i, float(u.probs[i]))
    for j in range(n):
        net.add_edge(1 + m + j, sink, float(v.probs[j]))
    rows, cols = np.nonzero(adj)
    for i, j in zip(rows.tolist(), cols.tolist()):
        net.add_edge(1 + i, 1 + m + j, 2.0)
    return net, source, sink, adj


def _instance_max_flow(
    u: UncertainObject, v: UncertainObject, adj: np.ndarray, ctx: QueryContext
) -> float:
    """Max flow of the Theorem 12 instance network, greedy-seeded.

    A single O(E) greedy pass routes supply along the adjacency first; when
    it already saturates, no Dinic run is needed at all.  Otherwise Dinic
    runs on the residual network (reverse capacities = seeded flow), which
    keeps the result exact while usually needing far fewer phases.
    """
    m, n = len(u), len(v)
    u_rem = u.probs.astype(float).tolist()
    v_rem = v.probs.astype(float).tolist()
    rows, cols = np.nonzero(adj)
    rows = rows.tolist()
    cols = cols.tolist()
    pushed: dict[tuple[int, int], float] = {}
    seed = 0.0
    for i, j in zip(rows, cols):
        ri = u_rem[i]
        if ri <= 1e-12:
            continue
        rj = v_rem[j]
        if rj <= 1e-12:
            continue
        take = ri if ri < rj else rj
        u_rem[i] = ri - take
        v_rem[j] = rj - take
        pushed[(i, j)] = take
        seed += take
    if seed >= 1.0 - _FLOW_TOL:
        return seed
    net = FlowNetwork(m + n + 2)
    source, sink = 0, m + n + 1
    for i in range(m):
        if u_rem[i] > 0.0:
            net.add_edge(source, 1 + i, u_rem[i])
    for j in range(n):
        if v_rem[j] > 0.0:
            net.add_edge(1 + m + j, sink, v_rem[j])
    # Middle edges, inlined (add_edge per call costs more than the append
    # pair itself at ~1.2k edges per residual network).
    graph = net.graph
    for i, j in zip(rows, cols):
        gu = graph[1 + i]
        gv = graph[1 + m + j]
        gu.append([1 + m + j, 2.0, len(gv)])
        gv.append([1 + i, pushed.get((i, j), 0.0), len(gu) - 1])
    ctx.counters.maxflow_calls += 1
    if ctx.faults is not None:
        ctx.faults.fire("maxflow")
    budget = ctx.budget
    max_aug = budget.remaining_augmentations() if budget is not None else None
    tracer = ctx.tracer
    metrics = ctx.counters.metrics
    if tracer.enabled:
        with tracer.span(
            "maxflow", counters=ctx.counters, op="PSD", edges=net.edge_count
        ):
            return seed + max_flow(
                net, source, sink, metrics=metrics,
                max_augmentations=max_aug, budget=budget,
            )
    return seed + max_flow(
        net, source, sink, metrics=metrics, max_augmentations=max_aug, budget=budget
    )


def _level_flow(
    u_parts: list,
    v_parts: list,
    q_mbr,
    *,
    validation: bool,
    counters,
    tracer=None,
    budget=None,
) -> float:
    """Max flow of the coarse partition network ``G-`` or ``G+``."""
    m, n = len(u_parts), len(v_parts)
    net = FlowNetwork(m + n + 2)
    source, sink = 0, m + n + 1
    for i, (_, _, mass) in enumerate(u_parts):
        net.add_edge(source, 1 + i, mass)
    for j, (_, _, mass) in enumerate(v_parts):
        net.add_edge(1 + m + j, sink, mass)
    for i, (u_mbr, _, _) in enumerate(u_parts):
        for j, (v_mbr, _, _) in enumerate(v_parts):
            counters.mbr_tests += 1
            if validation:
                has_edge = mbr_dominates(u_mbr, v_mbr, q_mbr)
            else:
                has_edge = not mbr_dominates(v_mbr, u_mbr, q_mbr, strict=True)
            if has_edge:
                net.add_edge(1 + i, 1 + m + j, 2.0)
    counters.maxflow_calls += 1
    metrics = counters.metrics
    max_aug = budget.remaining_augmentations() if budget is not None else None
    if tracer is not None and tracer.enabled:
        with tracer.span(
            "level-flow", counters=counters, op="PSD", validation=validation
        ):
            return max_flow(
                net, source, sink, metrics=metrics,
                max_augmentations=max_aug, budget=budget,
            )
    return max_flow(
        net, source, sink, metrics=metrics, max_augmentations=max_aug, budget=budget
    )


def batch_extremes(
    row_extremes,
    v: UncertainObject,
    ctx: QueryContext,
    *,
    use_cover_pruning: bool,
    mbr_checked: bool,
) -> tuple[np.ndarray | None, tuple | None]:
    """P-SD's cover stage for many ``U`` at once, as :func:`p_dominates` pays it.

    The stage is a nested :func:`ss_dominates` call with every filter: its
    own dominance check, its strict MBR test (Euclidean metric) and its
    cover stage, then its per-``q`` statistic stage
    (:func:`repro.core.sssd.batch_extremes`), whose rejection is P-SD's
    cover prune.  Same contract as that function; ``mbr_checked`` is P-SD's
    own strict MBR test.
    """
    if not use_cover_pruning:
        return None, None
    failed, tally = sssd.batch_extremes(
        row_extremes,
        v,
        ctx,
        use_statistics=True,
        use_cover_pruning=True,
        mbr_checked=ctx.is_euclidean,
    )
    checks, mbr_tests, comparisons, by_statistics, _ = tally
    mbr_tests += int(mbr_checked)
    return failed, (checks + 1, mbr_tests, comparisons, by_statistics, 1)


def p_dominates(
    u: UncertainObject,
    v: UncertainObject,
    ctx: QueryContext,
    *,
    use_mbr_validation: bool = True,
    use_cover_pruning: bool = True,
    use_geometry: bool = True,
    use_level: bool = True,
    mbr_checked: bool = False,
) -> bool:
    """P-SD dominance check with configurable filters.

    Args:
        u: candidate dominator.
        v: candidate dominated object.
        ctx: query context.
        use_mbr_validation: Theorem 4 validation via the MBR F-SD test.
        use_cover_pruning: run the much cheaper SS-SD check first
            (``not SS-SD`` implies ``not P-SD``).
        use_geometry: apply the hull-interior shortcut.
        use_level: build the coarse ``G-``/``G+`` partition networks before
            the full instance-level max flow.
        mbr_checked: the strict MBR validation already ran (and failed)
            upstream — skip repeating it.

    Under a flow-augmentation budget, an interrupted max-flow run degrades
    *this check only*: the pair is recorded as unresolved and decided by
    conservative non-dominance (False — the object stays a candidate, which
    the containment chain certifies as superset-safe); the search continues.
    """
    ctx.counters.dominance_checks += 1
    if ctx.resilient:
        ctx.spend_check(fire=True)
    if not ctx.is_euclidean:
        # Bisector-based geometric machinery is Euclidean-only.
        use_mbr_validation = use_geometry = use_level = False
    if use_mbr_validation and not mbr_checked:
        ctx.counters.mbr_tests += 1
        if mbr_dominates(u.mbr, v.mbr, ctx.query_mbr, strict=True):
            ctx.counters.validated_by_mbr += 1
            return True
    if use_cover_pruning:
        if not ss_dominates(u, v, ctx, use_level=False, mbr_checked=mbr_checked):
            ctx.counters.pruned_by_cover += 1
            return False
    if use_geometry and ctx.hull is not None:
        if ctx.kernels:
            # Batch box prefilter: only instances inside the query MBR can be
            # hull-interior, so the exact hull test runs on that subset only.
            inside = K.points_in_box(
                ctx.query_mbr.lo, ctx.query_mbr.hi, v.points, counters=ctx.counters
            )
            candidates = np.nonzero(inside)[0].tolist()
        else:
            candidates = range(len(v))
        for j in candidates:
            vp = v.points[j]
            if point_in_query_hull(vp, ctx):
                # Only an identically-placed U instance can be <=_Q this one.
                if not np.any(np.all(np.abs(u.points - vp) <= 1e-12, axis=1)):
                    ctx.counters.pruned_by_geometry += 1
                    return False
    if use_level and (len(u) > 4 or len(v) > 4):
        # Iterative level-by-level refinement: coarse G-/G+ networks first,
        # descending one local R-tree level per round while indecisive.
        from repro.core.ssd import _granularities

        for groups in _granularities(ctx.level_groups, min(len(u), len(v))):
            u_parts = ctx.partitions(u, groups)
            v_parts = ctx.partitions(v, groups)
            if len(u_parts) <= 1 and len(v_parts) <= 1:
                continue
            if ctx.faults is not None:
                ctx.faults.fire("level-flow")
            try:
                flow_minus = _level_flow(
                    u_parts,
                    v_parts,
                    ctx.query_mbr,
                    validation=True,
                    counters=ctx.counters,
                    tracer=ctx.tracer,
                    budget=ctx.budget,
                )
                if flow_minus >= 1.0 - _FLOW_TOL:
                    # Coarse validation; still guard the U_Q != V_Q clause.
                    ctx.counters.validated_by_level += 1
                    return not stochastic_equal(
                        ctx.distance_distribution(u),
                        ctx.distance_distribution(v),
                        use_kernel=ctx.kernels,
                    )
                flow_plus = _level_flow(
                    u_parts,
                    v_parts,
                    ctx.query_mbr,
                    validation=False,
                    counters=ctx.counters,
                    tracer=ctx.tracer,
                    budget=ctx.budget,
                )
                if flow_plus < 1.0 - _FLOW_TOL:
                    ctx.counters.pruned_by_level += 1
                    return False
            except FlowBudgetError:
                # Interrupted coarse network: the filter is inconclusive, so
                # stop refining and let the exact path decide (where another
                # interruption degrades the pair conservatively).
                ctx.note_unresolved("level-flow", "flow_augmentations")
                break
    # Degree shortcuts: an unmatched V instance (no incoming edge) or a U
    # instance with no outgoing edge caps the flow strictly below 1 — decided
    # on the adjacency alone, before paying for network construction.
    adj = psd_adjacency(u, v, ctx)
    if not np.all(adj.any(axis=0)) or not np.all(adj.any(axis=1)):
        return False
    if not adj.all():
        # Complete bipartite adjacency routes every supply to any demand, so
        # the flow trivially saturates; only sparse networks need solving.
        try:
            saturated = _instance_max_flow(u, v, adj, ctx) >= 1.0 - _FLOW_TOL
        except FlowBudgetError:
            ctx.note_unresolved("maxflow", "flow_augmentations")
            return False
        if not saturated:
            return False
    return not stochastic_equal(
        ctx.distance_distribution(u),
        ctx.distance_distribution(v),
        use_kernel=ctx.kernels,
    )
