"""Full spatial dominance: F-SD (instance level) and F+-SD (MBR level).

``F-SD(U, V, Q)`` holds when every instance of ``U`` is at least as close as
every instance of ``V`` to every query instance.  The paper evaluates two
variants:

* **F+-SD** — the prior-work baseline [16]: the optimal MBR-only test
  (:func:`repro.geometry.mbr.mbr_dominates`) applied to object MBRs.
* **F-SD** — an instance-level check the paper contributes for evaluation
  purposes (Section 6): for each convex-hull vertex ``q`` of the query,
  compare the *furthest* instance of ``U`` against the *nearest* instance of
  ``V`` (``delta_max(q, U) <= delta_min(q, V)``), with both extreme searches
  answered by the objects' local R-trees.

One deliberate deviation: like the three new operators, our F-SD additionally
requires ``U_Q != V_Q`` so that two identical objects do not annihilate each
other out of the candidate set; this keeps ``F-SD subset P-SD`` (Theorem 2)
intact and makes ``NNC`` well-defined under duplicates.
"""

from __future__ import annotations

import numpy as np

from repro.core.context import QueryContext
from repro.geometry.mbr import mbr_dominates
from repro.objects.uncertain import UncertainObject
from repro.stats.stochastic import stochastic_equal

_TOL = 1e-9


def fplus_dominates(
    u: UncertainObject, v: UncertainObject, ctx: QueryContext
) -> bool:
    """F+-SD: the MBR-only dominance baseline of [16].

    Strict MBR dominance is required when the boxes touch so that identical
    objects do not dominate each other; when the test is strict the
    distributions necessarily differ, so no distribution comparison is ever
    needed here.
    """
    ctx.counters.mbr_tests += 1
    if ctx.resilient:
        # No dominance-check charge (F+-SD is not counted as one), but the
        # site still fires faults and hits the deadline checkpoint.
        ctx.spend_check(0, fire=True)
    return mbr_dominates(u.mbr, v.mbr, ctx.query_mbr, strict=True)


def fsd_dominates(
    u: UncertainObject,
    v: UncertainObject,
    ctx: QueryContext,
    *,
    use_local_trees: bool = True,
    mbr_checked: bool = False,
) -> bool:
    """Instance-level F-SD with the convex hull geometric filter.

    Args:
        u: candidate dominator.
        v: candidate dominated object.
        ctx: query context (supplies hull vertices, caches, counters).
        use_local_trees: answer the per-vertex extreme-distance queries with
            each object's local R-tree (the paper's setup); the vectorised
            direct computation is used otherwise.
        mbr_checked: the strict MBR validation already ran (and failed)
            upstream — skip repeating it.
    """
    ctx.counters.dominance_checks += 1
    if ctx.resilient:
        ctx.spend_check(fire=True)
    if not ctx.is_euclidean:
        use_local_trees = False  # local R-tree extremes are Euclidean-only
    elif not mbr_checked:
        # MBR validation first: strictly dominating boxes settle it in O(d).
        ctx.counters.mbr_tests += 1
        if mbr_dominates(u.mbr, v.mbr, ctx.query_mbr, strict=True):
            ctx.counters.validated_by_mbr += 1
            return True
    if ctx.faults is not None:
        ctx.faults.fire("hull-extremes")
    tracer = ctx.tracer
    if tracer.enabled:
        with tracer.span(
            "hull-extremes",
            counters=ctx.counters,
            op="FSD",
            vertices=len(ctx.hull_points),
        ):
            ok = _extremes_ok(u, v, ctx, use_local_trees)
    else:
        ok = _extremes_ok(u, v, ctx, use_local_trees)
    if not ok:
        return False
    # All pair distances are <=; exclude the degenerate identical case.
    return not stochastic_equal(
        ctx.distance_distribution(u),
        ctx.distance_distribution(v),
        use_kernel=ctx.kernels,
    )


def _extremes_ok(
    u: UncertainObject, v: UncertainObject, ctx: QueryContext, use_local_trees: bool
) -> bool:
    """Per hull vertex: does ``delta_max(q, U) <= delta_min(q, V)`` hold?"""
    if use_local_trees:
        u_tree = u.local_rtree()
        v_tree = v.local_rtree()
        per_call = {
            "batch": ctx.kernels,
            "budget": ctx.budget,
            "metrics": ctx.counters.metrics,
        }
        for q in ctx.hull_points:
            ctx.counters.count_comparisons(1)
            far = u_tree.farthest_distance(q, **per_call)
            if far > v_tree.nearest_distance(q, **per_call) + _TOL:
                return False
        return True
    if ctx.kernels:
        # Per-object extreme vectors are cached: one reduction per
        # object instead of two per checked pair.
        u_max = ctx.hull_extremes(u)[0]  # (k,)
        v_min = ctx.hull_extremes(v)[1]
    else:
        du = ctx.hull_distance_vectors(u)  # (m_u, k)
        dv = ctx.hull_distance_vectors(v)  # (m_v, k)
        u_max = du.max(axis=0)
        v_min = dv.min(axis=0)
    ctx.counters.count_comparisons(u_max.size)
    return not extremes_violated(u_max, v_min)


def extremes_violated(u_max: np.ndarray, v_min: np.ndarray) -> np.ndarray:
    """Whether ``delta_max(q, U) > delta_min(q, V)`` at some hull vertex.

    ``u_max`` is one ``(k,)`` vector or an ``(n, k)`` stack of them (the
    search's screen over every accepted candidate at once); the answer has
    the leading shape.  True means F-SD fails for that ``U``.
    """
    return np.any(u_max > v_min + _TOL, axis=-1)


def batch_extremes(
    hull_max,
    v: UncertainObject,
    ctx: QueryContext,
    *,
    use_local_trees: bool,
    mbr_checked: bool,
) -> tuple[np.ndarray | None, tuple | None]:
    """The hull-extremes stage of :func:`fsd_dominates` for many ``U`` at once.

    ``hull_max()`` returns the ``(n, k)`` stack of the candidates'
    ``ctx.hull_extremes(u)[0]``; it is called only when the stage runs here.
    Returns ``(failed, tally)``: which candidates the stage rejects, and the
    counter deltas ``(dominance_checks, mbr_tests, instance_comparisons,
    pruned_by_statistics, pruned_by_cover)`` a kernel-path call records for
    such a pair, whose strict MBR test failed (the caller ran it when
    ``mbr_checked``, and it is counted here).  ``(None, None)`` where local
    trees answer the extremes: they stop at the first failing vertex, so
    their cost is per pair.
    """
    if use_local_trees and ctx.is_euclidean:
        return None, None
    u_max = hull_max()
    failed = extremes_violated(u_max, ctx.hull_extremes(v)[1])
    return failed, (1, int(mbr_checked), u_max.shape[1], 0, 0)
