"""Strict stochastic spatial dominance SS-SD (Definition 3) — optimal w.r.t. N1 ∪ N2.

``SS-SD(U, V, Q)`` iff ``U_q <=_st V_q`` for **every** query instance ``q``
and ``U_Q != V_Q``.  The check keeps ``|Q|`` CDF indicators, one per query
instance (Section 5.1.1), and fails as soon as any goes negative.

Filters mirror S-SD with two additions from the paper:

* **cover-based pruning** — ``not S-SD(U, V, Q)`` implies
  ``not SS-SD(U, V, Q)`` (Theorem 2); the cheap statistic rule on ``U_Q`` is
  the practical incarnation, plus per-instance statistics.
* **level-by-level** bounds built per query instance.
"""

from __future__ import annotations

import numpy as np

from repro.core import kernels as K
from repro.core.context import QueryContext
from repro.geometry.mbr import mbr_dominates
from repro.objects.uncertain import UncertainObject
from repro.stats.distribution import DiscreteDistribution
from repro.stats.stochastic import stochastic_equal, stochastic_leq

_TOL = 1e-9


def bounding_distributions_per_q(
    obj: UncertainObject, ctx: QueryContext, groups: int | None = None
) -> list[tuple[DiscreteDistribution, DiscreteDistribution]]:
    """Per-query-instance optimistic/pessimistic bounds on ``U_q``."""
    parts = ctx.partitions(obj, groups)
    masses = [mass for _, _, mass in parts]
    if ctx.kernels and not callable(ctx.metric):
        los = np.stack([mbr.lo for mbr, _, _ in parts])
        his = np.stack([mbr.hi for mbr, _, _ in parts])
        lo_mat, hi_mat = K.partition_bounds(
            los, his, ctx.query.points, ctx.metric, counters=ctx.counters
        )
        return [
            (
                DiscreteDistribution(lo_mat[:, j], masses),
                DiscreteDistribution(hi_mat[:, j], masses),
            )
            for j in range(lo_mat.shape[1])
        ]
    out: list[tuple[DiscreteDistribution, DiscreteDistribution]] = []
    for q in ctx.query.points:
        lo_vals = [mbr.mindist(q, ctx.norm) for mbr, _, _ in parts]
        hi_vals = [mbr.maxdist(q, ctx.norm) for mbr, _, _ in parts]
        out.append(
            (
                DiscreteDistribution(lo_vals, masses),
                DiscreteDistribution(hi_vals, masses),
            )
        )
    return out


def rows_violated(
    u_rmin: np.ndarray, u_rmax: np.ndarray, v_rmin: np.ndarray, v_rmax: np.ndarray
) -> np.ndarray:
    """The per-``q`` statistic screen: some ``U_q`` extreme exceeds ``V_q``'s.

    ``u_rmin``/``u_rmax`` are one ``(|Q|,)`` pair of
    :meth:`QueryContext.row_extremes` or ``(n, |Q|)`` stacks of them (the
    search's screen over every accepted candidate at once); the answer has
    the leading shape.  True means SS-SD fails for that ``U``.
    """
    return np.any((u_rmin > v_rmin + _TOL) | (u_rmax > v_rmax + _TOL), axis=-1)


def batch_extremes(
    row_extremes,
    v: UncertainObject,
    ctx: QueryContext,
    *,
    use_statistics: bool,
    use_cover_pruning: bool,
    mbr_checked: bool,
) -> tuple[np.ndarray | None, tuple | None]:
    """The per-``q`` statistic stage of :func:`ss_dominates` for many ``U``.

    ``row_extremes()`` returns the ``(n, |Q|)`` stacks of the candidates'
    :meth:`QueryContext.row_extremes`; it is called only when the stage
    runs.  Returns ``(failed, tally)``: which candidates the stage rejects,
    and the counter deltas ``(dominance_checks, mbr_tests,
    instance_comparisons, pruned_by_statistics, pruned_by_cover)`` a
    kernel-path call records for such a pair, which failed the strict MBR
    test (the caller ran it when ``mbr_checked``, and it is counted here)
    and passed the cover stage.  ``(None, None)`` when the stage is off.
    """
    if not use_statistics:
        return None, None
    u_rmin, u_rmax = row_extremes()
    failed = rows_violated(u_rmin, u_rmax, *ctx.row_extremes(v))
    cover_stage = 3 if use_cover_pruning else 0
    return failed, (1, int(mbr_checked), cover_stage + 2 * u_rmin.shape[1], 1, 0)


def ss_dominates(
    u: UncertainObject,
    v: UncertainObject,
    ctx: QueryContext,
    *,
    use_statistics: bool = True,
    use_mbr_validation: bool = True,
    use_cover_pruning: bool = True,
    use_level: bool = False,
    mbr_checked: bool = False,
) -> bool:
    """SS-SD dominance check with configurable filters.

    Args:
        u: candidate dominator.
        v: candidate dominated object.
        ctx: query context.
        use_statistics: per-query-instance min/mean/max pruning.
        use_mbr_validation: Theorem 4 MBR validation.
        use_cover_pruning: apply the S-SD statistic rule on the global
            distributions first (``not S-SD`` implies ``not SS-SD``).
        use_level: level-by-level bounding distributions per query instance.
        mbr_checked: the strict MBR validation already ran (and failed)
            upstream — skip repeating it.
    """
    ctx.counters.dominance_checks += 1
    if ctx.resilient:
        ctx.spend_check(fire=True)
    if use_mbr_validation and ctx.is_euclidean and not mbr_checked:
        ctx.counters.mbr_tests += 1
        if mbr_dominates(u.mbr, v.mbr, ctx.query_mbr, strict=True):
            ctx.counters.validated_by_mbr += 1
            return True
    if use_cover_pruning:
        ctx.counters.count_comparisons(3)
        u_min, u_mean, u_max = ctx.statistics(u)
        v_min, v_mean, v_max = ctx.statistics(v)
        if u_min > v_min + _TOL or u_mean > v_mean + _TOL or u_max > v_max + _TOL:
            ctx.counters.pruned_by_cover += 1
            return False
    if ctx.kernels:
        # One (|Q|, m) broadcast per object covers both the per-q statistic
        # screen and the final per-q CDF sweeps (3-d broadcast below).
        mat_u = ctx.distance_matrix(u)
        mat_v = ctx.distance_matrix(v)
        if use_statistics:
            ctx.counters.count_comparisons(2 * mat_u.shape[0])
            if rows_violated(*ctx.row_extremes(u), *ctx.row_extremes(v)):
                ctx.counters.pruned_by_statistics += 1
                return False
    else:
        u_dists = ctx.per_instance_distributions(u)
        v_dists = ctx.per_instance_distributions(v)
        if use_statistics:
            for uq, vq in zip(u_dists, v_dists):
                ctx.counters.count_comparisons(2)
                if uq.min() > vq.min() + _TOL or uq.max() > vq.max() + _TOL:
                    ctx.counters.pruned_by_statistics += 1
                    return False
    if use_level:
        # Iterative level-by-level refinement, one granularity per round.
        from repro.core.ssd import _granularities

        for groups in _granularities(ctx.level_groups, min(len(u), len(v))):
            bounds_u = bounding_distributions_per_q(u, ctx, groups)
            bounds_v = bounding_distributions_per_q(v, ctx, groups)
            validated_all = True
            for (lo_u, hi_u), (lo_v, hi_v) in zip(bounds_u, bounds_v):
                if not stochastic_leq(
                    lo_u, hi_v, counter=ctx.counters, use_kernel=ctx.kernels
                ):
                    ctx.counters.pruned_by_level += 1
                    return False
                if validated_all and not (
                    stochastic_leq(
                        hi_u, lo_v, counter=ctx.counters, use_kernel=ctx.kernels
                    )
                    and not stochastic_equal(hi_u, lo_v, use_kernel=ctx.kernels)
                ):
                    validated_all = False
            if validated_all:
                ctx.counters.validated_by_level += 1
                return True
    if ctx.faults is not None:
        ctx.faults.fire("cdf-sweep")
    tracer = ctx.tracer
    if ctx.kernels:
        # All |Q| CDF indicators at once: raw (unsorted) matrix rows feed the
        # mask-based union-grid sweep, so no per-row DiscreteDistribution is
        # ever materialised on the hot path.
        ctx.counters.count_comparisons(mat_u.size + mat_v.size)
        u_vals, u_cum = ctx.sorted_rows(u)
        v_vals, v_cum = ctx.sorted_rows(v)
        if tracer.enabled:
            with tracer.span("cdf-sweep", counters=ctx.counters, op="SSSD"):
                ok = K.cdf_dominates_sorted(
                    u_vals, u_cum, v_vals, v_cum, counters=ctx.counters
                )
        else:
            ok = K.cdf_dominates_sorted(
                u_vals, u_cum, v_vals, v_cum, counters=ctx.counters
            )
        if not bool(ok.all()):
            return False
    elif tracer.enabled:
        with tracer.span("cdf-sweep", counters=ctx.counters, op="SSSD"):
            for uq, vq in zip(u_dists, v_dists):
                if not stochastic_leq(uq, vq, counter=ctx.counters):
                    return False
    else:
        for uq, vq in zip(u_dists, v_dists):
            if not stochastic_leq(uq, vq, counter=ctx.counters):
                return False
    u_q = ctx.distance_distribution(u)
    v_q = ctx.distance_distribution(v)
    return not stochastic_equal(u_q, v_q, use_kernel=ctx.kernels)
