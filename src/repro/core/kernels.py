"""Vectorized batch kernels for the dominance-check hot path.

The paper's C++ system pays one arithmetic instruction per instance
comparison; a pure-Python reproduction pays a full interpreter round-trip
unless the inner loops are expressed as NumPy batch operations.  This module
collects those batch primitives in one place so every operator (S-SD, SS-SD,
P-SD, F-SD) and the NNC search share them:

* **distance matrices** — the whole ``(m, k)`` block of pair distances per
  object in one broadcast (:func:`distance_matrix`), replacing per-pair
  metric calls;
* **stochastic-order checks** — the single-scan CDF sweep of Section 5.1.1
  evaluated at ``Y``'s jump points with ``searchsorted``
  (:func:`cdf_dominates`), and row-wise over all query instances at once
  for the SS-SD per-``q`` loop (:func:`cdf_dominates_sorted`, with the
  order-free :func:`cdf_dominates_many` as its reference);
* **MBR bounds** — ``mindist``/``maxdist`` of partition MBRs against the
  whole query instance array (:func:`partition_bounds`), node children
  against the query box (:func:`children_mindist_box`), and the optimal
  Emrich et al. dominance test of many boxes at once
  (:func:`mbr_dominance_mask`);
* **halfspace tests** — the ``u <=_Q v`` adjacency of all instance pairs
  against all hull vertices in one broadcast
  (:func:`halfspace_adjacency`) for P-SD network construction;
* **statistic pruning** — the Theorem 11 (min, mean, max) screen of a new
  object against every accepted candidate at once
  (:func:`statistic_prune`).

Every kernel has a scalar twin — either here (``*_scalar``) or the original
loop implementation kept behind ``QueryContext(kernels=False)`` — and the
property tests in ``tests/test_kernels_property.py`` assert element-wise
agreement within ``1e-9`` across metrics and degenerate inputs.

Instrumentation: kernels accept an optional ``counters`` sink (a
:class:`repro.core.counters.Counters`) and record invocations, elements
processed, and scalar fallbacks via :func:`record`.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.distance import pairwise_distances, resolve_metric
from repro.geometry.halfspace import adjacency_from_vectors
from repro.obs.metrics import SIZE_BUCKETS
from repro.stats.distribution import _PROB_TOL, DiscreteDistribution
from repro.geometry.mbr import (
    boxes_maxdist_point,
    boxes_maxdist_points,
    boxes_mindist_box,
    boxes_mindist_point,
    boxes_mindist_points,
    mbr_corner_terms,
    mbr_dominates_batch,
    mbr_maxdist_points,
    mbr_mindist_points,
)

__all__ = [
    "boxes_maxdist_point",
    "boxes_maxdist_points",
    "boxes_mindist_box",
    "boxes_mindist_point",
    "boxes_mindist_points",
    "cdf_dominates",
    "cdf_dominates_many",
    "cdf_dominates_sorted",
    "children_mindist_box",
    "distance_matrix",
    "distance_matrix_scalar",
    "halfspace_adjacency",
    "mbr_corner_terms",
    "mbr_dominance_mask",
    "mbr_dominates_batch",
    "mbr_maxdist_points",
    "mbr_mindist_points",
    "partition_bounds",
    "points_in_box",
    "record",
    "sorted_rows",
    "statistic_prune",
]

_CDF_TIE = 1e-12
_MASS_TOL = 1e-6


def record(
    counters, elements: int, *, fallback: bool = False, kernel: str | None = None
) -> None:
    """Record one kernel invocation (or scalar fallback) on a counter sink.

    When the counter bag carries a metrics registry (see
    :class:`repro.obs.metrics.MetricsRegistry`; attached by query contexts
    with metrics enabled), the invocation also feeds the per-kernel batch
    size histogram ``repro_kernel_batch_elements{kernel=...}`` — the batch
    granularity distribution of the vectorised hot path.

    When the bag carries a :class:`repro.resilience.budget.Budget` (attached
    the same way by budgeted contexts), every invocation doubles as a
    deadline checkpoint — the natural cooperative-cancellation cadence of
    the vectorised hot path, on both the kernel and the fallback branch.
    """
    if counters is None:
        return
    budget = counters.budget
    if budget is not None:
        budget.checkpoint("kernel")
    if fallback:
        counters.scalar_fallbacks += 1
    else:
        counters.kernel_invocations += 1
        counters.kernel_elements += int(elements)
    metrics = counters.metrics
    if metrics is not None:
        labels = {"kernel": kernel or "unknown"}
        if fallback:
            metrics.inc("repro_kernel_scalar_fallbacks_total", 1, labels)
        else:
            metrics.observe(
                "repro_kernel_batch_elements", int(elements), labels,
                buckets=SIZE_BUCKETS,
            )


# --------------------------------------------------------------------- #
# Distance matrices
# --------------------------------------------------------------------- #


def distance_matrix(
    xs: np.ndarray, ys: np.ndarray, metric: str = "euclidean", *, counters=None
) -> np.ndarray:
    """All pair distances between two point sets as one broadcast.

    Named Minkowski metrics run as a single NumPy expression; callable
    metrics fall back to the per-pair loop (recorded as a scalar fallback).
    """
    out = pairwise_distances(xs, ys, metric)
    record(
        counters,
        out.size,
        fallback=callable(metric) and not _is_named(metric),
        kernel="distance_matrix",
    )
    return out


def _is_named(metric) -> bool:
    from repro.geometry.distance import chebyshev, euclidean, manhattan

    return metric in (euclidean, manhattan, chebyshev)


def distance_matrix_scalar(
    xs: np.ndarray, ys: np.ndarray, metric: str = "euclidean", *, counters=None
) -> np.ndarray:
    """Scalar reference: one metric call per pair (the pre-kernel path)."""
    fn = resolve_metric(metric)
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    out = np.empty((xs.shape[0], ys.shape[0]), dtype=float)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            out[i, j] = fn(x, y)
    record(counters, out.size, fallback=True, kernel="distance_matrix")
    return out


# --------------------------------------------------------------------- #
# Stochastic order (CDF comparison) kernels
# --------------------------------------------------------------------- #


def cdf_dominates(
    x_values: np.ndarray,
    x_probs: np.ndarray,
    y_values: np.ndarray,
    y_probs: np.ndarray,
    *,
    tol: float = 1e-9,
    counters=None,
) -> bool:
    """``X <=_st Y`` on raw sorted support arrays, fully vectorised.

    ``Pr(X <= t) >= Pr(Y <= t)`` only needs checking where the right side
    jumps — the support points of ``Y`` (between jumps ``cdf_y`` is constant
    while ``cdf_x`` is non-decreasing, so the gap is tightest at the jump).
    One ``searchsorted`` of ``Y``'s support into ``X``'s replaces the old
    two-pass sweep over the concatenated union grid; the ``+1e-12`` shift
    applies the same value-tie convention as the scalar scan in
    :func:`repro.stats.stochastic.stochastic_leq`.

    Args:
        x_values: sorted support of ``X``, shape ``(nx,)``.
        x_probs: matching probabilities.
        y_values: sorted support of ``Y``, shape ``(ny,)``.
        y_probs: matching probabilities.
    """
    xv = np.asarray(x_values, dtype=float)
    xp = np.asarray(x_probs, dtype=float)
    yv = np.asarray(y_values, dtype=float)
    yp = np.asarray(y_probs, dtype=float)
    record(counters, xv.size + yv.size, kernel="cdf_dominates")
    if abs(xp.sum() - yp.sum()) > _MASS_TOL:
        return False
    if xv.size and yv.size and xv[0] > yv[0] + _CDF_TIE and yp[0] > tol:
        # O(1) reject: Y has mass strictly below X's smallest atom.
        return False
    cum_x = np.concatenate([[0.0], np.cumsum(xp)])
    cdf_x = cum_x[np.searchsorted(xv, yv + _CDF_TIE, side="right")]
    return bool(np.all(cdf_x >= np.cumsum(yp) - tol))


def cdf_dominates_many(
    x_values: np.ndarray,
    x_probs: np.ndarray,
    y_values: np.ndarray,
    y_probs: np.ndarray,
    *,
    tol: float = 1e-9,
    counters=None,
) -> np.ndarray:
    """Row-wise ``X_i <=_st Y_i`` for stacks of distributions.

    The SS-SD per-query-instance loop as one 3-d broadcast: row ``i`` of
    ``x_values``/``y_values`` holds the support of ``U_{q_i}``/``V_{q_i}``.
    Rows need **not** be sorted — each CDF is evaluated by masked summation
    against the union grid, which is order-independent.

    Args:
        x_values: shape ``(k, nx)``.
        x_probs: shape ``(nx,)`` (shared across rows) or ``(k, nx)``.
        y_values: shape ``(k, ny)``.
        y_probs: shape ``(ny,)`` or ``(k, ny)``.

    Returns:
        Boolean array of shape ``(k,)``.
    """
    xv = np.atleast_2d(np.asarray(x_values, dtype=float))
    yv = np.atleast_2d(np.asarray(y_values, dtype=float))
    xp = np.asarray(x_probs, dtype=float)
    yp = np.asarray(y_probs, dtype=float)
    record(counters, xv.size + yv.size, kernel="cdf_dominates_many")
    grid = np.concatenate([xv, yv], axis=1) + _CDF_TIE  # (k, g)
    xpb = xp[:, None, :] if xp.ndim == 2 else xp
    ypb = yp[:, None, :] if yp.ndim == 2 else yp
    cdf_x = ((xv[:, None, :] <= grid[:, :, None]) * xpb).sum(axis=2)
    cdf_y = ((yv[:, None, :] <= grid[:, :, None]) * ypb).sum(axis=2)
    ok = np.all(cdf_x >= cdf_y - tol, axis=1)
    mass_ok = np.abs(xp.sum(axis=-1) - yp.sum(axis=-1)) <= _MASS_TOL
    return ok & mass_ok


def _union_counts(vals: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Per row: how many entries of ``vals`` are ``<=`` each grid point.

    Both inputs must be row-sorted.  A stable argsort of the concatenation
    is a vectorised row-wise merge: the rank of grid point ``p`` minus the
    ``p`` grid points before it counts the ``vals`` entries at or below it
    (``vals`` columns come first, so value ties resolve as ``<=``).
    """
    k, n = vals.shape
    g = grid.shape[1]
    order = np.argsort(np.concatenate([vals, grid], axis=1), axis=1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.broadcast_to(np.arange(n + g), (k, n + g)), axis=1)
    return ranks[:, n:] - np.arange(g)


def sorted_rows(mat: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of ``mat`` as a distribution over ``probs``, for the row sweep.

    Returns ``(vals, cum)``: the ``(k, n)`` rows sorted, and the
    ``(k, n + 1)`` prefix sums of ``probs`` in that order (leading zero
    column), accumulated in the scalar scan's order so borderline tolerance
    comparisons agree.  With equal masses every row shares one prefix sum,
    so the rows are sorted by value alone and ``cum`` is a read-only
    broadcast of that one row.

    A row is what :class:`DiscreteDistribution` holds, unmerged: summing
    exact ties changes no CDF value.  A row that the distribution changes
    otherwise (values less than ``1e-12`` apart are merged into their run's
    first value, atoms of mass ``<= 1e-9`` dropped) is replaced by that
    distribution, the one the scalar scan reads, padded with ``+inf``
    values that add no mass.
    """
    probs = np.asarray(probs, dtype=float)
    if probs[0] == probs[-1] and (probs == probs[0]).all():
        vals = np.sort(mat, axis=1)
        row = np.zeros(mat.shape[1] + 1)
        np.cumsum(probs, out=row[1:])
        cum = np.broadcast_to(row, (mat.shape[0], row.size))
        tiny = probs[0] <= _PROB_TOL
    else:
        order = np.argsort(mat, axis=1, kind="stable")
        vals = np.take_along_axis(mat, order, axis=1)
        cum = np.zeros((mat.shape[0], mat.shape[1] + 1))
        np.cumsum(probs[order], axis=1, out=cum[:, 1:])
        tiny = probs.min() <= _PROB_TOL
    gaps = vals[:, 1:] - vals[:, :-1]
    if tiny:
        merged = np.ones(vals.shape[0], dtype=bool)
    elif gaps.size and gaps.min() <= _CDF_TIE:  # ties of any kind: rare
        merged = np.any((gaps > 0.0) & (gaps <= _CDF_TIE), axis=1)
    else:
        return vals, cum
    if merged.any():
        vals = vals.copy()
        cum = cum.copy()
        for r in np.flatnonzero(merged):
            dist = DiscreteDistribution(mat[r], probs)
            n = dist.values.size
            vals[r, :n] = dist.values
            vals[r, n:] = np.inf
            cum[r, : n + 1] = dist.cum_probs()
            cum[r, n + 1 :] = cum[r, n]
    return vals, cum


def cdf_dominates_sorted(
    x_vals: np.ndarray,
    x_cum: np.ndarray,
    y_vals: np.ndarray,
    y_cum: np.ndarray,
    *,
    tol: float = 1e-9,
    counters=None,
) -> np.ndarray:
    """Row-wise ``X_i <=_st Y_i`` over pre-sorted rows with cached prefix sums.

    Same contract as :func:`cdf_dominates_many`, but consumes the
    :meth:`QueryContext.sorted_rows` representation — ``(k, n)`` row-sorted
    values plus ``(k, n + 1)`` cumulative masses — replacing the masked
    ``O(k g n)`` summation with one ``O(k g log g)`` merge.

    ``cdf_x`` is read only at ``Y``'s jump points, as in :func:`cdf_dominates`
    and the scalar scan: after absorbing ``Y``'s atom ``j`` the scan holds
    every ``X`` atom within ``1e-12`` of it, so its failure test is
    ``cdf_x(y_j + 1e-12) < cum_y[j + 1] - tol``.  Rows from
    :func:`sorted_rows` hold the distributions the scan reads, so the
    verdicts are the scan's; the ``+inf`` padding there adds no mass, and its
    checks read ``X``'s total mass, which ``Y``'s last real atom already
    bounds.
    """
    record(counters, x_vals.size + y_vals.size, kernel="cdf_dominates_sorted")
    cdf_x = np.take_along_axis(x_cum, _union_counts(x_vals, y_vals + _CDF_TIE), axis=1)
    ok = np.all(cdf_x >= y_cum[:, 1:] - tol, axis=1)
    mass_ok = np.abs(x_cum[:, -1] - y_cum[:, -1]) <= _MASS_TOL
    return ok & mass_ok


# --------------------------------------------------------------------- #
# MBR bound kernels (instrumented wrappers over geometry.mbr)
# --------------------------------------------------------------------- #


def partition_bounds(
    los: np.ndarray,
    his: np.ndarray,
    points: np.ndarray,
    metric: str = "euclidean",
    *,
    counters=None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(mindist, maxdist)`` matrices of many partition MBRs × many points.

    Returns two ``(b, n)`` arrays — the inputs of the level-by-level
    bounding distributions (Section 5.1.2) built in one shot.
    """
    lo_mat = boxes_mindist_points(los, his, points, metric)
    hi_mat = boxes_maxdist_points(los, his, points, metric)
    record(counters, lo_mat.size * 2, kernel="partition_bounds")
    return lo_mat, hi_mat


def children_mindist_box(
    los: np.ndarray,
    his: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    metric: str = "euclidean",
    *,
    counters=None,
) -> np.ndarray:
    """``mindist`` of a node's child boxes to the query box; shape ``(b,)``."""
    out = boxes_mindist_box(los, his, lo, hi, metric)
    record(counters, out.size, kernel="children_mindist_box")
    return out


def mbr_dominance_mask(
    u_los: np.ndarray,
    u_his: np.ndarray,
    v_mbr,
    q_mbr,
    *,
    strict: bool = False,
    u_max_sq: np.ndarray | None = None,
    counters=None,
) -> np.ndarray:
    """Which of many ``U`` boxes dominate ``v_mbr`` w.r.t. ``q_mbr``.

    The batched Theorem 4 / F+-SD validation rule used to screen a popped
    heap entry against every accepted candidate's MBR at once.  Pass the
    cached :func:`mbr_corner_terms` of the ``U`` boxes as ``u_max_sq`` when
    testing many entries against the same candidate set.
    """
    out = mbr_dominates_batch(
        u_los,
        u_his,
        v_mbr.lo,
        v_mbr.hi,
        q_mbr.lo,
        q_mbr.hi,
        strict=strict,
        u_max_sq=u_max_sq,
    )
    record(counters, out.size, kernel="mbr_dominance_mask")
    return out


# --------------------------------------------------------------------- #
# Pruning / geometry kernels
# --------------------------------------------------------------------- #


def statistic_prune(
    u_stats: np.ndarray, v_stats: np.ndarray, *, tol: float = 1e-9, counters=None
) -> np.ndarray:
    """Theorem 11 screen of many candidate dominators against one object.

    Args:
        u_stats: ``(n, 3)`` array of accepted candidates'
            ``(min, mean, max)`` of their distance distributions.
        v_stats: ``(3,)`` statistics of the object under test.

    Returns:
        Boolean mask of the ``U`` rows that *may* dominate (every statistic
        no larger than the object's, within ``tol``); rows excluded by the
        mask are certain non-dominators.
    """
    u = np.atleast_2d(np.asarray(u_stats, dtype=float))
    v = np.asarray(v_stats, dtype=float)
    record(counters, u.size, kernel="statistic_prune")
    return np.all(u <= v[None, :] + tol, axis=1)


def points_in_box(lo: np.ndarray, hi: np.ndarray, points: np.ndarray, *, counters=None) -> np.ndarray:
    """Which points lie inside the closed box; boolean shape ``(n,)``."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    record(counters, pts.size, kernel="points_in_box")
    return np.all((pts >= lo[None, :]) & (pts <= hi[None, :]), axis=1)


def halfspace_adjacency(
    du: np.ndarray, dv: np.ndarray, *, tol: float = 1e-9, counters=None
) -> np.ndarray:
    """Batched ``u <=_Q v`` adjacency from hull distance vectors.

    One broadcast over all ``(u, v)`` instance pairs and all hull vertices —
    the edge set of the P-SD max-flow network (Theorem 12).
    """
    out = adjacency_from_vectors(du, dv, tol=tol)
    record(
        counters,
        du.shape[0] * dv.shape[0] * du.shape[1],
        kernel="halfspace_adjacency",
    )
    return out
