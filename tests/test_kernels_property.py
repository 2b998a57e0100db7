"""Hypothesis property tests: each batch kernel equals its scalar twin.

Every vectorised kernel on the ``QueryContext(kernels=True)`` hot path must
be element-wise interchangeable (within ``1e-9``) with the scalar reference
it replaced — across all three named metrics and on degenerate inputs
(single instances, duplicated points, zero-width boxes).  The coarse value
grids below make exact ties common, exercising every tolerance convention.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels as K
from repro.core.context import QueryContext
from repro.core.nnc import NNCSearch
from repro.geometry.distance import resolve_norm
from repro.geometry.mbr import MBR, mbr_dominates
from repro.stats.distribution import DiscreteDistribution
from repro.stats.stochastic import stochastic_leq

from .conftest import probability_vectors, uncertain_objects

METRICS = ("euclidean", "manhattan", "chebyshev")

# Half-integer grid: duplicate coordinates and exact distance ties are common.
coords = st.floats(min_value=-8.0, max_value=8.0).map(lambda x: round(x * 2) / 2)


class _Counter:
    """Minimal comparison sink forcing the scalar scan in stochastic_leq."""

    def __init__(self) -> None:
        self.n = 0

    def count_comparisons(self, n: int) -> None:
        self.n += n


@st.composite
def point_arrays(draw, min_rows: int = 1, max_rows: int = 5, dim: int = 2):
    n = draw(st.integers(min_value=min_rows, max_value=max_rows))
    pts = draw(
        st.lists(
            st.lists(coords, min_size=dim, max_size=dim),
            min_size=n,
            max_size=n,
        )
    )
    return np.asarray(pts, dtype=float)


@st.composite
def boxes(draw, max_boxes: int = 4, dim: int = 2):
    """Stacked (lo, hi) corner arrays; zero-width boxes are possible."""
    a = draw(point_arrays(min_rows=1, max_rows=max_boxes, dim=dim))
    b = draw(point_arrays(min_rows=a.shape[0], max_rows=a.shape[0], dim=dim))
    return np.minimum(a, b), np.maximum(a, b)


@st.composite
def tied_distributions(draw, max_size: int = 6):
    n = draw(st.integers(min_value=1, max_value=max_size))
    values = draw(
        st.lists(
            st.integers(min_value=0, max_value=8).map(float),
            min_size=n,
            max_size=n,
        )
    )
    probs = draw(probability_vectors(min_size=n, max_size=n))
    return DiscreteDistribution(values, probs)


grid_values = st.integers(min_value=0, max_value=8).map(float)
# A three-point grid with sub-1e-12 offsets: runs of values a distribution
# merges (4e-13 steps chain up to 8e-13 past the run's first value) next to
# values just past the 1e-12 tie (1.2e-12).
near_tied_values = st.tuples(
    st.integers(min_value=0, max_value=2).map(float),
    st.sampled_from([0.0, 4e-13, 8e-13, 1.2e-12]),
).map(sum)


@st.composite
def distribution_rows(
    draw, max_rows: int = 4, max_cols: int = 5, values=grid_values, tiny_mass=False
):
    k = draw(st.integers(min_value=1, max_value=max_rows))
    n = draw(st.integers(min_value=1, max_value=max_cols))
    vals = draw(
        st.lists(
            st.lists(values, min_size=n, max_size=n),
            min_size=k,
            max_size=k,
        )
    )
    probs = draw(probability_vectors(min_size=n, max_size=n))
    if tiny_mass and n > 1 and draw(st.booleans()):
        # One atom below the distribution's 1e-9 mass floor: dropped there.
        probs[draw(st.integers(0, n - 1))] = 5e-10
    return np.asarray(vals, dtype=float), np.asarray(probs, dtype=float)


def _sorted_rows(vals: np.ndarray, probs: np.ndarray):
    """The QueryContext.sorted_rows representation, built independently."""
    order = np.argsort(vals, axis=1, kind="stable")
    srt = np.take_along_axis(vals, order, axis=1)
    cum = np.zeros((vals.shape[0], vals.shape[1] + 1))
    np.cumsum(probs[order], axis=1, out=cum[:, 1:])
    return srt, cum


# --------------------------------------------------------------------- #
# Distance kernels
# --------------------------------------------------------------------- #


@given(xs=point_arrays(), ys=point_arrays(), metric=st.sampled_from(METRICS))
def test_distance_matrix_matches_scalar(xs, ys, metric):
    batch = K.distance_matrix(xs, ys, metric)
    ref = K.distance_matrix_scalar(xs, ys, metric)
    assert batch.shape == ref.shape
    assert np.allclose(batch, ref, atol=1e-9)


@given(los_his=boxes(), pts=point_arrays(), metric=st.sampled_from(METRICS))
def test_partition_bounds_match_scalar(los_his, pts, metric):
    los, his = los_his
    lo_mat, hi_mat = K.partition_bounds(los, his, pts, metric)
    norm = None if metric == "euclidean" else resolve_norm(metric)
    for b in range(los.shape[0]):
        mbr = MBR(los[b], his[b])
        for j, q in enumerate(pts):
            assert abs(lo_mat[b, j] - mbr.mindist(q, norm)) <= 1e-9
            assert abs(hi_mat[b, j] - mbr.maxdist(q, norm)) <= 1e-9


# --------------------------------------------------------------------- #
# Stochastic order kernels
# --------------------------------------------------------------------- #


@given(dx=tied_distributions(), dy=tied_distributions())
def test_cdf_dominates_matches_scan(dx, dy):
    got = K.cdf_dominates(dx.values, dx.probs, dy.values, dy.probs)
    want = stochastic_leq(dx, dy, counter=_Counter())
    assert got == want


@given(x=distribution_rows(), y=distribution_rows())
def test_cdf_row_kernels_match_scan(x, y):
    xv, xp = x
    yv, yp = y
    k = min(xv.shape[0], yv.shape[0])
    xv, yv = xv[:k], yv[:k]
    many = K.cdf_dominates_many(xv, xp, yv, yp)
    srt = K.cdf_dominates_sorted(*_sorted_rows(xv, xp), *_sorted_rows(yv, yp))
    for i in range(k):
        ref = stochastic_leq(
            DiscreteDistribution(xv[i], xp),
            DiscreteDistribution(yv[i], yp),
            counter=_Counter(),
        )
        assert bool(many[i]) == ref
        assert bool(srt[i]) == ref


@given(
    x=distribution_rows(values=near_tied_values, tiny_mass=True),
    y=distribution_rows(values=near_tied_values, tiny_mass=True),
)
@settings(max_examples=300)
def test_sorted_row_sweep_matches_scan_on_near_ties(x, y):
    """Rows from K.sorted_rows hold what the scan reads, merges included."""
    xv, xp = x
    yv, yp = y
    k = min(xv.shape[0], yv.shape[0])
    xv, yv = xv[:k], yv[:k]
    srt = K.cdf_dominates_sorted(*K.sorted_rows(xv, xp), *K.sorted_rows(yv, yp))
    for i in range(k):
        ref = stochastic_leq(
            DiscreteDistribution(xv[i], xp),
            DiscreteDistribution(yv[i], yp),
            counter=_Counter(),
        )
        assert bool(srt[i]) == ref


def test_sorted_row_sweep_merges_a_sub_tie_gap():
    # Y's two values are one atom of mass 1 to the scan; X's are 1.2e-12
    # apart, so half of X's mass lies past that atom's tie: no dominance.
    half = np.array([0.5, 0.5])
    x = np.array([[1.0, 1.0 + 1.2e-12]])
    y = np.array([[1.0, 1.0 + 5e-13]])
    ref = stochastic_leq(
        DiscreteDistribution(x[0], half), DiscreteDistribution(y[0], half), counter=_Counter()
    )
    got = K.cdf_dominates_sorted(*K.sorted_rows(x, half), *K.sorted_rows(y, half))
    assert ref is False
    assert got.tolist() == [False]


def test_sorted_row_sweep_drops_sub_floor_masses():
    # The distribution drops X's atoms of mass <= 1e-9 (at 0.5 and 2.0), so
    # X holds 1 - 1.3e-9 at 1.0: short of Y's unit atom there by more than
    # the 1e-9 tolerance.  Kept, the atom at 0.5 would close the gap.
    x = np.array([[0.5, 1.0, 2.0]])
    px = np.array([8e-10, 1.0 - 1.3e-9, 5e-10])
    y = np.array([[1.0]])
    py = np.array([1.0])
    ref = stochastic_leq(
        DiscreteDistribution(x[0], px), DiscreteDistribution(y[0], py), counter=_Counter()
    )
    got = K.cdf_dominates_sorted(*K.sorted_rows(x, px), *K.sorted_rows(y, py))
    assert ref is False
    assert got.tolist() == [False]


# --------------------------------------------------------------------- #
# MBR dominance and pruning kernels
# --------------------------------------------------------------------- #


@given(
    u_boxes=boxes(),
    v_box=boxes(max_boxes=1),
    q_box=boxes(max_boxes=1),
    strict=st.booleans(),
)
def test_mbr_dominance_mask_matches_scalar(u_boxes, v_box, q_box, strict):
    los, his = u_boxes
    v_mbr = MBR(v_box[0][0], v_box[1][0])
    q_mbr = MBR(q_box[0][0], q_box[1][0])
    mask = K.mbr_dominance_mask(los, his, v_mbr, q_mbr, strict=strict)
    cached = K.mbr_dominance_mask(
        los,
        his,
        v_mbr,
        q_mbr,
        strict=strict,
        u_max_sq=K.mbr_corner_terms(los, his, q_mbr.lo, q_mbr.hi),
    )
    ref = [
        mbr_dominates(MBR(lo, hi), v_mbr, q_mbr, strict=strict)
        for lo, hi in zip(los, his)
    ]
    assert mask.tolist() == ref
    assert cached.tolist() == ref


@given(du=point_arrays(dim=3), dv=point_arrays(dim=3))
def test_halfspace_adjacency_matches_scalar(du, dv):
    du = np.abs(du)  # distance vectors are non-negative
    dv = np.abs(dv)
    adj = K.halfspace_adjacency(du, dv)
    for i in range(du.shape[0]):
        for j in range(dv.shape[0]):
            assert bool(adj[i, j]) == bool(np.all(du[i] <= dv[j] + 1e-9))


@given(stats=point_arrays(dim=3), v=point_arrays(min_rows=1, max_rows=1, dim=3))
def test_statistic_prune_matches_scalar(stats, v):
    u_stats = np.sort(np.abs(stats), axis=1)  # (min, mean, max) triples
    v_stats = np.sort(np.abs(v[0]))
    mask = K.statistic_prune(u_stats, v_stats)
    for i, (u_min, u_mean, u_max) in enumerate(u_stats):
        ref = not (
            u_min > v_stats[0] + 1e-9
            or u_mean > v_stats[1] + 1e-9
            or u_max > v_stats[2] + 1e-9
        )
        assert bool(mask[i]) == ref


@given(box=boxes(max_boxes=1), pts=point_arrays())
def test_points_in_box_matches_scalar(box, pts):
    lo, hi = box[0][0], box[1][0]
    mask = K.points_in_box(lo, hi, pts)
    mbr = MBR(lo, hi)
    assert mask.tolist() == [bool(mbr.contains_point(p)) for p in pts]


# --------------------------------------------------------------------- #
# End to end: kernels on/off must yield identical candidate sets
# --------------------------------------------------------------------- #

small_scenes = st.tuples(
    st.lists(
        uncertain_objects(max_instances=3, coord_range=8.0),
        min_size=2,
        max_size=6,
    ),
    uncertain_objects(max_instances=3, coord_range=8.0, uniform_probs=True),
)


@settings(max_examples=20, deadline=None)
@given(
    scene=small_scenes,
    kind=st.sampled_from(["SSD", "SSSD", "PSD", "FSD", "F+SD"]),
    metric=st.sampled_from(["euclidean", "manhattan"]),
    k=st.integers(min_value=1, max_value=2),
)
def test_kernel_mode_preserves_candidates(scene, kind, metric, k):
    objects, query = scene
    for i, obj in enumerate(objects):
        obj.oid = i
    search = NNCSearch(objects)
    outcomes = {}
    for kernels in (False, True):
        ctx = QueryContext(query, metric=metric, kernels=kernels)
        result = search.run(query, kind, ctx=ctx, k=k)
        outcomes[kernels] = sorted(result.oids())
    assert outcomes[False] == outcomes[True]
