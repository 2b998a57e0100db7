"""Tests for convex hull extraction (the geometric filter substrate)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, Delaunay, QhullError

from repro.geometry.convexhull import convex_hull, point_in_hull

point_clouds_2d = st.lists(
    st.lists(st.floats(-50, 50), min_size=2, max_size=2),
    min_size=1,
    max_size=15,
).map(np.asarray)


def _closed_contains(hull, point, tol=1e-9):
    """``point`` satisfies every facet inequality of ``hull`` within ``tol``."""
    scale = max(1.0, float(np.abs(point).max()))
    return bool(np.all(hull.normals @ point <= hull.offsets + tol * scale))


class TestHull2D:
    def test_square(self):
        pts = np.array(
            [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5], [0.3, 0.7]]
        )
        assert convex_hull(pts).vertices.tolist() == [0, 1, 2, 3]

    def test_collinear_points_keep_extremes(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        hull = convex_hull(pts).points
        as_set = {tuple(p) for p in hull}
        assert (0.0, 0.0) in as_set
        assert (3.0, 3.0) in as_set
        # Interior collinear points may be dropped.
        assert len(hull) <= 4

    def test_duplicates_collapsed(self):
        pts = np.array([[0, 0], [0, 0], [1, 0], [1, 0], [0, 1]])
        hull = convex_hull(pts).points
        assert len(hull) == 3

    def test_single_and_pair(self):
        assert len(convex_hull(np.array([[1.0, 2.0]])).points) == 1
        assert len(convex_hull(np.array([[1.0, 2.0], [3.0, 4.0]])).points) == 2

    def test_empty(self):
        assert convex_hull(np.empty((0, 2))).vertices.tolist() == []
        assert not point_in_hull(np.zeros(2), convex_hull(np.empty((0, 2))))

    @given(point_clouds_2d)
    @settings(max_examples=80, deadline=None)
    def test_hull_contains_all_points(self, pts):
        """Every input point satisfies every facet of the hull."""
        hull = convex_hull(pts)
        assert len(hull.points) >= 1
        for p in pts:
            assert _closed_contains(hull, p)

    @given(point_clouds_2d)
    @settings(max_examples=50, deadline=None)
    def test_hull_vertices_are_input_points(self, pts):
        idx = convex_hull(pts).vertices.tolist()
        assert all(0 <= i < len(pts) for i in idx)
        assert idx == sorted(set(idx))


class TestHull1D:
    def test_extremes_only(self):
        pts = np.array([[3.0], [1.0], [7.0], [5.0]])
        hull = convex_hull(pts).points
        assert sorted(v[0] for v in hull) == [1.0, 7.0]


class TestHullHighDim:
    def test_3d_cube_corners_survive(self):
        corners = np.array(
            [
                [0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                [1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1],
            ],
            dtype=float,
        )
        center = np.array([[0.5, 0.5, 0.5]])
        pts = np.vstack([corners, center])
        idx = convex_hull(pts).vertices.tolist()
        # All 8 corners must be kept; the center must be dropped.
        assert set(range(8)).issubset(set(idx))
        assert 8 not in idx

    def test_conservative_never_empty(self, rng):
        pts = rng.normal(size=(10, 4))
        idx = convex_hull(pts).vertices.tolist()
        assert idx == sorted(ConvexHull(pts).vertices.tolist())

    def test_facet_solve_follows_numpy1_shape_rule(self, rng, monkeypatch):
        """pyproject allows NumPy 1.x, whose ``solve`` reads ``b`` as a stack
        of vectors only when ``b.ndim == a.ndim - 1`` and otherwise as a
        stack of matrices (so ``b.ndim >= 2``); a 1-d ``b`` against stacked
        systems raises ValueError there, which no hull call may hit."""
        real = np.linalg.solve

        def numpy1_solve(a, b):
            if np.ndim(b) != np.ndim(a) - 1 and np.ndim(b) < 2:
                raise ValueError("Input operand 1 does not have enough dimensions")
            return real(a, b)

        monkeypatch.setattr(np.linalg, "solve", numpy1_solve)
        for d in (2, 3, 5):
            pts = rng.normal(size=(30, d))
            assert convex_hull(pts).vertices.tolist() == sorted(
                ConvexHull(pts).vertices.tolist()
            )

    def test_cube_grid_keeps_only_corners(self):
        axis = np.array([0.0, 0.5, 1.0])
        grid = np.array(np.meshgrid(axis, axis, axis)).reshape(3, -1).T
        hull = convex_hull(grid)
        kept = {tuple(p) for p in hull.points}
        assert kept == {tuple(p) for p in grid if set(p) <= {0.0, 1.0}}
        for p in grid:
            assert _closed_contains(hull, p)
        assert point_in_hull(np.array([0.5, 0.5, 0.5]), hull)
        assert not point_in_hull(np.array([0.5, 0.5, 1.0]), hull)  # on a face


# --------------------------------------------------------------------- #
# Oracle: scipy's qhull, d = 2..5, n <= 50
# --------------------------------------------------------------------- #


@st.composite
def hull_inputs(draw):
    """Point sets with duplicates, fewer than d + 1 points, or a flat span."""
    d = draw(st.integers(2, 5))
    n = draw(st.integers(1, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["general", "duplicates", "flat"]))
    rank = d if shape != "flat" else draw(st.integers(0, d - 1))
    pts = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, d))
    pts = pts * rng.uniform(1.0, 1000.0) + rng.uniform(-5000.0, 5000.0, size=d)
    if shape == "duplicates":
        pts = np.vstack([pts, pts[rng.integers(0, n, size=n // 2 + 1)]])
        pts = pts[rng.permutation(len(pts))]
    return pts


def _oracle_vertices(pts):
    """Hull vertex coordinates by qhull, within the affine span of ``pts``."""
    uniq = np.unique(pts, axis=0)
    centered = uniq - uniq.mean(axis=0)
    _, sing, vt = np.linalg.svd(centered)
    rank = int(np.count_nonzero(sing > 1e-9 * sing[0])) if len(uniq) > 1 else 0
    if rank == 0:
        keep = [0]
    elif rank == 1:
        line = centered @ vt[0]
        keep = [int(np.argmin(line)), int(np.argmax(line))]
    else:
        keep = ConvexHull(centered @ vt[:rank].T).vertices
    return {tuple(p) for p in uniq[keep]}, rank


class TestScipyOracle:
    @given(hull_inputs())
    @settings(max_examples=150, deadline=None)
    def test_vertices_match_qhull(self, pts):
        hull = convex_hull(pts)
        expected, _ = _oracle_vertices(pts)
        assert {tuple(p) for p in hull.points} == expected
        assert hull.vertices.tolist() == sorted(hull.vertices.tolist())
        assert np.array_equal(hull.points, pts[hull.vertices])
        for p in pts:
            assert _closed_contains(hull, p)

    @given(hull_inputs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_point_in_hull_agrees_with_delaunay(self, pts, seed):
        hull = convex_hull(pts)
        _, rank = _oracle_vertices(pts)
        rng = np.random.default_rng(seed)
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        pad = (hi - lo) * 0.2
        probes = rng.uniform(lo - pad, hi + pad, size=(40, pts.shape[1]))
        inside = [point_in_hull(p, hull) for p in probes]
        if rank < pts.shape[1]:
            # A flat hull has no interior.
            assert not any(inside)
            center = hull.points.mean(axis=0)
            assert not point_in_hull(center, hull)
            return
        tri = Delaunay(pts)
        for p, verdict in zip(probes, inside):
            if verdict:
                assert tri.find_simplex(p) >= 0
        center = hull.points.mean(axis=0)
        assert point_in_hull(center, hull)
        for vertex in hull.points:
            assert point_in_hull((center + vertex) / 2, hull)
            assert not point_in_hull(vertex, hull)  # on the boundary

    @given(
        st.integers(2, 5),
        st.integers(2, 4),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 1e-14, 1e-13, 1e-11, 1e-9]),
        st.sampled_from([0.001, 1.0, 1000.0]),
        st.sampled_from([0.0, 5000.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_near_degenerate_input_stays_conservative(
        self, d, k, seed, jitter, scale, offset
    ):
        """Jittered point grids (coplanar facets, slivers) never raise, lose
        no point, and never put a point qhull calls outside inside."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(d + 1, 60))
        pts = rng.integers(0, k, size=(n, d)) * scale + offset
        pts = pts + rng.normal(scale=jitter, size=pts.shape) * (np.abs(pts).max() + 1)
        hull = convex_hull(pts)
        tol = 1e-9 * np.abs(pts).max()
        assert (pts @ hull.normals.T <= hull.offsets + tol).all()
        if not hull.offsets.size:
            # Facets failed their check: every point (up to the 1e-12
            # duplicate rounding) stays a vertex.
            gap = np.abs(pts[:, None] - hull.points[None]).max(axis=2).min(axis=1)
            assert gap.max() <= 1e-12
            return
        try:
            facets = ConvexHull(pts).equations
        except QhullError:
            return
        probes = rng.uniform(pts.min(axis=0), pts.max(axis=0), size=(40, d))
        for p in probes:
            if point_in_hull(p, hull):
                assert (facets[:, :-1] @ p + facets[:, -1]).max() <= tol
