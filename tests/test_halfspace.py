"""Tests for the instance ordering u <=_Q v and its hull-vertex reduction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.convexhull import convex_hull
from repro.geometry.halfspace import (
    closer_to_query,
    distance_vector,
    dominance_matrix,
)

points_2d = st.lists(st.floats(-20, 20), min_size=2, max_size=2).map(np.asarray)
clouds_2d = st.lists(
    st.lists(st.floats(-20, 20), min_size=2, max_size=2), min_size=1, max_size=8
).map(np.asarray)


class TestCloserToQuery:
    def test_trivially_closer(self):
        q = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert closer_to_query([0.5, 0.0], [10.0, 0.0], q)
        assert not closer_to_query([10.0, 0.0], [0.5, 0.0], q)

    def test_equal_points_closer_both_ways(self):
        q = np.array([[0.0, 0.0], [3.0, 1.0]])
        u = [2.0, 2.0]
        assert closer_to_query(u, u, q)

    def test_mixed_not_closer(self):
        # u closer to q1 but farther from q2 => not <=_Q.
        q = np.array([[0.0, 0.0], [10.0, 0.0]])
        assert not closer_to_query([1.0, 0.0], [9.0, 0.0], q)
        assert not closer_to_query([9.0, 0.0], [1.0, 0.0], q)

    @given(points_2d, points_2d, clouds_2d)
    @settings(max_examples=100, deadline=None)
    def test_hull_vertices_suffice(self, u, v, query_points):
        """Checking only CH(Q) must agree with checking all of Q."""
        full = closer_to_query(u, v, query_points)
        hull = convex_hull(query_points).points
        reduced = closer_to_query(u, v, hull)
        assert full == reduced

    @given(points_2d, points_2d, clouds_2d)
    @settings(max_examples=60, deadline=None)
    def test_interior_points_inherit(self, u, v, query_points):
        """If u <=_Q v on the hull, it holds for arbitrary convex combos."""
        hull = convex_hull(query_points).points
        if not closer_to_query(u, v, hull):
            return
        rng = np.random.default_rng(3)
        weights = rng.dirichlet(np.ones(len(hull)), size=10)
        combos = weights @ hull
        assert closer_to_query(u, v, combos)


class TestDistanceVector:
    def test_shape_and_values(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])
        qs = np.array([[0.0, 0.0], [0.0, 1.0], [6.0, 8.0]])
        vec = distance_vector(pts, qs)
        assert vec.shape == (2, 3)
        assert vec[1, 0] == pytest.approx(5.0)
        assert vec[0, 0] == pytest.approx(0.0)

    @given(points_2d, points_2d, clouds_2d)
    @settings(max_examples=60, deadline=None)
    def test_vector_dominance_equals_closer(self, u, v, query_points):
        """u <=_Q v iff dist-vector(u) <= dist-vector(v) coordinate-wise."""
        vecs = distance_vector(np.vstack([u, v]), query_points)
        coordwise = bool(np.all(vecs[0] <= vecs[1] + 1e-9))
        assert coordwise == closer_to_query(u, v, query_points)


class TestDominanceMatrix:
    def test_matches_scalar_checks(self, rng):
        us = rng.uniform(0, 10, size=(4, 2))
        vs = rng.uniform(0, 10, size=(5, 2))
        qs = rng.uniform(0, 10, size=(3, 2))
        mat = dominance_matrix(us, vs, qs)
        assert mat.shape == (4, 5)
        for i in range(4):
            for j in range(5):
                assert mat[i, j] == closer_to_query(us[i], vs[j], qs)

    def test_diagonal_self_dominance(self, rng):
        pts = rng.uniform(0, 5, size=(4, 2))
        qs = rng.uniform(0, 5, size=(3, 2))
        mat = dominance_matrix(pts, pts, qs)
        assert np.all(np.diag(mat))
