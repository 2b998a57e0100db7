"""Tests for UncertainObject and distance distributions (Section 2.1)."""

import numpy as np
import pytest

from repro.objects.uncertain import UncertainObject, normalize_objects


class TestConstruction:
    def test_basic(self):
        obj = UncertainObject([[0.0, 0.0], [1.0, 1.0]], [0.4, 0.6], oid="A")
        assert len(obj) == 2
        assert obj.dim == 2
        assert obj.oid == "A"

    def test_uniform_probs_default(self):
        obj = UncertainObject([[0.0], [1.0], [2.0], [3.0]])
        assert np.allclose(obj.probs, 0.25)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            UncertainObject(np.empty((0, 2)))

    def test_probs_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            UncertainObject([[0.0], [1.0]], [1.0])

    def test_negative_prob_raises(self):
        with pytest.raises(ValueError):
            UncertainObject([[0.0], [1.0]], [1.5, -0.5])

    def test_unnormalized_rejected_without_flag(self):
        with pytest.raises(ValueError, match="normalize=True"):
            UncertainObject([[0.0], [1.0]], [2.0, 2.0])

    def test_multivalued_normalization(self):
        obj = UncertainObject([[0.0], [1.0]], [2.0, 6.0], normalize=True)
        assert np.allclose(obj.probs, [0.25, 0.75])

    def test_single_point_promoted_to_2d(self):
        obj = UncertainObject([5.0, 3.0])
        assert obj.points.shape == (1, 2)


class TestMBRAndTree:
    def test_mbr_caches(self):
        obj = UncertainObject([[0.0, 2.0], [4.0, 0.0]])
        assert obj.mbr is obj.mbr
        assert np.allclose(obj.mbr.lo, [0.0, 0.0])
        assert np.allclose(obj.mbr.hi, [4.0, 2.0])

    def test_local_rtree_holds_all_instances(self, rng):
        pts = rng.uniform(size=(17, 3))
        obj = UncertainObject(pts)
        tree = obj.local_rtree()
        assert len(tree) == 17
        assert sorted(tree.entries(0)) == list(range(17))

    def test_local_rtree_payload_probs(self):
        # Entries are instance rows: a payload indexes points and probs.
        obj = UncertainObject([[0.0], [1.0]], [0.3, 0.7])
        tree = obj.local_rtree()
        rows = tree.entries(0)
        assert sorted(rows) == [0, 1]
        np.testing.assert_array_equal(tree.lo, obj.points[rows])
        probs = {i: obj.probs[i] for i in rows}
        assert probs[0] == pytest.approx(0.3)
        assert probs[1] == pytest.approx(0.7)


class TestDistanceDistributions:
    def test_example_1_from_paper(self):
        """Example 1: A_Q = {(5,.25),(8,.25),(10,.25),(23,.25)}."""
        # 1-d layout realising the paper's distances: q1=0, q2=15,
        # a1=5 (d 5,10), a2=-8 (d 8,23).
        query = UncertainObject([[0.0], [15.0]], oid="Q")
        a = UncertainObject([[5.0], [-8.0]], oid="A")
        dist = a.distance_distribution(query)
        assert list(dist.values) == [5.0, 8.0, 10.0, 23.0]
        assert np.allclose(dist.probs, 0.25)
        # A_{q1} = {(5, .5), (8, .5)}
        aq1 = a.distance_distribution_to_point(np.array([0.0]))
        assert list(aq1.values) == [5.0, 8.0]
        assert np.allclose(aq1.probs, 0.5)

    def test_product_probabilities(self):
        query = UncertainObject([[0.0]], [1.0])
        obj = UncertainObject([[1.0], [2.0]], [0.3, 0.7])
        dist = obj.distance_distribution(query)
        assert dist.cdf(1.0) == pytest.approx(0.3)
        assert dist.total_mass == pytest.approx(1.0)

    def test_min_max_distance(self, rng):
        query = UncertainObject(rng.uniform(size=(3, 2)))
        obj = UncertainObject(rng.uniform(size=(4, 2)))
        dist = obj.distance_distribution(query)
        assert obj.min_distance(query) == pytest.approx(dist.min())
        assert obj.max_distance(query) == pytest.approx(dist.max())

    def test_point_distribution_scaled_mass(self):
        obj = UncertainObject([[1.0], [2.0]])
        d = obj.distance_distribution_to_point(np.array([0.0]), q_prob=0.5)
        assert d.total_mass == pytest.approx(0.5)


class TestNormalizeObjects:
    def test_normalizes_all(self):
        raw = UncertainObject([[0.0], [1.0]], [3.0, 1.0], normalize=True)
        # Rebuild an unnormalised-looking object through the helper.
        out = normalize_objects([raw])
        assert np.allclose(out[0].probs.sum(), 1.0)
        assert out[0].oid == raw.oid

    def test_preserves_points(self, rng):
        obj = UncertainObject(rng.uniform(size=(5, 2)))
        out = normalize_objects([obj])[0]
        assert np.allclose(out.points, obj.points)
