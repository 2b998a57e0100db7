"""Tests for P-SD internals: network construction, level networks, geometry."""

import numpy as np
import pytest

from repro.core.bruteforce import brute_p_dominates
from repro.core.context import QueryContext
from repro.core.psd import build_psd_network, p_dominates, point_in_query_hull
from repro.flow.maxflow import max_flow
from repro.objects.uncertain import UncertainObject

from .conftest import random_object, random_scene


class TestNetworkConstruction:
    def test_capacities_from_probabilities(self):
        q = UncertainObject([[0.0]], oid="Q")
        u = UncertainObject([[1.0], [2.0]], [0.3, 0.7], oid="U")
        v = UncertainObject([[5.0]], oid="V")
        ctx = QueryContext(q)
        net, source, sink, adj = build_psd_network(u, v, ctx)
        assert adj.all()
        # Source edges carry u's probabilities.
        caps = sorted(edge[1] for edge in net.graph[source])
        assert caps == pytest.approx([0.3, 0.7])
        assert max_flow(net, source, sink) == pytest.approx(1.0)

    def test_adjacency_matches_pairwise_check(self, rng):
        from repro.geometry.halfspace import closer_to_query

        u = random_object(rng, m=4, oid="U")
        v = random_object(rng, m=3, oid="V")
        q = random_object(rng, m=3, oid="Q")
        ctx = QueryContext(q)
        _, _, _, adj = build_psd_network(u, v, ctx)
        for i in range(4):
            for j in range(3):
                assert adj[i, j] == closer_to_query(
                    u.points[i], v.points[j], q.points
                )

    def test_comparison_counter_incremented(self, rng):
        u = random_object(rng, m=4, oid="U")
        v = random_object(rng, m=3, oid="V")
        q = random_object(rng, m=2, oid="Q")
        ctx = QueryContext(q)
        build_psd_network(u, v, ctx)
        assert ctx.counters.instance_comparisons >= 12


class TestGeometryFilter:
    def test_point_in_query_hull_2d(self):
        q = UncertainObject(
            [[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0]], oid="Q"
        )
        ctx = QueryContext(q)
        assert point_in_query_hull(np.array([2.0, 2.0]), ctx)
        assert point_in_query_hull(np.array([0.01, 3.99]), ctx)
        # Boundary points are borderline: reported outside, the rule skips.
        assert not point_in_query_hull(np.array([0.0, 0.0]), ctx)  # vertex
        assert not point_in_query_hull(np.array([2.0, 4.0]), ctx)  # edge
        assert not point_in_query_hull(np.array([5.0, 2.0]), ctx)

    def test_mbr_prefilter(self):
        q = UncertainObject([[0.0, 0.0], [1.0, 1.0]], oid="Q")
        ctx = QueryContext(q)
        assert not point_in_query_hull(np.array([9.0, 9.0]), ctx)

    def test_hull_interior_instance_blocks_dominance(self):
        # v2 sits strictly inside CH(Q): nothing can peer-dominate V.
        q = UncertainObject(
            [[0.0, 0.0], [6.0, 0.0], [3.0, 6.0]], oid="Q"
        )
        v = UncertainObject([[3.0, 2.0], [10.0, 10.0]], oid="V")
        u = UncertainObject([[2.0, 1.0], [8.0, 8.0]], oid="U")
        ctx = QueryContext(q)
        assert not p_dominates(u, v, ctx)
        assert not brute_p_dominates(u, v, q)

    def test_coincident_instance_unblocks(self):
        # U has an instance exactly at v's in-hull location: the filter must
        # not fire, and the max-flow decides.
        q = UncertainObject(
            [[0.0, 0.0], [6.0, 0.0], [3.0, 6.0]], oid="Q"
        )
        shared = [3.0, 2.0]
        v = UncertainObject([shared, [20.0, 20.0]], oid="V")
        u = UncertainObject([shared, [15.0, 15.0]], oid="U")
        ctx = QueryContext(q)
        assert p_dominates(u, v, ctx) == brute_p_dominates(u, v, q)


class TestLevelByLevel:
    @pytest.mark.parametrize("seed", range(3))
    def test_level_path_agrees(self, seed):
        rng = np.random.default_rng(seed)
        objects, query = random_scene(rng, n_objects=8, m=10, m_q=3)
        ctx = QueryContext(query)
        for u in objects[:4]:
            for v in objects[4:]:
                with_level = p_dominates(u, v, ctx, use_level=True)
                without = p_dominates(u, v, ctx, use_level=False)
                brute = brute_p_dominates(u, v, query)
                assert with_level == without == brute

    def test_large_instance_counts(self, rng):
        u = random_object(rng, m=24, spread=1.0, oid="U")
        v = random_object(rng, m=20, spread=1.0, oid="V")
        q = random_object(rng, m=5, oid="Q")
        ctx = QueryContext(q)
        assert p_dominates(u, v, ctx, use_level=True) == brute_p_dominates(u, v, q)


class TestDegenerateInputs:
    def test_self_dominance_false(self, rng):
        u = random_object(rng, m=3, oid="U")
        q = random_object(rng, m=2, oid="Q")
        ctx = QueryContext(q)
        clone = UncertainObject(u.points, u.probs, oid="clone")
        assert not p_dominates(u, clone, ctx)

    def test_single_instances(self):
        q = UncertainObject([[0.0]], oid="Q")
        u = UncertainObject([[1.0]], oid="U")
        v = UncertainObject([[2.0]], oid="V")
        ctx = QueryContext(q)
        assert p_dominates(u, v, ctx)
        assert not p_dominates(v, u, ctx)
