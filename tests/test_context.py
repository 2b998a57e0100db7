"""Tests for QueryContext caching and configuration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.context as context_mod
from repro.core.context import QueryContext
from repro.core.counters import Counters
from repro.core.nnc import NNCSearch
from repro.objects.uncertain import UncertainObject

from .conftest import random_object, random_scene


class TestCaching:
    def test_distance_distribution_cached(self, rng):
        query = random_object(rng, oid="Q")
        obj = random_object(rng, oid=0)
        ctx = QueryContext(query)
        assert ctx.distance_distribution(obj) is ctx.distance_distribution(obj)

    def test_per_instance_cached(self, rng):
        query = random_object(rng, m=3, oid="Q")
        obj = random_object(rng, oid=0)
        ctx = QueryContext(query)
        first = ctx.per_instance_distributions(obj)
        assert first is ctx.per_instance_distributions(obj)
        assert len(first) == len(query)

    def test_statistics_match_distribution(self, rng):
        query = random_object(rng, oid="Q")
        obj = random_object(rng, oid=0)
        ctx = QueryContext(query)
        lo, mean, hi = ctx.statistics(obj)
        dist = ctx.distance_distribution(obj)
        assert lo == pytest.approx(dist.min())
        assert mean == pytest.approx(dist.mean())
        assert hi == pytest.approx(dist.max())

    def test_forget_clears_cache(self, rng):
        query = random_object(rng, oid="Q")
        obj = random_object(rng, oid=0)
        ctx = QueryContext(query)
        first = ctx.distance_distribution(obj)
        ctx.forget(obj)
        assert ctx.distance_distribution(obj) is not first

    def test_partitions_cover_instances(self, rng):
        query = random_object(rng, oid="Q")
        obj = random_object(rng, m=12, oid=0)
        ctx = QueryContext(query, level_groups=4)
        parts = ctx.partitions(obj)
        all_idx = sorted(i for _, idx, _ in parts for i in idx)
        assert all_idx == list(range(12))
        total = sum(mass for _, _, mass in parts)
        assert total == pytest.approx(1.0)

    def test_hull_vectors_shape(self, rng):
        query = random_object(rng, m=6, oid="Q")
        obj = random_object(rng, m=4, oid=0)
        ctx = QueryContext(query)
        vecs = ctx.hull_distance_vectors(obj)
        assert vecs.shape == (4, len(ctx.hull_points))


class TestConfiguration:
    def test_hull_disabled_keeps_all_points(self, rng):
        pts = np.vstack([rng.uniform(0, 10, size=(6, 2)), [[5.0, 5.0]]])
        query = UncertainObject(pts, oid="Q")
        with_hull = QueryContext(query, use_hull=True)
        without = QueryContext(query, use_hull=False)
        assert without.hull_points.shape[0] == len(query)
        assert with_hull.hull_points.shape[0] <= len(query)

    def test_small_queries_skip_hull(self, rng):
        query = random_object(rng, m=2, oid="Q")
        ctx = QueryContext(query, use_hull=True)
        assert ctx.hull_points.shape[0] == 2

    def test_counters_injected_or_created(self, rng):
        query = random_object(rng, oid="Q")
        own = Counters()
        assert QueryContext(query, counters=own).counters is own
        assert isinstance(QueryContext(query).counters, Counters)


class TestLazyHull:
    """Only P-SD and F-SD read CH(Q); the context builds it on first read."""

    @staticmethod
    def _scene(m_q=8):
        return random_scene(np.random.default_rng(11), n_objects=25, dim=3, m=5, m_q=m_q)

    @staticmethod
    def _forbid_hull(monkeypatch):
        def refuse(points):
            raise AssertionError("convex hull built")

        monkeypatch.setattr(context_mod, "convex_hull", refuse)

    @pytest.mark.parametrize("kind", ["SSD", "SSSD"])
    def test_distribution_operators_never_build_it(self, monkeypatch, kind):
        objects, query = self._scene()
        expected = NNCSearch(objects).run(query, kind).oids()
        self._forbid_hull(monkeypatch)
        result = NNCSearch(objects).run(query, kind, ctx=QueryContext(query))
        assert result.oids() == expected

    @pytest.mark.parametrize("kind", ["PSD", "FSD"])
    def test_geometric_operators_build_it_once(self, monkeypatch, kind):
        objects, query = self._scene()
        calls = []
        real = context_mod.convex_hull

        def counted(points):
            calls.append(points)
            return real(points)

        monkeypatch.setattr(context_mod, "convex_hull", counted)
        ctx = QueryContext(query)
        NNCSearch(objects).run(query, kind, ctx=ctx, k=2)
        assert len(calls) == 1
        assert len(ctx.hull_points) < len(query)

    @pytest.mark.parametrize(
        "options, m_q",
        [({"use_hull": False}, 8), ({"metric": "manhattan"}, 8), ({}, 2)],
        ids=["use_hull-off", "manhattan", "two-instances"],
    )
    def test_kept_query_never_builds_it(self, monkeypatch, options, m_q):
        objects, query = self._scene(m_q)
        self._forbid_hull(monkeypatch)
        for kind in ("SSD", "SSSD", "PSD", "FSD"):
            ctx = QueryContext(query, **options)
            NNCSearch(objects).run(query, kind, ctx=ctx)
            assert ctx.hull is None
            assert ctx.hull_points is query.points


class TestSortedRows:
    """Equal instance masses sort rows by value alone; weighted ones gather."""

    @staticmethod
    def _argsort_build(mat, probs):
        """The stable-argsort construction, kept here as the reference."""
        order = np.argsort(mat, axis=1, kind="stable")
        vals = np.take_along_axis(mat, order, axis=1)
        cum = np.zeros((mat.shape[0], mat.shape[1] + 1))
        np.cumsum(probs[order], axis=1, out=cum[:, 1:])
        return vals, cum

    @given(
        # Integer grid coordinates: rows full of tied distances.
        q=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=6),
        u=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=12),
        weighted=st.booleans(),
    )
    @settings(max_examples=100)
    def test_matches_stable_argsort_build(self, q, u, weighted):
        points = np.asarray(u, dtype=float)
        probs = np.arange(1.0, len(u) + 1.0) if weighted else None
        obj = UncertainObject(points, probs, oid=0, normalize=weighted)
        ctx = QueryContext(UncertainObject(np.asarray(q, dtype=float), oid="Q"))
        vals, cum = ctx.sorted_rows(obj)
        ref_vals, ref_cum = self._argsort_build(ctx.distance_matrix(obj), obj.probs)
        assert np.array_equal(vals, ref_vals)
        assert np.array_equal(cum, ref_cum)


class TestCounters:
    def test_merge_and_snapshot(self):
        a = Counters(instance_comparisons=3, dominance_checks=1)
        a.bump("objects_dominated", 2)
        b = Counters(instance_comparisons=4, maxflow_calls=2)
        b.bump("objects_dominated")
        a.merge(b)
        snap = a.snapshot()
        assert snap["instance_comparisons"] == 7
        assert snap["dominance_checks"] == 1
        assert snap["maxflow_calls"] == 2
        assert snap["objects_dominated"] == 3

    def test_count_comparisons(self):
        c = Counters()
        c.count_comparisons(5)
        c.count_comparisons(2)
        assert c.instance_comparisons == 7
