"""Integration tests: Algorithm 1 against the brute-force NNC definition."""

import numpy as np
import pytest

from repro.core import nnc
from repro.core.bruteforce import (
    brute_f_dominates,
    brute_force_nnc,
    brute_p_dominates,
    brute_s_dominates,
    brute_ss_dominates,
)
from repro.core.context import QueryContext
from repro.core.fsd import extremes_violated
from repro.core.nnc import NNCSearch, nn_candidates
from repro.core.operators import FSDOperator
from repro.geometry.mbr import mbr_dominates
from repro.objects.uncertain import UncertainObject

from .conftest import random_object, random_scene

BRUTES = {
    "SSD": brute_s_dominates,
    "SSSD": brute_ss_dominates,
    "PSD": brute_p_dominates,
    "FSD": brute_f_dominates,
}


def _assert_matches_bruteforce(objects, query, kind):
    result = nn_candidates(objects, query, kind)
    expected = brute_force_nnc(objects, query, BRUTES[kind])
    assert sorted(result.oids()) == sorted(o.oid for o in expected), kind


class TestAgainstBruteForce:
    @pytest.mark.parametrize("kind", ["SSD", "SSSD", "PSD", "FSD"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_scenes(self, kind, seed):
        rng = np.random.default_rng(seed)
        objects, query = random_scene(rng, n_objects=25, m=4, m_q=3)
        _assert_matches_bruteforce(objects, query, kind)

    @pytest.mark.parametrize("kind", ["SSD", "SSSD", "PSD", "FSD"])
    def test_weighted_instances(self, kind, rng):
        objects, query = random_scene(
            rng, n_objects=18, m=4, m_q=3, uniform_probs=False
        )
        _assert_matches_bruteforce(objects, query, kind)

    @pytest.mark.parametrize("kind", ["SSD", "SSSD", "PSD", "FSD"])
    def test_gridded_coordinates_with_ties(self, kind, rng):
        # Integer grid coordinates produce many exact distance ties.
        objects = [
            UncertainObject(
                rng.integers(0, 8, size=(3, 2)).astype(float), oid=i
            )
            for i in range(20)
        ]
        query = UncertainObject(
            rng.integers(0, 8, size=(2, 2)).astype(float), oid="Q"
        )
        _assert_matches_bruteforce(objects, query, kind)

    def test_duplicate_objects_both_kept(self, rng):
        objects, query = random_scene(rng, n_objects=6, m=3, m_q=2)
        clone = UncertainObject(objects[0].points, objects[0].probs, oid="clone")
        objects = objects + [clone]
        for kind in ["SSD", "SSSD", "PSD", "FSD"]:
            result = nn_candidates(objects, query, kind)
            oids = set(result.oids())
            # Identical objects never dominate each other, so either both or
            # neither are candidates.
            assert (objects[0].oid in oids) == ("clone" in oids), kind
            _assert_matches_bruteforce(objects, query, kind)

    def test_single_object(self, rng):
        obj = random_object(rng, oid=0)
        query = random_object(rng, oid="Q")
        for kind in ["SSD", "SSSD", "PSD", "FSD", "F+SD"]:
            assert nn_candidates([obj], query, kind).oids() == [0]

    def test_three_dims(self, rng):
        objects, query = random_scene(rng, n_objects=15, m=3, m_q=3, dim=3)
        for kind in ["SSD", "SSSD", "PSD"]:
            _assert_matches_bruteforce(objects, query, kind)


class TestCoverTestBeforeRefinement:
    """An object whose box an accepted candidate's box strictly dominates is
    dropped at its first pop, before any distance matrix is built for it."""

    @staticmethod
    def _scene():
        rng = np.random.default_rng(5)
        objects, query = random_scene(rng, n_objects=20, m=4, m_q=4)
        # Far-off shadows of every object, beyond the query on both axes:
        # each shadow's box is strictly dominated by its original's.
        shadows = [
            UncertainObject(o.points + 500.0, o.probs, oid=f"far{o.oid}")
            for o in objects
        ]
        return objects + shadows, query

    @pytest.mark.parametrize("kernels", [True, False])
    @pytest.mark.parametrize("kind", ["SSD", "SSSD", "PSD", "FSD"])
    def test_dominated_box_never_refined(self, monkeypatch, kind, kernels):
        objects, query = self._scene()
        refined = []
        real = QueryContext.distance_matrix

        def recording(ctx, obj):
            refined.append(obj.oid)
            return real(ctx, obj)

        monkeypatch.setattr(QueryContext, "distance_matrix", recording)
        ctx = QueryContext(query, kernels=kernels)
        result = NNCSearch(objects).run(query, kind, ctx=ctx)
        expected = brute_force_nnc(objects, query, BRUTES[kind])
        assert sorted(map(str, result.oids())) == sorted(str(o.oid) for o in expected)
        accepted = [o for o in objects if o.oid in set(result.oids())]
        dominated = [
            v
            for v in objects
            if any(mbr_dominates(u.mbr, v.mbr, query.mbr, strict=True) for u in accepted)
        ]
        assert dominated, "the scene must hold dominated boxes"
        assert not {v.oid for v in dominated} & set(refined)


class TestExtremesScreen:
    """F-SD reaches ``operator.dominates`` only for pairs its screen leaves open."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_fsd_calls_only_open_pairs(self, monkeypatch, k):
        rng = np.random.default_rng(9)
        objects, query = random_scene(rng, n_objects=40, dim=3, m=5, m_q=6)
        by_oid = {o.oid: o for o in objects}
        real = FSDOperator.dominates

        def run(screens: bool) -> tuple[list, list, QueryContext]:
            calls = []

            def counted(self, u, v, ctx, **kwargs):
                calls.append((u.oid, v.oid))
                return real(self, u, v, ctx, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(FSDOperator, "dominates", counted)
                if not screens:
                    patch.setattr(nnc, "_extremes_screen", lambda *a: (None, None))
                ctx = QueryContext(query)
                oids = NNCSearch(objects).run(query, "FSD", ctx=ctx, k=k).oids()
            return calls, oids, ctx

        calls, oids, ctx = run(screens=True)
        bare_calls, bare_oids, _ = run(screens=False)
        assert oids == bare_oids

        def violated(pair):
            u, v = by_oid[pair[0]], by_oid[pair[1]]
            return bool(extremes_violated(ctx.hull_extremes(u)[0], ctx.hull_extremes(v)[1]))

        assert calls and not any(violated(pair) for pair in calls)
        skipped = set(bare_calls) - set(calls)
        assert skipped and all(violated(pair) for pair in skipped)
        assert len(bare_calls) == len(calls) + len(skipped)


class TestCandidateSetNesting:
    """NNC(S-SD) ⊆ NNC(SS-SD) ⊆ NNC(P-SD) ⊆ NNC(F-SD) (Figure 5)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_nesting(self, seed):
        rng = np.random.default_rng(seed)
        objects, query = random_scene(rng, n_objects=30, m=4, m_q=3)
        search = NNCSearch(objects)
        sets = {
            kind: set(search.run(query, kind).oids())
            for kind in ["SSD", "SSSD", "PSD", "FSD"]
        }
        assert sets["SSD"] <= sets["SSSD"] <= sets["PSD"] <= sets["FSD"]

    def test_all_operators_keep_min_winner(self, rng):
        """The object with the overall smallest pair distance always stays."""
        objects, query = random_scene(rng, n_objects=20, m=4, m_q=3)
        best = min(objects, key=lambda o: o.min_distance(query))
        for kind in ["SSD", "SSSD", "PSD", "FSD"]:
            assert best.oid in nn_candidates(objects, query, kind).oids()


class TestProgressiveStream:
    def test_stream_equals_batch(self, rng):
        objects, query = random_scene(rng, n_objects=25, m=4, m_q=3)
        search = NNCSearch(objects)
        streamed = [obj.oid for obj in search.stream(query, "SSSD")]
        batch = search.run(query, "SSSD").oids()
        assert streamed == batch

    def test_stream_is_lazy_prefix(self, rng):
        """Taking a prefix of the stream yields genuine candidates only."""
        objects, query = random_scene(rng, n_objects=30, m=4, m_q=3)
        search = NNCSearch(objects)
        full = set(search.run(query, "PSD").oids())
        gen = search.stream(query, "PSD")
        prefix = [next(gen).oid for _ in range(min(3, len(full)))]
        assert set(prefix) <= full

    def test_yield_times_nondecreasing(self, rng):
        objects, query = random_scene(rng, n_objects=25, m=4, m_q=3)
        result = NNCSearch(objects).run(query, "SSD")
        assert result.yield_times == sorted(result.yield_times)
        assert len(result.yield_times) == len(result)


class TestSearchReuse:
    def test_multiple_queries_one_index(self, rng):
        objects, _ = random_scene(rng, n_objects=20, m=3, m_q=2)
        search = NNCSearch(objects)
        for _ in range(3):
            query = random_object(rng, m=3, oid="Q")
            _ = search.run(query, "SSD")
            expected = brute_force_nnc(objects, query, brute_s_dominates)
            assert sorted(search.run(query, "SSD").oids()) == sorted(
                o.oid for o in expected
            )

    def test_counters_populated(self, rng):
        objects, query = random_scene(rng, n_objects=20, m=3, m_q=2)
        ctx = QueryContext(query)
        result = NNCSearch(objects).run(query, "SSD", ctx=ctx)
        assert result.counters is ctx.counters
        assert ctx.counters.objects_visited > 0
        assert ctx.counters.dominance_checks > 0

    def test_counters_survive_a_search_started_mid_run(self, rng):
        # Serving shares one search per shard across threads; a search that
        # starts on the same instance while `run` is in progress must not
        # hand its counter bag to the running query's result.
        from repro.core.operators import SSDOperator

        objects, query = random_scene(rng, n_objects=20, m=3, m_q=2)
        other_query = random_object(rng, m=2, oid="Q2")
        search = NNCSearch(objects)
        other = QueryContext(other_query)
        started = []

        class Interleaving(SSDOperator):
            def dominates(self, u, v, ctx, **kw):
                if not started:
                    started.append(next(search.stream(
                        other_query, "SSD", ctx=other), None))
                return super().dominates(u, v, ctx, **kw)

        ctx = QueryContext(query)
        result = search.run(query, Interleaving(), ctx=ctx)
        assert started, "the operator never ran a dominance check"
        assert result.counters is ctx.counters
        assert result.counters is not other.counters

    def test_operator_instance_accepted(self, rng):
        from repro.core.operators import make_operator

        objects, query = random_scene(rng, n_objects=10, m=3, m_q=2)
        op = make_operator("SSD", use_level=True)
        result = NNCSearch(objects).run(query, op)
        expected = brute_force_nnc(objects, query, brute_s_dominates)
        assert sorted(result.oids()) == sorted(o.oid for o in expected)


class TestDynamicInsertion:
    def test_add_object_visible_to_search(self, rng):
        objects, query = random_scene(rng, n_objects=12, m=3, m_q=2)
        search = NNCSearch(objects[:-1])
        before = sorted(search.run(query, "SSD").oids())
        search.add_object(objects[-1])
        after = sorted(search.run(query, "SSD").oids())
        expected = brute_force_nnc(objects, query, brute_s_dominates)
        assert after == sorted(o.oid for o in expected)
        # Inserting an object can only change the result via dominance.
        assert set(after) - set(before) <= {objects[-1].oid}

    def test_incremental_build_equals_batch(self, rng):
        objects, query = random_scene(rng, n_objects=15, m=3, m_q=2)
        search = NNCSearch(objects[:5])
        for obj in objects[5:]:
            search.add_object(obj)
        batch = NNCSearch(objects)
        assert sorted(search.run(query, "PSD").oids()) == sorted(
            batch.run(query, "PSD").oids()
        )


class TestDynamicRemoval:
    def test_remove_object(self, rng):
        objects, query = random_scene(rng, n_objects=14, m=3, m_q=2)
        search = NNCSearch(objects)
        victim = objects[3]
        assert search.mask_object(victim)
        assert not search.mask_object(victim)
        rest = [o for o in objects if o is not victim]
        expected = sorted(
            o.oid for o in brute_force_nnc(rest, query, brute_s_dominates)
        )
        assert sorted(search.run(query, "SSD").oids()) == expected
        assert search.compact() == 1
        assert len(search.tree) == len(rest)
        assert sorted(search.run(query, "SSD").oids()) == expected

    def test_churn(self, rng):
        objects, query = random_scene(rng, n_objects=20, m=3, m_q=2)
        search = NNCSearch(objects[:10])
        for obj in objects[10:]:
            search.add_object(obj)
        for obj in objects[:5]:
            assert search.mask_object(obj)
        live = objects[5:]
        expected = sorted(
            o.oid for o in brute_force_nnc(live, query, brute_s_dominates)
        )
        assert sorted(search.run(query, "SSD").oids()) == expected
        assert search.compact() == 5
        assert sorted(search.run(query, "SSD").oids()) == expected