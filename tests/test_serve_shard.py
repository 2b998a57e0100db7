"""Sharded scatter-gather search: partitioners, backends, exactness pins.

The load-bearing guarantee: for any shard count, either partitioner, and
every operator, the scatter-gather answer equals the single-process
Algorithm 1 answer (candidate set and final dominator counts both).
DESIGN.md §13 gives the containment-chain argument; these tests pin it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bruteforce import (
    brute_f_dominates,
    brute_p_dominates,
    brute_s_dominates,
    brute_ss_dominates,
)
from repro.core.nnc import NNCSearch
from repro.core.operators import make_operator
from repro.datasets import synthetic
from repro.datasets.paper_examples import figure3
from repro.resilience.budget import Budget
from repro.serve.shard import (
    BACKENDS,
    PARTITIONERS,
    ShardedSearch,
    partition_centroid,
    partition_round_robin,
)

from .conftest import uncertain_objects

OPERATORS = ("SSD", "SSSD", "PSD", "FSD")


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(11)
    centers = synthetic.anticorrelated_centers(120, 2, rng)
    objects = synthetic.make_objects(centers, 5, 120.0, rng)
    query = synthetic.make_query(centers[17], 4, 80.0, rng)
    return objects, query


@pytest.fixture(scope="module")
def monolith(workload):
    objects, _ = workload
    return NNCSearch(objects)


class TestPartitioners:
    def test_round_robin_covers_and_balances(self, workload):
        objects, _ = workload
        parts = partition_round_robin(objects, 4)
        assert sum(len(p) for p in parts) == len(objects)
        assert {id(o) for p in parts for o in p} == {id(o) for o in objects}
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_centroid_covers_with_no_empty_shards(self, workload):
        objects, _ = workload
        parts = partition_centroid(objects, 5)
        assert sum(len(p) for p in parts) == len(objects)
        assert {id(o) for p in parts for o in p} == {id(o) for o in objects}
        assert all(parts), "centroid partitioner left an empty shard"

    def test_centroid_is_deterministic(self, workload):
        objects, _ = workload
        a = partition_centroid(objects, 3)
        b = partition_centroid(objects, 3)
        assert [[o.oid for o in p] for p in a] == [
            [o.oid for o in p] for p in b
        ]

    def test_centroid_groups_spatially(self):
        # Two well-separated clusters must not be split across shards.
        rng = np.random.default_rng(5)
        left = synthetic.make_objects(
            rng.uniform(0, 10, size=(20, 2)), 3, 1.0, rng
        )
        right = synthetic.make_objects(
            rng.uniform(1000, 1010, size=(20, 2)), 3, 1.0, rng
        )
        parts = partition_centroid(left + right, 2)
        sides = [
            {(o.mbr.lo[0] < 500) for o in part} for part in parts
        ]
        assert all(len(s) == 1 for s in sides)

    def test_bad_args_rejected(self, workload):
        objects, _ = workload
        with pytest.raises(ValueError):
            partition_round_robin(objects, 0)
        with pytest.raises(ValueError):
            ShardedSearch(objects, partitioner="mod-hash")
        for backend in ("gpu", "thread", "process", "auto"):
            with pytest.raises(ValueError):
                ShardedSearch(objects, backend=backend)


class TestExactness:
    """The acceptance-criterion pin: sharded == single-shard, bit for bit."""

    @pytest.mark.parametrize("operator", OPERATORS)
    @pytest.mark.parametrize("partitioner", sorted(PARTITIONERS))
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_equal_to_monolith_synthetic(
        self, workload, monolith, operator, partitioner, shards
    ):
        objects, query = workload
        expected = monolith.run(query, operator)
        sharded = ShardedSearch(
            objects, shards=shards, partitioner=partitioner, backend="serial"
        )
        result = sharded.run(query, operator)
        sharded.close()
        assert sorted(result.oids()) == sorted(expected.oids())

    @pytest.mark.parametrize("operator", OPERATORS)
    def test_equal_on_paper_example(self, operator):
        scene = figure3()
        objects = [scene[name] for name in ("A", "B", "C")]
        query = scene.query
        expected = NNCSearch(objects).run(query, operator)
        sharded = ShardedSearch(objects, shards=3, backend="serial")
        result = sharded.run(query, operator)
        sharded.close()
        assert sorted(result.oids(), key=str) == sorted(
            expected.oids(), key=str
        )

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("partitioner", sorted(PARTITIONERS))
    def test_k_skyband_equal_and_counts_match_bruteforce(
        self, workload, monolith, k, partitioner
    ):
        objects, query = workload
        expected = monolith.run(query, "FSD", k=k)
        sharded = ShardedSearch(objects, shards=3, partitioner=partitioner)
        result = sharded.run(query, "FSD", k=k)
        sharded.close()
        assert sorted(result.oids()) == sorted(expected.oids())
        # Final counts are capped-exact: compare against the brute-force
        # dominator census over ALL objects, capped at k.
        operator = make_operator("FSD")
        from repro.core.context import QueryContext

        ctx = QueryContext(query)
        brute = {
            obj.oid: sum(
                1
                for other in objects
                if other is not obj and operator.dominates(other, obj, ctx)
            )
            for obj in result.candidates
        }
        for obj, count in zip(result.candidates, result.dominator_counts):
            # Every kept candidate truly belongs to the k-skyband, and the
            # refined count is a sound lower bound on the true census
            # (exact at the k threshold — that's the membership decision).
            assert brute[obj.oid] < k
            assert count <= brute[obj.oid]

    @pytest.mark.parametrize("backend", ["serial"])
    def test_backends_agree(self, workload, monolith, backend):
        objects, query = workload
        expected = sorted(monolith.run(query, "PSD", k=2).oids())
        sharded = ShardedSearch(objects, shards=4, backend=backend)
        result = sharded.run(query, "PSD", k=2)
        sharded.close()
        assert result.backend == backend
        assert sorted(result.oids()) == expected

    def test_seeds_prune_but_never_change_the_answer(self, workload):
        objects, query = workload
        mono = NNCSearch(objects)
        expected = mono.run(query, "FSD")
        # Seeding the full search with its own eventual answer must yield
        # the same candidates (seeds are dominators, never reported).
        seeded = mono.run(query, "FSD", seeds=list(expected.candidates))
        assert sorted(seeded.oids()) == sorted(expected.oids())


class TestServingBehaviour:
    def test_result_metadata(self, workload):
        objects, query = workload
        sharded = ShardedSearch(objects, shards=4, partitioner="centroid")
        result = sharded.run(query, "FSD")
        sharded.close()
        assert result.shards == 4
        assert result.backend in BACKENDS
        assert 1 <= result.fanout <= 4
        assert len(result.per_shard) == 4
        assert sum(row["objects"] for row in result.per_shard) == len(objects)
        assert result.exact and result.degradation is None
        assert result.counters.dominance_checks > 0

    def test_budget_degradation_propagates(self, workload):
        objects, query = workload
        sharded = ShardedSearch(objects, shards=2, backend="serial")
        result = sharded.run(
            query, "FSD", budget=Budget(max_dominance_checks=3)
        )
        sharded.close()
        assert result.degradation is not None
        assert not result.exact
        # Degraded = certified superset of the exact answer.
        exact = NNCSearch(objects).run(query, "FSD")
        assert set(exact.oids()) <= set(result.oids())

    def test_fanout_metric_lands_in_registry(self, workload):
        from repro.obs.metrics import MetricsRegistry

        objects, query = workload
        registry = MetricsRegistry()
        sharded = ShardedSearch(objects, shards=2, metrics=registry)
        sharded.run(query, "FSD")
        sharded.close()
        hist = registry.get(
            "repro_serve_shard_fanout", {"operator": "FSD"}
        )
        assert hist is not None and hist.count == 1
        assert registry.value(
            "repro_queries_total", {"operator": "FSD"}
        ) == 1.0

    def test_insert_and_mask_visible_to_queries(self, workload):
        objects, query = workload
        sharded = ShardedSearch(objects, shards=2)
        at_query = synthetic.make_query(
            query.mbr.center, 2, 0.5, np.random.default_rng(0), oid="close"
        )
        shard = sharded.insert(at_query)
        result = sharded.run(query, "FSD")
        assert "close" in result.oids()
        assert sharded.mask(shard, at_query)
        result2 = sharded.run(query, "FSD")
        assert "close" not in result2.oids()
        assert sharded.compact(0.0) == 1
        result3 = sharded.run(query, "FSD")
        sharded.close()
        assert sorted(result3.oids()) == sorted(result2.oids())


# ----------------------------------------------------------------------- #
# Property test (satellite): any K, both partitioners, all four operators
# ----------------------------------------------------------------------- #

shard_scenes = st.tuples(
    st.lists(
        uncertain_objects(max_instances=3, coord_range=8.0),
        min_size=2,
        max_size=8,
    ),
    uncertain_objects(max_instances=3, coord_range=8.0, uniform_probs=True),
    st.integers(min_value=1, max_value=5),
    st.sampled_from(sorted(PARTITIONERS)),
    st.sampled_from(OPERATORS),
    st.integers(min_value=1, max_value=3),
)


@given(shard_scenes)
@settings(max_examples=60, deadline=None)
def test_property_sharded_equals_single_process(scene):
    objects, query, shards, partitioner, operator, k = scene
    for i, obj in enumerate(objects):
        obj.oid = i
    expected = NNCSearch(objects).run(query, operator, k=k)
    sharded = ShardedSearch(
        objects, shards=shards, partitioner=partitioner, backend="serial"
    )
    result = sharded.run(query, operator, k=k)
    sharded.close()
    assert sorted(result.oids()) == sorted(expected.oids())
    # And both agree with the brute-force definition of the k-skyband
    # (dominator census over ALL objects, independent of Algorithm 1).
    brute_fn = {
        "SSD": brute_s_dominates,
        "SSSD": brute_ss_dominates,
        "PSD": brute_p_dominates,
        "FSD": brute_f_dominates,
    }[operator]
    brute_oids = sorted(
        v.oid
        for v in objects
        if sum(1 for u in objects if u is not v and brute_fn(u, v, query)) < k
    )
    assert sorted(result.oids()) == brute_oids
