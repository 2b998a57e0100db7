"""Pool backend: shared-memory snapshots, worker lifecycle, exactness pins.

The ``pool`` backend's contract (DESIGN.md §15):

* answers bit-identical to the serial cascade — candidates AND dominator
  counts — for every operator, partitioner, and k;
* per-query task tuples carry no shard arrays: a few hundred bytes no
  matter how large the dataset is;
* mutations publish a new shared-memory epoch instead of restarting the
  workers (same pids across insert/delete/compaction);
* a dead worker surfaces as :class:`ShardBackendError` (503 at the HTTP
  layer), never a hang, and the pool rebuilds lazily on the next query;
* an epoch swap during an in-flight query still answers from the
  pre-swap snapshot (the previous segment is retained);
* close/drain unlinks every published segment — nothing left in /dev/shm.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.nnc import NNCSearch
from repro.core.operators import make_operator
from repro.datasets import synthetic
from repro.serve.shard import ShardBackendError, ShardedSearch
from repro.serve.shm import (
    SegmentStore,
    attach_shard,
    pack_shard,
    pool_run_one,
    segment_exists,
    unpack_shard,
)

from .test_serve_shard import shard_scenes

#: fork boots workers in milliseconds; spawn-safety has its own test.
START = "fork" if "fork" in multiprocessing.get_all_start_methods() else None

OPERATORS = ("SSD", "SSSD", "PSD", "FSD")


def make_workload(n=80, m=4, seed=3):
    rng = np.random.default_rng(seed)
    centers = synthetic.anticorrelated_centers(n, 2, rng)
    objects = synthetic.make_objects(centers, m, 120.0, rng)
    query = synthetic.make_query(centers[n // 3], 3, 80.0, rng, oid="Q")
    return objects, query


@pytest.fixture(scope="module")
def workload():
    return make_workload()


def make_pool(objects, **kw):
    kw.setdefault("shards", 3)
    kw.setdefault("workers", 2)
    kw.setdefault("start_method", START)
    return ShardedSearch(objects, backend="pool", **kw)


# --------------------------------------------------------------------- #
# Segment round-trip
# --------------------------------------------------------------------- #


def _release_mapping(shm, holder: list) -> None:
    """Drop the zero-copy views, then unmap (mirrors shm._release).

    ``holder`` must be the only remaining reference to the rebuilt search
    (callers ``del`` their local first), so clearing it lets the views die.
    """
    import gc

    holder.clear()
    gc.collect()
    try:
        shm.close()
    except BufferError:  # a view escaped into a still-live result
        pass


class TestSegments:
    def test_pack_attach_roundtrip_is_structurally_identical(self, workload):
        objects, query = workload
        parent = NNCSearch(objects[:40])
        store = SegmentStore()
        name = store.publish(0, 0, parent)

        def check(rebuilt):
            assert [o.oid for o in rebuilt.objects] == [
                o.oid for o in parent.objects
            ]
            assert len(rebuilt.tree) == len(parent.tree)
            # Zero-copy: worker arrays are read-only views, not copies.
            assert not rebuilt.objects[0].points.flags.writeable
            assert not rebuilt.objects[0].points.flags.owndata
            np.testing.assert_array_equal(
                rebuilt.objects[7].points, parent.objects[7].points
            )
            # Same traversal: identical answers including counts.
            for op in OPERATORS:
                a = parent.run(query, op, k=2)
                b = rebuilt.run(query, op, k=2)
                assert a.oids() == b.oids()
                assert a.dominator_counts == b.dominator_counts

        try:
            shm, rebuilt = attach_shard(name)
            try:
                check(rebuilt)
            finally:
                holder = [rebuilt]
                del rebuilt
                _release_mapping(shm, holder)
        finally:
            store.close()
        assert not segment_exists(name)

    def test_masked_objects_survive_the_snapshot(self, workload):
        objects, query = workload
        parent = NNCSearch(objects[:30])
        parent.mask_object(parent.objects[4])
        store = SegmentStore()
        name = store.publish(0, 0, parent)
        try:
            shm, rebuilt = attach_shard(name)
            try:
                assert rebuilt.masked_count == 1
                masked_oid = parent.objects[4].oid
                assert masked_oid not in rebuilt.run(query, "SSD", k=3).oids()
            finally:
                holder = [rebuilt]
                del rebuilt
                _release_mapping(shm, holder)
        finally:
            store.close()

    def test_mask_object_after_round_trip(self, workload):
        # Durable recovery deletes objects on unpacked searches: membership
        # must be indexed on the unpacked object list, not the packed one.
        objects, _ = workload
        rebuilt = unpack_shard(pack_shard(NNCSearch(objects[:30])))
        member = rebuilt.objects[7]
        assert rebuilt.mask_object(member)
        assert not rebuilt.mask_object(member)
        assert not rebuilt.mask_object(objects[7])  # the packed original
        assert not rebuilt.mask_object(objects[40])
        assert rebuilt.compact() == 1
        assert rebuilt.mask_object(rebuilt.objects[0])
        assert not rebuilt.mask_object(member)

    def test_empty_shard_packs(self):
        parent = NNCSearch([])
        blob = pack_shard(parent)
        store = SegmentStore()
        name = store.publish(0, 0, parent)
        try:
            shm, rebuilt = attach_shard(name)
            assert rebuilt.objects == []
            shm.close()
        finally:
            store.close()
        assert len(blob) >= 8


# --------------------------------------------------------------------- #
# Exactness: pool == serial cascade, bit for bit
# --------------------------------------------------------------------- #


class TestExactness:
    @pytest.mark.parametrize("operator", OPERATORS)
    def test_pool_equals_serial(self, workload, operator):
        objects, query = workload
        serial = ShardedSearch(objects, shards=3, backend="serial")
        pool = make_pool(objects)
        try:
            for k in (1, 3):
                a = serial.run(query, operator, k=k)
                b = pool.run(query, operator, k=k)
                assert a.oids() == b.oids()
                assert a.dominator_counts == b.dominator_counts
        finally:
            serial.close()
            pool.close()

    def test_candidates_are_parent_objects(self, workload):
        objects, query = workload
        pool = make_pool(objects)
        try:
            result = pool.run(query, "FSD", k=2)
            parent_ids = {id(o) for o in objects}
            assert all(id(c) in parent_ids for c in result.candidates)
        finally:
            pool.close()

    def test_spawn_start_method(self, workload):
        # The default start method: workers inherit nothing by fork.
        objects, query = workload
        serial = ShardedSearch(objects, shards=2, backend="serial")
        pool = ShardedSearch(
            objects, shards=2, backend="pool", workers=2,
            start_method="spawn",
        )
        try:
            a = serial.run(query, "PSD", k=2)
            b = pool.run(query, "PSD", k=2)
            assert a.oids() == b.oids()
            assert a.dominator_counts == b.dominator_counts
        finally:
            serial.close()
            pool.close()


@given(shard_scenes)
@settings(max_examples=20, deadline=None)
def test_property_pool_equals_serial_cascade(scene):
    objects, query, shards, partitioner, operator, k = scene
    for i, obj in enumerate(objects):
        obj.oid = i
    serial = ShardedSearch(
        objects, shards=shards, partitioner=partitioner, backend="serial"
    )
    pool = ShardedSearch(
        objects,
        shards=shards,
        partitioner=partitioner,
        backend="pool",
        workers=2,
        start_method=START,
    )
    try:
        expected = serial.run(query, operator, k=k)
        got = pool.run(query, operator, k=k)
        assert sorted(got.oids()) == sorted(expected.oids())
        by_oid = dict(zip(expected.oids(), expected.dominator_counts))
        assert dict(zip(got.oids(), got.dominator_counts)) == by_oid
    finally:
        serial.close()
        pool.close()


# --------------------------------------------------------------------- #
# Message size: shard state never rides the task pipe
# --------------------------------------------------------------------- #


class TestPayloadSize:
    def _task_bytes(self, n: int) -> int:
        objects, query = make_workload(n=n, seed=9)
        pool = make_pool(objects, shards=2)
        try:
            pool.run(query, "SSD")  # publishes segments
            name = pool._shard_segments[0][-1]
            task = (
                0, pool._pool_epoch, name, query, make_operator("SSD"),
                3, "euclidean", None, None,
            )
            return len(pickle.dumps(task))
        finally:
            pool.close()

    def test_task_tuple_is_small_and_size_independent(self):
        small = self._task_bytes(40)
        large = self._task_bytes(800)
        assert small < 4096 and large < 4096
        # 20x the dataset must not grow the message (no pickled arrays).
        assert abs(large - small) < 256


# --------------------------------------------------------------------- #
# Lifecycle: mutations, worker death, epoch swap, cleanup
# --------------------------------------------------------------------- #


class TestLifecycle:
    def test_mutations_keep_the_same_workers(self, workload):
        objects, query = workload
        pool = make_pool(objects)
        try:
            first = pool.run(query, "SSD", k=2)
            pids0 = pool.pool_pids()
            assert pids0 and all(
                row["pid"] in pids0 for row in first.per_shard
            )
            extra = synthetic.make_query(
                query.mbr.center, 2, 1.0, np.random.default_rng(1), oid="X"
            )
            shard = pool.insert(extra)
            after_insert = pool.run(query, "SSD", k=2)
            assert "X" in after_insert.oids()
            assert pool.mask(shard, extra)
            assert pool.compact(0.0) == 1
            after_all = pool.run(query, "SSD", k=2)
            assert "X" not in after_all.oids()
            # Three mutations, zero worker restarts.
            assert pool.pool_pids() == pids0
            assert pool._pool_epoch >= 3
        finally:
            pool.close()

    def test_worker_death_is_a_backend_error_not_a_hang(self, workload):
        objects, query = workload
        pool = make_pool(objects)
        try:
            pool.run(query, "SSD")
            for pid in pool.pool_pids():
                os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 60
            with pytest.raises(ShardBackendError):
                while time.monotonic() < deadline:
                    pool.run(query, "SSD")
            # The pool heals: segments survived, workers rebuild lazily.
            healed = pool.run(query, "SSD")
            assert healed.oids()
            assert pool.pool_pids()
        finally:
            pool.close()

    def test_epoch_swap_mid_flight_answers_pre_swap(self, workload):
        objects, query = workload
        pool = make_pool(objects, shards=2)
        serial_pre = ShardedSearch(objects, shards=2, backend="serial")
        try:
            pool.run(query, "SSD")
            # Snapshot an in-flight task's addressing *before* the swap.
            pre_name = pool._shard_segments[0][-1]
            pre_epoch = pool._pool_epoch
            pre_objects = pool._snapshot_objects[pre_name]
            close = synthetic.make_query(
                query.mbr.center, 2, 0.5, np.random.default_rng(2), oid="NEW"
            )
            pool.insert(close, shard=0)  # publishes a new epoch
            assert pool._shard_segments[0][-1] != pre_name
            # The pre-swap segment is retained for exactly this task.
            assert segment_exists(pre_name)
            task = (
                0, pre_epoch, pre_name, query, make_operator("SSD"),
                1, "euclidean", None, None,
            )
            payload = pool._pool_exec.submit(pool_run_one, task).result(60)
            assert payload[0] == "ok"
            got = sorted(pre_objects[i].oid for i in payload[3])
            expected = sorted(
                serial_pre.searches[0].run(query, "SSD", k=1).oids()
            )
            assert got == expected  # pre-swap answer, no "NEW"
            assert "NEW" not in got
        finally:
            serial_pre.close()
            pool.close()

    def test_second_swap_retires_the_oldest_segment(self, workload):
        objects, query = workload
        pool = make_pool(objects, shards=2)
        try:
            pool.run(query, "SSD")
            first = pool._shard_segments[0][-1]
            rng = np.random.default_rng(5)
            for i in range(2):
                obj = synthetic.make_query(
                    query.mbr.center, 2, 1.0, rng, oid=f"N{i}"
                )
                pool.insert(obj, shard=0)
            assert not segment_exists(first)  # two swaps: retired
            assert len(pool._shard_segments[0]) == 2
        finally:
            pool.close()

    def test_close_unlinks_every_segment(self, workload):
        objects, query = workload
        pool = make_pool(objects)
        pool.run(query, "SSD")
        names = [n for kept in pool._shard_segments for n in kept]
        assert names and all(segment_exists(n) for n in names)
        pool.close()
        assert all(not segment_exists(n) for n in names)
        assert pool._snapshot_objects == {}


# --------------------------------------------------------------------- #
# HTTP mapping: dead backend -> 503, retryable
# --------------------------------------------------------------------- #


class TestServeIntegration:
    def test_backend_error_maps_to_503(self, workload, monkeypatch):
        from repro.serve.server import ServeApp
        from repro.serve.updates import DatasetManager

        objects, _ = workload
        manager = DatasetManager(objects, shards=2)
        app = ServeApp(manager)
        try:
            def boom(*args, **kwargs):
                raise ShardBackendError("pool worker died mid-query")

            monkeypatch.setattr(manager, "query", boom)
            status, body = app.dispatch(
                "POST", "/query",
                {"points": [[0.0, 0.0], [1.0, 1.0]], "operator": "SSD"},
            )
            assert status == 503
            assert body["retryable"] is True
            assert "worker" in body["error"]
        finally:
            manager.close()

    def test_dataset_manager_forwards_pool_args(self, workload):
        from repro.serve.updates import DatasetManager

        objects, query = workload
        manager = DatasetManager(
            objects, shards=2, backend="pool", workers=2, start_method=START
        )
        try:
            result, epoch = manager.query(query, "SSD", k=1)
            assert result.backend == "pool"
            assert [row["pid"] for row in result.per_shard]
        finally:
            manager.close()
