"""Tests for the array-native R-tree substrate."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nnc import NNCSearch
from repro.geometry.mbr import MBR
from repro.index.rtree import RTree
from repro.objects.uncertain import UncertainObject
from repro.serve.shm import pack_shard, unpack_shard


def _points(rng, n, dim=2, lo=0.0, hi=100.0):
    return rng.uniform(lo, hi, size=(n, dim))


def _boxes(rng, n, dim=2):
    los = rng.uniform(0, 90, size=(n, dim))
    return los, los + rng.uniform(0, 10, size=(n, dim))


def _all_payloads(tree):
    return [p for node in tree.roots() for p in tree.entries(node)]


def _height(tree):
    h, node = 1, 0
    while not tree.is_leaf(node):
        h += 1
        node = int(tree.node_meta[node, 1])
    return h


def _check_containment(tree):
    for node in set(range(len(tree.node_meta))) | set(tree.roots()):
        box = tree.node_mbr(node)
        _, los, his, _ = tree.children(node)
        assert len(los) >= 1
        assert np.all(box.lo <= los) and np.all(his <= box.hi)


# --------------------------------------------------------------------- #
# The reference: the recursive STR packing the array bulk load replaced
# --------------------------------------------------------------------- #


def _str_pack(items, capacity):
    """Sort-Tile-Recursive packing of (center, item) pairs into groups."""
    if not items:
        return []
    dim = len(items[0][0])
    count = len(items)
    n_groups = int(np.ceil(count / capacity))
    if n_groups <= 1:
        return [items]
    items = sorted(items, key=lambda it: float(it[0][0]))
    if dim == 1:
        return [items[i : i + capacity] for i in range(0, count, capacity)]
    slab_count = int(np.ceil(n_groups ** (1.0 / dim)))
    slab_size = int(np.ceil(count / slab_count))
    groups = []
    for start in range(0, count, slab_size):
        slab = items[start : start + slab_size]
        slab = [(c[1:], it) for c, it in slab]
        for grp in _str_pack(slab, capacity):
            groups.append([(None, it) for _, it in grp])
    return groups


def _reference_topology(lo, hi, capacity):
    """Nested member tuples of the tree ``_str_pack`` builds level by level."""
    level = [(i, lo[i], hi[i]) for i in range(len(lo))]
    while True:
        groups = _str_pack(
            [((l + h) / 2.0, (shape, l, h)) for shape, l, h in level], capacity
        )
        level = [
            (
                tuple(member[0] for _, member in grp),
                np.min([member[1] for _, member in grp], axis=0),
                np.max([member[2] for _, member in grp], axis=0),
            )
            for grp in groups
        ]
        if len(level) == 1:
            return level[0][0]


def _topology(tree, node=0):
    leaf, first, count = tree.node_meta[node].tolist()
    if leaf:
        return tuple(tree.ids[first:first + count].tolist())
    return tuple(_topology(tree, c) for c in range(first, first + count))


@st.composite
def _box_sets(draw):
    dim = draw(st.integers(1, 5))
    n = draw(st.integers(1, 300))
    # A coarse grid forces tied and duplicate centers.
    grid = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    lo = rng.integers(0, grid, size=(n, dim)).astype(float)
    if draw(st.booleans()):
        return lo, lo
    return lo, lo + rng.integers(0, 3, size=(n, dim))


class TestStrOracle:
    @settings(max_examples=60, deadline=None)
    @given(boxes=_box_sets(), fanout=st.sampled_from([4, 16]))
    def test_groups_equal_recursive_str_pack(self, boxes, fanout):
        lo, hi = boxes
        tree = RTree.bulk_load(lo, hi, max_entries=fanout)
        assert _topology(tree) == _reference_topology(lo, hi, fanout)
        # Node boxes bound their members, and entries under a node are one slice.
        _check_containment(tree)
        assert sorted(tree.entries(0)) == list(range(len(lo)))


class TestConstruction:
    def test_empty_tree(self):
        tree = RTree()
        assert len(tree) == 0
        assert tree.roots() == []
        assert tree.bounds() is None
        empty = RTree.bulk_load(np.empty((0, 2)), np.empty((0, 2)), [])
        assert len(empty) == 0 and empty.roots() == []

    def test_bulk_load_sizes(self, rng):
        for n in [1, 2, 7, 8, 9, 50, 200]:
            pts = _points(rng, n)
            tree = RTree.bulk_load(pts, pts, max_entries=8)
            assert len(tree) == n
            assert sorted(_all_payloads(tree)) == list(range(n))

    def test_insert_matches_bulk(self, rng):
        pts = _points(rng, 80)
        bulk = RTree.bulk_load(pts, pts, max_entries=6)
        inc = RTree(max_entries=6)
        for p in pts:
            inc.insert(p, p)
        assert len(inc) == len(bulk) == 80
        assert sorted(_all_payloads(inc)) == list(range(80))
        for q in _points(rng, 10):
            assert inc.nearest_distance(q) == bulk.nearest_distance(q)
            assert inc.farthest_distance(q) == bulk.farthest_distance(q)

    def test_invalid_fanout(self):
        with pytest.raises(ValueError):
            RTree(max_entries=1)

    def test_node_mbrs_contain_children(self, rng):
        lo, hi = _boxes(rng, 120)
        _check_containment(RTree.bulk_load(lo, hi, max_entries=5))

    def test_node_mbrs_contain_children_after_inserts(self, rng):
        tree = RTree(max_entries=4)
        lo, hi = _boxes(rng, 61)
        for a, b in zip(lo, hi):
            tree.insert(a, b)
        assert len(tree.over_ids) == 1  # the 61st insert waits in the overflow
        _check_containment(tree)
        box = tree.bounds()
        assert np.all(box.lo <= lo) and np.all(hi <= box.hi)

    def test_fanout_respected(self, rng):
        pts = _points(rng, 300)
        tree = RTree.bulk_load(pts, pts, max_entries=8)
        assert np.all(tree.node_meta[:, 2] <= 8)

    def test_height_grows_logarithmically(self, rng):
        small = _points(rng, 8)
        large = _points(rng, 512)
        assert _height(RTree.bulk_load(small, small, max_entries=8)) <= 2
        assert _height(RTree.bulk_load(large, large, max_entries=8)) <= 4


class TestQueries:
    # Every extreme-distance test runs the batch path and its scalar oracle.

    def test_nearest_matches_bruteforce(self, rng):
        pts = _points(rng, 120)
        tree = RTree.bulk_load(pts, pts, max_entries=5)
        for q in _points(rng, 10):
            expected = float(np.linalg.norm(pts - q, axis=1).min())
            for batch in (True, False):
                got = tree.nearest_distance(q, batch=batch)
                assert got == pytest.approx(expected)

    def test_farthest_matches_bruteforce(self, rng):
        pts = _points(rng, 120)
        tree = RTree.bulk_load(pts, pts, max_entries=5)
        for q in _points(rng, 10, lo=-50, hi=150):
            expected = float(np.linalg.norm(pts - q, axis=1).max())
            for batch in (True, False):
                got = tree.farthest_distance(q, batch=batch)
                assert got == pytest.approx(expected)

    def test_nearest_on_empty_raises(self):
        with pytest.raises(ValueError):
            RTree().nearest_distance(np.zeros(2))
        with pytest.raises(ValueError):
            RTree().farthest_distance(np.zeros(2))

    def test_incremental_order_nondecreasing(self, rng):
        # Algorithm 1's traversal: best-first by mindist over node and entry
        # boxes reaches every entry, in non-decreasing order.
        lo, hi = _boxes(rng, 100)
        tree = RTree.bulk_load(lo, hi, list(range(100)), max_entries=6)
        q = MBR(np.array([50.0, 50.0]), np.array([55.0, 55.0]))
        heap = [(tree.node_mbr(0).mindist_mbr(q), 0, False, 0)]
        seen, last, tick = [], -1.0, 1
        while heap:
            dist, _, is_entry, item = heapq.heappop(heap)
            assert dist >= last - 1e-9
            last = dist
            if is_entry:
                seen.append(item)
                continue
            leaf, los, his, members = tree.children(item)
            for a, b, member in zip(los, his, members):
                heapq.heappush(heap, (MBR(a, b).mindist_mbr(q), tick, leaf, member))
                tick += 1
        assert sorted(seen) == list(range(100))


class TestPartitions:
    def test_partitions_cover_all_payloads(self, rng):
        pts = _points(rng, 90)
        tree = RTree.bulk_load(pts, pts, max_entries=4)
        for k in [1, 2, 4, 16, 1000]:
            parts = tree.partitions(k)
            ids = [i for _, group in parts for i in group.tolist()]
            assert sorted(ids) == list(range(90))  # disjoint and covering

    def test_partitions_request_honored_when_possible(self, rng):
        pts = _points(rng, 64)
        tree = RTree.bulk_load(pts, pts, max_entries=4)
        assert len(tree.partitions(4)) >= 4

    def test_partition_mbrs_bound_points(self, rng):
        pts = _points(rng, 60)
        tree = RTree.bulk_load(pts, pts, max_entries=4)
        for mbr, group in tree.partitions(8):
            for i in group:
                assert mbr.contains_point(pts[i])

    def test_empty_tree_partitions(self):
        assert RTree().partitions(4) == []


class TestOverflow:
    def test_inserted_entry_visible_to_next_search(self, rng):
        pts = _points(rng, 30)
        tree = RTree.bulk_load(pts, pts, list(range(30)), max_entries=8)
        new = np.array([-10.0, -10.0])
        tree.insert(new, new, "new")
        assert tree.roots() == [0, len(tree.node_meta)]
        assert "new" in tree.entries(tree.roots()[1])
        assert tree.bounds().contains_point(new)
        for batch in (True, False):
            near = tree.nearest_distance(np.array([-11.0, -10.0]), batch=batch)
            far = tree.farthest_distance(np.array([200.0, 200.0]), batch=batch)
            assert near == pytest.approx(1.0)
            assert far == pytest.approx(float(np.linalg.norm(new - 200.0)))

    def test_insert_past_max_entries_repacks(self, rng):
        pts = _points(rng, 40)
        tree = RTree.bulk_load(pts[:30], pts[:30], max_entries=8)
        packed = tree.node_meta
        for p in pts[30:38]:
            tree.insert(p, p)
        assert len(tree.over_ids) == 8 and tree.node_meta is packed
        tree.insert(pts[38], pts[38])  # insert number max_entries + 1
        assert len(tree.over_ids) == 0 and tree.roots() == [0]
        fresh = RTree.bulk_load(pts[:39], pts[:39], max_entries=8)
        for name, arr in fresh.arrays().items():
            np.testing.assert_array_equal(getattr(tree, name), arr)

    def test_read_only_unpacked_tree_takes_insert(self, rng):
        objects = [UncertainObject(_points(rng, 3), oid=i) for i in range(30)]
        parent = NNCSearch(objects[:20])
        for obj in objects[20:25]:
            parent.add_object(obj)  # packed with a non-empty overflow
        blob = pack_shard(parent)
        search = unpack_shard(blob)
        assert not search.tree.lo.flags.writeable
        assert not search.tree.over_lo.flags.writeable
        for obj in objects[25:]:
            search.add_object(obj)
        assert pack_shard(parent) == blob  # the parent's tree is untouched
        assert len(search.tree) == 30
        assert sorted(o.oid for o in _all_payloads(search.tree)) == list(range(30))
        query = UncertainObject(_points(rng, 2), oid="Q")
        expected = NNCSearch([
            UncertainObject(o.points, oid=o.oid) for o in objects
        ]).run(query, "SSD", k=3).oids()
        assert sorted(search.run(query, "SSD", k=3).oids()) == sorted(expected)
