"""An array-native R-tree with Sort-Tile-Recursive bulk loading.

One tree serves both roles of the paper: the global tree over object MBRs
that Algorithm 1 walks, and the fan-out-4 local tree over each object's
instances that the level-by-level filters of Section 5.1 and F-SD's
extreme-distance searches read.  Its storage is a handful of NumPy arrays,
so shared-memory segments and snapshot files hold the tree as it is, and
attaching one wraps views instead of rebuilding nodes.

Layout (``N`` packed nodes, root first; ``n`` packed entries)::

    lo, hi       (n, d)  entry boxes in leaf order
    ids          (n,)    original index of each entry (its payload index)
    node_lo/hi   (N, d)  node boxes
    node_meta    (N, 3)  (is_leaf, first, count): a leaf's entries are
                         lo[first:first + count], an internal node's
                         children are nodes first .. first + count - 1
    over_lo/hi   (k, d)  the overflow leaf's entry boxes, in insert order
    over_ids     (k,)    their original indices

Nodes are laid out level by level, each node's members in one contiguous
run in STR member order, so the entries under any node form one slice.

Inserted entries go to one **overflow leaf** (node id ``N``), which every
search expands like any other leaf; once it holds more than
``max_entries`` entries the whole tree is re-packed by :meth:`RTree.bulk_load`.
The packed arrays are never written after construction, so a tree over
read-only views (a pool worker's segment, a memory-mapped snapshot) takes
inserts without touching the mapping.

A tree keeps no per-query state: deadline budgets and metric sinks are
passed per call.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Sequence

import numpy as np

from repro.geometry.mbr import MBR, boxes_maxdist_point, boxes_mindist_point

#: Fan-out of the global tree over object MBRs (a page-sized stand-in; the
#: local instance trees use the paper's fan-out of 4).
GLOBAL_FANOUT = 16

_ARRAYS = ("lo", "hi", "ids", "node_lo", "node_hi", "node_meta",
           "over_lo", "over_hi", "over_ids")


class RTree:
    """R-tree over boxes ``[lo, hi]`` with optional payloads.

    Args:
        max_entries: node fan-out (paper: 4 for local trees;
            :data:`GLOBAL_FANOUT` for the global tree).

    Payloads are the ``items`` given to :meth:`bulk_load` (each entry's
    payload is ``items[i]`` for its original index ``i``); without items an
    entry's payload is its index, e.g. the instance row of a local tree.
    """

    __slots__ = ("max_entries", "items") + _ARRAYS

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries < 2:
            raise ValueError("max_entries must be at least 2")
        self.max_entries = max_entries
        self.items: list | None = None
        empty_box = np.empty((0, 0))
        empty_ids = np.empty(0, dtype=np.int64)
        self.lo = self.hi = self.node_lo = self.node_hi = empty_box
        self.over_lo = self.over_hi = empty_box
        self.ids = self.over_ids = empty_ids
        self.node_meta = np.empty((0, 3), dtype=np.int64)

    def __len__(self) -> int:
        return len(self.ids) + len(self.over_ids)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def bulk_load(
        cls,
        lo: np.ndarray,
        hi: np.ndarray,
        items: Sequence[Any] | None = None,
        max_entries: int = 8,
    ) -> "RTree":
        """Pack boxes ``[lo[i], hi[i]]`` by Sort-Tile-Recursive loading.

        Every level groups the centers of the level below with
        :func:`_str_groups`; the grouped levels are then laid out from the
        root down so each node's members are one contiguous run.
        """
        tree = cls(max_entries)
        if items is not None:
            tree.items = list(items)
        if len(lo) == 0:
            return tree
        points = hi is lo  # point entries share one array
        lo = np.asarray(lo, dtype=float)
        hi = lo if points else np.asarray(hi, dtype=float)
        # Bottom-up: (order, group starts, group sizes, group boxes) per level.
        levels = []
        box_lo, box_hi = lo, hi
        while True:
            order, sizes = _str_groups((box_lo + box_hi) / 2.0, max_entries)
            starts = list(itertools.accumulate(sizes[:-1], initial=0))
            box_lo = np.minimum.reduceat(box_lo[order], starts)
            box_hi = np.maximum.reduceat(box_hi[order], starts)
            levels.append((order.tolist(), starts, sizes, box_lo, box_hi))
            if len(sizes) == 1:
                break
        # Top-down: lay each level's groups out in their parents' member
        # order; a node's children start right after its own level.
        groups = [0]
        meta: list[tuple[int, int, int]] = []
        node_lo, node_hi = [], []
        for depth, (order, starts, sizes, box_lo, box_hi) in enumerate(reversed(levels)):
            leaf = depth == len(levels) - 1
            first = 0 if leaf else len(meta) + len(groups)
            for g in groups:
                meta.append((int(leaf), first, sizes[g]))
                first += sizes[g]
            node_lo.append(box_lo[groups])
            node_hi.append(box_hi[groups])
            groups = [m for g in groups for m in order[starts[g]:starts[g] + sizes[g]]]
        perm = np.array(groups, dtype=np.int64)  # entry indices in leaf order
        tree.lo = lo[perm]
        tree.hi = tree.lo if points else hi[perm]
        tree.ids = perm
        tree.node_lo = np.concatenate(node_lo)
        tree.node_hi = np.concatenate(node_hi)
        tree.node_meta = np.array(meta, dtype=np.int64)
        tree.over_lo = tree.over_hi = np.empty((0, lo.shape[1]))
        return tree

    def insert(self, lo: np.ndarray, hi: np.ndarray, payload: Any = None) -> None:
        """Add one entry (original index ``len(self)``) to the overflow leaf.

        When the overflow holds more than ``max_entries`` entries the tree is
        re-packed by :meth:`bulk_load` over every entry in original order —
        the tree a fresh bulk load would build.
        """
        row_lo = np.asarray(lo, dtype=float)[None, :]
        row_hi = np.asarray(hi, dtype=float)[None, :]
        if self.items is not None:
            self.items.append(payload)
        index = len(self)
        if len(self.over_ids):
            row_lo = np.concatenate([self.over_lo, row_lo])
            row_hi = np.concatenate([self.over_hi, row_hi])
        self.over_lo, self.over_hi = row_lo, row_hi
        self.over_ids = np.append(self.over_ids, index)
        if len(self.over_ids) > self.max_entries:
            self._repack()

    def _repack(self) -> None:
        ids = np.concatenate([self.ids, self.over_ids])
        d = self.over_lo.shape[1]
        lo = np.empty((len(ids), d))
        hi = np.empty((len(ids), d))
        lo[ids] = np.concatenate([self.lo.reshape(-1, d), self.over_lo])
        hi[ids] = np.concatenate([self.hi.reshape(-1, d), self.over_hi])
        fresh = RTree.bulk_load(lo, hi, self.items, self.max_entries)
        for name in ("items",) + _ARRAYS:
            setattr(self, name, getattr(fresh, name))

    def arrays(self) -> dict[str, np.ndarray]:
        """The tree's storage by name, overflow included (see :meth:`wrap`)."""
        return {name: getattr(self, name) for name in _ARRAYS}

    @classmethod
    def wrap(
        cls,
        arrays: dict[str, np.ndarray],
        items: Sequence[Any] | None = None,
        max_entries: int = 8,
    ) -> "RTree":
        """A tree over stored :meth:`arrays`, without copying them.

        The arrays may be read-only views (a shared-memory segment, a
        memory-mapped snapshot): inserts never write into them.
        """
        tree = cls(max_entries)
        for name in _ARRAYS:
            setattr(tree, name, arrays[name])
        if items is not None:
            tree.items = list(items)
        return tree

    # ------------------------------------------------------------------ #
    # Navigation (the primitives Algorithm 1 and top-k walk)
    # ------------------------------------------------------------------ #

    def roots(self) -> list[int]:
        """Top-level node ids: the packed root, then the overflow leaf."""
        out = [0] if len(self.node_meta) else []
        if len(self.over_ids):
            out.append(len(self.node_meta))
        return out

    def is_leaf(self, node: int) -> bool:
        """Whether ``node`` holds entries rather than child nodes."""
        return node == len(self.node_meta) or bool(self.node_meta[node, 0])

    def node_mbr(self, node: int) -> MBR:
        """Bounding box of ``node`` (the overflow leaf's is computed)."""
        if node == len(self.node_meta):
            return MBR(self.over_lo.min(axis=0), self.over_hi.max(axis=0))
        return MBR(self.node_lo[node], self.node_hi[node])

    def bounds(self) -> MBR | None:
        """Box covering every entry, overflow included (None when empty)."""
        boxes = [self.node_mbr(node) for node in self.roots()]
        if not boxes:
            return None
        return boxes[0] if len(boxes) == 1 else boxes[0].union(boxes[1])

    def children(self, node: int) -> tuple[bool, np.ndarray, np.ndarray, Sequence]:
        """``(is_leaf, los, his, members)`` of one node.

        ``members`` are the child node ids of an internal node, or the
        payloads of a leaf's entries; ``los``/``his`` are their boxes.
        """
        if node == len(self.node_meta):
            return True, self.over_lo, self.over_hi, self._payloads(self.over_ids)
        leaf, first, count = self.node_meta[node].tolist()
        stop = first + count
        if leaf:
            return (
                True, self.lo[first:stop], self.hi[first:stop],
                self._payloads(self.ids[first:stop]),
            )
        return False, self.node_lo[first:stop], self.node_hi[first:stop], range(first, stop)

    def entries(self, node: int) -> list:
        """Payloads of every entry under ``node``, in leaf order."""
        return self._payloads(self._ids_under(node))

    def _ids_under(self, node: int) -> np.ndarray:
        meta = self.node_meta
        if node == len(meta):
            return self.over_ids
        first = last = node
        while not meta[first, 0]:
            first = meta[first, 1]
        while not meta[last, 0]:
            last = meta[last, 1] + meta[last, 2] - 1
        return self.ids[meta[first, 1]: meta[last, 1] + meta[last, 2]]

    def _payloads(self, ids: np.ndarray) -> list:
        if self.items is None:
            return ids.tolist()
        items = self.items
        return [items[i] for i in ids.tolist()]

    # ------------------------------------------------------------------ #
    # Extreme distances (F-SD's per-vertex local-tree searches)
    # ------------------------------------------------------------------ #

    def nearest_distance(
        self, point: np.ndarray, *, batch: bool = True, budget=None, metrics=None
    ) -> float:
        """``delta_min(point, entries)`` — distance of the nearest entry.

        Best-first on ``mindist``.  With ``batch`` (default) each visited
        node keys all its members in one broadcast; ``batch=False`` is the
        scalar per-member reference path.  ``budget`` gets a deadline
        checkpoint per node visit; ``metrics`` counts the visits under
        ``repro_rtree_node_visits_total{tree="local", mode="nearest"}``.
        """
        return self._extreme(point, False, batch, budget, metrics)

    def farthest_distance(
        self, point: np.ndarray, *, batch: bool = True, budget=None, metrics=None
    ) -> float:
        """``delta_max(point, entries)`` — distance of the farthest entry.

        Best-first search on **negated maxdist**: a node's maxdist upper
        bounds the maxdist of everything below it.  Arguments as for
        :meth:`nearest_distance`.
        """
        return self._extreme(point, True, batch, budget, metrics)

    def _extreme(self, point, farthest: bool, batch: bool, budget, metrics) -> float:
        p = np.asarray(point, dtype=float)
        sign = -1.0 if farthest else 1.0
        counter = itertools.count()
        heap: list[tuple[float, int, bool, int]] = []
        for node in self.roots():
            mbr = self.node_mbr(node)
            bound = mbr.maxdist(p) if farthest else mbr.mindist(p)
            heapq.heappush(heap, (sign * bound, next(counter), False, node))
        visits = 0
        while heap:
            key, _, is_entry, node = heapq.heappop(heap)
            if is_entry:
                if metrics is not None and visits:
                    metrics.inc(
                        "repro_rtree_node_visits_total",
                        visits,
                        {"tree": "local", "mode": "farthest" if farthest else "nearest"},
                    )
                return sign * key
            visits += 1
            if budget is not None:
                budget.checkpoint("rtree-descent")
            leaf, los, his, members = self.children(node)
            if batch:
                kernel = boxes_maxdist_point if farthest else boxes_mindist_point
                dists = kernel(los, his, p).tolist()
            elif farthest:
                dists = [MBR(a, b).maxdist(p) for a, b in zip(los, his)]
            else:
                dists = [MBR(a, b).mindist(p) for a, b in zip(los, his)]
            for d, member in zip(dists, members):
                heapq.heappush(heap, (sign * d, next(counter), leaf, member))
        raise ValueError("tree is empty")

    # ------------------------------------------------------------------ #
    # Level partitions (Section 5.1 level-by-level filters)
    # ------------------------------------------------------------------ #

    def partitions(self, min_groups: int) -> list[tuple[MBR, np.ndarray]]:
        """Disjoint groups covering all entries, at least ``min_groups`` of
        them when possible.

        Starting from the top-level nodes, repeatedly replaces the largest
        (by volume) internal node of the frontier with its children until
        the frontier holds ``min_groups`` nodes or only leaves; reports each
        frontier node as ``(mbr, ids)`` with the original indices of the
        entries under it.
        """
        frontier = self.roots()
        while len(frontier) < min_groups:
            expandable = [n for n in frontier if not self.is_leaf(n)]
            if not expandable:
                break
            node = max(expandable, key=lambda n: self.node_mbr(n).volume())
            frontier.remove(node)
            _, first, count = self.node_meta[node].tolist()
            frontier.extend(range(first, first + count))
        return [(self.node_mbr(node), self._ids_under(node)) for node in frontier]


def _str_groups(centers: np.ndarray, capacity: int) -> tuple[np.ndarray, list[int]]:
    """Sort-Tile-Recursive grouping of ``centers`` (shape ``(n, d)``).

    Returns the packing order (a permutation of ``range(n)``) and the sizes
    of the consecutive groups it splits into.  A run of more than
    ``capacity`` points is stably sorted on the current coordinate and cut
    into ``ceil(groups ** (1 / dims_left))`` slabs, each tiled on the next
    coordinate; on the last coordinate it is cut into runs of ``capacity``.
    A run that fits one group keeps its order.
    """
    dims = centers.shape[1]
    parts: list[np.ndarray] = []
    sizes: list[int] = []

    def tile(idx: np.ndarray, axis: int) -> None:
        count = len(idx)
        n_groups = -(-count // capacity)
        if n_groups <= 1:
            parts.append(idx)
            sizes.append(count)
            return
        idx = idx[centers[idx, axis].argsort(kind="stable")]
        left = dims - axis
        if left == 1:
            parts.append(idx)
            sizes.extend([capacity] * (n_groups - 1) + [count - capacity * (n_groups - 1)])
            return
        slab = -(-count // math.ceil(n_groups ** (1.0 / left)))
        for start in range(0, count, slab):
            tile(idx[start:start + slab], axis + 1)

    tile(np.arange(len(centers)), 0)
    return np.concatenate(parts), sizes
