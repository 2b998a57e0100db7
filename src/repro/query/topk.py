"""Exact top-k NN search for a concrete NN function, with index bounds.

Classic best-first search with progressive refinement: R-tree nodes enter a
min-heap keyed by an *admissible* (never over-estimating) score bound; when
an object surfaces it is re-keyed by its exact score; when an exact-scored
object surfaces again it is final — everything left on the heap is bounded
below by its score.  The search therefore scores only the objects whose
bound falls below the k-th best score, instead of the whole dataset.

Scorers are provided for all shipped N1 aggregates (via the stable-aggregate
bound of :mod:`repro.query.bounds`) and for the N3 functions Hausdorff,
sum-of-minimal-distances and EMD/Netflow.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.functions import n3
from repro.functions.base import StableAggregate
from repro.geometry.mbr import MBR
from repro.index.rtree import GLOBAL_FANOUT, RTree
from repro.objects.uncertain import UncertainObject
from repro.query.bounds import hausdorff_lower_bound, mbr_score_bounds


@dataclass(frozen=True)
class Scorer:
    """An NN function with an admissible MBR-level lower bound.

    Attributes:
        name: display name.
        exact: maps ``(object, query)`` to the true (smaller-is-better) score.
        bound: maps ``(mbr, query)`` to a value ``<=`` the exact score of
            every object whose instances lie inside ``mbr``.
    """

    name: str
    exact: Callable[[UncertainObject, UncertainObject], float]
    bound: Callable[[MBR, UncertainObject], float]


def aggregate_scorer(aggregate: StableAggregate) -> Scorer:
    """Scorer for any stable aggregate over the distance distribution."""
    return Scorer(
        name=f"n1[{aggregate.name}]",
        exact=lambda obj, query: aggregate(obj.distance_distribution(query)),
        bound=lambda mbr, query: mbr_score_bounds(mbr, query, aggregate)[0],
    )


def hausdorff_scorer() -> Scorer:
    """Scorer for the Hausdorff distance (Definition 11)."""
    return Scorer(
        name="hausdorff",
        exact=n3.hausdorff_distance,
        bound=hausdorff_lower_bound,
    )


def summin_scorer() -> Scorer:
    """Scorer for the sum of minimal distances."""

    def bound(mbr: MBR, query: UncertainObject) -> float:
        # The q-side sum alone lower-bounds the symmetric average.
        q_side = float(
            np.dot([mbr.mindist(q) for q in query.points], query.probs)
        )
        return 0.5 * q_side

    return Scorer(name="sum-min-dist", exact=n3.sum_of_min_distances, bound=bound)


def emd_scorer() -> Scorer:
    """Scorer for the Earth Mover's / Netflow distance (centroid bound)."""

    def bound(mbr: MBR, query: UncertainObject) -> float:
        # centroid(U) lies inside the MBR, so EMD >= mindist(centroid(Q), mbr).
        q_centroid = np.average(query.points, axis=0, weights=query.probs)
        return mbr.mindist(q_centroid)

    return Scorer(name="emd", exact=n3.earth_movers_distance, bound=bound)


class FunctionTopK:
    """Reusable exact top-k engine over one object collection.

    Args:
        objects: the dataset; one global R-tree serves every query/scorer.
    """

    def __init__(self, objects: Sequence[UncertainObject]) -> None:
        self.objects = list(objects)
        self.tree = RTree.bulk_load(
            np.array([obj.mbr.lo for obj in self.objects]),
            np.array([obj.mbr.hi for obj in self.objects]),
            self.objects,
            max_entries=GLOBAL_FANOUT,
        )

    def query(
        self,
        query: UncertainObject,
        scorer: Scorer | StableAggregate,
        k: int = 1,
    ) -> list[tuple[float, UncertainObject]]:
        """The exact ``k`` best objects under the scorer, best first.

        Args:
            query: the query object.
            scorer: a :class:`Scorer` or a bare stable aggregate (wrapped
                via :func:`aggregate_scorer`).
            k: result size.

        Returns:
            ``[(score, object), ...]`` sorted by score; ties broken by
            discovery order.  Also records how many exact scores were
            computed in :attr:`last_exact_scores` (for bound-quality tests).
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        if not isinstance(scorer, Scorer):
            scorer = aggregate_scorer(scorer)
        counter = itertools.count()
        heap: list[tuple[float, int, int, object]] = []
        # kinds: 0 = tree node, 1 = object awaiting exact score, 2 = scored.
        tree = self.tree
        self.last_exact_scores = 0
        for node in tree.roots():
            bound = scorer.bound(tree.node_mbr(node), query)
            heapq.heappush(heap, (bound, next(counter), 0, node))
        out: list[tuple[float, UncertainObject]] = []
        while heap and len(out) < k:
            key, _, kind, item = heapq.heappop(heap)
            if kind == 2:
                out.append((key, item))  # type: ignore[arg-type]
                continue
            if kind == 1:
                obj: UncertainObject = item  # type: ignore[assignment]
                self.last_exact_scores += 1
                exact = scorer.exact(obj, query)
                heapq.heappush(heap, (exact, next(counter), 2, obj))
                continue
            leaf, los, his, members = tree.children(item)  # type: ignore[arg-type]
            for lo, hi, member in zip(los, his, members):
                bound = scorer.bound(MBR(lo, hi), query)
                heapq.heappush(heap, (bound, next(counter), 1 if leaf else 0, member))
        return out


def top_k(
    objects: Sequence[UncertainObject],
    query: UncertainObject,
    scorer: Scorer | StableAggregate,
    k: int = 1,
) -> list[tuple[float, UncertainObject]]:
    """One-shot exact top-k query (builds the index and searches)."""
    return FunctionTopK(objects).query(query, scorer, k)
