"""Uncertain / multi-valued objects and their distance distributions.

``UncertainObject`` stores instance coordinates with probabilities, exposes
the paper's distance distributions (``U_Q`` over all pair-wise distances and
``U_q`` per query instance; Section 2.1), lazily caches its MBR and a local
R-tree, and supports weight normalisation for multi-valued objects.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.geometry.distance import pairwise_distances
from repro.geometry.mbr import MBR
from repro.stats.distribution import DiscreteDistribution

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.index.rtree import RTree

_PROB_TOL = 1e-9


class UncertainObject:
    """An object with multiple weighted instances (a discrete random variable).

    Attributes:
        points: instance coordinates, shape ``(m, d)``.
        probs: instance probabilities, shape ``(m,)``; sums to 1 after
            normalisation.
        oid: optional identifier used by indexes and result sets.
    """

    __slots__ = ("points", "probs", "oid", "_mbr", "_local_tree")

    def __init__(
        self,
        points: np.ndarray | Sequence[Sequence[float]],
        probs: np.ndarray | Sequence[float] | None = None,
        *,
        oid: int | str | None = None,
        normalize: bool = False,
    ) -> None:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.size == 0:
            raise ValueError("an object needs at least one instance")
        if probs is None:
            ps = np.full(pts.shape[0], 1.0 / pts.shape[0])
        else:
            ps = np.asarray(probs, dtype=float)
        if ps.shape != (pts.shape[0],):
            raise ValueError("probs must be a vector matching the instance count")
        if np.any(ps < -_PROB_TOL):
            raise ValueError("instance probabilities must be non-negative")
        total = float(ps.sum())
        if normalize:
            if total <= 0:
                raise ValueError("cannot normalize zero total weight")
            ps = ps / total
        elif abs(total - 1.0) > 1e-6:
            raise ValueError(
                f"instance probabilities sum to {total}; pass normalize=True "
                "for multi-valued objects with raw weights"
            )
        # One contiguous float64 copy up front: every batch kernel consumes
        # these arrays directly, so no per-call conversion happens later.
        self.points = np.ascontiguousarray(pts, dtype=np.float64)
        self.probs = np.ascontiguousarray(ps, dtype=np.float64)
        self.oid = oid
        self._mbr: MBR | None = None
        self._local_tree: "RTree | None" = None

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return int(self.points.shape[0])

    def __repr__(self) -> str:
        return (
            f"UncertainObject(oid={self.oid!r}, m={len(self)}, "
            f"d={self.dim}, mbr={self.mbr.lo.tolist()}..{self.mbr.hi.tolist()})"
        )

    @property
    def dim(self) -> int:
        """Dimensionality of the instance space."""
        return int(self.points.shape[1])

    @property
    def mbr(self) -> MBR:
        """Minimal bounding rectangle of the instances (cached)."""
        if self._mbr is None:
            self._mbr = MBR.of_points(self.points)
        return self._mbr

    def local_rtree(self, fanout: int = 4) -> "RTree":
        """Local R-tree over the instances (fan-out 4 as in the paper).

        Entries are the rows of :attr:`points`; an entry's payload is its
        row index, which also indexes :attr:`probs`.
        """
        if self._local_tree is None:
            from repro.index.rtree import RTree

            self._local_tree = RTree.bulk_load(
                self.points, self.points, max_entries=fanout
            )
        return self._local_tree

    # ------------------------------------------------------------------ #
    # Distance distributions (Section 2.1, Example 1)
    # ------------------------------------------------------------------ #

    def distance_distribution(
        self, query: "UncertainObject", metric: str = "euclidean"
    ) -> DiscreteDistribution:
        """``U_Q``: all pair-wise distances with product probabilities."""
        dists = pairwise_distances(query.points, self.points, metric)  # (|Q|, m)
        probs = np.outer(query.probs, self.probs)
        return DiscreteDistribution(dists.ravel(), probs.ravel())

    def distance_distribution_to_point(
        self, q: np.ndarray, q_prob: float = 1.0, metric: str = "euclidean"
    ) -> DiscreteDistribution:
        """``U_q``: distances to one query instance, instance probabilities.

        ``q_prob`` only scales the mass (the paper keeps ``U_q`` mass 1; the
        scaled form is convenient when mixing ``U_q`` into ``U_Q``).
        """
        dists = pairwise_distances(np.atleast_2d(q), self.points, metric).ravel()
        return DiscreteDistribution(dists, self.probs * q_prob)

    def min_distance(
        self, query: "UncertainObject", metric: str = "euclidean"
    ) -> float:
        """Smallest pair-wise distance ``min(U_Q)`` (exact, no index)."""
        return float(pairwise_distances(query.points, self.points, metric).min())

    def max_distance(
        self, query: "UncertainObject", metric: str = "euclidean"
    ) -> float:
        """Largest pair-wise distance ``max(U_Q)``."""
        return float(pairwise_distances(query.points, self.points, metric).max())


def normalize_objects(
    objects: Iterable[UncertainObject],
) -> list[UncertainObject]:
    """Return objects with probabilities rescaled to total mass 1.

    The paper's normalisation step for multi-valued objects: NN ranks are
    preserved whenever all objects carry the same total weight mass, which is
    the common case the paper assumes (Section 1).
    """
    out = []
    for obj in objects:
        out.append(
            UncertainObject(obj.points, obj.probs, oid=obj.oid, normalize=True)
        )
    return out
