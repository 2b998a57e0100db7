"""Geometric primitives used throughout the library.

This subpackage provides the low-level spatial machinery the paper's
algorithms depend on:

* distance metrics between points (:mod:`repro.geometry.distance`),
* minimal bounding rectangles with ``mindist``/``maxdist`` computations and
  the Emrich et al. optimal MBR dominance test (:mod:`repro.geometry.mbr`),
* convex hulls of query instance sets (:mod:`repro.geometry.convexhull`),
* bisector half-space tests realising the instance-level ordering
  ``u <=_Q v`` (:mod:`repro.geometry.halfspace`).
"""

from repro.geometry.convexhull import Hull, convex_hull, point_in_hull
from repro.geometry.distance import (
    chebyshev,
    euclidean,
    manhattan,
    pairwise_distances,
    resolve_metric,
    squared_euclidean,
)
from repro.geometry.halfspace import closer_to_query, distance_vector
from repro.geometry.mbr import MBR, mbr_dominates

__all__ = [
    "Hull",
    "MBR",
    "chebyshev",
    "closer_to_query",
    "convex_hull",
    "distance_vector",
    "euclidean",
    "manhattan",
    "mbr_dominates",
    "point_in_hull",
    "pairwise_distances",
    "resolve_metric",
    "squared_euclidean",
]
