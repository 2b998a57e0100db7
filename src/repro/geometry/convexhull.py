"""Convex hulls of query instance sets and point-in-hull tests.

Section 5.1.2 of the paper observes that the instance ordering
``u <=_Q v`` (``u`` at least as close as ``v`` to *every* query instance) only
needs to be verified at the vertices of the convex hull of the query: the
condition ``delta(u, q) <= delta(v, q)`` is equivalent to a linear inequality
in ``q`` (the bisector half-space), so if it holds at the hull vertices it
holds throughout the hull, hence for every query instance.  Replacing ``Q``
with ``CH(Q)`` is the paper's geometric filter (the ``G`` in the Appendix C
filter ablation).  A second geometric rule needs the converse test: an
instance of ``V`` *inside* ``CH(Q)`` can never be peer-dominated.

The reference implementation of the paper uses ``qhull``; this module
computes the same exact hull in NumPy.  Duplicates are collapsed and the
point set is reduced to its affine span (by SVD), then:

* rank 1 keeps the two extremes;
* rank 2 and up runs beneath-beyond: start from a simplex, and add each
  remaining point (farthest first) by replacing the facets it sees with
  facets over their horizon ridges (in the plane, a facet is an edge and
  a ridge is one point).

The result carries the vertices and the outward facet half-spaces, so a
membership test is one matrix-vector product.  :func:`point_in_hull` answers
"inside" only with a margin on every facet: a borderline point is reported
outside, which merely skips an optional pruning rule.  Beneath-beyond's
facets are checked (closed, and supporting every point); near-degenerate
input that fails the check keeps every distinct point as a vertex and
claims no interior, which is always correct, only less pruning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Singular values below this share of the largest span no dimension.
_RANK_TOL = 1e-10
#: A point this close to a facet plane does not see it (share of the scale:
#: the input's largest coordinate magnitude, which bounds its rounding).
_VISIBLE_TOL = 1e-14
#: :func:`point_in_hull` margin inside every facet (share of the scale).
_MARGIN = 1e-9
#: Singular values of unit facet normals below this span no direction.
_FLAT_TOL = 1e-12


@dataclass(frozen=True)
class Hull:
    """Exact convex hull of a point set: vertices plus facet half-spaces.

    The closed hull is ``{x : normals @ x <= offsets}``.  A flat hull (of
    lower rank than the space) also holds two opposite half-spaces per
    direction normal to its affine span, so no point is strictly inside it.
    A hull without facets — of no points, or one whose facets failed their
    check on near-degenerate input — keeps every distinct point as a vertex
    and has no interior.

    Attributes:
        vertices: indices of the hull vertices in the input, ascending.
        points: the vertex coordinates, shape ``(k, d)``.
        normals: outward unit facet normals, shape ``(f, d)``.
        offsets: facet offsets, shape ``(f,)``.
        margin: how far inside every facet :func:`point_in_hull` requires a
            point to lie — ``1e-9`` of the input's largest coordinate
            magnitude.
    """

    vertices: np.ndarray
    points: np.ndarray
    normals: np.ndarray
    offsets: np.ndarray
    margin: float


def _planes(
    y: np.ndarray, facets: np.ndarray, inner: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Outward unit normals and offsets of simplicial ``facets``.

    The normal ``n`` of a facet with corners ``c_0 .. c_{r-1}`` solves
    ``(c_j - c_0) . n = 0`` and ``(c_0 - inner) . n = 1``: one batched
    solve, and the last row orients it away from the interior point.
    """
    corners = y[facets]  # (f, r, r)
    base = corners[:, 0]
    system = np.empty_like(corners)
    system[:, :-1] = corners[:, 1:] - base[:, None]
    system[:, -1] = base - inner
    # One right-hand column per facet: NumPy 1.x broadcasts no 1-d ``b``
    # against a stack of matrices.
    rhs = np.zeros((len(facets), y.shape[1], 1))
    rhs[:, -1] = 1.0
    normals = np.linalg.solve(system, rhs)[..., 0]
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    return normals, np.einsum("ij,ij->i", normals, base)


def _beneath_beyond(
    y: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hull of full-rank ``y`` (``n > r >= 2``): vertices, normals, offsets.

    Raises:
        numpy.linalg.LinAlgError: a degenerate facet, or facets that fail
            :func:`_checked` — near-degenerate input.
    """
    n, r = y.shape
    # Initial simplex: each next corner is the point farthest from the
    # affine span of the corners so far.
    simplex = [int(np.argmax(np.einsum("ij,ij->i", y, y)))]
    rel = y - y[simplex[0]]
    basis = np.empty((0, r))
    for _ in range(r):
        resid = rel - (rel @ basis.T) @ basis
        j = int(np.argmax(np.einsum("ij,ij->i", resid, resid)))
        simplex.append(j)
        basis = np.vstack([basis, resid[j] / np.linalg.norm(resid[j])])
    inner = y[simplex].mean(axis=0)
    facets = np.sort(np.array([simplex[:t] + simplex[t + 1:] for t in range(r + 1)]))
    normals, offsets = _planes(y, facets, inner)

    rest = np.setdiff1d(np.arange(n), simplex)
    far = np.einsum("ij,ij->i", y[rest] - inner, y[rest] - inner)
    for i in rest[np.argsort(-far, kind="stable")]:
        visible = normals @ y[i] - offsets > tol
        if not visible.any():
            continue
        # A ridge of exactly one visible facet borders an unseen one: the
        # horizon.
        ridges = _ridges(facets[visible])
        order = np.lexsort(ridges.T)
        same = (ridges[order[1:]] == ridges[order[:-1]]).all(axis=1)
        single = np.ones(len(order), dtype=bool)
        single[1:] &= ~same
        single[:-1] &= ~same
        horizon = ridges[order[single]]
        new = np.sort(np.column_stack([horizon, np.full(len(horizon), i)]))
        new_normals, new_offsets = _planes(y, new, inner)
        kept = ~visible
        facets = np.concatenate([facets[kept], new])
        normals = np.concatenate([normals[kept], new_normals])
        offsets = np.concatenate([offsets[kept], new_offsets])
    if not _checked(y, facets, normals, offsets, tol):
        raise np.linalg.LinAlgError("hull facets failed their check")
    return _extreme_corners(facets, normals), normals, offsets


def _extreme_corners(facets: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Facet corners that are vertices of the hull, ascending.

    A corner is a vertex iff the normals of the facets at it span the
    space; a corner inside a flat piece of boundary (coplanar facets, as in
    a point grid) fails that test.
    """
    corners = np.unique(facets)
    at = (facets[:, :, None] == corners).any(axis=1)  # (f, k) incidence
    corner_of, facet_of = np.nonzero(at.T)
    count = np.bincount(corner_of, minlength=len(corners))
    slot = np.arange(len(corner_of)) - np.repeat(np.cumsum(count) - count, count)
    stacked = np.zeros((len(corners), count.max(), normals.shape[1]))
    stacked[corner_of, slot] = normals[facet_of]
    spread = np.linalg.svd(stacked, compute_uv=False)[:, -1]
    return corners[spread > _FLAT_TOL]


def _ridges(facets: np.ndarray) -> np.ndarray:
    """Every facet's ridges (its corners but one); sorted rows stay sorted."""
    r = facets.shape[1]
    drop = np.array([[c for c in range(r) if c != t] for t in range(r)])
    return facets[:, drop].reshape(-1, r - 1)


def _checked(
    y: np.ndarray, facets: np.ndarray, normals: np.ndarray, offsets: np.ndarray, tol: float
) -> bool:
    """Whether the facets close up and support every point within ``tol``.

    Closed (every ridge shared by exactly two facets), supporting facets
    bound exactly the hull; near-degenerate input (sliver facets,
    inconsistent visibility) can break either property.
    """
    _, counts = np.unique(_ridges(facets), axis=0, return_counts=True)
    return bool((counts == 2).all() and (normals @ y.T <= offsets[:, None] + tol).all())


def _span_hull(y: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hull of ``y`` given in coordinates of its own affine span."""
    r = y.shape[1]
    if r == 0:
        return np.zeros(1, dtype=np.intp), np.empty((0, 0)), np.empty(0)
    if r == 1:
        lo, hi = int(np.argmin(y[:, 0])), int(np.argmax(y[:, 0]))
        return (
            np.array(sorted((lo, hi)), dtype=np.intp),
            np.array([[-1.0], [1.0]]),
            np.array([-y[lo, 0], y[hi, 0]]),
        )
    return _beneath_beyond(y, tol)


def convex_hull(points: np.ndarray) -> Hull:
    """Exact convex hull of ``points`` (shape ``(n, d)``).

    Duplicate points are collapsed (the first occurrence stays); a set of
    rank ``r < d`` is hulled inside its affine span.

    Returns:
        The :class:`Hull`: every input point is a convex combination of its
        vertices, and — unless its facets failed their check — every vertex
        is an extreme point of the input.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = pts.shape
    if n == 0:
        return Hull(np.empty(0, dtype=np.intp), pts, np.empty((0, d)), np.empty(0), 0.0)
    _, first = np.unique(pts.round(decimals=12), axis=0, return_index=True)
    unique_idx = np.sort(first)
    center = pts[unique_idx].mean(axis=0)
    x = pts[unique_idx] - center
    extent = float(np.abs(x).max())
    scale = float(np.abs(pts[unique_idx]).max())
    # All d rows of vt are needed (the span and its complement); the full
    # left factor is not, unless there are fewer points than dimensions.
    _, sing, vt = np.linalg.svd(x, full_matrices=len(x) < d)
    rank = int(np.count_nonzero(sing > _RANK_TOL * sing[0])) if extent > 0 else 0
    span = np.eye(d) if rank == d else vt[:rank]
    try:
        local, span_normals, span_offsets = _span_hull(x @ span.T, _VISIBLE_TOL * scale)
    except np.linalg.LinAlgError:
        # Keep every distinct point and claim no interior: always correct.
        return Hull(unique_idx, pts[unique_idx], np.empty((0, d)), np.empty(0), 0.0)
    across = vt[rank:]
    normals = np.concatenate([span_normals @ span, across, -across])
    offsets = np.concatenate([span_offsets, np.zeros(2 * len(across))]) + normals @ center
    vertices = unique_idx[local]
    return Hull(vertices, pts[vertices], normals, offsets, _MARGIN * scale)


def point_in_hull(point: np.ndarray, hull: Hull) -> bool:
    """Whether ``point`` lies inside ``hull`` by more than its margin.

    One half-space test per facet.  A point within the margin of the
    boundary — and any point of a flat hull or of a hull without facets —
    counts as outside.
    """
    p = np.asarray(point, dtype=float)
    return bool(hull.offsets.size) and bool(np.all(hull.normals @ p < hull.offsets - hull.margin))
