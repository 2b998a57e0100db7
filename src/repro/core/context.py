"""Per-query evaluation context with shared caches.

NN candidate search evaluates many dominance checks against one query; the
context caches everything reusable across those checks:

* the convex hull of the query instances (geometric filter, Section 5.1.2),
  built on first read — only P-SD and F-SD read it,
* the query MBR,
* per-object distance distributions ``U_Q`` and per-query-instance
  distributions ``U_q``,
* per-object summary statistics (min / mean / max) for the statistic-based
  pruning rule (Theorem 11),
* per-object level partitions (local R-tree slices) for the level-by-level
  filters.

Objects are keyed by identity, so the context must outlive neither the query
nor the object set it serves.
"""

from __future__ import annotations

import numpy as np

from repro.core import kernels as K
from repro.core.counters import Counters
from repro.obs.tracer import NULL_TRACER
from repro.geometry.convexhull import Hull, convex_hull
from repro.geometry.distance import is_euclidean, resolve_norm
from repro.geometry.mbr import MBR
from repro.objects.uncertain import UncertainObject
from repro.resilience.faults import NumericalFault
from repro.stats.distribution import DiscreteDistribution


class QueryContext:
    """Caches shared by all dominance checks against one query.

    Args:
        query: the query object.
        counters: optional instrumentation sink (a fresh one is created when
            omitted).
        use_hull: when True (default) the geometric filter replaces the query
            instance set with its convex hull vertices for instance-ordering
            tests and enables P-SD's hull-interior rule; disabling
            reproduces the "no geometry" ablation rows.
        level_groups: number of groups the level-by-level filters partition
            each object into (via its local R-tree).
        metric: distance metric name ("euclidean", "manhattan"/"l1",
            "chebyshev"/"linf").  The distribution-based operators (S-SD,
            SS-SD) work under any metric; for non-Euclidean metrics the
            geometric filters that rest on bisector linearity (convex hull
            reduction, MBR dominance validation, hull-interior rule) are
            disabled automatically — correctness is preserved, only pruning
            power is reduced.
        kernels: when True (default) distance matrices, CDF sweeps, MBR
            bounds and pruning screens run through the vectorised batch
            kernels of :mod:`repro.core.kernels`; ``kernels=False`` selects
            the scalar reference loops (one metric call per pair, the
            single-scan CDF merge, per-point MBR bounds) — bit-compatible
            results, used as the property-testing oracle and the baseline
            of ``benchmarks/bench_kernels.py``.
        tracer: optional :class:`repro.obs.tracer.Tracer`; defaults to the
            shared no-op :data:`repro.obs.tracer.NULL_TRACER`, so untraced
            queries pay only an ``enabled`` attribute check per span site.
        metrics: optional :class:`repro.obs.metrics.MetricsRegistry`; when
            set, searches feed per-query metrics (latency, counter totals,
            prune-rule hits), the kernels feed batch-size histograms, and a
            tracer without its own registry adopts this one for span
            latencies.
        budget: optional :class:`repro.resilience.budget.Budget`; when set,
            the search driver, operators, kernels, R-tree descents, and the
            max-flow loop hit cooperative checkpoints, and on exhaustion the
            search degrades to a certified superset instead of failing (see
            DESIGN.md §12).
        faults: optional :class:`repro.resilience.faults.FaultPlan`; fires
            deterministic injected faults at named pipeline sites.  Test
            machinery — never set in production paths.
    """

    def __init__(
        self,
        query: UncertainObject,
        *,
        counters: Counters | None = None,
        use_hull: bool = True,
        level_groups: int = 4,
        metric: str = "euclidean",
        kernels: bool = True,
        tracer=None,
        metrics=None,
        budget=None,
        faults=None,
    ) -> None:
        self.query = query
        self.counters = counters if counters is not None else Counters()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        if metrics is not None:
            # Instance attribute shadows the Counters.metrics ClassVar, so
            # the kernel hot path finds the sink without extra plumbing.
            self.counters.metrics = metrics
            if getattr(self.tracer, "metrics", None) is None and self.tracer.enabled:
                self.tracer.metrics = metrics
        self.budget = budget
        self.faults = faults
        #: One flag for the operator hot path: resilience plumbing is only
        #: consulted behind it, so an unbudgeted, unfaulted query pays a
        #: single attribute check per dominance check.
        self.resilient = budget is not None or faults is not None
        if budget is not None:
            # Same shadow trick as metrics: the kernels find the budget on
            # the counter bag and hit a deadline checkpoint per invocation.
            self.counters.budget = budget
        #: ``(site, reason)`` pairs for dominance decisions that defaulted
        #: to conservative non-dominance (capped; the counter keeps going).
        self.unresolved_events: list[tuple[str, str]] = []
        #: :class:`repro.resilience.budget.DegradationReport` of the most
        #: recent search run with this context (``None`` = exact).  Request
        #: -scoped — unlike any shared search-instance state, concurrent
        #: queries each hold their own context and cannot cross-observe.
        self.degradation = None
        self.level_groups = level_groups
        self.metric = metric
        self.kernels = bool(kernels)
        self.is_euclidean = is_euclidean(metric)
        self.norm = None if self.is_euclidean else resolve_norm(metric)
        self.query_mbr: MBR = query.mbr
        self._reduce = use_hull and self.is_euclidean and len(query) > 2
        self._hull: Hull | None = None
        self._dist_matrices: dict[int, np.ndarray] = {}
        self._dist_dists: dict[int, DiscreteDistribution] = {}
        self._per_q_dists: dict[int, list[DiscreteDistribution]] = {}
        self._stats: dict[int, tuple[float, float, float]] = {}
        self._partitions: dict[tuple[int, int], list[tuple[MBR, np.ndarray, float]]] = {}
        self._hull_vectors: dict[int, np.ndarray] = {}
        self._hull_extremes: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._row_extremes: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._sorted_rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------ #

    def spend_check(self, n: int = 1, *, fire: bool = False) -> None:
        """Charge ``n`` dominance checks to the budget; optionally fire faults.

        Called behind ``self.resilient`` wherever ``counters.dominance_checks``
        is bumped — operator entries pass ``fire=True`` (the injection point
        for ``dominance-check`` faults); the search driver's batch-equivalent
        accounting charges without firing.

        Raises:
            BudgetExhausted: the dominance-check cap or deadline tripped
                (the driver catches this and drains conservatively).
            InjectedFault: a ``dominance-check`` fault fired (callers treat
                the pair as unresolved — conservative non-dominance).
        """
        budget = self.budget
        if budget is not None:
            budget.spend_dominance_checks(n)
        if fire and self.faults is not None:
            self.faults.fire("dominance-check")

    def note_unresolved(self, site: str, reason: str) -> None:
        """Record one dominance decision that defaulted conservatively.

        Feeds the ``unresolved_checks`` counter (and through it the metrics
        export) plus a capped event list for the degradation report.
        """
        self.counters.bump("unresolved_checks")
        if len(self.unresolved_events) < 32:
            self.unresolved_events.append((site, reason))

    # ------------------------------------------------------------------ #

    @property
    def hull(self) -> Hull | None:
        """``CH(Q)`` with its facet half-spaces, built on first read.

        ``None`` when the context keeps every query instance: ``use_hull``
        off, a non-Euclidean metric, or at most two instances.
        """
        if self._hull is None and self._reduce:
            self._hull = convex_hull(self.query.points)
        return self._hull

    @property
    def hull_points(self) -> np.ndarray:
        """The query points ``<=_Q`` tests run against.

        The vertices of :attr:`hull`, or ``query.points`` itself (the same
        object) when the context keeps every instance.
        """
        hull = self.hull
        return self.query.points if hull is None else hull.points

    def distance_matrix(self, obj: UncertainObject) -> np.ndarray:
        """Raw pair-distance matrix, shape ``(|Q|, m)``, cached.

        The one broadcast every per-object artefact derives from: ``U_Q``
        ravels it, ``U_q`` reads its rows, ``min(U_Q)`` is its minimum.
        """
        key = id(obj)
        mat = self._dist_matrices.get(key)
        if mat is None:
            if self.kernels:
                mat = K.distance_matrix(
                    self.query.points, obj.points, self.metric, counters=self.counters
                )
            else:
                mat = K.distance_matrix_scalar(
                    self.query.points, obj.points, self.metric, counters=self.counters
                )
            if self.faults is not None:
                # Fault harness only: poison + finiteness guard.  A corrupted
                # matrix is detected, NOT cached — the next access recomputes
                # it cleanly once the fault's firing window is spent.
                mat = self.faults.corrupt("distance-matrix", mat)
                if not np.isfinite(mat).all():
                    raise NumericalFault("distance-matrix")
            self._dist_matrices[key] = mat
        return mat

    def distance_distribution(self, obj: UncertainObject) -> DiscreteDistribution:
        """``U_Q`` for ``obj``, cached."""
        key = id(obj)
        if key not in self._dist_dists:
            mat = self.distance_matrix(obj)
            probs = np.outer(self.query.probs, obj.probs)
            self._dist_dists[key] = DiscreteDistribution(mat.ravel(), probs.ravel())
        return self._dist_dists[key]

    def per_instance_distributions(
        self, obj: UncertainObject
    ) -> list[DiscreteDistribution]:
        """``[U_q for q in Q]`` in query instance order, cached."""
        key = id(obj)
        if key not in self._per_q_dists:
            dists = self.distance_matrix(obj)
            self._per_q_dists[key] = [
                DiscreteDistribution(row, obj.probs) for row in dists
            ]
        return self._per_q_dists[key]

    def min_distance(self, obj: UncertainObject) -> float:
        """Exact ``min(U_Q)`` from the cached distance matrix."""
        return float(self.distance_matrix(obj).min())

    def statistics(self, obj: UncertainObject) -> tuple[float, float, float]:
        """``(min, mean, max)`` of ``U_Q`` (Theorem 11 pruning inputs)."""
        key = id(obj)
        if key not in self._stats:
            dist = self.distance_distribution(obj)
            self._stats[key] = (dist.min(), dist.mean(), dist.max())
        return self._stats[key]

    def hull_distance_vectors(self, obj: UncertainObject) -> np.ndarray:
        """Distance of every instance to every hull vertex, shape ``(m, k)``."""
        key = id(obj)
        if key not in self._hull_vectors:
            if self.hull_points is self.query.points:
                # Hull not reduced: the distance matrix already holds these.
                vecs = self.distance_matrix(obj).T
            elif self.kernels:
                vecs = K.distance_matrix(
                    obj.points, self.hull_points, self.metric, counters=self.counters
                )
            else:
                vecs = K.distance_matrix_scalar(
                    obj.points, self.hull_points, self.metric, counters=self.counters
                )
            self._hull_vectors[key] = vecs
        return self._hull_vectors[key]

    def hull_extremes(self, obj: UncertainObject) -> tuple[np.ndarray, np.ndarray]:
        """Per hull vertex: (max, min) distance over the object's instances.

        The F-SD per-vertex comparison reduces to these two ``(k,)``
        vectors; they depend only on the object, so the kernel path caches
        them instead of re-reducing the hull matrix for every pair.
        """
        key = id(obj)
        out = self._hull_extremes.get(key)
        if out is None:
            vecs = self.hull_distance_vectors(obj)  # (m, k)
            out = (vecs.max(axis=0), vecs.min(axis=0))
            self._hull_extremes[key] = out
        return out

    def row_extremes(self, obj: UncertainObject) -> tuple[np.ndarray, np.ndarray]:
        """Per query instance: (min, max) distance over the object's instances.

        The SS-SD per-``q`` statistic screen inputs, shape ``(|Q|,)`` each;
        cached per object for the same reason as :meth:`hull_extremes`.
        """
        key = id(obj)
        out = self._row_extremes.get(key)
        if out is None:
            mat = self.distance_matrix(obj)  # (|Q|, m)
            out = (mat.min(axis=1), mat.max(axis=1))
            self._row_extremes[key] = out
        return out

    def sorted_rows(self, obj: UncertainObject) -> tuple[np.ndarray, np.ndarray]:
        """Row-sorted distance matrix with prefix-summed probabilities.

        Returns ``(vals, cum)`` with ``vals`` the ``(|Q|, m)`` matrix sorted
        along each row and ``cum`` the ``(|Q|, m + 1)`` cumulative masses in
        that order (leading zero column) — the per-``q`` CDFs of the object
        (:meth:`per_instance_distributions`), ready for the merge-rank
        dominance kernel; see :func:`repro.core.kernels.sorted_rows`.
        """
        key = id(obj)
        out = self._sorted_rows.get(key)
        if out is None:
            out = K.sorted_rows(self.distance_matrix(obj), obj.probs)
            self._sorted_rows[key] = out
        return out

    def partitions(
        self, obj: UncertainObject, groups: int | None = None
    ) -> list[tuple[MBR, np.ndarray, float]]:
        """Level partitions ``(mbr, instance_indices, mass)`` of ``obj``.

        Derived from the object's local R-tree (fan-out 4 per the paper),
        descended until at least ``groups`` groups exist (defaults to the
        context's ``level_groups``).  The iterative level-by-level filters
        call this with increasing granularities; each level is cached.
        """
        if groups is None:
            groups = self.level_groups
        key = (id(obj), groups)
        if key not in self._partitions:
            self._partitions[key] = [
                (mbr, idx, float(sum(obj.probs[idx].tolist())))
                for mbr, idx in obj.local_rtree().partitions(groups)
            ]
        return self._partitions[key]

    def forget(self, obj: UncertainObject) -> None:
        """Drop cached artefacts of one object (memory control in sweeps)."""
        key = id(obj)
        for cache in (
            self._dist_matrices,
            self._dist_dists,
            self._per_q_dists,
            self._stats,
            self._hull_vectors,
            self._hull_extremes,
            self._row_extremes,
            self._sorted_rows,
        ):
            cache.pop(key, None)
        for part_key in [k for k in self._partitions if k[0] == key]:
            del self._partitions[part_key]
