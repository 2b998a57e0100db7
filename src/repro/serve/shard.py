"""Sharded scatter-gather NNC search, exact by the Theorem-3 argument.

The object set is partitioned into K shards, Algorithm 1 runs per shard,
and a cross-shard refiner eliminates survivors dominated from other shards.
Correctness rests on two facts (DESIGN.md §13):

1. **Per-shard supersets.** A shard's k-NNC is computed against fewer
   objects, so every globally surviving object survives its own shard:
   the union of shard answers is a superset of the global answer.
2. **Skyband counting equivalence.** If ``u`` dominates ``v`` but ``u`` is
   not in its shard's k-skyband, then at least ``k`` shard members dominate
   ``u`` — and by transitivity (all five operators are strict partial
   orders) they dominate ``v`` too.  Counting dominators of ``v`` among
   *survivors only*, capped at ``k``, therefore reaches ``k`` exactly when
   the true global count does.  The refiner never needs eliminated objects.

Backends:

* ``serial`` — cascade: shards ordered by min-distance to the query; each
  shard search is *seeded* with the survivors found so far, so earlier
  survivors prune later shards and per-survivor counts already cover all
  earlier shards.  The refiner then only checks later-shard survivors.
* ``pool`` — persistent spawn-safe worker-process pool over shared-memory
  shard snapshots (:mod:`repro.serve.shm`).  Workers attach zero-copy
  NumPy views of instance matrices, probability vectors and flattened
  R-tree arrays; mutations publish a new epoch (append-then-swap) instead
  of tearing the pool down, and per-query messages carry only
  ``(query, operator params, epoch, request wire form)``.  A dead worker
  surfaces as :class:`ShardBackendError` (503 at the HTTP layer), never a
  hang.

The refine filter ``min(U_Q) <= min(V_Q) + tol`` is sound for all five
operators: dominance of ``v`` by ``u`` requires ``u`` to be at least as
close in the best case (Definition 5 / Theorem 4 lower-bound corner), so a
strictly farther minimum distance can never dominate.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.context import QueryContext
from repro.core.counters import Counters
from repro.core.nnc import NNCSearch
from repro.core.operators import OperatorKind, _BaseOperator, make_operator
from repro.objects.uncertain import UncertainObject
from repro.obs.log import log_event
from repro.obs.metrics import query_metrics_from_counters
from repro.obs.request import RequestContext
from repro.resilience.budget import Budget, BudgetExhausted, DegradationReport
from repro.serve.placement import shard_of
from repro.serve.shm import (
    SegmentStore,
    pool_profile_snapshot,
    pool_run_one,
    pool_worker_init,
)

__all__ = [
    "BACKENDS",
    "PARTITIONERS",
    "FANOUT_BUCKETS",
    "ShardBackendError",
    "ShardedResult",
    "ShardedSearch",
    "partition_centroid",
    "partition_hash",
    "partition_round_robin",
    "refine_survivors",
]


class ShardBackendError(RuntimeError):
    """The pool backend failed mid-query (e.g. a worker died).

    The request cannot be answered by this backend right now, but the
    service itself is healthy — the serving layer maps this to HTTP 503 so
    clients retry, and the pool backend rebuilds its workers on the next
    query (published shared-memory segments survive a worker loss).
    """

#: Safety margin for the refine filter (exact distances; the margin only
#: admits a few extra candidate pairs, never drops one).
_REFINE_TOL = 1e-7

BACKENDS: tuple[str, ...] = ("serial", "pool")

FANOUT_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64)
"""Histogram buckets for the per-query shard fan-out metric."""


# --------------------------------------------------------------------- #
# Partitioners
# --------------------------------------------------------------------- #

def partition_round_robin(
    objects: Sequence[UncertainObject], shards: int
) -> list[list[UncertainObject]]:
    """Deal objects round-robin into ``shards`` lists (load-balanced)."""
    if shards < 1:
        raise ValueError("shards must be at least 1")
    return [list(objects[i::shards]) for i in range(shards)]


def partition_centroid(
    objects: Sequence[UncertainObject],
    shards: int,
    *,
    iterations: int = 8,
    seed: int = 0,
) -> list[list[UncertainObject]]:
    """Spatial partition: k-means over MBR centers (deterministic).

    Farthest-point initialisation from a seeded pick, a few Lloyd rounds,
    then empty shards (possible with degenerate geometry) are repaired by
    stealing the farthest member of the largest shard.
    """
    if shards < 1:
        raise ValueError("shards must be at least 1")
    objects = list(objects)
    if shards == 1 or len(objects) <= shards:
        # Degenerate: round-robin gives the same one-object-per-shard split.
        return partition_round_robin(objects, shards)
    centers = np.array(
        [(o.mbr.lo + o.mbr.hi) / 2.0 for o in objects], dtype=float
    )
    rng = np.random.default_rng(seed)
    picked = [int(rng.integers(len(objects)))]
    best = ((centers - centers[picked[0]]) ** 2).sum(axis=1)
    for _ in range(shards - 1):
        nxt = int(np.argmax(best))
        picked.append(nxt)
        best = np.minimum(best, ((centers - centers[nxt]) ** 2).sum(axis=1))
    cents = centers[picked].copy()
    assign = np.zeros(len(objects), dtype=int)
    for _ in range(max(1, iterations)):
        d2 = ((centers[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        for j in range(shards):
            mask = assign == j
            if mask.any():
                cents[j] = centers[mask].mean(axis=0)
    while True:
        sizes = np.bincount(assign, minlength=shards)
        empties = np.flatnonzero(sizes == 0)
        if empties.size == 0:
            break
        donor = int(sizes.argmax())
        members = np.flatnonzero(assign == donor)
        far = members[
            int(np.argmax(((centers[members] - cents[donor]) ** 2).sum(axis=1)))
        ]
        assign[far] = int(empties[0])
    return [
        [objects[i] for i in np.flatnonzero(assign == j)] for j in range(shards)
    ]


def partition_hash(
    objects: Sequence[UncertainObject], shards: int
) -> list[list[UncertainObject]]:
    """Partition by the *global* content hash of each oid.

    Shard index ``j`` holds exactly the objects with
    :func:`repro.serve.placement.shard_of` ``== j`` — the same function
    the router tier uses to place logical shards on nodes, so any server
    loaded with any subset of the data agrees with every other party
    about which shard each object belongs to.  Requires every object to
    carry an oid (the serving layer assigns them before partitioning).
    """
    if shards < 1:
        raise ValueError("shards must be at least 1")
    parts: list[list[UncertainObject]] = [[] for _ in range(shards)]
    for obj in objects:
        if obj.oid is None:
            raise ValueError("hash partitioner requires every object "
                             "to carry an oid")
        parts[shard_of(obj.oid, shards)].append(obj)
    return parts


PARTITIONERS: dict[str, Callable[..., list[list[UncertainObject]]]] = {
    "round-robin": partition_round_robin,
    "centroid": partition_centroid,
    "hash": partition_hash,
}


def _mbr_min_dist(q_lo, q_hi, lo, hi) -> float:
    gap = np.maximum(0.0, np.maximum(lo - q_hi, q_lo - hi))
    return float(np.sqrt((gap * gap).sum()))


# --------------------------------------------------------------------- #
# Result
# --------------------------------------------------------------------- #

@dataclass
class ShardedResult:
    """Outcome of a scatter-gather NNC search.

    ``candidates`` are sorted by exact min-distance (ties by shard order)
    and, absent degradation, are exactly the single-process answer set.
    """

    candidates: list[UncertainObject] = field(default_factory=list)
    #: Final dominator counts after cross-shard refinement, capped at ``k``.
    dominator_counts: list[int] = field(default_factory=list)
    elapsed: float = 0.0
    shards: int = 0
    backend: str = "serial"
    #: One dict per shard: ``objects``, ``survivors``, ``elapsed``,
    #: ``degraded``.
    per_shard: list[dict] = field(default_factory=list)
    #: Cross-shard dominance checks spent by the refiner.
    refine_checks: int = 0
    #: Shards that contributed at least one pre-refine survivor.
    fanout: int = 0
    degradation: DegradationReport | None = None
    counters: Counters = field(default_factory=Counters)
    #: Counter deltas of the cross-shard refine phase alone (already part
    #: of ``counters``); the explain breakdown reports them as their own
    #: stage so per-stage totals reconcile with the bag.
    refine_counters: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.candidates)

    @property
    def exact(self) -> bool:
        """Whether every shard answered exactly (no degradation)."""
        return self.degradation is None

    def oids(self) -> list:
        """Candidate object ids in final (min-distance) order."""
        return [c.oid for c in self.candidates]


# --------------------------------------------------------------------- #
# Pool result decoding
# --------------------------------------------------------------------- #

def _counters_from_snapshot(snap: dict) -> Counters:
    c = Counters()
    names = {f.name for f in c.__dataclass_fields__.values()} - {"extra"}
    for key, value in snap.items():
        if key in names:
            setattr(c, key, value)
        elif key.startswith("extra."):
            c.extra[key[len("extra."):]] = value
        else:
            c.extra[key] = value
    return c


def _report_from_dict(d: dict) -> DegradationReport:
    return DegradationReport(
        reason=d["reason"],
        site=d["site"],
        phase=d["phase"],
        unresolved_checks=d["unresolved_checks"],
        conservative_accepts=d["conservative_accepts"],
        elapsed_ms=d["elapsed_ms"],
        budget=d.get("budget"),
        spent=dict(d.get("spent") or {}),
        events=[tuple(e) for e in d.get("events") or []],
    )


# --------------------------------------------------------------------- #
# ShardedSearch
# --------------------------------------------------------------------- #

class ShardedSearch:
    """K-shard scatter-gather NNC search with a cross-shard refiner.

    Args:
        objects: the dataset (partitioned once at construction).
        shards: number of shards K.
        partitioner: one of :data:`PARTITIONERS`.
        backend: one of :data:`BACKENDS`.
        metrics: optional :class:`repro.obs.metrics.MetricsRegistry`; feeds
            the ``repro_serve_shard_fanout`` histogram per query.
        workers: worker-process count for the ``pool`` backend (default:
            ``min(shards, cpu_count)``, at least 2).
        start_method: multiprocessing start method for the ``pool`` backend
            (default ``spawn`` — workers share *nothing* by inheritance;
            ``fork``/``forkserver`` are accepted where the platform has
            them, e.g. to cut pool boot time in tests).
        profile_hz: sampling rate for per-worker profilers in the ``pool``
            backend (each persistent worker starts its own
            :class:`repro.obs.profile.SamplingProfiler`; snapshots are
            collected by :meth:`worker_profiles`); 0 disables.
    """

    def __init__(
        self,
        objects: Sequence[UncertainObject],
        *,
        shards: int = 1,
        partitioner: str = "round-robin",
        backend: str = "serial",
        metrics: Any = None,
        workers: int | None = None,
        start_method: str | None = None,
        profile_hz: float = 0.0,
    ) -> None:
        if partitioner not in PARTITIONERS:
            raise ValueError(
                f"unknown partitioner {partitioner!r}; "
                f"expected one of {tuple(PARTITIONERS)}"
            )
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        if workers is not None and workers < 1:
            raise ValueError("workers must be at least 1")
        self.partitioner = partitioner
        self.backend = backend
        self.metrics = metrics
        self.workers = workers
        self.start_method = start_method
        self.profile_hz = float(profile_hz)
        parts = PARTITIONERS[partitioner](list(objects), shards)
        self.searches = [NNCSearch(p) for p in parts]
        #: Shard centroids (MBR centers) for partitioner-aware inserts;
        #: empty shards get +inf so they never attract until refilled.
        self._centroids = self._compute_centroids()
        # Pool-backend state: the segment store owns the shared-memory
        # snapshots; the executor holds the persistent spawn-safe workers.
        self._store = None
        self._pool_exec: ProcessPoolExecutor | None = None
        self._pool_epoch = 0
        #: Serialises pool bring-up/teardown: concurrent reader threads may
        #: race into the first pool query (mutations are externally
        #: serialised by the DatasetManager write lock).
        self._pool_lock = threading.Lock()
        #: Per shard: retained segment names, oldest..newest (last = live).
        self._shard_segments: list[list[str]] = []
        #: Segment name -> parent-side snapshot object list, in the order
        #: workers index into (kept as long as the segment is retained).
        self._snapshot_objects: dict[str, list[UncertainObject]] = {}

    @classmethod
    def from_searches(
        cls,
        searches: Sequence[NNCSearch],
        *,
        partitioner: str = "round-robin",
        backend: str = "serial",
        metrics: Any = None,
        workers: int | None = None,
        start_method: str | None = None,
        profile_hz: float = 0.0,
    ) -> "ShardedSearch":
        """Adopt pre-built per-shard searches without re-partitioning.

        The durable tier's warm restart rebuilds each shard straight from
        a snapshot (:func:`repro.serve.shm.unpack_shard`) — skipping
        validation, partitioning, and the STR bulk loads is exactly the
        warm-over-cold speedup.  Shard order is preserved, so the oid
        registry and partitioner-aware insert routing keep working.
        """
        inst = cls(
            [],
            shards=max(1, len(searches)),
            partitioner=partitioner,
            backend=backend,
            metrics=metrics,
            workers=workers,
            start_method=start_method,
            profile_hz=profile_hz,
        )
        if searches:
            inst.searches = list(searches)
            inst._centroids = inst._compute_centroids()
        return inst

    # ------------------------------ topology --------------------------- #

    @property
    def shards(self) -> int:
        return len(self.searches)

    def shard_sizes(self) -> list[int]:
        """Live (unmasked) object count per shard."""
        return [len(s.objects) - s.masked_count for s in self.searches]

    @property
    def size(self) -> int:
        """Total live objects across shards."""
        return sum(self.shard_sizes())

    def live_objects(self) -> list[UncertainObject]:
        """All live objects, shard-major order."""
        out: list[UncertainObject] = []
        for s in self.searches:
            out.extend(s.live_objects())
        return out

    @property
    def dim(self) -> int | None:
        """Dimensionality of the indexed objects; None while every shard
        is empty."""
        return next(
            (s.objects[0].dim for s in self.searches if s.objects), None
        )

    def _compute_centroids(self) -> np.ndarray | None:
        if self.partitioner != "centroid":
            return None
        dims = self.dim
        if dims is None:
            return None
        cents = np.full((len(self.searches), dims), np.inf)
        for j, s in enumerate(self.searches):
            if s.objects:
                cents[j] = np.mean(
                    [(o.mbr.lo + o.mbr.hi) / 2.0 for o in s.objects], axis=0
                )
        return cents

    # ------------------------------ mutation --------------------------- #

    def choose_shard(self, obj: UncertainObject) -> int:
        """Partitioner-consistent shard for a new object.

        Hash partitioning is positional by oid (any party recomputes it);
        centroid partitioning sends the object to the nearest shard
        centroid; round-robin keeps shards balanced (smallest live shard).
        """
        if self.partitioner == "hash":
            return shard_of(obj.oid, self.shards)
        if self._centroids is not None:
            center = (obj.mbr.lo + obj.mbr.hi) / 2.0
            return int(
                np.argmin(((self._centroids - center) ** 2).sum(axis=1))
            )
        sizes = self.shard_sizes()
        return int(np.argmin(sizes))

    def insert(self, obj: UncertainObject, shard: int | None = None) -> int:
        """Insert ``obj`` (incremental R-tree insert); returns its shard."""
        if shard is None:
            shard = self.choose_shard(obj)
        self.searches[shard].add_object(obj)
        if self._centroids is not None and not np.isfinite(
            self._centroids[shard]
        ).all():
            self._centroids[shard] = (obj.mbr.lo + obj.mbr.hi) / 2.0
        self._publish_epoch([shard])
        return shard

    def mask(self, shard: int, obj: UncertainObject) -> bool:
        """Tombstone ``obj`` in its shard (O(1) logical delete)."""
        ok = self.searches[shard].mask_object(obj)
        if ok:
            self._publish_epoch([shard])
        return ok

    def compact(self, threshold: float = 0.0) -> int:
        """Rebuild shards whose masked fraction exceeds ``threshold``.

        Returns the total number of tombstones removed.
        """
        removed = 0
        rebuilt: list[int] = []
        for j, s in enumerate(self.searches):
            total = len(s.objects)
            if total and s.masked_count / total > threshold:
                dropped = s.compact()
                if dropped:
                    rebuilt.append(j)
                removed += dropped
        if removed:
            self._publish_epoch(rebuilt)
        return removed

    def close(self) -> None:
        """Shut the pool workers down and unlink shared memory."""
        if self._pool_exec is not None:
            self._pool_exec.shutdown(wait=True, cancel_futures=True)
            self._pool_exec = None
        if self._store is not None:
            self._store.close()
            self._store = None
            self._shard_segments = []
            self._snapshot_objects.clear()

    # ------------------------------ querying --------------------------- #

    def run(
        self,
        query: UncertainObject,
        operator: _BaseOperator | OperatorKind | str,
        *,
        k: int = 1,
        metric: str = "euclidean",
        budget: Budget | None = None,
        request: RequestContext | None = None,
        shard_subset: Sequence[int] | None = None,
    ) -> ShardedResult:
        """Scatter-gather k-NNC; pinned equal to the single-shard answer.

        With a ``budget``, the serial backend shares it across the cascade
        (request-level semantics); the pool backend gives each shard a
        fresh budget with the same limits.  Any shard degradation makes the
        combined answer a flagged superset, same contract as
        :class:`repro.core.nnc.NNCResult`.

        With a ``request`` (the serving layer's
        :class:`repro.obs.request.RequestContext`), a sampled request's
        shard searches are traced: the serial cascade records into the
        request's root tracer, and pool workers get a shard child context
        over the wire and return span dicts for ``add_shard_spans``.

        With a ``shard_subset``, only those shards are searched and the
        answer is the exact k-NNC over the *union of the subset's
        objects* — the node-role contract the router tier builds on: a
        node answers for the logical shards it owns, and the router's
        cross-node refine is sound because the subsets it gathers are
        disjoint and cover the dataset.
        """
        if not isinstance(operator, _BaseOperator):
            operator = make_operator(operator)
        targets = self._normalise_subset(shard_subset)
        start = time.perf_counter()
        scatter = (
            self._scatter_pool
            if self.backend == "pool" and self.shards > 1
            else self._scatter_serial
        )
        survivors, covered, per_shard, merged, degradation, refine_ctx = (
            scatter(
                query, operator, k, metric, budget, request, targets
            )
        )

        pre_refine = refine_ctx.counters.snapshot()
        final, counts, refine_checks, unresolved = refine_survivors(
            operator, k, survivors, covered, refine_ctx
        )
        post_refine = refine_ctx.counters.snapshot()
        refine_deltas = {
            key: post_refine[key] - pre_refine.get(key, 0)
            for key in post_refine
            if post_refine[key] - pre_refine.get(key, 0)
        }
        if refine_ctx.counters is not merged:
            # The pool backend refines in a fresh context; fold its work
            # into the merged bag so the query's counters cover the whole
            # answer, same as the serial path (where the contexts alias).
            merged.merge(_counters_from_snapshot(refine_deltas))
        if unresolved and degradation is None:
            # The budget tripped during refinement with every shard exact:
            # unresolved cross-shard checks defaulted to non-dominance, so
            # the answer is a flagged superset (same contract as the engine).
            exhausted = budget.exhausted if budget is not None else None
            degradation = DegradationReport(
                reason=exhausted.reason if exhausted else "budget",
                site="refine",
                phase="refine",
                unresolved_checks=unresolved,
                conservative_accepts=0,
                elapsed_ms=(time.perf_counter() - start) * 1000.0,
                budget=budget.limits() if budget is not None else None,
                spent=budget.spent() if budget is not None else {},
            )
        result = ShardedResult(
            candidates=[obj for obj, _ in final],
            dominator_counts=counts,
            elapsed=time.perf_counter() - start,
            shards=self.shards,
            backend=self.backend,
            per_shard=per_shard,
            refine_checks=refine_checks,
            fanout=sum(1 for group in survivors if group),
            degradation=degradation,
            counters=merged,
            refine_counters=refine_deltas,
        )
        if self.metrics is not None:
            self.metrics.observe(
                "repro_serve_shard_fanout",
                result.fanout,
                {"operator": operator.name},
                buckets=FANOUT_BUCKETS,
            )
            for row in per_shard:
                self.metrics.observe(
                    "repro_serve_shard_seconds",
                    row["elapsed"],
                    {"shard": str(row["shard"]), "operator": operator.name},
                )
            query_metrics_from_counters(
                self.metrics,
                merged.snapshot(),
                operator=operator.name,
                elapsed=result.elapsed,
                candidates=len(result.candidates),
            )
        if degradation is not None:
            log_event(
                "search.degraded",
                level="warning",
                operator=operator.name,
                backend=self.backend,
                reason=degradation.reason,
                site=degradation.site,
                unresolved_checks=degradation.unresolved_checks,
            )
        return result

    # --------------------------- scatter phases ------------------------ #

    def _normalise_subset(
        self, shard_subset: Sequence[int] | None
    ) -> list[int]:
        """Validated, sorted shard indexes to scatter over."""
        if shard_subset is None:
            return list(range(self.shards))
        targets = sorted(set(int(s) for s in shard_subset))
        if not targets:
            raise ValueError("shard_subset must not be empty")
        if targets[0] < 0 or targets[-1] >= self.shards:
            raise ValueError(
                f"shard_subset {targets} out of range [0, {self.shards})"
            )
        return targets

    def _shard_order(self, query: UncertainObject) -> list[int]:
        """Shards by min-distance of the query MBR to the shard tree's box."""
        q = query.mbr
        keyed = []
        for j, s in enumerate(self.searches):
            box = s.tree.bounds()
            key = (
                _mbr_min_dist(q.lo, q.hi, box.lo, box.hi)
                if box is not None
                else float("inf")
            )
            keyed.append((key, j))
        keyed.sort()
        return [j for _, j in keyed]

    def _scatter_serial(
        self, query, operator, k, metric, budget, request,
        targets: Sequence[int],
    ):
        """Cascade: near shards first, survivors seed the later shards.

        Runs on the request thread, so a sampled request's shard spans land
        directly in its root tracer (wrapped in per-shard ``shard-search``
        spans) — no buffer hand-back needed.
        """
        tracer = (
            request.tracer
            if request is not None and request.sampled and request.tracer is not None
            else None
        )
        ctx = QueryContext(query, metric=metric, budget=budget, tracer=tracer)
        wanted = set(targets)
        order = [j for j in self._shard_order(query) if j in wanted]
        survivors: list[list[tuple[UncertainObject, int]]] = [
            [] for _ in order
        ]
        covered: list[set[int]] = []
        rows: dict[int, dict] = {}
        degradation: DegradationReport | None = None
        seeds: list[UncertainObject] = []
        for pos, j in enumerate(order):
            search = self.searches[j]
            with ctx.tracer.span("shard-search", shard=j, cascade_pos=pos):
                res = search.run(query, operator, k=k, ctx=ctx, seeds=seeds)
            survivors[pos] = list(
                zip(res.candidates, res.dominator_counts)
            )
            # Seeds joined the accepted set, so counts cover this group AND
            # every earlier one in the cascade (group = cascade position).
            covered.append(set(range(pos + 1)))
            rows[j] = {
                "shard": j,
                "objects": len(search.objects) - search.masked_count,
                "survivors": len(res.candidates),
                "elapsed": res.elapsed,
                "degraded": res.degradation is not None,
            }
            if degradation is None and res.degradation is not None:
                degradation = res.degradation
            seeds.extend(res.candidates)
        per_shard = [rows[j] for j in sorted(rows)]
        return survivors, covered, per_shard, ctx.counters, degradation, ctx

    # --------------------------- pool backend -------------------------- #

    def _ensure_pool(self) -> None:
        """Bring up the segment store and persistent workers (idempotent).

        Segments and the executor have independent lifetimes: a worker
        crash tears down only the executor, and the next query rebuilds it
        here against the already-published segments.
        """
        with self._pool_lock:
            if self._store is None:
                store = SegmentStore()
                self._shard_segments = [[] for _ in range(self.shards)]
                self._store = store
                for j in range(self.shards):
                    self._publish_shard(j)
            if self._pool_exec is None:
                self._pool_exec = ProcessPoolExecutor(
                    max_workers=self.workers
                    or max(2, min(self.shards, os.cpu_count() or 2)),
                    mp_context=multiprocessing.get_context(
                        self.start_method or "spawn"
                    ),
                    initializer=pool_worker_init,
                    initargs=(self.profile_hz,),
                )

    def _publish_shard(self, j: int) -> None:
        """Publish shard ``j``'s current state; retire all but the last two.

        Keeping the previous segment alongside the new one is the retention
        half of append-then-swap: a task stamped just before the swap still
        attaches its pre-swap segment and answers against that snapshot.
        """
        search = self.searches[j]
        name = self._store.publish(self._pool_epoch, j, search)
        self._snapshot_objects[name] = list(search.objects)
        kept = self._shard_segments[j]
        kept.append(name)
        while len(kept) > 2:
            old = kept.pop(0)
            self._store.retire(old)
            self._snapshot_objects.pop(old, None)

    def _publish_epoch(self, shards: Sequence[int]) -> None:
        """Swap in a new pool epoch covering the mutated ``shards`` only.

        No-op until the pool backend has run once.  Untouched shards keep
        serving their existing segments — the per-task segment *name* is
        what workers attach by; the epoch is a monotonic stamp for
        diagnostics and lifecycle tests.  Workers are never restarted.
        """
        if self._store is None or not shards:
            return
        self._pool_epoch += 1
        for j in shards:
            self._publish_shard(j)

    def _teardown_pool_executor(self) -> None:
        """Drop the worker pool (e.g. after a worker death); keep segments."""
        with self._pool_lock:
            if self._pool_exec is not None:
                self._pool_exec.shutdown(wait=False, cancel_futures=True)
                self._pool_exec = None

    def pool_pids(self) -> list[int]:
        """Pids of live pool workers (empty before the first pool query)."""
        if self._pool_exec is None:
            return []
        return sorted(
            p.pid for p in self._pool_exec._processes.values()
        )

    def worker_profiles(self) -> dict[int, dict]:
        """Cumulative profiler snapshots from pool workers, keyed by pid.

        The executor gives no control over which worker picks up a task,
        so one snapshot task per worker is submitted and results are
        keyed by the responding pid — a worker answering twice simply
        overwrites its own (cumulative, so idempotent) snapshot, and a
        worker that answered none is picked up by a later call.  Empty
        for non-pool backends, a disabled profiler, or a cold pool.
        """
        executor = self._pool_exec
        if executor is None or self.profile_hz <= 0:
            return {}
        slots = max(1, len(self.pool_pids()))
        try:
            futures = [
                executor.submit(pool_profile_snapshot) for _ in range(slots)
            ]
        except RuntimeError:
            return {}
        out: dict[int, dict] = {}
        for future in futures:
            try:
                pid, prof = future.result(timeout=5.0)
            except Exception:  # noqa: BLE001 — profile is best-effort
                continue
            if prof is not None:
                out[pid] = prof
        return out

    def _scatter_pool(
        self, query, operator, k, metric, budget, request,
        targets: Sequence[int],
    ):
        """Persistent shared-memory pool scatter (spawn-safe workers).

        Tasks carry only ``(shard, epoch, segment name, query, operator
        params, request wire form)`` — shard state crosses the process
        boundary through shared memory, never the task pipe.  Worker death
        (:class:`BrokenProcessPool`) surfaces as
        :class:`ShardBackendError`; the executor is torn down and lazily
        rebuilt on the next query, while published segments survive.
        """
        self._ensure_pool()
        executor = self._pool_exec
        limits = budget.limits() if budget is not None else None
        traced = request is not None and request.sampled
        names = [segs[-1] for segs in self._shard_segments]
        tasks = [
            (
                j,
                self._pool_epoch,
                names[j],
                query,
                operator,
                k,
                metric,
                limits,
                request.child(j).to_wire() if traced else None,
            )
            for j in targets
        ]
        raw = []
        try:
            futures = [executor.submit(pool_run_one, t) for t in tasks]
            for f in futures:
                raw.append(f.result())
        except (BrokenProcessPool, RuntimeError) as exc:
            # RuntimeError: a concurrent request's worker death shut this
            # executor down between our _ensure_pool and submit.
            self._teardown_pool_executor()
            raise ShardBackendError(
                "pool worker died mid-query; the backend rebuilds its "
                "workers on the next query"
            ) from exc
        survivors = []
        covered = []
        per_shard = []
        merged = Counters()
        degradation: DegradationReport | None = None
        for pos, (j, payload) in enumerate(zip(targets, raw)):
            if payload[0] == "error":
                _, pid, epoch, message = payload
                raise ShardBackendError(
                    f"pool worker {pid} failed on shard {j} "
                    f"(epoch {epoch}): {message}"
                )
            _, pid, _epoch, idxs, counts, elapsed, report, snap, spans = (
                payload
            )
            objs = self._snapshot_objects[names[j]]
            survivors.append([(objs[i], c) for i, c in zip(idxs, counts)])
            # Group ids in the refiner are positional, which only equals
            # the shard id when every shard was scattered — subset queries
            # must cover by position.
            covered.append({pos})
            shard_report = _report_from_dict(report) if report else None
            search = self.searches[j]
            per_shard.append({
                "shard": j,
                "objects": len(search.objects) - search.masked_count,
                "survivors": len(idxs),
                "elapsed": elapsed,
                "degraded": shard_report is not None,
                "pid": pid,
            })
            merged.merge(_counters_from_snapshot(snap))
            if degradation is None:
                degradation = shard_report
            if spans and request is not None:
                request.add_shard_spans(j, spans)
        refine_ctx = QueryContext(query, metric=metric)
        return survivors, covered, per_shard, merged, degradation, refine_ctx

    # ------------------------------ gather ----------------------------- #


def refine_survivors(operator, k, survivors, covered, ctx):
    """Count cross-group dominators among survivors; keep counts < k.

    ``survivors`` is a list of groups of ``(object, base_count)`` pairs;
    ``covered[gi]`` names the *positional* group indexes whose dominators
    are already included in group ``gi``'s base counts.  Sound because
    dominators of a survivor that were eliminated in their own group are
    themselves dominated by >= k survivors there, which dominate the
    target by transitivity (counting equivalence, DESIGN.md §13).

    Shared by :class:`ShardedSearch` (groups = local shards) and the
    router tier (groups = per-node answers gathered over HTTP) — one code
    path is what keeps distributed answers bit-identical to the
    single-process oracle.

    Returns:
        ``(kept, counts, checks, unresolved)`` where ``kept`` is a list of
        ``(object, min_distance)`` pairs sorted by distance.
    """
    flat: list[tuple[float, int, int, UncertainObject, int]] = []
    for gi, group in enumerate(survivors):
        for obj, base in group:
            flat.append((ctx.min_distance(obj), gi, len(flat), obj, base))
    flat.sort(key=lambda rec: (rec[0], rec[1], rec[2]))
    checks = 0
    unresolved = 0
    kept: list[tuple[UncertainObject, float]] = []
    counts: list[int] = []
    for dmin, gi, _, obj, base in flat:
        total = base
        if total < k:
            for gj, group in enumerate(survivors):
                if gj in covered[gi]:
                    continue
                for other, _ in group:
                    if other is obj:
                        continue
                    if ctx.min_distance(other) > dmin + _REFINE_TOL:
                        continue
                    checks += 1
                    try:
                        dominated = operator.dominates(other, obj, ctx)
                    except BudgetExhausted:
                        # Conservative non-dominance: the candidate is
                        # kept; run() flags the answer as degraded.
                        unresolved += 1
                        dominated = False
                    if dominated:
                        total += 1
                        if total >= k:
                            break
                if total >= k:
                    break
        if total < k:
            kept.append((obj, dmin))
            counts.append(total)
    return kept, counts, checks, unresolved

