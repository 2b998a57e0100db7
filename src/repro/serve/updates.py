"""Dynamic dataset management: validated inserts, tombstone deletes, epochs.

A :class:`DatasetManager` owns a :class:`repro.serve.shard.ShardedSearch`
plus the bookkeeping a living dataset needs:

* an **oid registry** (every object addressable; duplicates rejected),
* an **epoch counter** bumped by every successful mutation — the cache key
  version that makes stale hits impossible (:mod:`repro.serve.cache`),
* **quarantine at the door**: inserts run :func:`repro.objects.validate
  .validate_objects` at the dataset's dimensionality, under the configured
  policy, before touching an index (the server runs queries through the
  same check, strictly),
* **O(1) deletes** via the engine's deletion mask, with automatic shard
  compaction once the tombstone fraction passes ``compact_threshold``,
* a **readers-writer lock**: queries share the dataset; mutations take it
  exclusively (under the ``pool`` backend each mutation publishes a fresh
  shared-memory epoch for the mutated shards — its workers persist across
  updates).
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from typing import Any, Sequence

from repro.objects.uncertain import UncertainObject
from repro.objects.validate import InvalidInputError, validate_objects
from repro.obs.log import log_event
from repro.serve.shard import ShardedSearch, ShardedResult

__all__ = ["DatasetManager", "DuplicateOidError", "UnknownOidError"]


class DuplicateOidError(ValueError):
    """An insert reused an oid that is already live."""


class UnknownOidError(KeyError):
    """A delete referenced an oid that is not live."""


class _RWLock:
    """Readers-writer lock, writer-preferring (updates cannot starve)."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @contextmanager
    def read(self):
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write(self):
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


class DatasetManager:
    """A mutable, shard-served dataset with epoch-versioned reads.

    Args:
        objects: initial dataset (validated under ``on_invalid``).
        shards / partitioner / backend: forwarded to :class:`ShardedSearch`.
        on_invalid: quarantine policy for the initial load *and* inserts
            (``strict`` rejects, ``repair`` fixes what it can, ``skip``
            drops — a dropped single insert is reported as a rejection).
        compact_threshold: masked fraction above which a shard is rebuilt
            after a delete (1.0 disables automatic compaction).
        metrics: optional MetricsRegistry, forwarded to the sharded search
            and fed ``repro_serve_epoch`` / ``repro_serve_objects`` gauges.
        workers / start_method: forwarded to :class:`ShardedSearch` for the
            ``pool`` backend (worker count; multiprocessing start method,
            default ``spawn``).
        profile_hz: forwarded to :class:`ShardedSearch` — per-worker
            sampling profilers for the ``pool`` backend (0 disables).
    """

    def __init__(
        self,
        objects: Sequence[UncertainObject],
        *,
        shards: int = 1,
        partitioner: str = "round-robin",
        backend: str = "serial",
        on_invalid: str = "strict",
        compact_threshold: float = 0.3,
        metrics: Any = None,
        workers: int | None = None,
        start_method: str | None = None,
        profile_hz: float = 0.0,
    ) -> None:
        kept, load_report = validate_objects(
            list(objects), on_invalid=on_invalid, metrics=metrics
        )
        self._assign_missing_oids(kept)
        self._init_from_search(
            ShardedSearch(
                kept,
                shards=shards,
                partitioner=partitioner,
                backend=backend,
                metrics=metrics,
                workers=workers,
                start_method=start_method,
                profile_hz=profile_hz,
            ),
            on_invalid=on_invalid,
            compact_threshold=compact_threshold,
            metrics=metrics,
            load_report=load_report,
        )

    def _init_from_search(
        self,
        search: ShardedSearch,
        *,
        on_invalid: str,
        compact_threshold: float,
        metrics: Any,
        load_report: Any = None,
    ) -> None:
        """Shared construction tail for a pre-built sharded search.

        The normal constructor arrives here after validating and
        partitioning; the durable tier's warm restart arrives with shards
        rebuilt straight from a snapshot (no re-validation, no re-build —
        that skip *is* the warm-restart speedup)."""
        self.on_invalid = on_invalid
        self.compact_threshold = compact_threshold
        self.metrics = metrics
        self.load_report = load_report
        self.search = search
        self._lock = _RWLock()
        self._epoch = 0
        self._compacting = False
        self._closed = False
        #: oid -> (shard index, object); the only mutable name authority.
        self._registry = self._build_registry(search)
        self._export_gauges()

    @staticmethod
    def _build_registry(
        search: ShardedSearch,
    ) -> dict[Any, tuple[int, UncertainObject]]:
        """Oid registry over the *live* (unmasked) objects of a search."""
        registry: dict[Any, tuple[int, UncertainObject]] = {}
        for j, shard_search in enumerate(search.searches):
            for obj in shard_search.live_objects():
                if obj.oid in registry:
                    raise DuplicateOidError(
                        f"duplicate oid {obj.oid!r} in initial dataset"
                    )
                registry[obj.oid] = (j, obj)
        return registry

    # ------------------------------ state ------------------------------ #

    @property
    def epoch(self) -> int:
        """Dataset version; bumped by every successful insert/delete."""
        return self._epoch

    @property
    def size(self) -> int:
        """Number of live objects."""
        return len(self._registry)

    @property
    def compacting(self) -> bool:
        """True while a shard compaction is rebuilding indexes.

        Mid-compaction the write lock is held, so queries queue behind it;
        health checks report this instead of a plain "ok" so drain and
        latency monitoring stay truthful.
        """
        return self._compacting

    def get(self, oid) -> UncertainObject | None:
        """The live object with this oid, or None."""
        entry = self._registry.get(oid)
        return entry[1] if entry is not None else None

    def _assign_missing_oids(self, objects: list[UncertainObject]) -> None:
        taken = {o.oid for o in objects if o.oid is not None}
        fresh = (i for i in itertools.count() if i not in taken)
        for obj in objects:
            if obj.oid is None:
                obj.oid = next(fresh)

    def _next_oid(self):
        for i in itertools.count(len(self._registry)):
            if i not in self._registry:
                return i

    def _export_gauges(self) -> None:
        if self.metrics is not None:
            self.metrics.set_gauge("repro_serve_epoch", self._epoch)
            self.metrics.set_gauge("repro_serve_objects", len(self._registry))

    # ----------------------------- queries ----------------------------- #

    def query(
        self,
        query: UncertainObject,
        operator,
        *,
        k: int = 1,
        metric: str = "euclidean",
        budget=None,
        request=None,
        shard_subset: Sequence[int] | None = None,
    ) -> tuple[ShardedResult, int]:
        """Run a sharded search under the read lock.

        ``request`` (a :class:`repro.obs.request.RequestContext`) rides
        through to :meth:`ShardedSearch.run` for trace propagation.
        ``shard_subset`` restricts the scatter to the named shards — the
        node-role contract behind router-scoped reads.

        Returns:
            ``(result, epoch)`` — the epoch the answer is valid for, read
            atomically with the search (cache entries must be keyed by it).
        """
        with self._lock.read():
            result = self.search.run(
                query, operator, k=k, metric=metric, budget=budget,
                request=request, shard_subset=shard_subset,
            )
            return result, self._epoch

    def cache_key(
        self, operator: str, metric: str, k: int, query: UncertainObject
    ) -> tuple:
        """Cache key for this query at the *current* epoch.

        Only for pre-flight lookups; when storing, use the epoch returned
        by :meth:`query` so a concurrent update cannot version-skew the
        entry forward.
        """
        from repro.serve.cache import ResultCache

        return ResultCache.key(self._epoch, operator, metric, k, query)

    def quarantine(
        self, obj: UncertainObject, on_invalid: str = "strict"
    ) -> UncertainObject:
        """Validate one object at the dataset's dimensionality.

        Inserts pass the manager's policy; queries keep ``strict``, since a
        repaired query would answer a question nobody asked.  Returns the
        kept (possibly repaired) object.

        Raises:
            InvalidInputError: the object was rejected or dropped.
        """
        kept, report = validate_objects(
            [obj], on_invalid=on_invalid, dim=self.search.dim,
            metrics=self.metrics,
        )
        if not kept:
            raise InvalidInputError(report)
        return kept[0]

    # ---------------------------- mutations ---------------------------- #

    def insert(
        self,
        points,
        probs=None,
        *,
        oid=None,
    ) -> tuple[Any, int]:
        """Validate and insert one object.

        Returns:
            ``(oid, epoch)`` after the insert.

        Raises:
            InvalidInputError: the object failed validation (or was dropped
                by the ``skip``/``repair`` policy — for a single insert a
                drop *is* a rejection).
            DuplicateOidError: the oid is already live.
        """
        try:
            obj = UncertainObject(points, probs, oid=oid, normalize=True)
        except ValueError as exc:
            _invalid(str(exc))
        obj = self.quarantine(obj, self.on_invalid)
        with self._lock.write():
            if oid is None:
                obj.oid = self._next_oid()
            elif oid in self._registry:
                raise DuplicateOidError(f"oid {oid!r} is already live")
            shard = self.search.insert(obj)
            self._registry[obj.oid] = (shard, obj)
            self._epoch += 1
            self._mutated("insert", oid=obj.oid, obj=obj, epoch=self._epoch)
            self._export_gauges()
            return obj.oid, self._epoch

    def delete(self, oid) -> tuple[bool, int]:
        """Tombstone the object with this oid; compact past the threshold.

        Returns:
            ``(True, epoch)`` after the delete.

        Raises:
            UnknownOidError: no live object has this oid.
        """
        with self._lock.write():
            entry = self._registry.pop(oid, None)
            if entry is None:
                raise UnknownOidError(oid)
            shard, obj = entry
            self.search.mask(shard, obj)
            if self.compact_threshold < 1.0:
                self._compact_locked(self.compact_threshold)
            self._epoch += 1
            self._mutated("delete", oid=oid, epoch=self._epoch)
            self._export_gauges()
            return True, self._epoch

    def _compact_locked(self, threshold: float) -> int:
        """Compact with the write lock held, flagged for health checks."""
        self._compacting = True
        try:
            removed = self.search.compact(threshold)
        finally:
            self._compacting = False
        if removed:
            log_event("serve.compacted", removed=removed, epoch=self._epoch)
        return removed

    def compact(self) -> int:
        """Force-compact all shards; returns tombstones removed."""
        with self._lock.write():
            removed = self._compact_locked(0.0)
            if removed:
                self._mutated("compact", epoch=self._epoch, removed=removed)
            return removed

    def _mutated(
        self, kind: str, *, oid=None, obj=None, epoch: int = 0,
        removed: int = 0,
    ) -> None:
        """Mutation hook, called inside the write lock *before* the ack.

        A no-op here; :class:`repro.serve.durable.DurableDatasetManager`
        overrides it to append a write-ahead-log frame (and, every
        ``snapshot_every`` mutations, checkpoint) so the epoch being
        acknowledged is on disk before any client can observe it.
        """

    def close(self) -> None:
        """Release worker pools held by the sharded search (idempotent)."""
        if getattr(self, "_closed", False):
            return
        self._closed = True
        self.search.close()


def _invalid(message: str) -> InvalidInputError:
    """InvalidInputError from a bare constructor failure (no report rows)."""
    from repro.objects.validate import ValidationIssue, ValidationReport

    report = ValidationReport(policy="strict")
    report.n_input = 1
    report.issues.append(
        ValidationIssue(0, None, "object", "malformed", message, "rejected")
    )
    raise InvalidInputError(report)
