"""Shared-memory shard snapshots for the persistent worker-pool backend.

The ``pool`` backend of :class:`repro.serve.shard.ShardedSearch` keeps one
long-lived, spawn-safe worker-process pool across queries **and** mutations.
Workers never inherit shard state by fork; instead each shard is *published*
into a :class:`multiprocessing.shared_memory.SharedMemory` segment that
workers attach read-only and wrap in zero-copy NumPy views.

Segment layout (one segment per ``(epoch, shard)``)::

    [u64 header_len][header JSON][pad to 64][array blob ...]

The header records, for each named array, ``(dtype, shape, offset)`` into
the blob, plus the object ids and the tree's fan-out.  The arrays are::

    points   (M, d) f8   all instance coordinates, object-major
    probs    (M,)   f8   matching instance probabilities
    offsets  (n+1,) i8   object i's instances are rows [offsets[i], offsets[i+1])
    obj_lo   (n, d) f8   per-object MBR corners
    obj_hi   (n, d) f8
    masked    (t,)  i8   object indices currently tombstoned
    tree.*               the global R-tree's own arrays, overflow leaf
                         included (:meth:`repro.index.rtree.RTree.arrays`);
                         its entry ids are object indices

Publishing follows an **append-then-swap** protocol: the parent writes the
new epoch's segments *first* (append), then flips the epoch stamped into
task tuples (swap), and only unlinks a segment once a newer epoch has
retired it.  The previous epoch is always retained, so a task that was
submitted just before a mutation still attaches its pre-swap segment and
answers against the pre-swap dataset.  Workers re-attach lazily when a task
names a segment they have not mapped, and drop older mappings then — they
are never restarted on mutation.

The per-shard :class:`~repro.core.nnc.NNCSearch` a worker attaches from a
segment wraps the parent's tree arrays as they are (same object order, same
tree topology, same tombstones), so answers are bit-identical to the serial
cascade — the exactness pin extends to this backend unchanged.
"""

from __future__ import annotations

import gc
import json
import os
import threading
from multiprocessing import resource_tracker, shared_memory
from typing import TYPE_CHECKING

import numpy as np

from repro.core.context import QueryContext
from repro.core.nnc import NNCSearch
from repro.geometry.mbr import MBR
from repro.index.rtree import RTree
from repro.objects.uncertain import UncertainObject
from repro.obs.request import RequestContext, bind
from repro.obs.tracer import Tracer
from repro.resilience.budget import Budget

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass

__all__ = [
    "SegmentStore",
    "attach_shard",
    "pack_shard",
    "segment_exists",
    "unpack_shard",
]

_ALIGN = 64
_MAGIC_PAD = b"\x00"

#: Process-wide sequence for unique segment name prefixes (several
#: ShardedSearch instances may coexist in one process, e.g. under pytest).
_PREFIX_SEQ = 0


def make_prefix() -> str:
    """A short, process-unique shared-memory name prefix."""
    global _PREFIX_SEQ
    _PREFIX_SEQ += 1
    return f"repro{os.getpid():x}x{_PREFIX_SEQ:x}"


# --------------------------------------------------------------------- #
# Packing (parent side)
# --------------------------------------------------------------------- #


def pack_shard(search: NNCSearch) -> bytes:
    """Serialize one shard's full search state into a segment blob.

    The snapshot covers **all** objects of the shard, including tombstoned
    ones (the ``masked`` array carries the tombstones), and the tree's own
    arrays, so the worker's search traverses exactly the structures the
    parent would.
    """
    objects = list(search.objects)
    index_of = {id(o): i for i, o in enumerate(objects)}
    d = objects[0].dim if objects else 0
    counts = [len(o) for o in objects]
    offsets = np.zeros(len(objects) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    if objects:
        points = np.concatenate([o.points for o in objects], axis=0)
        probs = np.concatenate([o.probs for o in objects])
        obj_lo = np.stack([o.mbr.lo for o in objects])
        obj_hi = np.stack([o.mbr.hi for o in objects])
    else:
        points = np.empty((0, d))
        probs = np.empty(0)
        obj_lo = np.empty((0, d))
        obj_hi = np.empty((0, d))
    masked = np.asarray(
        sorted(index_of[key] for key in search._masked), dtype=np.int64
    )
    arrays = {
        "points": np.ascontiguousarray(points, dtype=np.float64),
        "probs": np.ascontiguousarray(probs, dtype=np.float64),
        "offsets": offsets,
        "obj_lo": np.ascontiguousarray(obj_lo, dtype=np.float64),
        "obj_hi": np.ascontiguousarray(obj_hi, dtype=np.float64),
        "masked": masked,
    }
    for name, arr in search.tree.arrays().items():
        arrays[f"tree.{name}"] = np.ascontiguousarray(arr)
    layout: dict[str, list] = {}
    off = 0
    for name, arr in arrays.items():
        layout[name] = [arr.dtype.str, list(arr.shape), off]
        off += _aligned(arr.nbytes)
    header = {
        "arrays": layout,
        "dim": d,
        "n_objects": len(objects),
        "oids": [o.oid for o in objects],
        "max_entries": search.tree.max_entries,
    }
    header_bytes = json.dumps(header).encode()
    data_start = _aligned(8 + len(header_bytes))
    blob = bytearray(data_start + off)
    blob[:8] = len(header_bytes).to_bytes(8, "little")
    blob[8:8 + len(header_bytes)] = header_bytes
    for name, arr in arrays.items():
        start = data_start + layout[name][2]
        blob[start:start + arr.nbytes] = arr.tobytes()
    return bytes(blob)


def _aligned(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


# --------------------------------------------------------------------- #
# Segment ownership (parent side)
# --------------------------------------------------------------------- #


class SegmentStore:
    """Owner of the shared-memory segments a pool's workers attach.

    One store per :class:`~repro.serve.shard.ShardedSearch`; the store
    creates, retains, and unlinks segments.  ``publish`` implements the
    append half of the append-then-swap protocol; callers flip the epoch in
    their task tuples afterwards (the swap).  Per shard, the current and
    previous segments are retained so in-flight tasks stamped with the
    previous epoch still attach; anything older is unlinked.
    """

    def __init__(self, prefix: str | None = None) -> None:
        self.prefix = prefix or make_prefix()
        self._segments: dict[str, shared_memory.SharedMemory] = {}

    def publish(self, epoch: int, shard_idx: int, search: NNCSearch) -> str:
        """Write one shard's snapshot as a fresh segment; returns its name."""
        blob = pack_shard(search)
        name = f"{self.prefix}e{epoch}s{shard_idx}"
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=max(1, len(blob))
        )
        shm.buf[: len(blob)] = blob
        self._segments[name] = shm
        return name

    def retire(self, name: str) -> None:
        """Unlink one segment (no-op if already gone).

        Safe while a worker still maps it: the OS frees the pages only when
        the last attachment closes; only *new* attaches by name will fail.
        """
        shm = self._segments.pop(name, None)
        if shm is None:
            return
        try:
            shm.close()
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass

    def names(self) -> list[str]:
        """Names of all live (not yet retired) segments."""
        return sorted(self._segments)

    def close(self) -> None:
        """Unlink every remaining segment (drain/SIGTERM path)."""
        for name in list(self._segments):
            self.retire(name)


def segment_exists(name: str) -> bool:
    """Probe whether a segment is still linked (test/diagnostic helper)."""
    try:
        shm = _attach_untracked(name)
    except FileNotFoundError:
        return False
    shm.close()
    return True


# --------------------------------------------------------------------- #
# Attaching (worker side)
# --------------------------------------------------------------------- #

_ATTACH_LOCK = threading.Lock()


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach a segment *without* registering it with the resource tracker.

    Before Python 3.13 every ``SharedMemory`` registers with the tracker
    even when merely attaching; left alone, a worker exit would unlink
    segments the parent still owns.  Unregistering after the fact is wrong
    under the ``fork`` start method (parent and worker share one tracker,
    so the worker would erase the *owner's* registration); suppressing the
    registration during the attach call is safe under every start method.
    """
    with _ATTACH_LOCK:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def attach_shard(name: str) -> tuple[shared_memory.SharedMemory, NNCSearch]:
    """Attach a published segment and rebuild its shard search, zero-copy.

    Raises:
        FileNotFoundError: the segment was retired (the caller should treat
            this as a stale-epoch task and surface a backend error).
    """
    shm = _attach_untracked(name)
    return shm, unpack_shard(shm.buf)


def unpack_shard(buf) -> NNCSearch:
    """Attach a shard search over any :func:`pack_shard` blob, zero-copy.

    ``buf`` is any buffer holding a pack_shard blob — a shared-memory
    segment's ``.buf`` (the pool backend) or a memoryview into a
    memory-mapped snapshot file (:mod:`repro.serve.durable`).  Every
    instance matrix, probability vector, MBR corner, and R-tree array is a
    read-only NumPy view into that buffer; only the ``UncertainObject``
    shells are materialised, and the tree wraps its arrays as they are.
    The search is structurally identical to the packed one (same object
    order, tree topology, tombstones), so its answers are bit-identical —
    the exactness pin extends to every consumer of this layout.
    """
    header_len = int.from_bytes(bytes(buf[:8]), "little")
    header = json.loads(bytes(buf[8:8 + header_len]))
    data_start = _aligned(8 + header_len)
    arrays: dict[str, np.ndarray] = {}
    for arr_name, (dtype, shape, off) in header["arrays"].items():
        count = int(np.prod(shape)) if shape else 1
        if count:
            arr = np.frombuffer(
                buf, dtype=np.dtype(dtype), count=count, offset=data_start + off
            ).reshape(shape)
        else:  # an empty view would still pin the mapping open
            arr = np.empty(shape, dtype=np.dtype(dtype))
        arr.flags.writeable = False
        arrays[arr_name] = arr

    offsets = arrays["offsets"]
    points, probs = arrays["points"], arrays["probs"]
    obj_lo, obj_hi = arrays["obj_lo"], arrays["obj_hi"]
    objects: list[UncertainObject] = []
    for i, oid in enumerate(header["oids"]):
        lo, hi = offsets[i], offsets[i + 1]
        obj = UncertainObject.__new__(UncertainObject)
        obj.points = points[lo:hi]
        obj.probs = probs[lo:hi]
        obj.oid = oid
        obj._mbr = MBR(obj_lo[i], obj_hi[i])
        obj._local_tree = None
        objects.append(obj)

    tree = RTree.wrap(
        {
            name[len("tree."):]: arr
            for name, arr in arrays.items()
            if name.startswith("tree.")
        },
        objects,
        header["max_entries"],
    )
    search = NNCSearch([])
    search.objects = objects
    search.tree = tree
    search._masked = {
        id(objects[i]): objects[i] for i in arrays["masked"]
    }
    return search


# --------------------------------------------------------------------- #
# Pool worker entry points (importable, hence spawn-safe)
# --------------------------------------------------------------------- #

#: Worker-local attachment cache: shard index -> (segment name, shm, search).
#: At most one epoch per shard is kept mapped; a task naming a different
#: segment re-attaches and closes the stale mapping.
_ATTACHED: dict[int, tuple[str, shared_memory.SharedMemory, NNCSearch]] = {}


def _worker_search(shard_idx: int, name: str) -> NNCSearch:
    cached = _ATTACHED.get(shard_idx)
    if cached is not None and cached[0] == name:
        return cached[2]
    shm, search = attach_shard(name)
    _ATTACHED[shard_idx] = (name, shm, search)
    if cached is not None:
        _release(cached)
    return search


def _release(cached: tuple[str, shared_memory.SharedMemory, NNCSearch]) -> None:
    """Unmap a stale epoch's segment once its NumPy views are collectable.

    The search's arrays are zero-copy views into the mapping, so the mmap
    cannot close while any survive; dropping the cache entry makes them
    unreachable, and a collect sweeps any reference cycles.  If a view
    still escaped (e.g. a result held by the caller), closing would raise
    ``BufferError`` — then we simply leave the mapping to close with the
    view's finalizer instead of failing the query.
    """
    _, shm, search = cached
    del cached, search
    gc.collect()
    try:
        shm.close()
    except BufferError:  # pragma: no cover - escaped view; close deferred
        pass


def pool_run_one(task: tuple) -> tuple:
    """Execute one shard search inside a pool worker.

    The task tuple is ``(shard_idx, epoch, segment_name, query, operator,
    k, metric, budget_limits, request_wire)`` — a few hundred
    bytes regardless of dataset size; shard state arrives through shared
    memory only.  Results travel as plain data: candidate *indices* into
    the snapshot order, counts, elapsed, degradation report dict, counters
    snapshot, span dicts — plus the worker pid and the epoch answered, for
    lifecycle assertions and diagnostics.
    """
    (
        shard_idx, epoch, name, query, operator,
        k, metric, limits, wire,
    ) = task
    try:
        search = _worker_search(shard_idx, name)
    except FileNotFoundError:
        return ("error", os.getpid(), epoch, f"segment {name} retired")
    budget = Budget(**limits) if limits is not None else None
    spans: list[dict] | None = None
    if wire is not None:
        child = RequestContext.from_wire(wire)
        tracer = Tracer(epoch=child.trace_epoch)
        ctx = QueryContext(query, metric=metric, budget=budget, tracer=tracer)
        with bind(child):
            with tracer.span(
                "shard-search",
                shard=shard_idx,
                span_id=child.span_id,
                parent_span_id=child.parent_span_id,
            ):
                result = search.run(query, operator, k=k, ctx=ctx)
        spans = [s.to_dict() for s in tracer.spans()]
    else:
        ctx = QueryContext(query, metric=metric, budget=budget)
        result = search.run(query, operator, k=k, ctx=ctx)
    index_of = {id(o): i for i, o in enumerate(search.objects)}
    idxs = [index_of[id(c)] for c in result.candidates]
    report = (
        result.degradation.to_dict() if result.degradation is not None else None
    )
    return (
        "ok",
        os.getpid(),
        epoch,
        idxs,
        list(result.dominator_counts),
        result.elapsed,
        report,
        result.counters.snapshot(),
        spans,
    )


#: Worker-local continuous profiler, started by :func:`pool_worker_init`
#: when the parent serves with ``--profile-hz``.  Sampled stacks attribute
#: to requests through the same ``bind()`` thread mirror the parent uses
#: (the request context crosses in the task's wire form).
_WORKER_PROFILER = None


def pool_worker_init(profile_hz: float = 0.0) -> None:
    """Pool worker initializer: clean attachment cache, optional profiler."""
    global _WORKER_PROFILER
    _ATTACHED.clear()
    if profile_hz and profile_hz > 0:
        from repro.obs.profile import SamplingProfiler

        _WORKER_PROFILER = SamplingProfiler(profile_hz).start()


def pool_profile_snapshot() -> tuple[int, dict | None]:
    """Snapshot this worker's cumulative profile: ``(pid, profile|None)``.

    Submitted by :meth:`ShardedSearch.worker_profiles`; cumulative, so a
    worker answering the same request twice is harmless (the caller keys
    by pid and overwrites).  ``None`` when profiling is disabled.
    """
    if _WORKER_PROFILER is None:
        return os.getpid(), None
    return os.getpid(), {
        "stacks": _WORKER_PROFILER.stacks(),
        "samples": _WORKER_PROFILER.samples,
        "attributed": _WORKER_PROFILER.attributed,
        "hz": _WORKER_PROFILER.hz,
    }
