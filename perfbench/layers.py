"""Per-layer tracing for the benchmark's traced run.

Nothing in the program changes: each layer is timed from outside by
replacing, for the duration of the traced pass, the names its callers look
up (a module attribute or a class attribute), and by reading what the
program already returns.  The engine's own stage spans are switched on
through its public tracer parameters and land in the same store.

Every span records a name, start, end, parent span and op id, in memory;
:meth:`Recorder.save` writes them out when the run ends.  A layer's *self
time* is its span minus its child spans, so per op the self times of all
spans plus the op's own residual (``untracked_ms``) sum exactly to the op's
wall time.  The set-up of the traced pass is recorded as op 0; its layer
times are reported under a ``setup.`` prefix.

Normalisation: ``_ms`` metrics are self time per op; ``core.*`` counts and
``serve.shard.*`` counts are per read; call counts (point-in-hull,
max-flow, registry updates, cache lookups, response bytes) are per op;
event counts (local R-tree builds, compactions, WAL appends / fsyncs /
bytes, snapshots, replayed frames) are run totals.  ``trace_overhead`` is
traced / untraced wall time of the same ops minus one.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

perf = time.perf_counter

#: Engine span names that belong to a layer other than ``core.stage``.
ENGINE_SPANS = {
    "search": "core.search",
    "shard-search": "serve.shard.scatter",
    "query": "serve.server.dispatch",
}

#: Engine spans left off: one per candidate pair and hull vertex set, they
#: would multiply the span count tenfold; their time stays in the
#: enclosing ``dominance-check``.
UNTRACED_SPANS = frozenset({"hull-extremes"})

#: Layer self-time metrics (ms per op), in report order.
LAYER_MS = (
    "core.context", "core.search",
    "core.stage.rtree-descent", "core.stage.entry-prune",
    "core.stage.dominance-check", "core.stage.cdf-scan",
    "core.stage.cdf-sweep", "core.stage.level-flow", "core.stage.maxflow",
    "geometry.hull", "geometry.point_in_hull",
    "flow.max_flow",
    "index.bulk_load", "index.local_rtree", "index.insert",
    "objects.validate",
    "serve.protocol.decode", "serve.protocol.encode",
    "serve.server.dispatch",
    "obs.metrics",
    "serve.cache.get", "serve.cache.put",
    "serve.shard.scatter", "serve.shard.refine",
    "serve.updates.insert", "serve.updates.delete", "serve.updates.compact",
    "serve.wal.append", "serve.wal.fsync",
    "serve.durable.snapshot", "serve.durable.recover",
)

#: Root span of one measured op / of the traced set-up.
OP, SETUP = "op", "setup"

#: Engine counter fields reported per read as ``core.<field>``.
CORE_COUNTS = (
    "dominance_checks", "instance_comparisons", "mbr_tests",
    "objects_visited", "kernel_invocations",
)
_RESOLVED = (
    "pruned_by_statistics", "pruned_by_cover", "pruned_by_level",
    "pruned_by_geometry", "validated_by_mbr", "validated_by_level",
)

#: Counts that must repeat exactly between two runs at one seed.
EXACT = (
    "dominance_checks", "instance_comparisons", "refine_checks",
    "cache_hits", "cache_lookups", "wal_appends", "wal_fsyncs", "wal_bytes",
    "snapshots", "compactions", "replayed_frames", "local_rtree_builds",
)


class Recorder:
    """In-memory span store plus free counters, both split by phase."""

    def __init__(self, capacity: int = 6_000_000) -> None:
        self.capacity = capacity
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.stack = [-1]
        self.op_id = 0
        self.dropped = 0
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its index."""
        idx = len(self.name)
        if idx >= self.capacity:
            self.dropped += 1
            return -1
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf())
        return idx

    def close(self, idx: int) -> None:
        """End the span ``open`` returned (spans close innermost first)."""
        t = perf()
        if idx >= 0:
            self.end[idx] = t
            self.stack.pop()

    def span(self, name: str) -> "_Span":
        """Context-manager form of :meth:`open` / :meth:`close`."""
        return _Span(self, name)

    def save(self, path: Path) -> None:
        """Write every span (name, start, end, parent, op id) to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez_compressed(
                fh,
                names=np.array(self.names),
                name=np.frombuffer(self.name, dtype=np.int32),
                start=np.frombuffer(self.start),
                end=np.frombuffer(self.end),
                parent=np.frombuffer(self.parent, dtype=np.int64),
                op=np.frombuffer(self.op, dtype=np.int64),
            )

    # ------------------------------------------------------------------ #

    def self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(name id, op id, self seconds, wall seconds)`` per span."""
        name = np.frombuffer(self.name, dtype=np.int32)
        start = np.frombuffer(self.start)
        end = np.frombuffer(self.end)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        op = np.frombuffer(self.op, dtype=np.int64)
        wall = end - start
        own = wall.copy()
        child = parent >= 0
        np.subtract.at(own, parent[child], wall[child])
        return name, op, own, wall

    def phase(self, ops: slice | int) -> dict:
        """Per span name: ``(count, self seconds)`` over the given op ids."""
        name, op, own, _ = self.self_times()
        if isinstance(ops, int):
            mask = op == ops
        else:
            mask = (op >= ops.start) & (op < ops.stop)
        counts = np.bincount(name[mask], minlength=len(self.names))
        secs = np.bincount(name[mask], weights=own[mask], minlength=len(self.names))
        return {n: (int(counts[i]), float(secs[i])) for i, n in enumerate(self.names)}

    def reconcile(self) -> float:
        """Largest |sum of self times - op wall| over all ops, in seconds."""
        name, op, own, wall = self.self_times()
        roots = np.isin(name, [self._ids[n] for n in (OP, SETUP) if n in self._ids])
        sums = np.bincount(op, weights=own)
        walls = np.bincount(op[roots], weights=wall[roots], minlength=len(sums))
        return float(np.abs(sums - walls).max()) if len(sums) else 0.0


class _Span:
    __slots__ = ("rec", "name", "idx", "labels")

    def __init__(self, rec: Recorder, name: str) -> None:
        self.rec = rec
        self.name = name
        self.idx = -1
        self.labels: dict = {}

    def __enter__(self) -> "_Span":
        self.idx = self.rec.open(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.rec.close(self.idx)


class _NoSpan:
    labels: dict = {}

    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NO_SPAN = _NoSpan()


class EngineTracer:
    """Stands in for :class:`repro.obs.tracer.Tracer` on the traced pass.

    The engine's stage spans (``search``, ``rtree-descent``,
    ``dominance-check``, ...) go straight into the recorder, under the
    benchmark's own spans; nothing is buffered on the program side.
    """

    enabled = True
    metrics = None

    def __init__(self, rec: Recorder, *args, **kwargs) -> None:
        self.rec = rec

    def span(self, name: str, *, counters=None, **labels):
        if name in UNTRACED_SPANS:
            return _NO_SPAN
        return _Span(self.rec, ENGINE_SPANS.get(name, "core.stage." + name))

    def spans(self) -> list:
        return []


# ---------------------------------------------------------------------- #
# Wrapping the names the program's callers look up
# ---------------------------------------------------------------------- #


def _timed(rec: Recorder, name: str, fn, count: str | None = None):
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)
            if count is not None:
                rec.counts[count] += 1

    wrapper.__wrapped__ = fn
    return wrapper


class _OsProxy:
    """The ``os`` module as seen by the WAL, with ``fsync`` timed."""

    def __init__(self, rec: Recorder) -> None:
        self.fsync = _timed(rec, "serve.wal.fsync", os.fsync, "wal_fsyncs")

    def __getattr__(self, attr):
        return getattr(os, attr)


class Patches:
    """Installs the layer wrappers; :meth:`undo` restores every name."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, old))
        setattr(owner, attr, value)

    def time(self, owner, attr: str, name: str, count: str | None = None) -> None:
        self.set(owner, attr, _timed(self.rec, name, getattr(owner, attr), count))

    def undo(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


def install(rec: Recorder) -> Patches:
    """Wrap every layer entry point the workloads reach."""
    import repro.core.context as context_mod
    import repro.core.nnc as nnc_mod
    import repro.core.psd as psd_mod
    import repro.serve.durable as durable_mod
    import repro.serve.protocol as protocol_mod
    import repro.serve.server as server_mod
    import repro.serve.shard as shard_mod
    import repro.serve.updates as updates_mod
    import repro.serve.wal as wal_mod
    from repro.core.nnc import NNCSearch
    from repro.index.rtree import RTree
    from repro.objects.uncertain import UncertainObject
    from repro.obs.metrics import MetricsRegistry
    from repro.serve.cache import ResultCache
    from repro.serve.durable import DurableDatasetManager
    from repro.serve.shard import ShardedSearch
    from repro.serve.updates import DatasetManager

    p = Patches(rec)
    counts = rec.counts

    # core / geometry / flow
    p.time(context_mod, "convex_hull", "geometry.hull")
    p.time(psd_mod, "point_in_hull", "geometry.point_in_hull")
    p.time(psd_mod, "max_flow", "flow.max_flow")
    p.time(NNCSearch, "run", "core.search")
    p.time(shard_mod, "QueryContext", "core.context")
    p.set(server_mod, "Tracer", lambda *a, **kw: EngineTracer(rec, *a, **kw))

    # index
    bulk_load = _timed(rec, "index.bulk_load", RTree.bulk_load)
    p.set(nnc_mod, "RTree", type("RTree", (), {"bulk_load": staticmethod(bulk_load)}))
    p.time(RTree, "insert", "index.insert")
    local_rtree = UncertainObject.local_rtree

    def lazy_local_rtree(obj, fanout: int = 4):
        if obj._local_tree is not None:
            return obj._local_tree
        idx = rec.open("index.local_rtree")
        try:
            return local_rtree(obj, fanout)
        finally:
            rec.close(idx)
            counts["local_rtree_builds"] += 1

    p.set(UncertainObject, "local_rtree", lazy_local_rtree)

    # objects / obs
    p.time(updates_mod, "validate_objects", "objects.validate")
    for method in ("inc", "observe", "set_gauge"):
        p.time(MetricsRegistry, method, "obs.metrics", "metric_updates")

    # serve.protocol (the server calls these through the module object)
    for fn in ("parse_query_request", "parse_insert_request", "parse_delete_request"):
        p.time(protocol_mod, fn, "serve.protocol.decode")
    for fn in ("query_response", "insert_response", "delete_response"):
        p.time(protocol_mod, fn, "serve.protocol.encode")

    # serve.cache
    cache_get = ResultCache.get

    def timed_get(cache, key):
        idx = rec.open("serve.cache.get")
        try:
            hit = cache_get(cache, key)
        finally:
            rec.close(idx)
        counts["cache_lookups"] += 1
        counts["cache_hits"] += hit is not None
        return hit

    p.set(ResultCache, "get", timed_get)
    p.time(ResultCache, "put", "serve.cache.put")

    # serve.shard: the scatter wrapper also reads the returned result
    sharded_run = ShardedSearch.run

    def timed_sharded_run(search, *args, **kwargs):
        idx = rec.open("serve.shard.scatter")
        try:
            result = sharded_run(search, *args, **kwargs)
        finally:
            rec.close(idx)
        note_result(counts, result.counters, len(result.candidates))
        counts["refine_checks"] += result.refine_checks
        counts["survivors"] += sum(row["survivors"] for row in result.per_shard)
        return result

    p.set(ShardedSearch, "run", timed_sharded_run)
    p.time(shard_mod, "refine_survivors", "serve.shard.refine")

    # serve.updates
    p.time(DatasetManager, "insert", "serve.updates.insert")
    p.time(DatasetManager, "delete", "serve.updates.delete")
    compact = ShardedSearch.compact

    def timed_compact(search, threshold: float = 0.0):
        idx = rec.open("serve.updates.compact")
        try:
            removed = compact(search, threshold)
        finally:
            rec.close(idx)
        counts["compactions"] += removed > 0
        return removed

    p.set(ShardedSearch, "compact", timed_compact)

    # serve.wal
    p.time(wal_mod.WriteAheadLog, "append", "serve.wal.append", "wal_appends")
    encode_frame = wal_mod.encode_frame

    def counted_encode_frame(record):
        data = encode_frame(record)
        counts["wal_bytes"] += len(data)
        return data

    p.set(wal_mod, "encode_frame", counted_encode_frame)
    p.set(wal_mod, "os", _OsProxy(rec))

    # serve.durable
    write_snapshot = durable_mod.write_snapshot

    def timed_write_snapshot(*args, **kwargs):
        idx = rec.open("serve.durable.snapshot")
        try:
            path = write_snapshot(*args, **kwargs)
        finally:
            rec.close(idx)
        counts["snapshots"] += 1
        counts["snapshot_bytes"] += path.stat().st_size
        return path

    p.set(durable_mod, "write_snapshot", timed_write_snapshot)
    recover = DurableDatasetManager.recover

    def timed_recover(manager):
        idx = rec.open("serve.durable.recover")
        try:
            report = recover(manager)
        finally:
            rec.close(idx)
        counts["replayed_frames"] += report.wal_frames_replayed
        return report

    p.set(DurableDatasetManager, "recover", timed_recover)
    return p


def note_result(counts: Counter, counters, candidates: int) -> None:
    """Add one read's engine counters and answer size to ``counts``."""
    for f in CORE_COUNTS:
        counts[f] += getattr(counters, f)
    counts["filter_resolved"] += sum(getattr(counters, f) for f in _RESOLVED)
    counts["candidates"] += candidates
    counts["searches"] += 1


# ---------------------------------------------------------------------- #
# Turning spans and counts into metrics
# ---------------------------------------------------------------------- #


def layer_metrics(
    rec: Recorder,
    setup_counts: Counter,
    run_counts: Counter,
    n_ops: int,
    n_reads: int,
    response_bytes: int,
) -> dict[str, float]:
    """Per-layer metrics of the traced pass (op 0 = set-up, ops 1..n)."""
    out: dict[str, float] = {}
    run = rec.phase(slice(1, n_ops + 1))
    setup = rec.phase(0)
    for prefix, spans, per in (("", run, n_ops), ("setup.", setup, 1)):
        for layer in LAYER_MS:
            out[f"{prefix}{layer}_ms"] = spans.get(layer, (0, 0.0))[1] * 1000.0 / per
        # The root's own time plus any span the benchmark has no layer for.
        other = sum(secs for name, (_, secs) in spans.items() if name not in LAYER_MS)
        out[f"{prefix}untracked_ms"] = other * 1000.0 / per

    c = run_counts
    reads = max(n_reads, 1)
    for f in CORE_COUNTS:
        out[f"core.{f}"] = c[f] / reads
    out["core.candidates"] = c["candidates"] / reads
    out["core.filter_resolved_share"] = (
        c["filter_resolved"] / c["dominance_checks"] if c["dominance_checks"] else 0.0
    )
    out["geometry.point_in_hull_calls"] = run.get("geometry.point_in_hull", (0, 0))[0] / n_ops
    out["flow.max_flow_calls"] = run.get("flow.max_flow", (0, 0))[0] / n_ops
    out["index.local_rtree_builds"] = c["local_rtree_builds"]
    out["serve.protocol.response_bytes"] = response_bytes / n_ops
    out["obs.metric_updates"] = c["metric_updates"] / n_ops
    out["serve.cache.lookups"] = c["cache_lookups"] / n_ops
    out["serve.cache.hit_ratio"] = (
        c["cache_hits"] / c["cache_lookups"] if c["cache_lookups"] else 0.0
    )
    out["serve.shard.refine_checks"] = c["refine_checks"] / reads
    out["serve.shard.survivors"] = c["survivors"] / reads
    out["serve.shard.kept_share"] = (
        c["candidates"] / c["survivors"] if c["survivors"] else 0.0
    )
    out["serve.updates.compactions"] = c["compactions"]
    out["serve.wal.appends"] = c["wal_appends"]
    out["serve.wal.bytes"] = c["wal_bytes"]
    out["serve.wal.fsyncs"] = c["wal_fsyncs"]
    out["serve.durable.snapshots"] = c["snapshots"]
    out["serve.durable.snapshot_bytes"] = c["snapshot_bytes"]
    out["serve.durable.replayed_frames"] = c["replayed_frames"]
    out["spans_dropped"] = rec.dropped
    out["setup.index.local_rtree_builds"] = setup_counts["local_rtree_builds"]
    out["setup.serve.durable.replayed_frames"] = setup_counts["replayed_frames"]
    return out


def exact_counts(rec: Recorder, setup_counts: Counter, run_counts: Counter) -> dict:
    """Counts that must repeat exactly: named totals plus spans per name."""
    out = {f"setup.{k}": setup_counts[k] for k in EXACT if setup_counts[k]}
    out.update({k: run_counts[k] for k in EXACT})
    name, _, _, _ = rec.self_times()
    per_name = np.bincount(name, minlength=len(rec.names))
    out["spans"] = {n: int(per_name[i]) for i, n in enumerate(rec.names)}
    return out
