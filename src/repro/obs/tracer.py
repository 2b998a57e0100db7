"""Span tracing for the NNC search pipeline.

A :class:`Tracer` records nested *spans* — named wall-clock intervals with
labels and (optionally) the delta of the query's
:class:`repro.core.counters.Counters` across the interval.  Completed spans
land in a bounded ring buffer, oldest dropped first, so tracing a long run
has a fixed memory footprint.

The instrumentation sites in :mod:`repro.core.nnc`, the operators, and the
max-flow solver all guard on ``tracer.enabled`` and default to the shared
:data:`NULL_TRACER`, so a query without tracing pays one attribute check per
site and allocates nothing.

Span tree for one traced query::

    search                      (operator, k)
    ├── rtree-descent           (per popped node: members, leaf)
    ├── entry-prune             (per screened node: pruned)
    └── dominance-check         (per surviving object: oid, dominators)
        ├── cdf-scan            (S-SD exact sweep)
        ├── cdf-sweep           (SS-SD per-q sweep)
        ├── hull-extremes       (F-SD per-vertex comparison)
        ├── level-flow          (P-SD coarse G-/G+ networks)
        └── maxflow             (P-SD instance network)

:func:`stage_rows` turns span buffers into per-stage rows with
*exclusive* costs, and :func:`untracked_counters` is the residual that
reconciles those rows with the query's counter bag — the one Figure-16
aggregator behind ``repro search --breakdown`` and per-query explain.
"""

from __future__ import annotations

import time
from collections import deque
from contextvars import ContextVar
from typing import Any, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "SpanRecord",
    "Tracer",
    "stage_rows",
    "untracked_counters",
]


class SpanRecord:
    """One completed span.

    Attributes:
        name: span name (e.g. ``"dominance-check"``).
        start: seconds since the tracer's epoch at span entry.
        duration: wall-clock seconds spent inside the span.
        depth: nesting depth (0 for root spans).
        parent: name of the enclosing span, or None.
        labels: free-form labels passed at span creation.
        counter_deltas: per-field increments of the attached counter bag
            across the span (only non-zero entries; empty when no counters
            were attached).
    """

    __slots__ = ("name", "start", "duration", "depth", "parent", "labels",
                 "counter_deltas")

    def __init__(
        self,
        name: str,
        start: float,
        duration: float,
        depth: int,
        parent: str | None,
        labels: dict[str, Any],
        counter_deltas: dict[str, int],
    ) -> None:
        self.name = name
        self.start = start
        self.duration = duration
        self.depth = depth
        self.parent = parent
        self.labels = labels
        self.counter_deltas = counter_deltas

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict view (the JSONL event shape)."""
        out: dict[str, Any] = {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "depth": self.depth,
        }
        if self.parent is not None:
            out["parent"] = self.parent
        if self.labels:
            out["labels"] = self.labels
        if self.counter_deltas:
            out["counters"] = self.counter_deltas
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SpanRecord":
        """Rebuild a record from :meth:`to_dict` output.

        Used by the ``pool`` serve backend: shard workers return their span
        buffers as plain dicts, and the parent reassembles them into the
        request's merged trace.
        """
        return cls(
            data["name"],
            float(data["start"]),
            float(data["duration"]),
            int(data.get("depth", 0)),
            data.get("parent"),
            dict(data.get("labels") or {}),
            dict(data.get("counters") or {}),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpanRecord({self.name!r}, start={self.start:.6f}, "
            f"duration={self.duration:.6f}, depth={self.depth})"
        )


class _ActiveSpan:
    """Context manager for one in-flight span of a real :class:`Tracer`."""

    __slots__ = ("_tracer", "name", "labels", "_counters", "_t0", "_snap0",
                 "_parent", "_depth", "_token")

    def __init__(self, tracer: "Tracer", name: str, counters, labels) -> None:
        self._tracer = tracer
        self.name = name
        self.labels = labels
        self._counters = counters
        self._t0 = 0.0
        self._snap0: dict[str, int] | None = None
        self._token = None

    def __enter__(self) -> "_ActiveSpan":
        tracer = self._tracer
        stack = tracer._stack_var.get()
        self._depth = len(stack)
        self._parent = stack[-1] if stack else None
        self._token = tracer._stack_var.set(stack + (self.name,))
        if self._counters is not None:
            self._snap0 = self._counters.snapshot()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        t1 = time.perf_counter()
        tracer = self._tracer
        deltas: dict[str, int] = {}
        if self._snap0 is not None:
            snap1 = self._counters.snapshot()
            base = self._snap0
            deltas = {
                key: value - base.get(key, 0)
                for key, value in snap1.items()
                if value != base.get(key, 0)
            }
        record = SpanRecord(
            self.name,
            self._t0 - tracer.epoch,
            t1 - self._t0,
            self._depth,
            self._parent,
            self.labels,
            deltas,
        )
        # Token reset (not a pop) restores exactly the stack this span saw
        # at entry — abandoned generators and unbalanced exits included.
        tracer._stack_var.reset(self._token)
        tracer._finish(record)


class _NullSpan:
    """Shared no-op context manager returned by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Span recorder with a bounded ring buffer.

    The open-span stack lives in a :class:`contextvars.ContextVar`, so one
    tracer shared by concurrent requests (threads or asyncio tasks) keeps
    every request's parent/depth bookkeeping isolated — spans from request
    A can never adopt a parent from request B.  The completed-span buffer
    is still shared: interleaved *completion* order is fine, interleaved
    *ancestry* is not.

    Args:
        capacity: maximum retained completed spans; older spans are dropped
            (and counted in :attr:`dropped`) once the buffer is full.
        metrics: optional :class:`repro.obs.metrics.MetricsRegistry`; when
            set, every closed span feeds a ``repro_span_seconds`` latency
            histogram labelled by span name (and operator, when the span
            carries an ``op`` label), and ring-buffer drops feed
            ``repro_trace_spans_dropped_total``.
        epoch: perf-counter base for span ``start`` values; defaults to
            "now".  The serving layer passes one request-wide epoch to
            every shard tracer so merged traces share a single timeline.
    """

    enabled = True

    def __init__(
        self, capacity: int = 65536, metrics=None, *, epoch: float | None = None
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.metrics = metrics
        self.epoch = time.perf_counter() if epoch is None else epoch
        self.completed = 0
        self._buffer: deque[SpanRecord] = deque(maxlen=capacity)
        self._stack_var: ContextVar[tuple[str, ...]] = ContextVar(
            "repro_tracer_stack", default=()
        )

    def span(self, name: str, *, counters=None, **labels) -> _ActiveSpan:
        """Open a span; use as a context manager.

        Args:
            name: span name.
            counters: optional :class:`repro.core.counters.Counters` whose
                delta across the span is recorded.
            **labels: free-form labels stored on the span record.
        """
        return _ActiveSpan(self, name, counters, labels)

    def _finish(self, record: SpanRecord) -> None:
        self.completed += 1
        metrics = self.metrics
        dropping = len(self._buffer) >= self.capacity
        self._buffer.append(record)
        if metrics is not None:
            if dropping:
                metrics.inc("repro_trace_spans_dropped_total")
            labels = {"span": record.name}
            op = record.labels.get("op")
            if op is not None:
                labels["operator"] = str(op)
            metrics.observe("repro_span_seconds", record.duration, labels=labels)

    # ------------------------------------------------------------------ #

    @property
    def dropped(self) -> int:
        """Completed spans evicted from the ring buffer."""
        return self.completed - len(self._buffer)

    def spans(self) -> list[SpanRecord]:
        """Retained spans in completion order."""
        return list(self._buffer)

    def __iter__(self) -> Iterator[SpanRecord]:
        return iter(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)

    def clear(self) -> None:
        """Drop all retained spans (the drop/completed tallies reset too).

        The open-span stack is context-local and owned by in-flight spans'
        tokens, so it needs no clearing here.
        """
        self._buffer.clear()
        self.completed = 0


class NullTracer:
    """No-op tracer: every span is the shared, state-free null span.

    ``enabled`` is False so hot-path call sites can skip span bookkeeping
    entirely; calling :meth:`span` anyway is still safe and free.
    """

    enabled = False

    def span(self, name: str, *, counters=None, **labels) -> _NullSpan:
        """Return the shared no-op span (arguments ignored)."""
        return _NULL_SPAN

    def spans(self) -> list[SpanRecord]:
        """Always empty — a null tracer retains nothing."""
        return []

    def __iter__(self) -> Iterator[SpanRecord]:
        return iter(())

    def __len__(self) -> int:
        return 0

    @property
    def dropped(self) -> int:
        return 0


NULL_TRACER = NullTracer()
"""Shared no-op tracer — the default on every query context."""


# --------------------------------------------------------------------- #
# Stage attribution
# --------------------------------------------------------------------- #


def _add(into: dict[str, int], deltas: Mapping[str, int]) -> None:
    for key, value in deltas.items():
        if value:
            into[key] = into.get(key, 0) + value


def _nonzero(deltas: Mapping[str, int]) -> dict[str, int]:
    return {k: v for k, v in deltas.items() if v}


def _stage_row(name: str) -> dict:
    """An empty :func:`stage_rows` row (also the router's merge target)."""
    return {
        "stage": name,
        "count": 0,
        "total_ms": 0.0,
        "exclusive_ms": 0.0,
        "counters": {},
    }


def stage_rows(span_buffers: Iterable[Sequence[SpanRecord]]) -> list[dict]:
    """Aggregate span buffers into per-stage rows with exclusive costs.

    Each buffer must be in completion (postorder) order — the native
    order of :meth:`Tracer.spans` and of the shard buffers reassembled by
    ``RequestContext.add_shard_spans``.  A span's recorded counter deltas
    are inclusive of its children; the per-depth pending stack subtracts
    the children's share so every count lands in exactly one stage.
    Spans recorded without counters (``shard-search`` and the server's
    ``query`` envelope) charge nothing themselves and pass their
    children's inclusive totals upward.

    Returns one row per span name, sorted by exclusive time descending:
    ``{stage, count, total_ms, exclusive_ms, counters}``.
    """
    rows: dict[str, dict] = {}
    for buffer in span_buffers:
        # depth -> [accumulated child inclusive deltas, child seconds]
        pending: dict[int, tuple[dict[str, int], float]] = {}
        for span in buffer:
            depth = span.depth
            child_deltas, child_s = pending.pop(depth + 1, ({}, 0.0))
            own = dict(span.counter_deltas or {})
            if own:
                exclusive = {
                    k: v - child_deltas.get(k, 0) for k, v in own.items()
                }
                inclusive = own
            else:
                exclusive = {}
                inclusive = child_deltas
            acc_deltas, acc_s = pending.get(depth, ({}, 0.0))
            _add(acc_deltas, inclusive)
            pending[depth] = (acc_deltas, acc_s + span.duration)
            row = rows.setdefault(span.name, _stage_row(span.name))
            row["count"] += 1
            row["total_ms"] += span.duration * 1000.0
            row["exclusive_ms"] += max(0.0, span.duration - child_s) * 1000.0
            _add(row["counters"], exclusive)
    out = sorted(rows.values(), key=lambda r: -r["exclusive_ms"])
    for row in out:
        row["counters"] = _nonzero(row["counters"])
    return out


def untracked_counters(
    bag: Mapping[str, int],
    stages: Iterable[dict],
    *extra: Mapping[str, int],
) -> dict[str, int]:
    """The counter-bag residual no stage row (or ``extra`` delta) claims.

    With it the identity ``sum(stage counters) + sum(extra) + untracked
    == bag`` holds field for field.  The residual is reported, never
    hidden: a non-zero entry means an uninstrumented code path, which is
    itself a finding.
    """
    tracked: dict[str, int] = {}
    for row in stages:
        _add(tracked, row["counters"])
    for deltas in extra:
        _add(tracked, deltas)
    return _nonzero(
        {key: bag.get(key, 0) - tracked.get(key, 0) for key in bag}
    )
