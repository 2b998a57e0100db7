"""Request-scoped observability context for the serving layer.

A :class:`RequestContext` ties everything one served request produces —
spans, log lines, the audit record, shard work in pool worker processes —
back to a single ``request_id`` / ``trace_id`` pair.  It lives in a
:data:`contextvars.ContextVar`, so any code on the request's thread (or a
worker process the serving layer explicitly re-binds) can reach it without
parameter plumbing: the structured logger stamps ``request_id`` on every
event automatically, and the sharded search attaches per-shard span buffers
for reassembly into one merged Chrome trace.

Propagation model (DESIGN.md §14):

* **serial** backend — the cascade runs on the request thread; shard spans
  land directly in the request's root tracer.
* **pool** (shared-memory) backend — each shard task carries a
  :meth:`RequestContext.child` (fresh span id, parent = the request's span
  id) in the plain-dict :meth:`to_wire` form.  The persistent worker
  rebuilds it with :meth:`from_wire`, binds it around the shard search,
  records spans against the *parent's* trace clock (``trace_epoch`` is
  ``time.perf_counter`` based, and ``CLOCK_MONOTONIC`` is system-wide on
  the platforms we support), and returns span dicts in the result tuple
  for :meth:`add_shard_spans`.

Sampling is decided once per request at admission (:class:`Sampler`), so a
request is either traced end to end — handler, scatter, every shard — or
not at all; there are no half-traces.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = [
    "RequestContext",
    "Sampler",
    "bind",
    "context_for_thread",
    "current",
    "new_request_id",
    "new_span_id",
    "new_trace_id",
]


def new_request_id() -> str:
    """Fresh 16-hex-digit request id."""
    return os.urandom(8).hex()


def new_trace_id() -> str:
    """Fresh 32-hex-digit trace id (W3C-trace-context sized)."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """Fresh 16-hex-digit span id."""
    return os.urandom(8).hex()


@dataclass
class RequestContext:
    """Identity and tracing state of one served request.

    Attributes:
        request_id: caller-supplied (``X-Request-Id``) or generated id.
        trace_id: id shared by every span of the request, across shards
            and process boundaries.
        span_id: the id of *this* context's span (the request span at the
            root; a shard-search span in a child).
        parent_span_id: the parent span id (None at the root).
        sampled: whether this request records spans (decided once, at
            admission).
        deadline_ms: informational request deadline, carried for logs and
            the wire form.
        shard: the shard a child context is scoped to (None at the root).
        trace_epoch: ``time.perf_counter()`` base every tracer of this
            request measures against, so shard spans line up on one
            timeline even across worker processes.
        started: wall-clock request start (``time.time()``).
        tracer: the root span recorder (local only — never crosses the
            wire; children build their own against ``trace_epoch``).
        shard_spans: ``(shard, [SpanRecord, ...])`` buffers handed back by
            pool-backend shard workers (root context only).
    """

    request_id: str = field(default_factory=new_request_id)
    trace_id: str = field(default_factory=new_trace_id)
    span_id: str = field(default_factory=new_span_id)
    parent_span_id: str | None = None
    sampled: bool = False
    deadline_ms: float | None = None
    shard: int | None = None
    trace_epoch: float = field(default_factory=time.perf_counter)
    started: float = field(default_factory=time.time)
    tracer: Any = None
    shard_spans: list[tuple[int, list]] = field(default_factory=list)

    @classmethod
    def new(
        cls,
        *,
        request_id: str | None = None,
        sampled: bool = False,
        deadline_ms: float | None = None,
        trace_id: str | None = None,
        parent_span_id: str | None = None,
    ) -> "RequestContext":
        """Root context for a fresh request (ids generated when omitted).

        A server joining a trace started elsewhere (the router tier
        forwarding over HTTP) passes the inbound ``trace_id`` and
        ``parent_span_id`` so the fleet's spans merge into one tree.
        """
        kwargs = {}
        if trace_id:
            kwargs["trace_id"] = trace_id
        return cls(
            request_id=request_id if request_id else new_request_id(),
            sampled=sampled,
            deadline_ms=deadline_ms,
            parent_span_id=parent_span_id,
            **kwargs,
        )

    def child(self, shard: int) -> "RequestContext":
        """Shard-scoped child: same request/trace ids, fresh span id.

        The child's ``parent_span_id`` is this context's ``span_id`` — the
        parent/child edge that survives the pool's process boundary.
        """
        return RequestContext(
            request_id=self.request_id,
            trace_id=self.trace_id,
            span_id=new_span_id(),
            parent_span_id=self.span_id,
            sampled=self.sampled,
            deadline_ms=self.deadline_ms,
            shard=shard,
            trace_epoch=self.trace_epoch,
            started=self.started,
        )

    # ------------------------------ wire form --------------------------- #

    def to_wire(self) -> dict:
        """Plain-dict form for crossing a process boundary (pool tasks)."""
        return {
            "request_id": self.request_id,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
            "sampled": self.sampled,
            "deadline_ms": self.deadline_ms,
            "shard": self.shard,
            "trace_epoch": self.trace_epoch,
            "started": self.started,
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "RequestContext":
        """Rebuild a context shipped with :meth:`to_wire`."""
        return cls(
            request_id=wire["request_id"],
            trace_id=wire["trace_id"],
            span_id=wire["span_id"],
            parent_span_id=wire.get("parent_span_id"),
            sampled=bool(wire.get("sampled", False)),
            deadline_ms=wire.get("deadline_ms"),
            shard=wire.get("shard"),
            trace_epoch=wire.get("trace_epoch", time.perf_counter()),
            started=wire.get("started", time.time()),
        )

    # ------------------------------ helpers ----------------------------- #

    def add_shard_spans(self, shard: int, spans: list) -> None:
        """Attach one shard's completed span buffer (root context only).

        Accepts :class:`~repro.obs.tracer.SpanRecord` objects or their
        ``to_dict`` form (pool workers, whose spans cross a process
        boundary); dicts are normalised here.
        """
        if spans and isinstance(spans[0], dict):
            from repro.obs.tracer import SpanRecord

            spans = [SpanRecord.from_dict(s) for s in spans]
        self.shard_spans.append((shard, list(spans)))

    def remaining_ms(self) -> float | None:
        """Milliseconds left before ``deadline_ms``, or None (no deadline)."""
        if self.deadline_ms is None:
            return None
        return self.deadline_ms - (time.time() - self.started) * 1000.0

    def elapsed_ms(self) -> float:
        """Wall-clock milliseconds since the request started."""
        return (time.time() - self.started) * 1000.0


#: The request currently being served on this thread/task, or None.
_CURRENT: ContextVar[RequestContext | None] = ContextVar(
    "repro_request_context", default=None
)

#: Thread-id -> currently bound context.  A ContextVar is unreadable from
#: other threads, but the sampling profiler walks ``sys._current_frames()``
#: from its own daemon thread and needs to attribute each sampled stack to
#: the request running on that thread — this mirror, maintained by
#: :func:`bind`, is that cross-thread view.  Plain dict ops are atomic
#: under the GIL; a momentarily stale entry only mislabels one sample.
_THREAD_BINDINGS: dict[int, RequestContext] = {}


def current() -> RequestContext | None:
    """The bound :class:`RequestContext`, or None outside a request."""
    return _CURRENT.get()


def context_for_thread(thread_id: int) -> RequestContext | None:
    """The context bound on another thread (profiler attribution only).

    Best-effort by design: the answer can be a bind or an unbind behind
    the thread's true state, which for statistical profiling shifts at
    most one sample per transition.
    """
    return _THREAD_BINDINGS.get(thread_id)


@contextlib.contextmanager
def bind(ctx: RequestContext | None) -> Iterator[RequestContext | None]:
    """Bind ``ctx`` as the current request for the with-block.

    Token-based, so nested binds (a shard child inside the request) restore
    the outer context on exit.  The thread-id mirror used by the sampling
    profiler is maintained alongside (restored to the outer binding on
    exit, removed when there is none).
    """
    token = _CURRENT.set(ctx)
    tid = threading.get_ident()
    prev = _THREAD_BINDINGS.get(tid)
    if ctx is not None:
        _THREAD_BINDINGS[tid] = ctx
    else:
        _THREAD_BINDINGS.pop(tid, None)
    try:
        yield ctx
    finally:
        _CURRENT.reset(token)
        if prev is not None:
            _THREAD_BINDINGS[tid] = prev
        else:
            _THREAD_BINDINGS.pop(tid, None)


class Sampler:
    """Deterministic rate sampler (one decision per request).

    A leaky accumulator instead of a PRNG: at rate ``r`` exactly
    ``floor(n * r)`` of the first ``n`` requests are sampled, so tests and
    smoke runs are reproducible and a 1% rate really means every 100th
    request — no unlucky streaks.  Thread-safe.
    """

    def __init__(self, rate: float) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("sample rate must be within [0, 1]")
        self.rate = float(rate)
        self._acc = 0.0
        self._lock = threading.Lock()
        self.decisions = 0
        self.sampled = 0

    def decide(self) -> bool:
        """Whether the next request is sampled."""
        with self._lock:
            self.decisions += 1
            if self.rate <= 0.0:
                return False
            self._acc += self.rate
            if self._acc >= 1.0 - 1e-12:
                self._acc -= 1.0
                self.sampled += 1
                return True
            return False
