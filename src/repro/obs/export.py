"""Trace and metrics exporters.

* :func:`chrome_trace` — the Chrome Trace Event JSON format (complete
  ``"X"`` events, microsecond timestamps), loadable in ``chrome://tracing``
  or https://ui.perfetto.dev;
* :func:`spans_to_jsonl` — one JSON object per span, flat, grep-friendly;
* :func:`write_trace` / :func:`write_metrics` — suffix-dispatching file
  writers used by the ``repro search --trace/--metrics`` CLI flags.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import SpanRecord

__all__ = [
    "chrome_trace",
    "merged_chrome_trace",
    "spans_to_jsonl",
    "write_metrics",
    "write_trace",
]


def chrome_trace(
    spans: Iterable[SpanRecord],
    *,
    process_name: str = "repro",
    pid: int = 1,
    tid: int = 1,
) -> dict:
    """Spans as a Chrome Trace Event JSON document.

    Each span becomes a complete (``ph: "X"``) event; labels and counter
    deltas ride along in ``args`` and show up in the trace viewer's detail
    pane.  Nesting is reconstructed by the viewer from timestamps, which the
    tracer guarantees are properly nested per thread.
    """
    events = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": process_name},
        }
    ]
    for span in spans:
        events.append(_span_event(span, pid, tid, {}))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def merged_chrome_trace(
    root_spans: Iterable[SpanRecord],
    shard_spans: Iterable[tuple[int, Iterable[SpanRecord]]] = (),
    *,
    trace_id: str | None = None,
    request_id: str | None = None,
    process_name: str = "repro-serve",
    pid: int = 1,
) -> dict:
    """One request's spans — handler plus every shard — as one Chrome trace.

    The request's root spans render on thread 0 (named ``request``) and each
    shard's buffer on its own thread row (``shard-<j>``); every event
    carries the request's ``trace_id`` / ``request_id`` in ``args``, so the
    merged document is self-describing even after it leaves the server.
    All tracers of one request share a ``trace_epoch``, so the rows line up
    on a single timeline across worker processes.
    """
    correlate: dict = {}
    if trace_id is not None:
        correlate["trace_id"] = trace_id
    if request_id is not None:
        correlate["request_id"] = request_id
    events = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": process_name},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "request"},
        },
    ]
    for span in root_spans:
        events.append(_span_event(span, pid, 0, correlate))
    for shard, spans in shard_spans:
        tid = int(shard) + 1
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": f"shard-{shard}"},
            }
        )
        for span in spans:
            events.append(_span_event(span, pid, tid, correlate))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _span_event(span: SpanRecord, pid: int, tid: int, correlate: dict) -> dict:
    args: dict = dict(correlate)
    if span.labels:
        args.update({k: _jsonable(v) for k, v in span.labels.items()})
    if span.counter_deltas:
        args["counters"] = span.counter_deltas
    return {
        "name": span.name,
        "cat": span.parent or "root",
        "ph": "X",
        "ts": span.start * 1e6,
        "dur": span.duration * 1e6,
        "pid": pid,
        "tid": tid,
        "args": args,
    }


def spans_to_jsonl(spans: Iterable[SpanRecord]) -> str:
    """Spans as newline-delimited JSON (one event per line)."""
    lines = [json.dumps(_jsonable_dict(span.to_dict())) for span in spans]
    return "\n".join(lines) + ("\n" if lines else "")


def write_trace(path: str | Path, tracer, *, format: str | None = None) -> Path:
    """Write a tracer's retained spans to ``path``.

    Args:
        path: output file; ``.jsonl`` selects the flat event log, anything
            else the Chrome-trace document (override with ``format``).
        tracer: a :class:`repro.obs.tracer.Tracer` (or any span iterable
            provider with a ``spans()`` method).
        format: ``"chrome"`` or ``"jsonl"``; default inferred from suffix.
    """
    path = Path(path)
    fmt = format or ("jsonl" if path.suffix == ".jsonl" else "chrome")
    spans = tracer.spans() if hasattr(tracer, "spans") else list(tracer)
    if fmt == "jsonl":
        path.write_text(spans_to_jsonl(spans))
    elif fmt == "chrome":
        path.write_text(json.dumps(chrome_trace(spans), indent=1) + "\n")
    else:
        raise ValueError(f"unknown trace format {fmt!r}")
    return path


def write_metrics(path: str | Path, registry: MetricsRegistry) -> Path:
    """Write a metrics registry to ``path``.

    ``.json`` selects the JSON dump; anything else (conventionally
    ``.prom`` or ``.txt``) the Prometheus text exposition format.
    """
    path = Path(path)
    if path.suffix == ".json":
        path.write_text(json.dumps(registry.to_json(), indent=1) + "\n")
    else:
        path.write_text(registry.to_prometheus())
    return path


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _jsonable_dict(d: dict) -> dict:
    return {
        k: _jsonable_dict(v) if isinstance(v, dict) else _jsonable(v)
        for k, v in d.items()
    }
