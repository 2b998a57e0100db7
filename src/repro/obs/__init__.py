"""Observability: tracing, metrics, and profiling for the NNC pipeline.

The paper's whole experimental study (Section 6, Appendix C / Figure 16) is
about *where time and comparisons go* — per-operator response time, filter
effectiveness, node accesses.  This package makes those quantities visible
inside a single query instead of only as end-of-run aggregates:

* :mod:`repro.obs.tracer` — nested spans (``search -> rtree-descent ->
  entry-prune -> dominance-check -> maxflow``) carrying wall time, counter
  deltas, and operator/object labels, recorded into a bounded ring buffer,
  and :func:`~repro.obs.tracer.stage_rows`, which turns span buffers into
  the Figure-16 per-stage breakdown with exclusive costs;
* :mod:`repro.obs.metrics` — a registry of named counters / gauges /
  histograms (per-operator latency, kernel batch sizes, prune-rule hits);
* :mod:`repro.obs.export` — Chrome-trace JSON (``chrome://tracing`` /
  ``ui.perfetto.dev`` compatible), flat JSONL event logs, Prometheus text
  and JSON metric dumps, and the per-request merged trace that reassembles
  shard span buffers onto one timeline;
* :mod:`repro.obs.request` — the contextvar-based
  :class:`~repro.obs.request.RequestContext` (request id, trace id,
  parent/child span ids, sampling decision) the serving layer propagates
  from the HTTP handler through scatter-gather into every shard, across
  the pool backend's process boundary;
* :mod:`repro.obs.log` — structured JSON logging with automatic
  request-id correlation on every event;
* :mod:`repro.obs.profile` — a zero-dependency continuous sampling
  profiler (daemon thread over ``sys._current_frames()``) with
  request-attributed collapsed stacks and a self-contained flamegraph
  renderer;
* :mod:`repro.obs.alerts` — multi-window SLO burn-rate alerting
  (fast/slow windows over latency, error, and degraded ratios);
* :mod:`repro.obs.fleet` — router-side metrics federation: every node's
  registry scraped and absorbed under a ``node`` label, with merged
  cross-node histogram quantiles.

Everything is zero-dependency and opt-in: :class:`~repro.obs.tracer.NullTracer`
(the default on every :class:`repro.core.context.QueryContext`) turns every
instrumentation site into a single attribute check, so the hot path pays
nothing when observability is off.
"""

from repro.obs.export import (
    chrome_trace,
    merged_chrome_trace,
    spans_to_jsonl,
    write_metrics,
    write_trace,
)
from repro.obs.log import (
    NULL_LOGGER,
    JsonLogger,
    NullLogger,
    get_logger,
    log_event,
    set_logger,
)
from repro.obs.alerts import BurnRateMonitor
from repro.obs.fleet import FleetScraper, absorb_node_metrics
from repro.obs.metrics import (
    MetricsRegistry,
    query_metrics_from_counters,
    update_slo_gauges,
)
from repro.obs.profile import SamplingProfiler, flamegraph_svg
from repro.obs.request import (
    RequestContext,
    Sampler,
    bind,
    context_for_thread,
    current,
)
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    SpanRecord,
    Tracer,
    stage_rows,
    untracked_counters,
)

__all__ = [
    "BurnRateMonitor",
    "FleetScraper",
    "JsonLogger",
    "MetricsRegistry",
    "NULL_LOGGER",
    "NULL_TRACER",
    "NullLogger",
    "NullTracer",
    "RequestContext",
    "Sampler",
    "SamplingProfiler",
    "SpanRecord",
    "Tracer",
    "absorb_node_metrics",
    "bind",
    "chrome_trace",
    "context_for_thread",
    "current",
    "flamegraph_svg",
    "get_logger",
    "log_event",
    "merged_chrome_trace",
    "query_metrics_from_counters",
    "set_logger",
    "spans_to_jsonl",
    "stage_rows",
    "untracked_counters",
    "update_slo_gauges",
    "write_metrics",
    "write_trace",
]
