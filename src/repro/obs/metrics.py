"""Named counters, gauges, and histograms with Prometheus/JSON export.

A :class:`MetricsRegistry` is a flat map from ``(name, labels)`` to a metric
instance.  Instruments are created on first use, so call sites never need
set-up code; the registry stays zero-dependency (Prometheus *text* format is
just strings).

Metric families emitted by the instrumented pipeline:

================================== =========== ==================================
name                               type        labels
================================== =========== ==================================
``repro_queries_total``            counter     ``operator``
``repro_query_seconds``            histogram   ``operator``
``repro_candidates``               histogram   ``operator``
``repro_span_seconds``             histogram   ``span`` (+ ``operator``)
``repro_counter_total``            counter     ``counter``, ``operator``
``repro_prune_hits_total``         counter     ``rule``, ``operator``
``repro_validate_hits_total``      counter     ``rule``, ``operator``
``repro_kernel_batch_elements``    histogram   ``kernel``
``repro_kernel_scalar_fallbacks_total`` counter ``kernel``
``repro_rtree_node_visits_total``  counter     ``tree``, ``mode``
``repro_maxflow_phases_total``     counter     (none)
``repro_maxflow_augmentations_total`` counter  (none)
``repro_degraded_queries_total``   counter     ``operator``, ``reason``
``repro_validation_issues_total``  counter     ``code``, ``action``
``repro_quarantined_objects_total`` counter    ``policy``
``repro_serve_requests_total``     counter     ``route``, ``status``
``repro_serve_request_seconds``    histogram   ``route``
``repro_serve_inflight``           gauge       (none)
``repro_serve_shard_fanout``       histogram   ``operator``
``repro_serve_cache_hits_total``   counter     (none)
``repro_serve_cache_misses_total`` counter     (none)
``repro_serve_cache_evictions_total`` counter  (none)
``repro_serve_cache_size``         gauge       (none)
``repro_serve_updates_total``      counter     ``op``
``repro_serve_epoch``              gauge       (none)
``repro_serve_objects``            gauge       (none)
``repro_serve_shard_seconds``      histogram   ``shard``, ``operator``
``repro_serve_degraded_total``     counter     ``operator``
``repro_serve_sampled_total``      counter     (none)
``repro_trace_spans_dropped_total`` counter    (none)
``repro_audit_records_total``      counter     ``kind``
``repro_wal_appends_total``        counter     (none)
``repro_wal_fsync_seconds``        histogram   (none)
``repro_recovery_seconds``         histogram   (none)
``repro_snapshot_bytes``           gauge       (none)
``repro_snapshots_total``          counter     (none)
``repro_slo_latency_seconds``      gauge       ``operator``, ``quantile``
``repro_slo_shard_latency_seconds`` gauge      ``shard``, ``operator``, ``quantile``
``repro_slo_degraded_ratio``       gauge       (none)
``repro_slo_error_ratio``          gauge       (none)
``repro_slo_burn_total``           counter     ``slo``
``repro_slo_latency_overflow_total`` counter   ``operator``
``repro_alerts_active``            gauge       ``alert``
``repro_profile_ticks_total``      counter     (none)
``repro_profile_samples_total``    counter     (none)
``repro_fleet_scrapes_total``      counter     ``node``
``repro_fleet_scrape_errors_total`` counter    ``node``
``repro_fleet_node_epoch``         gauge       ``node``
``repro_router_hedges_total``      counter     ``shard``
``repro_router_hedge_wins_total``  counter     (none)
``repro_router_failovers_total``   counter     (none)
``repro_router_stale_reads_total`` counter     (none)
``repro_router_partial_writes_total`` counter  ``op``
``repro_router_reconciled_writes_total`` counter ``op``
``repro_router_node_up``           gauge       ``node``
================================== =========== ==================================

The ``repro_serve_*`` families are fed by :mod:`repro.serve` (server
admission, result cache, sharded fan-out, dataset epoch/size); the
``repro_router_*`` families by the multi-node tier
(:mod:`repro.serve.router`: hedged requests and their wins, replica
failovers, stale reads detected via acked-epoch watermarks, partial and
reconciled write fan-outs, and per-node health as seen by the sweep); the
``repro_wal_*`` / ``repro_recovery_*`` / ``repro_snapshot*`` families by
the durable tier (:mod:`repro.serve.wal`, :mod:`repro.serve.durable`).  The
``repro_slo_*`` gauges are *derived* — :func:`update_slo_gauges` recomputes
them from the latency histograms and the request/degraded tallies at every
``/metrics`` and ``/status`` read, so scrapes always see current
percentiles without per-request quantile maintenance; the burn counter is
bumped per request whenever an SLO (latency target, error, degraded
answer) is breached.

``repro_counter_total`` mirrors :meth:`repro.core.counters.Counters.snapshot`
field for field (per query, per operator), so the Prometheus export always
reconciles with the in-process counter bag.

The ``repro_profile_*`` families are fed by the sampling profiler
(:mod:`repro.obs.profile`); the ``repro_fleet_*`` families and the
``node``-labelled copies of the serve families by the router's federation
scraper (:mod:`repro.obs.fleet`), which absorbs every node's JSON metrics
dump into the router registry; ``repro_alerts_active`` by the burn-rate
monitor (:mod:`repro.obs.alerts`).  ``repro_slo_latency_overflow_total``
is derived per scrape from each latency histogram's ``+Inf`` bucket, so a
clamped (dishonest) p99 is always accompanied by a visible overflow count.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
    "SIZE_BUCKETS",
    "query_metrics_from_counters",
    "slo_snapshot",
    "update_slo_gauges",
]

LATENCY_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)
"""Default histogram buckets for durations, in seconds."""

SIZE_BUCKETS: tuple[float, ...] = (
    1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144,
)
"""Default histogram buckets for counts/sizes (kernel batch elements)."""

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any] | None) -> _LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing counter."""

    __slots__ = ("value",)

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        """Add ``n`` (must be non-negative)."""
        if n < 0:
            raise ValueError("counters only go up; use a gauge")
        self.value += n


class Gauge:
    """Point-in-time value."""

    __slots__ = ("value",)

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self.value = float(value)

    def inc(self, n: float = 1.0) -> None:
        """Add ``n`` to the gauge."""
        self.value += n

    def dec(self, n: float = 1.0) -> None:
        """Subtract ``n`` from the gauge."""
        self.value -= n


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    Args:
        buckets: increasing upper bounds; a ``+Inf`` bucket is implicit.
    """

    __slots__ = ("buckets", "counts", "sum", "count")

    kind = "histogram"

    def __init__(self, buckets: Iterable[float] = LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("buckets must be a non-empty increasing sequence")
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # last = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation of ``value``."""
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def overflow(self) -> int:
        """Observations above the largest finite bound (the ``+Inf`` bucket).

        These observations cannot be located by :meth:`quantile` — any
        quantile whose rank falls here clamps to the top finite bound.
        Exported as ``repro_slo_latency_overflow_total`` so clamped tails
        are visible instead of silently optimistic.
        """
        return self.counts[-1]

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram (identical bounds required).

        The federation layer uses this to combine per-node histograms into
        fleet-wide quantiles: bucket counts are additive, so the merged
        estimate is exactly what a single histogram observing all nodes'
        samples would report.
        """
        if tuple(other.buckets) != self.buckets:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{other.buckets} != {self.buckets}"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.sum += other.sum
        self.count += other.count

    @classmethod
    def from_cumulative(
        cls,
        bounds: Iterable[float],
        cumulative: Iterable[int],
        *,
        sum: float = 0.0,
        count: int | None = None,
    ) -> "Histogram":
        """Rebuild a histogram from exported *cumulative* bucket counts.

        Inverts the :meth:`MetricsRegistry.to_json` wire form (cumulative
        counts over the finite bounds) by successive differences; the
        ``+Inf`` bucket is recovered from ``count`` minus the last finite
        cumulative value.
        """
        hist = cls(bounds)
        cum = [int(c) for c in cumulative]
        if len(cum) != len(hist.buckets):
            raise ValueError(
                f"expected {len(hist.buckets)} cumulative counts, got {len(cum)}"
            )
        prev = 0
        for i, c in enumerate(cum):
            if c < prev:
                raise ValueError("cumulative counts must be non-decreasing")
            hist.counts[i] = c - prev
            prev = c
        total = prev if count is None else int(count)
        if total < prev:
            raise ValueError("count is below the last cumulative bucket")
        hist.counts[-1] = total - prev
        hist.sum = float(sum)
        hist.count = total
        return hist

    def cumulative(self) -> list[int]:
        """Cumulative counts per bucket, ``+Inf`` last (== total count)."""
        out: list[int] = []
        running = 0
        for c in self.counts:
            running += c
            out.append(running)
        return out

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0..1) by linear bucket interpolation.

        Standard Prometheus ``histogram_quantile`` semantics: the target
        rank is located in its bucket and interpolated between the bucket's
        bounds (the first bucket interpolates from 0).  Observations in the
        ``+Inf`` bucket clamp to the largest finite bound — use
        :meth:`quantile_clamped` when the caller needs to know a clamp
        happened (the SLO snapshot flags these so fleet p99s are honest).
        """
        return self.quantile_clamped(q)[0]

    def quantile_clamped(self, q: float) -> tuple[float, bool]:
        """``(quantile estimate, clamped)`` — clamped when the target rank
        falls in the ``+Inf`` bucket and the estimate silently reports the
        largest finite bound instead of the (unknowable) true value."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if self.count == 0:
            return 0.0, False
        target = q * self.count
        cum = 0
        lo = 0.0
        for bound, c in zip(self.buckets, self.counts):
            if c and cum + c >= target:
                frac = (target - cum) / c
                return lo + (bound - lo) * min(1.0, max(0.0, frac)), False
            cum += c
            lo = bound
        return self.buckets[-1], True


class MetricsRegistry:
    """Get-or-create registry of labelled metrics.

    Registry *structure* (instrument creation, family iteration, export) is
    guarded by an RLock so the serving layer can share one registry across
    concurrent request threads.  Individual instrument updates stay
    lock-free: a lost increment under extreme contention is acceptable for
    telemetry, a corrupted registry dict is not.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, _LabelKey], Any] = {}
        self._kinds: dict[str, str] = {}
        self._help: dict[str, str] = {}
        self._lock = threading.RLock()

    # -------------------------- instruments --------------------------- #

    def counter(self, name: str, labels: dict | None = None,
                help: str | None = None) -> Counter:
        """Get or create the counter ``name{labels}``."""
        return self._get(name, labels, Counter, (), help)

    def gauge(self, name: str, labels: dict | None = None,
              help: str | None = None) -> Gauge:
        """Get or create the gauge ``name{labels}``."""
        return self._get(name, labels, Gauge, (), help)

    def histogram(self, name: str, labels: dict | None = None,
                  buckets: Iterable[float] | None = None,
                  help: str | None = None) -> Histogram:
        """Get or create the histogram ``name{labels}``."""
        return self._get(name, labels, Histogram,
                         (buckets if buckets is not None else LATENCY_BUCKETS,),
                         help)

    def _get(self, name, labels, cls, args, help):
        key = (name, _label_key(labels))
        with self._lock:
            known = self._kinds.setdefault(name, cls.kind)
            if known != cls.kind:
                raise ValueError(
                    f"metric {name!r} already registered as {known}, not {cls.kind}"
                )
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(*args)
                self._metrics[key] = metric
                if help:
                    self._help.setdefault(name, help)
            return metric

    # -------------------------- conveniences -------------------------- #

    def inc(self, name: str, n: float = 1.0, labels: dict | None = None) -> None:
        """Increment the counter ``name{labels}`` by ``n``."""
        self.counter(name, labels).inc(n)

    def set_gauge(self, name: str, value: float, labels: dict | None = None) -> None:
        """Set the gauge ``name{labels}``."""
        self.gauge(name, labels).set(value)

    def observe(self, name: str, value: float, labels: dict | None = None,
                buckets: Iterable[float] | None = None) -> None:
        """Observe ``value`` on the histogram ``name{labels}``."""
        self.histogram(name, labels, buckets=buckets).observe(value)

    # ---------------------------- reading ----------------------------- #

    def get(self, name: str, labels: dict | None = None):
        """The metric instance, or None when never touched."""
        return self._metrics.get((name, _label_key(labels)))

    def value(self, name: str, labels: dict | None = None) -> float:
        """Counter/gauge value (0.0 when never touched)."""
        metric = self.get(name, labels)
        return metric.value if metric is not None else 0.0

    def total(self, name: str) -> float:
        """Sum of a counter family's values across all label sets."""
        return sum(
            m.value for (n, _), m in self._metrics.items()
            if n == name and not isinstance(m, Histogram)
        )

    def families(self) -> dict[str, list[tuple[_LabelKey, Any]]]:
        """Metrics grouped by family name (stable label order)."""
        out: dict[str, list[tuple[_LabelKey, Any]]] = {}
        with self._lock:
            items = sorted(self._metrics.items(), key=lambda item: item[0])
        for (name, labels), metric in items:
            out.setdefault(name, []).append((labels, metric))
        return out

    # ---------------------------- export ------------------------------ #

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for name, entries in self.families().items():
            help_text = self._help.get(name)
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {self._kinds[name]}")
            for labels, metric in entries:
                if isinstance(metric, Histogram):
                    cum = metric.cumulative()
                    for bound, count in zip(metric.buckets, cum):
                        lines.append(
                            f"{name}_bucket{_fmt_labels(labels, ('le', _fmt_float(bound)))} {count}"
                        )
                    lines.append(
                        f"{name}_bucket{_fmt_labels(labels, ('le', '+Inf'))} {cum[-1]}"
                    )
                    lines.append(f"{name}_sum{_fmt_labels(labels)} {_fmt_float(metric.sum)}")
                    lines.append(f"{name}_count{_fmt_labels(labels)} {metric.count}")
                else:
                    lines.append(
                        f"{name}{_fmt_labels(labels)} {_fmt_float(metric.value)}"
                    )
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        """JSON-able dump: one entry per (family, label set)."""
        out: dict[str, list[dict]] = {}
        for name, entries in self.families().items():
            rows = []
            for labels, metric in entries:
                row: dict[str, Any] = {"labels": dict(labels)}
                if isinstance(metric, Histogram):
                    row["sum"] = metric.sum
                    row["count"] = metric.count
                    row["buckets"] = {
                        _fmt_float(b): c
                        for b, c in zip(metric.buckets, metric.cumulative())
                    }
                else:
                    row["value"] = metric.value
                rows.append(row)
            out[name] = rows
        return {
            "metrics": {
                name: {"type": self._kinds[name], "series": rows}
                for name, rows in out.items()
            }
        }


def _fmt_float(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _fmt_labels(labels: _LabelKey, extra: tuple[str, str] | None = None) -> str:
    items = list(labels)
    if extra is not None:
        items.append(extra)
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in items)
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


# --------------------------------------------------------------------- #
# SLO accounting
# --------------------------------------------------------------------- #

SLO_QUANTILES: tuple[tuple[str, float], ...] = (
    ("p50", 0.50), ("p95", 0.95), ("p99", 0.99),
)
"""Latency quantiles exported as ``repro_slo_*`` gauges."""


def update_slo_gauges(registry: MetricsRegistry) -> None:
    """Recompute the derived ``repro_slo_*`` gauges from raw families.

    * ``repro_slo_latency_seconds{operator,quantile}`` — per-operator
      p50/p95/p99 from the ``repro_query_seconds`` histograms;
    * ``repro_slo_shard_latency_seconds{shard,operator,quantile}`` — the
      same from the per-shard ``repro_serve_shard_seconds`` histograms;
    * ``repro_slo_degraded_ratio`` — degraded served queries over all
      served queries (``repro_serve_degraded_total`` /
      ``repro_serve_requests_total{route=/query,status=200}``);
    * ``repro_slo_error_ratio`` — 5xx serve responses over all serve
      responses;
    * ``repro_slo_latency_overflow_total{operator}`` — observations in a
      latency histogram's ``+Inf`` bucket (these clamp quantile estimates
      to the top finite bound, so they must be visible).

    Series carrying a ``node`` label (absorbed from fleet members by
    :mod:`repro.obs.fleet`) get per-node quantile gauges but are excluded
    from this process's aggregate ratios — a router's error ratio is about
    *its* responses; per-node ratios live in the ``/fleet`` view.

    Idempotent and cheap (a pass over the touched label sets), meant to run
    on every ``/metrics`` scrape and ``/status`` read.
    """
    families = registry.families()
    for labels, metric in families.get("repro_query_seconds", []):
        base = dict(labels)
        for qname, q in SLO_QUANTILES:
            registry.set_gauge(
                "repro_slo_latency_seconds",
                metric.quantile(q),
                {**base, "quantile": qname},
            )
        # Derived, not incremented: the histogram's +Inf bucket is already
        # monotonic, so the counter tracks it exactly across scrapes.
        registry.counter(
            "repro_slo_latency_overflow_total", base
        ).value = float(metric.overflow)
    for labels, metric in families.get("repro_serve_shard_seconds", []):
        base = dict(labels)
        for qname, q in SLO_QUANTILES:
            registry.set_gauge(
                "repro_slo_shard_latency_seconds",
                metric.quantile(q),
                {**base, "quantile": qname},
            )
    served = err = 0.0
    ok_queries = 0.0
    for labels, metric in families.get("repro_serve_requests_total", []):
        label_map = dict(labels)
        if "node" in label_map:
            continue
        served += metric.value
        if label_map.get("status", "").startswith("5"):
            err += metric.value
        if label_map.get("route") == "/query" and label_map.get("status") == "200":
            ok_queries += metric.value
    degraded = sum(
        metric.value
        for labels, metric in families.get("repro_serve_degraded_total", [])
        if "node" not in dict(labels)
    )
    registry.set_gauge(
        "repro_slo_degraded_ratio", (degraded / ok_queries) if ok_queries else 0.0
    )
    registry.set_gauge(
        "repro_slo_error_ratio", (err / served) if served else 0.0
    )


def slo_snapshot(
    registry: MetricsRegistry, slo_latency_ms: float | None = None
) -> dict:
    """Point-in-time SLO snapshot, shaped like the ``/status`` body's ``slo``.

    Refreshes the derived gauges (:func:`update_slo_gauges`) and returns::

        {"latency_ms_target": …, "latency_seconds": {op: {p50: …, …}},
         "degraded_ratio": …, "error_ratio": …, "burn": {slo: count},
         "overflow": {op: count}, "clamped": {op: [quantile, …]}}

    ``overflow`` counts latency observations above the top histogram bound
    per operator, and ``clamped`` names the quantiles whose rank fell into
    that ``+Inf`` bucket — those estimates are floors, not measurements,
    and fleet dashboards must say so instead of reporting a rosy p99.
    ``node``-labelled series (scraped from fleet members) are excluded;
    the per-node view is ``/fleet``'s job.

    The serving layer embeds this verbatim in ``/status``, and the figure
    registry's ``slo-quantiles`` view reads it from a saved ``/status``
    body, so dashboards and the server can never drift apart.
    """
    update_slo_gauges(registry)
    latency: dict[str, dict[str, float]] = {}
    overflow: dict[str, int] = {}
    clamped: dict[str, list[str]] = {}
    for labels, metric in registry.families().get("repro_query_seconds", ()):
        row = dict(labels)
        if "node" in row:
            continue
        op = row.get("operator", "")
        per_op = latency.setdefault(op, {})
        for qname, q in SLO_QUANTILES:
            value, was_clamped = metric.quantile_clamped(q)
            per_op[qname] = value
            if was_clamped:
                clamped.setdefault(op, []).append(qname)
        if metric.overflow:
            overflow[op] = metric.overflow
    burn = {
        dict(labels)["slo"]: counter.value
        for labels, counter in registry.families().get(
            "repro_slo_burn_total", ()
        )
    }
    return {
        "latency_ms_target": slo_latency_ms,
        "latency_seconds": latency,
        "degraded_ratio": registry.value("repro_slo_degraded_ratio"),
        "error_ratio": registry.value("repro_slo_error_ratio"),
        "burn": burn,
        "overflow": overflow,
        "clamped": clamped,
    }


# --------------------------------------------------------------------- #
# Counter-bag bridging
# --------------------------------------------------------------------- #

_PRUNE_PREFIX = "pruned_by_"
_VALIDATE_PREFIX = "validated_by_"


def query_metrics_from_counters(
    registry: MetricsRegistry,
    deltas: dict[str, int],
    *,
    operator: str,
    elapsed: float | None = None,
    candidates: int | None = None,
) -> None:
    """Feed one query's counter deltas into the registry.

    Every delta lands in ``repro_counter_total{counter=...,operator=...}``
    (so sums reconcile exactly with ``Counters.snapshot()``); ``pruned_by_*``
    and ``validated_by_*`` fields are additionally exposed as
    ``repro_prune_hits_total`` / ``repro_validate_hits_total`` keyed by rule.
    """
    op_labels = {"operator": operator}
    registry.inc("repro_queries_total", 1, op_labels)
    if elapsed is not None:
        registry.observe("repro_query_seconds", elapsed, op_labels)
    if candidates is not None:
        registry.observe("repro_candidates", candidates, op_labels,
                         buckets=SIZE_BUCKETS)
    for key, value in deltas.items():
        if not value:
            continue
        registry.inc(
            "repro_counter_total", value, {"counter": key, "operator": operator}
        )
        if key.startswith(_PRUNE_PREFIX):
            registry.inc(
                "repro_prune_hits_total", value,
                {"rule": key[len(_PRUNE_PREFIX):], "operator": operator},
            )
        elif key.startswith(_VALIDATE_PREFIX):
            registry.inc(
                "repro_validate_hits_total", value,
                {"rule": key[len(_VALIDATE_PREFIX):], "operator": operator},
            )
