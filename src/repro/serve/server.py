"""Asyncio JSON-over-HTTP front end for the sharded NNC service.

Stdlib only: a hand-rolled HTTP/1.1 loop over ``asyncio.start_server``
(``Connection: close`` per request — the protocol surface stays tiny and
auditable).  Engine work runs on a thread-pool executor so the event loop
never blocks on a search; NumPy kernels release the GIL for the heavy
part.

Admission control (ISSUE: per-request budget admission):

* ``max_inflight`` concurrent engine requests; beyond that → **429** with
  ``Retry-After`` (load shedding, the request was never started).
* draining (SIGTERM/SIGINT) → **503** for new engine requests while
  in-flight ones finish; ``/healthz`` and ``/metrics`` keep answering.
* a per-request :class:`repro.resilience.budget.Budget` (from the request
  body, else the server default) bounds each search; exhaustion returns a
  normal **200** with ``degraded: true`` — the PR-3 certified superset,
  the HTTP twin of the CLI's exit code 3.

Metric families (``repro_serve_*``) land in the shared registry exported
at ``/metrics``; see :mod:`repro.obs.metrics` for the catalogue.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any

from repro.objects.validate import InvalidInputError
from repro.obs.alerts import BurnRateMonitor
from repro.obs.export import merged_chrome_trace
from repro.obs.log import log_event
from repro.obs.metrics import MetricsRegistry, slo_snapshot, update_slo_gauges
from repro.obs.profile import SamplingProfiler, merge_folded
from repro.obs.request import RequestContext, Sampler, bind
from repro.obs.tracer import Tracer
from repro.resilience.budget import Budget
from repro.serve import protocol
from repro.serve.explain import build_explain
from repro.serve.audit import AuditLog
from repro.serve.cache import ResultCache
from repro.serve.shard import ShardBackendError
from repro.serve.updates import (
    DatasetManager,
    DuplicateOidError,
    UnknownOidError,
)

__all__ = ["ServeApp", "NNCServer"]

_MAX_BODY = 16 * 1024 * 1024
_MAX_HEADER = 64 * 1024


class ServeApp:
    """Transport-independent request handlers (shared by server and tests).

    Args:
        manager: the dataset.
        cache: result cache (None disables caching).
        registry: metrics registry; created when None so ``/metrics``
            always works.
        max_inflight: concurrent engine-request cap (admission control).
        default_budget: limits dict applied when a query carries none
            (e.g. ``{"deadline_ms": 2000}``); None = unbudgeted default.
        sample_rate: fraction of engine requests traced end to end
            (deterministic :class:`repro.obs.request.Sampler`); 0 disables
            tracing entirely.
        audit: optional :class:`repro.serve.audit.AuditLog`; every served
            query/insert/delete appends one replayable JSONL record.
        trace_dir: directory receiving one merged Chrome trace JSON per
            sampled request (``trace-<request_id>.json``); the most recent
            document is also kept on :attr:`last_trace`.
        slo_latency_ms: per-request latency objective; engine requests
            slower than this burn ``repro_slo_burn_total{slo="latency"}``.
        node_id: identity of this server in a multi-node fleet (surfaced
            in ``/healthz``/``/status`` so the router can verify it is
            talking to the member it placed shards on); None = standalone.
        profile_hz: sampling rate of the continuous profiler
            (:class:`repro.obs.profile.SamplingProfiler`); 0 disables it.
            The profile is served at ``/profile`` (JSON, folded text at
            ``/profile.txt``) and rendered by the flamegraph figure.
    """

    def __init__(
        self,
        manager: DatasetManager,
        *,
        cache: ResultCache | None = None,
        registry: MetricsRegistry | None = None,
        max_inflight: int = 8,
        default_budget: dict | None = None,
        sample_rate: float = 0.0,
        audit: AuditLog | None = None,
        trace_dir: str | Path | None = None,
        slo_latency_ms: float | None = None,
        node_id: str | None = None,
        profile_hz: float = 0.0,
    ) -> None:
        self.manager = manager
        self.node_id = node_id
        self.registry = registry if registry is not None else MetricsRegistry()
        self.cache = cache
        self.max_inflight = max_inflight
        self.default_budget = dict(default_budget) if default_budget else None
        self.sampler = Sampler(sample_rate)
        self.audit = audit
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self.slo_latency_ms = slo_latency_ms
        #: Merged Chrome-trace document of the most recent sampled request.
        self.last_trace: dict | None = None
        self.draining = False
        #: True while a deferred warm restart is still replaying the WAL;
        #: engine routes answer 503 ``retryable`` until it clears.
        self.recovering = False
        self._inflight = 0
        self._lock = threading.Lock()
        self.started_at = time.time()
        self.profile_hz = float(profile_hz)
        self.profiler = SamplingProfiler(
            self.profile_hz, registry=self.registry
        ).start()
        #: Multi-window burn-rate alerting over the same SLOs the burn
        #: counters track; evaluated lazily on ``/status`` reads.
        self.alerts = BurnRateMonitor(registry=self.registry)

    # --------------------------- admission ----------------------------- #

    @property
    def inflight(self) -> int:
        return self._inflight

    def try_acquire(self) -> bool:
        """Reserve an engine-request slot; False = saturated (429)."""
        with self._lock:
            if self._inflight >= self.max_inflight:
                return False
            self._inflight += 1
            self.registry.set_gauge("repro_serve_inflight", self._inflight)
            return True

    def release(self) -> None:
        """Return an engine-request slot taken by :meth:`try_acquire`."""
        with self._lock:
            self._inflight -= 1
            self.registry.set_gauge("repro_serve_inflight", self._inflight)

    def _observe(self, route: str, status: int, elapsed: float) -> None:
        self.registry.inc(
            "repro_serve_requests_total",
            1,
            {"route": route, "status": str(status)},
        )
        self.registry.observe(
            "repro_serve_request_seconds", elapsed, {"route": route}
        )

    # --------------------------- handlers ------------------------------ #

    def handle(
        self, method: str, path: str, payload: Any, request=None
    ) -> tuple[int, dict]:
        """Route one parsed request; returns ``(status, json_body)``."""
        try:
            if method == "GET" and path == "/healthz":
                return 200, self.healthz()
            if method == "GET" and path == "/status":
                return 200, self.status()
            if method == "GET" and path == "/metrics":
                # Caller special-cases the content type; body is text.
                update_slo_gauges(self.registry)
                return 200, {"text": self.registry.to_prometheus()}
            if method == "GET" and path == "/metrics.json":
                # The federation scraper's wire form: the registry's JSON
                # dump, so absorbing never parses Prometheus text.
                update_slo_gauges(self.registry)
                return 200, self.registry.to_json()
            if method == "GET" and path == "/profile":
                return 200, self.profile_body()
            if method == "GET" and path == "/profile.txt":
                # Caller special-cases the content type; body is text.
                return 200, {"text": self.profile_body().get("folded", "")}
            if method != "POST" or path not in ("/query", "/insert", "/delete"):
                return 404, protocol.error_body(f"no route {method} {path}")
            if self.recovering:
                return 503, protocol.recovering_body()
            if path == "/query":
                return self.handle_query(payload, request)
            if path == "/insert":
                return self.handle_insert(payload, request)
            return self.handle_delete(payload, request)
        except protocol.ProtocolError as exc:
            return 400, protocol.error_body(str(exc))
        except InvalidInputError as exc:
            return 422, protocol.error_body(
                "validation failed", report=exc.report.to_dict()
            )
        except DuplicateOidError as exc:
            return 409, protocol.error_body(str(exc))
        except UnknownOidError as exc:
            return 404, protocol.error_body(f"unknown oid {exc.args[0]!r}")
        except ShardBackendError as exc:
            # Transient: the pool backend lost a worker; it rebuilds on the
            # next query, so tell clients to retry rather than fail them.
            log_event(
                "serve.backend_error", level="error", route=path, error=str(exc)
            )
            return 503, protocol.backend_error_body(str(exc))

    def dispatch(
        self,
        method: str,
        path: str,
        payload: Any,
        headers: dict | None = None,
    ) -> tuple[int, dict]:
        """handle() under a bound request context, plus metrics and SLOs.

        The single entry point for servers: engine requests get a
        :class:`RequestContext` (honouring a caller's ``X-Request-Id``,
        and joining a caller's trace via ``X-Trace-Id`` /
        ``X-Parent-Span-Id`` / ``X-Sampled: 1`` — how the router stitches
        fleet-wide traces), the per-request sampling decision, structured
        request logs, the merged-trace export, and SLO burn accounting.
        """
        start = time.perf_counter()
        engine = method == "POST" and path in ("/query", "/insert", "/delete")
        request = None
        if engine:
            # The HTTP front-end lowercases header names; in-process
            # callers (LocalNode) may not, so normalise here too.
            hdrs = {k.lower(): v for k, v in (headers or {}).items()}
            request_id = hdrs.get("x-request-id") or None
            # An upstream sampling decision forces ours: the router only
            # marks requests it is itself tracing, and a fleet trace with
            # holes in it is worse than none.  An explain query likewise
            # forces sampling — the breakdown is assembled from spans, so
            # it needs the full trace (and propagates the decision to
            # every shard/node via X-Sampled).
            explain = (
                path == "/query"
                and isinstance(payload, dict)
                and payload.get("explain") is True
            )
            sampled = (
                explain
                or hdrs.get("x-sampled") == "1"
                or self.sampler.decide()
            )
            request = RequestContext.new(
                request_id=request_id,
                sampled=sampled,
                trace_id=hdrs.get("x-trace-id") or None,
                parent_span_id=hdrs.get("x-parent-span-id") or None,
            )
            if request.sampled:
                request.tracer = Tracer(
                    metrics=self.registry, epoch=request.trace_epoch
                )
                self.registry.inc("repro_serve_sampled_total")
        with bind(request):
            try:
                status, body = self.handle(method, path, payload, request)
            except Exception as exc:  # noqa: BLE001 — boundary: 500, not a crash
                log_event(
                    "serve.error", level="error", route=path, error=repr(exc)
                )
                status, body = 500, protocol.error_body("internal error")
            elapsed = time.perf_counter() - start
            self._observe(path, status, elapsed)
            if engine:
                self._slo_account(status, body, elapsed)
                if request.sampled:
                    self.export_trace(request)
                log_event(
                    "serve.request",
                    route=path,
                    status=status,
                    elapsed_ms=elapsed * 1000.0,
                    sampled=request.sampled,
                    cached=bool(body.get("cached")),
                    degraded=bool(body.get("degraded")),
                )
        return status, body

    def _slo_account(self, status: int, body: dict, elapsed: float) -> None:
        """Burn counters: one increment per request that misses an SLO."""
        error = status >= 500
        degraded = status == 200 and bool(body.get("degraded"))
        latency_bad = (
            self.slo_latency_ms is not None
            and elapsed * 1000.0 > self.slo_latency_ms
        )
        if error:
            self.registry.inc("repro_slo_burn_total", 1, {"slo": "error"})
        if degraded:
            self.registry.inc("repro_slo_burn_total", 1, {"slo": "degraded"})
        if latency_bad:
            self.registry.inc("repro_slo_burn_total", 1, {"slo": "latency"})
        self.alerts.record(
            latency_bad=latency_bad, error=error, degraded=degraded
        )

    def export_trace(self, request) -> dict:
        """Merge a sampled request's span buffers into one Chrome trace.

        Root (handler + serial-cascade) spans come from the request's own
        tracer; pool-worker shard buffers were attached by the scatter via
        :meth:`RequestContext.add_shard_spans`.  Written to ``trace_dir``
        (when set) and kept on :attr:`last_trace`.
        """
        spans = request.tracer.spans() if request.tracer is not None else []
        doc = merged_chrome_trace(
            spans,
            request.shard_spans,
            trace_id=request.trace_id,
            request_id=request.request_id,
        )
        self.last_trace = doc
        if self.trace_dir is not None:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
            path = self.trace_dir / f"trace-{request.request_id}.json"
            # Atomic publish: a crash mid-write must not leave a torn trace
            # for tooling that tails the directory.
            tmp = path.with_suffix(".json.tmp")
            tmp.write_text(json.dumps(doc, indent=1) + "\n")
            os.replace(tmp, path)
        return doc

    def handle_query(self, payload: Any, request=None) -> tuple[int, dict]:
        """POST /query: cache lookup, sharded search, epoch-keyed store."""
        req = protocol.parse_query_request(payload)
        shard_subset = req["shards"]
        if shard_subset is not None:
            total = self.manager.search.shards
            if shard_subset[-1] >= total:
                raise protocol.ProtocolError(
                    f"'shards' {shard_subset} out of range [0, {total})"
                )
        # Non-finite or wrong-dimension points answer 422 here, before the
        # cache key or any index sees them.
        self.manager.quarantine(req["query"])
        budget = req["budget"]
        if budget is None and self.default_budget:
            budget = Budget(**self.default_budget)
        # Budgeted answers depend on the request's budget, not just the
        # dataset — never cached, never served from cache.  Shard-scoped
        # and geometry-bearing answers (the router's node reads) are also
        # uncacheable: the cache key doesn't encode either.  Explain
        # answers bypass the cache both ways: the breakdown describes the
        # work of *this* execution, and a cached body has none.
        use_cache = (
            self.cache is not None and req["cache"] and budget is None
            and shard_subset is None and not req["include_objects"]
            and not req["explain"]
        )
        if use_cache:
            key = ResultCache.key(
                self.manager.epoch, req["operator"], req["metric"],
                req["k"], req["query"],
            )
            hit = self.cache.get(key)
            if hit is not None:
                body = dict(hit)
                body["cached"] = True
                if request is not None:
                    body["request_id"] = request.request_id
                    body["trace_id"] = request.trace_id
                    body["sampled"] = request.sampled
                self._audit_query(req, body, body["epoch"], request, True)
                return 200, body
        if request is not None and request.tracer is not None:
            # The request's root span (tid 0 on the merged timeline);
            # serial-backend shard spans nest under it, parallel backends
            # attach their buffers to the context instead.
            with request.tracer.span(
                "query",
                op=req["operator"],
                k=req["k"],
                request_id=request.request_id,
                span_id=request.span_id,
            ):
                result, epoch = self.manager.query(
                    req["query"], req["operator"], k=req["k"],
                    metric=req["metric"], budget=budget, request=request,
                    shard_subset=shard_subset,
                )
        else:
            result, epoch = self.manager.query(
                req["query"], req["operator"], k=req["k"],
                metric=req["metric"], budget=budget, request=request,
                shard_subset=shard_subset,
            )
        body = protocol.query_response(
            result, epoch, request=request,
            include_objects=req["include_objects"],
        )
        if req["explain"]:
            body["explain"] = build_explain(
                result, operator=req["operator"], k=req["k"], request=request
            )
        if result.degradation is not None:
            self.registry.inc(
                "repro_serve_degraded_total", 1, {"operator": req["operator"]}
            )
        if use_cache and result.degradation is None:
            # Keyed by the epoch the answer was computed under (atomic with
            # the search), so a concurrent update can't version-skew it.
            # Request-scoped ids are stripped; hits re-stamp their own.
            cacheable = {
                key: value
                for key, value in body.items()
                if key not in protocol.REQUEST_SCOPED_KEYS
            }
            self.cache.put(
                ResultCache.key(
                    epoch, req["operator"], req["metric"],
                    req["k"], req["query"],
                ),
                cacheable,
            )
        self._audit_query(req, body, epoch, request, False)
        return 200, body

    def _audit_query(
        self, req: dict, body: dict, epoch: int, request, cached: bool
    ) -> None:
        if self.audit is not None:
            self.audit.record_query(
                req,
                body,
                epoch,
                request_id=request.request_id if request is not None else None,
                cached=cached,
            )

    def handle_insert(self, payload: Any, request=None) -> tuple[int, dict]:
        """POST /insert: validate and index one object (422/409 on failure)."""
        obj = protocol.parse_insert_request(payload)
        oid, epoch = self.manager.insert(obj.points, obj.probs, oid=obj.oid)
        self.registry.inc("repro_serve_updates_total", 1, {"op": "insert"})
        if self.audit is not None:
            self.audit.record_insert(
                obj, oid, epoch,
                request_id=request.request_id if request is not None else None,
            )
        return 200, protocol.insert_response(oid, epoch)

    def handle_delete(self, payload: Any, request=None) -> tuple[int, dict]:
        """POST /delete: tombstone by oid (404 when not live)."""
        oid = protocol.parse_delete_request(payload)
        _, epoch = self.manager.delete(oid)
        self.registry.inc("repro_serve_updates_total", 1, {"op": "delete"})
        if self.audit is not None:
            self.audit.record_delete(
                oid, epoch,
                request_id=request.request_id if request is not None else None,
            )
        return 200, protocol.delete_response(oid, epoch)

    def profile_body(self, *, top: int | None = 50) -> dict:
        """GET /profile body: this process's profile plus pool workers'.

        With the pool backend the query path runs in persistent worker
        processes the in-process sampler cannot see; each worker runs its
        own profiler (started by ``pool_worker_init``) and this merges
        their cumulative folded stacks into the served aggregate.
        """
        body = self.profiler.snapshot(top=top)
        body["node_id"] = self.node_id
        search = (
            getattr(self.manager, "search", None)
            if self.manager is not None
            else None
        )
        collect = getattr(search, "worker_profiles", None)
        worker_profiles = (
            collect() if collect is not None and self.profile_hz > 0 else {}
        )
        if worker_profiles:
            merged = self.profiler.stacks()
            workers = {}
            for pid, prof in sorted(worker_profiles.items()):
                merge_folded(merged, prof.get("stacks") or {})
                workers[str(pid)] = {
                    "samples": prof.get("samples", 0),
                    "attributed": prof.get("attributed", 0),
                }
                body["samples"] += prof.get("samples", 0)
                body["attributed"] += prof.get("attributed", 0)
            items = sorted(merged.items(), key=lambda kv: (-kv[1], kv[0]))
            body["workers"] = workers
            body["distinct_stacks"] = len(items)
            body["stacks"] = [
                {"stack": stack, "count": count}
                for stack, count in (items if top is None else items[:top])
            ]
            body["folded"] = "\n".join(
                f"{stack} {count}" for stack, count in items
            )
        return body

    def healthz(self) -> dict:
        """GET /healthz body: liveness, epoch, sizes, drain/compaction truth.

        ``status`` is ``ok`` only when the service is neither draining nor
        mid-compaction; the epoch, shard count, and in-flight gauge let a
        drain monitor verify quiescence instead of trusting the label.
        """
        compacting = self.manager.compacting
        if self.draining:
            status = "draining"
        elif self.recovering:
            status = "recovering"
        elif compacting:
            status = "compacting"
        else:
            status = "ok"
        return {
            "status": status,
            "node_id": self.node_id,
            "epoch": self.manager.epoch,
            "objects": self.manager.size,
            "shards": self.manager.search.shards,
            "backend": self.manager.search.backend,
            "inflight": self._inflight,
            "compacting": compacting,
            "uptime_s": time.time() - self.started_at,
            "start_time": self.started_at,
            "uptime_seconds": time.time() - self.started_at,
            "cache": self.cache.stats() if self.cache is not None else None,
        }

    def status(self) -> dict:
        """GET /status body: health plus SLO accounting, JSON-native.

        Recomputes the derived SLO gauges from the live histograms at read
        time, so the quantiles are current without a scrape loop.  When the
        manager is durable (:class:`repro.serve.durable
        .DurableDatasetManager`) a ``durability`` section rides along, with
        ``wal_seq`` / ``last_snapshot_epoch`` / ``recovery`` also hoisted
        to the top level for one-glance clients.
        """
        body = {
            **self.healthz(),
            "sampler": {
                "rate": self.sampler.rate,
                "decisions": self.sampler.decisions,
                "sampled": self.sampler.sampled,
            },
            "audit": self.audit.stats() if self.audit is not None else None,
            "slo": slo_snapshot(self.registry, self.slo_latency_ms),
            "alerts": self.alerts.snapshot(),
        }
        durability = getattr(self.manager, "durability_status", None)
        if durability is not None:
            section = durability()
            body["durability"] = section
            body["wal_seq"] = section["wal_seq"]
            body["last_snapshot_epoch"] = section["last_snapshot_epoch"]
            body["recovery"] = section["recovery"]
        return body

    def close(self) -> None:
        """Release backend resources (subclasses may own more than a
        manager — the router closes node connections and its health
        thread instead)."""
        self.profiler.stop()
        self.manager.close()


class NNCServer:
    """Asyncio HTTP server wrapping a :class:`ServeApp`.

    Usage::

        server = NNCServer(app, host="127.0.0.1", port=8080)
        asyncio.run(server.run())          # serves until SIGTERM/SIGINT

    or, embedded (tests / the scenario runner)::

        await server.start()               # binds; server.port is real
        ...
        await server.drain()
    """

    def __init__(
        self,
        app: ServeApp,
        *,
        host: str = "127.0.0.1",
        port: int = 8080,
        drain_timeout: float = 30.0,
    ) -> None:
        self.app = app
        self.host = host
        self.port = port
        self.drain_timeout = drain_timeout
        self._server: asyncio.AbstractServer | None = None
        self._executor = ThreadPoolExecutor(
            max_workers=max(2, app.max_inflight),
            thread_name_prefix="repro-serve",
        )

    async def start(self) -> None:
        """Bind and start accepting; updates ``self.port`` when it was 0."""
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def run(self) -> None:
        """Serve until SIGTERM/SIGINT, then drain gracefully."""
        await self.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):
                pass
        await stop.wait()
        await self.drain()

    async def drain(self) -> None:
        """Stop accepting, let in-flight requests finish, release workers."""
        self.app.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + self.drain_timeout
        while self.app.inflight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        self._executor.shutdown(wait=True)
        self.app.close()

    # ----------------------------- plumbing ---------------------------- #

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                await self._respond(
                    writer, 400, protocol.error_body("malformed request")
                )
                return
            method, path, payload, headers = request
            await self._route(writer, method, path, payload, headers)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=30.0
            )
        except (asyncio.LimitOverrunError, asyncio.TimeoutError,
                asyncio.IncompleteReadError):
            return None
        if len(head) > _MAX_HEADER:
            return None
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            return None
        method, target, _version = parts
        path = target.split("?", 1)[0]
        headers = {}
        for line in lines[1:]:
            if ":" in line:
                name, value = line.split(":", 1)
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or 0)
        if length < 0 or length > _MAX_BODY:
            return None
        body = await reader.readexactly(length) if length else b""
        payload = None
        if body:
            try:
                payload = json.loads(body)
            except json.JSONDecodeError:
                return None
        return method.upper(), path, payload, headers

    async def _route(
        self, writer, method: str, path: str, payload, headers=None
    ) -> None:
        app = self.app
        engine_route = method == "POST" and path in (
            "/query", "/insert", "/delete"
        )
        if engine_route and app.draining:
            app._observe(path, 503, 0.0)
            await self._respond(
                writer, 503, protocol.error_body("draining"),
                headers=[("Retry-After", "1")],
            )
            return
        if engine_route:
            if not app.try_acquire():
                app._observe(path, 429, 0.0)
                await self._respond(
                    writer, 429, protocol.error_body("saturated"),
                    headers=[("Retry-After", "1")],
                )
                return
            loop = asyncio.get_running_loop()
            try:
                status, body = await loop.run_in_executor(
                    self._executor, app.dispatch, method, path, payload, headers
                )
            finally:
                app.release()
            await self._respond(writer, status, body)
            return
        status, body = app.dispatch(method, path, payload, headers)
        if path in ("/metrics", "/profile.txt") and status == 200:
            await self._respond_text(writer, 200, body["text"])
        else:
            await self._respond(writer, status, body)

    async def _respond(
        self, writer, status: int, body: dict, headers=None
    ) -> None:
        data = json.dumps(body).encode()
        await self._write(
            writer, status, data, "application/json", headers
        )

    async def _respond_text(self, writer, status: int, text: str) -> None:
        await self._write(
            writer, status, text.encode(), "text/plain; version=0.0.4"
        )

    async def _write(
        self, writer, status: int, data: bytes, ctype: str, headers=None
    ) -> None:
        reason = {
            200: "OK", 400: "Bad Request", 404: "Not Found",
            409: "Conflict", 422: "Unprocessable Entity",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable",
        }.get(status, "Error")
        head = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {ctype}",
            f"Content-Length: {len(data)}",
            "Connection: close",
        ]
        for name, value in headers or ():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + data)
        await writer.drain()
