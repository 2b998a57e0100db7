"""ServeApp routing/status codes and the asyncio HTTP server end to end."""

from __future__ import annotations

import http.client
import json
import math
import multiprocessing

import numpy as np
import pytest

from repro.datasets import synthetic
from repro.obs.metrics import MetricsRegistry
from repro.scenario import _ServerThread
from repro.serve.cache import ResultCache
from repro.serve.server import NNCServer, ServeApp
from repro.serve.updates import DatasetManager

# Mid-dataset query over overlapping objects: dominance checks actually
# run, so budget-degradation paths are reachable.
QUERY_POINTS = [[4700.0, 5300.0], [5200.0, 5800.0]]

#: fork boots pool workers in milliseconds (as in test_serve_pool).
START = "fork" if "fork" in multiprocessing.get_all_start_methods() else None


def _manager(registry=None, n: int = 40):
    rng = np.random.default_rng(13)
    centers = synthetic.anticorrelated_centers(n, 2, rng)
    objects = synthetic.make_objects(centers, 4, 2000.0, rng)
    return DatasetManager(objects, shards=2, metrics=registry)


@pytest.fixture()
def app():
    registry = MetricsRegistry()
    a = ServeApp(
        _manager(registry),
        cache=ResultCache(32, metrics=registry),
        registry=registry,
        max_inflight=2,
    )
    yield a
    a.manager.close()


class TestServeApp:
    def test_query_roundtrip(self, app):
        status, body = app.handle(
            "POST", "/query", {"points": QUERY_POINTS, "operator": "FSD"}
        )
        assert status == 200
        assert body["count"] >= 1 and not body["degraded"]
        assert body["epoch"] == 0 and body["cached"] is False

    def test_second_query_served_from_cache(self, app):
        payload = {"points": QUERY_POINTS, "operator": "PSD", "k": 2}
        first = app.handle("POST", "/query", payload)
        status, body = app.handle("POST", "/query", payload)
        assert status == 200 and body["cached"] is True
        assert body["candidates"] == first[1]["candidates"]

    def test_cache_opt_out_and_budget_bypass(self, app):
        payload = {"points": QUERY_POINTS, "operator": "FSD"}
        app.handle("POST", "/query", payload)
        _, body = app.handle("POST", "/query", {**payload, "cache": False})
        assert body["cached"] is False
        # A budgeted query never touches the cache, even on repeat.
        budgeted = {**payload, "budget": {"deadline_ms": 10_000}}
        app.handle("POST", "/query", budgeted)
        _, body = app.handle("POST", "/query", budgeted)
        assert body["cached"] is False

    def test_degraded_answer_not_cached(self, app):
        payload = {
            "points": QUERY_POINTS,
            "operator": "FSD",
            "budget": {"max_dominance_checks": 2},
        }
        status, body = app.handle("POST", "/query", payload)
        assert status == 200 and body["degraded"]
        assert body["degradation"] is not None
        assert app.cache.stats()["hits"] == 0

    def test_insert_then_delete_roundtrip(self, app):
        status, body = app.handle(
            "POST", "/insert", {"points": QUERY_POINTS, "oid": "it"}
        )
        assert status == 200 and body == {
            "oid": "it", "epoch": 1, "inserted": True,
        }
        status, body = app.handle("POST", "/delete", {"oid": "it"})
        assert status == 200 and body["deleted"] and body["epoch"] == 2

    @pytest.mark.parametrize("method,path,payload,status", [
        ("POST", "/query", {"operator": "FSD"}, 400),        # no points
        ("POST", "/query", {"points": [[1.0, 2.0]], "k": 0}, 400),
        ("GET", "/query", None, 404),                        # wrong method
        ("POST", "/nope", {}, 404),
        ("POST", "/delete", {"oid": "ghost"}, 404),
        ("POST", "/insert", {"points": [[float("nan"), 1.0]]}, 422),
        ("POST", "/query", {"points": [[math.nan, 1.0]]}, 422),
        ("POST", "/query", {"points": [[math.inf, 1.0]]}, 422),
        ("POST", "/query", {"points": [[1.0, 2.0, 3.0]]}, 422),  # wrong dim
        ("POST", "/query", {"points": QUERY_POINTS, "metric": "cosine"}, 400),
        ("POST", "/insert", {"points": [[1.0, 2.0, 3.0]]}, 422),  # wrong dim
        ("POST", "/insert", {"points": QUERY_POINTS, "oid": True}, 400),
        ("POST", "/delete", {"oid": True}, 400),  # not object 1
    ])
    def test_error_statuses(self, app, method, path, payload, status):
        got, body = app.handle(method, path, payload)
        assert got == status and "error" in body
        # Refused before any index saw it: the dataset is whole and serves.
        manager = app.manager
        assert manager.epoch == 0 and manager.size == 40
        assert len(manager.search.live_objects()) == manager.size
        assert app.handle("POST", "/query", {"points": QUERY_POINTS})[0] == 200

    def test_wrong_dimension_insert_leaves_a_durable_dataset_writable(
        self, tmp_path
    ):
        from repro.serve.durable import DurableDatasetManager

        rng = np.random.default_rng(13)
        objects = synthetic.make_objects(
            synthetic.anticorrelated_centers(30, 2, rng), 4, 2000.0, rng
        )
        manager = DurableDatasetManager(
            objects, data_dir=tmp_path, snapshot_every=1, shards=2
        )
        app = ServeApp(manager)
        status, body = app.dispatch("POST", "/insert", {"points": [[1, 2, 3]]})
        assert status == 422
        assert body["report"]["issues"][0]["code"] == "dim-mismatch"
        status, _ = app.dispatch("POST", "/insert", {"points": QUERY_POINTS})
        assert status == 200 and manager.epoch == 1
        manager.close()  # the drain checkpoint packs every shard

    def test_duplicate_insert_is_conflict(self, app):
        app.handle("POST", "/insert", {"points": QUERY_POINTS, "oid": "dup"})
        status, body = app.handle(
            "POST", "/insert", {"points": QUERY_POINTS, "oid": "dup"}
        )
        assert status == 409 and "dup" in body["error"]

    def test_invalid_insert_carries_validation_report(self, app):
        status, body = app.handle(
            "POST", "/insert", {"points": [[1.0, float("inf")]]}
        )
        assert status == 422
        assert body["report"]["n_dropped"] == 1

    def test_admission_counter(self, app):
        assert app.try_acquire() and app.try_acquire()
        assert not app.try_acquire()  # max_inflight=2
        app.release()
        assert app.try_acquire()
        app.release(), app.release()
        assert app.inflight == 0

    def test_healthz_and_metrics(self, app):
        app.handle("POST", "/query", {"points": QUERY_POINTS})
        status, health = app.handle("GET", "/healthz", None)
        assert status == 200 and health["status"] == "ok"
        assert health["objects"] == 40 and health["shards"] == 2
        status, body = app.dispatch("GET", "/metrics", None)
        assert status == 200 and "repro_serve_cache_misses_total" in body["text"]

    def test_dispatch_records_request_metrics(self, app):
        app.dispatch("POST", "/query", {"points": QUERY_POINTS})
        app.dispatch("POST", "/query", {"bad": True})
        assert app.registry.value(
            "repro_serve_requests_total", {"route": "/query", "status": "200"}
        ) == 1.0
        assert app.registry.value(
            "repro_serve_requests_total", {"route": "/query", "status": "400"}
        ) == 1.0

    def test_healthz_reports_compaction_truthfully(self, app):
        _, health = app.handle("GET", "/healthz", None)
        assert health["compacting"] is False and health["status"] == "ok"
        # Surface the mid-compaction window without racing a real compaction.
        app.manager._compacting = True
        try:
            _, health = app.handle("GET", "/healthz", None)
            assert health["status"] == "compacting"
            assert health["compacting"] is True
            assert health["epoch"] == app.manager.epoch
            assert health["inflight"] == 0
        finally:
            app.manager._compacting = False

    def test_status_endpoint_reports_slo_and_sampler(self, app):
        app.dispatch("POST", "/query", {"points": QUERY_POINTS})
        app.dispatch(
            "POST",
            "/query",
            {"points": QUERY_POINTS, "budget": {"max_dominance_checks": 2}},
        )
        status, body = app.dispatch("GET", "/status", None)
        assert status == 200
        assert body["status"] == "ok" and body["compacting"] is False
        assert body["sampler"]["rate"] == 0.0
        assert body["sampler"]["decisions"] == 2
        assert body["sampler"]["sampled"] == 0
        assert body["audit"] is None
        slo = body["slo"]
        assert {"p50", "p95", "p99"} <= set(slo["latency_seconds"]["FSD"])
        assert slo["degraded_ratio"] == 0.5  # one of two engine answers
        assert slo["error_ratio"] == 0.0
        assert slo["burn"].get("degraded") == 1

    def test_internal_error_returns_500_and_burns_error_slo(self, app):
        def boom(*args, **kwargs):
            raise RuntimeError("wired to fail")

        app.manager.query = boom
        status, body = app.dispatch("POST", "/query", {"points": QUERY_POINTS})
        assert status == 500 and body["error"] == "internal error"
        assert app.registry.value(
            "repro_serve_requests_total", {"route": "/query", "status": "500"}
        ) == 1.0
        assert app.registry.value(
            "repro_slo_burn_total", {"slo": "error"}
        ) == 1.0
        _, body = app.dispatch("GET", "/status", None)
        assert body["slo"]["error_ratio"] == 1.0

    def test_default_budget_applies_when_request_has_none(self):
        registry = MetricsRegistry()
        app = ServeApp(
            _manager(registry),
            registry=registry,
            default_budget={"max_dominance_checks": 2},
        )
        try:
            status, body = app.handle(
                "POST", "/query", {"points": QUERY_POINTS}
            )
            assert status == 200 and body["degraded"]
        finally:
            app.manager.close()


class TestRequestObservability:
    """Acceptance: sampled requests yield one merged trace + audit record."""

    def _traced_app(self, tmp_path, *, backend="pool", shards=4):
        registry = MetricsRegistry()
        rng = np.random.default_rng(13)
        centers = synthetic.anticorrelated_centers(40, 2, rng)
        objects = synthetic.make_objects(centers, 4, 2000.0, rng)
        manager = DatasetManager(
            objects, shards=shards, backend=backend, metrics=registry,
            workers=2, start_method=START,
        )
        from repro.serve.audit import AuditLog

        audit = AuditLog(tmp_path / "audit.jsonl", metrics=registry)
        return ServeApp(
            manager,
            cache=ResultCache(32, metrics=registry),
            registry=registry,
            sample_rate=1.0,
            audit=audit,
            trace_dir=tmp_path / "traces",
            slo_latency_ms=30_000.0,
        )

    def test_sampled_query_produces_merged_trace_and_audit(self, tmp_path):
        app = self._traced_app(tmp_path)
        try:
            status, body = app.dispatch(
                "POST",
                "/query",
                {"points": QUERY_POINTS, "operator": "FSD"},
                {"x-request-id": "acceptance-1"},
            )
        finally:
            app.manager.close()
            app.audit.close()
        assert status == 200
        assert body["request_id"] == "acceptance-1"
        assert body["sampled"] is True and len(body["trace_id"]) == 32

        # One merged Chrome trace: root span on the request row, one
        # shard-search span per shard, all carrying the request's trace id.
        trace_path = tmp_path / "traces" / "trace-acceptance-1.json"
        doc = json.loads(trace_path.read_text())
        assert doc == app.last_trace
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["tid"] for e in spans} == {0, 1, 2, 3, 4}
        roots = [e for e in spans if e["tid"] == 0 and e["name"] == "query"]
        assert len(roots) == 1
        shard_spans = [e for e in spans if e["name"] == "shard-search"]
        assert len(shard_spans) == 4
        assert {e["args"]["trace_id"] for e in spans} == {body["trace_id"]}
        assert {e["args"]["request_id"] for e in spans} == {"acceptance-1"}
        # Child spans carry their own span ids, parented on the root.
        root_span_id = roots[0]["args"]["span_id"]
        parents = {e["args"]["parent_span_id"] for e in shard_spans}
        assert parents == {root_span_id}

        # One audit record, digest over the served candidates.
        from repro.serve.audit import answer_digest, load_audit

        records = load_audit(tmp_path / "audit.jsonl")
        assert len(records) == 1
        assert records[0]["request_id"] == "acceptance-1"
        assert records[0]["digest"] == answer_digest(body["candidates"])

        # SLO families on /metrics (derived gauges computed at scrape time).
        _, metrics_body = app.handle("GET", "/metrics", None)
        text = metrics_body["text"]
        assert 'repro_slo_latency_seconds{operator="FSD",quantile="p95"}' in text
        assert "repro_slo_degraded_ratio 0" in text
        assert "repro_serve_sampled_total 1" in text

    @pytest.mark.parametrize("backend", ["serial", "pool"])
    def test_trace_rows_across_backends(self, tmp_path, backend):
        app = self._traced_app(tmp_path, backend=backend)
        try:
            status, body = app.dispatch(
                "POST", "/query", {"points": QUERY_POINTS, "operator": "PSD"}
            )
        finally:
            app.manager.close()
            app.audit.close()
        assert status == 200
        spans = [e for e in app.last_trace["traceEvents"] if e["ph"] == "X"]
        shard_rows = {e["tid"] for e in spans if e["name"] == "shard-search"}
        if backend == "serial":
            # The serial cascade traces on the request tracer itself.
            assert shard_rows == {0}
        else:
            assert shard_rows == {1, 2, 3, 4}
        assert len([e for e in spans if e["name"] == "shard-search"]) == 4
        assert {e["args"]["trace_id"] for e in spans} == {body["trace_id"]}

    def test_cache_hit_restamps_request_identity(self, tmp_path):
        app = self._traced_app(tmp_path)
        try:
            payload = {"points": QUERY_POINTS, "operator": "SSD", "k": 2}
            _, first = app.dispatch("POST", "/query", payload)
            _, second = app.dispatch("POST", "/query", payload)
        finally:
            app.manager.close()
            app.audit.close()
        assert second["cached"] is True
        assert second["candidates"] == first["candidates"]
        assert second["request_id"] != first["request_id"]
        assert second["trace_id"] != first["trace_id"]
        # The stamped identity never leaks into the shared cache entry.
        cached = app.cache.stats()
        assert cached["hits"] == 1

    def test_unsampled_requests_skip_tracing(self, tmp_path):
        registry = MetricsRegistry()
        app = ServeApp(_manager(registry), registry=registry, sample_rate=0.0)
        try:
            status, body = app.dispatch(
                "POST", "/query", {"points": QUERY_POINTS}
            )
        finally:
            app.manager.close()
        assert status == 200
        assert body["sampled"] is False and app.last_trace is None
        assert registry.get("repro_serve_sampled_total") is None


# ----------------------------------------------------------------------- #
# Full HTTP server on a background event loop
# ----------------------------------------------------------------------- #

def _http(port: int, method: str, path: str, payload=None, timeout=30.0,
          headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = json.dumps(payload) if payload is not None else None
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json",
                              **(headers or {})})
        resp = conn.getresponse()
        data = resp.read()
        if resp.getheader("Content-Type", "").startswith("application/json"):
            return resp.status, json.loads(data), resp
        return resp.status, data.decode(), resp
    finally:
        conn.close()


@pytest.fixture(scope="module")
def live_server():
    registry = MetricsRegistry()
    app = ServeApp(
        _manager(registry),
        cache=ResultCache(32, metrics=registry),
        registry=registry,
        max_inflight=4,
    )
    runner = _ServerThread(NNCServer(app, port=0))
    port = runner.start()
    yield app, port, runner
    if not app.draining:
        runner.drain()


class TestHTTPServer:
    def test_query_over_http(self, live_server):
        _, port, _ = live_server
        status, body, _ = _http(
            port, "POST", "/query",
            {"points": QUERY_POINTS, "operator": "SSD"},
        )
        assert status == 200 and body["count"] >= 1

    def test_insert_delete_over_http(self, live_server):
        _, port, _ = live_server
        status, body, _ = _http(
            port, "POST", "/insert", {"points": QUERY_POINTS, "oid": "http"}
        )
        assert status == 200 and body["inserted"]
        status, body, _ = _http(port, "POST", "/delete", {"oid": "http"})
        assert status == 200 and body["deleted"]

    def test_bad_json_is_400(self, live_server):
        _, port, _ = live_server
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
        try:
            conn.request("POST", "/query", body="{not json",
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            assert resp.status == 400
        finally:
            conn.close()

    def test_healthz_and_metrics_over_http(self, live_server):
        _, port, _ = live_server
        status, body, _ = _http(port, "GET", "/healthz")
        assert status == 200 and body["status"] == "ok"
        status, text, resp = _http(port, "GET", "/metrics")
        assert status == 200
        assert "repro_serve_requests_total" in text

    def test_request_id_header_honoured_over_http(self, live_server):
        _, port, _ = live_server
        status, body, _ = _http(
            port, "POST", "/query", {"points": QUERY_POINTS},
            headers={"X-Request-Id": "wire-42"},
        )
        assert status == 200 and body["request_id"] == "wire-42"

    def test_status_over_http(self, live_server):
        _, port, _ = live_server
        status, body, _ = _http(port, "GET", "/status")
        assert status == 200
        assert body["sampler"]["rate"] == 0.0
        assert "slo" in body and "burn" in body["slo"]

    def test_saturated_engine_returns_429(self, live_server):
        app, port, _ = live_server
        # Fill every admission slot from the test, then knock.
        grabbed = 0
        while app.try_acquire():
            grabbed += 1
        try:
            status, body, resp = _http(
                port, "POST", "/query", {"points": QUERY_POINTS}, timeout=10.0
            )
            assert status == 429
            assert resp.getheader("Retry-After") == "1"
        finally:
            for _ in range(grabbed):
                app.release()

    def test_drain_refuses_new_engine_traffic(self, live_server):
        # Runs last in the class: drains the module-scoped server.
        app, port, runner = live_server
        runner.drain()
        assert app.draining and app.inflight == 0
        try:
            status, _, _ = _http(
                port, "POST", "/query", {"points": QUERY_POINTS}, timeout=2.0
            )
            refused = status == 503
        except (ConnectionError, OSError):
            refused = True  # listener already closed — equally refused
        assert refused
