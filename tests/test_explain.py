"""Per-query explain: exact counter reconciliation, both tiers, wire.

The invariant worth a test name: for every explained query,

    sum(stage exclusive counters) + refine + untracked == counter bag

field for field, with ``untracked`` an explicit residual — on a single
node, and through the router's scatter-gather merge.  The file also pins
the context/sampling wire contracts the explain plane rides on
(satellite: RequestContext round-trips, forced sampling across the
router hop, exactly one merged Chrome trace per sampled request).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.datasets import synthetic
from repro.obs import stage_rows
from repro.obs.request import RequestContext, Sampler
from repro.obs.tracer import SpanRecord
from repro.serve.cache import ResultCache
from repro.serve.explain import merge_explains
from repro.serve.remote import LocalNode
from repro.serve.router import RouterApp
from repro.serve.server import ServeApp
from repro.serve.updates import DatasetManager

QUERY_POINTS = [[4700.0, 5300.0], [5200.0, 5800.0]]


def _reconcile(explain: dict) -> dict:
    """bag - stages - refine - untracked; all-zero means exact."""
    residual = dict(explain["counters"])
    for row in explain["stages"]:
        for key, value in row["counters"].items():
            residual[key] = residual.get(key, 0) - value
    for key, value in explain["refine"]["counters"].items():
        residual[key] = residual.get(key, 0) - value
    for key, value in explain["untracked"].items():
        residual[key] = residual.get(key, 0) - value
    return {k: v for k, v in residual.items() if v}


@pytest.fixture(scope="module")
def objects():
    rng = np.random.default_rng(37)
    centers = synthetic.anticorrelated_centers(60, 2, rng)
    return synthetic.make_objects(centers, 4, 120.0, rng)


class TestStageRows:
    def _span(self, name, depth, duration, counters=None):
        return SpanRecord(name, 0.0, duration, depth, None, {},
                          counters or {})

    def test_exclusive_subtracts_children(self):
        # Postorder: child completes before parent.
        buffer = [
            self._span("child", 1, 0.010, {"checks": 3}),
            self._span("parent", 0, 0.050, {"checks": 10}),
        ]
        rows = {r["stage"]: r for r in stage_rows([buffer])}
        assert rows["child"]["counters"] == {"checks": 3}
        assert rows["parent"]["counters"] == {"checks": 7}
        assert rows["parent"]["exclusive_ms"] == pytest.approx(40.0)
        assert rows["parent"]["total_ms"] == pytest.approx(50.0)

    def test_counterless_envelope_passes_children_upward(self):
        # shard-search records no counters of its own; its children's
        # inclusive deltas must flow up to the grandparent undiminished.
        buffer = [
            self._span("work", 2, 0.005, {"checks": 4}),
            self._span("shard-search", 1, 0.006),
            self._span("query", 0, 0.008, {"checks": 4}),
        ]
        rows = {r["stage"]: r for r in stage_rows([buffer])}
        assert rows["work"]["counters"] == {"checks": 4}
        # The envelope charged nothing; query's own share is zero.
        assert rows["shard-search"]["counters"] == {}
        assert rows["query"]["counters"] == {}

    def test_exclusive_time_floors_at_zero(self):
        buffer = [
            self._span("child", 1, 0.020),
            self._span("parent", 0, 0.010),  # clock skew: child > parent
        ]
        rows = {r["stage"]: r for r in stage_rows([buffer])}
        assert rows["parent"]["exclusive_ms"] == 0.0


class TestNodeExplain:
    def _app(self, objects, **kw):
        manager = DatasetManager(objects, shards=2, backend="serial")
        return ServeApp(manager, **kw)

    def test_explain_reconciles_exactly(self, objects):
        app = self._app(objects)
        try:
            payload = {"points": QUERY_POINTS, "operator": "SSD", "k": 2,
                       "explain": True}
            status, body = app.dispatch("POST", "/query", payload)
            assert status == 200
            explain = body["explain"]
            assert explain["stages"], "explain produced no stages"
            assert _reconcile(explain) == {}
            assert explain["counters"], "empty counter bag"
        finally:
            app.manager.close()

    def test_explain_forces_sampling(self, objects):
        app = self._app(objects)  # sample_rate=0: never sampled by rate
        try:
            payload = {"points": QUERY_POINTS, "operator": "PSD", "k": 1,
                       "explain": True}
            _, body = app.dispatch("POST", "/query", payload)
            assert body["explain"]["sampled"] is True
            # The rate sampler was never consulted for the decision.
            assert app.sampler.sampled == 0
        finally:
            app.manager.close()

    def test_explain_bypasses_the_cache(self, objects):
        app = self._app(objects, cache=ResultCache(16))
        try:
            plain = {"points": QUERY_POINTS, "operator": "SSD", "k": 2}
            app.dispatch("POST", "/query", plain)  # populate the cache
            _, cached = app.dispatch("POST", "/query", plain)
            assert cached["cached"] is True
            _, body = app.dispatch(
                "POST", "/query", dict(plain, explain=True)
            )
            assert body["cached"] is False
            assert _reconcile(body["explain"]) == {}
        finally:
            app.manager.close()

    def test_unexplained_query_has_no_explain_key(self, objects):
        app = self._app(objects)
        try:
            _, body = app.dispatch(
                "POST", "/query",
                {"points": QUERY_POINTS, "operator": "SSD", "k": 2},
            )
            assert "explain" not in body
        finally:
            app.manager.close()


def _fleet(objects, *, replication=1, router_kw=None, node_kw=None):
    apps, nodes = {}, {}
    for nid in ("n1", "n2", "n3"):
        manager = DatasetManager(
            objects, shards=3, partitioner="hash", backend="serial"
        )
        app = ServeApp(manager, node_id=nid, **(node_kw or {}))
        apps[nid] = app
        nodes[nid] = LocalNode(nid, app)
    router = RouterApp(
        nodes, shards=3, replication=replication, health_interval_s=0,
        hedge_ms=0, **(router_kw or {}),
    )
    return router, apps


class TestRouterExplain:
    def test_merged_explain_reconciles_exactly(self, objects):
        router, apps = _fleet(objects)
        try:
            payload = {"points": QUERY_POINTS, "operator": "SSD", "k": 2,
                       "explain": True}
            status, body = router.dispatch("POST", "/query", payload)
            assert status == 200
            explain = body["explain"]
            assert explain["backend"] == "router"
            assert explain["sampled"] is True
            assert explain["stages"]
            assert _reconcile(explain) == {}
            # Every node that served a shard shows up with its timings.
            assert explain["nodes"]
            for entry in explain["nodes"].values():
                assert entry["fetches"]
        finally:
            router.close()
            for app in apps.values():
                app.manager.close()

    def test_router_counters_are_the_sum_of_node_bags(self, objects):
        router, apps = _fleet(objects)
        try:
            payload = {"points": QUERY_POINTS, "operator": "PSD", "k": 2,
                       "explain": True}
            _, body = router.dispatch("POST", "/query", payload)
            explain = body["explain"]
            stage_sum: dict[str, int] = {}
            for row in explain["stages"]:
                for key, value in row["counters"].items():
                    stage_sum[key] = stage_sum.get(key, 0) + value
            for key, value in stage_sum.items():
                assert explain["counters"].get(key, 0) >= value
        finally:
            router.close()
            for app in apps.values():
                app.manager.close()

    def test_router_explain_bypasses_router_cache(self, objects):
        router, apps = _fleet(
            objects, router_kw={"cache": ResultCache(16)}
        )
        try:
            plain = {"points": QUERY_POINTS, "operator": "SSD", "k": 2}
            router.dispatch("POST", "/query", plain)
            _, cached = router.dispatch("POST", "/query", plain)
            assert cached["cached"] is True
            _, body = router.dispatch(
                "POST", "/query", dict(plain, explain=True)
            )
            assert body["cached"] is False and "explain" in body
        finally:
            router.close()
            for app in apps.values():
                app.manager.close()

    def test_merge_explains_degrades_without_node_sections(self):
        merged = merge_explains(
            [{"shard": 0, "node": "old-node", "hedged": False,
              "explain": None}],
            refine_checks=2, refine_counters={"checks": 5}, hedged=False,
        )
        assert merged["counters"] == {"checks": 5}
        assert merged["nodes"]["old-node"]["fetches"] == [
            {"shard": 0, "hedged": False}
        ]


class TestWireContracts:
    def test_request_context_round_trips(self):
        ctx = RequestContext.new(
            request_id="req-1", sampled=True, deadline_ms=250.0
        )
        child = ctx.child(3)
        wire = child.to_wire()
        rebuilt = RequestContext.from_wire(json.loads(json.dumps(wire)))
        assert rebuilt.request_id == ctx.request_id
        assert rebuilt.trace_id == ctx.trace_id
        assert rebuilt.span_id == child.span_id
        assert rebuilt.parent_span_id == ctx.span_id
        assert rebuilt.sampled is True
        assert rebuilt.shard == 3
        assert rebuilt.trace_epoch == ctx.trace_epoch

    def test_sampler_is_deterministic(self):
        sampler = Sampler(0.25)
        decisions = [sampler.decide() for _ in range(100)]
        assert sum(decisions) == 25
        assert decisions == [
            (i % 4 == 3) for i in range(100)
        ]

    def test_sampled_request_yields_one_merged_trace(self, objects, tmp_path):
        trace_dir = tmp_path / "traces"
        router, apps = _fleet(
            objects,
            router_kw={"sample_rate": 1.0, "trace_dir": trace_dir},
        )
        try:
            payload = {"points": QUERY_POINTS, "operator": "SSD", "k": 2,
                       "cache": False}
            status, _ = router.dispatch(
                "POST", "/query", payload,
                {"X-Request-Id": "wire-req-1"},
            )
            assert status == 200
            # Exactly one merged Chrome trace document for the request.
            files = sorted(trace_dir.glob("trace-*.json"))
            assert [f.name for f in files] == ["trace-wire-req-1.json"]
            doc = json.loads(files[0].read_text())
            events = doc["traceEvents"]
            assert events, "merged trace has no events"
            pids = {e.get("pid") for e in events}
            assert len(pids) >= 1
            # The nodes were forced by X-Sampled: their own rate
            # samplers never decided anything.
            for app in apps.values():
                assert app.sampler.decisions == 0
        finally:
            router.close()
            for app in apps.values():
                app.manager.close()
