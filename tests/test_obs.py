"""Tests for the observability layer (``repro.obs``).

Covers the tracer (nesting, ring buffer, counter deltas, null object), the
metrics registry (instruments, exports, counter-bag bridging), the trace and
metrics exporters, the search-pipeline instrumentation (span tree shape,
Prometheus reconciliation with ``Counters.snapshot()``), and the CLI
``--trace/--metrics/--breakdown`` surface.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.context import QueryContext
from repro.core.counters import Counters
from repro.core.nnc import NNCSearch
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    NullTracer,
    Tracer,
    chrome_trace,
    query_metrics_from_counters,
    spans_to_jsonl,
    write_metrics,
    write_trace,
)
from tests.conftest import random_scene


class TestTracer:
    def test_nesting_depth_and_parent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                with tracer.span("leaf"):
                    pass
            with tracer.span("sibling"):
                pass
        spans = {s.name: s for s in tracer.spans()}
        assert spans["outer"].depth == 0 and spans["outer"].parent is None
        assert spans["inner"].depth == 1 and spans["inner"].parent == "outer"
        assert spans["leaf"].depth == 2 and spans["leaf"].parent == "inner"
        assert spans["sibling"].depth == 1 and spans["sibling"].parent == "outer"
        # Completion order: children close before their parents.
        names = [s.name for s in tracer.spans()]
        assert names == ["leaf", "inner", "sibling", "outer"]

    def test_durations_and_start_monotonic(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        a, b = tracer.spans()
        assert a.duration >= 0.0 and b.duration >= 0.0
        assert b.start >= a.start

    def test_labels_recorded(self):
        tracer = Tracer()
        with tracer.span("check", oid=7, op="PSD"):
            pass
        (span,) = tracer.spans()
        assert span.labels == {"oid": 7, "op": "PSD"}

    def test_counter_deltas(self):
        tracer = Tracer()
        counters = Counters()
        counters.dominance_checks = 5
        with tracer.span("check", counters=counters):
            counters.dominance_checks += 3
            counters.count_comparisons(10)
        (span,) = tracer.spans()
        assert span.counter_deltas == {
            "dominance_checks": 3,
            "instance_comparisons": 10,
        }

    def test_ring_buffer_drops_oldest(self):
        tracer = Tracer(capacity=3)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer) == 3
        assert tracer.completed == 5
        assert tracer.dropped == 2
        assert [s.name for s in tracer] == ["s2", "s3", "s4"]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_clear(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.clear()
        assert len(tracer) == 0 and tracer.completed == 0 and tracer.dropped == 0

    def test_feeds_span_seconds_histogram(self):
        registry = MetricsRegistry()
        tracer = Tracer(metrics=registry)
        with tracer.span("maxflow", op="PSD"):
            pass
        with tracer.span("rtree-descent"):
            pass
        hist = registry.get(
            "repro_span_seconds", {"span": "maxflow", "operator": "PSD"}
        )
        assert hist is not None and hist.count == 1
        assert registry.get("repro_span_seconds", {"span": "rtree-descent"}).count == 1

    def test_null_tracer_is_inert(self):
        null = NullTracer()
        assert null.enabled is False
        with null.span("anything", counters=Counters(), op="SSD") as span:
            pass
        assert null.spans() == []
        assert len(null) == 0 and null.dropped == 0
        assert list(null) == []
        assert NULL_TRACER.enabled is False

    def test_span_record_to_dict(self):
        tracer = Tracer()
        counters = Counters()
        with tracer.span("check", counters=counters, oid=3):
            counters.mbr_tests += 1
        d = tracer.spans()[0].to_dict()
        assert d["name"] == "check"
        assert d["labels"] == {"oid": 3}
        assert d["counters"] == {"mbr_tests": 1}
        assert "parent" not in d  # root span omits the key


class TestTraceBufferOverflow:
    """A saturated span buffer degrades loudly and exports cleanly."""

    def _overflowed(self, capacity=4, spans=11, registry=None):
        tracer = Tracer(capacity=capacity, metrics=registry)
        for i in range(spans):
            with tracer.span(f"s{i}", idx=i):
                pass
        return tracer

    def test_drop_counter_exported_to_prometheus(self):
        registry = MetricsRegistry()
        tracer = self._overflowed(registry=registry)
        assert tracer.dropped == 7
        assert registry.value("repro_trace_spans_dropped_total") == 7
        text = registry.to_prometheus()
        assert "# TYPE repro_trace_spans_dropped_total counter" in text
        assert "repro_trace_spans_dropped_total 7" in text

    def test_no_drops_means_no_counter_traffic(self):
        registry = MetricsRegistry()
        tracer = Tracer(capacity=8, metrics=registry)
        with tracer.span("only"):
            pass
        assert registry.get("repro_trace_spans_dropped_total") is None

    def test_truncated_chrome_export_stays_well_formed(self):
        tracer = self._overflowed()
        doc = chrome_trace(tracer.spans())
        json.loads(json.dumps(doc))  # round-trips as strict JSON
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        # Newest-capacity survivors, every event structurally complete.
        assert [e["name"] for e in spans] == ["s7", "s8", "s9", "s10"]
        for event in spans:
            assert {"name", "ph", "ts", "dur", "pid", "tid", "args"} <= set(event)
            assert event["ts"] >= 0 and event["dur"] >= 0

    def test_truncated_merged_trace_stays_well_formed(self):
        from repro.obs import merged_chrome_trace

        root = self._overflowed(capacity=2, spans=5)
        shard = self._overflowed(capacity=3, spans=9)
        doc = merged_chrome_trace(
            root.spans(), [(0, shard.spans())], trace_id="t" * 32
        )
        json.loads(json.dumps(doc))
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 5  # 2 surviving root + 3 surviving shard spans
        assert {e["tid"] for e in spans} == {0, 1}

    def test_jsonl_export_of_truncated_buffer(self, tmp_path):
        tracer = self._overflowed()
        path = tmp_path / "trace.jsonl"
        write_trace(path, tracer.spans())
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        for line in lines:
            json.loads(line)


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.inc("hits_total", 2, {"op": "SSD"})
        reg.inc("hits_total", 3, {"op": "SSD"})
        reg.inc("hits_total", 1, {"op": "PSD"})
        assert reg.value("hits_total", {"op": "SSD"}) == 5
        assert reg.total("hits_total") == 6
        reg.set_gauge("depth", 4)
        assert reg.value("depth") == 4
        reg.observe("latency", 0.2)
        reg.observe("latency", 3.0)
        hist = reg.get("latency")
        assert hist.count == 2 and hist.sum == pytest.approx(3.2)

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().inc("x_total", -1)

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.inc("thing", 1)
        with pytest.raises(ValueError, match="already registered"):
            reg.observe("thing", 0.5)

    def test_label_order_insensitive(self):
        reg = MetricsRegistry()
        reg.inc("x_total", 1, {"a": "1", "b": "2"})
        reg.inc("x_total", 1, {"b": "2", "a": "1"})
        assert reg.value("x_total", {"a": "1", "b": "2"}) == 2

    def test_histogram_cumulative_buckets(self):
        from repro.obs.metrics import Histogram

        hist = Histogram(buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            hist.observe(v)
        assert hist.cumulative() == [1, 2, 3]
        with pytest.raises(ValueError):
            Histogram(buckets=())
        with pytest.raises(ValueError):
            Histogram(buckets=(2.0, 1.0))

    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        reg.counter("repro_queries_total", {"operator": "PSD"},
                    help="queries run").inc(2)
        reg.observe("repro_query_seconds", 0.05, {"operator": "PSD"},
                    buckets=(0.01, 0.1, 1.0))
        text = reg.to_prometheus()
        assert "# HELP repro_queries_total queries run" in text
        assert "# TYPE repro_queries_total counter" in text
        assert 'repro_queries_total{operator="PSD"} 2' in text
        assert "# TYPE repro_query_seconds histogram" in text
        assert 'repro_query_seconds_bucket{operator="PSD",le="0.01"} 0' in text
        assert 'repro_query_seconds_bucket{operator="PSD",le="0.1"} 1' in text
        assert 'repro_query_seconds_bucket{operator="PSD",le="+Inf"} 1' in text
        assert 'repro_query_seconds_sum{operator="PSD"} 0.05' in text
        assert 'repro_query_seconds_count{operator="PSD"} 1' in text
        assert text.endswith("\n")

    def test_prometheus_label_escaping(self):
        reg = MetricsRegistry()
        reg.inc("x_total", 1, {"k": 'a"b\\c'})
        assert r'x_total{k="a\"b\\c"} 1' in reg.to_prometheus()

    def test_to_json_round_trips(self):
        reg = MetricsRegistry()
        reg.inc("x_total", 3, {"op": "SSD"})
        reg.observe("y_seconds", 0.2, buckets=(1.0,))
        dump = json.loads(json.dumps(reg.to_json()))
        assert dump["metrics"]["x_total"]["type"] == "counter"
        (series,) = dump["metrics"]["x_total"]["series"]
        assert series == {"labels": {"op": "SSD"}, "value": 3}
        (hist,) = dump["metrics"]["y_seconds"]["series"]
        assert hist["count"] == 1 and hist["buckets"] == {"1": 1}

    def test_query_metrics_from_counters_reconciles(self):
        reg = MetricsRegistry()
        deltas = {
            "dominance_checks": 7,
            "mbr_tests": 4,
            "pruned_by_statistics": 2,
            "pruned_by_cover": 1,
            "validated_by_mbr": 3,
            "nodes_visited": 0,  # zero deltas are skipped
        }
        query_metrics_from_counters(
            reg, deltas, operator="SSD", elapsed=0.01, candidates=5
        )
        assert reg.value("repro_queries_total", {"operator": "SSD"}) == 1
        for key, value in deltas.items():
            got = reg.value(
                "repro_counter_total", {"counter": key, "operator": "SSD"}
            )
            assert got == value or (value == 0 and got == 0)
        total = sum(v for v in deltas.values())
        assert reg.total("repro_counter_total") == total
        assert reg.value(
            "repro_prune_hits_total", {"rule": "statistics", "operator": "SSD"}
        ) == 2
        assert reg.value(
            "repro_prune_hits_total", {"rule": "cover", "operator": "SSD"}
        ) == 1
        assert reg.value(
            "repro_validate_hits_total", {"rule": "mbr", "operator": "SSD"}
        ) == 3
        assert reg.get("repro_query_seconds", {"operator": "SSD"}).count == 1
        assert reg.get("repro_candidates", {"operator": "SSD"}).count == 1


class TestExport:
    def _sample_tracer(self) -> Tracer:
        tracer = Tracer()
        counters = Counters()
        with tracer.span("search", op="PSD", k=2):
            with tracer.span("dominance-check", counters=counters, oid=1):
                counters.dominance_checks += 2
        return tracer

    def test_chrome_trace_shape(self):
        doc = chrome_trace(self._sample_tracer().spans())
        assert doc["displayTimeUnit"] == "ms"
        meta, *events = doc["traceEvents"]
        assert meta["ph"] == "M" and meta["args"]["name"] == "repro"
        by_name = {e["name"]: e for e in events}
        assert set(by_name) == {"search", "dominance-check"}
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
        assert by_name["dominance-check"]["cat"] == "search"
        assert by_name["dominance-check"]["args"]["counters"] == {
            "dominance_checks": 2
        }
        assert by_name["search"]["args"] == {"op": "PSD", "k": 2}
        json.dumps(doc)  # must be serialisable as-is

    def test_chrome_trace_nesting_timestamps(self):
        doc = chrome_trace(self._sample_tracer().spans())
        events = {e["name"]: e for e in doc["traceEvents"][1:]}
        outer, inner = events["search"], events["dominance-check"]
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-3

    def test_spans_to_jsonl(self):
        text = spans_to_jsonl(self._sample_tracer().spans())
        lines = text.strip().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["name"] == "dominance-check"
        assert first["parent"] == "search"
        assert first["counters"] == {"dominance_checks": 2}
        assert spans_to_jsonl([]) == ""

    def test_write_trace_suffix_dispatch(self, tmp_path):
        tracer = self._sample_tracer()
        chrome_path = write_trace(tmp_path / "t.json", tracer)
        doc = json.loads(chrome_path.read_text())
        assert "traceEvents" in doc
        jsonl_path = write_trace(tmp_path / "t.jsonl", tracer)
        assert all(
            json.loads(line) for line in jsonl_path.read_text().splitlines()
        )
        forced = write_trace(tmp_path / "t.log", tracer, format="jsonl")
        assert json.loads(forced.read_text().splitlines()[0])["name"]
        with pytest.raises(ValueError):
            write_trace(tmp_path / "t.bin", tracer, format="protobuf")

    def test_write_metrics_suffix_dispatch(self, tmp_path):
        reg = MetricsRegistry()
        reg.inc("x_total", 1)
        prom = write_metrics(tmp_path / "m.prom", reg)
        assert "# TYPE x_total counter" in prom.read_text()
        js = write_metrics(tmp_path / "m.json", reg)
        assert json.loads(js.read_text())["metrics"]["x_total"]["type"] == "counter"


class TestPipelineInstrumentation:
    """Traced searches: span-tree shape and metric reconciliation."""

    OPERATORS = ["SSD", "SSSD", "PSD", "FSD", "F+SD"]

    def _traced_run(self, kind, rng, **ctx_kwargs):
        objects, query = random_scene(rng, n_objects=25, m=4)
        tracer = Tracer()
        registry = MetricsRegistry()
        ctx = QueryContext(query, tracer=tracer, metrics=registry, **ctx_kwargs)
        result = NNCSearch(objects).run(query, kind, ctx=ctx, k=2)
        return result, tracer, registry, ctx

    def test_span_tree_covers_the_pipeline(self, rng):
        result, tracer, _, _ = self._traced_run("PSD", rng)
        names = {s.name for s in tracer.spans()}
        assert {"search", "rtree-descent", "entry-prune",
                "dominance-check"} <= names
        # P-SD exercises the max-flow machinery on this workload.
        assert "maxflow" in names or "level-flow" in names
        roots = [s for s in tracer.spans() if s.depth == 0]
        assert [s.name for s in roots] == ["search"]
        (root,) = roots
        assert root.labels["op"] == "PSD"
        assert root.labels["k"] == 2
        # Every non-root span nests under the search root.
        for span in tracer.spans():
            if span.depth == 1:
                assert span.parent == "search"

    @pytest.mark.parametrize("kind,inner", [
        ("SSD", "cdf-scan"),
        ("SSSD", "cdf-sweep"),
        ("FSD", "hull-extremes"),
    ])
    def test_operator_specific_spans(self, kind, inner, rng):
        _, tracer, _, _ = self._traced_run(kind, rng)
        spans = tracer.spans()
        inner_spans = [s for s in spans if s.name == inner]
        assert inner_spans, f"{kind} produced no {inner!r} span"
        assert all(s.parent == "dominance-check" for s in inner_spans)
        assert all(s.labels["op"] == kind for s in inner_spans)

    def test_root_counter_deltas_match_context(self, rng):
        _, tracer, _, ctx = self._traced_run("SSD", rng)
        root = next(s for s in tracer.spans() if s.name == "search")
        snap = ctx.counters.snapshot()
        for key, value in root.counter_deltas.items():
            assert snap[key] == value
        # Every non-zero counter of the query shows up on the root span.
        for key, value in snap.items():
            if value:
                assert root.counter_deltas.get(key) == value

    @pytest.mark.parametrize("kind", OPERATORS)
    def test_prometheus_reconciles_with_snapshot(self, kind, rng):
        _, _, registry, ctx = self._traced_run(kind, rng)
        snap = ctx.counters.snapshot()
        for key, value in snap.items():
            if not value:
                continue
            assert registry.value(
                "repro_counter_total", {"counter": key, "operator": kind}
            ) == value, key
        assert registry.total("repro_counter_total") == sum(snap.values())
        assert registry.value("repro_queries_total", {"operator": kind}) == 1
        # And the same numbers survive the text export.
        text = registry.to_prometheus()
        assert f'repro_queries_total{{operator="{kind}"}} 1' in text

    def test_kernel_batch_histograms(self, rng):
        _, _, registry, ctx = self._traced_run("SSD", rng, kernels=True)
        fams = registry.families()
        assert "repro_kernel_batch_elements" in fams
        observed = sum(
            m.count for _, m in fams["repro_kernel_batch_elements"]
        )
        assert observed == ctx.counters.kernel_invocations
        elements = sum(m.sum for _, m in fams["repro_kernel_batch_elements"])
        assert elements == ctx.counters.kernel_elements

    def test_rtree_visit_metrics(self, rng):
        # Best-first traversals report node pops to the registry passed per
        # call (F-SD's per-vertex extreme-distance queries on local trees).
        from repro.index.rtree import RTree

        registry = MetricsRegistry()
        tree = RTree()
        for point in rng.uniform(0, 100, size=(64, 2)):
            tree.insert(point, point)
        q = np.array([50.0, 50.0])
        tree.nearest_distance(q, metrics=registry)
        tree.farthest_distance(q, metrics=registry)
        for mode in ("nearest", "farthest"):
            assert registry.value(
                "repro_rtree_node_visits_total",
                {"tree": "local", "mode": mode},
            ) > 0

    def test_fsd_local_trees_feed_rtree_metrics(self, rng):
        # With use_local_trees (the paper's level setup) the per-pair
        # extreme-distance queries run on the objects' local R-trees and
        # report through the context's registry.
        from repro.core.fsd import fsd_dominates
        from tests.conftest import random_object

        registry = MetricsRegistry()
        u = random_object(rng, m=16, oid=0)
        v = random_object(rng, m=16, oid=1)
        query = random_object(rng, m=4, oid="Q")
        ctx = QueryContext(query, metrics=registry)
        fsd_dominates(u, v, ctx, use_local_trees=True)
        assert registry.total("repro_rtree_node_visits_total") > 0

    def test_maxflow_metrics(self, rng):
        _, _, registry, ctx = self._traced_run("PSD", rng)
        if ctx.counters.maxflow_calls:
            assert registry.total("repro_maxflow_phases_total") > 0
            assert registry.total("repro_maxflow_augmentations_total") >= 0

    def test_metrics_without_tracer(self, rng):
        objects, query = random_scene(rng, n_objects=15)
        registry = MetricsRegistry()
        ctx = QueryContext(query, metrics=registry)
        assert ctx.tracer.enabled is False
        NNCSearch(objects).run(query, "SSD", ctx=ctx)
        assert registry.value("repro_queries_total", {"operator": "SSD"}) == 1
        assert registry.total("repro_counter_total") == sum(
            ctx.counters.snapshot().values()
        )

    def test_default_context_has_null_tracer(self, rng):
        objects, query = random_scene(rng, n_objects=10)
        ctx = QueryContext(query)
        assert ctx.tracer is NULL_TRACER
        assert ctx.metrics is None
        NNCSearch(objects).run(query, "SSD", ctx=ctx)  # must not record anything
        assert len(NULL_TRACER) == 0

    def test_traced_and_untraced_results_agree(self, rng):
        objects, query = random_scene(rng, n_objects=30, m=4)
        search = NNCSearch(objects)
        for kind in self.OPERATORS:
            plain = search.run(query, kind, ctx=QueryContext(query), k=2)
            traced = search.run(
                query, kind,
                ctx=QueryContext(query, tracer=Tracer(),
                                 metrics=MetricsRegistry()),
                k=2,
            )
            assert sorted(plain.oids()) == sorted(traced.oids())


class TestServeMetricFamilies:
    """The PR-4 serving families export correctly from the shared registry."""

    def _served_registry(self):
        from repro.obs.metrics import MetricsRegistry as Registry
        from repro.serve.cache import ResultCache
        from repro.serve.server import ServeApp
        from repro.serve.updates import DatasetManager
        from repro.datasets import synthetic

        gen = np.random.default_rng(4)
        centers = synthetic.independent_centers(25, 2, gen)
        objects = synthetic.make_objects(centers, 3, 30.0, gen)
        registry = Registry()
        app = ServeApp(
            DatasetManager(objects, shards=2, metrics=registry),
            cache=ResultCache(8, metrics=registry),
            registry=registry,
        )
        body = {"points": [[50.0, 50.0]], "operator": "FSD"}
        # Admission happens in the transport loop; mirror it here so the
        # inflight gauge materializes.
        app.try_acquire()
        app.dispatch("POST", "/query", body)
        app.release()
        app.dispatch("POST", "/query", body)       # cache hit
        app.dispatch("POST", "/insert", {"points": [[1.0, 2.0]], "oid": "x"})
        app.dispatch("POST", "/delete", {"oid": "x"})
        app.dispatch("POST", "/query", {"bad": True})  # 400
        app.manager.close()
        return registry

    def test_prometheus_export_has_all_families(self):
        text = self._served_registry().to_prometheus()
        for family in (
            "repro_serve_requests_total",
            "repro_serve_request_seconds",
            "repro_serve_inflight",
            "repro_serve_shard_fanout",
            "repro_serve_cache_hits_total",
            "repro_serve_cache_misses_total",
            "repro_serve_cache_size",
            "repro_serve_updates_total",
            "repro_serve_epoch",
            "repro_serve_objects",
            "repro_queries_total",
        ):
            assert family in text, f"{family} missing"
        assert 'repro_serve_requests_total{route="/query",status="200"} 2' in text
        assert 'repro_serve_requests_total{route="/query",status="400"} 1' in text
        assert 'repro_serve_updates_total{op="insert"} 1' in text
        assert 'repro_serve_updates_total{op="delete"} 1' in text

    def test_json_export_reconciles(self):
        registry = self._served_registry()
        dump = registry.to_json()["metrics"]
        assert dump["repro_serve_cache_hits_total"]["type"] == "counter"
        assert registry.value("repro_serve_cache_hits_total") == 1.0
        assert registry.value("repro_serve_epoch") == 2.0
        assert registry.value("repro_serve_objects") == 25.0
        fanout = registry.get("repro_serve_shard_fanout", {"operator": "FSD"})
        assert fanout is not None and fanout.count == 1

    def test_registry_is_thread_safe_under_concurrent_writes(self):
        import threading

        registry = MetricsRegistry()
        errors = []

        def pound(tag):
            try:
                for i in range(300):
                    registry.inc("x_total", 1, {"t": tag})
                    registry.observe("y_seconds", 0.001 * i, {"t": tag})
                    registry.set_gauge("z", i)
                    registry.families()
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=pound, args=(str(j),)) for j in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors[0]
        assert registry.total("x_total") == 1200
        assert sum(
            registry.get("y_seconds", {"t": str(j)}).count for j in range(4)
        ) == 1200


class TestCLI:
    def test_search_trace_metrics_breakdown(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.prom"
        rc = cli_main([
            "search", "--n", "60", "--m", "5", "--k", "2",
            "--operator", "PSD", "--quiet", "--seed", "3",
            "--trace", str(trace_path),
            "--metrics", str(metrics_path),
            "--breakdown",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Span breakdown" in out
        assert "trace:" in out and "metrics ->" in out
        doc = json.loads(trace_path.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"search", "rtree-descent", "dominance-check"} <= names
        text = metrics_path.read_text()
        assert 'repro_queries_total{operator="PSD"} 1' in text
        assert "repro_span_seconds_bucket" in text

    def test_breakdown_stages_plus_untracked_equal_bag(self, tmp_path, capsys):
        """``--breakdown`` charges each counted unit to exactly one row.

        Summing inclusive span deltas would count a dominance check's
        comparisons under ``search``, ``dominance-check`` and the
        operator's inner stage alike; exclusive stage rows plus the
        ``untracked`` residual must add up to the query's counter bag
        (read back from the ``repro_counter_total`` export).
        """
        metrics_path = tmp_path / "metrics.json"
        rc = cli_main([
            "search", "--n", "200", "--m", "5", "--k", "2",
            "--operator", "FSD", "--quiet", "--seed", "3",
            "--breakdown", "--metrics", str(metrics_path),
        ])
        assert rc == 0
        table = capsys.readouterr().out.split("Span breakdown", 1)[1]
        reported: dict[str, int] = {}
        for line in table.splitlines():
            fields = line.split(None, 4)
            if fields[:1] == ["untracked:"]:
                pairs = line.split(":", 1)[1]
            elif len(fields) == 5 and fields[1].isdigit():
                pairs = fields[4]
            else:
                continue
            for pair in pairs.split(","):
                if "=" in pair:
                    key, value = pair.strip().split("=")
                    reported[key] = reported.get(key, 0) + int(value)
        series = json.loads(metrics_path.read_text())["metrics"][
            "repro_counter_total"
        ]["series"]
        bag = {s["labels"]["counter"]: int(s["value"]) for s in series}
        assert bag["instance_comparisons"] > 0
        assert reported == bag

    def test_search_trace_jsonl_and_metrics_json(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.json"
        rc = cli_main([
            "search", "--n", "40", "--m", "4", "--operator", "SSD",
            "--quiet", "--trace", str(trace_path),
            "--metrics", str(metrics_path),
        ])
        assert rc == 0
        events = [json.loads(l) for l in trace_path.read_text().splitlines()]
        assert any(e["name"] == "search" for e in events)
        dump = json.loads(metrics_path.read_text())
        assert "repro_counter_total" in dump["metrics"]

    def test_search_without_obs_flags_unchanged(self, capsys):
        rc = cli_main([
            "search", "--n", "30", "--m", "4", "--operator", "SSD", "--quiet",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace:" not in out and "metrics ->" not in out
