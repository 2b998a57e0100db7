"""Router tier: bit-identity, hedging, failover, write fan-out, replay.

The headline pin (ISSUE 9 acceptance): for every operator, k, and oracle
partitioner, a router scatter-gathering shard-scoped reads over a fleet
of node servers returns answers bit-identical to single-process
Algorithm 1 — candidate sets *and* final dominator counts.  The rest of
the file covers the distributed-systems machinery around that invariant:
hedged requests, circuit-breaking failover, replica write fan-out with
epoch reconciliation, stale-read detection, and end-to-end audit replay.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.datasets import synthetic
from repro.objects.uncertain import UncertainObject
from repro.serve import protocol
from repro.serve.audit import AuditLog, load_audit, replay_audit
from repro.serve.remote import CircuitBreaker, LocalNode, RemoteNodeError
from repro.serve.router import RouterApp
from repro.serve.server import ServeApp
from repro.serve.shard import ShardedSearch
from repro.serve.updates import DatasetManager

OPERATORS = protocol.OPERATOR_NAMES
SHARDS = 4
NODE_IDS = ("n1", "n2", "n3")


def _copies(objects):
    """Fresh object copies so fleets never share mutable engine state."""
    return [
        UncertainObject(
            np.copy(o.points), np.copy(o.probs), oid=o.oid
        )
        for o in objects
    ]


def make_fleet(
    objects,
    *,
    shards=SHARDS,
    replication=2,
    node_ids=NODE_IDS,
    hedge_ms=0,
    **router_kw,
):
    """An in-process fleet: one hash-partitioned ServeApp per node."""
    nodes = {}
    apps = []
    for nid in node_ids:
        manager = DatasetManager(
            _copies(objects),
            shards=shards,
            partitioner="hash",
            backend="serial",
            compact_threshold=1.0,
        )
        app = ServeApp(manager, node_id=nid)
        apps.append(app)
        nodes[nid] = LocalNode(nid, app)
    router = RouterApp(
        nodes, shards=shards, replication=replication, hedge_ms=hedge_ms,
        **router_kw,
    )
    return router, nodes, apps


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(13)
    centers = synthetic.anticorrelated_centers(90, 2, rng)
    objects = synthetic.make_objects(centers, 4, 120.0, rng)
    query = synthetic.make_query(centers[11], 3, 80.0, rng)
    return objects, query


@pytest.fixture(scope="module")
def fleet(workload):
    objects, _ = workload
    router, nodes, apps = make_fleet(objects)
    yield router, nodes, apps
    router.close()
    for app in apps:
        app.close()


@pytest.fixture(scope="module")
def oracles(workload):
    objects, _ = workload
    built = {
        part: ShardedSearch(
            _copies(objects), shards=SHARDS, partitioner=part,
            backend="serial",
        )
        for part in ("round-robin", "centroid", "hash")
    }
    yield built
    for search in built.values():
        search.close()


def _query_payload(query, operator, k):
    return {
        "points": query.points.tolist(),
        "probs": query.probs.tolist(),
        "operator": operator,
        "k": k,
        "cache": False,
    }


def _pairs(body):
    return sorted((c["oid"], c["dominators"]) for c in body["candidates"])


class TestBitIdentity:
    """Router answers == single-process Algorithm 1, every configuration."""

    @pytest.mark.parametrize("partitioner", ["round-robin", "centroid", "hash"])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("operator", OPERATORS)
    def test_matches_oracle(self, fleet, oracles, workload, operator, k,
                            partitioner):
        _, query = workload
        router, _, _ = fleet
        status, body = router.dispatch(
            "POST", "/query", _query_payload(query, operator, k), {}
        )
        assert status == 200, body
        oracle = oracles[partitioner].run(query, operator, k=k)
        want = sorted(zip(oracle.oids(), oracle.dominator_counts))
        assert _pairs(body) == want
        assert body["backend"] == "router"
        assert not body["degraded"]

    def test_scoped_router_query(self, fleet, oracles, workload):
        """A shard-scoped query *to the router* answers over the subset."""
        _, query = workload
        router, _, _ = fleet
        payload = _query_payload(query, "FSD", 2)
        payload["shards"] = [0, 2]
        status, body = router.dispatch("POST", "/query", payload, {})
        assert status == 200, body
        oracle = oracles["hash"].run(query, "FSD", k=2, shard_subset=[0, 2])
        assert _pairs(body) == sorted(
            zip(oracle.oids(), oracle.dominator_counts)
        )

    def test_out_of_range_scope_is_400(self, fleet, workload):
        _, query = workload
        router, _, _ = fleet
        payload = _query_payload(query, "FSD", 1)
        payload["shards"] = [SHARDS]
        status, body = router.dispatch("POST", "/query", payload, {})
        assert status == 400


class TestNodeRoleProtocol:
    """The node half of the router protocol, on a plain ServeApp."""

    @pytest.fixture(scope="class")
    def node_app(self, workload):
        objects, _ = workload
        manager = DatasetManager(
            _copies(objects), shards=SHARDS, partitioner="hash",
            backend="serial", compact_threshold=1.0,
        )
        from repro.serve.cache import ResultCache

        app = ServeApp(manager, cache=ResultCache(32))
        yield app
        app.close()

    def test_scoped_answer_matches_subset_oracle(self, node_app, workload,
                                                 oracles):
        _, query = workload
        payload = _query_payload(query, "PSD", 2)
        payload["shards"] = [1]
        status, body = node_app.dispatch("POST", "/query", payload, {})
        assert status == 200, body
        oracle = oracles["hash"].run(query, "PSD", k=2, shard_subset=[1])
        assert _pairs(body) == sorted(
            zip(oracle.oids(), oracle.dominator_counts)
        )

    def test_include_objects_roundtrips_geometry_exactly(self, node_app,
                                                         workload):
        objects, query = workload
        by_oid = {o.oid: o for o in objects}
        payload = _query_payload(query, "FSD", 2)
        payload["include_objects"] = True
        status, body = node_app.dispatch("POST", "/query", payload, {})
        assert status == 200, body
        assert body["candidates"], "workload query should have candidates"
        # Simulate the wire: JSON-encode and decode, then rebuild without
        # re-normalising.  float64 repr round-trips exactly, so the
        # reconstructed object must match the stored one bit-for-bit.
        wire = json.loads(json.dumps(body))
        for cand in wire["candidates"]:
            rebuilt = UncertainObject(
                cand["points"], cand["probs"], oid=cand["oid"],
                normalize=False,
            )
            original = by_oid[cand["oid"]]
            np.testing.assert_array_equal(rebuilt.points, original.points)
            np.testing.assert_array_equal(rebuilt.probs, original.probs)

    def test_plain_answers_omit_geometry(self, node_app, workload):
        _, query = workload
        status, body = node_app.dispatch(
            "POST", "/query", _query_payload(query, "FSD", 1), {}
        )
        assert status == 200
        assert "points" not in body["candidates"][0]

    def test_scoped_reads_bypass_cache(self, node_app, workload):
        _, query = workload
        payload = _query_payload(query, "SSD", 1)
        payload["cache"] = True
        payload["shards"] = [0]
        for _ in range(2):
            status, body = node_app.dispatch("POST", "/query", payload, {})
            assert status == 200
            assert not body["cached"]

    def test_out_of_range_subset_is_400(self, node_app, workload):
        _, query = workload
        payload = _query_payload(query, "SSD", 1)
        payload["shards"] = [99]
        status, _ = node_app.dispatch("POST", "/query", payload, {})
        assert status == 400

    def test_parse_rejects_bad_scope(self):
        for bad in ([], [True], ["1"], [-1], "0"):
            with pytest.raises(protocol.ProtocolError):
                protocol.parse_query_request(
                    {"points": [[0.0, 0.0]], "shards": bad}
                )
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_query_request(
                {"points": [[0.0, 0.0]], "include_objects": "yes"}
            )


class TestFailoverAndBreakers:
    def test_reads_survive_a_dead_replica(self, workload):
        objects, query = workload
        router, nodes, apps = make_fleet(objects)
        try:
            nodes["n2"].fail = True
            for k in (1, 2, 3):
                status, body = router.dispatch(
                    "POST", "/query", _query_payload(query, "FSD", k), {}
                )
                assert status == 200, body
            assert router.registry.total("repro_router_failovers_total") > 0
        finally:
            router.close()
            for app in apps:
                app.close()

    def test_breaker_opens_and_stops_traffic(self, workload):
        objects, query = workload
        router, nodes, apps = make_fleet(objects)
        try:
            nodes["n1"].fail = True
            for _ in range(6):
                status, _ = router.dispatch(
                    "POST", "/query", _query_payload(query, "SSD", 1), {}
                )
                assert status == 200
            assert nodes["n1"].breaker.state == "open"
            calls_when_open = nodes["n1"].calls
            for _ in range(4):
                router.dispatch(
                    "POST", "/query", _query_payload(query, "SSD", 1), {}
                )
            assert nodes["n1"].calls == calls_when_open
        finally:
            router.close()
            for app in apps:
                app.close()

    def test_all_replicas_dead_is_retryable_503(self, workload):
        objects, query = workload
        router, nodes, apps = make_fleet(
            objects, node_ids=("n1", "n2"), replication=2
        )
        try:
            nodes["n1"].fail = True
            nodes["n2"].fail = True
            status, body = router.dispatch(
                "POST", "/query", _query_payload(query, "FSD", 1), {}
            )
            assert status == 503
            assert body["retryable"] is True
        finally:
            router.close()
            for app in apps:
                app.close()

    def test_health_sweep_marks_dead_nodes(self, workload):
        objects, _ = workload
        router, nodes, apps = make_fleet(objects)
        try:
            nodes["n3"].fail = True
            up = router._sweep_health()
            assert up == {"n1": True, "n2": True, "n3": False}
            reg = router.registry
            assert reg.value("repro_router_node_up", {"node": "n3"}) == 0.0
            assert reg.value("repro_router_node_up", {"node": "n1"}) == 1.0
        finally:
            router.close()
            for app in apps:
                app.close()

    def test_breaker_half_open_probe(self):
        breaker = CircuitBreaker(threshold=2, cooldown_s=0.0)
        breaker.record_failure()
        breaker.record_failure()
        # Cooldown 0: immediately half-open; exactly one probe admitted.
        assert breaker.admits()
        assert breaker.allow()
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"


class TestRejections:
    def test_bad_requests_answer_4xx_without_tripping_breakers(
        self, workload
    ):
        objects, query = workload
        router, nodes, apps = make_fleet(objects)
        try:
            for _ in range(3):
                status, body = router.dispatch(
                    "POST", "/query",
                    {"points": [[1.0, 2.0, 3.0]], "cache": False}, {},
                )
                assert 400 <= status < 500, body
            status, _ = router.dispatch(
                "POST", "/insert", {"points": [[1.0, 2.0, 3.0]]}, {}
            )
            assert status == 422 and router.epoch == 0
            assert all(
                node.breaker.state == "closed" for node in nodes.values()
            )
            status, body = router.dispatch(
                "POST", "/query", _query_payload(query, "FSD", 1), {}
            )
            assert status == 200, body
        finally:
            router.close()
            for app in apps:
                app.close()


class TestHedging:
    def test_slow_primary_is_hedged(self, workload):
        objects, query = workload
        router, nodes, apps = make_fleet(
            objects, shards=1, replication=2, hedge_ms=25,
        )
        try:
            slow = router.placement.owners(0)[0]
            nodes[slow].delay_s = 0.4
            status, body = router.dispatch(
                "POST", "/query", _query_payload(query, "FSD", 1), {}
            )
            assert status == 200, body
            assert body["hedged"] is True
            reg = router.registry
            assert reg.value("repro_router_hedges_total", {"shard": "0"}) >= 1
            assert reg.total("repro_router_hedge_wins_total") >= 1
        finally:
            router.close()
            for app in apps:
                app.close()

    def test_hedge_zero_disables(self, workload):
        objects, query = workload
        router, nodes, apps = make_fleet(
            objects, shards=1, replication=2, hedge_ms=0,
        )
        try:
            slow = router.placement.owners(0)[0]
            nodes[slow].delay_s = 0.05
            status, body = router.dispatch(
                "POST", "/query", _query_payload(query, "FSD", 1), {}
            )
            assert status == 200
            assert body["hedged"] is False
            assert router.registry.total("repro_router_hedges_total") == 0
        finally:
            router.close()
            for app in apps:
                app.close()

    def test_adaptive_threshold_warms_up(self, workload):
        objects, _ = workload
        router, nodes, apps = make_fleet(objects, hedge_ms=None)
        try:
            node = nodes["n1"]
            assert router._hedge_threshold(node) is None  # cold
            for _ in range(16):
                node.call("GET", "/healthz")
            threshold = router._hedge_threshold(node)
            assert threshold is not None and threshold >= 0.001
        finally:
            router.close()
            for app in apps:
                app.close()


class TestWrites:
    @pytest.fixture()
    def write_fleet(self, workload):
        objects, _ = workload
        router, nodes, apps = make_fleet(objects)
        yield router, nodes, apps
        router.close()
        for app in apps:
            app.close()

    def test_insert_fans_out_to_all_owners(self, write_fleet):
        router, nodes, apps = write_fleet
        status, body = router.dispatch(
            "POST", "/insert", {"points": [[0.5, 0.5], [1.5, 0.5]]}, {}
        )
        assert status == 200, body
        oid = body["oid"]
        assert oid.startswith("r-")
        assert body["replicas"] == {"acked": 2, "converged": 0, "failed": 0}
        assert body["epoch"] == 1
        owners = router.placement.owners_of(oid)
        assert len(owners) == 2
        for nid in owners:
            assert nodes[nid].app.manager.get(oid) is not None
        for nid in set(NODE_IDS) - set(owners):
            assert nodes[nid].app.manager.get(oid) is None

    def test_duplicate_insert_is_409(self, write_fleet):
        router, _, _ = write_fleet
        payload = {"points": [[0.0, 0.0]], "oid": "dup-1"}
        status, _ = router.dispatch("POST", "/insert", payload, {})
        assert status == 200
        status, body = router.dispatch("POST", "/insert", payload, {})
        assert status == 409

    def test_partial_write_flags_and_counts(self, write_fleet):
        router, nodes, _ = write_fleet
        oid = "partial-1"
        dead = router.placement.owners_of(oid)[1]
        nodes[dead].fail = True
        status, body = router.dispatch(
            "POST", "/insert", {"points": [[2.0, 2.0]], "oid": oid}, {}
        )
        assert status == 200, body
        assert body["partial"] is True
        assert body["replicas"]["acked"] == 1
        assert body["replicas"]["failed"] == 1
        assert router.registry.value(
            "repro_router_partial_writes_total", {"op": "insert"}
        ) == 1

    def test_all_owners_dead_is_retryable_503(self, write_fleet):
        router, nodes, _ = write_fleet
        oid = "doomed-1"
        for nid in router.placement.owners_of(oid):
            nodes[nid].fail = True
        status, body = router.dispatch(
            "POST", "/insert", {"points": [[1.0, 1.0]], "oid": oid}, {}
        )
        assert status == 503
        assert body["retryable"] is True

    def test_delete_unknown_is_404(self, write_fleet):
        router, _, _ = write_fleet
        status, _ = router.dispatch("POST", "/delete", {"oid": "ghost"}, {})
        assert status == 404

    def test_delete_reconciles_diverged_replica(self, write_fleet):
        """One replica already tombstoned the oid (it missed nothing — a
        prior partial delete reached it): the group converges, the write
        counts as reconciled, and the answer is a success."""
        router, nodes, _ = write_fleet
        oid = "recon-1"
        status, _ = router.dispatch(
            "POST", "/insert", {"points": [[3.0, 3.0]], "oid": oid}, {}
        )
        assert status == 200
        ahead = router.placement.owners_of(oid)[0]
        status, _ = nodes[ahead].app.dispatch(
            "POST", "/delete", {"oid": oid}, {}
        )
        assert status == 200
        status, body = router.dispatch("POST", "/delete", {"oid": oid}, {})
        assert status == 200, body
        assert body["replicas"]["acked"] == 1
        assert body["replicas"]["converged"] == 1
        assert router.registry.value(
            "repro_router_reconciled_writes_total", {"op": "delete"}
        ) == 1

    def test_epoch_advances_once_per_mutation(self, write_fleet):
        router, _, _ = write_fleet
        assert router.epoch == 0
        router.dispatch("POST", "/insert", {"points": [[0.1, 0.1]]}, {})
        router.dispatch("POST", "/insert", {"points": [[0.2, 0.2]]}, {})
        assert router.epoch == 2
        status, body = router.dispatch(
            "POST", "/query",
            {"points": [[0.0, 0.0]], "operator": "SSD", "cache": False}, {},
        )
        assert status == 200
        assert body["epoch"] == 2

    def test_stale_read_fails_over(self, write_fleet):
        router, nodes, _ = write_fleet
        # Pretend the rotation-chosen primary for shard 0 acked a write at
        # a far-future local epoch: its reads are stale until it catches
        # up, so the router must answer from the other replica.
        primary = router.placement.owners(0)[0]
        router._acked_epoch[primary] = 10_000
        payload = {
            "points": [[0.0, 0.0]], "operator": "SSD", "cache": False,
            "shards": [0],
        }
        status, body = router.dispatch("POST", "/query", payload, {})
        assert status == 200, body
        assert router.registry.total("repro_router_stale_reads_total") >= 1


class TestAuditReplay:
    def test_router_log_replays_clean(self, workload, tmp_path):
        objects, query = workload
        audit = AuditLog(tmp_path / "router-audit.jsonl")
        router, nodes, apps = make_fleet(objects, audit=audit)
        try:
            for operator in ("SSD", "FSD"):
                router.dispatch(
                    "POST", "/query", _query_payload(query, operator, 2), {}
                )
            status, body = router.dispatch(
                "POST", "/insert", {"points": [[0.25, 0.25], [0.5, 0.25]]},
                {},
            )
            assert status == 200
            inserted = body["oid"]
            router.dispatch(
                "POST", "/query", _query_payload(query, "PSD", 2), {}
            )
            router.dispatch("POST", "/delete", {"oid": inserted}, {})
            router.dispatch(
                "POST", "/query", _query_payload(query, "FSD", 1), {}
            )
        finally:
            router.close()
            for app in apps:
                app.close()
            audit.close()
        records = load_audit(tmp_path / "router-audit.jsonl")
        report = replay_audit(
            records, _copies(objects), shards=SHARDS, partitioner="hash"
        )
        assert report.ok, report.to_dict()
        assert report.replayed == 4
        assert report.verified == 4
        assert report.mutations_applied == 2

    def test_node_log_skips_scoped_records(self, workload, tmp_path):
        """A node server's audit log mixes full and scoped queries; the
        replayer verifies the former and loudly skips the latter."""
        objects, query = workload
        audit = AuditLog(tmp_path / "node-audit.jsonl")
        manager = DatasetManager(
            _copies(objects), shards=SHARDS, partitioner="hash",
            backend="serial", compact_threshold=1.0,
        )
        app = ServeApp(manager, audit=audit)
        try:
            full = _query_payload(query, "FSD", 1)
            status, _ = app.dispatch("POST", "/query", full, {})
            assert status == 200
            scoped = dict(full)
            scoped["shards"] = [0]
            scoped["include_objects"] = True
            status, _ = app.dispatch("POST", "/query", scoped, {})
            assert status == 200
        finally:
            app.close()
            audit.close()
        records = load_audit(tmp_path / "node-audit.jsonl")
        report = replay_audit(
            records, _copies(objects), shards=SHARDS, partitioner="hash"
        )
        assert report.ok
        assert report.verified == 1
        assert report.skipped_scoped == 1


class TestTracePropagation:
    def test_fleet_spans_share_one_trace(self, workload, tmp_path):
        objects, query = workload
        router, nodes, apps = make_fleet(
            objects, sample_rate=1.0, trace_dir=tmp_path / "traces",
        )
        try:
            status, body = router.dispatch(
                "POST", "/query", _query_payload(query, "FSD", 1),
                {"x-request-id": "req-router-1"},
            )
            assert status == 200
            assert body["request_id"] == "req-router-1"
            trace_id = body["trace_id"]
            assert router.last_trace is not None
            assert body["nodes"], "router should report the nodes it used"
            for nid in body["nodes"]:
                app = nodes[nid].app
                # Node sample rate is 0, but X-Sampled forces sampling, so
                # every node that served a shard produced a trace carrying
                # the router's trace id and request id.
                assert app.last_trace is not None
                args = [
                    e["args"] for e in app.last_trace["traceEvents"]
                    if e.get("args", {}).get("trace_id")
                ]
                assert args and all(
                    a["trace_id"] == trace_id for a in args
                )
                assert all(
                    a["request_id"] == "req-router-1" for a in args
                )
        finally:
            router.close()
            for app in apps:
                app.close()


class TestIntrospection:
    def test_healthz_and_status_shape(self, fleet):
        router, _, _ = fleet
        health = router.healthz()
        assert health["role"] == "router"
        assert health["shards"] == SHARDS
        assert health["replication"] == 2
        assert set(health["nodes"]) == set(NODE_IDS)
        for row in health["nodes"].values():
            assert {"breaker", "calls", "acked_epoch"} <= set(row)
        status = router.status()
        assert status["placement"]["shards"] == SHARDS
        assert set(status["placement"]["nodes"]) == set(NODE_IDS)
        assert "slo" in status

    def test_remote_node_url_validation(self):
        from repro.serve.remote import RemoteNode

        node = RemoteNode("n1", "http://127.0.0.1:9")
        assert node.url == "http://127.0.0.1:9"
        assert RemoteNode("n2", "127.0.0.1:9").port == 9
        with pytest.raises(ValueError):
            RemoteNode("n3", "ftp://example.com")
        with pytest.raises(RemoteNodeError):
            node.call("GET", "/healthz", timeout_s=0.2)
