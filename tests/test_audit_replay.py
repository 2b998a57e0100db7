"""Audit log, answer digests, and deterministic replay verification."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import cli
from repro.datasets import synthetic
from repro.objects.io import save_objects
from repro.obs.metrics import MetricsRegistry
from repro.serve.audit import (
    AuditLog,
    answer_digest,
    load_audit,
    replay_audit,
)
from repro.serve.server import ServeApp
from repro.serve.updates import DatasetManager

QUERY_POINTS = [[4700.0, 5300.0], [5200.0, 5800.0]]


def _objects(n: int = 40, seed: int = 13):
    rng = np.random.default_rng(seed)
    centers = synthetic.anticorrelated_centers(n, 2, rng)
    return synthetic.make_objects(centers, 4, 2000.0, rng)


def _app(tmp_path, objects=None, **kwargs):
    registry = MetricsRegistry()
    manager = DatasetManager(
        list(objects if objects is not None else _objects()),
        shards=2,
        metrics=registry,
    )
    audit = AuditLog(tmp_path / "audit.jsonl", metrics=registry)
    app = ServeApp(manager, registry=registry, audit=audit, **kwargs)
    return app, audit


class TestAnswerDigest:
    def test_order_independent(self):
        a = [{"oid": 1, "dominators": 0}, {"oid": 2, "dominators": 3}]
        assert answer_digest(a) == answer_digest(list(reversed(a)))

    def test_sensitive_to_content(self):
        base = [{"oid": 1, "dominators": 0}]
        assert answer_digest(base) != answer_digest(
            [{"oid": 1, "dominators": 1}]
        )
        assert answer_digest(base) != answer_digest(
            [{"oid": 2, "dominators": 0}]
        )
        assert answer_digest(base) != answer_digest([])

    def test_stable_known_value(self):
        # Pinned so a digest-format change is an audit-compat break, not a
        # silent one.
        assert answer_digest([]) == answer_digest(iter(()))


class TestAuditLog:
    def test_append_counts_and_metrics(self, tmp_path):
        registry = MetricsRegistry()
        log = AuditLog(tmp_path / "a.jsonl", metrics=registry)
        try:
            assert log.append("query", {"x": 1}) == 0
            assert log.append("insert", {"y": 2}) == 1
            assert log.stats()["records"] == {"query": 1, "insert": 1}
        finally:
            log.close()
        records = load_audit(tmp_path / "a.jsonl")
        assert [r["seq"] for r in records] == [0, 1]
        assert records[0]["kind"] == "query" and records[0]["x"] == 1
        assert all("ts" in r for r in records)
        assert (
            registry.value("repro_audit_records_total", {"kind": "query"}) == 1
        )

    def test_append_mode_extends_existing_log(self, tmp_path):
        path = tmp_path / "a.jsonl"
        first = AuditLog(path)
        first.append("query", {})
        first.close()
        second = AuditLog(path)
        second.append("query", {})
        second.close()
        assert len(load_audit(path)) == 2

    def test_fsync_always_survives_immediate_reread(self, tmp_path):
        path = tmp_path / "a.jsonl"
        log = AuditLog(path, fsync="always")
        try:
            log.append("query", {"x": 1})
            # Durable before close: the record is on disk already.
            assert len(load_audit(path)) == 1
        finally:
            log.close()

    def test_fsync_mode_validated(self, tmp_path):
        with pytest.raises(ValueError):
            AuditLog(tmp_path / "a.jsonl", fsync="eventually")

    def test_torn_tail_skipped_and_flagged(self, tmp_path):
        path = tmp_path / "a.jsonl"
        log = AuditLog(path)
        log.append("query", {"degraded": True, "epoch": 0})
        log.close()
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"kind": "query", "se')  # crashed mid-append
        records = load_audit(path)
        assert len(records) == 1
        assert records.torn_tail is not None
        assert records.torn_tail.kind == "audit"
        assert records.torn_tail.offset > 0

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text('{"bad\n{"kind": "query", "seq": 1, "epoch": 0}\n')
        with pytest.raises(ValueError):
            load_audit(path)


class TestServeAuditIntegration:
    def _query(self, app, payload=None):
        return app.handle(
            "POST",
            "/query",
            {"points": QUERY_POINTS, "operator": "FSD", **(payload or {})},
        )

    def test_queries_and_mutations_audited(self, tmp_path):
        app, audit = _app(tmp_path)
        try:
            status, body = self._query(app)
            assert status == 200
            app.handle(
                "POST",
                "/insert",
                {"points": [[1.0, 1.0]], "probs": [1.0], "oid": "new-1"},
            )
            app.handle("POST", "/delete", {"oid": "new-1"})
            self._query(app, {"budget": {"max_dominance_checks": 2}})
        finally:
            app.manager.close()
            audit.close()
        records = load_audit(audit.path)
        assert [r["kind"] for r in records] == [
            "query", "insert", "delete", "query",
        ]
        q0 = records[0]
        assert q0["epoch"] == 0 and q0["operator"] == "FSD"
        assert q0["digest"] == answer_digest(body["candidates"])
        assert q0["points"] == QUERY_POINTS
        assert records[1]["oid"] == "new-1" and records[1]["epoch"] == 1
        assert records[2]["epoch"] == 2
        assert records[3]["degraded"] is True

    def test_cached_hit_audited_with_same_digest(self, tmp_path):
        from repro.serve.cache import ResultCache

        app, audit = _app(tmp_path, cache=ResultCache(8))
        try:
            self._query(app, {"operator": "PSD", "k": 2})
            status, body = self._query(app, {"operator": "PSD", "k": 2})
            assert status == 200 and body["cached"] is True
        finally:
            app.manager.close()
            audit.close()
        records = load_audit(audit.path)
        assert [r["cached"] for r in records] == [False, True]
        assert records[0]["digest"] == records[1]["digest"]


class TestReplay:
    def _recorded_session(self, tmp_path, objects):
        """Serve a scripted mixed workload and return its audit records."""
        app, audit = _app(tmp_path, objects=objects)
        try:
            for op in ("FSD", "PSD", "SSD"):
                status, _ = app.handle(
                    "POST",
                    "/query",
                    {"points": QUERY_POINTS, "operator": op, "k": 2},
                )
                assert status == 200
            app.handle(
                "POST",
                "/insert",
                {
                    "points": [[4800.0, 5400.0], [5100.0, 5600.0]],
                    "probs": [0.5, 0.5],
                    "oid": "ins-1",
                },
            )
            app.handle(
                "POST", "/query", {"points": QUERY_POINTS, "operator": "FSD"}
            )
            app.handle("POST", "/delete", {"oid": "ins-1"})
            app.handle(
                "POST", "/query", {"points": QUERY_POINTS, "operator": "FSD"}
            )
            # One degraded and one budgeted-but-exact query: both skipped.
            app.handle(
                "POST",
                "/query",
                {
                    "points": QUERY_POINTS,
                    "operator": "FSD",
                    "budget": {"max_dominance_checks": 2},
                },
            )
            app.handle(
                "POST",
                "/query",
                {
                    "points": QUERY_POINTS,
                    "operator": "FSD",
                    "budget": {"deadline_ms": 60_000},
                },
            )
        finally:
            app.manager.close()
            audit.close()
        return load_audit(audit.path)

    def test_replay_verifies_untampered_log(self, tmp_path):
        objects = _objects()
        records = self._recorded_session(tmp_path, objects)
        report = replay_audit(records, objects)
        assert report.ok
        assert report.records == len(records)
        assert report.mutations_applied == 2
        assert report.replayed == 5 and report.verified == 5
        assert report.skipped_degraded == 1
        assert report.skipped_budgeted >= 1
        assert report.epoch_errors == 0 and report.mismatch_count == 0

    def test_replay_is_shard_layout_independent(self, tmp_path):
        # Pinned answers mean the digest must reproduce under any sharding.
        objects = _objects()
        records = self._recorded_session(tmp_path, objects)
        report = replay_audit(
            records, objects, shards=3, partitioner="centroid"
        )
        assert report.ok and report.verified == 5

    def test_tampered_digest_detected(self, tmp_path):
        objects = _objects()
        records = self._recorded_session(tmp_path, objects)
        tampered = [dict(r) for r in records]
        victim = next(
            r for r in tampered
            if r["kind"] == "query" and not r["degraded"] and not r["budgeted"]
        )
        victim["digest"] = "0" * 40
        report = replay_audit(tampered, objects)
        assert not report.ok
        assert report.mismatch_count == 1
        assert report.mismatches[0]["expected"] == "0" * 40
        assert report.mismatches[0]["seq"] == victim["seq"]

    def test_missing_mutation_is_epoch_error(self, tmp_path):
        objects = _objects()
        records = self._recorded_session(tmp_path, objects)
        truncated = [r for r in records if r["kind"] != "insert"]
        report = replay_audit(truncated, objects)
        assert not report.ok and report.epoch_errors >= 1


class TestReplayCli:
    def _saved(self, tmp_path):
        objects = _objects(n=24)
        dataset = tmp_path / "data.npz"
        save_objects(dataset, objects)
        records = TestReplay()._recorded_session(tmp_path, objects)
        return dataset, tmp_path / "audit.jsonl", records

    def test_exit_zero_and_json_report(self, tmp_path, capsys):
        dataset, audit_path, _ = self._saved(tmp_path)
        rc = cli.main(
            [
                "replay",
                str(audit_path),
                "--dataset",
                str(dataset),
                "--format",
                "json",
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True and report["verified"] == 5

    def test_exit_one_on_mismatch(self, tmp_path, capsys):
        dataset, audit_path, records = self._saved(tmp_path)
        tampered = [dict(r) for r in records]
        for r in tampered:
            if r["kind"] == "query" and not r["degraded"] and not r["budgeted"]:
                r["digest"] = "f" * 40
        with audit_path.open("w", encoding="utf-8") as fh:
            for r in tampered:
                fh.write(json.dumps(r) + "\n")
        rc = cli.main(["replay", str(audit_path), "--dataset", str(dataset)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "mismatch" in out

    def test_exit_two_on_load_errors(self, tmp_path, capsys):
        dataset, audit_path, _ = self._saved(tmp_path)
        assert (
            cli.main(
                ["replay", str(tmp_path / "no.jsonl"), "--dataset", str(dataset)]
            )
            == 2
        )
        assert (
            cli.main(
                ["replay", str(audit_path), "--dataset", str(tmp_path / "no.npz")]
            )
            == 2
        )
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        assert cli.main(["replay", str(bad), "--dataset", str(dataset)]) == 2
        capsys.readouterr()
