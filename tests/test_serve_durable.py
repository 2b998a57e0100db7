"""Durable tier: WAL framing, snapshots, crash-exact warm restart."""

from __future__ import annotations

import json
import os
import struct
import zlib

import numpy as np
import pytest

from repro.datasets import synthetic
from repro.obs.metrics import MetricsRegistry
from repro.serve.audit import load_audit, replay_audit
from repro.serve.durable import (
    DurableDatasetManager,
    RecoveryError,
    durable_epoch,
    latest_snapshot,
    load_snapshot,
    read_manifest,
    write_snapshot,
)
from repro.serve.updates import DatasetManager
from repro.serve.wal import (
    FsyncPolicy,
    WalCorruptionError,
    WriteAheadLog,
    encode_frame,
    read_wal,
)

OPERATORS = ("SSD", "SSSD", "PSD", "FSD")


def _dataset(n: int = 30, seed: int = 7):
    rng = np.random.default_rng(seed)
    centers = synthetic.independent_centers(n, 2, rng)
    return synthetic.make_objects(centers, 4, 40.0, rng)


def _query(seed: int = 1):
    rng = np.random.default_rng(seed)
    return synthetic.make_query(np.array([50.0, 50.0]), 3, 20.0, rng, oid="Q")


# --------------------------------------------------------------------- #
# WAL framing
# --------------------------------------------------------------------- #


class TestWal:
    def test_roundtrip_with_sequence_numbers(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log", fsync="never")
        for i in range(5):
            assert wal.append({"kind": "insert", "epoch": i + 1}) == i
        wal.close()
        records, torn = read_wal(tmp_path / "wal.log")
        assert torn is None
        assert [r["seq"] for r in records] == [0, 1, 2, 3, 4]
        assert [r["epoch"] for r in records] == [1, 2, 3, 4, 5]

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_wal(tmp_path / "absent.log") == ([], None)

    def test_torn_tail_at_every_truncation_offset(self, tmp_path):
        frames = [encode_frame({"seq": i, "epoch": i + 1}) for i in range(3)]
        raw = b"".join(frames)
        keep = len(frames[0]) + len(frames[1])
        for cut in range(keep, len(raw) + 1):
            path = tmp_path / "wal.log"
            path.write_bytes(raw[:cut])
            records, torn = read_wal(path)
            if cut == keep:
                assert len(records) == 2 and torn is None
            elif cut == len(raw):
                assert len(records) == 3 and torn is None
            else:
                # Any mid-frame cut: durable prefix intact, tear located.
                assert len(records) == 2
                assert torn is not None and torn.offset == keep
                assert torn.kind == "wal"

    def test_mid_file_corruption_refuses_to_replay(self, tmp_path):
        frames = [encode_frame({"seq": i, "epoch": i + 1}) for i in range(3)]
        raw = bytearray(b"".join(frames))
        # Flip a payload byte of the *first* frame: valid frames follow.
        raw[10] ^= 0xFF
        path = tmp_path / "wal.log"
        path.write_bytes(bytes(raw))
        with pytest.raises(WalCorruptionError):
            read_wal(path)

    def test_garbage_length_prefix_at_tail_is_torn(self, tmp_path):
        frame = encode_frame({"seq": 0, "epoch": 1})
        path = tmp_path / "wal.log"
        path.write_bytes(frame + struct.pack("<II", 2**31, 0) + b"xx")
        records, torn = read_wal(path)
        assert len(records) == 1
        assert torn is not None and "cap" in torn.detail

    def test_crc_mismatch_at_tail_is_torn(self, tmp_path):
        good = encode_frame({"seq": 0, "epoch": 1})
        payload = json.dumps({"seq": 1}).encode()
        bad = struct.pack("<II", len(payload), zlib.crc32(payload) ^ 1)
        path = tmp_path / "wal.log"
        path.write_bytes(good + bad + payload)
        records, torn = read_wal(path)
        assert len(records) == 1
        assert torn is not None and "CRC" in torn.detail

    def test_fsync_policy_modes(self):
        assert FsyncPolicy("always").due()
        assert not FsyncPolicy("never").due()
        interval = FsyncPolicy("interval", interval_s=3600.0)
        assert interval.due()  # first call past the interval
        assert not interval.due()  # just synced
        with pytest.raises(ValueError):
            FsyncPolicy("sometimes")

    def test_interval_mode_fsyncs_the_first_append(self, tmp_path):
        registry = MetricsRegistry()
        wal = WriteAheadLog(
            tmp_path / "wal.log", fsync="interval", fsync_interval_s=3600,
            metrics=registry,
        )
        wal.append({"kind": "insert", "epoch": 1})
        wal.close()
        fsyncs = registry.get("repro_wal_fsync_seconds")
        assert fsyncs is not None and fsyncs.count == 1

    def test_kill_injection_tears_the_frame(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_WAL_KILL_AT_APPEND", "2")

        class Killed(RuntimeError):
            pass

        def fake_kill():
            raise Killed()

        wal = WriteAheadLog(
            tmp_path / "wal.log", fsync="never", kill_hook=fake_kill
        )
        wal.append({"kind": "insert", "epoch": 1})
        with pytest.raises(Killed):
            wal.append({"kind": "insert", "epoch": 2})
        wal.close()
        records, torn = read_wal(tmp_path / "wal.log")
        assert [r["epoch"] for r in records] == [1]
        assert torn is not None  # the half-written second frame

    def test_reset_truncates_but_seq_continues(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log", fsync="never")
        wal.append({"kind": "insert", "epoch": 1})
        wal.reset()
        assert (tmp_path / "wal.log").stat().st_size == 0
        assert wal.append({"kind": "insert", "epoch": 2}) == 1
        wal.close()

    def test_wal_metrics(self, tmp_path):
        registry = MetricsRegistry()
        wal = WriteAheadLog(
            tmp_path / "wal.log", fsync="always", metrics=registry
        )
        wal.append({"kind": "insert", "epoch": 1})
        wal.close()
        assert registry.value("repro_wal_appends_total") == 1.0


# --------------------------------------------------------------------- #
# Snapshot files
# --------------------------------------------------------------------- #


class TestSnapshot:
    def test_roundtrip_preserves_objects_and_epoch(self, tmp_path):
        m = DatasetManager(_dataset(20), shards=2, backend="serial")
        try:
            path = write_snapshot(
                tmp_path, m.search.searches, epoch=7, wal_seq=3
            )
            assert path.name == f"snap-{7:016d}.snap"
            snap = load_snapshot(path)
            assert snap.manifest["epoch"] == 7
            assert snap.manifest["wal_seq"] == 3
            assert len(snap.searches) == 2
            live = sorted(
                o.oid for s in snap.searches for o in s.live_objects()
            )
            assert live == sorted(o.oid for _, o in m._registry.values())
            # Zero-copy views over the map must be read-only.
            for s in snap.searches:
                for o in s.live_objects():
                    assert not o.points.flags.writeable
        finally:
            m.close()

    def test_read_manifest_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "snap-0000000000000001.snap"
        path.write_bytes(b"not a snapshot")
        with pytest.raises(ValueError):
            read_manifest(path)
        with pytest.raises(ValueError):
            load_snapshot(path)

    def test_latest_snapshot_skips_corrupt_newest(self, tmp_path):
        m = DatasetManager(_dataset(8), backend="serial")
        try:
            old = write_snapshot(tmp_path, m.search.searches, epoch=1, wal_seq=0)
            new = write_snapshot(tmp_path, m.search.searches, epoch=2, wal_seq=0)
            new.write_bytes(b"disk ate this one")
            (tmp_path / "snap-x.snap.tmp").write_bytes(b"stale tmp")
            assert latest_snapshot(tmp_path) == old
            assert not (tmp_path / "snap-x.snap.tmp").exists()
        finally:
            m.close()

    def test_corrupt_blob_crc_detected(self, tmp_path):
        m = DatasetManager(_dataset(8), backend="serial")
        try:
            path = write_snapshot(tmp_path, m.search.searches, epoch=1, wal_seq=0)
            raw = bytearray(path.read_bytes())
            raw[-1] ^= 0xFF  # flip a byte inside the last shard blob
            path.write_bytes(bytes(raw))
            with pytest.raises(ValueError, match="CRC"):
                load_snapshot(path)
        finally:
            m.close()

    def test_other_layout_version_is_refused(self, tmp_path):
        m = DatasetManager(_dataset(8), backend="serial")
        try:
            path = write_snapshot(tmp_path, m.search.searches, epoch=1, wal_seq=0)
            raw = path.read_bytes()
            assert raw.count(b'"version":2,') == 1
            path.write_bytes(raw.replace(b'"version":2,', b'"version":1,'))
            with pytest.raises(ValueError, match="version 1"):
                load_snapshot(path)
        finally:
            m.close()


# --------------------------------------------------------------------- #
# Durable manager: restart exactness
# --------------------------------------------------------------------- #


class TestDurableManager:
    def test_warm_restart_recovers_exact_epoch_and_answers(self, tmp_path):
        objects = _dataset(24)
        query = _query()
        m = DurableDatasetManager(
            objects, data_dir=tmp_path, shards=2, backend="serial",
            snapshot_every=5,
        )
        oid, _ = m.insert([[50.0, 50.0], [51.0, 51.0]])
        m.delete(objects[3].oid)
        m.delete(objects[4].oid)
        expected = {
            op: sorted(
                o.oid for o in m.query(query, op, k=2)[0].candidates
            )
            for op in OPERATORS
        }
        epoch = m.epoch
        m.close()

        assert durable_epoch(tmp_path) == (epoch, None)
        warm = DurableDatasetManager(
            [], data_dir=tmp_path, shards=2, backend="serial",
            snapshot_every=5,
        )
        try:
            assert warm.epoch == epoch
            assert warm.recovery.source == "snapshot"
            # Bit-identical answers from the memory-mapped shards, across
            # all four operators (the ISSUE's memmap correctness pin).
            for op in OPERATORS:
                got = sorted(
                    o.oid for o in warm.query(query, op, k=2)[0].candidates
                )
                assert got == expected[op], op
        finally:
            warm.close()

    def test_every_snapshot_corrupt_refuses_to_boot_cold(self, tmp_path):
        m = DurableDatasetManager(
            _dataset(50), data_dir=tmp_path, backend="serial",
            snapshot_every=8,
        )
        for i in range(16):
            m.insert([[float(i), float(i)]], oid=f"n{i}")
        m.close()
        snaps = sorted(p.name for p in tmp_path.glob("snap-*.snap"))
        assert snaps
        for name in snaps:
            raw = bytearray((tmp_path / name).read_bytes())
            raw[-1] ^= 0xFF  # inside the last shard blob: CRC mismatch
            (tmp_path / name).write_bytes(bytes(raw))
        with pytest.raises(RecoveryError) as exc:
            DurableDatasetManager([], data_dir=tmp_path, backend="serial")
        for name in snaps:
            assert name in str(exc.value)
        assert sorted(p.name for p in tmp_path.glob("snap-*.snap")) == snaps

    def test_cold_start_checkpoints_immediately(self, tmp_path):
        m = DurableDatasetManager(
            _dataset(10), data_dir=tmp_path, backend="serial"
        )
        try:
            assert m.recovery.source == "cold"
            assert latest_snapshot(tmp_path) is not None
        finally:
            m.close()

    def test_snapshot_every_truncates_wal(self, tmp_path):
        m = DurableDatasetManager(
            _dataset(10), data_dir=tmp_path, backend="serial",
            snapshot_every=2,
        )
        try:
            m.insert([[1.0, 1.0]], oid="a")
            m.insert([[2.0, 2.0]], oid="b")  # second mutation: checkpoint
            assert (tmp_path / "wal.log").stat().st_size == 0
            snap = latest_snapshot(tmp_path)
            assert read_manifest(snap)["epoch"] == 2
            m.insert([[3.0, 3.0]], oid="c")  # lands in the fresh WAL
            records, torn = read_wal(tmp_path / "wal.log")
            assert torn is None and len(records) == 1
            assert records[0]["epoch"] == 3
        finally:
            m.close()

    def test_wal_replay_past_snapshot(self, tmp_path):
        # Mutations after the last checkpoint live only in the WAL; close
        # WITHOUT the final snapshot (simulated kill) and recover.
        m = DurableDatasetManager(
            _dataset(10), data_dir=tmp_path, backend="serial",
            snapshot_every=0,
        )
        m.insert([[1.0, 1.0]], oid="a")
        m.insert([[2.0, 2.0]], oid="b")
        epoch = m.epoch
        m.wal.close()
        DatasetManager.close(m)  # skip the durable close's checkpoint

        warm = DurableDatasetManager(
            [], data_dir=tmp_path, backend="serial", snapshot_every=0
        )
        try:
            assert warm.epoch == epoch
            assert warm.recovery.wal_frames_replayed == 2
            assert warm.get("a") is not None and warm.get("b") is not None
        finally:
            warm.close()

    def test_stale_wal_after_snapshot_rename_is_skipped(self, tmp_path):
        # A kill between snapshot rename and WAL truncate leaves frames the
        # snapshot already covers; recovery must skip them, not re-apply.
        m = DurableDatasetManager(
            _dataset(10), data_dir=tmp_path, backend="serial",
            snapshot_every=0,
        )
        m.insert([[1.0, 1.0]], oid="a")
        epoch = m.epoch
        m.close()  # checkpoint covers the insert; WAL truncated
        # Recreate the pre-truncate WAL by hand.
        frame = encode_frame({
            "seq": 0, "kind": "insert", "epoch": epoch, "oid": "a",
            "points": [[1.0, 1.0]], "probs": [1.0],
        })
        (tmp_path / "wal.log").write_bytes(frame)

        warm = DurableDatasetManager(
            [], data_dir=tmp_path, backend="serial", snapshot_every=0
        )
        try:
            assert warm.epoch == epoch
            assert warm.recovery.wal_frames_replayed == 0
        finally:
            warm.close()

    def test_torn_wal_tail_flagged_not_dropped_silently(self, tmp_path):
        m = DurableDatasetManager(
            _dataset(10), data_dir=tmp_path, backend="serial",
            snapshot_every=0,
        )
        m.insert([[1.0, 1.0]], oid="a")
        epoch = m.epoch
        m.wal.close()
        DatasetManager.close(m)
        # A half-written frame at the tail (crashed append).
        extra = encode_frame({"seq": 9, "kind": "insert", "epoch": epoch + 1})
        with (tmp_path / "wal.log").open("ab") as fh:
            fh.write(extra[: len(extra) // 2])

        ground_epoch, tail = durable_epoch(tmp_path)
        assert ground_epoch == epoch and tail is not None
        warm = DurableDatasetManager(
            [], data_dir=tmp_path, backend="serial", snapshot_every=0
        )
        try:
            assert warm.epoch == epoch
            assert warm.recovery.wal_torn is not None
            assert warm.recovery.wal_torn["kind"] == "wal"
        finally:
            warm.close()

    def test_repartitioned_restart_same_epoch_same_answers(self, tmp_path):
        query = _query()
        m = DurableDatasetManager(
            _dataset(16), data_dir=tmp_path, shards=2, backend="serial"
        )
        m.insert([[50.0, 50.0]], oid="x")
        expected = sorted(
            str(o.oid) for o in m.query(query, "FSD", k=2)[0].candidates
        )
        epoch = m.epoch
        m.close()

        warm = DurableDatasetManager(
            [], data_dir=tmp_path, shards=3, backend="serial"
        )
        try:
            assert warm.recovery.repartitioned
            assert warm.epoch == epoch
            got = sorted(
                str(o.oid)
                for o in warm.query(query, "FSD", k=2)[0].candidates
            )
            assert got == expected
        finally:
            warm.close()

    def test_mutations_after_restart_keep_working(self, tmp_path):
        m = DurableDatasetManager(
            _dataset(10), data_dir=tmp_path, backend="serial"
        )
        m.insert([[1.0, 1.0]], oid="a")
        m.close()
        warm = DurableDatasetManager(
            [], data_dir=tmp_path, backend="serial"
        )
        try:
            base = warm.epoch
            warm.insert([[2.0, 2.0]], oid="b")
            warm.delete("a")
            assert warm.epoch == base + 2
        finally:
            warm.close()
        again = DurableDatasetManager(
            [], data_dir=tmp_path, backend="serial"
        )
        try:
            assert again.get("b") is not None and again.get("a") is None
        finally:
            again.close()

    def test_recovery_metrics_and_status(self, tmp_path):
        registry = MetricsRegistry()
        m = DurableDatasetManager(
            _dataset(10), data_dir=tmp_path, backend="serial",
            metrics=registry,
        )
        try:
            status = m.durability_status()
            assert status["data_dir"] == str(tmp_path)
            assert status["fsync"] == "always"
            assert status["recovery"]["source"] == "cold"
            assert registry.total("repro_snapshots_total") >= 1.0
        finally:
            m.close()


# --------------------------------------------------------------------- #
# Audit: torn tail + two-log reconciliation
# --------------------------------------------------------------------- #


class TestAuditCrash:
    def _audit_rows(self, path, rows):
        with path.open("w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")

    def test_load_audit_flags_torn_final_line(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        self._audit_rows(
            path,
            [{"kind": "query", "seq": 0, "epoch": 0, "degraded": True}],
        )
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"kind": "query", "seq": 1, "ep')  # crashed append
        records = load_audit(path)
        assert len(records) == 1
        assert records.torn_tail is not None
        assert records.torn_tail.kind == "audit"
        report = replay_audit(records, _dataset(4))
        assert report.ok and report.torn_tail is not None

    def test_load_audit_rejects_mid_file_damage(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        path.write_text('{"kind": "que\n{"kind": "query", "seq": 1}\n')
        with pytest.raises(ValueError, match="mid-file"):
            load_audit(path)

    def test_unterminated_final_line_is_torn_even_if_valid_json(
        self, tmp_path
    ):
        path = tmp_path / "audit.jsonl"
        path.write_text('{"kind": "query", "seq": 0, "epoch": 0}')  # no \n
        records = load_audit(path)
        assert len(records) == 0
        assert records.torn_tail is not None

    def test_recovery_reconciles_audit_with_wal(self, tmp_path):
        data_dir = tmp_path / "data"
        audit_path = tmp_path / "audit.jsonl"
        objects = _dataset(8)
        m = DurableDatasetManager(
            objects, data_dir=data_dir, backend="serial", snapshot_every=0,
        )
        m.insert([[1.0, 1.0], [2.0, 2.0]], oid="lost")
        m.wal.close()
        DatasetManager.close(m)
        # The crash window: WAL has the insert, the audit log never saw it,
        # and the audit's own tail is torn mid-line.
        self._audit_rows(audit_path, [])
        with audit_path.open("a", encoding="utf-8") as fh:
            fh.write('{"kind": "query", "seq"')

        warm = DurableDatasetManager(
            [], data_dir=data_dir, backend="serial", snapshot_every=0,
            audit_path=audit_path,
        )
        try:
            assert warm.recovery.audit_torn is not None
            assert warm.recovery.audit_reconciled == 1
        finally:
            warm.close()
        records = load_audit(audit_path)
        assert records.torn_tail is None  # tail repaired on disk
        recovered = [r for r in records if r.get("recovered")]
        assert len(recovered) == 1 and recovered[0]["oid"] == "lost"
        report = replay_audit(records, objects)
        assert report.ok and report.mutations_applied == 1


# --------------------------------------------------------------------- #
# Serving while recovering
# --------------------------------------------------------------------- #


class TestRecoveringServer:
    def test_engine_routes_503_until_recovered(self, tmp_path):
        from repro.serve.server import ServeApp

        m = DurableDatasetManager(
            _dataset(8), data_dir=tmp_path, backend="serial",
            defer_recovery=True,
        )
        app = ServeApp(m)
        try:
            app.recovering = True
            assert app.healthz()["status"] == "recovering"
            status, body = app.handle(
                "POST", "/query",
                {"points": [[1.0, 1.0], [2.0, 2.0]], "operator": "FSD"},
            )
            assert status == 503
            assert body["retryable"] and body["recovering"]
            m.recover()
            app.recovering = False
            status, body = app.handle(
                "POST", "/query",
                {"points": [[1.0, 1.0], [2.0, 2.0]], "operator": "FSD"},
            )
            assert status == 200
        finally:
            m.close()

    def test_status_surfaces_durability_fields(self, tmp_path):
        from repro.serve.server import ServeApp

        m = DurableDatasetManager(
            _dataset(8), data_dir=tmp_path, backend="serial"
        )
        app = ServeApp(m)
        try:
            body = app.status()
            assert body["durability"]["fsync"] == "always"
            assert body["wal_seq"] == 0
            assert body["last_snapshot_epoch"] == 0
            assert body["recovery"]["source"] == "cold"
        finally:
            m.close()

    def test_plain_manager_status_has_no_durability(self):
        from repro.serve.server import ServeApp

        m = DatasetManager(_dataset(8), backend="serial")
        app = ServeApp(m)
        try:
            assert "durability" not in app.status()
        finally:
            m.close()
