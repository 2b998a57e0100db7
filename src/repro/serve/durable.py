"""Durable dataset tier: snapshots + WAL + crash-safe warm restart.

The serve layer's :class:`~repro.serve.updates.DatasetManager` keeps the
dataset in process memory; this module gives it a disk life:

* every acknowledged insert/delete (and forced compaction) appends one
  CRC-checked frame to a :class:`~repro.serve.wal.WriteAheadLog` *before*
  the acknowledgement,
* every ``snapshot_every`` mutations (and on close/drain) the full dataset
  is checkpointed into a **snapshot file** and the WAL truncated,
* on restart, :meth:`DurableDatasetManager.recover` loads the newest valid
  snapshot (zero-copy via ``numpy.memmap``), replays the WAL tail, and
  recovers the **exact** pre-crash durable epoch — a torn final WAL frame
  is tolerated and flagged, never silently dropped.

Snapshot file format (``snap-<epoch>.snap``, atomic tmp+rename)::

    [8B magic "RSNAP1\\n\\0"][u64 manifest_len][manifest JSON][pad to 64]
    [shard 0 blob][pad][shard 1 blob][pad]...

The manifest's ``version`` names the shard-blob layout (:data:`SNAP_VERSION`);
a snapshot of any other version is refused, never half-read.  Each shard
blob is exactly a :func:`repro.serve.shm.pack_shard` segment — the
instance matrices plus the R-tree's own arrays, the layout the pool
backend publishes to shared memory — so :func:`repro.serve.shm
.unpack_shard` attaches a structurally identical search to a memory-map
without copying: instance matrices, probability vectors, MBR corners, and
R-tree arrays are read-only views into the mapped file.  Objects larger
than RAM page in lazily; :meth:`Snapshot.warm` optionally touches one
byte per page up front so first-query latency is paid at startup.

Crash-exactness contract: under ``fsync=always`` (the default) every
epoch a client saw an acknowledgement for is recoverable after SIGKILL at
*any* instant, including mid-frame (torn tail).  Under ``interval`` /
``never`` the un-synced tail may be lost — the recovered epoch is then the
durable prefix, still self-consistent, and ``repro replay`` will report
the audit records that outran the log.  See DESIGN.md §17.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.core.nnc import NNCSearch
from repro.objects.uncertain import UncertainObject
from repro.objects.validate import ValidationReport
from repro.obs.log import log_event
from repro.serve.shard import ShardedSearch
from repro.serve.shm import _aligned, pack_shard, unpack_shard
from repro.serve.updates import DatasetManager
from repro.serve.wal import TornTail, WriteAheadLog, read_wal

__all__ = [
    "DurableDatasetManager",
    "RecoveryError",
    "RecoveryReport",
    "Snapshot",
    "durable_epoch",
    "latest_snapshot",
    "load_snapshot",
    "read_manifest",
    "write_snapshot",
]

SNAP_MAGIC = b"RSNAP1\n\0"
#: Manifest ``version`` of the shard-blob layout this module reads and
#: writes (2: the R-tree's own arrays, see :func:`repro.serve.shm.pack_shard`).
SNAP_VERSION = 2
_SNAP_GLOB = "snap-*.snap"
_MAX_MANIFEST = 64 * 1024 * 1024
#: Snapshot generations kept on disk (newest + one fallback).
_KEEP_SNAPSHOTS = 2


class RecoveryError(RuntimeError):
    """Recovery could not reconstruct a consistent dataset.

    Raised when WAL replay lands on a different epoch than the frame
    recorded, or when snapshot files exist but none of them loads —
    serving would hand out answers for a dataset that never existed, so
    the manager refuses to come up instead.
    """


# --------------------------------------------------------------------- #
# Snapshot files
# --------------------------------------------------------------------- #


class Snapshot:
    """A loaded snapshot: manifest + per-shard searches over a memmap.

    The searches' arrays are zero-copy views into :attr:`mm`; keep the
    handle referenced for as long as the searches serve (the manager holds
    it for its lifetime).  Deleting the file while mapped is safe on
    POSIX — the pages live until the mapping drops.
    """

    def __init__(
        self, path: Path, manifest: dict, searches: list[NNCSearch], mm
    ) -> None:
        self.path = path
        self.manifest = manifest
        self.searches = searches
        self.mm = mm


def write_snapshot(
    data_dir: str | Path,
    searches: Sequence[NNCSearch],
    *,
    epoch: int,
    wal_seq: int,
    extra: dict | None = None,
    metrics: Any = None,
) -> Path:
    """Checkpoint per-shard searches into ``snap-<epoch>.snap``, atomically.

    The file is fully written and fsynced under a ``.tmp`` name, then
    ``os.replace``d into place and the directory fsynced — a crash at any
    point leaves either the previous snapshot set or the new file, never a
    half-written ``.snap``.
    """
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    blobs = [pack_shard(s) for s in searches]
    spans = []
    off = 0
    for blob in blobs:
        spans.append([off, len(blob), zlib.crc32(blob)])
        off += _aligned(len(blob))
    manifest = {
        "version": SNAP_VERSION,
        "epoch": epoch,
        "wal_seq": wal_seq,
        "shards": len(blobs),
        "created": time.time(),
        "spans": spans,
        **(extra or {}),
    }
    mbytes = json.dumps(manifest, separators=(",", ":")).encode()
    data_start = _aligned(len(SNAP_MAGIC) + 8 + len(mbytes))
    path = data_dir / f"snap-{epoch:016d}.snap"
    tmp = path.with_suffix(".snap.tmp")
    with tmp.open("wb") as fh:
        fh.write(SNAP_MAGIC)
        fh.write(len(mbytes).to_bytes(8, "little"))
        fh.write(mbytes)
        fh.write(b"\0" * (data_start - len(SNAP_MAGIC) - 8 - len(mbytes)))
        for i, blob in enumerate(blobs):
            fh.write(blob)
            fh.write(b"\0" * (_aligned(len(blob)) - len(blob)))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_dir(data_dir)
    size = path.stat().st_size
    if metrics is not None:
        metrics.set_gauge("repro_snapshot_bytes", size)
        metrics.inc("repro_snapshots_total")
    return path


def read_manifest(path: str | Path) -> dict:
    """Parse just a snapshot's manifest (no shard rebuild, no data IO)."""
    with Path(path).open("rb") as fh:
        magic = fh.read(len(SNAP_MAGIC))
        if magic != SNAP_MAGIC:
            raise ValueError(f"{path}: bad snapshot magic")
        mlen = int.from_bytes(fh.read(8), "little")
        if mlen <= 0 or mlen > _MAX_MANIFEST:
            raise ValueError(f"{path}: manifest length out of bounds")
        raw = fh.read(mlen)
    if len(raw) != mlen:
        raise ValueError(f"{path}: truncated manifest")
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: manifest is not valid JSON: {exc}")


def load_snapshot(path: str | Path, *, verify: bool = True) -> Snapshot:
    """Map a snapshot and rebuild its per-shard searches, zero-copy.

    Args:
        verify: CRC-check every shard blob (one sequential read of the
            file).  Pass False to defer all IO to query-time paging for
            datasets far larger than RAM.

    Raises:
        ValueError: the file is not a valid snapshot (bad magic, manifest,
            layout version, span bounds, or CRC).
    """
    path = Path(path)
    mm = np.memmap(path, dtype=np.uint8, mode="r")
    buf = memoryview(mm)
    if bytes(buf[: len(SNAP_MAGIC)]) != SNAP_MAGIC:
        raise ValueError(f"{path}: bad snapshot magic")
    mlen = int.from_bytes(bytes(buf[len(SNAP_MAGIC): len(SNAP_MAGIC) + 8]),
                          "little")
    mstart = len(SNAP_MAGIC) + 8
    if mlen <= 0 or mstart + mlen > len(buf):
        raise ValueError(f"{path}: manifest length out of bounds")
    try:
        manifest = json.loads(bytes(buf[mstart: mstart + mlen]))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: manifest is not valid JSON: {exc}")
    if manifest.get("version") != SNAP_VERSION:
        raise ValueError(
            f"{path}: snapshot layout version {manifest.get('version')!r}, "
            f"this build reads version {SNAP_VERSION}"
        )
    data_start = _aligned(mstart + mlen)
    searches: list[NNCSearch] = []
    for j, (off, length, crc) in enumerate(manifest["spans"]):
        lo = data_start + off
        if lo + length > len(buf):
            raise ValueError(f"{path}: shard {j} span out of bounds")
        blob = buf[lo: lo + length]
        if verify and zlib.crc32(blob) != crc:
            raise ValueError(f"{path}: shard {j} CRC mismatch")
        searches.append(unpack_shard(blob))
    return Snapshot(path, manifest, searches, mm)


def _load_latest(data_dir: str | Path) -> tuple[Path, "Snapshot"] | None:
    """Newest valid snapshot, loaded (stale ``.tmp`` files cleaned).

    Snapshot names embed the epoch zero-padded, so lexical order is epoch
    order; invalid files (a crash can't produce one, but disks can) are
    skipped in favour of the next older generation.  Returning the loaded
    handle lets recovery reuse the validation load instead of mapping the
    file twice.
    """
    data_dir = Path(data_dir)
    if not data_dir.is_dir():
        return None
    for tmp in data_dir.glob("*.tmp"):
        tmp.unlink(missing_ok=True)
    for path in sorted(data_dir.glob(_SNAP_GLOB), reverse=True):
        try:
            return path, load_snapshot(path)
        except (ValueError, OSError) as exc:
            log_event(
                "durable.snapshot_invalid", level="error",
                path=str(path), error=str(exc),
            )
    return None


def latest_snapshot(data_dir: str | Path) -> Path | None:
    """Path of the newest *valid* snapshot in ``data_dir``, if any."""
    found = _load_latest(data_dir)
    return found[0] if found is not None else None


def durable_epoch(data_dir: str | Path) -> tuple[int, TornTail | None]:
    """The exact epoch a warm restart of ``data_dir`` must recover.

    Newest valid snapshot epoch, advanced by every intact WAL frame past
    it.  Also returns the WAL torn-tail flag, if any — ``python -m
    repro.scenario crash`` holds a restarted server to this ground truth.
    """
    snap = latest_snapshot(data_dir)
    epoch = 0
    if snap is not None:
        epoch = int(read_manifest(snap)["epoch"])
    records, torn = read_wal(Path(data_dir) / "wal.log")
    for rec in records:
        if rec.get("epoch", 0) > epoch:
            epoch = int(rec["epoch"])
    return epoch, torn


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# --------------------------------------------------------------------- #
# Recovery report
# --------------------------------------------------------------------- #


@dataclass
class RecoveryReport:
    """What a warm restart did, surfaced on ``/status`` and the CLI."""

    source: str = "cold"  #: "cold" | "snapshot" | "wal-only"
    snapshot_path: str | None = None
    snapshot_epoch: int | None = None
    wal_frames_replayed: int = 0
    wal_torn: dict | None = None  #: TornTail.to_dict() of a torn WAL frame
    audit_torn: dict | None = None  #: torn audit line repaired at restart
    audit_reconciled: int = 0  #: WAL mutations re-appended to the audit log
    repartitioned: bool = False  #: snapshot layout mismatched; rebuilt
    recovered_epoch: int = 0
    elapsed_s: float = 0.0

    def to_dict(self) -> dict:
        """JSON-ready form, as served under ``/status``'s ``recovery``."""
        return {
            "source": self.source,
            "snapshot_path": self.snapshot_path,
            "snapshot_epoch": self.snapshot_epoch,
            "wal_frames_replayed": self.wal_frames_replayed,
            "wal_torn": self.wal_torn,
            "audit_torn": self.audit_torn,
            "audit_reconciled": self.audit_reconciled,
            "repartitioned": self.repartitioned,
            "recovered_epoch": self.recovered_epoch,
            "elapsed_s": self.elapsed_s,
        }


# --------------------------------------------------------------------- #
# Durable manager
# --------------------------------------------------------------------- #


class DurableDatasetManager(DatasetManager):
    """A :class:`DatasetManager` whose dataset survives the process.

    Args:
        objects: the *cold-start* dataset — used only when ``data_dir``
            holds no snapshot and no WAL; a warm restart ignores it and
            recovers the durable state instead.
        data_dir: directory owning ``wal.log`` and ``snap-*.snap``.
        fsync / fsync_interval_s: WAL durability policy
            (:class:`repro.serve.wal.FsyncPolicy`).
        snapshot_every: mutations between checkpoints (0 disables periodic
            snapshots; close/drain still checkpoints).
        audit_path: the server's audit log; recovery repairs a torn final
            line and re-appends WAL mutations the audit lost in the crash
            window (flagged ``"recovered": true``) so ``repro replay``
            stays exit-0 after a kill.
        defer_recovery: skip recovery in the constructor; the caller must
            invoke :meth:`recover` before serving engine traffic (the
            HTTP layer answers 503 ``retryable`` meanwhile).
        **kwargs: the :class:`DatasetManager` knobs (shards, partitioner,
            backend, on_invalid, compact_threshold,
            metrics, workers, start_method, profile_hz).
    """

    def __init__(
        self,
        objects: Sequence[UncertainObject] = (),
        *,
        data_dir: str | Path,
        fsync: str = "always",
        fsync_interval_s: float = 0.5,
        snapshot_every: int = 256,
        audit_path: str | Path | None = None,
        defer_recovery: bool = False,
        shards: int = 1,
        partitioner: str = "round-robin",
        backend: str = "serial",
        on_invalid: str = "strict",
        compact_threshold: float = 0.3,
        metrics: Any = None,
        workers: int | None = None,
        start_method: str | None = None,
        profile_hz: float = 0.0,
    ) -> None:
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.fsync_interval_s = fsync_interval_s
        self.snapshot_every = snapshot_every
        self.audit_path = Path(audit_path) if audit_path else None
        self._cfg = {
            "shards": shards,
            "partitioner": partitioner,
            "backend": backend,
            "workers": workers,
            "start_method": start_method,
            "profile_hz": profile_hz,
        }
        self._pending_objects = list(objects)
        self._durable_ready = False
        self._since_snapshot = 0
        self._last_snapshot_epoch: int | None = None
        self._snapshot: Snapshot | None = None
        self.wal: WriteAheadLog | None = None
        self.recovery: RecoveryReport | None = None
        # Minimal pre-recovery state (empty dataset): health endpoints work
        # and the write lock exists; engine traffic is gated by the HTTP
        # layer's `recovering` 503 until recover() swaps the real data in.
        self._init_from_search(
            ShardedSearch([], shards=shards, partitioner=partitioner,
                          backend=backend, metrics=metrics, workers=workers,
                          start_method=start_method, profile_hz=profile_hz),
            on_invalid=on_invalid,
            compact_threshold=compact_threshold,
            metrics=metrics,
            load_report=ValidationReport(policy=on_invalid),
        )
        if not defer_recovery:
            self.recover()

    # ----------------------------- recovery ---------------------------- #

    def recover(self) -> RecoveryReport:
        """Load snapshot + replay WAL tail; returns the recovery report.

        Idempotent in effect (a second call re-derives the same state from
        disk) but intended to run exactly once, before serving.
        """
        t0 = time.perf_counter()
        report = RecoveryReport()
        wal_path = self.data_dir / "wal.log"
        records, torn = read_wal(wal_path)
        if torn is not None:
            report.wal_torn = torn.to_dict()
            log_event(
                "durable.wal_torn_tail", level="error",
                path=str(wal_path), **torn.to_dict(),
            )
        found = _load_latest(self.data_dir)
        if found is None:
            unreadable = sorted(p.name for p in self.data_dir.glob(_SNAP_GLOB))
            if unreadable:
                # Booting cold here would serve an empty dataset over the
                # durable one (and prune the files it could not read).
                raise RecoveryError(
                    f"no snapshot in {self.data_dir} loads: "
                    f"{', '.join(unreadable)}"
                )
        handle: Snapshot | None = None
        base_epoch = 0
        snap_wal_seq = None
        cfg = self._cfg
        if found is not None:
            snap_path, handle = found
            base_epoch = int(handle.manifest["epoch"])
            snap_wal_seq = int(handle.manifest.get("wal_seq", 0))
            report.source = "snapshot"
            report.snapshot_path = str(snap_path)
            report.snapshot_epoch = base_epoch
            compatible = (
                len(handle.searches) == cfg["shards"]
                and handle.manifest.get("partitioner") == cfg["partitioner"]
            )
            if compatible:
                new_search = ShardedSearch.from_searches(
                    handle.searches,
                    partitioner=cfg["partitioner"],
                    backend=cfg["backend"],
                    metrics=self.metrics,
                    workers=cfg["workers"],
                    start_method=cfg["start_method"],
                    profile_hz=cfg["profile_hz"],
                )
            else:
                # Layout changed across the restart (different --shards /
                # --partitioner): materialise the live objects out of the
                # map and repartition from scratch.  Same epoch, same
                # answers — just no longer zero-copy.
                report.repartitioned = True
                objs = [
                    UncertainObject(
                        np.array(o.points), np.array(o.probs), oid=o.oid
                    )
                    for s in handle.searches
                    for o in s.live_objects()
                ]
                new_search = self._build_search(objs)
                handle = None
        else:
            if records:
                report.source = "wal-only"
            from repro.objects.validate import validate_objects

            kept, self.load_report = validate_objects(
                self._pending_objects,
                on_invalid=self.on_invalid,
                metrics=self.metrics,
            )
            self._assign_missing_oids(kept)
            new_search = self._build_search(kept)
        with self._lock.write():
            old = self.search
            self.search = new_search
            self._registry = self._build_registry(new_search)
            self._epoch = base_epoch
            self._export_gauges()
        old.close()
        self._snapshot = handle
        self._last_snapshot_epoch = (
            report.snapshot_epoch if found is not None else None
        )
        start_seq = max(
            [snap_wal_seq or 0]
            + [int(r.get("seq", -1)) + 1 for r in records]
        )
        self.wal = WriteAheadLog(
            wal_path,
            fsync=self.fsync,
            fsync_interval_s=self.fsync_interval_s,
            metrics=self.metrics,
            start_seq=start_seq,
        )
        report.wal_frames_replayed = self._replay(records, base_epoch)
        if self.audit_path is not None:
            self._reconcile_audit(records, report)
        self._durable_ready = True
        # Checkpoint now when the WAL carried state (or was torn): folds the
        # replayed tail into a fresh snapshot, truncates the log, and makes
        # the very first boot durable before any traffic.
        if (
            report.source == "cold"
            or report.wal_frames_replayed
            or report.repartitioned
            or torn is not None
        ):
            with self._lock.write():
                self._snapshot_locked()
        report.recovered_epoch = self._epoch
        report.elapsed_s = time.perf_counter() - t0
        self.recovery = report
        if self.metrics is not None:
            self.metrics.observe("repro_recovery_seconds", report.elapsed_s)
        log_event("durable.recovered", **report.to_dict())
        return report

    def _build_search(self, objects: list[UncertainObject]) -> ShardedSearch:
        cfg = self._cfg
        return ShardedSearch(
            objects,
            shards=cfg["shards"],
            partitioner=cfg["partitioner"],
            backend=cfg["backend"],
            metrics=self.metrics,
            workers=cfg["workers"],
            start_method=cfg["start_method"],
            profile_hz=cfg["profile_hz"],
        )

    def _replay(self, records: list[dict], base_epoch: int) -> int:
        """Re-apply WAL frames past the snapshot; exact-epoch asserted."""
        replayed = 0
        for rec in records:
            epoch = int(rec.get("epoch", 0))
            kind = rec.get("kind")
            # A frame the snapshot already covers is skipped (the log can
            # trail a crash between snapshot-rename and truncate).  Compact
            # frames don't bump the epoch, so one recorded *at* the base
            # epoch re-runs — re-compacting is an idempotent no-op.
            if epoch <= base_epoch and not (
                kind == "compact" and epoch == base_epoch
            ):
                continue
            if kind == "insert":
                _, got = self.insert(
                    rec["points"], rec["probs"], oid=rec["oid"]
                )
            elif kind == "delete":
                _, got = self.delete(rec["oid"])
            elif kind == "compact":
                with self._lock.write():
                    self._compact_locked(0.0)
                got = self._epoch
            else:
                raise RecoveryError(
                    f"unknown WAL record kind {kind!r} (seq {rec.get('seq')})"
                )
            if got != epoch:
                raise RecoveryError(
                    f"WAL replay diverged: frame seq {rec.get('seq')} "
                    f"({kind}) recorded epoch {epoch}, replay reached {got}"
                )
            replayed += 1
        return replayed

    def _reconcile_audit(
        self, records: list[dict], report: RecoveryReport
    ) -> None:
        """Repair the audit log's crash window so ``repro replay`` passes.

        Two crash artifacts are possible: a torn final JSONL line (the
        process died mid-append) and WAL-durable mutations whose audit
        record never made it (died between the WAL fsync and the audit
        write).  The first is truncated away, the second re-appended from
        the WAL frame — which carries the full instance matrix — flagged
        ``"recovered": true``.
        """
        from repro.serve.audit import load_audit

        if not self.audit_path.exists():
            audit_records: list[dict] = []
        else:
            audit_records = load_audit(self.audit_path)
            tail = getattr(audit_records, "torn_tail", None)
            if tail is not None:
                report.audit_torn = tail.to_dict()
                with self.audit_path.open("rb+") as fh:
                    fh.truncate(tail.offset)
                    fh.flush()
                    os.fsync(fh.fileno())
                log_event(
                    "durable.audit_torn_tail", level="error",
                    path=str(self.audit_path), **tail.to_dict(),
                )
        audited = max(
            (
                int(r.get("epoch", 0))
                for r in audit_records
                if r.get("kind") in ("insert", "delete")
            ),
            default=0,
        )
        missing = [
            r for r in records
            if r.get("kind") in ("insert", "delete")
            and int(r.get("epoch", 0)) > audited
        ]
        if not missing:
            return
        with self.audit_path.open("a", encoding="utf-8") as fh:
            for rec in missing:
                row = {
                    "kind": rec["kind"],
                    "seq": rec.get("seq", 0),
                    "ts": time.time(),
                    "request_id": None,
                    "epoch": rec["epoch"],
                    "oid": rec["oid"],
                    "recovered": True,
                }
                if rec["kind"] == "insert":
                    row["points"] = rec["points"]
                    row["probs"] = rec["probs"]
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        report.audit_reconciled = len(missing)
        log_event(
            "durable.audit_reconciled", count=len(missing),
            path=str(self.audit_path),
        )

    # ------------------------- mutation logging ------------------------ #

    def _mutated(self, kind: str, *, oid=None, obj=None, epoch: int = 0,
                 removed: int = 0) -> None:
        """WAL-append the mutation (inside the write lock, pre-ack)."""
        if not self._durable_ready or self.wal is None:
            return  # recovery replay / pre-recovery: already on disk
        rec: dict = {"kind": kind, "epoch": epoch}
        if kind == "insert":
            rec["oid"] = oid
            rec["points"] = [list(map(float, p)) for p in obj.points]
            rec["probs"] = [float(p) for p in obj.probs]
        elif kind == "delete":
            rec["oid"] = oid
        else:
            rec["removed"] = removed
        self.wal.append(rec)
        self._since_snapshot += 1
        if self.snapshot_every and self._since_snapshot >= self.snapshot_every:
            self._snapshot_locked()

    def _snapshot_locked(self) -> None:
        """Checkpoint + WAL truncate; caller holds the write lock."""
        path = write_snapshot(
            self.data_dir,
            self.search.searches,
            epoch=self._epoch,
            wal_seq=self.wal.seq if self.wal is not None else 0,
            extra={
                "partitioner": self._cfg["partitioner"],
                "objects": len(self._registry),
            },
            metrics=self.metrics,
        )
        if self.wal is not None:
            self.wal.reset()
        self._since_snapshot = 0
        self._last_snapshot_epoch = self._epoch
        self._prune_snapshots()
        log_event(
            "durable.snapshot", path=str(path), epoch=self._epoch,
            bytes=path.stat().st_size,
        )

    def _prune_snapshots(self) -> None:
        snaps = sorted(self.data_dir.glob(_SNAP_GLOB))
        for stale in snaps[:-_KEEP_SNAPSHOTS]:
            # Unlink-while-mapped is safe: an open memmap keeps the pages.
            stale.unlink(missing_ok=True)

    # ------------------------------ status ----------------------------- #

    def durability_status(self) -> dict:
        """``/status`` durability section (wal_seq, snapshots, recovery)."""
        return {
            "data_dir": str(self.data_dir),
            "fsync": self.fsync,
            "wal_seq": self.wal.seq if self.wal is not None else 0,
            "wal_appends": self.wal.appends if self.wal is not None else 0,
            "last_snapshot_epoch": self._last_snapshot_epoch,
            "snapshot_every": self.snapshot_every,
            "since_snapshot": self._since_snapshot,
            "recovery": (
                self.recovery.to_dict() if self.recovery is not None else None
            ),
        }

    def close(self) -> None:
        """Final checkpoint, WAL close, then the base teardown.

        Ordering matters at SIGTERM: the snapshot (atomic tmp+rename) and
        WAL truncate happen while the search is still alive, then pools and
        shared memory are released.  Idempotent.
        """
        if getattr(self, "_closed", False):
            return
        if self._durable_ready and self.wal is not None:
            with self._lock.write():
                if self._since_snapshot:
                    self._snapshot_locked()
            self.wal.close()
        super().close()

