"""Per-query audit log and deterministic replay verification.

Every served mutation and query appends one JSONL record to an
:class:`AuditLog`: the full request (points, probs, operator, k, metric),
the dataset **epoch** it executed against, a SHA-1 **answer digest**, and
the degradation/cache flags.  The log is the service's black box — and,
because the engine is deterministic for exact (non-degraded) answers, it
is also *replayable*: :func:`replay_audit` rebuilds the dataset, re-applies
the recorded mutations in epoch order, re-executes each exact query at its
recorded epoch, and verifies the answer digests bit-for-bit.

Determinism argument (DESIGN.md §14): an exact answer is a pure function
of (dataset at epoch, query points/probs, operator, k, metric) — the
engine has no RNG, JSON round-trips floats exactly (``repr`` shortest
round-trip), and ``repro.objects.io`` round-trips oids — so a digest
mismatch on replay means the answer changed, not the encoding.  Degraded
answers depend on wall-clock budgets and are skipped (recorded, audited,
but not digest-verified).

The ``repro replay`` CLI verb drives :func:`replay_audit` against a saved
dataset and exits non-zero on any mismatch.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.serve.wal import FsyncPolicy, TornTail

__all__ = [
    "AuditLog",
    "AuditRecords",
    "ReplayReport",
    "answer_digest",
    "load_audit",
    "replay_audit",
]


def answer_digest(candidates: Iterable[dict]) -> str:
    """SHA-1 digest of an answer's ``(oid, dominators)`` pairs.

    Canonicalised by sorting on the JSON encoding of each pair, so the
    digest is independent of candidate order (shard backends may tie-break
    equal distances differently) and stable across processes.
    """
    pairs = sorted(
        json.dumps([c["oid"], c["dominators"]], separators=(",", ":"))
        for c in candidates
    )
    h = hashlib.sha1()
    for pair in pairs:
        h.update(pair.encode())
        h.update(b"\n")
    return h.hexdigest()


class AuditLog:
    """Thread-safe JSONL audit sink (one record per served request).

    Args:
        path: output file, opened in append mode (a restarted server keeps
            extending its log).
        metrics: optional :class:`repro.obs.metrics.MetricsRegistry`; feeds
            ``repro_audit_records_total{kind}``.
        fsync / fsync_interval_s: durability policy, shared with the WAL
            (:class:`repro.serve.wal.FsyncPolicy`).  The default ``never``
            keeps the historical flush-only behaviour; the durable serve
            path passes its own policy so the audit trail and the WAL lose
            (at most) the same crash window.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        metrics: Any = None,
        fsync: str = "never",
        fsync_interval_s: float = 0.5,
    ) -> None:
        self.path = Path(path)
        self.metrics = metrics
        self.policy = FsyncPolicy(fsync, fsync_interval_s)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("a", encoding="utf-8")
        self._lock = threading.Lock()
        self._seq = 0
        self.counts: dict[str, int] = {}

    def append(self, kind: str, record: dict) -> int:
        """Append one record; returns its sequence number."""
        with self._lock:
            seq = self._seq
            self._seq += 1
            row = {"kind": kind, "seq": seq, "ts": time.time()}
            row.update(record)
            self._fh.write(json.dumps(row, separators=(",", ":")) + "\n")
            self._fh.flush()
            if self.policy.due():
                os.fsync(self._fh.fileno())
            self.counts[kind] = self.counts.get(kind, 0) + 1
        if self.metrics is not None:
            self.metrics.inc("repro_audit_records_total", 1, {"kind": kind})
        return seq

    def record_query(
        self,
        req: dict,
        body: dict,
        epoch: int,
        *,
        request_id: str | None = None,
        cached: bool = False,
    ) -> int:
        """Audit one /query: full request, epoch, digest, flags."""
        query = req["query"]
        record = {
            "request_id": request_id,
            "epoch": epoch,
            "operator": req["operator"],
            "k": req["k"],
            "metric": req["metric"],
            "points": [list(map(float, p)) for p in query.points],
            "probs": [float(p) for p in query.probs],
            "budgeted": req["budget"] is not None,
            "cached": cached,
            "degraded": bool(body.get("degraded")),
            "degradation": body.get("degradation"),
            "count": body.get("count"),
            "digest": answer_digest(body.get("candidates") or ()),
            "counters": body.get("counters"),
        }
        if req.get("shards") is not None:
            # Shard-scoped node reads answer over a subset of the dataset;
            # the replayer cannot verify them against the full rebuild and
            # skips them (the router's own log carries the merged answer).
            record["shards"] = list(req["shards"])
        return self.append("query", record)

    def record_insert(
        self, obj, oid, epoch: int, *, request_id: str | None = None
    ) -> int:
        """Audit one /insert with the *final* oid and resulting epoch."""
        return self.append(
            "insert",
            {
                "request_id": request_id,
                "epoch": epoch,
                "oid": oid,
                "points": [list(map(float, p)) for p in obj.points],
                "probs": [float(p) for p in obj.probs],
            },
        )

    def record_delete(
        self, oid, epoch: int, *, request_id: str | None = None
    ) -> int:
        """Audit one /delete with the resulting epoch."""
        return self.append(
            "delete", {"request_id": request_id, "epoch": epoch, "oid": oid}
        )

    def stats(self) -> dict:
        """Record tallies by kind plus the output path."""
        with self._lock:
            return {"path": str(self.path), "records": dict(self.counts)}

    def close(self) -> None:
        """Close the underlying file (further appends would fail)."""
        with self._lock:
            self._fh.close()


class AuditRecords(list):
    """Parsed audit records, plus the torn-tail flag of a crashed append.

    A plain list of dicts; :attr:`torn_tail` is a
    :class:`repro.serve.wal.TornTail` locating a truncated final line, or
    None for a clean log.
    """

    torn_tail: TornTail | None = None


def load_audit(path: str | Path) -> AuditRecords:
    """Parse a JSONL audit file, tolerating one torn line at the tail.

    Every complete append is ``json + "\\n"`` written in one call with the
    newline as the final byte, so the only crash artifact is an
    *unterminated* final line.  That line is skipped and flagged on the
    returned :class:`AuditRecords`' ``torn_tail`` — never silently
    dropped, never replayed.  A malformed line that *is* newline-terminated
    cannot be a partial write and raises wherever it appears.

    Raises:
        ValueError: a terminated line fails to parse (external corruption).
    """
    raw = Path(path).read_bytes()
    records = AuditRecords()
    pos = 0
    size = len(raw)
    while pos < size:
        nl = raw.find(b"\n", pos)
        end = size if nl < 0 else nl
        line = raw[pos:end].strip()
        if line:
            torn = None
            if nl < 0:
                # No terminator: the append died mid-write.  Even if the
                # JSON happens to parse, keep it out — a restarted server
                # appending to this file would merge the next record onto
                # the unterminated line.
                torn = "final line missing its newline terminator"
            else:
                try:
                    records.append(json.loads(line))
                except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                    # Terminated lines were written whole; a parse failure
                    # here is corruption, not a crash signature.
                    raise ValueError(
                        f"{path}: malformed audit line at byte {pos} — "
                        f"mid-file corruption ({exc})"
                    ) from exc
            if torn is not None:
                records.torn_tail = TornTail(
                    kind="audit", offset=pos, length=size - pos, detail=torn
                )
                break
        pos = end + 1
    return records


@dataclass
class ReplayReport:
    """Outcome of :func:`replay_audit`."""

    records: int = 0
    mutations_applied: int = 0
    replayed: int = 0
    verified: int = 0
    skipped_degraded: int = 0
    skipped_budgeted: int = 0
    #: Shard-scoped node reads (router protocol) — partial answers by
    #: construction, not verifiable against the full dataset rebuild.
    skipped_scoped: int = 0
    epoch_errors: int = 0
    #: Up to 16 ``{seq, epoch, operator, expected, actual}`` rows.
    mismatches: list[dict] = field(default_factory=list)
    mismatch_count: int = 0
    #: :meth:`TornTail.to_dict` of a truncated final audit line, if any.
    #: A torn tail does not fail the replay — the crash window is flagged,
    #: and everything durable before it still verifies.
    torn_tail: dict | None = None

    @property
    def ok(self) -> bool:
        """Every replayed query reproduced its digest, epochs lined up."""
        return self.mismatch_count == 0 and self.epoch_errors == 0

    def to_dict(self) -> dict:
        """JSON-ready view (the ``repro replay --format json`` body)."""
        return {
            "records": self.records,
            "mutations_applied": self.mutations_applied,
            "replayed": self.replayed,
            "verified": self.verified,
            "skipped_degraded": self.skipped_degraded,
            "skipped_budgeted": self.skipped_budgeted,
            "skipped_scoped": self.skipped_scoped,
            "epoch_errors": self.epoch_errors,
            "mismatch_count": self.mismatch_count,
            "mismatches": self.mismatches,
            "torn_tail": self.torn_tail,
            "ok": self.ok,
        }


def replay_audit(
    records: Sequence[dict],
    objects,
    *,
    shards: int = 1,
    partitioner: str = "round-robin",
) -> ReplayReport:
    """Re-execute an audit log against ``objects`` and verify digests.

    Records are ordered by ``(epoch, mutations-first, seq)``: a mutation's
    recorded epoch is the one it *produced*, so it must land before the
    queries recorded *at* that epoch.  Exact queries are re-run only when
    the rebuilt dataset reaches their recorded epoch (anything else counts
    as an ``epoch_error`` — the log is incomplete or out of order).
    Degraded and budgeted queries are skipped: their answers depend on
    wall-clock budgets, not just the dataset.
    """
    from repro.serve.updates import DatasetManager

    manager = DatasetManager(
        list(objects),
        shards=shards,
        partitioner=partitioner,
        compact_threshold=1.0,
    )
    report = ReplayReport(records=len(records))
    tail = getattr(records, "torn_tail", None)
    if tail is not None:
        report.torn_tail = tail.to_dict() if hasattr(tail, "to_dict") else tail

    def order(rec: dict) -> tuple:
        mutation = rec.get("kind") in ("insert", "delete")
        return (rec.get("epoch", 0), 0 if mutation else 1, rec.get("seq", 0))

    try:
        for rec in sorted(records, key=order):
            kind = rec.get("kind")
            if kind == "insert":
                oid, epoch = manager.insert(
                    rec["points"], rec["probs"], oid=rec["oid"]
                )
                report.mutations_applied += 1
                if epoch != rec["epoch"] or oid != rec["oid"]:
                    report.epoch_errors += 1
            elif kind == "delete":
                from repro.serve.updates import UnknownOidError

                try:
                    _, epoch = manager.delete(rec["oid"])
                except UnknownOidError:
                    # The insert this delete depends on is missing from the
                    # log — the record stream is incomplete.
                    report.epoch_errors += 1
                    continue
                report.mutations_applied += 1
                if epoch != rec["epoch"]:
                    report.epoch_errors += 1
            elif kind == "query":
                if rec.get("degraded"):
                    report.skipped_degraded += 1
                    continue
                if rec.get("budgeted"):
                    # Exact under budget this time is not guaranteed next
                    # time; only unbudgeted answers are replay-stable.
                    report.skipped_budgeted += 1
                    continue
                if rec.get("shards") is not None:
                    report.skipped_scoped += 1
                    continue
                if manager.epoch != rec["epoch"]:
                    report.epoch_errors += 1
                    continue
                from repro.objects.uncertain import UncertainObject

                query = UncertainObject(
                    rec["points"], rec["probs"], oid="replay-Q"
                )
                result, _ = manager.query(
                    query,
                    rec["operator"],
                    k=rec["k"],
                    metric=rec["metric"],
                )
                digest = answer_digest(
                    {"oid": obj.oid, "dominators": count}
                    for obj, count in zip(
                        result.candidates, result.dominator_counts
                    )
                )
                report.replayed += 1
                if digest == rec["digest"]:
                    report.verified += 1
                else:
                    report.mismatch_count += 1
                    if len(report.mismatches) < 16:
                        report.mismatches.append(
                            {
                                "seq": rec.get("seq"),
                                "epoch": rec["epoch"],
                                "operator": rec["operator"],
                                "expected": rec["digest"],
                                "actual": digest,
                            }
                        )
    finally:
        manager.close()
    return report
