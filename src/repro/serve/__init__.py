"""Serving layer: sharded, cached, concurrent NNC queries with updates.

Layers (bottom-up):

* :mod:`repro.serve.shard` — scatter-gather search over K shards, pinned
  equal to the single-shard answer via the Theorem-3 superset argument.
* :mod:`repro.serve.cache` — versioned LRU result cache keyed by dataset
  epoch (stale hits are structurally impossible).
* :mod:`repro.serve.updates` — dynamic inserts/deletes with validation,
  tombstone deletes, periodic compaction, and epoch bumps.
* :mod:`repro.serve.audit` — per-query JSONL audit log with SHA-1 answer
  digests, plus deterministic replay verification (``repro replay``).
* :mod:`repro.serve.wal` / :mod:`repro.serve.durable` — durable tier:
  CRC-framed write-ahead log, atomic memory-mapped snapshots, and a
  crash-safe warm restart that recovers the exact pre-crash epoch
  (DESIGN.md §17; kill-tested by ``python -m repro.scenario crash``).
* :mod:`repro.serve.protocol` / :mod:`repro.serve.server` — JSON-over-HTTP
  front end (stdlib asyncio) with budget admission, graceful drain,
  request-scoped tracing (one merged Chrome trace per sampled request),
  structured logs, and SLO accounting on ``/metrics`` + ``/status``.
"""

from repro.serve.audit import AuditLog, ReplayReport, answer_digest, load_audit, replay_audit
from repro.serve.cache import ResultCache, query_digest
from repro.serve.durable import (
    DurableDatasetManager,
    RecoveryReport,
    durable_epoch,
    load_snapshot,
    write_snapshot,
)
from repro.serve.shard import (
    BACKENDS,
    PARTITIONERS,
    ShardedResult,
    ShardedSearch,
    partition_centroid,
    partition_round_robin,
)
from repro.serve.updates import DatasetManager
from repro.serve.wal import TornTail, WriteAheadLog, read_wal

__all__ = [
    "AuditLog",
    "BACKENDS",
    "PARTITIONERS",
    "DatasetManager",
    "DurableDatasetManager",
    "RecoveryReport",
    "ReplayReport",
    "ResultCache",
    "ShardedResult",
    "ShardedSearch",
    "TornTail",
    "WriteAheadLog",
    "answer_digest",
    "durable_epoch",
    "load_audit",
    "load_snapshot",
    "partition_centroid",
    "partition_round_robin",
    "query_digest",
    "read_wal",
    "replay_audit",
    "write_snapshot",
]
