"""Write-ahead log: length-prefixed, CRC32-checksummed JSON frames.

Frame format (little-endian)::

    [u32 payload_len][u32 crc32(payload)][payload JSON bytes]

A frame is appended for every acknowledged mutation *before* the mutation
is acknowledged, so the durable prefix of the log plus the newest snapshot
always reconstructs every epoch a client has seen (under ``fsync=always``;
see the fsync trade-offs below).  The reader tolerates exactly one torn
frame — a partial write at the *end* of the file, the signature of a crash
mid-append — and reports it as a :class:`TornTail` instead of raising.
Garbage that is followed by more data is not a crash artifact and raises
:class:`WalCorruptionError`.

fsync policy (shared with :class:`repro.serve.audit.AuditLog`):

* ``always``  — fsync after every append; a crash loses nothing that was
  acknowledged.  The durable default.
* ``interval`` — flush every append, fsync at most once per
  ``interval_s``; a crash can lose the tail written since the last sync.
* ``never``   — flush only; the OS decides when bytes hit the platter.

Crash injection: setting ``REPRO_WAL_KILL_AT_APPEND=<k>`` makes the k-th
append (1-based, per process) write only *half* of its frame, fsync, and
SIGKILL the process — the torn-frame fault ``python -m repro.scenario
crash`` uses to prove recovery flags (and never silently drops) a
mid-frame tear.
"""

from __future__ import annotations

import json
import math
import os
import signal
import struct
import time
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable

__all__ = [
    "FSYNC_MODES",
    "FsyncPolicy",
    "TornTail",
    "WalCorruptionError",
    "WriteAheadLog",
    "encode_frame",
    "read_wal",
]

FSYNC_MODES: tuple[str, ...] = ("always", "interval", "never")

_HEADER = struct.Struct("<II")
#: A length prefix beyond this is garbage, not a large record (16 MiB).
_MAX_FRAME = 16 * 1024 * 1024

_KILL_ENV = "REPRO_WAL_KILL_AT_APPEND"


class WalCorruptionError(RuntimeError):
    """Mid-file WAL damage (valid frames follow the bad bytes).

    A torn *tail* is expected after a crash and is tolerated; corruption in
    the middle of the log means the file was mangled by something other
    than a crashed append, and replaying past it could resurrect a dataset
    that never existed — recovery refuses instead.
    """


@dataclass
class TornTail:
    """Location of a truncated final record (WAL frame or audit line)."""

    kind: str  #: "wal" or "audit"
    offset: int  #: byte offset where the torn record starts
    length: int  #: bytes of the torn record present in the file
    detail: str = ""

    def to_dict(self) -> dict:
        """JSON-ready form, embedded in status and recovery reports."""
        return asdict(self)


class FsyncPolicy:
    """When to ``os.fsync`` an append-only log file."""

    def __init__(self, mode: str = "always", interval_s: float = 0.5) -> None:
        if mode not in FSYNC_MODES:
            raise ValueError(
                f"unknown fsync mode {mode!r}; expected one of {FSYNC_MODES}"
            )
        if interval_s < 0:
            raise ValueError("fsync interval must be non-negative")
        self.mode = mode
        self.interval_s = interval_s
        # -inf, not 0.0: time.monotonic() counts from an arbitrary point
        # (boot on Linux), so a 0.0 baseline would skip every fsync until
        # the host had been up for interval_s.  The first append syncs.
        self._last_sync = -math.inf

    def due(self) -> bool:
        """True when this append should fsync (marks the sync time)."""
        if self.mode == "always":
            return True
        if self.mode == "never":
            return False
        now = time.monotonic()
        if now - self._last_sync >= self.interval_s:
            self._last_sync = now
            return True
        return False


def encode_frame(record: dict) -> bytes:
    """One WAL frame for ``record`` (length + CRC32 + JSON payload)."""
    payload = json.dumps(record, separators=(",", ":")).encode()
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


class WriteAheadLog:
    """Append-only frame log for dataset mutations.

    Args:
        path: log file, opened in append mode.
        fsync / fsync_interval_s: durability policy (see module docstring).
        metrics: optional MetricsRegistry; feeds ``repro_wal_appends_total``
            and ``repro_wal_fsync_seconds``.
        start_seq: first sequence number to hand out (recovery resumes the
            counter past everything already on disk).
        kill_hook: crash-injection override (tests); defaults to SIGKILL of
            the current process when ``REPRO_WAL_KILL_AT_APPEND`` arms it.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        fsync: str = "always",
        fsync_interval_s: float = 0.5,
        metrics: Any = None,
        start_seq: int = 0,
        kill_hook: Callable[[], None] | None = None,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.policy = FsyncPolicy(fsync, fsync_interval_s)
        self.metrics = metrics
        self.seq = start_seq
        self.appends = 0
        self._fh = self.path.open("ab")
        self._kill_at = int(os.environ.get(_KILL_ENV, 0) or 0)
        self._kill = kill_hook or (
            lambda: os.kill(os.getpid(), signal.SIGKILL)
        )

    def append(self, record: dict) -> int:
        """Frame, write, and (per policy) fsync one record; returns its seq.

        The record's durability is this method's postcondition: when it
        returns under ``fsync=always``, the frame is on disk, so the caller
        may acknowledge the mutation.
        """
        seq = self.seq
        record = {"seq": seq, **record}
        data = encode_frame(record)
        self.appends += 1
        if self._kill_at and self.appends == self._kill_at:
            # Injected mid-frame crash: persist exactly half the frame so
            # recovery must tolerate (and flag) a torn tail.
            self._fh.write(data[: max(1, len(data) // 2)])
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._kill()
        self._fh.write(data)
        self._fh.flush()
        if self.policy.due():
            t0 = time.perf_counter()
            os.fsync(self._fh.fileno())
            if self.metrics is not None:
                self.metrics.observe(
                    "repro_wal_fsync_seconds", time.perf_counter() - t0
                )
        if self.metrics is not None:
            self.metrics.inc("repro_wal_appends_total")
        self.seq = seq + 1
        return seq

    def sync(self) -> None:
        """Force bytes to disk regardless of policy (drain path)."""
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def reset(self) -> None:
        """Truncate the log (a snapshot now covers every frame in it).

        Crash-safe against a kill between the snapshot rename and this
        truncate: recovery skips frames whose epoch the snapshot already
        covers, so a stale pre-truncate log merely replays to no-ops.
        """
        self._fh.close()
        self._fh = self.path.open("wb")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Flush, fsync, and close the log file (idempotent)."""
        if not self._fh.closed:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()


def read_wal(path: str | Path) -> tuple[list[dict], TornTail | None]:
    """Parse a WAL into records, tolerating one torn frame at the tail.

    Returns:
        ``(records, torn)`` where ``torn`` locates a truncated final frame
        (None for a clean log).  A missing file reads as an empty log.

    Raises:
        WalCorruptionError: a bad frame is *followed* by more bytes — the
            damage cannot be a crashed append.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return [], None
    records: list[dict] = []
    pos = 0
    size = len(raw)
    while pos < size:
        torn = TornTail(kind="wal", offset=pos, length=size - pos)
        if size - pos < _HEADER.size:
            torn.detail = "partial frame header"
            return records, torn
        length, crc = _HEADER.unpack_from(raw, pos)
        end = pos + _HEADER.size + length
        bad = None
        if length > _MAX_FRAME:
            bad = f"frame length {length} exceeds the {_MAX_FRAME} cap"
        elif end > size:
            torn.detail = (
                f"frame needs {length} payload byte(s), "
                f"{size - pos - _HEADER.size} present"
            )
            return records, torn
        if bad is None:
            payload = raw[pos + _HEADER.size:end]
            if zlib.crc32(payload) != crc:
                bad = "payload CRC mismatch"
            else:
                try:
                    records.append(json.loads(payload))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    bad = "payload is not valid JSON"
        if bad is not None:
            if end >= size:
                torn.detail = bad
                return records, torn
            raise WalCorruptionError(
                f"{path}: {bad} at offset {pos} with "
                f"{size - end} byte(s) following — mid-file corruption"
            )
        pos = end
    return records, None
