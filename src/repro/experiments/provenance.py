"""Run provenance: who/where/when facts stamped onto generated artifacts.

Every benchmark payload and figure artifact this repo emits should answer
"which commit produced these numbers, on what machine, when" without a
side-channel.  :func:`collect` gathers the facts; :func:`stamp` writes them
under ``payload["meta"]["provenance"]`` so ``BENCH_*.json`` and the
dashboard header (:mod:`repro.experiments.dashboard`) carry the same record
shape:

.. code-block:: json

    {"sha": "4e3367e…", "branch": "main", "date": "2026-08-07T12:00:00Z",
     "cpu_count": 4, "hostname": "ci-runner", "python": "3.12.3"}

Git facts degrade to ``"unknown"`` outside a repository (or without a git
binary) instead of failing — provenance must never break the run it
documents.
"""

from __future__ import annotations

import datetime as _dt
import os
import platform
import socket
import subprocess
from pathlib import Path

__all__ = ["repo_root", "git_describe", "collect", "stamp"]


def repo_root() -> Path:
    """Best-effort repository root: the tree containing this package."""
    return Path(__file__).resolve().parents[3]


def _git(args: list[str], cwd: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=str(cwd),
            capture_output=True,
            text=True,
            timeout=10.0,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    value = out.stdout.strip()
    return value if out.returncode == 0 and value else None


def git_describe(root: Path | None = None) -> dict:
    """``{"sha": …, "branch": …, "dirty": …}`` for ``root`` (or this repo).

    Values fall back to ``"unknown"`` / ``None`` when git is unavailable.
    """
    cwd = Path(root) if root is not None else repo_root()
    sha = _git(["rev-parse", "HEAD"], cwd) or "unknown"
    branch = _git(["rev-parse", "--abbrev-ref", "HEAD"], cwd) or "unknown"
    status = _git(["status", "--porcelain"], cwd)
    dirty = bool(status) if status is not None else None
    return {"sha": sha, "branch": branch, "dirty": dirty}


def collect(root: Path | None = None) -> dict:
    """One provenance record: git facts + machine facts + UTC timestamp."""
    record = git_describe(root)
    record.update(
        {
            "date": _dt.datetime.now(_dt.timezone.utc)
            .replace(microsecond=0)
            .isoformat()
            .replace("+00:00", "Z"),
            "cpu_count": os.cpu_count() or 1,
            "hostname": socket.gethostname(),
            "python": platform.python_version(),
        }
    )
    return record


def stamp(payload: dict, root: Path | None = None) -> dict:
    """Write ``meta.provenance`` into ``payload`` (in place) and return it.

    Existing ``meta`` keys are preserved; an existing provenance record is
    replaced — re-running a bench restamps it with the current commit.
    """
    meta = payload.setdefault("meta", {})
    meta["provenance"] = collect(root)
    return payload
