"""JSON request/response shapes for the NNC query service.

Kept separate from the transport so the CLI client, the server, tests, and
the scenario runner all speak one dialect.  Parsing is strict: unknown
operators, malformed arrays, and bad budgets fail with
:class:`ProtocolError` (mapped to HTTP 400) before any engine code runs.

Request shapes (all POST bodies)::

    /query  {"points": [[..],..], "probs": [..]?, "operator": "FSD",
             "k": 1?, "metric": "euclidean"?, "cache": true?,
             "shards": [0, 2]?, "include_objects": false?,
             "explain": false?,
             "budget": {"deadline_ms": ..?, "max_dominance_checks": ..?,
                        "max_flow_augmentations": ..?}?}
    /insert {"points": [[..],..], "probs": [..]?, "oid": ..?}
    /delete {"oid": ..}

``shards`` restricts the scatter to a subset of the server's logical
shards and ``include_objects`` asks for each candidate's instance
geometry in the response — together they form the **node role** of the
router protocol (:mod:`repro.serve.router`): the router scatters
shard-scoped reads to replica owners and runs the cross-node survivor
refine itself, which needs the survivors' points/probs on the wire.

The query response mirrors the CLI ``--format json`` output: candidates
with final dominator counts, the serving epoch the answer is valid for,
and a ``degraded`` flag with the PR-3 report when the answer is a
certified superset instead of exact.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.operators import OperatorKind
from repro.geometry.distance import resolve_metric
from repro.objects.uncertain import UncertainObject
from repro.resilience.budget import Budget

__all__ = [
    "OPERATOR_NAMES",
    "REQUEST_SCOPED_KEYS",
    "ProtocolError",
    "parse_query_request",
    "parse_insert_request",
    "parse_delete_request",
    "query_response",
    "insert_response",
    "delete_response",
    "backend_error_body",
    "error_body",
    "recovering_body",
]

OPERATOR_NAMES: tuple[str, ...] = tuple(kind.value for kind in OperatorKind)

_BUDGET_FIELDS = ("deadline_ms", "max_dominance_checks", "max_flow_augmentations")


class ProtocolError(ValueError):
    """A malformed request body (HTTP 400)."""


def _require_dict(payload: Any) -> dict:
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    return payload


def _is_oid(value: Any) -> bool:
    # JSON booleans decode to bool, an int subclass: never an oid.
    return isinstance(value, (int, str)) and not isinstance(value, bool)


def _parse_object(payload: dict, *, oid=None) -> UncertainObject:
    points = payload.get("points")
    if points is None:
        raise ProtocolError("missing 'points'")
    probs = payload.get("probs")
    try:
        pts = np.asarray(points, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad 'points': {exc}")
    if pts.ndim != 2:
        raise ProtocolError("'points' must be a 2-D array of instances")
    try:
        return UncertainObject(pts, probs, oid=oid, normalize=True)
    except ValueError as exc:
        raise ProtocolError(str(exc))


def _parse_budget(spec: Any) -> Budget | None:
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise ProtocolError("'budget' must be an object")
    unknown = set(spec) - set(_BUDGET_FIELDS)
    if unknown:
        raise ProtocolError(f"unknown budget fields: {sorted(unknown)}")
    kwargs = {}
    for name in _BUDGET_FIELDS:
        value = spec.get(name)
        if value is None:
            continue
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ProtocolError(f"budget.{name} must be a number")
        kwargs[name] = value if name == "deadline_ms" else int(value)
    if not kwargs:
        return None
    try:
        return Budget(**kwargs)
    except ValueError as exc:
        raise ProtocolError(str(exc))


def parse_query_request(payload: Any) -> dict:
    """Validate a /query body into engine-ready pieces.

    Returns:
        dict with ``query`` (UncertainObject), ``operator`` (name),
        ``k``, ``metric``, ``budget`` (Budget or None), ``cache`` (bool),
        ``shards`` (sorted int list or None), ``include_objects`` (bool),
        ``explain`` (bool — per-stage cost breakdown in the response).
    """
    payload = _require_dict(payload)
    operator = payload.get("operator", "FSD")
    if operator not in OPERATOR_NAMES:
        raise ProtocolError(
            f"unknown operator {operator!r}; expected one of {OPERATOR_NAMES}"
        )
    k = payload.get("k", 1)
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ProtocolError("'k' must be a positive integer")
    metric = payload.get("metric", "euclidean")
    if not isinstance(metric, str):
        raise ProtocolError("'metric' must be a string")
    try:
        resolve_metric(metric)
    except KeyError as exc:
        raise ProtocolError(exc.args[0])
    cache = payload.get("cache", True)
    if not isinstance(cache, bool):
        raise ProtocolError("'cache' must be a boolean")
    shards = payload.get("shards")
    if shards is not None:
        if not isinstance(shards, list) or not shards:
            raise ProtocolError("'shards' must be a non-empty array of ints")
        for sid in shards:
            if not isinstance(sid, int) or isinstance(sid, bool) or sid < 0:
                raise ProtocolError(
                    "'shards' entries must be non-negative integers"
                )
        shards = sorted(set(shards))
    include_objects = payload.get("include_objects", False)
    if not isinstance(include_objects, bool):
        raise ProtocolError("'include_objects' must be a boolean")
    explain = payload.get("explain", False)
    if not isinstance(explain, bool):
        raise ProtocolError("'explain' must be a boolean")
    return {
        "query": _parse_object(payload, oid=payload.get("oid", "Q")),
        "operator": operator,
        "k": k,
        "metric": metric,
        "budget": _parse_budget(payload.get("budget")),
        "cache": cache,
        "shards": shards,
        "include_objects": include_objects,
        "explain": explain,
    }


def parse_insert_request(payload: Any) -> UncertainObject:
    """Validate an /insert body into an object (oid may be None)."""
    payload = _require_dict(payload)
    oid = payload.get("oid")
    if oid is not None and not _is_oid(oid):
        raise ProtocolError("'oid' must be an integer or string")
    return _parse_object(payload, oid=oid)


def parse_delete_request(payload: Any):
    """Validate a /delete body into its oid."""
    payload = _require_dict(payload)
    if "oid" not in payload:
        raise ProtocolError("missing 'oid'")
    oid = payload["oid"]
    if not _is_oid(oid):
        raise ProtocolError("'oid' must be an integer or string")
    return oid


# ------------------------------ responses ----------------------------- #

def query_response(
    result, epoch: int, *, cached: bool = False, request=None,
    include_objects: bool = False,
) -> dict:
    """JSON body for a sharded query result (see module docstring).

    With a ``request`` (:class:`repro.obs.request.RequestContext`), the
    response carries ``request_id`` / ``trace_id`` / ``sampled`` so a
    client can correlate its answer with server-side logs and traces.
    ``include_objects`` adds each candidate's instance geometry
    (``points``/``probs`` as plain float lists — JSON ``repr`` round-trips
    float64 exactly) so the router can refine survivors bit-identically.
    """
    degradation = (
        result.degradation.to_dict() if result.degradation is not None else None
    )
    candidates = []
    for obj, count in zip(result.candidates, result.dominator_counts):
        entry = {"oid": obj.oid, "dominators": count}
        if include_objects:
            entry["points"] = obj.points.tolist()
            entry["probs"] = obj.probs.tolist()
        candidates.append(entry)
    body = {
        "candidates": candidates,
        "count": len(result.candidates),
        "degraded": result.degradation is not None,
        "degradation": degradation,
        "elapsed_ms": result.elapsed * 1000.0,
        "epoch": epoch,
        "cached": cached,
        "shards": result.shards,
        "backend": result.backend,
        "fanout": result.fanout,
        "refine_checks": result.refine_checks,
    }
    if request is not None:
        body["request_id"] = request.request_id
        body["trace_id"] = request.trace_id
        body["sampled"] = request.sampled
    return body


#: Response keys scoped to one request, stripped before a body is cached
#: and re-stamped from the serving request on a cache hit.
REQUEST_SCOPED_KEYS: tuple[str, ...] = ("request_id", "trace_id", "sampled")


def insert_response(oid, epoch: int) -> dict:
    """JSON body acknowledging an insert at its new epoch."""
    return {"oid": oid, "epoch": epoch, "inserted": True}


def delete_response(oid, epoch: int) -> dict:
    """JSON body acknowledging a delete at its new epoch."""
    return {"oid": oid, "epoch": epoch, "deleted": True}


def error_body(message: str, **extra) -> dict:
    """JSON error body; ``extra`` keys ride along (e.g. a report)."""
    body = {"error": message}
    body.update(extra)
    return body


def backend_error_body(message: str) -> dict:
    """503 body for a transient backend failure (e.g. a dead pool worker).

    ``retryable`` tells clients the request itself was fine — the same
    query succeeds once the backend has rebuilt its workers, which happens
    lazily on the next attempt.
    """
    return error_body(message, retryable=True)


def recovering_body() -> dict:
    """503 body while a warm restart is still replaying the WAL.

    ``retryable`` for the same reason as :func:`backend_error_body`; the
    ``recovering`` flag lets clients distinguish "wait for recovery" from
    a backend hiccup.
    """
    return error_body(
        "recovering: warm restart in progress", retryable=True,
        recovering=True,
    )
