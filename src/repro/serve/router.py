"""Router tier: scatter-gather NNC over a fleet of remote shard servers.

The router fronts N node servers speaking the existing JSON/HTTP protocol
(:mod:`repro.serve.protocol`) and serves the *same* protocol itself — a
client cannot tell a router from a single server, except that answers
keep coming when a replica dies.

Architecture (DESIGN.md §18):

* **Placement** — the object space is split into S logical shards by the
  content hash :func:`repro.serve.placement.shard_of`; each shard lives
  on a replica group of R nodes chosen by the consistent-hash ring
  (:class:`repro.serve.placement.PlacementMap`).  Every node runs the
  full dataset partitioned with ``--partitioner hash --shards S`` and
  answers *shard-scoped* reads (``{"shards": [sid]}``), so router and
  nodes agree on who owns what with zero coordination.
* **Exact reads** — for each target shard the router asks one owner for
  that shard's survivors **with geometry** (``include_objects``), then
  runs the same transitivity-based refiner the single process uses
  (:func:`repro.serve.shard.refine_survivors`) over the gathered groups.
  The shard subsets are disjoint and cover the dataset, so the merged
  answer is bit-identical to single-process Algorithm 1 (the property
  tests pin this for every operator).
* **Tail tolerance** — per-shard reads are hedged: when the chosen owner
  exceeds the hedging threshold (explicit ``hedge_ms``, or the node's
  observed p95), the read is re-issued to the next replica and the first
  usable answer wins.  Transport errors, 5xx, 429 and stale reads fail
  over to surviving replicas; per-node circuit breakers
  (:class:`repro.serve.remote.CircuitBreaker`) stop asking dead nodes.
  A replica's 400 or 422 judges the request, not the replica, so it is
  the client's answer, for reads and writes alike.
* **Writes** — fanned out to every owner of the object's shard under the
  router's write lock.  The router assigns missing oids (so replicas
  stay byte-identical), tolerates per-replica 409/404 disagreement as
  *reconciled* convergence, reports ``partial: true`` when some replica
  missed the write, and tracks each node's acked epoch so a later read
  answered from a stale replica is detected and retried elsewhere.
* **One audit log** — the router stamps every answer with its own global
  epoch (one bump per acked mutation), which makes its audit log a
  linearizable record: ``repro replay`` rebuilds the dataset
  single-process and verifies every router answer digest bit-for-bit.

Trace propagation: node calls carry ``X-Request-Id`` / ``X-Trace-Id`` /
``X-Parent-Span-Id`` / ``X-Sampled``, so a sampled router request forces
sampling on every node it touches and the per-node traces share one
trace id.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from pathlib import Path
from typing import Any, Mapping

from repro.core.context import QueryContext
from repro.objects.uncertain import UncertainObject
from repro.obs.fleet import FleetScraper
from repro.obs.log import log_event
from repro.obs.metrics import MetricsRegistry, slo_snapshot
from repro.serve import protocol
from repro.serve.audit import AuditLog
from repro.serve.cache import ResultCache
from repro.serve.explain import merge_explains
from repro.serve.placement import PlacementMap, shard_of
from repro.serve.remote import RemoteNodeError
from repro.serve.server import ServeApp
from repro.serve.shard import (
    ShardBackendError,
    ShardedResult,
    _report_from_dict,
    refine_survivors,
)
from repro.serve.updates import DuplicateOidError, UnknownOidError, _RWLock

__all__ = ["RouterApp"]

#: Calls a node must have served before its p95 drives adaptive hedging.
_HEDGE_WARMUP_CALLS = 8
#: Adaptive hedging never fires below this (seconds): an in-process
#: fleet's p95 is microseconds, and hedging every read helps nobody.
_HEDGE_FLOOR_S = 0.001
#: Replica answers that judge the request, not the replica: every owner
#: would answer the same, so the router passes them through.
_REJECTIONS = (400, 422)


class _Rejected(Exception):
    """A replica refused the request itself; its answer is the client's."""

    def __init__(self, status: int, body: dict) -> None:
        super().__init__(status)
        self.status = status
        self.body = body


class RouterApp(ServeApp):
    """A :class:`ServeApp` whose "dataset" is a fleet of shard servers.

    Args:
        nodes: ``node_id -> node`` mapping
            (:class:`repro.serve.remote.RemoteNode` or ``LocalNode``).
            Ids must match what :class:`PlacementMap` places on.
        shards: number of logical shards (must equal every node's
            ``--shards``).
        replication: replica group size R.
        hedge_ms: hedging threshold in milliseconds; ``None`` = adaptive
            (each node's observed p95), ``0`` disables hedging.
        health_interval_s: period of the background ``/healthz`` sweep;
            ``0`` disables the sweep (breakers still learn from traffic).
        vnodes: virtual nodes per ring member.

    Remaining keyword arguments match :class:`ServeApp`.
    """

    def __init__(
        self,
        nodes: Mapping[str, Any],
        *,
        shards: int,
        replication: int = 1,
        hedge_ms: float | None = None,
        health_interval_s: float = 0.0,
        vnodes: int = 64,
        cache: ResultCache | None = None,
        registry: MetricsRegistry | None = None,
        max_inflight: int = 32,
        default_budget: dict | None = None,
        sample_rate: float = 0.0,
        audit: AuditLog | None = None,
        trace_dir: str | Path | None = None,
        slo_latency_ms: float | None = None,
        node_id: str | None = None,
        profile_hz: float = 0.0,
    ) -> None:
        if not nodes:
            raise ValueError("router needs at least one node")
        super().__init__(
            manager=None,  # type: ignore[arg-type] — the fleet is the dataset
            cache=cache,
            registry=registry,
            max_inflight=max_inflight,
            default_budget=default_budget,
            sample_rate=sample_rate,
            audit=audit,
            trace_dir=trace_dir,
            slo_latency_ms=slo_latency_ms,
            node_id=node_id or "router",
            profile_hz=profile_hz,
        )
        self.nodes = dict(nodes)
        #: Federation: pulls every node's /metrics.json + /status into the
        #: router registry under a ``node`` label (GET /fleet; piggybacked
        #: on the health sweep so the view stays warm between requests).
        self.fleet = FleetScraper(self.nodes, self.registry)
        self.placement = PlacementMap(
            list(self.nodes),
            shards=shards,
            replication=replication,
            vnodes=vnodes,
        )
        self.hedge_ms = hedge_ms
        self.health_interval_s = health_interval_s
        #: Router global epoch: one bump per acked mutation.  Every answer
        #: is stamped with it, which is what lets ``repro replay`` verify
        #: the router's audit log against a single-process rebuild.
        self._epoch = 0
        #: Highest node-local epoch each node has acked a write at; a read
        #: answered below this is stale (the replica missed a write it
        #: acked earlier — impossible — or we raced a concurrent writer).
        self._acked_epoch: dict[str, int] = {}
        self._rw = _RWLock()
        self._rotation: dict[int, itertools.count] = {}
        # Two pools so a shard state machine never waits on a slot its own
        # hedge needs: scatter tasks park in one, node I/O in the other.
        width = max(4, min(32, shards * 2))
        self._scatter_exec = ThreadPoolExecutor(
            max_workers=width, thread_name_prefix="router-scatter"
        )
        self._io_exec = ThreadPoolExecutor(
            max_workers=width * 2, thread_name_prefix="router-io"
        )
        self._stop = threading.Event()
        self._health_thread: threading.Thread | None = None
        if health_interval_s > 0:
            self._health_thread = threading.Thread(
                target=self._health_loop, name="router-health", daemon=True
            )
            self._health_thread.start()

    # ------------------------------ reads ------------------------------ #

    def handle_query(self, payload: Any, request=None) -> tuple[int, dict]:
        """POST /query: scatter shard-scoped reads, refine, one answer."""
        req = protocol.parse_query_request(payload)
        targets = req["shards"]
        if targets is None:
            targets = list(range(self.placement.shards))
        elif targets[-1] >= self.placement.shards:
            raise protocol.ProtocolError(
                f"'shards' {targets} out of range [0, {self.placement.shards})"
            )
        scoped = req["shards"] is not None or req["include_objects"]
        budget_spec = payload.get("budget") or self.default_budget
        use_cache = (
            self.cache is not None and req["cache"] and budget_spec is None
            and not scoped and not req["explain"]
        )
        start = time.perf_counter()
        with self._rw.read():
            epoch = self._epoch
            if use_cache:
                key = ResultCache.key(
                    epoch, req["operator"], req["metric"], req["k"],
                    req["query"],
                )
                hit = self.cache.get(key)
                if hit is not None:
                    body = dict(hit)
                    body["cached"] = True
                    if request is not None:
                        body["request_id"] = request.request_id
                        body["trace_id"] = request.trace_id
                        body["sampled"] = request.sampled
                    self._audit_query(req, body, epoch, request, True)
                    return 200, body
            # Forward the client's *raw* geometry: every node then parses
            # (and normalises) the exact bytes the router parsed, so the
            # query object is bit-identical fleet-wide.
            base = {
                "points": payload["points"],
                "operator": req["operator"],
                "k": req["k"],
                "metric": req["metric"],
                "cache": False,
                "include_objects": True,
            }
            if payload.get("probs") is not None:
                base["probs"] = payload["probs"]
            if budget_spec is not None:
                base["budget"] = dict(budget_spec)
            if req["explain"]:
                # Every node builds its own breakdown; the router merges
                # them into one fleet view after the refine phase.
                base["explain"] = True
            headers = self._node_headers(request)
            futures = [
                self._scatter_exec.submit(
                    self._fetch_shard, sid, base, headers
                )
                for sid in targets
            ]
            fetched = [f.result() for f in futures]
        survivors = []
        covered = []
        used_nodes = set()
        degradation = None
        hedged = False
        for pos, (node_id, body) in enumerate(fetched):
            used_nodes.add(node_id)
            hedged = hedged or body.get("_hedged", False)
            group = []
            for cand in body["candidates"]:
                group.append(
                    (
                        UncertainObject(
                            cand["points"], cand["probs"],
                            oid=cand["oid"], normalize=False,
                        ),
                        cand["dominators"],
                    )
                )
            survivors.append(group)
            covered.append({pos})
            if degradation is None and body.get("degraded"):
                degradation = _report_from_dict(body["degradation"])
        refine_ctx = QueryContext(req["query"], metric=req["metric"])
        final, counts, refine_checks, _unresolved = refine_survivors(
            _operator(req["operator"]), req["k"], survivors, covered,
            refine_ctx,
        )
        result = ShardedResult(
            candidates=[obj for obj, _ in final],
            dominator_counts=counts,
            elapsed=time.perf_counter() - start,
            shards=self.placement.shards,
            backend="router",
            refine_checks=refine_checks,
            fanout=sum(1 for group in survivors if group),
            degradation=degradation,
        )
        body = protocol.query_response(
            result, epoch, request=request,
            include_objects=req["include_objects"],
        )
        body["nodes"] = sorted(used_nodes)
        body["hedged"] = hedged
        if req["explain"]:
            # The refine context is fresh, so its bag *is* the router's
            # refine-phase delta — no pre-snapshot needed.
            refine_deltas = {
                key: value
                for key, value in refine_ctx.counters.snapshot().items()
                if value
            }
            body["explain"] = {
                "operator": req["operator"],
                "k": req["k"],
                "backend": "router",
                "elapsed_ms": result.elapsed * 1000.0,
                "candidates": len(result.candidates),
                "sampled": bool(getattr(request, "sampled", False)),
                **merge_explains(
                    [
                        {
                            "shard": targets[pos],
                            "node": node_id,
                            "hedged": fetched_body.get("_hedged", False),
                            "explain": fetched_body.get("explain"),
                        }
                        for pos, (node_id, fetched_body) in enumerate(fetched)
                    ],
                    refine_checks=refine_checks,
                    refine_counters=refine_deltas,
                    hedged=hedged,
                ),
            }
        if degradation is not None:
            self.registry.inc(
                "repro_serve_degraded_total", 1, {"operator": req["operator"]}
            )
        if use_cache and degradation is None:
            cacheable = {
                key: value
                for key, value in body.items()
                if key not in protocol.REQUEST_SCOPED_KEYS
            }
            self.cache.put(
                ResultCache.key(
                    epoch, req["operator"], req["metric"], req["k"],
                    req["query"],
                ),
                cacheable,
            )
        self._audit_query(req, body, epoch, request, False)
        return 200, body

    def _fetch_shard(
        self, sid: int, base: dict, headers: dict
    ) -> tuple[str, dict]:
        """One shard's read state machine: rotate, hedge, fail over.

        Returns ``(node_id, body)`` of the winning replica; the body gains
        a private ``_hedged`` flag when a hedge was issued.  Raises
        :class:`ShardBackendError` when every owner is out.
        """
        owners = list(self.placement.owners(sid))
        rot = next(self._rotation.setdefault(sid, itertools.count()))
        queue = [owners[(rot + i) % len(owners)] for i in range(len(owners))]
        payload = dict(base)
        payload["shards"] = [sid]
        pending: list[tuple[str, Any]] = []
        errors: list[str] = []
        launched: list[str] = []
        hedged = False

        def launch_next() -> bool:
            while queue:
                nid = queue.pop(0)
                node = self.nodes[nid]
                if not node.breaker.allow():
                    errors.append(f"{nid}: breaker open")
                    continue
                launched.append(nid)
                pending.append(
                    (
                        nid,
                        self._io_exec.submit(
                            self._safe_call, node, payload, headers
                        ),
                    )
                )
                return True
            return False

        launch_next()
        while pending:
            threshold = (
                self._hedge_threshold(self.nodes[launched[-1]])
                if len(pending) == 1 and queue
                else None
            )
            done, _ = wait(
                [f for _, f in pending],
                timeout=threshold,
                return_when=FIRST_COMPLETED,
            )
            if not done:
                # The outstanding read blew the hedging threshold: race a
                # second replica against it, first usable answer wins.
                if launch_next():
                    hedged = True
                    self.registry.inc(
                        "repro_router_hedges_total", 1, {"shard": str(sid)}
                    )
                continue
            for nid, fut in list(pending):
                if not fut.done():
                    continue
                pending.remove((nid, fut))
                status, body, transport_error = fut.result()
                if transport_error is not None:
                    errors.append(f"{nid}: {transport_error}")
                    self.registry.inc("repro_router_failovers_total")
                elif status == 200:
                    if body.get("epoch", 0) < self._acked_epoch.get(nid, 0):
                        errors.append(
                            f"{nid}: stale epoch {body.get('epoch')} < "
                            f"acked {self._acked_epoch.get(nid)}"
                        )
                        self.registry.inc("repro_router_stale_reads_total")
                        self.registry.inc("repro_router_failovers_total")
                    else:
                        if hedged:
                            body["_hedged"] = True
                            if nid != launched[0]:
                                self.registry.inc(
                                    "repro_router_hedge_wins_total"
                                )
                        return nid, body
                elif status in _REJECTIONS:
                    raise _Rejected(status, body)
                else:
                    errors.append(
                        f"{nid}: HTTP {status} {body.get('error', '')!s}"
                    )
                    self.registry.inc("repro_router_failovers_total")
            if not pending:
                launch_next()
        raise ShardBackendError(
            f"shard {sid}: no replica answered ({'; '.join(errors)})"
        )

    @staticmethod
    def _safe_call(node, payload: dict, headers: dict):
        """node.call wrapped so futures never raise (breakers still see
        the failure inside :meth:`remote._NodeBase.call`)."""
        try:
            status, body = node.call("POST", "/query", payload, headers)
            return status, body, None
        except RemoteNodeError as exc:
            return None, {}, str(exc)

    def _hedge_threshold(self, node) -> float | None:
        """Seconds to wait before hedging this node, or None (no hedge)."""
        if self.hedge_ms is not None:
            if self.hedge_ms <= 0:
                return None
            return self.hedge_ms / 1000.0
        if node.calls < _HEDGE_WARMUP_CALLS:
            return None
        p95 = node.latency_quantile(0.95)
        if p95 is None:
            return None
        return max(p95, _HEDGE_FLOOR_S)

    def _node_headers(self, request) -> dict:
        if request is None:
            return {}
        headers = {
            "X-Request-Id": request.request_id,
            "X-Trace-Id": request.trace_id,
            "X-Parent-Span-Id": request.span_id,
        }
        if request.sampled:
            headers["X-Sampled"] = "1"
        return headers

    # ------------------------------ writes ----------------------------- #

    def handle_insert(self, payload: Any, request=None) -> tuple[int, dict]:
        """POST /insert: fan out to every owner of the object's shard."""
        obj = protocol.parse_insert_request(payload)
        oid = obj.oid
        if oid is None:
            # The router names the object so every replica indexes the
            # same oid (node-local allocators would diverge).
            oid = f"r-{os.urandom(6).hex()}"
            obj.oid = oid
        node_payload = {"points": payload["points"], "oid": oid}
        if payload.get("probs") is not None:
            node_payload["probs"] = payload["probs"]
        with self._rw.write():
            acked, dups, failed = self._fan_out(
                "/insert", node_payload, self.placement.owners_of(oid),
                self._node_headers(request), converged_status=409,
            )
            if not acked:
                if dups:
                    raise DuplicateOidError(f"oid {oid!r} already exists")
                raise ShardBackendError(
                    f"insert {oid!r} failed on all replicas: "
                    f"{'; '.join(failed)}"
                )
            self._epoch += 1
            epoch = self._epoch
        body = self._write_body(
            protocol.insert_response(oid, epoch), acked, dups, failed, "insert"
        )
        self.registry.inc("repro_serve_updates_total", 1, {"op": "insert"})
        if self.audit is not None:
            self.audit.record_insert(
                obj, oid, epoch,
                request_id=request.request_id if request is not None else None,
            )
        return 200, body

    def handle_delete(self, payload: Any, request=None) -> tuple[int, dict]:
        """POST /delete: fan out the tombstone to the owning group."""
        oid = protocol.parse_delete_request(payload)
        with self._rw.write():
            acked, missing, failed = self._fan_out(
                "/delete", {"oid": oid}, self.placement.owners_of(oid),
                self._node_headers(request), converged_status=404,
            )
            if not acked:
                if missing:
                    raise UnknownOidError(oid)
                raise ShardBackendError(
                    f"delete {oid!r} failed on all replicas: "
                    f"{'; '.join(failed)}"
                )
            self._epoch += 1
            epoch = self._epoch
        body = self._write_body(
            protocol.delete_response(oid, epoch), acked, missing, failed,
            "delete",
        )
        self.registry.inc("repro_serve_updates_total", 1, {"op": "delete"})
        if self.audit is not None:
            self.audit.record_delete(
                oid, epoch,
                request_id=request.request_id if request is not None else None,
            )
        return 200, body

    def _fan_out(
        self,
        path: str,
        payload: dict,
        owners,
        headers: dict,
        *,
        converged_status: int,
    ) -> tuple[list[str], list[str], list[str]]:
        """Send one mutation to every owner; sort outcomes.

        Returns ``(acked, converged, failed)`` node-id lists, where
        ``converged`` collects replicas answering ``converged_status`` —
        409 for an insert (replica already has it), 404 for a delete
        (already gone): per-replica disagreement that nonetheless leaves
        the group in the requested state.  Successful acks also advance
        the node's acked-epoch watermark for stale-read detection.
        """
        futures = [
            (
                nid,
                self._io_exec.submit(
                    self._safe_mutation, self.nodes[nid], path, payload,
                    headers,
                ),
            )
            for nid in owners
        ]
        acked: list[str] = []
        converged: list[str] = []
        failed: list[str] = []
        rejected = None
        for nid, fut in futures:
            status, body, transport_error = fut.result()
            if transport_error is not None:
                failed.append(f"{nid}: {transport_error}")
            elif status == 200:
                acked.append(nid)
                prev = self._acked_epoch.get(nid, 0)
                self._acked_epoch[nid] = max(prev, int(body.get("epoch", 0)))
            elif status == converged_status:
                converged.append(nid)
            else:
                if status in _REJECTIONS:
                    rejected = _Rejected(status, body)
                failed.append(
                    f"{nid}: HTTP {status} {body.get('error', '')!s}"
                )
        if rejected is not None and not acked:
            raise rejected
        return acked, converged, failed

    @staticmethod
    def _safe_mutation(node, path: str, payload: dict, headers: dict):
        try:
            status, body = node.call("POST", path, payload, headers)
            return status, body, None
        except RemoteNodeError as exc:
            return None, {}, str(exc)

    def _write_body(
        self, body: dict, acked, converged, failed, op: str
    ) -> dict:
        body["replicas"] = {
            "acked": len(acked),
            "converged": len(converged),
            "failed": len(failed),
        }
        if failed:
            # The group will heal on anti-entropy (today: operator-driven
            # restore from the audit log); reads are safe meanwhile
            # because they only go to owners, and dead owners fail over.
            body["partial"] = True
            self.registry.inc(
                "repro_router_partial_writes_total", 1, {"op": op}
            )
            log_event(
                "router.partial_write", level="warning", op=op,
                acked=len(acked), failed=failed,
            )
        if converged:
            self.registry.inc(
                "repro_router_reconciled_writes_total", 1, {"op": op}
            )
        return body

    # ----------------------------- health ------------------------------ #

    def _health_loop(self) -> None:
        while not self._stop.wait(self.health_interval_s):
            self._sweep_health()
            try:
                # Keep the federated view warm between /fleet requests
                # (merged quantiles, per-node epochs, breaker states).
                self.fleet.scrape()
            except Exception:  # pragma: no cover - sweep must never die
                pass

    def _sweep_health(self) -> dict[str, bool]:
        """One ``/healthz`` pass over the fleet; updates up-gauges and
        feeds the breakers (a dead node opens its breaker from the sweep
        alone, before any read has to eat the timeout)."""
        up: dict[str, bool] = {}
        for nid, node in self.nodes.items():
            try:
                status, _ = node.call("GET", "/healthz", timeout_s=2.0)
                up[nid] = status == 200
            except RemoteNodeError:
                up[nid] = False
            self.registry.set_gauge(
                "repro_router_node_up", 1.0 if up[nid] else 0.0,
                {"node": nid},
            )
        return up

    # ---------------------------- introspection ------------------------ #

    def handle(
        self, method: str, path: str, payload: Any, request=None
    ) -> tuple[int, dict]:
        """ServeApp routing plus the router-only ``GET /fleet`` view."""
        if method == "GET" and path == "/fleet":
            # A fresh scrape per request: /fleet is the operator's "what
            # is the fleet doing *now*" view, and one round of GETs over
            # the node set is cheap next to a stale answer.
            return 200, self.fleet.scrape()
        try:
            return super().handle(method, path, payload, request)
        except _Rejected as exc:
            return exc.status, exc.body

    def healthz(self) -> dict:
        """GET /healthz: router liveness plus the fleet's vital signs."""
        status = "draining" if self.draining else "ok"
        return {
            "status": status,
            "role": "router",
            "node_id": self.node_id,
            "epoch": self._epoch,
            "shards": self.placement.shards,
            "replication": self.placement.replication,
            "inflight": self._inflight,
            "start_time": self.started_at,
            "uptime_s": time.time() - self.started_at,
            "uptime_seconds": time.time() - self.started_at,
            "cache": self.cache.stats() if self.cache is not None else None,
            "nodes": {
                nid: {
                    **node.stats(),
                    "acked_epoch": self._acked_epoch.get(nid, 0),
                }
                for nid, node in sorted(self.nodes.items())
            },
        }

    def status(self) -> dict:
        """GET /status: health + SLOs + the full placement table."""
        return {
            **self.healthz(),
            "sampler": {
                "rate": self.sampler.rate,
                "decisions": self.sampler.decisions,
                "sampled": self.sampler.sampled,
            },
            "audit": self.audit.stats() if self.audit is not None else None,
            "slo": slo_snapshot(self.registry, self.slo_latency_ms),
            "alerts": self.alerts.snapshot(),
            "fleet": self.fleet.snapshot(),
            "placement": self.placement.to_dict(),
        }

    @property
    def epoch(self) -> int:
        return self._epoch

    def close(self) -> None:
        """Stop the profiler, health sweep, and scatter/IO pools."""
        self.profiler.stop()
        self._stop.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=5.0)
        self._scatter_exec.shutdown(wait=True)
        self._io_exec.shutdown(wait=True)


def _operator(name: str):
    from repro.core.operators import make_operator

    return make_operator(name)
