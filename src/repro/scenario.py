"""Seeded scenario runner: one op stream per serving tier, one oracle.

Run as ``python -m repro.scenario {serve,pool,crash,router,fault}
[--seed N] [--workdir DIR]``; exit 1 prints the selection, seed and
workdir, so the same command replays a failure.  The served selections
drive a seeded op stream (:func:`plan`) through
:class:`repro.serve.remote.RemoteNode` against an in-process
:class:`NNCServer` (``serve``; ``pool`` with two pool workers), twenty
killed-and-restarted durable ``repro serve`` lifetimes (``crash``), or
three nodes behind a ``repro router`` with one node SIGKILLed
(``router``).  The oracle is the target's own audit log replayed by
``replay_audit(..., shards=1)``: every exact answer received must be in
it and replay bit-identical, and every query group (the five operators
on one point set) answered at one epoch must satisfy the Theorem-3
chain.  ``fault`` sweeps seeded fault plans and budgets over the paper's
examples against the unfaulted :class:`NNCSearch`.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import math
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.context import QueryContext
from repro.core.nnc import NNCSearch
from repro.datasets import paper_examples, synthetic
from repro.objects.io import save_objects
from repro.objects.uncertain import UncertainObject
from repro.obs.metrics import MetricsRegistry
from repro.resilience import FAULT_SITES, Budget, FaultPlan, FaultSpec
from repro.serve.audit import AuditLog, answer_digest, load_audit, replay_audit
from repro.serve.cache import ResultCache
from repro.serve.durable import durable_epoch
from repro.serve.remote import RemoteNode, RemoteNodeError
from repro.serve.server import NNCServer, ServeApp
from repro.serve.shm import segment_exists
from repro.serve.updates import DatasetManager

__all__ = ["SELECTIONS", "Plan", "ScenarioFailure", "drive", "main", "plan",
           "run"]

SELECTIONS = ("serve", "pool", "crash", "router", "fault")
#: Theorem-3 order: each operator's candidates contain the previous one's.
#: F+SD's MBR-only test is sufficient for F-SD, so it closes the chain.
OPERATORS = ("SSD", "SSSD", "PSD", "FSD", "F+SD")
CRASH_ROUNDS = 20
NODE_IDS = ("n1", "n2", "n3")
#: Metric families a served selection must find on ``/metrics.json``.
FAMILIES = (
    "repro_serve_requests_total", "repro_serve_cache_hits_total",
    "repro_serve_inflight", "repro_serve_shard_fanout",
    "repro_serve_epoch", "repro_queries_total",
)
#: Requests every target must refuse, with their status, unharmed.
MALFORMED = (
    ("bad", "/query", {"points": [[math.nan, 1.0]]}, 422),
    ("bad", "/query", {"points": [[math.inf, 1.0]]}, 422),
    ("bad", "/query", {"points": [[1.0, 2.0, 3.0]]}, 422),
    ("bad", "/query", {"points": [[1.0, 2.0]], "metric": "cosine"}, 400),
    ("bad", "/insert", {"points": [[1.0, 2.0, 3.0]], "oid": "bad-dim"}, 422),
    ("bad", "/delete", {"oid": True}, 400),
)
#: Statuses each op kind may answer; a "bad" op must answer its own.
_ALLOWED = {"group": {200}, "insert": {200}, "delete": {200, 404},
            "health": {200}}
_PORT_RE = re.compile(r"http://[\d.]+:(\d+)")


class ScenarioFailure(Exception):
    """An invariant of the selected scenario did not hold."""


def _require(ok, message: str) -> None:
    if not ok:
        raise ScenarioFailure(message)


# ------------------------------ op streams ------------------------------ #


@dataclass
class Plan:
    """One target lifetime's inputs, all drawn before any thread starts.

    Each op is ``(kind, path, body)``: kind ``group`` (body without an
    operator: the five are sent in turn), ``insert``, ``delete``,
    ``health`` (no body), or ``bad`` with the status as a fourth item.
    ``kill_at`` is the op index the target is SIGKILLed at; ``knobs``
    holds the other seeded target settings.
    """

    objects: list
    ops: list
    kill_at: int | None = None
    knobs: dict = field(default_factory=dict)


def _cloud(rng: random.Random, m: int, edge: float) -> list:
    x, y = rng.uniform(0, 10_000), rng.uniform(0, 10_000)
    return [[x + rng.uniform(-edge, edge), y + rng.uniform(-edge, edge)]
            for _ in range(m)]


def _stream(rng: random.Random, n_objects: int, n_ops: int, mix) -> Plan:
    """``n_objects`` 2-d objects and ``n_ops`` ops drawn with weights
    ``mix`` over (group, insert, delete, health), plus :data:`MALFORMED`
    at seeded positions.  Deletes pick oids live in stream order."""
    objects = [UncertainObject(_cloud(rng, 4, 50.0), oid=i)
               for i in range(n_objects)]
    live = list(range(n_objects))
    queries = [_cloud(rng, 2, 400.0) for _ in range(3)]
    ops: list = []
    for i in range(n_ops):
        kind = rng.choices(("group", "insert", "delete", "health"), mix)[0]
        if kind == "group":
            body = {"points": rng.choice(queries), "k": rng.randint(1, 3)}
            ops.append(("group", "/query", body))
        elif kind == "insert":
            live.append(f"s{i}")
            body = {"points": _cloud(rng, 3, 50.0), "oid": f"s{i}"}
            ops.append(("insert", "/insert", body))
        elif kind == "delete":
            oid = live.pop(rng.randrange(len(live)))
            ops.append(("delete", "/delete", {"oid": oid}))
        else:
            ops.append(("health", "/healthz", None))
    for bad in MALFORMED:
        ops.insert(rng.randrange(len(ops) + 1), bad)
    return Plan(objects, ops)


def plan(selection: str, seed: int) -> list[Plan]:
    """The inputs of a served selection, one :class:`Plan` per lifetime.

    A pure function of ``(selection, seed)``: ``crash`` gets
    :data:`CRASH_ROUNDS` plans, ``serve``/``pool``/``router`` one.
    """
    rng = random.Random(f"{selection}/{seed}")
    if selection in ("serve", "pool"):
        return [_stream(rng, 150, 30, (4, 3, 2, 2))]
    if selection == "router":
        p = _stream(rng, 80, 2000, (4, 3, 2, 1))
        p.kill_at = rng.randint(15, 30)
        p.knobs["victim"] = rng.choice(NODE_IDS)
        return [p]
    if selection != "crash":
        raise ValueError(f"{selection!r} has no op stream")
    plans = []
    for rnd in range(CRASH_ROUNDS):
        p = _stream(rng, 30, 24, (3, 4, 2, 0))
        p.knobs["snapshot_every"] = rng.randint(3, 10)
        if rnd % 3 == 2:
            p.knobs["kill_at_append"] = rng.randint(2, 8)
        else:
            p.kill_at = rng.randint(2, len(p.ops) - 1)
        plans.append(p)
    return plans


def drive(ops: list, send: Callable[[int, tuple], None], threads: int = 1,
          *, kill_at: int | None = None, kill: Callable | None = None,
          until: Callable[[], bool] | None = None) -> None:
    """Call ``send(i, op)`` over the stream from ``threads`` threads.

    The threads share one cursor, so which ops a target receives never
    depends on the thread count, only their interleaving does.  ``kill()``
    runs once, before op ``kill_at``; ``until()`` (wall clock) may end the
    stream early.  The first exception a ``send`` raises ends the drive
    and is re-raised.
    """
    cursor = itertools.count()
    errors: list[Exception] = []

    def client() -> None:
        for i in cursor:
            if errors or i >= len(ops) or (until is not None and until()):
                return
            if i == kill_at:
                kill()
            try:
                send(i, ops[i])
            except Exception as exc:  # noqa: BLE001 — re-raised below
                errors.append(exc)
                return

    workers = [threading.Thread(target=client) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    if errors:
        raise errors[0]


def _recorder(client: RemoteNode, answers: list):
    """A ``send`` for :func:`drive` keeping op i's ``(status, body)``
    answers, one per request, in ``answers[i]``."""
    def send(i: int, op: tuple) -> None:
        kind, path, body = op[:3]
        if kind == "group":
            answers[i] = [
                client.call("POST", path, {**body, "operator": name})
                for name in OPERATORS
            ]
        else:
            answers[i] = [client.call("GET" if body is None else "POST",
                                      path, body)]

    return send


# ------------------------------- oracle --------------------------------- #


def _check_answers(ops: list, answers: list, extra: dict) -> None:
    """Every answer is well formed; ``extra`` widens :data:`_ALLOWED`."""
    for i, (op, got) in enumerate(zip(ops, answers)):
        kind = op[0]
        for status, body in got or ():
            _require(
                status == op[3] if kind == "bad"
                else status in _ALLOWED[kind] | extra.get(kind, set()),
                f"op {i} ({kind}) answered {status}: {body}",
            )
            if kind == "group" and status == 200:
                _require(body["count"] >= 1 and not body["degraded"],
                         f"op {i}: empty or degraded answer {body}")
            if kind == "health":
                _require(body["status"] == "ok", f"op {i}: health {body}")


def _oracle(audit: Path, objects: list, ops: list, answers: list,
            workdir: Path) -> str:
    """Replay ``audit`` at K=1 and hold every received answer to it."""
    records = load_audit(audit)
    report = replay_audit(records, objects, shards=1)
    (workdir / "replay.json").write_text(
        json.dumps(report.to_dict(), indent=2) + "\n"
    )
    _require(report.ok, f"replay mismatch at K=1: {report.mismatch_count} "
             f"digest mismatch(es), {report.epoch_errors} epoch error(s), "
             f"first {report.mismatches[:3]}")
    audited = {rec.get("request_id"): rec for rec in records
               if rec.get("kind") == "query"}
    served = chains = 0
    for i, (op, got) in enumerate(zip(ops, answers)):
        bodies = [body for status, body in got or () if status == 200]
        if op[0] != "group" or not bodies:
            continue
        for body in bodies:
            rec = audited.get(body["request_id"]) or {}
            _require(rec.get("digest") == answer_digest(body["candidates"])
                     and rec.get("epoch") == body["epoch"],
                     f"op {i}: answer {body['request_id']} at epoch "
                     f"{body['epoch']} is not in the audit log as served")
        served += len(bodies)
        epochs = {body["epoch"] for body in bodies}
        if len(bodies) < len(OPERATORS) or len(epochs) > 1:
            continue
        sets = [{c["oid"] for c in body["candidates"]} for body in bodies]
        for j in range(1, len(sets)):
            _require(sets[j - 1] <= sets[j],
                     f"op {i}: Theorem-3 chain broken at epoch "
                     f"{bodies[0]['epoch']}: NNC({OPERATORS[j - 1]}) has "
                     f"{sorted(map(str, sets[j - 1] - sets[j]))} outside "
                     f"NNC({OPERATORS[j]})")
        chains += 1
    return f"answers={served} replayed={report.replayed} chains={chains}"


# ------------------------------- targets -------------------------------- #


class _ServerThread:
    """NNCServer on a dedicated event-loop thread (no pytest-asyncio)."""

    def __init__(self, server: NNCServer) -> None:
        self.server = server
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.server.start())
        self._ready.set()
        self.loop.run_forever()

    def start(self) -> int:
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("server failed to start")
        return self.server.port

    def drain(self) -> None:
        asyncio.run_coroutine_threadsafe(
            self.server.drain(), self.loop
        ).result(timeout=60.0)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=10.0)


class _Proc:
    """A ``python -m repro`` subprocess; its port is read off stdout and
    its stderr kept in ``log``."""

    def __init__(self, args: list, log: Path, env: dict | None = None):
        self.args, self.log, self.port = [str(a) for a in args], log, None
        with log.open("w") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *self.args],
                stdout=subprocess.PIPE, stderr=err, text=True,
                env={**os.environ, **(env or {})},
            )
        self._bound = threading.Event()
        threading.Thread(target=self._read, daemon=True).start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            match = _PORT_RE.search(line)
            if match and self.port is None:
                self.port = int(match.group(1))
                self._bound.set()
        self._bound.set()

    def client(self, name: str) -> RemoteNode:
        self._bound.wait(60.0)
        _require(self.port is not None, f"`repro {self.args[0]}` did not "
                 f"bind (rc={self.proc.poll()}, log {self.log})")
        return RemoteNode(name, f"http://127.0.0.1:{self.port}",
                          timeout_s=30.0)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30.0)

    def stop(self) -> int:
        """SIGTERM drain; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=60.0)


def _run_inproc(selection: str, p: Plan, workdir: Path) -> str:
    """``serve`` / ``pool``: concurrent traffic, cache, metrics, drain."""
    pool = selection == "pool"
    registry = MetricsRegistry()
    manager = DatasetManager(
        p.objects, shards=2, backend="pool" if pool else "serial",
        workers=2 if pool else None, metrics=registry,
    )
    (workdir / "audit.jsonl").unlink(missing_ok=True)  # a rerun's stale log
    audit = AuditLog(workdir / "audit.jsonl")
    app = ServeApp(manager, cache=ResultCache(64, metrics=registry),
                   registry=registry, max_inflight=8, audit=audit)
    server = _ServerThread(NNCServer(app, port=0))
    client = RemoteNode(selection, f"http://127.0.0.1:{server.start()}",
                        timeout_s=60.0)
    # After the traffic, one query group twice: the repeat is all hits.
    group = next(op for op in p.ops if op[0] == "group")
    ops = p.ops + [group, group]
    answers: list = [None] * len(ops)
    send = _recorder(client, answers)
    try:
        drive(p.ops, send, threads=6)
        send(len(p.ops), group)
        send(len(p.ops) + 1, group)
        _check_answers(ops, answers, dict.fromkeys(
            ("group", "insert", "delete"), {429}
        ))
        _require(all(body.get("cached") for _, body in answers[-1]),
                 "a repeated query group missed the cache")
        status, body = client.call("GET", "/metrics.json")
        missing = [f for f in FAMILIES if f not in body.get("metrics", {})]
        _require(status == 200 and not missing,
                 f"/metrics.json -> {status}, missing {missing}")
        segments = [n for kept in manager.search._shard_segments for n in kept]
    finally:
        server.drain()
        audit.close()
    _require(app.inflight == 0, "drain left requests in flight")
    leaked = [name for name in segments if segment_exists(name)]
    _require(not leaked, f"drain leaked shared-memory segments {leaked}")
    try:
        status, _ = client.call("POST", "/query", group[2], timeout_s=2.0)
    except RemoteNodeError:
        status = 503
    _require(status == 503, f"a drained server answered {status}")
    summary = _oracle(workdir / "audit.jsonl", p.objects, ops, answers,
                      workdir)
    return f"{summary} segments={len(segments)}"


def _crash_round(p: Plan, rdir: Path) -> str:
    """One durable lifetime: traffic, kill, exact restart, drain, replay."""
    shutil.rmtree(rdir, ignore_errors=True)  # a rerun starts from nothing
    rdir.mkdir(parents=True)
    data_dir, audit = rdir / "data", rdir / "audit.jsonl"
    save_objects(rdir / "dataset.npz", p.objects)
    args = ["serve", "--dataset", rdir / "dataset.npz", "--port", 0,
            "--shards", 2, "--data-dir", data_dir, "--fsync", "always",
            "--snapshot-every", p.knobs["snapshot_every"],
            "--audit-log", audit, "--compact-threshold", 0.5]
    torn = p.knobs.get("kill_at_append")
    server = _Proc(args, rdir / "serve-1.log",
                   {"REPRO_WAL_KILL_AT_APPEND": str(torn)} if torn else None)
    answers: list = [None] * len(p.ops)
    killed: list = []
    try:
        send = _recorder(server.client("crash"), answers)
        try:
            drive(p.ops, send, threads=2, kill_at=p.kill_at,
                  kill=lambda: (killed.append(True), server.kill()))
        except RemoteNodeError as exc:
            if not killed:  # only the armed WAL append may end it early
                try:
                    server.proc.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    pass
                _require(torn and server.proc.poll() is not None,
                         f"server dropped a request before its kill: {exc}")
        fired = bool(torn) and server.proc.poll() is not None
    finally:
        server.kill()
    _check_answers(p.ops, answers, {})
    expected, tail = durable_epoch(data_dir)
    _require(not fired or tail is not None,
             f"kill-at-append {torn} fired but the WAL shows no torn tail")
    server = _Proc(args, rdir / "serve-2.log")
    try:
        client = server.client("crash")
        status, body = client.call("GET", "/status")
        _require(status == 200 and body.get("epoch") == expected,
                 f"recovered epoch {body.get('epoch')} != durable epoch "
                 f"{expected} (status {status})")
        _require(tail is None or (body.get("recovery") or {}).get("wal_torn"),
                 f"torn WAL tail at offset {getattr(tail, 'offset', None)} "
                 "was not flagged on the recovery report")
        status, body = client.call("POST", "/insert", {
            "points": [[5000.0, 5000.0], [5001.0, 5001.0]],
            "oid": "after-restart",
        })
        _require(status == 200, f"post-restart insert -> {status}: {body}")
        rc = server.stop()
        _require(rc == 0, f"drain exited rc={rc}")
    finally:
        server.kill()
    summary = _oracle(audit, p.objects, p.ops, answers, rdir)
    return f"epoch={expected} torn={'flagged' if tail else 'no'} {summary}"


def _run_router(p: Plan, workdir: Path) -> str:
    """``router``: a replica SIGKILLed mid-stream, zero failed reads."""
    audit, traces = workdir / "router-audit.jsonl", workdir / "traces"
    audit.unlink(missing_ok=True)  # a rerun's stale log and traces
    shutil.rmtree(traces, ignore_errors=True)
    save_objects(workdir / "dataset.npz", p.objects)
    victim = p.knobs["victim"]
    procs: dict[str, _Proc] = {}
    answers: list = [None] * len(p.ops)
    killed: list = []
    try:
        for nid in NODE_IDS:
            procs[nid] = _Proc(
                ["serve", "--dataset", workdir / "dataset.npz", "--port", 0,
                 "--shards", 4, "--partitioner", "hash", "--node-id", nid,
                 "--compact-threshold", 1.0],
                workdir / f"{nid}.log",
            )
        args = ["router", "--shards", 4, "--replication", 2, "--port", 0,
                "--hedge-ms", 50, "--health-interval-s", 0.5,
                "--node-timeout-s", 5, "--sample", 0.25,
                "--trace-dir", traces, "--audit-log", audit]
        for nid in NODE_IDS:
            args += ["--node", f"{nid}={procs[nid].client(nid).url}"]
        procs["router"] = _Proc(args, workdir / "router.log")
        client = procs["router"].client("router")
        status, health = client.call("GET", "/healthz")
        _require(status == 200 and health.get("role") == "router",
                 f"router /healthz -> {status}: {health}")
        # Past the kill, run longer than the breaker cooldown (5 s).
        try:
            drive(p.ops, _recorder(client, answers), threads=2,
                  kill_at=p.kill_at,
                  kill=lambda: (killed.append(time.monotonic()),
                                procs[victim].kill()),
                  until=lambda: bool(killed)
                  and time.monotonic() - killed[0] > 6.0)
        except RemoteNodeError as exc:
            raise ScenarioFailure(f"router transport failure: {exc}")
        _check_answers(p.ops, answers, {"insert": {503}, "delete": {503}})
        reads = sum(len(got or ()) for op, got in zip(p.ops, answers)
                    if op[0] == "group")
        _require(reads >= 20, f"only {reads} reads completed")
        status, health = client.call("GET", "/healthz")
        breaker = health["nodes"][victim]["breaker"]
        _require(breaker != "closed",
                 f"victim {victim}'s breaker is still closed")
        for name in ("router", *NODE_IDS):
            if name != victim:
                rc = procs[name].stop()
                _require(rc == 0, f"{name} drain exited rc={rc}")
    finally:
        for proc in procs.values():
            proc.kill()
    _require(any(traces.glob("trace-*.json")), "no merged traces written")
    summary = _oracle(audit, p.objects, p.ops, answers, workdir)
    return f"{summary} reads={reads} victim={victim} breaker={breaker}"


# -------------------------------- fault --------------------------------- #


def _run_fault(seed: int) -> str:
    """Every (scene, operator, kernels, budget, fault plan) combination."""
    scenes = []
    for name in ("figure1", "figure3", "figure4", "figure8", "figure9"):
        scene = getattr(paper_examples, name)()
        scenes.append((name, scene.object_list(), scene.query))
    rng = np.random.default_rng(20150531)
    centers = synthetic.anticorrelated_centers(20, 2, rng)
    objects = synthetic.make_objects(centers, 4, 300.0, rng,
                                     on_invalid="strict")
    query = synthetic.make_query(centers[0], 3, 150.0, rng)
    scenes.append(("synthetic-A20", objects, query))
    budgets = {
        "none": None,
        "deadline-0ms": {"deadline_ms": 0.0},
        "checks-3": {"max_dominance_checks": 3},
        "flow-0": {"max_flow_augmentations": 0},
        "generous": {"deadline_ms": 600_000.0, "max_dominance_checks": 10**12,
                     "max_flow_augmentations": 10**12},
    }
    faults = {"none": ()} | {f"error@{site}": (FaultSpec(site, count=2),)
                             for site in FAULT_SITES}
    faults["nan@distance-matrix"] = (FaultSpec("distance-matrix", kind="nan",
                                               count=2),)
    faults["mixed"] = tuple(FaultSpec(site, count=1, probability=0.5)
                            for site in FAULT_SITES)
    cases = list(itertools.product(OPERATORS, (True, False)))
    failures: list[str] = []
    runs = 0
    for scene, objects, query in scenes:
        search = NNCSearch(objects)
        exact = {
            (op, kernels): frozenset(search.run(
                query, op, ctx=QueryContext(query, kernels=kernels)
            ).oids())
            for op, kernels in cases
        }
        for (op, kernels), bname, fname in itertools.product(
            cases, budgets, faults
        ):
            runs += 1
            label = (f"{scene}/{op}/kernels={kernels}/budget={bname}/"
                     f"faults={fname}")
            limits, specs = budgets[bname], faults[fname]
            ctx = QueryContext(
                query, kernels=kernels,
                budget=Budget(**limits) if limits else None,
                faults=FaultPlan(specs, seed=seed) if specs else None,
            )
            try:
                result = search.run(query, op, ctx=ctx)
            except Exception as exc:  # noqa: BLE001 — a taxonomy violation
                failures.append(f"{label}: escaped {type(exc).__name__}: "
                                f"{exc}")
                continue
            got, want = frozenset(result.oids()), exact[(op, kernels)]
            if not got >= want:
                failures.append(f"{label}: superset violated (missing "
                                f"{sorted(map(str, want - got))})")
            elif got != want and result.degradation is None:
                failures.append(f"{label}: inexact answer with no "
                                "degradation report")
            elif got != want and bname in ("none", "generous") \
                    and fname == "none":
                failures.append(f"{label}: generous/no budget must be exact")
    _require(not failures, f"{len(failures)} of {runs} fault runs failed:"
             + "".join(f"\n  {line}" for line in failures[:20]))
    return f"runs={runs}"


# --------------------------------- CLI ---------------------------------- #


def run(selection: str, seed: int, workdir: Path) -> str:
    """Run one selection with its artifacts in ``workdir``.

    Returns a one-line summary.

    Raises:
        ScenarioFailure: an invariant did not hold.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    if selection == "fault":
        return _run_fault(seed)
    plans = plan(selection, seed)
    if selection == "router":
        return _run_router(plans[0], workdir)
    if selection != "crash":
        return _run_inproc(selection, plans[0], workdir)
    for rnd, p in enumerate(plans):
        try:
            line = _crash_round(p, workdir / f"round-{rnd:03d}")
        except ScenarioFailure as exc:
            raise ScenarioFailure(f"round {rnd}: {exc}") from None
        print(f"round {rnd:2d}: ok  {line}", flush=True)
    return f"rounds={len(plans)}"


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: 0 when the selection held, 1 on any failure."""
    parser = argparse.ArgumentParser(prog="python -m repro.scenario",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("selection", choices=SELECTIONS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workdir", metavar="DIR",
                        help="artifacts land here and are kept; default: "
                        "a temp dir, removed on success")
    args = parser.parse_args(argv)
    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="scenario-"))
    start = time.monotonic()
    try:
        summary = run(args.selection, args.seed, workdir)
    except Exception as exc:  # noqa: BLE001 — every failure names its replay
        if not isinstance(exc, ScenarioFailure):
            traceback.print_exc()
        print(f"FAIL {args.selection} seed={args.seed} workdir={workdir}: "
              f"{exc}", file=sys.stderr)
        print(f"     replay: python -m repro.scenario {args.selection} "
              f"--seed {args.seed} --workdir {workdir}", file=sys.stderr)
        return 1
    print(f"scenario {args.selection} seed={args.seed}: ok  {summary} "
          f"({time.monotonic() - start:.1f} s)")
    if not args.workdir:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
