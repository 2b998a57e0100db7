"""The three benchmark workloads: inputs, set-up, one op, answer checks.

Each workload is a closed loop with one caller and no think time over a
fixed op sequence generated from the seed before any clock starts.  The
dataset and the query objects are the same for every seed (see
``inputs.DATASET_SEED``); the seed orders the reads and draws the writes
and cache hits.  The op counts are sized for ``BASE_SECONDS`` and, pooled
over the rounds of an untraced run (``ROUNDS``), leave at least ten
samples beyond every reported p90; a larger ``--seconds`` scales them up
proportionally, a smaller one keeps them.

* ``engine-paper`` — library path at the paper's Table-2 defaults (A-N,
  d=3, m_d=40, m_q=30, density-preserving edges, n=2000, k=1); every query
  object runs under SSD, SSSD, PSD and FSD in turn, with the query context
  built inside the call; the seed orders the query objects.
* ``serve-sharded`` — served reads with a trickle of writes on E-N, d=2,
  m_d=10, m_q=8, n=2000, over ``DatasetManager(shards=4,
  partitioner="round-robin", backend="serial")`` and ``ResultCache(256)``.
  Half the reads are SSD, a quarter each PSD and FSD; every pool query is
  read once as a miss, and 30% of reads re-read a pair of their epoch with
  Zipf-like popularity (cache hits); one op in 20 is an insert or delete.
  It runs and is traced like the others but is not declared in
  ``BENCHMARK.json``: its read p90 rests on the ~11 slowest FSD reads of
  a run, and on a 2-vCPU host whose speed drifts by a third over seconds
  to minutes its spread across seeds exceeds the largest allowed bound.
* ``durable-writes`` — ``DurableDatasetManager`` with the CLI defaults
  (fsync always, snapshot every 256, compact threshold 0.3), K=1 serial,
  on the ``repro serve`` synthetic recipe (A-N, d=2, m=10, n=500); ten
  writes (six inserts, four deletes, in seeded order) per SSD read, reads
  sweeping a fixed query pool.  Set-up is a warm restart from a data dir
  holding a snapshot plus a WAL tail, the same for every seed; replaying
  the tail's R-tree inserts is most of it.

Serve ops run from request bytes to response bytes: ``json.loads`` ->
``ServeApp.dispatch`` -> ``json.dumps(...).encode()``, the work the HTTP
server does minus the socket.  Their answers are checked after the clock
against K=1 ``NNCSearch`` answers, computed in ``ORACLE_WORKERS`` forked
processes that end before the check returns.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import shutil
import statistics
from pathlib import Path

import numpy as np

import inputs as gen
import layers
from repro.core.context import QueryContext
from repro.core.nnc import NNCSearch
from repro.objects.uncertain import UncertainObject
from repro.obs import MetricsRegistry
from repro.serve.cache import ResultCache
from repro.serve.durable import DurableDatasetManager
from repro.serve.server import ServeApp
from repro.serve.updates import DatasetManager

OPERATORS = ("SSD", "SSSD", "PSD", "FSD")
WRITES = ("insert", "delete")

#: Seconds a run's op counts are sized for (``run_seconds``).
BASE_SECONDS = 40

#: Rounds of an untraced run: each sets up afresh and runs its op sequence,
#: so set-up and op times are sampled across the run rather than within one
#: slow or fast spell of the host (on a shared 2-vCPU machine its speed
#: drifts by a third over seconds to minutes).  ``setup_s`` is the median of
#: the rounds' set-ups; latencies pool all rounds.
ROUNDS = 3

#: Worker processes the answer oracle of the serve workloads uses.
ORACLE_WORKERS = 2


def quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method) of ``values``."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def scaled(floor: int, seconds: int) -> int:
    """An op count sized for ``BASE_SECONDS``, scaled up for longer runs."""
    return math.ceil(floor * max(1.0, seconds / BASE_SECONDS))


def _sorted_oids(oids) -> list:
    return sorted(oids, key=lambda oid: (str(type(oid)), oid))


def _query_pool(clouds, centers, size, m_q, h_q, rng) -> list[np.ndarray]:
    """Query clouds centred on stratified dataset objects (paper recipe)."""
    edge = np.full(centers.shape[1], h_q)
    pool = []
    for idx in gen.stratified_picks(centers, size, rng):
        cloud = clouds[idx]
        center = (cloud.min(axis=0) + cloud.max(axis=0)) / 2.0
        pool.append(gen.instance_cloud(center, m_q, edge, rng))
    return pool


class Workload:
    """Hooks the harness calls; the defaults suit a stateless workload."""

    name = ""

    def prepare(self) -> None:
        """Once, before the first set-up (outside every clock)."""

    def before_setup(self) -> None:
        """Before each set-up, outside its clock."""

    def begin_round(self, r: int) -> None:
        """Before round ``r``'s set-up: make ``ops`` that round's sequence."""

    def end_to_end(self, setups: list[float], timed: list, wall: float) -> dict:
        """``(value, unit)`` of every end-to-end metric but peak memory, from
        the set-up times (s) and the ``(label, ms)`` of every op of a run.
        Every workload reports the same metrics."""
        reads = [ms for label, ms in timed if label not in WRITES]
        return {
            "setup_s": (statistics.median(setups), "s"),
            "read_p50_ms": (quantile(reads, 50), "ms"),
            "read_p90_ms": (quantile(reads, 90), "ms"),
            "ops_per_s": (len(timed) / wall, "1/s"),
        }

    def metrics(self, state, timed: list) -> dict:
        """Workload-specific ``(value, unit)`` figures from the ``(label,
        ms)`` of every op and the state at the end of the last round.  They
        go on the context line, not the result line: the result line holds
        only the metrics every workload reports."""
        return {}

    def traced_result(self, counts, result) -> int:
        """Note a traced op's result in ``counts``; returns its response bytes."""
        return 0

    def close(self, state) -> None:
        """Release a set-up's state."""

    def cleanup(self) -> None:
        """Remove files the run left behind."""

    def is_read(self, i: int) -> bool:
        return self.label(i) not in WRITES


# ---------------------------------------------------------------------- #
# engine-paper
# ---------------------------------------------------------------------- #


class EnginePaper(Workload):
    """Figure 12: per-operator response time on the library path."""

    name = "engine-paper"
    queries = 10  # query objects (four reads each) per round in BASE_SECONDS

    def __init__(self, seed: int, seconds: int, workdir: Path) -> None:
        g_data, (g_order,) = gen.dataset_stream(self.name), gen.streams(seed, 1)
        n, d = 2000, 3
        centers = gen.anticorrelated_centers(n, d, g_data)
        self.clouds = gen.make_clouds(centers, 40, gen.density_edge(400.0, n, d), g_data)
        per_round = scaled(self.queries, seconds)
        self.pool = _query_pool(
            self.clouds, centers, per_round * ROUNDS, 30,
            gen.density_edge(200.0, n, d), g_data,
        )
        # Each round runs its own query objects: the per-operator medians
        # rest on every object of the pool, not on a third of it.
        order = [int(qi) for qi in g_order.permutation(len(self.pool))]
        self.rounds = [
            [(qi, op) for qi in order[r::ROUNDS] for op in OPERATORS]
            for r in range(ROUNDS)
        ]
        self.ops = self.rounds[0]
        self.config = {
            "dataset": "A-N", "n": n, "d": d, "m_d": 40, "m_q": 30, "k": 1,
            "queries": len(self.pool), "queries_per_round": per_round,
            "edges": "density-preserving",
        }

    def begin_round(self, r: int) -> None:
        self.ops = self.rounds[r]

    def label(self, i: int) -> str:
        return self.ops[i][1]

    def setup(self, traced: bool) -> NNCSearch:
        objects = [UncertainObject(pts, oid=oid) for oid, pts in enumerate(self.clouds)]
        search = NNCSearch(objects)
        for obj in objects:
            obj.local_rtree()
        return search

    def op(self, search: NNCSearch, i: int, rec=None, tracer=None):
        qi, kind = self.ops[i]
        query = UncertainObject(self.pool[qi], oid=f"Q{qi}")
        if rec is None:
            return search.run(query, kind, k=1)
        with rec.span("core.context"):
            ctx = QueryContext(query, tracer=tracer)
        return search.run(query, kind, k=1, ctx=ctx)

    def answer(self, i: int, result) -> list:
        qi, kind = self.ops[i]
        return [qi, kind, _sorted_oids(result.oids())]

    def metrics(self, search, timed: list) -> dict:
        """Per-operator read p50 (the Figure-12 axis)."""
        return {
            f"{op.lower()}_p50_ms": (
                quantile([ms for label, ms in timed if label == op], 50), "ms"
            )
            for op in OPERATORS
        }

    def traced_result(self, counts, result) -> int:
        layers.note_result(counts, result.counters, len(result))
        return 0

    def check(self, answers: list, state) -> tuple[list[bool], dict]:
        """Theorem 3: NNC(SSD) <= NNC(SSSD) <= NNC(PSD) <= NNC(FSD)."""
        ok = [True] * len(answers)
        step = len(OPERATORS)
        for start in range(0, len(answers), step):
            block = answers[start:start + step]
            if any(a[0] == "error" for a in block):
                ok[start:start + step] = [False] * step
                continue
            sets = [set(a[2]) for a in block]
            if not all(a <= b for a, b in zip(sets, sets[1:])):
                ok[start:start + step] = [False] * step
        return ok, {"theorem3_chain": all(ok)}


# ---------------------------------------------------------------------- #
# Serve workloads
# ---------------------------------------------------------------------- #


class _Served(Workload):
    """Ops as pre-encoded requests against an in-process ``ServeApp``."""

    def __init__(self) -> None:
        self.inserted: dict = {}  # oid -> points of every planned insert
        self.oracle: dict = {}  # (query, operator, epoch) -> K=1 answer

    def _plan_writes(self, rng, live: dict, next_oid: int, kinds):
        """Seeded writes of the given kinds: inserts of perturbed copies of
        live objects, deletes of live oids; updates ``live``."""
        planned = []
        for kind in kinds:
            keys = list(live)
            pick = keys[int(rng.integers(len(keys)))]
            if kind == "delete" and len(live) > 1:
                del live[pick]
                planned.append(("delete", "/delete", {"oid": pick}, pick))
            else:
                src = live[pick]
                pts = src + rng.normal(0.0, self.h / 40.0, size=src.shape)
                live[next_oid] = pts
                self.inserted[next_oid] = pts
                planned.append(
                    ("insert", "/insert", {"oid": next_oid, "points": pts.tolist()}, next_oid)
                )
                next_oid += 1
        return planned, next_oid

    def _read(self, qi: int, kind: str) -> tuple:
        body = {"points": self.pool[qi].tolist(), "operator": kind, "k": 1}
        return (kind, "/query", body, qi)

    def _encode(self, planned: list) -> None:
        self.ops = [(kind, path, json.dumps(body).encode(), arg)
                    for kind, path, body, arg in planned]

    def label(self, i: int) -> str:
        return self.ops[i][0]

    def app(self, manager, registry, traced: bool) -> ServeApp:
        return ServeApp(
            manager,
            cache=ResultCache(256, metrics=registry),
            registry=registry,
            max_inflight=8,
            sample_rate=1.0 if traced else 0.0,
            profile_hz=0.0,
        )

    def op(self, app: ServeApp, i: int, rec=None, tracer=None):
        _, path, body, _ = self.ops[i]
        if rec is None:
            status, resp = app.dispatch("POST", path, json.loads(body))
            return status, json.dumps(resp).encode()
        with rec.span("serve.protocol.decode"):
            payload = json.loads(body)
        with rec.span("serve.server.dispatch"):
            status, resp = app.dispatch("POST", path, payload)
        with rec.span("serve.protocol.encode"):
            out = json.dumps(resp).encode()
        return status, out

    def answer(self, i: int, result) -> list:
        status, out = result
        body = json.loads(out)
        if self.label(i) in WRITES:
            return [status, body.get("epoch"), body.get("oid")]
        oids = _sorted_oids(c["oid"] for c in body.get("candidates", ()))
        return [status, body.get("epoch"), body.get("degraded"), oids]

    def traced_result(self, counts, result) -> int:
        return len(result[1])

    def check_ops(self, answers: list, live: dict, epoch: int) -> list[bool]:
        """Acks carry the next epoch; reads equal a K=1 search at their epoch.

        ``live`` maps the oids live before the first op to their points and
        ``epoch`` is the epoch then.  An op that raised (answer ``["error",
        ...]``) or answered other than 200 fails.
        """
        points = dict(live)
        live = dict(live)
        epochs: dict[int, list] = {}
        expected = []
        for kind, _, _, arg in self.ops[:len(answers)]:
            if kind in WRITES:
                epoch += 1
                if kind == "insert":
                    live[arg] = points[arg] = self.inserted[arg]
                else:
                    live.pop(arg, None)
                expected.append([200, epoch, arg])
            else:
                epochs.setdefault(epoch, list(live))
                expected.append((arg, kind, epoch))
        keys = {
            exp for exp, ans in zip(expected, answers)
            if isinstance(exp, tuple) and ans[0] == 200
        }
        # Every round repeats the op sequence: its answers are computed once.
        oracle = self.oracle
        oracle.update(oracle_answers(keys - oracle.keys(), self.pool, points, epochs))
        return [
            ans == exp if isinstance(exp, list)
            else ans[0] == 200 and ans[1:] == [exp[2], False, oracle[exp]]
            for ans, exp in zip(answers, expected)
        ]


_JOB: dict = {}


def _oracle_share(share: list) -> list:
    """K=1 answers of one worker's ``(query, operator, epoch)`` keys."""
    pool, points, epochs = _JOB["pool"], _JOB["points"], _JOB["epochs"]
    objects: dict = {}
    search, at = None, None
    out = []
    for qi, kind, epoch in share:
        if epoch != at:
            for oid in epochs[epoch]:
                if oid not in objects:
                    objects[oid] = UncertainObject(points[oid], oid=oid)
            search, at = NNCSearch([objects[oid] for oid in epochs[epoch]]), epoch
        query = UncertainObject(pool[qi], oid="Q")
        out.append(_sorted_oids(search.run(query, kind, k=1).oids()))
    return out


def oracle_answers(keys, pool: list, points: dict, epochs: dict) -> dict:
    """The K=1 ``NNCSearch`` answer of every ``(query, operator, epoch)`` key.

    ``epochs`` maps an epoch to its live oids (in load order) and ``points``
    an oid to its instances.  The keys are dealt round-robin, in epoch order,
    to ``ORACLE_WORKERS`` forked processes, so consecutive keys of a worker
    share one search; every worker has ended when this returns.
    """
    if not keys:
        return {}
    keys = sorted(keys, key=lambda k: (k[2], k[0], k[1]))
    shares = [keys[w::ORACLE_WORKERS] for w in range(ORACLE_WORKERS)]
    _JOB.update(pool=pool, points=points, epochs=epochs)
    try:
        with multiprocessing.get_context("fork").Pool(ORACLE_WORKERS) as workers:
            results = workers.map(_oracle_share, shares)
            workers.close()
            workers.join()
    finally:
        _JOB.clear()
    return {k: a for share, res in zip(shares, results) for k, a in zip(share, res)}


class ServeSharded(_Served):
    """K=4 serial scatter-gather plus cross-shard refine, with a result cache."""

    name = "serve-sharded"
    base_reads = 100  # reads per round in BASE_SECONDS
    window = 19  # reads between two writes
    hit_share = 0.3

    def __init__(self, seed: int, seconds: int, workdir: Path) -> None:
        super().__init__()
        g_data, (g_ops,) = gen.dataset_stream(self.name), gen.streams(seed, 1)
        n, d = 2000, 2
        self.h = gen.density_edge(400.0, n, d)
        centers = gen.independent_centers(n, d, g_data)
        self.clouds = gen.make_clouds(centers, 10, self.h, g_data)
        reads = scaled(self.base_reads, seconds)
        hits = round(self.hit_share * reads)
        self.pool = _query_pool(
            self.clouds, centers, reads - hits, 8, gen.density_edge(200.0, n, d), g_data
        )
        draws = gen.served_reads(reads - hits, hits, self.window, g_ops)
        live = dict(enumerate(self.clouds))
        next_oid = 100_000
        planned = []
        for start in range(0, reads, self.window):
            for qi, kind in draws[start:start + self.window]:
                planned.append(self._read(qi, kind))
            writes, next_oid = self._plan_writes(
                g_ops, live, next_oid, [WRITES[int(g_ops.integers(2))]]
            )
            planned.extend(writes)
        self._encode(planned)
        self.config = {
            "dataset": "E-N", "n": n, "d": d, "m_d": 10, "m_q": 8, "k": 1,
            "shards": 4, "partitioner": "round-robin", "backend": "serial",
            "cache": 256, "reads": reads, "writes": len(self.ops) - reads,
            "pool": reads - hits, "cache_hits": hits,
        }

    def setup(self, traced: bool) -> ServeApp:
        objects = [UncertainObject(pts, oid=oid) for oid, pts in enumerate(self.clouds)]
        registry = MetricsRegistry()
        manager = DatasetManager(
            objects, shards=4, partitioner="round-robin", backend="serial",
            on_invalid="strict", compact_threshold=0.3, metrics=registry,
        )
        app = self.app(manager, registry, traced)
        for obj in objects:
            obj.local_rtree()
        return app

    def close(self, app: ServeApp) -> None:
        app.close()

    def check(self, answers: list, app) -> tuple[list[bool], dict]:
        ok = self.check_ops(answers, dict(enumerate(self.clouds)), 0)
        return ok, {"cache": app.cache.stats()}


class DurableWrites(_Served):
    """Write-heavy durable serving: WAL, snapshots, compaction, warm restart."""

    name = "durable-writes"
    base_reads = 100  # reads per round in BASE_SECONDS
    writes_per_read = 10
    insert_share = 0.6  # see metrics(): keeps the write p50 off a mode edge
    prep_writes = 200
    pool_size = 50

    def __init__(self, seed: int, seconds: int, workdir: Path) -> None:
        super().__init__()
        g_data, (g_ops,) = gen.dataset_stream(self.name), gen.streams(seed, 1)
        n, d = 500, 2
        self.h = gen.density_edge(400.0, n, d)
        centers = gen.anticorrelated_centers(n, d, g_data)
        self.clouds = gen.make_clouds(centers, 10, self.h, g_data)
        self.pool = _query_pool(self.clouds, centers, self.pool_size, 8, self.h / 2.0, g_data)
        live = dict(enumerate(self.clouds))
        # The WAL tail the set-up replays is the same for every seed.
        self.prep, next_oid = self._plan_writes(
            g_data, live, 100_000, self._write_kinds(g_data, self.prep_writes)
        )
        self.live_after_prep = dict(live)
        # Whole sweeps of the Z-ordered pool: every seed reads each query
        # object equally often.
        sweeps = math.ceil(scaled(self.base_reads, seconds) / self.pool_size)
        reads = sweeps * self.pool_size
        offset = int(g_ops.integers(self.pool_size))
        planned = []
        for r in range(reads):
            writes, next_oid = self._plan_writes(
                g_ops, live, next_oid, self._write_kinds(g_ops, self.writes_per_read)
            )
            planned.extend(writes)
            planned.append(self._read((offset + r) % self.pool_size, "SSD"))
        self.live_final = set(live)
        self._encode(planned)
        self.workdir = workdir
        self.data_dirs: list[Path] = []
        self.config = {
            "dataset": "A-N", "n": n, "d": d, "m": 10, "m_q": 8, "k": 1,
            "shards": 1, "backend": "serial", "fsync": "always",
            "snapshot_every": 256, "compact_threshold": 0.3, "cache": 256,
            "reads": reads, "writes": reads * self.writes_per_read,
            "wal_tail": self.prep_writes,
        }

    def _write_kinds(self, rng, count: int) -> list[str]:
        """``count`` writes, ``insert_share`` of them inserts, in seeded
        order: every seed makes the same number of each."""
        inserts = round(self.insert_share * count)
        kinds = ["insert"] * inserts + ["delete"] * (count - inserts)
        return [kinds[i] for i in rng.permutation(count)]

    def _manager(self, data_dir: Path, registry, objects=()) -> DurableDatasetManager:
        return DurableDatasetManager(
            objects, data_dir=data_dir, fsync="always", snapshot_every=256,
            compact_threshold=0.3, shards=1, partitioner="round-robin",
            backend="serial", on_invalid="strict", metrics=registry,
        )

    def prepare(self) -> None:
        """A data dir holding a snapshot plus a WAL tail, as a crash leaves it."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        objects = [UncertainObject(pts, oid=oid) for oid, pts in enumerate(self.clouds)]
        manager = self._manager(self.workdir / "prep", None, objects)
        for kind, _, _, arg in self.prep:
            if kind == "insert":
                manager.insert(self.inserted[arg], oid=arg)
            else:
                manager.delete(arg)
        manager.wal.close()

    def before_setup(self) -> None:
        """A fresh copy of the prepared data dir, flushed to disk so that the
        restart's own fsyncs do not also write the copy back."""
        target = self.workdir / f"run{len(self.data_dirs)}"
        shutil.copytree(self.workdir / "prep", target)
        for path in (*target.iterdir(), target):
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        self.data_dirs.append(target)

    def setup(self, traced: bool) -> ServeApp:
        registry = MetricsRegistry()
        manager = self._manager(self.data_dirs[-1], registry)
        app = self.app(manager, registry, traced)
        for shard in manager.search.searches:
            for obj in shard.live_objects():
                obj.local_rtree()
        return app

    def close(self, app: ServeApp) -> None:
        # Dropped as a crash would drop it: every WAL frame is already fsynced.
        app.manager.wal.close()

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def metrics(self, app: ServeApp, timed: list) -> dict:
        """Write acknowledgement p50 and p90, fsync included, and
        ``disk_amp``: data-dir bytes / bytes of live points and probabilities.

        Write latency has three modes: deletes (~0.3 ms), inserts (~1.5 ms)
        and inserts that split a global R-tree node (5-10 ms), 7.5-12% of
        the writes depending on compactions and the host's fsync tail.  A
        percentile on the edge of two modes jumps between them from run to
        run.  With as many inserts as deletes the p50 falls between deletes
        and inserts; six inserts in ten put it inside the insert mode.  No
        percentile in the tail stays off an edge (p90 read 1.6-5.9 ms across
        ten seeds, p95 5.9-8.8 ms): read the p90 beside the per-op latencies
        kept with the run record.
        """
        writes = [ms for label, ms in timed if label in WRITES]
        on_disk = sum(p.stat().st_size for p in app.manager.data_dir.iterdir())
        live = sum(
            obj.points.nbytes + obj.probs.nbytes
            for shard in app.manager.search.searches
            for obj in shard.live_objects()
        )
        return {
            "write_p50_ms": (quantile(writes, 50), "ms"),
            "write_p90_ms": (quantile(writes, 90), "ms"),
            "disk_amp": (on_disk / live, "ratio"),
        }

    def check(self, answers: list, app) -> tuple[list[bool], dict]:
        ok = self.check_ops(answers, self.live_after_prep, self.prep_writes)
        # Restart from the data dir without close(), as after a crash.
        last_epoch = self.prep_writes + sum(1 for op in self.ops if op[0] in WRITES)
        restarted = self._manager(app.manager.data_dir, None)
        live = {o.oid for s in restarted.search.searches for o in s.live_objects()}
        restart_ok = restarted.epoch == last_epoch and live == self.live_final
        restarted.wal.close()
        if not restart_ok:
            ok[-1] = False
        return ok, {"restart_epoch": restarted.epoch, "restart_ok": restart_ok}


WORKLOADS = {w.name: w for w in (EnginePaper, ServeSharded, DurableWrites)}
