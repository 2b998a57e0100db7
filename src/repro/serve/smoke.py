"""Serve smoke test: boot, concurrent mixed traffic, scrape, clean drain.

Run as ``python -m repro.serve.smoke`` (CI job); ``--backend pool
--workers 2`` exercises the persistent shared-memory worker pool end to
end, including epoch publishing under the mixed insert/delete traffic and
segment cleanup on drain.  In one process it:

1. builds a small synthetic dataset and starts :class:`NNCServer` on an
   ephemeral port (event loop on a background thread),
2. fires concurrent mixed traffic — queries across all four operators,
   inserts, deletes of inserted oids, health checks — from worker threads,
3. asserts every response is well-formed, at least one query was served
   from cache, and a post-traffic query equals a fresh single-process
   :class:`repro.core.nnc.NNCSearch` over the live objects (the
   correctness pin survives concurrent mutation),
4. scrapes ``/metrics`` and asserts the ``repro_serve_*`` families are
   present and reconcile with the app-side tallies,
5. drains and asserts new traffic is refused while in-flight work
   finished cleanly.

Exit code 0 = all good; 1 = assertion failure (message on stderr).
"""

from __future__ import annotations

import argparse
import asyncio
import http.client
import json
import sys
import threading

import numpy as np

from repro.core.nnc import NNCSearch
from repro.datasets import synthetic
from repro.obs.metrics import MetricsRegistry
from repro.serve.cache import ResultCache
from repro.serve.server import NNCServer, ServeApp
from repro.serve.updates import DatasetManager

OPERATORS = ("SSD", "SSSD", "PSD", "FSD")


def _request(port: int, method: str, path: str, payload=None, timeout=30.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = json.dumps(payload) if payload is not None else None
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        data = resp.read()
        if resp.getheader("Content-Type", "").startswith("application/json"):
            return resp.status, json.loads(data)
        return resp.status, data.decode()
    finally:
        conn.close()


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


def main(argv: list[str] | None = None) -> int:
    """Run the smoke scenario; 0 = all assertions held (see module doc)."""
    from repro.serve.shard import BACKENDS

    parser = argparse.ArgumentParser(prog="python -m repro.serve.smoke")
    parser.add_argument("--backend", default="serial", choices=BACKENDS)
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for --backend pool")
    parser.add_argument("--shards", type=int, default=2)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(42)
    centers = synthetic.independent_centers(150, 2, rng)
    objects = synthetic.make_objects(centers, 5, 50.0, rng)
    registry = MetricsRegistry()
    manager = DatasetManager(
        objects,
        shards=args.shards,
        partitioner="round-robin",
        backend=args.backend,
        workers=args.workers,
        metrics=registry,
    )
    app = ServeApp(
        manager,
        cache=ResultCache(64, metrics=registry),
        registry=registry,
        max_inflight=8,
    )
    runner = _ServerThread(NNCServer(app, port=0))
    port = runner.start()
    print(f"serve smoke: listening on 127.0.0.1:{port}")

    q_pts = [[5000.0, 5000.0], [5050.0, 5050.0]]
    errors: list[str] = []
    inserted: list = []
    ins_lock = threading.Lock()

    def worker(wid: int) -> None:
        try:
            for i in range(6):
                op = OPERATORS[(wid + i) % len(OPERATORS)]
                status, body = _request(port, "POST", "/query", {
                    "points": q_pts, "operator": op, "k": 1 + (i % 2),
                })
                if status == 429:
                    continue  # shed load is a valid outcome
                assert status == 200, f"query -> {status}: {body}"
                assert body["count"] >= 1 and not body["degraded"]
                if i % 3 == 0:
                    pt = [float(5000 + wid * 10 + i), float(5000 - wid * 5)]
                    status, body = _request(port, "POST", "/insert", {
                        "points": [pt, [pt[0] + 1, pt[1] + 1]],
                    })
                    if status == 200:
                        with ins_lock:
                            inserted.append(body["oid"])
                if i % 4 == 1:
                    with ins_lock:
                        victim = inserted.pop() if inserted else None
                    if victim is not None:
                        status, body = _request(
                            port, "POST", "/delete", {"oid": victim}
                        )
                        assert status in (200, 404, 429), f"delete -> {status}"
                status, body = _request(port, "GET", "/healthz")
                assert status == 200 and body["status"] == "ok"
        except Exception as exc:  # noqa: BLE001 — smoke reports everything
            errors.append(f"worker {wid}: {exc!r}")

    threads = [threading.Thread(target=worker, args=(w,)) for w in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300.0)
    if errors:
        print("FAIL:\n" + "\n".join(errors), file=sys.stderr)
        return 1

    # Repeat one query: second answer must come from cache.
    _request(port, "POST", "/query", {"points": q_pts, "operator": "FSD"})
    status, body = _request(
        port, "POST", "/query", {"points": q_pts, "operator": "FSD"}
    )
    assert status == 200 and body["cached"], "expected a cache hit"

    # Correctness pin under mutation: server answer == fresh monolith.
    status, served = _request(
        port, "POST", "/query",
        {"points": q_pts, "operator": "FSD", "cache": False},
    )
    assert status == 200
    mono = NNCSearch(manager.search.live_objects())
    from repro.objects.uncertain import UncertainObject
    expect = sorted(
        mono.run(UncertainObject(np.array(q_pts), oid="Q"), "FSD").oids()
    )
    got = sorted(c["oid"] for c in served["candidates"])
    assert got == expect, f"served {got} != monolith {expect}"

    status, text = _request(port, "GET", "/metrics")
    assert status == 200
    for family in (
        "repro_serve_requests_total",
        "repro_serve_cache_hits_total",
        "repro_serve_inflight",
        "repro_serve_shard_fanout",
        "repro_serve_epoch",
        "repro_queries_total",
    ):
        assert family in text, f"{family} missing from /metrics"

    published = [
        name for kept in manager.search._shard_segments for name in kept
    ]
    runner.drain()
    assert app.inflight == 0, "drain left requests in flight"
    if published:
        from repro.serve.shm import segment_exists

        leaked = [name for name in published if segment_exists(name)]
        assert not leaked, f"drain leaked shared-memory segments: {leaked}"
    try:
        status, _ = _request(port, "POST", "/query",
                             {"points": q_pts, "operator": "FSD"}, timeout=2.0)
        refused = status == 503
    except (ConnectionError, OSError):
        refused = True
    assert refused, "server still accepting after drain"

    stats = app.cache.stats()
    print(
        f"serve smoke OK: backend={manager.search.backend} "
        f"epoch={manager.epoch} objects={manager.size} "
        f"cache={stats['hits']}h/{stats['misses']}m "
        f"requests={int(registry.total('repro_serve_requests_total'))}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
