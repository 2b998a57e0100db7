"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload engine-paper --seed 20150531 \\
        --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: several
rounds (``workloads.ROUNDS``), each a set-up followed by a fixed op sequence
in a closed loop, then the answer checks, which run after the clock and
after peak memory is read.  ``--seconds`` sizes the op sequences (see
``workloads.BASE_SECONDS``).  ``--trace 1`` runs the first round's sequence
traced and reports per-layer metrics (see ``layers.py``); its tracing
overhead compares that pass with the same sequence run untraced on a fresh
set-up just before it.

Before and after the workload a fixed loop that calls no repository code
is timed.  Those medians, the host (nproc, Python, NumPy), the pinned
configuration, the answer digest and, traced, the exact counts are printed
on the context line (the line before the result) and kept with per-op
latencies in ``perfbench/out/``; they are never folded into the metrics.
So are, untraced, the workload's own figures (``engine-paper``: per-operator
read p50; ``durable-writes``: write p50 and p90 and ``disk_amp``).
The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
its metrics are the same for every workload: every ``end_to_end`` metric of
``BENCHMARK.json`` untraced, every ``per_layer`` metric traced.
Per-op answers at the default seed are pinned in ``answers.json``
(``--store-answers`` rewrites the entry for the current seed).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEFAULT_SEED = 20150531

perf = time.perf_counter


def host_probe(reps: int = 9) -> float:
    """Median ms of a fixed pure-Python loop (host speed, no repo code)."""
    times = []
    for _ in range(reps):
        t0 = perf()
        acc = 0
        for i in range(200_000):
            acc += i * i
        times.append(perf() - t0)
    return round(statistics.median(times) * 1000.0, 4)


def digest(answers: list) -> str:
    return hashlib.sha256(json.dumps(answers, sort_keys=True).encode()).hexdigest()


def op_hashes(answers: list) -> list[str]:
    return [hashlib.sha256(json.dumps(a).encode()).hexdigest()[:12] for a in answers]


def run_ops(wl, state, rec=None, tracer=None, stop=None) -> tuple[list, list]:
    """The closed loop: ops in order, one caller, no think time."""
    results, lat = [], []
    for i in range(len(wl.ops) if stop is None else stop):
        if rec is not None:
            rec.op_id = i + 1
            idx = rec.open("op")
        t0 = perf()
        try:
            result = wl.op(state, i, rec, tracer)
        except Exception as exc:  # noqa: BLE001 — a failed op is counted, not fatal
            result = exc
        lat.append(perf() - t0)
        if rec is not None:
            rec.close(idx)
        results.append(result)
    return results, lat


def timed_setup(wl, traced: bool, rec=None):
    gc.collect()
    wl.before_setup()
    t0 = perf()
    if rec is not None:
        rec.op_id = 0
        idx = rec.open("setup")
    try:
        state = wl.setup(traced)
    finally:
        if rec is not None:
            rec.close(idx)
    return state, perf() - t0


def answers_of(wl, results: list) -> list:
    return [
        ["error", repr(r)] if isinstance(r, Exception) else wl.answer(i, r)
        for i, r in enumerate(results)
    ]


def measure(wl) -> tuple[dict, list, list, dict]:
    """Untraced run: end-to-end metrics, answers, per-op verdicts, notes.

    ``workloads.ROUNDS`` rounds, each a fresh set-up and that round's op
    sequence; answers and verdicts cover every op of every round, in order.
    """
    from workloads import ROUNDS

    setups, timed, rounds = [], [], []
    wall = 0.0
    state = None
    for r in range(ROUNDS):
        if state is not None:
            wl.close(state)
            state = None
        wl.begin_round(r)
        state, secs = timed_setup(wl, traced=False)
        setups.append(secs)
        gc.collect()
        t0 = perf()
        results, lat = run_ops(wl, state)
        wall += perf() - t0
        timed += [(wl.label(i), t * 1000.0) for i, t in enumerate(lat)]
        rounds.append(answers_of(wl, results))
        del results
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = wl.end_to_end(setups, timed, wall)
    metrics["peak_rss_mb"] = (peak_kib / 1024.0, "MiB")
    workload_metrics = {
        k: {"value": v, "unit": u} for k, (v, u) in wl.metrics(state, timed).items()
    }
    answers, ok = [], []
    for r, round_answers in enumerate(rounds):
        wl.begin_round(r)
        good, notes = wl.check(round_answers, state)
        answers += round_answers
        ok += good
    wl.close(state)
    notes["workload_metrics"] = workload_metrics
    notes["setup_s_all"] = setups
    notes["latency_ms"] = timed
    return metrics, answers, ok, notes


def measure_traced(wl, spans_path: Path) -> tuple[dict, list, list, dict]:
    """Traced run: per-layer metrics of every op, plus tracing overhead.

    The overhead compares the traced pass with the whole op sequence run
    untraced on a fresh set-up just before it: a shorter stretch would let
    one garbage collection of the set-up's objects (~0.2 s on
    ``engine-paper``, a few per round) decide the figure.
    """
    import layers

    state, _ = timed_setup(wl, traced=False)
    gc.collect()
    _, untraced = run_ops(wl, state)
    wl.close(state)
    del state
    gc.collect()

    rec = layers.Recorder()
    tracer = layers.EngineTracer(rec)
    patches = layers.install(rec)
    try:
        state, _ = timed_setup(wl, traced=True, rec=rec)
        setup_counts = Counter(rec.counts)
        rec.counts.clear()
        gc.collect()
        results, lat = run_ops(wl, state, rec, tracer)
    finally:
        patches.undo()
    run_counts = Counter(rec.counts)
    response_bytes = sum(
        wl.traced_result(run_counts, r) for r in results if not isinstance(r, Exception)
    )
    n_reads = sum(1 for i in range(len(wl.ops)) if wl.is_read(i))
    metrics = layers.layer_metrics(
        rec, setup_counts, run_counts, len(lat), n_reads, response_bytes
    )
    metrics["trace_overhead"] = sum(lat) / sum(untraced) - 1.0
    answers = answers_of(wl, results)
    ok, notes = wl.check(answers, state)
    wl.close(state)
    residual = rec.reconcile()
    if residual > 1e-6:
        ok = [False] * len(ok)
    notes.update({
        "reconcile_max_abs_s": residual,
        "spans": len(rec.name),
        "exact": layers.exact_counts(rec, setup_counts, run_counts),
    })
    rec.save(spans_path)
    return {k: (v, _layer_unit(k)) for k, v in metrics.items()}, answers, ok, notes


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_share", "_ratio")) or name == "trace_overhead":
        return "ratio"
    if name.endswith("_bytes") or name == "serve.wal.bytes":
        return "bytes"
    return "count"


def stored_check(wl, seed: int, answers: list) -> tuple[list[bool] | None, str]:
    """Per-op answers against the ones stored for this seed (a traced run
    answers the first round: a prefix of the stored answers)."""
    path = HERE / "answers.json"
    stored = json.loads(path.read_text()).get(wl.name, {}).get(str(seed))
    if stored is None or stored["ops"] < len(answers):
        return None, "none stored for this seed and op count"
    hashes = op_hashes(answers)
    return [a == b for a, b in zip(hashes, stored["hashes"])], stored["digest"]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--store-answers", action="store_true",
                    help="record this run's per-op answer hashes in answers.json")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no program source under {src}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(src)]
    import numpy as np
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, OUT / f"{args.workload}-{os.getpid()}"
    )
    try:
        wl.prepare()
        probe_before = host_probe()
        if args.trace:
            spans = OUT / f"spans-{wl.name}-{args.seed}.npz"
            metrics, answers, ok, notes = measure_traced(wl, spans)
        else:
            metrics, answers, ok, notes = measure(wl)
        probe_after = host_probe()
    finally:
        wl.cleanup()

    stored_ok, stored_digest = stored_check(wl, args.seed, answers)
    if stored_ok is not None:
        ok = [a and b for a, b in zip(ok, stored_ok)]
    if args.store_answers:
        path = HERE / "answers.json"
        table = json.loads(path.read_text()) if path.exists() else {}
        table.setdefault(wl.name, {})[str(args.seed)] = {
            "ops": len(answers), "digest": digest(answers), "hashes": op_hashes(answers),
        }
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")

    failed = sum(1 for good in ok if not good)
    context = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "config": wl.config,
        "pins": {"single_caller": True, "sample_rate": 1.0 if args.trace else 0.0,
                 "profile_hz": 0.0, "router": False, "background_threads": False},
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__, "machine": platform.machine()},
        "host_probe_ms": {"before": probe_before, "after": probe_after},
        "ops": len(answers),
        "digest": digest(answers),
        "stored_digest": stored_digest,
        **notes,
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"run-{wl.name}-{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"context": context, "answers": answers}, default=str))
    context.pop("latency_ms", None)
    print(json.dumps({"context": context}, default=str))
    result = {
        "correct": failed == 0,
        "attempted": len(ok),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
