"""Self-checks of the benchmark: exact repeats, failed-op accounting and the
missing-program exit.

Run from the repository root (several minutes: two traced runs of each
workload)::

    python3 -m pytest perfbench/test_repeat.py -q

Two runs at one seed must produce identical answer digests and identical
exact counts (dominance checks, refine checks, cache hits, WAL appends,
fsyncs and bytes, snapshots, compactions, spans per layer), so drift in
those numbers points at the program, not the host.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, "perfbench/run.py"]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


@pytest.mark.parametrize("workload", ["engine-paper", "serve-sharded", "durable-writes"])
def test_two_runs_repeat_exactly(workload):
    outs = []
    for _ in range(2):
        proc = _run(ROOT, "--workload", workload, "--seed", "7", "--trace", "1")
        assert proc.returncode == 0, proc.stderr[-2000:]
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        context = json.loads(lines[-2])["context"]
        assert result["correct"] and result["failed"] == 0
        assert result["metrics"]["spans_dropped"]["value"] == 0
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        assert set(result["metrics"]) == {m["name"] for m in declared}
        assert context["reconcile_max_abs_s"] < 1e-6
        outs.append((context["digest"], context["exact"]))
    assert outs[0][0] == outs[1][0], "answer digests differ between runs"
    assert outs[0][1] == outs[1][1], "exact counts differ between runs"


@pytest.mark.parametrize("workload", ["engine-paper", "serve-sharded", "durable-writes"])
def test_every_workload_reports_every_end_to_end_metric(workload, tmp_path, monkeypatch):
    """The untraced result line holds exactly the manifest's end-to-end
    metrics, in their units, whatever the workload."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import workloads

    wl = workloads.WORKLOADS[workload](7, 1, tmp_path)
    timed = [(wl.label(i), 1.0 + i) for i in range(len(wl.ops))]
    metrics = wl.end_to_end([0.5, 0.6, 0.7], timed, 10.0)
    metrics["peak_rss_mb"] = (1.0, "MiB")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert {k: u for k, (_, u) in metrics.items()} == {m["name"]: m["unit"] for m in declared}
    assert all(v > 0 for v, _ in metrics.values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "engine-paper", "--seed", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_raising_op_counts_as_failed(tmp_path, monkeypatch):
    """An op that raises is a failed op, and so are the acks it puts off."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import run
    import workloads

    engine = workloads.EnginePaper(7, 1, tmp_path / "engine")
    good = [[0, op, [1]] for op in workloads.OPERATORS]
    ok, _ = engine.check(good + [["error", "RuntimeError('boom')"], *good[1:]], None)
    assert ok == [True] * 4 + [False] * 4

    durable = workloads.DurableWrites(7, 1, tmp_path / "durable")
    real_op = durable.op

    def op(state, i, rec=None, tracer=None):
        if i == 3:
            raise RuntimeError("boom")
        return real_op(state, i, rec, tracer)

    durable.op = op
    durable.prepare()
    try:
        durable.before_setup()
        app = durable.setup(traced=False)
        results, _ = run.run_ops(durable, app, stop=durable.writes_per_read + 1)
        answers = run.answers_of(durable, results)
        ok = durable.check_ops(answers, durable.live_after_prep, durable.prep_writes)
        durable.close(app)
    finally:
        durable.cleanup()
    assert answers[3][0] == "error"
    assert ok[:3] == [True] * 3
    assert not any(ok[3:])
