"""The seeded scenario runner: a clean pass, a planted bug, determinism."""

from __future__ import annotations

import json
import threading

import pytest

from repro import scenario
from repro.serve.shard import ShardedSearch


def test_serve_selection_passes_and_catches_a_dropped_shard(
    tmp_path, monkeypatch
):
    summary = scenario.run("serve", 0, tmp_path / "clean")
    assert "answers=" in summary
    assert json.loads((tmp_path / "clean" / "replay.json").read_text())["ok"]

    order = ShardedSearch._shard_order

    def drop_last_shard(self, query):
        # The served K=2 search loses a shard; the K=1 oracle keeps its one.
        kept = order(self, query)
        return kept[:-1] if len(kept) > 1 else kept

    monkeypatch.setattr(ShardedSearch, "_shard_order", drop_last_shard)
    with pytest.raises(scenario.ScenarioFailure, match="replay mismatch"):
        scenario.run("serve", 0, tmp_path / "planted")


def _dump(plans) -> str:
    return json.dumps([
        ([o.points.tolist() for o in p.objects], p.ops, p.kill_at, p.knobs)
        for p in plans
    ])


@pytest.mark.parametrize("selection", ["serve", "pool", "crash", "router"])
def test_op_stream_is_a_pure_function_of_selection_and_seed(selection):
    assert _dump(scenario.plan(selection, 0)) == _dump(
        scenario.plan(selection, 0)
    )
    assert _dump(scenario.plan(selection, 0)) != _dump(
        scenario.plan(selection, 1)
    )


def test_drive_sends_the_same_stream_at_any_thread_count():
    ops = scenario.plan("router", 3)[0].ops[:200]
    for threads in (1, 2, 6):
        sent, kills = [], []
        lock = threading.Lock()

        def send(i, op):
            with lock:
                sent.append((i, op))

        scenario.drive(ops, send, threads=threads, kill_at=40,
                       kill=lambda: kills.append(len(sent)))
        assert json.dumps(sorted(sent, key=lambda pair: pair[0])) == (
            json.dumps(list(enumerate(ops)))
        )
        assert len(kills) == 1
