"""Continuous sampling profiler: attribution, idle filter, folded output.

Every test drives :meth:`SamplingProfiler.sample_once` by hand from the
test thread — the daemon loop calls exactly that method, so manual
sampling exercises the same code path with a deterministic sample count
instead of a wall-clock race.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs.profile import (
    SamplingProfiler,
    flamegraph_svg,
    merge_folded,
    parse_folded,
)
from repro.obs.request import RequestContext, bind


class _BusyThread:
    """A thread spinning in a recognisably-named function."""

    def __init__(self, ctx: RequestContext | None = None) -> None:
        self._stop = threading.Event()
        self._ctx = ctx
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self) -> None:
        if self._ctx is not None:
            with bind(self._ctx):
                self._spin_for_profiler()
        else:
            self._spin_for_profiler()

    def _spin_for_profiler(self) -> None:
        while not self._stop.is_set():
            sum(i * i for i in range(200))

    def stop(self) -> None:
        self._stop.set()
        self.thread.join(timeout=5.0)


def _sample_until(prof: SamplingProfiler, predicate, rounds: int = 2000):
    own = threading.get_ident()
    for _ in range(rounds):
        prof.sample_once(skip_thread=own)
        if predicate():
            return
    pytest.fail("predicate never satisfied while sampling")


class TestSampling:
    def test_busy_thread_lands_in_stacks(self):
        prof = SamplingProfiler(0.0)  # disabled loop; manual sampling works
        worker = _BusyThread()
        try:
            _sample_until(
                prof,
                lambda: any(
                    "_spin_for_profiler" in s for s in prof.stacks()
                ),
            )
        finally:
            worker.stop()
        stacks = prof.stacks()
        spin = [s for s in stacks if "_spin_for_profiler" in s]
        # Unbound thread: synthetic root is "runtime", frames root-first.
        assert all(s.startswith("runtime;") for s in spin)
        assert prof.samples > 0 and prof.ticks > 0

    def test_bound_thread_is_attributed_to_its_request(self):
        prof = SamplingProfiler(0.0)
        ctx = RequestContext.new(request_id="prof-req-1", sampled=True)
        worker = _BusyThread(ctx)
        try:
            _sample_until(prof, lambda: prof.attributed > 0)
        finally:
            worker.stop()
        stacks = prof.stacks()
        assert any(s.startswith("request;") for s in stacks)
        snap = prof.snapshot()
        entry = snap["requests"]["prof-req-1"]
        assert entry["samples"] >= 1
        assert entry["trace_id"] == ctx.trace_id

    def test_parked_thread_counts_idle_not_stack(self):
        prof = SamplingProfiler(0.0)
        gate = threading.Event()
        parked = threading.Thread(target=gate.wait, daemon=True)
        parked.start()
        try:
            _sample_until(prof, lambda: prof.idle > 0)
        finally:
            gate.set()
            parked.join(timeout=5.0)
        # The Event.wait leaf (threading:wait) never becomes a stack.
        assert not any("Event.wait" in s for s in prof.stacks())

    def test_parked_executor_worker_counts_idle_not_stack(self):
        prof = SamplingProfiler(0.0)
        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(int).result()
            time.sleep(0.05)  # the worker returns to its queue and parks
            for _ in range(20):
                prof.sample_once(skip_thread=threading.get_ident())
        assert prof.idle >= 20
        assert not any(
            s.endswith("concurrent.futures.thread:_worker") for s in prof.stacks()
        )

    def test_skip_thread_excludes_the_sampler_itself(self):
        prof = SamplingProfiler(0.0)
        own = threading.get_ident()
        prof.sample_once(skip_thread=own)
        assert not any("sample_once" in s for s in prof.stacks())

    def test_disabled_profiler_never_starts_but_still_samples(self):
        prof = SamplingProfiler(0.0)
        assert not prof.enabled
        prof.start()
        assert not prof.running
        assert prof.sample_once() >= 1  # manual sampling still works
        prof.stop()  # idempotent no-op

    def test_start_stop_lifecycle(self):
        prof = SamplingProfiler(200.0)
        assert prof.enabled
        worker = _BusyThread()
        try:
            prof.start()
            assert prof.running
            deadline = threading.Event()
            for _ in range(100):
                if prof.ticks > 0:
                    break
                deadline.wait(0.02)
            prof.stop()
        finally:
            worker.stop()
        assert not prof.running
        assert prof.ticks > 0

    def test_registry_meters_ticks_and_samples(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        prof = SamplingProfiler(0.0, registry=registry)
        prof.sample_once()
        assert registry.value("repro_profile_ticks_total") == 1.0
        assert registry.value("repro_profile_samples_total") >= 1.0

    def test_snapshot_shape(self):
        prof = SamplingProfiler(0.0)
        prof.sample_once()
        snap = prof.snapshot(top=5)
        for key in (
            "enabled", "running", "hz", "ticks", "samples", "attributed",
            "idle", "distinct_stacks", "dropped_requests", "duration_s",
            "stacks", "folded", "requests",
        ):
            assert key in snap
        assert len(snap["stacks"]) <= 5

    def test_reset_drops_aggregates(self):
        prof = SamplingProfiler(0.0)
        prof.sample_once()
        prof.reset()
        assert prof.samples == 0 and prof.stacks() == {}


class TestFoldedPlumbing:
    def test_folded_parse_round_trip(self):
        prof = SamplingProfiler(0.0)
        worker = _BusyThread()
        try:
            _sample_until(prof, lambda: len(prof.stacks()) >= 1)
        finally:
            worker.stop()
        assert parse_folded(prof.folded()) == prof.stacks()

    def test_parse_folded_skips_garbage_lines(self):
        text = "a;b 3\n\nnot-a-count xx\na;b 2\nc 1\n"
        assert parse_folded(text) == {"a;b": 5, "c": 1}

    def test_merge_folded_is_additive(self):
        into = {"a;b": 2, "c": 1}
        merge_folded(into, {"a;b": 3, "d": 7})
        assert into == {"a;b": 5, "c": 1, "d": 7}


class TestFlamegraph:
    STACKS = {
        "runtime;mod:outer;mod:inner": 60,
        "runtime;mod:outer;mod:other": 30,
        "request;mod:handler": 10,
    }

    def test_svg_well_formed_with_titles(self):
        svg = flamegraph_svg(self.STACKS, title="test graph")
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "test graph" in svg
        assert "mod:outer" in svg and "mod:inner" in svg
        # every frame rect (grouped <g>) carries a hover <title>
        assert svg.count("<g>") == svg.count("<title") > 0

    def test_svg_escapes_markup_in_frame_names(self):
        svg = flamegraph_svg({"runtime;mod:<genexpr>": 5})
        assert "<genexpr>" not in svg
        assert "&lt;genexpr&gt;" in svg

    def test_empty_profile_renders(self):
        svg = flamegraph_svg({})
        assert svg.startswith("<svg")
