"""Zero-dependency continuous sampling profiler with request attribution.

A :class:`SamplingProfiler` is a daemon thread that walks
``sys._current_frames()`` at a configurable rate and aggregates what it
sees as collapsed ("folded") stacks — the `Brendan Gregg flamegraph
format <https://www.brendangregg.com/flamegraphs.html>`_: one line per
unique stack, frames root-first joined by ``;``, followed by the sample
count.  Nothing is installed in the interpreter (no ``settrace``, no
signal handlers), so the profiled process pays only the sampler thread's
own work: at 100 Hz that is one pass over the live threads' frame stacks
per 10 ms.  CI's ``profile-smoke`` job runs it on a two-node fleet and
checks that it samples; no gate times its overhead.

Three things distinguish this from a generic ``_current_frames`` dumper:

* **Request attribution.**  The serving layer binds a
  :class:`repro.obs.request.RequestContext` around every request
  (:func:`repro.obs.request.bind` keeps a thread-id mirror exactly for
  this), so each sample knows which request — and therefore which
  trace/span — the thread was working for.  Stacks get a synthetic root
  frame, ``request`` or ``runtime``, and a bounded per-request tally maps
  request ids to sample counts; "where did this slow query's wall time
  go" becomes a grep.
* **On-CPU approximation.**  Threads whose innermost frame is a known
  scheduler/IO wait (``select.poll``, ``threading.Condition.wait``,
  ``time.sleep``, …) are tallied as *idle* and excluded from the stack
  aggregate, the same approximation py-spy's default mode makes.  A
  serving process always carries an event loop and a few parked executor
  threads; without this filter they would drown the query path.
* **Mergeable output.**  Folded stacks are just ``str -> count`` maps,
  so per-worker profiles from the shared-memory pool backend
  (:func:`repro.serve.shm.pool_profile_snapshot`) merge into the parent's
  view with :func:`merge_folded`, and the router can merge node profiles
  the same way.

:func:`flamegraph_svg` renders a folded-stack map as a self-contained SVG
(hover titles, deterministic warm palette) — the ``flamegraph`` dashboard
figure and the CI artifact both come from it.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any, Iterable

from repro.obs.request import context_for_thread

__all__ = [
    "SamplingProfiler",
    "flamegraph_svg",
    "merge_folded",
    "parse_folded",
]

#: ``(module, function)`` leaf frames treated as off-CPU waits.  A thread
#: parked here is waiting for work, not doing it; counting those stacks
#: would attribute an idle event loop's select() to "load".
_IDLE_LEAVES: frozenset[tuple[str, str]] = frozenset(
    {
        ("select", "select"),
        ("select", "poll"),
        ("selectors", "select"),
        ("time", "sleep"),
        ("socket", "accept"),
        ("socket", "recv"),
        ("socket", "recv_into"),
        ("ssl", "read"),
        ("queue", "get"),
        # A parked executor worker blocks in the C-level SimpleQueue.get,
        # so its Python leaf is the worker loop itself.
        ("concurrent.futures.thread", "_worker"),
    }
)

#: Leaf *function* names that mark a wait wherever they occur (lock and
#: condition waits surface from ``threading`` with C-level acquire on the
#: stack top's caller, so match by name alone).
_IDLE_LEAF_NAMES: frozenset[str] = frozenset(
    {
        "wait",
        "acquire",
        "_wait_for_tstate_lock",
        "wait_for",
        "poll",
        "select",
        "sleep",
        "epoll",
        "kqueue",
    }
)


def _frame_name(frame: Any) -> str:
    code = frame.f_code
    module = frame.f_globals.get("__name__", "?")
    func = getattr(code, "co_qualname", None) or code.co_name
    return f"{module}:{func}"


def _is_idle_leaf(frame: Any) -> bool:
    code = frame.f_code
    module = frame.f_globals.get("__name__", "?")
    name = code.co_name
    if (module, name) in _IDLE_LEAVES:
        return True
    if name in _IDLE_LEAF_NAMES and module in (
        "threading", "selectors", "select", "queue", "time", "socket",
        "asyncio.base_events", "concurrent.futures.thread",
        "concurrent.futures.process", "multiprocessing.connection",
    ):
        return True
    return False


class SamplingProfiler:
    """Continuous sampling profiler over ``sys._current_frames()``.

    Args:
        hz: sampling rate; ``<= 0`` builds a permanently disabled profiler
            (every accessor still works, so callers never branch).
        registry: optional :class:`repro.obs.metrics.MetricsRegistry`;
            fed ``repro_profile_ticks_total`` / ``repro_profile_samples_total``.
        max_depth: stack frames kept per sample (innermost dropped past it).
        max_stacks: distinct folded stacks retained (rare stacks beyond the
            cap fold into a ``request:…;[truncated]`` / ``runtime;[truncated]``
            bucket instead of growing without bound).
        max_requests: per-request tally entries retained.
    """

    def __init__(
        self,
        hz: float = 100.0,
        *,
        registry: Any = None,
        max_depth: int = 64,
        max_stacks: int = 4096,
        max_requests: int = 512,
    ) -> None:
        self.hz = float(hz)
        self.registry = registry
        self.max_depth = int(max_depth)
        self.max_stacks = int(max_stacks)
        self.max_requests = int(max_requests)
        self._stacks: dict[str, int] = {}
        self._requests: dict[str, dict[str, Any]] = {}
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self.ticks = 0
        self.samples = 0
        self.attributed = 0
        self.idle = 0
        self.dropped_requests = 0
        self.started_at: float | None = None

    @property
    def enabled(self) -> bool:
        return self.hz > 0.0

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # ------------------------------ lifecycle --------------------------- #

    def start(self) -> "SamplingProfiler":
        """Start the sampler thread (no-op when disabled or running)."""
        if not self.enabled or self.running:
            return self
        self._stop.clear()
        self.started_at = time.time()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the sampler thread (idempotent); aggregates are kept."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=2.0)
        self._thread = None

    def _run(self) -> None:
        period = 1.0 / self.hz
        next_tick = time.monotonic()
        own_id = threading.get_ident()
        while not self._stop.is_set():
            self.sample_once(skip_thread=own_id)
            next_tick += period
            delay = next_tick - time.monotonic()
            if delay <= 0:
                # Fell behind (GIL contention); re-anchor rather than burn
                # CPU catching up — sampling cadence is best-effort.
                next_tick = time.monotonic()
                continue
            if self._stop.wait(delay):
                break

    # ------------------------------ sampling ---------------------------- #

    def sample_once(self, *, skip_thread: int | None = None) -> int:
        """Take one sample of every live thread; returns threads sampled.

        Public for tests and for deterministic single-shot profiling — the
        daemon loop calls exactly this.
        """
        frames = sys._current_frames()
        sampled = 0
        with self._lock:
            self.ticks += 1
            for tid, frame in frames.items():
                if tid == skip_thread:
                    continue
                sampled += 1
                self.samples += 1
                if _is_idle_leaf(frame):
                    self.idle += 1
                    continue
                stack: list[str] = []
                depth = 0
                f = frame
                while f is not None and depth < self.max_depth:
                    stack.append(_frame_name(f))
                    f = f.f_back
                    depth += 1
                stack.reverse()
                ctx = context_for_thread(tid)
                if ctx is not None:
                    self.attributed += 1
                    stack.insert(0, "request")
                    self._tally_request(ctx)
                else:
                    stack.insert(0, "runtime")
                key = ";".join(stack)
                if key not in self._stacks and len(self._stacks) >= self.max_stacks:
                    key = stack[0] + ";[truncated]"
                self._stacks[key] = self._stacks.get(key, 0) + 1
        if self.registry is not None:
            self.registry.inc("repro_profile_ticks_total")
            self.registry.inc("repro_profile_samples_total", sampled)
        return sampled

    def _tally_request(self, ctx: Any) -> None:
        entry = self._requests.get(ctx.request_id)
        if entry is None:
            if len(self._requests) >= self.max_requests:
                self.dropped_requests += 1
                return
            entry = {
                "samples": 0,
                "trace_id": ctx.trace_id,
                "span_id": ctx.span_id,
            }
            self._requests[ctx.request_id] = entry
        entry["samples"] += 1
        entry["span_id"] = ctx.span_id

    # ------------------------------ reading ----------------------------- #

    def stacks(self) -> dict[str, int]:
        """Folded-stack aggregate (``"root;…;leaf" -> samples``), a copy."""
        with self._lock:
            return dict(self._stacks)

    def folded(self) -> str:
        """Collapsed-stack text, one ``stack count`` line per unique stack,
        highest count first — feed it to any flamegraph tool as-is."""
        with self._lock:
            items = sorted(
                self._stacks.items(), key=lambda kv: (-kv[1], kv[0])
            )
        return "\n".join(f"{stack} {count}" for stack, count in items)

    def snapshot(self, *, top: int | None = 50) -> dict:
        """JSON-able profile state (the ``/profile`` body's core).

        ``stacks`` holds the ``top`` heaviest folded stacks (all when
        None); ``folded`` is the full collapsed-stack text.
        """
        with self._lock:
            items = sorted(
                self._stacks.items(), key=lambda kv: (-kv[1], kv[0])
            )
            requests = {
                rid: dict(entry) for rid, entry in self._requests.items()
            }
            body = {
                "enabled": self.enabled,
                "running": self.running,
                "hz": self.hz,
                "ticks": self.ticks,
                "samples": self.samples,
                "attributed": self.attributed,
                "idle": self.idle,
                "distinct_stacks": len(items),
                "dropped_requests": self.dropped_requests,
                "duration_s": (
                    time.time() - self.started_at
                    if self.started_at is not None
                    else 0.0
                ),
            }
        body["stacks"] = [
            {"stack": stack, "count": count}
            for stack, count in (items if top is None else items[:top])
        ]
        body["folded"] = "\n".join(
            f"{stack} {count}" for stack, count in items
        )
        body["requests"] = requests
        return body

    def reset(self) -> None:
        """Drop all aggregates (counters, stacks, request tallies)."""
        with self._lock:
            self._stacks.clear()
            self._requests.clear()
            self.ticks = self.samples = self.attributed = self.idle = 0
            self.dropped_requests = 0


# --------------------------------------------------------------------- #
# Folded-stack plumbing
# --------------------------------------------------------------------- #


def merge_folded(into: dict[str, int], other: dict[str, int]) -> dict[str, int]:
    """Merge one folded-stack map into another (additive); returns ``into``.

    The pool backend merges per-worker profiles with this, and the
    ``/profile`` endpoint merges worker maps into the serving process's
    own — folded stacks make cross-process merge a dict sum.
    """
    for stack, count in other.items():
        into[stack] = into.get(stack, 0) + int(count)
    return into


def parse_folded(text: str) -> dict[str, int]:
    """Parse collapsed-stack text back into a ``stack -> count`` map."""
    out: dict[str, int] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        stack, _, count = line.rpartition(" ")
        if not stack:
            continue
        try:
            out[stack] = out.get(stack, 0) + int(count)
        except ValueError:
            continue
    return out


# --------------------------------------------------------------------- #
# Flamegraph rendering
# --------------------------------------------------------------------- #

_FRAME_HEIGHT = 17
_MIN_FRACTION = 0.002  # rects narrower than this fraction are elided


class _Node:
    __slots__ = ("count", "children")

    def __init__(self) -> None:
        self.count = 0
        self.children: dict[str, _Node] = {}


def _build_trie(stacks: dict[str, int]) -> tuple[_Node, int]:
    root = _Node()
    for stack, count in stacks.items():
        node = root
        node.count += count
        for frame in stack.split(";"):
            child = node.children.get(frame)
            if child is None:
                child = node.children[frame] = _Node()
            child.count += count
            node = child
    return root, root.count


def _color(name: str) -> str:
    # Deterministic warm palette keyed by the frame name, flamegraph-style.
    h = 0
    for ch in name:
        h = (h * 131 + ord(ch)) & 0xFFFFFF
    r = 205 + (h % 50)
    g = 70 + ((h >> 8) % 110)
    b = (h >> 16) % 60
    return f"rgb({r},{g},{b})"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def flamegraph_svg(
    stacks: dict[str, int],
    *,
    title: str = "CPU flamegraph",
    width: int = 1180,
) -> str:
    """Render folded stacks as a self-contained SVG flamegraph.

    Pure string assembly — no dependencies, safe to embed in the dashboard
    HTML or write as a standalone ``.svg`` CI artifact.  Frames narrower
    than 0.2% of the total are elided (they would be sub-pixel anyway);
    every rect carries a ``<title>`` tooltip with the frame name, sample
    count and percentage.
    """
    root, total = _build_trie(stacks)
    rects: list[str] = []

    def emit(node: _Node, name: str, x: float, depth: int) -> None:
        frac = node.count / total if total else 0.0
        w = frac * (width - 20)
        if w < _MIN_FRACTION * (width - 20):
            return
        y = 40 + depth * _FRAME_HEIGHT
        pct = 100.0 * frac
        label = _escape(name)
        rects.append(
            f'<g><rect x="{x:.1f}" y="{y}" width="{w:.1f}" '
            f'height="{_FRAME_HEIGHT - 1}" fill="{_color(name)}" rx="1">'
            f"<title>{label} — {node.count} samples ({pct:.1f}%)</title>"
            f"</rect>"
            + (
                f'<text x="{x + 3:.1f}" y="{y + 12}" font-size="10" '
                f'font-family="monospace" fill="#1a1a1a" '
                f'pointer-events="none">'
                f"{label[: max(1, int(w / 6.5))]}</text>"
                if w > 30
                else ""
            )
            + "</g>"
        )
        cx = x
        for child_name in sorted(
            node.children, key=lambda n: (-node.children[n].count, n)
        ):
            child = node.children[child_name]
            emit(child, child_name, cx, depth + 1)
            cx += (child.count / total) * (width - 20) if total else 0.0

    depth_of = [0]

    def measure(node: _Node, depth: int) -> None:
        depth_of[0] = max(depth_of[0], depth)
        for child in node.children.values():
            measure(child, depth + 1)

    measure(root, 0)
    cx = 10.0
    for name in sorted(root.children, key=lambda n: (-root.children[n].count, n)):
        child = root.children[name]
        emit(child, name, cx, 0)
        cx += (child.count / total) * (width - 20) if total else 0.0

    height = 40 + (depth_of[0] + 1) * _FRAME_HEIGHT + 10
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'font-family="sans-serif">'
        f'<rect width="{width}" height="{height}" fill="#fcfcf7"/>'
        f'<text x="10" y="20" font-size="14" font-weight="bold">'
        f"{_escape(title)}</text>"
        f'<text x="10" y="34" font-size="11" fill="#555">'
        f"{total} samples, {len(stacks)} distinct stacks"
        f"</text>"
    )
    if total == 0:
        head += (
            f'<text x="10" y="60" font-size="12" fill="#888">'
            f"no samples recorded</text>"
        )
    return head + "".join(rects) + "</svg>"
