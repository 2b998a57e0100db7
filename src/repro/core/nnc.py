"""NN candidates computation — Algorithm 1 of the paper.

Objects (their MBRs) live in a global R-tree.  A min-heap visits entries and
objects in non-decreasing minimal distance to the query; every surviving
object joins the candidate set, and accepted candidates prune later entries
through the MBR-level F-SD validation rule (Theorem 4).

Two exactness refinements over the paper's sketch:

* objects are *re-keyed by their exact* ``min(V_Q)`` before processing (the
  MBR mindist is only a lower bound), so the "no later object can dominate
  an earlier one" argument — which rests on the statistic pruning rule
  ``min(U_Q) <= min(V_Q)`` — holds exactly;
* objects whose exact minimal distances tie are cross-checked in both
  directions before being reported, so the output equals the brute-force
  NNC even under distance ties.

The search is *progressive* (Figure 14): :meth:`NNCSearch.stream` yields
candidates as soon as they are certain, long before the traversal finishes.
"""

from __future__ import annotations

import contextvars
import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.core import fsd, psd, sssd
from repro.core import kernels as K
from repro.core.context import QueryContext
from repro.core.counters import Counters
from repro.core.operators import OperatorKind, _BaseOperator, make_operator
from repro.geometry.mbr import MBR, mbr_dominates
from repro.index.rtree import GLOBAL_FANOUT, RTree
from repro.objects.uncertain import UncertainObject
from repro.obs.metrics import query_metrics_from_counters
from repro.resilience import RECOVERABLE_FAULTS
from repro.resilience.budget import BudgetExhausted, DegradationReport
from repro.resilience.faults import NumericalFault

_TIE_TOL = 1e-9

#: ``(id(search), report)`` of the most recent search finished in this
#: thread/task.  A ContextVar (not module or instance state) so concurrent
#: server requests sharing one :class:`NNCSearch` cannot observe each
#: other's degradation reports; read through
#: :attr:`NNCSearch.last_degradation`.
_LAST_DEGRADATION: contextvars.ContextVar[tuple[int, object] | None] = (
    contextvars.ContextVar("repro_last_degradation", default=None)
)


def _fault_reason(exc: Exception) -> str:
    """Event-label for a recovered fault (degradation report vocabulary)."""
    return "non-finite" if isinstance(exc, NumericalFault) else "injected"

# Operator kinds whose own filter stack re-derives the Theorem 11 statistic
# screen, making the batch pre-screen in the search loop a pure shortcut
# (excluded records would be rejected by the operator anyway, with the same
# statistics and tolerance).  Gated on the operator's flags so ablation
# configurations keep their honest cost profile.
_SCREEN_BY_STATISTICS = frozenset({OperatorKind.S_SD})
_SCREEN_BY_COVER = frozenset({OperatorKind.SS_SD, OperatorKind.P_SD})


def _screen_applies(operator: _BaseOperator) -> bool:
    """Whether the batch statistic screen mirrors this operator's pruning."""
    if operator.kind in _SCREEN_BY_STATISTICS:
        return operator.use_statistics
    if operator.kind in _SCREEN_BY_COVER:
        return operator.use_cover_pruning
    return False


def _mbr_screen_applies(operator: _BaseOperator, ctx: QueryContext) -> bool:
    """Whether the batched strict MBR validation replaces the operators' own.

    Every operator opens with the same strict Theorem 4 test (sufficient for
    dominance under all five semantics, F-SD being the strongest); batching
    it across the accepted set is valid exactly when the operator would run
    it scalar: F+-SD always does (it *is* the test), F-SD whenever the
    metric is Euclidean, the rest gate it on their ``use_mbr_validation``
    flag too.
    """
    if operator.kind is OperatorKind.F_PLUS_SD:
        return True
    if not ctx.is_euclidean:
        return False
    if operator.kind is OperatorKind.F_SD:
        return True
    return operator.use_mbr_validation


class _AcceptedIndex:
    """Stacked arrays over the accepted candidates for the batch screens.

    ``_entry_pruned`` and the pair screens run on every heap pop, but the
    accepted set changes only on accept/evict; each stack is rebuilt lazily
    against a revision counter bumped at each mutation, so steady state pays
    one numpy call per pop instead of one ``np.stack`` each.
    """

    __slots__ = ("rev", "_stacks")

    def __init__(self) -> None:
        self.rev = 0
        self._stacks: dict[str, object] = {}

    def bump(self) -> None:
        """Mark the accepted set as changed: every stack is rebuilt on use."""
        self.rev += 1
        self._stacks.clear()

    def boxes(self, accepted: list[list]) -> tuple:
        """Stacked ``(los, his)`` MBR corners of the accepted candidates."""
        out = self._stacks.get("boxes")
        if out is None:
            out = self._stacks["boxes"] = (
                np.stack([record[0].mbr.lo for record in accepted]),
                np.stack([record[0].mbr.hi for record in accepted]),
            )
        return out

    def statistics(self, accepted: list[list], ctx: QueryContext) -> np.ndarray:
        """``(n, 3)`` matrix of the accepted candidates' (min, mean, max)."""
        out = self._stacks.get("statistics")
        if out is None:
            out = self._stacks["statistics"] = np.array(
                [ctx.statistics(record[0]) for record in accepted], dtype=float
            )
        return out

    def corner_sq(self, accepted: list[list], q_mbr) -> np.ndarray:
        """Cached :func:`repro.geometry.mbr.mbr_corner_terms` of the boxes.

        The candidate-side half of the batched Theorem 4 test depends only
        on the accepted boxes and the (fixed) query box, so it is shared by
        every entry/object screened against the same accepted set.
        """
        out = self._stacks.get("corner")
        if out is None:
            los, his = self.boxes(accepted)
            out = self._stacks["corner"] = K.mbr_corner_terms(
                los, his, q_mbr.lo, q_mbr.hi
            )
        return out

    def hull_max(self, accepted: list[list], ctx: QueryContext) -> np.ndarray:
        """``(n, h)``: per hull vertex, each candidate's farthest instance."""
        out = self._stacks.get("hull_max")
        if out is None:
            out = self._stacks["hull_max"] = np.stack(
                [ctx.hull_extremes(record[0])[0] for record in accepted]
            )
        return out

    def row_extremes(self, accepted: list[list], ctx: QueryContext) -> tuple:
        """``(n, |Q|)`` per query instance nearest and farthest distances."""
        out = self._stacks.get("row_extremes")
        if out is None:
            rows = [ctx.row_extremes(record[0]) for record in accepted]
            out = self._stacks["row_extremes"] = (
                np.stack([r[0] for r in rows]),
                np.stack([r[1] for r in rows]),
            )
        return out


@dataclass
class NNCResult:
    """Outcome of an NNC search.

    Attributes:
        candidates: the NN candidate objects in acceptance order.
        elapsed: total wall-clock seconds.
        yield_times: seconds (from search start) at which each candidate
            became certain — the progressive profile of Figure 14(a).
        counters: instrumentation collected during the search.
        degradation: ``None`` for an exact answer; otherwise the
            :class:`repro.resilience.budget.DegradationReport` explaining why
            the candidate list is a certified *superset* of the exact NNC
            (budget exhausted, or dominance decisions lost to recovered
            faults and defaulted to conservative non-dominance).
    """

    candidates: list[UncertainObject] = field(default_factory=list)
    elapsed: float = 0.0
    yield_times: list[float] = field(default_factory=list)
    counters: Counters = field(default_factory=Counters)
    degradation: DegradationReport | None = None
    #: Dominators found for each candidate (same order as ``candidates``),
    #: capped at ``k``.  Exact enough for membership: a candidate's true
    #: dominator count reaches ``k`` iff this one does (the k-skyband
    #: counting equivalence) — the input to the scatter-gather refiner of
    #: :mod:`repro.serve.shard`.  Conservative (drained) accepts report 0.
    dominator_counts: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.candidates)

    @property
    def exact(self) -> bool:
        """Whether the answer is exact (no degradation occurred)."""
        return self.degradation is None

    def oids(self) -> list:
        """Candidate object ids in acceptance order."""
        return [c.oid for c in self.candidates]


class NNCSearch:
    """Algorithm 1 bound to an object collection.

    Args:
        objects: the dataset; a global R-tree over MBRs (fan-out
            :data:`~repro.index.rtree.GLOBAL_FANOUT`) is built once and
            reused across queries and operators.
    """

    def __init__(self, objects: Sequence[UncertainObject]) -> None:
        self.objects = list(objects)
        self.tree = _global_tree(self.objects)
        #: Deletion mask (tombstones): ids of objects logically removed but
        #: still present in the R-tree.  Masked objects are skipped by every
        #: search path; :meth:`compact` rebuilds the tree without them.
        #: Cheap O(1) deletes for the dynamic-update path of ``repro.serve``.
        self._masked: dict[int, UncertainObject] = {}

    @property
    def objects(self) -> list[UncertainObject]:
        """The collection, masked objects included (insertion order)."""
        return self._objects

    @objects.setter
    def objects(self, objects: list[UncertainObject]) -> None:
        # Every path that replaces the list (compaction, shared-memory
        # unpacking) re-indexes membership here, so mask_object stays O(1).
        self._objects = objects
        self._members = {id(o) for o in objects}

    @property
    def last_degradation(self) -> DegradationReport | None:
        """Degradation report of this thread/task's most recent search here.

        ``None`` = exact.  The escape hatch for :meth:`stream` consumers, who
        have no :class:`NNCResult` to read the report from.  Backed by a
        :class:`contextvars.ContextVar`, not instance state: concurrent
        searches on one shared :class:`NNCSearch` (the serving layer runs
        many requests against one index) each observe only their own report.
        Prefer ``result.degradation`` / ``ctx.degradation`` where available.
        """
        entry = _LAST_DEGRADATION.get()
        if entry is None or entry[0] != id(self):
            return None
        return entry[1]

    def add_object(self, obj: UncertainObject) -> None:
        """Insert a new object into the collection and the global R-tree.

        Subsequent searches see the object immediately; existing query
        contexts remain valid (they cache per-object artefacts only).
        """
        self._objects.append(obj)
        self._members.add(id(obj))
        self.tree.insert(obj.mbr.lo, obj.mbr.hi, obj)

    def mask_object(self, obj: UncertainObject) -> bool:
        """Logically delete ``obj`` without touching the R-tree (tombstone).

        O(1): the entry stays in the index but every search skips it.  Call
        :meth:`compact` periodically to rebuild the tree without tombstones
        (``repro.serve.updates`` does so once the masked fraction passes its
        rebuild threshold).

        Returns:
            True when the object belongs to this collection and was not
            already masked.
        """
        key = id(obj)
        if key in self._masked or key not in self._members:
            return False
        self._masked[key] = obj
        return True

    @property
    def masked_count(self) -> int:
        """Number of tombstoned (masked, not yet compacted) objects."""
        return len(self._masked)

    def live_objects(self) -> list[UncertainObject]:
        """Objects not masked out (insertion order)."""
        if not self._masked:
            return list(self.objects)
        return [o for o in self.objects if id(o) not in self._masked]

    def compact(self) -> int:
        """Rebuild the R-tree without tombstoned objects.

        Returns the number of tombstones removed.
        """
        dropped = len(self._masked)
        if dropped:
            self.objects = self.live_objects()
            self._masked.clear()
            self.tree = _global_tree(self.objects)
        return dropped

    # ------------------------------------------------------------------ #

    def run(
        self,
        query: UncertainObject,
        operator: _BaseOperator | OperatorKind | str,
        *,
        k: int = 1,
        ctx: QueryContext | None = None,
        seeds: Sequence[UncertainObject] = (),
    ) -> NNCResult:
        """Compute the full NN candidate set (batch form of Algorithm 1).

        With ``k > 1`` this computes the *k-NN candidates* (the k-skyband
        under the operator): objects dominated by fewer than ``k`` others —
        the natural candidate set for top-k NN queries.

        ``seeds`` are known objects from *outside* this collection (e.g.
        survivors of other shards in a scatter-gather search) that join the
        accepted set as dominators/pruners but are never reported as
        candidates.  Seeding is conservative: a seed can only add genuine
        dominance wins, so the output restricted to this collection stays a
        superset of the global answer (see ``repro.serve.shard``).

        With a budget or fault plan on ``ctx``, the result may be a flagged
        superset — check ``result.degradation`` (``None`` = exact).
        """
        result = NNCResult()
        start = time.perf_counter()
        if ctx is None:
            ctx = QueryContext(query)
        for candidate, when, dominators in self._stream_timed(
            query, operator, k=k, ctx=ctx, seeds=seeds
        ):
            result.candidates.append(candidate)
            result.yield_times.append(when)
            result.dominator_counts.append(dominators)
        result.elapsed = time.perf_counter() - start
        result.counters = ctx.counters
        result.degradation = ctx.degradation
        return result

    def stream(
        self,
        query: UncertainObject,
        operator: _BaseOperator | OperatorKind | str,
        *,
        k: int = 1,
        ctx: QueryContext | None = None,
        seeds: Sequence[UncertainObject] = (),
    ) -> Iterator[UncertainObject]:
        """Yield (k-)NN candidates progressively (Figure 14)."""
        for candidate, _, _ in self._stream_timed(
            query, operator, k=k, ctx=ctx, seeds=seeds
        ):
            yield candidate

    # ------------------------------------------------------------------ #

    def _stream_timed(
        self,
        query: UncertainObject,
        operator: _BaseOperator | OperatorKind | str,
        *,
        k: int = 1,
        ctx: QueryContext | None = None,
        seeds: Sequence[UncertainObject] = (),
    ) -> Iterator[tuple[UncertainObject, float]]:
        if k < 1:
            raise ValueError("k must be at least 1")
        if not isinstance(operator, _BaseOperator):
            operator = make_operator(operator)
        if ctx is None:
            ctx = QueryContext(query)
        ctx.degradation = None
        _LAST_DEGRADATION.set((id(self), None))
        tracer = ctx.tracer
        traced = tracer.enabled
        metrics = ctx.metrics
        budget = ctx.budget
        faults = ctx.faults
        base_counts = ctx.counters.snapshot() if metrics is not None else None
        base_unresolved = ctx.counters.extra.get("unresolved_checks", 0)
        base_events = len(ctx.unresolved_events)
        # Degradation state: `aborted` is the BudgetExhausted that stopped
        # the traversal (or a (site, reason) pair for an unrecoverable-site
        # fault); `carry` holds the heap item popped when it struck, so the
        # conservative drain loses nothing.
        aborted: BudgetExhausted | tuple | None = None
        carry: tuple | None = None
        conservative = 0
        yielded = 0
        start = time.perf_counter()
        root_span = None
        if traced:
            # The generator may be abandoned mid-stream, so the root span is
            # entered/exited explicitly under try/finally instead of `with`.
            root_span = tracer.span(
                "search", counters=ctx.counters, op=operator.name, k=k
            )
            root_span.__enter__()
        try:
            q_mbr = query.mbr
            norm = ctx.norm  # metric-aware MBR distances (None = Euclidean)
            # Batch node expansion needs a named Minkowski metric (callable
            # metrics have no batch norm; non-Euclidean callables cannot even
            # build a context, so this only excludes an explicit `euclidean`).
            batch = ctx.kernels and isinstance(ctx.metric, str)
            counter = itertools.count()
            # Heap items: (key, tiebreak, kind, payload)
            #   kind 0 = R-tree node, 1 = unrefined object, 2 = refined object.
            heap: list[tuple[float, int, int, object]] = []
            tree = self.tree
            for root in tree.roots():
                key = tree.node_mbr(root).mindist_mbr(q_mbr, norm)
                heapq.heappush(heap, (key, next(counter), 0, root))
            # Accepted candidates: [obj, exact dmin, dominator count].  The
            # count can only grow while the candidate is pending (distance
            # ties); objects with count >= k are evicted.
            accepted: list[list] = []
            pending: list[list] = []  # not yet yielded (same record objects)
            acc_idx = _AcceptedIndex()
            # The cover test an object passed at its first pop, keyed by
            # id: (accepted-set revision, its Theorem 4 mask or None).  The
            # second pop repeats the test only if the accepted set changed.
            covered: dict[int, tuple[int, np.ndarray | None]] = {}
            if seeds:
                # Foreign pre-accepted candidates (scatter-gather sharding):
                # they prune entries and count as dominators exactly like
                # locally accepted candidates, but never enter `pending`, so
                # they are not reported.  Keyed by exact dmin so the ordered
                # accept-tally accounting stays meaningful.
                seed_records = sorted(
                    ([s, ctx.min_distance(s), 0] for s in seeds),
                    key=lambda rec: rec[1],
                )
                accepted.extend(seed_records)
                acc_idx.bump()
            if budget is not None:
                budget.arm()
            if faults is not None:
                try:
                    faults.fire("search")
                except RECOVERABLE_FAULTS as exc:
                    # Nothing has been decided yet: degrade to the trivial
                    # superset (every object is a candidate) via the drain.
                    ctx.note_unresolved("search", _fault_reason(exc))
                    aborted = ("fault", "search")
            while heap and aborted is None:
                key, _, kind, item = heapq.heappop(heap)
                # Flush pending candidates that can no longer gain dominators:
                # every unseen object has exact dmin >= key (keys are lower
                # bounds), so strictly-smaller pending dmins are final.
                for record in list(pending):
                    if record[1] < key - _TIE_TOL:
                        pending.remove(record)
                        yielded += 1
                        yield record[0], time.perf_counter() - start, record[2]
                try:
                    if kind == 0:
                        node: int = item  # type: ignore[assignment]
                        node_mbr = tree.node_mbr(node)
                        ctx.counters.nodes_visited += 1
                        if budget is not None:
                            budget.checkpoint("rtree-descent")
                        pruned, _ = self._cover_test(
                            node_mbr, "node", q_mbr, accepted, acc_idx, ctx, k
                        )
                        if pruned:
                            continue
                        try:
                            if faults is not None:
                                faults.fire("rtree-descent")
                            if traced:
                                with tracer.span(
                                    "rtree-descent",
                                    counters=ctx.counters,
                                    leaf=tree.is_leaf(node),
                                ) as span:
                                    span.labels["members"] = self._expand_node(
                                        tree, node, heap, counter, q_mbr, norm, batch, ctx
                                    )
                            else:
                                self._expand_node(
                                    tree, node, heap, counter, q_mbr, norm, batch, ctx
                                )
                        except RECOVERABLE_FAULTS as exc:
                            # Conservative subtree recovery: enqueue every
                            # object under the node keyed by the node's own
                            # key — a valid lower bound for all of them.
                            # (`_expand_node` pushes nothing before its batch
                            # keying succeeds, so no member is half-pushed.)
                            ctx.note_unresolved("rtree-descent", _fault_reason(exc))
                            for payload in tree.entries(node):
                                heapq.heappush(
                                    heap, (key, next(counter), 1, payload)
                                )
                        continue
                    obj: UncertainObject = item  # type: ignore[assignment]
                    if self._masked and id(obj) in self._masked:
                        continue  # tombstoned (see mask_object)
                    if kind == 1:
                        # Cover test before refinement: an object that >= k
                        # accepted boxes strictly dominate never gets a
                        # distance matrix.
                        pruned, mask = self._cover_test(
                            obj.mbr, "object", q_mbr, accepted, acc_idx, ctx, k
                        )
                        if pruned:
                            continue
                        if pruned is not None:
                            covered[id(obj)] = (acc_idx.rev, mask)
                        # Lazy refinement: re-key by the exact minimal distance
                        # (shares the context's cached distance matrix).
                        try:
                            exact_key = ctx.min_distance(obj)
                        except RECOVERABLE_FAULTS as exc:
                            # Keep the MBR-mindist key: a lower bound, so the
                            # object is only visited (and flushed) earlier —
                            # never dropped.
                            ctx.note_unresolved(
                                "distance-matrix", _fault_reason(exc)
                            )
                            exact_key = key
                        heapq.heappush(heap, (exact_key, next(counter), 2, obj))
                        continue
                    ctx.counters.objects_visited += 1
                    rev, mask = covered.pop(id(obj), (None, None))
                    if rev != acc_idx.rev:
                        pruned, mask = self._cover_test(
                            obj.mbr, "object", q_mbr, accepted, acc_idx, ctx, k
                        )
                        if pruned:
                            continue
                    if traced:
                        with tracer.span(
                            "dominance-check",
                            counters=ctx.counters,
                            oid=obj.oid,
                            op=operator.name,
                        ) as span:
                            dominators = self._dominator_count(
                                obj, operator, ctx, accepted, acc_idx, q_mbr, k, mask
                            )
                            span.labels["dominators"] = dominators
                    else:
                        dominators = self._dominator_count(
                            obj, operator, ctx, accepted, acc_idx, q_mbr, k, mask
                        )
                    if dominators >= k:
                        ctx.counters.bump("objects_dominated")
                        continue
                    # Tie correction: the new candidate may dominate accepted
                    # candidates with (numerically) equal exact minimal distance
                    # that have not been yielded yet.
                    for record in list(pending):
                        if abs(record[1] - key) <= _TIE_TOL:
                            try:
                                evicts = operator.dominates(obj, record[0], ctx)
                            except RECOVERABLE_FAULTS as exc:
                                # Skipping an eviction keeps a candidate:
                                # superset-safe.
                                ctx.note_unresolved(
                                    "dominance-check", _fault_reason(exc)
                                )
                                evicts = False
                            if evicts:
                                record[2] += 1
                                if record[2] >= k:
                                    pending.remove(record)
                                    accepted.remove(record)
                                    acc_idx.bump()
                    record = [obj, key, dominators]
                    accepted.append(record)
                    acc_idx.bump()
                    pending.append(record)
                except BudgetExhausted as exc:
                    aborted = exc
                    carry = (kind, item)
                    break
            for record in pending:
                yielded += 1
                yield record[0], time.perf_counter() - start, record[2]
            if aborted is not None:
                # Conservative drain: the containment chain certifies that
                # treating every unresolved dominance check as "not
                # dominated" yields a superset of the exact NNC, so every
                # object still on (or under) the frontier is emitted as a
                # candidate.  Pruning/eviction so far acted only on genuine
                # dominance wins, which brute force honors too — nothing
                # already dropped could have been in the exact answer.
                stash: list[tuple[int, object]] = []
                if carry is not None:
                    stash.append(carry)
                stash.extend((kind_, item_) for _, _, kind_, item_ in heap)
                seen = {id(rec[0]) for rec in accepted}
                for kind_, item_ in stash:
                    if kind_ == 0:
                        members = tree.entries(item_)
                    else:
                        members = [item_]
                    for member in members:
                        if id(member) in seen or id(member) in self._masked:
                            continue
                        seen.add(id(member))
                        conservative += 1
                        yielded += 1
                        yield member, time.perf_counter() - start, 0
        finally:
            unresolved = (
                ctx.counters.extra.get("unresolved_checks", 0) - base_unresolved
            )
            report = None
            if aborted is not None or unresolved > 0:
                events = list(ctx.unresolved_events[base_events:])
                if isinstance(aborted, BudgetExhausted):
                    reason, site, phase = aborted.reason, aborted.site, "traversal"
                elif aborted is not None:
                    reason, site = aborted
                    phase = "traversal"
                else:
                    # Traversal finished; individual checks were unresolved.
                    site, first_reason = events[0]
                    reason = (
                        first_reason
                        if first_reason == "flow_augmentations"
                        else "fault"
                    )
                    phase = "completed"
                if conservative:
                    ctx.counters.bump("conservative_accepts", conservative)
                report = DegradationReport(
                    reason=reason,
                    site=site,
                    phase=phase,
                    unresolved_checks=unresolved,
                    conservative_accepts=conservative,
                    elapsed_ms=(time.perf_counter() - start) * 1e3,
                    budget=budget.limits() if budget is not None else None,
                    spent=budget.spent() if budget is not None else {},
                    events=events,
                )
            ctx.degradation = report
            _LAST_DEGRADATION.set((id(self), report))
            if root_span is not None:
                root_span.__exit__(None, None, None)
            if metrics is not None:
                snap = ctx.counters.snapshot()
                deltas = {
                    name: value - base_counts.get(name, 0)
                    for name, value in snap.items()
                    if value != base_counts.get(name, 0)
                }
                query_metrics_from_counters(
                    metrics,
                    deltas,
                    operator=operator.name,
                    elapsed=time.perf_counter() - start,
                    candidates=yielded,
                )
                if report is not None:
                    metrics.inc(
                        "repro_degraded_queries_total",
                        1,
                        {"operator": operator.name, "reason": report.reason},
                    )

    @staticmethod
    def _expand_node(
        tree: RTree, node: int, heap: list, counter, q_mbr, norm, batch: bool, ctx
    ) -> int:
        """Key a node's members and push them on the search heap.

        Returns the number of members pushed (a span label when tracing).
        """
        leaf, los, his, members = tree.children(node)
        if batch:
            # One broadcast keys the whole node's members at once.
            dists = K.children_mindist_box(
                los, his, q_mbr.lo, q_mbr.hi, ctx.metric, counters=ctx.counters
            ).tolist()
        else:
            dists = [MBR(lo, hi).mindist_mbr(q_mbr, norm) for lo, hi in zip(los, his)]
        child_kind = 1 if leaf else 0
        for dist, member in zip(dists, members):
            heapq.heappush(heap, (dist, next(counter), child_kind, member))
        return len(members)

    def _dominator_count(
        self,
        obj: UncertainObject,
        operator: _BaseOperator,
        ctx: QueryContext,
        accepted: list[list],
        acc_idx: _AcceptedIndex,
        q_mbr,
        k: int,
        mask: np.ndarray | None,
    ) -> int:
        """Count dominators of ``obj`` among the accepted records.

        Returns the number of dominators found before the early exit at
        ``k``.  ``mask`` is the strict Theorem 4 mask of the accepted boxes
        over the object's box from the cover test the object passed against
        this accepted set (None where that test did not run).

        The kernel path keeps **scalar-equivalent counter accounting**: the
        batch screens decide each pair exactly as the scalar operator calls
        would, so ``dominance_checks``, ``mbr_tests`` and the prune/validate
        tallies are incremented pair by pair, in visit order, with the same
        early exit — a ``kernels=True`` run reports the same filter
        effectiveness totals as the ``kernels=False`` reference
        (``tests/test_counters_parity.py``).
        """
        counters = ctx.counters
        resilient = ctx.resilient
        op_kind = operator.kind
        screen = definite = failed = tally = None
        if ctx.kernels and accepted:
            try:
                if _mbr_screen_applies(operator, ctx):
                    # Batch Theorem 4 validation: records whose boxes strictly
                    # dominate the object's are certain dominators (their
                    # operator call would return True immediately).  The cover
                    # test's mask is that screen; F+-SD also screens under
                    # the other metrics, where the cover test does not run.
                    if mask is None:
                        u_los, u_his = acc_idx.boxes(accepted)
                        mask = K.mbr_dominance_mask(
                            u_los,
                            u_his,
                            obj.mbr,
                            q_mbr,
                            strict=True,
                            u_max_sq=acc_idx.corner_sq(accepted, q_mbr),
                            counters=counters,
                        )
                    definite = mask
                if _screen_applies(operator):
                    # Batch Theorem 11 screen: records whose (min, mean, max)
                    # vectors already violate the necessary ordering cannot
                    # dominate, so their operator calls are skipped wholesale.
                    u_stats = acc_idx.statistics(accepted, ctx)
                    v_stats = np.asarray(ctx.statistics(obj), dtype=float)
                    screen = K.statistic_prune(u_stats, v_stats, counters=counters)
                failed, tally = _extremes_screen(
                    operator, ctx, obj, accepted, acc_idx, definite is not None
                )
            except RECOVERABLE_FAULTS as exc:
                # Screens are shortcuts; without them every pair just runs
                # its full scalar check below.
                ctx.note_unresolved("dominance-check", _fault_reason(exc))
                screen = definite = failed = None
        mbr_checked = definite is not None
        is_psd = op_kind is OperatorKind.P_SD
        dominators = 0
        for idx, record in enumerate(accepted):
            if mbr_checked and definite[idx]:
                # Scalar equivalent: the operator's own strict Theorem 4
                # test succeeds immediately for this pair.
                counters.mbr_tests += 1
                if op_kind is not OperatorKind.F_PLUS_SD:
                    counters.dominance_checks += 1
                    counters.validated_by_mbr += 1
                    if resilient:
                        ctx.spend_check(1)
                dominators += 1
            elif screen is not None and not screen[idx]:
                # Scalar equivalent: the operator runs its (failed) strict
                # MBR test, then its statistic screen rejects the pair.
                counters.count_comparisons(3)
                if is_psd:
                    # P-SD pays the screen through its nested SS-SD call:
                    # two dominance checks, two cover-prune hits, and an MBR
                    # test each for the outer check (gated on the validation
                    # flag, tracked by `mbr_checked`) and the nested SS-SD
                    # (unconditional under the Euclidean metric).
                    counters.dominance_checks += 2
                    counters.mbr_tests += (1 if mbr_checked else 0) + (
                        1 if ctx.is_euclidean else 0
                    )
                    counters.pruned_by_cover += 2
                    if resilient:
                        ctx.spend_check(2)
                else:
                    counters.dominance_checks += 1
                    if mbr_checked:
                        counters.mbr_tests += 1
                    if op_kind is OperatorKind.S_SD:
                        counters.pruned_by_statistics += 1
                    else:
                        counters.pruned_by_cover += 1
                    if resilient:
                        ctx.spend_check(1)
            elif failed is not None and failed[idx]:
                # Scalar equivalent: the operator's extremes stage rejects
                # the pair, with the tally its module reports.
                checks, mbr_tests, comparisons, by_statistics, by_cover = tally
                counters.dominance_checks += checks
                counters.mbr_tests += mbr_tests
                counters.count_comparisons(comparisons)
                counters.pruned_by_statistics += by_statistics
                counters.pruned_by_cover += by_cover
                if resilient:
                    ctx.spend_check(checks)
            else:
                if mbr_checked:
                    # The operator skips re-running the strict MBR test the
                    # batch already settled negatively; keep the scalar
                    # tally (P-SD would run it twice: itself + nested SS-SD).
                    counters.mbr_tests += 2 if is_psd else 1
                try:
                    dominates = operator.dominates(
                        record[0], obj, ctx, mbr_checked=mbr_checked
                    )
                except RECOVERABLE_FAULTS as exc:
                    # Conservative non-dominance: the pair stays unresolved
                    # and contributes no dominator, so the object survives.
                    ctx.note_unresolved("dominance-check", _fault_reason(exc))
                    dominates = False
                if dominates:
                    dominators += 1
            if dominators >= k:
                break
        return dominators

    def _cover_test(
        self,
        mbr,
        target: str,
        q_mbr,
        accepted: list[list],
        acc_idx: _AcceptedIndex,
        ctx: QueryContext,
        k: int,
    ) -> tuple[bool | None, np.ndarray | None]:
        """:meth:`_entry_pruned` at a heap site, under its span and fault guard.

        ``target`` labels the ``entry-prune`` span (``node`` or ``object``).
        Returns ``(pruned, mask)``; ``pruned`` is None when a recovered fault
        left the test undecided: the entry is kept, which only costs work,
        never correctness.
        """
        try:
            if ctx.faults is not None:
                ctx.faults.fire("entry-prune")
            tracer = ctx.tracer
            if not tracer.enabled:
                return self._entry_pruned(mbr, q_mbr, accepted, acc_idx, ctx, k)
            with tracer.span(
                "entry-prune", counters=ctx.counters, target=target
            ) as span:
                pruned, mask = self._entry_pruned(
                    mbr, q_mbr, accepted, acc_idx, ctx, k
                )
                span.labels["pruned"] = pruned
            return pruned, mask
        except RECOVERABLE_FAULTS as exc:
            ctx.note_unresolved("entry-prune", _fault_reason(exc))
            return None, None

    @staticmethod
    def _entry_pruned(
        mbr,
        q_mbr,
        accepted: list[list],
        acc_idx: _AcceptedIndex,
        ctx: QueryContext,
        k: int,
    ) -> tuple[bool, np.ndarray | None]:
        """Cover-based entry pruning: >= k accepted MBRs F-SD the entry.

        Returns ``(pruned, mask)``: the kernel path also hands back its
        strict Theorem 4 mask of the accepted boxes over ``mbr`` (None on
        the scalar path and wherever the test does not run).
        """
        if not ctx.is_euclidean:
            return False, None  # the MBR dominance test is Euclidean-only
        if not accepted:
            return False, None
        if ctx.kernels:
            # All accepted candidates' boxes against the entry in one shot.
            u_los, u_his = acc_idx.boxes(accepted)
            mask = K.mbr_dominance_mask(
                u_los,
                u_his,
                mbr,
                q_mbr,
                strict=True,
                u_max_sq=acc_idx.corner_sq(accepted, q_mbr),
                counters=ctx.counters,
            )
            # Scalar-equivalent tally: the scalar loop below tests boxes in
            # order and stops at the k-th hit.
            if np.count_nonzero(mask) >= k:
                ctx.counters.mbr_tests += int(np.flatnonzero(mask)[k - 1]) + 1
                return True, mask
            ctx.counters.mbr_tests += len(accepted)
            return False, mask
        hits = 0
        for record in accepted:
            ctx.counters.mbr_tests += 1
            if mbr_dominates(record[0].mbr, mbr, q_mbr, strict=True):
                hits += 1
                if hits >= k:
                    return True, None
        return False, None


def _extremes_screen(
    operator: _BaseOperator,
    ctx: QueryContext,
    obj: UncertainObject,
    accepted: list[list],
    acc_idx: _AcceptedIndex,
    mbr_checked: bool,
) -> tuple[np.ndarray | None, tuple | None]:
    """The operator's extremes stage for every accepted record at once.

    Each operator's module settles its stage and reports its tally
    (``batch_extremes`` in :mod:`repro.core.fsd`, :mod:`repro.core.sssd`
    and :mod:`repro.core.psd`) from stacks cached per accepted-set revision.
    Returns ``(failed, tally)``, or ``(None, None)`` where no stage runs.
    """
    kind = operator.kind
    if kind is OperatorKind.F_SD:
        return fsd.batch_extremes(
            lambda: acc_idx.hull_max(accepted, ctx),
            obj,
            ctx,
            use_local_trees=operator.use_level,
            mbr_checked=mbr_checked,
        )
    if kind is OperatorKind.SS_SD:
        return sssd.batch_extremes(
            lambda: acc_idx.row_extremes(accepted, ctx),
            obj,
            ctx,
            use_statistics=operator.use_statistics,
            use_cover_pruning=operator.use_cover_pruning,
            mbr_checked=mbr_checked,
        )
    if kind is OperatorKind.P_SD:
        return psd.batch_extremes(
            lambda: acc_idx.row_extremes(accepted, ctx),
            obj,
            ctx,
            use_cover_pruning=operator.use_cover_pruning,
            mbr_checked=mbr_checked,
        )
    return None, None


def _global_tree(objects: list[UncertainObject]) -> RTree:
    """STR-packed global R-tree over the objects' MBRs (payload: object).

    Reaches :meth:`RTree.bulk_load` through this module's ``RTree`` name.
    """
    return RTree.bulk_load(
        np.array([obj.mbr.lo for obj in objects]),
        np.array([obj.mbr.hi for obj in objects]),
        objects,
        max_entries=GLOBAL_FANOUT,
    )


def nn_candidates(
    objects: Sequence[UncertainObject],
    query: UncertainObject,
    operator: _BaseOperator | OperatorKind | str = OperatorKind.P_SD,
    *,
    k: int = 1,
    ctx: QueryContext | None = None,
) -> NNCResult:
    """One-shot NN candidates search (builds the index, runs Algorithm 1).

    Args:
        objects: the dataset.
        query: multi-instance query object.
        operator: dominance operator (kind, name, or configured instance).
        k: with ``k > 1``, return the k-NN candidates (k-skyband): objects
            dominated by fewer than ``k`` others.
        ctx: optional pre-built query context (to share caches / counters).

    Returns:
        The :class:`NNCResult` with candidates and instrumentation.
    """
    return NNCSearch(objects).run(query, operator, k=k, ctx=ctx)
