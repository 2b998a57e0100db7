"""Counter parity between the kernel and scalar search paths (plus the
field-list-free ``Counters.merge``/``snapshot`` mechanics).

The batch screens in :mod:`repro.core.nnc` attribute their counters
pair-by-pair in visit order with early exit at ``k`` — exactly as the scalar
operator loop would — so ``dominance_checks`` and ``mbr_tests`` (and the
prune/validate tallies) are identical between ``QueryContext(kernels=True)``
and ``kernels=False``.  ``instance_comparisons`` legitimately differs: batch
CDF sweeps charge whole matrices where the scalar merge scan stops early.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import nnc
from repro.core.context import QueryContext
from repro.core.counters import Counters
from repro.core.nnc import NNCSearch
from repro.core.operators import make_operator
from repro.experiments.figures import _HULL_STACKS, FILTER_STACKS
from tests.conftest import random_scene

OPERATORS = ["SSD", "SSSD", "PSD", "FSD", "F+SD"]

#: Counter fields the kernel path must reproduce exactly.  Everything the
#: paper's Appendix C study reads — dominance checks, MBR tests, and the
#: per-rule prune/validate attribution — plus the traversal tallies.
PARITY_FIELDS = (
    "dominance_checks",
    "mbr_tests",
    "validated_by_mbr",
    "pruned_by_statistics",
    "pruned_by_cover",
    "nodes_visited",
    "objects_visited",
)


class TestKernelScalarCounterParity:
    @pytest.mark.parametrize("kind", OPERATORS)
    @pytest.mark.parametrize("k", [1, 2])
    def test_same_totals(self, kind, k):
        rng = np.random.default_rng(20150531 + k)
        objects, query = random_scene(rng, n_objects=40, m=4, spread=3.0)
        search = NNCSearch(objects)
        snaps = {}
        oids = {}
        for kernels in (True, False):
            ctx = QueryContext(query, kernels=kernels)
            result = search.run(query, kind, ctx=ctx, k=k)
            oids[kernels] = sorted(result.oids())
            snaps[kernels] = ctx.counters.snapshot()
        assert oids[True] == oids[False]
        for name in PARITY_FIELDS:
            assert snaps[True][name] == snaps[False][name], (
                f"{kind} k={k}: {name} diverged "
                f"(kernels={snaps[True][name]}, scalar={snaps[False][name]})"
            )
        # Sanity: the workload actually exercised the counters.  (F+-SD is
        # the MBR-only baseline — it never performs full dominance checks.)
        if kind != "F+SD":
            assert snaps[True]["dominance_checks"] > 0
        assert snaps[True]["mbr_tests"] > 0

    def test_weighted_instances_too(self):
        rng = np.random.default_rng(7)
        objects, query = random_scene(
            rng, n_objects=25, m=5, uniform_probs=False
        )
        search = NNCSearch(objects)
        for kind in OPERATORS:
            snaps = {}
            for kernels in (True, False):
                ctx = QueryContext(query, kernels=kernels)
                search.run(query, kind, ctx=ctx, k=2)
                snaps[kernels] = ctx.counters.snapshot()
            for name in ("dominance_checks", "mbr_tests"):
                assert snaps[True][name] == snaps[False][name], (kind, name)


class TestFilterStackParity:
    """Parity over every Figure 16 filter stack, not only the defaults.

    Each stack switches a different set of batch screens on or off in the
    search loop (the Theorem 4 validation mask, the statistic screen, and
    the F-SD / SS-SD extremes screens).  A screen that must stay off (F-SD
    on local trees, SS-SD without ``use_statistics``, P-SD without its
    SS-SD cover stage) has to leave the per-pair call in place.
    """

    #: Scalar parity also holds for the level and geometry tallies.
    FIELDS = PARITY_FIELDS + (
        "pruned_by_level",
        "validated_by_level",
        "pruned_by_geometry",
    )

    @pytest.fixture(scope="class")
    def scene(self):
        rng = np.random.default_rng(2015)
        return random_scene(rng, n_objects=36, dim=3, m=6, m_q=5, spread=3.0)

    @staticmethod
    def _run(search, query, operator, stack, k, *, kernels=True):
        ctx = QueryContext(query, kernels=kernels, use_hull=stack in _HULL_STACKS)
        oids = sorted(search.run(query, operator, ctx=ctx, k=k).oids())
        return oids, ctx.counters.snapshot()

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["SSD", "SSSD", "PSD", "FSD"])
    @pytest.mark.parametrize("stack", list(FILTER_STACKS))
    def test_same_totals(self, scene, stack, kind, k, monkeypatch):
        objects, query = scene
        search = NNCSearch(objects)
        operator = make_operator(kind, **FILTER_STACKS[stack])
        oids, snap = self._run(search, query, operator, stack, k)
        ref_oids, ref = self._run(search, query, operator, stack, k, kernels=False)
        assert oids == ref_oids
        for name in self.FIELDS:
            assert snap[name] == ref[name], (
                f"{stack} {kind} k={k}: {name} diverged "
                f"(kernels={snap[name]}, scalar={ref[name]})"
            )
        # The extremes screens settle pairs without the per-pair call; with
        # them off, the kernel path must tally every counter the same,
        # instance comparisons included.  Only the kernel batch tallies may
        # move (the screens stack arrays the per-pair calls read one by one).
        monkeypatch.setattr(nnc, "_extremes_screen", lambda *a: (None, None))
        bare_oids, bare = self._run(search, query, operator, stack, k)
        assert oids == bare_oids
        moved = {
            name
            for name in snap.keys() | bare.keys()
            if snap.get(name) != bare.get(name)
        }
        assert moved <= {"kernel_invocations", "kernel_elements"}, (
            stack, kind, k, {n: (snap.get(n), bare.get(n)) for n in moved}
        )

    @pytest.mark.parametrize(
        "kind,flags,metric",
        [
            # SS-SD's row screen without the cover stage before it.
            ("SSSD", dict(use_cover_pruning=False), "euclidean"),
            # Non-Euclidean: no MBR mask, and F-SD drops its local trees,
            # so its screen runs even with use_level on.
            ("FSD", dict(use_level=True), "manhattan"),
            ("SSSD", {}, "manhattan"),
            ("PSD", {}, "chebyshev"),
        ],
    )
    def test_off_stack_configurations(self, scene, kind, flags, metric, monkeypatch):
        objects, query = scene
        search = NNCSearch(objects)
        operator = make_operator(kind, **flags)

        def run(kernels: bool) -> dict:
            ctx = QueryContext(query, kernels=kernels, metric=metric)
            search.run(query, operator, ctx=ctx, k=2)
            return ctx.counters.snapshot()

        snap, ref = run(True), run(False)
        for name in self.FIELDS:
            assert snap[name] == ref[name], name
        monkeypatch.setattr(nnc, "_extremes_screen", lambda *a: (None, None))
        for name, value in run(True).items():
            if name not in ("kernel_invocations", "kernel_elements"):
                assert snap.get(name) == value, name


class TestCountersMechanics:
    """``merge``/``snapshot`` iterate ``dataclasses.fields`` — no drift."""

    def test_merge_covers_every_field(self):
        a, b = Counters(), Counters()
        for i, field in enumerate(dataclasses.fields(Counters)):
            if field.name != "extra":
                setattr(b, field.name, i + 1)
        b.bump("custom", 9)
        a.merge(b)
        for i, field in enumerate(dataclasses.fields(Counters)):
            if field.name != "extra":
                assert getattr(a, field.name) == i + 1
        assert a.extra == {"custom": 9}

    def test_field_list_derived_from_dataclass(self):
        # The iteration order is the dataclass definition itself, so adding
        # a field to Counters automatically extends merge/snapshot — there
        # is no second hand-maintained list to drift out of sync.
        from repro.core.counters import _COUNTER_FIELDS

        declared = tuple(
            f.name for f in dataclasses.fields(Counters) if f.name != "extra"
        )
        assert _COUNTER_FIELDS == declared
        snap = Counters().snapshot()
        assert set(snap) == set(declared)

    def test_snapshot_extra_keys(self):
        c = Counters()
        c.bump("objects_dominated", 3)
        c.bump("objects_dominated")
        assert c.snapshot()["objects_dominated"] == 4

    def test_snapshot_shadow_guard(self):
        # A free-form key colliding with a built-in field must not clobber it.
        c = Counters()
        c.dominance_checks = 7
        c.bump("dominance_checks", 99)
        snap = c.snapshot()
        assert snap["dominance_checks"] == 7
        assert snap["extra.dominance_checks"] == 99

    def test_merge_accumulates_extras(self):
        a, b = Counters(), Counters()
        a.bump("x", 1)
        b.bump("x", 2)
        b.bump("y", 3)
        a.merge(b)
        assert a.extra == {"x": 3, "y": 3}

    def test_metrics_attr_stays_out_of_snapshot(self):
        c = Counters()
        assert c.metrics is None  # ClassVar default
        assert "metrics" not in c.snapshot()
