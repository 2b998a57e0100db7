"""Per-figure experiment definitions (Section 6 and Appendix C).

Each ``fig*`` function regenerates the data series of one paper figure at a
chosen :class:`~repro.experiments.params.Scale` preset and returns a
:class:`FigureResult` whose rows can be printed with
:func:`repro.experiments.report.format_table`.

Effectiveness figures report the *average NN candidate size*; efficiency
figures the *average query response time*; Figure 14 the progressive
profile; Figure 16 the average instance comparisons per filter stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.context import QueryContext
from repro.core.nnc import NNCSearch
from repro.core.operators import make_operator
from repro.datasets import semireal, synthetic, workload
from repro.experiments.harness import (
    DEFAULT_KINDS,
    WorkloadStats,
    evaluate_workload,
    progressive_profile,
)
from repro.experiments.params import SCALES, ExperimentParams, Scale
from repro.objects.uncertain import UncertainObject


@dataclass
class FigureResult:
    """Rows regenerated for one paper figure."""

    figure: str
    description: str
    rows: list[dict] = field(default_factory=list)
    notes: str = ""


def _resolve_scale(scale: str | Scale) -> Scale:
    return SCALES[scale] if isinstance(scale, str) else scale


# --------------------------------------------------------------------- #
# Dataset construction
# --------------------------------------------------------------------- #

DATASET_NAMES = ("A-N", "E-N", "HOUSE", "CA", "NBA", "GW", "USA")


def build_dataset(
    name: str, params: ExperimentParams, rng: np.random.Generator
) -> tuple[list[UncertainObject], list[UncertainObject]]:
    """Objects + query workload for one named dataset at the given params.

    ``params`` must already be scaled.  NBA/GW are complete multi-instance
    datasets; the others provide centers fed through the synthetic instance
    recipe, exactly as the paper's semi-real setup.
    """
    n, m_d, h_d = params.n, params.m_d, params.h_d
    if name == "A-N":
        centers = synthetic.anticorrelated_centers(n, params.d, rng)
        objects = synthetic.make_objects(centers, m_d, h_d, rng)
    elif name == "E-N":
        centers = synthetic.independent_centers(n, params.d, rng)
        objects = synthetic.make_objects(centers, m_d, h_d, rng)
    elif name == "HOUSE":
        centers = semireal.house_like(n, rng)
        objects = synthetic.make_objects(centers, m_d, h_d, rng)
    elif name == "CA":
        centers = semireal.ca_like(n, rng)
        objects = synthetic.make_objects(centers, m_d, h_d, rng)
    elif name == "USA":
        centers = semireal.usa_like(n, rng)
        objects = synthetic.make_objects(centers, m_d, h_d, rng)
    elif name == "NBA":
        objects = semireal.nba_like(n, m_d, rng)
    elif name == "GW":
        objects = semireal.gowalla_like(n, m_d, rng)
    else:
        raise ValueError(f"unknown dataset {name!r}")
    queries = workload.query_workload(
        objects, params.n_queries, params.m_q, params.h_q, rng
    )
    return objects, queries


def _run_config(
    name: str,
    params: ExperimentParams,
    scale: Scale,
    kinds: Sequence[str] = DEFAULT_KINDS,
) -> dict[str, WorkloadStats]:
    rng = np.random.default_rng(params.seed)
    scaled = params.scaled(scale)
    objects, queries = build_dataset(name, scaled, rng)
    return evaluate_workload(objects, queries, kinds)


# --------------------------------------------------------------------- #
# Figures 10 & 12 — per-dataset candidate size and response time
# --------------------------------------------------------------------- #


def run_dataset_suite(
    scale: str | Scale = "small",
    datasets: Sequence[str] = DATASET_NAMES,
    kinds: Sequence[str] = DEFAULT_KINDS,
) -> list[dict]:
    """One row per dataset with per-operator size and time columns."""
    scale = _resolve_scale(scale)
    rows: list[dict] = []
    for name in datasets:
        stats = _run_config(name, ExperimentParams(), scale, kinds)
        row: dict = {"dataset": name}
        for op, ws in stats.items():
            row[f"size[{op}]"] = round(ws.avg_candidates, 1)
            row[f"time[{op}]"] = round(ws.avg_time, 4)
        rows.append(row)
    return rows


def fig10_candidate_size(
    scale: str | Scale = "small", datasets: Sequence[str] = DATASET_NAMES
) -> FigureResult:
    """Figure 10: average candidate size per dataset and operator."""
    rows = run_dataset_suite(scale, datasets)
    out = [
        {"dataset": r["dataset"], **{k[5:-1]: v for k, v in r.items() if k.startswith("size[")}}
        for r in rows
    ]
    return FigureResult(
        "Figure 10",
        "NN candidate size per dataset (SSD <= SSSD <= PSD <= FSD <= F+SD expected)",
        out,
    )


def fig12_response_time(
    scale: str | Scale = "small", datasets: Sequence[str] = DATASET_NAMES
) -> FigureResult:
    """Figure 12: average query response time per dataset and operator."""
    rows = run_dataset_suite(scale, datasets)
    out = [
        {"dataset": r["dataset"], **{k[5:-1]: v for k, v in r.items() if k.startswith("time[")}}
        for r in rows
    ]
    return FigureResult(
        "Figure 12", "Average query response time (seconds) per dataset", out
    )


# --------------------------------------------------------------------- #
# Figures 11 & 13 — parameter sweeps
# --------------------------------------------------------------------- #

SWEEPS: dict[str, tuple[str, list, str]] = {
    # sweep key -> (params attribute, paper values, dataset)
    "m_d": ("m_d", [20, 40, 60, 80, 100], "A-N"),
    "h_d": ("h_d", [100.0, 200.0, 300.0, 400.0, 500.0], "A-N"),
    "m_q": ("m_q", [10, 20, 30, 40, 50], "A-N"),
    "h_q": ("h_q", [100.0, 200.0, 300.0, 400.0, 500.0], "A-N"),
    "n": ("n", [200_000, 400_000, 600_000, 800_000, 1_000_000], "USA"),
    "d": ("d", [2, 3, 4, 5], "A-N"),
}


def run_sweep(
    sweep: str,
    scale: str | Scale = "small",
    kinds: Sequence[str] = DEFAULT_KINDS,
    values: Sequence | None = None,
) -> list[dict]:
    """Sweep one Table 2 parameter; one row per value with size+time columns."""
    scale = _resolve_scale(scale)
    attr, paper_values, dataset = SWEEPS[sweep]
    rows: list[dict] = []
    for value in values if values is not None else paper_values:
        params = ExperimentParams().with_(**{attr: value})
        stats = _run_config(dataset, params, scale, kinds)
        row: dict = {sweep: value, "dataset": dataset}
        for op, ws in stats.items():
            row[f"size[{op}]"] = round(ws.avg_candidates, 1)
            row[f"time[{op}]"] = round(ws.avg_time, 4)
        rows.append(row)
    return rows


def _sweep_figure(
    figure: str, sweep: str, metric: str, scale: str | Scale, description: str
) -> FigureResult:
    rows = run_sweep(sweep, scale)
    prefix = f"{metric}["
    out = [
        {
            sweep: r[sweep],
            **{k[len(prefix):-1]: v for k, v in r.items() if k.startswith(prefix)},
        }
        for r in rows
    ]
    return FigureResult(figure, description, out)


def fig11a(scale: str | Scale = "small") -> FigureResult:
    """Figure 11(a): candidate size vs number of object instances."""
    return _sweep_figure(
        "Figure 11(a)", "m_d", "size", scale, "candidate size vs m_d on A-N"
    )


def fig11b(scale: str | Scale = "small") -> FigureResult:
    """Figure 11(b): candidate size vs object edge length."""
    return _sweep_figure(
        "Figure 11(b)", "h_d", "size", scale, "candidate size vs h_d on A-N"
    )


def fig11c(scale: str | Scale = "small") -> FigureResult:
    """Figure 11(c): candidate size vs number of query instances."""
    return _sweep_figure(
        "Figure 11(c)", "m_q", "size", scale, "candidate size vs m_q on A-N"
    )


def fig11d(scale: str | Scale = "small") -> FigureResult:
    """Figure 11(d): candidate size vs query edge length."""
    return _sweep_figure(
        "Figure 11(d)", "h_q", "size", scale, "candidate size vs h_q on A-N"
    )


def fig11e(scale: str | Scale = "small") -> FigureResult:
    """Figure 11(e): candidate size vs number of objects (USA)."""
    return _sweep_figure(
        "Figure 11(e)", "n", "size", scale, "candidate size vs n on USA-like"
    )


def fig11f(scale: str | Scale = "small") -> FigureResult:
    """Figure 11(f): candidate size vs dimensionality."""
    return _sweep_figure(
        "Figure 11(f)", "d", "size", scale, "candidate size vs d on A-N"
    )


def fig13(sweep: str, scale: str | Scale = "small") -> FigureResult:
    """Figure 13(a-f): response time vs the given swept parameter."""
    letter = dict(m_d="a", h_d="b", m_q="c", h_q="d", n="e", d="f")[sweep]
    return _sweep_figure(
        f"Figure 13({letter})",
        sweep,
        "time",
        scale,
        f"response time (s) vs {sweep}",
    )


# --------------------------------------------------------------------- #
# Figure 14 — progressive property
# --------------------------------------------------------------------- #


def fig14_progressive(scale: str | Scale = "small") -> FigureResult:
    """Figure 14: progressive return profile of PSD on the USA dataset.

    Rows bucket the candidate stream into deciles with the elapsed time at
    which the decile completed (14a) and the average candidate quality —
    objects dominated per returned candidate — within it (14b).
    """
    scale = _resolve_scale(scale)
    params = ExperimentParams().scaled(scale).with_(n_queries=1)
    rng = np.random.default_rng(params.seed)
    objects, queries = build_dataset("USA", params, rng)
    profile = progressive_profile(objects, queries[0], "PSD")
    rows: list[dict] = []
    if profile:
        buckets = np.array_split(profile, min(10, len(profile)))
        for bucket in buckets:
            bucket = list(bucket)
            rows.append(
                {
                    "progress_%": round(100 * bucket[-1]["progress"], 1),
                    "time_s": round(bucket[-1]["time"], 4),
                    "avg_quality": round(
                        float(np.mean([b["quality"] for b in bucket])), 2
                    ),
                }
            )
    return FigureResult(
        "Figure 14",
        "Progressive candidate return: elapsed time and quality per decile",
        rows,
    )


# --------------------------------------------------------------------- #
# Figure 16 — filter effectiveness ablation (Appendix C)
# --------------------------------------------------------------------- #

FILTER_STACKS: dict[str, dict] = {
    # Appendix C naming: BF no filters; L level-by-level; P pruning rules;
    # G geometric (convex hull); All adds MBR validation on top of LGP.
    "BF": dict(use_statistics=False, use_mbr_validation=False,
               use_cover_pruning=False, use_geometry=False, use_level=False),
    "L": dict(use_statistics=False, use_mbr_validation=False,
              use_cover_pruning=False, use_geometry=False, use_level=True),
    "LP": dict(use_statistics=True, use_mbr_validation=False,
               use_cover_pruning=True, use_geometry=False, use_level=True),
    "LG": dict(use_statistics=False, use_mbr_validation=False,
               use_cover_pruning=False, use_geometry=True, use_level=True),
    "LGP": dict(use_statistics=True, use_mbr_validation=False,
                use_cover_pruning=True, use_geometry=True, use_level=True),
    "All": dict(use_statistics=True, use_mbr_validation=True,
                use_cover_pruning=True, use_geometry=True, use_level=True),
}

_HULL_STACKS = {"LG", "LGP", "All"}


def fig16_filters(
    scale: str | Scale = "small",
    kinds: Sequence[str] = ("SSD", "SSSD", "PSD"),
    m_d_values: Sequence[int] = (20, 40, 60, 80, 100),
) -> FigureResult:
    """Figure 16: avg instance comparisons per filter stack, vs m_d (HOUSE).

    The geometric filter lives in the query context (``use_hull``), so each
    stack gets its own context per query.  Unlike the other figures, the
    instance count ``m_d`` is *not* scaled down: the filters' value depends
    on per-object instance counts, which is exactly what this figure sweeps
    (the paper's 20-100 range is kept; only ``n`` and the workload shrink).
    """
    scale = _resolve_scale(scale)
    rows: list[dict] = []
    for m_d in m_d_values:
        params = ExperimentParams(m_d=m_d).scaled(scale).with_(m_d=m_d)
        rng = np.random.default_rng(params.seed)
        objects, queries = build_dataset("HOUSE", params, rng)
        search = NNCSearch(objects)
        for kind in kinds:
            row: dict = {"m_d(paper)": m_d, "m_d(actual)": params.m_d, "operator": kind}
            for stack, flags in FILTER_STACKS.items():
                operator = make_operator(kind, **flags)
                comparisons = 0
                for query in queries:
                    ctx = QueryContext(query, use_hull=stack in _HULL_STACKS)
                    search.run(query, operator, ctx=ctx)
                    comparisons += ctx.counters.instance_comparisons
                row[stack] = comparisons // max(1, len(queries))
            rows.append(row)
    return FigureResult(
        "Figure 16",
        "Average instance comparisons per query for each filter stack",
        rows,
    )


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #

FIGURES: dict[str, Callable[..., FigureResult]] = {
    "fig10": fig10_candidate_size,
    "fig11a": fig11a,
    "fig11b": fig11b,
    "fig11c": fig11c,
    "fig11d": fig11d,
    "fig11e": fig11e,
    "fig11f": fig11f,
    "fig12": fig12_response_time,
    "fig13a": lambda scale="small": fig13("m_d", scale),
    "fig13b": lambda scale="small": fig13("h_d", scale),
    "fig13c": lambda scale="small": fig13("m_q", scale),
    "fig13d": lambda scale="small": fig13("h_q", scale),
    "fig13e": lambda scale="small": fig13("n", scale),
    "fig13f": lambda scale="small": fig13("d", scale),
    "fig14": fig14_progressive,
    "fig16": fig16_filters,
}
