"""Declarative figure registry: every figure this commit can draw.

One registry maps each figure id to a generator; one build emits, per id:

* ``data/<fid>.csv`` — the rows, diffable and spreadsheet-ready;
* ``specs/<fid>.vl.json`` — a self-contained Vega-Lite v5 spec with the
  data inlined (``data.values``), renderable by any Vega-Lite host;
* a section of ``dashboard/index.html`` with an inline-SVG rendering
  (:mod:`repro.experiments.dashboard`) — no network, no JS required.

Registered ids:

* ``fig10`` … ``fig16`` — the paper-figure reproductions from
  :mod:`repro.experiments.figures`, built at a :class:`Scale` preset, each
  with the paper's own note on what the figure shows;
* ``slo-quantiles`` — per-operator p50/p95/p99 + SLO burn counters from a
  saved ``/status`` body (``repro client status --format json``) or, as a
  fallback, node n1's ``/status`` in an in-process three-node fleet;
* ``flamegraph`` — top frames + an inline flamegraph SVG from a saved
  ``GET /profile`` body (``repro client profile``) or, as a fallback, a
  brief in-process self-profile over a tiny NNC workload;
* ``fleet-overview`` — per-node status/epoch/objects plus fleet-merged
  latency quantiles from a saved router ``GET /fleet`` body
  (``repro client fleet``) or the same in-process three-node fleet.

Every build runs :func:`self_check` (valid spec, non-empty CSV that
round-trips through ``csv.DictReader``) — a figure that cannot produce a
checkable artifact fails loudly, which is what CI gates on.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.experiments import figures as paper_figures

__all__ = [
    "REGISTRY",
    "BuildInputs",
    "ChartSpec",
    "Figure",
    "FigureArtifact",
    "FigureInputError",
    "SelfCheckError",
    "UnknownFigureError",
    "build_figure",
    "build_many",
    "get",
    "long_rows",
    "registered_ids",
    "rows_to_csv",
    "self_check",
    "slo_rows",
    "vega_lite_spec",
    "write_artifacts",
]

VEGA_LITE_SCHEMA = "https://vega.github.io/schema/vega-lite/v5.json"


class UnknownFigureError(LookupError):
    """Raised for a figure id the registry does not know, naming the known."""

    def __init__(self, fid: str) -> None:
        self.fid = fid
        super().__init__(
            f"unknown figure id {fid!r}; registered ids: "
            + ", ".join(registered_ids())
        )


class FigureInputError(RuntimeError):
    """A figure's input artifact is missing or malformed."""


class SelfCheckError(AssertionError):
    """A built figure failed the registry self-check."""


@dataclass(frozen=True)
class ChartSpec:
    """How to encode a figure's rows as a chart.

    ``series`` names the value columns (one line/bar group per entry);
    empty means "every numeric non-``x`` column, in first-row order".
    """

    kind: str  # "line" | "bar"
    x: str
    series: tuple[str, ...] = ()
    x_type: str = "ordinal"  # "ordinal" | "quantitative"
    y_title: str = ""
    log_y: bool = False


@dataclass
class FigureArtifact:
    """One built figure: rows plus everything needed to render them."""

    fid: str
    title: str
    description: str
    category: str  # "paper" | "observability"
    rows: list[dict]
    chart: ChartSpec
    notes: str = ""
    #: The paper's own statement of what the figure shows (paper figures).
    paper_note: str = ""
    #: Pre-rendered HTML the dashboard injects verbatim below the chart —
    #: the flamegraph SVG and the fleet quantile table live here (the CSV
    #: and Vega-Lite artifacts stay row-shaped regardless).
    extra_html: str = ""


@dataclass(frozen=True)
class BuildInputs:
    """What a build reads: the paper-figure scale and saved endpoint bodies.

    A ``None`` body means the view builds from its in-process fallback.
    """

    scale: str = "smoke"
    slo: Path | None = None
    profile: Path | None = None
    fleet: Path | None = None


@dataclass(frozen=True)
class Figure:
    """One registry entry: identity, category, and its builder."""

    fid: str
    title: str
    category: str
    build: Callable[[BuildInputs], FigureArtifact]


def _load_json(path: Path, fid: str, hint: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise FigureInputError(
            f"{fid}: input file {path} not found ({hint})"
        ) from None
    except (OSError, json.JSONDecodeError) as exc:
        raise FigureInputError(f"{fid}: cannot read {path}: {exc}") from exc


# --------------------------------------------------------------------- #
# Paper figures (fig10 … fig16) — wrap repro.experiments.figures
# --------------------------------------------------------------------- #

# Per paper figure: its chart encoding and the paper's own note on it.
# Sweeps are lines over the swept value, per-dataset comparisons grouped
# bars.  Candidate sizes and times span orders of magnitude across
# operators, hence the log axes (matching the paper's plots).  The notes
# quote the reference values of the paper's prose (Section 6.1/6.2); the
# other figures are described by their qualitative shape.
_SIZE, _TIME = "avg NN candidate size", "avg response time (s)"
_PAPER: dict[str, tuple[ChartSpec, str]] = {
    "fig10": (
        ChartSpec("bar", "dataset", y_title=_SIZE, log_y=True),
        "Paper (defaults, 100k objects): HOUSE -> SSD 7 / SSSD 38 / PSD 55.8 "
        "/ FSD 657 / F+SD 1100; USA -> SSD 133.2 / SSSD 422.5 / PSD 933 / "
        "FSD 10415 / F+SD 15580.4; NBA and GW largest overall due to heavy "
        "instance overlap.",
    ),
    "fig11a": (
        ChartSpec("line", "m_d", x_type="quantitative", y_title=_SIZE, log_y=True),
        "Paper: SSD/SSSD/PSD scale well with m_d; FSD/F+SD grow faster.",
    ),
    "fig11b": (
        ChartSpec("line", "h_d", x_type="quantitative", y_title=_SIZE, log_y=True),
        "Paper: FSD/F+SD are rather sensitive to h_d (boundary-based); "
        "SSD/SSSD/PSD much less so (distribution-based).",
    ),
    "fig11c": (
        ChartSpec("line", "m_q", x_type="quantitative", y_title=_SIZE, log_y=True),
        "Paper: same pattern as (a) for the query instance count m_q.",
    ),
    "fig11d": (
        ChartSpec("line", "h_q", x_type="quantitative", y_title=_SIZE, log_y=True),
        "Paper: same pattern as (b) for the query extent h_q.",
    ),
    "fig11e": (
        ChartSpec("line", "n", x_type="quantitative", y_title=_SIZE, log_y=True),
        "Paper: FSD/F+SD deteriorate as n grows 200k -> 1M; SSD/SSSD/PSD "
        "stay stable.",
    ),
    "fig11f": (
        ChartSpec("line", "d", x_type="quantitative", y_title=_SIZE, log_y=True),
        "Paper: candidate counts drop dramatically from d = 2 to 5 (less "
        "overlap in higher dimensions).",
    ),
    "fig12": (
        ChartSpec("bar", "dataset", y_title=_TIME, log_y=True),
        "Paper: FSD/F+SD fastest on all datasets except USA, where their "
        "candidate blow-up makes SSD/SSSD faster; PSD slowest throughout.",
    ),
    "fig13a": (
        ChartSpec("line", "m_d", x_type="quantitative", y_title=_TIME, log_y=True),
        "Paper: FSD/F+SD fastest as m_d grows; SSD/SSSD close behind.",
    ),
    "fig13b": (
        ChartSpec("line", "h_d", x_type="quantitative", y_title=_TIME, log_y=True),
        "Paper: FSD/F+SD fastest as h_d grows.",
    ),
    "fig13c": (
        ChartSpec("line", "m_q", x_type="quantitative", y_title=_TIME, log_y=True),
        "Paper: FSD/F+SD fastest as m_q grows.",
    ),
    "fig13d": (
        ChartSpec("line", "h_q", x_type="quantitative", y_title=_TIME, log_y=True),
        "Paper: FSD/F+SD fastest as h_q grows.",
    ),
    "fig13e": (
        ChartSpec("line", "n", x_type="quantitative", y_title=_TIME, log_y=True),
        "Paper: SSD/SSSD overtake FSD/F+SD as n grows 200k -> 1M (candidate "
        "verification cost).",
    ),
    "fig13f": (
        ChartSpec("line", "d", x_type="quantitative", y_title=_TIME, log_y=True),
        "Paper: times drop with dimensionality alongside candidates.",
    ),
    "fig14": (
        ChartSpec(
            "line", "progress_%", ("time_s",), x_type="quantitative",
            y_title="elapsed time (s)",
        ),
        "Paper (PSD on USA): 20% of candidates in <1s, 70% in half the total "
        "time; earlier candidates have higher quality.",
    ),
    "fig16": (
        ChartSpec(
            "line", "m_d", x_type="quantitative",
            y_title="avg instance comparisons", log_y=True,
        ),
        "Paper (HOUSE, m_d 20-100): all four filter stages help; full stacks "
        "save up to two orders of magnitude of instance comparisons for SSD "
        "and PSD, ~60x for SSSD, vs. brute force.",
    ),
}

# At smoke scale the slowest configurations shrink further: fewer datasets
# for the 7-dataset suites, one operator and two m_d points for the filter
# ablation (whose BF stack is deliberately unfiltered, i.e. slow).
_SMOKE_DATASETS = ("A-N", "HOUSE", "NBA")


def _pivot_fig16(rows: list[dict]) -> list[dict]:
    """(m_d, operator, stacks…) rows -> one row per m_d, ``op/stack`` cols."""
    merged: dict[float, dict] = {}
    for row in rows:
        out = merged.setdefault(row["m_d(paper)"], {"m_d": row["m_d(paper)"]})
        for stack, value in row.items():
            if stack in ("m_d(paper)", "m_d(actual)", "operator"):
                continue
            out[f"{row['operator']}/{stack}"] = value
    return list(merged.values())


def _paper_builder(fid: str) -> Callable[[BuildInputs], FigureArtifact]:
    def build(inputs: BuildInputs) -> FigureArtifact:
        scale = inputs.scale
        if fid == "fig16":
            result = (
                paper_figures.fig16_filters(
                    scale, kinds=("SSD",), m_d_values=(20, 40)
                )
                if scale == "smoke"
                else paper_figures.fig16_filters(scale)
            )
            rows = _pivot_fig16(result.rows)
        elif fid in ("fig10", "fig12") and scale == "smoke":
            fn = (
                paper_figures.fig10_candidate_size
                if fid == "fig10"
                else paper_figures.fig12_response_time
            )
            result = fn(scale, datasets=_SMOKE_DATASETS)
            rows = result.rows
        else:
            result = paper_figures.FIGURES[fid](scale)
            rows = result.rows
        return FigureArtifact(
            fid=fid,
            title=result.figure,
            description=result.description,
            category="paper",
            rows=rows,
            chart=_PAPER[fid][0],
            notes=f"regenerated at scale={scale}" + (
                f"; {result.notes}" if result.notes else ""
            ),
            paper_note=_PAPER[fid][1],
        )

    return build


# --------------------------------------------------------------------- #
# Live-snapshot views — SLO quantiles, profiler flamegraph, fleet overview
# --------------------------------------------------------------------- #

def _self_fleet() -> tuple[dict, dict]:
    """Fallback snapshots from a three-node LocalNode fleet in-process.

    Returns the router's ``/fleet`` body and node n1's ``/status`` body
    after six SSD queries through the router.  Queries are timed on the
    nodes, so the router's own ``/status`` has no latency quantiles.
    """
    import numpy as _np

    from repro.datasets.synthetic import (
        anticorrelated_centers,
        make_objects,
        make_query,
    )
    from repro.obs.metrics import MetricsRegistry
    from repro.serve.remote import LocalNode
    from repro.serve.router import RouterApp
    from repro.serve.server import ServeApp
    from repro.serve.updates import DatasetManager

    rng = _np.random.default_rng(0)
    centers = anticorrelated_centers(60, 2, rng)
    objects = make_objects(centers, 4, 60.0, rng)
    nodes: dict = {}
    apps = []
    for nid in ("n1", "n2", "n3"):
        registry = MetricsRegistry()
        app = ServeApp(
            DatasetManager(
                objects, shards=3, partitioner="hash", metrics=registry
            ),
            registry=registry,
            node_id=nid,
        )
        apps.append(app)
        nodes[nid] = LocalNode(nid, app)
    router = RouterApp(nodes, shards=3, replication=2)
    try:
        for _ in range(6):
            query = make_query(centers[rng.integers(len(centers))], 3, 30.0, rng)
            router.dispatch(
                "POST", "/query",
                {
                    "points": query.points.tolist(),
                    "operator": "SSD",
                    "k": 2,
                    "cache": False,
                },
                {},
            )
        _, status = apps[0].dispatch("GET", "/status", None, {})
        return router.fleet.scrape(), status
    finally:
        router.close()
        for app in apps:
            app.close()


def slo_rows(status: dict) -> tuple[list[dict], dict]:
    """Per-operator p50/p95/p99 rows (ms) + burn counters of a ``/status``.

    The body's ``slo`` section is :func:`repro.obs.metrics.slo_snapshot`:
    quantiles under ``latency_seconds``, in seconds.
    """
    slo = status.get("slo")
    if not isinstance(slo, dict):
        raise FigureInputError(
            "slo-quantiles: snapshot is not a /status body (no slo section)"
        )
    rows = []
    for op, quantiles in sorted((slo.get("latency_seconds") or {}).items()):
        ms = {q: v * 1000.0 for q, v in quantiles.items()}
        rows.append(
            {
                "operator": op,
                "p50_ms": ms.get("p50"),
                "p95_ms": ms.get("p95"),
                "p99_ms": ms.get("p99"),
            }
        )
    return rows, slo.get("burn") or {}


def _build_slo_quantiles(inputs: BuildInputs) -> FigureArtifact:
    if inputs.slo is not None:
        status = _load_json(
            inputs.slo, "slo-quantiles",
            "save one with: repro client status --format json > status.json",
        )
        source = str(inputs.slo)
    else:
        status = _self_fleet()[1]
        source = (
            "node n1's /status in an in-process 3-node LocalNode fleet "
            "(no --slo input given)"
        )
    rows, burn = slo_rows(status)
    notes = f"source: {source}"
    if burn:
        notes += "; burn counters: " + json.dumps(burn, sort_keys=True)
    return FigureArtifact(
        "slo-quantiles",
        "SLO latency quantiles",
        "per-operator p50/p95/p99 served latency as exported by /status "
        "(histogram-derived, the numbers the SLO burn counters judge)",
        "observability",
        rows,
        ChartSpec("bar", "operator", ("p50_ms", "p95_ms", "p99_ms"),
                  y_title="latency (ms)"),
        notes=notes,
    )


def _self_profile() -> tuple[dict[str, int], str]:
    """Fallback profile: sample a tiny NNC workload in-process.

    The workload runs on this thread while the profiler's own daemon
    thread samples it — the ``start()``/``stop()`` path servers use.
    """
    import numpy as _np

    from repro.core.nnc import NNCSearch
    from repro.datasets.synthetic import (
        anticorrelated_centers,
        make_objects,
        make_query,
    )
    from repro.obs.profile import SamplingProfiler

    rng = _np.random.default_rng(0)
    centers = anticorrelated_centers(150, 2, rng)
    objects = make_objects(centers, 5, 40.0, rng)
    search = NNCSearch(objects)
    queries = [
        make_query(centers[rng.integers(len(centers))], 3, 20.0, rng)
        for _ in range(8)
    ]
    prof = SamplingProfiler(200.0).start()
    try:
        for i in range(300):
            search.run(queries[i % len(queries)], "SSD", k=2)
    finally:
        prof.stop()
    stacks = prof.stacks()
    if not stacks:
        raise FigureInputError(
            "flamegraph: in-process self-profile captured no stacks; "
            "pass --profile with a saved GET /profile body instead"
        )
    return stacks, (
        f"in-process self-profile: {prof.samples} sample(s) of a tiny NNC "
        "workload (no --profile input given)"
    )


def _build_flamegraph(inputs: BuildInputs) -> FigureArtifact:
    from repro.obs.profile import flamegraph_svg, parse_folded

    if inputs.profile is not None:
        body = _load_json(
            inputs.profile, "flamegraph",
            "save one with: repro client profile > profile.json",
        )
        # `folded` carries every stack; `stacks` only the heaviest few.
        stacks = parse_folded(str(body.get("folded") or ""))
        if not stacks:
            raise FigureInputError(
                f"flamegraph: {inputs.profile} has no stacks (profiler "
                "disabled? start the server with --profile-hz > 0)"
            )
        notes = (
            f"source: {inputs.profile} ({body.get('samples')} sample(s) "
            f"@ {body.get('hz')} Hz, node {body.get('node_id', '?')})"
        )
    else:
        stacks, notes = _self_profile()
    total = sum(stacks.values()) or 1
    leaves: dict[str, int] = {}
    for stack, count in stacks.items():
        leaf = stack.rsplit(";", 1)[-1]
        leaves[leaf] = leaves.get(leaf, 0) + count
    rows = [
        {
            "frame": leaf,
            "samples": count,
            "percent": 100.0 * count / total,
        }
        for leaf, count in sorted(leaves.items(), key=lambda kv: -kv[1])[:15]
    ]
    return FigureArtifact(
        "flamegraph",
        "Continuous-profiler flamegraph",
        "hottest leaf frames from the sampling profiler's folded stacks "
        "(GET /profile); the full flamegraph renders inline below",
        "observability",
        rows,
        ChartSpec("bar", "frame", ("samples",), y_title="samples"),
        notes=notes,
        extra_html=(
            "<figure>"
            + flamegraph_svg(stacks, title="where the samples landed")
            + "</figure>"
        ),
    )


def _fleet_quantiles_html(quantiles: dict) -> str:
    if not quantiles:
        return ""
    rows = []
    for op in sorted(quantiles):
        q = quantiles[op]
        clamp = " (clamped)" if q.get("clamped") else ""
        rows.append(
            f"<tr><td>{op}</td><td>{q.get('count')}</td>"
            f"<td>{q.get('p50', 0.0) * 1000:.2f}</td>"
            f"<td>{q.get('p95', 0.0) * 1000:.2f}</td>"
            f"<td>{q.get('p99', 0.0) * 1000:.2f}{clamp}</td></tr>"
        )
    return (
        "<table><thead><tr><th>operator</th><th>queries</th>"
        "<th>p50 ms</th><th>p95 ms</th><th>p99 ms</th></tr></thead>"
        "<tbody>" + "".join(rows) + "</tbody></table>"
    )


def _build_fleet_overview(inputs: BuildInputs) -> FigureArtifact:
    if inputs.fleet is not None:
        body = _load_json(
            inputs.fleet, "fleet-overview",
            "save one with: repro client fleet > fleet.json (router URL)",
        )
        source = str(inputs.fleet)
    else:
        body = _self_fleet()[0]
        source = "in-process 3-node LocalNode fleet (no --fleet input given)"
    nodes = body.get("nodes") or {}
    if not nodes:
        raise FigureInputError(
            "fleet-overview: snapshot has no nodes section (not a router "
            "GET /fleet body?)"
        )
    rows = []
    for nid in sorted(nodes):
        view = nodes[nid]
        alerts = view.get("alerts") or []
        rows.append(
            {
                "node": nid,
                "ok": bool(view.get("ok")),
                "status": view.get("status"),
                "epoch": view.get("epoch"),
                "objects": view.get("objects"),
                "uptime_s": view.get("uptime_seconds"),
                "breaker": view.get("breaker"),
                "alerts": ", ".join(alerts),
            }
        )
    quantiles = body.get("quantiles") or {}
    firing = sorted(
        {alert for view in nodes.values() for alert in view.get("alerts") or []}
    )
    notes = f"source: {source}"
    if firing:
        notes += "; ALERTS FIRING: " + ", ".join(firing)
    return FigureArtifact(
        "fleet-overview",
        "Fleet overview",
        "per-node status/epoch/objects from the router's federated scrape "
        "(GET /fleet), with fleet-merged latency quantiles — real merged "
        "histograms, not averaged per-node percentiles — tabled below",
        "observability",
        rows,
        ChartSpec("bar", "node", ("objects",), y_title="live objects"),
        notes=notes,
        extra_html=_fleet_quantiles_html(quantiles),
    )


# --------------------------------------------------------------------- #
# The registry
# --------------------------------------------------------------------- #

def _registry() -> dict[str, Figure]:
    entries: list[Figure] = [
        Figure(fid, f"Paper {fid}", "paper", _paper_builder(fid))
        for fid in paper_figures.FIGURES
    ]
    entries += [
        Figure("slo-quantiles", "SLO latency quantiles", "observability",
               _build_slo_quantiles),
        Figure("flamegraph", "Continuous-profiler flamegraph",
               "observability", _build_flamegraph),
        Figure("fleet-overview", "Fleet overview", "observability",
               _build_fleet_overview),
    ]
    return {entry.fid: entry for entry in entries}


REGISTRY: dict[str, Figure] = _registry()


def registered_ids() -> list[str]:
    """Every figure id, registry order (paper first, then live views)."""
    return list(REGISTRY)


def get(fid: str) -> Figure:
    """The registry entry for ``fid``; :class:`UnknownFigureError` if none."""
    try:
        return REGISTRY[fid]
    except KeyError:
        raise UnknownFigureError(fid) from None


def build_figure(fid: str, inputs: BuildInputs | None = None) -> FigureArtifact:
    """Build one figure and run its self-check."""
    art = get(fid).build(inputs if inputs is not None else BuildInputs())
    self_check(art)
    return art


def build_many(
    fids: list[str] | None = None,
    inputs: BuildInputs | None = None,
    *,
    on_progress: Callable[[str], None] | None = None,
) -> list[FigureArtifact]:
    """Build (and self-check) many figures; ``None`` means all of them."""
    arts = []
    for fid in fids if fids is not None else registered_ids():
        if on_progress is not None:
            on_progress(fid)
        arts.append(build_figure(fid, inputs))
    return arts


# --------------------------------------------------------------------- #
# Emission: CSV, Vega-Lite, self-check
# --------------------------------------------------------------------- #

def _columns(rows: list[dict]) -> list[str]:
    cols: list[str] = []
    for row in rows:
        for key in row:
            if key not in cols:
                cols.append(key)
    return cols


def _fmt_cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".6g")
    if value is None:
        return ""
    return str(value)


def rows_to_csv(rows: list[dict]) -> str:
    """Rows as CSV text: union of columns, floats at 6 significant digits."""
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=_columns(rows), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt_cell(v) for k, v in row.items()})
    return out.getvalue()


def _series_of(art: FigureArtifact) -> list[str]:
    chart = art.chart
    if chart.series:
        return list(chart.series)
    series = []
    for col in _columns(art.rows):
        if col == chart.x:
            continue
        if any(
            isinstance(row.get(col), (int, float))
            and not isinstance(row.get(col), bool)
            for row in art.rows
        ):
            series.append(col)
    return series


def long_rows(art: FigureArtifact) -> list[dict]:
    """Wide rows -> ``{x, series, value}`` triples (Nones dropped)."""
    chart, series = art.chart, _series_of(art)
    out = []
    for row in art.rows:
        for name in series:
            value = row.get(name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            out.append(
                {chart.x: row.get(chart.x), "series": name,
                 "value": float(value)}
            )
    return out


def vega_lite_spec(art: FigureArtifact) -> dict:
    """A self-contained Vega-Lite v5 spec with the data inlined."""
    chart, series = art.chart, _series_of(art)
    values = long_rows(art)
    y_scale: dict = {}
    if chart.log_y and all(v["value"] > 0 for v in values):
        y_scale["type"] = "log"
    encoding: dict = {
        "x": {"field": chart.x, "type": chart.x_type, "sort": None},
        "y": {
            "field": "value",
            "type": "quantitative",
            "title": chart.y_title or "value",
            **({"scale": y_scale} if y_scale else {}),
        },
        "tooltip": [
            {"field": chart.x, "type": chart.x_type},
            {"field": "series", "type": "nominal"},
            {"field": "value", "type": "quantitative"},
        ],
    }
    if len(series) > 1:
        encoding["color"] = {
            "field": "series",
            "type": "nominal",
            "sort": series,
            "title": None,
        }
        if chart.kind == "bar":
            encoding["xOffset"] = {"field": "series", "sort": series}
    mark = (
        {"type": "line", "point": True}
        if chart.kind == "line"
        else {"type": "bar"}
    )
    return {
        "$schema": VEGA_LITE_SCHEMA,
        "title": f"{art.fid} — {art.title}",
        "description": art.description,
        "width": 480,
        "height": 260,
        "data": {"values": values},
        "mark": mark,
        "encoding": encoding,
    }


def self_check(art: FigureArtifact) -> dict:
    """Assert the artifact is emittable; return a small summary.

    Checks: non-empty rows; CSV round-trips through ``csv.DictReader``
    with the same shape; the Vega-Lite spec carries the v5 ``$schema``,
    non-empty inline data, a mark and x/y encodings whose fields exist in
    the data.  Raises :class:`SelfCheckError` with the figure id on any
    violation.
    """
    def fail(msg: str) -> None:
        raise SelfCheckError(f"{art.fid}: {msg}")

    if not art.rows:
        fail("no rows")
    csv_text = rows_to_csv(art.rows)
    parsed = list(csv.DictReader(io.StringIO(csv_text)))
    if len(parsed) != len(art.rows):
        fail(f"CSV round-trip lost rows ({len(art.rows)} -> {len(parsed)})")
    if parsed and list(parsed[0]) != _columns(art.rows):
        fail("CSV round-trip changed the column set")
    spec = vega_lite_spec(art)
    if spec.get("$schema") != VEGA_LITE_SCHEMA:
        fail("spec is missing the Vega-Lite v5 $schema")
    values = spec.get("data", {}).get("values")
    if not isinstance(values, list) or not values:
        fail("spec has no inline data values")
    if "mark" not in spec or "encoding" not in spec:
        fail("spec is missing mark/encoding")
    for channel in ("x", "y"):
        fld = spec["encoding"].get(channel, {}).get("field")
        if not fld:
            fail(f"spec encoding.{channel} has no field")
        if not any(fld in value for value in values):
            fail(f"spec encoding.{channel} field {fld!r} absent from data")
    json.dumps(spec)  # must be JSON-serializable end to end
    return {
        "fid": art.fid,
        "rows": len(art.rows),
        "series": len(_series_of(art)),
        "csv_bytes": len(csv_text),
    }


def write_artifacts(art: FigureArtifact, out_dir: str | Path) -> dict:
    """Write ``data/<fid>.csv`` + ``specs/<fid>.vl.json``; return paths."""
    out_dir = Path(out_dir)
    data_dir, spec_dir = out_dir / "data", out_dir / "specs"
    data_dir.mkdir(parents=True, exist_ok=True)
    spec_dir.mkdir(parents=True, exist_ok=True)
    csv_path = data_dir / f"{art.fid}.csv"
    csv_path.write_text(rows_to_csv(art.rows))
    spec_path = spec_dir / f"{art.fid}.vl.json"
    spec_path.write_text(
        json.dumps(vega_lite_spec(art), indent=2, sort_keys=True) + "\n"
    )
    return {"csv": csv_path, "spec": spec_path}
