"""Static dashboard: every registered figure in one HTML file.

:func:`render_dashboard` turns built :class:`FigureArtifact` rows into a
single self-contained ``index.html`` — inline SVG charts, inline data
tables, inline Vega-Lite specs, zero network requests and zero JS — so the
artifact renders in a browser, in a CI artifact viewer, and in a
``git diff``.  Charts follow one system: categorical series take a fixed
validated palette (same hue order in light and dark mode), lines are 2px
with point markers, grouped bars carry a 2px surface gap, every mark has a
native ``<title>`` tooltip, and any multi-series chart gets a legend.

Sections, in order: run provenance, paper figures (each with the paper's
own note), live-snapshot views.
"""

from __future__ import annotations

import html
import json
import math
from typing import Sequence

from repro.experiments.registry import (
    FigureArtifact,
    long_rows,
    vega_lite_spec,
)

__all__ = ["render_dashboard", "svg_chart"]

# Validated categorical palette (dataviz reference instance): fixed slot
# order, light/dark steps of the same hues.  Slot order is the
# colorblind-safety mechanism — never cycle or re-sort it.
_LIGHT = ("#2a78d6", "#eb6834", "#1baf7a", "#eda100",
          "#e87ba4", "#008300", "#4a3aa7", "#e34948")
_DARK = ("#3987e5", "#d95926", "#199e70", "#c98500",
         "#d55181", "#008300", "#9085e9", "#e66767")

_W, _H = 640, 300
_ML, _MR, _MT, _MB = 64, 16, 14, 46


def _esc(value) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value: float) -> str:
    """Compact tick/tooltip number: 3 significant digits, k/M suffixes."""
    if value == 0:
        return "0"
    if abs(value) >= 1_000_000:
        return f"{value / 1_000_000:.3g}M"
    if abs(value) >= 10_000:
        return f"{value / 1_000:.3g}k"
    return f"{value:.3g}"


def _y_ticks(lo: float, hi: float, log: bool) -> list[float]:
    if log:
        lo_e = math.floor(math.log10(lo))
        hi_e = math.ceil(math.log10(hi))
        step = max(1, (hi_e - lo_e) // 5)
        return [10.0 ** e for e in range(lo_e, hi_e + 1, step)]
    if hi == lo:
        return [lo]
    raw = (hi - lo) / 4
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12:
        ticks.append(round(t, 10))
        t += step
    return ticks or [lo]


def svg_chart(art: FigureArtifact) -> str:
    """One inline SVG for the artifact's chart (line or grouped bar)."""
    chart = art.chart
    data = long_rows(art)
    if not data:
        return "<p class='empty'>no data</p>"
    series: list[str] = []
    for row in data:
        if row["series"] not in series:
            series.append(row["series"])
    x_values: list = []
    for row in data:
        if row[chart.x] not in x_values:
            x_values.append(row[chart.x])

    values = [row["value"] for row in data]
    log = chart.log_y and min(values) > 0
    lo, hi = min(values), max(values)
    if chart.kind == "bar" and not log:
        lo = min(lo, 0.0)
    if log:
        lo, hi = 10.0 ** math.floor(math.log10(lo)), 10.0 ** math.ceil(math.log10(hi))
    elif hi == lo:
        hi = lo + 1.0
    pad = 0.0 if log else 0.05 * (hi - lo)
    y0, y1 = lo - (0.0 if chart.kind == "bar" else pad), hi + pad
    if log:
        y0, y1 = lo, hi

    plot_w, plot_h = _W - _ML - _MR, _H - _MT - _MB

    def sy(v: float) -> float:
        if log:
            frac = (math.log10(v) - math.log10(y0)) / (
                math.log10(y1) - math.log10(y0)
            )
        else:
            frac = (v - y0) / (y1 - y0)
        return _MT + plot_h * (1.0 - frac)

    numeric_x = chart.x_type == "quantitative" and all(
        isinstance(v, (int, float)) for v in x_values
    )
    if numeric_x:
        xs = sorted(float(v) for v in x_values)
        x_lo, x_hi = xs[0], xs[-1]
        span = (x_hi - x_lo) or 1.0

        def sx(v) -> float:
            return _ML + plot_w * (float(v) - x_lo) / span
    else:
        slot = plot_w / len(x_values)

        def sx(v) -> float:
            return _ML + slot * (x_values.index(v) + 0.5)

    parts = [
        f'<svg viewBox="0 0 {_W} {_H}" role="img" '
        f'aria-label="{_esc(art.title)}" class="chart">'
    ]
    # Recessive grid + y axis labels.
    for tick in _y_ticks(y0 if log else max(y0, lo), hi, log):
        y = sy(tick)
        parts.append(
            f'<line class="grid" x1="{_ML}" y1="{y:.1f}" '
            f'x2="{_W - _MR}" y2="{y:.1f}"/>'
            f'<text class="tick" x="{_ML - 6}" y="{y + 3.5:.1f}" '
            f'text-anchor="end">{_esc(_fmt(tick))}</text>'
        )
    # X labels (every slot for ordinal, ticks for numeric).
    x_labels = (
        [(v, sx(v)) for v in xs] if numeric_x
        else [(v, sx(v)) for v in x_values]
    )
    if len(x_labels) > 12:  # thin dense ordinal axes
        keep = max(1, len(x_labels) // 10)
        x_labels = x_labels[::keep] + [x_labels[-1]]
    for label, x in x_labels:
        parts.append(
            f'<text class="tick" x="{x:.1f}" y="{_H - _MB + 16}" '
            f'text-anchor="middle">{_esc(_fmt(label) if isinstance(label, (int, float)) else label)}</text>'
        )
    # Axis titles.
    parts.append(
        f'<text class="axis" x="{_ML + plot_w / 2:.0f}" y="{_H - 8}" '
        f'text-anchor="middle">{_esc(chart.x)}</text>'
        f'<text class="axis" x="14" y="{_MT + plot_h / 2:.0f}" '
        f'text-anchor="middle" transform="rotate(-90 14 {_MT + plot_h / 2:.0f})">'
        f"{_esc(chart.y_title or 'value')}</text>"
    )

    by_series: dict[str, list[dict]] = {name: [] for name in series}
    for row in data:
        by_series[row["series"]].append(row)

    if chart.kind == "line":
        for si, name in enumerate(series):
            rows = by_series[name]
            if numeric_x:
                rows = sorted(rows, key=lambda r: float(r[chart.x]))
            points = [(sx(r[chart.x]), sy(r["value"])) for r in rows]
            path = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
            cls = f"s{si % len(_LIGHT)}"
            parts.append(f'<polyline class="line {cls}" points="{path}"/>')
            for r, (x, y) in zip(rows, points):
                tip = f"{name} · {chart.x}={r[chart.x]} · {_fmt(r['value'])}"
                parts.append(
                    f'<circle class="dot {cls}" cx="{x:.1f}" cy="{y:.1f}" '
                    f'r="3.5"><title>{_esc(tip)}</title></circle>'
                )
    else:  # grouped bars, 2px surface gap between adjacent fills
        n_x, n_s = len(x_values), len(series)
        group_w = (plot_w / max(1, (n_x if not numeric_x else n_x))) * 0.84
        bar_w = max(2.0, group_w / n_s - 2.0)
        base_y = sy(y0 if not log else y0)
        for si, name in enumerate(series):
            cls = f"s{si % len(_LIGHT)}"
            for r in by_series[name]:
                cx = sx(r[chart.x])
                x = cx - group_w / 2 + si * (group_w / n_s) + 1.0
                y = sy(r["value"])
                h = max(0.0, base_y - y)
                tip = f"{name} · {r[chart.x]} · {_fmt(r['value'])}"
                parts.append(
                    f'<rect class="bar {cls}" x="{x:.1f}" y="{y:.1f}" '
                    f'width="{bar_w:.1f}" height="{h:.1f}" rx="2">'
                    f"<title>{_esc(tip)}</title></rect>"
                )
    parts.append(
        f'<line class="axisline" x1="{_ML}" y1="{_MT + plot_h}" '
        f'x2="{_W - _MR}" y2="{_MT + plot_h}"/>'
    )
    parts.append("</svg>")
    return "".join(parts)


def _legend(art: FigureArtifact) -> str:
    data = long_rows(art)
    series: list[str] = []
    for row in data:
        if row["series"] not in series:
            series.append(row["series"])
    if len(series) < 2:
        return ""
    items = "".join(
        f'<span class="key"><span class="swatch s{i % len(_LIGHT)}"></span>'
        f"{_esc(name)}</span>"
        for i, name in enumerate(series)
    )
    return f'<div class="legend">{items}</div>'


def _table(rows: list[dict], limit: int = 24) -> str:
    cols: list[str] = []
    for row in rows:
        for key in row:
            if key not in cols:
                cols.append(key)
    head = "".join(f"<th>{_esc(c)}</th>" for c in cols)
    body = []
    for row in rows[:limit]:
        cells = []
        for c in cols:
            v = row.get(c, "")
            if isinstance(v, float):
                v = _fmt(v)
            cells.append(f"<td>{_esc(v)}</td>")
        body.append("<tr>" + "".join(cells) + "</tr>")
    more = (
        f'<p class="muted">… {len(rows) - limit} more row(s) in the CSV</p>'
        if len(rows) > limit
        else ""
    )
    return (
        f'<table><thead><tr>{head}</tr></thead>'
        f"<tbody>{''.join(body)}</tbody></table>{more}"
    )


def _css() -> str:
    light_vars = "\n".join(
        f"  --series-{i + 1}: {c};" for i, c in enumerate(_LIGHT)
    )
    dark_vars = "\n".join(
        f"    --series-{i + 1}: {c};" for i, c in enumerate(_DARK)
    )
    series_rules = "\n".join(
        f".s{i} {{ stroke: var(--series-{i + 1}); fill: var(--series-{i + 1}); }}"
        for i in range(len(_LIGHT))
    )
    return f"""
.viz-root {{
  color-scheme: light;
  --surface-1: #fcfcfb; --surface-2: #f0efec;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --text-muted: #7a786f;
  --grid: #e4e2dc;
{light_vars}
}}
@media (prefers-color-scheme: dark) {{
  .viz-root {{
    color-scheme: dark;
    --surface-1: #1a1a19; --surface-2: #262625;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --text-muted: #8c8b81;
    --grid: #383835;
{dark_vars}
  }}
}}
body.viz-root {{
  margin: 0 auto; padding: 1.5rem; max-width: 72rem;
  background: var(--surface-1); color: var(--text-primary);
  font: 14px/1.5 system-ui, sans-serif;
}}
h1 {{ font-size: 1.4rem; margin: 0 0 .25rem; }}
h2 {{ font-size: 1.15rem; margin: 2rem 0 .5rem;
     border-bottom: 1px solid var(--grid); padding-bottom: .25rem; }}
h3 {{ font-size: 1rem; margin: 1.25rem 0 .25rem; }}
nav a {{ margin-right: .75rem; }}
a {{ color: var(--series-1); }}
p {{ margin: .25rem 0; }}
.prov, .muted, .notes {{ color: var(--text-muted); }}
.desc, .paper {{ color: var(--text-secondary); }}
svg.chart {{ width: 100%; max-width: {_W}px; height: auto; display: block;
             background: var(--surface-1); }}
.grid {{ stroke: var(--grid); stroke-width: 1; }}
.axisline {{ stroke: var(--text-muted); stroke-width: 1; }}
.tick, .axis {{ font: 11px system-ui, sans-serif; fill: var(--text-secondary);
                stroke: none; }}
.axis {{ fill: var(--text-muted); }}
.line {{ fill: none; stroke-width: 2; }}
.dot {{ stroke: var(--surface-1); stroke-width: 2; }}
.bar {{ stroke: var(--surface-1); stroke-width: 1; }}
{series_rules}
.legend {{ display: flex; flex-wrap: wrap; gap: .25rem 1rem; margin: .25rem 0; }}
.key {{ display: inline-flex; align-items: center; gap: .4rem;
        color: var(--text-secondary); }}
.swatch {{ width: 10px; height: 10px; border-radius: 2px; display: inline-block; }}
table {{ border-collapse: collapse; margin: .5rem 0; font-size: 13px; }}
th, td {{ border: 1px solid var(--grid); padding: .2rem .55rem;
          text-align: left; color: var(--text-secondary); }}
th {{ color: var(--text-primary); background: var(--surface-2); }}
details {{ margin: .4rem 0; }}
details pre {{ background: var(--surface-2); padding: .6rem; overflow-x: auto;
               font-size: 12px; max-height: 22rem; }}
section.fig {{ margin-bottom: 1.5rem; }}
"""


_CATEGORY_TITLES = {
    "paper": "Paper figures (Section 6 / Appendix C reproductions)",
    "observability": "Live snapshots (SLO quantiles, continuous profiler, "
    "fleet federation)",
}


def render_dashboard(
    artifacts: Sequence[FigureArtifact],
    *,
    provenance_record: dict | None = None,
    scale: str | None = None,
) -> str:
    """The full self-contained ``index.html`` as a string."""
    prov = provenance_record or {}
    prov_bits = [
        bit
        for bit in (
            f"commit {str(prov['sha'])[:10]}" if prov.get("sha") else None,
            f"branch {prov['branch']}" if prov.get("branch") else None,
            prov.get("date"),
            f"host {prov['hostname']}" if prov.get("hostname") else None,
            f"{prov['cpu_count']} cpu(s)" if prov.get("cpu_count") else None,
            f"paper figures at scale={scale}" if scale else None,
        )
        if bit
    ]
    toc = "".join(
        f'<a href="#{_esc(art.fid)}">{_esc(art.fid)}</a>' for art in artifacts
    )

    sections = []
    by_category: dict[str, list[FigureArtifact]] = {}
    for art in artifacts:
        by_category.setdefault(art.category, []).append(art)
    for category, arts in by_category.items():
        sections.append(
            f"<h2>{_esc(_CATEGORY_TITLES.get(category, category))}</h2>"
        )
        for art in arts:
            spec_json = json.dumps(
                vega_lite_spec(art), indent=2, sort_keys=True
            )
            sections.append(
                f'<section class="fig" id="{_esc(art.fid)}">'
                f"<h3>{_esc(art.fid)} — {_esc(art.title)}</h3>"
                f'<p class="desc">{_esc(art.description)}</p>'
                + (
                    f'<p class="paper"><em>{_esc(art.paper_note)}</em></p>'
                    if art.paper_note else ""
                )
                + (f'<p class="notes">{_esc(art.notes)}</p>' if art.notes else "")
                + f"<figure>{svg_chart(art)}</figure>"
                + _legend(art)
                # Figure-supplied HTML (flamegraph SVG, fleet quantile
                # table) — already rendered, injected verbatim.
                + (art.extra_html or "")
                + f"<details><summary>data ({len(art.rows)} row(s))</summary>"
                + _table(art.rows)
                + "</details>"
                "<details><summary>Vega-Lite spec</summary>"
                f"<pre>{_esc(spec_json)}</pre></details>"
                f'<p class="muted"><a href="data/{_esc(art.fid)}.csv">CSV</a>'
                f' · <a href="specs/{_esc(art.fid)}.vl.json">spec</a></p>'
                "</section>"
            )

    return (
        "<!doctype html>\n<html lang=\"en\">\n<head>\n"
        '<meta charset="utf-8">\n'
        '<meta name="viewport" content="width=device-width, initial-scale=1">\n'
        "<title>repro — figures</title>\n"
        f"<style>{_css()}</style>\n</head>\n"
        '<body class="viz-root">\n'
        "<header><h1>repro — figures</h1>"
        f'<p class="prov">{_esc(" · ".join(prov_bits))}</p></header>\n'
        f"<nav>{toc}</nav>\n"
        + "\n".join(sections)
        + "\n</body>\n</html>\n"
    )
