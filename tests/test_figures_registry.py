"""Tests for the figure registry, provenance and dashboard."""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import provenance, registry
from repro.experiments.dashboard import render_dashboard, svg_chart
from repro.experiments.figures import FIGURES
from repro.obs.metrics import MetricsRegistry, slo_snapshot

REPO_ROOT = Path(__file__).resolve().parent.parent
ALL_IDS = registry.registered_ids()
LIVE_VIEWS = ("slo-quantiles", "flamegraph", "fleet-overview")


@pytest.fixture(scope="module")
def inputs():
    """Smoke-scale paper figures; live views build from their fallbacks."""
    return registry.BuildInputs(scale="smoke")


@pytest.fixture(scope="module")
def built():
    """Cross-test cache so each figure builds exactly once per run."""
    return {}


def _artifact(fid, inputs, built):
    if fid not in built:
        built[fid] = registry.build_figure(fid, inputs)
    return built[fid]


@pytest.mark.parametrize("fid", ALL_IDS)
class TestEveryRegisteredFigure:
    def test_builds_and_self_checks(self, fid, inputs, built):
        art = _artifact(fid, inputs, built)
        summary = registry.self_check(art)
        assert summary["rows"] > 0
        assert art.fid == fid
        assert art.category in ("paper", "observability")

    def test_paper_note_on_paper_figures_only(self, fid, inputs, built):
        art = _artifact(fid, inputs, built)
        assert bool(art.paper_note) == (art.category == "paper")
        if art.paper_note:
            assert art.paper_note.startswith("Paper")

    def test_vega_lite_spec_shape(self, fid, inputs, built):
        spec = registry.vega_lite_spec(_artifact(fid, inputs, built))
        assert spec["$schema"] == registry.VEGA_LITE_SCHEMA
        assert spec["data"]["values"], "spec must inline its data"
        assert "mark" in spec and "encoding" in spec
        for channel in ("x", "y"):
            assert spec["encoding"][channel]["field"]
        json.dumps(spec)  # self-contained and serializable

    def test_csv_round_trips(self, fid, inputs, built):
        art = _artifact(fid, inputs, built)
        text = registry.rows_to_csv(art.rows)
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == len(art.rows)
        assert set(parsed[0]) == {
            key for row in art.rows for key in row
        }


class TestRegistryLookup:
    def test_unknown_id_is_a_located_error(self):
        with pytest.raises(registry.UnknownFigureError) as exc:
            registry.build_figure("fig99")
        assert "fig99" in str(exc.value)
        assert "registered ids" in str(exc.value)

    def test_get_returns_entry(self):
        fig = registry.get("fleet-overview")
        assert fig.category == "observability"

    def test_registry_is_paper_figures_plus_live_views(self):
        assert ALL_IDS == [*FIGURES, *LIVE_VIEWS]


class TestProvenance:
    def test_collect_shape(self):
        rec = provenance.collect()
        assert set(rec) == {
            "sha", "branch", "dirty", "date", "cpu_count", "hostname",
            "python",
        }
        assert rec["date"].endswith("Z")
        assert rec["cpu_count"] >= 1

    def test_stamp_writes_meta_in_place(self):
        payload = {"scale": "tiny", "meta": {"k": 1}}
        assert provenance.stamp(payload) is payload
        assert payload["meta"]["k"] == 1
        assert "sha" in payload["meta"]["provenance"]

    def test_git_facts_degrade_outside_a_repo(self, tmp_path):
        rec = provenance.git_describe(tmp_path)
        assert rec["sha"] == "unknown"
        assert rec["branch"] == "unknown"


class TestSloSnapshot:
    def _registry_with_traffic(self):
        reg = MetricsRegistry()
        for elapsed in (0.01, 0.02, 0.5):
            reg.observe("repro_query_seconds", elapsed, {"operator": "FSD"})
        reg.inc("repro_serve_requests_total", 3,
                {"route": "/query", "status": "200"})
        reg.inc("repro_slo_burn_total", 2, {"slo": "latency"})
        return reg

    def test_snapshot_shape_matches_status_body(self):
        snap = slo_snapshot(self._registry_with_traffic(), 250.0)
        assert set(snap) == {
            "latency_ms_target", "latency_seconds", "degraded_ratio",
            "error_ratio", "burn", "overflow", "clamped",
        }
        assert snap["latency_ms_target"] == 250.0
        assert set(snap["latency_seconds"]["FSD"]) == {"p50", "p95", "p99"}
        assert snap["burn"] == {"latency": 2.0}
        # no observation above the top bucket bound -> honest and empty
        assert snap["overflow"] == {} and snap["clamped"] == {}

    def test_slo_rows_accepts_status_body(self):
        snap = slo_snapshot(self._registry_with_traffic(), 250.0)
        rows, burn = registry.slo_rows({"slo": snap})
        assert rows[0]["operator"] == "FSD"
        assert rows[0]["p99_ms"] > rows[0]["p50_ms"] > 0
        assert burn == {"latency": 2.0}

    def test_slo_rows_rejects_garbage(self):
        with pytest.raises(registry.FigureInputError):
            registry.slo_rows({"nope": 1})
        # the retired figure-ready shape is not a /status body either
        with pytest.raises(registry.FigureInputError):
            registry.slo_rows({"latency_ms": {"SSD": {"p50": 1.0}}})

    def test_fallback_reads_a_node_status(self, inputs, built):
        art = _artifact("slo-quantiles", inputs, built)
        assert [row["operator"] for row in art.rows] == ["SSD"]
        assert art.rows[0]["p99_ms"] >= art.rows[0]["p50_ms"] > 0
        assert "node n1" in art.notes

    def test_saved_status_body_is_the_input(self, tmp_path):
        body = {"slo": slo_snapshot(self._registry_with_traffic(), 250.0)}
        path = tmp_path / "status.json"
        path.write_text(json.dumps(body))
        art = registry.build_figure(
            "slo-quantiles", registry.BuildInputs(slo=path)
        )
        assert [row["operator"] for row in art.rows] == ["FSD"]
        assert str(path) in art.notes


class TestSavedBodies:
    def test_flamegraph_reads_a_profile_body(self, tmp_path):
        from repro.obs.profile import SamplingProfiler

        prof = SamplingProfiler(100.0)
        for _ in range(3):
            prof.sample_once()  # samples this (busy) thread
        body = dict(prof.snapshot(top=1), node_id="n1")
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(body))
        art = registry.build_figure(
            "flamegraph", registry.BuildInputs(profile=path)
        )
        assert sum(row["samples"] for row in art.rows) == 3
        assert str(path) in art.notes and "node n1" in art.notes

    def test_profile_body_without_stacks_is_an_input_error(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"enabled": False, "folded": ""}))
        with pytest.raises(registry.FigureInputError, match="no stacks"):
            registry.build_figure(
                "flamegraph", registry.BuildInputs(profile=path)
            )


class TestDashboard:
    def test_render_is_self_contained_html(self, inputs, built):
        arts = [
            _artifact("fig11f", inputs, built),
            _artifact("fleet-overview", inputs, built),
        ]
        html = render_dashboard(
            arts, provenance_record=provenance.collect(), scale="smoke",
        )
        assert html.startswith("<!doctype html>")
        for art in arts:
            assert f'id="{art.fid}"' in html
            assert f"data/{art.fid}.csv" in html
        assert arts[0].paper_note in html  # the paper's note rides along
        assert "<svg" in html
        assert "prefers-color-scheme: dark" in html
        # Self-contained: no external scripts, stylesheets, or images.
        assert "<script" not in html
        assert 'src="http' not in html and "@import" not in html

    def test_svg_chart_draws_marks(self, inputs, built):
        line_svg = svg_chart(_artifact("fig11f", inputs, built))
        assert "<polyline" in line_svg
        bar_svg = svg_chart(_artifact("fleet-overview", inputs, built))
        assert "<rect" in bar_svg
        assert "<title>" in bar_svg  # native tooltips


class TestFiguresCli:
    def test_list(self, capsys):
        assert main(["figures", "--list"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()]
        assert listed == [*FIGURES, *LIVE_VIEWS]

    def test_no_ids_is_usage_error(self, capsys):
        assert main(["figures"]) == 2
        assert "--all" in capsys.readouterr().err

    def test_unknown_id_is_usage_error(self, capsys):
        assert main(["figures", "fig99", "--check"]) == 2
        assert "fig99" in capsys.readouterr().err

    def test_check_writes_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["figures", "fleet-overview", "--check"]) == 0
        assert "self-check ok" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_build_writes_csv_spec_and_dashboard(self, tmp_path, capsys):
        out_dir = tmp_path / "dash"
        assert main([
            "figures", "fleet-overview", "slo-quantiles",
            "--out-dir", str(out_dir),
        ]) == 0
        assert (out_dir / "index.html").exists()
        for fid in ("fleet-overview", "slo-quantiles"):
            assert (out_dir / "data" / f"{fid}.csv").exists()
            spec = json.loads(
                (out_dir / "specs" / f"{fid}.vl.json").read_text()
            )
            assert spec["$schema"] == registry.VEGA_LITE_SCHEMA

    def test_missing_input_is_exit_1(self, tmp_path, capsys):
        assert main([
            "figures", "slo-quantiles",
            "--slo", str(tmp_path / "absent.json"),
            "--check",
        ]) == 1
        assert "not found" in capsys.readouterr().err

    def test_table_prints_before_the_self_check_line(self, capsys):
        assert main(["figures", "fleet-overview", "--check"]) == 0
        out = capsys.readouterr().out
        table = out.index("Fleet overview — per-node status")
        assert out.index("node ", table) < out.index("self-check ok")

    @pytest.mark.parametrize("argv", [
        ["figures", "--kernels", "x.json", "--check"],
        ["figures", "--serve", "x.json", "--check"],
        ["figures", "--trajectory", "x.jsonl", "--check"],
        ["figures", "--verdict", "x.json", "--check"],
        ["client", "status", "--format", "slo-json"],
    ], ids=["kernels", "serve", "trajectory", "verdict", "slo-json"])
    def test_retired_options_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
