"""Tests for the Markdown report writer and the ``repro report`` verb."""

import pytest

from repro.cli import main
from repro.experiments.registry import ChartSpec, FigureArtifact
from repro.experiments.report import write_report


def _paper_artifact(fid, title, rows, note=""):
    return FigureArtifact(
        fid, title, "demo", "paper", rows, ChartSpec("bar", "x"),
        paper_note=note,
    )


class TestWriteReport:
    def test_report_structure(self, tmp_path):
        results = [
            (
                _paper_artifact(
                    "fig10",
                    "Figure 10",
                    [
                        {
                            "dataset": "A",
                            "SSD": 1.0,
                            "SSSD": 2.0,
                            "PSD": 3.0,
                            "FSD": 6.0,
                            "F+SD": 9.0,
                        }
                    ],
                    note="Paper: HOUSE -> SSD 7.",
                ),
                1.25,
            ),
            (
                _paper_artifact(
                    "fig14",
                    "Figure 14",
                    [
                        {"progress_%": 50.0, "time_s": 0.2, "avg_quality": 5.0},
                        {"progress_%": 100.0, "time_s": 1.0, "avg_quality": 4.0},
                    ],
                ),
                0.5,
            ),
        ]
        out = tmp_path / "report.md"
        write_report(results, "tiny", out)
        text = out.read_text()
        assert "# EXPERIMENTS" in text
        assert "`python -m repro report --scale tiny`" in text
        assert "Figure 10" in text
        assert "Figure 14" in text
        assert "*Paper: HOUSE -> SSD 7.*" in text
        assert "_Regenerated in 1.2s._" in text or "1.3s" in text
        assert "Appendix C.2" in text
        assert "HOLDS" in text or "VIOLATED" in text

    def test_report_without_summary_figures(self, tmp_path):
        results = [(_paper_artifact("fig12", "Figure 12", [{"x": 1}]), 0.1)]
        out = tmp_path / "r.md"
        write_report(results, "tiny", out)
        assert "Appendix C.2" not in out.read_text()


class TestReportCommand:
    def test_unknown_scale_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--scale", "galactic"])
        assert exc.value.code == 2
        assert "galactic" in capsys.readouterr().err
