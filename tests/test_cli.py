"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_search_defaults(self):
        args = build_parser().parse_args(["search"])
        assert args.operator == "PSD"
        assert args.k == 1

    def test_operator_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "--operator", "XSD"])

    def test_figure_names_enforced(self, capsys):
        assert main(["figures", "fig99", "--check"]) == 2
        # `figures` is the one figure verb; the old `figure` is gone
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["figure", "fig11f"])
        assert exc.value.code == 2


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out
        assert "SSD" in out

    def test_generate_and_search(self, tmp_path, capsys):
        dataset = tmp_path / "d.npz"
        assert (
            main(
                [
                    "generate", str(dataset),
                    "--kind", "indep", "--n", "60", "--m", "4", "--seed", "1",
                ]
            )
            == 0
        )
        assert dataset.exists()
        capsys.readouterr()
        assert (
            main(
                [
                    "search", "--dataset", str(dataset),
                    "--operator", "SSD", "--quiet", "--seed", "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "candidate(s) of 60 objects" in out

    def test_search_synthetic_topk(self, capsys):
        assert (
            main(
                [
                    "search", "--n", "50", "--m", "4", "--operator", "SSD",
                    "--k", "2", "--quiet", "--seed", "2",
                ]
            )
            == 0
        )
        assert "(k=2)" in capsys.readouterr().out

    def test_generate_semireal_kinds(self, tmp_path, capsys):
        for kind in ("nba", "gowalla", "house", "ca", "usa"):
            path = tmp_path / f"{kind}.npz"
            assert (
                main(
                    [
                        "generate", str(path),
                        "--kind", kind, "--n", "25", "--m", "4",
                    ]
                )
                == 0
            )
            assert path.exists()

    def test_figure_command(self, capsys):
        # The cheapest figure at tiny scale; --check writes nothing.
        assert main(["figures", "fig11f", "--scale", "tiny", "--check"]) == 0
        out = capsys.readouterr().out
        assert "Figure 11(f)" in out
        assert "SSD" in out


class TestJSONFormat:
    def test_search_json_shape(self, capsys):
        import json

        rc = main(
            [
                "search", "--n", "50", "--m", "4", "--operator", "FSD",
                "--k", "2", "--seed", "2", "--format", "json",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["operator"] == "FSD" and doc["k"] == 2
        assert doc["n_objects"] == 50
        assert doc["count"] == len(doc["candidates"]) >= 1
        assert all(
            {"oid", "dominators"} <= set(c) for c in doc["candidates"]
        )
        assert doc["degraded"] is False and doc["degradation"] is None
        assert doc["elapsed_ms"] >= 0
        assert doc["counters"]["dominance_checks"] >= 0

    def test_search_json_degraded_keeps_exit_code(self, capsys):
        import json

        rc = main(
            [
                "search", "--n", "40", "--m", "4", "--operator", "PSD",
                "--seed", "3", "--deadline-ms", "0", "--format", "json",
            ]
        )
        assert rc == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["degraded"] is True
        assert doc["degradation"]["reason"] == "deadline"


class TestServeClientParsers:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.shards == 1
        assert args.partitioner == "round-robin"
        assert args.backend == "serial"
        assert args.port == 8080
        assert args.cache_size == 256
        assert args.max_inflight == 8
        assert args.on_invalid == "strict"

    def test_serve_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--partitioner", "mod-hash"])
        for backend in ("gpu", "thread", "process", "auto"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve", "--backend", backend])
        with pytest.raises(SystemExit):
            # Replay always rebuilds serially; it takes no --backend.
            build_parser().parse_args(
                ["replay", "a.jsonl", "--dataset", "d.npz",
                 "--backend", "serial"]
            )

    def test_client_defaults_and_actions(self):
        args = build_parser().parse_args(["client", "health"])
        assert args.url == "http://127.0.0.1:8080"
        assert args.format == "json"
        for action in ("query", "insert", "delete", "health", "metrics"):
            assert build_parser().parse_args(["client", action])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["client", "ping"])

    def test_client_connection_refused_is_usage_error(self, capsys):
        # Nothing listens on this port: exit 2, not a traceback.
        rc = main(
            ["client", "health", "--url", "http://127.0.0.1:1"]
        )
        assert rc == 2
        assert "connection failed" in capsys.readouterr().err

    def test_client_query_requires_points(self, capsys):
        rc = main(["client", "query", "--url", "http://127.0.0.1:1"])
        assert rc == 2

    def test_client_bad_points_json(self, capsys):
        rc = main(
            ["client", "query", "--points", "not-json",
             "--url", "http://127.0.0.1:1"]
        )
        assert rc == 2


class TestResilienceFlags:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["search"])
        assert args.deadline_ms is None
        assert args.max_dominance_checks is None
        assert args.max_flow_augmentations is None
        assert args.on_invalid is None

    def test_on_invalid_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "--on-invalid", "maybe"])

    def test_zero_deadline_exits_degraded(self, capsys):
        rc = main(
            [
                "search", "--n", "40", "--m", "4", "--operator", "PSD",
                "--quiet", "--seed", "3", "--deadline-ms", "0",
            ]
        )
        assert rc == 3
        out = capsys.readouterr().out
        assert "DEGRADED" in out
        assert "certified superset" in out

    def test_breakdown_includes_degradation_report(self, capsys):
        rc = main(
            [
                "search", "--n", "40", "--m", "4", "--operator", "SSD",
                "--quiet", "--seed", "3", "--max-dominance-checks", "1",
                "--breakdown",
            ]
        )
        assert rc == 3
        out = capsys.readouterr().out
        assert "degradation report:" in out
        assert '"reason": "dominance_checks"' in out

    def test_generous_budget_exits_exact(self, capsys):
        rc = main(
            [
                "search", "--n", "40", "--m", "4", "--operator", "SSD",
                "--quiet", "--seed", "3", "--deadline-ms", "60000",
                "--max-dominance-checks", "1000000000",
            ]
        )
        assert rc == 0
        assert "DEGRADED" not in capsys.readouterr().out

    def _poisoned_dataset(self, tmp_path):
        import numpy as np

        from repro.objects import UncertainObject, save_objects

        obj = UncertainObject([[0.0, 0.0], [1.0, 1.0]], oid=0)
        obj.points[1, 0] = np.nan
        path = tmp_path / "bad.npz"
        save_objects(path, [obj, UncertainObject([[2.0, 2.0]], oid=1)])
        return path

    def test_strict_rejects_dirty_dataset(self, tmp_path, capsys):
        path = self._poisoned_dataset(tmp_path)
        rc = main(
            ["search", "--dataset", str(path), "--on-invalid", "strict",
             "--quiet"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "input rejected" in err
        assert "non-finite-coord" in err

    def test_repair_recovers_dirty_dataset(self, tmp_path, capsys):
        path = self._poisoned_dataset(tmp_path)
        rc = main(
            ["search", "--dataset", str(path), "--on-invalid", "repair",
             "--quiet", "--seed", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 repaired" in out

    def test_skip_quarantines_dirty_dataset(self, tmp_path, capsys):
        path = self._poisoned_dataset(tmp_path)
        rc = main(
            ["search", "--dataset", str(path), "--on-invalid", "skip",
             "--quiet", "--seed", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 quarantined" in out
        assert "of 1 objects" in out
