"""Tests for ``benchmarks/compare_bench.py`` (the bench regression gate)."""

from __future__ import annotations

import copy
import json
import statistics

import pytest

from benchmarks.compare_bench import (
    bench_kind,
    compare,
    compare_serve,
    load_bench,
    main,
)

BASE = {
    "scale": "tiny",
    "end_to_end": [
        {"operator": "SSD", "kernel_time": 1.0, "scalar_time": 2.0},
        {"operator": "PSD", "kernel_time": 2.0, "scalar_time": 8.0},
    ],
}

SERVE_BASE = {
    "bench": "serve",
    "scale": "smoke",
    "shard_scaling": [
        {"shards": 1, "qps": 30.0, "speedup_vs_1": 1.0, "equal": True},
        {"shards": 2, "qps": 45.0, "speedup_vs_1": 1.5, "equal": True},
        {"shards": 4, "qps": 75.0, "speedup_vs_1": 2.5, "equal": True},
    ],
    "cache": {"hit_ratio": 0.75},
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestCompare:
    def test_no_regression_on_self(self):
        rows, regressions = compare(BASE, copy.deepcopy(BASE))
        assert regressions == []
        assert {r["operator"] for r in rows} == {"SSD", "PSD"}
        assert all(r["change"] == "+0.0%" for r in rows)

    def test_flags_ratio_regression(self):
        current = copy.deepcopy(BASE)
        current["end_to_end"][0]["kernel_time"] = 1.4  # ratio 0.5 -> 0.7
        rows, regressions = compare(BASE, current)
        assert len(regressions) == 1 and regressions[0].startswith("SSD")

    def test_improvement_is_not_a_regression(self):
        current = copy.deepcopy(BASE)
        current["end_to_end"][0]["kernel_time"] = 0.5
        _, regressions = compare(BASE, current)
        assert regressions == []

    def test_within_threshold_passes(self):
        current = copy.deepcopy(BASE)
        current["end_to_end"][0]["kernel_time"] = 1.1  # +10% < 15%
        _, regressions = compare(BASE, current)
        assert regressions == []

    def test_time_metric(self):
        current = copy.deepcopy(BASE)
        current["end_to_end"][1]["kernel_time"] = 2.2
        current["end_to_end"][1]["scalar_time"] = 8.8  # same ratio, slower
        _, by_ratio = compare(BASE, current, metric="ratio")
        assert by_ratio == []
        _, by_time = compare(BASE, current, metric="time", threshold=0.05)
        assert len(by_time) == 1 and by_time[0].startswith("PSD")

    def test_operator_only_in_one_file_never_flags(self):
        current = copy.deepcopy(BASE)
        current["end_to_end"].append(
            {"operator": "FSD", "kernel_time": 99.0, "scalar_time": 1.0}
        )
        rows, regressions = compare(BASE, current)
        assert regressions == []
        fsd = next(r for r in rows if r["operator"] == "FSD")
        assert fsd["baseline"] is None and fsd["change"] == "-"


class TestCompareServe:
    def test_no_regression_on_self(self):
        rows, regressions = compare_serve(SERVE_BASE, copy.deepcopy(SERVE_BASE))
        assert regressions == []
        assert {r["metric"] for r in rows} == {
            "speedup_vs_1[K=2]", "speedup_vs_1[K=4]", "cache.hit_ratio",
        }

    def test_flags_scaling_drop(self):
        current = copy.deepcopy(SERVE_BASE)
        current["shard_scaling"][2]["speedup_vs_1"] = 1.2  # 2.5 -> 1.2
        _, regressions = compare_serve(SERVE_BASE, current)
        assert len(regressions) == 1
        assert regressions[0].startswith("speedup_vs_1[K=4]")

    def test_scaling_improvement_passes(self):
        current = copy.deepcopy(SERVE_BASE)
        current["shard_scaling"][2]["speedup_vs_1"] = 3.5
        _, regressions = compare_serve(SERVE_BASE, current)
        assert regressions == []

    def test_equal_false_is_always_a_regression(self):
        current = copy.deepcopy(SERVE_BASE)
        current["shard_scaling"][1]["equal"] = False
        _, regressions = compare_serve(SERVE_BASE, current)
        assert any("diverged" in msg for msg in regressions)

    def test_flags_cache_hit_ratio_drop(self):
        current = copy.deepcopy(SERVE_BASE)
        current["cache"]["hit_ratio"] = 0.25
        _, regressions = compare_serve(SERVE_BASE, current)
        assert len(regressions) == 1
        assert regressions[0].startswith("cache.hit_ratio")

    def test_one_core_run_skips_speedup_gate(self, capsys):
        # A single-core runner cannot demonstrate parallel speedup; the
        # gate is skipped loudly instead of failing the build.
        current = copy.deepcopy(SERVE_BASE)
        current["meta"] = {"cpu_count": 1}
        current["shard_scaling"][2]["speedup_vs_1"] = 0.4  # would regress
        rows, regressions = compare_serve(SERVE_BASE, current)
        assert regressions == []
        skipped = [r for r in rows if "SKIPPED" in str(r.get("change"))]
        assert len(skipped) == 2  # K=2 and K=4
        assert "cpu_count=1" in capsys.readouterr().out

    def test_one_core_run_still_fails_on_equal_false(self):
        # The skip covers perf only — a correctness divergence must fail
        # regardless of the machine the bench ran on.
        current = copy.deepcopy(SERVE_BASE)
        current["meta"] = {"cpu_count": 1}
        current["shard_scaling"][1]["equal"] = False
        _, regressions = compare_serve(SERVE_BASE, current)
        assert any("diverged" in msg for msg in regressions)

    def test_main_autodetects_serve(self, tmp_path, capsys):
        a = _write(tmp_path, "a.json", SERVE_BASE)
        b = _write(tmp_path, "b.json", SERVE_BASE)
        assert main([a, b]) == 0
        assert "Serve scaling" in capsys.readouterr().out
        current = copy.deepcopy(SERVE_BASE)
        current["shard_scaling"][2]["speedup_vs_1"] = 0.5
        c = _write(tmp_path, "c.json", current)
        assert main([a, c]) == 1
        assert "REGRESSION speedup_vs_1[K=4]" in capsys.readouterr().err

    def test_kind_mismatch_is_exit_2(self, tmp_path, capsys):
        a = _write(tmp_path, "a.json", BASE)
        b = _write(tmp_path, "b.json", SERVE_BASE)
        assert main([a, b]) == 2
        assert "kind mismatch" in capsys.readouterr().err

    def test_committed_serve_baseline_self_compares_clean(self):
        from pathlib import Path

        baseline = str(
            Path(__file__).resolve().parent.parent
            / "benchmarks" / "results" / "BENCH_serve_smoke_baseline.json"
        )
        assert main([baseline, baseline, "--strict"]) == 0


class TestLoadBench:
    def test_rejects_wrong_shape(self, tmp_path):
        path = _write(tmp_path, "bad.json", {"micro": []})
        with pytest.raises(ValueError, match="end_to_end"):
            load_bench(path)

    def test_kind_detection(self):
        assert bench_kind(BASE) == "kernels"
        assert bench_kind(SERVE_BASE) == "serve"


class TestMainExitCodes:
    def test_exit_0_on_identical(self, tmp_path, capsys):
        a = _write(tmp_path, "a.json", BASE)
        b = _write(tmp_path, "b.json", BASE)
        assert main([a, b]) == 0
        assert "REGRESSION" not in capsys.readouterr().err

    def test_exit_1_on_regression(self, tmp_path, capsys):
        current = copy.deepcopy(BASE)
        current["end_to_end"][0]["kernel_time"] = 1.5  # +50% ratio
        a = _write(tmp_path, "a.json", BASE)
        b = _write(tmp_path, "b.json", current)
        assert main([a, b]) == 1
        assert "REGRESSION SSD" in capsys.readouterr().err

    def test_threshold_flag(self, tmp_path):
        current = copy.deepcopy(BASE)
        current["end_to_end"][0]["kernel_time"] = 1.1  # +10%
        a = _write(tmp_path, "a.json", BASE)
        b = _write(tmp_path, "b.json", current)
        assert main([a, b]) == 0
        assert main([a, b, "--threshold", "0.05"]) == 1

    def test_scale_mismatch_informational(self, tmp_path, capsys):
        current = copy.deepcopy(BASE)
        current["scale"] = "large"
        current["end_to_end"][0]["kernel_time"] = 1.5  # regression, but...
        a = _write(tmp_path, "a.json", BASE)
        b = _write(tmp_path, "b.json", current)
        assert main([a, b]) == 0  # ...ignored across scales
        err = capsys.readouterr().err
        assert "scale mismatch" in err and "ignored" in err

    def test_scale_mismatch_strict_is_exit_2(self, tmp_path, capsys):
        current = copy.deepcopy(BASE)
        current["scale"] = "large"
        a = _write(tmp_path, "a.json", BASE)
        b = _write(tmp_path, "b.json", current)
        assert main([a, b, "--strict"]) == 2
        assert "scale mismatch" in capsys.readouterr().err

    def test_exit_2_on_missing_or_invalid_file(self, tmp_path, capsys):
        a = _write(tmp_path, "a.json", BASE)
        assert main([a, str(tmp_path / "nope.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main([a, str(bad)]) == 2

    def test_committed_smoke_baseline_self_compares_clean(self, capsys):
        # The artifact CI gates against must be valid and self-consistent.
        from pathlib import Path

        baseline = str(
            Path(__file__).resolve().parent.parent
            / "benchmarks" / "results" / "BENCH_smoke_baseline.json"
        )
        assert main([baseline, baseline, "--strict"]) == 0


class TestRetiredFlags:
    """The bench harnesses write only their ``--out`` JSON: no verdict
    files, no trajectory store.  The flags that fed them are usage errors."""

    def test_verdict_out_is_a_usage_error(self, tmp_path):
        a = _write(tmp_path, "a.json", BASE)
        with pytest.raises(SystemExit) as exc:
            main([a, a, "--verdict-out", str(tmp_path / "v.json")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("module", ["bench_kernels", "bench_serve"])
    @pytest.mark.parametrize("argv", [
        ["--trajectory", "x.jsonl"], ["--no-trajectory"],
    ], ids=["trajectory", "no-trajectory"])
    def test_trajectory_flags_are_usage_errors(self, module, argv):
        import importlib

        bench = importlib.import_module(f"benchmarks.{module}")
        with pytest.raises(SystemExit) as exc:
            bench.main(argv)
        assert exc.value.code == 2


class TestPairedOverhead:
    """``bench_kernels.paired_overhead``: median paired ratio and its band."""

    # Host speed swings by 2x across rounds; each round's pair shares it.
    SPEED = [1.0, 1.9, 1.2, 2.0, 1.1, 1.5, 1.0, 1.8, 1.3, 1.6, 1.4]
    BASE = [0.040 * f for f in SPEED]

    def test_pairs_cancel_the_host_speed(self):
        from benchmarks.bench_kernels import paired_overhead

        verdict = paired_overhead(self.BASE, [t * 1.01 for t in self.BASE])
        assert verdict["overhead"] == pytest.approx(0.01)
        assert verdict["band"] == pytest.approx(0.0, abs=1e-12)
        assert verdict["rounds"] == len(self.BASE)

    def test_band_is_two_standard_errors_of_the_median(self):
        from benchmarks.bench_kernels import paired_overhead

        ratios = [0.00, 0.01, -0.01, 0.02, -0.02, 0.03, -0.03, 0.04, -0.04]
        verdict = paired_overhead([1.0] * 9, [1.0 + r for r in ratios])
        q1, _, q3 = statistics.quantiles(ratios, n=4)
        assert verdict["overhead"] == pytest.approx(0.0, abs=1e-12)
        assert verdict["band"] == pytest.approx(2 * 1.2533 * (q3 - q1) / 1.349 / 3)

    def test_one_slow_round_does_not_decide(self):
        from benchmarks.bench_kernels import paired_overhead

        other = list(self.BASE)
        other[3] *= 5
        assert paired_overhead(self.BASE, other)["overhead"] == pytest.approx(0.0)

    def test_interleaved_alternates_order(self):
        from benchmarks.bench_kernels import interleaved

        order = []
        times = interleaved(
            {"a": lambda: order.append("a") or 1.0, "b": lambda: order.append("b") or 2.0},
            rounds=3,
        )
        assert order == ["a", "b", "b", "a", "a", "b"]
        assert times == {"a": [1.0] * 3, "b": [2.0] * 3}
