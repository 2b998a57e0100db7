"""Tests for ``benchmarks/compare_bench.py`` (the kernel-ratio gate) and for
``benchmarks/bench_kernels.py``'s paired overhead gate."""

from __future__ import annotations

import copy
import json
import statistics

import pytest

from benchmarks.compare_bench import compare, load_bench, main

BASE = {
    "scale": "tiny",
    "end_to_end": [
        {"operator": "SSD", "kernel_time": 1.0, "scalar_time": 2.0},
        {"operator": "PSD", "kernel_time": 2.0, "scalar_time": 8.0},
    ],
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

    def test_operator_only_in_one_file_never_flags(self):
        current = copy.deepcopy(BASE)
        current["end_to_end"].append(
            {"operator": "FSD", "kernel_time": 99.0, "scalar_time": 1.0}
        )
        rows, regressions = compare(BASE, current)
        assert regressions == []
        fsd = next(r for r in rows if r["operator"] == "FSD")
        assert fsd["baseline"] is None and fsd["change"] == "-"


class TestLoadBench:
    def test_rejects_wrong_shape(self, tmp_path):
        path = _write(tmp_path, "bad.json", {"micro": []})
        with pytest.raises(ValueError, match="end_to_end"):
            load_bench(path)


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

    def test_scale_mismatch_strict_is_exit_2(self, tmp_path, capsys):
        current = copy.deepcopy(BASE)
        current["scale"] = "large"
        a = _write(tmp_path, "a.json", BASE)
        b = _write(tmp_path, "b.json", current)
        assert main([a, b]) == 2
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
        assert main([baseline, baseline]) == 0


class TestRetiredFlags:
    """The bench harness writes only its ``--out`` JSON: no verdict files, no
    trajectory store.  The flags that fed them are usage errors, and so are
    the comparison knobs that had one value in use."""

    def test_verdict_out_is_a_usage_error(self, tmp_path):
        a = _write(tmp_path, "a.json", BASE)
        with pytest.raises(SystemExit) as exc:
            main([a, a, "--verdict-out", str(tmp_path / "v.json")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["--strict"], ["--metric", "ratio"], ["--threshold", "0.15"],
    ], ids=["strict", "metric", "threshold"])
    def test_comparison_knobs_are_usage_errors(self, tmp_path, argv):
        a = _write(tmp_path, "a.json", BASE)
        with pytest.raises(SystemExit) as exc:
            main([a, a, *argv])
        assert exc.value.code == 2

    @pytest.mark.parametrize("module", ["bench_kernels"])
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


def _replay(times):
    """A timed callable that returns ``times`` in order, one per call."""
    return iter(times).__next__


class TestOverheadGate:
    """``bench_kernels.overhead_gate`` on injected deterministic timings."""

    SPEED = TestPairedOverhead.SPEED
    NOISE = [0.0, 0.004, -0.006, 0.008, -0.002, 0.006, -0.008, 0.002]

    def _pair(self, share: float, spread: list[float]):
        base = [0.040 * self.SPEED[i % len(self.SPEED)] for i in range(201)]
        other = [
            t * (1.0 + share + spread[i % len(spread)]) for i, t in enumerate(base)
        ]
        return base, other

    def test_passes_at_one_percent_with_noise(self):
        from benchmarks.bench_kernels import overhead_gate

        base, other = self._pair(0.01, self.NOISE)
        verdict, times = overhead_gate("planted", _replay(base), _replay(other))
        assert verdict["overhead"] == pytest.approx(0.01, abs=0.005)
        assert verdict["rounds"] == 21  # the band is already narrow
        assert times["base"] == base[:21] and times["other"] == other[:21]

    def test_fails_at_twenty_five_percent(self):
        from benchmarks.bench_kernels import overhead_gate

        base, other = self._pair(0.25, self.NOISE)
        with pytest.raises(AssertionError, match="planted overhead 25"):
            overhead_gate("planted", _replay(base), _replay(other))

    def test_widens_rounds_while_the_band_exceeds_the_budget(self):
        from benchmarks.bench_kernels import (
            OVERHEAD_BUDGET,
            overhead_gate,
            paired_overhead,
        )

        base, other = self._pair(0.0, [-0.08, 0.08, -0.04, 0.04, 0.0])
        verdict, _ = overhead_gate("noisy", _replay(base), _replay(other))
        rounds = verdict["rounds"]
        assert 21 < rounds < 201 and (rounds - 21) % 20 == 0
        assert verdict["band"] <= OVERHEAD_BUDGET
        # It stopped at the first batch of rounds that narrowed the band.
        earlier = paired_overhead(base[: rounds - 20], other[: rounds - 20])
        assert earlier["band"] > OVERHEAD_BUDGET

    def test_widening_stops_at_the_round_cap(self):
        from benchmarks.bench_kernels import OVERHEAD_BUDGET, overhead_gate

        base, other = self._pair(0.0, [-0.5, 0.5, -0.25, 0.25, 0.0])
        verdict, _ = overhead_gate("noisy", _replay(base), _replay(other))
        assert verdict["rounds"] == 201 and verdict["band"] > OVERHEAD_BUDGET

    def test_one_slow_round_does_not_decide(self):
        from benchmarks.bench_kernels import overhead_gate

        base, other = self._pair(0.0, self.NOISE)
        other[3] *= 5
        verdict, _ = overhead_gate("one-slow", _replay(base), _replay(other))
        assert verdict["overhead"] == pytest.approx(0.0, abs=0.005)

    def test_extra_runs_ride_along_in_the_first_rounds_only(self):
        from benchmarks.bench_kernels import overhead_gate

        base, other = self._pair(0.0, [-0.08, 0.08, -0.04, 0.04, 0.0])
        verdict, times = overhead_gate(
            "noisy", _replay(base), _replay(other), extra={"enabled": lambda: 1.0}
        )
        assert verdict["rounds"] > 21 and times["enabled"] == [1.0] * 21
