"""Tests for the experiment harness (metrics, runner, report, experiments)."""

import math

import numpy as np
import pytest

from repro.gpu.device import H100_SXM5
from repro.gpu.timing import KernelTiming, TimeBreakdown
from repro.harness.experiments import (
    SKETCH_METHODS,
    SOLVER_METHODS,
    concurrent_load,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    figure8,
    headline_speedup,
    section7_distributed,
    table1,
)
from repro.harness.metrics import (
    arithmetic_intensity,
    percent_of_peak_bandwidth,
    percent_of_peak_flops,
    speedup,
)
from repro.harness.report import format_table, render_breakdown_rows, render_figure_rows
from repro.harness.runner import SweepConfig, average_breakdowns, run_repeated


def _breakdown(seconds=1.0, nbytes=1e12, flops=1e12):
    b = TimeBreakdown()
    b.add(KernelTiming(name="k", seconds=seconds, bytes_moved=nbytes, flops=flops, phase="p"))
    return b


class TestMetrics:
    def test_percent_of_peak_bandwidth(self):
        b = _breakdown(seconds=1.0, nbytes=H100_SXM5.memory_bandwidth / 2)
        assert percent_of_peak_bandwidth(b, H100_SXM5) == pytest.approx(50.0)

    def test_percent_of_peak_flops(self):
        b = _breakdown(seconds=1.0, flops=H100_SXM5.peak_flops_fp64 / 4)
        assert percent_of_peak_flops(b, H100_SXM5) == pytest.approx(25.0)

    def test_zero_time_returns_zero(self):
        b = TimeBreakdown()
        assert percent_of_peak_bandwidth(b, H100_SXM5) == 0.0
        assert percent_of_peak_flops(b, H100_SXM5) == 0.0

    def test_overrides(self):
        b = _breakdown(seconds=2.0, nbytes=1.0)
        pct = percent_of_peak_bandwidth(b, H100_SXM5, bytes_moved=H100_SXM5.memory_bandwidth, seconds=1.0)
        assert pct == pytest.approx(100.0)

    def test_arithmetic_intensity(self):
        assert arithmetic_intensity(_breakdown(nbytes=10.0, flops=40.0)) == pytest.approx(4.0)
        assert arithmetic_intensity(TimeBreakdown()) == 0.0

    def test_speedup_convention(self):
        # "77% faster" == baseline / time - 1 = 0.77
        assert speedup(1.77, 1.0) == pytest.approx(0.77)
        with pytest.raises(ValueError):
            speedup(1.0, 0.0)


class TestRunner:
    def test_sweep_config_presets(self):
        paper = SweepConfig(scale="paper")
        assert paper.numeric is False
        assert max(paper.d_values) == 2**23
        quick = SweepConfig(scale="quick")
        assert quick.numeric is True

    def test_grid_truncation(self):
        cfg = SweepConfig(scale="paper")
        grid = cfg.grid()
        assert (2**23, 256) not in grid
        cfg_full = SweepConfig(scale="paper", skip_largest_n=False)
        assert (2**23, 256) in cfg_full.grid()

    def test_seed_for_is_deterministic_and_distinct(self):
        cfg = SweepConfig(scale="quick", seed=5)
        assert cfg.seed_for(100, 10, 0) == cfg.seed_for(100, 10, 0)
        assert cfg.seed_for(100, 10, 0) != cfg.seed_for(100, 10, 1)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SweepConfig(scale="huge")
        with pytest.raises(ValueError):
            SweepConfig(repetitions=0)

    def test_average_breakdowns(self):
        avg = average_breakdowns([_breakdown(seconds=1.0), _breakdown(seconds=3.0)])
        assert avg.total() == pytest.approx(2.0)
        assert average_breakdowns([]).total() == 0.0

    def test_run_repeated(self):
        calls = []

        def experiment(r):
            calls.append(r)
            return _breakdown(seconds=float(r + 1))

        avg = run_repeated(experiment, 3)
        assert calls == [0, 1, 2]
        assert avg.total() == pytest.approx(2.0)
        with pytest.raises(ValueError):
            run_repeated(experiment, 0)


class TestReport:
    def test_format_table_alignment_and_nan(self):
        rows = [{"a": 1, "b": float("nan")}, {"a": 2, "b": 3.5}]
        text = format_table(rows, title="T")
        assert "T" in text and "OOM/n.a." in text and "3.5" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_render_figure_rows(self):
        rows = [
            {"d": 100, "n": 4, "method": "Gram", "total_seconds": 1.0},
            {"d": 100, "n": 4, "method": "Multi", "total_seconds": 0.5},
        ]
        text = render_figure_rows(rows, "total_seconds", scale=1e3, unit="ms")
        assert "Gram" in text and "Multi" in text and "1000" in text

    def test_render_breakdown_rows(self):
        rows = [
            {
                "d": 10,
                "n": 2,
                "method": "Normal Eq",
                "total_seconds": 2e-3,
                "phases": {"Gram matrix": 1e-3, "POTRF": 1e-3},
            }
        ]
        text = render_breakdown_rows(rows)
        assert "Gram matrix" in text and "POTRF" in text


class TestExperiments:
    """Small-sized smoke runs of every figure entry point."""

    ANALYTIC = SweepConfig(scale="paper", repetitions=1, d_values=[1 << 22], n_values=[32, 256], skip_largest_n=False)
    NUMERIC = SweepConfig(scale="quick", repetitions=1, d_values=[2048], n_values=[16], skip_largest_n=False)

    def test_table1_has_four_rows(self):
        rows = table1()
        assert len(rows) == 4
        assert {"method", "embedding_dim", "arithmetic", "read_writes", "max_distortion"} <= set(rows[0])

    def test_figure2_rows_cover_all_methods(self):
        rows = figure2(self.ANALYTIC)
        assert len(rows) == 2 * len(SKETCH_METHODS)
        methods = {r["method"] for r in rows}
        assert methods == set(SKETCH_METHODS)
        for r in rows:
            if not r["oom"]:
                assert r["total_seconds"] > 0
                assert r["total_seconds"] == pytest.approx(r["gen_seconds"] + r["apply_seconds"], rel=0.2)

    def test_figure2_shape_count_faster_than_gram_for_wide_n(self):
        rows = {(r["n"], r["method"]): r["total_seconds"] for r in figure2(self.ANALYTIC)}
        assert rows[(256, "Count (Alg 2)")] < rows[(256, "Gram")]
        assert rows[(256, "Count (Alg 2)")] < rows[(256, "Count (SPMM)")]
        assert rows[(256, "Multi")] < rows[(256, "Gram")]
        # at narrow n the Gram matrix remains competitive (the crossover of Fig. 2)
        assert rows[(32, "Gram")] < rows[(32, "Count (SPMM)")]

    def test_figure3_percentages_in_range_and_ordered(self):
        f2 = figure2(self.ANALYTIC)
        rows = {(r["n"], r["method"]): r for r in figure3(self.ANALYTIC, rows=f2)}
        for r in rows.values():
            if not r["oom"]:
                assert 0 <= r["percent_peak_bandwidth"] <= 100
        # Figure 3's story: Alg 2 achieves far better bandwidth than SpMM.
        assert (
            rows[(256, "Count (Alg 2)")]["percent_peak_bandwidth"]
            > 2 * rows[(256, "Count (SPMM)")]["percent_peak_bandwidth"]
        )
        assert 40 <= rows[(256, "Count (Alg 2)")]["percent_peak_bandwidth"] <= 65

    def test_figure4_gemm_methods_have_high_flop_fraction(self):
        f2 = figure2(self.ANALYTIC)
        rows = {(r["n"], r["method"]): r for r in figure4(self.ANALYTIC, rows=f2)}
        assert rows[(256, "Gram")]["percent_peak_flops"] > 30
        assert rows[(256, "Count (Alg 2)")]["percent_peak_flops"] < 5

    def test_figure5_rows_and_headline(self):
        cfg = SweepConfig(scale="paper", repetitions=1, d_values=[1 << 22], n_values=[256], skip_largest_n=False)
        rows = figure5(cfg)
        assert {r["method"] for r in rows} == set(SOLVER_METHODS)
        times = {r["method"]: r["total_seconds"] for r in rows}
        assert times["Multi"] < times["Normal Eq"]
        assert times["rand_cholQR"] > times["Multi"]
        best = headline_speedup(rows)
        assert best["d"] == 1 << 22 and best["n"] == 256
        assert 0.3 < best["speedup"] < 2.0

    def test_figure6_residuals_finite_and_proportional(self):
        rows = figure6(self.NUMERIC)
        by_method = {r["method"]: r["relative_residual"] for r in rows}
        assert all(np.isfinite(v) for v in by_method.values())
        # sketch-and-solve within a small factor of the true residual
        assert by_method["Multi"] <= 2.0 * by_method["QR"]
        assert by_method["Normal Eq"] == pytest.approx(by_method["QR"], rel=1e-6)

    def test_figure8_normal_equations_fail_but_sketches_survive(self):
        rows = figure8(cond_values=[1e2, 1e10], d=2048, n=8, seed=1)
        res = {(r["cond"], r["method"]): r for r in rows}
        # At kappa = 1e10 the normal equations have failed or lost all accuracy...
        ne = res[(1e10, "Normal Eq")]
        assert ne["failed"] or ne["relative_residual"] > 1e-6
        # ...while the sketched solvers and QR stay accurate.
        assert res[(1e10, "Multi")]["relative_residual"] < 1e-6
        assert res[(1e10, "QR")]["relative_residual"] < 1e-6

    def test_section7_distributed_table(self):
        rows = section7_distributed(d=1 << 20, n=64, p_values=(2, 8))
        assert len(rows) == 8
        by = {(r["p"], r["method"]): r for r in rows}
        assert by[(8, "countsketch")]["message_bytes"] > by[(8, "gaussian")]["message_bytes"]
        assert by[(8, "multisketch")]["message_bytes"] == by[(8, "gaussian")]["message_bytes"]

    @pytest.mark.parametrize("shards, max_shards, expected", [(2, 8, 8.0), (3, 2, 3.0)])
    def test_concurrent_load_pool_is_at_least_the_synchronous_one(
        self, shards, max_shards, expected
    ):
        rows = concurrent_load(
            d=256, n=4, n_matrices=2, rhs_per_matrix=2, ridge_requests=2,
            stream_batches=2, stream_batch_rows=16, shed_requests=8,
            shards=shards, max_shards=max_shards,
        )
        by = {r["mode"]: r for r in rows}
        assert by["synchronous"]["shards"] == float(shards)
        assert by["concurrent"]["shards"] == expected
