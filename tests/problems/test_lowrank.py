"""Low-rank problem class: range finder, Frequent Directions, streaming state."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.countsketch import StreamingCountSketch
from repro.gpu.executor import GPUExecutor
from repro.problems import (
    FrequentDirections,
    lowrank_approx,
    optimal_rank_error,
    randomized_range_finder,
)
from repro.streaming.state import FrequentDirectionsState, make_state, normalize_mode
from repro.theory.complexity import fd_error_bound, lowrank_complexity
from repro.workloads import decaying_spectrum_matrix

D, N, RANK = 2048, 32, 6


@pytest.fixture
def problem():
    return decaying_spectrum_matrix(D, N, rank=RANK, decay=0.4, seed=7)


class TestRangeFinder:
    def test_q_is_orthonormal(self, problem, executor):
        q, _op = randomized_range_finder(problem.a, RANK, executor=executor, seed=3)
        qh = q.to_host()
        assert np.allclose(qh.T @ qh, np.eye(qh.shape[1]), atol=1e-10)

    def test_q_is_numpys_q_of_the_sketch(self, problem, executor):
        """``Q`` (formed from GEQRF's reflectors on first read) is numpy's
        economy Q of ``A Omega``, signs included, within rounding."""
        q, op = randomized_range_finder(problem.a, RANK, executor=executor, seed=3)
        q_ref = np.linalg.qr(problem.a @ op.matrix.data.T)[0]
        np.testing.assert_allclose(q.to_host(), q_ref, rtol=0, atol=1e-12)

    def test_power_iteration_tightens_the_error(self, problem):
        flat = lowrank_approx(problem.a, RANK, power_iters=0, seed=3)
        sharp = lowrank_approx(problem.a, RANK, power_iters=2, seed=3)
        assert sharp.relative_error <= flat.relative_error * (1 + 1e-12)

    def test_near_optimal_on_decaying_spectrum(self, problem):
        result = lowrank_approx(problem.a, RANK, power_iters=1, seed=3)
        assert result.relative_error <= 1.5 * problem.optimal_error(RANK)
        assert result.rank == RANK
        assert result.left.shape == (D, RANK)
        assert result.right.shape == (RANK, N)

    def test_reconstruct_shape_and_charges(self, problem, executor):
        before = executor.elapsed
        result = lowrank_approx(problem.a, RANK, executor=executor, seed=3)
        assert result.reconstruct().shape == (D, N)
        assert executor.elapsed > before  # GEMMs/QRs landed on the clock
        assert result.total_seconds > 0

    def test_operator_shape_validated(self, problem, executor):
        from repro.core.gaussian import GaussianSketch

        wrong = GaussianSketch(N, 3, executor=executor, seed=0)
        with pytest.raises(ValueError, match="range-finder operator"):
            randomized_range_finder(problem.a, RANK, executor=executor, operator=wrong)

    def test_rank_bounds_validated(self, problem):
        with pytest.raises(ValueError):
            lowrank_approx(problem.a, 0)
        with pytest.raises(ValueError):
            lowrank_approx(problem.a, N + 1)

    def test_fd_batch_must_be_positive(self, problem):
        with pytest.raises(ValueError, match="batch"):
            lowrank_approx(problem.a, RANK, method="frequent_directions", batch=0)


class TestFrequentDirections:
    def test_within_fd_bound_of_optimum(self, problem):
        result = lowrank_approx(problem.a, RANK, method="frequent_directions")
        bound = fd_error_bound(problem.singular_values, 2 * RANK, RANK)
        assert result.relative_error <= bound * problem.optimal_error(RANK) * (1 + 1e-9)
        assert result.relative_error <= 1.5 * problem.optimal_error(RANK)

    def test_covariance_guarantee(self, problem):
        fd = FrequentDirections(N, 2 * RANK)
        fd.update(problem.a)
        # ||A^T A - B^T B||_2 <= ||A - A_k||_F^2 / (ell - k)
        assert fd.covariance_error(problem.a) <= problem.tail_energy(RANK) / RANK + 1e-9

    def test_streamed_equals_batched_error_class(self, problem):
        streamed = FrequentDirections(N, 2 * RANK)
        for start in range(0, D, 100):  # ragged batches
            streamed.update(problem.a[start : start + 100])
        v, _ = streamed.lowrank(RANK)
        err = np.linalg.norm(problem.a - (problem.a @ v) @ v.T) / np.linalg.norm(problem.a)
        assert err <= 1.5 * problem.optimal_error(RANK)
        assert streamed.rows_seen == D

    def test_state_is_fixed_size(self, problem):
        fd = FrequentDirections(N, 2 * RANK)
        fd.update(problem.a)
        assert fd.sketch().shape[0] <= 4 * RANK
        assert fd.compress().shape[0] <= 2 * RANK
        stats = lowrank_complexity(D, N, RANK)
        assert stats["fd_state_floats"] == 2 * (2 * RANK) * N
        assert stats["stream_length_exponent"] == 0.0

    def test_merge_absorbs_another_sketch(self, problem):
        left = FrequentDirections(N, 2 * RANK)
        right = FrequentDirections(N, 2 * RANK)
        left.update(problem.a[: D // 2])
        right.update(problem.a[D // 2 :])
        left.merge(right)
        assert left.rows_seen == D
        v, _ = left.lowrank(RANK)
        err = np.linalg.norm(problem.a - (problem.a @ v) @ v.T) / np.linalg.norm(problem.a)
        assert err <= 2.0 * problem.optimal_error(RANK)

    def test_empty_update_is_a_noop(self):
        fd = FrequentDirections(N, 4)
        fd.update(np.empty((0, N)))
        assert fd.rows_seen == 0
        with pytest.raises(RuntimeError):
            fd.lowrank(2)

    def test_charges_executor_when_given(self, problem, executor):
        before = executor.elapsed
        fd = FrequentDirections(N, 2 * RANK, executor=executor)
        fd.update(problem.a)
        assert executor.elapsed > before

    def test_from_countsketch_compresses_a_window(self, problem, executor):
        sketch = StreamingCountSketch(1 << 20, 512, executor=executor, seed=0)
        sketch.generate()
        sketch.begin(N)
        sketch.update(np.arange(D), problem.a)
        fd = FrequentDirections.from_countsketch(sketch, 2 * RANK)
        v, _ = fd.lowrank(RANK)
        err = np.linalg.norm(problem.a - (problem.a @ v) @ v.T) / np.linalg.norm(problem.a)
        # Two approximations stack (embedding distortion x FD shrink).
        assert err <= 3.0 * problem.optimal_error(RANK)
        assert fd.sketch().shape[1] == N


class TestFrequentDirectionsState:
    def test_mode_normalisation(self):
        assert normalize_mode("fd") == "fd"
        assert normalize_mode("frequent_directions") == "fd"

    def test_window_contract(self, problem, executor):
        state = make_state("fd", N, 4 * RANK, executor=executor)
        assert isinstance(state, FrequentDirectionsState)
        assert state.operator is None  # deterministic: nothing to pin
        state.fold(problem.a[:500], 500)
        window = state.current()
        assert window.shape == (4 * RANK, N)
        assert state.rows_in_window() == 500
        state.reset()
        assert state.rows_in_window() == 0
        assert np.all(state.current() == 0.0)

    def test_streaming_solver_fd_mode(self, rng):
        from repro.streaming import StreamingSolver

        n = 8
        solver = StreamingSolver(n, mode="fd", detector=False)
        x_true = np.linspace(1.0, 2.0, n)
        for _ in range(5):
            rows = rng.standard_normal((200, n))
            solver.ingest(rows, rows @ x_true + 0.01 * rng.standard_normal(200))
        solution = solver.solution()
        assert not solution.failed
        assert np.linalg.norm(solution.x - x_true) / np.linalg.norm(x_true) < 0.05
