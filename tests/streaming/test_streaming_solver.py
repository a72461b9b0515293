"""StreamingSolver: window maintenance, lazy re-solves, planner routing.

These pin the engine's core contracts: every window mode recovers the
regression coefficients on a stationary stream, the sliding-window merge is
*exactly* the sketch of the window's rows (linearity of the hashed
CountSketch), re-solves happen only when the window changed, and each
re-solve routes through the PR 2 planner with the attempted chain recorded.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.countsketch import StreamingCountSketch
from repro.streaming import StreamingSolver
from repro.streaming.state import (
    STREAM_CAPACITY,
    SlidingWindowState,
    make_state,
    normalize_mode,
)
from repro.theory.complexity import streaming_complexity

N = 12
BATCH = 256


def _stationary_batches(rng, n_batches, x_true, noise=0.05):
    for _ in range(n_batches):
        rows = rng.standard_normal((BATCH, N))
        yield rows, rows @ x_true + noise * rng.standard_normal(BATCH)


class TestModes:
    @pytest.mark.parametrize("mode", ["landmark", "sliding", "decay"])
    def test_stationary_stream_recovers_coefficients(self, mode, rng):
        x_true = np.linspace(-1.0, 1.0, N)
        engine = StreamingSolver(
            N, mode=mode, seed=0, detector=False, bucket_rows=1024, window_buckets=4
        )
        for rows, targets in _stationary_batches(rng, 16, x_true):
            engine.ingest(rows, targets)
        sol = engine.solution()
        assert sol.x is not None
        err = np.linalg.norm(sol.x - x_true) / np.linalg.norm(x_true)
        assert err < 0.05
        assert sol.relative_residual < 0.2
        # The re-solve went through the planner: chain + conditioning probe.
        assert sol.attempted[0] == sol.planned_solver
        assert np.isfinite(sol.cond_estimate)

    def test_sliding_window_tracks_regime_change_without_detector(self, rng):
        """A window smaller than the new regime forgets the old one on its own."""
        x_old = np.ones(N)
        x_new = -2.0 * np.ones(N)
        engine = StreamingSolver(
            N, mode="sliding", bucket_rows=512, window_buckets=2,
            seed=0, detector=False,
        )
        for rows, targets in _stationary_batches(rng, 8, x_old):
            engine.ingest(rows, targets)
        for rows, targets in _stationary_batches(rng, 8, x_new):
            engine.ingest(rows, targets)
        sol = engine.solution()
        err = np.linalg.norm(sol.x - x_new) / np.linalg.norm(x_new)
        assert err < 0.05
        # The window never grows past its configured span.
        assert sol.window_rows <= 2 * 512

    def test_decay_forgets_old_regime(self, rng):
        x_old = np.ones(N)
        x_new = -2.0 * np.ones(N)
        engine = StreamingSolver(N, mode="decay", decay=0.995, seed=0, detector=False)
        for rows, targets in _stationary_batches(rng, 8, x_old):
            engine.ingest(rows, targets)
        for rows, targets in _stationary_batches(rng, 8, x_new):
            engine.ingest(rows, targets)
        sol = engine.solution()
        err = np.linalg.norm(sol.x - x_new) / np.linalg.norm(x_new)
        assert err < 0.1


class TestLaziness:
    def test_solution_is_cached_until_window_changes(self, rng):
        engine = StreamingSolver(N, seed=0, detector=False)
        x_true = np.ones(N)
        for rows, targets in _stationary_batches(rng, 4, x_true):
            engine.ingest(rows, targets)
        first = engine.solution()
        count = engine.resolve_count
        again = engine.solution()
        assert engine.resolve_count == count  # cached, no re-solve
        assert again.staleness_rows == 0
        np.testing.assert_array_equal(first.x, again.x)

        rows = rng.standard_normal((BATCH, N))
        engine.ingest(rows, rows @ x_true)
        stale = engine.solution()
        assert engine.resolve_count == count + 1  # window changed -> re-solve
        assert stale.staleness_rows == 0

    def test_staleness_counts_rows_since_solve(self, rng):
        engine = StreamingSolver(N, seed=0, detector=False)
        x_true = np.ones(N)
        for rows, targets in _stationary_batches(rng, 2, x_true):
            engine.ingest(rows, targets)
        engine.solution()
        assert engine.staleness_rows == 0
        for rows, targets in _stationary_batches(rng, 3, x_true):
            engine.ingest(rows, targets)
        assert engine.staleness_rows == 3 * BATCH

    def test_force_resolves(self, rng):
        engine = StreamingSolver(N, seed=0, detector=False)
        rows = rng.standard_normal((2 * N, N))
        engine.ingest(rows, rows @ np.ones(N))
        engine.solution()
        count = engine.resolve_count
        engine.solution(force=True)
        assert engine.resolve_count == count + 1


class TestSlidingWindowExactness:
    def test_merged_window_equals_direct_sketch_of_window_rows(self, rng):
        """Ring merge == one sketch of exactly the window's rows (linearity)."""
        state = make_state(
            "sliding", N + 1, 256, executor=_executor(), seed=7,
            bucket_rows=1024, window_buckets=2,
        )
        blocks = [rng.standard_normal((512, N + 1)) for _ in range(6)]
        for block in blocks:
            state.fold(block, 512)
        merged = state.current()

        # Window = last 2048 rows = global indices 1024..3071 = blocks 2..5.
        reference = StreamingCountSketch(
            STREAM_CAPACITY, 256, executor=_executor(), seed=7
        )
        reference.generate()
        reference.begin(N + 1)
        for j, block in enumerate(blocks[2:], start=2):
            idx = np.arange(j * 512, (j + 1) * 512, dtype=np.int64)
            reference.update(idx, block)
        expected = reference.result().to_host()
        np.testing.assert_allclose(merged, expected, rtol=0, atol=1e-12)
        assert state.rows_in_window() == 2048

    def test_churned_accumulators_release_their_device_memory(self, rng):
        """Ring rotations, resets and query merges must not leak memory."""
        from repro.gpu.executor import GPUExecutor

        executor = GPUExecutor(numeric=True, seed=1, track_memory=True)
        state = make_state(
            "sliding", N + 1, 128, executor=executor, seed=0,
            bucket_rows=256, window_buckets=2,
        )
        state.fold(rng.standard_normal((512, N + 1)), 512)  # fill the window
        state.current()
        settled = executor.memory.in_use
        for _ in range(6):  # rotations + merges well past the window span
            state.fold(rng.standard_normal((512, N + 1)), 512)
            state.current()
        assert executor.memory.in_use == settled  # fixed-size state, no leak
        state.reset()
        assert executor.memory.in_use < settled

    def test_reset_empties_the_window(self, rng):
        state = make_state("sliding", N + 1, 128, executor=_executor(), seed=0)
        state.fold(rng.standard_normal((100, N + 1)), 100)
        assert state.rows_in_window() == 100
        version = state.version
        state.reset()
        assert state.rows_in_window() == 0
        assert state.version > version
        np.testing.assert_array_equal(state.current(), np.zeros((128, N + 1)))


class TestValidation:
    def test_fixed_policy_is_rejected(self):
        with pytest.raises(ValueError, match="planner"):
            StreamingSolver(N, policy="fixed")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            normalize_mode("bogus")
        with pytest.raises(ValueError):
            StreamingSolver(N, mode="tumbling")

    def test_wrong_row_width_rejected(self, rng):
        engine = StreamingSolver(N, seed=0)
        with pytest.raises(ValueError, match="columns"):
            engine.ingest(rng.standard_normal((4, N + 3)), np.zeros(4))
        with pytest.raises(ValueError, match="target"):
            engine.ingest(rng.standard_normal((4, N)), np.zeros(5))

    @pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf])
    def test_non_finite_batches_are_rejected_before_folding(self, rng, cell):
        engine = StreamingSolver(N, seed=0)
        rows = rng.standard_normal((BATCH, N))
        targets = rng.standard_normal(BATCH)
        engine.ingest(rows, targets)
        before = engine.state.current()
        bad_rows, bad_targets = rows.copy(), targets.copy()
        bad_rows[7, 3] = cell
        bad_targets[9] = cell
        with pytest.raises(ValueError, match="rows must be finite"):
            engine.ingest(bad_rows, targets)
        with pytest.raises(ValueError, match="targets must be finite"):
            engine.ingest(rows, bad_targets)
        assert engine.batches_ingested == 1
        assert engine.state.rows_total == BATCH
        np.testing.assert_array_equal(engine.state.current(), before)
        assert np.isfinite(engine.solution().x).all()

    def test_empty_ingest_is_a_noop(self):
        engine = StreamingSolver(N, seed=0)
        report = engine.ingest(np.zeros((0, N)), np.zeros(0))
        assert report.rows == 0
        assert engine.state.rows_total == 0

    def test_query_on_empty_window_raises(self):
        engine = StreamingSolver(N, seed=0)
        with pytest.raises(RuntimeError, match="empty window"):
            engine.solution()

    def test_k_must_exceed_n(self):
        with pytest.raises(ValueError, match="exceed"):
            StreamingSolver(N, k=N)

    def test_unrecognized_detector_value_raises(self):
        with pytest.raises(TypeError, match="detector"):
            StreamingSolver(N, detector=1)  # truthy but not a detector


class TestOperatorRefresh:
    """Sketched factors persist across re-solves (linalg.incremental)."""

    def test_same_spec_reuses_the_operator(self):
        from repro.linalg import OperatorRefresher, SolveSpec

        executor = _executor()
        refresher = OperatorRefresher(executor)
        spec = SolveSpec(d=512, n=8, kind="multisketch", seed=0)
        first = refresher.operator_for("sketch_and_solve", spec)
        mark = executor.mark()
        again = refresher.operator_for("sketch_and_solve", spec)
        assert again is first  # no rebuild ...
        assert executor.elapsed_since(mark) == 0.0  # ... and no Sketch gen charge
        assert refresher.refreshes == 1 and refresher.reuses == 1

    def test_changed_identity_refreshes(self):
        from repro.linalg import OperatorRefresher, SolveSpec

        refresher = OperatorRefresher(_executor())
        spec = SolveSpec(d=512, n=8, kind="multisketch", seed=0)
        base = refresher.operator_for("sketch_and_solve", spec)
        other_solver = refresher.operator_for("rand_cholqr", spec)
        other_seed = refresher.operator_for(
            "sketch_and_solve", SolveSpec(d=512, n=8, kind="multisketch", seed=1)
        )
        assert other_solver is not base and other_seed is not base
        assert refresher.refreshes == 3
        refresher.invalidate()
        assert len(refresher) == 0

    def test_direct_solvers_need_no_operator(self):
        from repro.linalg import OperatorRefresher, SolveSpec

        refresher = OperatorRefresher(_executor())
        assert refresher.operator_for("qr", SolveSpec(d=512, n=8)) is None
        assert len(refresher) == 0

    def test_streaming_resolves_share_inner_operators(self, rng):
        """Two re-solves of the same window shape build factors once."""
        engine = StreamingSolver(N, seed=0, detector=False)
        x_true = np.ones(N)
        for rows, targets in _stationary_batches(rng, 2, x_true):
            engine.ingest(rows, targets)
        engine.solution()
        refreshes_after_first = engine._refresher.refreshes
        for rows, targets in _stationary_batches(rng, 2, x_true):
            engine.ingest(rows, targets)
        engine.solution()
        # Whatever the plan needed the first time was not rebuilt.
        assert engine._refresher.refreshes == refreshes_after_first


class TestComplexityAccounting:
    def test_per_batch_cost_is_stream_length_free(self):
        acc = streaming_complexity(16, 256, mode="sliding", window_buckets=4)
        assert acc["stream_length_exponent"] == 0.0
        # Update work is linear in the batch, not in anything global.
        double = streaming_complexity(16, 512, mode="sliding", window_buckets=4)
        assert double["update_arithmetic"] == pytest.approx(2 * acc["update_arithmetic"])
        # State is per-accumulator: sliding holds window_buckets of them,
        # each k x (n+1) with the default k = ceil(2 (n+1)^2) = 578.
        assert acc["state_floats"] == pytest.approx(4 * 578 * 17)

    def test_decay_pays_the_scale_pass(self):
        landmark = streaming_complexity(16, 256, mode="landmark")
        decay = streaming_complexity(16, 256, mode="decay")
        assert decay["update_arithmetic"] > landmark["update_arithmetic"]
        assert decay["state_floats"] == landmark["state_floats"]

    def test_bad_inputs_raise(self):
        with pytest.raises(ValueError):
            streaming_complexity(0, 1)
        with pytest.raises(ValueError):
            streaming_complexity(4, 4, mode="bogus")


def _executor():
    from repro.gpu.executor import GPUExecutor

    return GPUExecutor(numeric=True, seed=1, track_memory=False)
