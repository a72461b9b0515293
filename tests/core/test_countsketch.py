"""Tests for the CountSketch operators (Algorithm 2, SpMM baseline, streaming)."""

import numpy as np
import pytest

from repro.core import countsketch
from repro.core.countsketch import CountSketch, StreamingCountSketch
from repro.core.sampling import hashed_row_map_and_signs
from repro.gpu.executor import GPUExecutor


D, N, K = 2048, 8, 128


class TestConstruction:
    def test_structure_one_nonzero_per_column(self, executor):
        cs = CountSketch(D, K, executor=executor, seed=1)
        s = cs.explicit_matrix()
        assert s.shape == (K, D)
        nnz_per_col = np.count_nonzero(s, axis=0)
        np.testing.assert_array_equal(nnz_per_col, np.ones(D))
        assert set(np.unique(s[s != 0])) <= {-1.0, 1.0}

    def test_row_map_and_signs_exposed(self, executor):
        cs = CountSketch(D, K, executor=executor, seed=1)
        assert cs.row_map.shape == (D,)
        assert cs.signs.dtype == np.bool_
        assert cs.row_map.min() >= 0 and cs.row_map.max() < K

    def test_invalid_variant(self, executor):
        with pytest.raises(ValueError):
            CountSketch(D, K, variant="cuda", executor=executor)

    def test_embedding_dim_larger_than_input_rejected(self, executor):
        with pytest.raises(ValueError):
            CountSketch(16, 32, executor=executor)

    def test_generate_idempotent(self, executor):
        cs = CountSketch(D, K, executor=executor, seed=1)
        cs.generate()
        row_map = cs.row_map
        cs.generate()
        np.testing.assert_array_equal(cs.row_map, row_map)


class TestApplication:
    def test_apply_equals_explicit_matrix_product(self, executor, rng):
        a = rng.standard_normal((D, N))
        cs = CountSketch(D, K, executor=executor, seed=2)
        y = cs.sketch_host(a)
        np.testing.assert_allclose(y, cs.explicit_matrix() @ a, rtol=1e-12)

    def test_vector_apply(self, executor, rng):
        b = rng.standard_normal(D)
        cs = CountSketch(D, K, executor=executor, seed=2)
        np.testing.assert_allclose(cs.sketch_host(b), cs.explicit_matrix() @ b, rtol=1e-12)

    def test_matmul_operator(self, executor, rng):
        a = rng.standard_normal((D, N))
        cs = CountSketch(D, K, executor=executor, seed=2)
        np.testing.assert_allclose(cs @ a, cs.sketch_host(a), rtol=1e-15)

    def test_spmm_variant_identical_output(self, executor, rng):
        a = rng.standard_normal((D, N))
        y_atomic = CountSketch(D, K, executor=executor, seed=3).sketch_host(a)
        y_spmm = CountSketch(D, K, variant="spmm", executor=executor, seed=3).sketch_host(a)
        np.testing.assert_allclose(y_atomic, y_spmm, rtol=1e-12)

    def test_wrong_row_count_rejected(self, executor, rng):
        cs = CountSketch(D, K, executor=executor, seed=1)
        with pytest.raises(ValueError):
            cs.sketch_host(rng.standard_normal((D + 1, N)))

    def test_linearity(self, executor, rng):
        cs = CountSketch(D, K, executor=executor, seed=4)
        a = rng.standard_normal((D, N))
        b = rng.standard_normal((D, N))
        np.testing.assert_allclose(
            cs.sketch_host(2 * a - 3 * b),
            2 * cs.sketch_host(a) - 3 * cs.sketch_host(b),
            rtol=1e-10,
        )

    def test_norm_preserved_in_expectation(self, executor, rng):
        """E||Sx||^2 = ||x||^2 for the CountSketch (no scaling needed)."""
        x = rng.standard_normal(D)
        norms = []
        for seed in range(30):
            cs = CountSketch(D, 4 * K, executor=executor, seed=seed)
            norms.append(np.linalg.norm(cs.sketch_host(x)) ** 2)
        assert np.mean(norms) == pytest.approx(np.linalg.norm(x) ** 2, rel=0.15)


class TestCostModel:
    def test_atomic_kernel_charged_for_default_variant(self, executor, rng):
        cs = CountSketch(D, K, executor=executor, seed=5)
        mark = executor.mark()
        cs.sketch_host(rng.standard_normal((D, N)))
        names = [r.name for r in executor.breakdown_since(mark).records]
        assert "countsketch_atomic" in names
        assert "cusparse_spmm" not in names

    def test_spmm_kernel_charged_for_spmm_variant(self, executor, rng):
        cs = CountSketch(D, K, variant="spmm", executor=executor, seed=5)
        mark = executor.mark()
        cs.sketch_host(rng.standard_normal((D, N)))
        names = [r.name for r in executor.breakdown_since(mark).records]
        assert "cusparse_spmm" in names

    def test_atomic_faster_than_spmm_in_simulated_time(self):
        """Figure 2: the Algorithm-2 kernel beats the SpMM baseline."""
        ex = GPUExecutor(numeric=False, track_memory=False)
        d, n = 1 << 22, 128
        a = ex.empty((d, n))
        k = 2 * n * n
        mark = ex.mark()
        CountSketch(d, k, executor=ex, seed=1).apply(a)
        atomic_time = ex.elapsed_since(mark)
        mark = ex.mark()
        CountSketch(d, k, variant="spmm", executor=ex, seed=1).apply(a)
        spmm_time = ex.elapsed_since(mark)
        assert spmm_time > 2.0 * atomic_time

    def test_generation_is_cheap(self, analytic_executor):
        """Sketch gen for the CountSketch needs only d integers + d booleans."""
        d, n = 1 << 22, 128
        cs = CountSketch(d, 2 * n * n, executor=analytic_executor, seed=1)
        mark = analytic_executor.mark()
        cs.generate()
        gen_time = analytic_executor.elapsed_since(mark)
        assert gen_time < 1e-3  # well under a millisecond of simulated time


class TestStreamingCountSketch:
    def test_matches_explicit_matrix(self, executor, rng):
        a = rng.standard_normal((D, N))
        st = StreamingCountSketch(D, K, executor=executor, seed=6)
        np.testing.assert_allclose(st.sketch_host(a), st.explicit_matrix() @ a, rtol=1e-12)

    def test_streaming_in_batches_matches_one_shot(self, executor, rng):
        a = rng.standard_normal((D, N))
        st = StreamingCountSketch(D, K, executor=executor, seed=7)
        one_shot = st.sketch_host(a)

        st2 = StreamingCountSketch(D, K, executor=executor, seed=7)
        st2.generate()
        st2.begin(N)
        for start in range(0, D, 100):
            idx = np.arange(start, min(start + 100, D))
            st2.update(idx, a[idx, :])
        batched = st2.result().to_host()
        np.testing.assert_allclose(batched, one_shot, rtol=1e-10)

    def test_vector_path(self, executor, rng):
        b = rng.standard_normal(D)
        st = StreamingCountSketch(D, K, executor=executor, seed=8)
        np.testing.assert_allclose(
            st.sketch_host(b), st.explicit_matrix() @ b, rtol=1e-10, atol=1e-10
        )

    def test_update_requires_begin(self, executor):
        st = StreamingCountSketch(D, K, executor=executor, seed=9)
        with pytest.raises(RuntimeError):
            st.update([0], np.zeros((1, N)))

    def test_result_requires_pass_in_progress(self, executor):
        st = StreamingCountSketch(D, K, executor=executor, seed=9)
        with pytest.raises(RuntimeError):
            st.result()

    def test_out_of_range_indices_rejected(self, executor):
        st = StreamingCountSketch(D, K, executor=executor, seed=9)
        st.begin(N)
        with pytest.raises(ValueError):
            st.update([D + 5], np.zeros((1, N)))

    def test_bad_row_shape_rejected(self, executor):
        st = StreamingCountSketch(D, K, executor=executor, seed=9)
        st.begin(N)
        with pytest.raises(ValueError):
            st.update([0, 1], np.zeros((2, N + 1)))

    def test_rejected_batch_leaves_the_pass_untouched(self, executor):
        st = StreamingCountSketch(D, K, executor=executor, seed=9)
        st.begin(4)
        with pytest.raises(ValueError):
            st.update(np.arange(8), np.ones((8, 3)))
        assert st.rows_seen == 0
        assert not st.snapshot().any()

    @pytest.mark.parametrize("kernel", ["compiled", "fallback"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_update_equals_an_add_at_scatter_bit_for_bit(self, monkeypatch, rng, dtype, kernel):
        """Heavy collisions (k = 7, 1024-row batches), three batches in one
        pass, one of them Fortran-ordered: the accumulator is exactly the
        in-order ``np.add.at`` scatter of the signed rows, with scipy's
        compiled kernel and with the import-failure fallback."""
        if kernel == "fallback":
            monkeypatch.setattr(countsketch, "_csc_matvecs", None)
        k, n, batch, seed = 7, 5, 1024, 11
        st = StreamingCountSketch(1 << 20, k, seed=seed, dtype=dtype)
        st.begin(n)
        expected = np.zeros((k, n), dtype=dtype)
        for b in range(3):
            idx = np.arange(b * batch, (b + 1) * batch)
            rows = rng.standard_normal((batch, n)).astype(dtype)
            st.update(idx, np.asfortranarray(rows) if b == 1 else rows)
            targets, signs = hashed_row_map_and_signs(idx, k, seed)
            np.add.at(expected, targets, np.where(signs[:, None], rows, -rows))
        assert st.rows_seen == 3 * batch
        got = st.result().to_host()
        assert got.dtype == np.dtype(dtype)
        assert np.array_equal(got, expected)

    def test_float16_sketch_still_streams(self, rng):
        """scipy's sparse kernels have no float16 loop; the scatter must still
        run, and equal the in-order ``np.add.at`` of the signed rows."""
        k, n, seed = 7, 3, 2
        idx = np.arange(64)
        rows = rng.standard_normal((64, n)).astype(np.float16)
        st = StreamingCountSketch(1 << 10, k, seed=seed, dtype=np.float16)
        st.begin(n)
        st.update(idx, rows)
        targets, signs = hashed_row_map_and_signs(idx, k, seed)
        expected = np.zeros((k, n), dtype=np.float16)
        np.add.at(expected, targets, np.where(signs[:, None], rows, -rows))
        assert np.array_equal(st.result().to_host(), expected)

    def test_no_stored_random_state(self, executor):
        """The streaming variant derives everything from the hash; generation is trivial."""
        st = StreamingCountSketch(D, K, executor=executor, seed=10)
        mark = executor.mark()
        st.generate()
        assert executor.elapsed_since(mark) < 1e-4
