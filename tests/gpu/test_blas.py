"""Tests for the cuBLAS stand-in (GEMM/SYRK/GEMV/transpose)."""

import numpy as np
import pytest

from repro.gpu.kernels import KernelClass


class TestGemm:
    def test_gemm_matches_numpy(self, executor, rng):
        a = executor.to_device(rng.standard_normal((12, 7)))
        b = executor.to_device(rng.standard_normal((7, 5)))
        c = executor.blas.gemm(a, b)
        np.testing.assert_allclose(c.data, a.data @ b.data, rtol=1e-12)

    def test_gemm_transposes(self, executor, rng):
        a = executor.to_device(rng.standard_normal((7, 12)))
        b = executor.to_device(rng.standard_normal((7, 5)))
        c = executor.blas.gemm(a, b, trans_a=True)
        np.testing.assert_allclose(c.data, a.data.T @ b.data, rtol=1e-12)
        d = executor.to_device(rng.standard_normal((5, 7)))
        e = executor.blas.gemm(a, d, trans_a=True, trans_b=True)
        np.testing.assert_allclose(e.data, a.data.T @ d.data.T, rtol=1e-12)

    def test_gemm_alpha_scaling(self, executor, rng):
        a = executor.to_device(rng.standard_normal((3, 3)))
        b = executor.to_device(rng.standard_normal((3, 3)))
        c = executor.blas.gemm(a, b, alpha=2.5)
        np.testing.assert_allclose(c.data, 2.5 * a.data @ b.data, rtol=1e-12)

    def test_gemm_dimension_mismatch(self, executor):
        a = executor.empty((4, 3))
        b = executor.empty((5, 2))
        with pytest.raises(ValueError):
            executor.blas.gemm(a, b)

    def test_gemm_flop_accounting(self, executor):
        a = executor.zeros((10, 20))
        b = executor.zeros((20, 30))
        mark = executor.mark()
        executor.blas.gemm(a, b)
        record = executor.breakdown_since(mark).records[0]
        assert record.flops == pytest.approx(2 * 10 * 20 * 30)

    def test_gemm_output_reuse(self, executor, rng):
        a = executor.to_device(rng.standard_normal((4, 4)))
        b = executor.to_device(rng.standard_normal((4, 4)))
        out = executor.empty((4, 4))
        result = executor.blas.gemm(a, b, out=out)
        assert result is out
        with pytest.raises(ValueError):
            executor.blas.gemm(a, b, out=executor.empty((3, 3)))


class TestGramAndSyrk:
    def test_gram_matches_numpy(self, executor, rng):
        a = executor.to_device(rng.standard_normal((50, 8)))
        g = executor.blas.gram(a)
        np.testing.assert_allclose(g.data, a.data.T @ a.data, rtol=1e-12)

    def test_syrk_matches_and_is_symmetric(self, executor, rng):
        a = executor.to_device(rng.standard_normal((50, 8)))
        g = executor.blas.syrk(a)
        np.testing.assert_allclose(g.data, a.data.T @ a.data, rtol=1e-12)
        np.testing.assert_allclose(g.data, g.data.T)

    def test_syrk_slower_than_gemm_gram_in_model(self, analytic_executor):
        """The paper: SYRK performs worse than GEMM in practice despite fewer flops."""
        a = analytic_executor.empty((1 << 20, 256))
        mark = analytic_executor.mark()
        analytic_executor.blas.gram(a, use_syrk=False)
        gemm_time = analytic_executor.elapsed_since(mark)
        mark = analytic_executor.mark()
        analytic_executor.blas.gram(a, use_syrk=True)
        syrk_time = analytic_executor.elapsed_since(mark)
        assert syrk_time > gemm_time * 0.9  # SYRK never meaningfully faster


class TestGemvAndVectors:
    def test_gemv(self, executor, rng):
        a = executor.to_device(rng.standard_normal((9, 4)))
        x = executor.to_device(rng.standard_normal(4))
        y = executor.blas.gemv(a, x)
        np.testing.assert_allclose(y.data, a.data @ x.data, rtol=1e-12)

    def test_gemv_transposed(self, executor, rng):
        a = executor.to_device(rng.standard_normal((9, 4)))
        x = executor.to_device(rng.standard_normal(9))
        y = executor.blas.gemv(a, x, trans_a=True)
        np.testing.assert_allclose(y.data, a.data.T @ x.data, rtol=1e-12)

    def test_gemv_mismatch(self, executor):
        with pytest.raises(ValueError):
            executor.blas.gemv(executor.empty((9, 4)), executor.empty((5,)))

    def test_axpy_and_scale(self, executor, rng):
        x = executor.to_device(rng.standard_normal(6))
        y = executor.to_device(rng.standard_normal(6))
        expected = y.data + 0.5 * x.data
        executor.blas.axpy(0.5, x, y)
        np.testing.assert_allclose(y.data, expected, rtol=1e-12)
        executor.blas.scale(2.0, y)
        np.testing.assert_allclose(y.data, 2 * expected, rtol=1e-12)

    def test_axpy_shape_mismatch(self, executor):
        with pytest.raises(ValueError):
            executor.blas.axpy(1.0, executor.empty((3,)), executor.empty((4,)))

    def test_norm2(self, executor):
        x = executor.to_device(np.array([3.0, 4.0]))
        assert executor.blas.norm2(x) == pytest.approx(5.0)


class TestTranspose:
    def test_transpose_values_and_order(self, executor, rng):
        a = executor.to_device(rng.standard_normal((5, 3)), order="C")
        at = executor.blas.transpose(a)
        assert at.shape == (3, 5)
        assert at.order == "F"
        np.testing.assert_array_equal(at.data, a.data.T)

    def test_transpose_requires_2d(self, executor):
        with pytest.raises(ValueError):
            executor.blas.transpose(executor.empty((5,)))

    def test_transpose_charges_full_traffic(self, analytic_executor):
        a = analytic_executor.empty((1000, 1000))
        mark = analytic_executor.mark()
        analytic_executor.blas.transpose(a)
        record = analytic_executor.breakdown_since(mark).records[0]
        assert record.bytes_moved == pytest.approx(2 * a.nbytes)
