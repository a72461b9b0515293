"""Tests for the cuSPARSE, cuSOLVER, and cuRAND stand-ins."""

import numpy as np
import pytest
import scipy.linalg as sla

from repro.core.multisketch import count_gauss
from repro.gpu.arrays import DeviceArray
from repro.gpu.solver import CholeskyFailedError
from repro.linalg import registry
from repro.linalg.rand_cholqr import rand_cholqr_lstsq


# ---------------------------------------------------------------------------
# cuSPARSE
# ---------------------------------------------------------------------------
class TestSparse:
    def _countsketch_csr(self, executor, rng, k=16, d=200):
        rows = rng.integers(0, k, size=d)
        cols = np.arange(d)
        vals = rng.choice([-1.0, 1.0], size=d)
        return executor.sparse.build_csr((k, d), rows, cols, vals), rows, vals

    def test_spmm_matches_dense_product(self, executor, rng):
        csr, _, _ = self._countsketch_csr(executor, rng)
        a = executor.to_device(rng.standard_normal((200, 5)))
        y = executor.sparse.spmm(csr, a)
        np.testing.assert_allclose(y.data, csr.matrix.toarray() @ a.data, rtol=1e-12)

    def test_spmv_matches_dense_product(self, executor, rng):
        csr, _, _ = self._countsketch_csr(executor, rng)
        x = executor.to_device(rng.standard_normal(200))
        y = executor.sparse.spmv(csr, x)
        np.testing.assert_allclose(y.data, csr.matrix.toarray() @ x.data, rtol=1e-12)

    def test_spmm_dimension_mismatch(self, executor, rng):
        csr, _, _ = self._countsketch_csr(executor, rng)
        with pytest.raises(ValueError):
            executor.sparse.spmm(csr, executor.empty((77, 3)))

    def test_analytic_csr_requires_nnz(self, analytic_executor):
        with pytest.raises(ValueError):
            analytic_executor.sparse.build_csr((10, 100), None, None, None)
        csr = analytic_executor.sparse.build_csr((10, 100), None, None, None, nnz=100)
        assert csr.nnz == 100
        assert not csr.is_numeric

    def test_csr_nbytes_counts_values_and_indices(self, executor, rng):
        csr, _, _ = self._countsketch_csr(executor, rng, k=8, d=100)
        assert csr.nbytes >= 100 * (8 + 4)

    def test_spmm_uses_spmm_kernel_class(self, executor, rng):
        csr, _, _ = self._countsketch_csr(executor, rng)
        a = executor.to_device(rng.standard_normal((200, 5)))
        mark = executor.mark()
        executor.sparse.spmm(csr, a)
        assert executor.breakdown_since(mark).records[0].name == "cusparse_spmm"


# ---------------------------------------------------------------------------
# cuSOLVER
# ---------------------------------------------------------------------------
class TestSolver:
    def test_potrf_reconstructs(self, executor, rng):
        m = rng.standard_normal((20, 6))
        g = executor.to_device(m.T @ m + 6 * np.eye(6))
        r = executor.solver.potrf(g)
        np.testing.assert_allclose(r.data.T @ r.data, g.data, rtol=1e-10)
        # upper triangular
        assert np.allclose(r.data, np.triu(r.data))

    def test_potrf_raises_on_indefinite(self, executor):
        g = executor.to_device(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
        with pytest.raises(CholeskyFailedError):
            executor.solver.potrf(g)

    def test_potrf_requires_square(self, executor):
        with pytest.raises(ValueError):
            executor.solver.potrf(executor.empty((3, 4)))

    def test_geqrf_ormqr_solve_least_squares(self, executor, rng):
        a_np = rng.standard_normal((50, 6))
        x_true = rng.standard_normal(6)
        b_np = a_np @ x_true
        a = executor.to_device(a_np)
        b = executor.to_device(b_np)
        factors = executor.solver.geqrf(a)
        qtb = executor.solver.ormqr(factors, b)
        x = executor.solver.trsv(factors.r, qtb)
        np.testing.assert_allclose(x.data, x_true, rtol=1e-10)

    def test_geqrf_requires_tall(self, executor):
        with pytest.raises(ValueError):
            executor.solver.geqrf(executor.empty((3, 5)))

    def test_ormqr_dimension_mismatch(self, executor, rng):
        a = executor.to_device(rng.standard_normal((20, 4)))
        factors = executor.solver.geqrf(a)
        with pytest.raises(ValueError):
            executor.solver.ormqr(factors, executor.empty((7,)))

    def test_trsv_upper_and_transposed(self, executor, rng):
        r_np = np.triu(rng.standard_normal((5, 5))) + 5 * np.eye(5)
        b_np = rng.standard_normal(5)
        r = executor.to_device(r_np)
        b = executor.to_device(b_np)
        x = executor.solver.trsv(r, b)
        np.testing.assert_allclose(r_np @ x.data, b_np, rtol=1e-10)
        y = executor.solver.trsv(r, b, transpose=True)
        np.testing.assert_allclose(r_np.T @ y.data, b_np, rtol=1e-10)

    def test_trsm_preconditions(self, executor, rng):
        a_np = rng.standard_normal((30, 4))
        r_np = np.triu(rng.standard_normal((4, 4))) + 4 * np.eye(4)
        a = executor.to_device(a_np)
        r = executor.to_device(r_np)
        a0 = executor.solver.trsm(a, r)
        np.testing.assert_allclose(a0.data @ r_np, a_np, rtol=1e-10)

    def test_trsm_shape_check(self, executor):
        with pytest.raises(ValueError):
            executor.solver.trsm(executor.empty((10, 4)), executor.empty((3, 3)))

    def test_householder_qr_solve(self, executor, rng):
        a_np = rng.standard_normal((60, 5))
        b_np = rng.standard_normal(60)
        a = executor.to_device(a_np)
        b = executor.to_device(b_np)
        x = executor.solver.householder_qr_solve(a, b)
        expected, *_ = np.linalg.lstsq(a_np, b_np, rcond=None)
        np.testing.assert_allclose(x.data, expected, rtol=1e-8)

    def test_analytic_geqrf_has_no_q(self, analytic_executor):
        factors = analytic_executor.solver.geqrf(analytic_executor.empty((100, 10)))
        assert factors.q is None
        # Analytic ORMQR still produces a shape-only handle and charges time.
        qtb = analytic_executor.solver.ormqr(factors, analytic_executor.empty((100,)))
        assert qtb.shape == (10,)
        assert not qtb.is_numeric


class TestTrsmContract:
    """``SimSolver.trsm`` keeps the contract of the LAPACK ``trtrs`` solve
    ``solve_triangular(R, A^T, trans="T")^T``: its values, its checks, and
    never writing its input."""

    D, N = 3000, 24

    def _operands(self, rng):
        a = rng.standard_normal((self.D, self.N))
        r = np.triu(rng.standard_normal((self.N, self.N))) + self.N * np.eye(self.N)
        return a, r

    @staticmethod
    def _reference(a, r):
        return sla.solve_triangular(r, a.T, lower=False, trans="T").T

    @pytest.mark.parametrize("r_layout", ["C", "F"])
    @pytest.mark.parametrize("a_layout", ["C", "F", "strided"])
    def test_c_labelled_output_is_bit_identical_to_trtrs(self, executor, rng, a_layout, r_layout):
        a, r_np = self._operands(rng)
        if a_layout == "F":
            a = np.asfortranarray(a)
        elif a_layout == "strided":
            a = np.repeat(a, 2, axis=0)[::2]
            assert not (a.flags.c_contiguous or a.flags.f_contiguous)
        r_np = np.asfortranarray(r_np) if r_layout == "F" else r_np
        a_dev = DeviceArray(a.shape, a.dtype, "C", a, "A", None, executor)
        r = executor.to_device(r_np)
        assert r.data.flags.f_contiguous == (r_layout == "F")
        out = executor.solver.trsm(a_dev, r)
        assert out.order == "C"
        assert np.array_equal(out.data, self._reference(a, r.data))

    def test_placed_f_contiguous_input_is_bit_identical_to_trtrs(self, executor, rng):
        """``place_readonly`` keeps an F-contiguous array under a ``"C"`` label."""
        a, r_np = self._operands(rng)
        a = np.asfortranarray(a)
        a_dev = executor.place_readonly(a, order="C")
        assert a_dev.data.flags.f_contiguous
        out = executor.solver.trsm(a_dev, executor.to_device(r_np))
        assert np.array_equal(out.data, self._reference(a, r_np))

    def test_f_labelled_output_matches_within_rounding(self, executor, rng):
        a, r_np = self._operands(rng)
        out = executor.solver.trsm(executor.to_device(a, order="F"), executor.to_device(r_np))
        assert out.order == "F"
        np.testing.assert_allclose(out.data, self._reference(a, r_np), rtol=1e-12, atol=0)
        np.testing.assert_allclose(out.data @ r_np, a, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_readonly_input_is_never_written(self, executor, rng, layout):
        a, r_np = self._operands(rng)
        a = np.asfortranarray(a) if layout == "F" else a
        before = a.copy()
        a_dev = executor.place_readonly(a)
        executor.solver.trsm(a_dev, executor.to_device(r_np))
        assert np.array_equal(a, before)
        assert not a_dev.data.flags.writeable

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("operand", ["A", "R"])
    def test_non_finite_operand_raises_value_error(self, executor, rng, bad, operand):
        a, r_np = self._operands(rng)
        if operand == "A":
            a[1234, 7] = bad
        else:
            r_np[3, 9] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            executor.solver.trsm(executor.to_device(a), executor.to_device(r_np))

    def test_zero_diagonal_raises_linalg_error(self, executor, rng):
        a, r_np = self._operands(rng)
        r_np[6, 6] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match=r"singular matrix: resolution failed at diagonal 6$"):
            executor.solver.trsm(executor.to_device(a), executor.to_device(r_np))

    @pytest.mark.parametrize("a_dtype, r_dtype", [(np.float32, np.float64), (np.float64, np.float32)])
    def test_mixed_dtypes_match_trtrs_cast_into_the_output(self, executor, rng, a_dtype, r_dtype):
        a, r_np = self._operands(rng)
        a, r_np = a.astype(a_dtype), r_np.astype(r_dtype)
        out = executor.solver.trsm(executor.place_readonly(a), executor.to_device(r_np))
        assert out.data.dtype == a_dtype
        assert np.array_equal(out.data, self._reference(a, r_np).astype(a_dtype))

    def test_float32_rand_cholqr_solve_matches_float64_residual(self, rng):
        """The registry builds R0 in float64 while a float32 ``A`` keeps its dtype."""
        a = rng.standard_normal((4096, 16)) @ np.diag(np.logspace(0, 3, 16))
        b = rng.standard_normal(4096)
        result = registry.solve(a.astype(np.float32), b, solver="rand_cholqr")
        assert not result.failed
        x_ls = np.linalg.lstsq(a, b, rcond=None)[0]
        ratio = np.linalg.norm(a @ result.x - b) / np.linalg.norm(a @ x_ls - b)
        assert ratio == pytest.approx(1.0, abs=1e-6)

    def test_zero_diagonal_fails_rand_cholqr_lstsq(self, executor, rng):
        """A zero column of ``A`` puts an exact zero on ``R0``'s diagonal."""
        a = rng.standard_normal((2048, 8))
        a[:, 5] = 0.0
        sketch = count_gauss(2048, 8, executor=executor, seed=2)
        result = rand_cholqr_lstsq(a, rng.standard_normal(2048), sketch)
        assert result.failed
        assert result.failure_reason.startswith("rand_cholQR breakdown: singular matrix")


class TestQRContract:
    """``SimSolver.geqrf``/``ormqr`` keep the values of numpy's Householder QR
    (within rounding: numpy and scipy may bundle different LAPACK builds),
    never write their inputs, and charge the reflector-count cost model."""

    SHAPES = [(32, 16), (128, 64), (2064, 16), (16, 16), (40, 1)]

    @staticmethod
    def _place(executor, y, layout):
        if layout == "C":
            return executor.to_device(y)
        if layout == "F":
            dev = executor.to_device(np.asfortranarray(y))
            assert dev.data.flags.f_contiguous
            return dev
        if layout == "strided":
            strided = np.repeat(y, 2, axis=0)[::2]
            assert not (strided.flags.c_contiguous or strided.flags.f_contiguous)
            return DeviceArray(strided.shape, strided.dtype, "C", strided, "Y", None, executor)
        return executor.place_readonly(y)

    @pytest.mark.parametrize("layout", ["C", "F", "strided", "readonly"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_r_matches_numpy_qr(self, executor, rng, shape, layout):
        y = rng.standard_normal(shape)
        before = y.copy()
        y_dev = self._place(executor, y, layout)
        r = executor.solver.geqrf(y_dev).r.data
        r_ref = np.linalg.qr(y, mode="r")
        np.testing.assert_allclose(r, r_ref, rtol=1e-12, atol=1e-12 * np.abs(r_ref).max())
        assert not np.tril(r, -1).any()
        assert np.array_equal(y, before)
        assert np.array_equal(y_dev.data, before)

    @pytest.mark.parametrize("rhs", ["vector", "C block", "F block"])
    def test_ormqr_matches_explicit_qt_b(self, executor, rng, rhs):
        y = rng.standard_normal((2064, 16))
        b = rng.standard_normal(2064) if rhs == "vector" else rng.standard_normal((2064, 5))
        if rhs == "F block":
            b = np.asfortranarray(b)
        b_before = b.copy()
        b_dev = executor.place_readonly(b)
        factors = executor.solver.geqrf(executor.place_readonly(y))
        out = executor.solver.ormqr(factors, b_dev)
        expected = np.linalg.qr(y)[0].T @ b
        assert out.shape == expected.shape and out.dtype == b.dtype
        assert np.linalg.norm(out.data - expected) <= 1e-12 * np.linalg.norm(b)
        assert np.array_equal(b, b_before)

    def test_float32_factors_apply_to_float64_b_in_float64(self, executor, rng):
        y = rng.standard_normal((128, 8))
        b = rng.standard_normal(128)
        factors = executor.solver.geqrf(executor.to_device(y.astype(np.float32)))
        out = executor.solver.ormqr(factors, executor.to_device(b))
        assert out.dtype == np.float64
        expected = np.linalg.qr(y.astype(np.float32).astype(np.float64))[0].T @ b
        assert np.linalg.norm(out.data - expected) <= 1e-5 * np.linalg.norm(b)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_q_is_orthonormal_and_reproduces_y(self, executor, rng, shape):
        y = rng.standard_normal(shape)
        factors = executor.solver.geqrf(executor.to_device(y))
        q = factors.q
        assert q is factors.q
        assert q.shape == shape
        assert np.linalg.norm(q.data.T @ q.data - np.eye(shape[1])) <= 1e-13
        np.testing.assert_allclose(
            q.data @ factors.r.data, y, rtol=0, atol=1e-12 * np.linalg.norm(y)
        )

    # (shape, nrhs, dtype) -> [(name, phase, flops, bytes moved, seconds)], as
    # charged on the H100 by the explicit-Q implementation this replaced.
    PINNED_CHARGES = {
        ((2064, 16), None, np.float64): [
            ("geqrf", "GEQRF", 1054037.3333333333, 530432.0, 5.263896517412936e-06),
            ("ormqr", "ORMQR", 131584.0, 280832.0, 5.139717412935324e-06),
        ],
        ((32, 16), 3, np.float64): [
            ("geqrf", "GEQRF", 13653.333333333334, 10240.0, 5.005094527363185e-06),
            ("ormqr", "ORMQR", 4608.0, 5248.0, 5.002610945273632e-06),
        ],
        ((128, 64), None, np.float32): [
            ("geqrf", "GEQRF", 873813.3333333334, 81920.0, 5.108845706693241e-06),
            ("ormqr", "ORMQR", 24576.0, 33536.0, 5.016684577114428e-06),
        ],
    }

    @pytest.mark.parametrize("case", list(PINNED_CHARGES))
    def test_charges_are_pinned(self, executor, rng, case):
        (k, n), nrhs, dtype = case
        y = executor.to_device(rng.standard_normal((k, n)).astype(dtype))
        b_shape = (k,) if nrhs is None else (k, nrhs)
        b = executor.to_device(rng.standard_normal(b_shape).astype(dtype))
        mark = executor.mark()
        executor.solver.ormqr(executor.solver.geqrf(y), b)
        records = executor.breakdown_since(mark).records
        got = [(t.name, t.phase, t.flops, t.bytes_moved) for t in records]
        want = self.PINNED_CHARGES[case]
        assert got == [w[:4] for w in want]
        assert [t.seconds for t in records] == pytest.approx([w[4] for w in want], rel=1e-12)

    def test_device_memory_is_pinned(self, small_executor):
        y = small_executor.to_device(np.ones((2064, 16)))
        before = small_executor.memory.in_use
        small_executor.solver.geqrf(y)
        assert small_executor.memory.in_use - before == (2064 * 16 + 16 * 16) * 8


# ---------------------------------------------------------------------------
# cuRAND
# ---------------------------------------------------------------------------
class TestRand:
    def test_standard_normal_statistics(self, executor):
        arr = executor.rand.standard_normal((20000,), scale=2.0)
        assert abs(float(np.mean(arr.data))) < 0.1
        assert float(np.std(arr.data)) == pytest.approx(2.0, rel=0.05)

    def test_uniform_integers_in_range(self, executor):
        arr = executor.rand.uniform_integers(0, 37, 5000)
        assert arr.data.min() >= 0
        assert arr.data.max() < 37

    def test_rademacher_bool_and_signed(self, executor):
        b = executor.rand.rademacher(1000, as_bool=True)
        assert b.data.dtype == np.bool_
        s = executor.rand.rademacher(1000, as_bool=False)
        assert set(np.unique(s.data)) <= {-1, 1}

    def test_sample_without_replacement_distinct(self, executor):
        arr = executor.rand.sample_without_replacement(100, 50)
        assert len(np.unique(arr.data)) == 50
        with pytest.raises(ValueError):
            executor.rand.sample_without_replacement(10, 11)

    def test_generation_charged_as_rng_kernels(self, executor):
        mark = executor.mark()
        executor.rand.standard_normal((1000, 10))
        records = executor.breakdown_since(mark).records
        assert any(r.name == "curand_normal" for r in records)
        assert executor.breakdown_since(mark).phase_seconds("Sketch gen") > 0

    def test_explicit_generator_overrides_executor_stream(self, executor):
        g1 = np.random.Generator(np.random.Philox(99))
        g2 = np.random.Generator(np.random.Philox(99))
        a = executor.rand.standard_normal((100,), generator=g1)
        b = executor.rand.standard_normal((100,), generator=g2)
        np.testing.assert_array_equal(a.data, b.data)

    def test_analytic_generation_charges_time_without_data(self, analytic_executor):
        arr = analytic_executor.rand.standard_normal((512, 4096))
        assert not arr.is_numeric
        assert analytic_executor.elapsed > 0
