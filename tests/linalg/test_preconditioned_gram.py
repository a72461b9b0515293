"""rand_cholQR's blocked preconditioning pass (``SimSolver.precondition_gram``).

The pass forms ``G = A0^T A0`` and ``Z = A0^T B`` for ``A0 = A R0^{-1}`` one
row block at a time, with ``R0``'s ``trtri`` inverse, and never holds
``A0``.  These tests pin its values against the TRSM path within rounding,
rand_cholQR's accuracy against that path on ill-conditioned problems, the
checks ``SimSolver.trsm`` makes, and the simulated charges and memory
accounting, which must not move.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg as sla

import repro.gpu.solver as solver_module
from repro.core.multisketch import count_gauss
from repro.gpu.arrays import DeviceArray
from repro.gpu.executor import GPUExecutor
from repro.linalg.conditioning import matrix_with_condition
from repro.linalg.lstsq import LeastSquaresResult, _residuals, _to_device
from repro.linalg.rand_cholqr import rand_cholqr_lstsq

N = 16
#: Block bytes that make the pass use 64-row blocks at N = 16 float64 columns.
SMALL_BLOCK_BYTES = 64 * N * 8


def _operands(rng, d, n=N):
    a = rng.standard_normal((d, n))
    r = np.triu(rng.standard_normal((n, n))) + n * np.eye(n)
    return a, r


def _trsm_reference(a, r, b):
    a0 = sla.solve_triangular(r, a.T, lower=False, trans="T").T
    return a0.T @ a0, a0.T @ b


def _layout(a, layout):
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "strided":
        a = np.repeat(a, 2, axis=0)[::2]
        assert not (a.flags.c_contiguous or a.flags.f_contiguous)
    return a


def _trsm_path_lstsq(a, b, sketch) -> LeastSquaresResult:
    """Algorithm 5 through ``SimSolver.trsm`` and a materialised ``A0``."""
    ex = sketch.executor
    a_dev, b_dev = _to_device(ex, a, "A"), _to_device(ex, b, "b")
    sketch.generate()
    factors = ex.solver.geqrf(sketch.apply(a_dev))
    a0 = ex.solver.trsm(a_dev, factors.r)
    r1 = ex.solver.potrf(ex.blas.gram(a0))
    z = ex.blas.gemv(a0, b_dev, trans_a=True)
    w = ex.solver.trsv(r1, ex.solver.trsv(r1, z, transpose=True))
    x = ex.solver.trsv(factors.r, w)
    res, rel, x_host, _ = _residuals(ex, a_dev, b_dev, x)
    return LeastSquaresResult("trsm_path", x_host, res, rel, ex.breakdown(), 0.0)


class TestValues:
    @pytest.mark.parametrize("nrhs", [0, 3])
    @pytest.mark.parametrize("d", [256, 300, 40])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_matches_trsm_path_across_blocks(self, executor, rng, monkeypatch, layout, d, nrhs):
        """64-row blocks: d a multiple of them, not a multiple, and below one block."""
        monkeypatch.setattr(solver_module, "_PRECONDITION_BLOCK_BYTES", SMALL_BLOCK_BYTES)
        a, r_np = _operands(rng, d)
        a = _layout(a, layout)
        b = rng.standard_normal((d, nrhs) if nrhs else d)
        a_dev = DeviceArray(a.shape, a.dtype, "C", a, "A", None, executor)
        a0, gram, z = executor.solver.precondition_gram(
            a_dev, executor.to_device(r_np), executor.place_readonly(b)
        )
        g_ref, z_ref = _trsm_reference(a, r_np, b)
        np.testing.assert_allclose(gram.data, g_ref, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(z, z_ref, rtol=1e-12, atol=1e-13)
        assert z.shape == z_ref.shape
        assert not a0.is_numeric and a0.shape == a.shape

    def test_matches_trsm_path_at_the_shipped_block_size(self, executor, rng):
        rows = solver_module._PRECONDITION_BLOCK_BYTES // (N * 8)
        a, r_np = _operands(rng, 2 * rows + 5)
        b = rng.standard_normal(a.shape[0])
        _, gram, z = executor.solver.precondition_gram(
            executor.place_readonly(a), executor.to_device(r_np), executor.place_readonly(b)
        )
        g_ref, z_ref = _trsm_reference(a, r_np, b)
        np.testing.assert_allclose(gram.data, g_ref, rtol=1e-12)
        np.testing.assert_allclose(z, z_ref, rtol=1e-11, atol=1e-12)

    def test_strictly_lower_part_of_r_is_ignored(self, executor, rng):
        """As in LAPACK ``trtrs``: only ``R``'s upper triangle is read."""
        a, r_np = _operands(rng, 300)
        b = rng.standard_normal(300)
        dirty = r_np + np.tril(rng.standard_normal((N, N)), -1)
        _, gram, z = executor.solver.precondition_gram(
            executor.to_device(a), executor.to_device(dirty), executor.to_device(b)
        )
        g_ref, z_ref = _trsm_reference(a, r_np, b)
        np.testing.assert_allclose(gram.data, g_ref, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(z, z_ref, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_input_is_never_written(self, executor, rng, layout):
        a, r_np = _operands(rng, 300)
        a = _layout(a, layout)
        b = rng.standard_normal((300, 2))
        before_a, before_b, before_r = a.copy(), b.copy(), r_np.copy()
        a_dev, b_dev = executor.place_readonly(a), executor.place_readonly(b)
        r = executor.to_device(r_np)
        executor.solver.precondition_gram(a_dev, r, b_dev)
        rand_cholqr_lstsq(a, b, count_gauss(300, N, executor=executor, seed=1))
        assert np.array_equal(a, before_a) and np.array_equal(b, before_b)
        assert np.array_equal(r.data, before_r)

    def test_float32_a_is_cast_into_the_handles(self, executor, rng):
        a, r_np = _operands(rng, 500)
        a32 = a.astype(np.float32)
        b = rng.standard_normal(500)
        _, gram, z = executor.solver.precondition_gram(
            executor.place_readonly(a32), executor.to_device(r_np), executor.place_readonly(b)
        )
        assert gram.data.dtype == np.float32
        g_ref, z_ref = _trsm_reference(a32.astype(np.float64), r_np, b)
        np.testing.assert_allclose(gram.data, g_ref, rtol=1e-6)
        np.testing.assert_allclose(z, z_ref, rtol=1e-10, atol=1e-12)


class TestAccuracy:
    @pytest.mark.parametrize("profile", ["geometric", "cluster"])
    @pytest.mark.parametrize("cond", [1e8, 1e12, 1e14])
    def test_residual_ratio_tracks_the_trsm_path(self, cond, profile):
        """Both paths stay at the least-squares optimum's level; they differ at rounding level.

        The optimum is ``||b - Q Q^T b||`` from a Householder QR: numpy's
        ``lstsq`` truncates singular values below ``max(d, n) eps sigma_max``,
        so at kappa = 1e14 it is not the optimum.  There each path's ratio
        moves by ~2e-6 between one and two BLAS threads (rounding amplified
        by kappa), so the bound is 1e-5; below it, 1e-6.
        """
        d, n = 16384, 64
        a = matrix_with_condition(d, n, cond, profile=profile, seed=11)
        rng = np.random.default_rng(12)
        b = a @ rng.standard_normal(n) + rng.standard_normal(d)
        q, _ = np.linalg.qr(a)
        optimal = np.linalg.norm(b - q @ (q.T @ b))

        def ratio(solve):
            ex = GPUExecutor(numeric=True, seed=0, track_memory=False)
            result = solve(a, b, count_gauss(d, n, executor=ex, seed=5))
            assert not result.failed
            return result.residual_norm / optimal

        blocked, reference = ratio(rand_cholqr_lstsq), ratio(_trsm_path_lstsq)
        tol = 1e-5 if cond > 1e12 else 1e-6
        assert abs(blocked - reference) <= tol
        assert abs(blocked - 1.0) <= tol and abs(reference - 1.0) <= tol


class TestChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("operand", ["A", "R", "R diagonal", "B"])
    def test_non_finite_operand_raises_value_error(self, executor, rng, bad, operand):
        """An infinite diagonal entry of ``R`` alone leaves ``R^{-1}``, ``G`` and ``Z`` finite."""
        a, r_np = _operands(rng, 300)
        b = rng.standard_normal(300)
        if operand == "A":
            a[123, 5] = bad
        elif operand == "R":
            r_np[7, 9] = bad
        elif operand == "R diagonal":
            r_np[7, 7] = bad
        else:
            b[123] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            executor.solver.precondition_gram(
                executor.to_device(a), executor.to_device(r_np), executor.to_device(b)
            )

    def test_non_finite_a_raises_through_rand_cholqr_lstsq(self, executor, rng):
        a = rng.standard_normal((2048, 8))
        a[1000, 3] = np.inf
        with pytest.raises(ValueError, match="infs or NaNs"):
            rand_cholqr_lstsq(a, rng.standard_normal(2048), count_gauss(2048, 8, executor=executor, seed=2))

    def test_zero_diagonal_raises_linalg_error(self, executor, rng):
        a, r_np = _operands(rng, 300)
        r_np[6, 6] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match=r"singular matrix: resolution failed at diagonal 6$"):
            executor.solver.precondition_gram(
                executor.to_device(a), executor.to_device(r_np), executor.to_device(a[:, 0])
            )

    def test_zero_diagonal_fails_rand_cholqr_lstsq_after_the_trsm_charge(self, executor, rng):
        a = rng.standard_normal((2048, 8))
        a[:, 5] = 0.0
        sketch = count_gauss(2048, 8, executor=executor, seed=2)
        result = rand_cholqr_lstsq(a, rng.standard_normal(2048), sketch)
        assert result.failed
        assert result.failure_reason.startswith("rand_cholQR breakdown: singular matrix")
        assert [r.name for r in result.breakdown.records][-2:] == ["geqrf", "trsm"]


#: Launch records (name, phase, flops, bytes_moved) and the tracker's
#: ``in_use`` growth of a 3000 x 24 rand_cholQR solve, pinned from the TRSM
#: path that materialised ``A0``.
_SKETCH_AND_QR = [
    ("countsketch_atomic", "Matrix sketch", 72000.0, 1167000.0),
    ("gemm", "Matrix sketch", 2654208.0, 672768.0),
    ("transpose", "Matrix sketch", 0.0, 18432.0),
    ("geqrf", "GEQRF", 46080.0, 23040.0),
]
PINNED = {
    ("float64", 0): (1439424.0, _SKETCH_AND_QR + [
        ("trsm", "TRSM", 1728000.0, 1156608.0),
        ("gemm", "Gram matrix", 3456000.0, 1156608.0),
        ("potrf", "POTRF", 4608.0, 9216.0),
        ("gemv", "AT*b", 144000.0, 600192.0),
    ] + [("trsv", "TRSV", 576.0, 2688.0)] * 3),
    ("float64", 3): (1488960.0, _SKETCH_AND_QR + [
        ("trsm", "TRSM", 1728000.0, 1156608.0),
        ("gemm", "Gram matrix", 3456000.0, 1156608.0),
        ("potrf", "POTRF", 4608.0, 9216.0),
        ("gemm", "AT*b", 432000.0, 648576.0),
    ] + [("trsm_left", "TRSV", 1728.0, 3456.0)] * 3),
    ("float32", 0): (858432.0, _SKETCH_AND_QR + [
        ("trsm", "TRSM", 1728000.0, 578304.0),
        ("gemm", "Gram matrix", 3456000.0, 578304.0),
        ("potrf", "POTRF", 4608.0, 4608.0),
        ("gemv", "AT*b", 144000.0, 300096.0),
    ] + [("trsv", "TRSV", 576.0, 1344.0)] * 3),
}


class TestCharges:
    @pytest.mark.parametrize("dtype, nrhs", sorted(PINNED))
    def test_records_and_memory_match_the_trsm_path(self, dtype, nrhs):
        rng = np.random.default_rng(0)
        ex = GPUExecutor(numeric=True, seed=0)
        a = rng.standard_normal((3000, 24)).astype(dtype)
        b = rng.standard_normal((3000, nrhs) if nrhs else 3000)
        sketch = count_gauss(3000, 24, executor=ex, seed=1)
        sketch.generate()
        before = ex.memory.in_use
        result = rand_cholqr_lstsq(a, b, sketch)
        in_use, records = PINNED[(dtype, nrhs)]
        assert not result.failed
        assert ex.memory.in_use - before == in_use
        assert [(r.name, r.phase, r.flops, r.bytes_moved) for r in result.breakdown.records] == records
        assert "A_preconditioned" in [alloc.label for alloc in ex.memory.live_allocations()]

    def test_analytic_mode_charges_the_same(self, analytic_executor):
        numeric = GPUExecutor(numeric=True, seed=0, track_memory=False)
        a = np.random.default_rng(0).standard_normal((3000, 24))
        expected = rand_cholqr_lstsq(a, a[:, 0], count_gauss(3000, 24, executor=numeric, seed=1))
        ex = analytic_executor
        result = rand_cholqr_lstsq(
            ex.empty((3000, 24)), ex.empty((3000,)), count_gauss(3000, 24, executor=ex, seed=1)
        )
        assert result.x is None
        assert [(r.name, r.phase, r.flops, r.bytes_moved) for r in result.breakdown.records] == [
            (r.name, r.phase, r.flops, r.bytes_moved) for r in expected.breakdown.records
        ]
