"""The solve path's host passes: the probe's kept sketch and the blocked Gram pass.

* The spectrum probe takes its first-stage CountSketch from
  :func:`repro.core.multisketch.first_stage_sketch`, which keeps a few seeded
  sketches instead of redrawing one per call.  Its product and its
  ``(sigma_max, sigma_min)`` must be those of a freshly drawn sketch, bit for
  bit.
* The normal equations and ridge's normal equations form ``A^T A`` and
  ``A^T B`` in one blocked pass (``SimSolver.normal_equations_system``).
  The values must be the separate BLAS calls' (bit for bit within one
  block, within rounding above it), and the simulated launches and memory
  accounting must not move: they are pinned here from the separate calls.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro.core.multisketch as multisketch
import repro.gpu.solver as solver_module
from repro.core.countsketch import CountSketch
from repro.core.multisketch import count_gauss, first_stage_dim, first_stage_sketch
from repro.gpu.executor import GPUExecutor
from repro.linalg.conditioning import _singular_values, estimate_spectrum_bounds
from repro.linalg.lstsq import normal_equations
from repro.problems.ridge import ridge_normal_equations

N = 16
#: Block bytes that make the pass use 64-row blocks at N = 16 float64 columns.
SMALL_BLOCK_BYTES = 64 * N * 8
LAM = 0.5


class TestProbeSketch:
    D = 4096

    def test_probe_matches_a_fresh_sketch_and_count_gauss_stage_zero(self, rng):
        a = rng.standard_normal((self.D, N))
        k = first_stage_dim(self.D, N)
        first = estimate_spectrum_bounds(a, seed=7)
        kept = estimate_spectrum_bounds(a, seed=7)  # the sketch comes from the memo now
        fresh = CountSketch(self.D, k, seed=7).host_product(a).y
        stage0 = count_gauss(self.D, N, seed=7).stages[0].host_product(a).y
        svals = _singular_values(fresh)
        for bounds in (first, kept):
            assert np.array_equal(bounds.first_stage.y, fresh)
            assert np.array_equal(bounds.first_stage.y, stage0)
            assert tuple(bounds) == (float(svals.max()), float(svals.min()))
            assert bounds.first_stage.key == CountSketch(self.D, k, seed=7).cache_key()

    def test_a_seeded_sketch_is_kept_and_drawn_once(self):
        k = first_stage_dim(self.D, N)
        sketch = first_stage_sketch(self.D, k, 11)
        assert sketch.is_generated
        assert first_stage_sketch(self.D, k, 11) is sketch

    def test_the_memo_stays_within_its_bound(self):
        k = first_stage_dim(self.D, N)
        limit = multisketch._FIRST_STAGE_SKETCHES
        kept = multisketch._seeded_first_stage_sketch
        for seed in range(100, 100 + 3 * limit):
            first_stage_sketch(self.D, k, seed)
            assert kept.cache_info().currsize <= limit
        assert kept.cache_info().maxsize == limit

    def test_seedless_sketches_are_drawn_fresh_and_not_kept(self, rng):
        k = first_stage_dim(self.D, N)
        before = multisketch._seeded_first_stage_sketch.cache_info()
        one, two = first_stage_sketch(self.D, k, None), first_stage_sketch(self.D, k, None)
        assert one is not two and one.is_generated and two.is_generated
        estimate_spectrum_bounds(rng.standard_normal((self.D, N)), seed=None)
        assert multisketch._seeded_first_stage_sketch.cache_info() == before


def _system(executor, a, b, lam):
    """``(G, A^T B)`` through the fused pass, as NE (``lam=None``) or ridge NE forms them."""
    gram, atb = executor.solver.normal_equations_system(
        executor.place_readonly(a), executor.place_readonly(b), shift=lam
    )
    return gram.data, atb.data


def _separate(a, b, lam):
    """``(G, A^T B)`` from the separate BLAS calls the solvers made before the fused pass."""
    ex = GPUExecutor(numeric=True, seed=0, track_memory=False)
    a_dev, b_dev = ex.place_readonly(a), ex.place_readonly(b)
    gram = ex.blas.gram(a_dev).data
    if lam:
        gram[np.arange(a.shape[1]), np.arange(a.shape[1])] += lam
    if b.ndim == 2:
        return gram, ex.blas.gemm(a_dev, b_dev, trans_a=True).data
    return gram, ex.blas.gemv(a_dev, b_dev, trans_a=True).data


class TestNormalEquationsValues:
    @pytest.mark.parametrize("lam", [None, 0.0, LAM])
    @pytest.mark.parametrize("nrhs", [0, 3])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bit_identical_to_the_separate_calls_within_one_block(self, executor, rng, lam, nrhs, dtype):
        a = rng.standard_normal((300, N)).astype(dtype)
        b = rng.standard_normal((300, nrhs) if nrhs else 300)
        gram, atb = _system(executor, a, b, lam)
        g_ref, z_ref = _separate(a, b, lam)
        assert gram.dtype == g_ref.dtype and atb.dtype == z_ref.dtype
        assert np.array_equal(gram, g_ref) and np.array_equal(atb, z_ref)

    @pytest.mark.parametrize("lam", [None, LAM])
    @pytest.mark.parametrize("nrhs", [0, 3])
    @pytest.mark.parametrize("d", [256, 300])
    def test_within_rounding_across_blocks(self, executor, rng, monkeypatch, lam, nrhs, d):
        monkeypatch.setattr(solver_module, "_PRECONDITION_BLOCK_BYTES", SMALL_BLOCK_BYTES)
        a = rng.standard_normal((d, N))
        b = rng.standard_normal((d, nrhs) if nrhs else d)
        gram, atb = _system(executor, a, b, lam)
        g_ref, z_ref = _separate(a, b, lam)
        np.testing.assert_allclose(gram, g_ref, rtol=1e-13, atol=1e-13 * np.abs(g_ref).max())
        np.testing.assert_allclose(atb, z_ref, rtol=1e-13, atol=1e-13 * np.abs(z_ref).max())

    def test_within_rounding_at_the_shipped_block_size(self, executor, rng):
        rows = solver_module._PRECONDITION_BLOCK_BYTES // (N * 8)
        a = rng.standard_normal((2 * rows + 5, N))
        b = rng.standard_normal(a.shape[0])
        gram, atb = _system(executor, a, b, None)
        g_ref, z_ref = _separate(a, b, None)
        np.testing.assert_allclose(gram, g_ref, rtol=1e-13, atol=1e-13 * np.abs(g_ref).max())
        np.testing.assert_allclose(atb, z_ref, rtol=1e-13, atol=1e-13 * np.abs(z_ref).max())

    @pytest.mark.parametrize("layout", ["F", "strided"])
    def test_any_input_layout(self, executor, rng, layout):
        a = rng.standard_normal((600, N))
        a = np.asfortranarray(a) if layout == "F" else np.repeat(a, 2, axis=0)[::2]
        b = rng.standard_normal(600)
        gram, atb = _system(executor, a, b, None)
        g_ref, z_ref = _separate(np.ascontiguousarray(a), b, None)
        np.testing.assert_allclose(gram, g_ref, rtol=1e-13, atol=1e-13 * np.abs(g_ref).max())
        np.testing.assert_allclose(atb, z_ref, rtol=1e-13, atol=1e-13 * np.abs(z_ref).max())


#: Launch records (name, phase, flops, bytes_moved) and the tracker's
#: ``in_use`` growth of a 3000 x 24 solve, pinned from the separate Gram and
#: ``A^T b`` BLAS calls; ridge adds its diagonal shift between them.
_NE_TAIL = {
    ("float64", 0): [
        ("gemv", "AT*b", 144000.0, 600192.0),
        ("potrf", "POTRF", 4608.0, 9216.0),
    ] + [("trsv", "TRSV", 576.0, 2688.0)] * 2,
    ("float64", 3): [
        ("gemm", "AT*b", 432000.0, 648576.0),
        ("potrf", "POTRF", 4608.0, 9216.0),
    ] + [("trsm_left", "TRSV", 1728.0, 3456.0)] * 2,
    ("float32", 0): [
        ("gemv", "AT*b", 144000.0, 300096.0),
        ("potrf", "POTRF", 4608.0, 4608.0),
    ] + [("trsv", "TRSV", 576.0, 1344.0)] * 2,
}
_GRAM = {
    "float64": ("gemm", "Gram matrix", 3456000.0, 1156608.0),
    "float32": ("gemm", "Gram matrix", 3456000.0, 578304.0),
}
_SHIFT = ("ridge_diag_shift", "Gram matrix", 24.0, 384.0)
_IN_USE = {("float64", 0): 609792.0, ("float64", 3): 658944.0, ("float32", 0): 316896.0}
SOLVERS = {
    "normal_equations": lambda a, b, ex: normal_equations(a, b, executor=ex),
    "ridge_normal_equations": lambda a, b, ex: ridge_normal_equations(a, b, LAM, executor=ex),
}


def _pinned(solver, dtype, nrhs):
    middle = [_SHIFT] if solver == "ridge_normal_equations" else []
    return [_GRAM[dtype]] + middle + _NE_TAIL[(dtype, nrhs)]


def _records(result):
    return [(r.name, r.phase, r.flops, r.bytes_moved) for r in result.breakdown.records]


class TestCharges:
    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    @pytest.mark.parametrize("dtype, nrhs", sorted(_NE_TAIL))
    def test_records_and_memory_match_the_separate_calls(self, solver, dtype, nrhs):
        rng = np.random.default_rng(0)
        ex = GPUExecutor(numeric=True, seed=0)
        a = rng.standard_normal((3000, 24)).astype(dtype)
        b = rng.standard_normal((3000, nrhs) if nrhs else 3000)
        before = ex.memory.in_use
        result = SOLVERS[solver](a, b, ex)
        assert not result.failed
        assert _records(result) == _pinned(solver, dtype, nrhs)
        assert ex.memory.in_use - before == _IN_USE[(dtype, nrhs)]
        assert ex.memory.peak == _IN_USE[(dtype, nrhs)]

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    @pytest.mark.parametrize("dtype, nrhs", sorted(_NE_TAIL))
    def test_analytic_mode_charges_the_same(self, solver, dtype, nrhs):
        ex = GPUExecutor(numeric=False, seed=0)
        a = ex.empty((3000, 24), dtype=dtype)
        b = ex.empty((3000, nrhs) if nrhs else (3000,))
        before = ex.memory.in_use
        result = SOLVERS[solver](a, b, ex)
        assert result.x is None
        assert _records(result) == _pinned(solver, dtype, nrhs)
        assert ex.memory.in_use - before == _IN_USE[(dtype, nrhs)] - a.nbytes - b.nbytes


class TestNonFiniteInput:
    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    @pytest.mark.parametrize("nrhs", [0, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("blocks", ["one", "many"])
    def test_non_finite_a_raises_as_before_without_a_warning(self, monkeypatch, solver, nrhs, bad, blocks):
        """As with the separate calls, POTRF passes the non-finite Gram on and TRSV refuses it."""
        if blocks == "many":
            monkeypatch.setattr(solver_module, "_PRECONDITION_BLOCK_BYTES", SMALL_BLOCK_BYTES)
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3000, N))
        a[100, 3] = bad
        a[2900, 3] = -bad
        b = rng.standard_normal((3000, nrhs) if nrhs else 3000)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="infs or NaNs"):
                SOLVERS[solver](a, b, GPUExecutor(numeric=True, seed=0, track_memory=False))


class TestTrmmPreconditioning:
    def test_single_precision_pass_stays_single_and_preconditions(self, executor, rng):
        """Both operands float32: the pass multiplies by ``R^{-1}`` with ``strmm``."""
        a = rng.standard_normal((700, N)).astype(np.float32)
        r = (np.triu(rng.standard_normal((N, N))) + N * np.eye(N)).astype(np.float32)
        b = rng.standard_normal(700)
        _, gram, z = executor.solver.precondition_gram(
            executor.place_readonly(a), executor.to_device(r), executor.place_readonly(b)
        )
        a0 = a.astype(np.float64) @ np.linalg.inv(r.astype(np.float64))
        assert gram.data.dtype == np.float32
        np.testing.assert_allclose(gram.data, a0.T @ a0, rtol=1e-4, atol=1e-4)
        np.testing.assert_allclose(z, a0.T @ b, rtol=1e-4, atol=1e-4)
