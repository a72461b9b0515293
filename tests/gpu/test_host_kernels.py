"""The simulated device's host kernels are scipy's kernels without scipy's wrappers.

The CountSketch product runs scipy's compiled CSC kernel straight into its
output, the triangular solves call LAPACK ``trtrs`` without
``scipy.linalg.solve_triangular``'s wrapper, and GEQRF/ORMQR/ORGQR reuse
their workspace sizes.  Each must give scipy's own result bit for bit and
fail with scipy's own error.  The digests below were recorded from the
implementation that called scipy's wrappers; a fused batch, each routed
``solve_tall`` request and every registered solver must still reproduce
them, along with the fused batch's kernel launches and memory accounting.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import repro.core.countsketch as countsketch
from repro.core.countsketch import CountSketch, StreamingCountSketch
from repro.gpu.executor import GPUExecutor
from repro.gpu.solver import QRFactors, _solve_triangular
from repro.linalg import registry
from repro.linalg.conditioning import matrix_with_condition
from repro.linalg.lstsq import sketch_and_solve
from repro.serving import SketchServer
from repro.serving.cache import build_operator, resolve_embedding_dim


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _bits_equal(mine: np.ndarray, ref: np.ndarray) -> None:
    assert mine.dtype == ref.dtype and mine.shape == ref.shape
    assert mine.tobytes() == np.ascontiguousarray(ref).tobytes()


@pytest.fixture
def executor():
    return GPUExecutor(numeric=True, seed=0, track_memory=False)


# ---------------------------------------------------------------------------
# CountSketch: the CSC kernel, straight into the output
# ---------------------------------------------------------------------------
def _input(shape, dtype, order, seed=0):
    return np.asarray(np.random.default_rng(seed).standard_normal(shape), dtype=dtype, order=order)


@pytest.fixture(params=["kernel", "fallback"])
def kernel_path(request, monkeypatch):
    """Run with scipy's compiled CSC kernels, or as if they failed to import."""
    if request.param == "fallback":
        monkeypatch.setattr(countsketch, "_csc_matvec", None)
        monkeypatch.setattr(countsketch, "_csc_matvecs", None)
    return request.param


class TestCountSketchProduct:
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("cols", [1, 5])
    def test_matrix_apply_is_scipys_product(self, executor, kernel_path, dtype, order, cols):
        sketch = CountSketch(3000, 40, executor=executor, seed=1, dtype=dtype).generate()
        a = _input((3000, cols), dtype, order)
        reference = sketch._numeric_matrix @ a  # scipy sums float16 in float32
        _bits_equal(sketch._multiply(a), reference)
        y = sketch.apply(executor.place_readonly(a, label="A"))
        _bits_equal(y.data, reference.astype(dtype))
        assert y.data.flags.c_contiguous and y.data.flags.writeable

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_vector_apply_is_scipys_product(self, executor, kernel_path, dtype):
        sketch = CountSketch(3000, 40, executor=executor, seed=2, dtype=dtype).generate()
        b = _input(3000, dtype, "C", seed=3)
        out = sketch.apply_vector(executor.place_readonly(b, label="b"))
        _bits_equal(out.data, (sketch._numeric_matrix @ b).astype(dtype))

    @pytest.mark.parametrize("sketch_dtype, input_dtype", [(np.float64, np.float32), (np.float32, np.float64)])
    def test_mixed_dtypes_take_scipys_upcast(self, executor, kernel_path, sketch_dtype, input_dtype):
        sketch = CountSketch(200, 30, executor=executor, seed=4, dtype=sketch_dtype).generate()
        a = _input((200, 3), input_dtype, "C")
        reference = sketch._numeric_matrix @ a
        _bits_equal(sketch._multiply(a), reference)
        y = sketch.apply(executor.place_readonly(a, label="A"))
        _bits_equal(y.data, reference.astype(sketch_dtype))

    def test_the_apply_is_accounted_as_one_output_allocation(self):
        ex = GPUExecutor(numeric=True, seed=0)
        sketch = CountSketch(300, 40, executor=ex, seed=1).generate()
        a = ex.place_readonly(_input((300, 4), np.float64, "C"), label="A")
        before = ex.memory.in_use
        y = sketch.apply(a)
        assert ex.memory.in_use - before == 40 * 4 * 8
        assert ex.memory.live_allocations()[-1].label == "countsketch_out"
        y.free()
        assert ex.memory.in_use == before

    def test_host_product_matches_the_spmm_variant(self, executor, kernel_path):
        atomic = CountSketch(300, 40, executor=executor, seed=5).generate()
        spmm = CountSketch(300, 40, variant="spmm", executor=executor, seed=5).generate()
        a = _input((300, 6), np.float64, "C")
        _bits_equal(spmm.host_product(a).y, atomic._numeric_matrix @ a)
        _bits_equal(spmm.apply(executor.place_readonly(a, label="A")).data, atomic.host_product(a).y)


class TestStreamingUpdate:
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("cols", [1, 4])
    def test_update_equals_a_signed_scatter(self, executor, kernel_path, dtype, cols):
        sketch = StreamingCountSketch(1 << 20, 64, executor=executor, seed=7, dtype=dtype)
        sketch.begin(cols)
        idx = np.random.default_rng(1).integers(0, 1 << 20, 500)
        rows = _input((500, cols), dtype, "C", seed=2)
        sketch.update(idx, rows)
        targets, signs = sketch.row_map_and_signs(idx)
        expected = np.zeros((64, cols), dtype=dtype)
        np.add.at(expected, targets, np.where(signs[:, None], rows, -rows))
        _bits_equal(sketch.snapshot(), expected)
        if dtype != np.float16:  # scipy's sparse kernels have no float16 loop
            csc = sp.csc_matrix(
                (np.where(signs, 1.0, -1.0).astype(dtype), targets, np.arange(501)), shape=(64, 500)
            )
            _bits_equal(sketch.snapshot(), csc @ rows)


# ---------------------------------------------------------------------------
# Triangular solves: LAPACK trtrs without scipy's wrapper
# ---------------------------------------------------------------------------
def _triangular(n, lower, order, seed=0):
    m = np.random.default_rng(seed).standard_normal((n, n)) + 4.0 * np.eye(n)
    m = np.tril(m) if lower else np.triu(m)
    return np.asarray(m, order=order)


class TestTriangularSolve:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("lower", [False, True])
    @pytest.mark.parametrize("trans", [0, 1, "N", "T"])
    @pytest.mark.parametrize("rhs", [(12,), (12, 5), "F"])
    def test_equals_solve_triangular(self, order, lower, trans, rhs):
        r = _triangular(12, lower, order)
        b = _input((12, 5), np.float64, "F", seed=1) if rhs == "F" else _input(rhs, np.float64, "C", seed=1)
        _bits_equal(
            _solve_triangular(r, b, lower=lower, trans=trans),
            sla.solve_triangular(r, b, lower=lower, trans=trans),
        )

    def test_in_place_transposed_solve_equals_solve_triangular(self):
        r = _triangular(8, False, "C")
        z = _input((40, 8), np.float64, "C", seed=2)
        expected = sla.solve_triangular(r, z.T.copy(), lower=False, trans="T")
        zt = _solve_triangular(r, z.T, lower=False, trans="T", overwrite_b=True)
        assert np.shares_memory(zt, z)
        _bits_equal(z.T.copy(), expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float32_and_mixed_dtypes(self, dtype):
        r = _triangular(10, False, "C").astype(np.float32)
        b = _input((10, 3), dtype, "C", seed=3)
        _bits_equal(_solve_triangular(r, b), sla.solve_triangular(r, b))

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("lower", [False, True])
    def test_trsv_and_trsm_left_keep_scipys_values(self, executor, transpose, lower):
        r_np = _triangular(16, lower, "C", seed=4)
        r = executor.place_readonly(r_np, label="R")
        b = _input((16, 8), np.float64, "C", seed=5)
        mat = r_np.T if transpose else r_np
        block = executor.solver.trsm_left(r, executor.place_readonly(b, label="B"), lower=lower, transpose=transpose)
        _bits_equal(block.data, sla.solve_triangular(mat, b, lower=lower ^ transpose))
        vec = executor.solver.trsv(r, executor.place_readonly(b[:, 0].copy(), label="b"), lower=lower, transpose=transpose)
        _bits_equal(vec.data, sla.solve_triangular(mat, b[:, 0], lower=lower ^ transpose))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["R", "B"])
    def test_non_finite_input_raises_scipys_value_error(self, bad, where):
        r, b = _triangular(6, False, "C"), _input((6, 2), np.float64, "C")
        (r if where == "R" else b)[2, 1] = bad
        with pytest.raises(ValueError) as theirs:
            sla.solve_triangular(r, b)
        with pytest.raises(ValueError) as mine:
            _solve_triangular(r, b)
        assert str(mine.value) == str(theirs.value) == "array must not contain infs or NaNs"

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("trans", [0, "T"])
    def test_zero_pivot_raises_scipys_lin_alg_error(self, order, trans):
        r = _triangular(6, False, order)
        r[3, 3] = 0.0
        b = _input(6, np.float64, "C")
        with pytest.raises(np.linalg.LinAlgError) as theirs:
            sla.solve_triangular(r, b, trans=trans)
        with pytest.raises(np.linalg.LinAlgError) as mine:
            _solve_triangular(r, b, trans=trans)
        assert str(mine.value) == str(theirs.value) == "singular matrix: resolution failed at diagonal 3"

    def test_simulated_solves_keep_the_failure_types(self, executor):
        r_np = _triangular(6, False, "C")
        r_np[2, 2] = 0.0
        r = executor.place_readonly(r_np, label="R")
        b = executor.place_readonly(_input((6, 3), np.float64, "C"), label="B")
        with pytest.raises(np.linalg.LinAlgError, match="resolution failed at diagonal 2"):
            executor.solver.trsm_left(r, b)
        nan_b = _input((6, 3), np.float64, "C")
        nan_b[0, 0] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            executor.solver.trsm_left(executor.place_readonly(r_np + np.eye(6), label="R"),
                                      executor.place_readonly(nan_b, label="B"))


# ---------------------------------------------------------------------------
# GEQRF / ORMQR / ORGQR: workspace sizes queried once
# ---------------------------------------------------------------------------
class TestWorkspaceReuse:
    def test_repeated_factorisations_equal_a_fresh_lapack_call(self, executor):
        y_np = _input((48, 6), np.float64, "C", seed=9)
        b_np = _input((48, 3), np.float64, "C", seed=10)
        lwork, _ = sla.get_lapack_funcs(("geqrf_lwork",), (y_np,))[0](48, 6)
        qr, tau, _, _ = sla.get_lapack_funcs(("geqrf",), (y_np,))[0](
            np.asfortranarray(y_np), lwork=max(1, int(lwork))
        )
        ormqr = sla.get_lapack_funcs(("ormqr",), (qr,))[0]
        _, work, _ = ormqr("L", "T", qr, tau, np.asfortranarray(b_np), -1)
        qtb, _, _ = ormqr("L", "T", qr, tau, np.asfortranarray(b_np), max(1, int(work[0])))
        for _ in range(3):
            factors = executor.solver.geqrf(executor.place_readonly(y_np, label="Y"))
            _bits_equal(factors.r.data, np.triu(qr[:6]))
            _bits_equal(factors.tau, tau)
            out = executor.solver.ormqr(factors, executor.place_readonly(b_np, label="B"))
            _bits_equal(out.data, qtb[:6])
            assert isinstance(factors, QRFactors)
            q = factors.q.data
            orgqr = sla.get_lapack_funcs(("orgqr",), (qr,))[0]
            _, owork, _ = orgqr(qr, tau, lwork=-1)
            _bits_equal(q, orgqr(qr, tau, lwork=max(1, int(owork[0])))[0])


# ---------------------------------------------------------------------------
# Pinned answers and launches
# ---------------------------------------------------------------------------
def _fused_batch(trace=None):
    """A serve_hot-shaped fused batch: 2048 x 16, 8 F-ordered right-hand sides, on a shard."""
    server = SketchServer(shards=2, max_batch=8)
    ex = server.pool[0]
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2048, 16))
    b = np.asfortranarray(
        np.stack([a @ rng.standard_normal(16) + 0.1 * rng.standard_normal(2048) for _ in range(8)]).T
    )
    op = build_operator(
        "multisketch", 2048, 16, k=resolve_embedding_dim("multisketch", 2048, 16, 2.0),
        executor=ex, seed=0, dtype=np.float64,
    )
    op.generate()
    if trace is not None:
        real = ex.launch

        def launch(request, phase=None):
            trace.append(
                (request.name, request.kclass.value, request.bytes_read, request.bytes_written,
                 request.flops, request.launches, request.syncs, request.dtype_size, request.phase)
            )
            return real(request, phase)

        ex.launch = launch
    mark, peak, in_use = ex.mark(), ex.memory.peak, ex.memory.in_use
    handle = ex.memory._next_handle
    result = sketch_and_solve(a, b, op)
    records = [(r.name, r.seconds, r.phase, r.bytes_moved, r.flops) for r in ex.breakdown_since(mark).records]
    memory = (ex.memory.peak - peak, ex.memory.in_use - in_use, ex.memory._next_handle - handle)
    return result, records, memory


#: Recorded from the implementation built on scipy's wrappers.
FUSED_X_SHA = "7edf37c95ffee478"
FUSED_LAUNCHES = [
    ("countsketch_atomic", "Matrix sketch"),
    ("gemm", "Matrix sketch"),
    ("transpose", "Matrix sketch"),
    ("countsketch_atomic", "Vector sketch"),
    ("gemm", "Vector sketch"),
    ("transpose", "Vector sketch"),
    ("geqrf", "GEQRF"),
    ("ormqr", "ORMQR"),
    ("trsm_left", "TRSV"),
]
FUSED_LAUNCH_SHA = "273b3fdcaaf4a363"
FUSED_RECORD_SHA = "b8d528b1f3846434"
#: Peak and in-use growth (bytes) and tracker handles taken by the batch.
FUSED_MEMORY = "(512000.0, 512000.0, 12)"


def test_fused_batch_answer_and_launches_are_unchanged():
    trace = []
    result, records, memory = _fused_batch(trace)
    assert _sha(result.x)[:16] == FUSED_X_SHA
    assert [(r[0], r[2]) for r in records] == FUSED_LAUNCHES
    assert hashlib.sha256(repr(trace).encode()).hexdigest()[:16] == FUSED_LAUNCH_SHA
    assert hashlib.sha256(repr(records).encode()).hexdigest()[:16] == FUSED_RECORD_SHA
    assert repr(memory) == FUSED_MEMORY


#: Adaptive ``solve_tall`` requests (65536 x 64, built as the workload builds
#: them): the solver each conditioning routes to, and its ``x``'s SHA-256 prefix.
TALL_ROUTES = [
    (1e2, "normal_equations", "8c0d400bb4402fe2"),
    (1e6, "sketch_and_solve", "baaaad7b20bac889"),
    (1e12, "rand_cholqr", "05e80308e4177e69"),
]


def _orthonormal(rows, cols, rng):
    q, r = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q * np.sign(np.diag(r))


def test_each_solve_tall_route_gives_the_same_answer():
    server = SketchServer(policy="adaptive", shards=2)
    u = _orthonormal(1 << 16, 64, np.random.default_rng(3))
    for i, (cond, route, digest) in zip((0, 2, 4), TALL_ROUTES):
        rng = np.random.default_rng([3, 2, i])
        a = (u * np.geomspace(1.0, 1.0 / cond, 64)) @ _orthonormal(64, 64, rng).T
        fit = a @ rng.standard_normal(64)
        g = rng.standard_normal(1 << 16)
        r = g - u @ (u.T @ g)
        r *= 0.1 * np.linalg.norm(fit) / np.linalg.norm(r)
        response = server.solve(a, fit + r)
        assert (response.executed_solver, _sha(response.x)[:16]) == (route, digest)


#: Every registered solver on an 8-RHS batch (2048 x 16, kappa 1e3; ridge lam 0.5).
SOLVER_BATCHES = {
    "normal_equations": "8e69c4adfced4029",
    "sketch_and_solve": "b31f582d1606006c",
    "qr": "35ad3c0306ffdec3",
    "rand_cholqr": "9914ffaadb2446de",
    "sketch_precond_lsqr": "a010064c395c9d64",
    "ridge_normal_equations": "578ec08f0c0b0a11",
    "ridge_precond_lsqr": "13ff0efbb4b1f272",
    "ridge_qr": "b5dab240922ce6df",
}


def test_every_registered_solver_gives_the_same_batch_answer():
    rng = np.random.default_rng(21)
    a = matrix_with_condition(2048, 16, 1e3, seed=21)
    b = a @ rng.standard_normal((16, 8)) + 1e-2 * rng.standard_normal((2048, 8))
    registry.ensure_problem_solvers("ridge")
    got = {}
    for name in registry.available_solvers():
        lam = 0.5 if name.startswith("ridge") else 0.0
        got[name] = _sha(registry.solve(a, b, solver=name, regularization=lam).x)[:16]
    assert got == SOLVER_BATCHES
