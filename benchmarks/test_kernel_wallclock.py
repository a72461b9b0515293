"""Wall-clock microbenchmarks of the numeric kernels (pytest-benchmark).

These measure the *actual* CPU execution time of the NumPy/SciPy kernels this
reproduction runs (not the simulated H100 time), so regressions in the
numeric implementations are visible.  The relative ordering mirrors the
paper's complexity table: the CountSketch touches each entry once, the
Gaussian sketch does O(d n k) work, and the FWHT-based SRHT sits in between.
"""

import numpy as np
import pytest
import scipy.linalg as sla

from repro.core.countsketch import CountSketch, StreamingCountSketch
from repro.core.frequency import FrequencySketch
from repro.core.fwht import fwht_matrix
from repro.core.gaussian import GaussianSketch
from repro.core.multisketch import _seeded_first_stage_sketch, count_gauss
from repro.core.srht import SRHT
from repro.durability.codec import decode_record
from repro.durability.session import FREQUENCY_SESSION_KIND, serialize_frequency_session
from repro.gpu.executor import GPUExecutor
from repro.linalg.conditioning import _singular_values, estimate_spectrum_bounds
from repro.linalg.lstsq import block_residuals, qr_solve, sketch_and_solve
from repro.problems.frequency import build_frequency_sketch, plan_frequency_sketch
from repro.problems.ridge import dense_ridge_reference, ridge_qr
from repro.serving import SketchServer
from repro.serving.cache import build_operator, resolve_embedding_dim
from repro.streaming.state import STREAM_CAPACITY
from repro.workloads.streams import zipf_stream

D, N = 1 << 15, 64

#: A hierarchical frequency sketch over a 2^20-id domain at phi = 0.05
#: (5 levels of 42 x 4800 counters), fed 4096-item Zipf batches.
FREQ_DOMAIN, FREQ_PHI, FREQ_BATCH = 1 << 20, 0.05, 4096


@pytest.fixture(scope="module")
def matrix():
    return np.random.default_rng(0).standard_normal((D, N))


@pytest.fixture()
def executor():
    return GPUExecutor(numeric=True, seed=0, track_memory=False)


def test_wallclock_countsketch_apply(benchmark, matrix, executor):
    sketch = CountSketch(D, 2 * N * N, executor=executor, seed=1)
    sketch.generate()
    result = benchmark(sketch.sketch_host, matrix)
    assert result.shape == (2 * N * N, N)


def test_wallclock_streaming_countsketch_apply(benchmark, matrix, executor):
    sketch = StreamingCountSketch(D, 2 * N * N, executor=executor, seed=1)
    result = benchmark(sketch.sketch_host, matrix)
    assert result.shape == (2 * N * N, N)


def test_wallclock_streaming_countsketch_update(benchmark, executor):
    """One stream-session block: 1024 rows of ``[A | b]`` (33 columns) folded
    into the 2178-row window sketch a 32-column session keeps."""
    rows = np.random.default_rng(8).standard_normal((1024, 33))
    sketch = StreamingCountSketch(STREAM_CAPACITY, 2178, executor=executor, seed=1)
    sketch.begin(33)
    benchmark(sketch.update, np.arange(1024), rows)
    assert sketch.rows_seen >= 1024


def test_wallclock_gaussian_apply(benchmark, matrix, executor):
    sketch = GaussianSketch(D, 2 * N, executor=executor, seed=2)
    sketch.generate()
    result = benchmark(sketch.sketch_host, matrix)
    assert result.shape == (2 * N, N)


def test_wallclock_srht_apply(benchmark, matrix, executor):
    sketch = SRHT(D, 2 * N, executor=executor, seed=3)
    sketch.generate()
    result = benchmark(sketch.sketch_host, matrix)
    assert result.shape == (2 * N, N)


def test_wallclock_multisketch_apply(benchmark, matrix, executor):
    sketch = count_gauss(D, N, executor=executor, seed=4)
    sketch.generate()
    result = benchmark(sketch.sketch_host, matrix)
    assert result.shape == (2 * N, N)


def test_wallclock_fwht(benchmark, matrix):
    padded = np.zeros((1 << 15, N))
    padded[: matrix.shape[0]] = matrix
    result = benchmark(fwht_matrix, padded)
    assert result.shape == padded.shape


def test_wallclock_gram_matrix(benchmark, matrix):
    result = benchmark(lambda: matrix.T @ matrix)
    assert result.shape == (N, N)


def test_wallclock_spectrum_probe(benchmark):
    """The planner's probe at the benchmark's tall shape with its kept sketch:
    one first-stage CountSketch product to 2 n^2 = 8192 rows plus its blocked
    R reduction, the sketch drawn once before timing."""
    a = np.random.default_rng(6).standard_normal((1 << 16, 64))
    estimate_spectrum_bounds(a, seed=0)  # draws and keeps the sketch
    drawn = _seeded_first_stage_sketch.cache_info().misses
    bounds = benchmark(estimate_spectrum_bounds, a, seed=0)
    assert _seeded_first_stage_sketch.cache_info().misses == drawn
    assert bounds.first_stage.y.shape == (8192, 64)
    assert bounds[0] >= bounds[1] > 0


def test_wallclock_spectrum_r_reduction(benchmark):
    """The probe's blocked R reduction alone: ``_singular_values`` of an
    8192 x 64 first-stage sketch (eight 1024-row ``dgeqrt`` blocks)."""
    m = np.random.default_rng(9).standard_normal((8192, 64)) * np.geomspace(1.0, 1e-8, 64)
    svals = benchmark(_singular_values, m)
    np.testing.assert_allclose(svals, np.linalg.svd(m, compute_uv=False), rtol=1e-10)


def test_wallclock_rand_cholqr_trsm(benchmark, executor):
    """rand_cholQR's preconditioning ``A0 = A R0^{-1}`` on a C-order 65536 x 64 matrix."""
    rng = np.random.default_rng(10)
    a = executor.place_readonly(rng.standard_normal((1 << 16, 64)))
    r = executor.to_device(np.triu(rng.standard_normal((64, 64))) + 64 * np.eye(64))
    a0 = benchmark(executor.solver.trsm, a, r)
    assert a0.data.flags.c_contiguous
    np.testing.assert_allclose(a0.data[:512] @ r.data, a.data[:512], atol=1e-12)


def test_wallclock_rand_cholqr_precondition(benchmark, executor):
    """rand_cholQR's blocked pass on a C-order 65536 x 64 matrix: ``trtri`` of
    ``R0``, then ``A0 = A R0^{-1}`` (a TRMM in place), ``A0^T A0`` and
    ``A0^T b`` per row block."""
    rng = np.random.default_rng(14)
    a = executor.place_readonly(rng.standard_normal((1 << 16, 64)))
    b = executor.place_readonly(rng.standard_normal(1 << 16))
    r = executor.to_device(np.triu(rng.standard_normal((64, 64))) + 64 * np.eye(64))
    a0, gram, z = benchmark(executor.solver.precondition_gram, a, r, b)
    assert not a0.is_numeric
    a0_ref = sla.solve_triangular(r.data, a.data.T, trans="T").T
    np.testing.assert_allclose(gram.data, a0_ref.T @ a0_ref, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(z, a0_ref.T @ b.data, rtol=1e-10, atol=1e-10)


def test_wallclock_normal_equations_pass(benchmark, executor):
    """The normal equations' blocked pass on a C-order 65536 x 64 matrix:
    ``A^T A`` and ``A^T b`` from one read of ``A``, charged as the Gram GEMM
    and the ``A^T b`` GEMV."""
    rng = np.random.default_rng(15)
    a = executor.place_readonly(rng.standard_normal((1 << 16, 64)))
    b = executor.place_readonly(rng.standard_normal(1 << 16))
    gram, atb = benchmark(executor.solver.normal_equations_system, a, b)
    np.testing.assert_allclose(gram.data, a.data.T @ a.data, rtol=1e-12, atol=1e-9)
    np.testing.assert_allclose(atb.data, a.data.T @ b.data, rtol=1e-12, atol=1e-9)


def test_wallclock_qr_route(benchmark):
    """The Householder-QR reference solve (GEQRF + ORMQR + TRSV) on 16384 x 64."""
    rng = np.random.default_rng(11)
    a = rng.standard_normal((16384, 64))
    b = a @ np.ones(64) + 0.01 * rng.standard_normal(16384)
    result = benchmark(qr_solve, a, b)
    np.testing.assert_allclose(result.x, np.linalg.lstsq(a, b, rcond=None)[0], rtol=1e-10)


def test_wallclock_ridge_qr(benchmark):
    """``ridge_qr`` on ``[A; sqrt(lam) I]`` for a 2048 x 16 ``A`` and lam = 10."""
    rng = np.random.default_rng(12)
    a = rng.standard_normal((2048, 16))
    b = rng.standard_normal(2048)
    result = benchmark(ridge_qr, a, b, 10.0)
    np.testing.assert_allclose(result.x, dense_ridge_reference(a, b, 10.0), rtol=1e-10)


def test_wallclock_block_residual(benchmark):
    """A fused micro-batch's residual check: 2048 x 16 ``A``, 8 stacked right-hand sides."""
    rng = np.random.default_rng(13)
    a = rng.standard_normal((2048, 16))
    b = np.stack([rng.standard_normal(2048) for _ in range(8)]).T
    x = np.linalg.lstsq(a, b, rcond=None)[0]
    res, rel, columns = benchmark(block_residuals, a, b, x)
    np.testing.assert_allclose(columns, np.linalg.norm(b - a @ x, axis=0) / np.linalg.norm(b, axis=0))
    assert res == pytest.approx(np.linalg.norm(b - a @ x), rel=1e-13)


def test_wallclock_fused_sketch_and_solve(benchmark):
    """One fused micro-batch as a serving shard runs it: a 2048 x 16 ``A`` and
    8 F-ordered right-hand sides through the cached Count-Gauss operator
    (CountSketch, GEMM, transpose, GEQRF, ORMQR, TRSM, block residuals)."""
    rng = np.random.default_rng(14)
    shard = SketchServer(shards=2, max_batch=8).pool[0]
    a = rng.standard_normal((2048, 16))
    b = np.asfortranarray(a @ rng.standard_normal((16, 8)) + 0.1 * rng.standard_normal((2048, 8)))
    operator = build_operator(
        "multisketch", 2048, 16, k=resolve_embedding_dim("multisketch", 2048, 16),
        executor=shard, seed=0,
    )
    operator.generate()
    result = benchmark(sketch_and_solve, a, b, operator)
    assert result.x.shape == (16, 8)
    assert result.column_residuals.max() < 0.5


def test_wallclock_adaptive_solve(benchmark):
    """One adaptive solve end to end (probe, plan, solve) on a fresh 16384 x 32 matrix."""
    rng = np.random.default_rng(7)
    server = SketchServer(policy="adaptive", shards=1, seed=0)
    b = rng.standard_normal(16384)

    def fresh_request():
        return (rng.standard_normal((16384, 32)), b), {}

    response = benchmark.pedantic(server.solve, setup=fresh_request, rounds=5)
    assert response.x.shape == (32,)


@pytest.fixture(scope="module")
def item_batch():
    stream = zipf_stream(FREQ_DOMAIN, total_items=FREQ_BATCH, batch_size=FREQ_BATCH, seed=0)
    return next(iter(stream)).ids


def _frequency_sketch(executor):
    plan = plan_frequency_sketch(FREQ_DOMAIN, FREQ_PHI, need_ranges=True)
    return plan, build_frequency_sketch(plan, executor=executor, seed=5)


def test_wallclock_hierarchical_frequency_update(benchmark, item_batch, executor):
    _, sketch = _frequency_sketch(executor)
    benchmark(sketch.update, item_batch)
    assert sketch.items_seen >= FREQ_BATCH


def test_wallclock_frequency_point_query(benchmark, item_batch, executor):
    """The leaf query a top-k descent runs on the served 42 x 30,000 leaf.

    The plan is the served one at phi = 0.02 (a 42 x 30,000 leaf under
    exact levels); the candidates are the children of every level-1 node
    whose exact count clears ``phi * ||f||_2``, as the descent expands them.
    """
    phi = 0.02
    plan = plan_frequency_sketch(FREQ_DOMAIN, phi, need_ranges=True)
    sketch = build_frequency_sketch(plan, executor=executor, seed=5)
    sketch.update(item_batch)
    leaf, parent = sketch.levels[0], sketch.levels[1]
    assert (leaf.depth, leaf.width) == (42, 30_000)
    heavy = np.flatnonzero(np.abs(parent.counts()) >= phi * leaf.l2_estimate())
    candidates = ((heavy[:, None] << 4) + np.arange(16)).ravel()
    assert candidates.size > 0
    est = benchmark(leaf.point_query, candidates)
    assert est.shape == candidates.shape


def test_wallclock_frequency_l2_estimate(benchmark, item_batch, executor):
    """The sketch energy a top-k reads: one 42 x 30,000 leaf table."""
    sketch = FrequencySketch(FREQ_DOMAIN, 30_000, 42, executor=executor, seed=5)
    sketch.update(item_batch)
    assert benchmark(sketch.l2_estimate) > 0.0


def test_wallclock_frequency_checkpoint_encode(benchmark, item_batch, executor):
    plan, sketch = _frequency_sketch(executor)
    sketch.update(item_batch)
    blob = benchmark(serialize_frequency_session, sketch, plan, 5, {"durable_seq": 1})
    assert decode_record(blob).kind == FREQUENCY_SESSION_KIND
