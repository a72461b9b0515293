"""Wall-clock microbenchmarks of the numeric kernels (pytest-benchmark).

These measure the *actual* CPU execution time of the NumPy/SciPy kernels this
reproduction runs (not the simulated H100 time), so regressions in the
numeric implementations are visible.  The relative ordering mirrors the
paper's complexity table: the CountSketch touches each entry once, the
Gaussian sketch does O(d n k) work, and the FWHT-based SRHT sits in between.
"""

import numpy as np
import pytest

from repro.core.countsketch import CountSketch, StreamingCountSketch
from repro.core.fwht import fwht_matrix
from repro.core.gaussian import GaussianSketch
from repro.core.multisketch import count_gauss
from repro.core.srht import SRHT
from repro.durability.codec import decode_record
from repro.durability.session import FREQUENCY_SESSION_KIND, serialize_frequency_session
from repro.gpu.executor import GPUExecutor
from repro.linalg.conditioning import estimate_spectrum_bounds
from repro.problems.frequency import build_frequency_sketch, plan_frequency_sketch
from repro.serving import SketchServer
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
    """The planner's probe at the benchmark's tall shape: one first-stage
    CountSketch to 2 n^2 = 8192 rows plus its blocked R reduction."""
    a = np.random.default_rng(6).standard_normal((1 << 16, 64))
    bounds = benchmark(estimate_spectrum_bounds, a, seed=0)
    assert bounds.first_stage.y.shape == (8192, 64)
    assert bounds[0] >= bounds[1] > 0


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


def test_wallclock_frequency_checkpoint_encode(benchmark, item_batch, executor):
    plan, sketch = _frequency_sketch(executor)
    sketch.update(item_batch)
    blob = benchmark(serialize_frequency_session, sketch, plan, 5, {"durable_seq": 1})
    assert decode_record(blob).kind == FREQUENCY_SESSION_KIND
