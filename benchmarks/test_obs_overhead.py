"""Observability acceptance: tracing costs nothing on the simulated clock.

ISSUE 6's acceptance bar: under a mixed load, (a) at least 99% of admitted
requests produce a *complete* span tree, and (b) enabling tracing costs at
most 5% of simulated-clock throughput.  The tracer only *reads* shard
clocks that the executors already advanced, so on the simulated clock the
overhead is zero by construction -- these benchmarks pin that property so a
future change that starts charging device time for instrumentation fails
loudly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import AsyncSketchServer
from repro.serving.server import ServerConfig, SketchServer

pytestmark = pytest.mark.serving


def _drive_sync(tracing: bool, seed: int = 0, n_requests: int = 24):
    """Identical request stream against a fresh server; returns (server, rps)."""
    rng = np.random.default_rng(seed)
    server = SketchServer(
        ServerConfig(shards=2, seed=7, max_batch=8, tracing=tracing)
    )
    for _ in range(n_requests):
        a = rng.standard_normal((384, 16))
        b = rng.standard_normal(384)
        server.submit(a, b)
    server.flush()
    stats = server.stats()
    return server, stats["requests_per_second"], stats["makespan_seconds"]


def test_tracing_overhead_within_five_percent_of_throughput():
    _, rps_off, makespan_off = _drive_sync(tracing=False)
    server_on, rps_on, makespan_on = _drive_sync(tracing=True)
    assert server_on.tracer.traces_completed == 24
    # Identical request stream, identical placement: the simulated clock
    # must not notice the tracer at all (acceptance bar allows 5%).
    assert rps_on >= 0.95 * rps_off
    assert makespan_on == pytest.approx(makespan_off)


def test_mixed_load_span_trees_are_complete_for_admitted_requests():
    rng = np.random.default_rng(1)
    runtime = AsyncSketchServer(shards=2, seed=3, workers=3, queue_depth=128)
    try:
        futures = []
        for _ in range(16):
            a = rng.standard_normal((256, 12))
            futures.append(runtime.submit(a, rng.standard_normal(256)))
        for _ in range(6):
            a = rng.standard_normal((192, 10))
            futures.append(runtime.submit_ridge(a, rng.standard_normal(192), 0.1))
        session = runtime.open_stream(12)
        for _ in range(4):
            rows = rng.standard_normal((96, 12))
            futures.append(runtime.append_rows(session, rows, rng.standard_normal(96)))
        futures.append(runtime.query_solution(session))
        runtime.drain()
        for f in futures:
            assert f.exception() is None

        tracer = runtime.tracer
        admitted = tracer.traces_started
        assert admitted == len(futures)
        complete = sum(1 for root in tracer.traces() if root.is_complete())
        assert tracer.traces_completed == complete
        assert complete >= 0.99 * admitted  # acceptance: >= 99% (here: all)
    finally:
        runtime.stop()


def _drive_runtime_burst(tracing: bool, trace_sample: int = 1, workers: int = 1):
    """One paused mixed-lane burst (solve, ridge, stream) through a 4-shard runtime.

    Returns everything the simulated clock decided: each request's
    ``simulated_seconds`` in admission order, the queue-inclusive lane
    percentiles and the per-shard batch counts.
    """
    rng = np.random.default_rng(5)
    runtime = AsyncSketchServer(
        config=ServerConfig(
            shards=4, seed=11, max_batch=4, tracing=tracing, trace_sample=trace_sample
        ),
        workers=workers,
        queue_depth=64,
    )
    try:
        session = runtime.open_stream(12)
        # Admit the whole burst before dispatching any of it (the
        # perf-trajectory idiom): the load itself is then deterministic, so
        # the only things left that could move the simulated outcome are the
        # configuration knobs under test.
        runtime.pause()
        futures = []
        for i in range(12):
            a = rng.standard_normal((256, 12))
            futures.append(runtime.submit(a, rng.standard_normal(256)))
            if i % 3 == 0:
                a = rng.standard_normal((192, 12))
                futures.append(runtime.submit_ridge(a, rng.standard_normal(192), 0.1))
            if i % 4 == 0:
                rows = rng.standard_normal((96, 12))
                futures.append(runtime.append_rows(session, rows, rng.standard_normal(96)))
        runtime.resume()
        runtime.drain()
        stats = runtime.stats()
        return {
            "simulated_seconds": [f.result().simulated_seconds for f in futures],
            "lanes": {k: v for k, v in stats.items() if k.startswith("lane_")},
            "batches_per_shard": runtime.scheduler.batches_per_shard,
        }
    finally:
        runtime.stop()


def test_runtime_tracing_leaves_simulated_latencies_unchanged():
    """Same burst with tracing on/off: identical simulated outcome."""
    assert _drive_runtime_burst(True) == _drive_runtime_burst(False)


def test_runtime_latencies_invariant_across_tracing_and_sampling_configs():
    """One dispatcher over a paused burst: the simulated outcome is a function
    of the load and the seed, never of the wall-clock submitter/dispatcher
    race that observability configuration could shift.

    Every observability configuration -- tracing off, unsampled tracing,
    and 1-in-N head sampling -- must yield bit-identical latencies, and
    repeat runs of the same configuration must be deterministic.
    """
    baseline = _drive_runtime_burst(False)
    for tracing, sample in ((False, 1), (True, 1), (True, 3)):
        for _ in range(2):  # repeat: determinism within a config, too
            assert _drive_runtime_burst(tracing, trace_sample=sample) == baseline


@pytest.mark.parametrize("tracing", [False, True])
def test_runtime_burst_is_independent_of_worker_count(tracing):
    """``workers`` selects nothing: the runtime dispatches on one thread."""
    one = _drive_runtime_burst(tracing, workers=1)
    assert sum(1 for n in one["batches_per_shard"] if n) > 1, (
        "the burst must land batches on more than one shard"
    )
    assert _drive_runtime_burst(tracing, workers=8) == one
