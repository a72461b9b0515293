"""Unit tests for the concurrent serving runtime.

The acceptance-level behaviour (2x throughput, shed-don't-violate) lives
in ``benchmarks/test_concurrent_runtime.py``; these tests pin the
mechanisms: admission bounds, lane round-robin, batch pops, pause/resume,
future semantics and per-session ordering.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.gpu.kernels import KernelClass, KernelRequest
from repro.serving import (
    AsyncSketchServer,
    DeadlineExceededError,
    MicroBatcher,
    QueueFullError,
    RuntimeConfig,
    RuntimeFuture,
    ServerConfig,
    SketchServer,
    SolveRequest,
)


@pytest.fixture
def problem():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((512, 8))
    x_true = np.ones(8)
    return a, a @ x_true + 0.01 * rng.standard_normal(512)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------
def test_runtime_config_validation():
    with pytest.raises(ValueError):
        RuntimeConfig(workers=0)
    with pytest.raises(ValueError):
        RuntimeConfig(queue_depth=0)
    with pytest.raises(ValueError):
        RuntimeConfig(lane_weights={"solve": 4, "ridge": 2, "stream": 0})
    with pytest.raises(ValueError):
        RuntimeConfig(lane_weights={"solve": 1, "ridge": 1, "stream": 1, "bogus": 1})


def test_server_config_takes_no_active_shard_count():
    # The pool size is the only shard count.
    with pytest.raises(TypeError):
        ServerConfig(active_shards=2)


# ---------------------------------------------------------------------------
# fixed shard pool
# ---------------------------------------------------------------------------
def _busy(executor, nbytes: float) -> None:
    """Charge some simulated work to one shard's executor."""
    executor.launch(
        KernelRequest(name="busy", kclass=KernelClass.STREAM, bytes_read=nbytes, phase="test")
    )


def test_runtime_pool_is_the_configured_shard_count():
    with AsyncSketchServer(shards=3, workers=1, seed=0) as runtime:
        assert runtime.pool.size == 3
        stats = runtime.stats()
    assert stats["shards"] == 3.0
    assert not [key for key in stats if key.startswith(("active", "scale"))]


def test_admission_clock_is_the_earliest_free_shard(problem):
    a, b = problem
    with AsyncSketchServer(shards=4, workers=1, seed=0) as runtime:
        for shard in range(3):
            _busy(runtime.pool[shard], 1e10)
        response = runtime.submit(a, b).result(timeout=30.0)
        runtime.drain()
        idle_elapsed = runtime.pool[3].elapsed
    # The only idle shard takes the fresh operator, and the request is
    # stamped at that shard's clock (0), not at the busy shards' clocks:
    # its latency is all of shard 3's work plus the result transfer.
    assert response.shard == 3
    assert response.simulated_seconds == pytest.approx(idle_elapsed + response.comm_seconds)


def test_fresh_shapes_spread_over_the_whole_pool():
    rng = np.random.default_rng(3)
    with AsyncSketchServer(shards=4, workers=1, seed=0) as runtime:
        futures = []
        for rows in (512, 384, 256, 128):
            a = rng.standard_normal((rows, 8))
            futures.append(runtime.submit(a, rng.standard_normal(rows)))
        for f in futures:
            f.result(timeout=30.0)
        runtime.drain()
        placed = runtime.scheduler.batches_per_shard
    assert placed == [1, 1, 1, 1]


# ---------------------------------------------------------------------------
# batcher: incremental pops
# ---------------------------------------------------------------------------
def _request(rid, a, b):
    return SolveRequest(request_id=rid, a=a, b=b)


def test_pop_batch_oldest_group_and_remainder(problem):
    a, b = problem
    rng = np.random.default_rng(0)
    a2 = rng.standard_normal(a.shape)
    batcher = MicroBatcher(max_batch=2)
    for i in range(3):
        batcher.add(_request(i, a, b))
    batcher.add(_request(3, a2, b))
    # Oversized groups split, leaving the remainder queued.
    first = batcher.pop_batch()
    assert [r.request_id for r in first.requests] == [0, 1]
    assert batcher.pending == 2
    # The remainder keeps its group's place ahead of younger groups.
    second = batcher.pop_batch()
    assert [r.request_id for r in second.requests] == [2]
    third = batcher.pop_batch()
    assert [r.request_id for r in third.requests] == [3]
    assert batcher.pop_batch() is None


# ---------------------------------------------------------------------------
# admission + futures
# ---------------------------------------------------------------------------
def test_queue_bound_is_enforced(problem):
    a, b = problem
    runtime = AsyncSketchServer(shards=1, workers=1, queue_depth=3, seed=0)
    try:
        runtime.pause()
        futures = [runtime.submit(a, b) for _ in range(3)]
        with pytest.raises(QueueFullError) as exc_info:
            runtime.submit(a, b)
        assert exc_info.value.queue_depth == 3
        runtime.resume()
        for f in futures:
            assert f.result(timeout=30.0).relative_residual < 0.05
    finally:
        runtime.stop()


def test_future_semantics(problem):
    a, b = problem
    with AsyncSketchServer(shards=1, workers=1, seed=0) as runtime:
        future = runtime.submit(a, b)
        response = future.result(timeout=30.0)
        assert future.done() and not future.shed
        assert future.exception() is None
        assert response.request_id == future.request_id
        # result() is idempotent.
        assert future.result() is response


@pytest.mark.parametrize("outcome", ["resolved", "rejected"])
def test_future_wakes_every_waiter(outcome):
    """Eight waiters on each of 50 futures, with thread switches forced often."""
    error = DeadlineExceededError("late", lane="solve", request_id=7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(50):
            future = RuntimeFuture("solve", 7)
            ready = threading.Barrier(9)
            seen = []

            def waiter(i):
                ready.wait()
                wait = future.result if i % 2 else future.exception
                try:
                    seen.append(wait(timeout=30.0))
                except DeadlineExceededError as exc:
                    seen.append(exc)

            threads = [threading.Thread(target=waiter, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            ready.wait()
            if outcome == "resolved":
                future._resolve("response")
                expected = ["response", None]
            else:
                future._reject(error)
                expected = [error]
            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads)
            assert len(seen) == 8 and set(map(id, seen)) <= set(map(id, expected))
            assert future.done() and future.shed == (outcome == "rejected")
    finally:
        sys.setswitchinterval(interval)


def test_future_waits_time_out_while_in_flight(problem):
    a, b = problem
    runtime = AsyncSketchServer(shards=1, workers=1, seed=0)
    try:
        runtime.pause()
        future = runtime.submit(a, b)
        for wait in (future.result, future.exception):
            for timeout in (0.05, 0.0, -1.0):
                with pytest.raises(TimeoutError):
                    wait(timeout=timeout)
        assert not future.done()
        runtime.resume()
        assert future.result(timeout=30.0).request_id == future.request_id
        assert future.exception(timeout=0.0) is None and future.done()
    finally:
        runtime.stop()


def test_future_resolves_with_a_failed_response_when_every_link_raises(problem):
    a, b = problem
    singular = a.copy()
    singular[:, 2] = 0.0
    with AsyncSketchServer(shards=1, workers=1, seed=0) as runtime:
        future = runtime.submit(singular, b)
        response = future.result(timeout=30.0)
        assert future.exception() is None
        assert response.extra["failed"] == 1.0 and response.x is None
        assert "singular" in response.extra["failure_reason"]
        # The runtime keeps serving.
        assert runtime.solve(a, b).relative_residual < 0.05


def test_malformed_input_fails_the_same_way_as_the_sync_server():
    """A NaN that trips the spectrum probe resolves the future with the sync
    server's failed response; the runtime's own root closes with the error."""
    rng = np.random.default_rng(3)
    a = rng.standard_normal((400, 6))
    a[5, 1] = np.nan
    b = rng.standard_normal(400)
    expected = SketchServer(policy="adaptive", shards=1, seed=0).solve(a, b)
    with AsyncSketchServer(policy="adaptive", shards=1, workers=1, seed=0) as runtime:
        response = runtime.submit(a, b).result(timeout=30.0)
        assert response.x is None and response.relative_residual == float("inf")
        assert response.extra == expected.extra
        assert response.extra["failure_reason"] == (
            "ValueError: estimate_spectrum_bounds: A must not contain infs or NaNs"
        )
        assert runtime.telemetry.failed_requests == 1
        (root,) = runtime.tracer.traces()
        assert root.status == "error" and root.attributes["error"] == "ValueError"
        assert runtime.tracer.traces_started == runtime.tracer.traces_completed == 1
        # The runtime keeps serving.
        clean = rng.standard_normal((400, 6))
        assert runtime.solve(clean, clean @ np.ones(6)).relative_residual < 1e-8


def test_shed_future_reports_typed_error(problem):
    a, b = problem
    runtime = AsyncSketchServer(shards=1, workers=1, seed=0)
    try:
        runtime.pause()
        future = runtime.submit(a, b, latency_budget=1e-15)
        runtime.resume()
        with pytest.raises(DeadlineExceededError) as exc_info:
            future.result(timeout=30.0)
        assert future.shed
        assert exc_info.value.projected_seconds > exc_info.value.budget_seconds
        assert runtime.telemetry.sheds_by_lane()["solve"] == 1
    finally:
        runtime.stop()


def test_stop_without_drain_sheds_backlog(problem):
    a, b = problem
    runtime = AsyncSketchServer(shards=1, workers=1, seed=0)
    runtime.pause()
    futures = [runtime.submit(a, b) for _ in range(4)]
    runtime.stop(drain=False)
    # The runtime stays paused until the backlog is shed, so nothing races
    # the workers: every admitted request gets the typed shutdown error.
    assert all(f.done() and f.shed for f in futures)
    assert runtime.telemetry.shed_counts().get("shutdown", 0) == 4
    with pytest.raises(RuntimeError):
        runtime.submit(a, b)


def test_shutdown_shed_errors_carry_the_admitted_request_id(problem):
    a, b = problem
    runtime = AsyncSketchServer(shards=1, workers=1, seed=0)
    runtime.pause()
    futures = [runtime.submit(a, b), runtime.submit_ridge(a, b, 0.1)]
    runtime.stop(drain=False)
    for future in futures:
        error = future.exception()
        assert error.lane == future.lane
        assert error.request_id == future.request_id


def test_checkpoint_without_drain_keeps_a_paused_runtime_paused(problem):
    a, b = problem
    runtime = AsyncSketchServer(shards=1, seed=0)
    try:
        runtime.pause()
        future = runtime.submit(a, b)
        assert runtime.checkpoint(drain=False) == {}
        # The frozen queue must stay frozen: nothing dispatched, nothing drained.
        assert runtime.pending == 1
        with pytest.raises(TimeoutError):
            runtime.drain(timeout=0.2)
        assert runtime.pending == 1 and not future.done()
    finally:
        runtime.stop(drain=False)


def test_dispatch_error_rejects_futures_not_workers(problem, monkeypatch):
    a, b = problem
    runtime = AsyncSketchServer(shards=1, workers=1, seed=0)
    try:
        boom = RuntimeError("injected planning failure")

        def exploding_plan(batch):
            raise boom

        monkeypatch.setattr(runtime.server, "_plan_batch", exploding_plan)
        future = runtime.submit(a, b)
        with pytest.raises(RuntimeError, match="injected planning failure"):
            future.result(timeout=30.0)
        # The worker survived the failed dispatch and still serves traffic.
        monkeypatch.undo()
        assert runtime.solve(a, b).relative_residual < 0.05
    finally:
        runtime.stop()


def test_invalid_submit_does_not_skew_admission_telemetry(problem):
    a, b = problem
    with AsyncSketchServer(shards=1, workers=1, seed=0) as runtime:
        with pytest.raises(ValueError):
            runtime.submit(a[:, 0], b)  # 1-D A rejected before admission
        with pytest.raises(ValueError):
            runtime.submit_ridge(a, b, -1.0)  # negative lambda likewise
        assert runtime.telemetry.requests_admitted == 0
        assert runtime.telemetry.queue_depth_max() == 0


def test_solve_convenience_roundtrip(problem):
    a, b = problem
    with AsyncSketchServer(shards=2, workers=2, seed=0) as runtime:
        response = runtime.solve(a, b)
        assert response.relative_residual < 0.05
        assert runtime.stats()["requests_served"] == 1.0


# ---------------------------------------------------------------------------
# lanes
# ---------------------------------------------------------------------------
def test_mixed_lanes_complete_and_record_latencies(problem):
    a, b = problem
    rng = np.random.default_rng(5)
    with AsyncSketchServer(shards=2, workers=3, seed=0) as runtime:
        solve_futures = [runtime.submit(a, b) for _ in range(6)]
        ridge_future = runtime.submit_ridge(a, b, 1e-3)
        sid = runtime.open_stream(4)
        ingest = [
            runtime.append_rows(sid, rng.standard_normal((32, 4)), rng.standard_normal(32))
            for _ in range(3)
        ]
        query = runtime.query_solution(sid)
        for f in solve_futures:
            f.result(timeout=30.0)
        assert ridge_future.result(timeout=30.0).problem == "ridge"
        assert sum(r.result(timeout=30.0).rows for r in ingest) == 96
        assert query.result(timeout=30.0).window_rows == 96
        runtime.drain()
        stats = runtime.close_stream(sid)
        assert stats["rows_ingested"] == 96.0
        telemetry = runtime.telemetry
        assert set(telemetry.lanes_seen()) == {"solve", "ridge", "stream"}
        for lane in ("solve", "ridge", "stream"):
            assert telemetry.lane_latency_summary(lane).count >= 1


def test_stream_session_ingest_order_is_preserved():
    # Decayed windows are order-sensitive: if the worker pool lost or
    # reordered one session's batches, the decay weights (and therefore the
    # queried solution) would differ from the synchronous reference.
    from repro.serving import SketchServer

    rng = np.random.default_rng(9)
    batches = [
        (rng.standard_normal((16, 4)), rng.standard_normal(16)) for _ in range(12)
    ]
    reference = SketchServer(shards=2, seed=0)
    ref_sid = reference.open_stream(4, mode="decay", seed=11)
    for rows, targets in batches:
        reference.append_rows(ref_sid, rows, targets)
    ref_x = reference.query_solution(ref_sid).x
    with AsyncSketchServer(shards=2, workers=4, seed=0) as runtime:
        sid = runtime.open_stream(4, mode="decay", seed=11)
        futures = [runtime.append_rows(sid, rows, targets) for rows, targets in batches]
        reports = [f.result(timeout=30.0) for f in futures]
        assert all(r.rows == 16 for r in reports)
        x = runtime.query_solution(sid).result(timeout=30.0).x
        runtime.drain()
        stats = runtime.close_stream(sid)
    assert stats["rows_ingested"] == 192.0
    np.testing.assert_allclose(x, ref_x, rtol=1e-10, atol=1e-12)


def test_stream_submit_unknown_session_raises():
    with AsyncSketchServer(shards=1, workers=1, seed=0) as runtime:
        with pytest.raises(KeyError):
            runtime.append_rows(12345, np.zeros((1, 4)), np.zeros(1))


def test_queue_depth_counts_all_lanes(problem):
    a, b = problem
    runtime = AsyncSketchServer(shards=1, workers=1, seed=0, queue_depth=16)
    try:
        sid = runtime.open_stream(8)
        runtime.pause()
        runtime.submit(a, b)
        runtime.submit_ridge(a, b, 1e-3)
        runtime.append_rows(sid, np.zeros((2, 8)), np.zeros(2))
        assert runtime.pending == 3
        runtime.resume()
        runtime.drain()
        assert runtime.pending == 0
        runtime.close_stream(sid)
    finally:
        runtime.stop()


# ---------------------------------------------------------------------------
# ridge lane: same-matrix fusion and its limits
# ---------------------------------------------------------------------------
def _ridge_burst(calls):
    """Admit ``(a, b, lam, options)`` ridge calls while paused; return the responses."""
    runtime = AsyncSketchServer(shards=1, workers=1, seed=0)
    try:
        runtime.pause()
        futures = [runtime.submit_ridge(a, b, lam, **options) for a, b, lam, options in calls]
        runtime.resume()
        return [f.result(timeout=30.0) for f in futures]
    finally:
        runtime.stop()


@pytest.mark.parametrize("options", [{}, {"solver": "ridge_precond_lsqr"}])
def test_same_matrix_ridge_requests_fuse_and_match_unfused(problem, options):
    a, b = problem
    b2 = np.random.default_rng(3).standard_normal(a.shape[0])
    fused = _ridge_burst([(a, b, 0.1, options), (a, b2, 0.1, options)])
    assert [r.batch_size for r in fused] == [2, 2]
    for resp, rhs in zip(fused, (b, b2)):
        (alone,) = _ridge_burst([(a, rhs, 0.1, options)])
        assert alone.batch_size == 1
        assert resp.problem == "ridge" and resp.extra["regularization"] == 0.1
        assert resp.executed_solver == alone.executed_solver
        assert np.linalg.norm(resp.x - alone.x) <= 1e-10 * np.linalg.norm(alone.x)


@pytest.mark.parametrize("differs", ["lam", "matrix", "accuracy_target"])
def test_ridge_requests_that_differ_stay_unfused(problem, differs):
    a, b = problem
    second = {
        "lam": (a, b, 0.2, {}),
        "matrix": (a.copy(), b, 0.1, {}),
        "accuracy_target": (a, b, 0.1, {"accuracy_target": 1e-3}),
    }[differs]
    responses = _ridge_burst([(a, b, 0.1, {}), second])
    assert [r.batch_size for r in responses] == [1, 1]


# ---------------------------------------------------------------------------
# concurrency smoke: many submitters, one runtime
# ---------------------------------------------------------------------------
def test_concurrent_submitters_all_complete(problem):
    a, b = problem
    with AsyncSketchServer(shards=2, workers=4, seed=0, queue_depth=256) as runtime:
        results = []
        errors = []

        def submitter():
            try:
                futures = [runtime.submit(a, b) for _ in range(8)]
                results.extend(f.result(timeout=60.0) for f in futures)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=submitter) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=90.0)
        assert not errors
        assert len(results) == 32
        assert len({r.request_id for r in results}) == 32
        assert all(r.relative_residual < 0.05 for r in results)


# ---------------------------------------------------------------------------
# request roots of a fused runtime batch
# ---------------------------------------------------------------------------
def test_runtime_batch_closes_admitted_and_fresh_roots_in_rider_order(problem):
    # Riders admitted while tracing was off have no admission root; the
    # batch opens theirs at execution and closes every root in rider order.
    a, b = problem
    runtime = AsyncSketchServer(shards=1, workers=1, seed=0)
    try:
        tracer = runtime.tracer
        runtime.pause()
        futures = []
        for traced in (False, True, False, True):
            tracer.enabled = traced
            futures.append(runtime.submit(a, b))
        tracer.enabled = True
        runtime.resume()
        responses = [f.result(timeout=30.0) for f in futures]
        assert [r.batch_size for r in responses] == [4] * 4
        roots = tracer.traces()
        assert [t.attributes["request_id"] for t in roots] == [r.request_id for r in responses]
        assert [t.find("admission") is not None for t in roots] == [False, True, False, True]
        assert all(t.is_complete() and t.status == "ok" for t in roots)
        assert tracer.traces_started == tracer.traces_completed == 4
        assert tracer.active_count() == 0
    finally:
        runtime.stop()
