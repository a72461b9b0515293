"""Unit tests for the concurrent serving runtime.

The acceptance-level behaviour (2x throughput, shed-don't-violate, elastic
up-then-down) lives in ``benchmarks/test_concurrent_runtime.py``; these
tests pin the mechanisms: admission bounds, lane round-robin, priorities,
pause/resume, future semantics, per-session ordering and the elastic
policy's decision table.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.gpu.pool import ExecutorPool
from repro.serving import (
    AsyncSketchServer,
    DeadlineExceededError,
    ElasticShardPolicy,
    MicroBatcher,
    QueueFullError,
    RuntimeConfig,
    ShardScheduler,
    SolveRequest,
    normalize_lane,
)
from repro.serving.requests import PRIORITY_HIGH, PRIORITY_LOW, PRIORITY_NORMAL


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


def test_elastic_policy_validation():
    with pytest.raises(ValueError):
        ElasticShardPolicy(min_shards=0)
    with pytest.raises(ValueError):
        ElasticShardPolicy(min_shards=4, max_shards=2)
    with pytest.raises(ValueError):
        ElasticShardPolicy(queue_high=1.0, queue_low=2.0)


def test_normalize_lane():
    assert normalize_lane("lstsq") == "solve"
    assert normalize_lane("ingest") == "stream"
    assert normalize_lane("Ridge") == "ridge"
    with pytest.raises(ValueError):
        normalize_lane("bogus")


def test_elastic_pool_provisioned_at_max():
    runtime = AsyncSketchServer(
        shards=2, seed=0, elastic=ElasticShardPolicy(min_shards=1, max_shards=6)
    )
    try:
        assert runtime.pool.size == 6
        assert runtime.active_shards == 2  # starts at the configured shards
    finally:
        runtime.stop()


# ---------------------------------------------------------------------------
# elastic decision table
# ---------------------------------------------------------------------------
def test_elastic_decide_scales_up_on_queue_depth():
    policy = ElasticShardPolicy(min_shards=1, max_shards=8, queue_high=4.0, queue_low=1.0)
    target, reason = policy.decide(2, queue_depth=20)
    assert target == 4 and "queue depth" in reason
    # Doubling clamps at the maximum.
    target, _ = policy.decide(6, queue_depth=60)
    assert target == 8


def test_elastic_decide_scales_up_on_latency_breach():
    policy = ElasticShardPolicy(
        min_shards=1, max_shards=4, queue_high=100.0, p95_budget=1e-3
    )
    target, reason = policy.decide(2, queue_depth=1, p95_seconds=5e-3)
    assert target == 4 and "p95" in reason


def test_elastic_decide_scales_down_one_step():
    policy = ElasticShardPolicy(min_shards=1, max_shards=8, queue_high=4.0, queue_low=1.0)
    assert policy.decide(4, queue_depth=0) == (3, "queue depth 0 under 1/shard")
    # Holds at the floor.
    assert policy.decide(1, queue_depth=0)[0] == 1
    # Holds in the hysteresis band.
    assert policy.decide(4, queue_depth=8)[0] == 4


def test_elastic_decide_holds_down_while_latency_breached():
    policy = ElasticShardPolicy(min_shards=1, max_shards=8, p95_budget=1e-3)
    target, _ = policy.decide(4, queue_depth=0, p95_seconds=5e-3)
    assert target == 8  # latency breach forces up even at zero queue


def test_elastic_proactive_requires_drain_budget():
    with pytest.raises(ValueError):
        ElasticShardPolicy(proactive=True)
    with pytest.raises(ValueError):
        ElasticShardPolicy(proactive=True, drain_budget=0.0)


def test_elastic_proactive_scales_up_on_predicted_drain():
    policy = ElasticShardPolicy(
        min_shards=1, max_shards=8, queue_high=100.0, proactive=True,
        drain_budget=1e-3,
    )
    # Queue depth alone is nowhere near the reactive trigger; the predicted
    # drain time is what forces the scale-up.
    target, reason = policy.decide(2, queue_depth=4, predicted_drain_seconds=5e-3)
    assert target == 4 and "predicted drain" in reason


def test_elastic_proactive_blocks_scale_down():
    policy = ElasticShardPolicy(
        min_shards=1, max_shards=8, queue_high=4.0, queue_low=1.0,
        proactive=True, drain_budget=1e-3,
    )
    # Would scale down reactively (empty queue) but the drain projection
    # says the backlog will not clear in budget: hold.
    target, _ = policy.decide(4, queue_depth=0, predicted_drain_seconds=5e-3)
    assert target == 8  # breach forces up, not merely holds
    # With a healthy projection the normal scale-down resumes.
    target, _ = policy.decide(4, queue_depth=0, predicted_drain_seconds=1e-5)
    assert target == 3


def test_elastic_proactive_degrades_to_reactive_without_prediction():
    policy = ElasticShardPolicy(
        min_shards=1, max_shards=8, queue_high=4.0, queue_low=1.0,
        proactive=True, drain_budget=1e-3,
    )
    # No EWMA yet (prediction None): behaves exactly like the reactive table.
    assert policy.decide(2, queue_depth=20, predicted_drain_seconds=None)[0] == 4
    assert policy.decide(4, queue_depth=0, predicted_drain_seconds=None)[0] == 3


def test_runtime_exports_predicted_drain_gauge():
    rng = np.random.default_rng(11)
    runtime = AsyncSketchServer(
        shards=1, seed=0, workers=1, queue_depth=64,
        elastic=ElasticShardPolicy(
            min_shards=1, max_shards=4, proactive=True, drain_budget=10.0
        ),
    )
    try:
        futures = []
        for _ in range(6):
            a = rng.standard_normal((256, 12))
            futures.append(runtime.submit(a, rng.standard_normal(256)))
        runtime.drain()
        for f in futures:
            assert f.exception() is None
        gauge = runtime.server.metrics.get("runtime_predicted_drain_seconds")
        assert gauge is not None  # proactive mode published the projection
    finally:
        runtime.stop()


# ---------------------------------------------------------------------------
# scheduler: active set + reservations
# ---------------------------------------------------------------------------
def test_scheduler_places_only_on_active_shards():
    pool = ExecutorPool(4, numeric=False, seed=0)
    sched = ShardScheduler(pool, active_shards=2)
    assert sched.active_set() == (0, 1)
    for _ in range(8):
        assert sched.place() in (0, 1)
    # Affinity to a parked shard is still honoured (pinned state).
    assert sched.place(preferred=3) == 3


def test_scheduler_set_active_records_events():
    pool = ExecutorPool(4, numeric=False, seed=0)
    sched = ShardScheduler(pool, active_shards=1)
    assert sched.set_active(4, reason="spike", queue_depth=12)
    assert not sched.set_active(4)  # no-op change records nothing
    assert sched.set_active(2, reason="drained")
    events = sched.scale_events
    assert [e.direction for e in events] == ["up", "down"]
    assert events[0].queue_depth == 12
    assert sched.scale_transitions() == {"up": 1, "down": 1}
    with pytest.raises(ValueError):
        sched.set_active(0)
    with pytest.raises(ValueError):
        sched.set_active(5)


# ---------------------------------------------------------------------------
# batcher: incremental priority pops
# ---------------------------------------------------------------------------
def _request(rid, a, b, priority=PRIORITY_NORMAL):
    return SolveRequest(request_id=rid, a=a, b=b, priority=priority)


def test_pop_batch_priority_and_remainder(problem):
    a, b = problem
    rng = np.random.default_rng(0)
    a2 = rng.standard_normal(a.shape)
    batcher = MicroBatcher(max_batch=2)
    for i in range(3):
        batcher.add(_request(i, a, b, priority=PRIORITY_LOW))
    batcher.add(_request(3, a2, b, priority=PRIORITY_HIGH))
    # High priority pops first even though it arrived last.
    first = batcher.pop_batch()
    assert [r.request_id for r in first.requests] == [3]
    # Oversized groups split, leaving the remainder queued.
    second = batcher.pop_batch()
    assert [r.request_id for r in second.requests] == [0, 1]
    assert batcher.pending == 1
    third = batcher.pop_batch()
    assert [r.request_id for r in third.requests] == [2]
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


@pytest.mark.parametrize("differs", ["lam", "matrix", "accuracy_target", "priority"])
def test_ridge_requests_that_differ_stay_unfused(problem, differs):
    a, b = problem
    second = {
        "lam": (a, b, 0.2, {}),
        "matrix": (a.copy(), b, 0.1, {}),
        "accuracy_target": (a, b, 0.1, {"accuracy_target": 1e-3}),
        "priority": (a, b, 0.1, {"priority": PRIORITY_HIGH}),
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
