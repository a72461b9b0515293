"""End-to-end observability: tracing threaded through the serving stack.

The unit behaviour of spans, the registry and the exporters lives in
``tests/obs``; these tests pin the integration invariants ISSUE 6 names:
every admitted request yields exactly one *complete* span tree, shed
requests get a terminal ``shed`` span, the sync server traces too, cache
events land in the metrics registry, and the telemetry recorders stay
lock-safe under concurrent reset.
"""

from __future__ import annotations

import gc
import threading
import weakref

import numpy as np
import pytest

from repro.obs.trace import Tracer
from repro.serving import AsyncSketchServer, DeadlineExceededError
from repro.serving.requests import AdmissionError
from repro.serving.server import ServerConfig, SketchServer
from repro.serving.telemetry import ServingTelemetry

pytestmark = pytest.mark.serving


def _mixed_load(runtime: AsyncSketchServer, rng: np.random.Generator):
    """Drive solves + ridge + streaming; return (futures, admitted_count)."""
    futures = []
    for _ in range(8):
        a = rng.standard_normal((256, 12))
        b = rng.standard_normal(256)
        futures.append(runtime.submit(a, b))
    for _ in range(4):
        a = rng.standard_normal((192, 10))
        b = rng.standard_normal(192)
        futures.append(runtime.submit_ridge(a, b, 0.1))
    session = runtime.open_stream(10)
    for _ in range(3):
        rows = rng.standard_normal((64, 10))
        targets = rng.standard_normal(64)
        futures.append(runtime.append_rows(session, rows, targets))
    futures.append(runtime.query_solution(session))
    return futures, len(futures)


def test_every_admitted_request_yields_one_complete_span_tree():
    rng = np.random.default_rng(0)
    runtime = AsyncSketchServer(shards=2, seed=0, workers=2, queue_depth=64)
    try:
        futures, admitted = _mixed_load(runtime, rng)
        runtime.drain()
        for f in futures:
            assert f.exception() is None
        tracer = runtime.tracer
        assert tracer.traces_started == admitted
        assert tracer.traces_completed == admitted
        assert tracer.active_count() == 0
        traces = tracer.traces()
        assert len(traces) == admitted
        trace_ids = set()
        for root in traces:
            assert root.name == "request"
            assert root.is_complete(), f"incomplete tree for {root.trace_id}"
            assert root.status == "ok"
            assert root.attributes["lane"] in ("solve", "ridge", "stream")
            assert root.find("admission") is not None
            trace_ids.add(root.trace_id)
            for span in root.walk():
                assert span.trace_id == root.trace_id
                assert span.end is not None
                assert span.start <= span.end
        assert len(trace_ids) == admitted  # exactly one tree per request
    finally:
        runtime.stop()


def test_solve_trace_has_plan_batch_solver_and_respond_spans():
    rng = np.random.default_rng(1)
    runtime = AsyncSketchServer(shards=1, seed=0, workers=1, queue_depth=16)
    try:
        a = rng.standard_normal((256, 12))
        b = rng.standard_normal(256)
        fut = runtime.submit(a, b)
        runtime.drain()
        fut.result()
        root = runtime.tracer.traces()[-1]
        assert root.find("plan") is not None
        assert root.find("placement") is not None
        batch = root.find("batch")
        assert batch is not None
        assert batch.find("solve") is not None
        assert any(s.name.startswith("solver:") for s in batch.children)
        respond = root.find("respond")
        assert respond is not None
        assert root.end >= respond.end
    finally:
        runtime.stop()


def test_deadline_shed_gets_terminal_shed_span():
    rng = np.random.default_rng(2)
    runtime = AsyncSketchServer(shards=1, seed=0, workers=1, queue_depth=16)
    try:
        a = rng.standard_normal((512, 16))
        b = rng.standard_normal(512)
        fut = runtime.submit(a, b, latency_budget=1e-12)
        runtime.drain()
        assert fut.shed
        with pytest.raises(DeadlineExceededError):
            fut.result()
        root = runtime.tracer.traces()[-1]
        assert root.status == "shed"
        assert root.is_complete()
        shed = root.find("shed")
        assert shed is not None
        assert shed.status == "shed"
        assert shed.attributes["reason"] == "deadline"
        assert shed.duration == 0.0  # terminal event, not an interval
    finally:
        runtime.stop()


def test_shutdown_backlog_shed_ends_every_pending_trace():
    rng = np.random.default_rng(3)
    runtime = AsyncSketchServer(shards=1, seed=0, workers=1, queue_depth=32)
    runtime.pause()
    futures = []
    for _ in range(4):
        a = rng.standard_normal((128, 8))
        b = rng.standard_normal(128)
        futures.append(runtime.submit(a, b))
    a = rng.standard_normal((128, 8))
    futures.append(runtime.submit_ridge(a, rng.standard_normal(128), 0.5))
    runtime.stop(drain=False)
    for fut in futures:
        assert isinstance(fut.exception(), AdmissionError)
    tracer = runtime.tracer
    assert tracer.traces_completed == len(futures)
    for root in tracer.traces():
        assert root.status == "shed"
        assert root.find("shed").attributes["reason"] == "shutdown"
        assert root.is_complete()


def test_sync_server_traces_too():
    rng = np.random.default_rng(4)
    server = SketchServer(ServerConfig(shards=2, seed=0, max_batch=4))
    for _ in range(6):
        a = rng.standard_normal((256, 12))
        b = rng.standard_normal(256)
        server.submit(a, b)
    server.flush()
    assert server.tracer.traces_completed == 6
    assert server.stats()["traces_completed"] == 6.0
    for root in server.tracer.traces():
        assert root.is_complete()
        assert root.find("batch") is not None
        assert root.find("respond") is not None


def test_tracing_disabled_serves_identically_with_no_traces():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((256, 12))
    b = rng.standard_normal(256)
    on = SketchServer(ServerConfig(shards=1, seed=0, tracing=True))
    off = SketchServer(ServerConfig(shards=1, seed=0, tracing=False))
    r_on = on.solve(a, b)
    r_off = off.solve(a, b)
    np.testing.assert_allclose(r_off.x, r_on.x)
    assert off.tracer.traces() == []
    assert off.tracer.traces_started == 0
    assert on.tracer.traces_completed == 1


def test_sampled_tracing_keeps_counters_and_span_tree_invariants():
    """trace_sample=N retains 1-in-N traces; every retained tree is complete.

    The started == completed == admitted invariant is about *counters*, not
    retention -- sampling must not break it.
    """
    rng = np.random.default_rng(8)
    runtime = AsyncSketchServer(
        shards=2, seed=0, workers=2, queue_depth=64, trace_sample=4
    )
    try:
        futures, admitted = _mixed_load(runtime, rng)
        runtime.drain()
        for f in futures:
            assert f.exception() is None
        tracer = runtime.tracer
        assert tracer.traces_started == admitted
        assert tracer.traces_completed == admitted
        assert tracer.active_count() == 0
        traces = tracer.traces()
        # 1-in-4 head sampling on an all-ok run retains about a quarter.
        assert 0 < len(traces) < admitted
        assert tracer.traces_retained == len(traces)
        for root in traces:
            assert root.name == "request"
            assert root.is_complete(), f"incomplete tree for {root.trace_id}"
            assert root.status == "ok"
            assert root.find("admission") is not None
            for span in root.walk():
                assert span.trace_id == root.trace_id
                assert span.end is not None
                assert span.start <= span.end
    finally:
        runtime.stop()


def test_sampling_always_retains_shed_traces():
    rng = np.random.default_rng(9)
    # sample_every far above the workload size: only the override can
    # retain anything past the first root.
    runtime = AsyncSketchServer(
        shards=1, seed=0, workers=1, queue_depth=16, trace_sample=1000
    )
    try:
        ok_futures = []
        for _ in range(4):
            a = rng.standard_normal((256, 12))
            ok_futures.append(runtime.submit(a, rng.standard_normal(256)))
        runtime.drain()
        a = rng.standard_normal((512, 16))
        shed_future = runtime.submit(a, rng.standard_normal(512), latency_budget=1e-12)
        runtime.drain()
        assert shed_future.shed
        tracer = runtime.tracer
        assert tracer.traces_completed == 5
        statuses = [root.status for root in tracer.traces()]
        # The first ok trace is the 1-in-N keep; the shed one is kept by
        # the status override despite losing the sampling draw.
        assert statuses.count("shed") == 1
        assert len(statuses) < 5
    finally:
        runtime.stop()


def test_trace_sample_validation():
    with pytest.raises(ValueError):
        ServerConfig(trace_sample=0)
    with pytest.raises(ValueError):
        ServerConfig(calibration="shadow")


def test_cache_events_land_in_metrics_registry():
    rng = np.random.default_rng(6)
    server = SketchServer(ServerConfig(shards=1, seed=0))
    a = rng.standard_normal((256, 12))
    server.solve(a, rng.standard_normal(256))
    server.solve(a, rng.standard_normal(256))  # same operator: cache hit
    events = {
        tuple(c.labels.items())[0][1]: c.value
        for c in server.metrics.series("serving_cache_events_total")
    }
    assert events.get("store", 0) >= 1
    assert events.get("miss", 0) >= 1
    assert events.get("hit", 0) >= 1


def test_snapshot_contract_keys_survive_registry_refactor():
    rng = np.random.default_rng(7)
    runtime = AsyncSketchServer(shards=2, seed=0, workers=2, queue_depth=64)
    try:
        futures, _ = _mixed_load(runtime, rng)
        runtime.drain()
        for f in futures:
            f.exception()
        snap = runtime.telemetry.snapshot()
    finally:
        runtime.stop()
    for key in (
        "requests_served",
        "batches_executed",
        "mean_batch_size",
        "requests_admitted",
        "lane_solve_p95_seconds",
        "lane_ridge_p95_seconds",
        "lane_stream_p95_seconds",
        "stream_rows_ingested",
        "stream_resolves",
    ):
        assert key in snap, f"snapshot() lost contract key {key!r}"
    assert snap["requests_served"] >= 12.0


def test_stream_recorders_and_reset_are_lock_safe():
    """Satellite regression: concurrent stream recording vs reset never races."""
    telemetry = ServingTelemetry()
    stop = threading.Event()
    errors: list = []

    def hammer():
        try:
            while not stop.is_set():
                telemetry.record_stream_ingest(64, 1e-4)
                telemetry.record_stream_resolve(1, 2e-4)
                telemetry.record_stream_drift()
                telemetry.record_stream_query(32)
        except Exception as exc:  # pragma: no cover - the failure being tested
            errors.append(exc)

    def resetter():
        try:
            for _ in range(200):
                telemetry.reset()
        except Exception as exc:  # pragma: no cover - the failure being tested
            errors.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(3)]
    threads.append(threading.Thread(target=resetter))
    for t in threads:
        t.start()
    threads[-1].join()
    stop.set()
    for t in threads[:-1]:
        t.join()
    assert errors == []
    # The counters still work after the storm.
    telemetry.record_stream_ingest(10, 1e-5)
    assert telemetry.stream_rows >= 10


def _count_start_span(monkeypatch):
    """Count ``Tracer.start_span`` calls (events go through it too)."""
    calls = []
    original = Tracer.start_span

    def counting(self, *args, **kwargs):
        calls.append(args[0])
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Tracer, "start_span", counting)
    return calls


def test_unread_trace_keeps_no_request_matrix_alive():
    # The adaptive policy probes, so the placed batch's first stage holds
    # A and S1 A: a tree builder that captured it (or the batch) pins A.
    rng = np.random.default_rng(10)
    server = SketchServer(ServerConfig(shards=1, seed=0, policy="adaptive"))
    a = rng.standard_normal((512, 12))
    b = a @ np.ones(12)
    ref = weakref.ref(a)
    response = server.solve(a, b)
    residual = response.relative_residual
    del a, b, response
    gc.collect()
    assert server.tracer.traces_retained == 1
    assert ref() is None, "a retained, unread trace pins the request matrix"
    # The tree still grows on read, from the batch's scalar facts alone.
    (root,) = server.tracer.traces()
    assert root.is_complete()
    assert root.find("solve").attributes["relative_residual"] == residual


def test_request_trees_grow_on_first_read_only(monkeypatch):
    rng = np.random.default_rng(11)
    calls = _count_start_span(monkeypatch)
    server = SketchServer(ServerConfig(shards=1, seed=0, max_batch=8))
    for _ in range(4):
        server.submit(rng.standard_normal((256, 12)), rng.standard_normal(256))
    server.flush()
    assert calls == []  # served, traced, not yet grown
    traces = server.tracer.traces()
    assert len(traces) == 4
    grown = len(calls)
    per_tree = [sum(1 for _ in root.walk()) - 1 for root in traces]
    assert grown == sum(per_tree) > 0
    server.tracer.traces()
    for root in traces:
        assert server.tracer.find_trace(root.trace_id) is root
    assert len(calls) == grown  # read again: nothing grows twice


def test_evicted_and_sampled_out_request_trees_never_grow(monkeypatch):
    rng = np.random.default_rng(12)
    matrices = [rng.standard_normal((256, 12)) for _ in range(4)]
    calls = _count_start_span(monkeypatch)
    for config, kept in (
        (ServerConfig(shards=1, seed=0, max_batch=8, trace_capacity=4), 4),
        (ServerConfig(shards=1, seed=0, max_batch=8, trace_sample=16), 4),
    ):
        del calls[:]
        server = SketchServer(config)
        for i in range(64):
            server.submit(matrices[i % 4], rng.standard_normal(256))
        server.flush()
        assert server.tracer.traces_completed == 64
        assert calls == []
        traces = server.tracer.traces()
        assert len(traces) == kept
        assert len(calls) == sum(sum(1 for _ in root.walk()) - 1 for root in traces)


def test_concurrent_trace_readers_see_only_whole_trees():
    rng = np.random.default_rng(13)
    runtime = AsyncSketchServer(shards=2, seed=0, workers=1, queue_depth=128)
    stop = threading.Event()
    errors = []

    def reader():
        try:
            while not stop.is_set():
                for root in runtime.tracer.traces():
                    if not root.is_complete():
                        errors.append(f"half-grown tree {root.trace_id}")
                    elif root.find("batch") is None:
                        errors.append(f"tree {root.trace_id} missing its batch span")
        except Exception as exc:  # pragma: no cover - the failure being tested
            errors.append(exc)

    readers = [threading.Thread(target=reader) for _ in range(2)]
    for t in readers:
        t.start()
    try:
        futures = []
        for _ in range(48):
            a = rng.standard_normal((256, 12))
            futures.append(runtime.submit(a, rng.standard_normal(256)))
        runtime.drain()
        for f in futures:
            assert f.exception() is None
    finally:
        stop.set()
        for t in readers:
            t.join()
        runtime.stop()
    assert errors == []
    assert all(root.is_complete() for root in runtime.tracer.traces())
