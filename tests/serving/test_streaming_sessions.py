"""Streaming sessions on the SketchServer: open -> ingest -> drift -> query -> close.

The serving-side contract of the streaming subsystem: sessions live on
scheduler-chosen shards, their window-sketch operators are pinned in the
operator cache under session keys (and removed at close), drift events and
re-solves flow into the server telemetry, and every served solution carries
the planner's attempted chain.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.durability.store import DurabilityConfig, MemoryCheckpointStore
from repro.serving import SketchServer
from repro.serving.streaming import stream_session_cache_key
from repro.workloads.streams import piecewise_stationary_stream

pytestmark = pytest.mark.serving

N = 10


@pytest.fixture
def server():
    return SketchServer(shards=2, policy="cheapest_accurate", seed=0)


@pytest.fixture
def stream():
    return piecewise_stationary_stream(N, rows_per_segment=1536, batch_size=256, seed=4)


class TestSessionLifecycle:
    def test_open_pins_a_session_keyed_cache_entry(self, server):
        sid = server.open_stream(N, mode="landmark")
        session = server.streams.session(sid)
        entry = server.cache.peek(session.cache_key)
        assert entry is not None
        assert entry.shard == session.shard
        # The key's solver field carries the session identity, so it can
        # never alias a batch operator of the same shape.
        assert session.cache_key[-2] == f"stream-session:{sid}"
        assert session.cache_key == stream_session_cache_key(
            sid, N + 1, session.solver.k, session.solver.seed
        )

    def test_close_unpins_and_reports(self, server, stream):
        sid = server.open_stream(N)
        for batch in list(stream)[:3]:
            server.append_rows(sid, batch.rows, batch.targets)
        key = server.streams.session(sid).cache_key
        stats = server.close_stream(sid)
        assert server.cache.peek(key) is None
        assert stats["rows_ingested"] == 3 * 256
        assert stats["session_id"] == sid
        with pytest.raises(KeyError):
            server.query_solution(sid)
        with pytest.raises(KeyError):
            server.close_stream(sid)

    def test_active_session_survives_lru_pressure(self, rng, stream):
        """Batch-traffic evictions must not permanently unpin a live session."""
        server = SketchServer(shards=1, cache_capacity=2, seed=0)
        sid = server.open_stream(N)
        key = server.streams.session(sid).cache_key
        x_true = np.ones(N)
        for d in (512, 768, 1024):  # three distinct shapes flood the 2-entry LRU
            a = rng.standard_normal((d, N))
            server.solve(a, a @ x_true)
        assert server.cache.peek(key) is None  # evicted while the session idled
        batch = stream.batches[0]
        server.append_rows(sid, batch.rows, batch.targets)
        assert server.cache.peek(key) is not None  # ingest re-pinned it

    def test_sliding_ring_rotation_keeps_cache_entry_live(self, server, stream):
        """The cached operator must track the ring, not a retired bucket."""
        sid = server.open_stream(N, mode="sliding", bucket_rows=256, window_buckets=2)
        session = server.streams.session(sid)
        for batch in list(stream)[:4]:  # 1024 rows = several ring rotations
            server.append_rows(sid, batch.rows, batch.targets)
        entry = server.cache.peek(session.cache_key)
        assert entry.operator is session.solver.state.operator
        assert entry.operator.rows_seen > 0  # a live, mid-pass bucket

    def test_unseeded_server_can_open_streams(self, stream):
        """seed=None servers (supported on the batch path) stream too."""
        server = SketchServer(shards=1, seed=None)
        sid = server.open_stream(N, detector=False)
        assert server.streams.session(sid).solver.seed == 0  # hash-seed convention
        batch = stream.batches[0]
        server.append_rows(sid, batch.rows, batch.targets)
        assert server.query_solution(sid).x is not None

    def test_unknown_session_raises(self, server):
        with pytest.raises(KeyError):
            server.append_rows(99, np.zeros((1, N)), np.zeros(1))

    def test_sessions_spread_over_shards(self, server):
        shards = {server.streams.session(server.open_stream(N)).shard for _ in range(4)}
        assert len(shards) == 2  # the scheduler placed them on both shards


class TestEndToEnd:
    def test_ingest_drift_replan_query(self, server, stream):
        """The issue's acceptance flow: ingest -> drift -> re-plan -> query."""
        sid = server.open_stream(N, mode="landmark")
        drift_batches = []
        for batch in stream:
            report = server.append_rows(sid, batch.rows, batch.targets)
            if report.drift is not None:
                drift_batches.append(report)
        assert len(drift_batches) >= 1  # the injected shift was detected
        assert any(r.resolved for r in drift_batches)  # ... and re-solved

        resp = server.query_solution(sid)
        assert resp.x is not None and not resp.extra["failed"]
        x_new = stream.segment_truths[-1]
        err = np.linalg.norm(resp.x - x_new) / np.linalg.norm(x_new)
        assert err < 0.05  # the served model reflects the post-shift regime

        # The re-solve routed through the planner: the fallback chain is
        # recorded on the response (first link = planned solver), matching
        # the batch-serving contract.
        assert resp.attempted[0] == resp.planned_solver
        assert resp.executed_solver == resp.attempted[-1]
        assert resp.extra["attempted"] == "->".join(resp.attempted)
        assert np.isfinite(resp.cond_estimate)

        # The drift-triggered re-solve itself carried the attempted chain.
        session = server.streams.session(sid)
        assert "attempted" in session.solver.last_result.extra

    def test_query_latency_and_staleness_accounting(self, server, stream):
        sid = server.open_stream(N, detector=False)
        batches = list(stream)[:4]
        for batch in batches:
            server.append_rows(sid, batch.rows, batch.targets)
        first = server.query_solution(sid)
        assert first.resolved  # lazy solve happened here
        assert first.compute_seconds > 0.0
        assert first.comm_seconds > 0.0  # the solution crossed the network
        assert first.staleness_rows == 0

        cached = server.query_solution(sid)
        assert not cached.resolved
        assert cached.compute_seconds == 0.0

        server.append_rows(sid, batches[0].rows, batches[0].targets)
        stale = server.streams.session(sid).solver.staleness_rows
        assert stale == 256

    def test_telemetry_counters(self, server, stream):
        sid = server.open_stream(N)
        for batch in stream:
            server.append_rows(sid, batch.rows, batch.targets)
        server.query_solution(sid)
        server.query_solution(sid)
        stats = server.stats()
        assert stats["streams_opened"] == 1.0
        assert stats["open_streams"] == 1.0
        assert stats["stream_rows_ingested"] == stream.total_rows
        assert stats["stream_batches"] == len(stream)
        assert stats["stream_drift_events"] >= 1.0
        assert stats["stream_resolves"] >= 2.0  # warmup + drift at least
        assert stats["stream_resolve_seconds"] > 0.0  # eager solves are costed
        assert stats["stream_ingest_rows_per_second"] > 0.0
        assert "stream_mean_staleness_rows" in stats
        server.close_stream(sid)
        assert server.stats()["streams_closed"] == 1.0
        assert server.stats()["open_streams"] == 0.0

    def test_streams_and_batch_traffic_share_one_server(self, server, stream, rng):
        """Sessions coexist with micro-batched solve traffic."""
        sid = server.open_stream(N, detector=False)
        a = rng.standard_normal((2048, N))
        x_true = np.ones(N)
        for batch in list(stream)[:2]:
            server.append_rows(sid, batch.rows, batch.targets)
            server.submit(a, a @ x_true)
        responses = server.flush()
        assert len(responses) == 2
        assert all(r.relative_residual < 0.05 for r in responses)
        resp = server.query_solution(sid)
        assert resp.x is not None
        # Both kinds of work are visible in one stats snapshot.
        stats = server.stats()
        assert stats["requests_served"] == 2.0
        assert stats["stream_batches"] == 2.0

    def test_latency_budget_inherited_from_server_config(self, stream):
        server = SketchServer(shards=1, policy="adaptive", latency_budget=0.5, seed=0)
        sid = server.open_stream(N)
        assert server.streams.session(sid).solver.latency_budget == 0.5
        # A per-session budget overrides the config default.
        sid2 = server.open_stream(N, latency_budget=0.25)
        assert server.streams.session(sid2).solver.latency_budget == 0.25
        # The budget reaches the planner: the adaptive branch is exercised.
        batch = stream.batches[0]
        server.append_rows(sid, batch.rows, batch.targets)
        resp = server.query_solution(sid)
        assert resp.x is not None

    def test_fixed_policy_server_still_streams_adaptively(self, stream):
        server = SketchServer(shards=1, policy="fixed", seed=0)
        sid = server.open_stream(N, detector=False)
        for batch in list(stream)[:2]:
            server.append_rows(sid, batch.rows, batch.targets)
        resp = server.query_solution(sid)
        assert resp.extra["policy"] in ("cheapest_accurate", "adaptive")


class TestInputValidation:
    def test_non_finite_rows_are_rejected_before_the_wal(self, stream):
        store = MemoryCheckpointStore()
        server = SketchServer(shards=1, seed=0, durability=DurabilityConfig(store=store))
        sid = server.open_stream(N)
        batches = list(stream)
        server.append_rows(sid, batches[0].rows, batches[0].targets)
        key = f"session-{sid}"
        wal = store.read_wal(key)
        good = batches[1]
        for cell in (np.nan, np.inf, -np.inf):
            bad_rows, bad_targets = good.rows.copy(), good.targets.copy()
            bad_rows[3, 2] = cell
            bad_targets[5] = cell
            with pytest.raises(ValueError, match="rows must be finite"):
                server.append_rows(sid, bad_rows, good.targets)
            with pytest.raises(ValueError, match="targets must be finite"):
                server.append_rows(sid, good.rows, bad_targets)
        assert store.read_wal(key) == wal
        for batch in batches[1:4]:
            server.append_rows(sid, batch.rows, batch.targets)
        x = server.query_solution(sid).x
        assert np.isfinite(x).all()
        fresh = SketchServer(shards=1, seed=0, durability=DurabilityConfig(store=store))
        assert fresh.restore().ok
        np.testing.assert_array_equal(fresh.query_solution(sid).x, x)
