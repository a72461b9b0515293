"""Frequency-analytics sessions end to end (repro.serving.frequency).

The serving contract under test is *bit-for-bit transparency*: every answer
served through ``SketchServer`` / ``AsyncSketchServer`` session endpoints
must equal the corresponding direct library call on an identically-seeded,
identically-fed sketch -- through the sync path, the async stream lane, and
a durability crash/restore cycle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.frequency import ExactFrequencyLevel, FrequencySketch
from repro.durability.store import (
    DirectoryCheckpointStore,
    DurabilityConfig,
    MemoryCheckpointStore,
)
from repro.problems.frequency import build_frequency_sketch, plan_frequency_sketch
from repro.serving import AsyncSketchServer, SketchServer
from repro.workloads.streams import zipf_stream

DOMAIN = 1 << 12
PHI, DELTA = 0.05, 1e-2


@pytest.fixture
def stream():
    return zipf_stream(DOMAIN, total_items=12_000, batch_size=4096, alpha=1.25, seed=3)


def _library_twin(server, stream, *, need_ranges=False, domain=DOMAIN):
    """The direct-library sketch a served session must match bit-for-bit."""
    plan = plan_frequency_sketch(domain, PHI, DELTA, need_ranges=need_ranges)
    twin = build_frequency_sketch(plan, seed=server.config.seed)
    for batch in stream:
        twin.update(batch.ids, batch.weights)
    return twin


class TestPlan:
    def test_stream_scale_plan_counts_four_levels_exactly(self):
        plan = plan_frequency_sketch(1 << 20, 0.02, need_ranges=True)
        assert (plan.width, plan.depth, plan.levels) == (30_000, 42, 5)
        assert plan.exact_levels == 4
        engine = build_frequency_sketch(plan, seed=0)
        assert engine.exact_levels == 4
        assert [type(level) for level in engine.levels] == [FrequencySketch] + [ExactFrequencyLevel] * 4

    def test_flat_plans_have_no_exact_levels(self):
        assert plan_frequency_sketch(DOMAIN, PHI, DELTA).exact_levels == 0
        assert plan_frequency_sketch(1 << 10, 0.05).exact_levels == 0

    def test_the_leaf_is_never_exact(self):
        # 1024 ids fit in 4800 * 42 cells, yet the leaf stays a sketch.
        plan = plan_frequency_sketch(1 << 10, 0.05, need_ranges=True)
        assert plan.width * plan.depth >= plan.domain
        assert plan.exact_levels == plan.levels - 1 == 2
        assert isinstance(build_frequency_sketch(plan).levels[0], FrequencySketch)

    def test_the_rule_uses_the_capped_width(self):
        # 100 * 42 = 4200 cells: the 65,536-id level stays a sketch.
        plan = plan_frequency_sketch(1 << 20, 0.02, need_ranges=True, max_width=100)
        assert plan.exact_levels == 3


class TestSyncEndpoints:
    def test_served_answers_equal_library_calls(self, stream):
        server = SketchServer(shards=2)
        sid = server.open_frequency_stream(DOMAIN, phi=PHI, delta=DELTA)
        for batch in stream:
            report = server.append_items(sid, batch.ids)
            assert report.items == batch.size
        twin = _library_twin(server, stream)

        assert server.query_heavy_hitters(sid).value == twin.heavy_hitters(PHI)
        assert server.query_norm(sid).value == twin.l2_estimate()
        ids = stream.all_ids()[:32]
        np.testing.assert_array_equal(
            server.query_point(sid, ids).value, twin.point_query(ids)
        )

    def test_range_needs_hierarchical_session(self):
        server = SketchServer(shards=1)
        flat = server.open_frequency_stream(DOMAIN, phi=PHI, delta=DELTA)
        with pytest.raises(RuntimeError):
            server.query_range(flat, 0, 64)
        ranged = server.open_frequency_stream(
            DOMAIN, phi=PHI, delta=DELTA, need_ranges=True
        )
        server.append_items(ranged, np.arange(128))
        assert server.query_range(ranged, 0, 128).value > 0.0
        assert server.frequencies.session(ranged).stats()["exact_levels"] == 2.0

    def test_range_matches_library(self, stream):
        server = SketchServer(shards=2)
        sid = server.open_frequency_stream(DOMAIN, phi=PHI, delta=DELTA, need_ranges=True)
        for batch in stream:
            server.append_items(sid, batch.ids)
        twin = _library_twin(server, stream, need_ranges=True)
        for lo, hi in [(0, 64), (100, 2000), (0, DOMAIN)]:
            assert server.query_range(sid, lo, hi).value == twin.range_query(lo, hi)

    def test_telemetry_and_stats(self, stream):
        server = SketchServer(shards=2)
        sid = server.open_frequency_stream(DOMAIN, phi=PHI, delta=DELTA)
        for batch in stream:
            server.append_items(sid, batch.ids)
        server.query_heavy_hitters(sid)
        server.query_norm(sid)
        assert server.stats()["open_frequency_streams"] == 1.0
        snap = server.telemetry.snapshot()
        assert snap["frequency_sessions_opened"] == 1.0
        assert snap["frequency_items_ingested"] == float(stream.total_items)
        assert snap["frequency_batches"] == float(len(stream))
        assert snap["frequency_queries"] == 2.0
        assert snap["frequency_heavy_hitters_queries"] == 1.0
        assert snap["frequency_norm_queries"] == 1.0
        assert snap["frequency_ingest_seconds"] > 0.0
        stats = server.close_frequency_stream(sid)
        assert stats["items_seen"] == float(stream.total_items)
        assert stats["exact_levels"] == 0.0
        assert server.telemetry.snapshot()["frequency_sessions_closed"] == 1.0
        with pytest.raises(KeyError):
            server.query_norm(sid)

    def test_non_finite_weights_are_rejected_before_the_wal(self):
        store = MemoryCheckpointStore()
        server = SketchServer(shards=1, durability=DurabilityConfig(store=store))
        sid = server.open_frequency_stream(DOMAIN, phi=PHI, delta=DELTA, need_ranges=True)
        server.append_items(sid, [1, 2, 3], [1.0, 2.0, 3.0])
        wal = store.read_wal(f"freq-session-{sid}")
        norm = server.query_norm(sid).value
        for bad in ([1.0, np.nan, np.inf], [np.inf, 1.0, 1.0], [1.0, 1.0, -np.inf]):
            with pytest.raises(ValueError, match="weights must be finite"):
                server.append_items(sid, [1, 2, 3], bad)
        assert store.read_wal(f"freq-session-{sid}") == wal
        assert server.query_norm(sid).value == norm
        assert server.query_range(sid, 0, DOMAIN).value == 6.0
        assert server.query_heavy_hitters(sid, k=3, phi=0.1).value
        fresh = SketchServer(shards=1, durability=DurabilityConfig(store=store))
        assert fresh.restore().ok
        assert fresh.query_norm(sid).value == norm

    def test_queries_and_ingest_advance_the_shard_clock(self, stream):
        server = SketchServer(shards=1)
        sid = server.open_frequency_stream(DOMAIN, phi=PHI, delta=DELTA)
        report = server.append_items(sid, stream.batches[0].ids)
        assert report.simulated_seconds > 0.0
        response = server.query_heavy_hitters(sid)
        assert response.compute_seconds > 0.0
        assert response.comm_seconds > 0.0
        assert response.simulated_seconds == pytest.approx(
            response.compute_seconds + response.comm_seconds
        )


class TestDurability:
    def test_crash_restore_serves_bitwise_identical_answers(self, stream, tmp_path):
        dur = DurabilityConfig(
            store=DirectoryCheckpointStore(str(tmp_path)),
            checkpoint_interval_batches=2,
        )
        before = SketchServer(shards=2, durability=dur)
        sid = before.open_frequency_stream(DOMAIN, phi=PHI, delta=DELTA)
        for batch in stream:
            before.append_items(sid, batch.ids)
        hh = before.query_heavy_hitters(sid).value
        norm = before.query_norm(sid).value

        # Crash: a brand-new server over the same store.
        after = SketchServer(shards=2, durability=dur)
        report = after.restore()
        assert sid in report.restored and not report.failed
        assert after.query_heavy_hitters(sid).value == hh
        assert after.query_norm(sid).value == norm
        assert after.frequencies.session(sid).engine.items_seen == stream.total_items

    def test_hierarchical_sessions_round_trip(self, tmp_path):
        dur = DurabilityConfig(
            store=DirectoryCheckpointStore(str(tmp_path)),
            checkpoint_interval_batches=10,
        )
        before = SketchServer(shards=1, durability=dur)
        sid = before.open_frequency_stream(
            DOMAIN, phi=0.1, delta=DELTA, need_ranges=True
        )
        rng = np.random.default_rng(0)
        before.append_items(sid, rng.integers(0, DOMAIN, size=5000))
        expected = before.query_range(sid, 17, 3001).value

        after = SketchServer(shards=1, durability=dur)
        after.restore()
        assert after.query_range(sid, 17, 3001).value == expected

    def test_save_covers_both_session_kinds(self, tmp_path):
        dur = DurabilityConfig(store=DirectoryCheckpointStore(str(tmp_path)))
        server = SketchServer(shards=2, durability=dur)
        stream_id = server.open_stream(8)
        freq_id = server.open_frequency_stream(DOMAIN, phi=PHI, delta=DELTA)
        saved = server.save()
        assert set(saved) == {stream_id, freq_id}
        assert all(size > 0 for size in saved.values())

    def test_corrupt_checkpoint_is_refused_with_typed_failure(self, tmp_path):
        dur = DurabilityConfig(store=DirectoryCheckpointStore(str(tmp_path)))
        before = SketchServer(shards=1, durability=dur)
        sid = before.open_frequency_stream(DOMAIN, phi=PHI, delta=DELTA)
        before.append_items(sid, np.arange(512) % DOMAIN)
        before.save()

        checkpoint = tmp_path / f"freq-session-{sid}" / "checkpoint.bin"
        blob = bytearray(checkpoint.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        checkpoint.write_bytes(bytes(blob))

        after = SketchServer(shards=1, durability=dur)
        report = after.restore()
        assert sid not in report.restored
        assert "ChecksumError" in report.failed[sid]
        assert sid not in after.frequencies

    def test_close_deletes_durable_state(self, tmp_path):
        dur = DurabilityConfig(store=DirectoryCheckpointStore(str(tmp_path)))
        server = SketchServer(shards=1, durability=dur)
        sid = server.open_frequency_stream(DOMAIN, phi=PHI, delta=DELTA)
        server.append_items(sid, np.arange(100))
        server.close_frequency_stream(sid)
        fresh = SketchServer(shards=1, durability=dur)
        assert fresh.restore().restored == {}


class TestAsyncRuntime:
    def test_stream_lane_answers_equal_library_calls(self, stream):
        runtime = AsyncSketchServer(shards=2, workers=2)
        try:
            sid = runtime.open_frequency_stream(DOMAIN, phi=PHI, delta=DELTA)
            futures = [runtime.append_items(sid, b.ids) for b in stream]
            hh_future = runtime.query_heavy_hitters(sid)
            norm_future = runtime.query_norm(sid)
            reports = [f.result() for f in futures]
            # Per-session FIFO: batches fold in admission order.
            assert reports[-1].items_seen == stream.total_items
            twin = _library_twin(runtime.server, stream)
            assert hh_future.result().value == twin.heavy_hitters(PHI)
            assert norm_future.result().value == twin.l2_estimate()
            stats = runtime.close_frequency_stream(sid)
            assert stats["items_seen"] == float(stream.total_items)
        finally:
            runtime.stop()

    def test_unknown_session_rejected_at_admission(self):
        runtime = AsyncSketchServer(shards=1, workers=1)
        try:
            with pytest.raises(KeyError):
                runtime.append_items(999, np.arange(4))
            with pytest.raises(KeyError):
                runtime.query_norm(999)
        finally:
            runtime.stop()

    def test_frequency_and_solver_streams_coexist(self, stream):
        runtime = AsyncSketchServer(shards=2, workers=2)
        try:
            freq_id = runtime.open_frequency_stream(DOMAIN, phi=PHI, delta=DELTA)
            solve_id = runtime.open_stream(8)
            rng = np.random.default_rng(1)
            rows, targets = rng.standard_normal((256, 8)), rng.standard_normal(256)
            f1 = runtime.append_items(freq_id, stream.batches[0].ids)
            f2 = runtime.append_rows(solve_id, rows, targets)
            f3 = runtime.query_norm(freq_id)
            f4 = runtime.query_solution(solve_id)
            assert f1.result().items == stream.batches[0].size
            assert f2.result().rows == 256
            assert f3.result().value > 0.0
            assert f4.result().x is not None
            runtime.close_frequency_stream(freq_id)
            runtime.close_stream(solve_id)
        finally:
            runtime.stop()
