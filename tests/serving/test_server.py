"""SketchServer end-to-end: correctness, fusion, caching, sharding, stats."""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.distributed.comm import CommRecord
from repro.gpu.executor import GPUExecutor
from repro.gpu.memory import Allocation
from repro.gpu.timing import KernelTiming, SimClock
from repro.linalg.lstsq import sketch_and_solve
from repro.serving import ServerConfig, SketchServer, naive_solve_loop
from repro.serving.cache import build_operator
from repro.serving.scheduler import ShardScheduler

D, N = 2048, 8


@pytest.fixture
def problem(rng):
    a = rng.standard_normal((D, N))
    x_true = np.linspace(-1.0, 1.0, N)
    return a, x_true


class TestCorrectness:
    @pytest.mark.parametrize("kind", ["multisketch", "countsketch", "gaussian", "srht"])
    def test_batched_solution_matches_unbatched_reference(self, rng, problem, kind):
        a, x_true = problem
        bs = [a @ x_true + 0.01 * rng.standard_normal(D) for _ in range(4)]

        server = SketchServer(kind=kind, shards=1, max_batch=4, seed=11)
        for b in bs:
            server.submit(a, b)
        responses = server.flush()
        assert responses[0].batch_size == 4

        # Reference: the same operator (same seed -> identical sketch state)
        # applied one request at a time.
        ex = GPUExecutor(numeric=True, seed=123, track_memory=False)
        op = build_operator(kind, D, N, executor=ex, seed=11)
        for b, resp in zip(bs, responses):
            ref = sketch_and_solve(a, b, op)
            np.testing.assert_allclose(resp.x, ref.x, rtol=1e-8, atol=1e-10)
            assert resp.relative_residual == pytest.approx(ref.relative_residual, rel=1e-6)

    def test_rand_cholqr_served_has_no_distortion(self, rng, problem):
        a, x_true = problem
        b = a @ x_true  # consistent system: exact solution exists
        server = SketchServer(kind="multisketch", solver="rand_cholqr", shards=1, seed=2)
        resp = server.solve(a, b)
        assert resp.relative_residual < 1e-10
        np.testing.assert_allclose(resp.x, x_true, rtol=1e-8, atol=1e-8)

    def test_solve_returns_response_for_the_right_request(self, rng, problem):
        a, x_true = problem
        server = SketchServer(kind="countsketch", shards=1, seed=2)
        server.submit(a, a @ x_true)
        resp = server.solve(a, 2.0 * (a @ x_true))
        assert resp.request_id == 1
        assert server.pending == 0

    def test_responses_in_submission_order(self, rng, problem):
        a, _ = problem
        a2 = rng.standard_normal((D, N))
        server = SketchServer(kind="countsketch", shards=2, seed=2)
        ids = []
        for i in range(6):
            m = a if i % 2 == 0 else a2
            ids.append(server.submit(m, m @ np.ones(N)))
        got = [r.request_id for r in server.flush()]
        assert got == ids


class TestCachingAndBatching:
    def test_repeated_shape_traffic_hits_cache(self, rng, problem):
        a, x_true = problem
        server = SketchServer(kind="multisketch", shards=2, max_batch=8, seed=0)
        for _ in range(12):
            for _ in range(8):
                server.submit(a, a @ x_true + rng.standard_normal(D))
            server.flush()
        stats = server.stats()
        # 12 batches, one cold build: the hit rate counts one lookup per
        # batch, i.e. genuine cross-batch operator reuse.
        assert stats["cache_hit_rate"] > 0.9
        assert stats["cache_misses"] == 1.0
        assert stats["cache_hits"] == 11.0
        assert stats["mean_batch_size"] == 8.0

    def test_cache_hit_routes_to_owning_shard_without_replication(self, rng, problem):
        a, x_true = problem
        server = SketchServer(kind="countsketch", shards=2, seed=0,
                              replicate_operators=False)
        first = server.solve(a, a @ x_true)
        second = server.solve(a, 2.0 * (a @ x_true))
        assert second.cache_hit and not first.cache_hit
        assert first.shard == second.shard

    def test_hot_operator_replicates_to_idle_shard(self, rng, problem):
        a, x_true = problem
        server = SketchServer(kind="countsketch", shards=2, seed=0)
        first = server.solve(a, a @ x_true)
        second = server.solve(a, 2.0 * (a @ x_true))
        # The owning shard is busy, the other idle: the operator is rebuilt
        # from its seed on the idle shard and the batch runs there.
        assert second.cache_hit
        assert second.shard != first.shard
        assert "operator_key" in server.scheduler.comm_by_name()
        np.testing.assert_allclose(first.x, second.x * 0.5, rtol=1e-12)

    def test_seedless_server_serves_without_replication(self, rng, problem):
        """Unseeded operators are not rebuildable, so they stay pinned."""
        a, x_true = problem
        server = SketchServer(kind="gaussian", shards=2, max_batch=2, seed=None)
        for _ in range(8):
            server.submit(a, a @ x_true + 0.01 * rng.standard_normal(D))
        responses = server.flush()
        assert len(responses) == 8
        assert len({r.shard for r in responses}) == 1  # pinned to the owner
        assert all(r.relative_residual < 0.05 for r in responses)

    def test_replicated_traffic_uses_every_shard(self, rng, problem):
        a, x_true = problem
        server = SketchServer(kind="multisketch", shards=2, max_batch=4, seed=0)
        for _ in range(16):
            server.submit(a, a @ x_true + rng.standard_normal(D))
        server.flush()
        loads = server.pool.loads()
        assert min(loads) > 0.0, f"a shard idled on hot single-shape traffic: {loads}"

    def test_distinct_shapes_spread_across_shards(self, rng):
        server = SketchServer(kind="countsketch", shards=2, seed=0)
        a1 = rng.standard_normal((D, N))
        a2 = rng.standard_normal((D // 2, N))
        server.solve(a1, np.ones(D))
        server.solve(a2, np.ones(D // 2))
        assert sorted(server.scheduler.batches_per_shard) == [1, 1]

    def test_max_batch_splits_large_groups(self, rng, problem):
        a, x_true = problem
        server = SketchServer(kind="countsketch", shards=1, max_batch=4, seed=0)
        for _ in range(10):
            server.submit(a, a @ x_true)
        responses = server.flush()
        assert sorted({r.batch_size for r in responses}) == [2, 4]
        assert server.stats()["batches_executed"] == 3.0

    def test_cache_eviction_keeps_serving(self, rng):
        server = SketchServer(kind="gaussian", shards=1, cache_capacity=1, seed=0)
        a1 = rng.standard_normal((D, N))
        a2 = rng.standard_normal((D // 2, N))
        server.solve(a1, np.ones(D))
        server.solve(a2, np.ones(D // 2))  # evicts a1's operator
        resp = server.solve(a1, np.ones(D))  # rebuilt from the seed
        assert not resp.cache_hit
        assert server.cache.stats.evictions >= 1


class TestStatsAndComm:
    def test_stats_keys_present(self, rng, problem):
        a, x_true = problem
        server = SketchServer(kind="multisketch", shards=2, seed=0)
        server.solve(a, a @ x_true)
        stats = server.stats()
        for key in ("requests_per_second", "p50_seconds", "p95_seconds", "p99_seconds",
                    "cache_hit_rate", "comm_seconds", "comm_bytes", "makespan_seconds",
                    "shard0_busy_seconds", "shard1_busy_seconds"):
            assert key in stats, key

    def test_cross_shard_traffic_charged_per_batch(self, rng, problem):
        a, x_true = problem
        server = SketchServer(kind="countsketch", shards=2, seed=0,
                              replicate_operators=False)
        server.solve(a, a @ x_true)
        server.solve(a, a @ x_true)
        # one result_return record per executed batch, n*1 doubles each
        assert len(server.scheduler.records) == 2
        assert server.scheduler.comm_bytes() == 2 * N * 8

    def test_latency_includes_comm(self, rng, problem):
        a, x_true = problem
        server = SketchServer(kind="countsketch", shards=1, seed=0)
        resp = server.solve(a, a @ x_true)
        assert resp.simulated_seconds == pytest.approx(resp.compute_seconds + resp.comm_seconds)
        assert resp.comm_seconds > 0

    def test_sketch_request_served_and_cached(self, rng, problem):
        a, _ = problem
        server = SketchServer(kind="countsketch", shards=1, seed=0)
        r1 = server.sketch(a)
        r2 = server.sketch(a)
        assert r1.sketch.shape == (r1.k, N)
        np.testing.assert_array_equal(r1.sketch, r2.sketch)
        assert not r1.cache_hit and r2.cache_hit
        assert server.stats()["sketch_requests"] == 2.0


class TestConfig:
    def test_config_object_and_overrides_exclusive(self):
        with pytest.raises(ValueError):
            SketchServer(ServerConfig(), shards=3)

    def test_invalid_shards(self):
        with pytest.raises(ValueError):
            SketchServer(shards=0)

    def test_naive_loop_reference(self, rng, problem):
        a, x_true = problem
        traffic = [(a, a @ x_true) for _ in range(4)]
        out = naive_solve_loop(traffic, kind="countsketch", seed=0)
        assert out["requests"] == 4
        assert out["simulated_seconds"] > 0
        assert all(r.relative_residual < 1e-6 for r in out["results"])


class TestBoundedLogs:
    """A long-running server keeps bounded kernel/allocation/transfer logs, exact totals."""

    CAP = 256

    def _live(self, cls):
        gc.collect()
        return sum(1 for o in gc.get_objects() if type(o) is cls)

    def _serve(self, rng, solves):
        a = rng.standard_normal((256, 4))
        server = SketchServer(kind="countsketch", shards=2, seed=0)
        for i in range(solves):
            server.solve(a, a @ np.ones(4) + i)
        pool = server.pool
        return server, (
            [ex.elapsed for ex in pool],
            sum(ex.breakdown().total_flops() for ex in pool),
            sum(ex.breakdown().total_bytes() for ex in pool),
            [ex.breakdown().by_kernel() for ex in pool],
            server.scheduler.comm_seconds(),
            server.scheduler.comm_bytes(),
        )

    def test_logs_stay_under_the_cap_with_uncapped_totals(self, monkeypatch):
        monkeypatch.setattr(SimClock, "RETAIN_RECORDS", 10**9)
        monkeypatch.setattr(ShardScheduler, "RETAIN_RECORDS", 10**9)
        uncapped, expected = self._serve(np.random.default_rng(3), 2000)
        del uncapped

        monkeypatch.setattr(SimClock, "RETAIN_RECORDS", self.CAP)
        monkeypatch.setattr(ShardScheduler, "RETAIN_RECORDS", self.CAP)
        before = {cls: self._live(cls) for cls in (KernelTiming, Allocation, CommRecord)}
        server, totals = self._serve(np.random.default_rng(3), 2000)
        assert totals == expected
        # per shard: at most 2 * CAP verbatim records plus one aggregate per (kernel, phase)
        assert self._live(KernelTiming) - before[KernelTiming] <= 2 * (2 * self.CAP + 32)
        assert self._live(Allocation) - before[Allocation] == 0  # untracked: counters only
        assert self._live(CommRecord) - before[CommRecord] <= self.CAP
        assert len(server.scheduler.records) == self.CAP
