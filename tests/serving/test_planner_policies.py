"""SketchServer routing policies: registry dispatch, telemetry, fallbacks."""

from __future__ import annotations

import weakref

import numpy as np
import pytest

from repro.linalg.conditioning import matrix_with_condition
from repro.serving import ServerConfig, SketchServer

D, N = 2048, 8


@pytest.fixture
def easy(rng):
    a = matrix_with_condition(D, N, 100.0, seed=1) * np.sqrt(float(D) * N)
    return a, a @ np.ones(N)


@pytest.fixture
def hard(rng):
    a = matrix_with_condition(D, N, 1e12, seed=2)
    return a, a @ np.ones(N)


class TestConfig:
    def test_policy_normalised_and_validated(self):
        assert ServerConfig(policy="ADAPTIVE").policy == "adaptive"
        with pytest.raises(ValueError):
            ServerConfig(policy="random")
        with pytest.raises(ValueError):
            ServerConfig(oversampling=0.5)
        with pytest.raises(ValueError):
            ServerConfig(accuracy_target=0.0)

    def test_all_registered_solvers_accepted(self):
        for solver in ("normal_equations", "qr", "sketch_precond_lsqr",
                       "sketch_and_solve", "rand_cholqr"):
            assert ServerConfig(solver=solver).solver == solver

    def test_oversampling_threads_into_operator_build(self, easy):
        a, b = easy
        server = SketchServer(kind="gaussian", shards=1, seed=0, oversampling=4.0)
        server.solve(a, b)
        (key,) = server.cache.keys()
        assert key[3] == 4 * N  # k = oversampling * n

    def test_default_policy_is_fixed(self):
        assert ServerConfig().policy == "fixed"


class TestFixedPolicyServesEverySolver:
    @pytest.mark.parametrize("solver", ["normal_equations", "qr", "sketch_precond_lsqr"])
    def test_direct_and_iterative_solvers_served(self, easy, solver):
        a, b = easy
        server = SketchServer(solver=solver, shards=1, seed=0)
        resp = server.solve(a, b)
        assert resp.executed_solver == solver
        assert resp.relative_residual < 1e-5
        np.testing.assert_allclose(resp.x, np.ones(N), rtol=1e-4, atol=1e-5)

    def test_fixed_normal_equations_still_fails_hard(self, hard):
        """The pre-registry baseline behaviour is preserved under 'fixed'."""
        a, b = hard
        server = SketchServer(solver="normal_equations", shards=1, seed=0)
        resp = server.solve(a, b)
        assert resp.extra["failed"] == 1.0
        assert resp.x is None
        assert server.stats()["failed_requests"] == 1.0

    def test_direct_solver_batches_skip_operator_cache(self, easy):
        a, b = easy
        server = SketchServer(solver="normal_equations", shards=1, seed=0)
        server.solve(a, b)
        assert len(server.cache) == 0
        assert server.cache.stats.lookups == 0


class TestAdaptiveRouting:
    def test_hard_traffic_routed_off_normal_equations(self, easy, hard):
        server = SketchServer(policy="cheapest_accurate", shards=1, seed=0,
                              accuracy_target=1e-6)
        easy_resp = server.solve(*easy)
        hard_resp = server.solve(*hard)
        assert easy_resp.extra["failed"] == 0.0 and hard_resp.extra["failed"] == 0.0
        assert hard_resp.executed_solver != "normal_equations"
        assert hard_resp.relative_residual < 1e-6
        assert np.isfinite(easy_resp.extra["cond_estimate"])

    def test_conditioning_probe_is_cached_per_matrix(self, easy):
        a, b = easy
        server = SketchServer(policy="cheapest_accurate", shards=1, seed=0)
        server.solve(a, b)
        server.solve(a, 2.0 * b)
        assert len(server._cond_cache) == 1

    def test_one_shot_traffic_does_not_evict_a_live_matrix(self, easy, rng, monkeypatch):
        """Dead one-shot entries leave the memo; the shared matrix is probed once."""
        import repro.linalg.conditioning as conditioning

        shared, b = easy
        probed = []
        real = conditioning.estimate_spectrum_bounds

        def counting(a, **kwargs):
            probed.append(a is shared)
            return real(a, **kwargs)

        monkeypatch.setattr(conditioning, "estimate_spectrum_bounds", counting)
        server = SketchServer(policy="cheapest_accurate", shards=1, seed=0)
        for _ in range(300):
            one_shot = rng.standard_normal((64, 4))
            server.solve(one_shot, one_shot @ np.ones(4))
            server.solve(shared, b)
        assert probed.count(True) == 1
        assert probed.count(False) == 300
        assert len(server._cond_cache) <= 2  # the shared matrix, maybe the last one-shot

    def test_per_request_accuracy_target_routes_independently(self, hard):
        a, b = hard
        server = SketchServer(policy="cheapest_accurate", shards=1, seed=0,
                              accuracy_target=1e-6)
        strict = server.solve(a, b, accuracy_target=1e-10)
        loose = server.solve(a, b, accuracy_target=1e-2)
        assert strict.extra["failed"] == 0.0 and loose.extra["failed"] == 0.0
        assert strict.relative_residual < 1e-10

    def test_requests_with_different_targets_do_not_fuse(self, easy):
        a, b = easy
        server = SketchServer(policy="cheapest_accurate", shards=1, max_batch=8, seed=0)
        server.submit(a, b, accuracy_target=1e-4)
        server.submit(a, b, accuracy_target=1e-10)
        responses = server.flush()
        assert [r.batch_size for r in responses] == [1, 1]

    def test_policy_recorded_on_responses(self, easy):
        a, b = easy
        server = SketchServer(policy="adaptive", shards=1, seed=0)
        resp = server.solve(a, b)
        assert resp.policy == "adaptive"
        assert resp.extra["planned"] == resp.executed_solver


class TestFallbackTelemetry:
    def test_runtime_fallback_recorded(self, hard):
        a, b = hard
        server = SketchServer(policy="cheapest_accurate", shards=1, seed=0,
                              accuracy_target=1e-2)
        server._cond_cache[(id(a), a.shape)] = (weakref.ref(a), (100.0, None))  # poison: looks benign
        resp = server.solve(a, b)
        if resp.fallbacks:  # planner chose a breakable solver and was rescued
            assert resp.extra["failed"] == 0.0
            assert server.stats()["fallback_batches"] >= 1.0
            hops = server.telemetry.fallback_counts()
            assert sum(hops.values()) >= 1

    def test_per_solver_latency_histograms(self, easy, hard):
        server = SketchServer(shards=1, seed=0)  # fixed policy, per-request solver
        server.solve(*easy, solver="sketch_and_solve")
        server.solve(*easy, solver="rand_cholqr")
        server.solve(*hard, solver="qr")
        stats = server.stats()
        seen = server.telemetry.solvers_seen()
        assert set(seen) == {"sketch_and_solve", "rand_cholqr", "qr"}
        for solver in seen:
            assert stats[f"solver_{solver}_requests"] >= 1.0
            assert stats[f"solver_{solver}_p99_seconds"] > 0.0
            summary = server.telemetry.solver_latency_summary(solver)
            assert summary.p50 <= summary.p99

    def test_failed_requests_counted(self, hard):
        a, b = hard
        server = SketchServer(solver="normal_equations", shards=1, max_batch=4, seed=0)
        for _ in range(4):
            server.submit(a, b)
        server.flush()
        assert server.stats()["failed_requests"] == 4.0
