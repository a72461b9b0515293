"""SketchServer problem-class endpoints: solve_ridge and approx_lowrank."""

from __future__ import annotations

import numpy as np
import pytest

from repro.problems import RIDGE_SOLVERS, dense_ridge_reference, ridge_residuals
from repro.serving import SketchServer
from repro.workloads import decaying_spectrum_matrix, make_ridge_problem

D, N, RANK = 2048, 16, 4


@pytest.fixture
def server():
    return SketchServer(shards=2, policy="cheapest_accurate", seed=0)


@pytest.fixture
def ridge_problem():
    return make_ridge_problem(D, N, cond=1e4, lam_rel=1e-4, seed=2)


@pytest.fixture
def lowrank_problem():
    return decaying_spectrum_matrix(D, 32, rank=RANK, decay=0.4, seed=3)


class TestSolveRidgeEndpoint:
    def test_routes_to_a_ridge_solver_and_matches_reference(self, server, ridge_problem):
        p = ridge_problem
        resp = server.solve_ridge(p.a, p.b, p.lam)
        assert resp.problem == "ridge"
        assert resp.executed_solver in RIDGE_SOLVERS
        assert resp.extra["regularization"] == p.lam
        x_ref = dense_ridge_reference(p.a, p.b, p.lam)
        _, ref_rel, _ = ridge_residuals(p.a, p.b, x_ref, p.lam)
        assert resp.relative_residual <= 1.1 * ref_rel
        assert resp.extra["failed"] == 0.0
        assert resp.simulated_seconds > 0

    def test_attempted_chain_recorded(self, server, ridge_problem):
        p = ridge_problem
        resp = server.solve_ridge(p.a, p.b, p.lam)
        attempted = str(resp.extra["attempted"]).split("->")
        assert set(attempted) <= set(RIDGE_SOLVERS)
        assert attempted[-1] == resp.executed_solver

    def test_fixed_server_routes_ridge_adaptively(self, ridge_problem):
        p = ridge_problem
        server = SketchServer(shards=1, policy="fixed", seed=0)  # default solver is LS-class
        resp = server.solve_ridge(p.a, p.b, p.lam)
        assert resp.policy == "cheapest_accurate"
        assert resp.executed_solver in RIDGE_SOLVERS

    def test_explicit_solver_pins_fixed_routing(self, ridge_problem):
        p = ridge_problem
        server = SketchServer(shards=1, policy="fixed", seed=0)
        resp = server.solve_ridge(p.a, p.b, p.lam, solver="ridge_normal_equations")
        assert resp.policy == "fixed"
        assert resp.executed_solver == "ridge_normal_equations"

    def test_hard_ridge_rescued_by_fallback_chain(self, server):
        p = make_ridge_problem(D, N, cond=1e12, lam_rel=1e-20, seed=4)
        resp = server.solve_ridge(p.a, p.b, p.lam)
        assert resp.extra["failed"] == 0.0
        assert resp.executed_solver in RIDGE_SOLVERS

    def test_operator_cache_uses_ridge_namespace(self, ridge_problem):
        p = ridge_problem
        server = SketchServer(shards=1, policy="fixed", seed=0)
        # Pin routing to the sketch-needing ridge solver so an operator is built.
        first = server.solve_ridge(p.a, p.b, p.lam, solver="ridge_precond_lsqr")
        second = server.solve_ridge(p.a, p.b, p.lam, solver="ridge_precond_lsqr")
        assert not first.cache_hit and second.cache_hit
        ridge_keys = [k for k in server.cache.keys() if k[-1] == "ridge"]
        assert len(ridge_keys) == 1
        # The cached operator embeds the augmented (d + n)-row system.
        assert ridge_keys[0][1] == D + N
        # Least squares on the same matrix rides the same batched path but
        # never aliases the ridge operator: its key is d rows, namespace "".
        assert not server.solve(p.a, p.b).cache_hit
        (ls_key,) = [k for k in server.cache.keys() if k[-1] == ""]
        assert ls_key[1] == D and ls_key[-2] == "sketch_and_solve"

    def test_validation(self, server, ridge_problem):
        p = ridge_problem
        with pytest.raises(ValueError):
            server.solve_ridge(p.a, p.b, 0.0)
        with pytest.raises(ValueError):
            server.solve_ridge(p.a.T, p.b, p.lam)
        with pytest.raises(ValueError):
            server.solve_ridge(p.a, p.b[:-1], p.lam)

    def test_matrix_rhs_rejected_at_submit(self, server, ridge_problem):
        p = ridge_problem
        with pytest.raises(ValueError):
            server.solve_ridge(p.a, np.column_stack([p.b, p.b]), p.lam)
        assert server.pending == 0

    def test_flushes_pending_requests_like_solve(self, server, ridge_problem):
        p = ridge_problem
        pending_id = server.submit(p.a, p.b)
        resp = server.solve_ridge(p.a, p.b, p.lam)
        assert server.pending == 0
        assert resp.request_id == pending_id + 1
        assert server.stats()["requests_served"] == 2.0

    def test_telemetry_counts_ridge_requests(self, server, ridge_problem):
        p = ridge_problem
        resp = server.solve_ridge(p.a, p.b, p.lam)
        stats = server.stats()
        assert stats["requests_served"] >= 1.0
        assert stats[f"solver_{resp.executed_solver}_requests"] >= 1.0


class TestApproxLowRankEndpoint:
    def test_rangefinder_near_optimal(self, server, lowrank_problem):
        p = lowrank_problem
        resp = server.approx_lowrank(p.a, RANK, power_iters=1)
        assert resp.method == "rangefinder"
        assert resp.relative_error <= 1.5 * p.optimal_error(RANK)
        assert resp.left.shape == (D, RANK)
        assert resp.right.shape == (RANK, 32)
        assert resp.simulated_seconds > 0

    def test_operator_cached_across_requests(self, server, lowrank_problem):
        p = lowrank_problem
        first = server.approx_lowrank(p.a, RANK)
        second = server.approx_lowrank(p.a, RANK)
        assert not first.cache_hit and second.cache_hit
        lowrank_keys = [k for k in server.cache.keys() if k[-1] == "lowrank"]
        assert len(lowrank_keys) == 1

    def test_frequent_directions_path(self, server, lowrank_problem):
        p = lowrank_problem
        resp = server.approx_lowrank(p.a, RANK, method="frequent_directions")
        assert resp.method == "frequent_directions"
        assert not resp.cache_hit  # deterministic: no operator state
        assert resp.relative_error <= 1.5 * p.optimal_error(RANK)
        assert resp.extra["ell"] == 2 * RANK

    def test_validation(self, server):
        with pytest.raises(ValueError):
            server.approx_lowrank(np.ones(8), 2)
        with pytest.raises(ValueError):
            server.approx_lowrank(np.ones((8, 4)), 2, method="nope")


class TestFdStreamingSessions:
    def test_fd_session_serves_without_cache_pin(self, server, rng):
        n = 8
        sid = server.open_stream(n, mode="fd", detector=False)
        assert server.streams.session(sid).cache_key is None
        x_true = np.ones(n)
        for _ in range(4):
            rows = rng.standard_normal((128, n))
            server.append_rows(sid, rows, rows @ x_true)
        resp = server.query_solution(sid)
        assert resp.relative_residual < 1e-8
        stats = server.close_stream(sid)
        assert stats["rows_ingested"] == 512.0
