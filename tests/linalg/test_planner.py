"""Planner: condition probing, policy routing, fallback-chain execution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.countsketch import CountSketch
from repro.linalg.conditioning import (
    _singular_values,
    condition_number,
    estimate_condition,
    estimate_spectrum_bounds,
    matrix_with_condition,
)
from repro.linalg.planner import (
    POLICIES,
    SolvePlan,
    execute_plan,
    normalize_policy,
    plan,
    plan_and_execute,
)
from repro.linalg.registry import SolveSpec

D, N = 4096, 16


class TestConditionEstimate:
    @pytest.mark.parametrize("cond", [1e2, 1e6, 1e10])
    def test_tracks_true_condition_within_a_constant(self, cond):
        a = matrix_with_condition(2048, 8, cond, seed=2)
        est = estimate_condition(a)
        assert est == pytest.approx(condition_number(a), rel=0.5)

    def test_small_matrix_falls_back_to_exact(self):
        a = matrix_with_condition(12, 8, 1e3, seed=1)
        assert estimate_condition(a) == pytest.approx(1e3, rel=1e-6)

    def test_rejects_wide_input(self, rng):
        with pytest.raises(ValueError):
            estimate_condition(rng.standard_normal((8, 64)))


def _scatter_sketch(a, k, seed=0):
    """Reference probe sketch: ``CountSketch(d, k, seed)``'s draws, summed with ``np.add.at``."""
    d, n = a.shape
    sketch = CountSketch(d, k, seed=seed)
    signs = np.where(sketch.signs, 1.0, -1.0)
    sa = np.zeros((k, n))
    np.add.at(sa, sketch.row_map, a * signs[:, None])
    return sa


class TestSpectrumProbe:
    """The probe's sparse product and blocked R reduction against the dense reference."""

    def test_sparse_sketch_is_bit_identical_to_scatter(self):
        a = matrix_with_condition(16384, 32, 1e6, seed=4)
        k = 2 * 32 * 32  # the probe's k1 at oversampling 2: two blocks of 1024 rows
        first_stage = estimate_spectrum_bounds(a).first_stage
        assert first_stage.y.shape == (k, 32)
        assert np.array_equal(first_stage.y, _scatter_sketch(a, k))

    @pytest.mark.parametrize("cond", [1e2, 1e6, 1e10])
    def test_blocked_extremes_match_full_svd(self, cond):
        a = matrix_with_condition(16384, 32, cond, seed=4)
        reference = np.linalg.svd(_scatter_sketch(a, 2048), compute_uv=False)
        smax, smin = estimate_spectrum_bounds(a)
        assert smax == pytest.approx(reference.max(), rel=1e-6)
        assert smin == pytest.approx(reference.min(), rel=1e-6)

    def test_blocked_reduction_keeps_every_singular_value(self, rng):
        m = rng.standard_normal((5000, 40)) * np.geomspace(1.0, 1e-4, 40)
        np.testing.assert_allclose(
            _singular_values(m), np.linalg.svd(m, compute_uv=False), rtol=1e-10
        )

    def test_single_block_sketch_is_bit_identical(self):
        a = matrix_with_condition(2048, 16, 1e4, seed=4)  # k1 = 512 fits one block
        svals = np.linalg.svd(_scatter_sketch(a, 512), compute_uv=False)
        assert estimate_spectrum_bounds(a) == (float(svals.max()), float(svals.min()))

    @pytest.mark.parametrize(
        "cond, solver, chain",
        [
            (1e2, "normal_equations", ("normal_equations", "rand_cholqr", "qr", "sketch_precond_lsqr")),
            (1e4, "normal_equations", ("normal_equations", "rand_cholqr", "qr", "sketch_precond_lsqr")),
            (1e6, "sketch_and_solve", ("sketch_and_solve", "rand_cholqr", "qr", "sketch_precond_lsqr")),
            (1e8, "sketch_and_solve", ("sketch_and_solve", "rand_cholqr", "qr", "sketch_precond_lsqr")),
            (1e12, "rand_cholqr", ("rand_cholqr", "qr", "sketch_precond_lsqr")),
        ],
    )
    def test_adaptive_routing_golden(self, cond, solver, chain):
        """Routes recorded with the dense scatter-and-SVD probe at 65536 x 64."""
        p = plan(matrix_with_condition(65536, 64, cond, seed=5), policy="adaptive")
        assert (p.solver, p.chain) == (solver, chain)


class TestPolicies:
    def test_normalize(self):
        for p in POLICIES:
            assert normalize_policy(p.upper()) == p
        with pytest.raises(ValueError):
            normalize_policy("yolo")

    def test_fixed_policy_has_no_fallback(self):
        p = plan(None, SolveSpec(d=D, n=N), policy="fixed", solver="normal_eq")
        assert p.solver == "normal_equations"
        assert p.chain == ("normal_equations",)

    def test_fixed_policy_requires_solver(self):
        with pytest.raises(ValueError, match="explicit solver"):
            plan(None, SolveSpec(d=D, n=N), policy="fixed")

    def test_easy_problem_routes_away_from_qr(self):
        """At compute-bound sizes, benign conditioning picks a cheap solver."""
        spec = SolveSpec(d=1 << 17, n=64, nrhs=8, cond_estimate=100.0, accuracy_target=1e-6)
        p = plan(None, spec, policy="cheapest_accurate")
        assert p.solver == "normal_equations"
        assert p.chain[0] == "normal_equations"
        assert "qr" in p.chain  # still reachable as a fallback

    def test_hard_problem_excludes_normal_equations(self):
        spec = SolveSpec(d=1 << 17, n=64, nrhs=8, cond_estimate=1e12, accuracy_target=1e-6)
        p = plan(None, spec, policy="cheapest_accurate")
        assert p.solver != "normal_equations"
        assert "normal_equations" not in p.chain

    def test_probe_runs_when_estimate_missing(self):
        a = matrix_with_condition(D, N, 1e10, seed=3)
        p = plan(a, accuracy_target=1e-6)
        assert p.cond_estimate == pytest.approx(1e10, rel=0.5)
        assert p.solver != "normal_equations"

    def test_adaptive_prefers_robust_solver_within_budget(self):
        spec = SolveSpec(
            d=1 << 17, n=64, nrhs=8, cond_estimate=100.0,
            accuracy_target=1e-6, latency_budget=1.0,
        )
        generous = plan(None, spec, policy="adaptive")
        # Everything fits a one-second budget; the most robust exact solver
        # (flat O(u) floor) wins over the merely cheapest.
        assert generous.solver in ("qr", "rand_cholqr")

        tight = plan(
            None,
            SolveSpec(
                d=1 << 17, n=64, nrhs=8, cond_estimate=100.0,
                accuracy_target=1e-6, latency_budget=1e-12,
            ),
            policy="adaptive",
        )
        assert tight.solver == "normal_equations"  # degraded to cheapest
        assert "budget" in tight.reason

    def test_impossible_target_serves_best_effort(self):
        spec = SolveSpec(d=D, n=N, cond_estimate=1e19, accuracy_target=1e-12)
        p = plan(None, spec, policy="cheapest_accurate")
        assert p.chain[0] == "qr"  # most robust first
        assert "best-effort" in p.reason

    def test_costs_reported_for_every_solver(self):
        p = plan(None, SolveSpec(d=D, n=N, cond_estimate=10.0))
        assert set(p.costs) == {
            "normal_equations", "sketch_and_solve", "qr", "rand_cholqr",
            "sketch_precond_lsqr",
        }
        assert all(c > 0 for c in p.costs.values())

    def test_chain_must_start_with_solver(self):
        with pytest.raises(ValueError):
            SolvePlan(
                solver="qr", chain=("normal_equations",), kind="multisketch",
                embedding_dim=32, cond_estimate=1.0, policy="fixed", costs={},
            )


class TestFallbackExecution:
    def _forced_chain(self, *chain):
        return SolvePlan(
            solver=chain[0],
            chain=tuple(chain),
            kind="multisketch",
            embedding_dim=2 * N,
            cond_estimate=1e10,
            policy="cheapest_accurate",
            costs={},
        )

    def test_forced_potrf_failure_routes_to_lsqr(self):
        """The ISSUE's satellite: POTRF breakdown -> preconditioned LSQR."""
        a = matrix_with_condition(D, N, 1e10, seed=4)
        b = a @ np.ones(N)
        result = execute_plan(self._forced_chain("normal_equations", "sketch_precond_lsqr"), a, b)
        assert not result.failed
        assert result.method.startswith("blendenpik")
        assert result.attempted_solvers == ("normal_equations", "sketch_precond_lsqr")
        assert result.extra["fallbacks"] == 1.0
        # the original failure is carried, not swallowed
        assert "Cholesky" in result.failure_reason
        assert "Cholesky" in result.extra["fallback_reasons"]
        assert result.relative_residual < 1e-6

    def test_three_link_chain_walks_in_order(self):
        a = matrix_with_condition(D, N, 1e10, seed=5)
        b = a @ np.ones(N)
        result = execute_plan(
            self._forced_chain("normal_equations", "rand_cholqr", "sketch_precond_lsqr"), a, b
        )
        assert not result.failed
        assert result.attempted_solvers[:2] == ("normal_equations", "rand_cholqr")
        assert result.relative_residual < 1e-10

    def test_chain_exhaustion_keeps_last_failure(self):
        a = matrix_with_condition(D, N, 1e10, seed=6)
        b = a @ np.ones(N)
        result = execute_plan(self._forced_chain("normal_equations"), a, b)
        assert result.failed
        assert "Cholesky" in result.failure_reason
        assert result.extra["attempted"] == "normal_equations"

    def test_successful_first_link_records_no_fallback(self):
        a = matrix_with_condition(D, N, 10.0, seed=7)
        b = a @ np.ones(N)
        result = execute_plan(self._forced_chain("rand_cholqr", "qr"), a, b)
        assert result.attempted_solvers == ("rand_cholqr",)
        assert result.extra["fallbacks"] == 0.0
        assert result.failure_reason == ""

    def test_plan_and_execute_end_to_end_on_hard_problem(self):
        a = matrix_with_condition(D, N, 1e12, seed=8)
        b = a @ np.ones(N)
        result = plan_and_execute(a, b, accuracy_target=1e-8)
        assert not result.failed
        assert result.relative_residual < 1e-8
