"""Solver registry: uniform solve interface, capabilities, cost estimates."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpu.executor import GPUExecutor
from repro.linalg.conditioning import matrix_with_condition
from repro.linalg.registry import (
    SolveSpec,
    UNIT_ROUNDOFF,
    available_solvers,
    canonical_solver_name,
    get_solver,
    resolve_embedding_dim,
    solve,
    solver_capabilities,
)

D, N = 4096, 16

ALL_SOLVERS = (
    "normal_equations",
    "sketch_and_solve",
    "qr",
    "rand_cholqr",
    "sketch_precond_lsqr",
)


class TestRegistry:
    def test_all_five_paper_solvers_registered(self):
        assert set(ALL_SOLVERS) <= set(available_solvers())

    @pytest.mark.parametrize(
        "alias, canonical",
        [
            ("normal_eq", "normal_equations"),
            ("qr_solve", "qr"),
            ("rand_cholqr_lstsq", "rand_cholqr"),
            ("blendenpik", "sketch_precond_lsqr"),
            ("lsqr", "sketch_precond_lsqr"),
            ("sketch_preconditioned_lsqr", "sketch_precond_lsqr"),
        ],
    )
    def test_aliases_resolve(self, alias, canonical):
        assert canonical_solver_name(alias) == canonical
        assert get_solver(alias).name == canonical

    def test_unknown_solver_raises(self):
        with pytest.raises(ValueError, match="unknown solver"):
            canonical_solver_name("gradient_descent")

    def test_capability_table(self):
        caps = solver_capabilities()
        assert caps["normal_equations"].stability_exponent == 2
        assert not caps["normal_equations"].needs_sketch
        assert caps["sketch_and_solve"].distortion > 1.0
        assert caps["rand_cholqr"].distortion == 1.0
        assert caps["sketch_precond_lsqr"].iterative
        assert all(c.batched_rhs for c in caps.values())

    def test_normal_equations_floor_is_kappa_squared(self):
        caps = solver_capabilities()["normal_equations"]
        assert caps.accuracy_floor(1e4) == pytest.approx(
            caps.safety * UNIT_ROUNDOFF * 1e8
        )
        spec = SolveSpec(d=D, n=N, accuracy_target=1e-6)
        assert caps.admissible(spec, cond=1e2)
        assert not caps.admissible(spec, cond=1e6)
        # hard breakdown beyond u^{-1/2} regardless of target
        loose = SolveSpec(d=D, n=N, accuracy_target=1e30)
        assert not caps.admissible(loose, cond=1e9)

    def test_distortion_gate_excludes_sketch_and_solve(self):
        caps = solver_capabilities()["sketch_and_solve"]
        tolerant = SolveSpec(d=D, n=N, max_distortion=2.0)
        strict = SolveSpec(d=D, n=N, max_distortion=1.0)
        assert caps.admissible(tolerant, cond=10.0)
        assert not caps.admissible(strict, cond=10.0)


class TestSolveSpec:
    def test_from_problem_infers_shape_and_nrhs(self, rng):
        a = rng.standard_normal((D, N))
        b = rng.standard_normal((D, 3))
        spec = SolveSpec.from_problem(a, b, kind="gaussian")
        assert (spec.d, spec.n, spec.nrhs) == (D, N, 3)
        assert spec.embedding_dim == 2 * N

    def test_oversampling_changes_embedding_dim(self):
        assert SolveSpec(d=D, n=N, oversampling=3.0).embedding_dim == 3 * N
        assert resolve_embedding_dim("countsketch", D, N, 4.0) == min(4 * N * N, D)

    def test_validation(self):
        with pytest.raises(ValueError):
            SolveSpec(d=N, n=N)
        with pytest.raises(ValueError):
            SolveSpec(d=D, n=N, nrhs=0)
        with pytest.raises(ValueError):
            resolve_embedding_dim("gaussian", D, N, oversampling=1.0)


class TestUniformSolve:
    @pytest.mark.parametrize("name", ALL_SOLVERS)
    def test_single_rhs_solves_well_conditioned_problem(self, rng, name):
        a = matrix_with_condition(D, N, 50.0, seed=1)
        x_true = np.linspace(-1, 1, N)
        b = a @ x_true
        result = get_solver(name).solve(a, b)
        assert not result.failed
        np.testing.assert_allclose(result.x, x_true, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("name", ALL_SOLVERS)
    def test_multi_rhs_matches_columnwise(self, rng, name):
        a = matrix_with_condition(D, N, 50.0, seed=2)
        b = rng.standard_normal((D, 3))
        spec = SolveSpec.from_problem(a, b, seed=7)
        registered = get_solver(name)
        batched = registered.solve(a, b, spec)
        assert batched.x.shape == (N, 3)
        assert batched.column_residuals.shape == (3,)
        cols = np.column_stack(
            [registered.solve(a, b[:, j], spec.with_nrhs(1)).x for j in range(3)]
        )
        np.testing.assert_allclose(batched.x, cols, rtol=1e-6, atol=1e-8)

    def test_solve_entry_point_with_fixed_solver(self, rng):
        a = matrix_with_condition(D, N, 50.0, seed=3)
        b = a @ np.ones(N)
        result = solve(a, b, solver="qr")
        assert result.method == "qr"
        assert result.relative_residual < 1e-10

    def test_solve_entry_point_plans_when_no_solver_given(self, rng):
        a = matrix_with_condition(D, N, 1e12, seed=4)
        b = a @ np.ones(N)
        result = solve(a, b, accuracy_target=1e-8)
        assert not result.failed
        assert result.relative_residual < 1e-8
        assert "attempted" in result.extra

    def test_operator_reuse_and_executor_binding(self, rng):
        from repro.serving.cache import build_operator

        ex = GPUExecutor(numeric=True, seed=0, track_memory=False)
        op = build_operator("multisketch", D, N, executor=ex, seed=5)
        a = matrix_with_condition(D, N, 50.0, seed=5)
        b = a @ np.ones(N)
        r1 = get_solver("sketch_and_solve").solve(a, b, operator=op)
        r2 = get_solver("sketch_and_solve").solve(a, b, operator=op)
        np.testing.assert_array_equal(r1.x, r2.x)


class TestCostEstimates:
    def test_dry_run_matches_numeric_charge(self):
        """The analytic estimate is the seconds a real solve is charged."""
        spec = SolveSpec(d=D, n=N, nrhs=1, seed=9)
        est = get_solver("normal_equations").estimate_seconds(spec)
        ex = GPUExecutor(numeric=True, seed=9, track_memory=False)
        a = matrix_with_condition(D, N, 10.0, seed=9)
        result = get_solver("normal_equations").solve(a, a @ np.ones(N), spec, executor=ex)
        assert result.total_seconds == pytest.approx(est, rel=1e-6)

    def test_qr_most_expensive_at_compute_bound_sizes(self):
        spec = SolveSpec(d=1 << 17, n=64, nrhs=8)
        costs = {name: get_solver(name).estimate_seconds(spec) for name in ALL_SOLVERS}
        assert costs["qr"] > costs["normal_equations"]
        assert costs["qr"] > costs["sketch_and_solve"]

    def test_estimates_are_memoised(self):
        spec = SolveSpec(d=1 << 17, n=64, nrhs=8)
        first = get_solver("qr").estimate_seconds(spec)
        assert get_solver("qr").estimate_seconds(spec) == first

    def test_apriori_flop_model_agrees_with_dry_run_ranking(self):
        """The closed-form Table-1 model (documentation / asymptotics) and
        the analytic dry-run the planner actually ranks with must agree on
        the headline ordering at paper scale: QR dearer than sketch-based
        sketch-and-solve, LSQR dearer than one direct solve."""
        spec = SolveSpec(d=1 << 20, n=128, nrhs=1)
        caps = {name: get_solver(name).capabilities for name in ALL_SOLVERS}
        apriori = {name: caps[name].cost_estimate(spec) for name in ALL_SOLVERS}
        assert apriori["qr"] > apriori["sketch_and_solve"]
        assert apriori["sketch_precond_lsqr"] > apriori["rand_cholqr"]
        flops = caps["normal_equations"].flop_estimate(spec)
        assert flops["arithmetic"] > 0 and flops["read_writes"] > 0


class TestDryRunMemo:
    def test_a_new_device_never_reads_a_dead_devices_cost(self):
        """The memo is keyed on the device's value, not its address: a slow
        device allocated where a dead fast one lived gets its own cost."""
        from repro.gpu.device import H100_SXM5

        spec = SolveSpec(d=2048, n=16, nrhs=1, seed=3)
        solver = get_solver("normal_equations")
        fast_cost = solver.estimate_seconds(spec, H100_SXM5)
        for i in range(64):
            fast = H100_SXM5.with_overrides(name=f"fast-{i}")
            assert solver.estimate_seconds(spec, fast) == fast_cost
            del fast
            slow = H100_SXM5.with_overrides(
                name=f"slow-{i}", memory_bandwidth=H100_SXM5.memory_bandwidth / 2500
            )
            assert solver.estimate_seconds(spec, slow) > fast_cost, f"iteration {i}"
            del slow

    def test_memo_is_bounded_by_the_cost_model_cap(self, monkeypatch):
        import repro.linalg.registry as registry
        from repro.gpu.device import H100_SXM5
        from repro.gpu.kernels import COST_MEMO_CAP

        assert registry.COST_MEMO_CAP is COST_MEMO_CAP
        monkeypatch.setattr(registry, "COST_MEMO_CAP", 16)
        spec = SolveSpec(d=256, n=4, nrhs=1)
        solver = get_solver("normal_equations")
        for i in range(40):
            device = H100_SXM5.with_overrides(sync_overhead=1e-6 * (1 + i))
            solver.estimate_seconds(spec, device)
            assert len(registry._DRYRUN_COSTS) <= 16
