"""The spectrum probe is the multisketch's first stage, and its product is reused.

The planner's probe sketches ``A`` with exactly the CountSketch that is
stage 0 of the server's Count-Gauss operator, so a batch hands the probed
``S1 A`` to its sketch solver instead of reading ``A`` a second time.  These
tests pin the geometry, the one-product-per-solve hand-off, bit-identical
answers, the product's one-batch lifetime, and the paths that must keep
working without a hand-off.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import weakref

import numpy as np
import pytest

import repro.linalg
import repro.linalg.planner as planner
from repro.core.countsketch import CountSketch
from repro.core.gaussian import GaussianSketch
from repro.core.multisketch import count_gauss, first_stage_dim
from repro.gpu.executor import GPUExecutor
from repro.linalg import registry
from repro.linalg.conditioning import estimate_spectrum_bounds, matrix_with_condition
from repro.serving import AsyncSketchServer, SketchServer
from repro.serving.cache import build_operator, resolve_embedding_dim

pytestmark = pytest.mark.serving

#: The benchmark's tall shape: the smallest at which the simulated costs
#: route kappa ~ 1e6 to sketch-and-solve and kappa ~ 1e12 to rand_cholQR.
D, N = 65536, 64

_BASIS = {}


def _problem(cond: float, seed: int = 3, dtype=np.float64):
    """A fresh ``D x N`` matrix with condition ``cond`` and a noisy rhs."""
    if "u" not in _BASIS:
        _BASIS["u"] = np.linalg.qr(np.random.default_rng(0).standard_normal((D, N)))[0]
    rng = np.random.default_rng(seed)
    v = np.linalg.qr(rng.standard_normal((N, N)))[0]
    a = ((_BASIS["u"] * np.geomspace(1.0, 1.0 / cond, N)) @ v.T).astype(dtype)
    b = a @ rng.standard_normal(N) + 1e-3 * rng.standard_normal(D).astype(dtype)
    return a, b


def _fresh_answer(a, b, solver, *, kind="multisketch", seed=0, oversampling=2.0):
    """``registry.solve`` with a freshly built operator of the server's cache key."""
    d, n = a.shape
    operator = build_operator(
        kind,
        d,
        n,
        k=resolve_embedding_dim(kind, d, n, oversampling),
        executor=GPUExecutor(numeric=True, seed=seed, track_memory=False),
        seed=seed,
        dtype=a.dtype,
    )
    return registry.solve(a, b, solver=solver, operator=operator)


@pytest.fixture
def stage0_products(monkeypatch):
    """Record every CountSketch product of a ``D``-row input, by output height."""
    calls = []
    real = CountSketch._multiply

    def counting(self, a):
        if a.shape == (D, N):
            calls.append(self.k)
        return real(self, a)

    monkeypatch.setattr(CountSketch, "_multiply", counting)
    return calls


class TestProbeGeometry:
    def test_probe_is_stage_zero_of_the_seeded_multisketch(self):
        a, _ = _problem(1e6)
        bounds = estimate_spectrum_bounds(a, seed=7)
        stage0 = count_gauss(D, N, seed=7).stages[0]
        assert bounds.first_stage.key == stage0.cache_key()
        assert bounds.first_stage.y.shape == (first_stage_dim(D, N), N) == (2 * N * N, N)
        assert bounds.first_stage.y.tobytes() == stage0.sketch_host(a).tobytes()

    def test_return_is_still_the_plain_pair(self):
        a, _ = _problem(1e4)
        bounds = estimate_spectrum_bounds(a)
        smax, smin = bounds
        assert bounds == (smax, smin)
        assert isinstance(bounds, tuple) and len(bounds) == 2
        assert copy.deepcopy(bounds) == bounds

    def test_product_is_read_only(self):
        a, _ = _problem(1e4)
        y = estimate_spectrum_bounds(a).first_stage.y
        with pytest.raises(ValueError):
            y[0, 0] = 1.0

    def test_exact_svd_when_the_sketch_would_not_shrink(self):
        a = matrix_with_condition(64, 8, 1e3, seed=1)  # 2 n^2 = 128 >= d
        assert estimate_spectrum_bounds(a).first_stage is None


class TestSketchProduct:
    """``with_first_stage`` serves the stored product for its own ``A`` only."""

    def _counted(self, monkeypatch):
        calls = []
        real = CountSketch._multiply

        def counting(self, a):
            calls.append(a.shape)
            return real(self, a)

        monkeypatch.setattr(CountSketch, "_multiply", counting)
        return calls

    def test_serves_the_probed_buffer_and_recomputes_anything_else(self, monkeypatch):
        rng = np.random.default_rng(5)
        a, other = rng.standard_normal((2, 4096, 8))
        ex = GPUExecutor(numeric=True, seed=0, track_memory=False)
        sketch = CountSketch(4096, 128, executor=ex, seed=1)
        product = sketch.host_product(a)
        twin = sketch.with_first_stage(product)
        assert twin is not sketch and twin.cache_key() == sketch.cache_key()
        calls = self._counted(monkeypatch)
        view = a.view()
        view.flags.writeable = False
        served = twin.apply(ex.place_readonly(view)).to_host()
        assert calls == [] and served.tobytes() == product.y.tobytes()
        # Same shape, different buffer: computed afresh, never the stored product.
        fresh = twin.apply(ex.place_readonly(other)).to_host()
        assert calls == [other.shape]
        assert fresh.tobytes() == sketch.sketch_host(other).tobytes()
        # The shared operator itself never serves the product.
        assert sketch.apply(ex.place_readonly(a)).to_host().tobytes() == product.y.tobytes()
        assert len(calls) == 3

    def test_charges_the_same_kernels(self):
        a = np.random.default_rng(6).standard_normal((4096, 8))
        charged = []
        for reuse in (False, True):
            ex = GPUExecutor(numeric=True, seed=0, track_memory=False)
            sketch = count_gauss(4096, 8, executor=ex, seed=2).generate()
            if reuse:
                sketch = sketch.with_first_stage(
                    estimate_spectrum_bounds(a, seed=2).first_stage
                )
            mark = ex.mark()
            y = sketch.apply(ex.place_readonly(a)).to_host()
            records = ex.breakdown_since(mark).records
            charged.append((y.tobytes(), [(r.name, r.seconds, r.phase) for r in records]))
        assert charged[0] == charged[1]

    def test_other_operators_are_returned_unchanged(self):
        a = np.random.default_rng(7).standard_normal((4096, 8))
        product = estimate_spectrum_bounds(a, seed=2).first_stage
        others = [
            CountSketch(4096, 128, seed=3),  # another seed
            CountSketch(4096, 128, seed=2, variant="spmm"),
            CountSketch(4096, 128, seed=2, dtype=np.float32),
            CountSketch(4096, 128, seed=None),
            count_gauss(4096, 8, seed=2, countsketch_variant="spmm"),
            GaussianSketch(4096, 16, seed=2),
        ]
        for operator in others:
            assert operator.with_first_stage(product) is operator
        matching = CountSketch(4096, 128, seed=2)
        assert matching.with_first_stage(product) is not matching


class TestHandOff:
    @pytest.mark.parametrize("cond, solver", [(1e6, "sketch_and_solve"), (1e12, "rand_cholqr")])
    def test_one_stage_zero_product_and_identical_answer(self, cond, solver, stage0_products):
        a, b = _problem(cond)
        server = SketchServer(policy="adaptive", shards=2, seed=0)
        resp = server.solve(a, b)
        assert resp.executed_solver == solver
        # The probe computed S1 A once; the solver reused it.
        assert stage0_products == [first_stage_dim(D, N)]
        del stage0_products[:]
        fresh = _fresh_answer(a, b, solver)
        assert resp.x.tobytes() == fresh.x.tobytes()

    def test_fallback_link_reuses_the_product(self, stage0_products, monkeypatch):
        """A normal-equations breakdown falls back to rand_cholQR, which reuses S1 A."""
        a, b = _problem(1e2)
        normal_equations = registry.get_solver("normal_equations")
        real = normal_equations.adapter

        def breaks(a_, b_, spec, *, operator=None, executor=None):
            result = real(a_, b_, spec, operator=operator, executor=executor)
            result.failed, result.x = True, None
            result.failure_reason = "injected POTRF breakdown"
            return result

        monkeypatch.setitem(
            registry._REGISTRY, "normal_equations", dataclasses.replace(normal_equations, adapter=breaks)
        )
        server = SketchServer(policy="adaptive", shards=1, seed=0)
        resp = server.solve(a, b)
        assert resp.extra["planned"] == "normal_equations"
        assert resp.executed_solver == "rand_cholqr"
        assert resp.fallbacks == 1
        assert stage0_products == [first_stage_dim(D, N)]
        monkeypatch.undo()
        assert resp.x.tobytes() == _fresh_answer(a, b, "rand_cholqr").x.tobytes()

    def test_in_place_mutation_between_solves_is_seen(self):
        """A memo hit reuses kappa for routing but never a stale S1 A."""
        a, b = _problem(1e6)
        server = SketchServer(policy="adaptive", shards=1, seed=0)
        first = server.solve(a, b)
        a[:, 0] *= 3.0
        a[::7] *= 0.5
        second = server.solve(a, b)
        assert len(server._cond_cache) == 1  # the same array: the kappa memo hit
        assert second.executed_solver == "sketch_and_solve"
        assert second.x.tobytes() != first.x.tobytes()
        assert second.x.tobytes() == _fresh_answer(a, b, "sketch_and_solve").x.tobytes()

    @pytest.mark.parametrize("kind", ["gaussian", "srht", "countsketch"])
    def test_other_kinds_answer_as_a_fresh_solve(self, kind):
        a, b = _problem(1e12)
        server = SketchServer(policy="adaptive", shards=1, seed=0, kind=kind)
        resp = server.solve(a, b)
        fresh = _fresh_answer(a, b, resp.executed_solver, kind=kind)
        assert resp.x.tobytes() == fresh.x.tobytes()

    def test_other_oversampling_takes_no_hand_off(self, stage0_products):
        a, b = _problem(1e12)
        server = SketchServer(policy="adaptive", shards=1, seed=0, oversampling=3.0)
        resp = server.solve(a, b)
        assert resp.executed_solver == "rand_cholqr"
        # The probe's 3 n^2-row sketch is not the operator's 2 n^2-row stage 0.
        assert stage0_products == [3 * N * N, 2 * N * N]
        del stage0_products[:]
        fresh = _fresh_answer(a, b, "rand_cholqr", oversampling=3.0)
        assert resp.x.tobytes() == fresh.x.tobytes()

    def test_unseeded_server_answers_correctly(self, stage0_products):
        a, b = _problem(1e12)
        server = SketchServer(policy="adaptive", shards=1, seed=None)
        resp = server.solve(a, b)
        assert resp.executed_solver == "rand_cholqr"
        # Unseeded state is not reproducible, so nothing is handed off.
        assert len(stage0_products) == 2
        x_ref = np.linalg.lstsq(a, b, rcond=None)[0]
        assert resp.relative_residual == pytest.approx(
            np.linalg.norm(b - a @ x_ref) / np.linalg.norm(b), rel=1e-3
        )

    def test_float32_request_answers_correctly(self):
        a, b = _problem(1e3, dtype=np.float32)
        server = SketchServer(policy="adaptive", shards=1, seed=0)
        resp = server.solve(a, b)
        fresh = _fresh_answer(a, b, resp.executed_solver)
        assert resp.x.tobytes() == fresh.x.tobytes()
        x_ref = np.linalg.lstsq(a.astype(np.float64), b.astype(np.float64), rcond=None)[0]
        ref_residual = np.linalg.norm(b - a @ x_ref) / np.linalg.norm(b)
        assert resp.relative_residual < 1.01 * ref_residual


class TestLibraryHandOff:
    """``plan()`` keeps its probe and ``execute_plan()`` hands ``S1 A`` on, outside the server too."""

    @pytest.mark.parametrize(
        "cond, solver", [(1e6, "sketch_and_solve"), (1e8, "sketch_and_solve"), (1e12, "rand_cholqr")]
    )
    @pytest.mark.parametrize("entry", ["plan_and_execute", "repro.linalg.solve"])
    def test_one_stage_zero_product_and_identical_answer(self, cond, solver, entry, stage0_products):
        a, b = _problem(cond)
        if entry == "plan_and_execute":
            result = planner.plan_and_execute(a, b, policy="adaptive")
        else:
            result = repro.linalg.solve(a, b)
        assert result.attempted_solvers == (solver,)
        assert stage0_products == [first_stage_dim(D, N)]
        del stage0_products[:]
        assert result.x.tobytes() == _fresh_answer(a, b, solver).x.tobytes()

    def test_plan_keeps_its_probe_only_when_it_probed(self):
        a, _ = _problem(1e6)
        probed = planner.plan(a, policy="adaptive")
        assert probed.probe == estimate_spectrum_bounds(a)
        assert probed.probe.first_stage.describes(a)
        spec = registry.SolveSpec.from_problem(a, cond_estimate=probed.cond_estimate)
        given = planner.plan(a, spec, policy="adaptive")
        assert given.probe is None
        # The probe is bookkeeping for the hand-off, not part of the decision.
        assert given == probed and "probe" not in repr(probed)

    def test_ridge_operators_recompute_over_the_augmented_rows(self, stage0_products):
        a, b = _problem(1e12)
        spec = registry.SolveSpec.from_problem(a, b, regularization=1e-20)
        plan_ = planner.plan(a, spec, policy="fixed", solver="ridge_precond_lsqr")
        assert stage0_products == [first_stage_dim(D, N)]  # a ridge spec is probed even when pinned
        assert np.isfinite(plan_.cond_estimate)
        result = planner.execute_plan(plan_, a, b, spec)
        assert stage0_products == [first_stage_dim(D, N)]
        fresh = registry.solve(a, b, spec, solver="ridge_precond_lsqr")
        assert result.x.tobytes() == fresh.x.tobytes()


def _probe_products(monkeypatch):
    """Weak references to every first-stage product the planner's probe returns."""
    refs = []
    real = planner.estimate_spectrum_bounds

    def recording(a, **kwargs):
        bounds = real(a, **kwargs)
        if bounds.first_stage is not None:
            refs.append(weakref.ref(bounds.first_stage.y))
        return bounds

    monkeypatch.setattr(planner, "estimate_spectrum_bounds", recording)
    return refs


class TestNothingOutlivesTheBatch:
    @pytest.mark.parametrize("cond", [1e2, 1e6, 1e12])
    def test_sync_server_drops_a_and_its_product(self, cond, monkeypatch):
        products = _probe_products(monkeypatch)
        server = SketchServer(policy="adaptive", shards=2, seed=0, tracing=True)
        a, b = _problem(cond)
        ref = weakref.ref(a)
        resp = server.solve(a, b)
        assert resp.x is not None
        del a
        gc.collect()
        assert ref() is None
        assert products and all(p() is None for p in products)

    def test_runtime_drops_a_and_its_product(self, monkeypatch):
        products = _probe_products(monkeypatch)
        runtime = AsyncSketchServer(workers=1, shards=1, seed=0, policy="adaptive")
        try:
            a, b = _problem(1e6)
            ref = weakref.ref(a)
            assert runtime.solve(a, b).x is not None
            del a
            gc.collect()
            assert ref() is None
            assert products and all(p() is None for p in products)
        finally:
            runtime.stop()
