"""Deferred calibration equals per-sample calibration bit for bit.

The server queues each batch's measured solver durations with
``CalibratedEstimator.defer`` and the estimator folds the queue in bulk
before any read.  Each test runs one sequence twice: once as shipped, and
once with the server's feed patched to fold every sample at once, one at a
time, by a reference written out here apart from the estimator's fold.  Both runs
must agree on every factor, sample and clipped count, both error
histograms' ring/sum/min/max/buckets, the Prometheus and JSON exports, the
answers, and -- in ``"active"`` mode -- every planning and shedding
decision, including reads taken between batches.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro.obs.calibrate as calibrate
from repro.linalg.registry import SolveSpec, get_solver
from repro.obs.export import to_json, to_prometheus
from repro.serving import AsyncSketchServer, DeadlineExceededError, SketchServer

pytestmark = pytest.mark.serving


def _observe_one(est, solver, spec, measured, device):
    """One sample folded the per-sample way, written out independently of the fold."""
    analytic = est._analytic_seconds(solver, spec, device)
    if not (math.isfinite(measured) and measured > 0.0 and math.isfinite(analytic) and analytic > 0.0):
        return
    key = est.key_for(solver, spec)
    state = est._state.get(key)
    if state is None:
        state = est._state[key] = calibrate._BucketState(
            est.registry.counter("calibration_samples_total", solver=key.solver),
            est.registry.gauge("calibration_factor", **key.labels()),
        )
    predicted = analytic * (state.ewma if state.samples >= est.min_samples else 1.0)
    est._err_calibrated.observe(abs(predicted - measured) / measured)
    est._err_analytic.observe(abs(analytic - measured) / measured)
    ratio = measured / analytic
    clipped = min(max(ratio, 1.0 / est.clip), est.clip)
    if clipped != ratio:
        state.clipped += 1
        est.registry.counter("calibration_clipped_total", solver=key.solver).inc()
    state.update(clipped, est.alpha)
    state.samples_total.inc()
    state.factor.set(state.ewma)


def _per_sample_feed(self, span_log, spec):
    """The reference: every clean attempt folded at once, one sample at a time."""
    if self.calibration is None or not span_log:
        return
    for hop in span_log:
        if not hop["failed"]:
            _observe_one(self.calibration, str(hop["solver"]), spec,
                         float(hop["end"]) - float(hop["start"]), self.config.device)


def _histogram_state(hist):
    floats = np.array([hist.sum, hist._min, hist._max]).tobytes()
    return hist._ring.tobytes(), hist.count, floats, list(hist._buckets.items())


def _calibration_state(est, registry):
    snapshot = est.snapshot()  # folds first
    return (
        snapshot,
        repr(snapshot),  # repr keeps every float exact
        _histogram_state(est._err_calibrated),
        _histogram_state(est._err_analytic),
        to_prometheus(registry),
        to_json(registry),
    )


def _answers(responses):
    return [
        (r.request_id, None if r.x is None else r.x.tobytes(), repr(r.simulated_seconds),
         r.executed_solver, r.fallbacks)
        for r in responses
    ]


def _serve_sync(mode):
    """A mixed sequence of fused flushes with reads between them."""
    server = SketchServer(shards=2, seed=0, max_batch=4, policy="adaptive", calibration=mode)
    server.calibration.clip = 1.2  # narrow enough that the ridge ratios clip
    rng = np.random.default_rng(11)
    mats = [rng.standard_normal(shape) for shape in ((512, 8), (1024, 16), (2048, 16))]
    probe = SolveSpec(d=1024, n=16)
    answers, reads = [], []
    for step in range(8):
        for k, a in enumerate(mats):
            for _ in range(1 + (step + k) % 3):
                server.submit(a, rng.standard_normal(a.shape[0]))
        server.submit(mats[step % 3], rng.standard_normal(mats[step % 3].shape[0]),
                      solver=("qr", "normal_equations", "sketch_precond_lsqr")[step % 3])
        answers += _answers(server.flush())
        answers.append(_answers([server.solve_ridge(mats[1], rng.standard_normal(1024), 0.25)]))
        # Reads after some flushes only, so folds span 5 to 20 samples.
        if step in (3, 6):
            est = server.calibration
            reads.append((repr(est.factor("sketch_and_solve", probe)),
                          est.samples("sketch_precond_lsqr", probe)))
        if step == 4:
            reads.append(to_json(server.metrics))
    return answers, reads, _calibration_state(server.calibration, server.metrics)


@pytest.mark.parametrize("bound", [None, 2, 20])
@pytest.mark.parametrize("mode", ["observe", "active"])
def test_sync_server_deferred_calibration_equals_per_sample(mode, bound, monkeypatch):
    if bound is not None:
        monkeypatch.setattr(calibrate, "FOLD_BOUND", bound)
    deferred = _serve_sync(mode)
    with monkeypatch.context() as patch:
        patch.setattr(SketchServer, "_feed_calibration", _per_sample_feed)
        reference = _serve_sync(mode)
    assert deferred[0] == reference[0]
    assert deferred[1] == reference[1]
    assert deferred[2] == reference[2]
    snapshot = deferred[2][0]
    assert sum(s["clipped"] for s in snapshot.values()) > 0
    assert len(snapshot) >= 4


def test_defer_folds_on_the_writer_side_at_the_bound(monkeypatch):
    monkeypatch.setattr(calibrate, "FOLD_BOUND", 3)
    est = calibrate.CalibratedEstimator()
    spec = SolveSpec(d=2048, n=16)
    analytic = get_solver("qr").estimate_seconds(spec)
    for i in range(5):
        est.defer("qr", spec, analytic * (0.5 + 0.1 * i))
    assert len(est._pending) == 2 and est._err_analytic.count == 3
    assert est.samples("qr", spec) == 5 and not est._pending


def _serve_runtime(mode):
    """Warm a runtime, then serve budgeted requests that only calibration can admit."""
    solver = "sketch_precond_lsqr"
    runtime = AsyncSketchServer(
        shards=1, seed=0, workers=1, queue_depth=64, solver=solver, policy="fixed",
        calibration=mode,
    )
    budget = 0.8 * get_solver(solver).estimate_seconds(SolveSpec(d=1024, n=16))
    rng = np.random.default_rng(1)
    outcomes = []
    try:
        for _ in range(5):
            for d, n in ((1024, 16), (2048, 32)):
                fut = runtime.submit(rng.standard_normal((d, n)), rng.standard_normal(d))
                runtime.drain()
                outcomes += _answers([fut.result(timeout=30.0)])
        for _ in range(6):
            fut = runtime.submit(rng.standard_normal((1024, 16)), rng.standard_normal(1024),
                                 latency_budget=budget)
            runtime.drain()
            try:
                outcomes += _answers([fut.result(timeout=30.0)])
            except DeadlineExceededError:
                outcomes.append("shed")
        state = _calibration_state(runtime.calibration, runtime.server.metrics)
    finally:
        runtime.stop()
    return outcomes, state


@pytest.mark.parametrize("mode", ["observe", "active"])
def test_runtime_shedding_with_deferred_calibration_equals_per_sample(mode, monkeypatch):
    deferred = _serve_runtime(mode)
    with monkeypatch.context() as patch:
        patch.setattr(SketchServer, "_feed_calibration", _per_sample_feed)
        reference = _serve_runtime(mode)
    assert deferred == reference
    shed = deferred[0].count("shed")
    assert (shed > 0) if mode == "observe" else (shed == 0)
