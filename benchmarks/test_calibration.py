"""Closed-loop calibration acceptance: learned costs beat the analytic model.

ISSUE 8's acceptance bar, pinned as benchmarks:

* After warming up on a mixed serving workload, the calibrated estimator's
  median relative prediction error is at least **2x smaller** than the raw
  analytic model's on the same spans.
* With calibration driving deadline projections (``calibration="active"``),
  a budget that the requests *actually* meet sheds nothing and violates
  nothing -- while the analytic projection, which overestimates this shape
  by ~1.6x, sheds those same requests falsely.
* The committed perf record (``BENCH_17.json``) exists, validates against
  the bench schema, and the exact gate accepts an identical copy but
  rejects one whose simulated field moved by one ulp.

The demonstration shape is 1024x16 under the fixed ``sketch_precond_lsqr``
policy: the roofline model prices the LSQR iterations pessimistically there
(measured/analytic ratio ~0.63, stable across seeds), which is exactly the
miscalibration the closed loop exists to absorb.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from repro.linalg.registry import SolveSpec, get_solver
from repro.obs.bench import load_bench, validate_bench
from repro.serving import AsyncSketchServer, DeadlineExceededError

pytestmark = pytest.mark.serving

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

SOLVER = "sketch_precond_lsqr"
#: (d, n) shapes the mixed warm-up covers -- each lands in its own
#: calibration bucket with its own measured/analytic ratio.
SHAPES = ((1024, 16), (2048, 32), (4096, 64))


def _runtime(**overrides) -> AsyncSketchServer:
    kw = dict(
        shards=1, seed=0, workers=1, queue_depth=64,
        solver=SOLVER, policy="fixed",
    )
    kw.update(overrides)
    return AsyncSketchServer(**kw)


def _warm_up(runtime: AsyncSketchServer, rng, per_shape: int = 8) -> None:
    """Serve ``per_shape`` unbudgeted requests of every shape, serially."""
    for d, n in SHAPES:
        for _ in range(per_shape):
            fut = runtime.submit(rng.standard_normal((d, n)), rng.standard_normal(d))
            runtime.drain()
            assert fut.exception() is None


def test_calibrated_error_at_least_2x_smaller_than_analytic():
    rng = np.random.default_rng(0)
    runtime = _runtime(calibration="observe")
    try:
        _warm_up(runtime, rng)
        est = runtime.calibration
        # Score only the post-warm-up half: the first samples of each
        # bucket are gated to the analytic fallback by construction.
        window = len(SHAPES) * 4
        summary = est.error_summary(window=window)
        calibrated = summary["calibrated_median_rel_error"]
        analytic = summary["analytic_median_rel_error"]
        assert analytic >= 2.0 * calibrated, (
            f"calibration did not earn its keep: analytic median error "
            f"{analytic:.4f} vs calibrated {calibrated:.4f}"
        )
    finally:
        runtime.stop()


def test_active_calibration_stops_false_shedding_with_zero_violations():
    spec = SolveSpec(d=1024, n=16, nrhs=1)
    analytic = get_solver(SOLVER).estimate_seconds(spec)
    # Budget between the true cost (~0.63 * analytic, plus ~1e-5s result
    # transfer) and the analytic projection: meetable in reality, hopeless
    # on paper.
    budget = 0.8 * analytic

    def _serve_budgeted(runtime, rng, requests=8):
        served, shed = [], 0
        for _ in range(requests):
            a = rng.standard_normal((1024, 16))
            fut = runtime.submit(a, rng.standard_normal(1024), latency_budget=budget)
            runtime.drain()
            try:
                served.append(fut.result(timeout=30.0))
            except DeadlineExceededError:
                shed += 1
        return served, shed

    # Analytic projection (calibration observes but does not steer):
    # every request is shed even though all of them would have met budget.
    rng = np.random.default_rng(1)
    observe = _runtime(calibration="observe")
    try:
        _warm_up(observe, rng)
        served, shed = _serve_budgeted(observe, rng)
    finally:
        observe.stop()
    assert shed > 0, "budget was not tight enough to trip the analytic projection"
    assert all(r.simulated_seconds <= budget for r in served)

    # Calibrated projection: same warm-up, same budgeted stream -- nothing
    # shed, and every completed request actually lands inside its budget
    # (shedding precision did not come at the price of violations).
    rng = np.random.default_rng(1)
    active = _runtime(calibration="active")
    try:
        _warm_up(active, rng)
        served, shed = _serve_budgeted(active, rng)
        snapshot = active.telemetry.snapshot()
    finally:
        active.stop()
    assert shed == 0, f"calibrated projection falsely shed {shed} meetable requests"
    assert len(served) == 8
    violations = sum(1 for r in served if r.simulated_seconds > budget)
    assert violations == 0
    assert snapshot.get("requests_shed", 0.0) == 0.0


def test_bench_record_exists_validates_and_passes_regression_gate():
    record_path = REPO_ROOT / "BENCH_17.json"
    assert record_path.exists(), "BENCH_17.json missing -- run tools/record_bench.py"
    record = load_bench(record_path)
    assert validate_bench(record) == []
    import copy
    import math
    import sys

    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        from compare_bench import compare
    finally:
        sys.path.pop(0)
    lines, differences = compare(copy.deepcopy(record), record)
    assert lines, "comparison produced no report lines"
    assert differences == [], "\n".join(differences)

    # One ulp on one simulated field is a difference the gate must report.
    moved = copy.deepcopy(record)
    rps = record["throughput"]["concurrent_requests_per_second"]
    bumped = math.nextafter(rps, math.inf)
    moved["throughput"]["concurrent_requests_per_second"] = bumped
    _, differences = compare(moved, record)
    assert differences == [
        f"throughput.concurrent_requests_per_second: committed {rps!r}, fresh {bumped!r}"
    ]
