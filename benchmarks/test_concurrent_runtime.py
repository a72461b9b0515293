"""Concurrent runtime acceptance: throughput and shedding.

The acceptance bar for the concurrent serving runtime: under a mixed
least-squares + ridge + streaming load,

* the :class:`~repro.serving.runtime.AsyncSketchServer` on its fixed shard
  pool sustains at least 2x the request throughput of the synchronous
  ``SketchServer`` at equal accuracy (both measured in simulated device
  seconds);
* when the admission queue is saturated, requests whose deadline cannot be
  met are *shed* with a typed error -- never solved past their budget.

One :func:`~repro.harness.experiments.concurrent_load` run feeds these
checks (module-scoped fixture), plus direct unit-grade probes of the queue
bound.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.harness.experiments import concurrent_load
from repro.serving import (
    AsyncSketchServer,
    DeadlineExceededError,
    QueueFullError,
)

pytestmark = [pytest.mark.serving, pytest.mark.runtime]


@pytest.fixture(scope="module")
def load_rows():
    rows = concurrent_load(seed=7)
    return {row["mode"]: row for row in rows}


# ---------------------------------------------------------------------------
# throughput
# ---------------------------------------------------------------------------
def test_concurrent_runtime_doubles_throughput(load_rows):
    sync = load_rows["synchronous"]
    conc = load_rows["concurrent"]
    assert conc["requests"] == sync["requests"]
    speedup = conc["requests_per_second"] / sync["requests_per_second"]
    assert speedup >= 2.0, f"concurrent runtime only {speedup:.2f}x the synchronous server"


def test_concurrent_runtime_equal_accuracy(load_rows):
    sync = load_rows["synchronous"]
    conc = load_rows["concurrent"]
    # Same traffic, same solvers, same seeds: accuracy must not degrade.
    assert conc["worst_relative_residual"] <= sync["worst_relative_residual"] * 1.05
    assert conc["worst_relative_residual"] < 0.05


def test_concurrent_row_reports_the_pool_it_ran(load_rows):
    # The speedup is 8 simulated shards against the synchronous row's 2.
    assert load_rows["synchronous"]["shards"] == 2.0
    assert load_rows["concurrent"]["shards"] == 8.0


# ---------------------------------------------------------------------------
# deadline shedding under saturation
# ---------------------------------------------------------------------------
def test_saturated_queue_sheds_instead_of_violating(load_rows):
    shed = load_rows["shedding"]
    assert shed["requests_shed"] >= 1, "saturation produced no deadline sheds"
    assert shed["queue_full_rejects"] >= 1, "bounded queue never pushed back"
    assert shed["deadline_violations"] == 0, (
        f"{shed['deadline_violations']:.0f} completed requests exceeded their budget "
        "-- the contract is shed, not violate"
    )
    assert shed["completed"] >= 1, "everything was shed; nothing served"
    # The telemetry counter agrees with the caller-observed sheds.
    assert shed["shed_deadline"] == shed["requests_shed"]


def test_queue_full_is_typed_backpressure():
    runtime = AsyncSketchServer(shards=1, workers=1, queue_depth=2, seed=0)
    rng = np.random.default_rng(0)
    x_true = np.ones(8)
    rejected = 0
    futures = []
    try:
        runtime.pause()  # admissions race nothing: the bound is exact
        for _ in range(32):
            a = rng.standard_normal((256, 8))
            try:
                futures.append(runtime.submit(a, a @ x_true))
            except QueueFullError as exc:
                rejected += 1
                assert exc.reason == "queue_full"
                assert exc.queue_depth >= 2
        runtime.resume()
        for f in futures:
            f.result(timeout=60.0)
    finally:
        runtime.stop()
    assert rejected == 30
    assert len(futures) == 2
    assert runtime.telemetry.admission_rejects == rejected


def test_shed_future_raises_typed_deadline_error():
    runtime = AsyncSketchServer(shards=1, workers=1, queue_depth=64, seed=0)
    rng = np.random.default_rng(1)
    x_true = np.ones(8)
    problems = [(m, m @ x_true) for m in (rng.standard_normal((512, 8)) for _ in range(24))]
    try:
        # An impossible budget: every dispatch projects past it.
        runtime.pause()
        futures = [
            runtime.submit(a, b, latency_budget=1e-12) for a, b in problems
        ]
        runtime.resume()
        sheds = 0
        for f in futures:
            try:
                f.result(timeout=60.0)
            except DeadlineExceededError as exc:
                sheds += 1
                assert exc.reason == "deadline"
                assert exc.projected_seconds > exc.budget_seconds
        assert sheds >= len(futures) - 1  # the very first may slip through idle
        assert runtime.telemetry.shed_counts().get("deadline", 0) == sheds
    finally:
        runtime.stop()


# ---------------------------------------------------------------------------
# lanes
# ---------------------------------------------------------------------------
def test_stream_ingest_does_not_starve_solves(load_rows):
    conc = load_rows["concurrent"]
    # Both lanes made progress through the one queue.
    assert conc["lane_stream_requests"] >= 1
    assert conc["lane_solve_p95_seconds"] > 0.0
