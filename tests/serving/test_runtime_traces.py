"""Pinned request span trees of the concurrent runtime against a recorded fixture.

Two ``AsyncSketchServer`` runs serve one canned sequence of paused bursts
(each burst is admitted while the dispatcher is paused, so its batches and
clocks are a pure function of the sequence): a default-retention runtime,
and a head-sampled one (``trace_sample=3``) whose ``trace_capacity`` is
small enough that the oldest roots are evicted.  The bursts cover fused
solve and ridge batches under the adaptive policy, a deadline-shed
request, a batch that fails at planning on a NaN, a batch whose dispatch
raises, riders admitted while tracing was off, and a backlog shed at
shutdown.  Traces are read once mid-run, so later span ids follow a grown
tree.  The test asserts that ``[t.as_dict() for t in tracer.traces()]``,
the trace counters and the SHA-256 of every response's ``x`` equal
``data/runtime_traces.json`` byte for byte.

Recording the fixture (only when the span trees change on purpose)::

    PYTHONPATH=src python tests/serving/test_runtime_traces.py --record

which rewrites ``tests/serving/data/runtime_traces.json`` from the library
in the current checkout.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest

from repro.serving import AsyncSketchServer

pytestmark = pytest.mark.serving

FIXTURE = Path(__file__).parent / "data" / "runtime_traces.json"


def _outcome(future) -> Dict[str, object]:
    """A future's answer: the response's identity and ``x`` digest, or its error."""
    error = future.exception(timeout=60.0)
    if error is not None:
        return {"request_id": future.request_id, "error": type(error).__name__}
    resp = future.result()
    return {
        "request_id": resp.request_id,
        "x_sha256": None if resp.x is None else hashlib.sha256(resp.x.tobytes()).hexdigest(),
        "batch_size": resp.batch_size,
        "executed_solver": resp.executed_solver,
        "simulated_seconds": resp.simulated_seconds,
    }


def _burst(runtime: AsyncSketchServer, submit) -> List[Dict[str, object]]:
    """Admit one burst while paused, release it, and wait for every answer."""
    runtime.pause()
    futures = submit()
    runtime.resume()
    outcomes = [_outcome(f) for f in futures]
    runtime.drain(timeout=60.0)
    return outcomes


def _calls(runtime: AsyncSketchServer) -> Dict[str, object]:
    """Drive one runtime through the canned bursts; returns answers and mid-run reads."""
    rng = np.random.default_rng(9)
    mats = [rng.standard_normal((256, 6)) for _ in range(2)]
    tracer = runtime.tracer
    outcomes = []

    def rhs() -> np.ndarray:
        return rng.standard_normal(256)

    # Fused solves (a batch of 4 and one of 2 per matrix) and a fused ridge pair.
    outcomes += _burst(runtime, lambda: (
        [runtime.submit(a, rhs()) for _ in range(6) for a in mats]
        + [runtime.submit_ridge(mats[1], rhs(), 0.5) for _ in range(2)]
    ))
    reads = [t.trace_id for t in tracer.traces()]
    # A deadline no batch can meet sheds its riders at dispatch.
    outcomes += _burst(runtime, lambda: [
        runtime.submit(mats[0], rhs(), latency_budget=1e-15),
        runtime.submit(mats[1], rhs()),
    ])
    # A NaN trips the spectrum probe: the batch answers with failed responses.
    bad = mats[0].copy()
    bad[7, 2] = np.nan
    outcomes += _burst(runtime, lambda: [runtime.submit(bad, rhs()) for _ in range(2)])

    # A dispatch that raises rejects its riders with the error itself.
    def exploding_plan(batch):
        raise RuntimeError("injected planning failure")

    runtime.server._plan_batch = exploding_plan
    try:
        outcomes += _burst(runtime, lambda: [runtime.submit(mats[1], rhs()) for _ in range(2)])
    finally:
        del runtime.server._plan_batch

    # Riders admitted with tracing off get their roots when their batch runs.
    def mixed():
        futures = []
        for traced in (False, True, False, True, True):
            tracer.enabled = traced
            futures.append(runtime.submit(mats[0], rhs()))
        tracer.enabled = True
        futures.append(runtime.submit_ridge(mats[0], rhs(), 0.25, latency_budget=1e-15))
        return futures

    outcomes += _burst(runtime, mixed)
    # A backlog shed at shutdown.
    runtime.pause()
    backlog = [runtime.submit(mats[1], rhs()), runtime.submit_ridge(mats[1], rhs(), 0.5)]
    runtime.stop(drain=False)
    outcomes += [_outcome(f) for f in backlog]
    return {"outcomes": outcomes, "mid_run_reads": reads}


def _observe_one(**config) -> Dict[str, object]:
    runtime = AsyncSketchServer(
        shards=2, workers=1, seed=0, max_batch=4, policy="adaptive", **config
    )
    try:
        observed = _calls(runtime)
    finally:
        runtime.stop(drain=False)
    tracer = runtime.tracer
    observed.update(
        traces=[t.as_dict() for t in tracer.traces()],
        counters={
            "started": tracer.traces_started,
            "completed": tracer.traces_completed,
            "retained": tracer.traces_retained,
            "active": tracer.active_count(),
        },
    )
    return observed


def _observe() -> Dict[str, object]:
    return {
        "default": _observe_one(),
        "sampled": _observe_one(trace_capacity=12, trace_sample=3),
    }


def _dumps(observed: Dict[str, object]) -> str:
    return json.dumps(observed, indent=1) + "\n"


@pytest.fixture(scope="module")
def observed() -> Dict[str, object]:
    return _observe()


def test_runtime_span_trees_match_the_recorded_fixture(observed):
    assert _dumps(observed) == FIXTURE.read_text()


def test_sequence_covers_fusion_shedding_failure_and_untraced_riders(observed):
    run = observed["default"]
    counters = run["counters"]
    assert counters["started"] == counters["completed"] == counters["retained"]
    assert counters["active"] == 0
    statuses = [t["status"] for t in run["traces"]]
    assert statuses.count("shed") == 4  # two deadline sheds, two at shutdown
    assert statuses.count("error") == 4  # the NaN batch and the raising dispatch
    lanes = {t["attributes"]["lane"] for t in run["traces"]}
    assert lanes == {"solve", "ridge"}
    untraced = [t for t in run["traces"] if t["children"] and t["children"][0]["name"] != "admission"]
    assert len(untraced) == 2
    sizes = {
        c["attributes"]["batch_size"]
        for t in run["traces"]
        for c in t["children"]
        if c["name"] == "batch"
    }
    assert max(sizes) == 4
    sampled = observed["sampled"]["counters"]
    assert sampled["completed"] == counters["completed"]
    assert sampled["retained"] < sampled["completed"]
    assert len(observed["sampled"]["traces"]) == 12


if __name__ == "__main__" and "--record" in sys.argv:
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(_dumps(_observe()))
    print(f"wrote {FIXTURE}")
