"""Pinned request span trees of the synchronous server against a recorded fixture.

Two ``SketchServer`` runs serve one canned sequence of fused flushes: a
default-retention server whose ``trace_capacity`` is small enough that the
oldest roots are evicted, and a head-sampled one (``trace_sample=3``).
The sequence fuses requests over shared matrices (full and partial
micro-batches), mixes in ridge and a pinned-solver request, reads the
traces between flushes (so later span ids follow a grown tree), and ends
with a NaN-bearing matrix under the adaptive policy, whose batch fails at
planning and answers with error roots.  The test asserts that every
retained tree (``as_dict``), the three trace counters, ``find_trace`` of a
retained and of an evicted root, and the tracer's active count equal
``data/sync_traces.json`` byte for byte.

Recording the fixture (only when the span trees change on purpose)::

    PYTHONPATH=src python tests/serving/test_sync_traces.py --record

which rewrites ``tests/serving/data/sync_traces.json`` from the library
in the current checkout.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict

import numpy as np
import pytest

from repro.serving import SketchServer

pytestmark = pytest.mark.serving

FIXTURE = Path(__file__).parent / "data" / "sync_traces.json"


def _calls(server: SketchServer) -> list:
    """Drive one server through the canned sequence; returns mid-run reads."""
    rng = np.random.default_rng(5)
    mats = [rng.standard_normal((256, 6)) for _ in range(2)]
    reads = []
    for _ in range(6):  # 6 + 6 riders in batches of 4, 2 (per matrix)
        for a in mats:
            server.submit(a, rng.standard_normal(256))
    server.flush()
    reads.append([t.trace_id for t in server.tracer.traces()])
    for _ in range(3):
        server.submit(mats[0], rng.standard_normal(256))
    server.submit(mats[1], rng.standard_normal(256), solver="qr")
    server.solve_ridge(mats[1], rng.standard_normal(256), 0.5)
    server.flush()
    bad = rng.standard_normal((256, 6))
    bad[7, 2] = np.nan
    for _ in range(3):
        server.submit(bad, rng.standard_normal(256))
    server.submit(mats[0], rng.standard_normal(256))
    server.flush()
    return reads


def _observe_one(**config) -> Dict[str, object]:
    server = SketchServer(shards=2, seed=0, max_batch=4, policy="adaptive", **config)
    reads = _calls(server)
    tracer = server.tracer
    traces = tracer.traces()
    retained = traces[-1].trace_id
    evicted = "t00000001"
    assert evicted not in {t.trace_id for t in traces}
    found = tracer.find_trace(retained)
    return {
        "traces": [t.as_dict() for t in traces],
        "mid_run_reads": reads,
        "counters": {
            "started": tracer.traces_started,
            "completed": tracer.traces_completed,
            "retained": tracer.traces_retained,
            "active": tracer.active_count(),
        },
        "find_retained": None if found is None else found.as_dict(),
        "find_evicted": tracer.find_trace(evicted),
    }


def _observe() -> Dict[str, object]:
    return {
        "capacity": _observe_one(trace_capacity=9),
        "sampled": _observe_one(trace_capacity=6, trace_sample=3),
    }


def _dumps(observed: Dict[str, object]) -> str:
    return json.dumps(observed, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def observed() -> Dict[str, object]:
    return _observe()


def test_sync_span_trees_match_the_recorded_fixture(observed):
    assert _dumps(observed) == FIXTURE.read_text()


def test_sequence_covers_fusion_failure_sampling_and_eviction(observed):
    for run in observed.values():
        counters = run["counters"]
        assert counters["started"] == counters["completed"] >= counters["retained"] > 0
        assert counters["active"] == 0
        assert run["find_evicted"] is None
        assert run["find_retained"] == run["traces"][-1]
        statuses = [t["status"] for t in run["traces"]]
        assert statuses.count("error") == 3
    sampled = observed["sampled"]["counters"]
    assert sampled["retained"] < sampled["completed"]
    sizes = {
        c["attributes"]["batch_size"]
        for t in observed["capacity"]["traces"]
        for c in t["children"]
        if c["name"] == "batch"
    }
    assert max(sizes) > 1


if __name__ == "__main__" and "--record" in sys.argv:
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(_dumps(_observe()))
    print(f"wrote {FIXTURE}")
