"""Pinned session span trees: a canned session trace against a recorded fixture.

The same sequence of session calls runs twice: on a ``SketchServer``, where
every call opens its own standalone root (``stream_ingest``,
``stream_query``, ``frequency_ingest`` and ``frequency_<kind>`` for each
query kind), and on an ``AsyncSketchServer``, where each call is admitted
into the ``stream`` lane and its session spans nest under the admission
root.  The sequence covers an eager re-solve at the first batch, a lazy
re-solve at a query, a drift event, flat and hierarchical frequency
engines, and a range query refused by a flat engine (an error root through
the runtime).  The test asserts that ``[t.as_dict() for t in
tracer.traces()]`` of both runs equals ``data/session_traces.json`` byte
for byte: span names, ids, nesting, attributes and start/end times.

Recording the fixture (only when the span trees change on purpose)::

    PYTHONPATH=src python tests/serving/test_session_traces.py --record

which rewrites ``tests/serving/data/session_traces.json`` from the library
in the current checkout.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest

from repro.serving import AsyncSketchServer, SketchServer

pytestmark = pytest.mark.serving

FIXTURE = Path(__file__).parent / "data" / "session_traces.json"
DOMAIN = 1 << 10


def _calls(front, resolve):
    """Drive one front end through the canned sequence.

    ``resolve`` turns an endpoint's return value into its answer (identity
    for the synchronous server, ``Future.result`` for the runtime).
    """
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal(4)
    sid = front.open_stream(4, mode="sliding", bucket_rows=16, window_buckets=2, seed=11)
    for i in range(6):
        rows = rng.standard_normal((16, 4))
        x = x0 if i < 4 else -5.0 * x0  # batch 5 drifts
        resolve(front.append_rows(sid, rows, rows @ x + 1e-3 * rng.standard_normal(16)))
        if i in (1, 4):
            resolve(front.query_solution(sid))
    ids = rng.zipf(1.3, size=512) % DOMAIN
    flat = front.open_frequency_stream(DOMAIN, phi=0.05, seed=5)
    tree = front.open_frequency_stream(DOMAIN, phi=0.05, need_ranges=True, seed=5)
    for fid in (flat, tree):
        resolve(front.append_items(fid, ids))
        resolve(front.append_items(fid, ids[:64], np.full(64, 2.0)))
        resolve(front.query_heavy_hitters(fid, k=4))
        resolve(front.query_norm(fid))
        resolve(front.query_point(fid, [0, 1, 2, 3]))
    resolve(front.query_range(tree, 0, DOMAIN // 2))
    try:
        resolve(front.query_range(flat, 0, 8))
    except RuntimeError:
        pass
    front.close_stream(sid)
    front.close_frequency_stream(flat)
    front.close_frequency_stream(tree)


def _observe() -> Dict[str, List[dict]]:
    server = SketchServer(shards=2, seed=0)
    _calls(server, lambda response: response)
    with AsyncSketchServer(shards=2, workers=1, seed=0) as runtime:
        # One call at a time: each admission sees the clocks the last one left.
        _calls(runtime, lambda future: future.result(timeout=60.0))
        runtime_traces = runtime.tracer.traces()
    return {
        "server": [t.as_dict() for t in server.tracer.traces()],
        "runtime": [t.as_dict() for t in runtime_traces],
    }


def _dumps(observed: Dict[str, List[dict]]) -> str:
    return json.dumps(observed, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def observed() -> Dict[str, List[dict]]:
    return _observe()


def test_session_span_trees_match_the_recorded_fixture(observed):
    assert _dumps(observed) == FIXTURE.read_text()


def test_sequence_opens_every_session_root(observed):
    names = {t["name"] for t in observed["server"]}
    assert names == {
        "stream_ingest", "stream_query", "frequency_ingest", "frequency_heavy_hitters",
        "frequency_norm", "frequency_point", "frequency_range",
    }
    runtime = observed["runtime"]
    assert {t["name"] for t in runtime} == {"request"}
    assert [t["status"] for t in runtime].count("error") == 1
    assert all(t["children"][0]["name"] == "admission" for t in runtime)


if __name__ == "__main__" and "--record" in sys.argv:
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(_dumps(_observe()))
    print(f"wrote {FIXTURE}")
