"""Pinned telemetry contract: a canned serving trace against a recorded fixture.

A durable two-shard ``SketchServer`` serves a fixed trace: fused solves,
solves pinned to several solvers, ridge, sketch and both low-rank methods,
two streaming sessions and a frequency session under ``max_sessions=2``
(so LRU eviction passivates a session and a later append resurrects it),
all four frequency query kinds, an explicit ``save()`` and closes; then
the runtime, fallback and durability recorders are driven directly.  The
test asserts that ``telemetry.snapshot(makespan_seconds=...)``,
``server.stats()``, ``to_prometheus(server.metrics)``,
``to_json(server.metrics)`` and every public getter of
``ServingTelemetry`` equal ``data/telemetry_contract.json``: names, label
sets and counts exactly, floats at rel 1e-12.

Recording the fixture (only when the contract changes on purpose)::

    PYTHONPATH=src python tests/serving/test_telemetry_contract.py --record

which rewrites ``tests/serving/data/telemetry_contract.json`` from the
library in the current checkout.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Any, Dict

import numpy as np
import pytest

from repro.durability import DurabilityConfig, MemoryCheckpointStore
from repro.obs.export import to_json, to_prometheus
from repro.serving import SketchServer

pytestmark = pytest.mark.serving

FIXTURE = Path(__file__).parent / "data" / "telemetry_contract.json"
REL = 1e-12

#: Read-only counter/gauge attributes of ``ServingTelemetry``.
ATTRIBUTES = (
    "requests_served", "sketch_requests", "batches_executed", "fallback_batches",
    "failed_requests", "requests_shed", "requests_admitted", "admission_rejects",
    "streams_opened", "streams_closed", "stream_rows", "stream_batches",
    "stream_resolves", "stream_drift_events", "stream_ingest_seconds",
    "stream_resolve_seconds", "checkpoints_written", "checkpoint_bytes", "wal_appends",
    "wal_bytes", "restores", "replayed_batches", "corrupt_checkpoints", "wal_truncations",
    "sessions_evicted", "passivated_sessions", "frequency_sessions_opened",
    "frequency_sessions_closed", "frequency_items", "frequency_batches",
    "frequency_queries", "frequency_query_seconds", "frequency_ingest_seconds",
    "sample_capacity",
)

#: Argument-free getter methods of ``ServingTelemetry``.
METHODS = (
    "solvers_seen", "lanes_seen", "shed_counts", "sheds_by_lane", "eviction_counts",
    "frequency_query_counts", "fallback_counts", "queue_depth_max", "queue_depth_mean",
    "stream_ingest_rows_per_second", "stream_mean_staleness",
    "mean_batch_size",
)


def _summary(summary) -> Any:
    return None if summary is None else summary.as_dict()


def _run_trace() -> SketchServer:
    server = SketchServer(
        shards=2, seed=0, max_sessions=2,
        durability=DurabilityConfig(store=MemoryCheckpointStore(), checkpoint_interval_batches=2),
    )
    rng = np.random.default_rng(7)
    a = rng.standard_normal((512, 8))
    for _ in range(4):  # one fused batch over a shared matrix
        server.submit(a, rng.standard_normal(512))
    server.flush()
    for solver in ("qr", "normal_equations", "sketch_precond_lsqr"):
        server.solve(rng.standard_normal((384, 6)), rng.standard_normal(384), solver=solver)
    server.solve_ridge(a, rng.standard_normal(512), 0.5)
    server.sketch(rng.standard_normal((256, 8)))
    lowrank = rng.standard_normal((128, 12))
    server.approx_lowrank(lowrank, 3)
    server.approx_lowrank(lowrank, 3, method="frequent_directions")

    def rows(count: int):
        block = rng.standard_normal((count, 5))
        return block, block @ np.arange(1.0, 6.0) + 0.01 * rng.standard_normal(count)

    first = server.open_stream(5, mode="sliding", bucket_rows=32, window_buckets=3, detector=False)
    second = server.open_stream(5, mode="sliding", bucket_rows=32, window_buckets=3, detector=False)
    for _ in range(3):
        server.append_rows(first, *rows(40))
        server.append_rows(second, *rows(40))
    server.query_solution(second)
    fid = server.open_frequency_stream(1 << 10, phi=0.05, need_ranges=True)  # passivates `first`
    for _ in range(3):
        server.append_items(fid, rng.zipf(1.3, 300) % (1 << 10))
    server.append_rows(first, *rows(40))  # resurrects `first`, passivates `second`
    server.query_solution(first)
    server.query_heavy_hitters(fid, k=4)
    server.query_norm(fid)
    server.query_range(fid, 3, 700)
    server.query_point(fid, [0, 1, 2, 5, 100])
    server.save()
    server.close_stream(first)
    server.close_frequency_stream(fid)

    tel = server.telemetry
    for lane in ("solve", "solve", "ridge", "stream"):
        tel.record_admission(lane)
    for depth in (1, 3, 2):
        tel.record_queue_depth(depth)
    for lane, seconds in (("solve", 2e-4), ("solve", 5e-4), ("ridge", 3e-4)):
        tel.record_lane_latency(lane, seconds)
    tel.record_admission_reject("solve")
    tel.record_shed("solve", "deadline", count=2)
    tel.record_shed("stream", "shutdown")
    tel.record_fallback("rand_cholqr", "qr")
    tel.record_failure(2)
    tel.record_corrupt_checkpoint()
    tel.record_wal_truncation()
    return server


def _observe() -> Dict[str, Any]:
    server = _run_trace()
    tel = server.telemetry
    makespan = server.pool.makespan()
    getters: Dict[str, Any] = {name: getattr(tel, name) for name in ATTRIBUTES}
    getters.update({f"{name}()": getattr(tel, name)() for name in METHODS})
    getters["throughput(makespan)"] = tel.throughput(makespan)
    getters["latency_summary()"] = _summary(tel.latency_summary())
    for solver in tel.solvers_seen() + ["never_ran"]:
        getters[f"solver_latency_summary({solver})"] = _summary(tel.solver_latency_summary(solver))
    for lane in tel.lanes_seen() + ["never_ran"]:
        getters[f"lane_latency_summary({lane})"] = _summary(tel.lane_latency_summary(lane))
    return {
        "snapshot": tel.snapshot(makespan_seconds=makespan),
        "stats": server.stats(),
        "prometheus": to_prometheus(server.metrics).splitlines(),
        "json": json.loads(to_json(server.metrics)),
        "getters": getters,
    }


def _same(got: Any, want: Any, where: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict), where
        assert sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            _same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, (list, tuple)) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _same(g, w, f"{where}[{i}]")
    elif isinstance(want, float) and not float(want).is_integer():
        assert isinstance(got, (int, float)), where
        assert math.isclose(got, want, rel_tol=REL), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def _prometheus_sample(line: str):
    if line.startswith("#"):
        return line, None
    series, value = line.rsplit(" ", 1)
    return series, float(value)


@pytest.fixture(scope="module")
def observed() -> Dict[str, Any]:
    return _observe()


@pytest.fixture(scope="module")
def recorded() -> Dict[str, Any]:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("section", ["snapshot", "stats", "json", "getters"])
def test_telemetry_matches_the_recorded_contract(observed, recorded, section):
    _same(observed[section], recorded[section], section)


def test_prometheus_scrape_matches_the_recorded_contract(observed, recorded):
    got, want = observed["prometheus"], recorded["prometheus"]
    assert len(got) == len(want)
    for got_line, want_line in zip(got, want):
        (got_series, got_value), (want_series, want_value) = map(
            _prometheus_sample, (got_line, want_line)
        )
        assert got_series == want_series
        if want_value is not None:
            assert math.isclose(got_value, want_value, rel_tol=REL), want_line


def test_trace_exercises_every_section(observed):
    snap = observed["snapshot"]
    for key in ("requests_admitted", "streams_opened", "frequency_sessions_opened",
                "durability_checkpoints", "lane_solve_p99_seconds", "shed_deadline"):
        assert key in snap, key
    getters = observed["getters"]
    assert getters["passivated_sessions"] == 1 and getters["restores"] >= 1
    assert getters["eviction_counts()"] and len(getters["solvers_seen()"]) >= 4


def test_reset_keeps_gauges_that_describe_the_server():
    """reset() zeroes what happened, not what is: live gauges survive it."""
    server = SketchServer(
        shards=2, seed=0, max_sessions=1,
        durability=DurabilityConfig(store=MemoryCheckpointStore()),
    )
    server.open_stream(4, mode="sliding", bucket_rows=16, window_buckets=2, detector=False)
    server.open_frequency_stream(1 << 8, phi=0.1)  # passivates the stream session
    assert len(server.streams.passivated) == 1
    server.telemetry.reset()
    tel = server.telemetry
    assert tel.passivated_sessions == 1
    assert tel.streams_opened == 0 and tel.checkpoints_written == 0
    scrape = to_prometheus(server.metrics).splitlines()
    assert "repro_durability_passivated_sessions 1" in scrape
    assert "repro_stream_sessions_opened_total 0" in scrape


if __name__ == "__main__" and "--record" in sys.argv:
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(_observe(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
