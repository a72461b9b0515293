"""Tiny-scale smoke tests of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench/tests``.
Every workload is driven for a fraction of a second at :data:`TINY` sizes,
untraced and traced, and ``BENCHMARK.json`` is checked against the code that
produces its metrics.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import compare  # noqa: E402
import run  # noqa: E402
import workload_suite as suite  # noqa: E402
from layer_trace import PER_LAYER, Aggregate, Installed, Recorder, layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _drive(name: str, seconds: float = 0.3):
    workload = suite.WORKLOADS[name](seed=3, scale=suite.TINY)
    workload.prepare()
    handle = workload.open()
    request = workload.probe_request()
    assert workload.check_first(request, workload.first(handle, request)) == []
    workload.warm_up(handle)
    return workload, handle


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_serves_checks_and_repeats_its_twin(name):
    workload, handle = _drive(name)
    result = suite.Run()
    try:
        workload.measure(handle, 0.3, result)
    finally:
        workload.close(handle)
    workload.check(result)
    assert result.errors == []
    assert result.completed > 0 and result.busy_s > 0
    assert result.units and all(unit[2] for unit in result.units) and result.ratios
    assert result.attempted >= result.completed
    assert workload.twin() == workload.twin()


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run_reports_every_layer_metric_and_restores_originals(name):
    submit = suite.SketchServer.submit
    workload, handle = _drive(name)
    recorder = Recorder()
    result = suite.Run()
    try:
        with Installed(recorder) as installed:
            workload.measure(handle, 0.3, result)
            assert suite.SketchServer.submit is not submit
    finally:
        workload.close(handle)
    assert installed.missing == []
    assert suite.SketchServer.submit is submit
    metrics = layer_metrics(Aggregate(recorder, result.served, {}))
    assert list(metrics) == [m.name for m in PER_LAYER]
    assert recorder.span_total > 0


def test_self_time_excludes_child_spans():
    recorder = Recorder()
    inner = recorder.wrap(lambda: sum(range(20000)), "inner")
    outer = recorder.wrap(lambda: inner() + inner(), "outer")
    outer()
    stats, _, top = recorder.merged()
    assert stats["inner"][0] == 2 and stats["outer"][0] == 1
    assert stats["outer"][1] + stats["inner"][1] == stats["outer"][2]
    assert sum(top.values()) == stats["outer"][2]


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES) == list(suite.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]
    end_to_end = set(run.END_TO_END_UNITS)
    for metric in PER_LAYER:
        moved = metric.moves.split()
        assert moved[0] == "none:" or set(moved) <= end_to_end, metric.name
        assert metric.on == "all" or metric.on in run.WORKLOAD_NAMES, metric.name


def _record(fingerprint, value):
    return {
        "workload": "serve_hot", "trace": 0, "fingerprint": fingerprint,
        "metrics": {"requests_per_s": {"value": value, "unit": "req/s"}},
    }


def test_compare_refuses_records_from_different_hosts():
    bounds = {"requests_per_s": ("higher", 0.25)}
    host = {"nproc": 2, "numpy": "2.0"}
    assert compare.compare([_record(host, 100.0)], [_record(host, 90.0)], bounds) == 0
    assert compare.compare([_record(host, 100.0)], [_record(host, 50.0)], bounds) == 1
    other = dict(host, nproc=4)
    assert compare.compare([_record(host, 100.0)], [_record(other, 100.0)], bounds) == 2
