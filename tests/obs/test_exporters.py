"""Unit tests for the exporters (repro.obs.export)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.obs.export import (
    critical_path,
    registry_to_dict,
    render_critical_path,
    render_waterfall,
    to_json,
    to_prometheus,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


def _populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("requests_total", lane="solve").inc(5)
    reg.counter("requests_total", lane="ridge").inc(2)
    reg.gauge("active_shards").set(3)
    hist = reg.histogram("latency_seconds", lane="solve")
    hist.observe_many(np.linspace(0.001, 0.1, 100))
    return reg


def test_prometheus_exposition_format():
    text = to_prometheus(_populated_registry())
    assert "# TYPE repro_requests_total counter" in text
    assert 'repro_requests_total{lane="solve"} 5' in text
    assert 'repro_requests_total{lane="ridge"} 2' in text
    assert "# TYPE repro_active_shards gauge" in text
    assert "repro_active_shards 3" in text
    # Histograms render as summaries: tracked quantiles + _sum/_count.
    assert "# TYPE repro_latency_seconds summary" in text
    assert 'repro_latency_seconds{lane="solve",quantile="0.95"}' in text
    assert 'repro_latency_seconds_count{lane="solve"} 100' in text
    assert text.endswith("\n")


def test_prometheus_escapes_label_values():
    reg = MetricsRegistry()
    reg.counter("events_total", kind='he said "hi"\nback\\slash').inc()
    text = to_prometheus(reg)
    assert r'kind="he said \"hi\"\nback\\slash"' in text


def test_prometheus_renders_non_finite_values():
    """One non-finite series must not take down the scrape."""
    reg = MetricsRegistry()
    reg.gauge("up").set(float("inf"))
    reg.gauge("down").set(float("-inf"))
    reg.gauge("undefined").set(float("nan"))
    reg.histogram("latency_seconds").observe(float("nan"))
    reg.counter("requests_total").inc(3)
    lines = to_prometheus(reg).splitlines()
    assert "repro_up +Inf" in lines
    assert "repro_down -Inf" in lines
    assert "repro_undefined NaN" in lines
    assert "repro_latency_seconds_sum NaN" in lines
    assert 'repro_latency_seconds{quantile="0.5"} NaN' in lines
    assert "repro_latency_seconds_count 1" in lines
    assert "repro_requests_total 3" in lines


def test_prometheus_custom_prefix():
    text = to_prometheus(_populated_registry(), prefix="x_")
    assert "# TYPE x_requests_total counter" in text
    assert "repro_" not in text


def test_json_snapshot_round_trip():
    reg = _populated_registry()
    payload = json.loads(to_json(reg))
    assert payload == registry_to_dict(reg)
    assert payload["requests_total"]["type"] == "counter"
    values = {
        tuple(sorted(row["labels"].items())): row["value"]
        for row in payload["requests_total"]["series"]
    }
    assert values[(("lane", "solve"),)] == 5
    hist_row = payload["latency_seconds"]["series"][0]
    assert hist_row["count"] == 100
    assert hist_row["quantiles"]["0.95"] == pytest.approx(
        np.percentile(np.linspace(0.001, 0.1, 100), 95.0)
    )


def _sample_trace():
    tracer = Tracer()
    root = tracer.start_trace("request", 0.0, lane="solve")
    queue = tracer.start_span("queue", root, 0.0)
    queue.finish(1.0)
    batch = tracer.start_span("batch", root, 1.0, shard=0)
    solve = tracer.start_span("solve", batch, 1.0, solver="qr")
    solve.finish(4.0)
    batch.finish(4.0)
    respond = tracer.start_span("respond", root, 4.0)
    respond.finish(5.0)
    tracer.end_trace(root, 5.0)
    return root


def test_render_waterfall_layout():
    out = render_waterfall(_sample_trace(), width=20)
    lines = out.splitlines()
    assert lines[0].startswith("trace ")
    assert "status=ok" in lines[0]
    for name in ("queue", "batch", "solve", "respond"):
        assert any(name in line for line in lines[1:])
    # Bars are clamped to the requested width.
    for line in lines[1:]:
        bar = line.split("|")[1]
        assert len(bar) == 20
        assert set(bar) <= {".", "#"}
    # The solve span is nested one level deeper than its batch parent.
    batch_line = next(l for l in lines[1:] if l.lstrip().startswith("batch"))
    solve_line = next(l for l in lines[1:] if l.lstrip().startswith("solve"))
    assert len(solve_line) - len(solve_line.lstrip()) > len(batch_line) - len(
        batch_line.lstrip()
    )


def test_critical_path_follows_latest_child():
    root = _sample_trace()
    path = critical_path(root)
    assert [s.name for s in path] == ["request", "respond"]
    rendered = render_critical_path(root)
    assert "critical path" in rendered
    assert "respond" in rendered
    assert "100.0%" in rendered  # the root covers the whole trace


def test_render_waterfall_zero_duration_trace():
    tracer = Tracer()
    root = tracer.start_trace("request", 2.0)
    tracer.event("shed", root, 2.0, status="shed", reason="deadline")
    tracer.end_trace(root, 2.0, status="shed")
    out = render_waterfall(root)
    assert "status=shed" in out
    assert "!shed" in out  # non-ok spans are flagged on their bar line
