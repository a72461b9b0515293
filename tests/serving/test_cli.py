"""Smoke tests for the ``repro-serve`` console script's observability paths.

Each path drives a short mixed solve/ridge/stream workload through the
concurrent runtime, so these also guard that ridge traffic is admitted and
served there.
"""

from __future__ import annotations

import json

from repro.serving.server import main


def test_health_probe_reports_healthy(capsys):
    assert main(["--health"]) == 0
    assert capsys.readouterr().out


def test_slo_report_json_parses(capsys):
    assert main(["--slo-report", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["slos"]


def test_metrics_json_counts_ridge_admissions(capsys):
    assert main(["--metrics", "--json"]) == 0
    snapshot = json.loads(capsys.readouterr().out)
    admitted = {
        series["labels"]["lane"]: series["value"]
        for series in snapshot["runtime_admitted_total"]["series"]
    }
    assert admitted["ridge"] > 0


def test_dump_trace_prints_a_waterfall(capsys):
    assert main(["--dump-trace"]) == 0
    assert capsys.readouterr().out
