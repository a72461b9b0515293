"""Smoke tests for the ``repro-serve`` console script's observability paths.

Each path drives a short mixed solve/ridge/stream workload through the
concurrent runtime, so these also guard that ridge traffic is admitted and
served there.
"""

from __future__ import annotations

import importlib
import json
import re
from pathlib import Path

from repro.cli import main


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


def test_canary_output_repeats_within_one_process(capsys):
    # The canary admits each phase with the runtime paused, so batching --
    # and every simulated number printed -- is independent of thread timing.
    for argv in (["--metrics", "--json"], ["--dump-trace"]):
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1], argv


def test_durability_demo_restores_identical_solution(tmp_path, capsys):
    assert main(["--checkpoint-dir", str(tmp_path)]) == 0
    assert "solutions identical   : True" in capsys.readouterr().out


def test_workers_demo_prints_the_concurrent_table(capsys):
    assert main(["--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert "repro-serve concurrent demo" in out
    assert "deadline_violations" in out


def test_console_script_targets_this_main():
    setup_py = (Path(__file__).resolve().parents[2] / "setup.py").read_text()
    target = re.search(r'"repro-serve=([\w.]+):(\w+)"', setup_py)
    assert target is not None
    module, attr = target.groups()
    assert getattr(importlib.import_module(module), attr) is main
