"""Unit tests for ``tools/perf_pairs.py`` (no benchmark is run)."""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("perf_pairs", REPO_ROOT / "tools" / "perf_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pairs_alternate_which_side_runs_first(pairs):
    assert pairs.abba_order(4) == [
        ("base", "new"), ("new", "base"), ("base", "new"), ("new", "base"),
    ]
    assert pairs.abba_order(1) == [("base", "new")]


def test_sign_test_is_exact_and_two_sided(pairs):
    assert pairs.sign_test(6, 0) == 0.03125
    assert pairs.sign_test(0, 6) == 0.03125
    assert pairs.sign_test(9, 1) == pytest.approx(22 / 1024)
    assert pairs.sign_test(5, 5) == 1.0
    assert pairs.sign_test(0, 0) == 1.0


def _record(value: float, fingerprint: str = "host") -> dict:
    return {
        "fingerprint": {"host": fingerprint},
        "metrics": {
            "requests_per_s": {"value": value, "unit": "req/s"},
            "latency_p50_ms": {"value": 1000.0 / value, "unit": "ms"},
        },
    }


def test_every_run_keeps_its_own_record(pairs, tmp_path):
    trees = {side: tmp_path / side for side in ("base", "new")}
    calls = []

    def runner(tree):
        calls.append(tree.name)
        out = tree / ".perfbench" / "results"
        out.mkdir(parents=True, exist_ok=True)
        # Each run overwrites the same file, as perfbench/run.py does.
        (out / "w.json").write_text(json.dumps(_record(len(calls))))
        return 0

    kept = pairs.run_pairs(trees, runner, "w.json", 3, tmp_path / "out")
    assert calls == ["base", "new", "new", "base", "base", "new"]
    values = {
        side: [json.loads(p.read_text())["metrics"]["requests_per_s"]["value"] for p in paths]
        for side, paths in kept.items()
    }
    assert values == {"base": [1, 4, 5], "new": [2, 3, 6]}
    assert len({p for paths in kept.values() for p in paths}) == 6


def test_a_run_without_a_record_is_not_given_its_predecessors(pairs, tmp_path):
    trees = {side: tmp_path / side for side in ("base", "new")}
    calls = []

    def runner(tree):
        calls.append(tree.name)
        if len(calls) == 1:
            out = tree / ".perfbench" / "results"
            out.mkdir(parents=True, exist_ok=True)
            (out / "w.json").write_text(json.dumps(_record(1.0)))
        return 1

    for tree in trees.values():  # a stale record from an earlier run
        (tree / ".perfbench" / "results").mkdir(parents=True)
        (tree / ".perfbench" / "results" / "w.json").write_text(json.dumps(_record(9.0)))
    with pytest.raises(RuntimeError, match="new run"):
        pairs.run_pairs(trees, runner, "w.json", 2, tmp_path / "out")


def test_summary_counts_wins_by_each_metrics_direction(pairs):
    end_to_end = [
        {"name": "requests_per_s", "better": "higher"},
        {"name": "latency_p50_ms", "better": "lower"},
    ]
    base = [_record(v) for v in (100.0, 100.0, 100.0, 100.0)]
    new = [_record(v) for v in (110.0, 90.0, 120.0, 100.0)]
    lines, same_host = pairs.summarize(base, new, end_to_end)
    assert same_host
    rps = next(line for line in lines if line.startswith("requests_per_s"))
    p50 = next(line for line in lines if line.startswith("latency_p50_ms"))
    # Two wins, one loss, one tie in both directions: p = 2 * (1 + 3) / 8 = 1.
    assert " 2/4 " in rps and rps.endswith(" 1")
    assert " 2/4 " in p50 and p50.endswith(" 1")
    _, same_host = pairs.summarize(base, new[:3] + [_record(100.0, "other")], end_to_end)
    assert not same_host
