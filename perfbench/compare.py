"""Compare two sets of benchmark records; refuse when their hosts differ.

Usage::

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` are result files written by ``run.py`` or directories
of them (``.perfbench/results``).  Records are grouped by workload and trace
mode.  For every end-to-end metric the median of ``NEW`` is compared with
the median of ``BASE`` against the metric's bound in ``BENCHMARK.json``;
per-layer metrics are listed with their change and no verdict.

Exit status: 0 no regression, 1 a metric got worse than its bound, 2 the
records' host fingerprints differ (wall-clock numbers from different hosts or
numerical stacks do not compare) or there is nothing to compare.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> List[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def _groups(records: List[dict]) -> Dict[Tuple[str, int], Dict[str, List[float]]]:
    out: Dict[Tuple[str, int], Dict[str, List[float]]] = {}
    for record in records:
        metrics = out.setdefault((record["workload"], record["trace"]), {})
        for name, entry in record["metrics"].items():
            metrics.setdefault(name, []).append(entry["value"])
    return out


def _fingerprint_diff(a: dict, b: dict) -> List[str]:
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def compare(base: List[dict], new: List[dict], bounds: Dict[str, Tuple[str, float]]) -> int:
    records = base + new
    if not base or not new:
        print("compare: nothing to compare", file=sys.stderr)
        return 2
    reference = records[0]["fingerprint"]
    for record in records[1:]:
        diff = _fingerprint_diff(reference, record["fingerprint"])
        if diff:
            print(f"compare: refusing: host fingerprints differ in {', '.join(diff)}", file=sys.stderr)
            return 2
    status = 0
    base_groups, new_groups = _groups(base), _groups(new)
    for key in sorted(set(base_groups) & set(new_groups)):
        workload, trace = key
        print(f"{workload} (trace {trace})")
        for name in sorted(set(base_groups[key]) & set(new_groups[key])):
            before = statistics.median(base_groups[key][name])
            after = statistics.median(new_groups[key][name])
            change = (after - before) / before if before else 0.0
            verdict = ""
            if name in bounds:
                better, bound = bounds[name]
                worse = change if better == "lower" else -change
                verdict = "REGRESSION" if worse > bound else "ok"
                if worse > bound:
                    status = 1
            print(f"  {name:<44} {before:>12.5g} -> {after:>12.5g} {change:+8.1%} {verdict}")
    return status


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    return compare(load(Path(argv[1])), load(Path(argv[2])), bounds)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
