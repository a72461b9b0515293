#!/usr/bin/env python3
"""Gate the perf trajectory: a fresh ``BENCH`` record must equal the committed one.

Every number in the record (see :mod:`repro.obs.bench`) is a simulated-clock
quantity or a count, and the concurrent runtime dispatches on one thread, so
the record is a pure function of code and seed.  The gate is therefore exact:

* ``throughput.*``, ``lanes.*``, ``counters.*``, ``streaming.*`` (and
  ``config``, ``schema_version``) must be equal, bit for bit;
* ``residuals.*`` come from host BLAS and are compared at relative 1e-9;
* ``pr`` is ignored.

A change that moves a simulated number commits the new record with it.

Compare:   python tools/compare_bench.py bench_fresh.json BENCH_33.json
Report:    python tools/compare_bench.py bench_fresh.json BENCH_33.json --report bench_compare.txt

Exit status: 0 when the records agree; 1 on any difference or
unreadable/invalid input.
"""

from __future__ import annotations

import argparse
import math
import pathlib
import sys
from typing import Dict, List, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Relative tolerance for the host-BLAS ``residuals`` section.
RESIDUAL_RTOL = 1e-9


def _flatten(payload: dict, prefix: str = "") -> Dict[str, object]:
    """``{"a": {"b": 1}}`` -> ``{"a.b": 1}``."""
    out: Dict[str, object] = {}
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(_flatten(value, f"{name}."))
        else:
            out[name] = value
    return out


def compare(current: dict, committed: dict) -> Tuple[List[str], List[str]]:
    """Diff a fresh record against the committed one; returns (report lines, differences)."""
    cur, ref = _flatten(current), _flatten(committed)
    cur.pop("pr", None)
    ref.pop("pr", None)
    lines = [f"perf record: fresh vs committed PR {committed.get('pr')}"]
    differences: List[str] = []
    for name in sorted(set(cur) | set(ref)):
        if name not in cur or name not in ref:
            differences.append(f"{name} only in the {'fresh' if name in cur else 'committed'} record")
            continue
        new, old = cur[name], ref[name]
        if name.startswith("residuals."):
            same = math.isclose(new, old, rel_tol=RESIDUAL_RTOL, abs_tol=0.0)
        else:
            same = new == old
        lines.append(f"  {name}: {old!r} -> {new!r}{'' if same else '  DIFFERS'}")
        if not same:
            differences.append(f"{name}: committed {old!r}, fresh {new!r}")
    if differences:
        lines.append("DIFFERENCES (commit the new record and explain it in CHANGES.md):")
        lines.extend(f"  {d}" for d in differences)
    else:
        lines.append("records agree")
    return lines, differences


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", type=pathlib.Path, help="the freshly recorded BENCH json")
    parser.add_argument("committed", type=pathlib.Path, help="the committed BENCH_<pr>.json")
    parser.add_argument(
        "--report",
        type=pathlib.Path,
        default=None,
        help="also write the comparison report to this path (CI artifact)",
    )
    args = parser.parse_args(argv)

    import json

    from repro.obs.bench import validate_bench

    payloads = []
    for path in (args.current, args.committed):
        if not path.exists():
            print(f"FAIL: {path} does not exist", file=sys.stderr)
            return 1
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            print(f"FAIL: {path} is not valid JSON: {exc}", file=sys.stderr)
            return 1
        errors = validate_bench(payload)
        if errors:
            for error in errors:
                print(f"FAIL: {path}: {error}", file=sys.stderr)
            return 1
        payloads.append(payload)

    lines, differences = compare(payloads[0], payloads[1])
    report = "\n".join(lines)
    print(report)
    if args.report is not None:
        args.report.write_text(report + "\n", encoding="utf-8")
        print(f"wrote {args.report}")
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main())
