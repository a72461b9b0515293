#!/usr/bin/env python3
"""Record (or validate) the perf-trajectory file ``BENCH_<pr>.json``.

Runs :func:`repro.harness.experiments.perf_trajectory` at its CI scale and
writes the schema-checked payload (see :mod:`repro.obs.bench`) next to the
repository root, so every PR ships the serving/runtime/streaming numbers it
was merged with and a regression between two PRs is one ``diff`` away.

Record:    python tools/record_bench.py --pr 17
Validate:  python tools/record_bench.py --validate BENCH_17.json

CI records a fresh copy on every build (``--out bench_fresh.json``),
validates it (the ``--validate`` path), requires it to equal the committed
record with ``tools/compare_bench.py`` and uploads both as an artifact.

Exit status: 0 on success; 1 when validation fails.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, default=17, help="PR number stamped into the record")
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="output path (default: <repo root>/BENCH_<pr>.json)",
    )
    parser.add_argument("--seed", type=int, default=0, help="experiment seed (default 0)")
    parser.add_argument(
        "--validate",
        type=pathlib.Path,
        metavar="PATH",
        default=None,
        help="validate an existing record instead of running the experiments",
    )
    args = parser.parse_args(argv)

    from repro.obs.bench import validate_bench, write_bench

    if args.validate is not None:
        if not args.validate.exists():
            print(f"FAIL: {args.validate} does not exist", file=sys.stderr)
            return 1
        try:
            payload = json.loads(args.validate.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            print(f"FAIL: {args.validate} is not valid JSON: {exc}", file=sys.stderr)
            return 1
        errors = validate_bench(payload)
        if errors:
            for error in errors:
                print(f"FAIL: {args.validate}: {error}", file=sys.stderr)
            return 1
        print(f"OK: {args.validate} is a valid perf-trajectory record")
        return 0

    from repro.harness.experiments import perf_trajectory

    out = args.out if args.out is not None else REPO_ROOT / f"BENCH_{args.pr}.json"
    payload = perf_trajectory(pr=args.pr, seed=args.seed)
    write_bench(payload, str(out))
    print(f"wrote {out}")
    for section in ("throughput", "residuals", "counters", "streaming"):
        body = payload[section]
        rendered = ", ".join(f"{k}={v:.4g}" for k, v in sorted(body.items()))
        print(f"  {section}: {rendered}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
