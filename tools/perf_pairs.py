#!/usr/bin/env python3
"""Run the wall-clock benchmark on a parent revision and this tree in alternating pairs.

Usage::

    python tools/perf_pairs.py REV --workload W --seed S --pairs N [--trace T]

``REV`` (any git revision) is extracted with ``git archive`` into a
temporary directory, removed on exit: its committed files only, with no
working-tree state and nothing registered in ``.git``.  ``perfbench/run.py --workload W --seed S --trace T``
then runs ``N`` times in each tree, in ABBA order (pair 0 runs the parent
first, pair 1 this tree first, and so on), because a shared host's pace
drifts over minutes.  Each run is as long as ``BENCHMARK.json``'s
``run_seconds``.  After every run its record is copied to
``.perfbench/pairs/<REV>-<W>-seed<S>-trace<T>/{base,new}/run<i>.json``, so
no run overwrites another (an earlier invocation's records there are
replaced).

For every end-to-end metric the report gives both medians, the parent's
quartiles, the pairs this tree won (ties count for neither side) and the
exact two-sided sign-test p-value of that count.  Then
``perfbench/compare.py`` judges the two record directories.

Exit status: that of ``perfbench/compare.py`` (0 no regression, 1 a metric
worse than its bound), 2 when the records' host fingerprints differ, 1 when
a run wrote no record.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "new")


def abba_order(pairs: int) -> List[Tuple[str, str]]:
    """Run order of each pair: ``("base", "new")``, then ``("new", "base")``, alternating."""
    return [SIDES if i % 2 == 0 else SIDES[::-1] for i in range(pairs)]


def sign_test(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value of ``wins`` against ``losses`` (ties left out)."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2.0 ** n)


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile (``statistics.quantiles``, inclusive method)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def record_name(workload: str, seed: int, trace: int) -> str:
    """The file ``perfbench/run.py`` writes under ``.perfbench/results``."""
    return f"{workload}-seed{seed}-trace{trace}.json"


def run_pairs(
    trees: Dict[str, Path],
    runner: Callable[[Path], int],
    record: str,
    pairs: int,
    out: Path,
) -> Dict[str, List[Path]]:
    """Run ``runner(tree)`` in ABBA order and copy each record into ``out/<side>/run<i>.json``.

    A tree's previous record is deleted before each run, so a run that
    writes none is caught instead of its predecessor's being copied.
    Returns the copied records by side, in pair order.
    """
    kept: Dict[str, List[Path]] = {side: [] for side in SIDES}
    for side in SIDES:
        (out / side).mkdir(parents=True, exist_ok=True)
    for i, order in enumerate(abba_order(pairs)):
        for side in order:
            produced = trees[side] / ".perfbench" / "results" / record
            produced.unlink(missing_ok=True)
            status = runner(trees[side])
            if not produced.is_file():
                raise RuntimeError(f"pair {i}: the {side} run (exit {status}) wrote no record")
            dest = out / side / f"run{i}.json"
            shutil.copyfile(produced, dest)
            kept[side].append(dest)
    return kept


def summarize(
    base: List[dict], new: List[dict], end_to_end: List[dict]
) -> Tuple[List[str], bool]:
    """Report lines per end-to-end metric, and whether every record's host fingerprint agrees."""
    reference = base[0]["fingerprint"] if base else {}
    same_host = all(r["fingerprint"] == reference for r in base + new)
    lines = [f"{'metric':<22} {'parent':>12} {'change':>12} {'delta':>8}  "
             f"{'parent Q1..Q3':>25}  won   p (sign test)"]
    for spec in end_to_end:
        name, better = spec["name"], spec["better"]
        before = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
        after = [r["metrics"][name]["value"] for r in new if name in r["metrics"]]
        if not before or len(before) != len(after):
            continue
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (b - a) > 0 for a, b in zip(before, after))
        losses = sum(sign * (b - a) < 0 for a, b in zip(before, after))
        m0, m1 = statistics.median(before), statistics.median(after)
        q1, q3 = quartiles(before)
        delta = (m1 - m0) / m0 if m0 else 0.0
        lines.append(
            f"{name:<22} {m0:>12.5g} {m1:>12.5g} {delta:>+8.1%}  "
            f"{q1:>12.5g}..{q3:<12.5g}  {wins:>2}/{len(before):<2} {sign_test(wins, losses):.4g}"
        )
    return lines, same_host


def _perfbench(workload: str, seed: int, trace: int, seconds: float) -> Callable[[Path], int]:
    def run(tree: Path) -> int:
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=str(tree), stdout=subprocess.PIPE, text=True)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        print(f"  {tree.name or tree}: exit {proc.returncode} {last[0][:160]}", flush=True)
        return proc.returncode
    return run


def _extract(rev: str, dest: Path) -> str:
    """Extract ``rev``'s committed files into ``dest``; returns the full commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=str(ROOT), check=True, stdout=subprocess.PIPE, text=True,
    ).stdout.strip()
    archive = subprocess.Popen(["git", "archive", commit], cwd=str(ROOT), stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {commit} failed")
    return commit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the parent revision (any git revision)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = record_name(args.workload, args.seed, args.trace)
    runner = _perfbench(args.workload, args.seed, args.trace, spec["run_seconds"])
    with tempfile.TemporaryDirectory(prefix="perf_pairs-") as tmp:
        base_tree = Path(tmp)
        commit = _extract(args.rev, base_tree)
        out = ROOT / ".perfbench" / "pairs" / f"{commit[:12]}-{args.workload}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(out, ignore_errors=True)
        print(f"perf_pairs: {args.pairs} ABBA pairs of {args.workload} seed {args.seed} trace "
              f"{args.trace}, parent {commit[:12]} vs {ROOT}; records in {out}", flush=True)
        try:
            kept = run_pairs({"base": base_tree, "new": ROOT}, runner, record, args.pairs, out)
        except RuntimeError as exc:
            print(f"perf_pairs: {exc}", file=sys.stderr)
            return 1
    base = [json.loads(p.read_text()) for p in kept["base"]]
    new = [json.loads(p.read_text()) for p in kept["new"]]
    lines, same_host = summarize(base, new, spec["end_to_end"])
    print("\n".join(lines))
    if not same_host:
        print("perf_pairs: refusing: the records' host fingerprints differ", file=sys.stderr)
        return 2
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "compare.py"), str(out / "base"), str(out / "new")],
        cwd=str(ROOT),
    ).returncode


if __name__ == "__main__":
    sys.exit(main())
