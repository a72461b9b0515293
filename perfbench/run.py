"""Wall-clock benchmark of the real process.

Usage::

    python3 perfbench/run.py --workload serve_hot --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py            # every workload, each in its own process

Run from the repository root; the program is imported from ``src/``.  Each
workload runs in its own process, on one core, with one BLAS thread.
``--trace 0`` measures the end-to-end metrics with nothing wrapped: set-up
time (a median over fresh probe processes), throughput, latency, answer
quality and peak memory.  ``--trace 1`` measures half the time untraced and
half with every layer's entry points wrapped (see ``layer_trace.py``) and
reports the per-layer metrics, the tracing overhead and the unaccounted share.

Wall times are scaled to a nominal host pace.  Between requests, outside
every timed region, the run times a fixed CPU task
(``hostinfo.reference_ms``); each chunk of the run is scaled by
``REFERENCE_NOMINAL_MS`` over the task's median time during that chunk, and
the run reports the better quartile of its chunks.  On a shared host a
neighbour slows the core by ~45% for seconds to minutes; unscaled, that
swamps any change to the program.  The unscaled figures and the pace are
printed next to the scaled ones and kept in the record.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any wrong answer, a simulated
twin that does not repeat, unpinned BLAS or mismatched host fingerprints
make ``correct`` false and the exit code 1.  Records, twins and span dumps
go under ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from hostinfo import PINNED_ENV, REFERENCE_NOMINAL_MS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("serve_hot", "solve_tall", "stream_sessions", "runtime_mixed")
SETUP_REPEATS = 3
CHUNKS = 10
PACE_EVERY_S = 0.2
PROBE_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "requests_per_s": "req/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "residual_ratio_mean": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(HERE), env.get("PYTHONPATH")]))
    return env


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else float("nan")


def _chunked(units, fn, better: str, paced: bool) -> float:
    """The run's figure: the better quartile of ``fn`` over consecutive chunks of units.

    The run is cut into up to :data:`CHUNKS` chunks of whole units.  On a
    shared host a neighbour slows the core in phases of seconds to minutes.
    With ``paced``, each chunk's figure is first scaled to the nominal host
    pace by the median reference time read between its units, which takes
    out phases longer than a chunk; taking the quartile on the better side
    then keeps shorter ones from moving the run's figure.
    """
    k = max(1, min(CHUNKS, len(units) // 2))
    size = len(units) / k
    figures = []
    for i in range(k):
        chunk = units[round(i * size):round((i + 1) * size)]
        figure = fn(chunk)
        if paced:
            scale = REFERENCE_NOMINAL_MS / statistics.median(u[3] for u in chunk)
            figure = figure / scale if better == "higher" else figure * scale
        figures.append(figure)
    figures.sort(reverse=better == "higher")
    return figures[len(figures) // 4]


def _throughput(units) -> float:
    busy = sum(u[1] for u in units)
    return sum(u[0] for u in units) / busy if busy > 0 else float("nan")


def _latency_ms(q: float):
    return lambda units: 1e3 * _percentile([t for u in units for t in u[2]], q)


# ---------------------------------------------------------------------------
# set-up probes
# ---------------------------------------------------------------------------
def setup_probes(name: str, seed: int):
    """Set-up seconds of fresh processes (raw and paced), their fingerprints and errors."""
    from hostinfo import reference_ms

    times, paced, fingerprints, errors = [], [], [], []
    for _ in range(SETUP_REPEATS):
        pace = statistics.median(reference_ms() for _ in range(3))
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), name, str(seed)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, cwd=str(ROOT), env=_env(),
        )
        # Everything is read through one buffered stream (communicate() after
        # readline() would lose what the readline buffered); a timer kills a
        # hung probe so the reads end.
        watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            t1 = time.perf_counter()
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
        tail = [line for line in rest.splitlines() if line.startswith("{")]
        if proc.returncode != 0 or not ready.startswith("{") or not tail:
            errors.append(f"set-up probe exited {proc.returncode}: {(ready + rest).strip()[-400:]}")
            continue
        times.append(t1 - t0 - json.loads(ready)["gen_s"])
        paced.append(times[-1] * REFERENCE_NOMINAL_MS / pace)
        tail = json.loads(tail[-1])
        errors.extend(tail["errors"])
        fingerprints.append(tail["fingerprint"])
    return times, paced, fingerprints, errors


# ---------------------------------------------------------------------------
# simulated twin
# ---------------------------------------------------------------------------
def twin_guard(workload, seed: int, traced: bool, errors: list) -> dict:
    """Replay the twin twice (the second traced when ``traced``) and against disk.

    The stored twin is keyed by seed and a digest of the program source, so
    it is only ever compared with a run of the same code.
    """
    from layer_trace import Installed, Recorder

    first = workload.twin()
    if traced:
        with Installed(Recorder()):
            second = workload.twin()
    else:
        second = workload.twin()
    if first != second:
        errors.append("simulated twin differs between two replays in one process")
    source = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        source.update(path.read_bytes())
    path = OUT / "twins" / f"{workload.name}-seed{seed}-{source.hexdigest()[:16]}.json"
    if path.exists():
        if json.loads(path.read_text()) != first:
            errors.append(f"simulated twin differs from the earlier run recorded in {path.name}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(first))
    return first


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------
def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _report_only(name: str, run) -> dict:
    """The workload-specific end-to-end figures printed beside the gated ones."""
    s = run.samples
    out = {
        "failed_share": (run.failed / run.attempted if run.attempted else 0.0, "share"),
        "residual_ratio_max": (max(run.ratios, default=float("nan")), "ratio"),
    }
    if name == "stream_sessions":
        out["ingest_rows_per_s"] = (sum(s.get("rows", [])) / sum(s.get("append_rows_s", [1.0])), "rows/s")
        out["ingest_items_per_s"] = (sum(s.get("items", [])) / sum(s.get("append_items_s", [1.0])), "items/s")
        out["solution_query_p50_ms"] = (1e3 * _percentile(s.get("solution_query_s", []), 50), "ms")
        out["topk_query_p50_ms"] = (1e3 * _percentile(s.get("topk_query_s", []), 50), "ms")
        out["topk_recall"] = (min(s.get("topk_recall", [float("nan")])), "share")
    if name == "runtime_mixed":
        out["open_loop_p50_ms"] = (1e3 * _percentile(s.get("open_loop_s", []), 50), "ms")
        out["open_loop_p90_ms"] = (1e3 * _percentile(s.get("open_loop_s", []), 90), "ms")
        out["generator_late_ms_p90"] = (1e3 * _percentile(s.get("late_s", []), 90), "ms")
    if name == "solve_tall":
        for key in sorted(k for k in s if k.startswith("solver:")):
            out[f"routed.{key[7:]}"] = (float(len(s[key])), "req")
    return out


def run_workload(args) -> int:
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not from src/", file=sys.stderr)
        return 2
    import workload_suite as suite
    from hostinfo import blas_pinned, fingerprint
    from layer_trace import Aggregate, Installed, Recorder, layer_metrics, unaccounted_share

    errors: list = []
    host = fingerprint()
    if not blas_pinned(host):
        errors.append(f"BLAS not pinned to one thread: {host['numpy_blas']} {host['scipy_blas']}")
    # One core for this process, its threads and its probes (affinity is
    # inherited): the host-pace reference must read the core the work runs on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    setups: list = []
    paced_setups: list = []
    if not args.trace:
        setups, paced_setups, probe_hosts, probe_errors = setup_probes(args.workload, args.seed)
        errors.extend(probe_errors)
        if any(fp != host for fp in probe_hosts):
            errors.append("set-up probes ran on a different host fingerprint: refusing to combine")
        if not setups:
            errors.append("no set-up probe completed")

    workload = suite.WORKLOADS[args.workload](args.seed)
    workload.prepare()
    handle = workload.open()
    request = workload.probe_request()
    errors.extend(workload.check_first(request, workload.first(handle, request)))
    workload.warm_up(handle)

    run = suite.Run(pace_every_s=0.0 if args.trace else PACE_EVERY_S)
    recorder = None
    base = None
    if args.trace:
        base = suite.Run()
        workload.measure(handle, args.seconds / 2, base)
        recorder = Recorder()
        with Installed(recorder) as installed:
            workload.measure(handle, args.seconds / 2, run)
        missing = [f"trace target missing, its layer reads 0: {m}" for m in installed.missing]
    else:
        workload.measure(handle, args.seconds, run)
    peak_rss = _peak_rss_mb()
    runtime_stats = workload.runtime_stats(handle)
    workload.close(handle)
    workload.check(run)
    twin = twin_guard(workload, args.seed, bool(args.trace), errors)

    phases = [run] + ([base] if base is not None else [])
    errors.extend(e for p in phases for e in p.errors)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    if not run.ratios and not (base and base.ratios):
        errors.append("no answer was checked")
    if run.completed == 0 or run.busy_s <= 0:
        errors.append("no request completed in the throughput phase")

    flags = missing if args.trace else []
    late = _percentile(run.samples["late_s"], 90) * 1e3 if "late_s" in run.samples else 0.0
    if late > suite.GENERATOR_LATE_LIMIT_MS:
        flags.append(f"open-loop generator ran late: p90 {late:.3f} ms > {suite.GENERATOR_LATE_LIMIT_MS} ms")

    if args.trace:
        overhead = (run.busy_s / run.completed) / (base.busy_s / base.completed) - 1.0 if base.completed else 0.0
        extra = dict(twin)
        extra.update(runtime_stats)
        extra["trace_overhead_share"] = overhead
        extra["generator_late_ms_p90"] = late
        extra["stream_resolves_per_query"] = statistics.fmean(run.samples.get("resolved", [0.0]))
        agg = Aggregate(recorder, run.served, extra)
        busy = {name: ns for name, ns in agg.top_ns.items() if name != "MainThread"}
        busy["MainThread"] = int(run.client_call_s * 1e9)
        worker_ns = sum(ns for name, ns in agg.top_ns.items() if name != "MainThread")
        extra["runtime_busy_share"] = worker_ns * 1e-9 / run.wall_s if run.wall_s else 0.0
        extra["trace_unaccounted_share"] = unaccounted_share(agg, busy)
        metrics = {name: (value, _unit(name)) for name, value in layer_metrics(agg).items()}
        spans = OUT / "spans" / f"{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        spans.write_text(json.dumps(recorder.span_dump()))
    else:
        metrics = {
            "setup_s": statistics.median(paced_setups) if paced_setups else float("nan"),
            "requests_per_s": _chunked(run.units, _throughput, "higher", paced=True),
            "latency_p50_ms": _chunked(run.units, _latency_ms(50), "lower", paced=True),
            "latency_p90_ms": _chunked(run.units, _latency_ms(90), "lower", paced=True),
            "residual_ratio_mean": statistics.fmean(run.ratios) if run.ratios else float("nan"),
            "peak_rss_mb": peak_rss,
        }
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
    report = _report_only(args.workload, run)
    if not args.trace:
        report["host_pace_ms"] = (statistics.median(u[3] for u in run.units), "ms")
        report["setup_s.unpaced"] = (statistics.median(setups) if setups else float("nan"), "s")
        report["requests_per_s.unpaced"] = (_chunked(run.units, _throughput, "higher", paced=False), "req/s")
        report["latency_p50_ms.unpaced"] = (_chunked(run.units, _latency_ms(50), "lower", paced=False), "ms")
        report["latency_p90_ms.unpaced"] = (_chunked(run.units, _latency_ms(90), "lower", paced=False), "ms")

    correct = not errors and attempted >= 1
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"  host: {host['nproc']} cores, python {host['python']}, numpy {host['numpy']}, "
          f"scipy {host['scipy']}, BLAS {host['numpy_blas']['vendor']} {host['numpy_blas']['version']} "
          f"threads={host['numpy_blas']['threads']}/{host['scipy_blas']['threads']}")
    print(f"  requests: {attempted} attempted, {failed} failed; "
          f"latency samples: {sum(len(u[2]) for u in run.units)}; answers checked: {len(run.ratios)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    for name, (value, unit) in report.items():
        print(f"  {name:<44} {value:>14.6g} {unit}  (report only)")
    for flag in flags:
        print(f"  FLAG: {flag}")
    for error in errors[:20]:
        print(f"  ERROR: {error}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "fingerprint": host, "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "report_only": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        "setup_samples_s": setups, "twin": twin, "flags": flags, "errors": errors,
    }
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


def _unit(name: str) -> str:
    from layer_trace import PER_LAYER

    return next(m.unit for m in PER_LAYER if m.name == name)


def run_all(args) -> int:
    """Every workload in its own process; the last line aggregates them."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=str(ROOT), env=_env(),
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        summary["correct"] = summary["correct"] and result["correct"] and proc.returncode == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    # BLAS reads its thread count when it loads: pin before anything imports numpy.
    os.environ.update(PINNED_ENV)
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except Exception:  # report the crash in the result line, not only on stderr
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
