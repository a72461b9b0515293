"""`repro-serve`: the console demo of the serving stack (simulated H100 seconds).

``--health``, ``--slo-report``, ``--metrics`` and ``--dump-trace`` run the
*canary* (a short solve/ridge/stream workload through an AsyncSketchServer)
and render what it left; ``--checkpoint-dir`` runs the crash/restore demo;
``--workers N`` and the default print the harness's runtime and sync tables.
"""

from __future__ import annotations

import argparse
import json
from typing import List, Optional

import numpy as np

from repro.durability.store import DirectoryCheckpointStore, DurabilityConfig
from repro.harness.experiments import concurrent_load, serving_throughput
from repro.harness.report import format_table
from repro.obs.export import render_critical_path, render_waterfall, to_json, to_prometheus
from repro.obs.slo import SLOEngine, default_serving_slos
from repro.serving.runtime import AsyncSketchServer
from repro.serving.server import SketchServer


def _run_canary(args, *, slos: bool):
    """Build the canary runtime, drive its workload through it and stop it.

    Three phases (16 solves, 6 ridge solves, one stream session), each
    admitted while the runtime is paused so batching does not depend on
    thread timing.  With ``slos`` the stock SLOs are evaluated after each
    phase drains.  Returns ``(runtime, engine)``; no ``slos``, no engine.
    """
    rng = np.random.default_rng(args.seed)
    runtime = AsyncSketchServer(
        shards=args.shards,
        seed=args.seed,
        queue_depth=args.queue_depth,
    )
    engine = SLOEngine(runtime.metrics, default_serving_slos()) if slos else None
    try:
        for phase in ("solve", "ridge", "stream"):
            runtime.pause()  # stop() resumes it should an admission raise
            if phase == "solve":
                futures = [
                    runtime.submit(rng.standard_normal((512, 16)), rng.standard_normal(512))
                    for _ in range(16)
                ]
            elif phase == "ridge":
                futures = [
                    runtime.submit_ridge(
                        rng.standard_normal((256, 12)), rng.standard_normal(256), 0.1
                    )
                    for _ in range(6)
                ]
            else:
                session = runtime.open_stream(12)
                futures = [
                    runtime.append_rows(
                        session, rng.standard_normal((128, 12)), rng.standard_normal(128)
                    )
                    for _ in range(4)
                ]
                futures.append(runtime.query_solution(session))
            runtime.resume()
            for future in futures:
                future.result()
            runtime.drain()
            if engine is not None:
                engine.evaluate()
    finally:
        runtime.stop()
    return runtime, engine


def _slo_report(args) -> int:
    """``repro-serve --slo-report``: stock SLOs over the canary workload."""
    _, engine = _run_canary(args, slos=True)
    report = engine.report()
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
        return 0
    print(f"SLO report ({report['evaluations']} evaluations):")
    for row in report["slos"]:
        state = "FIRING" if row["alerting"] else "ok"
        print(
            f"  {row['name']:<24} [{row['kind']:<12}] objective={row['objective']:.3f} "
            f"compliance={row['compliance']:.4f} "
            f"burn fast={row['fast_burn']:.2f} slow={row['slow_burn']:.2f} "
            f"n={row['samples']} {state}"
        )
    for event in report["alert_events"]:
        print(
            f"  alert: {event['slo']} {event['state']} at eval {event['at']:g} "
            f"(fast={event['fast_burn']:.2f}, slow={event['slow_burn']:.2f})"
        )
    return 1 if report["firing"] else 0


def _health_probe(args) -> int:
    """``repro-serve --health``: the canary workload with meaningful exit codes.

    Exit 0: canary traffic served cleanly and no SLO alert is firing.
    Exit 1: degraded -- traffic was served but requests were shed/failed
    or an SLO alert fired.  Exit 2: unhealthy -- the canary itself blew up.
    """
    try:
        runtime, engine = _run_canary(args, slos=True)
    except Exception as exc:  # the probe itself must never raise
        print(f"unhealthy: canary workload failed: {exc}")
        return 2
    snapshot = runtime.telemetry.snapshot()
    shed = snapshot.get("requests_shed", 0)
    failed = snapshot.get("failed_requests", 0)
    firing = engine.firing()
    if failed or shed or firing:
        parts = (
            f"{int(failed)} failed" if failed else "",
            f"{int(shed)} shed" if shed else "",
            f"alerts firing: {firing}" if firing else "",
        )
        print(f"degraded: {', '.join(part for part in parts if part)}")
        return 1
    served = int(snapshot.get("requests_served", 0))
    print(f"healthy: {served} canary requests served, no sheds, no failures, no SLO alerts")
    return 0


def _observability_report(args) -> int:
    """``--metrics`` (Prometheus text or JSON registry snapshot) and
    ``--dump-trace`` (waterfall and critical path of the slowest trace)."""
    runtime, _ = _run_canary(args, slos=False)
    if args.metrics:
        if args.json:
            print(to_json(runtime.metrics))
        else:
            print(to_prometheus(runtime.metrics), end="")
    if args.dump_trace:
        traces = runtime.tracer.traces()
        if not traces:
            print("no completed traces (tracing disabled?)")
            return 1
        slowest = max(traces, key=lambda t: t.duration)
        if args.metrics:
            print()
        print(render_waterfall(slowest))
        print()
        print(render_critical_path(slowest))
    return 0


def _durability_demo(args) -> int:
    """``repro-serve --checkpoint-dir PATH``: crash/restore round trip.

    Streams into a durable sliding-window session, drops the server with the
    last batches only in the WAL tail, restores on a fresh server over the
    same directory and checks the recovered solution is *identical*.
    """
    store = DirectoryCheckpointStore(args.checkpoint_dir)
    durability = DurabilityConfig(store=store, checkpoint_interval_batches=4)
    rng = np.random.default_rng(args.seed)
    n = 16
    x_true = rng.standard_normal(n)

    server = SketchServer(shards=args.shards, seed=args.seed, durability=durability)
    sid = server.open_stream(n, mode="sliding", bucket_rows=512, window_buckets=4, detector=False)
    for _ in range(10):
        rows = rng.standard_normal((256, n))
        server.append_rows(sid, rows, rows @ x_true + 1e-8 * rng.standard_normal(256))
    before = server.query_solution(sid)
    checkpoints = server.telemetry.checkpoints_written
    wal_appends = server.telemetry.wal_appends
    del server  # crash: the process state is gone, only the store survives

    recovered = SketchServer(shards=args.shards, seed=args.seed, durability=durability)
    report = recovered.restore()
    if not report.ok or sid not in report.restored:
        print(f"restore failed: {report.failed or 'session missing'}")
        return 1
    after = recovered.query_solution(sid)
    match = before.x is not None and after.x is not None and np.array_equal(before.x, after.x)
    print(f"checkpoint dir        : {args.checkpoint_dir}")
    print(f"checkpoints written   : {checkpoints}")
    print(f"wal appends           : {wal_appends}")
    print(f"wal batches replayed  : {report.restored[sid]}")
    print(f"pre-crash residual    : {before.relative_residual:.3e}")
    print(f"post-restore residual : {after.relative_residual:.3e}")
    print(f"solutions identical   : {match}")
    recovered.close_stream(sid)
    return 0 if match else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``repro-serve`` console script.

    The two table demos wrap the harness experiments, so the demo and the
    benchmarks share one traffic-synthesis path.  ``--workers N`` takes any
    N > 0; the runtime always dispatches on one thread.
    """
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Sketch-and-solve serving demo (simulated H100 seconds).",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="any N > 0 runs the concurrent runtime demo (one dispatcher "
        "thread whatever N is); 0 = synchronous serving demo (default 0)",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=512,
        help="admission-queue bound for the concurrent runtime demo (default 512)",
    )
    parser.add_argument("--shards", type=int, default=2, help="base shard count (default 2)")
    parser.add_argument("--seed", type=int, default=7, help="traffic/operator seed (default 7)")
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="run a short mixed workload and print the metrics registry "
        "(Prometheus text exposition format; see --json)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="with --metrics, print the structured JSON snapshot instead",
    )
    parser.add_argument(
        "--dump-trace",
        action="store_true",
        help="run a short mixed workload and print the slowest request's "
        "span waterfall and critical path",
    )
    parser.add_argument(
        "--slo-report",
        action="store_true",
        help="run a short mixed workload under the stock SLO set and print "
        "per-SLO compliance, burn rates and alert events (exit 1 if any "
        "alert is firing; see --json)",
    )
    parser.add_argument(
        "--health",
        action="store_true",
        help="canary health probe: exit 0 healthy, 1 degraded (sheds, "
        "failures or firing SLO alerts), 2 unhealthy (probe itself failed)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="PATH",
        default=None,
        help="durability demo: run a streaming session against a "
        "directory-backed checkpoint/WAL store at PATH, 'crash' it "
        "mid-stream, then restore on a fresh server and verify the "
        "recovered solution matches exactly (exit 1 on mismatch)",
    )
    args = parser.parse_args(argv)

    if args.checkpoint_dir is not None:
        return _durability_demo(args)
    if args.health:
        return _health_probe(args)
    if args.slo_report:
        return _slo_report(args)
    if args.metrics or args.dump_trace:
        return _observability_report(args)

    if args.workers > 0:
        rows = concurrent_load(shards=args.shards, queue_depth=args.queue_depth, seed=args.seed)
        print(format_table(
            rows,
            columns=["mode", "requests", "requests_per_second", "speedup",
                     "worst_relative_residual", "active_max", "scale_ups", "scale_downs",
                     "requests_shed", "queue_full_rejects", "deadline_violations"],
            title=(f"repro-serve concurrent demo: mixed lstsq+ridge+streaming load, "
                   f"one dispatcher, queue depth {args.queue_depth} "
                   "-- simulated H100 seconds"),
        ))
        return 0

    rows = serving_throughput(
        d=1 << 14, n=32, n_requests=128, n_matrices=2,
        kinds=("multisketch", "countsketch", "gaussian"),
        shards=args.shards, max_batch=8, seed=args.seed,
    )
    print(format_table(
        rows,
        columns=["kind", "batched_rps", "naive_rps", "speedup", "cache_hit_rate",
                 "mean_batch_size", "p50_us", "p99_us", "worst_relative_residual"],
        title=("repro-serve demo: 128 solve requests over 2 design matrices "
               "(d=2^14, n=32, 2 shards) -- simulated H100 seconds"),
    ))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
