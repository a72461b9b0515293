"""repro: high-performance CountSketch, multisketching, and randomized least squares.

A from-scratch Python reproduction of

    Higgins, Boman, Yamazaki,
    "A High Performance GPU CountSketch Implementation and Its Application to
    Multisketching and Least Squares Problems", SC 2025 (arXiv:2508.14209).

The package is organised as:

* :mod:`repro.core` -- the sketch operators (CountSketch / Gaussian / SRHT /
  multisketch, plus the hash-based streaming CountSketch).
* :mod:`repro.gpu` -- the simulated-GPU substrate (roofline cost model,
  memory tracker, cuBLAS/cuSPARSE/cuSOLVER/cuRAND stand-ins).
* :mod:`repro.linalg` -- sketch-and-solve, normal equations, QR,
  rand_cholQR and sketch-preconditioned-LSQR least-squares solvers, all
  registered behind one ``solve(spec)`` interface
  (:mod:`repro.linalg.registry`) with an adaptive planner
  (:mod:`repro.linalg.planner`) that routes each problem to the cheapest
  solver meeting its accuracy target and executes fallback chains.
* :mod:`repro.theory` -- embedding dimensions, distortion bounds, Table 1.
* :mod:`repro.distributed` -- block-row distributed sketching (Section 7).
* :mod:`repro.workloads` -- the paper's problem generators.
* :mod:`repro.harness` -- one entry point per paper table/figure.
* :mod:`repro.serving` -- the request-serving layer: a
  :class:`~repro.serving.server.SketchServer` that micro-batches same-matrix
  ``solve(A, b)`` requests into fused multi-RHS solves, caches sketch
  operators across requests (LRU, keyed on ``(kind, d, n, k, seed, dtype)``),
  spreads batches over a pool of simulated GPU shards and reports
  p50/p95/p99 latency and throughput -- plus the *concurrent runtime*
  (:class:`~repro.serving.runtime.AsyncSketchServer`): a bounded admission
  queue with per-problem-class priority lanes, deadline-aware load
  shedding with typed errors, one dispatcher thread placing sketches and
  solves across shards, and elastic shard scaling driven by queue-depth
  and p95-latency telemetry.
* :mod:`repro.streaming` -- the online engine: a
  :class:`~repro.streaming.solver.StreamingSolver` maintains the hashed
  CountSketch of a sliding / landmark / decayed window over a row stream
  (or a Frequent Directions spectral summary, ``mode="fd"``), detects
  drift from residual energy and condition probes, and lazily re-solves
  the window through the planner; ``SketchServer.open_stream`` serves it.
* :mod:`repro.durability` -- checkpoint/WAL durability for streaming and
  frequency sessions: one versioned+checksummed record format with typed errors
  (:class:`~repro.durability.codec.DurabilityError`), a pluggable
  :class:`~repro.durability.store.CheckpointStore` (in-memory or fsync'd
  directory-backed), write-ahead-logged appends with exactly-once
  checkpoint + tail replay (``SketchServer.save`` / ``restore``), and
  session TTL/eviction with passivate-resurrect for durable sessions.
* :mod:`repro.obs` -- the observability layer: per-request span trees on
  the simulated clock (:class:`~repro.obs.trace.Tracer`), a bounded
  metrics registry (counters / gauges / ring+P² histograms,
  :class:`~repro.obs.metrics.MetricsRegistry`), Prometheus / JSON / trace
  waterfall exporters (:mod:`repro.obs.export`) and the per-PR
  ``BENCH_<pr>.json`` perf-trajectory schema (:mod:`repro.obs.bench`).
* :mod:`repro.problems` -- problem classes beyond plain least squares:
  ridge regression (``solve_ridge``, three registered solvers with
  lambda-aware stability floors) and sketched low-rank approximation
  (``lowrank_approx``: randomized range finder and the streaming
  :class:`~repro.problems.lowrank.FrequentDirections` accumulator), all
  routed through the same registry/planner and served by
  ``SketchServer.solve_ridge`` / ``SketchServer.approx_lowrank``.

Quick start::

    import numpy as np
    from repro import count_gauss, sketch_and_solve

    A = np.random.default_rng(0).standard_normal((65536, 64))
    b = A @ np.ones(64)

    sketch = count_gauss(d=A.shape[0], n=A.shape[1], seed=1)
    result = sketch_and_solve(A, b, sketch)
    print(result.relative_residual, result.total_seconds)

Serving many right-hand sides against shared design matrices::

    from repro import SketchServer

    server = SketchServer(kind="multisketch", shards=2, max_batch=16)
    for b in observations:
        server.submit(A, b)
    responses = server.flush()       # fused multi-RHS solves
    print(server.stats()["requests_per_second"])
"""

from repro.core import (
    CountSketch,
    GaussianSketch,
    MultiSketch,
    SRHT,
    BlockSRHT,
    SketchOperator,
    StreamingCountSketch,
    count_gauss,
    default_embedding_dim,
)
from repro.durability import (
    CheckpointStore,
    ChecksumError,
    DirectoryCheckpointStore,
    DurabilityConfig,
    DurabilityError,
    MemoryCheckpointStore,
    SchemaError,
    TruncatedRecordError,
)
from repro.gpu import DeviceSpec, ExecutorPool, GPUExecutor, H100_SXM5, A100_SXM4, get_device
from repro.linalg import (
    LeastSquaresResult,
    SolvePlan,
    SolveSpec,
    normal_equations,
    plan,
    plan_and_execute,
    qr_solve,
    rand_cholqr,
    rand_cholqr_lstsq,
    sketch_and_solve,
    sketch_precond_lsqr,
    solve,
)
from repro.obs import (
    CalibratedEstimator,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    P2Quantile,
    SLOConfig,
    SLOEngine,
    Span,
    Tracer,
    default_serving_slos,
    to_json,
    to_prometheus,
)
from repro.problems import (
    FrequentDirections,
    LowRankResult,
    lowrank_approx,
    randomized_range_finder,
    solve_ridge,
)
from repro.serving import (
    AdmissionError,
    AsyncSketchServer,
    DeadlineExceededError,
    ElasticShardPolicy,
    IngestReport,
    LowRankResponse,
    MicroBatcher,
    OperatorCache,
    QueueFullError,
    RestoreReport,
    RuntimeConfig,
    RuntimeFuture,
    ScaleEvent,
    ServerConfig,
    ServingTelemetry,
    ShardScheduler,
    SketchServer,
    SolveResponse,
    StreamSolutionResponse,
    naive_solve_loop,
)
from repro.streaming import (
    DriftDetector,
    DriftDetectorConfig,
    DriftEvent,
    StreamingSolution,
    StreamingSolver,
)

__version__ = "1.8.0"

__all__ = [
    "CountSketch",
    "GaussianSketch",
    "MultiSketch",
    "SRHT",
    "BlockSRHT",
    "SketchOperator",
    "StreamingCountSketch",
    "count_gauss",
    "default_embedding_dim",
    "CheckpointStore",
    "ChecksumError",
    "DirectoryCheckpointStore",
    "DurabilityConfig",
    "DurabilityError",
    "MemoryCheckpointStore",
    "SchemaError",
    "TruncatedRecordError",
    "DeviceSpec",
    "ExecutorPool",
    "GPUExecutor",
    "H100_SXM5",
    "A100_SXM4",
    "get_device",
    "LeastSquaresResult",
    "SolvePlan",
    "SolveSpec",
    "normal_equations",
    "plan",
    "plan_and_execute",
    "qr_solve",
    "rand_cholqr",
    "rand_cholqr_lstsq",
    "sketch_and_solve",
    "sketch_precond_lsqr",
    "solve",
    "CalibratedEstimator",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "P2Quantile",
    "SLOConfig",
    "SLOEngine",
    "Span",
    "Tracer",
    "default_serving_slos",
    "to_json",
    "to_prometheus",
    "FrequentDirections",
    "LowRankResult",
    "lowrank_approx",
    "randomized_range_finder",
    "solve_ridge",
    "AdmissionError",
    "AsyncSketchServer",
    "DeadlineExceededError",
    "ElasticShardPolicy",
    "LowRankResponse",
    "MicroBatcher",
    "OperatorCache",
    "QueueFullError",
    "RestoreReport",
    "RuntimeConfig",
    "RuntimeFuture",
    "ScaleEvent",
    "ServerConfig",
    "ServingTelemetry",
    "ShardScheduler",
    "SketchServer",
    "SolveResponse",
    "IngestReport",
    "StreamSolutionResponse",
    "naive_solve_loop",
    "DriftDetector",
    "DriftDetectorConfig",
    "DriftEvent",
    "StreamingSolution",
    "StreamingSolver",
    "__version__",
]
