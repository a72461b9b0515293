"""Serving layer: batched, cached, sharded sketch-and-solve under load.

This package turns the reproduction's sketch operators and solvers into a
service whose answers and simulated numbers are a pure function of inputs
and seed, and whose wall-clock cost is measured end to end and per layer:

* :class:`~repro.serving.server.SketchServer` -- the front end accepting
  ``solve(A, b)`` and ``sketch(A)`` requests, plus the problem-class
  endpoints ``solve_ridge(A, b, lam)`` (planner-routed Tikhonov
  regression) and ``approx_lowrank(A, rank)`` (randomized range finder /
  Frequent Directions) backed by :mod:`repro.problems`.
* :class:`~repro.serving.batcher.MicroBatcher` -- coalesces same-matrix
  least-squares (and same-lambda ridge) requests into fused multi-RHS solves (one ``S A`` sketch and
  one GEQRF per batch instead of per request).
* :class:`~repro.serving.cache.OperatorCache` -- LRU cache of sketch
  operators keyed on ``(kind, d, n, k, seed, dtype)``; sketch state is a pure
  function of its key (hash-seeded, cf. the CSVec lineage), so it is cached
  once and shared across every request with the same shape.
* :class:`~repro.serving.scheduler.ShardScheduler` -- places batches on an
  :class:`~repro.gpu.pool.ExecutorPool` of simulated GPU workers
  (cache-affinity first, least-loaded otherwise) and charges cross-shard
  traffic with the Section-7 alpha-beta model.
* :class:`~repro.serving.telemetry.ServingTelemetry` -- the serving metric
  families, declared once over a :class:`~repro.obs.metrics.MetricsRegistry`:
  recorders write it, and p50/p95/p99 latency, throughput, batch-size,
  per-solver and per-lane histograms, fallback, session and durability
  counters are all read back from it.
* :class:`~repro.serving.runtime.AsyncSketchServer` -- the *concurrent
  runtime*: a bounded admission queue with per-problem-class priority lanes
  (weighted round-robin, so streaming ingest cannot starve solves),
  deadline-aware load shedding (typed
  :class:`~repro.serving.requests.QueueFullError` /
  :class:`~repro.serving.requests.DeadlineExceededError`), one dispatcher
  thread placing sketch application and planner-routed solves across a
  fixed pool of shards.
* :mod:`repro.serving.streaming` -- streaming sessions: a
  :class:`~repro.streaming.solver.StreamingSolver` per session, pinned to a
  shard, its window-sketch operator session-keyed in the operator cache,
  with per-session ingest/staleness/re-solve telemetry.
* :mod:`repro.serving.frequency` -- frequency-analytics sessions: a planned
  flat or hierarchical frequency sketch (:mod:`repro.core.frequency`) per
  session, served bit-for-bit identical to direct library calls, with
  ``frequency_*`` telemetry.
* :mod:`repro.serving.sessions` -- the session endpoints both front ends
  expose, declared once (:data:`~repro.serving.sessions.SESSION_ENDPOINTS`:
  ``open_stream`` / ``append_rows`` / ``query_solution`` / ... /
  ``close_frequency_stream``), and the lifecycle both session kinds share:
  one :class:`~repro.serving.sessions.SessionTable` per server, so TTL and
  ``max_sessions`` eviction bound the live sessions of both kinds together;
  and, when the config carries a
  :class:`~repro.durability.store.DurabilityConfig`, crash safety: appends
  are validated and write-ahead-logged before folding, sessions checkpoint
  periodically, ``SketchServer.save()``/``restore()`` round-trip the whole
  session set through the store, and evicted sessions passivate and
  resurrect on their next touch (through the same admission as an open).

Every batch dispatches through the solver registry
(:mod:`repro.linalg.registry`): ``ServerConfig(policy=...)`` selects
``"fixed"`` (run the requested solver as-is), ``"cheapest_accurate"`` or
``"adaptive"`` -- the latter two probe each matrix's conditioning and route
to the cheapest registered solver whose stability floor meets the request's
accuracy target, walking the planner's fallback chain on breakdown.

Quick start::

    from repro.serving import SketchServer

    server = SketchServer(kind="multisketch", shards=2, max_batch=16,
                          policy="cheapest_accurate", accuracy_target=1e-8)
    for b in observations:              # many RHS against one design matrix
        server.submit(A, b)
    responses = server.flush()          # fused into multi-RHS solves
    print(server.stats()["requests_per_second"])
"""

from repro.serving.batcher import MicroBatch, MicroBatcher
from repro.serving.cache import (
    CacheEntry,
    CacheStats,
    OperatorCache,
    build_operator,
    operator_cache_key,
    resolve_embedding_dim,
)
from repro.serving.requests import (
    LANES,
    AdmissionError,
    DeadlineExceededError,
    LowRankResponse,
    QueueFullError,
    SketchResponse,
    SolveRequest,
    SolveResponse,
    normalize_kind,
    normalize_policy,
    normalize_solver,
)
from repro.serving.frequency import (
    FrequencyIngestReport,
    FrequencyQueryResponse,
    FrequencySession,
    FrequencySessionManager,
)
from repro.serving.runtime import AsyncSketchServer, RuntimeConfig, RuntimeFuture
from repro.serving.scheduler import ShardScheduler
from repro.serving.server import PlacedBatch, ServerConfig, SketchServer, naive_solve_loop
from repro.serving.sessions import DurableSessionManager, RestoreReport, SessionTable
from repro.serving.streaming import (
    IngestReport,
    StreamSession,
    StreamSolutionResponse,
    StreamingSessionManager,
    stream_session_cache_key,
)
from repro.serving.telemetry import LatencySummary, ServingTelemetry

__all__ = [
    "AdmissionError",
    "AsyncSketchServer",
    "DeadlineExceededError",
    "LANES",
    "PlacedBatch",
    "QueueFullError",
    "RuntimeConfig",
    "RuntimeFuture",
    "MicroBatch",
    "MicroBatcher",
    "CacheEntry",
    "CacheStats",
    "OperatorCache",
    "build_operator",
    "operator_cache_key",
    "resolve_embedding_dim",
    "LowRankResponse",
    "SketchResponse",
    "SolveRequest",
    "SolveResponse",
    "normalize_kind",
    "normalize_policy",
    "normalize_solver",
    "ShardScheduler",
    "ServerConfig",
    "SketchServer",
    "naive_solve_loop",
    "FrequencyIngestReport",
    "FrequencyQueryResponse",
    "FrequencySession",
    "FrequencySessionManager",
    "DurableSessionManager",
    "IngestReport",
    "RestoreReport",
    "SessionTable",
    "StreamSession",
    "StreamSolutionResponse",
    "StreamingSessionManager",
    "stream_session_cache_key",
    "LatencySummary",
    "ServingTelemetry",
]
