"""`SketchServer`: the request-serving front end of the reproduction.

Pulls the serving subsystem together:

1. ``submit()`` enqueues ``solve(A, b)`` requests into the
   :class:`~repro.serving.batcher.MicroBatcher`;
2. ``flush()`` drains the queue as fused micro-batches, resolves each batch's
   sketch operator through the :class:`~repro.serving.cache.OperatorCache`,
   places it on a shard via the
   :class:`~repro.serving.scheduler.ShardScheduler`, and runs one multi-RHS
   ``sketch_and_solve`` / ``rand_cholqr_lstsq`` per batch;
3. per-request latencies, batch sizes and cache hit rates land in
   :class:`~repro.serving.telemetry.ServingTelemetry`.

Throughput comes from two amortisations measured by
``benchmarks/test_serving_throughput.py``: the micro-batcher pays the
``S A`` sketch and the QR factorisation once per batch instead of once per
request, and the operator cache pays sketch generation once per problem
shape instead of once per request.

Beyond plain ``solve(A, b)`` traffic the server fronts the other problem
classes of :mod:`repro.problems`: :meth:`SketchServer.solve_ridge` sends
Tikhonov-regularized requests through the same micro-batched path (ridge
solver registry, lambda-aware stability floors, fallback chains;
same-matrix ridge requests fuse) and
:meth:`SketchServer.approx_lowrank` serves randomized range-finder /
Frequent Directions factorizations -- each problem class keeping its own
operator-cache namespace via the ``problem`` field of
:func:`~repro.serving.cache.operator_cache_key`.

:func:`naive_solve_loop` is the reference the benchmark compares against: the
same traffic solved one request at a time with no batching and no caching.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.countsketch import SketchProduct
from repro.distributed.comm import CommCostModel
from repro.gpu.device import DeviceSpec, H100_SXM5
from repro.gpu.executor import GPUExecutor
from repro.gpu.pool import ExecutorPool
from repro.linalg.lstsq import LeastSquaresResult
from repro.linalg.planner import SolvePlan, execute_plan, normalize_policy, plan
from repro.linalg.registry import SolveSpec, get_solver
from repro.serving.batcher import MicroBatch, MicroBatcher
from repro.serving.cache import (
    CacheEntry,
    OperatorCache,
    build_operator,
    operator_cache_key,
    resolve_embedding_dim,
)
from repro.serving.requests import (
    PRIORITY_NORMAL,
    LowRankResponse,
    SketchResponse,
    SolveRequest,
    SolveResponse,
    normalize_kind,
    normalize_solver,
)
from repro.durability.store import DirectoryCheckpointStore, DurabilityConfig
from repro.obs.calibrate import CalibratedEstimator
from repro.obs.trace import NULL_SPAN, Span, Tracer
from repro.serving.scheduler import ShardScheduler
from repro.serving.frequency import (
    FrequencyIngestReport,
    FrequencyQueryResponse,
    FrequencySessionManager,
)
from repro.serving.sessions import RestoreReport, SessionTable
from repro.serving.streaming import (
    IngestReport,
    StreamingSessionManager,
    StreamSolutionResponse,
)
from repro.serving.telemetry import ServingTelemetry


@dataclass
class ServerConfig:
    """Configuration of a :class:`SketchServer`.

    Attributes
    ----------
    kind:
        Default sketch family for requests that do not specify one.
    solver:
        Default solver (any name registered in
        :mod:`repro.linalg.registry`).  Under the ``"fixed"`` policy this is
        what runs; under the adaptive policies the planner routes and this
        is only the naming default recorded on requests.
    policy:
        Routing policy: ``"fixed"`` (pre-registry behaviour: run the
        requested solver, no probing, no fallback), ``"cheapest_accurate"``
        (cheapest solver whose stability floor meets the accuracy target at
        the probed conditioning, with a fallback chain), or ``"adaptive"``
        (additionally latency-budget aware).  See
        :mod:`repro.linalg.planner`.
    accuracy_target:
        Default per-request accuracy target the planner routes against.
    latency_budget:
        Default per-request estimated-seconds cap for ``"adaptive"``.
    oversampling:
        Embedding-dimension constant (2.0 in the paper), threaded through
        :func:`~repro.serving.cache.resolve_embedding_dim` into every
        operator the server builds.
    shards:
        Number of simulated GPU workers in the executor pool.
    active_shards:
        Initial size of the scheduler's *active* shard set (``None`` means
        all of them).  The concurrent runtime provisions the pool at its
        elastic maximum but starts with only this many shards taking new
        work; the :class:`~repro.serving.scheduler.ElasticShardPolicy`
        grows and shrinks the set from load telemetry.
    cache_capacity:
        Maximum number of live sketch operators across all shards.
    max_batch:
        Upper bound on requests fused into one micro-batch.
    seed:
        Seed for every server-built operator (part of the cache key, so all
        requests against a shape share one reproducible sketch).
    replicate_operators:
        When True (default), a cached operator whose shard is busier than an
        idle shard is *replicated* there -- rebuilt locally from its seed
        (sketch state is a pure function of the cache key, so only the tiny
        key crosses the network) -- letting hot single-shape traffic spread
        over the whole pool instead of serialising on the owning shard.
    device / numeric:
        Forwarded to the executor pool.
    comm:
        Alpha-beta model for front-end <-> shard transfers.
    tracing:
        When True (default) every request grows a span tree in the server's
        :class:`~repro.obs.trace.Tracer` (admission, queueing, planning,
        placement, fused execution, fallback hops).  Tracing reads only
        clocks the cost model already advanced, so it costs nothing on the
        simulated clock; turn it off to shave the host-side bookkeeping.
    trace_capacity:
        Completed traces retained (oldest evicted first).
    trace_sample:
        Head sampling for trace *retention*: keep one in every
        ``trace_sample`` root traces (shed/error traces are always kept,
        and the started/completed counters still count everything).  1
        (default) retains every trace.
    calibration:
        Closed-loop cost calibration mode: ``"off"`` (pure analytic
        costs, no estimator), ``"observe"`` (default: a
        :class:`~repro.obs.calibrate.CalibratedEstimator` learns
        measured/analytic correction factors and scores itself in the
        registry, but planning and shedding still use analytic costs --
        the shadow deployment), or ``"active"`` (planner ranking,
        deadline-shedding projections and drain-time estimates all use
        calibrated costs).
    durability:
        A :class:`~repro.durability.store.DurabilityConfig` to make every
        session -- streaming-solver and frequency alike -- crash-safe:
        every append is validated and WAL'd before it is folded, sessions
        are snapshotted every ``checkpoint_interval_batches`` appends, and
        :meth:`SketchServer.restore` rebuilds them after a process death.
        ``None`` (default) keeps sessions purely in-memory.
    max_sessions:
        Cap on simultaneously *live* sessions of both kinds together (one
        table, :attr:`SketchServer.sessions`); opening a session, or
        resurrecting a passivated one, past it evicts the
        least-recently-used session of either kind (passivated when
        durable, terminal otherwise).  ``None`` means unbounded.
    session_ttl_seconds:
        Idle lifetime of a session of either kind on its shard's simulated
        clock; sessions idle longer are evicted on the next open or
        resurrection of any session (or an explicit
        ``sessions.sweep_expired()``).  ``None`` disables TTL.
    """

    kind: str = "multisketch"
    solver: str = "sketch_and_solve"
    policy: str = "fixed"
    accuracy_target: float = 1e-6
    latency_budget: Optional[float] = None
    oversampling: float = 2.0
    shards: int = 2
    active_shards: Optional[int] = None
    cache_capacity: int = 64
    max_batch: int = 32
    seed: int = 0
    replicate_operators: bool = True
    device: DeviceSpec = H100_SXM5
    numeric: bool = True
    comm: Optional[CommCostModel] = None
    tracing: bool = True
    trace_capacity: int = 512
    trace_sample: int = 1
    calibration: str = "observe"
    durability: Optional[DurabilityConfig] = None
    max_sessions: Optional[int] = None
    session_ttl_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        self.kind = normalize_kind(self.kind)
        self.solver = normalize_solver(self.solver)
        self.policy = normalize_policy(self.policy)
        if self.shards <= 0:
            raise ValueError("shards must be positive")
        if self.active_shards is not None and not (1 <= self.active_shards <= self.shards):
            raise ValueError("active_shards must be in [1, shards]")
        if self.oversampling <= 1.0:
            raise ValueError("oversampling must exceed 1")
        if self.accuracy_target <= 0.0:
            raise ValueError("accuracy_target must be positive")
        if self.trace_capacity <= 0:
            raise ValueError("trace_capacity must be positive")
        if self.trace_sample <= 0:
            raise ValueError("trace_sample must be positive (1 keeps every trace)")
        if self.calibration not in ("off", "observe", "active"):
            raise ValueError("calibration must be 'off', 'observe', or 'active'")
        if self.durability is not None and not isinstance(self.durability, DurabilityConfig):
            raise TypeError("durability must be a DurabilityConfig (or None)")
        if self.max_sessions is not None and self.max_sessions < 1:
            raise ValueError("max_sessions must be at least 1 (or None for unbounded)")
        if self.session_ttl_seconds is not None and self.session_ttl_seconds <= 0.0:
            raise ValueError("session_ttl_seconds must be positive (or None to disable)")


@dataclass
class PlacedBatch:
    """A planned micro-batch bound to a shard, ready to execute.

    Produced by :meth:`SketchServer._plan_and_place`, consumed by
    :meth:`SketchServer._run_placed`.  The concurrent runtime holds one of
    these per in-flight dispatch: the plan's cost estimate
    (``plan.costs[plan.solver]``) is the service-time term of its
    deadline-shedding projection.  A placed batch holds the batch's
    matrix (through ``first_stage``), so it is dropped once the batch ran.
    """

    plan: SolvePlan
    spec: SolveSpec
    entry: Optional[CacheEntry]
    shard: int
    cache_hit: bool
    #: The spectrum probe's first-stage product ``S1 A`` for this batch's
    #: matrix, reused by every chain link whose operator starts with that
    #: CountSketch.  It lives exactly as long as the batch.
    first_stage: Optional[SketchProduct] = None

    @property
    def estimated_service_seconds(self) -> float:
        """Planner's analytic estimate of the batch's solve time."""
        return float(self.plan.costs.get(self.plan.solver, 0.0))


class SketchServer:
    """Batched, cached, sharded sketch-and-solve service."""

    def __init__(self, config: Optional[ServerConfig] = None, **overrides) -> None:
        if config is None:
            config = ServerConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a ServerConfig or keyword overrides, not both")
        self.config = config
        self.pool = ExecutorPool(
            config.shards,
            device=config.device,
            numeric=config.numeric,
            seed=config.seed,
            track_memory=False,
        )
        self.scheduler = ShardScheduler(
            self.pool, cost_model=config.comm, active_shards=config.active_shards
        )
        self.cache = OperatorCache(capacity=config.cache_capacity)
        self.telemetry = ServingTelemetry()
        #: The metrics registry backing the telemetry -- the scrape surface
        #: for :func:`repro.obs.export.to_prometheus` / ``to_json``.
        self.metrics = self.telemetry.registry
        #: Per-request span trees on the simulated clock (see repro.obs.trace).
        self.tracer = Tracer(
            enabled=config.tracing,
            max_traces=config.trace_capacity,
            sample_every=config.trace_sample,
        )
        #: Online measured/analytic cost calibration (None when "off").
        #: In "observe" mode it learns and scores itself; in "active" mode
        #: its predictions also drive planning, shedding and drain estimates.
        self.calibration: Optional[CalibratedEstimator] = (
            CalibratedEstimator(self.metrics, device=config.device)
            if config.calibration != "off"
            else None
        )
        self.cache.listener = self._on_cache_event
        self.scheduler.on_scale = self.telemetry.set_active_shards
        self.telemetry.set_active_shards(self.scheduler.active_shards)
        self._batcher = MicroBatcher(max_batch=config.max_batch)
        self.streams = StreamingSessionManager(self)
        self.frequencies = FrequencySessionManager(self)
        #: Every live or passivated session of both kinds (one LRU/TTL/cap).
        self.sessions = SessionTable(self, (self.streams, self.frequencies))
        self._next_id = 0
        self._batch_seq = 0
        # Conditioning probes are pure functions of the matrix; memoise them
        # per live matrix object (weakly referenced -- see _spectrum_estimate)
        # so hot same-matrix traffic plans for free.
        self._cond_cache: Dict[Tuple, Tuple] = {}

    # ------------------------------------------------------------------
    # observability plumbing
    # ------------------------------------------------------------------
    def _on_cache_event(self, event: str, key: Tuple) -> None:
        """Operator-cache listener: land hit/miss/store/evict in the registry."""
        self.metrics.counter("serving_cache_events_total", event=event).inc()

    def _cost_source(self):
        """Planner cost hook: calibrated costs only in ``"active"`` mode."""
        if self.calibration is not None and self.config.calibration == "active":
            return self.calibration.as_cost_source()
        return None

    def _feed_calibration(self, span_log: Optional[List[Dict[str, object]]], spec: SolveSpec) -> None:
        """Fold a batch's successful per-solver attempts into the estimator.

        Failed hops measure a truncated run (the solver broke down partway)
        and would drag factors toward optimism, so only clean attempts
        count.
        """
        if self.calibration is None or not span_log:
            return
        for hop in span_log:
            if hop["failed"]:
                continue
            self.calibration.observe(
                str(hop["solver"]),
                spec,
                float(hop["end"]) - float(hop["start"]),
                device=self.config.device,
            )

    def _finish_request_trace(
        self,
        root: Optional[Span],
        *,
        request_id: int,
        lane: str,
        placed: "PlacedBatch",
        batch_id: int,
        batch_size: int,
        span_log: Optional[List[Dict[str, object]]],
        exec_start: float,
        exec_end: float,
        comm_seconds: float,
        executed: str,
        fallbacks: int,
        failed: bool,
        residual: float,
    ) -> None:
        """Grow and close one request's span tree around an executed batch.

        ``root`` is the runtime-created root (admission/queue context baked
        in) or ``None`` on the synchronous path, where the trace starts at
        execution.  One ``batch`` span fans into the rider's own ``solve``
        child plus one ``solver:<name>`` child per planner-chain attempt, so
        a fused batch's N traces share the ``batch_id`` attribute while each
        request keeps exactly one complete tree.
        """
        tracer = self.tracer
        if not tracer.enabled:
            return
        plan_ = placed.plan
        if root is None:
            root = tracer.start_trace(
                "request", exec_start, request_id=request_id, lane=lane
            )
        elif root is not NULL_SPAN and root.start < exec_start:
            tracer.start_span("queue", root, root.start).finish(exec_start)
        tracer.event(
            "plan",
            root,
            exec_start,
            policy=self.config.policy,
            planned=plan_.solver,
            chain="->".join(plan_.chain),
            cond_estimate=plan_.cond_estimate,
        )
        tracer.event(
            "placement", root, exec_start, shard=placed.shard, cache_hit=placed.cache_hit
        )
        batch_span = tracer.start_span(
            "batch", root, exec_start,
            batch_id=batch_id, batch_size=batch_size, shard=placed.shard,
        )
        spec = placed.spec
        for hop in span_log or ():
            # Shape/problem attributes make solver spans self-describing:
            # CalibratedEstimator.ingest() rebuilds the spec (and hence the
            # calibration bucket) from the span alone.
            attempt = tracer.start_span(
                f"solver:{hop['solver']}", batch_span, float(hop["start"]),
                solver=hop["solver"], fallback_hop=hop["hop"],
                d=spec.d, n=spec.n, nrhs=spec.nrhs,
                problem=spec.problem, kind=spec.kind,
                regularization=spec.regularization,
            )
            if hop["reason"]:
                attempt.set(reason=hop["reason"])
            attempt.finish(float(hop["end"]), status="error" if hop["failed"] else "ok")
        tracer.start_span("solve", batch_span, exec_start).finish(
            exec_end, solver=executed, relative_residual=residual
        )
        batch_span.finish(exec_end, executed_solver=executed, fallbacks=fallbacks)
        tracer.start_span("respond", root, exec_end).finish(
            exec_end + comm_seconds, comm_seconds=comm_seconds
        )
        tracer.end_trace(
            root, exec_end + comm_seconds, status="error" if failed else "ok"
        )

    # ------------------------------------------------------------------
    # request intake
    # ------------------------------------------------------------------
    def _new_request(
        self,
        a: np.ndarray,
        b: np.ndarray,
        lam: Optional[float] = None,
        *,
        kind: Optional[str] = None,
        solver: Optional[str] = None,
        accuracy_target: Optional[float] = None,
        latency_budget: Optional[float] = None,
        priority: int = PRIORITY_NORMAL,
    ) -> SolveRequest:
        """Validate one least-squares request, or a ridge one when ``lam`` is given.

        The id stays -1 until the request is queued.  An unpinned ridge
        request carries no solver: the configured default answers the
        wrong problem, so the planner routes it.
        """
        if lam is not None and not lam > 0.0:
            raise ValueError("ridge needs a positive lam; use solve()/submit() otherwise")
        return SolveRequest(
            request_id=-1,
            a=a,
            b=b,
            kind=kind if kind is not None else self.config.kind,
            solver=solver if solver is not None else ("" if lam else self.config.solver),
            accuracy_target=accuracy_target,
            latency_budget=latency_budget,
            priority=priority,
            regularization=lam or 0.0,
        )

    def _enqueue(self, request: SolveRequest) -> int:
        """Assign the next request id and queue the request for fusion."""
        request.request_id = self._next_id
        self._next_id += 1
        self._batcher.add(request)
        return request.request_id

    def submit(
        self,
        a: np.ndarray,
        b: np.ndarray,
        *,
        kind: Optional[str] = None,
        solver: Optional[str] = None,
        accuracy_target: Optional[float] = None,
        latency_budget: Optional[float] = None,
    ) -> int:
        """Enqueue one ``min_x ||b - A x||`` request; returns its request id."""
        return self._enqueue(
            self._new_request(
                a,
                b,
                kind=kind,
                solver=solver,
                accuracy_target=accuracy_target,
                latency_budget=latency_budget,
            )
        )

    @property
    def pending(self) -> int:
        """Requests submitted but not yet flushed."""
        return self._batcher.pending

    def solve(
        self,
        a: np.ndarray,
        b: np.ndarray,
        *,
        kind: Optional[str] = None,
        solver: Optional[str] = None,
        accuracy_target: Optional[float] = None,
        latency_budget: Optional[float] = None,
    ) -> SolveResponse:
        """Convenience: submit one request and flush immediately.

        Anything else pending is flushed too (and fused where possible); only
        this request's response is returned.
        """
        return self._flush_for(
            self.submit(
                a,
                b,
                kind=kind,
                solver=solver,
                accuracy_target=accuracy_target,
                latency_budget=latency_budget,
            )
        )

    def solve_ridge(
        self,
        a: np.ndarray,
        b: np.ndarray,
        lam: float,
        *,
        kind: Optional[str] = None,
        solver: Optional[str] = None,
        accuracy_target: Optional[float] = None,
        latency_budget: Optional[float] = None,
    ) -> SolveResponse:
        """Serve ``min_x ||b - A x||^2 + lam ||x||^2`` through the batched path.

        Ridge is least squares on ``[A; sqrt(lam) I]``: the request joins
        the micro-batcher like :meth:`solve` (so anything pending is flushed
        too, and same-matrix, same-``lam`` requests fuse), and the planner
        routes it among the *ridge* solvers.  Sketch operators live under
        the ``problem="ridge"`` cache namespace at the augmented
        ``(d + n)``-row height.  An explicit ``solver`` pins the routing on
        a ``"fixed"`` server; otherwise such a server routes ridge
        ``"cheapest_accurate"``, since its configured default solver answers
        the wrong problem.  ``b`` must be a vector.
        """
        return self._flush_for(
            self._enqueue(
                self._new_request(
                    a,
                    b,
                    lam,
                    kind=kind,
                    solver=solver,
                    accuracy_target=accuracy_target,
                    latency_budget=latency_budget,
                )
            )
        )

    def _flush_for(self, request_id: int) -> SolveResponse:
        """Flush everything pending and return one request's response."""
        for resp in self.flush():
            if resp.request_id == request_id:
                return resp
        raise RuntimeError("flush did not produce a response for the request")  # pragma: no cover

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def flush(self) -> List[SolveResponse]:
        """Drain the queue, execute every micro-batch, return all responses.

        Responses come back sorted by request id (submission order).
        """
        responses: List[SolveResponse] = []
        for batch in self._batcher.drain():
            responses.extend(self._execute_batch(batch))
        responses.sort(key=lambda r: r.request_id)
        return responses

    def _build(self, key: Tuple, shard: int) -> "SketchOperator":
        """Build the operator a cache key describes on ``shard``'s executor."""
        kind, rows, n, k, seed, dtype = key[:6]
        return build_operator(
            kind, rows, n, k=k, executor=self.pool[shard], seed=seed, dtype=np.dtype(dtype)
        )

    def _resolve_operator(self, key: Tuple) -> Tuple[CacheEntry, bool]:
        """Find or build the operator for a cache key; returns (entry, built).

        One cache lookup is counted per *batch* -- the cache is consulted
        once per fused solve, so the reported hit rate measures genuine
        cross-batch operator reuse, not batch ridership.  The key carries
        the planned solver family and the problem class (see
        :func:`~repro.serving.cache.operator_cache_key`), so operators
        serving different families or problems scale independently.
        """
        entry = self.cache.get(key)
        if entry is not None:
            return entry, False
        shard = self.scheduler.place()
        return self.cache.put(key, CacheEntry(operator=self._build(key, shard), shard=shard)), True

    def _batch_operator_key(self, kind: str, spec: SolveSpec, dtype, solver: str, k: int) -> Tuple:
        """Cache key of ``solver``'s operator for a planned batch.

        A ridge batch's operator embeds the augmented ``(d + n)``-row system
        and lives under the ``"ridge"`` namespace.
        """
        ridge = spec.problem == "ridge"
        return operator_cache_key(
            kind,
            spec.d + spec.n if ridge else spec.d,
            spec.n,
            k,
            self.config.seed,
            dtype,
            solver=normalize_solver(solver),
            problem="ridge" if ridge else "",
        )

    def _place_warm_batch(self, entry: CacheEntry, key: Tuple) -> int:
        """Pick the shard for a cache-hit batch, replicating hot operators.

        Affinity alone would serialise all same-shape traffic behind the
        owning shard; when a strictly less-loaded shard has no copy, the
        operator is rebuilt there from its seed (only the cache key crosses
        the network -- the hash-seeded-state property) so hot keys spread
        across the pool.  The rebuild's generation time lands on the new
        shard's clock via its executor.
        """
        loads = self.pool.loads()
        owned = entry.shard_set()
        active = set(self.scheduler.active_set())
        # Prefer copies on active shards: a parked owner only runs the batch
        # when no active shard has (or can be given) the state.
        active_owned = [s for s in owned if s in active]
        best_owned = min(active_owned or owned, key=lambda s: loads[s])
        least = min(sorted(active), key=lambda s: loads[s])
        # A replica is a rebuild from the seed; unseeded operators draw from
        # their executor's stream and are not reproducible, so they stay
        # pinned to their owning shard.
        replicable = self.config.replicate_operators and self.config.seed is not None
        if least not in owned and replicable and loads[least] < loads[best_owned]:
            entry.add_replica(least, self._build(key, least))
            # Only the (tiny) cache key travels; 64 bytes covers it.
            self.scheduler.charge_transfer("operator_key", 64.0)
            shard = least
        else:
            shard = best_owned
        self.scheduler.place(preferred=shard)
        return shard

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def _spectrum_estimate(
        self, a: np.ndarray
    ) -> Tuple[Optional[float], Optional[float], Optional[SketchProduct]]:
        """Cached sketched ``(kappa, sigma_max, first_stage)`` probe for a live request matrix.

        Entries hold a weak reference to the probed array: ``id()`` values
        are reused by the allocator once a matrix dies, so a hit counts only
        when the stored reference still points at *this* array -- a fresh
        matrix that happens to inherit a dead one's id is re-probed, never
        served a stale estimate.  The reference's callback drops the entry
        when its array dies, so the memo holds live matrices only and a hot
        shared matrix is never evicted by one-shot traffic.  ``sigma_max``
        rides along for free (the probe yields both spectrum extremes) and
        is what ridge routing uses to place the lambda on the spectrum's
        scale.

        ``first_stage`` is the probe's CountSketch product ``S1 A``
        (:class:`~repro.linalg.conditioning.SpectrumBounds`) from a fresh
        probe, ``None`` on a memo hit: the memo keeps the scalars only.  A
        caller may change ``A`` in place between requests; a stale ``kappa``
        only affects routing, but a stale product would corrupt answers, so
        it is never kept past the batch that probed.
        """
        if not self.config.numeric:
            return None, None, None  # analytic traffic carries no numeric state to probe
        key = (id(a), a.shape)
        entry = self._cond_cache.get(key)
        if entry is not None:
            ref, value = entry
            if ref() is a:
                return value + (None,)
        from repro.linalg.conditioning import estimate_spectrum_bounds

        bounds = estimate_spectrum_bounds(
            a, oversampling=self.config.oversampling, seed=self.config.seed
        )
        smax, smin = bounds
        value = (float("inf") if smin == 0.0 else smax / smin, smax)
        cache = self._cond_cache

        def forget(ref, key=key):
            # The array died: drop its entry, unless a newer array that
            # inherited the id has already replaced it.  Losing a race with
            # such a replacement only costs a re-probe: lookups check the ref.
            if cache.get(key, (None,))[0] is ref:
                cache.pop(key, None)

        cache[key] = (weakref.ref(a, forget), value)
        return value + (getattr(bounds, "first_stage", None),)

    def _plan_batch(
        self, batch: MicroBatch
    ) -> Tuple[SolvePlan, SolveSpec, Optional[SketchProduct]]:
        """Build the batch's SolveSpec and route it per the server policy.

        Returns the plan, the spec and the spectrum probe's first-stage
        product (``None`` when nothing was probed, and always for ridge).
        A ridge batch always probes -- ``sigma_max`` places the lambda on
        the spectrum's scale -- but plans without the matrix, and its
        operator embeds the ``(d + n)``-row augmented system, so the probe's
        ``S1 A`` is of no use to it.
        """
        d, n = batch.a.shape
        first = batch.requests[0]
        ridge = first.regularization > 0.0
        cond = smax = first_stage = None
        if ridge:
            cond, smax, _ = self._spectrum_estimate(batch.a)
        elif self.config.policy != "fixed":
            cond, _, first_stage = self._spectrum_estimate(batch.a)
        spec = SolveSpec(
            d=d,
            n=n,
            nrhs=batch.size,
            regularization=first.regularization,
            cond_estimate=cond,
            smax_estimate=smax,
            accuracy_target=(
                first.accuracy_target
                if first.accuracy_target is not None
                else self.config.accuracy_target
            ),
            latency_budget=(
                first.latency_budget
                if first.latency_budget is not None
                else self.config.latency_budget
            ),
            kind=batch.kind,
            oversampling=self.config.oversampling,
            seed=self.config.seed,
        )
        policy = self.config.policy
        if ridge and policy == "fixed" and not batch.solver:
            policy = "cheapest_accurate"  # the default solver answers the wrong problem
        # An analytic server has no numeric state to probe (cond is None):
        # pass no matrix so the planner ranks optimistically on cost alone
        # instead of re-probing per batch outside the memoised cache.
        matrix = None if ridge or cond is None else batch.a
        # Fixed routing runs the batch's solver; a ridge request's pinned
        # solver is also a preference under the adaptive policies.
        preferred = batch.solver if ridge or policy == "fixed" else None
        return (
            plan(
                matrix,
                spec,
                policy=policy,
                solver=preferred or None,
                device=self.config.device,
                cost_source=self._cost_source(),
            ),
            spec,
            first_stage,
        )

    def _shard_operator(self, key: Tuple, shard: int) -> "SketchOperator":
        """Operator for a fallback-chain link, bound to the batch's shard.

        Consults the cache under the link's own solver-family key (via
        :meth:`~repro.serving.cache.OperatorCache.peek`, so fallback lookups
        do not distort the per-batch hit-rate statistics), replicates seeded
        operators onto the shard when they live elsewhere, and builds fresh
        otherwise.
        """
        entry = self.cache.peek(key)
        if entry is not None and shard in entry.shard_set():
            return entry.operator_for(shard)
        operator = self._build(key, shard)
        if self.config.seed is None:
            return operator  # unseeded state is not shareable; use it once
        if entry is not None:
            entry.add_replica(shard, operator)
        else:
            self.cache.put(key, CacheEntry(operator=operator, shard=shard))
        return operator

    def _plan_and_place(self, batch: MicroBatch, planned: Optional[Tuple] = None) -> "PlacedBatch":
        """Plan a micro-batch and bind it to a shard (no kernels run yet).

        The planned solver decides operator resolution (sketch-based
        families go through the cache under their own family key; direct
        solvers skip it).  ``planned`` lets a caller that already planned
        the batch (the concurrent runtime plans first for its deadline
        check) skip re-planning.  Splitting this from :meth:`_run_placed`
        is what lets the runtime hold its dispatch lock only for the cheap
        planning/placement step while the expensive solve runs outside it.
        """
        plan_, spec, first_stage = planned if planned is not None else self._plan_batch(batch)
        needs_sketch = get_solver(plan_.solver).capabilities.needs_sketch
        entry: Optional[CacheEntry] = None
        cache_hit = False
        if needs_sketch:
            key = self._batch_operator_key(
                batch.kind, spec, batch.a.dtype, plan_.solver, plan_.embedding_dim
            )
            entry, built = self._resolve_operator(key)
            cache_hit = not built
            shard = entry.shard if built else self._place_warm_batch(entry, key)
        else:
            shard = self.scheduler.place()
        return PlacedBatch(
            plan=plan_,
            spec=spec,
            entry=entry,
            shard=shard,
            cache_hit=cache_hit,
            first_stage=first_stage,
        )

    def _run_placed(
        self,
        batch: MicroBatch,
        placed: "PlacedBatch",
        *,
        admitted_at: Optional[float] = None,
        roots: Optional[Dict[int, Span]] = None,
    ) -> List[SolveResponse]:
        """Execute a placed micro-batch and fan out the responses.

        The plan's fallback chain runs on the bound shard, so a POTRF
        breakdown mid-batch is rescued instead of fanning ``failed=True``
        out to every rider.  ``admitted_at`` (a point on the simulated
        clock) switches latency accounting from service-only (the
        synchronous server: a request's latency is its batch's compute plus
        the result transfer) to queue-inclusive (the concurrent runtime:
        everything from admission to completion, queueing delay included).
        ``roots`` maps request ids to runtime-created trace roots; without
        it each rider's trace starts at execution.
        """
        plan_, spec, entry, shard = placed.plan, placed.spec, placed.entry, placed.shard
        executor = self.pool[shard]
        tracing = self.tracer.enabled
        batch_id = self._batch_seq
        self._batch_seq += 1
        # The per-attempt log is kept even with tracing off: it is also the
        # calibration feed (measured per-solver durations).
        span_log: List[Dict[str, object]] = []
        exec_start = executor.elapsed

        rhs = batch.rhs_block() if batch.size > 1 else batch.requests[0].b
        first_stage = placed.first_stage

        def reusing(operator: "SketchOperator") -> "SketchOperator":
            # Every link whose operator starts with the probe's CountSketch
            # serves the probed S1 A instead of sketching A again.
            return operator if first_stage is None else operator.with_first_stage(first_stage)

        operators = (
            {plan_.solver: reusing(entry.operator_for(shard))} if entry is not None else None
        )
        result = execute_plan(
            plan_,
            batch.a,
            rhs,
            spec,
            executor=executor,
            operators=operators,
            operator_provider=lambda name: reusing(
                self._shard_operator(
                    self._batch_operator_key(
                        batch.kind, spec, batch.a.dtype, name, plan_.embedding_dim
                    ),
                    shard,
                )
            ),
            span_log=span_log,
        )
        exec_end = executor.elapsed
        self._feed_calibration(span_log, spec)
        executed = result.attempted_solvers[-1]
        fallbacks = int(float(result.extra.get("fallbacks", 0.0)))
        if fallbacks:
            self.telemetry.record_fallback(plan_.solver, executed)
        if result.failed:
            self.telemetry.record_failure(batch.size)
        compute_seconds = result.total_seconds

        # Cross-shard traffic: the batch's solution block travels back from
        # the shard to the front end.
        n = batch.a.shape[1]
        result_bytes = float(n) * batch.size * batch.a.dtype.itemsize
        comm_seconds = self.scheduler.charge_transfer("result_return", result_bytes)

        if admitted_at is None:
            latency = compute_seconds + comm_seconds
        else:
            latency = max(0.0, executor.elapsed - admitted_at) + comm_seconds
        self.telemetry.record_batch(batch.size, compute_seconds)
        ridge = spec.problem == "ridge"
        extra = {
            "failed": float(result.failed),
            "attempted": result.extra.get("attempted", executed),
            "planned": plan_.solver,
            "cond_estimate": plan_.cond_estimate,
        }
        if ridge:
            extra["regularization"] = spec.regularization
        responses = []
        for j, req in enumerate(batch.requests):
            self.telemetry.record_request(latency, solver=executed)
            if tracing:
                self._finish_request_trace(
                    roots.get(req.request_id) if roots else None,
                    request_id=req.request_id,
                    lane="ridge" if ridge else "solve",
                    placed=placed,
                    batch_id=batch_id,
                    batch_size=batch.size,
                    span_log=span_log,
                    exec_start=exec_start,
                    exec_end=exec_end,
                    comm_seconds=comm_seconds,
                    executed=executed,
                    fallbacks=fallbacks,
                    failed=bool(result.failed),
                    residual=self._column_residual(result, j, batch.size),
                )
            responses.append(
                SolveResponse(
                    request_id=req.request_id,
                    x=self._column(result, j, batch.size),
                    relative_residual=self._column_residual(result, j, batch.size),
                    simulated_seconds=latency,
                    compute_seconds=compute_seconds,
                    comm_seconds=comm_seconds,
                    shard=shard,
                    batch_size=batch.size,
                    cache_hit=placed.cache_hit,
                    kind=batch.kind,
                    solver=batch.solver,
                    method=result.method,
                    extra=dict(extra),
                    policy=plan_.policy,
                    executed_solver=executed,
                    fallbacks=fallbacks,
                    problem=spec.problem,
                )
            )
        return responses

    def _execute_batch(self, batch: MicroBatch) -> List[SolveResponse]:
        """Plan, place and run one fused micro-batch (synchronous path)."""
        return self._run_placed(batch, self._plan_and_place(batch))

    @staticmethod
    def _column(result: LeastSquaresResult, j: int, size: int) -> Optional[np.ndarray]:
        if result.x is None:
            return None
        if size == 1:
            return result.x
        return result.x[:, j].copy()

    @staticmethod
    def _column_residual(result: LeastSquaresResult, j: int, size: int) -> float:
        if size == 1 or result.column_residuals is None:
            return result.relative_residual
        return float(result.column_residuals[j])

    # ------------------------------------------------------------------
    # streaming sessions (see repro.serving.streaming)
    # ------------------------------------------------------------------
    def open_stream(self, n: int, **options) -> int:
        """Open a streaming session for ``n``-column rows; returns its id.

        Options (``mode``, ``window_buckets``, ``bucket_rows``, ``decay``,
        ``policy``, ``accuracy_target``, ``latency_budget``, ``detector``,
        ``k``, ``seed``) are
        forwarded to :meth:`repro.serving.streaming.StreamingSessionManager.open`;
        unset routing options inherit the server config.  The session's
        engine runs on a scheduler-chosen shard and its window-sketch
        operator is pinned in the operator cache under a session key.
        """
        return self.streams.open(n, **options)

    def append_rows(
        self,
        session_id: int,
        rows: np.ndarray,
        targets: np.ndarray,
        *,
        root: Optional[Span] = None,
    ) -> IngestReport:
        """Fold one arriving batch of rows into a session's window sketch.

        ``root`` is an optional trace root (the concurrent runtime passes
        the one it opened at admission) under which the session's
        ingest/re-solve/drift spans nest.
        """
        return self.streams.append(session_id, rows, targets, root=root)

    def query_solution(
        self, session_id: int, *, root: Optional[Span] = None
    ) -> StreamSolutionResponse:
        """Serve a session's current solution (lazily re-solved when stale)."""
        return self.streams.query(session_id, root=root)

    def close_stream(self, session_id: int) -> Dict[str, float]:
        """Close a session and return its final per-session statistics."""
        return self.streams.close(session_id)

    # ------------------------------------------------------------------
    # frequency sessions (see repro.serving.frequency)
    # ------------------------------------------------------------------
    def open_frequency_stream(self, domain: int, **options) -> int:
        """Open a frequency-analytics session over ``domain`` item ids.

        Options (``phi``, ``delta``, ``branch``, ``need_ranges``,
        ``max_width``, ``seed``) are forwarded to
        :meth:`repro.serving.frequency.FrequencySessionManager.open`; the
        sketch is sized by :func:`repro.problems.frequency.plan_frequency_sketch`
        and pinned to a scheduler-chosen shard.
        """
        return self.frequencies.open(domain, **options)

    def append_items(
        self, session_id: int, ids, weights=None, *, root: Optional[Span] = None
    ) -> FrequencyIngestReport:
        """Fold one ``(ids, weights)`` batch into a frequency session."""
        return self.frequencies.append(session_id, ids, weights, root=root)

    def query_heavy_hitters(
        self,
        session_id: int,
        *,
        k: Optional[int] = None,
        phi: Optional[float] = None,
        root: Optional[Span] = None,
    ) -> FrequencyQueryResponse:
        """Serve a frequency session's ``phi``-heavy hitters (library-exact)."""
        return self.frequencies.query_heavy_hitters(session_id, k=k, phi=phi, root=root)

    def query_norm(
        self, session_id: int, *, root: Optional[Span] = None
    ) -> FrequencyQueryResponse:
        """Serve a frequency session's l2-norm estimate."""
        return self.frequencies.query_norm(session_id, root=root)

    def query_range(
        self, session_id: int, lo: int, hi: int, *, root: Optional[Span] = None
    ) -> FrequencyQueryResponse:
        """Serve the estimated weight of ids in ``[lo, hi)`` (dyadic descent)."""
        return self.frequencies.query_range(session_id, lo, hi, root=root)

    def query_point(
        self, session_id: int, ids, *, root: Optional[Span] = None
    ) -> FrequencyQueryResponse:
        """Serve point-frequency estimates for explicit ids."""
        return self.frequencies.query_point(session_id, ids, root=root)

    def close_frequency_stream(self, session_id: int) -> Dict[str, float]:
        """Close a frequency session and return its final statistics."""
        return self.frequencies.close(session_id)

    # ------------------------------------------------------------------
    # durability (see repro.durability / repro.serving.sessions)
    # ------------------------------------------------------------------
    def save(self) -> Dict[int, int]:
        """Checkpoint every live session to the durability store.

        Requires ``config.durability``; returns ``{session_id: snapshot
        bytes}`` across both streaming-solver and frequency sessions (ids
        never collide -- both managers draw from the server's one id
        stream).  Each session's WAL is truncated after its snapshot, so a
        ``save()`` is a clean recovery point with nothing to replay.
        """
        return self.sessions.save()

    def restore(self) -> RestoreReport:
        """Rebuild every durable session from checkpoint + WAL-tail replay.

        Safe after any crash: corrupt or foreign records land in the
        report's ``failed`` map with their typed error instead of raising,
        and the server keeps serving (a fresh session can be opened in
        their place) -- never a silently wrong answer.  Frequency sessions
        are restored alongside solver sessions and land in the same
        ``restored`` map.  Restore a single session with
        ``server.streams.restore(session_id)`` /
        ``server.frequencies.restore(session_id)``.
        """
        return self.sessions.restore_all()

    # ------------------------------------------------------------------
    # problem-class endpoints (see repro.problems)
    # ------------------------------------------------------------------
    def approx_lowrank(
        self,
        a: np.ndarray,
        rank: int,
        *,
        method: str = "rangefinder",
        oversample: int = 8,
        power_iters: int = 0,
        ell: Optional[int] = None,
    ) -> LowRankResponse:
        """Serve a rank-``rank`` factorization of ``A``.

        ``method="rangefinder"`` runs the randomized range finder on a
        scheduler-chosen shard, with the Gaussian test operator cached
        under the ``problem="lowrank"`` namespace (repeat requests against
        the same column count reuse it, like solve operators);
        ``method="frequent_directions"`` streams the rows through an FD
        accumulator -- deterministic, so nothing is cached.
        """
        from repro.problems.lowrank import lowrank_approx  # local: heavy import

        a = np.asarray(a)
        if a.ndim != 2:
            raise ValueError("approx_lowrank expects a 2-D matrix")
        d, n = a.shape
        method_l = method.lower()
        if method_l in ("fd", "frequent-directions"):
            method_l = "frequent_directions"
        operator = None
        cache_hit = False
        if method_l == "rangefinder":
            r = min(int(rank) + max(int(oversample), 0), n)
            entry, built = self._resolve_operator(
                operator_cache_key(
                    "gaussian", n, n, r, self.config.seed, solver="rangefinder", problem="lowrank"
                )
            )
            cache_hit = not built
            shard = entry.shard
            if cache_hit:
                self.scheduler.place(preferred=shard)
            operator = entry.operator_for(shard)
        else:
            shard = self.scheduler.place()
        result = lowrank_approx(
            a,
            rank,
            method=method_l,
            oversample=oversample,
            power_iters=power_iters,
            ell=ell,
            executor=self.pool[shard],
            operator=operator,
            seed=self.config.seed,
        )
        compute_seconds = result.total_seconds
        out_bytes = (float(d) * rank + float(rank) * n) * a.dtype.itemsize
        comm_seconds = self.scheduler.charge_transfer("lowrank_return", out_bytes)
        latency = compute_seconds + comm_seconds
        self.telemetry.record_request(latency, solver=f"lowrank_{result.method}")
        response = LowRankResponse(
            request_id=self._next_id,
            left=result.left,
            right=result.right,
            rank=result.rank,
            method=result.method,
            relative_error=result.relative_error,
            simulated_seconds=latency,
            compute_seconds=compute_seconds,
            comm_seconds=comm_seconds,
            shard=shard,
            cache_hit=cache_hit,
            extra=dict(result.extra),
        )
        self._next_id += 1
        return response

    # ------------------------------------------------------------------
    def sketch(self, a: np.ndarray, *, kind: Optional[str] = None) -> SketchResponse:
        """Serve a ``sketch(A)`` request: return ``S A`` for the cached operator."""
        a = np.asarray(a)
        if a.ndim != 2:
            raise ValueError("sketch expects a 2-D matrix")
        kind = normalize_kind(kind if kind is not None else self.config.kind)
        d, n = a.shape
        key = operator_cache_key(
            kind, d, n, resolve_embedding_dim(kind, d, n, self.config.oversampling),
            self.config.seed, a.dtype,
        )
        entry, built = self._resolve_operator(key)
        shard = entry.shard if built else self._place_warm_batch(entry, key)
        operator = entry.operator_for(shard)
        ex = self.pool[shard]
        mark = ex.mark()
        sketched = operator.sketch_host(a) if ex.numeric else None
        if not ex.numeric:
            operator.apply(ex.empty(a.shape, label="A_request"))
        compute_seconds = ex.elapsed_since(mark)
        out_bytes = float(operator.k) * a.shape[1] * a.dtype.itemsize
        comm_seconds = self.scheduler.charge_transfer("sketch_return", out_bytes)
        latency = compute_seconds + comm_seconds
        self.telemetry.record_sketch(latency)
        response = SketchResponse(
            request_id=self._next_id,
            sketch=sketched,
            k=operator.k,
            simulated_seconds=latency,
            compute_seconds=compute_seconds,
            comm_seconds=comm_seconds,
            shard=shard,
            cache_hit=not built,
            kind=kind,
        )
        self._next_id += 1
        return response

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Headline serving statistics as one flat dict.

        ``requests_per_second`` is requests over the pool *makespan* (the
        busiest shard's simulated clock -- shards run concurrently), i.e. the
        sustained compute throughput of the configuration.  Communication
        totals are reported alongside so a deployment can check which
        resource saturates first.
        """
        makespan = self.pool.makespan()
        out = self.telemetry.snapshot(makespan_seconds=makespan)
        out.update({f"cache_{k}": v for k, v in self.cache.stats.as_dict().items()})
        out["comm_seconds"] = self.scheduler.comm_seconds()
        out["comm_bytes"] = self.scheduler.comm_bytes()
        out["shards"] = float(self.pool.size)
        out["active_shards"] = float(self.scheduler.active_shards)
        transitions = self.scheduler.scale_transitions()
        out["scale_ups"] = float(transitions["up"])
        out["scale_downs"] = float(transitions["down"])
        out["open_streams"] = float(len(self.streams))
        out["open_frequency_streams"] = float(len(self.frequencies))
        out["traces_completed"] = float(self.tracer.traces_completed)
        for i, load in enumerate(self.pool.loads()):
            out[f"shard{i}_busy_seconds"] = load
        return out


# ---------------------------------------------------------------------------
# Naive reference loop
# ---------------------------------------------------------------------------
def naive_solve_loop(
    traffic: Iterable[Tuple[np.ndarray, np.ndarray]],
    *,
    kind: str = "multisketch",
    solver: str = "sketch_and_solve",
    seed: int = 0,
    device: DeviceSpec = H100_SXM5,
    numeric: bool = True,
) -> Dict[str, object]:
    """Solve the traffic one request at a time: no batching, no caching.

    Every request builds a fresh sketch operator (paying "Sketch gen"),
    sketches ``A`` from scratch and runs its own QR -- the baseline the
    serving layer's throughput claim is measured against.
    """
    kind = normalize_kind(kind)
    solver = normalize_solver(solver)
    registered = get_solver(solver)
    executor = GPUExecutor(device, numeric=numeric, seed=seed, track_memory=False)
    results: List[LeastSquaresResult] = []
    for a, b in traffic:
        a = np.asarray(a)
        spec = SolveSpec.from_problem(a, np.asarray(b), kind=kind, seed=seed)
        operator = None
        if registered.capabilities.needs_sketch:
            operator = build_operator(
                kind, a.shape[0], a.shape[1], executor=executor, seed=seed, dtype=a.dtype
            )
        results.append(registered.solve(a, b, spec, operator=operator, executor=executor))
    # The loop is sequential on one device: its clock (operator generation
    # included) is the end-to-end simulated time for the whole traffic.
    total = executor.elapsed
    count = len(results)
    return {
        "requests": count,
        "simulated_seconds": total,
        "requests_per_second": count / total if total > 0 else 0.0,
        "results": results,
    }


# ---------------------------------------------------------------------------
# Console entry point (`repro-serve`)
# ---------------------------------------------------------------------------
def _drive_mixed_workload(runtime, rng, *, on_phase=None) -> None:
    """Run the short three-lane workload the observability CLI paths share.

    ``on_phase`` (e.g. :meth:`~repro.obs.slo.SLOEngine.evaluate`) is called
    after each lane's futures resolve, so counter-backed SLO windows see
    several evaluation intervals over the run.
    """
    futures = []
    for _ in range(16):
        a = rng.standard_normal((512, 16))
        futures.append(runtime.submit(a, rng.standard_normal(512)))
    for future in futures:
        future.result()
    if on_phase is not None:
        on_phase()
    futures = []
    for _ in range(6):
        a = rng.standard_normal((256, 12))
        futures.append(runtime.submit_ridge(a, rng.standard_normal(256), 0.1))
    for future in futures:
        future.result()
    if on_phase is not None:
        on_phase()
    session = runtime.open_stream(12)
    futures = []
    for _ in range(4):
        futures.append(
            runtime.append_rows(
                session, rng.standard_normal((128, 12)), rng.standard_normal(128)
            )
        )
    futures.append(runtime.query_solution(session))
    for future in futures:
        future.result()
    runtime.drain()
    if on_phase is not None:
        on_phase()


def _slo_report(args) -> int:
    """``repro-serve --slo-report``: stock SLOs over the mixed workload."""
    import json as _json

    from repro.obs.slo import SLOEngine, default_serving_slos
    from repro.serving.runtime import AsyncSketchServer

    rng = np.random.default_rng(args.seed)
    runtime = AsyncSketchServer(
        shards=args.shards,
        seed=args.seed,
        queue_depth=args.queue_depth,
    )
    engine = SLOEngine(runtime.server.metrics, default_serving_slos())
    try:
        _drive_mixed_workload(runtime, rng, on_phase=engine.evaluate)
    finally:
        runtime.stop()
    report = engine.report()
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True, default=str))
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
    """``repro-serve --health``: canary workload with meaningful exit codes.

    Exit 0: canary traffic served cleanly and no SLO alert is firing.
    Exit 1: degraded -- traffic was served but requests were shed/failed
    or an SLO alert fired.  Exit 2: unhealthy -- the canary itself blew up.
    """
    from repro.obs.slo import SLOEngine, default_serving_slos
    from repro.serving.runtime import AsyncSketchServer

    rng = np.random.default_rng(args.seed)
    try:
        runtime = AsyncSketchServer(
            shards=args.shards,
            seed=args.seed,
            queue_depth=args.queue_depth,
        )
        engine = SLOEngine(runtime.server.metrics, default_serving_slos())
        try:
            _drive_mixed_workload(runtime, rng, on_phase=engine.evaluate)
            snapshot = runtime.telemetry.snapshot()
        finally:
            runtime.stop()
    except Exception as exc:  # the probe itself must never raise
        print(f"unhealthy: canary workload failed: {exc}")
        return 2
    shed = snapshot.get("requests_shed", 0)
    failed = snapshot.get("failed_requests", 0)
    firing = engine.firing()
    if failed or shed or firing:
        detail = ", ".join(
            part
            for part in (
                f"{int(failed)} failed" if failed else "",
                f"{int(shed)} shed" if shed else "",
                f"alerts firing: {firing}" if firing else "",
            )
            if part
        )
        print(f"degraded: {detail}")
        return 1
    print(
        f"healthy: {int(snapshot.get('requests_served', 0))} canary requests served, "
        "no sheds, no failures, no SLO alerts"
    )
    return 0


def _observability_demo(args) -> int:
    """Drive a short mixed workload and print what the observability layer saw.

    Shared by ``repro-serve --metrics`` (Prometheus text / JSON snapshot of
    the registry) and ``--dump-trace`` (waterfall + critical path of the
    slowest completed request trace).  The workload mixes all three lanes so
    every span family and metric name shows up in the output.
    """
    from repro.obs.export import (
        render_critical_path,
        render_waterfall,
        to_json,
        to_prometheus,
    )
    from repro.serving.runtime import AsyncSketchServer

    rng = np.random.default_rng(args.seed)
    runtime = AsyncSketchServer(
        shards=args.shards,
        seed=args.seed,
        queue_depth=args.queue_depth,
    )
    try:
        _drive_mixed_workload(runtime, rng)
    finally:
        runtime.stop()

    if args.metrics:
        if args.json:
            print(to_json(runtime.server.metrics))
        else:
            print(to_prometheus(runtime.server.metrics), end="")
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

    Streams batches into a durable sliding-window session, abandons the
    server mid-stream (simulating a crash: the last batches live only in
    the WAL tail), restores on a brand-new server backed by the same
    directory, and verifies the recovered solution is *identical* to the
    pre-crash one -- the determinism the hashed sketch state guarantees.
    """
    store = DirectoryCheckpointStore(args.checkpoint_dir)
    durability = DurabilityConfig(store=store, checkpoint_interval_batches=4)
    rng = np.random.default_rng(args.seed)
    n = 16
    x_true = rng.standard_normal(n)

    def make_batch():
        rows = rng.standard_normal((256, n))
        targets = rows @ x_true + 1e-8 * rng.standard_normal(256)
        return rows, targets

    server = SketchServer(shards=args.shards, seed=args.seed, durability=durability)
    sid = server.open_stream(n, mode="sliding", bucket_rows=512, window_buckets=4, detector=False)
    for _ in range(10):
        server.append_rows(sid, *make_batch())
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
    match = (
        before.x is not None
        and after.x is not None
        and np.array_equal(before.x, after.x)
    )
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
    """Serving demo for the ``repro-serve`` console script.

    Thin wrapper over the harness experiments so the demo, the harness rows
    and the benchmarks all share one traffic-synthesis and comparison path.
    With ``--workers N`` (any N > 0) the demo runs the *concurrent runtime*
    experiment instead of the synchronous throughput comparison; the
    runtime dispatches on one thread whatever N is, and ``--queue-depth``
    bounds the admission queue of the
    :class:`~repro.serving.runtime.AsyncSketchServer`.
    """
    import argparse

    from repro.harness.experiments import concurrent_load, serving_throughput
    from repro.harness.report import format_table

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
        return _observability_demo(args)

    if args.workers > 0:
        rows = concurrent_load(
            shards=args.shards,
            queue_depth=args.queue_depth,
            seed=args.seed,
        )
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
