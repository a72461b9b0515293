"""Concurrent serving runtime: admission control, lanes, shedding, elastic shards.

The synchronous :class:`~repro.serving.server.SketchServer` answers one call
at a time; this module turns it into a *runtime* that serves overlapping
traffic the way the ROADMAP's "heavy traffic from millions of users" demands:

* **Bounded admission queue** -- :meth:`AsyncSketchServer.submit` /
  :meth:`~AsyncSketchServer.submit_ridge` / streaming ingest all enqueue into
  one bounded queue; when it is full the caller gets a typed
  :class:`~repro.serving.requests.QueueFullError` immediately (backpressure)
  instead of unbounded buffering.
* **Per-problem-class priority lanes** -- least-squares, ridge and streaming
  work wait in separate lanes drained by weighted round-robin
  (:data:`~repro.serving.requests.LANES`), so a flood of ``append_rows``
  ingest cannot starve solve traffic and vice versa.  The solve and ridge
  lanes are both micro-batchers
  (:class:`~repro.serving.batcher.MicroBatcher`), so same-matrix requests
  fuse in either.
* **Deadline-aware load shedding** -- a request whose projected completion
  (queue delay already accrued plus the planner's service-time estimate) can
  no longer meet its ``latency_budget`` is *shed* with
  :class:`~repro.serving.requests.DeadlineExceededError` rather than solved
  late; the shed shows up in telemetry (`shed_deadline`, per-lane counters).
* **One dispatcher** -- a single thread takes units off the lanes and runs
  each to completion under one execution lock, placing it on the
  earliest-free active shard of the :class:`~repro.gpu.pool.ExecutorPool`.
  Shards still overlap on the simulated clock, but the order in which their
  clocks advance is fixed by admission order and the lane weights, so every
  simulated number is a pure function of the load and the seed.  Admission
  runs on the callers' threads and never waits for a unit to execute.
* **Elastic shard scaling** -- an
  :class:`~repro.serving.scheduler.ElasticShardPolicy` grows the active
  shard set when queue depth or p95 latency breach their thresholds and
  shrinks it as load drains, every transition recorded as a
  :class:`~repro.serving.scheduler.ScaleEvent`.

Latencies in lane telemetry are *queue-inclusive* on the simulated clock:
admission stamps the request with the earliest instant any active shard
could start it, and completion is the executing shard's clock after the
solve -- so queueing delay, the thing admission control exists to bound, is
visible in ``lane_*_p95_seconds``.

Quick start::

    from repro.serving import AsyncSketchServer, ElasticShardPolicy

    runtime = AsyncSketchServer(
        shards=2, queue_depth=64,
        elastic=ElasticShardPolicy(min_shards=1, max_shards=8),
    )
    futures = [runtime.submit(A, b, latency_budget=0.05) for b in batch]
    xs = [f.result() for f in futures]     # raises DeadlineExceededError if shed
    runtime.drain()
    print(runtime.stats()["requests_per_second"], runtime.active_shards)
    runtime.stop()
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.serving.requests import (
    LANES,
    AdmissionError,
    DeadlineExceededError,
    QueueFullError,
    SolveRequest,
    SolveResponse,
)
from repro.obs.trace import Span
from repro.serving.batcher import MicroBatcher
from repro.serving.scheduler import ElasticShardPolicy
from repro.serving.server import ServerConfig, SketchServer

__all__ = [
    "AsyncSketchServer",
    "RuntimeConfig",
    "RuntimeFuture",
]


@dataclass
class RuntimeConfig:
    """Configuration of the concurrent runtime (on top of a ServerConfig).

    Attributes
    ----------
    workers:
        Accepted and validated positive, but selects nothing: the runtime
        always dispatches on one thread (see the module docstring).
    queue_depth:
        Bound on requests waiting across all lanes.  Admission past the
        bound raises :class:`~repro.serving.requests.QueueFullError`.
    lane_weights:
        Weighted round-robin share per admission lane.  The defaults give
        solve traffic half the dispatch slots, so bulk ridge or streaming
        ingest can never starve interactive solves -- and each lane has a
        nonzero weight, so nothing starves, full stop.
    elastic:
        Optional :class:`~repro.serving.scheduler.ElasticShardPolicy`.
        When set, the executor pool is provisioned at ``max_shards`` and
        the active set breathes between ``min_shards`` and ``max_shards``;
        when ``None`` the active set is fixed at the server's ``shards``.
    """

    workers: int = 4
    queue_depth: int = 64
    lane_weights: Dict[str, int] = field(
        default_factory=lambda: {"solve": 4, "ridge": 2, "stream": 2}
    )
    elastic: Optional[ElasticShardPolicy] = None

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ValueError("workers must be positive")
        if self.queue_depth <= 0:
            raise ValueError("queue_depth must be positive")
        unknown = set(self.lane_weights) - set(LANES)
        if unknown:
            raise ValueError(f"unknown lanes in lane_weights: {sorted(unknown)}")
        for lane in LANES:
            if self.lane_weights.get(lane, 0) <= 0:
                raise ValueError(f"lane '{lane}' needs a positive weight (anti-starvation)")


_RUNTIME_FIELDS = {f.name for f in fields(RuntimeConfig)}


class RuntimeFuture:
    """Handle to one admitted request; resolves to a response or a typed error.

    ``result()`` blocks until the dispatcher finishes (or sheds) the request
    and either returns the response or raises the
    :class:`~repro.serving.requests.AdmissionError` subclass explaining why
    the request was not served.
    """

    def __init__(self, lane: str, request_id: int) -> None:
        self.lane = lane
        self.request_id = request_id
        self._event = threading.Event()
        self._response = None
        self._error: Optional[BaseException] = None

    # -- dispatcher side ------------------------------------------------
    def _resolve(self, response) -> None:
        self._response = response
        self._event.set()

    def _reject(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    # -- caller side ----------------------------------------------------
    def done(self) -> bool:
        """Whether the request has completed or been shed."""
        return self._event.is_set()

    @property
    def shed(self) -> bool:
        """Whether the request was shed (only meaningful once done)."""
        return isinstance(self._error, AdmissionError)

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        """The typed error the request failed with, or None on success."""
        if not self._event.wait(timeout):
            raise TimeoutError("request still in flight")
        return self._error

    def result(self, timeout: Optional[float] = None):
        """Block for the response; raises the typed error if the request was shed."""
        if not self._event.wait(timeout):
            raise TimeoutError("request still in flight")
        if self._error is not None:
            raise self._error
        return self._response

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self.done():
            state = "shed" if self.shed else "done"
        return f"RuntimeFuture(lane='{self.lane}', id={self.request_id}, {state})"


@dataclass
class _LaneItem:
    """One admitted request's record: a batched solve/ridge request (keyed
    by request id; the request itself rides in its lane's MicroBatcher) or
    a session append/query (queued per session, carrying its bound call)."""

    admitted_at: float
    future: RuntimeFuture
    payload: Tuple = ()
    root: Optional[Span] = None  # the request's trace root (None when tracing is off)


class AsyncSketchServer:
    """Concurrent front end over a :class:`~repro.serving.server.SketchServer`.

    Construction accepts a :class:`~repro.serving.server.ServerConfig` (or
    its keyword overrides) mixed with :class:`RuntimeConfig` keywords::

        AsyncSketchServer(shards=2, policy="cheapest_accurate",
                          queue_depth=32,
                          elastic=ElasticShardPolicy(max_shards=8))

    The wrapped server is exposed as :attr:`server` but must not be driven
    through its synchronous ``submit``/``flush`` API while the runtime is
    running -- all traffic goes through the admission queue.
    """

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        runtime: Optional[RuntimeConfig] = None,
        **overrides,
    ) -> None:
        runtime_overrides = {k: overrides.pop(k) for k in list(overrides) if k in _RUNTIME_FIELDS}
        if runtime is None:
            runtime = RuntimeConfig(**runtime_overrides)
        elif runtime_overrides:
            raise ValueError("pass either a RuntimeConfig or keyword overrides, not both")
        if config is None:
            config = ServerConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a ServerConfig or keyword overrides, not both")

        if runtime.elastic is not None:
            elastic = runtime.elastic
            pool_size = max(config.shards, elastic.max_shards)
            initial = min(max(config.shards, elastic.min_shards), elastic.max_shards)
            config = replace(config, shards=pool_size, active_shards=initial)
        self.config = config
        self.runtime_config = runtime
        self.server = SketchServer(config)

        # _lock guards the queues (admission); _exec is held by whoever
        # touches the wrapped server: the dispatcher around each unit and the
        # control-plane calls (open/close session, checkpoint).  Order: _exec
        # before _lock.
        self._lock = threading.RLock()
        self._work = threading.Condition(self._lock)
        self._exec = threading.Lock()
        self._stop = False
        self._paused = False
        self._busy = False  # the dispatcher holds a unit
        self._completed_since_scale = 0
        # EWMA of recent per-dispatch service estimates (calibrated when the
        # server's calibration mode is "active"): the service-time term of
        # the proactive elastic policy's predicted queue-drain time.
        self._service_ewma: Optional[float] = None

        # Lanes: solve and ridge requests live in MicroBatchers (so the
        # runtime keeps the multi-RHS amortisation for both); streaming
        # keeps per-session FIFOs with one ready slot per session, so ingest
        # order within a session is preserved.
        self._batch_lanes: Dict[str, MicroBatcher] = {
            lane: MicroBatcher(max_batch=config.max_batch) for lane in ("solve", "ridge")
        }
        self._requests: Dict[int, _LaneItem] = {}  # batched requests by id
        self._stream_queues: Dict[int, Deque[_LaneItem]] = {}
        self._stream_ready: Deque[int] = deque()
        self._stream_busy: set = set()

        weights = runtime.lane_weights
        self._lane_cycle: List[str] = [
            lane for lane in LANES for _ in range(int(weights.get(lane, 0)))
        ]
        self._cycle_idx = 0

        self._thread: Optional[threading.Thread] = None
        self.start()

    # ------------------------------------------------------------------
    # passthroughs
    # ------------------------------------------------------------------
    @property
    def telemetry(self):
        """The wrapped server's telemetry (lane/shed/queue metrics land here)."""
        return self.server.telemetry

    @property
    def tracer(self):
        """The wrapped server's tracer (request span trees land here)."""
        return self.server.tracer

    @property
    def metrics(self):
        """The wrapped server's metrics registry (the scrape surface)."""
        return self.server.metrics

    @property
    def calibration(self):
        """The wrapped server's cost-calibration estimator (None when off)."""
        return self.server.calibration

    @property
    def scheduler(self):
        """The wrapped server's shard scheduler (scale events live here)."""
        return self.server.scheduler

    @property
    def pool(self):
        """The wrapped server's executor pool."""
        return self.server.pool

    @property
    def active_shards(self) -> int:
        """Current size of the elastic active shard set."""
        return self.server.scheduler.active_shards

    @property
    def pending(self) -> int:
        """Work items admitted but not yet dispatched."""
        with self._lock:
            return self._queue_depth_locked()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the dispatcher thread (idempotent)."""
        with self._lock:
            if self._thread is not None:
                return
            self._stop = False
            self._thread = threading.Thread(
                target=self._run_dispatcher, name="sketch-dispatcher", daemon=True
            )
        self._thread.start()

    def pause(self) -> None:
        """Hold dispatching: admissions continue, the dispatcher idles.

        Lets a burst be admitted atomically before any of it dispatches --
        the saturation benchmarks use this to make queue-depth behaviour
        deterministic, and an operator can use it to freeze a misbehaving
        runtime without losing the queue.
        """
        with self._work:
            self._paused = True

    def resume(self) -> None:
        """Release a :meth:`pause`; queued work dispatches immediately."""
        with self._work:
            self._paused = False
            self._work.notify_all()

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the dispatcher thread.

        ``drain=True`` (default) serves everything already admitted first;
        ``drain=False`` sheds the backlog with a typed ``shutdown`` error.
        A paused runtime stays paused until the backlog's fate is decided,
        so ``drain=False`` sheds everything instead of racing the dispatcher.
        """
        if drain:
            self.resume()  # a paused runtime could never drain
            self.drain(timeout=timeout)
        with self._work:
            if not drain:
                self._shed_backlog_locked("shutdown")
            self._stop = True
            self._paused = False
            self._work.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
        self._thread = None

    def __enter__(self) -> "AsyncSketchServer":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until the queue is empty and no dispatch is in flight.

        After the backlog clears, the elastic policy is evaluated with the
        now-empty queue until it holds, so an idle runtime settles back to
        ``min_shards`` (the scale-*down* half of the load-spike contract).
        """
        with self._work:
            ok = self._work.wait_for(
                lambda: self._queue_depth_locked() == 0 and not self._busy,
                timeout=timeout,
            )
            if not ok:
                raise TimeoutError("drain timed out with work still pending")
            elastic = self.runtime_config.elastic
            if elastic is not None:
                while True:
                    p95 = self.telemetry.recent_p95()
                    target, reason = elastic.decide(self.active_shards, 0, p95)
                    if target >= self.active_shards:
                        # Only step *down* at drain time: a stale p95 breach
                        # must not pin an idle runtime at max_shards.
                        break
                    self.scheduler.set_active(
                        target, reason=f"drain: {reason}", queue_depth=0,
                        p95_seconds=p95 if p95 is not None else 0.0,
                    )

    def checkpoint(self, *, drain: bool = True, timeout: Optional[float] = None) -> Dict[int, int]:
        """Drain-then-checkpoint: a consistent durable snapshot of every session.

        The lifecycle is drain (serve everything already admitted, so no
        acknowledged append is missing from the snapshot), then checkpoint
        every live session through :meth:`SketchServer.save` under the
        execution lock, so no unit runs mid-snapshot.  Returns
        ``{session_id: snapshot bytes}``.  With ``drain=False`` the backlog
        is left queued (and a paused runtime stays paused) and only
        already-applied state is snapshotted -- still consistent (the WAL
        already holds every acknowledged append), just with more tail to
        replay after a crash.
        """
        if drain:
            self.resume()  # a paused runtime could never drain
            self.drain(timeout=timeout)
        if not self._exec.acquire(timeout=-1 if timeout is None else timeout):
            raise TimeoutError("checkpoint timed out with a dispatch in flight")
        try:
            return self.server.save()
        finally:
            self._exec.release()

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def _queue_depth_locked(self) -> int:
        stream_pending = sum(len(q) for q in self._stream_queues.values())
        return sum(lane.pending for lane in self._batch_lanes.values()) + stream_pending

    def _virtual_now_locked(self) -> float:
        """Admission timestamp: the earliest instant any active shard is free."""
        return self.server.pool.min_load(among=self.scheduler.active_set())

    def _admit_locked(self, lane: str) -> float:
        """Common admission gate; returns the admission timestamp."""
        if self._stop:
            raise RuntimeError("runtime is stopped")
        depth = self._queue_depth_locked()
        if depth >= self.runtime_config.queue_depth:
            self.telemetry.record_admission_reject(lane)
            raise QueueFullError(
                f"admission queue full ({depth}/{self.runtime_config.queue_depth})",
                lane=lane,
                queue_depth=depth,
            )
        self.telemetry.record_admission(lane)
        self.telemetry.record_queue_depth(depth + 1)
        return self._virtual_now_locked()

    def _start_root_locked(
        self, lane: str, admitted_at: float, request_id: int, **attrs
    ) -> Optional[Span]:
        """Open a request's trace root at its admission timestamp.

        The root carries the queue context (admission event + depth) that
        the serving layer cannot see; the dispatcher later threads it into
        the server so plan/batch/solve spans nest under it, and whoever
        decides the request's fate (response, shed, error) ends the trace.
        """
        tracer = self.tracer
        if not tracer.enabled:
            return None
        root = tracer.start_trace(
            "request", admitted_at, request_id=request_id, lane=lane, **attrs
        )
        tracer.event(
            "admission", root, admitted_at,
            queue_depth=self._queue_depth_locked() + 1,
        )
        return root

    def _end_root_shed(self, root: Optional[Span], reason: str, at: float) -> None:
        """Terminal ``shed`` span + trace end for a request that won't run."""
        tracer = self.tracer
        if root is None or not tracer.enabled:
            return
        tracer.event("shed", root, at, status="shed", reason=reason)
        tracer.end_trace(root, at, status="shed")

    def _end_root_error(self, root: Optional[Span], error: BaseException, at: float) -> None:
        """Terminal trace end for a request whose dispatch raised."""
        tracer = self.tracer
        if root is None or not tracer.enabled:
            return
        tracer.end_trace(root, at, status="error", error=type(error).__name__)

    def submit(
        self,
        a: np.ndarray,
        b: np.ndarray,
        *,
        kind: Optional[str] = None,
        solver: Optional[str] = None,
        accuracy_target: Optional[float] = None,
        latency_budget: Optional[float] = None,
    ) -> RuntimeFuture:
        """Admit one least-squares request; returns its :class:`RuntimeFuture`.

        Raises :class:`~repro.serving.requests.QueueFullError` when the
        admission queue is at its bound.  ``latency_budget`` doubles as the
        deadline the dispatcher sheds against.
        """
        return self._admit_request(
            "solve",
            self.server._new_request(
                a,
                b,
                kind=kind,
                solver=solver,
                accuracy_target=accuracy_target,
                latency_budget=latency_budget,
            ),
        )

    def solve(self, a: np.ndarray, b: np.ndarray, **options) -> SolveResponse:
        """Convenience: submit one request and block for its response."""
        return self.submit(a, b, **options).result()

    def submit_ridge(
        self,
        a: np.ndarray,
        b: np.ndarray,
        lam: float,
        *,
        kind: Optional[str] = None,
        solver: Optional[str] = None,
        accuracy_target: Optional[float] = None,
        latency_budget: Optional[float] = None,
    ) -> RuntimeFuture:
        """Admit one ridge request into the ``ridge`` lane.

        Same-matrix requests with equal ``lam`` and routing fuse into one
        multi-RHS solve, like solve traffic; ``b`` must be a vector.
        """
        return self._admit_request(
            "ridge",
            self.server._new_request(
                a,
                b,
                lam,
                kind=kind,
                solver=solver,
                accuracy_target=accuracy_target,
                latency_budget=latency_budget,
            ),
        )

    def _admit_request(self, lane: str, request: SolveRequest) -> RuntimeFuture:
        """Admit a validated request into its batching lane.

        Callers validate before this, so a malformed request raises without
        touching the admission counters or the queue-depth samples.
        """
        with self._work:
            admitted_at = self._admit_locked(lane)
            request.request_id = self.server._next_id
            self.server._next_id += 1
            future = RuntimeFuture(lane, request.request_id)
            self._requests[request.request_id] = _LaneItem(
                admitted_at=admitted_at,
                future=future,
                root=self._start_root_locked(
                    lane, admitted_at, request.request_id, kind=request.kind
                ),
            )
            self._batch_lanes[lane].add(request)
            self._work.notify()
        return future

    # ------------------------------------------------------------------
    # streaming through the queue
    # ------------------------------------------------------------------
    def open_stream(self, n: int, **options) -> int:
        """Open a streaming session (control plane: immediate, not queued)."""
        # Opening may evict (checkpoint) a live session and draws from the
        # server's id stream, so it runs between units and outside admission.
        with self._exec, self._lock:
            return self.server.open_stream(n, **options)

    def append_rows(
        self, session_id: int, rows: np.ndarray, targets: np.ndarray
    ) -> RuntimeFuture:
        """Admit one ingest batch into the ``stream`` lane.

        Batches of one session dispatch strictly in admission order (the
        window algebra is order-sensitive for decayed/sliding modes), but
        different sessions interleave freely.
        The future resolves to the session's
        :class:`~repro.streaming.solver.IngestReport`.
        """
        return self._submit_stream(
            "append", self.server.append_rows, session_id, np.asarray(rows), np.asarray(targets)
        )

    def query_solution(self, session_id: int) -> RuntimeFuture:
        """Admit one solution query for a session (``stream`` lane)."""
        return self._submit_stream("query", self.server.query_solution, session_id)

    # ------------------------------------------------------------------
    # frequency sessions through the queue (same lane as streaming)
    # ------------------------------------------------------------------
    def open_frequency_stream(self, domain: int, **options) -> int:
        """Open a frequency session (control plane: immediate, not queued)."""
        with self._exec, self._lock:
            return self.server.open_frequency_stream(domain, **options)

    def append_items(self, session_id: int, ids, weights=None) -> RuntimeFuture:
        """Admit one ``(ids, weights)`` batch into the ``stream`` lane.

        Frequency sessions share the streaming lane's per-session FIFO
        discipline: one session's batches and queries dispatch in admission
        order, different sessions interleave freely.  The future resolves to
        a :class:`~repro.serving.frequency.FrequencyIngestReport`.
        """
        return self._submit_stream("freq_append", self.server.append_items, session_id, ids, weights)

    def query_heavy_hitters(
        self, session_id: int, *, k: Optional[int] = None, phi: Optional[float] = None
    ) -> RuntimeFuture:
        """Admit one heavy-hitter query (``stream`` lane); resolves to the
        session's :class:`~repro.serving.frequency.FrequencyQueryResponse`."""
        return self._submit_stream(
            "freq_hh", self.server.query_heavy_hitters, session_id, k=k, phi=phi
        )

    def query_norm(self, session_id: int) -> RuntimeFuture:
        """Admit one l2-norm query for a frequency session (``stream`` lane)."""
        return self._submit_stream("freq_norm", self.server.query_norm, session_id)

    def query_range(self, session_id: int, lo: int, hi: int) -> RuntimeFuture:
        """Admit one dyadic range query for a frequency session."""
        return self._submit_stream("freq_range", self.server.query_range, session_id, int(lo), int(hi))

    def query_point(self, session_id: int, ids) -> RuntimeFuture:
        """Admit one point-frequency query for a frequency session."""
        return self._submit_stream("freq_point", self.server.query_point, session_id, ids)

    def close_frequency_stream(self, session_id: int) -> Dict[str, float]:
        """Close a frequency session after its queued work drains."""
        return self._close_session(self.server.close_frequency_stream, session_id)

    def _submit_stream(self, kind: str, endpoint, session_id: int, *args, **kwargs) -> RuntimeFuture:
        """Queue one session call; the lane item carries it, bound but for ``root``."""
        with self._work:
            if session_id not in self.server.sessions.owner:  # live or passivated
                raise KeyError(f"unknown or closed streaming session {session_id}")
            admitted_at = self._admit_locked("stream")
            future = RuntimeFuture("stream", session_id)
            item = _LaneItem(
                admitted_at=admitted_at,
                future=future,
                payload=(session_id, partial(endpoint, session_id, *args, **kwargs)),
                root=self._start_root_locked(
                    "stream", admitted_at, session_id, op=kind
                ),
            )
            queue = self._stream_queues.setdefault(session_id, deque())
            queue.append(item)
            if session_id not in self._stream_busy and len(queue) == 1:
                self._stream_ready.append(session_id)
            self._work.notify()
        return future

    def close_stream(self, session_id: int) -> Dict[str, float]:
        """Close a session after its queued work drains; returns final stats."""
        return self._close_session(self.server.close_stream, session_id)

    def _close_session(self, close, session_id: int) -> Dict[str, float]:
        with self._work:
            self._work.wait_for(
                lambda: not self._stream_queues.get(session_id)
                and session_id not in self._stream_busy
            )
            self._stream_queues.pop(session_id, None)
        # A passivated close replays onto a shard clock: run it between units.
        with self._exec, self._lock:
            return close(session_id)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _has_work_locked(self) -> bool:
        return any(lane.pending for lane in self._batch_lanes.values()) or bool(
            self._stream_ready
        )

    def _next_work_locked(self):
        """Weighted round-robin over the lanes; returns a dispatchable unit."""
        n = len(self._lane_cycle)
        for step in range(n):
            lane = self._lane_cycle[(self._cycle_idx + step) % n]
            batcher = self._batch_lanes.get(lane)
            if batcher is not None and batcher.pending > 0:
                self._cycle_idx = (self._cycle_idx + step + 1) % n
                return (lane, batcher.pop_batch())
            if lane == "stream" and self._stream_ready:
                self._cycle_idx = (self._cycle_idx + step + 1) % n
                session_id = self._stream_ready.popleft()
                item = self._stream_queues[session_id].popleft()
                self._stream_busy.add(session_id)
                return ("stream", item)
        return None

    def _run_dispatcher(self) -> None:
        """The dispatcher thread: one unit at a time, under the execution lock.

        Not named ``_dispatch*``: tooling that times each unit wraps every
        method with that prefix as one per-unit call.
        """
        while True:
            with self._work:
                while not self._stop and (self._paused or not self._has_work_locked()):
                    self._work.wait()
                if not self._has_work_locked():  # stopped with nothing left
                    return
                lane, work = self._next_work_locked()
                self._busy = True
            try:
                with self._exec:
                    if lane == "stream":
                        self._dispatch_stream(work)
                    else:
                        self._dispatch_batch(lane, work)
            finally:
                # Drop the unit before waiting for the next one: it holds the
                # request's matrix, which must not outlive its dispatch.
                work = None
                with self._work:
                    self._busy = False
                    self.telemetry.record_queue_depth(self._queue_depth_locked())
                    self._maybe_scale_locked()
                    self._work.notify_all()

    # -- batching lanes (solve and ridge) -------------------------------
    def _comm_estimate(self, batch) -> float:
        """Result-return transfer seconds the batch's latency will include."""
        n = batch.a.shape[1]
        return self.scheduler.estimate_transfer(
            float(n) * batch.size * batch.a.dtype.itemsize
        )

    def _dispatch_batch(self, lane: str, batch) -> None:
        items: Dict[int, _LaneItem] = {}
        try:
            with self._lock:
                items = {
                    req.request_id: self._requests.pop(req.request_id) for req in batch.requests
                }
                roots = {rid: item.root for rid, item in items.items() if item.root is not None}
                admitted_at = min(item.admitted_at for item in items.values())
                planned = self.server._plan_batch(batch)
                budget = batch.requests[0].latency_budget
                if budget is not None:
                    # Earliest start on an active shard + service estimate
                    # + result-return transfer: the same three terms the
                    # completed request's queue-inclusive latency is built
                    # from, so a saturated queue rejects late requests
                    # instead of solving them past budget.
                    start = self._virtual_now_locked()
                    projected = (
                        max(0.0, start - admitted_at)
                        + float(planned[0].costs.get(planned[0].solver, 0.0))
                        + self._comm_estimate(batch)
                    )
                    if projected > budget:
                        self._shed_batch_locked(lane, batch, projected, budget, items)
                        return
                placed = self.server._plan_and_place(batch, planned)
                self._note_service_estimate_locked(placed.estimated_service_seconds)
            responses = self.server._run_placed(
                batch, placed, admitted_at=admitted_at, roots=roots
            )
            with self._lock:
                for resp in responses:
                    self.telemetry.record_lane_latency(lane, resp.simulated_seconds)
                    items.pop(resp.request_id).future._resolve(resp)
        except Exception as exc:
            # A failed dispatch must never kill the worker or strand the
            # riders' futures: reject every one still pending with the
            # actual error.
            with self._lock:
                now = self._virtual_now_locked()
                for item in items.values():
                    self._end_root_error(item.root, exc, now)
                    item.future._reject(exc)

    def _shed_batch_locked(
        self,
        lane: str,
        batch,
        projected: float,
        budget: float,
        items: Dict[int, _LaneItem],
    ) -> None:
        self.telemetry.record_shed(lane, "deadline", count=batch.size)
        now = self._virtual_now_locked()
        for req in batch.requests:
            item = items.pop(req.request_id)
            error = DeadlineExceededError(
                f"request {req.request_id} shed: projected completion "
                f"{projected:.3e}s exceeds budget {budget:.3e}s",
                lane=lane,
                request_id=req.request_id,
                projected_seconds=projected,
                budget_seconds=budget,
            )
            self._end_root_shed(item.root, "deadline", now)
            item.future._reject(error)

    # -- stream lane ----------------------------------------------------
    def _dispatch_stream(self, item: _LaneItem) -> None:
        session_id, call = item.payload
        try:
            # Resurrecting a passivated session admits it like an open (it
            # may evict another and draws from the server's id stream).
            with self._lock:
                session = self.server.sessions.resolve(session_id)
            result = call(root=item.root)
            done_at = self.server.pool[session.shard].elapsed
            self.telemetry.record_lane_latency(
                "stream", max(0.0, done_at - item.admitted_at)
            )
            if item.root is not None:
                # The session manager nests ingest/resolve/query spans under
                # the runtime's root but never ends it; close it at the
                # shard clock (finish() extends over any later respond span).
                self.tracer.end_trace(item.root, done_at)
            item.future._resolve(result)
        except Exception as exc:
            self._end_root_error(item.root, exc, item.admitted_at)
            item.future._reject(exc)
        finally:
            with self._work:
                self._stream_busy.discard(session_id)
                queue = self._stream_queues.get(session_id)
                if queue:
                    self._stream_ready.append(session_id)
                    self._work.notify()

    # ------------------------------------------------------------------
    # elastic scaling
    # ------------------------------------------------------------------
    def _note_service_estimate_locked(self, seconds: float) -> None:
        """Fold one dispatch's service estimate into the drain-prediction EWMA."""
        if seconds <= 0.0:
            return
        if self._service_ewma is None:
            self._service_ewma = float(seconds)
        else:
            self._service_ewma = 0.7 * self._service_ewma + 0.3 * float(seconds)

    def _predicted_drain_locked(self, depth: int) -> Optional[float]:
        """Projected seconds to clear the backlog at current capacity."""
        if self._service_ewma is None or depth <= 0:
            return None
        return depth * self._service_ewma / max(self.active_shards, 1)

    def _maybe_scale_locked(self) -> None:
        elastic = self.runtime_config.elastic
        if elastic is None:
            return
        self._completed_since_scale += 1
        if self._completed_since_scale < elastic.cooldown_batches:
            return
        depth = self._queue_depth_locked()
        p95 = self.telemetry.recent_p95()
        drain_prediction = (
            self._predicted_drain_locked(depth) if elastic.proactive else None
        )
        if drain_prediction is not None:
            self.server.metrics.gauge("runtime_predicted_drain_seconds").set(drain_prediction)
        target, reason = elastic.decide(
            self.active_shards, depth, p95, predicted_drain_seconds=drain_prediction
        )
        if target != self.active_shards:
            self.scheduler.set_active(
                target,
                reason=reason,
                queue_depth=depth,
                p95_seconds=p95 if p95 is not None else 0.0,
            )
        self._completed_since_scale = 0

    # ------------------------------------------------------------------
    # shutdown shedding
    # ------------------------------------------------------------------
    def _shed_backlog_locked(self, reason: str) -> None:
        now = self._virtual_now_locked()
        for lane, batcher in self._batch_lanes.items():
            for batch in batcher.drain():
                self.telemetry.record_shed(lane, reason, count=batch.size)
                for req in batch.requests:
                    item = self._requests.pop(req.request_id)
                    self._end_root_shed(item.root, reason, now)
                    item.future._reject(
                        AdmissionError(
                            f"request {req.request_id} shed: {reason}",
                            lane=lane,
                            request_id=req.request_id,
                        )
                    )
        for session_id, queue in self._stream_queues.items():
            for item in queue:
                self.telemetry.record_shed("stream", reason)
                self._end_root_shed(item.root, reason, now)
                item.future._reject(
                    AdmissionError(f"stream work shed: {reason}", lane="stream")
                )
            queue.clear()
        self._stream_ready.clear()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Server statistics plus the runtime's own headline numbers."""
        out = self.server.stats()
        with self._lock:
            out["queue_depth"] = float(self._queue_depth_locked())
            out["in_flight"] = float(self._busy)
        out["queue_bound"] = float(self.runtime_config.queue_depth)
        return out

    def scale_events(self):
        """The scheduler's recorded :class:`ScaleEvent` timeline."""
        return list(self.scheduler.scale_events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AsyncSketchServer(queue_depth={self.runtime_config.queue_depth}, "
            f"active_shards={self.active_shards}/{self.server.pool.size})"
        )
