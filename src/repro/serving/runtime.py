"""Concurrent serving runtime: admission control, lanes, shedding.

The synchronous :class:`~repro.serving.server.SketchServer` answers one call
at a time; this module turns it into a *runtime* that serves overlapping
traffic from many callers while every simulated number stays a pure
function of the load and the seed:

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
  earliest-free shard of the :class:`~repro.gpu.pool.ExecutorPool`.
  Shards still overlap on the simulated clock, but the order in which their
  clocks advance is fixed by admission order and the lane weights, so every
  simulated number is a pure function of the load and the seed.  Admission
  runs on the callers' threads and never waits for a unit to execute.
  The pool is the server's fixed ``shards``.
* **Session endpoints** -- declared once, in
  :data:`~repro.serving.sessions.SESSION_ENDPOINTS`.  ``open_*`` runs at
  once, between units, and ``close_*`` after the session's queued work; a
  call on an id of the other kind raises that kind's ``KeyError`` at once.
  Each append and query is admitted into the ``stream`` lane; its
  :class:`RuntimeFuture` resolves to the session manager's response.  One
  session's calls dispatch strictly in admission order (the window algebra
  is order-sensitive for decayed/sliding modes); sessions interleave freely.

Latencies in lane telemetry are *queue-inclusive* on the simulated clock:
admission stamps the request with the earliest instant any shard could
start it, and completion is the executing shard's clock after the
solve -- so queueing delay, the thing admission control exists to bound, is
visible in ``lane_*_p95_seconds``.

Quick start::

    from repro.serving import AsyncSketchServer

    runtime = AsyncSketchServer(shards=8, queue_depth=64)
    futures = [runtime.submit(A, b, latency_budget=0.05) for b in batch]
    xs = [f.result() for f in futures]     # raises DeadlineExceededError if shed
    runtime.drain()
    print(runtime.stats()["requests_per_second"])
    runtime.stop()
"""

from __future__ import annotations

import _thread
import inspect
import threading
from collections import deque
from dataclasses import dataclass, field, fields
from functools import partial
from operator import attrgetter
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.serving.requests import (
    LANES,
    AdmissionError,
    DeadlineExceededError,
    QueueFullError,
    SolveRequest,
    SolveResponse,
)
from repro.obs.trace import Reservation, Span
from repro.serving.batcher import MicroBatcher
from repro.serving.server import SESSION_MANAGERS, ServerConfig, SketchServer
from repro.serving.sessions import declare_session_endpoints

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
    """

    workers: int = 4
    queue_depth: int = 64
    lane_weights: Dict[str, int] = field(
        default_factory=lambda: {"solve": 4, "ridge": 2, "stream": 2}
    )

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

    Waiters block on a raw lock that is held from construction until the
    request completes; each waiter that gets it releases it at once, so
    every waiter wakes.
    """

    def __init__(self, lane: str, request_id: int) -> None:
        self.lane = lane
        self.request_id = request_id
        self._done = False
        self._pending = _thread.allocate_lock()
        self._pending.acquire()
        self._response = None
        self._error: Optional[BaseException] = None

    # -- dispatcher side ------------------------------------------------
    def _resolve(self, response) -> None:
        self._response = response
        self._complete()

    def _reject(self, error: BaseException) -> None:
        self._error = error
        self._complete()

    def _complete(self) -> None:
        if not self._done:
            self._done = True
            self._pending.release()

    # -- caller side ----------------------------------------------------
    def _wait(self, timeout: Optional[float]) -> None:
        if self._done:
            return
        if timeout is None:
            acquired = self._pending.acquire()
        elif timeout > 0:
            acquired = self._pending.acquire(True, timeout)
        else:
            acquired = self._pending.acquire(False)
        if not acquired:
            raise TimeoutError("request still in flight")
        self._pending.release()  # wake the next waiter

    def done(self) -> bool:
        """Whether the request has completed or been shed."""
        return self._done

    @property
    def shed(self) -> bool:
        """Whether the request was shed (only meaningful once done)."""
        return isinstance(self._error, AdmissionError)

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        """The typed error the request failed with, or None on success."""
        self._wait(timeout)
        return self._error

    def result(self, timeout: Optional[float] = None):
        """Block for the response; raises the typed error if the request was shed."""
        self._wait(timeout)
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
    a session append/query (queued per session, carrying its bound call).

    With tracing on, a session call carries its open trace ``root``; a
    batched request carries only its root's ``reservation`` (ids, sampling
    decision and admission attributes), which its batch closes with the
    other riders' in one tracer call.
    """

    admitted_at: float
    future: RuntimeFuture
    payload: Tuple = ()
    root: Optional[Span] = None
    reservation: Optional[Reservation] = None


class AsyncSketchServer:
    """Concurrent front end over a :class:`~repro.serving.server.SketchServer`.

    Construction accepts a :class:`~repro.serving.server.ServerConfig` (or
    its keyword overrides) mixed with :class:`RuntimeConfig` keywords::

        AsyncSketchServer(shards=8, policy="cheapest_accurate",
                          queue_depth=32)

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
        """Block until the queue is empty and no dispatch is in flight."""
        with self._work:
            ok = self._work.wait_for(
                lambda: self._queue_depth_locked() == 0 and not self._busy,
                timeout=timeout,
            )
            if not ok:
                raise TimeoutError("drain timed out with work still pending")

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
        """Admission timestamp: the earliest instant any shard is free."""
        return self.server.pool.min_load()

    def _admit_locked(
        self, lane: str, request_id: Optional[int] = None, payload: Tuple = (), **attrs
    ) -> _LaneItem:
        """The common admission gate; returns the admitted unit's lane item.

        Past the gate the unit gets its admission timestamp, its future
        (``request_id=None`` draws the next id from the server's stream, so
        a rejected request consumes none) and its trace root.  The root
        carries the queue context (admission event + depth) that the
        serving layer cannot see.  A session call's root opens here and
        its session spans nest under it.  A batched request's root is only
        reserved (:meth:`~repro.obs.trace.Tracer.reserve_root`): its batch
        closes every rider's root in one tracer call, and a shed or failed
        dispatch opens it to end it.  Whoever decides the request's fate
        (response, shed, error) ends the trace.
        """
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
        admitted_at = self._virtual_now_locked()
        if request_id is None:
            request_id = self.server._next_id
            self.server._next_id += 1
        item = _LaneItem(admitted_at, RuntimeFuture(lane, request_id), payload)
        tracer = self.tracer
        if tracer.enabled:
            if lane == "stream":
                item.root = tracer.start_trace(
                    "request", admitted_at, request_id=request_id, lane=lane, **attrs
                )
                tracer.event("admission", item.root, admitted_at, queue_depth=depth + 1)
            else:
                item.reservation = (
                    tracer.reserve_root(), admitted_at,
                    {"request_id": request_id, "lane": lane, **attrs},
                    "admission", {"queue_depth": depth + 1},
                )
        return item

    def _live_root(self, item: _LaneItem) -> Optional[Span]:
        """The item's trace root as an open Span (None when it has none or tracing is off)."""
        if not self.tracer.enabled:
            return None
        if item.reservation is not None:
            return self.tracer.open_reserved("request", item.reservation)
        return item.root

    def _end_root_shed(self, item: _LaneItem, reason: str, at: float) -> None:
        """Terminal ``shed`` span + trace end for a request that won't run."""
        root = self._live_root(item)
        if root is not None:
            self.tracer.event("shed", root, at, status="shed", reason=reason)
            self.tracer.end_trace(root, at, status="shed")

    def _end_root_error(self, item: _LaneItem, error: BaseException, at: float) -> None:
        """Terminal trace end for a request whose dispatch raised."""
        root = self._live_root(item)
        if root is not None:
            self.tracer.end_trace(root, at, status="error", error=type(error).__name__)

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
            item = self._admit_locked(lane, kind=request.kind)
            request.request_id = item.future.request_id
            self._requests[request.request_id] = item
            self._batch_lanes[lane].add(request)
            self._work.notify()
        return item.future

    def _submit_stream(self, op: str, manager, method: str, bound) -> RuntimeFuture:
        """Queue one session call; the lane item carries it, bound but for ``root``."""
        session_id = bound.arguments["session_id"]
        with self._work:
            manager._check_owner(session_id)  # live or passivated, of this kind
            call = partial(getattr(manager, method), *bound.args, **bound.kwargs)
            item = self._admit_locked("stream", session_id, (session_id, call), op=op)
            queue = self._stream_queues.setdefault(session_id, deque())
            queue.append(item)
            if session_id not in self._stream_busy and len(queue) == 1:
                self._stream_ready.append(session_id)
            self._work.notify()
        return item.future

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
        roots: Dict[int, Reservation] = {}
        try:
            with self._lock:
                items = {
                    req.request_id: self._requests.pop(req.request_id) for req in batch.requests
                }
                roots = {
                    rid: item.reservation
                    for rid, item in items.items()
                    if item.reservation is not None
                }
                admitted_at = min(item.admitted_at for item in items.values())
                planned = self.server._plan_batch(batch)
                budget = batch.requests[0].latency_budget
                if budget is not None:
                    # Earliest start on any shard + service estimate
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
            responses = self.server._run_placed(
                batch, placed, admitted_at=admitted_at, roots=roots
            )
            with self._lock:
                # Every rider shares the batch's latency: record them all at once.
                self.telemetry.record_lane_latency(
                    lane, responses[0].simulated_seconds, count=len(responses)
                )
                for resp in responses:
                    items.pop(resp.request_id).future._resolve(resp)
        except (ValueError, np.linalg.LinAlgError) as exc:
            # The batch's input made the plan or the solve raise (a NaN trips
            # the spectrum probe): answer each rider with the failed response
            # the synchronous server gives, closing its runtime-reserved root.
            with self._lock:
                for resp in self.server._failed_batch(batch, exc, roots=roots):
                    items.pop(resp.request_id).future._resolve(resp)
        except Exception as exc:
            # A failed dispatch must never kill the worker or strand the
            # riders' futures: reject every one still pending with the
            # actual error.
            with self._lock:
                now = self._virtual_now_locked()
                for item in items.values():
                    self._end_root_error(item, exc, now)
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
            self._end_root_shed(item, "deadline", now)
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
            self._end_root_error(item, exc, item.admitted_at)
            item.future._reject(exc)
        finally:
            with self._work:
                self._stream_busy.discard(session_id)
                queue = self._stream_queues.get(session_id)
                if queue:
                    self._stream_ready.append(session_id)
                    self._work.notify()

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
                    self._end_root_shed(item, reason, now)
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
                self._end_root_shed(item, reason, now)
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AsyncSketchServer(queue_depth={self.runtime_config.queue_depth}, "
            f"shards={self.server.pool.size})"
        )


def _admitted(attr: str, method: str, op: Optional[str]) -> Callable:
    """The runtime's face of one session endpoint (see the module docstring).

    A queued call is bound against the manager method's signature first, so
    a bad call raises ``TypeError`` before admission counts it.
    """
    if method == "open":

        def endpoint(self, *args, **kwargs):
            # Opening may evict (checkpoint) a live session and draws from
            # the server's id stream: it runs between units, outside admission.
            with self._exec, self._lock:
                return getattr(self.server, attr).open(*args, **kwargs)

        return endpoint
    if method == "close":

        def endpoint(self, session_id):
            with self._work:
                # The kind is checked first: a wrong-kind id never waits.
                getattr(self.server, attr)._check_owner(session_id)
                self._work.wait_for(
                    lambda: not self._stream_queues.get(session_id)
                    and session_id not in self._stream_busy
                )
                self._stream_queues.pop(session_id, None)
            # A passivated close replays onto a shard clock: run it between units.
            with self._exec, self._lock:
                return getattr(self.server, attr).close(session_id)

        return endpoint
    signature = inspect.signature(getattr(SESSION_MANAGERS[attr], method))
    params = [p for p in signature.parameters.values() if p.name != "root"]
    call = signature.replace(parameters=params[1:])

    def endpoint(self, *args, **kwargs):
        bound = call.bind(*args, **kwargs)
        return self._submit_stream(op, getattr(self.server, attr), method, bound)

    endpoint.__signature__ = signature.replace(parameters=params, return_annotation="RuntimeFuture")
    summary = inspect.getdoc(getattr(SESSION_MANAGERS[attr], method)).splitlines()[0]
    endpoint.__doc__ = (
        f"{summary}\n\n"
        "Admitted into the ``stream`` lane and run after the session's earlier\n"
        "calls.  Returns a :class:`RuntimeFuture` that resolves to the response\n"
        "the server's endpoint of the same name returns.  The runtime opens the\n"
        "request's trace root at admission and nests the session spans under it.\n"
    )
    return endpoint


declare_session_endpoints(AsyncSketchServer, SESSION_MANAGERS, _admitted)

#: The wrapped server's parts, read through: attribute -> what it holds.
_SERVER_PARTS = {
    "telemetry": "telemetry (lane/shed/queue metrics land here)",
    "tracer": "tracer (request span trees land here)",
    "metrics": "metrics registry (the scrape surface)",
    "calibration": "cost-calibration estimator (None when off)",
    "scheduler": "shard scheduler",
    "pool": "executor pool",
}
for _name, _held in _SERVER_PARTS.items():
    setattr(
        AsyncSketchServer, _name,
        property(attrgetter(f"server.{_name}"), doc=f"The wrapped server's {_held}."),
    )
