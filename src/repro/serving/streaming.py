"""Streaming sessions on the :class:`~repro.serving.server.SketchServer`.

Batch requests hand the server a whole problem; a *streaming session* hands
it a stream.  ``open_stream`` pins a :class:`~repro.streaming.solver.StreamingSolver`
to a shard (chosen by the same scheduler that places batches),
``append_rows`` folds arriving batches into the session's window sketch on
that shard's simulated clock, ``query_solution`` serves the lazily re-solved
window solution (planner-routed, fallback chains and all), and
``close_stream`` returns the session's final statistics.

Session state is *session-keyed in the operator cache*: the window sketch
operator is registered under a cache key whose solver field is
``"stream-session:<id>"``, so live sessions are visible in cache stats next
to the batch operators, a session's operator can never be confused with
batch traffic of the same shape, and closing the session removes exactly
its own entry (:meth:`~repro.serving.cache.OperatorCache.discard`).

Per-session telemetry (rows/sec ingest, re-solve counts, staleness at query
time, drift events) lands both on the session's own stats and in the
server-wide :class:`~repro.serving.telemetry.ServingTelemetry` snapshot.

**Lifecycle and durability** are shared with frequency sessions
(:mod:`repro.serving.sessions`): one session table bounds both kinds, and
with a durability config every batch is write-ahead-logged before it is
folded and the engine is snapshotted with
:func:`~repro.durability.session.serialize_session`.  This module keeps
what is specific to the kind: the engine, its fold and query, and the
session's operator-cache pin (released while a session is passivated).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.durability.session import (
    decode_wal_batch,
    deserialize_session,
    encode_wal_batch,
    serialize_session,
)
from repro.serving.cache import CacheEntry, operator_cache_key
from repro.serving.sessions import DurableSessionManager
from repro.streaming.solver import IngestReport, StreamingSolver, as_row_batch
from repro.streaming.state import STREAM_CAPACITY

__all__ = [
    "IngestReport",
    "StreamSession",
    "StreamSolutionResponse",
    "StreamingSessionManager",
    "stream_session_cache_key",
]


def stream_session_cache_key(session_id: int, n: int, k: int, seed: int, dtype=np.float64) -> Tuple:
    """Operator-cache key pinning one session's window sketch.

    Reuses :func:`~repro.serving.cache.operator_cache_key` with the solver
    field carrying the session identity, so session entries live in the same
    LRU as batch operators but can never alias them.
    """
    return operator_cache_key(
        "countsketch",
        STREAM_CAPACITY,
        n,
        k,
        seed,
        dtype,
        solver=f"stream-session:{session_id}",
    )


@dataclass
class StreamSession:
    """One live streaming session: its engine, shard binding and counters.

    ``cache_key`` is ``None`` for sessions whose window summary carries no
    operator state to pin (``mode="fd"``).  ``last_used`` is the pool's
    makespan at its last touch (the TTL policy's input); ``durable_seq``
    numbers the next WAL batch and ``wal_batches`` counts appends since the
    last checkpoint.
    """

    session_id: int
    solver: StreamingSolver
    shard: int
    cache_key: Optional[Tuple]
    queries: int = 0
    last_used: float = 0.0
    wal_batches: int = 0
    durable_seq: int = 0

    def stats(self) -> Dict[str, float]:
        """The session's own telemetry (engine counters plus serving keys)."""
        out = self.solver.stats()
        out["session_id"] = float(self.session_id)
        out["shard"] = float(self.shard)
        out["queries"] = float(self.queries)
        return out


@dataclass
class StreamSolutionResponse:
    """Answer to one ``query_solution`` request.

    ``staleness_rows`` is how many rows arrived after the solve that
    produced ``x`` (0 right after a re-solve); ``resolved`` says whether
    this query itself triggered the lazy re-solve.  ``attempted`` is the
    planner's executed chain, so drift-triggered fallback behaviour is
    observable per query exactly as in batch serving.
    """

    session_id: int
    x: Optional[np.ndarray]
    relative_residual: float
    planned_solver: str
    executed_solver: str
    attempted: Tuple[str, ...]
    fallbacks: int
    cond_estimate: float
    trigger: str
    window_rows: int
    staleness_rows: int
    resolved: bool
    simulated_seconds: float
    compute_seconds: float
    comm_seconds: float
    shard: int
    extra: Dict[str, object] = field(default_factory=dict)


class StreamingSessionManager(DurableSessionManager):
    """Streaming least-squares sessions: one :class:`StreamingSolver` each."""

    label = "streaming"
    key_prefix = "session-"

    def open(
        self,
        n: int,
        *,
        mode: str = "sliding",
        k: Optional[int] = None,
        bucket_rows: int = 1024,
        window_buckets: int = 4,
        decay: float = 0.999,
        policy: Optional[str] = None,
        accuracy_target: Optional[float] = None,
        latency_budget: Optional[float] = None,
        detector=True,
        seed: Optional[int] = None,
    ) -> int:
        """Open a streaming session for ``n``-column rows; returns its id.

        The id comes from the server's request-id stream.  Unset routing
        options (``policy``, ``accuracy_target``, ``latency_budget``,
        ``seed``) inherit the server config; a ``"fixed"`` server policy
        streams as ``"cheapest_accurate"``.  The session's engine runs on a
        scheduler-chosen shard and its window-sketch operator is pinned in
        the operator cache under a session key.
        """
        server = self._server
        config = server.config
        self._table.admit()
        if policy is None:
            # A fixed-policy server still streams adaptively: streaming
            # exists to re-route when windows drift.
            policy = config.policy if config.policy != "fixed" else "cheapest_accurate"
        shard = server.scheduler.place()
        solver = StreamingSolver(
            n,
            k=k,
            mode=mode,
            bucket_rows=bucket_rows,
            window_buckets=window_buckets,
            decay=decay,
            policy=policy,
            accuracy_target=(
                accuracy_target if accuracy_target is not None else config.accuracy_target
            ),
            latency_budget=(
                latency_budget if latency_budget is not None else config.latency_budget
            ),
            oversampling=config.oversampling,
            seed=seed if seed is not None else config.seed,
            detector=detector,
            executor=server.pool[shard],
        )
        session = StreamSession(
            session_id=self._next_id(), solver=solver, shard=shard, cache_key=None
        )
        server.telemetry.record_stream_open()
        return self._add(session)

    def _pin(self, session: StreamSession) -> None:
        """Pin the session's window sketch in the operator cache, or re-pin it.

        Called at open and restore, and again on every ingest, because two
        things can go stale in between: LRU pressure from batch traffic can
        evict the session key (it is never ``get()``'d on the request
        path), and a sliding ring's rotation or a drift reset can retire
        the sketch object the entry was built from.  The entry is re-pointed
        at the state's current live sketch (same hashed identity, so the
        entry's ``state_key`` contract is untouched).  Operator-less window
        summaries (``mode="fd"`` is deterministic) have nothing to pin.
        """
        solver = session.solver
        if solver.state.operator is None:
            return
        if session.cache_key is None:
            session.cache_key = stream_session_cache_key(
                session.session_id, solver.n + 1, solver.k, solver.seed
            )
        cache = self._server.cache
        entry = cache.peek(session.cache_key)
        if entry is None:
            cache.put(
                session.cache_key, CacheEntry(operator=solver.state.operator, shard=session.shard)
            )
        else:
            entry.operator = solver.state.operator
            cache.touch(session.cache_key)

    def _unpin(self, session: StreamSession) -> None:
        if session.cache_key is not None:
            self._server.cache.discard(session.cache_key)

    def _on_close(self) -> None:
        self._server.telemetry.record_stream_close()

    # ------------------------------------------------------------------
    def append(
        self, session_id: int, rows: np.ndarray, targets: np.ndarray, *, root=None
    ) -> IngestReport:
        """Fold one arriving batch into the session's window sketch.

        ``root`` is an optional trace root to nest the session spans under
        (the concurrent runtime passes the one opened at admission, with the
        queue context already on it); without one, a standalone
        ``stream_ingest`` trace is started and ended here.  The ingest/
        re-solve intervals are reconstructed from the engine's own
        accounting on the shard clock, so the spans cost nothing on the
        simulated timeline.
        """
        session = self._resolve(session_id)
        server = self._server
        rows, targets = self._write_ahead(session, rows, targets)
        report = self._fold(session, rows, targets)
        self._folded(session)
        telemetry = server.telemetry
        telemetry.record_stream_ingest(report.rows, report.simulated_seconds)
        if report.drift is not None:
            telemetry.record_stream_drift()
        if report.resolved:
            telemetry.record_stream_resolve(seconds=report.resolve_seconds)
        # Reconstruct the interval from the shard clock: the engine charged
        # ingest (fold) first, then any eager re-solve.
        end = server.pool[session.shard].elapsed
        ingest_end = end - (float(report.resolve_seconds) if report.resolved else 0.0)
        start = ingest_end - float(report.simulated_seconds)

        def spans(tracer, root) -> None:
            ingest_span = tracer.start_span(
                "ingest", root, start, rows=int(report.rows), shard=session.shard
            )
            if report.drift is not None:
                tracer.event("drift", ingest_span, ingest_end, kind=report.drift.kind)
            ingest_span.finish(ingest_end, batch_residual=report.batch_residual)
            if report.resolved:
                tracer.start_span("resolve", root, ingest_end).finish(end, trigger="ingest")

        self._trace("stream_ingest", root, session_id, start, end, spans)
        return report

    @staticmethod
    def _validate(session: StreamSession, rows, targets) -> Tuple[np.ndarray, np.ndarray]:
        return as_row_batch(rows, targets, session.solver.n)

    _encode_batch = staticmethod(encode_wal_batch)

    # ------------------------------------------------------------------
    def query(self, session_id: int, *, root=None) -> StreamSolutionResponse:
        """Serve the session's current solution (lazy re-solve if stale).

        ``root`` as in :meth:`append`: a runtime-provided trace root, or
        ``None`` to start a standalone ``stream_query`` trace here.
        """
        session = self._resolve(session_id)
        server = self._server
        solver = session.solver
        self._touch(session)
        resolves_before = solver.resolve_count
        solution = solver.solution()
        resolved = solver.resolve_count > resolves_before
        compute_seconds = solution.simulated_seconds if resolved else 0.0
        if resolved:
            server.telemetry.record_stream_resolve(seconds=compute_seconds)
        # The solution vector travels back from the shard to the front end.
        x_bytes = float(solver.n) * np.dtype(np.float64).itemsize
        comm_seconds = server.scheduler.charge_transfer("stream_solution", x_bytes)
        session.queries += 1
        server.telemetry.record_stream_query(solution.staleness_rows)
        end = server.pool[session.shard].elapsed
        start = end - compute_seconds

        def spans(tracer, root) -> None:
            if resolved:
                tracer.start_span(
                    "resolve", root, start, solver=solution.executed_solver
                ).finish(end, trigger=solution.trigger)
            tracer.event(
                "query", root, end,
                staleness_rows=int(solution.staleness_rows), resolved=resolved,
            )

        self._trace("stream_query", root, session_id, start, end, spans, comm_seconds)
        return StreamSolutionResponse(
            session_id=session_id,
            x=solution.x,
            relative_residual=solution.relative_residual,
            planned_solver=solution.planned_solver,
            executed_solver=solution.executed_solver,
            attempted=solution.attempted,
            fallbacks=solution.fallbacks,
            cond_estimate=solution.cond_estimate,
            trigger=solution.trigger,
            window_rows=solution.window_rows,
            staleness_rows=solution.staleness_rows,
            resolved=resolved,
            simulated_seconds=compute_seconds + comm_seconds,
            compute_seconds=compute_seconds,
            comm_seconds=comm_seconds,
            shard=session.shard,
            extra={
                "failed": float(solution.failed),
                "attempted": "->".join(solution.attempted),
                "policy": solution.policy,
            },
        )

    # ------------------------------------------------------------------
    # durability: the stream codec (repro.durability.session)
    # ------------------------------------------------------------------
    def checkpoint(self, session_id: int) -> int:
        """Snapshot one live session and truncate its WAL; returns blob size."""
        session = self._get(session_id)
        blob = serialize_session(session.solver, self._session_meta(session))
        return self._write_checkpoint(session, blob)

    def _decode_checkpoint(self, session_id: int, blob: bytes, shard: int):
        solver, meta = deserialize_session(blob, executor=self._server.pool[shard])
        return StreamSession(session_id=session_id, solver=solver, shard=shard, cache_key=None), meta

    _decode_batch = staticmethod(decode_wal_batch)

    @staticmethod
    def _fold(session: StreamSession, rows: np.ndarray, targets: np.ndarray) -> IngestReport:
        return session.solver.ingest(rows, targets)
