"""Frequency-analytics sessions on the :class:`~repro.serving.server.SketchServer`.

The first query family the stack serves beyond solves: a frequency session
pins a planned :mod:`repro.core.frequency` engine (flat or hierarchical, as
:func:`~repro.problems.frequency.plan_frequency_sketch` decides) to a
scheduler-chosen shard, ``append_items`` folds arriving ``(id, weight)``
batches into it on that shard's simulated clock, and the query endpoints --
``query_heavy_hitters`` / ``query_norm`` / ``query_range`` /
``query_point`` -- answer from the sketch alone.

**Bit-for-bit serving contract.**  The manager never post-processes the
engine's answers: a served query returns exactly what the corresponding
library call (:meth:`~repro.core.frequency.FrequencySketch.heavy_hitters`,
:meth:`~repro.core.frequency.FrequencySketch.l2_estimate`, ...) returns on
an identically-seeded, identically-fed sketch.  The acceptance benchmark
asserts this equality through the whole session path.

**Lifecycle and durability** are shared with streaming-solver sessions
(:mod:`repro.serving.sessions`): the same table, TTL, ``max_sessions`` cap,
passivation and WAL-before-fold discipline, with the snapshot and WAL
codec in :mod:`repro.durability.session`.  Restored sketches are
bit-identical, so answers served after a restore or a passivation match
answers served before it.

Telemetry lands in the ``frequency_*`` series of
:class:`~repro.serving.telemetry.ServingTelemetry`; traces nest ingest and
query spans under runtime-provided roots like the streaming lane does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.frequency import HierarchicalFrequencySketch, as_index_array
from repro.durability.session import (
    FrequencyEngine,
    decode_frequency_wal,
    deserialize_frequency_session,
    encode_frequency_wal,
    serialize_frequency_session,
)
from repro.problems.frequency import (
    FrequencyPlan,
    build_frequency_sketch,
    plan_frequency_sketch,
)
from repro.serving.sessions import DurableSessionManager

__all__ = [
    "FrequencyIngestReport",
    "FrequencyQueryResponse",
    "FrequencySession",
    "FrequencySessionManager",
]


@dataclass
class FrequencyIngestReport:
    """Outcome of one ``append_items`` call."""

    session_id: int
    items: int
    items_seen: int
    simulated_seconds: float
    shard: int


@dataclass
class FrequencyQueryResponse:
    """Answer to one frequency query through the session path.

    ``value`` carries the query's library-exact answer: a list of
    ``(id, estimate)`` pairs for heavy-hitter queries, a float for norm and
    range queries, an estimate array for point queries.
    """

    session_id: int
    kind: str
    value: object
    simulated_seconds: float
    compute_seconds: float
    comm_seconds: float
    shard: int
    extra: Dict[str, object] = field(default_factory=dict)


@dataclass
class FrequencySession:
    """One live frequency session: engine, plan, shard binding, counters."""

    session_id: int
    engine: FrequencyEngine
    plan: FrequencyPlan
    shard: int
    seed: int
    batches: int = 0
    queries: int = 0
    last_used: float = 0.0
    wal_batches: int = 0
    durable_seq: int = 0

    def stats(self) -> Dict[str, float]:
        """The session's own counters (serving keys + plan operating point)."""
        return {
            "session_id": float(self.session_id),
            "shard": float(self.shard),
            "items_seen": float(self.engine.items_seen),
            "batches": float(self.batches),
            "queries": float(self.queries),
            "phi": float(self.plan.phi),
            "eps": float(self.plan.eps),
            "width": float(self.plan.width),
            "depth": float(self.plan.depth),
            "hierarchical": float(self.plan.hierarchical),
            "levels": float(self.plan.levels),
        }


class FrequencySessionManager(DurableSessionManager):
    """Frequency-analytics sessions: one planned frequency sketch each."""

    label = "frequency"
    key_prefix = "freq-session-"

    def open(
        self,
        domain: int,
        *,
        phi: float = 0.05,
        delta: float = 1e-3,
        branch: int = 16,
        need_ranges: bool = False,
        max_width: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> int:
        """Open a frequency session; returns its id (the server's id stream).

        The sketch is sized by :func:`plan_frequency_sketch` for the
        requested ``(phi, delta)`` operating point and built on a
        scheduler-chosen shard's executor, so every update and query is
        charged to that shard's simulated clock like any other request.
        """
        server = self._server
        plan = plan_frequency_sketch(
            domain,
            phi,
            delta,
            branch=branch,
            need_ranges=need_ranges,
            max_width=max_width,
        )
        self._table.admit()
        shard = server.scheduler.place()
        use_seed = int(seed if seed is not None else server.config.seed)
        engine = build_frequency_sketch(
            plan, executor=server.pool[shard], seed=use_seed
        )
        session = FrequencySession(
            session_id=self._next_id(), engine=engine, plan=plan, shard=shard, seed=use_seed
        )
        server.telemetry.record_frequency_open()
        return self._add(session)

    def _on_close(self) -> None:
        self._server.telemetry.record_frequency_close()

    # ------------------------------------------------------------------
    def append(
        self, session_id: int, ids, weights=None, *, root=None
    ) -> FrequencyIngestReport:
        """Fold one ``(ids, weights)`` batch into the session's sketch.

        ``root`` is an optional trace root (the runtime passes the one it
        opened at admission); without one a standalone ``frequency_ingest``
        trace is started here.  The batch is validated before anything
        else; with durability it is then framed into the session's WAL
        before it is folded.
        """
        session = self._resolve(session_id)
        server = self._server
        tracer = server.tracer
        own_root = root is None and tracer.enabled
        ids_arr, w_arr = self._write_ahead(session, ids, weights)
        shard_clock = server.pool[session.shard]
        start = shard_clock.elapsed
        self._fold(session, ids_arr, w_arr)
        end = shard_clock.elapsed
        self._folded(session)
        server.telemetry.record_frequency_ingest(int(ids_arr.size), end - start)
        if tracer.enabled:
            if own_root:
                root = tracer.start_trace(
                    "frequency_ingest", start, session_id=session_id, lane="stream"
                )
            tracer.start_span(
                "freq_ingest", root, start, items=int(ids_arr.size), shard=session.shard
            ).finish(end)
            if own_root:
                tracer.end_trace(root, end)
        return FrequencyIngestReport(
            session_id=session_id,
            items=int(ids_arr.size),
            items_seen=int(session.engine.items_seen),
            simulated_seconds=end - start,
            shard=session.shard,
        )

    @staticmethod
    def _validate(session: FrequencySession, ids, weights) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        ids = as_index_array(ids, session.plan.domain)
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64).ravel()
            if weights.shape[0] != ids.shape[0]:
                raise ValueError(f"expected {ids.shape[0]} weights, got {weights.shape[0]}")
        return ids, weights

    _encode_batch = staticmethod(encode_frequency_wal)

    # ------------------------------------------------------------------
    def _serve(self, session_id: int, kind: str, root, ask) -> FrequencyQueryResponse:
        """Run one query on the session's shard clock and respond.

        ``ask(session)`` computes the library-exact answer and returns
        ``(value, answer_bytes, extra)``; the epilogue charges the answer's
        transfer, records telemetry and spans, and builds the response.
        """
        session = self._resolve(session_id)
        server = self._server
        own_root = root is None and server.tracer.enabled
        shard_clock = server.pool[session.shard]
        start = shard_clock.elapsed
        value, answer_bytes, extra = ask(session)
        end = shard_clock.elapsed
        comm_seconds = server.scheduler.charge_transfer(
            f"frequency_{kind}", answer_bytes
        )
        session.queries += 1
        self._touch(session)
        compute_seconds = end - start
        server.telemetry.record_frequency_query(kind, compute_seconds + comm_seconds)
        tracer = server.tracer
        if tracer.enabled:
            if own_root:
                root = tracer.start_trace(
                    f"frequency_{kind}", start, session_id=session.session_id, lane="stream"
                )
            tracer.start_span(
                f"freq_{kind}", root, start, shard=session.shard, **extra
            ).finish(end)
            tracer.start_span("respond", root, end).finish(
                end + comm_seconds, comm_seconds=comm_seconds
            )
            if own_root:
                tracer.end_trace(root, end + comm_seconds)
        return FrequencyQueryResponse(
            session_id=session.session_id,
            kind=kind,
            value=value,
            simulated_seconds=compute_seconds + comm_seconds,
            compute_seconds=compute_seconds,
            comm_seconds=comm_seconds,
            shard=session.shard,
            extra=dict(extra),
        )

    def query_heavy_hitters(
        self,
        session_id: int,
        *,
        k: Optional[int] = None,
        phi: Optional[float] = None,
        root=None,
    ) -> FrequencyQueryResponse:
        """Serve the session's heavy hitters at level ``phi``.

        Hierarchical engines answer by dyadic descent (``top_k``; ``k``
        defaults to ``ceil(1 / phi)``, the largest possible number of
        ``phi``-heavy items); flat engines answer by the ``findHH`` scan
        with an optional top-``k`` truncation.  ``value`` is the engine's
        ``(id, estimate)`` list, bit-for-bit.
        """

        def ask(session: FrequencySession):
            use_phi = float(phi if phi is not None else session.plan.phi)
            engine = session.engine
            if isinstance(engine, HierarchicalFrequencySketch):
                use_k = int(k if k is not None else int(np.ceil(1.0 / use_phi)))
                value: List[Tuple[int, float]] = engine.top_k(use_k, use_phi)
            else:
                value = engine.heavy_hitters(use_phi)
                if k is not None:
                    value = value[: int(k)]
            return value, 16.0 * max(1, len(value)), {"phi": use_phi, "hits": len(value)}

        return self._serve(session_id, "heavy_hitters", root, ask)

    def query_norm(self, session_id: int, *, root=None) -> FrequencyQueryResponse:
        """Serve the session's l2-norm estimate (``value`` is a float)."""
        return self._serve(
            session_id, "norm", root, lambda session: (session.engine.l2_estimate(), 8.0, {})
        )

    def query_range(
        self, session_id: int, lo: int, hi: int, *, root=None
    ) -> FrequencyQueryResponse:
        """Serve the estimated total weight of ids in ``[lo, hi)``.

        Requires a hierarchical engine (open the session with
        ``need_ranges=True`` or an address-space domain); a flat session
        raises ``RuntimeError`` -- a typed refusal, not a silent scan.
        """

        def ask(session: FrequencySession):
            if not isinstance(session.engine, HierarchicalFrequencySketch):
                raise RuntimeError(
                    f"frequency session {session_id} was opened without range "
                    f"support; open with need_ranges=True for dyadic range queries"
                )
            return session.engine.range_query(lo, hi), 8.0, {"lo": int(lo), "hi": int(hi)}

        return self._serve(session_id, "range", root, ask)

    def query_point(
        self, session_id: int, ids, *, root=None
    ) -> FrequencyQueryResponse:
        """Serve point estimates for the given ids (``value`` is an array)."""

        def ask(session: FrequencySession):
            value = session.engine.point_query(ids)
            return value, 8.0 * max(1, value.size), {"count": int(value.size)}

        return self._serve(session_id, "point", root, ask)

    # ------------------------------------------------------------------
    # durability: the frequency codec (repro.durability.session)
    # ------------------------------------------------------------------
    def checkpoint(self, session_id: int) -> int:
        """Snapshot one live session and truncate its WAL; returns blob size."""
        session = self._get(session_id)
        meta = dict(self._session_meta(session), batches=session.batches)
        blob = serialize_frequency_session(session.engine, session.plan, session.seed, meta)
        return self._write_checkpoint(session, blob)

    def _decode_checkpoint(self, session_id: int, blob: bytes, shard: int):
        engine, plan, seed, meta = deserialize_frequency_session(
            blob, executor=self._server.pool[shard]
        )
        session = FrequencySession(
            session_id=session_id,
            engine=engine,
            plan=plan,
            shard=shard,
            seed=seed,
            batches=int(meta.get("batches", 0)),
        )
        return session, meta

    _decode_batch = staticmethod(decode_frequency_wal)

    @staticmethod
    def _fold(session: FrequencySession, ids: np.ndarray, weights: Optional[np.ndarray]) -> None:
        session.engine.update(ids, weights)
        session.batches += 1
