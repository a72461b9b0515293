"""Durable encodings of every session kind and their WAL batch entries.

Four record kinds, all carried by :mod:`repro.durability.codec`:

``repro.stream-session``
    A full :class:`~repro.streaming.solver.StreamingSolver` snapshot
    (engine config, window state in every mode, drift-detector EWMA state,
    cached solution) plus the serving layer's session metadata -- most
    importantly ``durable_seq``, the WAL sequence number the snapshot is
    current through, which is what makes checkpoint + WAL-tail replay
    exactly-once.

``repro.wal-batch``
    One appended ``(rows, targets)`` batch with its sequence number.
    Batches are framed into the WAL by :func:`repro.durability.wal.frame`;
    replay after a restore skips entries already covered by the snapshot
    (``seq < base_seq``) so a crash between "write checkpoint" and
    "truncate WAL" can never double-fold a batch.

``frequency-session``
    A frequency session: its plan's operating point, ``exact_levels`` and
    seed (enough to rebuild the engine), the engine's ``state_dict`` with
    each level's counters as a raw array -- a sketch level's
    ``depth x width`` table, an exact level's 1-D count vector, stored as
    int32 while every counter is an integer that fits and as float64
    otherwise -- and the same serving metadata (``durable_seq`` etc.).
    Records written before the int32 encoding hold float64 tables and
    restore as before.  A record whose plan
    carries no ``exact_levels`` was written before exact levels existed:
    it decodes as ``exact_levels = 0`` (every level a sketch) and keeps
    restoring bit-identically.

``frequency-wal``
    One appended ``(ids, weights)`` batch with its sequence number; a
    weightless batch stores an empty ``weights`` array.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.core.frequency import FrequencySketch, HierarchicalFrequencySketch
from repro.durability.codec import SchemaError, decode_record, encode_record
from repro.problems.frequency import (
    FrequencyPlan,
    build_frequency_sketch,
    plan_frequency_sketch,
)
from repro.streaming.solver import StreamingSolver

__all__ = [
    "FREQUENCY_SESSION_KIND",
    "FREQUENCY_WAL_KIND",
    "SESSION_KIND",
    "WAL_BATCH_KIND",
    "decode_frequency_wal",
    "decode_wal_batch",
    "deserialize_frequency_session",
    "deserialize_session",
    "encode_frequency_wal",
    "encode_wal_batch",
    "serialize_frequency_session",
    "serialize_session",
]

#: Record kind of a full session checkpoint.
SESSION_KIND = "repro.stream-session"

#: Record kind of one WAL batch entry.
WAL_BATCH_KIND = "repro.wal-batch"

#: Record kinds of a frequency-session checkpoint and of one of its WAL batches.
FREQUENCY_SESSION_KIND = "frequency-session"
FREQUENCY_WAL_KIND = "frequency-wal"

FrequencyEngine = Union[FrequencySketch, HierarchicalFrequencySketch]


def serialize_session(solver: StreamingSolver, session_meta: Optional[dict] = None) -> bytes:
    """Encode a live streaming engine (plus serving metadata) into one record."""
    meta, arrays = solver.state_dict()
    return encode_record(
        SESSION_KIND,
        {"engine": meta, "session": dict(session_meta or {})},
        arrays,
    )


def deserialize_session(blob: bytes, *, executor=None) -> Tuple[StreamingSolver, dict]:
    """Decode a session record back into ``(solver, session_meta)``.

    Raises the codec's typed :class:`~repro.durability.codec.DurabilityError`
    subclasses on any corruption -- the caller's cue to fall back to a fresh
    session rather than serve from damaged state.
    """
    record = decode_record(blob, expect_kind=SESSION_KIND)
    try:
        engine_meta = record.meta["engine"]
        session_meta = dict(record.meta["session"])
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"session record is missing its '{exc}' section") from exc
    solver = StreamingSolver.from_state_dict(engine_meta, record.arrays, executor=executor)
    return solver, session_meta


def encode_wal_batch(seq: int, rows: np.ndarray, targets: np.ndarray) -> bytes:
    """Encode one appended batch as a WAL payload (sequence-numbered)."""
    return encode_record(
        WAL_BATCH_KIND,
        {"seq": int(seq)},
        {
            "rows": np.asarray(rows, dtype=np.float64),
            "targets": np.asarray(targets, dtype=np.float64).ravel(),
        },
    )


def decode_wal_batch(payload: bytes) -> Tuple[int, np.ndarray, np.ndarray]:
    """Decode one WAL payload back into ``(seq, rows, targets)``."""
    record = decode_record(payload, expect_kind=WAL_BATCH_KIND)
    try:
        seq = int(record.meta["seq"])
        rows = record.arrays["rows"]
        targets = record.arrays["targets"]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"WAL batch record is missing its '{exc}' field") from exc
    return seq, rows, targets


#: Exclusive bound on ``items_seen`` for an int32 table: every counter of an
#: integral level has magnitude <= ``items_seen``, so below it each one fits.
_INT32_ITEMS = 2**31


def _encode_engine_state(engine: FrequencyEngine) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Split an engine's ``state_dict`` into JSON meta + raw counter tables.

    A flat engine is one level whose table is stored as ``table``; level
    ``i`` of a hierarchical engine is stored as ``level_<i>`` (a sketch's
    2-D table or an exact level's 1-D count vector).  A level whose
    counters are all integers of magnitude <= ``items_seen`` (its
    ``integral`` flag; unweighted sessions keep it) with ``items_seen``
    below ``2**31`` is stored as int32: half the bytes and half the
    checksum, and the cast back on restore is exact.  The codec's manifest
    records each array's dtype, so no meta field says which.  Otherwise the
    table is the engine's live counters, not a copy: the caller encodes
    them before the engine is written again.
    """
    hierarchical = isinstance(engine, HierarchicalFrequencySketch)
    arrays: Dict[str, np.ndarray] = {}
    levels = []
    for i, sketch in enumerate(engine.levels if hierarchical else (engine,)):
        level = sketch._live_state()
        table = level.pop("table")
        if table is not None:
            if sketch.integral and sketch.items_seen < _INT32_ITEMS:
                table = table.astype(np.int32)
            arrays[f"level_{i}" if hierarchical else "table"] = table
        levels.append(level)
    if hierarchical:
        return {"hierarchical": True, "branch": engine.branch, "levels": levels}, arrays
    return dict(levels[0], hierarchical=False), arrays


def _decode_engine_state(engine: FrequencyEngine, meta: dict, arrays: Dict[str, np.ndarray]) -> None:
    """Rebuild and load the ``state_dict`` the encoder split apart."""
    hierarchical = isinstance(engine, HierarchicalFrequencySketch)
    if bool(meta.get("hierarchical")) != hierarchical:
        raise SchemaError("frequency snapshot is flat/hierarchical but the engine is not")
    if hierarchical:
        levels = [dict(sub, table=arrays.get(f"level_{i}")) for i, sub in enumerate(meta["levels"])]
        engine.load_state({"branch": meta["branch"], "levels": levels})
    else:
        state = {key: value for key, value in meta.items() if key != "hierarchical"}
        engine.load_state(dict(state, table=arrays.get("table")))


def serialize_frequency_session(
    engine: FrequencyEngine, plan: FrequencyPlan, seed: int, session_meta: dict
) -> bytes:
    """Encode a frequency engine, its plan and seed, and serving metadata."""
    state_meta, arrays = _encode_engine_state(engine)
    meta = dict(session_meta)
    meta["seed"] = seed
    meta["plan"] = {
        "domain": plan.domain,
        "phi": plan.phi,
        "delta": plan.delta,
        "branch": plan.branch,
        "need_ranges": plan.hierarchical,
        "max_width": plan.width,
        "exact_levels": plan.exact_levels,
    }
    meta["state"] = state_meta
    return encode_record(FREQUENCY_SESSION_KIND, meta, arrays)


def deserialize_frequency_session(
    blob: bytes, *, executor=None
) -> Tuple[FrequencyEngine, FrequencyPlan, int, dict]:
    """Decode a frequency-session record into ``(engine, plan, seed, meta)``.

    The engine is rebuilt from the recorded plan and seed on ``executor``
    and loaded bit-identically; ``meta`` is the record's serving metadata.
    The recorded ``exact_levels`` overrides the planner's (absent means 0),
    so a restored engine keeps the level layout it was written with.
    Any corruption raises a typed :class:`~repro.durability.codec.DurabilityError`.
    """
    record = decode_record(blob, expect_kind=FREQUENCY_SESSION_KIND)
    meta = record.meta
    try:
        plan_meta = dict(meta["plan"])
        seed = int(meta["seed"])
        plan = plan_frequency_sketch(
            int(plan_meta["domain"]),
            float(plan_meta["phi"]),
            float(plan_meta["delta"]),
            branch=int(plan_meta["branch"]),
            need_ranges=bool(plan_meta["need_ranges"]),
            max_width=int(plan_meta["max_width"]),
        )
        plan = replace(plan, exact_levels=int(plan_meta.get("exact_levels", 0)))
        engine = build_frequency_sketch(plan, executor=executor, seed=seed)
        _decode_engine_state(engine, dict(meta["state"]), record.arrays)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"frequency checkpoint is unreadable: {exc}") from exc
    return engine, plan, seed, meta


def encode_frequency_wal(seq: int, ids: np.ndarray, weights: Optional[np.ndarray]) -> bytes:
    """Encode one appended ``(ids, weights)`` batch as a WAL payload."""
    return encode_record(
        FREQUENCY_WAL_KIND,
        {"seq": int(seq)},
        {"ids": ids, "weights": weights if weights is not None else np.zeros(0)},
    )


def decode_frequency_wal(payload: bytes) -> Tuple[int, np.ndarray, Optional[np.ndarray]]:
    """Decode one WAL payload back into ``(seq, ids, weights)``."""
    record = decode_record(payload, expect_kind=FREQUENCY_WAL_KIND)
    try:
        seq = int(record.meta["seq"])
        ids = record.arrays["ids"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"frequency WAL record is missing its '{exc}' field") from exc
    weights = record.arrays.get("weights")
    return seq, ids, weights if weights is not None and weights.size else None
