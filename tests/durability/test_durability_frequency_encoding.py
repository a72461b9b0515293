"""Frequency checkpoints store integral counter tables as int32.

A frequency level whose counters are all integers of magnitude at most
``items_seen`` (its ``integral`` flag: unweighted updates keep it; weighted
updates, ``scale()`` and merges with a non-integral level clear it) is
written as int32 while ``items_seen < 2**31``; every other level is written
as float64, as before.  The codec's manifest records each array's dtype, so
the restore casts back without a meta field, and int32 -> float64 is exact.
Every case here checks that the restored engine equals the saved one bit
for bit and answers every query identically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.frequency import (
    ExactFrequencyLevel,
    HierarchicalFrequencySketch,
    _integral_counters,
)
from repro.durability import DurabilityConfig, MemoryCheckpointStore
from repro.durability.codec import decode_record, encode_record
from repro.durability.session import (
    FREQUENCY_SESSION_KIND,
    deserialize_frequency_session,
    serialize_frequency_session,
)
from repro.problems.frequency import build_frequency_sketch, plan_frequency_sketch
from repro.serving import SketchServer

DOMAIN = 1 << 12
SEED = 3


def _engine(need_ranges: bool = True):
    plan = plan_frequency_sketch(DOMAIN, 0.05, need_ranges=need_ranges)
    return plan, build_frequency_sketch(plan, seed=SEED)


def _levels(engine):
    return engine.levels if isinstance(engine, HierarchicalFrequencySketch) else (engine,)


def _counters(level) -> np.ndarray:
    return level.counts() if isinstance(level, ExactFrequencyLevel) else level.table()


def _answers(engine) -> list:
    out = [engine.point_query(np.arange(DOMAIN)).tobytes(), engine.l2_estimate()]
    if isinstance(engine, HierarchicalFrequencySketch):
        out += [engine.top_k(5, 0.05), engine.range_query(3, 3000)]
    return out


def _round_trip(plan, engine):
    """Serialize and restore ``engine``; returns ``(restored, stored dtypes)``."""
    blob = serialize_frequency_session(engine, plan, SEED, {"durable_seq": 0})
    dtypes = {arr.dtype.str for arr in decode_record(blob).arrays.values()}
    restored, _plan, _seed, _meta = deserialize_frequency_session(blob)
    for mine, theirs in zip(_levels(restored), _levels(engine)):
        assert _counters(mine).dtype == np.float64
        assert _counters(mine).tobytes() == _counters(theirs).tobytes()
        assert mine.items_seen == theirs.items_seen
        # load_state recomputes the flag from the counters: an integral
        # level stays integral, and integral weights may earn it back.
        assert mine.integral >= theirs.integral
    assert _answers(restored) == _answers(engine)
    return restored, dtypes


def _ids(i: int, n: int = 3000) -> np.ndarray:
    return np.random.default_rng(i).zipf(1.3, n) % DOMAIN


def _unit(engine, other) -> None:
    for i in range(3):
        engine.update(_ids(i))


def _integral_weights(engine, other) -> None:
    engine.update(_ids(0))
    engine.update(_ids(1), np.full(3000, 2.0))


def _fractional_weights(engine, other) -> None:
    engine.update(_ids(0), np.random.default_rng(9).random(3000))


def _merge_integral(engine, other) -> None:
    engine.update(_ids(0))
    other.update(_ids(1))
    engine.merge_from(other)


def _merge_fractional(engine, other) -> None:
    engine.update(_ids(0))
    other.update(_ids(1), np.full(3000, 0.25))
    engine.merge_from(other)


def _scaled(engine, other) -> None:
    engine.update(_ids(0))
    engine.scale(2.0)


HISTORIES = {
    "unit_weights": (_unit, "<i4"),
    "integral_weights": (_integral_weights, "<f8"),
    "fractional_weights": (_fractional_weights, "<f8"),
    "merge_of_integral_sketches": (_merge_integral, "<i4"),
    "merge_with_fractional_sketch": (_merge_fractional, "<f8"),
    "scaled": (_scaled, "<f8"),
}


@pytest.mark.parametrize("need_ranges", [True, False], ids=["hierarchical", "flat"])
@pytest.mark.parametrize("history", sorted(HISTORIES))
def test_restore_is_bit_identical_in_either_encoding(history, need_ranges):
    drive, stored = HISTORIES[history]
    plan, engine = _engine(need_ranges)
    _plan, other = _engine(need_ranges)
    drive(engine, other)
    _restored, dtypes = _round_trip(plan, engine)
    assert dtypes == {stored}


def test_int32_halves_the_counter_bytes():
    plan, engine = _engine()
    _unit(engine, None)
    unit_blob = serialize_frequency_session(engine, plan, SEED, {})
    engine.scale(1.0)  # same counters, flag cleared
    float_blob = serialize_frequency_session(engine, plan, SEED, {})
    counter_bytes = sum(_counters(level).nbytes for level in engine.levels)
    assert len(float_blob) - len(unit_blob) == counter_bytes // 2


def test_items_seen_at_2_pow_31_keeps_float64():
    plan, engine = _engine()
    _unit(engine, None)
    state = engine.state_dict()
    for level in state["levels"]:
        level["items_seen"] = 2**31
    _plan, crafted = _engine()
    crafted.load_state(state)
    assert all(level.integral for level in crafted.levels)  # counters <= items_seen
    restored, dtypes = _round_trip(plan, crafted)
    assert dtypes == {"<f8"}
    assert restored.items_seen == 2**31
    # Just below the bound the same counters go int32.
    for level in state["levels"]:
        level["items_seen"] = 2**31 - 1
    crafted.load_state(state)
    assert _round_trip(plan, crafted)[1] == {"<i4"}


def test_a_negated_flat_sketch_keeps_its_negative_zeros_across_two_restores():
    """A flat table scaled by -1 holds -0.0 counters, so it is not integral:
    a restore must not earn it the int32 encoding, whose next restore would
    turn every -0.0 into +0.0."""
    plan, engine = _engine(need_ranges=False)
    engine.update(np.array([1, 2, 3]))
    engine.scale(-1.0)
    signs = np.signbit(engine.table())
    assert signs[engine.table() == 0].any()
    restored, dtypes = _round_trip(plan, engine)
    assert dtypes == {"<f8"} and not restored.integral
    again, dtypes = _round_trip(plan, restored)
    assert dtypes == {"<f8"}
    assert np.array_equal(np.signbit(again.table()), signs)


def _small_ints(shape) -> np.ndarray:
    return np.random.default_rng(0).integers(-40, 41, shape, dtype=np.int32)


def _int32_min(shape) -> np.ndarray:
    table = np.zeros(shape, dtype=np.int32)
    table.flat[7] = -(2**31)  # np.abs of this int32 overflows back to -2**31
    return table


#: Payload per restored table, ``items_seen`` per level, and the flag it earns.
PAYLOADS = {
    "int32": (_small_ints, 100, True),
    "int32_over_items_seen": (lambda shape: np.full(shape, -41, dtype=np.int32), 40, False),
    "int32_min_with_small_items_seen": (_int32_min, 5, False),
    "integral_float64": (lambda shape: _small_ints(shape).astype(np.float64), 100, True),
    "fractional_float64": (lambda shape: np.random.default_rng(0).random(shape), 100, False),
}


@pytest.mark.parametrize("need_ranges", [True, False], ids=["hierarchical", "flat"])
@pytest.mark.parametrize("payload", sorted(PAYLOADS))
def test_restored_integral_flag_matches_the_decoded_table(payload, need_ranges):
    """The restored flag is the integral check of the decoded table."""
    fill, items_seen, expected = PAYLOADS[payload]
    plan, engine = _engine(need_ranges)
    _unit(engine, None)
    record = decode_record(serialize_frequency_session(engine, plan, SEED, {}))
    state = record.meta["state"]
    for level in state["levels"] if state["hierarchical"] else (state,):
        level["items_seen"] = items_seen
    arrays = {name: fill(arr.shape) for name, arr in record.arrays.items()}
    blob = encode_record(FREQUENCY_SESSION_KIND, record.meta, arrays)
    restored, _plan, _seed, _meta = deserialize_frequency_session(blob)
    for level in _levels(restored):
        assert _counters(level).dtype == np.float64
        assert level.integral == _integral_counters(_counters(level), items_seen) == expected


@pytest.mark.parametrize("need_ranges", [True, False], ids=["hierarchical", "flat"])
def test_int32_and_float64_records_of_one_engine_restore_alike(need_ranges):
    """An int32 table skips the fraction and ``-0.0`` checks on restore; its
    engine must come back exactly like one restored from float64 counters."""
    plan, engine = _engine(need_ranges)
    _unit(engine, None)
    record = decode_record(serialize_frequency_session(engine, plan, SEED, {}))
    assert {arr.dtype.str for arr in record.arrays.values()} == {"<i4"}
    as_float = {name: arr.astype(np.float64) for name, arr in record.arrays.items()}
    restored = [
        deserialize_frequency_session(encode_record(FREQUENCY_SESSION_KIND, record.meta, arrays))[0]
        for arrays in (record.arrays, as_float)
    ]
    from_int, from_float = (_levels(r) for r in restored)
    assert [level.integral for level in from_int] == [level.integral for level in from_float]
    assert all(level.integral for level in from_int)
    for mine, theirs in zip(from_int, from_float):
        assert _counters(mine).tobytes() == _counters(theirs).tobytes()
    assert _answers(restored[0]) == _answers(restored[1]) == _answers(engine)


def test_unit_weight_session_restores_through_the_server():
    store = MemoryCheckpointStore()
    server = SketchServer(shards=2, seed=0, durability=DurabilityConfig(store=store))
    fid = server.open_frequency_stream(DOMAIN, phi=0.05, need_ranges=True, seed=SEED)
    for i in range(5):
        server.append_items(fid, _ids(i))
    server.save()
    record = decode_record(store.read_checkpoint(f"freq-session-{fid}"))
    assert {arr.dtype.str for arr in record.arrays.values()} == {"<i4"}
    server.append_items(fid, _ids(5))  # one batch past the checkpoint: WAL replay
    expected = (
        server.query_heavy_hitters(fid, k=5).value,
        server.query_range(fid, 3, 3000).value,
        server.query_norm(fid).value,
    )
    fresh = SketchServer(shards=2, seed=0, durability=DurabilityConfig(store=store))
    report = fresh.restore()
    assert report.ok and report.restored == {fid: 1}
    assert (
        fresh.query_heavy_hitters(fid, k=5).value,
        fresh.query_range(fid, 3, 3000).value,
        fresh.query_norm(fid).value,
    ) == expected
