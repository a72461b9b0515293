"""Checkpoint stores, the record codec's typed errors, and fault injection.

Every way storage can betray the durability layer gets a test with an
injected fault (``tests/faults.py``) and an asserted *graceful* outcome:

* structural damage to a record raises the matching typed
  :class:`~repro.durability.codec.DurabilityError` subclass -- truncation,
  checksum, schema -- never a garbage decode;
* a torn or bit-flipped WAL tail costs exactly the tail: replay keeps the
  valid prefix and reports why it stopped;
* at the server level, a corrupt checkpoint turns into a
  ``RestoreReport.failed`` entry plus a fresh-session fallback (the server
  keeps serving; the damaged session is refused, not served wrong), and a
  torn WAL restores to precisely the state the surviving prefix describes.

Both store backends -- in-memory and fsync'd directory -- satisfy the same
contract, so the whole module is parametrized over them.
"""

from __future__ import annotations

import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from faults import (
    corrupt_checkpoint,
    corrupt_wal_frame,
    flip_byte,
    tear_wal_tail,
    torn_tail,
    truncate_checkpoint,
)

from repro.durability import (
    ChecksumError,
    DirectoryCheckpointStore,
    DurabilityConfig,
    MemoryCheckpointStore,
    SchemaError,
    TruncatedRecordError,
)
from repro.durability.codec import MAGIC, decode_record, encode_record
from repro.durability.wal import frame, replay_wal
from repro.serving import SketchServer

pytestmark = pytest.mark.serving


@pytest.fixture(params=["memory", "directory"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryCheckpointStore()
    return DirectoryCheckpointStore(tmp_path / "ckpt")


def _record(seed: int = 0) -> bytes:
    rng = np.random.default_rng(seed)
    return encode_record(
        "test.kind", {"seed": seed}, {"a": rng.standard_normal((4, 3))}
    )


# ---------------------------------------------------------------------------
# store contract
# ---------------------------------------------------------------------------
def test_store_checkpoint_wal_delete_roundtrip(store):
    assert store.read_checkpoint("session-1") is None
    assert store.read_wal("session-1") == b""

    store.write_checkpoint("session-1", b"snapshot")
    store.append_wal("session-1", b"aa")
    store.append_wal("session-1", b"bb")
    assert store.read_checkpoint("session-1") == b"snapshot"
    assert store.read_wal("session-1") == b"aabb"
    assert store.keys() == ["session-1"]

    store.reset_wal("session-1")
    assert store.read_wal("session-1") == b""
    assert store.read_checkpoint("session-1") == b"snapshot"  # untouched

    store.delete("session-1")
    assert store.read_checkpoint("session-1") is None
    assert store.keys() == []


def test_memory_wal_append_does_not_copy_the_log():
    store = MemoryCheckpointStore()
    head = b"x" * (8 << 20)
    store.append_wal("s", head)
    tracemalloc.start()
    try:
        for _ in range(4):
            store.append_wal("s", b"y" * 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # an 8 MiB log is never rebuilt per append
    assert store.read_wal("s") == head + b"y" * 64
    assert store.read_wal("s") == head + b"y" * 64
    store.append_wal("s", b"z")
    assert store.read_wal("s") == head + b"y" * 64 + b"z"
    store.reset_wal("s")
    assert store.read_wal("s") == b"" and store.keys() == ["s"]
    store.append_wal("s", b"a")
    store.append_wal("s", b"b")
    assert store.read_wal("s") == b"ab"
    store.delete("s")
    assert store.read_wal("s") == b"" and store.keys() == []


def test_store_rejects_unsafe_keys(store):
    for bad in ("", "a/b", "..", "a b", "a\x00b"):
        with pytest.raises(ValueError):
            store.write_checkpoint(bad, b"x")


def test_directory_store_survives_reopen(tmp_path):
    first = DirectoryCheckpointStore(tmp_path / "ckpt")
    first.write_checkpoint("session-0", b"snap")
    first.append_wal("session-0", b"tail")
    reopened = DirectoryCheckpointStore(tmp_path / "ckpt")
    assert reopened.read_checkpoint("session-0") == b"snap"
    assert reopened.read_wal("session-0") == b"tail"
    assert reopened.keys() == ["session-0"]


def test_durability_config_validation(store):
    with pytest.raises(TypeError):
        DurabilityConfig(store=object())
    with pytest.raises(ValueError):
        DurabilityConfig(store=store, checkpoint_interval_batches=0)


# ---------------------------------------------------------------------------
# codec typed errors: every corruption is classified, never mis-decoded
# ---------------------------------------------------------------------------
def test_one_pass_encoding_matches_the_concatenated_layout():
    # The record is prefix + header + each array's C-order bytes + CRC32 of
    # all of it; the incremental CRC over zero-copy views must equal it.
    arrays = {
        "f64": np.arange(12.0).reshape(3, 4),
        "strided": np.arange(12, dtype=np.int16).reshape(3, 4).T,
        "flags": np.array([True, False, True]),
        "scalar": np.float32(2.5),
        "empty": np.zeros((0, 3)),
    }
    blob = encode_record("test.kind", {"n": 1}, arrays)
    body = blob[:-4]
    assert struct.unpack("<I", blob[-4:])[0] == zlib.crc32(body)
    payload = b"".join(np.ascontiguousarray(a).tobytes() for a in arrays.values())
    assert body.endswith(payload)
    decoded = decode_record(blob, expect_kind="test.kind")
    for name, value in arrays.items():
        np.testing.assert_array_equal(decoded.arrays[name], np.ascontiguousarray(value))


def test_truncated_record_is_typed():
    blob = _record()
    for keep in (0, 3, len(blob) // 2, len(blob) - 1):
        with pytest.raises(TruncatedRecordError):
            decode_record(blob[:keep])


def test_flipped_payload_byte_is_a_checksum_error():
    with pytest.raises(ChecksumError):
        decode_record(flip_byte(_record()))


def test_foreign_magic_and_trailing_bytes_are_schema_errors():
    with pytest.raises(SchemaError):
        decode_record(b"JUNK" + _record()[4:])
    with pytest.raises(SchemaError):
        decode_record(_record() + b"extra")
    with pytest.raises(SchemaError):
        decode_record(_record(), expect_kind="other.kind")


def test_future_schema_version_is_refused():
    blob = bytearray(_record())
    blob[len(MAGIC)] = 0xFF  # bump the little-endian u16 version field
    with pytest.raises(SchemaError):
        decode_record(bytes(blob))


# ---------------------------------------------------------------------------
# WAL replay: a damaged tail costs exactly the tail
# ---------------------------------------------------------------------------
def test_torn_wal_tail_keeps_the_valid_prefix():
    payloads = [b"first", b"second", b"third"]
    blob = b"".join(frame(p) for p in payloads)
    for drop in (1, len(b"third"), len(frame(b"third")) - 1):
        replay = replay_wal(torn_tail(blob, drop))
        assert replay.payloads == [b"first", b"second"]
        assert not replay.clean and replay.reason == "torn"
        assert replay.dropped_bytes == len(frame(b"third")) - drop


def test_corrupt_wal_frame_stops_replay_at_the_flip():
    blob = frame(b"first") + frame(b"second")
    replay = replay_wal(flip_byte(blob))  # flip lands inside "second"
    assert replay.payloads == [b"first"]
    assert replay.reason == "checksum"
    with pytest.raises(ChecksumError):
        replay_wal(flip_byte(blob), strict=True)


# ---------------------------------------------------------------------------
# server-level graceful degradation
# ---------------------------------------------------------------------------
N = 8


def _crashed_session(store, *, batches: int = 7, interval: int = 5):
    """A durable session's store state after a kill with a live WAL tail."""
    server = SketchServer(
        shards=1, seed=2,
        durability=DurabilityConfig(store=store, checkpoint_interval_batches=interval),
    )
    sid = server.open_stream(N, mode="sliding", bucket_rows=64,
                             window_buckets=3, detector=False)
    rng = np.random.default_rng(0)
    fed = []
    for _ in range(batches):
        rows = rng.standard_normal((32, N))
        targets = rows @ np.arange(1.0, N + 1)
        server.append_rows(sid, rows, targets)
        fed.append((rows, targets))
    return server, sid, fed


@pytest.mark.parametrize("damage", ["bitflip", "truncate"])
def test_corrupt_checkpoint_fails_typed_and_falls_back_fresh(store, damage):
    server, sid, _ = _crashed_session(store)
    del server
    if damage == "bitflip":
        corrupt_checkpoint(store, f"session-{sid}")
        expected = "ChecksumError"
    else:
        truncate_checkpoint(store, f"session-{sid}", keep=10)
        expected = "TruncatedRecordError"

    recovered = SketchServer(
        shards=1, seed=2, durability=DurabilityConfig(store=store)
    )
    report = recovered.restore()
    assert not report.ok
    assert report.restored == {}
    assert report.failed[sid].startswith(expected)
    assert recovered.telemetry.corrupt_checkpoints == 1

    # Never a wrong answer: the damaged session is refused outright...
    with pytest.raises(KeyError):
        recovered.query_solution(sid)
    # ...and the fallback is a working server: fresh sessions serve fine.
    fresh = recovered.open_stream(N, mode="sliding", bucket_rows=64,
                                  window_buckets=3, detector=False)
    rows = np.random.default_rng(1).standard_normal((32, N))
    recovered.append_rows(fresh, rows, rows @ np.arange(1.0, N + 1))
    assert recovered.query_solution(fresh).x is not None


def test_torn_wal_tail_restores_exactly_the_surviving_prefix(store):
    server, sid, fed = _crashed_session(store, batches=8, interval=5)
    del server
    tear_wal_tail(store, f"session-{sid}", drop=3)  # tears the last frame

    recovered = SketchServer(
        shards=1, seed=2, durability=DurabilityConfig(store=store)
    )
    report = recovered.restore()
    # 8 appends, checkpoint at 5, WAL held batches 6-8; the torn frame costs
    # exactly the last one.
    assert report.ok and report.restored == {sid: 2}
    assert recovered.telemetry.wal_truncations == 1

    # The recovered answer equals a clean server fed only the surviving
    # 7 batches -- degraded by exactly the acknowledged-but-torn tail,
    # never wrong about what it kept.
    reference = SketchServer(shards=1, seed=2)
    ref_sid = reference.open_stream(N, mode="sliding", bucket_rows=64,
                                    window_buckets=3, detector=False)
    for rows, targets in fed[:-1]:
        reference.append_rows(ref_sid, rows, targets)
    np.testing.assert_array_equal(
        recovered.query_solution(sid).x, reference.query_solution(ref_sid).x
    )


def test_corrupt_wal_frame_is_survivable_too(store):
    server, sid, fed = _crashed_session(store, batches=7, interval=5)
    del server
    corrupt_wal_frame(store, f"session-{sid}")  # latent flip in the last frame

    recovered = SketchServer(
        shards=1, seed=2, durability=DurabilityConfig(store=store)
    )
    report = recovered.restore()
    assert report.ok and report.restored == {sid: 1}  # kept batch 6, lost 7
    assert recovered.telemetry.wal_truncations == 1
    assert recovered.query_solution(sid).x is not None
