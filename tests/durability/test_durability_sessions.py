"""One session lifecycle for both session kinds (repro.serving.sessions).

Stream sessions and frequency sessions share one table per server, so the
``max_sessions`` cap, the TTL sweep, LRU victim choice, passivation and
resurrection bound and serve the *mixed* population.  The contracts here:

* the live count never exceeds the cap -- not on open, and not on the
  resurrection of a passivated session either;
* the LRU victim is chosen across kinds, and every session, live or
  passivated, answers bit-identically to an uncapped twin;
* a batch the engine refuses never reaches the WAL, so ``restore()`` stays
  clean after rejected appends;
* the concurrent runtime serves passivated sessions of both kinds;
* the durable formats are byte-for-byte those of earlier releases, except
  the frequency checkpoint, which gained exact hierarchy levels and stores
  integral counter tables as int32 (digested beside the others) -- and a
  store written before either still restores with the same answers.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.durability import DirectoryCheckpointStore, DurabilityConfig, MemoryCheckpointStore
from repro.serving import AsyncSketchServer, SketchServer

pytestmark = pytest.mark.serving

N = 6
DOMAIN = 1 << 10


def _durable(store=None, **overrides) -> SketchServer:
    store = store if store is not None else MemoryCheckpointStore()
    return SketchServer(shards=1, seed=0, durability=DurabilityConfig(store=store), **overrides)


def _open_stream(server) -> int:
    return server.open_stream(N, mode="sliding", bucket_rows=32, window_buckets=3, detector=False)


def _open_freq(server) -> int:
    return server.open_frequency_stream(DOMAIN, phi=0.05, need_ranges=True)


def _rows(seed: int):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((24, N))
    return rows, rows @ np.arange(1.0, N + 1) + 0.01 * rng.standard_normal(24)


def _ids(seed: int):
    return np.random.default_rng(seed).zipf(1.3, 300) % DOMAIN


def _live(server) -> int:
    return len(server.streams) + len(server.frequencies)


def _passivated(server):
    return server.streams.passivated + server.frequencies.passivated


# ---------------------------------------------------------------------------
# one table: cap, LRU across kinds, resurrection through admission
# ---------------------------------------------------------------------------
def test_resurrection_goes_through_admission():
    server = _durable(max_sessions=1)
    first, second = _open_stream(server), _open_stream(server)
    for step in range(4):  # open, open, then touch/touch churn
        sid = (first, second)[step % 2]
        server.append_rows(sid, *_rows(step))
        assert _live(server) <= 1
    assert server.query_solution(first).x is not None
    assert _live(server) == 1
    assert server.telemetry.passivated_sessions == len(_passivated(server)) == 1


def _mixed_workload(server, checks=None):
    """Interleave three stream and three frequency sessions; returns their ids."""
    checks = checks or (lambda step: None)
    s0 = _open_stream(server)
    server.append_rows(s0, *_rows(0))
    f0 = _open_freq(server)
    server.append_items(f0, _ids(0))
    s1 = _open_stream(server)
    server.append_rows(s1, *_rows(1))
    server.append_rows(s0, *_rows(2))  # f0 is now least recently used
    checks("full")
    s2 = _open_stream(server)
    checks("stream open evicts the LRU frequency session")
    server.append_items(f0, _ids(1))  # resurrects f0
    checks("frequency resurrection evicts the LRU stream session")
    f1 = _open_freq(server)
    server.append_items(f1, _ids(2))
    f2 = _open_freq(server)
    server.append_items(f2, _ids(3))
    for step, sid in enumerate((s0, s1, s2)):
        server.append_rows(sid, *_rows(10 + step))
        checks(f"append to stream {sid}")
    for step, fid in enumerate((f0, f1, f2)):
        server.append_items(fid, _ids(10 + step), np.full(300, 0.5))
        checks(f"append to frequency session {fid}")
    return (s0, s1, s2), (f0, f1, f2)


def test_mixed_population_is_bounded_across_kinds():
    cap = 3
    server = _durable(max_sessions=cap)
    seen = {}

    def checks(step):
        assert _live(server) <= cap, step
        assert server.telemetry.passivated_sessions == len(_passivated(server)), step
        seen[step] = (server.streams.passivated, server.frequencies.passivated)

    streams, freqs = _mixed_workload(server, checks)
    assert seen["full"] == ((), ())
    # The LRU victim is chosen across kinds, in both directions.
    assert seen["stream open evicts the LRU frequency session"] == ((), (freqs[0],))
    assert seen["frequency resurrection evicts the LRU stream session"] == ((streams[1],), ())

    twin = _durable()
    assert _mixed_workload(twin) == (streams, freqs)
    assert _live(twin) == 6 and _passivated(twin) == ()
    for sid in streams:  # live or passivated, each answers like the twin
        np.testing.assert_array_equal(server.query_solution(sid).x, twin.query_solution(sid).x)
        assert _live(server) <= cap
    for fid in freqs:
        assert server.query_heavy_hitters(fid, k=8).value == twin.query_heavy_hitters(fid, k=8).value
        assert server.query_range(fid, 3, 700).value == twin.query_range(fid, 3, 700).value
        np.testing.assert_array_equal(
            server.query_point(fid, [0, 1, 2, 5]).value, twin.query_point(fid, [0, 1, 2, 5]).value
        )
        assert _live(server) <= cap
    assert server.telemetry.passivated_sessions == len(_passivated(server)) == 3


@pytest.mark.parametrize("next_kind", ["stream", "frequency"])
def test_idle_frequency_session_expires_on_next_open_of_either_kind(next_kind):
    server = _durable(session_ttl_seconds=1e-9)
    idle = _open_freq(server)
    server.append_items(idle, _ids(0))
    expected = server.query_heavy_hitters(idle, k=8).value
    busy = _open_stream(server)
    server.append_rows(busy, *_rows(1))  # ages `idle` on the shared shard clock
    (_open_stream if next_kind == "stream" else _open_freq)(server)
    assert idle not in server.frequencies
    assert server.frequencies.passivated == (idle,)
    assert server.telemetry.eviction_counts()["ttl"] >= 1
    assert server.query_heavy_hitters(idle, k=8).value == expected


def test_closing_a_passivated_frequency_session_deletes_its_state():
    store = MemoryCheckpointStore()
    server = _durable(store)
    fid = _open_freq(server)
    server.append_items(fid, _ids(0))
    server.frequencies.evict(fid)
    assert server.frequencies.passivated == (fid,)
    stats = server.close_frequency_stream(fid)
    assert stats["items_seen"] == 300.0 and stats["session_id"] == float(fid)
    assert f"freq-session-{fid}" not in store.keys()
    assert server.frequencies.passivated == () and server.telemetry.passivated_sessions == 0
    with pytest.raises(KeyError):
        server.query_norm(fid)


# ---------------------------------------------------------------------------
# write-ahead only what the engine accepts
# ---------------------------------------------------------------------------
def test_rejected_frequency_appends_never_reach_the_wal():
    store = MemoryCheckpointStore()
    server = _durable(store)
    fid = server.open_frequency_stream(DOMAIN, phi=0.05)
    server.append_items(fid, [1, 2, 3])
    with pytest.raises(ValueError):
        server.append_items(fid, [5, DOMAIN * 2])  # id out of the domain
    with pytest.raises(ValueError):
        server.append_items(fid, np.arange(10), np.ones(3))  # weight count mismatch
    server.append_items(fid, [4, 4], [2.0, 3.0])
    expected = server.query_point(fid, [1, 2, 3, 4, 5]).value

    recovered = _durable(store)
    report = recovered.restore()
    assert report.ok and report.restored == {fid: 2}
    np.testing.assert_array_equal(recovered.query_point(fid, [1, 2, 3, 4, 5]).value, expected)


def test_fractional_item_ids_are_refused_before_the_wal():
    store = MemoryCheckpointStore()
    server = _durable(store)
    fid = server.open_frequency_stream(DOMAIN, phi=0.05)
    server.append_items(fid, [3, 5])
    wal = store.read_wal(f"freq-session-{fid}")
    for bad in ([3.7, 3.2, 5.9], [np.nan], [1.0, np.inf]):
        with pytest.raises(ValueError, match="item ids must be integers"):
            server.append_items(fid, np.array(bad))
    assert store.read_wal(f"freq-session-{fid}") == wal
    server.append_items(fid, np.array([3.0, 5.0]))  # integral floats are ids
    expected = server.query_point(fid, [3, 5]).value
    np.testing.assert_array_equal(expected, [2.0, 2.0])

    recovered = _durable(store)
    report = recovered.restore()
    assert report.ok and report.restored == {fid: 2}
    np.testing.assert_array_equal(recovered.query_point(fid, [3, 5]).value, expected)


# ---------------------------------------------------------------------------
# the concurrent runtime serves passivated sessions
# ---------------------------------------------------------------------------
def _runtime_answers(max_sessions):
    runtime = AsyncSketchServer(
        shards=1, workers=1, seed=0, max_sessions=max_sessions,
        durability=DurabilityConfig(store=MemoryCheckpointStore()),
    )
    try:
        sid = runtime.open_stream(N, mode="sliding", bucket_rows=32, window_buckets=3, detector=False)
        runtime.open_stream(N)  # a cap of one passivates `sid` here
        fid = runtime.open_frequency_stream(DOMAIN, phi=0.05, need_ranges=True)
        runtime.open_frequency_stream(DOMAIN)  # ... and `fid` here
        futures = []
        for step in range(3):  # each call touches the session the cap passivated
            futures.append(runtime.append_rows(sid, *_rows(step)))
            futures.append(runtime.append_items(fid, _ids(step)))
        futures.append(runtime.query_solution(sid))
        futures.append(runtime.query_heavy_hitters(fid, k=8))
        futures.append(runtime.query_range(fid, 3, 700))
        results = [future.result(timeout=60) for future in futures]
        evictions = runtime.server.telemetry.eviction_counts()
    finally:
        runtime.stop()
    return results[-3].x, results[-2].value, results[-1].value, evictions


def test_runtime_serves_passivated_sessions_like_a_never_evicted_twin():
    x, hitters, weight, evictions = _runtime_answers(max_sessions=1)
    twin_x, twin_hitters, twin_weight, twin_evictions = _runtime_answers(max_sessions=None)
    assert evictions.get("capacity", 0) >= 9 and not twin_evictions
    np.testing.assert_array_equal(x, twin_x)
    assert hitters == twin_hitters and weight == twin_weight


def test_runtime_resurrection_under_contention_loses_no_batch():
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runtime = AsyncSketchServer(
            shards=2, workers=4, seed=0, max_sessions=2, queue_depth=256,
            durability=DurabilityConfig(store=MemoryCheckpointStore()),
        )
        try:
            fids = [runtime.open_frequency_stream(DOMAIN, phi=0.05) for _ in range(4)]
            futures = [
                runtime.append_items(fid, _ids(10 * step + i))
                for step in range(6)
                for i, fid in enumerate(fids)
            ]
            for future in futures:
                future.result(timeout=60)
            live = len(runtime.server.sessions)
            norms = [runtime.query_norm(fid).result(timeout=60).value for fid in fids]
        finally:
            runtime.stop()
    finally:
        sys.setswitchinterval(switch)
    assert live <= 2
    twin = _durable()
    expected = []
    for i in range(4):
        fid = twin.open_frequency_stream(DOMAIN, phi=0.05)
        for step in range(6):
            twin.append_items(fid, _ids(10 * step + i))
        expected.append(twin.query_norm(fid).value)
    assert norms == expected


# ---------------------------------------------------------------------------
# durable formats are unchanged byte for byte
# ---------------------------------------------------------------------------
#: SHA-256 of the checkpoint blob and of the framed WAL of one fixed-seed
#: session of each kind, as written by the release before the session
#: lifecycle was shared.  A change here breaks stores written earlier.  The
#: frequency checkpoint is the one exception: it now records the plan's
#: ``exact_levels`` and stores exact levels as count vectors; stores from
#: before keep restoring (test_legacy_frequency_store_still_restores).
GOLDEN_DIGESTS = {
    "stream_wal": "533c302dc7bd2b87ce34cc1dc2fcec488cb2c2b2db18a255cf6745880f3c93ed",
    "freq_wal": "28d417a1c9e4aaaa467da3699e8f3cae8647d277a3b6583518e9680a8d40d491",
    "stream_checkpoint": "a62db7a94a7d00b5546fb554b3ab04f5835048062098b1dee58c05f20c4f717f",
    "freq_checkpoint": "680beae822ac334dcb8afc094dab4bc5ae248b6b631b0a1708ae8cf56ef5625d",
}


def test_checkpoint_and_wal_bytes_match_the_golden_digests():
    store = MemoryCheckpointStore()
    server = SketchServer(
        shards=2, seed=7,
        durability=DurabilityConfig(store=store, checkpoint_interval_batches=100),
    )
    sid = server.open_stream(6, mode="sliding", bucket_rows=32, window_buckets=3,
                             detector=False, seed=11)
    fid = server.open_frequency_stream(1 << 10, phi=0.05, need_ranges=True, seed=13)
    rng = np.random.default_rng(5)
    for i in range(3):
        rows = rng.standard_normal((24, 6))
        server.append_rows(sid, rows, rows @ np.arange(1.0, 7.0))
        ids = rng.integers(0, 1 << 10, 200)
        server.append_items(fid, ids, None if i % 2 else rng.random(200))

    def digest(blob: bytes) -> str:
        return hashlib.sha256(blob).hexdigest()

    got = {
        "stream_wal": digest(store.read_wal(f"session-{sid}")),
        "freq_wal": digest(store.read_wal(f"freq-session-{fid}")),
    }
    server.save()
    got["stream_checkpoint"] = digest(store.read_checkpoint(f"session-{sid}"))
    got["freq_checkpoint"] = digest(store.read_checkpoint(f"freq-session-{fid}"))
    assert got == GOLDEN_DIGESTS


#: SHA-256 of a unit-weight frequency session's checkpoint.  Its counters
#: are all integers, so every level is stored as int32; the mixed-weight
#: session above keeps float64 tables and its digest.
INT32_GOLDEN_DIGESTS = {
    "freq_checkpoint_unit_weight": "b6d7e6462193539f1d875393a6fe7749f38aec9f98ba6a06f4fed2ad16693bd1",
}


def test_unit_weight_frequency_checkpoint_matches_its_golden_digest():
    store = MemoryCheckpointStore()
    server = SketchServer(
        shards=2, seed=7,
        durability=DurabilityConfig(store=store, checkpoint_interval_batches=100),
    )
    fid = server.open_frequency_stream(1 << 10, phi=0.05, need_ranges=True, seed=13)
    rng = np.random.default_rng(5)
    for _ in range(3):
        server.append_items(fid, rng.integers(0, 1 << 10, 200))
    server.save()
    blob = store.read_checkpoint(f"freq-session-{fid}")
    got = {"freq_checkpoint_unit_weight": hashlib.sha256(blob).hexdigest()}
    assert got == INT32_GOLDEN_DIGESTS


# ---------------------------------------------------------------------------
# a frequency store written before exact hierarchy levels still restores
# ---------------------------------------------------------------------------
DATA = Path(__file__).parent / "data"


def test_legacy_frequency_store_still_restores(tmp_path):
    # The store (checkpoint + one WAL batch past it) and the answers were
    # written by the release before exact levels; see data/README.md.  Its
    # record carries no exact_levels, so it restores all-sketch, although
    # the planner now counts this plan's two upper levels exactly.
    expected = json.loads((DATA / "legacy_frequency_answers.json").read_text())
    shutil.copytree(DATA / "legacy_frequency_store", tmp_path / "store")
    server = SketchServer(
        shards=1, seed=0, durability=DurabilityConfig(store=DirectoryCheckpointStore(tmp_path / "store"))
    )
    report = server.restore()
    assert report.ok
    fid = expected["session_id"]
    session = server.frequencies.session(fid)
    assert session.engine.exact_levels == 0 and session.stats()["exact_levels"] == 0.0
    assert server.query_norm(fid).value == expected["norm"]
    top_k = server.query_heavy_hitters(fid, k=4, phi=0.1).value
    assert [[i, v] for i, v in top_k] == expected["top_k"]
    for lo, hi, weight in expected["ranges"]:
        assert server.query_range(fid, lo, hi).value == weight
    ids, points = expected["points"]
    assert server.query_point(fid, ids).value.tolist() == points
