"""Session lifetime policies: TTL sweeps, capacity caps, passivation.

The eviction contract has two halves:

* **resource half** -- an evicted session releases its
  :class:`~repro.serving.cache.OperatorCache` pin immediately, the
  ``max_sessions`` cap holds under churn (LRU victim), and every eviction
  is visible in telemetry labelled with its reason;
* **durability half** -- with a durability config an evicted session is
  *passivated* (final checkpoint, resurrect-on-touch, identical answers);
  without one, eviction is terminal and a later touch raises ``KeyError``
  exactly like a closed session.

TTL idleness runs on the pool's makespan (one server-wide simulated clock,
the timeline all serving latencies live on), so the tests age sessions by
doing real work on some shard, not by sleeping.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.durability import DurabilityConfig, MemoryCheckpointStore
from repro.serving import ServerConfig, SketchServer
from repro.serving.streaming import stream_session_cache_key

pytestmark = pytest.mark.serving

N = 8


def _open(server: SketchServer) -> int:
    return server.open_stream(N, mode="sliding", bucket_rows=64,
                              window_buckets=3, detector=False)


def _feed(server: SketchServer, sid: int, *, seed: int = 0, batches: int = 1):
    rng = np.random.default_rng(seed)
    for _ in range(batches):
        rows = rng.standard_normal((32, N))
        server.append_rows(sid, rows, rows @ np.arange(1.0, N + 1))


def _cache_key(server: SketchServer, sid: int):
    solver = server.streams.session(sid).solver
    return stream_session_cache_key(sid, solver.n + 1, solver.k, solver.seed)


# ---------------------------------------------------------------------------
# config surface
# ---------------------------------------------------------------------------
def test_lifetime_config_validation():
    with pytest.raises(ValueError):
        ServerConfig(max_sessions=0)
    with pytest.raises(ValueError):
        ServerConfig(session_ttl_seconds=0.0)
    with pytest.raises(TypeError):
        ServerConfig(durability=object())


# ---------------------------------------------------------------------------
# capacity cap: LRU victim, typed terminal behavior without durability
# ---------------------------------------------------------------------------
def test_capacity_cap_evicts_lru_and_releases_cache_pin():
    server = SketchServer(shards=1, seed=0, max_sessions=2)
    first, second = _open(server), _open(server)
    _feed(server, first, seed=1)  # first is now the *most* recently used
    victim_key = _cache_key(server, second)
    assert server.cache.peek(victim_key) is not None

    third = _open(server)  # over cap: second (LRU) must make room
    assert len(server.streams) == 2
    assert second not in server.streams and first in server.streams and third in server.streams
    assert server.cache.peek(victim_key) is None  # pin released on eviction

    # Without durability the eviction is terminal, like a closed session.
    with pytest.raises(KeyError):
        server.query_solution(second)
    with pytest.raises(KeyError):
        _feed(server, second)

    counts = server.telemetry.eviction_counts()
    assert counts == {"capacity": 1}
    assert server.telemetry.snapshot()["stream_evicted_capacity"] == 1.0


def test_ttl_sweep_runs_on_the_shard_clock():
    server = SketchServer(shards=1, seed=0, session_ttl_seconds=1e-9)
    idle, busy = _open(server), _open(server)
    idle_key = _cache_key(server, idle)
    # Age `idle` by doing real (simulated) work on the shared shard clock.
    _feed(server, busy, seed=2, batches=4)
    assert server.streams.sweep_expired() == 1
    assert idle not in server.streams and busy in server.streams
    assert server.cache.peek(idle_key) is None
    assert server.telemetry.eviction_counts() == {"ttl": 1}

    # Sweeps also run implicitly at every open(): age `busy`, open a new one.
    third = _open(server)
    _feed(server, third, seed=3, batches=4)
    _open(server)  # admission-side sweep fires here
    assert busy not in server.streams and third in server.streams
    assert server.telemetry.eviction_counts() == {"ttl": 2}


def test_ttl_expires_a_session_whose_shard_stays_idle():
    server = SketchServer(shards=2, seed=0, session_ttl_seconds=1e-6)
    busy, idle = _open(server), _open(server)
    shards = {sid: server.streams.session(sid).shard for sid in (busy, idle)}
    assert sorted(shards.values()) == [0, 1]
    idle_clock = server.pool[shards[idle]].elapsed
    _feed(server, busy, seed=8, batches=50)
    # No work landed on the idle session's shard; the pool's makespan moved.
    assert server.pool[shards[idle]].elapsed == idle_clock
    assert server.pool.makespan() - idle_clock > 1e-6
    assert server.streams.sweep_expired() == 1
    assert idle not in server.streams and busy in server.streams
    assert server.telemetry.eviction_counts() == {"ttl": 1}


def test_capacity_victim_is_the_least_recently_touched_on_a_lagging_shard():
    server = SketchServer(shards=2, seed=0, max_sessions=3)
    older, busy, newer = (_open(server) for _ in range(3))
    shards = {sid: server.streams.session(sid).shard for sid in (older, busy, newer)}
    assert shards[older] == shards[newer] != shards[busy]
    _feed(server, busy, seed=4, batches=20)
    # Touch the lagging shard's sessions in reverse insertion order.  Its
    # clock stays below the busy shard's, so all three share one stamp.
    _feed(server, newer, seed=5)
    _feed(server, older, seed=6)
    stamps = {server.streams.session(sid).last_used for sid in (older, busy, newer)}
    assert stamps == {server.pool.makespan()}

    _open(server)  # over cap: `busy` was touched first
    assert busy not in server.streams and older in server.streams and newer in server.streams
    _open(server)  # then `newer`; `older`, the most recent, survives both
    assert newer not in server.streams and older in server.streams
    assert server.telemetry.eviction_counts() == {"capacity": 2}


# ---------------------------------------------------------------------------
# durable half: passivation and resurrection
# ---------------------------------------------------------------------------
def _durable_server(**overrides) -> SketchServer:
    return SketchServer(
        shards=1, seed=0,
        durability=DurabilityConfig(store=MemoryCheckpointStore()),
        **overrides,
    )


def test_durable_eviction_passivates_and_resurrects_identically():
    server = _durable_server()
    sid = _open(server)
    _feed(server, sid, seed=4, batches=3)
    expected = server.query_solution(sid).x
    key = _cache_key(server, sid)

    server.streams.evict(sid, reason="manual")
    assert sid not in server.streams
    assert server.streams.passivated == (sid,)
    assert server.cache.peek(key) is None  # pin released while passivated
    assert server.telemetry.passivated_sessions == 1

    # Touching a passivated session resurrects it transparently...
    response = server.query_solution(sid)
    np.testing.assert_array_equal(response.x, expected)
    assert sid in server.streams and server.streams.passivated == ()
    assert server.telemetry.passivated_sessions == 0
    assert server.cache.peek(key) is not None  # ...and re-pins its operator
    assert server.telemetry.restores == 1

    # Appends keep working across a passivation cycle too.
    server.streams.evict(sid, reason="manual")
    _feed(server, sid, seed=5)
    assert server.query_solution(sid).x is not None


def test_durable_capacity_churn_loses_no_session():
    server = _durable_server(max_sessions=2)
    sessions = []
    for seed in range(4):  # opens 4 sessions through a cap of 2
        sid = _open(server)
        _feed(server, sid, seed=seed)
        sessions.append((sid, server.query_solution(sid).x))
    assert len(server.streams) == 2
    assert len(server.streams.passivated) == 2
    assert server.telemetry.eviction_counts() == {"capacity": 2}

    # Every session -- live or passivated -- still answers, identically.
    for sid, expected in sessions:
        np.testing.assert_array_equal(server.query_solution(sid).x, expected)

    # close() is terminal even for passivated sessions: durable state gone.
    store = server.config.durability.store
    for sid, _ in sessions:
        server.close_stream(sid)
    assert store.keys() == []
    assert server.streams.passivated == ()


def test_ttl_expiry_of_durable_session_is_recoverable():
    server = _durable_server(session_ttl_seconds=1e-9)
    idle, busy = _open(server), _open(server)
    _feed(server, idle, seed=6)
    expected = server.query_solution(idle).x
    _feed(server, busy, seed=7, batches=4)  # ages `idle` past its TTL

    assert server.streams.sweep_expired() == 1
    assert server.streams.passivated == (idle,)
    snapshot = server.telemetry.snapshot()
    assert snapshot["stream_evicted_ttl"] == 1.0
    assert snapshot["durability_passivated_sessions"] == 1.0

    np.testing.assert_array_equal(server.query_solution(idle).x, expected)
