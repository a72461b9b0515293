"""The session lifecycle shared by every session kind the server hosts.

Stream sessions (:mod:`repro.serving.streaming`) and frequency sessions
(:mod:`repro.serving.frequency`) both fold batches into a sketch pinned to a
shard, and both live the same life, owned here once:

* **One table per server.**  :class:`SessionTable` holds every session of
  every kind, so ``max_sessions``, the TTL sweep (idleness on each
  session's own shard clock) and LRU eviction bound the whole population.
  Opening *and* resurrecting a session first makes room under them.
* **Write-ahead before fold.**  A batch is validated, framed into the
  session's WAL and only then folded: a crash can only lose work the caller
  was never told succeeded, and a batch the engine refuses never reaches
  the log.
* **Checkpoint and restore.**  Every ``checkpoint_interval_batches``
  appends the engine is snapshotted and the WAL reset.  Restore decodes the
  last snapshot, replays the WAL tail exactly once (sequence numbers skip
  what the snapshot covers), re-pins the session and re-checkpoints it.  An
  evicted durable session is *passivated* (final checkpoint, memory freed)
  and resurrected on its next touch; without durability eviction is
  terminal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from repro.durability.codec import DurabilityError, SchemaError
from repro.durability.wal import frame, replay_wal

__all__ = ["DurableSessionManager", "RestoreReport", "SessionTable"]


@dataclass
class RestoreReport:
    """Outcome of a :meth:`SessionTable.restore_all` sweep.

    ``restored`` maps recovered session ids to the number of WAL batches
    replayed on top of their checkpoints; ``failed`` maps unrecoverable ids
    to ``"ErrorType: message"`` strings (typed durability errors -- a corrupt
    checkpoint lands here and the server keeps running, it never serves from
    damaged state).
    """

    restored: Dict[int, int] = field(default_factory=dict)
    failed: Dict[int, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether every durable session came back."""
        return not self.failed


class SessionTable:
    """Every session of one server, across kinds.

    ``live`` maps ids to in-memory sessions; ``owner`` maps every id the
    server can still serve to its kind's manager.  A *passivated* session
    is in ``owner`` but not in ``live``.  ``kinds`` is the restore order.
    """

    def __init__(self, server, kinds: Sequence["DurableSessionManager"]) -> None:
        self._server = server
        self.kinds = tuple(kinds)
        self.live: Dict[int, object] = {}
        self.owner: Dict[int, DurableSessionManager] = {}

    def __len__(self) -> int:
        return len(self.live)

    def resolve(self, session_id: int):
        """The live session, resurrecting a passivated one transparently."""
        session = self.live.get(session_id)
        if session is not None:
            return session
        if session_id not in self.owner:
            raise KeyError(f"unknown or closed session {session_id}")
        return self.owner[session_id]._restore_one(session_id)[0]

    def touch(self, session) -> None:
        """Stamp a session's last use with its shard clock (the TTL input)."""
        session.last_used = self._server.pool[session.shard].elapsed

    def admit(self) -> None:
        """Make room for one more live session: TTL sweep, then the LRU cap."""
        self.sweep_expired()
        cap = self._server.config.max_sessions
        while cap is not None and len(self.live) >= cap:
            lru = min(self.live.values(), key=lambda s: s.last_used)
            self.evict(lru.session_id, reason="capacity")

    def insert(self, manager: "DurableSessionManager", session) -> None:
        self.live[session.session_id] = session
        self.owner[session.session_id] = manager
        self.touch(session)
        self._publish()

    def remove(self, session_id: int) -> None:
        self.live.pop(session_id, None)
        self.owner.pop(session_id, None)
        self._publish()

    def evict(self, session_id: int, *, reason: str = "manual") -> None:
        """Evict a live session, releasing its memory and cache pin.

        With durability the session is passivated -- final checkpoint,
        then resurrect-on-touch; without it the eviction is terminal and a
        later touch raises ``KeyError`` exactly like a closed session.
        """
        session, manager = self.live[session_id], self.owner[session_id]
        if self._server.config.durability is not None:
            manager.checkpoint(session_id)
        else:
            del self.owner[session_id]
        del self.live[session_id]
        manager._unpin(session)
        self._server.telemetry.record_session_evicted(reason)
        self._publish()

    def sweep_expired(self) -> int:
        """Evict every session idle past the server's TTL; returns the count."""
        ttl = self._server.config.session_ttl_seconds
        if ttl is None:
            return 0
        pool = self._server.pool
        expired = [
            sid for sid, s in self.live.items() if pool[s.shard].elapsed - s.last_used > ttl
        ]
        for session_id in expired:
            self.evict(session_id, reason="ttl")
        return len(expired)

    @property
    def passivated(self) -> Tuple[int, ...]:
        """Ids of evicted-but-durable sessions (resurrectable on touch)."""
        return tuple(sorted(sid for sid in self.owner if sid not in self.live))

    def _publish(self) -> None:
        self._server.telemetry.set_passivated_sessions(len(self.owner) - len(self.live))

    def save(self) -> Dict[int, int]:
        """Checkpoint every live session; maps session id -> snapshot bytes."""
        return {sid: self.owner[sid].checkpoint(sid) for sid in sorted(self.live)}

    def restore_all(self) -> RestoreReport:
        """Restore every durable session the store knows; never raises.

        Kind by kind (``kinds`` order), each in store-key order.
        Unrecoverable sessions (corrupt checkpoint, foreign record) land in
        ``RestoreReport.failed`` with their typed error -- the fallback is a
        running server without that session, not a wrong answer.
        """
        durability = self._server.config.durability
        if durability is None:
            raise RuntimeError("server has no durability config; nothing to restore from")
        report = RestoreReport()
        keys = durability.store.keys()
        for kind in self.kinds:
            for key in keys:
                if not key.startswith(kind.key_prefix):
                    continue
                try:
                    session_id = int(key[len(kind.key_prefix):])
                except ValueError:
                    continue
                if session_id in self.live:
                    continue
                try:
                    _session, replayed = kind._restore_one(session_id)
                except (DurabilityError, KeyError) as exc:
                    report.failed[session_id] = f"{type(exc).__name__}: {exc}"
                else:
                    report.restored[session_id] = replayed
        return report


class DurableSessionManager:
    """One session kind's face on the server's :class:`SessionTable`.

    A kind sets ``label`` and ``key_prefix`` (its store keys) and supplies
    its engine-specific parts: ``checkpoint`` (encode a snapshot and hand it
    to :meth:`_write_checkpoint`), ``_validate``/``_encode_batch`` (one
    batch's checks and WAL payload), ``_fold`` (one batch into the engine,
    on append and on replay), ``_decode_checkpoint(session_id, blob,
    shard) -> (session, meta)`` and ``_decode_batch(payload) -> (seq,
    *batch)``, ``_on_close`` (its telemetry), and ``_pin``/``_unpin`` when
    it pins device state.
    """

    label: str
    key_prefix: str

    def __init__(self, server) -> None:
        self._server = server

    @property
    def _table(self) -> SessionTable:
        return self._server.sessions

    @property
    def _durability(self):
        return self._server.config.durability

    def _key(self, session_id: int) -> str:
        return f"{self.key_prefix}{session_id}"

    def __len__(self) -> int:
        return sum(1 for sid in self._table.live if sid in self)

    def __contains__(self, session_id: int) -> bool:
        return session_id in self._table.live and self._table.owner[session_id] is self

    def _unknown(self, session_id: int) -> KeyError:
        return KeyError(f"unknown or closed {self.label} session {session_id}")

    def _get(self, session_id: int):
        if session_id not in self:
            raise self._unknown(session_id)
        return self._table.live[session_id]

    def _resolve(self, session_id: int):
        """A live session of this kind, resurrecting a passivated one."""
        if self._table.owner.get(session_id) is not self:
            raise self._unknown(session_id)
        return self._table.resolve(session_id)

    def session(self, session_id: int):
        """The live session object (for tests and introspection)."""
        return self._get(session_id)

    def _touch(self, session) -> None:
        self._table.touch(session)

    def _require_durability(self, action: str):
        if self._durability is None:
            raise RuntimeError(f"server has no durability config; nothing to {action}")
        return self._durability

    def _pin(self, session) -> None:
        """Pin the session's device state in the operator cache (if any)."""

    def _unpin(self, session) -> None:
        """Release what :meth:`_pin` pinned."""

    # ------------------------------------------------------------------
    def _next_id(self) -> int:
        server = self._server
        server._next_id += 1
        return server._next_id - 1

    def _add(self, session) -> int:
        """Register an opened session: pin, insert, baseline checkpoint.

        The baseline snapshot carries the session's configuration, so
        batches logged before the first interval checkpoint are recoverable.
        """
        self._pin(session)
        self._table.insert(self, session)
        if self._durability is not None:
            self.checkpoint(session.session_id)
        return session.session_id

    def _write_ahead(self, session, *batch) -> Tuple:
        """Validate one batch and, when durable, log it before it is folded."""
        batch = self._validate(session, *batch)
        durability = self._durability
        if durability is not None and len(batch[0]):
            payload = self._encode_batch(session.durable_seq, *batch)
            durability.store.append_wal(self._key(session.session_id), frame(payload))
            session.durable_seq += 1
            session.wal_batches += 1
            self._server.telemetry.record_wal_append(len(payload))
        return batch

    def _folded(self, session) -> None:
        """After a fold: re-pin, touch, and checkpoint when the interval is due."""
        self._pin(session)
        self._touch(session)
        durability = self._durability
        if durability is not None and session.wal_batches >= durability.checkpoint_interval_batches:
            self.checkpoint(session.session_id)

    def close(self, session_id: int) -> Dict[str, float]:
        """Close a session, unpin it, return its final stats.

        Closing is deliberate: the durable state (checkpoint + WAL) is
        deleted too.  A passivated session is rebuilt only to report its
        stats; it never displaces a live one.
        """
        if self._table.owner.get(session_id) is not self:
            raise self._unknown(session_id)
        session = self._table.live.get(session_id)
        if session is None:
            session, _ = self._rebuild(session_id)
        stats = session.stats()
        self._table.remove(session_id)
        self._unpin(session)
        if self._durability is not None:
            self._durability.store.delete(self._key(session_id))
        self._on_close()
        return stats

    def evict(self, session_id: int, *, reason: str = "manual") -> None:
        """Evict a live session of this kind (see :meth:`SessionTable.evict`)."""
        self._get(session_id)
        self._table.evict(session_id, reason=reason)

    def sweep_expired(self) -> int:
        """Evict every idle session, of any kind; returns the count."""
        return self._table.sweep_expired()

    @property
    def passivated(self) -> Tuple[int, ...]:
        """Ids of this kind's evicted-but-durable sessions."""
        return tuple(sid for sid in self._table.passivated if self._table.owner[sid] is self)

    # ------------------------------------------------------------------
    def _session_meta(self, session) -> dict:
        """The serving metadata every snapshot carries next to the engine."""
        return {
            "session_id": session.session_id,
            "durable_seq": session.durable_seq,
            "queries": session.queries,
        }

    def _write_checkpoint(self, session, blob: bytes) -> int:
        """Store one snapshot and reset the WAL it covers; returns its size.

        The snapshot records ``durable_seq``, so WAL entries written before
        it are skipped at replay even if the process dies between writing
        the checkpoint and resetting the log.
        """
        store = self._require_durability("checkpoint to").store
        key = self._key(session.session_id)
        store.write_checkpoint(key, blob)
        store.reset_wal(key)
        session.wal_batches = 0
        self._server.telemetry.record_checkpoint(len(blob))
        return len(blob)

    def _rebuild(self, session_id: int):
        """Decode the checkpoint and replay the WAL tail exactly once."""
        store = self._require_durability("restore from").store
        telemetry = self._server.telemetry
        key = self._key(session_id)
        blob = store.read_checkpoint(key)
        if blob is None:
            raise KeyError(f"no checkpoint stored for {self.label} session {session_id}")
        shard = self._server.scheduler.place()
        try:
            session, meta = self._decode_checkpoint(session_id, blob, shard)
            session.durable_seq = int(meta["durable_seq"])
            session.queries = int(meta.get("queries", 0))
        except (KeyError, TypeError, ValueError) as exc:
            telemetry.record_corrupt_checkpoint()
            raise SchemaError(f"{self.label} checkpoint is unreadable: {exc!r}") from exc
        except DurabilityError:
            telemetry.record_corrupt_checkpoint()
            raise
        replay = replay_wal(store.read_wal(key))
        if not replay.clean:
            # A torn or corrupt tail is the expected shape of a crash: note
            # it, replay the valid prefix, and move on.
            telemetry.record_wal_truncation()
        replayed = 0
        base_seq = session.durable_seq
        for payload in replay.payloads:
            try:
                seq, *batch = self._decode_batch(payload)
            except DurabilityError:
                telemetry.record_wal_truncation()
                break
            if seq < base_seq:
                continue  # already inside the checkpoint: exactly-once replay
            self._fold(session, *batch)
            replayed += 1
            session.durable_seq = seq + 1
        return session, replayed

    def _restore_one(self, session_id: int):
        """Rebuild one session and admit it like an ``open``; returns replays."""
        session, replayed = self._rebuild(session_id)
        self._table.admit()
        self._pin(session)
        self._table.insert(self, session)
        server = self._server
        server._next_id = max(server._next_id, session_id + 1)
        server.telemetry.record_restore(replayed)
        # The restored state becomes the new baseline; any torn tail goes.
        self.checkpoint(session_id)
        return session, replayed

    def restore(self, session_id: int):
        """Restore one session from its durable state (checkpoint + WAL)."""
        if session_id in self:
            return self._get(session_id)
        return self._restore_one(session_id)[0]
