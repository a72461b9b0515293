"""repro.durability: checkpoint/WAL persistence for serving sessions.

The durability subsystem (ROADMAP item 4) keeps streaming-solver window
state and frequency sketches alive across process death:

* :mod:`repro.durability.codec` -- one versioned, checksummed binary record
  format for every durable artifact, with a typed error hierarchy
  (:class:`DurabilityError` and friends) so corruption is always a
  diagnosis, never a wrong answer.
* :mod:`repro.durability.wal` -- length-prefixed, per-frame-CRC'd
  write-ahead-log framing; replay walks the valid prefix and reports the
  torn tail.
* :mod:`repro.durability.store` -- the pluggable :class:`CheckpointStore`
  (in-memory for tests, fsync'd directory-backed for real use) and the
  :class:`DurabilityConfig` a serving config carries.
* :mod:`repro.durability.session` -- every durable session format:
  serializers mapping a live :class:`~repro.streaming.solver.StreamingSolver`
  (all window modes, drift-detector state, cached solution) or a frequency
  sketch (plan, seed, counter tables) and their WAL batch entries onto the
  record format.

The serving layer (:mod:`repro.serving.sessions`) drives these: WAL-append
before fold, periodic snapshots, and checkpoint + tail replay on restore.
"""

from repro.durability.codec import (
    ChecksumError,
    DecodedRecord,
    DurabilityError,
    MAGIC,
    SCHEMA_VERSION,
    SchemaError,
    TruncatedRecordError,
    decode_record,
    encode_record,
)
from repro.durability.session import (
    FREQUENCY_SESSION_KIND,
    FREQUENCY_WAL_KIND,
    SESSION_KIND,
    WAL_BATCH_KIND,
    decode_frequency_wal,
    decode_wal_batch,
    deserialize_frequency_session,
    deserialize_session,
    encode_frequency_wal,
    encode_wal_batch,
    serialize_frequency_session,
    serialize_session,
)
from repro.durability.store import (
    CheckpointStore,
    DirectoryCheckpointStore,
    DurabilityConfig,
    MemoryCheckpointStore,
)
from repro.durability.wal import WalReplay, frame, replay_wal

__all__ = [
    "ChecksumError",
    "CheckpointStore",
    "DecodedRecord",
    "DirectoryCheckpointStore",
    "DurabilityConfig",
    "DurabilityError",
    "FREQUENCY_SESSION_KIND",
    "FREQUENCY_WAL_KIND",
    "MAGIC",
    "MemoryCheckpointStore",
    "SCHEMA_VERSION",
    "SESSION_KIND",
    "SchemaError",
    "TruncatedRecordError",
    "WAL_BATCH_KIND",
    "WalReplay",
    "decode_frequency_wal",
    "decode_record",
    "decode_wal_batch",
    "deserialize_frequency_session",
    "deserialize_session",
    "encode_frequency_wal",
    "encode_record",
    "encode_wal_batch",
    "frame",
    "replay_wal",
    "serialize_frequency_session",
    "serialize_session",
]
