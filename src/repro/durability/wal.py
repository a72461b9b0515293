"""Write-ahead-log framing: length-prefixed, per-frame-checksummed records.

A session's WAL is a flat byte string of frames appended by the serving
layer between checkpoints:

.. code-block:: text

    len   u32 LE   payload length in bytes
    crc   u32 LE   CRC32 of the payload
    data  len      one payload (itself a codec record, doubly protected)

Replay (:func:`replay_wal`) walks the valid *prefix* and stops at the first
frame that is torn (the process died mid-``write``) or fails its CRC.  That
is the durability contract a write-ahead log can honestly make: everything
acknowledged before the crash point is replayed, the in-flight tail is
dropped -- and because the serving layer folds a batch only *after* its
frame is durable, a dropped tail can only lose un-acknowledged work, never
produce a wrong answer.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import List, Optional

from repro.durability.codec import ChecksumError

__all__ = ["WalReplay", "frame", "replay_wal"]

_FRAME = struct.Struct("<II")  # payload length, payload crc32
_CRC_BYTES = 4  # a codec record's trailing CRC32


def frame(payload: bytes, *, record: bool = False) -> bytes:
    """Wrap one payload in a WAL frame (length prefix + CRC32).

    ``record=True`` declares the payload a codec record, which ends in the
    little-endian CRC32 of everything before it.  The CRC32 of the whole
    payload then follows from those four bytes alone (CRC32 resumes from
    the stored value over them), so the payload is not read again; the
    frame is byte-identical to the full pass.  Replay always checks every
    byte.
    """
    payload = bytes(payload)
    if record and len(payload) >= _CRC_BYTES:
        tail = payload[-_CRC_BYTES:]
        crc = zlib.crc32(tail, int.from_bytes(tail, "little"))
    else:
        crc = zlib.crc32(payload)
    return _FRAME.pack(len(payload), crc & 0xFFFFFFFF) + payload


@dataclass
class WalReplay:
    """Result of walking a WAL's valid prefix.

    ``payloads`` are the frames replayable in order; ``dropped_bytes`` is
    the tail that was not (0 for a clean log); ``reason`` says why the walk
    stopped early -- ``"torn"`` (the last write never completed) or
    ``"checksum"`` (a complete frame whose CRC disagrees), ``None`` when
    the whole log replayed.
    """

    payloads: List[bytes] = field(default_factory=list)
    dropped_bytes: int = 0
    reason: Optional[str] = None

    @property
    def clean(self) -> bool:
        """Whether every frame in the log replayed."""
        return self.reason is None


def replay_wal(blob: bytes, *, strict: bool = False) -> WalReplay:
    """Walk a WAL byte string and return its replayable prefix.

    Lenient by default (a crash is *expected* to tear the tail); with
    ``strict=True`` a mid-log checksum failure raises
    :class:`~repro.durability.codec.ChecksumError` instead of truncating --
    for callers that treat the log as an archive rather than a crash tail.
    """
    blob = bytes(blob)
    out = WalReplay()
    offset = 0
    total = len(blob)
    while offset < total:
        if total - offset < _FRAME.size:
            out.reason = "torn"
            break
        length, crc_stored = _FRAME.unpack_from(blob, offset)
        start = offset + _FRAME.size
        if total - start < length:
            out.reason = "torn"
            break
        payload = blob[start : start + length]
        if (zlib.crc32(payload) & 0xFFFFFFFF) != crc_stored:
            if strict:
                raise ChecksumError(
                    f"WAL frame at byte {offset} failed its CRC32 check"
                )
            out.reason = "checksum"
            break
        out.payloads.append(payload)
        offset = start + length
    out.dropped_bytes = total - offset
    return out
