"""Versioned binary serialization for durable sketch/solver state.

One record format covers every durable artifact in the repository --
session checkpoints, WAL batch entries, and anything a future fleet layer
ships between nodes:

.. code-block:: text

    magic    4 bytes   b"RDUR"
    version  u16 LE    schema version (SCHEMA_VERSION)
    hlen     u32 LE    header length in bytes
    header   hlen      JSON: {"kind", "meta", "arrays": [{name,dtype,shape}]}
    blobs    ...       raw C-order array bytes, in header order
    crc      u32 LE    CRC32 over everything preceding it

The header carries all JSON-able metadata plus a manifest of the numpy
arrays appended after it; the trailing CRC32 covers the whole record, so a
flipped bit anywhere -- header or payload -- surfaces as a typed
:class:`ChecksumError` instead of silently corrupted state.  Decoding never
guesses: a record that is short is :class:`TruncatedRecordError`, a record
from an unknown magic/version (or of the wrong ``kind``) is
:class:`SchemaError`.  All three share :class:`DurabilityError`, which is
the contract the serving layer's fresh-session fallback catches.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

__all__ = [
    "ChecksumError",
    "DecodedRecord",
    "DurabilityError",
    "MAGIC",
    "SCHEMA_VERSION",
    "SchemaError",
    "TruncatedRecordError",
    "decode_record",
    "encode_record",
]

#: Leading magic of every durable record.
MAGIC = b"RDUR"

#: Current schema version.  Bump when the record layout (not the payload
#: contents -- those are self-describing) changes incompatibly; decoders
#: accept records up to their own version and reject newer ones.
SCHEMA_VERSION = 1

_PREFIX = struct.Struct("<4sHI")  # magic, version, header length
_CRC = struct.Struct("<I")


class DurabilityError(Exception):
    """Base of every typed durability failure (decode, store, restore)."""


class TruncatedRecordError(DurabilityError):
    """The record ends before its declared length (torn or partial write)."""


class ChecksumError(DurabilityError):
    """The record is complete but its CRC32 does not match (bit rot)."""


class SchemaError(DurabilityError):
    """Unknown magic, unsupported schema version, or unexpected record kind."""


@dataclass
class DecodedRecord:
    """A decoded durable record: its kind, metadata, and named arrays."""

    kind: str
    meta: Dict[str, object]
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)


def encode_record(
    kind: str,
    meta: Dict[str, object],
    arrays: Optional[Dict[str, np.ndarray]] = None,
) -> bytes:
    """Serialize ``(kind, meta, arrays)`` into one checksummed record.

    ``meta`` must be JSON-serializable; ``arrays`` values are converted to
    contiguous numpy arrays and stored with their dtype/shape manifest, so
    :func:`decode_record` reproduces them bit-for-bit.
    """
    manifest = []
    blobs = []
    for name, value in (arrays or {}).items():
        arr = np.ascontiguousarray(np.asarray(value))
        manifest.append({"name": str(name), "dtype": arr.dtype.str, "shape": list(arr.shape)})
        blobs.append(arr.reshape(-1).view(np.uint8))  # zero-copy byte view
    header = json.dumps(
        {"kind": str(kind), "meta": meta, "arrays": manifest},
        separators=(",", ":"),
        sort_keys=True,
    ).encode("utf-8")
    # One copy of the payload: CRC32 runs incrementally over the parts and
    # the record is assembled by a single join.
    parts = [_PREFIX.pack(MAGIC, SCHEMA_VERSION, len(header)), header, *blobs]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    parts.append(_CRC.pack(crc & 0xFFFFFFFF))
    return b"".join(parts)


def decode_record(blob: bytes, *, expect_kind: Optional[str] = None) -> DecodedRecord:
    """Decode one record, verifying structure, checksum, and (optionally) kind.

    Raises :class:`TruncatedRecordError` when the blob is shorter than its
    declared layout, :class:`SchemaError` on foreign magic / newer schema /
    trailing garbage / kind mismatch, and :class:`ChecksumError` when the
    CRC32 disagrees -- never returns partially-decoded state.
    """
    blob = bytes(blob)
    if len(blob) < _PREFIX.size + _CRC.size:
        raise TruncatedRecordError(
            f"record too short ({len(blob)} bytes) to hold a header and checksum"
        )
    magic, version, hlen = _PREFIX.unpack_from(blob, 0)
    if magic != MAGIC:
        raise SchemaError(f"bad magic {magic!r} (expected {MAGIC!r})")
    if version > SCHEMA_VERSION:
        raise SchemaError(
            f"record schema version {version} is newer than supported {SCHEMA_VERSION}"
        )
    header_end = _PREFIX.size + hlen
    if len(blob) < header_end + _CRC.size:
        raise TruncatedRecordError(
            f"record truncated inside its header ({len(blob)} bytes, header ends at {header_end})"
        )
    try:
        header = json.loads(blob[_PREFIX.size : header_end].decode("utf-8"))
        manifest = header["arrays"]
        kind = str(header["kind"])
        meta = header["meta"]
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        # Structurally complete but unparseable header: the bytes were
        # altered (the CRC would also fail) -- report it as corruption.
        raise ChecksumError(f"record header is not decodable: {exc}") from exc
    payload = sum(
        int(np.dtype(entry["dtype"]).itemsize) * int(np.prod(entry["shape"], dtype=np.int64))
        for entry in manifest
    )
    expected = header_end + payload + _CRC.size
    if len(blob) < expected:
        raise TruncatedRecordError(
            f"record truncated: {len(blob)} bytes, layout declares {expected}"
        )
    if len(blob) > expected:
        raise SchemaError(f"{len(blob) - expected} trailing bytes after the record")
    (crc_stored,) = _CRC.unpack_from(blob, expected - _CRC.size)
    crc_actual = zlib.crc32(blob[: expected - _CRC.size]) & 0xFFFFFFFF
    if crc_stored != crc_actual:
        raise ChecksumError(
            f"record checksum mismatch (stored {crc_stored:#010x}, computed {crc_actual:#010x})"
        )
    if expect_kind is not None and kind != expect_kind:
        raise SchemaError(f"expected a '{expect_kind}' record, got '{kind}'")
    arrays: Dict[str, np.ndarray] = {}
    offset = header_end
    for entry in manifest:
        dtype = np.dtype(entry["dtype"])
        shape = tuple(int(s) for s in entry["shape"])
        nbytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
        arrays[entry["name"]] = (
            np.frombuffer(blob, dtype=dtype, count=int(np.prod(shape, dtype=np.int64)), offset=offset)
            .reshape(shape)
            .copy()
        )
        offset += nbytes
    return DecodedRecord(kind=kind, meta=meta, arrays=arrays)
