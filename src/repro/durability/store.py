"""Pluggable checkpoint/WAL stores and the serving durability config.

A :class:`CheckpointStore` holds, per session key, one *checkpoint* blob
(the latest full snapshot, replaced atomically) and one *WAL* byte string
(frames appended between checkpoints, truncated after each new snapshot).
Two implementations:

* :class:`MemoryCheckpointStore` -- dict-backed, for tests and the
  fault-injection harness (its raw byte access is what the torn-write /
  bit-flip injectors in ``tests/faults.py`` manipulate).
* :class:`DirectoryCheckpointStore` -- one directory per session under a
  root path; checkpoints are written to a temp file, fsync'd and renamed
  into place (a crash mid-write can never destroy the previous good
  snapshot), WAL appends are flushed and fsync'd before the call returns
  (the write-*ahead* property the serving layer's fold-after-append
  ordering relies on).
"""

from __future__ import annotations

import os
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

__all__ = [
    "CheckpointStore",
    "DirectoryCheckpointStore",
    "DurabilityConfig",
    "MemoryCheckpointStore",
]

_KEY_RE = re.compile(r"^[A-Za-z0-9._-]+$")


def _check_key(key: str) -> str:
    key = str(key)
    if not _KEY_RE.match(key) or key in (".", ".."):
        raise ValueError(
            f"invalid store key '{key}': keys must match [A-Za-z0-9._-]+ "
            "and not be '.' or '..' (they become directory names in "
            "directory-backed stores)"
        )
    return key


class CheckpointStore:
    """Abstract per-session checkpoint + WAL storage.

    All byte strings are opaque to the store; framing and checksums live in
    :mod:`repro.durability.codec` / :mod:`repro.durability.wal`.  ``read``
    methods never raise on absence (``None`` / ``b""``), so "nothing durable
    yet" and "fresh store" are indistinguishable by design.
    """

    def write_checkpoint(self, key: str, blob: bytes) -> None:
        """Replace the session's checkpoint atomically and durably."""
        raise NotImplementedError

    def read_checkpoint(self, key: str) -> Optional[bytes]:
        """The session's checkpoint blob, or ``None`` if it has none."""
        raise NotImplementedError

    def append_wal(self, key: str, data: bytes) -> None:
        """Append raw bytes to the session's WAL, durable on return."""
        raise NotImplementedError

    def read_wal(self, key: str) -> bytes:
        """The session's whole WAL byte string (``b""`` when empty)."""
        raise NotImplementedError

    def write_wal(self, key: str, blob: bytes) -> None:
        """Replace the session's WAL wholesale (reset, tests, injectors)."""
        raise NotImplementedError

    def reset_wal(self, key: str) -> None:
        """Truncate the session's WAL (called right after a checkpoint)."""
        self.write_wal(key, b"")

    def delete(self, key: str) -> None:
        """Drop everything stored for the session (idempotent)."""
        raise NotImplementedError

    def keys(self) -> List[str]:
        """Keys with any durable state, sorted."""
        raise NotImplementedError


class MemoryCheckpointStore(CheckpointStore):
    """In-memory store: the test double (and the fault-injection substrate)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._checkpoints: Dict[str, bytes] = {}
        # Each WAL is a list of appended chunks, joined when read: appends
        # stay O(len(data)) instead of copying the whole log every time.
        self._wals: Dict[str, List[bytes]] = {}

    def write_checkpoint(self, key: str, blob: bytes) -> None:
        key = _check_key(key)
        with self._lock:
            self._checkpoints[key] = bytes(blob)

    def read_checkpoint(self, key: str) -> Optional[bytes]:
        with self._lock:
            return self._checkpoints.get(_check_key(key))

    def append_wal(self, key: str, data: bytes) -> None:
        key = _check_key(key)
        with self._lock:
            self._wals.setdefault(key, []).append(bytes(data))

    def read_wal(self, key: str) -> bytes:
        with self._lock:
            chunks = self._wals.get(_check_key(key))
            if not chunks:
                return b""
            if len(chunks) > 1:
                chunks[:] = [b"".join(chunks)]
            return chunks[0]

    def write_wal(self, key: str, blob: bytes) -> None:
        key = _check_key(key)
        with self._lock:
            self._wals[key] = [bytes(blob)]

    def delete(self, key: str) -> None:
        key = _check_key(key)
        with self._lock:
            self._checkpoints.pop(key, None)
            self._wals.pop(key, None)

    def keys(self) -> List[str]:
        with self._lock:
            return sorted(set(self._checkpoints) | set(self._wals))


class DirectoryCheckpointStore(CheckpointStore):
    """Directory-backed store: ``<root>/<key>/{checkpoint.bin,wal.bin}``.

    Checkpoint writes are crash-safe (temp file + fsync + atomic rename +
    best-effort directory fsync); WAL appends are flushed and fsync'd per
    call, so an acknowledged append survives anything short of media loss.
    """

    _CHECKPOINT = "checkpoint.bin"
    _WAL = "wal.bin"

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _dir(self, key: str, *, create: bool = False) -> Path:
        path = self.root / _check_key(key)
        if create:
            path.mkdir(parents=True, exist_ok=True)
        return path

    @staticmethod
    def _fsync_dir(path: Path) -> None:
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        finally:
            os.close(fd)

    def _replace_file(self, directory: Path, name: str, blob: bytes) -> None:
        tmp = directory / (name + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(bytes(blob))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, directory / name)
        self._fsync_dir(directory)

    def write_checkpoint(self, key: str, blob: bytes) -> None:
        self._replace_file(self._dir(key, create=True), self._CHECKPOINT, blob)

    def read_checkpoint(self, key: str) -> Optional[bytes]:
        path = self._dir(key) / self._CHECKPOINT
        if not path.exists():
            return None
        return path.read_bytes()

    def append_wal(self, key: str, data: bytes) -> None:
        path = self._dir(key, create=True) / self._WAL
        with open(path, "ab") as fh:
            fh.write(bytes(data))
            fh.flush()
            os.fsync(fh.fileno())

    def read_wal(self, key: str) -> bytes:
        path = self._dir(key) / self._WAL
        if not path.exists():
            return b""
        return path.read_bytes()

    def write_wal(self, key: str, blob: bytes) -> None:
        self._replace_file(self._dir(key, create=True), self._WAL, blob)

    def delete(self, key: str) -> None:
        directory = self._dir(key)
        if not directory.exists():
            return
        for name in (self._CHECKPOINT, self._WAL, self._CHECKPOINT + ".tmp", self._WAL + ".tmp"):
            path = directory / name
            if path.exists():
                path.unlink()
        try:
            directory.rmdir()
        except OSError:  # pragma: no cover - foreign files left behind
            pass

    def keys(self) -> List[str]:
        out = []
        for child in self.root.iterdir():
            if not child.is_dir():
                continue
            if (child / self._CHECKPOINT).exists() or (child / self._WAL).exists():
                out.append(child.name)
        return sorted(out)


@dataclass
class DurabilityConfig:
    """Durability knobs of a :class:`~repro.serving.server.SketchServer`.

    Attributes
    ----------
    store:
        Where checkpoints and WAL tails live.
    checkpoint_interval_batches:
        WAL appends between automatic full snapshots of a session.  Smaller
        means cheaper recovery replay but more snapshot traffic; the WAL
        keeps every interval crash-safe either way.
    """

    store: CheckpointStore
    checkpoint_interval_batches: int = 8

    def __post_init__(self) -> None:
        if not isinstance(self.store, CheckpointStore):
            raise TypeError("store must be a CheckpointStore")
        if self.checkpoint_interval_batches < 1:
            raise ValueError("checkpoint_interval_batches must be at least 1")
