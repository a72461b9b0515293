"""LRU cache of sketch operators, keyed on the parameters that define them.

The CSVec lineage of the CountSketch (hash-seeded row maps and signs) means a
sketch operator's entire random state is a pure function of
``(kind, d, n, k, seed, dtype)`` -- see
:meth:`repro.core.base.SketchOperator.cache_key`.  A serving layer should
therefore never regenerate an operator for a shape it has already seen: the
planning work (CSR assembly for the SpMM CountSketch, the dense second-stage
Gaussian of the multisketch, SRHT sign/sample vectors) is paid once and
reused across every request that shares the key.

The cache also remembers *where* each operator lives: operators are bound to
the shard executor they were generated on, so the scheduler routes batches to
the owning shard (cache-affinity scheduling) instead of rebuilding state.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.base import SketchOperator
from repro.core.countsketch import CountSketch
from repro.core.gaussian import GaussianSketch
from repro.core.multisketch import count_gauss
from repro.core.srht import SRHT
from repro.gpu.executor import GPUExecutor
from repro.linalg.registry import resolve_embedding_dim as _registry_embedding_dim
from repro.serving.requests import normalize_kind


def resolve_embedding_dim(kind: str, d: int, n: int, oversampling: float = 2.0) -> int:
    """Embedding dimension the server uses for a ``d x n`` problem.

    Follows the paper's Section 6.2 defaults (``c n`` for Gaussian / SRHT /
    multisketch, ``c n^2`` clipped to ``d`` for the CountSketch) with the
    constant ``c`` configurable end-to-end: a
    :class:`~repro.serving.server.ServerConfig` forwards its ``oversampling``
    here, and this delegates to the registry's single resolution point
    (:func:`repro.linalg.registry.resolve_embedding_dim`).
    """
    return _registry_embedding_dim(normalize_kind(kind), d, n, oversampling)


def operator_cache_key(
    kind: str,
    d: int,
    n: int,
    k: int,
    seed: Optional[int],
    dtype=np.float64,
    solver: str = "",
    problem: str = "",
) -> Tuple:
    """The serving cache key: ``(kind, d, n, k, seed, dtype, solver, problem)``.

    Two operators built from equal keys produce bit-identical sketches, so a
    cached operator can stand in for a freshly built one on any request.
    ``solver`` is the *planned solver family* the operator serves: distinct
    families keep distinct entries (and therefore distinct shard bindings),
    so e.g. a hot sketch-and-solve operator and the rand_cholQR
    preconditioner for the same shape scale independently across the pool.
    ``problem`` extends the key by problem class (``""`` for plain least
    squares, ``"ridge"`` / ``"lowrank"`` for the
    :mod:`repro.problems` endpoints): ridge operators embed the
    *augmented* ``(d + n)``-row system and range-finder operators are
    ``n``-input Gaussian test matrices, so the extra field keeps them from
    ever aliasing a least-squares operator of coincidentally equal shape.
    """
    return (
        normalize_kind(kind),
        int(d),
        int(n),
        int(k),
        seed,
        np.dtype(dtype).str,
        solver,
        problem,
    )


def build_operator(
    kind: str,
    d: int,
    n: int,
    *,
    executor: GPUExecutor,
    seed: Optional[int] = 0,
    k: Optional[int] = None,
    dtype=np.float64,
    oversampling: float = 2.0,
) -> SketchOperator:
    """Construct (and eagerly generate) the operator a cache key describes."""
    kind = normalize_kind(kind)
    if k is None:
        k = resolve_embedding_dim(kind, d, n, oversampling)
    if kind == "gaussian":
        op: SketchOperator = GaussianSketch(d, k, executor=executor, seed=seed, dtype=dtype)
    elif kind == "countsketch":
        op = CountSketch(d, k, executor=executor, seed=seed, dtype=dtype)
    elif kind == "srht":
        op = SRHT(d, k, executor=executor, seed=seed, dtype=dtype)
    else:  # multisketch
        op = count_gauss(d, n, k2=k, executor=executor, seed=seed, dtype=dtype)
    # Generate immediately so the one-off "Sketch gen" cost lands on the
    # build (cache miss), not on the first request that uses the operator.
    op.generate()
    return op


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for the operator cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that found a cached operator (0 when idle)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


@dataclass
class CacheEntry:
    """A cached operator, the shard it is bound to, and its replicas.

    ``state_key`` is the operator's own identity
    (:meth:`~repro.core.base.SketchOperator.cache_key`), recorded at build
    time; two entries with equal state keys hold interchangeable operators
    regardless of which serving key produced them.

    ``replicas`` maps additional shard indices to same-state operators the
    scheduler rebuilt there to spread a hot key across the pool (sketch
    state is a pure function of the key, so a replica is a local rebuild
    from the seed, not a state transfer).
    """

    operator: SketchOperator
    shard: int
    uses: int = 0
    state_key: Tuple = ()
    replicas: Dict[int, SketchOperator] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.state_key:
            self.state_key = self.operator.cache_key()

    def shard_set(self) -> Tuple[int, ...]:
        """Every shard holding a copy of this operator (primary first)."""
        return (self.shard,) + tuple(self.replicas)

    def operator_for(self, shard: int) -> SketchOperator:
        """The copy bound to ``shard`` (primary or replica)."""
        if shard == self.shard:
            return self.operator
        return self.replicas[shard]

    def add_replica(self, shard: int, operator: SketchOperator) -> None:
        """Register a same-state copy living on another shard."""
        if operator.cache_key() != self.state_key:
            raise ValueError("replica state does not match the cached operator")
        self.replicas[shard] = operator


class OperatorCache:
    """Bounded LRU cache mapping :func:`operator_cache_key` to operators.

    Parameters
    ----------
    capacity:
        Maximum number of live operators.  The oldest (least recently used)
        entry is evicted when a new one would exceed the bound; eviction
        only drops the handle -- a future request with the same key simply
        rebuilds the state from the seed, which is cheap for the hash-seeded
        families.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = int(capacity)
        self.stats = CacheStats()
        #: Optional ``callable(event, key)`` observability hook, fired (under
        #: the cache lock) with ``"hit"``/``"miss"`` on lookups and
        #: ``"store"``/``"evict"`` on insertion -- the server points this at
        #: its metrics registry so cache behaviour is scrapeable per event.
        #: The listener must not call back into the cache.
        self.listener = None
        self._entries: "OrderedDict[Tuple, CacheEntry]" = OrderedDict()
        # One lock covers lookup, insertion and eviction: the eviction loop
        # in put() reads len() and pops in separate bytecodes, so two
        # unlocked concurrent puts could both evict for the same slot (lost
        # entries, double-counted evictions) and a get() racing a
        # move_to_end() could corrupt the OrderedDict's internal list.  A
        # synchronous server driven from several threads funnels through here.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Tuple) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self):
        """Cache keys from least to most recently used."""
        with self._lock:
            return list(self._entries.keys())

    # ------------------------------------------------------------------
    def get(self, key: Tuple) -> Optional[CacheEntry]:
        """Look up an operator; counts a hit or a miss and refreshes LRU order."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                self._notify("miss", key)
                return None
            self.stats.hits += 1
            entry.uses += 1
            self._entries.move_to_end(key)
            self._notify("hit", key)
            return entry

    def _notify(self, event: str, key: Tuple) -> None:
        if self.listener is not None:
            self.listener(event, key)

    def peek(self, key: Tuple) -> Optional[CacheEntry]:
        """Look up without touching the stats or the LRU order (for tests)."""
        with self._lock:
            return self._entries.get(key)

    def touch(self, key: Tuple) -> bool:
        """Refresh an entry's LRU position without counting a hit or miss.

        The streaming layer calls this on every session ingest: a live
        session's operator stays warm for as long as rows keep arriving,
        without its keep-alives distorting the request-path hit rate.
        Returns whether the entry was present.
        """
        with self._lock:
            if key not in self._entries:
                return False
            self._entries.move_to_end(key)
            return True

    def put(self, key: Tuple, entry: CacheEntry) -> CacheEntry:
        """Insert an entry, evicting the least recently used one if full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = entry
                return entry
            while len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
                self._notify("evict", key)
            self._entries[key] = entry
            self._notify("store", key)
            return entry

    def discard(self, key: Tuple) -> bool:
        """Drop one entry without touching the stats; returns whether it existed.

        Used by the streaming layer when a session closes: session-keyed
        operators are pinned for the session's lifetime only and must not
        linger as dead LRU weight afterwards.
        """
        with self._lock:
            return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        """Drop every cached operator (stats are kept)."""
        with self._lock:
            self._entries.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OperatorCache(size={len(self)}/{self.capacity}, "
            f"hit_rate={self.stats.hit_rate:.2%})"
        )
