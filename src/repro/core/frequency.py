"""Frequency analytics on top of the hashed CountSketch.

The CountSketch was invented (Charikar et al. 2002) not as a subspace
embedding but as a *frequency estimator*: hash every item of a stream into a
small table of signed counters and answer "how often did item ``i`` occur?"
from the table alone.  The paper's Section 8 hash-based streaming variant
(:class:`~repro.core.countsketch.StreamingCountSketch`) already carries the
exact machinery required -- ``splitmix64``-derived bucket maps and signs --
so this module completes the lineage and turns the serving stack's streaming
substrate into a frequency-analytics engine:

:class:`FrequencySketch`
    The classic ``depth x width`` table.  Each of the ``depth`` rows is an
    independent hashed CountSketch row; a point query takes the **median of
    the signed buckets** across rows, which is within ``eps * ||f||_2`` of
    the true frequency with probability ``1 - delta`` for
    ``eps = sqrt(3 / width)`` and ``delta = exp(-depth / 6)`` (see
    :mod:`repro.theory.frequency`).  Also answers l2-norm queries from the
    per-row bucket energies and recovers the eps-phi heavy hitters by a
    full-domain scan (the CSVec ``findHH`` idiom).

:class:`HierarchicalFrequencySketch`
    A dyadic stack of levels (branching factor a power of two): level ``l``
    counts the item id right-shifted by ``l * log2(branch)`` bits.  The
    leaf is always a :class:`FrequencySketch`; the top ``exact_levels``
    levels are :class:`ExactFrequencyLevel` dense count arrays, used where
    a level's domain is no larger than its sketch would be.  Range queries
    decompose into O(branch * levels) node queries, and top-k heavy hitters
    are found by *descending* the hierarchy -- expanding only the children
    of prefixes that are themselves heavy -- so the work is
    ``O(levels * branch * heavy)`` instead of the flat sketch's
    ``O(domain)`` scan.

All three are mergeable (table addition, identical hashed state required),
scale-able (exponential decay hook) and durable (``state_dict`` /
``load_state`` round-trip bit-identically), so the serving layer can
checkpoint and migrate frequency sessions exactly like solve sessions.

Every operation charges simulated kernels through the executor, with the
same cost idiom as the streaming CountSketch: updates are atomic-class
scatters, queries are streaming-class gathers whose traffic is proportional
to the buckets actually examined -- which is what lets the acceptance
benchmark *assert* that hierarchical top-k does asymptotically less work
than a flat domain scan.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.countsketch import DENSIFY_LIMIT, SketchMaterializationError
from repro.core.sampling import (
    hash_offsets,
    hashed_row_map_and_signs,
    hashed_table_map_and_signs,
)
from repro.gpu.device import H100_SXM5
from repro.gpu.executor import GPUExecutor
from repro.gpu.kernels import KernelClass, KernelRequest

#: Phase label for every frequency-analytics kernel (the harness's
#: breakdowns group by phase; frequency traffic gets its own bar).
PHASE_FREQUENCY = "Frequency"

#: Odd 32-bit salt separating the per-row hash streams of one table.  Row
#: ``r`` of a sketch seeded ``s`` hashes with seed ``s + (r+1) * salt``, so
#: the rows are independent splitmix64 streams yet the whole table remains a
#: pure function of ``(seed, depth, width)`` -- the property merge and
#: restore rely on.
_ROW_SEED_SALT = 0x9E3779B9

#: Salt separating the per-level hash streams of a hierarchical sketch.
_LEVEL_SEED_SALT = 0x85EBCA6B


def as_index_array(ids, domain: int) -> np.ndarray:
    """Validate and normalise item ids to a flat int64 array in ``[0, domain)``.

    Float ids are accepted only when every one is a finite integer value;
    a fractional, infinite or NaN id raises ``ValueError`` naming it rather
    than being truncated onto a neighbouring id.
    """
    arr = ids if isinstance(ids, np.ndarray) else np.asarray(ids)
    if arr.dtype.kind == "f":
        bad = ~np.isfinite(arr) | (arr != np.trunc(arr))
        if bad.any():
            raise ValueError(f"item ids must be integers, got {float(arr[bad][0])!r}")
    idx = arr.astype(np.int64, copy=False).ravel()
    if idx.size and (idx.min() < 0 or idx.max() >= domain):
        raise ValueError(f"item ids must lie in [0, {domain}), got range "
                         f"[{idx.min()}, {idx.max()}]")
    return idx


def as_weight_array(weights, batch: int, dtype=np.float64) -> np.ndarray:
    """Validate and normalise a batch's weights to a flat ``dtype`` array.

    ``None`` means all-ones (pure counting).  The length must match the
    batch, and every weight must be finite once cast: a NaN or infinite
    weight raises ``ValueError`` naming it rather than poisoning every
    counter it lands in.
    """
    if weights is None:
        return np.ones(batch, dtype=dtype)
    w = np.asarray(weights, dtype=dtype).ravel()
    if w.shape[0] != batch:
        raise ValueError(f"expected {batch} weights, got {w.shape[0]}")
    finite = np.isfinite(w)
    if not finite.all():
        raise ValueError(f"weights must be finite, got {float(w[~finite][0])!r}")
    return w


class FrequencySketch:
    """``depth x width`` signed-counter table answering frequency queries.

    Parameters
    ----------
    domain:
        Size of the item universe; ids must lie in ``[0, domain)``.  Like the
        streaming windows' ``STREAM_CAPACITY``, this may be an address space
        (e.g. ``2^48``) -- only whole-domain scans are then refused.
    width:
        Buckets per row.  Point-query error is ``eps * ||f||_2`` with
        ``eps = sqrt(3 / width)``.
    depth:
        Independent rows medianed over.  Failure probability per query is
        ``exp(-depth / 6)``.
    executor, seed, dtype:
        As for the sketch operators; identical ``(width, depth, seed)``
        tables are mergeable.
    """

    def __init__(
        self,
        domain: int,
        width: int,
        depth: int = 5,
        *,
        executor: Optional[GPUExecutor] = None,
        seed: Optional[int] = None,
        dtype=np.float64,
    ) -> None:
        if domain <= 0 or width <= 0 or depth <= 0:
            raise ValueError("domain, width and depth must be positive")
        self._domain = int(domain)
        self._width = int(width)
        self._depth = int(depth)
        self._dtype = np.dtype(dtype)
        self._seed = seed
        self._hash_seed = 0 if seed is None else int(seed)
        if executor is None:
            executor = GPUExecutor(H100_SXM5, numeric=True, seed=seed, track_memory=False)
        self._ex = executor
        self._table = executor.zeros(
            (self._depth, self._width), dtype=self._dtype, label="freq_table"
        )
        self._items_seen = 0
        # Every counter is an integer of magnitude <= items_seen: true for a
        # fresh table, kept by unweighted updates, ANDed by merges, cleared
        # by weighted updates and scale(), recomputed by load_state().
        self._integral = True
        self._exact_items = 2 ** (np.finfo(self._dtype).nmant + 1) if self._dtype.kind == "f" else 0
        self._offsets = hash_offsets(self._row_seed(r) for r in range(self._depth))
        self._row_base = (np.arange(self._depth, dtype=np.int64) * self._width)[:, None]
        self._ex.launch(
            KernelRequest(
                name="frequency_hash_setup",
                kclass=KernelClass.STREAM,
                bytes_written=64.0 * self._depth,
                phase=PHASE_FREQUENCY,
            )
        )

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def domain(self) -> int:
        """Item-universe size (an address space, not an allocation)."""
        return self._domain

    @property
    def width(self) -> int:
        """Buckets per row."""
        return self._width

    @property
    def depth(self) -> int:
        """Independent rows medianed over."""
        return self._depth

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    @property
    def executor(self) -> GPUExecutor:
        return self._ex

    @property
    def items_seen(self) -> int:
        """Stream items consumed so far (merge adds, restore reinstates)."""
        return self._items_seen

    @property
    def numeric(self) -> bool:
        """Whether the table carries real counters (vs. analytic shapes)."""
        return bool(self._ex.numeric and self._table.is_numeric)

    def table(self) -> Optional[np.ndarray]:
        """Host copy of the counter table (``None`` in analytic mode)."""
        if not self.numeric:
            return None
        return self._table.to_host()

    def _row_seed(self, row: int) -> int:
        return self._hash_seed + (row + 1) * _ROW_SEED_SALT

    def _hash_identity(self) -> tuple:
        return (self._domain, self._width, self._depth, self._hash_seed, self._dtype)

    def buckets_and_signs(self, ids: np.ndarray, row: int) -> Tuple[np.ndarray, np.ndarray]:
        """Recompute (bucket, sign) for the given ids in the given row."""
        return hashed_row_map_and_signs(
            np.asarray(ids), self._width, self._row_seed(row)
        )

    def _cells_and_signs(self, idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(depth, len(idx))`` flat cell indices ``r * width + bucket`` and signs.

        Row ``r`` matches :meth:`buckets_and_signs` for row ``r``; all rows
        come from one broadcast hash.
        """
        buckets, signs = hashed_table_map_and_signs(idx, self._width, self._offsets)
        buckets += self._row_base
        return buckets, signs

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def update(self, ids, weights=None) -> None:
        """Consume a batch of (item id, weight) increments from the stream.

        ``weights`` defaults to all-ones (pure counting).  Negative weights
        (deletions) are legal: the CountSketch is a turnstile sketch.  A
        non-finite weight raises ``ValueError`` before any counter moves.
        An empty batch is a clean no-op.

        The batch is folded in one scatter pass, the way the paper's GPU
        CountSketch does it: each *distinct* id is hashed once for all
        ``depth`` rows by one broadcast hash, its row folded into a flat cell
        index ``r * width + bucket``, and one ``np.add.at`` adds every
        ``(cell, +-weight)`` pair in stream order -- so each counter receives
        exactly the additions, in exactly the order, of a per-row loop, and
        the table is bit-identical to it for any weights.

        Pure counting (no ``weights``) scatters ``+-count`` once per distinct
        id instead of ``+-1`` per item when that is exact: every counter is
        an integer bounded by ``items_seen`` (no weighted update or
        ``scale()`` since the table was zero, or a restored table that
        satisfies it), and ``items_seen`` stays below ``2**(nmant + 1)`` of
        the dtype, so every partial sum is an exactly representable integer
        whatever the order of the additions.
        """
        idx = as_index_array(ids, self._domain)
        batch = idx.shape[0]
        if batch == 0:
            return
        w = as_weight_array(weights, batch, self._dtype)
        self._items_seen += batch
        self._integral = self._integral and weights is None

        if self.numeric:
            uniq, inv = np.unique(idx, return_inverse=True)
            cells, signs = self._cells_and_signs(uniq)
            if self._integral and self._items_seen < self._exact_items:
                counts = np.bincount(inv, minlength=uniq.size).astype(self._dtype)
                values = np.where(signs, counts, -counts)
            else:
                cells, signs = cells[:, inv], signs[:, inv]
                values = np.where(signs, w, -w)
            # 1-D index and value arrays take numpy's fast add.at path.
            np.add.at(self._table.data.reshape(-1), cells.ravel(), values.ravel())

        itemsize = self._dtype.itemsize
        self._ex.launch(
            KernelRequest(
                name="frequency_update",
                kclass=KernelClass.ATOMIC,
                bytes_read=float(batch) * (8 + itemsize),
                bytes_written=float(self._depth) * batch * itemsize,
                flops=9.0 * self._depth * batch,  # hash arithmetic + adds
                dtype_size=itemsize,
                phase=PHASE_FREQUENCY,
            )
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _require_numeric(self, what: str) -> None:
        if not self.numeric:
            raise RuntimeError(f"{what} requires a numeric executor")

    def point_query(self, ids) -> np.ndarray:
        """Median-of-signed-buckets frequency estimates for the given ids.

        Returns a float array of the same length as ``ids``.  Each estimate
        is within ``eps * ||f||_2`` of the true frequency with probability
        ``1 - delta`` (:func:`repro.theory.frequency.point_query_error`).
        """
        self._require_numeric("point_query()")
        idx = as_index_array(ids, self._domain)
        batch = idx.shape[0]
        if batch == 0:
            return np.zeros(0, dtype=self._dtype)
        cells, signs = self._cells_and_signs(idx)
        counters = self._table.data.reshape(-1)[cells]
        est = np.where(signs, counters, -counters)
        itemsize = self._dtype.itemsize
        self._ex.launch(
            KernelRequest(
                name="frequency_point_query",
                kclass=KernelClass.STREAM,
                bytes_read=float(self._depth) * batch * itemsize + float(batch) * 8,
                bytes_written=float(batch) * itemsize,
                flops=12.0 * self._depth * batch,  # hash + gather + median
                dtype_size=itemsize,
                phase=PHASE_FREQUENCY,
            )
        )
        return np.median(est, axis=0).astype(self._dtype)

    def l2_estimate(self) -> float:
        """Estimate ``||f||_2`` from the bucket energies (CSVec idiom).

        Each row's sum of squared buckets is an unbiased estimate of
        ``||f||_2^2`` (cross terms cancel in expectation under the pairwise
        independent signs); the median over rows tames the variance.

        The row energies come from a row-wise dot with no table-sized
        temporary.  For an integral table (pure counting) every partial sum
        is an exact integer below ``2^53`` while ``items_seen^2`` is, so the
        result does not depend on summation order; a weighted table's
        estimate may differ from another order's at rounding level.
        """
        self._require_numeric("l2_estimate()")
        table = self._table.data.astype(np.float64, copy=False)
        energies = np.einsum("ij,ij->i", table, table)
        itemsize = self._dtype.itemsize
        self._ex.launch(
            KernelRequest(
                name="frequency_l2",
                kclass=KernelClass.STREAM,
                bytes_read=float(self._depth) * self._width * itemsize,
                bytes_written=float(self._depth) * itemsize,
                flops=2.0 * self._depth * self._width,
                dtype_size=itemsize,
                phase=PHASE_FREQUENCY,
            )
        )
        return float(np.sqrt(np.median(energies)))

    def heavy_hitters(self, phi: float) -> List[Tuple[int, float]]:
        """All items with estimated ``|f_i| >= phi * ||f||_2`` (``findHH``).

        This is the *flat* recovery path: it point-queries every id in the
        domain, so it is refused (typed error) for address-space-sized
        domains -- use :class:`HierarchicalFrequencySketch.top_k` there.
        Returns ``(id, estimate)`` pairs sorted by descending ``|estimate|``.
        """
        if not 0.0 < phi <= 1.0:
            raise ValueError(f"phi must lie in (0, 1], got {phi}")
        if self._domain > DENSIFY_LIMIT:
            raise SketchMaterializationError(
                f"heavy_hitters() would scan all {self._domain} domain ids "
                f"(limit {DENSIFY_LIMIT}); use a HierarchicalFrequencySketch "
                f"for address-space domains"
            )
        self._require_numeric("heavy_hitters()")
        threshold = phi * self.l2_estimate()
        estimates = self.point_query(np.arange(self._domain, dtype=np.int64))
        hot = np.flatnonzero(np.abs(estimates) >= threshold)
        order = hot[np.argsort(-np.abs(estimates[hot]), kind="stable")]
        return [(int(i), float(estimates[i])) for i in order]

    # ------------------------------------------------------------------
    # composition
    # ------------------------------------------------------------------
    def merge_from(self, other: "FrequencySketch") -> None:
        """Fold another sketch of the same hashed identity into this one.

        Bucket maps and signs are pure functions of ``(id, seed)``, so the
        sum of two tables is exactly the table of the concatenated streams
        -- the property the sliding-window ring and the shard-merge path
        both rely on.
        """
        if self._hash_identity() != other._hash_identity():
            raise ValueError("can only merge frequency sketches with identical hashed state")
        if self.numeric != other.numeric:
            raise ValueError("cannot merge numeric and analytic frequency sketches")
        if self.numeric:
            self._table.data += other._table.data
        self._items_seen += other._items_seen
        self._integral = self._integral and other._integral
        itemsize = self._dtype.itemsize
        cells = float(self._depth) * self._width
        self._ex.launch(
            KernelRequest(
                name="frequency_merge",
                kclass=KernelClass.STREAM,
                bytes_read=2.0 * cells * itemsize,
                bytes_written=cells * itemsize,
                flops=cells,
                dtype_size=itemsize,
                phase=PHASE_FREQUENCY,
            )
        )

    def scale(self, alpha: float) -> None:
        """Scale every counter in place (exponential-decay hook)."""
        if self.numeric:
            self._table.data *= float(alpha)
        self._integral = False
        itemsize = self._dtype.itemsize
        cells = float(self._depth) * self._width
        self._ex.launch(
            KernelRequest(
                name="frequency_scale",
                kclass=KernelClass.STREAM,
                bytes_read=cells * itemsize,
                bytes_written=cells * itemsize,
                flops=cells,
                dtype_size=itemsize,
                phase=PHASE_FREQUENCY,
            )
        )

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Durable state: the table plus the items-seen counter.

        The bucket maps are pure functions of the seed, so (like the
        streaming CountSketch) the payload is just the counters.
        """
        state = self._live_state()
        if state["table"] is not None:
            state["table"] = state["table"].copy()
        return state

    def _live_state(self) -> dict:
        """:meth:`state_dict` holding the live counter table, not a copy.

        For encoders that serialize the table before the next write; the
        caller must neither keep nor mutate it.
        """
        return {
            "domain": self._domain,
            "width": self._width,
            "depth": self._depth,
            "items_seen": int(self._items_seen),
            "numeric": self.numeric,
            "table": self._table.data if self.numeric else None,
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot bit-identically.

        The restored sketch answers every query exactly as the snapshotted
        one did and keeps accepting updates.  A restore kernel is charged
        for staging the table back onto the device.
        """
        if (int(state["domain"]), int(state["width"]), int(state["depth"])) != (
            self._domain,
            self._width,
            self._depth,
        ):
            raise ValueError("snapshot dimensions do not match this sketch")
        tab = state.get("table")
        if tab is not None:
            self._require_numeric("restoring a numeric snapshot")
            arr = np.asarray(tab, dtype=self._dtype)
            if arr.shape != (self._depth, self._width):
                raise ValueError(
                    f"snapshot table shape {arr.shape} != {(self._depth, self._width)}"
                )
            self._table.data[...] = arr
        elif state.get("numeric") and self.numeric:
            raise ValueError("numeric snapshot is missing its table payload")
        self._items_seen = int(state["items_seen"])
        if self.numeric:
            table = self._table.data
            self._integral = bool(
                np.abs(table).max(initial=0) <= self._items_seen
                and np.array_equal(table, np.trunc(table))
            )
        itemsize = self._dtype.itemsize
        self._ex.launch(
            KernelRequest(
                name="frequency_restore",
                kclass=KernelClass.STREAM,
                bytes_written=float(self._depth) * self._width * itemsize,
                dtype_size=itemsize,
                phase=PHASE_FREQUENCY,
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrequencySketch(domain={self._domain}, width={self._width}, "
            f"depth={self._depth}, seed={self._seed}, items_seen={self._items_seen})"
        )


class ExactFrequencyLevel:
    """Dense exact counts for a hierarchy level no larger than its sketch.

    One counter per node id, so a point query returns the node's true
    (weighted) count: zero error.  It offers the level interface
    :class:`HierarchicalFrequencySketch` uses -- update, point query,
    merge, scale and the durable state -- with the same contracts as
    :class:`FrequencySketch`, and charges its own scatter and gather
    kernels.  Its durable table is the 1-D count vector.
    """

    def __init__(
        self,
        domain: int,
        *,
        executor: Optional[GPUExecutor] = None,
        dtype=np.float64,
    ) -> None:
        if domain <= 0:
            raise ValueError("domain must be positive")
        self._domain = int(domain)
        self._dtype = np.dtype(dtype)
        if executor is None:
            executor = GPUExecutor(H100_SXM5, numeric=True, track_memory=False)
        self._ex = executor
        self._counts = executor.zeros((self._domain,), dtype=self._dtype, label="freq_counts")
        self._items_seen = 0

    @property
    def domain(self) -> int:
        """Node-id universe size (also the number of counters)."""
        return self._domain

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    @property
    def items_seen(self) -> int:
        """Stream items consumed so far (merge adds, restore reinstates)."""
        return self._items_seen

    @property
    def numeric(self) -> bool:
        """Whether the array carries real counters (vs. analytic shapes)."""
        return bool(self._ex.numeric and self._counts.is_numeric)

    def counts(self) -> Optional[np.ndarray]:
        """Host copy of the count vector (``None`` in analytic mode)."""
        return self._counts.to_host() if self.numeric else None

    def _charge(self, name: str, kclass: KernelClass, read: float, written: float, flops: float) -> None:
        self._ex.launch(
            KernelRequest(
                name=name,
                kclass=kclass,
                bytes_read=read,
                bytes_written=written,
                flops=flops,
                dtype_size=self._dtype.itemsize,
                phase=PHASE_FREQUENCY,
            )
        )

    def update(self, ids, weights=None) -> None:
        """Add a batch of (node id, weight) increments: one ``bincount`` scatter."""
        idx = as_index_array(ids, self._domain)
        batch = idx.shape[0]
        if batch == 0:
            return
        w = None if weights is None else as_weight_array(weights, batch, self._dtype)
        self._items_seen += batch
        if self.numeric:
            self._counts.data += np.bincount(idx, w, minlength=self._domain)
        itemsize = self._dtype.itemsize
        self._charge(
            "frequency_exact_update", KernelClass.ATOMIC,
            float(batch) * (8 + itemsize), float(batch) * itemsize, float(batch),
        )

    def point_query(self, ids) -> np.ndarray:
        """The exact counts of the given node ids."""
        if not self.numeric:
            raise RuntimeError("point_query() requires a numeric executor")
        idx = as_index_array(ids, self._domain)
        itemsize = self._dtype.itemsize
        self._charge(
            "frequency_exact_query", KernelClass.STREAM,
            float(idx.size) * (8 + itemsize), float(idx.size) * itemsize, 0.0,
        )
        return self._counts.data[idx]

    def merge_from(self, other: "ExactFrequencyLevel") -> None:
        """Add another level's counts (same domain, dtype and mode required)."""
        if not isinstance(other, ExactFrequencyLevel) or (self._domain, self._dtype) != (
            other._domain,
            other._dtype,
        ):
            raise ValueError("can only merge exact levels with identical domain and dtype")
        if self.numeric != other.numeric:
            raise ValueError("cannot merge numeric and analytic exact levels")
        if self.numeric:
            self._counts.data += other._counts.data
        self._items_seen += other._items_seen
        nbytes = float(self._domain) * self._dtype.itemsize
        self._charge("frequency_exact_merge", KernelClass.STREAM, 2.0 * nbytes, nbytes, float(self._domain))

    def scale(self, alpha: float) -> None:
        """Scale every counter in place (exponential-decay hook)."""
        if self.numeric:
            self._counts.data *= float(alpha)
        nbytes = float(self._domain) * self._dtype.itemsize
        self._charge("frequency_exact_scale", KernelClass.STREAM, nbytes, nbytes, float(self._domain))

    def state_dict(self) -> dict:
        """Durable state: the count vector plus the items-seen counter."""
        state = self._live_state()
        if state["table"] is not None:
            state["table"] = state["table"].copy()
        return state

    def _live_state(self) -> dict:
        """:meth:`state_dict` holding the live count vector (see the sketch's)."""
        return {
            "domain": self._domain,
            "items_seen": int(self._items_seen),
            "numeric": self.numeric,
            "table": self._counts.data if self.numeric else None,
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot bit-identically."""
        if int(state["domain"]) != self._domain:
            raise ValueError("snapshot domain does not match this exact level")
        tab = state.get("table")
        if tab is not None:
            if not self.numeric:
                raise RuntimeError("restoring a numeric snapshot requires a numeric executor")
            arr = np.asarray(tab, dtype=self._dtype)
            if arr.shape != (self._domain,):
                raise ValueError(f"snapshot counts shape {arr.shape} != {(self._domain,)}")
            self._counts.data[...] = arr
        elif state.get("numeric") and self.numeric:
            raise ValueError("numeric snapshot is missing its counts payload")
        self._items_seen = int(state["items_seen"])
        nbytes = float(self._domain) * self._dtype.itemsize
        self._charge("frequency_exact_restore", KernelClass.STREAM, 0.0, nbytes, 0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExactFrequencyLevel(domain={self._domain}, items_seen={self._items_seen})"


#: One level of a :class:`HierarchicalFrequencySketch`.
FrequencyLevel = Union[FrequencySketch, ExactFrequencyLevel]


class HierarchicalFrequencySketch:
    """Dyadic stack of frequency levels for range queries and fast top-k.

    Level 0 sketches raw item ids; level ``l`` counts ``id >> (l * b)``
    where ``branch = 2**b``.  The levels stop once a level's domain fits in
    ``branch`` nodes, so the top level can always be enumerated outright.
    The top ``exact_levels`` levels (never the leaf) are
    :class:`ExactFrequencyLevel` dense counts instead of sketches; the
    planner chooses them where a level's domain is at most
    ``width * depth`` (:func:`repro.theory.frequency.exact_hierarchy_levels`).
    Exact levels answer their node queries with zero error, so ranges and
    the descent only pay sketch error at the sketched levels.  The default
    of 0 sketches every level.

    Two query families become cheap:

    * :meth:`range_query` decomposes ``[lo, hi)`` into at most
      ``2 * branch`` nodes per level (the canonical dyadic cover) and sums
      their point estimates -- ``O(branch * levels)`` bucket reads instead
      of ``hi - lo``.
    * :meth:`top_k` descends from the top level, expanding only children of
      prefixes whose estimate clears the ``phi * ||f||_2`` threshold: any
      true heavy hitter's every prefix is at least as frequent as the item
      itself, so the descent cannot lose it (one-sided).  Work is
      ``O(levels * branch * candidates)`` -- the acceptance benchmark
      asserts this does asymptotically less simulated-kernel work than the
      flat ``O(domain)`` scan.
    """

    def __init__(
        self,
        domain: int,
        width: int,
        depth: int = 5,
        *,
        branch: int = 16,
        exact_levels: int = 0,
        executor: Optional[GPUExecutor] = None,
        seed: Optional[int] = None,
        dtype=np.float64,
    ) -> None:
        if branch < 2 or branch & (branch - 1):
            raise ValueError(f"branch must be a power of two >= 2, got {branch}")
        self._branch = int(branch)
        self._bits = int(branch).bit_length() - 1
        self._seed = seed
        base_seed = 0 if seed is None else int(seed)
        if executor is None:
            executor = GPUExecutor(H100_SXM5, numeric=True, seed=seed, track_memory=False)
        self._ex = executor

        domains: List[int] = [int(domain)]
        while domains[-1] > self._branch:
            domains.append((domains[-1] + self._branch - 1) // self._branch)
        if not 0 <= exact_levels < len(domains):
            raise ValueError(
                f"exact_levels must lie in [0, {len(domains) - 1}] (the leaf is "
                f"always sketched), got {exact_levels}"
            )
        self._exact_levels = int(exact_levels)
        first_exact = len(domains) - self._exact_levels
        self._levels: List[FrequencyLevel] = [
            ExactFrequencyLevel(dom, executor=executor, dtype=dtype)
            if lvl >= first_exact
            else FrequencySketch(
                dom,
                width,
                depth,
                executor=executor,
                seed=base_seed + lvl * _LEVEL_SEED_SALT,
                dtype=dtype,
            )
            for lvl, dom in enumerate(domains)
        ]

    # ------------------------------------------------------------------
    @property
    def domain(self) -> int:
        return self._levels[0].domain

    @property
    def branch(self) -> int:
        return self._branch

    @property
    def num_levels(self) -> int:
        return len(self._levels)

    @property
    def exact_levels(self) -> int:
        """How many top levels are exact dense counts rather than sketches."""
        return self._exact_levels

    @property
    def levels(self) -> Sequence[FrequencyLevel]:
        """The per-level engines, leaf (level 0) first."""
        return tuple(self._levels)

    @property
    def executor(self) -> GPUExecutor:
        return self._ex

    @property
    def items_seen(self) -> int:
        return self._levels[0].items_seen

    # ------------------------------------------------------------------
    def update(self, ids, weights=None) -> None:
        """Feed each item to every level under its level-``l`` prefix id."""
        idx = as_index_array(ids, self.domain)
        if idx.size == 0:
            return
        for lvl, level in enumerate(self._levels):
            level.update(idx >> (lvl * self._bits), weights)

    def point_query(self, ids) -> np.ndarray:
        """Leaf-level point estimates (same contract as the flat sketch)."""
        return self._levels[0].point_query(ids)

    def l2_estimate(self) -> float:
        """Leaf-level l2-norm estimate."""
        return self._levels[0].l2_estimate()

    # ------------------------------------------------------------------
    def range_query(self, lo: int, hi: int) -> float:
        """Estimate the total weight of items in the half-open range ``[lo, hi)``.

        Uses the canonical dyadic cover: a node is charged at the highest
        level at which it is fully contained in the range, so at most
        ``2 * (branch - 1)`` nodes are queried per level.
        """
        lo, hi = int(lo), int(hi)
        if not 0 <= lo <= hi <= self.domain:
            raise ValueError(f"range [{lo}, {hi}) out of domain [0, {self.domain})")
        if lo == hi:
            return 0.0
        per_level: Dict[int, List[int]] = {}

        def visit(level: int, node: int) -> None:
            block = 1 << (level * self._bits)
            nlo = node * block
            nhi = min(nlo + block, self.domain)
            if nhi <= lo or nlo >= hi:
                return
            if lo <= nlo and nhi <= hi:
                per_level.setdefault(level, []).append(node)
                return
            # Partially covered: recurse into children (level 0 nodes are
            # single items, always fully covered when they overlap).
            first = node << self._bits
            last = min((node + 1) << self._bits, self._levels[level - 1].domain)
            for child in range(first, last):
                visit(level - 1, child)

        top = len(self._levels) - 1
        for node in range(self._levels[top].domain):
            visit(top, node)

        total = 0.0
        for level, nodes in sorted(per_level.items()):
            total += float(np.sum(self._levels[level].point_query(np.asarray(nodes))))
        return total

    def top_k(self, k: int, phi: float) -> List[Tuple[int, float]]:
        """Top-``k`` heavy hitters above ``phi * ||f||_2`` by dyadic descent.

        Starts from the (enumerable) top level and expands only children of
        prefixes whose estimate clears the threshold; returns at most ``k``
        ``(id, estimate)`` pairs sorted by descending estimate.  Never scans
        the full domain, so it works on address-space universes where
        :meth:`FrequencySketch.heavy_hitters` raises.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        if not 0.0 < phi <= 1.0:
            raise ValueError(f"phi must lie in (0, 1], got {phi}")
        threshold = phi * self._levels[0].l2_estimate()

        top = len(self._levels) - 1
        candidates = np.arange(self._levels[top].domain, dtype=np.int64)
        for level in range(top, 0, -1):
            est = self._levels[level].point_query(candidates)
            survivors = candidates[np.abs(est) >= threshold]
            if survivors.size == 0:
                return []
            children = (survivors[:, None] << self._bits) + np.arange(self._branch)
            children = children.ravel()
            candidates = children[children < self._levels[level - 1].domain]

        est = self._levels[0].point_query(candidates)
        hot = np.flatnonzero(np.abs(est) >= threshold)
        order = hot[np.argsort(-np.abs(est[hot]), kind="stable")][:k]
        return [(int(candidates[i]), float(est[i])) for i in order]

    # ------------------------------------------------------------------
    def merge_from(self, other: "HierarchicalFrequencySketch") -> None:
        """Level-wise merge (same branch, levels, exact levels and hashed state)."""
        if (self._branch, len(self._levels), self._exact_levels) != (
            other._branch,
            len(other._levels),
            other._exact_levels,
        ):
            raise ValueError(
                "can only merge hierarchies with identical structure "
                "(branch, levels and exact_levels)"
            )
        for mine, theirs in zip(self._levels, other._levels):
            mine.merge_from(theirs)

    def scale(self, alpha: float) -> None:
        """Scale every level's counters in place."""
        for level in self._levels:
            level.scale(alpha)

    def state_dict(self) -> dict:
        """Durable state: one sub-state per level plus the structure."""
        return {
            "branch": self._branch,
            "levels": [s.state_dict() for s in self._levels],
        }

    def _live_state(self) -> dict:
        """:meth:`state_dict` holding each level's live table (see the flat one)."""
        return {
            "branch": self._branch,
            "levels": [s._live_state() for s in self._levels],
        }

    def load_state(self, state: dict) -> None:
        """Restore all levels bit-identically from a :meth:`state_dict`."""
        if int(state["branch"]) != self._branch:
            raise ValueError("snapshot branching factor does not match")
        sub = state["levels"]
        if len(sub) != len(self._levels):
            raise ValueError("snapshot level count does not match")
        for level, s in zip(self._levels, sub):
            level.load_state(s)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HierarchicalFrequencySketch(domain={self.domain}, "
            f"branch={self._branch}, levels={len(self._levels)}, "
            f"exact_levels={self._exact_levels})"
        )
