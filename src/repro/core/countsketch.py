"""CountSketch operators.

The CountSketch (Definition 4.1 of the paper, originally [Charikar et al.
2002]) is the cheapest known subspace embedding: ``S`` has exactly one
``+/-1`` per column, so ``S @ A`` touches every entry of ``A`` exactly once.

Three implementations are provided, mirroring the paper:

:class:`CountSketch` with ``variant="atomic"``
    The paper's Algorithm 2: a single kernel where thread ``j`` atomically
    adds (or subtracts, controlled by a boolean) row ``A[j, :]`` into row
    ``r_j`` of the output.  This is the high-performance implementation whose
    cost model achieves ~50-60% of peak bandwidth (Figure 3).

:class:`CountSketch` with ``variant="spmm"``
    The baseline: the sketch is stored as an explicit CSR matrix and applied
    with a cuSPARSE-style SpMM, achieving only ~20% of peak because of the
    random gather pattern.

:class:`StreamingCountSketch`
    The future-work variant of Section 8: the row map and signs are derived
    on the fly from a hash of the row index, so nothing but the seed needs to
    be stored and rows can be consumed from a stream.

Numerical note: in numeric mode both CountSketch variants evaluate the
product as a sparse multiply by the same matrix ``S`` (stored by column for
the atomic variant, by row for SpMM), adding each output row's inputs in
source-row order, so their outputs are bit-identical; they differ only in
the simulated kernels they charge, which is exactly the comparison the
paper makes.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.core.base import (
    PHASE_SKETCH_GEN,
    SketchOperator,
)
from repro.core.sampling import hashed_row_map_and_signs, signs_to_values
from repro.gpu.arrays import DeviceArray
from repro.gpu.kernels import KernelClass, KernelRequest

#: Largest input dimension ``d`` for which the hashed streaming sketch will
#: materialise per-index state (``np.arange(d)``, explicit CSR, dense
#: matrices).  The streaming window engines construct their sketches with
#: ``d = STREAM_CAPACITY = 2^48`` -- an *address space* for row indices, not
#: a real matrix height -- so any whole-domain operation on them would try a
#: multi-terabyte allocation.  2^27 int64 indices is one GiB: past that the
#: operation is a bug, not a request.
DENSIFY_LIMIT = 1 << 27


class SketchMaterializationError(RuntimeError):
    """A whole-domain operation was asked of a sketch too large to densify.

    Raised by :class:`StreamingCountSketch` when ``explicit_matrix()`` /
    ``apply()`` / ``apply_vector()`` would enumerate every index of a domain
    above :data:`DENSIFY_LIMIT` (the streaming windows' ``2^48`` capacity
    sketches being the motivating case).  Streaming callers should use
    :meth:`StreamingCountSketch.update` with explicit row indices instead.
    """


@dataclass(frozen=True, eq=False)
class SketchProduct:
    """``y = S @ a`` for the CountSketch whose ``cache_key()`` is ``key``.

    Made by :meth:`CountSketch.host_product`.  An operator whose first stage
    has the same key can serve ``y`` instead of recomputing it
    (:meth:`~repro.core.base.SketchOperator.with_first_stage`), but only for
    ``a``'s own buffer: a product describes ``a`` as it was when it was
    taken, so a holder must not outlive the one solve it was made for.
    ``y`` is read-only.
    """

    key: tuple
    a: np.ndarray
    y: np.ndarray

    def describes(self, data: np.ndarray) -> bool:
        """Whether ``data`` is ``a`` itself or a view of ``a``'s exact buffer and layout."""
        return (
            data.shape == self.a.shape
            and data.strides == self.a.strides
            and data.dtype == self.a.dtype
            and data.__array_interface__["data"][0] == self.a.__array_interface__["data"][0]
        )


class CountSketch(SketchOperator):
    """CountSketch operator ``S in R^{k x d}`` with one ``+/-1`` per column.

    Parameters
    ----------
    d, k:
        Input and embedding dimensions.  The paper uses ``k = 2 n^2`` to
        guarantee the subspace-embedding property for ``n``-column matrices.
    variant:
        ``"atomic"`` for the paper's Algorithm 2 kernel (default) or
        ``"spmm"`` for the cuSPARSE baseline.
    executor, seed, dtype:
        See :class:`~repro.core.base.SketchOperator`.
    """

    family = "countsketch"

    _VARIANTS = ("atomic", "spmm")

    def __init__(
        self,
        d: int,
        k: int,
        *,
        variant: str = "atomic",
        executor=None,
        seed: Optional[int] = None,
        dtype=np.float64,
    ) -> None:
        super().__init__(d, k, executor=executor, seed=seed, dtype=dtype)
        variant = variant.lower()
        if variant not in self._VARIANTS:
            raise ValueError(f"variant must be one of {self._VARIANTS}, got '{variant}'")
        self.variant = variant
        self._row_map: Optional[DeviceArray] = None
        self._signs: Optional[DeviceArray] = None
        self._csr = None  # DeviceCSR for the SpMM variant / numeric engine
        self._first_product: Optional[SketchProduct] = None

    # ------------------------------------------------------------------
    # random state
    # ------------------------------------------------------------------
    def _generate_impl(self) -> None:
        ex = self._ex
        # d uniform integers (the row map) and d Rademacher booleans: this is
        # all the random state Algorithm 2 needs, and is why the paper's
        # "Sketch gen" bar for the CountSketch is negligible.
        self._row_map = ex.rand.uniform_integers(
            0, self._k, self._d, dtype=np.int32, label="cs_row_map", generator=self.generator
        )
        self._signs = ex.rand.rademacher(
            self._d, as_bool=True, label="cs_signs", generator=self.generator
        )

        if self.variant == "spmm":
            # The SpMM baseline additionally has to assemble the explicit CSR
            # sketch on the device, which is charged to "Sketch gen" as well.
            rows = self._row_map.data if self._row_map.is_numeric else None
            cols = np.arange(self._d) if rows is not None else None
            vals = (
                signs_to_values(self._signs.data, self._dtype)
                if self._signs is not None and self._signs.is_numeric
                else None
            )
            self._csr = ex.sparse.build_csr(
                (self._k, self._d), rows, cols, vals, nnz=self._d, dtype=self._dtype, label="cs_csr"
            )
        elif ex.numeric:
            # Numeric engine for the atomic variant: the arithmetic of
            # Algorithm 2 is identical to multiplying by the explicit sparse
            # S, so we evaluate it that way without charging SpMM kernels.
            # Stored by column (one entry per input row), the product is
            # Algorithm 2's own loop: input rows in order, each added into
            # its bucket -- the same sums, bit for bit, as the row-wise CSR
            # product, but with A read sequentially.
            vals = signs_to_values(self._signs.data, self._dtype)
            self._numeric_matrix = sp.csc_matrix(
                (vals, self._row_map.data.astype(np.int64), np.arange(self._d + 1)),
                shape=(self._k, self._d),
            )
        if ex.numeric and self.variant == "spmm":
            self._numeric_matrix = self._csr.matrix

    def _cache_key_extra(self) -> tuple:
        return (self.variant,)

    def host_product(self, a: np.ndarray) -> SketchProduct:
        """``S @ a`` on the host, off the simulated clock.

        The numeric half of :meth:`apply` without its kernel launch: the
        same sparse product, so the result is bit-identical to what
        ``apply`` computes for ``a``.
        """
        self.generate()
        if not self._ex.numeric:
            raise RuntimeError("host_product() requires a numeric executor")
        y = self._multiply(a)
        y.flags.writeable = False
        return SketchProduct(self.cache_key(), a, y)

    def with_first_stage(self, product: SketchProduct) -> "CountSketch":
        if product.key != self.cache_key():
            return self
        self.generate()  # the copy must share, not redraw, the random state
        twin = copy.copy(self)
        twin._first_product = product
        return twin

    def _multiply(self, a: np.ndarray) -> np.ndarray:
        return self._numeric_matrix @ a

    # ------------------------------------------------------------------
    @property
    def row_map(self) -> np.ndarray:
        """The row map ``r`` (host copy, numeric mode only)."""
        self.generate()
        return self._row_map.require_data().copy()

    @property
    def signs(self) -> np.ndarray:
        """The boolean sign vector ``s`` (host copy, numeric mode only)."""
        self.generate()
        return self._signs.require_data().copy()

    def sparse_matrix(self) -> sp.csr_matrix:
        """The explicit sparse ``k x d`` sketch matrix (numeric mode only)."""
        self.generate()
        if not self._ex.numeric:
            raise RuntimeError("sparse_matrix() requires a numeric executor")
        return self._numeric_matrix.tocsr(copy=True)

    def explicit_matrix(self) -> np.ndarray:
        """Dense ``k x d`` sketch matrix (testing helper)."""
        return self.sparse_matrix().toarray().astype(self._dtype)

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    def _apply_impl(self, a: DeviceArray) -> DeviceArray:
        if self.variant == "spmm":
            return self._ex.sparse.spmm(self._csr, a, phase=self._ex.clock.current_phase() or "Matrix sketch")
        return self._apply_atomic(a)

    def _apply_vector_impl(self, b: DeviceArray) -> DeviceArray:
        if self.variant == "spmm":
            return self._ex.sparse.spmv(self._csr, b, phase=self._ex.clock.current_phase() or "Vector sketch")
        return self._apply_atomic_vector(b)

    # -- Algorithm 2 ----------------------------------------------------
    def _apply_atomic(self, a: DeviceArray) -> DeviceArray:
        """The paper's Algorithm 2 applied to a ``d x n`` matrix.

        Memory traffic charged (all in one kernel, a single pass over ``A``):

        * reads: ``d*n`` floats (the matrix), ``d`` int32 (row map),
          ``d`` booleans (signs);
        * writes: ``d*n`` floats -- every input row triggers an atomic add of
          ``n`` values into the output;
        * flops: ``d*n`` additions.
        """
        ex = self._ex
        n = a.shape[1]
        y = ex.empty((self._k, n), dtype=self._dtype, order="C", label="countsketch_out")
        if ex.numeric and a.is_numeric:
            known = self._first_product
            if known is not None and known.describes(a.data):
                y.data[...] = known.y
            else:
                y.data[...] = self._multiply(a.data)

        itemsize = self._dtype.itemsize
        ex.launch(
            KernelRequest(
                name="countsketch_atomic",
                kclass=KernelClass.ATOMIC,
                bytes_read=float(self._d) * n * itemsize + float(self._d) * (4 + 1),
                bytes_written=float(self._d) * n * itemsize,
                flops=float(self._d) * n,
                dtype_size=itemsize,
                phase="Matrix sketch",
            )
        )
        # The output of Algorithm 2 is produced in row-major order; the
        # output handle records that so downstream consumers (cuSOLVER wants
        # column-major) charge the conversion exactly where the paper does.
        return y

    def _apply_atomic_vector(self, b: DeviceArray) -> DeviceArray:
        """Algorithm 2 applied to a single vector (the right-hand side)."""
        ex = self._ex
        out = ex.empty((self._k,), dtype=self._dtype, label="countsketch_vec_out")
        if ex.numeric and b.is_numeric:
            out.data[...] = self._numeric_matrix @ b.data
        itemsize = self._dtype.itemsize
        ex.launch(
            KernelRequest(
                name="countsketch_atomic_vec",
                kclass=KernelClass.ATOMIC,
                bytes_read=float(self._d) * itemsize + float(self._d) * (4 + 1),
                bytes_written=float(self._d) * itemsize,
                flops=float(self._d),
                dtype_size=itemsize,
                phase="Vector sketch",
            )
        )
        return out


class StreamingCountSketch(SketchOperator):
    """Hash-based CountSketch that derives its random state on the fly.

    Section 8 of the paper proposes building the CountSketch "on the fly
    using a hash-based strategy, as was intended in the original CountSketch
    paper", trading a little extra compute in the kernel for zero stored
    random state -- which is what a streaming application needs.

    The operator never materialises the row map or sign vectors: both are
    recomputed from ``splitmix64(row_index, seed)`` whenever rows arrive.
    Rows may be consumed incrementally with :meth:`update` / :meth:`result`,
    or all at once through the standard :meth:`apply` interface.
    """

    family = "countsketch-streaming"

    def __init__(
        self,
        d: int,
        k: int,
        *,
        executor=None,
        seed: Optional[int] = None,
        dtype=np.float64,
    ) -> None:
        super().__init__(d, k, executor=executor, seed=seed, dtype=dtype)
        self._hash_seed = 0 if seed is None else int(seed)
        self._accumulator: Optional[DeviceArray] = None
        self._rows_seen = 0

    def _generate_impl(self) -> None:
        # Nothing to generate: the whole point of the hash-based variant.
        # A tiny kernel is charged for initialising the hash constants.
        self._ex.launch(
            KernelRequest(
                name="hash_setup",
                kclass=KernelClass.STREAM,
                bytes_written=64.0,
                phase=PHASE_SKETCH_GEN,
            )
        )

    # ------------------------------------------------------------------
    def row_map_and_signs(self, indices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Recompute (target rows, signs) for the given input-row indices."""
        return hashed_row_map_and_signs(np.asarray(indices), self._k, self._hash_seed)

    def _check_densifiable(self, operation: str) -> None:
        """Refuse whole-domain operations on address-space-sized sketches."""
        if self._d > DENSIFY_LIMIT:
            raise SketchMaterializationError(
                f"{operation} would enumerate all d={self._d} input indices "
                f"(limit {DENSIFY_LIMIT}); a sketch this large is a streaming "
                f"address space -- feed it batches through update() instead"
            )

    def explicit_matrix(self) -> np.ndarray:
        """Dense ``k x d`` matrix equivalent of the hashed sketch."""
        self._check_densifiable("explicit_matrix()")
        rows, signs = self.row_map_and_signs(np.arange(self._d))
        vals = signs_to_values(signs, self._dtype)
        mat = sp.csr_matrix((vals, (rows, np.arange(self._d))), shape=(self._k, self._d))
        return mat.toarray().astype(self._dtype)

    # ------------------------------------------------------------------
    def begin(self, n_cols: int) -> None:
        """Start a streaming pass producing a ``k x n_cols`` sketch."""
        self._accumulator = self._ex.zeros((self._k, int(n_cols)), dtype=self._dtype, label="stream_acc")
        self._rows_seen = 0

    def update(self, row_indices: Iterable[int], rows: Optional[np.ndarray]) -> None:
        """Consume a batch of rows ``A[row_indices, :]`` from the stream.

        ``rows`` may be ``None`` in analytic mode; otherwise it must have one
        row per index.  An empty batch is a clean no-op: nothing is hashed
        and no kernel is launched.
        """
        if self._accumulator is None:
            raise RuntimeError("call begin() before update()")
        if isinstance(row_indices, np.ndarray):
            idx = row_indices.astype(np.int64, copy=False).ravel()
        else:
            idx = np.fromiter(row_indices, dtype=np.int64)
        batch = idx.shape[0]
        if batch == 0:
            return
        if np.any(idx < 0) or np.any(idx >= self._d):
            raise ValueError("row indices out of range")
        n = self._accumulator.shape[1]
        self._rows_seen += batch

        if self._ex.numeric and rows is not None and self._accumulator.is_numeric:
            rows = np.atleast_2d(np.asarray(rows, dtype=self._dtype))
            if rows.shape != (batch, n):
                raise ValueError(f"expected rows of shape {(batch, n)}, got {rows.shape}")
            targets, signs = self.row_map_and_signs(idx)
            signed = np.where(signs[:, None], rows, -rows)
            np.add.at(self._accumulator.data, targets, signed)

        itemsize = self._dtype.itemsize
        self._ex.launch(
            KernelRequest(
                name="countsketch_stream_update",
                kclass=KernelClass.ATOMIC,
                bytes_read=float(batch) * n * itemsize + float(batch) * 8,
                bytes_written=float(batch) * n * itemsize,
                flops=float(batch) * n + 8.0 * batch,  # adds + hash arithmetic
                dtype_size=itemsize,
                phase="Matrix sketch",
            )
        )

    @property
    def rows_seen(self) -> int:
        """Rows consumed by the current pass (0 outside a pass)."""
        return self._rows_seen

    def merge_from(self, other: "StreamingCountSketch") -> None:
        """Fold another in-progress pass into this one (sketch linearity).

        The hashed row map and signs are pure functions of the global row
        index and the seed, so for two passes over *disjoint* row sets the
        sum of their accumulators is exactly the sketch of the union.  This
        is the merge hook the sliding-window streaming engine uses to
        combine its ring of sub-sketches on demand; one pass over both
        ``k x n`` accumulators is charged.
        """
        if self._accumulator is None or other._accumulator is None:
            raise RuntimeError("both sketches must be mid-pass to merge")
        if (self._k, self._hash_seed, self._dtype) != (
            other._k,
            other._hash_seed,
            other._dtype,
        ):
            raise ValueError("can only merge sketches with identical hashed state")
        if self._accumulator.shape != other._accumulator.shape:
            raise ValueError("can only merge sketches with equal column counts")
        if self._accumulator.is_numeric != other._accumulator.is_numeric:
            # Adding rows_seen without adding data (or vice versa) would
            # leave a sketch that claims rows it does not contain.
            raise ValueError("cannot merge numeric and analytic sketch passes")
        if self._accumulator.is_numeric:
            self._accumulator.data += other._accumulator.data
        self._rows_seen += other._rows_seen
        k, n = self._accumulator.shape
        itemsize = self._dtype.itemsize
        self._ex.launch(
            KernelRequest(
                name="countsketch_stream_merge",
                kclass=KernelClass.STREAM,
                bytes_read=2.0 * k * n * itemsize,
                bytes_written=float(k) * n * itemsize,
                flops=float(k) * n,
                dtype_size=itemsize,
                phase="Matrix sketch",
            )
        )

    def scale(self, alpha: float) -> None:
        """Scale the accumulated sketch in place (exponential-decay hook).

        ``S`` is linear, so scaling the accumulator is the same as scaling
        every row consumed so far -- which is how the decay-weighted
        streaming engine down-weights history before folding a new batch in.
        """
        if self._accumulator is None:
            raise RuntimeError("call begin() before scale()")
        if self._ex.numeric and self._accumulator.is_numeric:
            self._accumulator.data *= float(alpha)
        k, n = self._accumulator.shape
        itemsize = self._dtype.itemsize
        self._ex.launch(
            KernelRequest(
                name="countsketch_stream_scale",
                kclass=KernelClass.STREAM,
                bytes_read=float(k) * n * itemsize,
                bytes_written=float(k) * n * itemsize,
                flops=float(k) * n,
                dtype_size=itemsize,
                phase="Matrix sketch",
            )
        )

    def snapshot(self) -> Optional[np.ndarray]:
        """Host copy of the accumulator without closing the pass.

        Returns ``None`` in analytic mode (there is no numeric state).  The
        streaming engine reads this at every lazy re-solve; the pass keeps
        accepting :meth:`update` calls afterwards.
        """
        if self._accumulator is None:
            raise RuntimeError("no streaming pass in progress")
        if not (self._ex.numeric and self._accumulator.is_numeric):
            return None
        return self._accumulator.to_host()

    # ------------------------------------------------------------------
    # durable state
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """The pass's durable state: everything a restore needs beyond the seed.

        The row map and signs are pure functions of ``(row_index, seed)``,
        so the only durable payload is the accumulator itself plus the rows
        consumed so far.  Requires an in-progress pass.
        """
        if self._accumulator is None:
            raise RuntimeError("no streaming pass in progress")
        numeric = bool(self._ex.numeric and self._accumulator.is_numeric)
        return {
            "rows_seen": int(self._rows_seen),
            "n_cols": int(self._accumulator.shape[1]),
            "numeric": numeric,
            "accumulator": self._accumulator.to_host() if numeric else None,
        }

    def load_state(self, state: dict) -> None:
        """Reopen a pass from a :meth:`state_dict` snapshot.

        The restored pass is bit-identical to the snapshotted one: the same
        accumulator contents and rows-seen counter, and (because the hashed
        row map depends only on index and seed) identical behaviour for
        every subsequent :meth:`update`.  A small restore kernel is charged
        for staging the accumulator back onto the device.
        """
        self.generate()
        self.begin(int(state["n_cols"]))
        acc = state.get("accumulator")
        if acc is not None:
            if not (self._ex.numeric and self._accumulator.is_numeric):
                raise ValueError("cannot restore a numeric snapshot onto an analytic executor")
            arr = np.asarray(acc, dtype=self._dtype)
            if arr.shape != tuple(self._accumulator.shape):
                raise ValueError(
                    f"snapshot accumulator shape {arr.shape} does not match pass shape "
                    f"{tuple(self._accumulator.shape)}"
                )
            self._accumulator.data[...] = arr
        elif state.get("numeric") and self._ex.numeric:
            raise ValueError("numeric snapshot is missing its accumulator payload")
        self._rows_seen = int(state["rows_seen"])
        k, n = self._accumulator.shape
        itemsize = self._dtype.itemsize
        self._ex.launch(
            KernelRequest(
                name="countsketch_stream_restore",
                kclass=KernelClass.STREAM,
                bytes_written=float(k) * n * itemsize,
                dtype_size=itemsize,
                phase="Matrix sketch",
            )
        )

    def result(self) -> DeviceArray:
        """Finish the streaming pass and return the accumulated sketch."""
        if self._accumulator is None:
            raise RuntimeError("no streaming pass in progress")
        out = self._accumulator
        self._accumulator = None
        self._rows_seen = 0
        return out

    # ------------------------------------------------------------------
    def _apply_impl(self, a: DeviceArray) -> DeviceArray:
        """One-shot application: stream all rows in a single batch."""
        self._check_densifiable("apply()")
        self.begin(a.shape[1])
        self.update(np.arange(self._d), a.data if a.is_numeric else None)
        return self.result()

    def _apply_vector_impl(self, b: DeviceArray) -> DeviceArray:
        self._check_densifiable("apply_vector()")
        ex = self._ex
        out = ex.empty((self._k,), dtype=self._dtype, label="stream_vec_out")
        if ex.numeric and b.is_numeric:
            rows, signs = self.row_map_and_signs(np.arange(self._d))
            vals = np.where(signs, b.data, -b.data)
            out.data[...] = np.bincount(rows, weights=vals, minlength=self._k).astype(self._dtype)
        itemsize = self._dtype.itemsize
        ex.launch(
            KernelRequest(
                name="countsketch_stream_vec",
                kclass=KernelClass.ATOMIC,
                bytes_read=float(self._d) * itemsize,
                bytes_written=float(self._d) * itemsize,
                flops=9.0 * self._d,
                dtype_size=itemsize,
                phase="Vector sketch",
            )
        )
        return out
