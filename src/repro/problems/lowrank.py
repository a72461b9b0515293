"""Sketched low-rank approximation: randomized range finder + Frequent Directions.

Two complementary paths to a rank-``k`` factorization ``A ~ Q B``:

:func:`randomized_range_finder` / :func:`lowrank_approx`
    The batch path (Halko-Martinsson-Tropp): ``Y = A @ Omega`` for a
    Gaussian test matrix ``Omega`` (optionally refined with power
    iterations ``Y <- A (A^T Y)``), ``Q = orth(Y)``, ``B = Q^T A``, then a
    small SVD truncates to exactly ``rank`` columns.  All the heavy kernels
    (GEMMs, economy QRs) run on the simulated device, and the Gaussian test
    matrix is an ordinary cached-operator citizen: the serving layer's
    ``approx_lowrank`` endpoint reuses it across requests exactly like a
    solve operator.

:class:`FrequentDirections`
    The streaming path [Liberty 2013; Ghashami et al. 2016]: a fixed
    ``2 ell x n`` buffer absorbs rows as they arrive; whenever it fills, one
    small SVD shrinks every squared singular value by the ``ell``-th and
    keeps the top ``ell`` rows.  The sketch ``B`` satisfies
    ``0 <= x^T (A^T A - B^T B) x <= ||A - A_k||_F^2 / (ell - k)`` for every
    unit ``x``, which makes projecting onto its top-``k`` right singular
    vectors within ``sqrt(1 + k/(ell-k))`` of the truncated-SVD optimum
    (:func:`repro.theory.complexity.fd_error_bound`).  The accumulator
    composes with the hashed CountSketch machinery of :mod:`repro.core`:
    :meth:`FrequentDirections.from_countsketch` compresses a
    ``StreamingCountSketch`` window accumulator into an ``ell``-row FD
    summary (the sketch's rows are a row-space proxy for the stream's), and
    :class:`repro.streaming.state.FrequentDirectionsState` runs FD as a
    window-summary alternative inside the streaming engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.core.gaussian import GaussianSketch
from repro.gpu.arrays import DeviceArray
from repro.gpu.executor import GPUExecutor
from repro.gpu.kernels import KernelClass, KernelRequest
from repro.linalg.lstsq import _to_device

ArrayLike = Union[np.ndarray, DeviceArray]

#: Low-rank methods :func:`lowrank_approx` accepts.
LOWRANK_METHODS = ("rangefinder", "frequent_directions")


@dataclass
class LowRankResult:
    """A rank-``k`` factorization ``A ~ left @ right``.

    ``left`` is ``d x k`` and ``right`` is ``k x n``; for the range-finder
    path ``left`` has orthonormal columns (``Q U_k``) and ``right`` is
    ``diag(s_k) V_k^T``, for the Frequent Directions path ``left`` is the
    projection ``A V_k`` and ``right`` is ``V_k^T``.  ``relative_error`` is
    ``||A - left @ right||_F / ||A||_F`` measured on the host (NaN in
    analytic mode); ``total_seconds`` is the simulated device time.
    """

    method: str
    rank: int
    left: Optional[np.ndarray]
    right: Optional[np.ndarray]
    relative_error: float
    total_seconds: float
    extra: Dict[str, float] = field(default_factory=dict)

    def reconstruct(self) -> np.ndarray:
        """The rank-``k`` approximation ``left @ right`` (numeric mode only)."""
        if self.left is None or self.right is None:
            raise RuntimeError("no numeric factors (analytic-mode result)")
        return self.left @ self.right


def optimal_rank_error(a: np.ndarray, rank: int) -> float:
    """``||A - A_k||_F / ||A||_F``: the truncated-SVD optimum every method chases."""
    svals = np.linalg.svd(np.asarray(a, dtype=np.float64), compute_uv=False)
    total = float(np.linalg.norm(svals))
    if total == 0.0:
        return 0.0
    return float(np.linalg.norm(svals[rank:]) / total)


def _relative_error(a: np.ndarray, left: np.ndarray, right: np.ndarray) -> float:
    na = np.linalg.norm(a)
    if na == 0.0:
        return 0.0
    return float(np.linalg.norm(a - left @ right) / na)


def _orth(executor: GPUExecutor, y: DeviceArray, label: str) -> DeviceArray:
    """Orthonormalise the columns of ``y`` (economy QR; charged as GEQRF)."""
    factors = executor.solver.geqrf(y, phase="GEQRF", label=label)
    if factors.q is not None:
        return factors.q
    # Analytic mode: the GEQRF cost is charged; a shape-only handle stands
    # in for Q so the remaining GEMMs charge the right dimensions.
    return executor.empty(y.shape, label=f"{label}_Q")


def randomized_range_finder(
    a: ArrayLike,
    rank: int,
    *,
    oversample: int = 8,
    power_iters: int = 0,
    executor: Optional[GPUExecutor] = None,
    operator: Optional[GaussianSketch] = None,
    seed: Optional[int] = 0,
) -> Tuple[DeviceArray, GaussianSketch]:
    """Orthonormal basis ``Q`` for the dominant range of ``A``.

    ``Q = orth(A @ Omega)`` with ``Omega`` an ``n x (rank + oversample)``
    Gaussian test matrix, refined by ``power_iters`` rounds of
    ``Q <- orth(A (A^T Q))`` (each round sharpens the spectrum's decay by
    one power, the standard fix for slowly decaying tails).

    ``operator`` lets a caller (the serving layer's operator cache) supply
    the test matrix as a :class:`~repro.core.gaussian.GaussianSketch` over
    ``n`` inputs with ``rank + oversample`` outputs -- its ``k x n`` device
    matrix *is* ``Omega^T``, so ``A @ Omega`` is one GEMM against the
    cached state.  Returns ``(Q, operator)`` so the caller can pin the
    operator for reuse.
    """
    if executor is None:
        executor = (
            operator.executor
            if operator is not None
            else GPUExecutor(numeric=True, seed=seed, track_memory=False)
        )
    a_dev = _to_device(executor, a, "A")
    d, n = a_dev.shape
    if not 0 < rank <= min(d, n):
        raise ValueError("rank must lie in [1, min(d, n)]")
    r = min(rank + max(int(oversample), 0), n)
    if operator is None:
        operator = GaussianSketch(n, r, executor=executor, seed=seed)
        operator.generate()
    else:
        if operator.d != n or operator.k != r:
            raise ValueError(
                f"range-finder operator must map {n} -> {r}, got {operator.d} -> {operator.k}"
            )
        operator.generate()
    blas = executor.blas
    # Y = A @ Omega = A @ (S^T): one GEMM against the operator's k x n state.
    y = blas.gemm(a_dev, operator.matrix, trans_b=True, phase="Matrix sketch", label="range_Y")
    for it in range(int(power_iters)):
        q = _orth(executor, y, label=f"power{it}")
        z = blas.gemm(a_dev, q, trans_a=True, phase="Power iteration", label="range_Z")
        y = blas.gemm(a_dev, z, phase="Power iteration", label="range_Y")
    return _orth(executor, y, label="range_Q"), operator


def lowrank_approx(
    a: ArrayLike,
    rank: int,
    *,
    method: str = "rangefinder",
    oversample: int = 8,
    power_iters: int = 0,
    ell: Optional[int] = None,
    batch: int = 2048,
    executor: Optional[GPUExecutor] = None,
    operator: Optional[GaussianSketch] = None,
    seed: Optional[int] = 0,
) -> LowRankResult:
    """Rank-``k`` approximation of ``A`` by the requested method.

    ``method="rangefinder"`` runs :func:`randomized_range_finder`, forms
    ``B = Q^T A`` and truncates to exactly ``rank`` with one small SVD;
    ``method="frequent_directions"`` streams the rows of ``A`` through a
    :class:`FrequentDirections` accumulator of size ``ell`` (default
    ``2 * rank``) in ``batch``-row chunks -- the same code path a true
    row stream uses, so its accuracy on a materialised matrix is exactly
    what the streaming engine achieves on the fly.
    """
    method_l = method.lower()
    if method_l in ("fd", "frequent-directions"):
        method_l = "frequent_directions"
    if method_l not in LOWRANK_METHODS:
        raise ValueError(f"method must be one of {LOWRANK_METHODS}, got '{method}'")
    if executor is None and operator is not None:
        executor = operator.executor
    if executor is None:
        executor = GPUExecutor(numeric=True, seed=seed, track_memory=False)

    if method_l == "frequent_directions":
        return _fd_approx(a, rank, ell=ell, batch=batch, executor=executor)

    a_dev = _to_device(executor, a, "A")
    d, n = a_dev.shape
    mark = executor.mark()
    q, operator = randomized_range_finder(
        a_dev,
        rank,
        oversample=oversample,
        power_iters=power_iters,
        executor=executor,
        operator=operator,
        seed=seed,
    )
    r = q.shape[1]
    b = executor.blas.gemm(q, a_dev, trans_a=True, phase="Project", label="range_B")
    # Truncate the r x n panel to exactly `rank` with one small SVD (host
    # numerics, device-charged: the panel is r x n with r ~ rank).
    executor.launch(
        KernelRequest(
            name="lowrank_truncate_svd",
            kclass=KernelClass.FACTOR,
            bytes_read=float(r) * n * 8,
            bytes_written=float(r) * (n + d) * 8,
            flops=10.0 * r * r * n + 2.0 * d * r * rank,
            dtype_size=8,
            phase="Truncate",
        )
    )
    seconds = executor.elapsed_since(mark)
    left = right = None
    rel = float("nan")
    if executor.numeric and q.is_numeric and b.is_numeric and a_dev.is_numeric:
        u, s, vt = np.linalg.svd(b.data, full_matrices=False)
        left = q.data @ u[:, :rank]
        right = s[:rank, None] * vt[:rank]
        rel = _relative_error(a_dev.data, left, right)
    return LowRankResult(
        method="rangefinder",
        rank=rank,
        left=left,
        right=right,
        relative_error=rel,
        total_seconds=seconds,
        extra={
            "oversample": float(r - rank),
            "power_iters": float(power_iters),
            "passes_over_a": 2.0 + 2.0 * power_iters,
        },
    )


def _fd_approx(
    a: ArrayLike, rank: int, *, ell: Optional[int], batch: int, executor: GPUExecutor
) -> LowRankResult:
    """Frequent Directions over the rows of a materialised matrix."""
    a_np = a.data if isinstance(a, DeviceArray) else np.asarray(a, dtype=np.float64)
    if a_np is None:
        raise ValueError("frequent_directions needs numeric rows to stream")
    if batch <= 0:
        raise ValueError("batch must be positive")
    d, n = a_np.shape
    if not 0 < rank <= min(d, n):
        raise ValueError("rank must lie in [1, min(d, n)]")
    el = 2 * rank if ell is None else int(ell)
    mark = executor.mark()
    fd = FrequentDirections(n, el, executor=executor)
    for start in range(0, d, int(batch)):
        fd.update(a_np[start : start + batch])
    v, _s = fd.lowrank(rank)
    # Project the stream onto the sketch's top right singular vectors:
    # left = A V_k (one d x n GEMM against the n x k basis).
    executor.launch(
        KernelRequest(
            name="fd_project",
            kclass=KernelClass.GEMM,
            bytes_read=(float(d) * n + float(n) * rank) * 8,
            bytes_written=float(d) * rank * 8,
            flops=2.0 * d * n * rank,
            dtype_size=8,
            phase="Project",
        )
    )
    seconds = executor.elapsed_since(mark)
    left = a_np @ v
    right = v.T
    return LowRankResult(
        method="frequent_directions",
        rank=rank,
        left=left,
        right=right,
        relative_error=_relative_error(a_np, left, right),
        total_seconds=seconds,
        extra={
            "ell": float(el),
            "rows_seen": float(fd.rows_seen),
            "shrinks": float(fd.shrink_count),
            "state_floats": float(2 * el * n),
        },
    )


class FrequentDirections:
    """Streaming Frequent Directions sketch of a row stream.

    Maintains a fixed ``2 ell x n`` buffer: arriving rows fill the free
    half; when the buffer is full one SVD ``B = U diag(s) V^T`` shrinks the
    spectrum (``s_i' = sqrt(max(s_i^2 - s_ell^2, 0))``) and keeps the top
    ``ell`` rows ``diag(s') V^T``.  Deterministic (no random state), linear
    in a mergeable sense (:meth:`merge` absorbs another sketch's rows), and
    ``O(n ell)`` amortised work per row regardless of the stream length --
    the accounting in :func:`repro.theory.complexity.lowrank_complexity`.

    When ``executor`` is given, the append pass and each shrink SVD are
    charged to its simulated clock; without one the accumulator is a pure
    host-side object (handy inside tests and host-side planners).
    """

    def __init__(
        self,
        n: int,
        ell: int,
        *,
        executor: Optional[GPUExecutor] = None,
        dtype=np.float64,
    ) -> None:
        if n <= 0 or ell <= 0:
            raise ValueError("n and ell must be positive")
        self.n = int(n)
        self.ell = int(ell)
        self._executor = executor
        self._dtype = np.dtype(dtype)
        self._buffer = np.zeros((2 * self.ell, self.n), dtype=self._dtype)
        self._used = 0
        self.rows_seen = 0
        self.shrink_count = 0

    # ------------------------------------------------------------------
    def update(self, rows: np.ndarray) -> None:
        """Absorb a batch of rows (any batch size, including empty)."""
        rows = np.atleast_2d(np.asarray(rows, dtype=self._dtype))
        if rows.size == 0:
            return
        if rows.shape[1] != self.n:
            raise ValueError(f"expected rows with {self.n} columns, got {rows.shape}")
        batch = rows.shape[0]
        self.rows_seen += batch
        if self._executor is not None:
            self._executor.launch(
                KernelRequest(
                    name="fd_append",
                    kclass=KernelClass.STREAM,
                    bytes_read=float(batch) * self.n * self._dtype.itemsize,
                    bytes_written=float(batch) * self.n * self._dtype.itemsize,
                    flops=0.0,
                    dtype_size=self._dtype.itemsize,
                    phase="Matrix sketch",
                )
            )
        offset = 0
        while offset < batch:
            room = self._buffer.shape[0] - self._used
            if room == 0:
                self._shrink()
                continue
            take = min(room, batch - offset)
            self._buffer[self._used : self._used + take] = rows[offset : offset + take]
            self._used += take
            offset += take

    def _shrink(self) -> None:
        """One SVD pass: shrink by the ``ell``-th squared singular value."""
        u, s, vt = np.linalg.svd(self._buffer[: self._used], full_matrices=False)
        del u
        if s.shape[0] > self.ell:
            delta = s[self.ell - 1] ** 2
            s = np.sqrt(np.clip(s**2 - delta, 0.0, None))
        keep = min(self.ell, s.shape[0])
        self._buffer[:keep] = s[:keep, None] * vt[:keep]
        self._buffer[keep:] = 0.0
        self._used = keep
        self.shrink_count += 1
        if self._executor is not None:
            rows = self._buffer.shape[0]
            self._executor.launch(
                KernelRequest(
                    name="fd_shrink_svd",
                    kclass=KernelClass.FACTOR,
                    bytes_read=float(rows) * self.n * self._dtype.itemsize,
                    bytes_written=float(self.ell) * self.n * self._dtype.itemsize,
                    flops=10.0 * rows * self.n * min(rows, self.n),
                    dtype_size=self._dtype.itemsize,
                    phase="Shrink",
                )
            )

    # ------------------------------------------------------------------
    def sketch(self) -> np.ndarray:
        """The current summary ``B`` (at most ``2 ell`` rows, copy)."""
        return self._buffer[: self._used].copy()

    def compress(self) -> np.ndarray:
        """Force a shrink and return the canonical ``<= ell``-row summary."""
        if self._used > self.ell:
            self._shrink()
        return self.sketch()

    def merge(self, other: "FrequentDirections") -> None:
        """Absorb another FD sketch (FD is mergeable: sketch of the union)."""
        if other.n != self.n:
            raise ValueError("can only merge sketches over the same column count")
        rows_before = self.rows_seen
        self.update(other.sketch())
        # Merging replays summary rows, not stream rows: count the stream.
        self.rows_seen = rows_before + other.rows_seen

    def lowrank(self, rank: int) -> Tuple[np.ndarray, np.ndarray]:
        """Top-``rank`` right singular vectors and values of the summary.

        Returns ``(V, s)`` with ``V`` of shape ``(n, rank)``; projecting
        ``A`` onto ``V`` gives the rank-``rank`` approximation whose error
        is within :func:`repro.theory.complexity.fd_error_bound` of the
        truncated-SVD optimum.
        """
        if not 0 < rank <= self.n:
            raise ValueError("rank must lie in [1, n]")
        if self._used == 0:
            raise RuntimeError("empty sketch: stream rows before asking for a basis")
        _u, s, vt = np.linalg.svd(self._buffer[: self._used], full_matrices=False)
        rank = min(rank, s.shape[0])
        return vt[:rank].T.copy(), s[:rank].copy()

    def covariance_error(self, a: np.ndarray) -> float:
        """``||A^T A - B^T B||_2`` -- the quantity FD's guarantee bounds."""
        a = np.asarray(a, dtype=np.float64)
        b = self._buffer[: self._used]
        return float(np.linalg.norm(a.T @ a - b.T @ b, ord=2))

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Durable state: the used buffer rows plus the stream counters.

        FD is deterministic, so this is *all* its state -- a restored
        accumulator continues the stream bit-identically.
        """
        return {
            "n": self.n,
            "ell": self.ell,
            "used": self._used,
            "rows_seen": self.rows_seen,
            "shrink_count": self.shrink_count,
            "buffer": self._buffer[: self._used].copy(),
        }

    def load_state(self, state: dict) -> None:
        """Restore from a :meth:`state_dict` snapshot (shape-checked)."""
        if int(state["n"]) != self.n or int(state["ell"]) != self.ell:
            raise ValueError(
                f"FD shape mismatch: snapshot is (n={state['n']}, ell={state['ell']}), "
                f"this accumulator is (n={self.n}, ell={self.ell})"
            )
        used = int(state["used"])
        buffer = np.asarray(state["buffer"], dtype=self._dtype)
        if buffer.shape != (used, self.n):
            raise ValueError(
                f"FD snapshot buffer shape {buffer.shape} does not match used={used}, n={self.n}"
            )
        self._buffer[:] = 0.0
        self._buffer[:used] = buffer
        self._used = used
        self.rows_seen = int(state["rows_seen"])
        self.shrink_count = int(state["shrink_count"])

    # ------------------------------------------------------------------
    @classmethod
    def from_countsketch(
        cls,
        sketch,
        ell: int,
        *,
        executor: Optional[GPUExecutor] = None,
    ) -> "FrequentDirections":
        """Compress a live ``StreamingCountSketch`` pass into an FD summary.

        The hashed CountSketch accumulator ``S A`` (``k x n``) preserves the
        stream's row space up to the embedding distortion, so feeding its
        rows through FD yields an ``ell``-row summary of a window that was
        itself never materialised -- CountSketch does the single-pass
        ingest, FD does the fixed-size spectral compression.  Used by
        :class:`repro.streaming.state.FrequentDirectionsState` and the
        serving layer's window summaries.
        """
        snapshot = sketch.snapshot()
        if snapshot is None:
            raise ValueError("analytic-mode CountSketch has no numeric rows to compress")
        fd = cls(snapshot.shape[1], ell, executor=executor or sketch.executor)
        fd.update(snapshot)
        return fd
