"""cuSOLVER stand-in: POTRF, GEQRF, ORMQR, TRSV, TRSM.

Section 6.1 of the paper describes exactly which dense factorisation routines
each least-squares method uses:

* the normal equations: Gram matrix (GEMM) + ``POTRF`` + two ``TRSV``;
* sketch-and-solve: ``GEQRF`` on the sketched matrix + ``ORMQR`` to apply the
  reflectors to the sketched right-hand side + ``TRSV``;
* rand_cholQR least squares (Algorithm 5): ``GEQRF`` on the sketch,
  a big ``TRSM`` to precondition ``A``, a Gram matrix, ``POTRF`` and two
  triangular solves.

The cost model charges the standard LAPACK flop counts; the numeric mode uses
NumPy/SciPy factorisations so failure modes (e.g. Cholesky breaking down on a
numerically indefinite Gram matrix, the mechanism behind Figure 8's normal
equations curve) are faithfully reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import scipy.linalg as sla

from repro.gpu.arrays import DeviceArray
from repro.gpu.executor import GPUExecutor
from repro.gpu.kernels import KernelClass, KernelRequest


class CholeskyFailedError(np.linalg.LinAlgError):
    """Raised when POTRF encounters a non-positive-definite matrix.

    This is the failure mode of the normal equations for ill-conditioned
    problems (kappa(A) > u^{-1/2}); Figure 8 of the paper shows it directly.
    """


@dataclass
class QRFactors:
    """Result of :meth:`SimSolver.geqrf`: the implicit QR factorisation.

    ``q`` holds the (economy) orthogonal factor in numeric mode; a real GEQRF
    would keep Householder reflectors instead, but the arithmetic charged is
    the reflector-based count, and ORMQR consumes this object the same way.
    """

    q: Optional[DeviceArray]
    r: DeviceArray
    rows: int
    cols: int


class SimSolver:
    """Dense factorisation and triangular-solve routines on the simulated device."""

    def __init__(self, executor: GPUExecutor) -> None:
        self._ex = executor

    # ------------------------------------------------------------------
    def potrf(self, g: DeviceArray, *, phase: str = "POTRF", label: str = "chol") -> DeviceArray:
        """Cholesky factorisation ``G = R^T R`` (upper-triangular R returned).

        Raises
        ------
        CholeskyFailedError
            If the matrix is not numerically positive definite.
        """
        n = g.shape[0]
        if g.shape[0] != g.shape[1]:
            raise ValueError("potrf expects a square matrix")
        out = self._ex.empty((n, n), dtype=g.dtype, order="F", label=label)

        self._ex.launch(
            KernelRequest(
                name="potrf",
                kclass=KernelClass.FACTOR,
                bytes_read=float(n * n) * g.itemsize,
                bytes_written=float(n * n) * g.itemsize,
                flops=float(n) ** 3 / 3.0,
                dtype_size=g.itemsize,
                phase=phase,
            )
        )

        if self._ex.numeric and g.is_numeric:
            try:
                chol = np.linalg.cholesky(g.data)
            except np.linalg.LinAlgError as exc:
                raise CholeskyFailedError(str(exc)) from exc
            out.data[...] = chol.T  # store the upper factor
        return out

    # ------------------------------------------------------------------
    def geqrf(self, y: DeviceArray, *, phase: str = "GEQRF", label: str = "qr") -> QRFactors:
        """Economy QR factorisation of a tall matrix ``Y`` (k x n, k >= n).

        FLOPs follow the Householder count ``2 k n^2 - 2 n^3 / 3``; this is
        the term that penalises the CountSketch-only sketch-and-solve solver
        in Figure 5, because its sketch has ``k = 2 n^2`` rows.
        """
        k, n = y.shape
        if k < n:
            raise ValueError("geqrf expects a tall (k >= n) matrix")
        r = self._ex.empty((n, n), dtype=y.dtype, order="F", label=f"{label}_R")
        q: Optional[DeviceArray] = None

        self._ex.launch(
            KernelRequest(
                name="geqrf",
                kclass=KernelClass.FACTOR,
                bytes_read=float(k * n) * y.itemsize,
                bytes_written=float(k * n + n * n) * y.itemsize,
                flops=2.0 * k * n * n - 2.0 * n ** 3 / 3.0,
                dtype_size=y.itemsize,
                phase=phase,
            )
        )

        if self._ex.numeric and y.is_numeric:
            q_np, r_np = np.linalg.qr(y.data, mode="reduced")
            q = self._ex.empty((k, n), dtype=y.dtype, order="F", label=f"{label}_Q")
            q.data[...] = q_np
            r.data[...] = r_np
        return QRFactors(q=q, r=r, rows=k, cols=n)

    # ------------------------------------------------------------------
    def ormqr(
        self,
        factors: QRFactors,
        b: DeviceArray,
        *,
        phase: str = "ORMQR",
        label: str = "qtb",
    ) -> DeviceArray:
        """Apply ``Q^T`` (from :meth:`geqrf`) to a vector or block ``b``.

        Returns only the first ``n`` rows of ``Q^T b``, which is what the
        triangular solve needs.
        """
        k, n = factors.rows, factors.cols
        if b.shape[0] != k:
            raise ValueError(f"ormqr dimension mismatch: Q is {k} rows, b has {b.shape[0]}")
        nrhs = 1 if b.ndim == 1 else b.shape[1]
        out_shape = (n,) if b.ndim == 1 else (n, nrhs)
        out = self._ex.empty(out_shape, dtype=b.dtype, label=label)

        self._ex.launch(
            KernelRequest(
                name="ormqr",
                kclass=KernelClass.FACTOR,
                bytes_read=float(k * n + k * nrhs) * b.itemsize,
                bytes_written=float(n * nrhs) * b.itemsize,
                flops=4.0 * k * n * nrhs - 2.0 * n * n * nrhs,
                dtype_size=b.itemsize,
                phase=phase,
            )
        )

        if self._ex.numeric and b.is_numeric:
            if factors.q is None:
                raise RuntimeError("numeric ORMQR requires numeric QR factors")
            out.data[...] = factors.q.data.T @ b.data
        return out

    # ------------------------------------------------------------------
    def trsv(
        self,
        r: DeviceArray,
        b: DeviceArray,
        *,
        lower: bool = False,
        transpose: bool = False,
        phase: str = "TRSV",
        label: str = "trsv_out",
    ) -> DeviceArray:
        """Solve the triangular system ``op(R) x = b`` for a single vector."""
        n = r.shape[0]
        if r.shape[0] != r.shape[1] or b.shape[0] != n:
            raise ValueError("trsv dimension mismatch")
        out = self._ex.empty((n,), dtype=b.dtype, label=label)

        self._ex.launch(
            KernelRequest(
                name="trsv",
                kclass=KernelClass.TRIANGULAR,
                bytes_read=float(n * n / 2 + n) * b.itemsize,
                bytes_written=float(n) * b.itemsize,
                flops=float(n) * n,
                dtype_size=b.itemsize,
                phase=phase,
            )
        )

        if self._ex.numeric and r.is_numeric and b.is_numeric:
            mat = r.data.T if transpose else r.data
            is_lower = lower ^ transpose
            out.data[...] = sla.solve_triangular(mat, b.data, lower=is_lower)
        return out

    # ------------------------------------------------------------------
    def trsm_left(
        self,
        r: DeviceArray,
        b: DeviceArray,
        *,
        lower: bool = False,
        transpose: bool = False,
        phase: str = "TRSM",
        label: str = "trsm_left_out",
    ) -> DeviceArray:
        """Solve ``op(R) X = B`` for a block of right-hand sides.

        The multi-RHS companion of :meth:`trsv`: ``R`` is ``n x n``
        triangular and ``B`` is ``n x nrhs``.  This is the solve the serving
        layer's fused micro-batches use -- one TRSM over the whole batch
        instead of one TRSV per request.
        """
        n = r.shape[0]
        if r.shape[0] != r.shape[1] or b.ndim != 2 or b.shape[0] != n:
            raise ValueError("trsm_left expects square R and an n x nrhs block B")
        nrhs = b.shape[1]
        out = self._ex.empty((n, nrhs), dtype=b.dtype, order="F", label=label)

        self._ex.launch(
            KernelRequest(
                name="trsm_left",
                kclass=KernelClass.TRIANGULAR,
                bytes_read=float(n * n / 2 + n * nrhs) * b.itemsize,
                bytes_written=float(n * nrhs) * b.itemsize,
                flops=float(n) * n * nrhs,
                dtype_size=b.itemsize,
                phase=phase,
            )
        )

        if self._ex.numeric and r.is_numeric and b.is_numeric:
            mat = r.data.T if transpose else r.data
            is_lower = lower ^ transpose
            out.data[...] = sla.solve_triangular(mat, b.data, lower=is_lower)
        return out

    # ------------------------------------------------------------------
    def trsm(
        self,
        a: DeviceArray,
        r: DeviceArray,
        *,
        phase: str = "TRSM",
        label: str = "preconditioned",
    ) -> DeviceArray:
        """Solve ``X R = A`` for X, i.e. compute ``A @ R^{-1}`` for upper-triangular R.

        This is the preconditioning step ``A0 = A R0^{-1}`` of rand_cholQR
        (Algorithms 4-5); it streams the full d x n matrix, so at the paper's
        sizes it is one of the dominant costs of that solver.

        Numerically ``A`` is copied into the output once and
        ``solve_triangular(R, Z^T, trans="T", overwrite_b=True)`` solves the
        output's F-contiguous transpose in place: the same LAPACK ``trtrs``
        call as solving ``A^T`` directly, without its internal copy of ``A``,
        so the result is bit-identical for every input layout and order
        label, and scipy's checks (non-finite ``A`` or ``R``: ``ValueError``;
        zero on ``R``'s diagonal: ``LinAlgError``) are unchanged.  The input
        is only read.
        """
        d, n = a.shape
        if r.shape != (n, n):
            raise ValueError("trsm expects R to be n x n matching A's column count")
        out = self._ex.empty((d, n), dtype=a.dtype, order=a.order, label=label)

        self._ex.launch(
            KernelRequest(
                name="trsm",
                kclass=KernelClass.GEMM,
                bytes_read=float(d * n + n * n) * a.itemsize,
                bytes_written=float(d * n) * a.itemsize,
                flops=float(d) * n * n,
                dtype_size=a.itemsize,
                phase=phase,
            )
        )

        if self._ex.numeric and a.is_numeric and r.is_numeric:
            # Solve R^T Z^T = A^T in place  =>  Z = A R^{-1}.  ``empty`` stores
            # every label row-major, so z.T is the F-contiguous n x d operand
            # trtrs overwrites; when A's dtype differs from R's, trtrs solves a
            # widened copy instead, which is cast back into the output.
            z = out.data
            z[...] = a.data
            zt = sla.solve_triangular(r.data, z.T, lower=False, trans="T", overwrite_b=True)
            if not np.shares_memory(zt, z):
                z[...] = zt.T
        return out

    # ------------------------------------------------------------------
    def householder_qr_solve(
        self,
        a: DeviceArray,
        b: DeviceArray,
        *,
        phase_prefix: str = "",
    ) -> DeviceArray:
        """Full Householder-QR least-squares solve on the *original* matrix.

        This is the reference "QR" solver of Figures 6-8.  It is accurate and
        stable but far slower than every other method at the paper's sizes,
        which is why the paper omits it from the timing plots.

        ``b`` may be a block of right-hand sides; ORMQR already applies the
        reflectors to the whole block and the final solve becomes a TRSM.
        """
        factors = self.geqrf(a, phase=f"{phase_prefix}GEQRF")
        qtb = self.ormqr(factors, b, phase=f"{phase_prefix}ORMQR")
        if qtb.ndim == 2:
            return self.trsm_left(factors.r, qtb, phase=f"{phase_prefix}TRSV", label="qr_solution")
        return self.trsv(factors.r, qtb, phase=f"{phase_prefix}TRSV", label="qr_solution")
