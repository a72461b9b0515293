"""cuBLAS stand-in: dense GEMM/SYRK/GEMV/transpose with roofline costs.

The Gaussian sketch, the Gram matrix, and the second (Gaussian) stage of the
multisketch are all applied with dense matrix-matrix products in the paper.
cuBLAS GEMM on an H100 is compute-bound and highly optimised, which is why
the Gram matrix is such a strong baseline; SYRK, although it does half the
arithmetic, performs noticeably worse in practice (Section 6), which is why
the paper's normal-equations solver uses GEMM for the Gram matrix.

All operations here take and return :class:`~repro.gpu.arrays.DeviceArray`
handles; in numeric mode the arithmetic is performed with NumPy, in analytic
mode only the cost is charged.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.gpu.arrays import DeviceArray
from repro.gpu.executor import GPUExecutor
from repro.gpu.kernels import KernelClass, KernelRequest


class SimBLAS:
    """Dense BLAS operations on the simulated device."""

    #: SYRK achieves a noticeably lower fraction of peak than GEMM in
    #: practice; the paper calls this out explicitly when justifying the use
    #: of GEMM for the Gram matrix.
    SYRK_RELATIVE_EFFICIENCY = 0.55

    def __init__(self, executor: GPUExecutor) -> None:
        self._ex = executor

    # ------------------------------------------------------------------
    @staticmethod
    def _matmul_dims(a_shape, b_shape, trans_a: bool, trans_b: bool):
        am, ak = a_shape if not trans_a else (a_shape[1], a_shape[0])
        bk, bn = b_shape if not trans_b else (b_shape[1], b_shape[0])
        if ak != bk:
            raise ValueError(
                f"gemm dimension mismatch: ({am}x{ak}) @ ({bk}x{bn}) "
                f"with trans_a={trans_a}, trans_b={trans_b}"
            )
        return am, ak, bn

    # ------------------------------------------------------------------
    def gemm(
        self,
        a: DeviceArray,
        b: DeviceArray,
        *,
        trans_a: bool = False,
        trans_b: bool = False,
        alpha: float = 1.0,
        out: Optional[DeviceArray] = None,
        phase: str = "GEMM",
        label: str = "gemm_out",
    ) -> DeviceArray:
        """Compute ``alpha * op(a) @ op(b)``.

        FLOPs are ``2 m k n``; the memory traffic reads both operands once
        and writes the result once (blocking keeps re-reads in cache, which
        is folded into the GEMM efficiency constant).
        """
        m, k, n = self._matmul_dims(a.shape, b.shape, trans_a, trans_b)
        ex = self._ex
        if out is None:
            out = ex.empty((m, n), dtype=a.dtype, order="F", label=label)
        elif out.shape != (m, n):
            raise ValueError(f"output shape {out.shape} does not match gemm result ({m}, {n})")

        if ex.numeric and a.data is not None and b.data is not None:
            lhs = a.data.T if trans_a else a.data
            rhs = b.data.T if trans_b else b.data
            np.matmul(lhs, rhs, out=out.data)
            if alpha != 1.0:
                out.data *= alpha

        itemsize = a.dtype.itemsize
        ex.launch(
            KernelRequest(
                name="gemm",
                kclass=KernelClass.GEMM,
                bytes_read=float(m * k + k * n) * itemsize,
                bytes_written=float(m * n) * itemsize,
                flops=2.0 * m * k * n,
                dtype_size=itemsize,
                phase=phase,
            )
        )
        return out

    # ------------------------------------------------------------------
    def syrk(
        self,
        a: DeviceArray,
        *,
        phase: str = "Gram matrix",
        label: str = "gram",
    ) -> DeviceArray:
        """Compute the Gram matrix ``a.T @ a`` with a SYRK-style update.

        Half the arithmetic of GEMM, but charged at a lower efficiency; the
        paper found GEMM to be faster in practice, and the ablation benchmark
        ``benchmarks/test_ablation_gram.py`` reproduces that comparison.
        """
        d, n = a.shape
        out = self._ex.empty((n, n), dtype=a.dtype, order="F", label=label)
        if self._ex.numeric and a.is_numeric:
            np.matmul(a.data.T, a.data, out=out.data)
            # Symmetrise to remove rounding asymmetry, as a real SYRK would
            # only compute one triangle.
            out.data[...] = 0.5 * (out.data + out.data.T)

        itemsize = a.itemsize
        flops = float(d) * n * (n + 1)  # ~ d*n^2, half of the GEMM count
        effective_flops = flops / self.SYRK_RELATIVE_EFFICIENCY
        self._ex.launch(
            KernelRequest(
                name="syrk",
                kclass=KernelClass.GEMM,
                bytes_read=float(d * n) * itemsize,
                bytes_written=float(n * n) * itemsize,
                flops=effective_flops,
                dtype_size=itemsize,
                phase=phase,
            )
        )
        return out

    def gram(self, a: DeviceArray, *, phase: str = "Gram matrix", use_syrk: bool = False) -> DeviceArray:
        """Compute ``a.T @ a`` the way the paper does (GEMM by default)."""
        if use_syrk:
            return self.syrk(a, phase=phase)
        return self.gemm(a, a, trans_a=True, phase=phase, label="gram")

    # ------------------------------------------------------------------
    def gemv(
        self,
        a: DeviceArray,
        x: DeviceArray,
        *,
        trans_a: bool = False,
        phase: str = "GEMV",
        label: str = "gemv_out",
    ) -> DeviceArray:
        """Compute ``op(a) @ x`` for a vector ``x`` (memory-bound)."""
        m, n = a.shape if not trans_a else (a.shape[1], a.shape[0])
        if x.shape[0] != n:
            raise ValueError(f"gemv dimension mismatch: ({m}x{n}) @ ({x.shape[0]},)")
        out = self._ex.empty((m,), dtype=a.dtype, label=label)
        if self._ex.numeric and a.is_numeric and x.is_numeric:
            mat = a.data.T if trans_a else a.data
            np.matmul(mat, x.data, out=out.data)

        itemsize = a.itemsize
        self._ex.launch(
            KernelRequest(
                name="gemv",
                kclass=KernelClass.STREAM,
                bytes_read=float(m * n + n) * itemsize,
                bytes_written=float(m) * itemsize,
                flops=2.0 * m * n,
                dtype_size=itemsize,
                phase=phase,
            )
        )
        return out

    # ------------------------------------------------------------------
    def transpose(
        self,
        a: DeviceArray,
        *,
        phase: str = "Transpose",
        label: str = "transposed",
    ) -> DeviceArray:
        """Out-of-place transpose (row-major <-> column-major conversion).

        Section 6.1 of the paper explains why the multisketch avoids
        transposing the large intermediate: this kernel reads and writes the
        whole array, so transposing the small final product instead saves
        time.
        """
        if len(a.shape) != 2:
            raise ValueError("transpose expects a 2-D array")
        m, n = a.shape
        ex = self._ex
        out = ex.empty((n, m), dtype=a.dtype, order="F" if a.order == "C" else "C", label=label)
        if ex.numeric and a.data is not None:
            out.data[...] = a.data.T
        nbytes = a.nbytes
        ex.launch(
            KernelRequest(
                name="transpose",
                kclass=KernelClass.STREAM,
                bytes_read=nbytes,
                bytes_written=nbytes,
                flops=0.0,
                dtype_size=a.dtype.itemsize,
                phase=phase,
            )
        )
        return out

    # ------------------------------------------------------------------
    def axpy(
        self,
        alpha: float,
        x: DeviceArray,
        y: DeviceArray,
        *,
        phase: str = "AXPY",
    ) -> DeviceArray:
        """In-place ``y += alpha * x`` (memory-bound streaming kernel)."""
        if x.shape != y.shape:
            raise ValueError("axpy requires matching shapes")
        if self._ex.numeric and x.is_numeric and y.is_numeric:
            y.data += alpha * x.data
        self._ex.launch(
            KernelRequest(
                name="axpy",
                kclass=KernelClass.STREAM,
                bytes_read=2.0 * x.nbytes,
                bytes_written=x.nbytes,
                flops=2.0 * x.size,
                dtype_size=x.itemsize,
                phase=phase,
            )
        )
        return y

    def scale(self, alpha: float, x: DeviceArray, *, phase: str = "Scale") -> DeviceArray:
        """In-place ``x *= alpha``."""
        if self._ex.numeric and x.is_numeric:
            x.data *= alpha
        self._ex.launch(
            KernelRequest(
                name="scal",
                kclass=KernelClass.STREAM,
                bytes_read=x.nbytes,
                bytes_written=x.nbytes,
                flops=float(x.size),
                dtype_size=x.itemsize,
                phase=phase,
            )
        )
        return x

    def norm2(self, x: DeviceArray, *, phase: str = "Norm") -> float:
        """Euclidean norm of a vector (numeric mode only returns the value)."""
        self._ex.launch(
            KernelRequest(
                name="nrm2",
                kclass=KernelClass.STREAM,
                bytes_read=x.nbytes,
                flops=2.0 * x.size,
                dtype_size=x.itemsize,
                phase=phase,
            )
        )
        if self._ex.numeric and x.is_numeric:
            return float(np.linalg.norm(x.data))
        return float("nan")
