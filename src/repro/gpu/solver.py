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
equations curve) are faithfully reproduced.  The QR kernels do what they are
charged for: ``geqrf`` runs LAPACK ``geqrf`` and keeps the Householder
reflectors, ``ormqr`` applies them with LAPACK ``ormqr``, and no explicit
``Q`` is built unless a caller reads :attr:`QRFactors.q`.

The host does less than the charge says in two places, both one pass over
cache-sized row blocks of ``A`` (:func:`_blocked_gram`):

* The normal equations and ridge's normal equations.
  :meth:`SimSolver.normal_equations_system` charges the Gram GEMM (then
  ridge's diagonal shift) and the ``A^T b`` GEMV or GEMM exactly as the
  separate :class:`~repro.gpu.blas.SimBLAS` calls do, in their order and
  with their allocations; the host forms ``A^T A`` and ``A^T B`` from each
  block it reads, instead of reading ``A`` once per product.
* Algorithm 5's preconditioning.  :meth:`SimSolver.precondition_gram`
  charges the d x n TRSM ``A0 = A R0^{-1}`` and the Gram matrix
  ``A0^T A0`` exactly as :meth:`SimSolver.trsm` and
  :meth:`~repro.gpu.blas.SimBLAS.gram` do, and accounts ``A0`` on the
  memory tracker; the host inverts ``R0`` once, multiplies each block by
  the triangular inverse in place with BLAS ``trmm`` (half a GEMM's flops)
  and forms ``G = A0^T A0`` and ``Z = A0^T B`` from it, never holding
  ``A0``.

:meth:`SimSolver.trsm` itself keeps LAPACK ``trtrs``'s values bit for bit
(Algorithm 4 must form ``Q``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

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


def _lapack(name: str, *arrays: np.ndarray):
    """The LAPACK routine ``name`` for the arrays' common dtype (``d``/``s`` prefix)."""
    return _lapack_for(name, "".join(a.dtype.char for a in arrays))


@functools.lru_cache(maxsize=64)
def _lapack_for(name: str, chars: str):
    # scipy picks the prefix from the dtypes alone, so one lookup per
    # (routine, dtypes) serves every array of those dtypes.
    return sla.get_lapack_funcs((name,), tuple(np.empty(0, dtype=c) for c in chars))[0]


def _check_info(name: str, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {name} failed with info={info}")


#: LAPACK workspace sizes by ``(routine, dtype, dimensions)``.  A size
#: depends on those alone, so each is queried (``lwork=-1``) once and the
#: queried size is the one passed: LAPACK blocks, and so rounds, as it would
#: after its own query.  Emptied when it reaches :data:`_LWORK_CAP` entries.
_LWORK: Dict[tuple, int] = {}
_LWORK_CAP = 256


def _lwork(key: tuple, query: Callable[[], tuple]) -> int:
    """The workspace size for ``key = (routine, ...)``, queried the first time it is asked for.

    ``query()`` makes the routine's ``lwork=-1`` call and returns LAPACK's
    ``(optimal size, info)``.
    """
    lwork = _LWORK.get(key)
    if lwork is None:
        size, info = query()
        _check_info(key[0], info)
        if len(_LWORK) >= _LWORK_CAP:
            _LWORK.clear()
        lwork = _LWORK[key] = max(1, int(size))
    return lwork


_TRANS = {"N": 0, "T": 1}


def _solve_triangular(
    a: np.ndarray, b: np.ndarray, *, lower: bool = False, trans=0, overwrite_b: bool = False
) -> np.ndarray:
    """Solve ``op(a) x = b`` for a triangular ``a``: ``scipy.linalg.solve_triangular`` without its wrapper.

    The same LAPACK ``trtrs`` call as scipy's with the same arguments, so
    ``x`` is bit for bit scipy's: an F-contiguous ``a`` is passed as it is,
    any other as its transpose with ``lower`` and ``trans`` flipped
    (``trans``: 0 or ``"N"``, 1 or ``"T"``).  ``a`` is a 2-D and ``b`` a
    1-D or 2-D float array.  The failures are scipy's too: ``ValueError``
    ("array must not contain infs or NaNs") for a non-finite ``a`` or ``b``,
    and ``LinAlgError`` ("singular matrix: resolution failed at diagonal i")
    for a zero on ``a``'s diagonal.
    """
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    trans = _TRANS.get(trans, trans)
    if b.size == 0:  # scipy's own empty-result dtype rule
        return sla.solve_triangular(a, b, trans=trans, lower=lower)
    trtrs = _lapack("trtrs", a, b)
    if a.flags.f_contiguous:
        x, info = trtrs(a, b, overwrite_b=overwrite_b, lower=lower, trans=trans)
    else:
        x, info = trtrs(a.T, b, overwrite_b=overwrite_b, lower=not lower, trans=not trans)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


@functools.lru_cache(maxsize=64)
def _strict_lower(n: int) -> np.ndarray:
    """Read-only ``n x n`` mask of the strictly lower triangle (``np.triu``'s zeros)."""
    mask = np.tri(n, n, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


#: Rows per block of a transposing copy into F-order.  A block of 256 rows
#: stays in cache while its columns are scattered, which numpy's one-pass
#: copy of a row-major array does not: on one core 65536 x 64 float64 took
#: 53 ms that way and 17 ms in blocks, 2064 x 16 35 us and 21 us.
_COPY_BLOCK_ROWS = 256


#: Bytes of ``A`` per row block of :func:`_blocked_gram` (1024 rows of a
#: 64-column float64 matrix), in both of its passes.  A block this size stays
#: in cache between its copy/TRMM and the Gram/``X^T B`` updates that read it.
#: At 65536 x 64 on one pinned core of a 2-vCPU x86 host (one BLAS thread,
#: 30 interleaved runs, median) the Gram/``A^T b`` pass took 18.9 ms and the
#: TRMM preconditioning pass 33.6 ms at 512 KiB, against 20.8 and 35.6 ms at
#: 1 MiB (512 KiB faster in 29 and 30 of 30 runs); 256 KiB lost to 512 KiB
#: in 27 and 28 of 30.
_PRECONDITION_BLOCK_BYTES = 1 << 19


def _fortran_copy(a: np.ndarray) -> np.ndarray:
    """An F-order copy of the 2-D array ``a`` (the work array LAPACK overwrites)."""
    if a.flags.f_contiguous:
        return np.array(a, order="F")
    out = np.empty(a.shape, dtype=a.dtype, order="F")
    for i in range(0, a.shape[0], _COPY_BLOCK_ROWS):
        out[i:i + _COPY_BLOCK_ROWS] = a[i:i + _COPY_BLOCK_ROWS]
    return out


def _blocked_gram(
    a: np.ndarray, b: np.ndarray, r: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """``G = X^T X`` and ``Z = X^T B`` for ``X = A`` or ``X = A R^{-1}``, reading ``A`` once.

    ``A`` is read in row blocks of :data:`_PRECONDITION_BLOCK_BYTES`; each
    block's Gram matrix and product with the matching rows of ``B`` are
    added into ``G`` and ``Z``.  When ``A`` fits one block, ``G`` and ``Z``
    are bit for bit ``A^T A`` and ``A^T B``.

    Without ``R`` the blocks are read in place: ``G`` is in ``A``'s dtype and
    ``Z`` in ``result_type(A, B)``, as the separate BLAS calls form them.
    A non-finite ``A`` or ``B`` leaves ``G`` or ``Z`` non-finite and warns
    nothing, as those calls do.

    With ``R`` (upper triangular; its strictly lower part is ignored) the
    pass works in ``result_type(A, R)`` (``Z`` also widens to ``B``'s
    dtype).  ``R`` is inverted once with LAPACK ``trtri``, and each block is
    copied into one reused buffer and multiplied by the inverse in place with
    BLAS ``trmm`` (half the flops of a GEMM).  Raises ``ValueError`` ("infs
    or NaNs") for a non-finite ``R``, ``G`` or ``Z``: a non-finite entry of
    ``A`` always reaches ``G``'s diagonal, because ``R^{-1}`` has a nonzero
    diagonal.  Raises ``LinAlgError`` for a zero on ``R``'s diagonal, with
    LAPACK ``trtrs``'s message.
    """
    d, n = a.shape
    if r is None:
        dtype, trmm = a.dtype, None
    else:
        dtype = np.result_type(a, r)
        r = np.asarray_chkfinite(r).astype(dtype, copy=False)
        rinv, info = _lapack("trtri", r)(r, lower=0)
        if info > 0:
            raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
        _check_info("trtri", info)
        trmm = sla.get_blas_funcs("trmm", (rinv,))
    rows = max(1, _PRECONDITION_BLOCK_BYTES // (n * dtype.itemsize))
    buf = None if trmm is None else np.empty((min(rows, d), n), dtype=dtype)
    g = z = None
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite G or Z is the caller's to judge
        for i in range(0, max(d, 1), rows):  # one (empty) block when d == 0
            if trmm is None:
                x = a[i:i + rows]
            else:
                # X R^{-1} = (R^{-T} X^T)^T: the C-order block's transpose is
                # the F-order operand trmm overwrites in place.
                x = buf[:min(rows, d - i)]
                x[...] = a[i:i + rows]
                trmm(1.0, rinv, x.T, side=0, lower=0, trans_a=1, overwrite_b=1)
            gi, zi = x.T @ x, x.T @ b[i:i + rows]
            if g is None:
                g, z = gi, zi
            else:
                g += gi
                z += zi
    if trmm is not None and not (np.isfinite(g).all() and np.isfinite(z).all()):
        raise ValueError("array must not contain infs or NaNs")
    return g, z


@dataclass
class QRFactors:
    """Result of :meth:`SimSolver.geqrf`: the implicit QR factorisation.

    In numeric mode ``reflectors`` holds the ``k x n`` LAPACK ``geqrf``
    output (F-order; the Householder vectors lie below its diagonal) and
    ``tau`` their scalar factors -- ``Q`` in factored form, which
    :meth:`SimSolver.ormqr` applies directly.  Both are ``None`` in analytic
    mode.
    """

    r: DeviceArray
    rows: int
    cols: int
    reflectors: Optional[DeviceArray] = None
    tau: Optional[np.ndarray] = None
    _q: Optional[DeviceArray] = field(default=None, init=False, repr=False)

    @property
    def q(self) -> Optional[DeviceArray]:
        """The explicit economy ``Q`` (``k x n``); ``None`` in analytic mode.

        Formed on first read by LAPACK ``orgqr`` from the reflectors and
        cached.  It is not charged to the simulated clock (the charged GEQRF
        keeps only the reflectors) and holds no device allocation of its own.
        """
        if self._q is None and self.reflectors is not None:
            refl = self.reflectors.data
            orgqr = _lapack("orgqr", refl)

            def query():
                _, work, info = orgqr(refl, self.tau, lwork=-1)
                return work[0], info

            lwork = _lwork(("orgqr", refl.dtype.char) + refl.shape, query)
            q_np, _, info = orgqr(refl, self.tau, lwork=lwork)
            _check_info("orgqr", info)
            # Stored row-major like every executor allocation, so the GEMMs
            # that read Q see the operand layout any device array has.
            self._q = DeviceArray(
                q_np.shape, q_np.dtype, "F", np.ascontiguousarray(q_np),
                label=self.reflectors.label, handle=None, executor=None,
            )
        return self._q


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

        Numerically LAPACK ``geqrf`` factors an F-order copy of ``Y`` (``Y``
        is only read); the factors keep its reflectors, and ``R`` is the
        upper triangle of its first ``n`` rows.
        """
        ex = self._ex
        k, n = y.shape
        if k < n:
            raise ValueError("geqrf expects a tall (k >= n) matrix")
        r = ex.empty((n, n), dtype=y.dtype, order="F", label=f"{label}_R")

        itemsize = y.dtype.itemsize
        ex.launch(
            KernelRequest(
                name="geqrf",
                kclass=KernelClass.FACTOR,
                bytes_read=float(k * n) * itemsize,
                bytes_written=float(k * n + n * n) * itemsize,
                flops=2.0 * k * n * n - 2.0 * n ** 3 / 3.0,
                dtype_size=itemsize,
                phase=phase,
            )
        )

        if r.data is None or y.data is None:
            return QRFactors(r=r, rows=k, cols=n)
        # LAPACK factors in place, so ``Y`` is copied once into an F-order
        # work array.  It becomes the reflector storage: Q in factored form,
        # accounted as the factorisation's k x n device allocation.
        work = _fortran_copy(y.data)
        char = work.dtype.char
        lwork = _lwork(("geqrf", char, k, n), lambda: _lapack_for("geqrf_lwork", char)(k, n))
        work, tau, _, info = _lapack_for("geqrf", char)(work, lwork=lwork, overwrite_a=1)
        _check_info("geqrf", info)
        # np.triu(work[:n]) without its per-call mask.
        np.copyto(r.data, work[:n])
        np.copyto(r.data, 0.0, where=_strict_lower(n))
        reflectors = ex._adopt(work, work, "F", f"{label}_Q")
        return QRFactors(r=r, rows=k, cols=n, reflectors=reflectors, tau=tau)

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
        triangular solve needs.  Numerically LAPACK ``ormqr`` applies the
        reflectors to an F-order copy of ``b`` (``b`` is only read) in the
        wider of the two dtypes, so ``b`` is never downcast.
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

        if out.data is not None and b.data is not None:
            if factors.reflectors is None:
                raise RuntimeError("numeric ORMQR requires numeric QR factors")
            refl, tau = factors.reflectors.data, factors.tau
            dtype = np.result_type(refl, b.data)
            if refl.dtype != dtype:
                refl, tau = refl.astype(dtype, order="F"), tau.astype(dtype)
            c = np.array(b.data.reshape(k, nrhs), dtype=dtype, order="F")
            ormqr = _lapack_for("ormqr", dtype.char)

            def query():
                _, work, info = ormqr("L", "T", refl, tau, c, -1, overwrite_c=1)
                return work[0], info

            lwork = _lwork(("ormqr", dtype.char, k, n, nrhs), query)
            c, _, info = ormqr("L", "T", refl, tau, c, lwork, overwrite_c=1)
            _check_info("ormqr", info)
            out.data[...] = c[:n].reshape(out_shape)
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

        if out.data is not None and r.data is not None and b.data is not None:
            mat = r.data.T if transpose else r.data
            out.data[...] = _solve_triangular(mat, b.data, lower=lower ^ transpose)
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

        if out.data is not None and r.data is not None and b.data is not None:
            mat = r.data.T if transpose else r.data
            out.data[...] = _solve_triangular(mat, b.data, lower=lower ^ transpose)
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
        (Algorithm 4, and the charge of Algorithm 5's :meth:`precondition_gram`);
        it streams the full d x n matrix, so at the paper's sizes it is one of
        the dominant costs of that solver.

        Numerically ``A`` is copied into the output once and
        ``solve_triangular(R, Z^T, trans="T", overwrite_b=True)``
        (:func:`_solve_triangular`) solves the output's F-contiguous
        transpose in place: the same LAPACK ``trtrs``
        call as solving ``A^T`` directly, without its internal copy of ``A``,
        so the result is bit-identical for every input layout and order
        label, and scipy's checks (non-finite ``A`` or ``R``: ``ValueError``;
        zero on ``R``'s diagonal: ``LinAlgError``) are unchanged.  The input
        is only read.
        """
        self._check_trsm_shapes(a, r)
        out = self._ex.empty(a.shape, dtype=a.dtype, order=a.order, label=label)
        self._launch_trsm(a, phase)

        if self._ex.numeric and a.is_numeric and r.is_numeric:
            # Solve R^T Z^T = A^T in place  =>  Z = A R^{-1}.  ``empty`` stores
            # every label row-major, so z.T is the F-contiguous n x d operand
            # trtrs overwrites; when A's dtype differs from R's, trtrs solves a
            # widened copy instead, which is cast back into the output.
            z = out.data
            z[...] = a.data
            zt = _solve_triangular(r.data, z.T, lower=False, trans="T", overwrite_b=True)
            if not np.shares_memory(zt, z):
                z[...] = zt.T
        return out

    def precondition_gram(
        self,
        a: DeviceArray,
        r: DeviceArray,
        b: DeviceArray,
        *,
        phase: str = "TRSM",
        label: str = "A_preconditioned",
    ) -> Tuple[DeviceArray, DeviceArray, Optional[np.ndarray]]:
        """rand_cholQR's preconditioning: ``A0 = A R^{-1}``, ``G = A0^T A0`` and ``Z = A0^T B``.

        Charged exactly as :meth:`trsm` followed by
        :meth:`~repro.gpu.blas.SimBLAS.gram` (phase ``"Gram matrix"``): the
        same two launches, and the d x n ``A0`` allocation on the memory
        tracker.  Returns ``(A0, G, Z)``.  The ``A0`` handle holds no host
        data: the host forms ``G`` and ``Z`` in one blocked pass over ``A``
        (:func:`_blocked_gram`), so ``Z`` comes back as a host array
        (``None`` in analytic mode).  The caller charges its ``A0^T B``
        launch where its algorithm orders it (Algorithm 5: after POTRF) and
        takes the values from ``Z``.

        ``G`` and ``Z`` match the TRSM path within rounding, not bit for bit:
        the host multiplies by ``R``'s ``trtri`` inverse (BLAS ``trmm``)
        instead of solving row by row.  The checks are :meth:`trsm`'s: a
        non-finite ``A``, ``R`` or ``B`` raises ``ValueError``, a zero on
        ``R``'s diagonal raises ``LinAlgError`` after the TRSM launch and
        before the Gram launch.  ``A`` and ``B`` are only read.
        """
        self._check_trsm_shapes(a, r)
        if b.shape[0] != a.shape[0]:
            raise ValueError(
                f"precondition_gram dimension mismatch: A has {a.shape[0]} rows, B has {b.shape[0]}"
            )
        a0 = self._ex.reserve(a.shape, dtype=a.dtype, order=a.order, label=label)
        self._launch_trsm(a, phase)
        g = z = None
        if self._ex.numeric and a.is_numeric and r.is_numeric and b.is_numeric:
            g, z = _blocked_gram(a.data, b.data, r.data)
        gram = self._ex.blas.gram(a0, phase="Gram matrix")
        if g is not None:
            gram.data[...] = g
        return a0, gram, z

    def normal_equations_system(
        self,
        a: DeviceArray,
        b: DeviceArray,
        *,
        shift: Optional[float] = None,
    ) -> Tuple[DeviceArray, DeviceArray]:
        """The normal equations' ``G = A^T A (+ shift I)`` and ``A^T B``; returns ``(G, A^T B)``.

        Charged exactly as :meth:`~repro.gpu.blas.SimBLAS.gram` (phase
        ``"Gram matrix"``), then, when ``shift`` is given (ridge's
        ``lam``), the ``n`` diagonal adds of kernel ``ridge_diag_shift``,
        then the ``A^T b`` GEMV (a GEMM for a block ``B``, phase ``"AT*b"``):
        the same launches in the same order, and the same allocations.  The
        host forms ``G`` and ``A^T B`` in one blocked pass over ``A``
        (:func:`_blocked_gram`), bit for bit the separate BLAS calls when
        ``A`` fits one block and within rounding above that.  A non-finite
        ``A`` or ``B`` comes back in ``G`` or ``A^T B`` unchecked, as from
        the separate calls.  ``A`` and ``B`` are only read.
        """
        ex, blas = self._ex, self._ex.blas
        g = z = None
        if ex.numeric and a.is_numeric and b.is_numeric:
            g, z = _blocked_gram(a.data, b.data)
        # A data-less view of A: the BLAS calls below charge and allocate
        # their outputs as ever, but leave the values to the pass above.
        a_view = DeviceArray(a.shape, a.dtype, a.order, None, a.label, None, ex)
        gram = blas.gram(a_view, phase="Gram matrix")
        if g is not None:
            gram.data[...] = g
        if shift is not None:
            n = a.shape[1]
            if g is not None and shift > 0.0:
                gram.data[np.arange(n), np.arange(n)] += shift
            # n diagonal adds: negligible arithmetic, but charged so the
            # simulated clock never under-reports the regularized path.
            ex.launch(
                KernelRequest(
                    name="ridge_diag_shift",
                    kclass=KernelClass.STREAM,
                    bytes_read=float(n) * 8,
                    bytes_written=float(n) * 8,
                    flops=float(n),
                    dtype_size=8,
                    phase="Gram matrix",
                )
            )
        if b.ndim == 2:
            atb = blas.gemm(a_view, b, trans_a=True, phase="AT*b", label="ATB")
        else:
            atb = blas.gemv(a_view, b, trans_a=True, phase="AT*b", label="ATb")
        if z is not None:
            atb.data[...] = z
        return gram, atb

    @staticmethod
    def _check_trsm_shapes(a: DeviceArray, r: DeviceArray) -> None:
        _, n = a.shape
        if r.shape != (n, n):
            raise ValueError("trsm expects R to be n x n matching A's column count")

    def _launch_trsm(self, a: DeviceArray, phase: str) -> None:
        d, n = a.shape
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
