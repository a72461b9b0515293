"""Least-squares solvers: normal equations, sketch-and-solve, Householder QR.

These are the three directly-compared solvers of Section 6.3 (rand_cholQR is
in :mod:`repro.linalg.rand_cholqr`).  Each solver accepts either host NumPy
arrays or device handles, runs on a simulated GPU executor, and returns a
:class:`LeastSquaresResult` carrying the solution, the achieved relative
residual, and the per-phase simulated time breakdown -- exactly the
decomposition plotted in Figure 5 (Gram matrix / AT*b / Sketch gen / Matrix
sketch / Vector sketch / POTRF / GEQRF / ORMQR / TRSV / TRSM).

Every solver here is also registered behind the uniform
``solve(spec) -> LeastSquaresResult`` interface of
:mod:`repro.linalg.registry` (names ``"normal_equations"``,
``"sketch_and_solve"``, ``"qr"``), which is how the adaptive planner and the
serving layer dispatch to them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.core.base import SketchOperator
from repro.gpu.arrays import DeviceArray
from repro.gpu.executor import GPUExecutor
from repro.gpu.timing import TimeBreakdown

ArrayLike = Union[np.ndarray, DeviceArray]


@dataclass
class LeastSquaresResult:
    """Outcome of a least-squares solve.

    Attributes
    ----------
    method:
        Solver name (``"normal_equations"``, ``"sketch_and_solve[...]"``, ...).
    x:
        Solution vector (host copy; ``None`` in analytic mode).
    residual_norm / relative_residual:
        ``||b - A x||_2`` and ``||b - A x||_2 / ||b||_2`` (NaN when analytic).
    breakdown:
        Simulated time breakdown of the solve (excludes problem generation).
    total_seconds:
        Convenience copy of ``breakdown.total()``.
    failed / failure_reason:
        Set when the solver broke down (e.g. Cholesky failure on an
        ill-conditioned Gram matrix), in which case ``x`` is ``None``.  When
        the solve went through the planner's fallback chain
        (:func:`repro.linalg.planner.execute_plan`), the last failure reason
        is preserved here even when ``failed`` is False -- a rescued solve
        still says what broke -- and ``extra["attempted"]`` records the full
        ``"solver1->solver2"`` chain that was tried.
    """

    method: str
    x: Optional[np.ndarray]
    residual_norm: float
    relative_residual: float
    breakdown: TimeBreakdown
    total_seconds: float
    failed: bool = False
    failure_reason: str = ""
    extra: Dict[str, object] = field(default_factory=dict)
    column_residuals: Optional[np.ndarray] = None

    @property
    def attempted_solvers(self) -> tuple:
        """Solver names tried for this result, in order (``(method,)`` when
        the solve never went through a fallback chain)."""
        attempted = self.extra.get("attempted")
        if isinstance(attempted, str) and attempted:
            return tuple(attempted.split("->"))
        return (self.method,)

    def record_attempt_chain(self, attempts, reasons) -> "LeastSquaresResult":
        """Stamp a planner fallback history onto this result (returns self).

        ``attempts`` is the ordered solver-name chain (this result's own
        solver last); ``reasons`` the failure reason of each *unsuccessful*
        attempt.  The chain lands in ``extra["attempted"]`` /
        ``extra["fallbacks"]``, and -- so that failures are never silently
        swallowed -- the last failure reason is kept in ``failure_reason``
        even when this result itself succeeded.
        """
        attempts = tuple(attempts)
        reasons = tuple(r for r in reasons if r)
        self.extra["attempted"] = "->".join(attempts)
        self.extra["fallbacks"] = float(max(len(attempts) - 1, 0))
        if reasons:
            self.extra["fallback_reasons"] = "; ".join(reasons)
            if not self.failure_reason:
                self.failure_reason = reasons[-1]
        return self

    @property
    def nrhs(self) -> int:
        """Number of right-hand sides solved (1 for a vector ``b``)."""
        if self.x is not None and self.x.ndim == 2:
            return self.x.shape[1]
        return int(self.extra.get("nrhs", 1))

    def phase_seconds(self) -> Dict[str, float]:
        """Seconds per phase label (the Figure-5 bar segments)."""
        return self.breakdown.by_phase()


def relative_residual(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> float:
    """``||b - A x||_2 / ||b||_2`` computed on the host in float64."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    nb = np.linalg.norm(b)
    if nb == 0.0:
        return float(np.linalg.norm(a @ x))
    return float(np.linalg.norm(b - a @ x) / nb)


def block_residuals(
    a: np.ndarray, b: np.ndarray, x: np.ndarray, lam: float = 0.0
) -> Tuple[float, float, np.ndarray]:
    """Exact residuals of a block solve ``A X ~ B`` with ``d x m`` right-hand sides.

    ``R^T = B^T - X^T A^T`` is formed by one GEMM into an ``m x d`` row-major
    buffer, so each row is one column's residual and its squared norm is a
    contiguous row reduction; ``B^T`` is free and contiguous for an
    F-ordered ``B`` (the serving layer's stacked RHS block).  ``lam > 0``
    adds the ridge term ``lam ||x_j||^2`` to each column.

    Returns ``(residual_norm, relative_residual, column_residuals)``: the
    Frobenius norm of the residual (the aggregate over the batch), that norm
    relative to ``||B||_F``, and each column's residual relative to
    ``||b_j||`` -- absolute where ``b_j = 0``, with no division by zero.
    """
    bt = b.T
    rt = x.T @ a.T
    np.subtract(bt, rt, out=rt)
    res_sq = np.einsum("ij,ij->i", rt, rt)
    if lam:
        res_sq += lam * np.einsum("ij,ij->j", x, x)
    nb_sq = np.einsum("ij,ij->i", bt, bt)
    res = float(np.sqrt(res_sq.sum()))
    nb = float(np.sqrt(nb_sq.sum()))
    col_res, col_nb = np.sqrt(res_sq), np.sqrt(nb_sq)
    nonzero = col_nb > 0
    columns = np.where(nonzero, col_res / np.where(nonzero, col_nb, 1.0), col_res)
    return res, (res / nb if nb > 0 else res), columns


def _to_device(executor: GPUExecutor, arr: ArrayLike, label: str, order: str = "C") -> DeviceArray:
    """Place a solver input: device handles as they are, host arrays read-only.

    A contiguous host array is wrapped as a read-only view of the caller's
    buffer, not copied (:meth:`~repro.gpu.executor.GPUExecutor.place_readonly`):
    solvers only read their inputs, and a stray write raises instead of
    corrupting the caller's data.
    """
    if isinstance(arr, DeviceArray):
        return arr
    return executor.place_readonly(arr, order=order, label=label)


def _residuals(
    executor: GPUExecutor, a: DeviceArray, b: DeviceArray, x: DeviceArray
) -> tuple:
    """Host-side residual computation (not charged to the solver's clock).

    Returns ``(residual_norm, relative_residual, x_host, column_residuals)``.
    For a block of right-hand sides the scalar norms are Frobenius norms (the
    aggregate over the batch) and ``column_residuals`` holds the per-column
    relative residuals (:func:`block_residuals`); for a vector ``b`` it is
    ``None``.
    """
    if not (executor.numeric and a.is_numeric and b.is_numeric and x.is_numeric):
        return float("nan"), float("nan"), None, None
    x_host = x.to_host()
    if b.data.ndim == 2:
        res, rel, columns = block_residuals(a.data, b.data, x_host)
        return res, rel, x_host, columns
    # b - A x in A x's buffer (unless b widens it); sqrt(r . r) is exactly
    # np.linalg.norm's 2-norm of a real vector.
    r = a.data @ x_host
    r = np.subtract(b.data, r, out=r if r.dtype == np.result_type(b.data, r) else None)
    res = float(np.sqrt(r.dot(r)))
    nb = float(np.linalg.norm(b.data))
    return res, (res / nb if nb > 0 else res), x_host, None


# ---------------------------------------------------------------------------
# Normal equations
# ---------------------------------------------------------------------------
def normal_equations(
    a: ArrayLike,
    b: ArrayLike,
    *,
    executor: Optional[GPUExecutor] = None,
) -> LeastSquaresResult:
    """Solve ``min_x ||b - A x||_2`` via the normal equations.

    Pipeline (Section 6.1): Gram matrix ``G = A^T A`` with GEMM, right-hand
    side ``y = A^T b`` with GEMV, Cholesky ``G = R^T R`` (POTRF), then two
    triangular solves ``x = R^{-1} (R^{-T} y)``.

    This is the fastest deterministic direct solver but squares the condition
    number: it fails (Cholesky breakdown or garbage solution) once
    ``kappa(A)`` exceeds about ``u^{-1/2} ~ 1e8``; Figure 8 shows this.  The
    planner (:mod:`repro.linalg.planner`) therefore only routes requests here
    when the estimated conditioning is benign, with rand_cholQR / LSQR as the
    registered fallback chain.

    ``b`` may be a ``d x m`` block of right-hand sides: the Gram matrix and
    POTRF are paid once, ``A^T B`` becomes a GEMM and the triangular solves
    become TRSMs, matching the fused contract of the other registry solvers.

    The GEMM and the GEMV are charged as two launches, but the host reads
    ``A`` once: :meth:`~repro.gpu.solver.SimSolver.normal_equations_system`
    forms ``G`` and ``A^T b`` from each cache-sized row block in one pass.
    ``x`` is bit for bit the separate calls' when ``A`` fits one block
    (512 KiB) and moves at rounding level above that.
    """
    if executor is None:
        executor = GPUExecutor(numeric=True, track_memory=False)
    a_dev = _to_device(executor, a, "A", order="F")
    b_dev = _to_device(executor, b, "b")
    solver = executor.solver
    multi_rhs = b_dev.ndim == 2

    mark = executor.mark()
    failed, reason = False, ""
    x_dev: Optional[DeviceArray] = None
    try:
        gram, atb = solver.normal_equations_system(a_dev, b_dev)
        if multi_rhs:
            r = solver.potrf(gram, phase="POTRF")
            y = solver.trsm_left(r, atb, transpose=True, phase="TRSV", label="forward_solve")
            x_dev = solver.trsm_left(r, y, transpose=False, phase="TRSV", label="solution")
        else:
            r = solver.potrf(gram, phase="POTRF")
            y = solver.trsv(r, atb, transpose=True, phase="TRSV", label="forward_solve")
            x_dev = solver.trsv(r, y, transpose=False, phase="TRSV", label="solution")
    except np.linalg.LinAlgError as exc:
        failed, reason = True, f"Cholesky factorization failed: {exc}"

    breakdown = executor.breakdown_since(mark)
    if failed or x_dev is None:
        return LeastSquaresResult(
            method="normal_equations",
            x=None,
            residual_norm=float("inf"),
            relative_residual=float("inf"),
            breakdown=breakdown,
            total_seconds=breakdown.total(),
            failed=True,
            failure_reason=reason,
        )
    res, rel, x_host, columns = _residuals(executor, a_dev, b_dev, x_dev)
    return LeastSquaresResult(
        method="normal_equations",
        x=x_host,
        residual_norm=res,
        relative_residual=rel,
        breakdown=breakdown,
        total_seconds=breakdown.total(),
        extra={"nrhs": float(b_dev.shape[1])} if multi_rhs else {},
        column_residuals=columns,
    )


# ---------------------------------------------------------------------------
# Sketch-and-solve (Algorithm 1)
# ---------------------------------------------------------------------------
def sketch_and_solve(
    a: ArrayLike,
    b: ArrayLike,
    sketch: SketchOperator,
    *,
    executor: Optional[GPUExecutor] = None,
) -> LeastSquaresResult:
    """Algorithm 1: sketch-and-solve approximate least squares.

    ``Y = S A`` and ``z = S b`` are formed with the given sketch operator,
    then the reduced problem ``min_x ||z - Y x||_2`` is solved with a QR-based
    solve (GEQRF + ORMQR + TRSV), exactly as in the paper's implementation
    (GELS was avoided because it was significantly slower).  GEQRF keeps its
    Householder reflectors and ORMQR applies them to ``z``; no explicit ``Q``
    is formed.

    ``b`` may also be a ``d x m`` block of right-hand sides, in which case the
    whole batch is solved against one sketch of ``A``: ``Z = S B`` is a single
    matrix sketch, ORMQR applies the reflectors to the whole block and a TRSM
    replaces the per-vector TRSVs.  This fused path is what the serving
    layer's micro-batcher calls -- the expensive ``S A`` and GEQRF work is
    paid once for the batch instead of once per request.

    The returned residual is measured against the *original* problem, so the
    O(1) distortion factor of the sketch shows up directly in
    ``relative_residual``.  That distortion is declared on the solver's
    registry entry (:mod:`repro.linalg.registry`, name
    ``"sketch_and_solve"``), which is how the planner knows to exclude this
    solver when a request cannot tolerate a suboptimal residual.
    """
    if executor is None:
        executor = sketch.executor
    if executor is not sketch.executor:
        raise ValueError("the sketch operator must live on the same executor as the solve")
    a_dev = _to_device(executor, a, "A", order="C")
    b_dev = _to_device(executor, b, "b")
    solver = executor.solver
    multi_rhs = b_dev.ndim == 2

    mark = executor.mark()
    sketch.generate()
    y = sketch.apply(a_dev, phase="Matrix sketch")
    if multi_rhs:
        z = sketch.apply(b_dev, phase="Vector sketch")
    else:
        z = sketch.apply_vector(b_dev, phase="Vector sketch")
    factors = solver.geqrf(y, phase="GEQRF")
    qtz = solver.ormqr(factors, z, phase="ORMQR")
    if multi_rhs:
        x_dev = solver.trsm_left(factors.r, qtz, phase="TRSV", label="solution")
    else:
        x_dev = solver.trsv(factors.r, qtz, phase="TRSV", label="solution")

    breakdown = executor.breakdown_since(mark)
    res, rel, x_host, columns = _residuals(executor, a_dev, b_dev, x_dev)
    return LeastSquaresResult(
        method=f"sketch_and_solve[{sketch.family}]",
        x=x_host,
        residual_norm=res,
        relative_residual=rel,
        breakdown=breakdown,
        total_seconds=breakdown.total(),
        extra={"sketch_dim": float(sketch.k), "nrhs": float(z.shape[1]) if multi_rhs else 1.0},
        column_residuals=columns,
    )


# ---------------------------------------------------------------------------
# Householder QR reference
# ---------------------------------------------------------------------------
def qr_solve(
    a: ArrayLike,
    b: ArrayLike,
    *,
    executor: Optional[GPUExecutor] = None,
) -> LeastSquaresResult:
    """Reference Householder-QR least-squares solve on the original matrix.

    Numerically the gold standard (stable for ``kappa(A) < u^{-1}`` with no
    distortion), but far slower than every other method at the paper's sizes,
    which is why Figure 5 omits it; Figures 6-8 include its accuracy.  In the
    solver registry (:mod:`repro.linalg.registry`) it is the last link of
    every fallback chain: the solver of record when everything cheaper is
    outside its stability envelope.

    ``b`` may be a ``d x m`` block of right-hand sides (one GEQRF, block
    ORMQR, one TRSM).  ORMQR applies GEQRF's Householder reflectors to ``b``
    directly, so the ``d x n`` orthogonal factor is never formed.
    """
    if executor is None:
        executor = GPUExecutor(numeric=True, track_memory=False)
    a_dev = _to_device(executor, a, "A", order="F")
    b_dev = _to_device(executor, b, "b")
    multi_rhs = b_dev.ndim == 2

    mark = executor.mark()
    x_dev = executor.solver.householder_qr_solve(a_dev, b_dev)
    breakdown = executor.breakdown_since(mark)
    res, rel, x_host, columns = _residuals(executor, a_dev, b_dev, x_dev)
    return LeastSquaresResult(
        method="qr",
        x=x_host,
        residual_norm=res,
        relative_residual=rel,
        breakdown=breakdown,
        total_seconds=breakdown.total(),
        extra={"nrhs": float(b_dev.shape[1])} if multi_rhs else {},
        column_residuals=columns,
    )
