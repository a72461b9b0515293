"""Sketch-preconditioned iterative least squares (Blendenpik / LSRN style).

Section 6 of the paper notes that when the sketch-and-solve distortion is
unacceptable one can still use sketching to accelerate an *exact* solve,
either directly (rand_cholQR, Algorithm 5) or through "an iterative method
such as Blendenpik or LSRN" [Avron et al. 2010; Meng et al. 2014].  This
module implements that second route so the repository covers the full design
space the paper discusses:

1. sketch ``A`` (any operator from :mod:`repro.core`, the multisketch being
   the cheapest),
2. take the R factor of the sketched matrix's economy QR,
3. run LSQR on the right-preconditioned system ``min ||b - (A R^{-1}) y||``,
   whose condition number is O(1) by the subspace-embedding property, and
4. recover ``x = R^{-1} y``.

The iteration count is therefore independent of ``kappa(A)``; each iteration
costs two passes over ``A`` (one multiply by ``A R^{-1}``, one by its
transpose), which the simulated cost model charges as GEMV-class kernels.

Accuracy note: this is a plain LSQR recurrence without reorthogonalisation or
iterative refinement, so the attainable relative residual has a floor that
scales like ``u * kappa(A)`` -- still orders of magnitude beyond where the
normal equations break down, but short of the fully refined Blendenpik of
[Avron et al. 2010].  That floor is exactly what the solver declares on its
registry entry (:mod:`repro.linalg.registry`, name ``"sketch_precond_lsqr"``),
making it the planner's last sketch-based fallback before Householder QR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.core.base import SketchOperator
from repro.gpu.arrays import DeviceArray
from repro.gpu.executor import GPUExecutor
from repro.gpu.kernels import KernelClass, KernelRequest
from repro.gpu.solver import _solve_triangular
from repro.linalg.lstsq import LeastSquaresResult, _to_device, block_residuals

ArrayLike = Union[np.ndarray, DeviceArray]


@dataclass
class IterativeSolveInfo:
    """Convergence record of the preconditioned LSQR iteration."""

    iterations: int
    converged: bool
    residual_history: list

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1] if self.residual_history else float("nan")


def _charge_matvec(executor: GPUExecutor, d: int, n: int, phase: str, nrhs: int = 1) -> None:
    """Charge one pass over A (a d x n GEMV, or a GEMM for a block of RHS).

    The fused multi-RHS path reads the ``d x n`` matrix *once* per pass no
    matter how many right-hand sides ride along -- that single-read
    amortisation is where the serving layer's batched iterative solves get
    their speedup, exactly as in the direct solvers' TRSM paths.
    """
    itemsize = 8
    executor.launch(
        KernelRequest(
            name="lsqr_matvec" if nrhs == 1 else "lsqr_matmat",
            kclass=KernelClass.STREAM if nrhs == 1 else KernelClass.GEMM,
            bytes_read=(float(d) * n + float(min(d, n)) * nrhs) * itemsize,
            bytes_written=float(max(d, n)) * nrhs * itemsize,
            flops=2.0 * d * n * nrhs,
            dtype_size=itemsize,
            phase=phase,
        )
    )


def _lsqr_block(
    executor: GPUExecutor,
    a_np: np.ndarray,
    b_np: np.ndarray,
    r_np: np.ndarray,
    *,
    tol: float,
    max_iterations: int,
) -> tuple:
    """Fused multi-RHS preconditioned LSQR (Golub-Kahan per column, vectorised).

    Each column of ``B`` follows exactly the recurrence of the single-vector
    path -- the bidiagonalisation scalars become per-column vectors -- but
    every pass over ``A`` is a single GEMM shared by all still-active
    columns.  A column that meets the tolerance is *frozen* (its iterate
    stops updating), so the returned solutions match ``m`` independent
    single-vector solves column for column while late-converging columns
    keep iterating.

    Returns ``(X, iterations, converged)`` with per-column iteration counts
    and convergence flags.
    """
    d, n = a_np.shape
    m = b_np.shape[1]

    def apply_pre(v: np.ndarray) -> np.ndarray:
        _charge_matvec(executor, d, n, "LSQR", nrhs=v.shape[1])
        return a_np @ _solve_triangular(r_np, v, lower=False)

    def apply_pre_t(u: np.ndarray) -> np.ndarray:
        _charge_matvec(executor, d, n, "LSQR", nrhs=u.shape[1])
        return _solve_triangular(r_np, a_np.T @ u, lower=False, trans="T")

    def normalise(block: np.ndarray) -> tuple:
        # Column 2-norms, computed exactly as ``np.linalg.norm`` does along an axis.
        norms = np.sqrt(np.add.reduce(block * block, axis=0))
        return block / np.where(norms > 0, norms, 1.0), norms

    u, beta = normalise(b_np.copy())
    v, alpha = normalise(apply_pre_t(u))
    w = v.copy()
    y_sol = np.zeros((n, m))
    phi_bar, rho_bar = beta.copy(), alpha.copy()
    norm_atb = np.where(alpha * beta > 0, alpha * beta, 1.0)

    # A column with (A R^{-1})^T b = 0 (e.g. an all-zero right-hand side) is
    # already at its minimiser y = 0; iterating it would divide 0/0 in the
    # Givens rotation, so it starts converged instead.
    active = alpha * beta > 0
    iterations = np.zeros(m, dtype=np.int64)
    converged = ~active.copy()

    for it in range(1, max_iterations + 1):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        ua, beta_a = normalise(apply_pre(v[:, idx]) - alpha[idx] * u[:, idx])
        va, alpha_a = normalise(apply_pre_t(ua) - beta_a * v[:, idx])

        rho = np.hypot(rho_bar[idx], beta_a)
        rho = np.where(rho > 0, rho, 1.0)  # exactly-converged column: c=s=0
        c, s = rho_bar[idx] / rho, beta_a / rho
        theta = s * alpha_a
        rho_bar[idx] = -c * alpha_a
        phi = c * phi_bar[idx]
        phi_bar[idx] = s * phi_bar[idx]

        wa = w[:, idx]
        y_sol[:, idx] += (phi / rho) * wa
        w[:, idx] = va - (theta / rho) * wa
        u[:, idx], v[:, idx] = ua, va
        alpha[idx], beta[idx] = alpha_a, beta_a
        iterations[idx] = it

        done = np.abs(phi_bar[idx] * alpha_a * c) / norm_atb[idx] <= tol
        if done.any():
            converged[idx[done]] = True
            active[idx[done]] = False

    x = _solve_triangular(r_np, y_sol, lower=False)
    return x, iterations, converged


def sketch_preconditioned_lsqr(
    a: ArrayLike,
    b: ArrayLike,
    sketch: SketchOperator,
    *,
    executor: Optional[GPUExecutor] = None,
    tol: float = 1e-10,
    max_iterations: int = 100,
) -> LeastSquaresResult:
    """Blendenpik-style least squares: sketch, factor, precondition, iterate.

    Parameters
    ----------
    a, b:
        The overdetermined problem ``min_x ||b - A x||_2``.  ``b`` may also
        be a ``d x m`` block of right-hand sides: the sketch and the GEQRF
        are paid once, each LSQR pass over ``A`` becomes a single GEMM
        shared by every still-active column, and per-column convergence is
        tracked independently -- the fused path the serving layer's
        micro-batcher uses for iterative solves (the same contract as the
        direct solvers' multi-RHS paths; see
        :func:`repro.linalg.lstsq.sketch_and_solve`).
    sketch:
        Any sketch operator with ``k >= n`` rows (the multisketch with
        ``k2 = 2n`` is the natural choice).
    tol:
        Relative tolerance on the preconditioned normal-equation residual
        ``||(A R^{-1})^T r||`` used as the stopping criterion.
    max_iterations:
        Iteration cap; with a subspace-embedding preconditioner LSQR
        converges in a few tens of iterations regardless of ``kappa(A)``.

    Returns
    -------
    LeastSquaresResult
        With the converged solution; ``extra`` carries the iteration count
        under ``"iterations"`` and convergence flag under ``"converged"``.
    """
    if executor is None:
        executor = sketch.executor
    if executor is not sketch.executor:
        raise ValueError("the sketch operator must live on the same executor as the solve")
    if max_iterations <= 0:
        raise ValueError("max_iterations must be positive")

    a_dev = _to_device(executor, a, "A", order="C")
    b_dev = _to_device(executor, b, "b")
    d, n = a_dev.shape
    multi_rhs = b_dev.ndim == 2
    nrhs = b_dev.shape[1] if multi_rhs else 1
    solver = executor.solver

    mark = executor.mark()

    # 1-2: sketch and factor (same ingredients as rand_cholQR's first steps).
    sketch.generate()
    y = sketch.apply(a_dev, phase="Matrix sketch")
    factors = solver.geqrf(y, phase="GEQRF")

    # 3: preconditioned LSQR in host arithmetic (each pass over A charged).
    if not (executor.numeric and a_dev.is_numeric and b_dev.is_numeric):
        # Analytic mode: charge a representative number of iterations.
        representative_iters = 30
        for _ in range(representative_iters):
            _charge_matvec(executor, d, n, "LSQR", nrhs=nrhs)
            _charge_matvec(executor, d, n, "LSQR", nrhs=nrhs)
        breakdown = executor.breakdown_since(mark)
        return LeastSquaresResult(
            method=f"blendenpik[{sketch.family}]",
            x=None,
            residual_norm=float("nan"),
            relative_residual=float("nan"),
            breakdown=breakdown,
            total_seconds=breakdown.total(),
            extra={
                "iterations": float(representative_iters),
                "converged": 1.0,
                "nrhs": float(nrhs),
            },
        )

    a_np = a_dev.data
    b_np = b_dev.data
    r_np = factors.r.require_data()

    if multi_rhs:
        x_np, per_col_iters, per_col_conv = _lsqr_block(
            executor, a_np, b_np, r_np, tol=tol, max_iterations=max_iterations
        )
        breakdown = executor.breakdown_since(mark)
        res, rel, columns = block_residuals(a_np, b_np, x_np)
        return LeastSquaresResult(
            method=f"blendenpik[{sketch.family}]",
            x=x_np,
            residual_norm=res,
            relative_residual=rel,
            breakdown=breakdown,
            total_seconds=breakdown.total(),
            extra={
                "iterations": float(per_col_iters.max(initial=0)),
                "converged": float(bool(per_col_conv.all())),
                "nrhs": float(nrhs),
            },
            column_residuals=columns,
        )

    def apply_pre(v: np.ndarray) -> np.ndarray:
        """Compute (A R^{-1}) v."""
        _charge_matvec(executor, d, n, "LSQR")
        return a_np @ _solve_triangular(r_np, v, lower=False)

    def apply_pre_t(u: np.ndarray) -> np.ndarray:
        """Compute (A R^{-1})^T u."""
        _charge_matvec(executor, d, n, "LSQR")
        return _solve_triangular(r_np, a_np.T @ u, lower=False, trans="T")

    # Golub-Kahan bidiagonalisation (standard LSQR recurrences).
    history = []
    u = b_np.copy()
    beta = float(np.linalg.norm(u))
    if beta > 0:
        u /= beta
    v = apply_pre_t(u)
    alpha = float(np.linalg.norm(v))
    if alpha > 0:
        v /= alpha
    w = v.copy()
    y_sol = np.zeros(n)
    phi_bar, rho_bar = beta, alpha
    converged = False
    norm_atb = alpha * beta if alpha * beta > 0 else 1.0

    iterations = 0
    if alpha * beta == 0.0:
        # (A R^{-1})^T b = 0: y = 0 is already the minimiser (e.g. b = 0);
        # iterating would divide 0/0 in the first Givens rotation.
        converged = True
        max_iterations = 0
    for iterations in range(1, max_iterations + 1):
        u = apply_pre(v) - alpha * u
        beta = float(np.linalg.norm(u))
        if beta > 0:
            u /= beta
        v = apply_pre_t(u) - beta * v
        alpha = float(np.linalg.norm(v))
        if alpha > 0:
            v /= alpha

        rho = float(np.hypot(rho_bar, beta))
        c, s = rho_bar / rho, beta / rho
        theta = s * alpha
        rho_bar = -c * alpha
        phi = c * phi_bar
        phi_bar = s * phi_bar

        y_sol += (phi / rho) * w
        w = v - (theta / rho) * w

        # ||(AR^{-1})^T r|| = phi_bar * alpha * |c|; normalise by the initial value.
        grad_norm = abs(phi_bar * alpha * c)
        history.append(grad_norm / norm_atb)
        if history[-1] <= tol:
            converged = True
            break

    # 4: undo the preconditioner.
    x_np = _solve_triangular(r_np, y_sol, lower=False)
    breakdown = executor.breakdown_since(mark)

    res = float(np.linalg.norm(b_np - a_np @ x_np))
    nb = float(np.linalg.norm(b_np))
    rel = res / nb if nb > 0 else res
    return LeastSquaresResult(
        method=f"blendenpik[{sketch.family}]",
        x=x_np,
        residual_norm=res,
        relative_residual=rel,
        breakdown=breakdown,
        total_seconds=breakdown.total(),
        extra={"iterations": float(iterations), "converged": float(converged)},
    )


#: Short alias used by the solver registry (:mod:`repro.linalg.registry`),
#: where the solver is registered as ``"sketch_precond_lsqr"``.
sketch_precond_lsqr = sketch_preconditioned_lsqr
