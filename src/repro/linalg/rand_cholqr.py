"""Randomized Cholesky QR (Algorithm 4) and its least-squares solver (Algorithm 5).

rand_cholQR first sketches ``A`` down to ``Y = S A``, takes the R factor of
``Y``'s economy QR, and uses it to precondition ``A``; the preconditioned
matrix is nearly orthonormal, so a single Cholesky-QR pass on it is stable.
The factorization is accurate provided ``kappa(A) < u^{-1}`` ([Higgins et al.
2024], [Balabanov 2022]).

Algorithm 5 solves a least-squares problem from the same ingredients without
ever forming ``Q`` explicitly: only one TRSM is needed, and the method is
mathematically equivalent to the "preconditioned normal equations" of
[Ipsen 2025].  Relative to sketch-and-solve it has *no* distortion; relative
to the normal equations it is stable for ill-conditioned problems; the price
is that it touches the full ``d x n`` matrix several times, making it the
slowest of the three randomized options in Figure 5.

The simulated clock charges Algorithm 5 exactly that way: a d x n TRSM for
``A0``, a Gram GEMM and an ``A0^T b`` GEMV over it, with ``A0`` accounted on
the device.  The host does less: :meth:`~repro.gpu.solver.SimSolver.precondition_gram`
inverts ``R0`` once and forms ``A0^T A0`` and ``A0^T b`` in one pass over
row blocks of ``A``, so ``A0`` is never held and ``A`` is read once.  That
moves ``x`` at rounding level against a row-wise triangular solve, at the
same accuracy up to ``kappa(A) = 1e14``.  Algorithm 4 must form ``Q``, so it
keeps :meth:`~repro.gpu.solver.SimSolver.trsm`.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.core.base import SketchOperator
from repro.gpu.arrays import DeviceArray
from repro.gpu.executor import GPUExecutor
from repro.linalg.lstsq import LeastSquaresResult, _residuals, _to_device

ArrayLike = Union[np.ndarray, DeviceArray]


def rand_cholqr(
    a: ArrayLike,
    sketch: SketchOperator,
    *,
    executor: Optional[GPUExecutor] = None,
) -> Tuple[DeviceArray, DeviceArray]:
    """Algorithm 4: randomized Cholesky QR factorization ``A = Q R``.

    Steps (phase labels in parentheses match Figure 5's legend):

    1. ``Y = S A``                      (Sketch gen / Matrix sketch)
    2. ``[~, R0] = qr(Y, 0)``           (GEQRF)
    3. ``A0 = A R0^{-1}``               (TRSM)
    4. ``G = A0^T A0``                  (Gram matrix)
    5. ``R1 = chol(G)``                 (POTRF)
    6. ``Q = A0 R1^{-1}``, ``R = R1 R0`` (TRSM / R update)

    Returns device handles ``(Q, R)``.
    """
    if executor is None:
        executor = sketch.executor
    if executor is not sketch.executor:
        raise ValueError("the sketch operator must live on the same executor as the factorization")
    a_dev = _to_device(executor, a, "A", order="C")
    blas, solver = executor.blas, executor.solver

    sketch.generate()
    y = sketch.apply(a_dev, phase="Matrix sketch")
    factors = solver.geqrf(y, phase="GEQRF")
    a0 = solver.trsm(a_dev, factors.r, phase="TRSM", label="A_preconditioned")
    gram = blas.gram(a0, phase="Gram matrix")
    r1 = solver.potrf(gram, phase="POTRF")
    q = solver.trsm(a0, r1, phase="TRSM", label="Q")
    r = blas.gemm(r1, factors.r, phase="R update", label="R")
    return q, r


def rand_cholqr_lstsq(
    a: ArrayLike,
    b: ArrayLike,
    sketch: SketchOperator,
    *,
    executor: Optional[GPUExecutor] = None,
) -> LeastSquaresResult:
    """Algorithm 5: rand_cholQR least-squares solve (one TRSM only).

    Steps:

    1. ``Y = S A``                       (Matrix sketch)
    2. ``[~, R0] = qr(Y, 0)``            (GEQRF)
    3. ``A0 = A R0^{-1}``                (TRSM; charged, never held on the host)
    4. ``G = A0^T A0``, ``z = A0^T b``   (Gram matrix / AT*b; one blocked host pass)
    5. ``R1 = chol(G)``                  (POTRF)
    6. ``R = R1 R0``                     (R update)
    7. ``y = R^{-T} z'`` and ``x = R^{-1} y`` via two TRSVs, where
       ``z' = R0^T z`` restores the right-hand side of the original
       (unpreconditioned) normal equations.

    Concretely we solve the preconditioned normal equations
    ``(A0^T A0) w = A0^T b`` for ``w`` with the Cholesky factor ``R1`` and
    then recover ``x = R0^{-1} w``, which is algebraically identical and
    keeps every triangular solve ``n x n``.

    ``b`` may also be a ``d x m`` block of right-hand sides: the expensive
    steps (sketch, GEQRF, the big TRSM over ``A``, the Gram matrix, POTRF)
    are paid once, ``Z = A0^T B`` becomes a GEMM and the triangular solves
    become TRSMs over the whole block -- the fused path the serving layer
    uses for distortion-free micro-batched solves.

    The solution has *no* sketching distortion; stability holds for
    ``kappa(A) < u^{-1}``.  Registered as ``"rand_cholqr"`` in
    :mod:`repro.linalg.registry`; the planner uses it as the workhorse for
    ill-conditioned traffic (distortion-free, flat accuracy floor) and as
    the first fallback after a normal-equations POTRF breakdown.
    """
    if executor is None:
        executor = sketch.executor
    if executor is not sketch.executor:
        raise ValueError("the sketch operator must live on the same executor as the solve")
    a_dev = _to_device(executor, a, "A", order="C")
    b_dev = _to_device(executor, b, "b")
    blas, solver = executor.blas, executor.solver
    multi_rhs = b_dev.ndim == 2

    mark = executor.mark()
    failed, reason = False, ""
    x_dev: Optional[DeviceArray] = None
    try:
        sketch.generate()
        y = sketch.apply(a_dev, phase="Matrix sketch")
        factors = solver.geqrf(y, phase="GEQRF")
        # Charges the TRSM and the Gram GEMM; the host forms G and Z = A0^T B
        # in one blocked pass, so a0 holds no data and the AT*b launch below
        # only charges, taking its values from Z.
        a0, gram, z_host = solver.precondition_gram(a_dev, factors.r, b_dev, phase="TRSM")
        r1 = solver.potrf(gram, phase="POTRF")
        if multi_rhs:
            z = blas.gemm(a0, b_dev, trans_a=True, phase="AT*b", label="A0TB")
        else:
            z = blas.gemv(a0, b_dev, trans_a=True, phase="AT*b", label="A0Tb")
        if z_host is not None:
            z.data[...] = z_host
        # Solve (R1^T R1) w = z, then x = R0^{-1} w (TRSMs over a block B).
        tri = solver.trsm_left if multi_rhs else solver.trsv
        w1 = tri(r1, z, transpose=True, phase="TRSV", label="forward_solve")
        w = tri(r1, w1, transpose=False, phase="TRSV", label="preconditioned_solution")
        x_dev = tri(factors.r, w, transpose=False, phase="TRSV", label="solution")
    except np.linalg.LinAlgError as exc:
        failed, reason = True, f"rand_cholQR breakdown: {exc}"

    breakdown = executor.breakdown_since(mark)
    if failed or x_dev is None:
        return LeastSquaresResult(
            method=f"rand_cholqr[{sketch.family}]",
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
        method=f"rand_cholqr[{sketch.family}]",
        x=x_host,
        residual_norm=res,
        relative_residual=rel,
        breakdown=breakdown,
        total_seconds=breakdown.total(),
        extra={"sketch_dim": float(sketch.k), "nrhs": float(b_dev.shape[1]) if multi_rhs else 1.0},
        column_residuals=columns,
    )
