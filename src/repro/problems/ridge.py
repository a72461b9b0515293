"""Ridge (Tikhonov-regularized) regression through the solver registry.

The paper's solvers answer ``min_x ||b - A x||_2``; this module extends the
same pipeline to

``min_x ||b - A x||_2^2 + lam ||x||_2^2``

by observing that ridge is plain least squares on the *augmented* system
``[A; sqrt(lam) I] x = [b; 0]``.  Three solvers register themselves under
the ``"ridge"`` problem class (:class:`~repro.linalg.registry.SolverCapabilities.problem`):

``ridge_normal_equations``
    The augmented-matrix normal equations, computed without materialising
    the augmentation: the Gram matrix of ``[A; sqrt(lam) I]`` is
    ``A^T A + lam I``, so the solver is one Gram GEMM, ``n`` diagonal adds,
    a POTRF and two triangular solves.  Fastest, with the familiar
    ``u * kappa_eff^2`` floor -- but ``kappa_eff`` is the *effective*
    conditioning of the augmented system
    (:func:`repro.linalg.registry.ridge_effective_condition`), so a healthy
    ``lam`` rescues matrices the plain normal equations choke on, while a
    tiny ``lam`` on an ill-conditioned ``A`` still breaks POTRF and falls
    through the planner's chain.
``ridge_precond_lsqr``
    Sketch-preconditioned LSQR on the regularized system: the augmented
    matrix is sketched (any subspace-embedding family), its R factor
    preconditions the augmented LSQR iteration, and the iteration count is
    ``kappa``-independent by the embedding property.  Floor ``u * kappa_eff``.
``ridge_qr``
    Householder QR on the explicit augmented matrix: the ridge solver of
    record, last link of every ridge fallback chain.

:func:`solve_ridge` is the one-call entry point (spec -> planner -> fallback
chain); :func:`dense_ridge_reference` is the host-side direct solve the
benchmarks compare residuals against.

Residual convention: every result's ``relative_residual`` is measured on the
augmented system, ``sqrt(||b - A x||^2 + lam ||x||^2) / ||b||`` -- the ridge
objective itself -- so residual ratios between solvers (and against the
dense reference) compare the quantity ridge actually minimises.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.gpu.arrays import DeviceArray
from repro.gpu.executor import GPUExecutor
from repro.gpu.kernels import KernelClass, KernelRequest
from repro.linalg.iterative import sketch_preconditioned_lsqr
from repro.linalg.lstsq import LeastSquaresResult, _to_device, qr_solve
from repro.linalg.registry import (
    RegisteredSolver,
    SolveSpec,
    SolverCapabilities,
    UNIT_ROUNDOFF,
    get_solver,
    register_alias,
    register_solver,
)

ArrayLike = Union[np.ndarray, DeviceArray]

#: Canonical names of the ridge problem class's registered solvers.
RIDGE_SOLVERS = ("ridge_normal_equations", "ridge_precond_lsqr", "ridge_qr")


def dense_ridge_reference(a: np.ndarray, b: np.ndarray, lam: float) -> np.ndarray:
    """Direct dense ridge solve on the host (the accuracy reference).

    Householder QR (via ``lstsq``) on the explicit augmented system --
    numerically the most trustworthy formulation, used by the benchmarks as
    the residual yardstick for the registered solvers.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a_aug, b_aug = augment_ridge_system(a, b, lam)
    x, *_ = np.linalg.lstsq(a_aug, b_aug, rcond=None)
    return x


def augment_ridge_system(
    a: np.ndarray, b: Optional[np.ndarray], lam: float
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Host-side augmentation: ``([A; sqrt(lam) I], [b; 0])``."""
    a = np.asarray(a, dtype=np.float64)
    if lam < 0.0:
        raise ValueError("regularization lam must be non-negative")
    n = a.shape[1]
    a_aug = np.vstack([a, np.sqrt(lam) * np.eye(n, dtype=a.dtype)])
    if b is None:
        return a_aug, None
    b = np.asarray(b, dtype=np.float64)
    pad = np.zeros((n, b.shape[1]) if b.ndim == 2 else n, dtype=b.dtype)
    return a_aug, np.concatenate([b, pad], axis=0)


def ridge_residuals(
    a: np.ndarray, b: np.ndarray, x: Optional[np.ndarray], lam: float
) -> Tuple[float, float, Optional[np.ndarray]]:
    """``(residual_norm, relative_residual, column_residuals)`` of the ridge objective.

    The norm is ``sqrt(||b - A x||^2 + lam ||x||^2)`` (Frobenius over a
    block of right-hand sides), relative to ``||b||`` -- identical to the
    plain relative residual of the augmented system, since ``[b; 0]`` has
    the norm of ``b``.
    """
    if x is None:
        return float("inf"), float("inf"), None
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    resid = b - a @ x
    res_sq = np.sum(resid**2, axis=0) + lam * np.sum(x**2, axis=0)
    nb = np.linalg.norm(b)
    total = float(np.sqrt(np.sum(res_sq)))
    rel = total / nb if nb > 0 else total
    columns = None
    if b.ndim == 2:
        col_nb = np.linalg.norm(b, axis=0)
        col_res = np.sqrt(res_sq)
        columns = np.where(col_nb > 0, col_res / np.where(col_nb > 0, col_nb, 1.0), col_res)
    return total, rel, columns


# ---------------------------------------------------------------------------
# Solver implementations
# ---------------------------------------------------------------------------
def _charge_augment(executor: GPUExecutor, d: int, n: int, nrhs: int) -> None:
    """Charge the one-pass copy that materialises ``[A; sqrt(lam) I]``."""
    itemsize = 8
    executor.launch(
        KernelRequest(
            name="ridge_augment",
            kclass=KernelClass.STREAM,
            bytes_read=(float(d) * n + float(d) * nrhs) * itemsize,
            bytes_written=(float(d + n) * n + float(d + n) * nrhs) * itemsize,
            flops=0.0,
            dtype_size=itemsize,
            phase="Augment",
        )
    )


def _device_augmented(
    a: DeviceArray, b: DeviceArray, executor: GPUExecutor
) -> Tuple[DeviceArray, DeviceArray]:
    """Analytic-mode augmentation: shape-only handles for the dry-run."""
    d, n = a.shape
    nrhs = b.shape[1] if b.ndim == 2 else 1
    a_aug = executor.empty((d + n, n), label="A_ridge_aug")
    b_aug = executor.empty((d + n, nrhs) if b.ndim == 2 else (d + n,), label="b_ridge_aug")
    return a_aug, b_aug


def ridge_normal_equations(
    a: ArrayLike,
    b: ArrayLike,
    lam: float,
    *,
    executor: Optional[GPUExecutor] = None,
) -> LeastSquaresResult:
    """Ridge via the augmented-matrix normal equations ``(A^T A + lam I) x = A^T b``.

    The augmentation is never materialised: its Gram matrix is the plain
    Gram plus a diagonal shift, so the pipeline is GEMM + ``n`` diagonal
    adds + POTRF + two triangular solves -- the same shape as
    :func:`repro.linalg.lstsq.normal_equations`, and the same breakdown
    mode when the *effective* conditioning squares past ``u^{-1}``
    (POTRF failure, caught and reported for the planner's fallback chain).
    """
    if lam < 0.0:
        raise ValueError("regularization lam must be non-negative")
    if executor is None:
        if isinstance(a, DeviceArray):
            executor = a._executor
        else:
            executor = GPUExecutor(numeric=True, track_memory=False)
    a_dev = _to_device(executor, a, "A", order="F")
    b_dev = _to_device(executor, b, "b")
    blas, solver = executor.blas, executor.solver
    multi_rhs = b_dev.ndim == 2
    n = a_dev.shape[1]

    mark = executor.mark()
    failed, reason = False, ""
    x_dev: Optional[DeviceArray] = None
    try:
        gram = blas.gram(a_dev, phase="Gram matrix")
        if executor.numeric and gram.is_numeric and lam > 0.0:
            gram.data[np.arange(n), np.arange(n)] += lam
        # n diagonal adds: negligible arithmetic, but charged so the
        # simulated clock never under-reports the regularized path.
        executor.launch(
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
        if multi_rhs:
            atb = blas.gemm(a_dev, b_dev, trans_a=True, phase="AT*b", label="ATB")
            r = solver.potrf(gram, phase="POTRF")
            y = solver.trsm_left(r, atb, transpose=True, phase="TRSV", label="forward_solve")
            x_dev = solver.trsm_left(r, y, transpose=False, phase="TRSV", label="solution")
        else:
            atb = blas.gemv(a_dev, b_dev, trans_a=True, phase="AT*b", label="ATb")
            r = solver.potrf(gram, phase="POTRF")
            y = solver.trsv(r, atb, transpose=True, phase="TRSV", label="forward_solve")
            x_dev = solver.trsv(r, y, transpose=False, phase="TRSV", label="solution")
    except np.linalg.LinAlgError as exc:
        failed, reason = True, f"Cholesky factorization failed: {exc}"

    breakdown = executor.breakdown_since(mark)
    if failed or x_dev is None:
        return LeastSquaresResult(
            method="ridge_normal_equations",
            x=None,
            residual_norm=float("inf"),
            relative_residual=float("inf"),
            breakdown=breakdown,
            total_seconds=breakdown.total(),
            failed=True,
            failure_reason=reason,
            extra={"regularization": float(lam)},
        )
    if executor.numeric and a_dev.is_numeric and b_dev.is_numeric and x_dev.is_numeric:
        x_host = x_dev.to_host()
        res, rel, columns = ridge_residuals(a_dev.data, b_dev.data, x_host, lam)
    else:
        x_host, res, rel, columns = None, float("nan"), float("nan"), None
    extra = {"regularization": float(lam)}
    if multi_rhs:
        extra["nrhs"] = float(b_dev.shape[1])
    return LeastSquaresResult(
        method="ridge_normal_equations",
        x=x_host,
        residual_norm=res,
        relative_residual=rel,
        breakdown=breakdown,
        total_seconds=breakdown.total(),
        extra=extra,
        column_residuals=columns,
    )


def _augmented_solve(
    name: str,
    inner,
    a: ArrayLike,
    b: ArrayLike,
    lam: float,
    executor: Optional[GPUExecutor],
) -> LeastSquaresResult:
    """Run an exact least-squares solver on the materialised augmented system.

    ``inner(a_aug, b_aug) -> LeastSquaresResult`` does the actual solve; the
    augmentation copy is charged to the executor's clock, the method name is
    re-stamped to the ridge registry name, and the reported residual is the
    ridge objective (identical to the augmented relative residual -- see
    :func:`ridge_residuals`).
    """
    if lam < 0.0:
        raise ValueError("regularization lam must be non-negative")
    if isinstance(a, DeviceArray) and not a.is_numeric:
        ex = executor if executor is not None else a._executor
        a_aug, b_aug = _device_augmented(a, b, ex)
        _charge_augment(ex, a.shape[0], a.shape[1], b.shape[1] if b.ndim == 2 else 1)
        result = inner(a_aug, b_aug)
    else:
        a_np = a.data if isinstance(a, DeviceArray) else np.asarray(a)
        b_np = b.data if isinstance(b, DeviceArray) else np.asarray(b)
        a_aug, b_aug = augment_ridge_system(a_np, b_np, lam)
        if executor is not None:
            _charge_augment(
                executor, a_np.shape[0], a_np.shape[1], b_np.shape[1] if b_np.ndim == 2 else 1
            )
        result = inner(a_aug, b_aug)
    result.method = name
    result.extra["regularization"] = float(lam)
    return result


def ridge_qr(
    a: ArrayLike,
    b: ArrayLike,
    lam: float,
    *,
    executor: Optional[GPUExecutor] = None,
) -> LeastSquaresResult:
    """Householder QR on the explicit augmented system (the ridge solver of record)."""
    return _augmented_solve(
        "ridge_qr",
        lambda a_aug, b_aug: qr_solve(a_aug, b_aug, executor=executor),
        a,
        b,
        lam,
        executor,
    )


def ridge_precond_lsqr(
    a: ArrayLike,
    b: ArrayLike,
    lam: float,
    sketch,
    *,
    executor: Optional[GPUExecutor] = None,
) -> LeastSquaresResult:
    """Sketch-preconditioned LSQR on the regularized (augmented) system.

    ``sketch`` must be a subspace-embedding operator over ``d + n`` input
    rows (the augmented height); its R factor preconditions the augmented
    iteration, so the iteration count stays ``kappa``-independent while the
    attainable floor scales with the *effective* ridge conditioning.
    """
    if executor is None:
        executor = sketch.executor
    return _augmented_solve(
        "ridge_precond_lsqr",
        lambda a_aug, b_aug: sketch_preconditioned_lsqr(a_aug, b_aug, sketch, executor=executor),
        a,
        b,
        lam,
        executor,
    )


# ---------------------------------------------------------------------------
# Registry adapters
# ---------------------------------------------------------------------------
def _ridge_operator(solver_name: str, a, spec: SolveSpec, operator, executor):
    """The augmented-height sketch operator a ridge adapter will use.

    A caller-supplied operator is honoured only when its input dimension
    matches the augmented system (``d + n`` rows) and it is a subspace
    embedding; anything else (e.g. a plain-problem operator cached under
    the unaugmented height) is replaced by a fresh build so the solve is
    never silently wrong.
    """
    solver = get_solver(solver_name)
    if operator is not None:
        caps = operator.capabilities()
        if operator.d == spec.d + spec.n and caps["subspace_embedding"]:
            return operator
    if executor is None and isinstance(a, DeviceArray):
        executor = a._executor
    return solver.build_operator(spec, executor=executor)


def _adapt_ridge_normal_equations(a, b, spec, *, operator=None, executor=None):
    return ridge_normal_equations(a, b, spec.regularization, executor=executor)


def _adapt_ridge_qr(a, b, spec, *, operator=None, executor=None):
    return ridge_qr(a, b, spec.regularization, executor=executor)


def _adapt_ridge_precond_lsqr(a, b, spec, *, operator=None, executor=None):
    op = _ridge_operator("ridge_precond_lsqr", a, spec, operator, executor)
    return ridge_precond_lsqr(
        a, b, spec.regularization, op, executor=executor if executor is not None else op.executor
    )


register_solver(
    RegisteredSolver(
        SolverCapabilities(
            name="ridge_normal_equations",
            batched_rhs=True,
            needs_sketch=False,
            stability_exponent=2,
            max_stable_cond=1.0 / np.sqrt(UNIT_ROUNDOFF),
            problem="ridge",
            description=(
                "Gram + lam I + POTRF on the augmented system; fastest ridge "
                "solver, floor u*kappa_eff^2"
            ),
        ),
        _adapt_ridge_normal_equations,
    )
)
register_solver(
    RegisteredSolver(
        SolverCapabilities(
            name="ridge_precond_lsqr",
            batched_rhs=True,
            needs_sketch=True,
            stability_exponent=1,
            safety=1.0,
            iterative=True,
            problem="ridge",
            description=(
                "Blendenpik-style LSQR on [A; sqrt(lam) I]; kappa-independent "
                "iterations, floor u*kappa_eff"
            ),
        ),
        _adapt_ridge_precond_lsqr,
    )
)
register_solver(
    RegisteredSolver(
        SolverCapabilities(
            name="ridge_qr",
            batched_rhs=True,
            needs_sketch=False,
            stability_exponent=0,
            problem="ridge",
            description="Householder QR on the augmented system; ridge solver of record",
        ),
        _adapt_ridge_qr,
    )
)
register_alias("ridge_normal_equations", "ridge_normal", "ridge_cholesky")
register_alias("ridge_precond_lsqr", "ridge_lsqr", "ridge_blendenpik")
register_alias("ridge_qr", "ridge_householder_qr")


# ---------------------------------------------------------------------------
# One-call entry point
# ---------------------------------------------------------------------------
def solve_ridge(
    a: ArrayLike,
    b: ArrayLike,
    lam: float,
    *,
    policy: str = "cheapest_accurate",
    solver: Optional[str] = None,
    executor: Optional[GPUExecutor] = None,
    **spec_overrides,
) -> LeastSquaresResult:
    """Solve ``min_x ||b - A x||^2 + lam ||x||^2`` through the planner.

    Builds a ridge :class:`~repro.linalg.registry.SolveSpec`
    (``regularization=lam``), lets the planner probe the spectrum, pick the
    cheapest ridge solver whose floor meets the accuracy target at the
    *effective* conditioning, and walk the ridge fallback chain on
    breakdown -- exactly the plain-least-squares contract, for the
    regularized problem class.  ``spec_overrides`` (``accuracy_target=...``,
    ``kind=...``, ...) forward into the spec.
    """
    from repro.linalg.planner import plan_and_execute  # local: planner imports registry

    if lam <= 0.0:
        raise ValueError("solve_ridge needs a positive lam; use repro.linalg.solve otherwise")
    a_np = a.data if isinstance(a, DeviceArray) else np.asarray(a)
    b_np = b.data if isinstance(b, DeviceArray) else np.asarray(b)
    spec = SolveSpec.from_problem(a_np, b_np, regularization=float(lam), **spec_overrides)
    return plan_and_execute(a, b, spec, policy=policy, solver=solver, executor=executor)
