"""Least-squares solvers and randomized QR factorizations.

Implements every solver the paper's Section 6.3 compares:

* :func:`~repro.linalg.lstsq.normal_equations` -- Gram matrix + Cholesky, the
  fastest deterministic direct solver, stable only for ``kappa(A) < u^{-1/2}``.
* :func:`~repro.linalg.lstsq.sketch_and_solve` -- Algorithm 1 with any sketch
  operator (Gaussian, CountSketch, SRHT, or multisketch).
* :func:`~repro.linalg.lstsq.qr_solve` -- Householder-QR reference solver.
* :func:`~repro.linalg.rand_cholqr.rand_cholqr` -- Algorithm 4 (randomized
  Cholesky QR factorization).
* :func:`~repro.linalg.rand_cholqr.rand_cholqr_lstsq` -- Algorithm 5 (the
  rand_cholQR / preconditioned-normal-equations least-squares solver).

plus the problem generators with prescribed condition numbers used by
Figure 8 (:mod:`repro.linalg.conditioning`).

All five solvers are also registered behind one uniform interface in
:mod:`repro.linalg.registry` (``SolveSpec`` / ``SolverCapabilities`` /
``solve``), and :mod:`repro.linalg.planner` routes a problem to the cheapest
solver whose declared stability floor meets the request's accuracy target,
executing fallback chains (e.g. normal-equations POTRF failure ->
rand_cholQR -> preconditioned LSQR) instead of returning ``failed=True``.

The registry is multi-problem: a ``SolveSpec`` with ``regularization > 0``
routes to the ridge solvers of :mod:`repro.problems.ridge` (registered
under the ``"ridge"`` problem class, with stability floors evaluated at
the lambda-shifted effective conditioning), through exactly the same
planner and fallback machinery.
"""

from repro.linalg.lstsq import (
    LeastSquaresResult,
    block_residuals,
    normal_equations,
    sketch_and_solve,
    qr_solve,
    relative_residual,
)
from repro.linalg.cholqr import cholesky_qr, cholesky_qr2
from repro.linalg.rand_cholqr import rand_cholqr, rand_cholqr_lstsq
from repro.linalg.conditioning import (
    matrix_with_condition,
    condition_number,
    estimate_condition,
)
from repro.linalg.incremental import OperatorRefresher
from repro.linalg.iterative import (
    sketch_preconditioned_lsqr,
    sketch_precond_lsqr,
    IterativeSolveInfo,
)
from repro.linalg.registry import (
    ProblemClass,
    RegisteredSolver,
    SolveSpec,
    SolverCapabilities,
    available_solvers,
    canonical_solver_name,
    get_problem_class,
    get_solver,
    problem_classes,
    register_problem_class,
    register_solver,
    resolve_embedding_dim,
    solve,
    solver_capabilities,
)
from repro.linalg.planner import (
    POLICIES,
    SolvePlan,
    execute_plan,
    normalize_policy,
    plan,
    plan_and_execute,
)

__all__ = [
    "LeastSquaresResult",
    "block_residuals",
    "normal_equations",
    "sketch_and_solve",
    "qr_solve",
    "relative_residual",
    "cholesky_qr",
    "cholesky_qr2",
    "rand_cholqr",
    "rand_cholqr_lstsq",
    "matrix_with_condition",
    "condition_number",
    "estimate_condition",
    "OperatorRefresher",
    "sketch_preconditioned_lsqr",
    "sketch_precond_lsqr",
    "IterativeSolveInfo",
    "ProblemClass",
    "RegisteredSolver",
    "SolveSpec",
    "SolverCapabilities",
    "available_solvers",
    "canonical_solver_name",
    "get_problem_class",
    "problem_classes",
    "register_problem_class",
    "get_solver",
    "register_solver",
    "resolve_embedding_dim",
    "solve",
    "solver_capabilities",
    "POLICIES",
    "SolvePlan",
    "execute_plan",
    "normalize_policy",
    "plan",
    "plan_and_execute",
]
