"""Unified solver registry: one ``solve(spec)`` interface over every solver.

The paper's central comparison (Sections 6-7) is between solver *families* --
normal equations, sketch-and-solve (Algorithm 1), Householder QR,
rand_cholQR (Algorithm 5) and sketch-preconditioned LSQR -- yet each family
historically had its own free function with its own signature.  This module
puts them all behind one uniform interface so callers (the planner, the
serving layer, the harness) can treat "which solver" as data:

* :class:`SolveSpec` -- the request: problem shape, number of fused
  right-hand sides, Tikhonov regularization, conditioning estimate,
  accuracy target, latency budget, sketch family and oversampling.
* :class:`SolverCapabilities` -- what a registered solver declares about
  itself: the *problem class* it solves (plain least squares or ridge),
  batched-RHS support, whether it needs a sketch operator, its stability
  floor (``u * kappa(A)`` vs ``u * kappa(A)^2``, evaluated at the
  lambda-regularized effective conditioning for ridge solvers), its
  residual distortion, and a cost model grounded in
  :func:`repro.theory.complexity.solver_complexity`.
* :class:`RegisteredSolver` -- capabilities plus the adapter callable, with
  ``solve(a, b, spec)`` dispatching to the underlying implementation and a
  column-loop shim for any solver without a fused multi-RHS path.
* :func:`register_solver` / :func:`get_solver` / :func:`available_solvers` --
  the registry itself.

The five least-squares solvers register themselves below; the ridge solvers
live in :mod:`repro.problems.ridge` and register on import (the planner and
:func:`solve` trigger that import whenever a spec carries
``regularization > 0``).  The planner (:mod:`repro.linalg.planner`) builds a
:class:`~repro.linalg.planner.SolvePlan` on top of these declarations; the
serving layer (:mod:`repro.serving.server`) executes plans per micro-batch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.core.base import SketchOperator, default_embedding_dim
from repro.gpu.arrays import DeviceArray
from repro.gpu.device import DeviceSpec, H100_SXM5
from repro.gpu.executor import GPUExecutor
from repro.gpu.kernels import COST_MEMO_CAP
from repro.linalg.iterative import sketch_preconditioned_lsqr
from repro.linalg.lstsq import (
    LeastSquaresResult,
    normal_equations,
    qr_solve,
    sketch_and_solve,
)
from repro.linalg.rand_cholqr import rand_cholqr_lstsq
from repro.theory.complexity import solver_complexity

ArrayLike = Union[np.ndarray, DeviceArray]

#: Double-precision unit roundoff, the ``u`` of the paper's stability bounds.
UNIT_ROUNDOFF = float(np.finfo(np.float64).eps)

#: Default safety constant in front of the ``u * kappa^e`` stability floors;
#: absorbs the dimension-dependent polynomials of the formal bounds.
STABILITY_SAFETY = 10.0


def ridge_effective_condition(
    cond: float, regularization: float, smax: float = 1.0
) -> float:
    """Condition number of the lambda-augmented system ``[A; sqrt(lam) I]``.

    Tikhonov regularization shifts every squared singular value by
    ``lam``, so the augmented matrix the ridge solvers factor has

    ``kappa_eff = sqrt((smax^2 + lam) / (smin^2 + lam))``

    with ``smin = smax / kappa(A)``.  This is why a ridge solver's stability
    floor is a function of *both* ``kappa`` and ``lam``: even a singular
    ``A`` is benign once ``lam`` dominates ``smin^2``, while a lambda far
    below ``smin^2`` leaves the effective conditioning at ``kappa(A)``.
    ``smax`` defaults to 1 (the scale of the planner's probe when no
    estimate is available); infinite ``cond`` (an exactly singular ``A``)
    is handled by the same formula with ``smin = 0``.
    """
    if regularization < 0.0:
        raise ValueError("regularization must be non-negative")
    if regularization == 0.0 or not np.isfinite(smax) or smax <= 0.0:
        return float(cond)
    smin = 0.0 if not np.isfinite(cond) else smax / float(cond)
    return float(
        np.sqrt((smax**2 + regularization) / (smin**2 + regularization))
    )


def resolve_embedding_dim(kind: str, d: int, n: int, oversampling: float = 2.0) -> int:
    """Embedding dimension for a ``d x n`` problem, oversampling included.

    The paper's Section-6.2 defaults with a configurable constant: ``c * n``
    for the subspace-embedding families (Gaussian / SRHT / multisketch) and
    ``c * n^2`` clipped to ``d`` for the CountSketch, with ``c`` =
    ``oversampling`` (2 in the paper).  This is the single resolution point
    the serving layer and the planner both go through, so changing the
    oversampling on a :class:`~repro.serving.server.ServerConfig` changes
    every operator the server builds.
    """
    if oversampling <= 1.0:
        raise ValueError("oversampling must exceed 1 for the sketch to embed")
    return min(default_embedding_dim(kind, n, oversampling), d)


@dataclass(frozen=True)
class SolveSpec:
    """One least-squares request, as the planner and registry see it.

    Attributes
    ----------
    d, n:
        Problem shape (``A`` is tall, ``d > n``).
    nrhs:
        Number of fused right-hand sides (1 for a vector ``b``).
    regularization:
        Tikhonov parameter ``lam`` of ``min_x ||b - A x||^2 + lam ||x||^2``.
        0 (the default) is plain least squares; any positive value makes
        this a *ridge* request, which only the ridge problem class's
        solvers (:mod:`repro.problems.ridge`) can serve.
    cond_estimate:
        Estimated ``kappa(A)`` (e.g. from
        :func:`repro.linalg.conditioning.estimate_condition`); ``None`` means
        unknown, which the planner treats conservatively.
    smax_estimate:
        Estimated largest singular value of ``A``; used together with
        ``cond_estimate`` and ``regularization`` to evaluate ridge
        stability floors at the *effective* (lambda-shifted) conditioning
        (:func:`ridge_effective_condition`).  Ignored for plain least
        squares.
    accuracy_target:
        Worst acceptable relative residual attributable to the *solver* on a
        near-consistent system -- the quantity Figure 8 sweeps.  A solver is
        admissible only if its stability floor ``C u kappa^e`` stays below
        this.
    max_distortion:
        Largest acceptable multiplicative residual suboptimality.  Exact
        solvers have distortion 1; sketch-and-solve declares the paper's
        ``(1 + eps)`` factor and is excluded when the request cannot
        tolerate it.
    latency_budget:
        Optional cap on estimated simulated seconds; the planner prefers
        solvers that fit, and degrades to the cheapest admissible one
        otherwise.
    kind:
        Sketch family for the sketch-based solvers.
    oversampling:
        Embedding-dimension constant threaded through to
        :func:`resolve_embedding_dim`.
    seed:
        Seed for operators the registry builds on the caller's behalf.
    """

    d: int
    n: int
    nrhs: int = 1
    regularization: float = 0.0
    cond_estimate: Optional[float] = None
    smax_estimate: Optional[float] = None
    accuracy_target: float = 1e-6
    max_distortion: float = float("inf")
    latency_budget: Optional[float] = None
    kind: str = "multisketch"
    oversampling: float = 2.0
    seed: Optional[int] = 0

    def __post_init__(self) -> None:
        if self.d <= self.n:
            raise ValueError("SolveSpec describes tall problems (d > n)")
        if self.nrhs <= 0:
            raise ValueError("nrhs must be positive")
        if self.regularization < 0.0:
            raise ValueError("regularization (Tikhonov lambda) must be non-negative")
        if self.accuracy_target <= 0.0:
            raise ValueError("accuracy_target must be positive")

    @property
    def problem(self) -> str:
        """Problem class this spec describes: ``"least_squares"`` or ``"ridge"``."""
        return "ridge" if self.regularization > 0.0 else "least_squares"

    def effective_condition(self, cond: Optional[float] = None) -> Optional[float]:
        """Conditioning the solver actually faces under this spec.

        For plain least squares this is ``cond`` (or the spec's own
        estimate); for ridge it is the lambda-shifted
        :func:`ridge_effective_condition` of the augmented system.
        """
        if cond is None:
            cond = self.cond_estimate
        if cond is None:
            return None
        if self.regularization == 0.0:
            return float(cond)
        smax = self.smax_estimate if self.smax_estimate is not None else 1.0
        return ridge_effective_condition(cond, self.regularization, smax)

    @classmethod
    def from_problem(
        cls,
        a: np.ndarray,
        b: Optional[np.ndarray] = None,
        **overrides,
    ) -> "SolveSpec":
        """Build a spec from concrete arrays (shape and nrhs are inferred)."""
        a = np.asarray(a)
        if a.ndim != 2:
            raise ValueError("A must be a 2-D matrix")
        nrhs = 1
        if b is not None:
            b = np.asarray(b)
            nrhs = b.shape[1] if b.ndim == 2 else 1
        overrides.setdefault("nrhs", nrhs)
        return cls(d=a.shape[0], n=a.shape[1], **overrides)

    @property
    def embedding_dim(self) -> int:
        """Sketch output dimension this spec resolves to."""
        return resolve_embedding_dim(self.kind, self.d, self.n, self.oversampling)

    def with_nrhs(self, nrhs: int) -> "SolveSpec":
        """Copy of this spec for a different batch width."""
        return replace(self, nrhs=int(nrhs))


@dataclass(frozen=True)
class SolverCapabilities:
    """What a registered solver declares about itself.

    ``stability_exponent`` encodes the accuracy floor: the best relative
    residual the solver can reach on a near-consistent system scales like
    ``safety * u * kappa(A) ** stability_exponent`` -- 2 for the normal
    equations (the Figure-8 breakdown mechanism), 1 for the un-refined
    preconditioned LSQR and for sketch-and-solve's reduced QR, and 0 (a flat
    ``O(u)`` floor up to hard breakdown) for Householder QR and rand_cholQR,
    matching both the paper's Figure 8 and the measured behaviour of this
    repository's implementations.  ``distortion`` is the multiplicative
    residual suboptimality on noisy systems (1.0 for exact solvers,
    ``1 + eps`` for sketch-and-solve).  ``max_stable_cond`` is the hard
    breakdown point beyond which the solver is expected to fail outright
    rather than merely lose accuracy.

    ``problem`` names the problem class the solver answers:
    ``"least_squares"`` (the five paper solvers) or ``"ridge"``
    (:mod:`repro.problems.ridge`).  A solver is never admissible for a
    spec of a different class -- a plain least-squares solver ignores
    ``spec.regularization`` and would silently answer the wrong question.
    """

    name: str
    batched_rhs: bool
    needs_sketch: bool
    stability_exponent: int
    distortion: float = 1.0
    max_stable_cond: float = 1.0 / UNIT_ROUNDOFF
    safety: float = STABILITY_SAFETY
    iterative: bool = False
    problem: str = "least_squares"
    description: str = ""

    def accuracy_floor(self, cond: float) -> float:
        """Best relative residual expected at condition number ``cond``."""
        return self.safety * UNIT_ROUNDOFF * float(cond) ** self.stability_exponent

    def admissible(self, spec: SolveSpec, cond: Optional[float] = None) -> bool:
        """Whether this solver can meet the spec at the given conditioning.

        ``cond`` is the raw ``kappa(A)`` estimate; a ridge spec's lambda
        shift is applied here via :meth:`SolveSpec.effective_condition`, so
        the floor is a function of both ``kappa`` and ``lam``.  A solver of
        a different problem class than the spec's is never admissible.
        Unknown conditioning (``None``) is treated optimistically; the
        planner substitutes its sketched estimate before asking.
        """
        if self.problem != spec.problem:
            return False
        if self.distortion > spec.max_distortion:
            return False
        cond = spec.effective_condition(cond)
        if cond is None:
            return True
        if cond >= self.max_stable_cond:
            return False
        return self.accuracy_floor(cond) <= spec.accuracy_target

    def flop_estimate(self, spec: SolveSpec) -> Dict[str, float]:
        """Leading-order arithmetic/traffic from the Table-1 cost model.

        This (and :meth:`cost_estimate`) is the closed-form *a-priori*
        reference for documentation, tests and asymptotic reasoning; the
        planner's live ranking uses
        :meth:`RegisteredSolver.estimate_seconds`, an analytic dry-run that
        additionally captures kernel-class efficiencies and launch
        overheads.
        """
        return solver_complexity(
            self.name,
            spec.d,
            spec.n,
            nrhs=spec.nrhs,
            embedding_dim=spec.embedding_dim if self.needs_sketch else None,
            sketch_kind=spec.kind,
        )

    def cost_estimate(self, spec: SolveSpec, device: DeviceSpec = H100_SXM5) -> float:
        """Estimated simulated seconds on ``device`` (roofline of the flops)."""
        cost = self.flop_estimate(spec)
        compute = cost["arithmetic"] / device.peak_flops(8)
        traffic = cost["read_writes"] * 8.0 / device.memory_bandwidth
        return max(compute, traffic)


#: Adapter signature: ``(a, b, spec, operator, executor) -> LeastSquaresResult``.
SolverAdapter = Callable[..., LeastSquaresResult]


@dataclass(frozen=True)
class RegisteredSolver:
    """A solver behind the uniform interface: capabilities + adapter."""

    capabilities: SolverCapabilities
    adapter: SolverAdapter

    @property
    def name(self) -> str:
        """Registry name of the solver."""
        return self.capabilities.name

    def solve(
        self,
        a: ArrayLike,
        b: ArrayLike,
        spec: Optional[SolveSpec] = None,
        *,
        operator: Optional[SketchOperator] = None,
        executor: Optional[GPUExecutor] = None,
    ) -> LeastSquaresResult:
        """Run the solver on ``(a, b)`` under ``spec``.

        Sketch-based solvers receive ``operator`` (or build one from the
        spec); direct solvers ignore it.  A block ``b`` against a solver
        without a fused path falls back to a column loop, so every
        registered solver honours the same multi-RHS contract.
        """
        if spec is None:
            spec = SolveSpec.from_problem(np.asarray(a) if not isinstance(a, DeviceArray) else a)
        b_arr = b.data if isinstance(b, DeviceArray) else np.asarray(b)
        multi = b_arr is not None and b_arr.ndim == 2
        if multi and not self.capabilities.batched_rhs:
            return self._solve_columns(a, b, spec, operator=operator, executor=executor)
        return self.adapter(a, b, spec, operator=operator, executor=executor)

    def _solve_columns(
        self,
        a: ArrayLike,
        b: ArrayLike,
        spec: SolveSpec,
        *,
        operator: Optional[SketchOperator],
        executor: Optional[GPUExecutor],
    ) -> LeastSquaresResult:
        """Column-by-column shim for solvers without a fused multi-RHS path."""
        b_np = b.data if isinstance(b, DeviceArray) else np.asarray(b)
        results = [
            self.adapter(a, b_np[:, j], spec.with_nrhs(1), operator=operator, executor=executor)
            for j in range(b_np.shape[1])
        ]
        merged = results[0].breakdown
        for r in results[1:]:
            merged.extend(r.breakdown.records)
        xs = [r.x for r in results]
        columns = np.asarray([r.relative_residual for r in results])
        failed = any(r.failed for r in results)
        reasons = "; ".join(r.failure_reason for r in results if r.failure_reason)
        return LeastSquaresResult(
            method=results[0].method,
            x=None if failed or any(x is None for x in xs) else np.column_stack(xs),
            residual_norm=float(np.linalg.norm([r.residual_norm for r in results])),
            relative_residual=float(columns.max(initial=0.0)),
            breakdown=merged,
            total_seconds=merged.total(),
            failed=failed,
            failure_reason=reasons,
            extra={"nrhs": float(len(results)), "column_loop": 1.0},
            column_residuals=columns,
        )

    def estimate_seconds(self, spec: SolveSpec, device: DeviceSpec = H100_SXM5) -> float:
        """Expected simulated seconds for one solve under ``spec``.

        Runs the adapter once in *analytic* mode (shape-only device arrays,
        ``numeric=False``), so the estimate is exactly what the real solve
        will be charged by the roofline cost model -- kernel-class
        efficiencies and launch overheads included, operator generation
        excluded (the serving layer amortises it through the operator
        cache).  Results are memoised per ``(solver, shape, batch, sketch, device)``
        so the planner can be consulted per micro-batch for free.
        """
        key = (
            self.name,
            spec.d,
            spec.n,
            spec.nrhs,
            spec.kind if self.capabilities.needs_sketch else "",
            spec.embedding_dim if self.capabilities.needs_sketch else 0,
            device,
        )
        cached = _DRYRUN_COSTS.get(key)
        if cached is not None:
            return cached
        ex = GPUExecutor(device, numeric=False, seed=spec.seed, track_memory=False)
        a = ex.empty((spec.d, spec.n), label="A_plan")
        b = ex.empty((spec.d, spec.nrhs) if spec.nrhs > 1 else (spec.d,), label="b_plan")
        operator = self.build_operator(spec, executor=ex) if self.capabilities.needs_sketch else None
        result = self.adapter(a, b, spec, operator=operator, executor=ex)
        if len(_DRYRUN_COSTS) >= COST_MEMO_CAP:
            _DRYRUN_COSTS.clear()
        _DRYRUN_COSTS[key] = result.total_seconds
        return result.total_seconds

    def build_operator(
        self, spec: SolveSpec, executor: Optional[GPUExecutor] = None
    ) -> SketchOperator:
        """Construct the sketch operator this solver would use for ``spec``.

        Ridge solvers factor the lambda-augmented matrix ``[A; sqrt(lam) I]``
        (``(d + n) x n``), so their operators take ``d + n`` input rows; the
        embedding dimension is shared with the plain solvers so serving-side
        cache keys stay comparable across problem classes.
        """
        from repro.serving.cache import build_operator as _build  # local: avoid cycle

        if executor is None:
            executor = GPUExecutor(numeric=True, seed=spec.seed, track_memory=False)
        input_rows = spec.d + spec.n if self.capabilities.problem == "ridge" else spec.d
        return _build(
            spec.kind,
            input_rows,
            spec.n,
            executor=executor,
            seed=spec.seed,
            k=spec.embedding_dim,
        )


@dataclass(frozen=True)
class ProblemClass:
    """One problem family the stack can serve, as routing-level data.

    ``solver_backed`` problem classes answer requests through the solver
    registry and planner (least squares, ridge); sketch-backed ones
    (frequency analytics) answer through a query engine planned by their
    ``planner`` hook instead of a :class:`SolveSpec`.  ``queries`` names
    the query types the class exposes through the serving layer.
    """

    name: str
    description: str
    queries: Tuple[str, ...]
    solver_backed: bool = True


_PROBLEM_CLASSES: Dict[str, "ProblemClass"] = {}


def register_problem_class(problem: ProblemClass) -> ProblemClass:
    """Add (or replace) a problem class in the catalog; returns it."""
    _PROBLEM_CLASSES[problem.name] = problem
    return problem


def get_problem_class(name: str) -> ProblemClass:
    """Look up a problem class, triggering its registration import."""
    ensure_problem_solvers(name)
    try:
        return _PROBLEM_CLASSES[name]
    except KeyError:
        raise ValueError(
            f"unknown problem class '{name}'; registered: {sorted(_PROBLEM_CLASSES)}"
        ) from None


def problem_classes() -> Dict[str, "ProblemClass"]:
    """Name -> problem class catalog (registration order preserved)."""
    return dict(_PROBLEM_CLASSES)


register_problem_class(
    ProblemClass(
        name="least_squares",
        description="min_x ||b - A x||_2; the paper's five solver families",
        queries=("solve",),
    )
)
register_problem_class(
    ProblemClass(
        name="ridge",
        description="Tikhonov-regularized regression on the lambda-augmented system",
        queries=("solve",),
    )
)
register_problem_class(
    ProblemClass(
        name="frequency",
        description="stream frequency analytics on the hashed CountSketch "
        "(point / heavy-hitter / norm / range queries)",
        queries=("point", "heavy_hitters", "norm", "range"),
        solver_backed=False,
    )
)


_REGISTRY: Dict[str, RegisteredSolver] = {}

#: Memoised analytic dry-run costs (see :meth:`RegisteredSolver.estimate_seconds`),
#: keyed on the ``DeviceSpec`` value and emptied at ``COST_MEMO_CAP`` entries.
_DRYRUN_COSTS: Dict[Tuple, float] = {}

#: Accepted spellings for each canonical registry name.
_ALIASES = {
    "normal_equations": ("normal_equations", "normal", "normal_eq", "cholesky"),
    "sketch_and_solve": ("sketch_and_solve", "sketch-and-solve", "sas"),
    "qr": ("qr", "qr_solve", "householder_qr"),
    "rand_cholqr": ("rand_cholqr", "rand_cholqr_lstsq", "randcholqr"),
    "sketch_precond_lsqr": (
        "sketch_precond_lsqr",
        "sketch_preconditioned_lsqr",
        "lsqr",
        "blendenpik",
    ),
}


def canonical_solver_name(name: str) -> str:
    """Map any accepted spelling to the canonical registry name.

    A name registered directly (e.g. by :mod:`repro.problems.ridge`) wins
    over the alias table, so new problem classes extend the namespace by
    registering solvers plus optional :func:`register_alias` spellings.
    """
    low = name.lower()
    if low in _REGISTRY:
        return low
    for canonical, spellings in _ALIASES.items():
        if low in spellings:
            return canonical
    ensure_problem_solvers("ridge")  # ridge names resolve even pre-import
    if low in _REGISTRY:
        return low
    raise ValueError(
        f"unknown solver '{name}'; registered: {sorted(_REGISTRY) or list(_ALIASES)}"
    )


#: Bumped by every :func:`register_solver`, so a memoised routing decision
#: (see ``SketchServer._plan_batch``) can tell that the candidates changed.
_VERSION = 0


def register_solver(solver: RegisteredSolver) -> RegisteredSolver:
    """Add (or replace) a solver in the registry; returns it for chaining."""
    global _VERSION
    _REGISTRY[solver.name] = solver
    _VERSION += 1
    return solver


def registry_version() -> int:
    """How many :func:`register_solver` calls the registry has seen."""
    return _VERSION


def register_alias(canonical: str, *spellings: str) -> None:
    """Accept extra spellings for a registered solver name."""
    existing = _ALIASES.get(canonical, (canonical,))
    merged = tuple(dict.fromkeys(existing + tuple(s.lower() for s in spellings)))
    _ALIASES[canonical] = merged


def ensure_problem_solvers(problem: str) -> None:
    """Import the module that registers a problem class's solvers.

    The least-squares solvers register at the bottom of this module; other
    problem classes live in :mod:`repro.problems` and register on first
    use.  Called by :func:`solve` and the planner whenever a spec names a
    non-default problem, so callers never need to import
    :mod:`repro.problems` themselves.
    """
    if problem == "ridge":
        import repro.problems.ridge  # noqa: F401  (registers on import)
    elif problem == "frequency":
        import repro.problems.frequency  # noqa: F401  (registers on import)


def get_solver(name: str) -> RegisteredSolver:
    """Look up a registered solver by any accepted spelling."""
    return _REGISTRY[canonical_solver_name(name)]


def available_solvers() -> Tuple[str, ...]:
    """Canonical names of every registered solver, in registration order."""
    return tuple(_REGISTRY)


def solver_capabilities() -> Dict[str, SolverCapabilities]:
    """Name -> capability table (the planner's routing input)."""
    return {name: solver.capabilities for name, solver in _REGISTRY.items()}


# ---------------------------------------------------------------------------
# Adapters for the five paper solvers
# ---------------------------------------------------------------------------
def _ensure_operator(
    solver: RegisteredSolver,
    a: ArrayLike,
    spec: SolveSpec,
    operator: Optional[SketchOperator],
    executor: Optional[GPUExecutor],
) -> SketchOperator:
    if operator is not None:
        caps = operator.capabilities()
        if not caps["subspace_embedding"] and solver.name in (
            "rand_cholqr",
            "sketch_precond_lsqr",
        ):
            raise ValueError(
                f"{solver.name} preconditions with the sketch and requires a "
                f"subspace-embedding operator; {caps['family']} is not one"
            )
        return operator
    if executor is None and isinstance(a, DeviceArray):
        executor = getattr(a, "_executor", None)
    return solver.build_operator(spec, executor=executor)


def _adapt_normal_equations(a, b, spec, *, operator=None, executor=None):
    return normal_equations(a, b, executor=executor)


def _adapt_qr(a, b, spec, *, operator=None, executor=None):
    return qr_solve(a, b, executor=executor)


def _adapt_sketch_and_solve(a, b, spec, *, operator=None, executor=None):
    op = _ensure_operator(get_solver("sketch_and_solve"), a, spec, operator, executor)
    return sketch_and_solve(a, b, op, executor=op.executor)


def _adapt_rand_cholqr(a, b, spec, *, operator=None, executor=None):
    op = _ensure_operator(get_solver("rand_cholqr"), a, spec, operator, executor)
    return rand_cholqr_lstsq(a, b, op, executor=op.executor)


def _adapt_sketch_precond_lsqr(a, b, spec, *, operator=None, executor=None):
    op = _ensure_operator(get_solver("sketch_precond_lsqr"), a, spec, operator, executor)
    return sketch_preconditioned_lsqr(a, b, op, executor=op.executor)


register_solver(
    RegisteredSolver(
        SolverCapabilities(
            name="normal_equations",
            batched_rhs=True,
            needs_sketch=False,
            stability_exponent=2,
            max_stable_cond=1.0 / np.sqrt(UNIT_ROUNDOFF),
            description="Gram matrix + POTRF; fastest direct solver, floor u*kappa^2",
        ),
        _adapt_normal_equations,
    )
)
register_solver(
    RegisteredSolver(
        SolverCapabilities(
            name="sketch_and_solve",
            batched_rhs=True,
            needs_sketch=True,
            stability_exponent=1,
            distortion=1.0 + 1.0 / np.sqrt(2.0),
            description="Algorithm 1; cheapest sketch solver, O(1) residual distortion",
        ),
        _adapt_sketch_and_solve,
    )
)
register_solver(
    RegisteredSolver(
        SolverCapabilities(
            name="qr",
            batched_rhs=True,
            needs_sketch=False,
            stability_exponent=0,
            description="Householder QR on A; gold standard, slowest",
        ),
        _adapt_qr,
    )
)
register_solver(
    RegisteredSolver(
        SolverCapabilities(
            name="rand_cholqr",
            batched_rhs=True,
            needs_sketch=True,
            stability_exponent=0,
            max_stable_cond=0.1 / UNIT_ROUNDOFF,
            description="Algorithm 5; distortion-free, stable for kappa < 1/u",
        ),
        _adapt_rand_cholqr,
    )
)
register_solver(
    RegisteredSolver(
        SolverCapabilities(
            name="sketch_precond_lsqr",
            batched_rhs=True,
            needs_sketch=True,
            stability_exponent=1,
            safety=1.0,
            iterative=True,
            description="Blendenpik-style preconditioned LSQR; kappa-independent iterations",
        ),
        _adapt_sketch_precond_lsqr,
    )
)


def solve(
    a: ArrayLike,
    b: ArrayLike,
    spec: Optional[SolveSpec] = None,
    *,
    solver: Optional[str] = None,
    operator: Optional[SketchOperator] = None,
    executor: Optional[GPUExecutor] = None,
    **spec_overrides,
) -> LeastSquaresResult:
    """One entry point over the whole registry.

    With ``solver`` given, dispatches straight to that registered solver;
    otherwise delegates to the planner
    (:func:`repro.linalg.planner.plan_and_execute`) which estimates the
    conditioning, picks the cheapest admissible solver and runs its fallback
    chain.  ``spec_overrides`` (``accuracy_target=...``, ``kind=...``, ...)
    are forwarded to :meth:`SolveSpec.from_problem` when ``spec`` is None.
    """
    if spec is None:
        a_np = a.data if isinstance(a, DeviceArray) else np.asarray(a)
        b_np = b.data if isinstance(b, DeviceArray) else np.asarray(b)
        spec = SolveSpec.from_problem(a_np, b_np, **spec_overrides)
    elif spec_overrides:
        spec = replace(spec, **spec_overrides)
    ensure_problem_solvers(spec.problem)
    if solver is not None:
        registered = get_solver(solver)
        if registered.capabilities.problem != spec.problem:
            # A least-squares solver would silently drop the regularization
            # (and a ridge solver would invent one): refuse loudly.
            raise ValueError(
                f"solver '{registered.name}' answers the "
                f"'{registered.capabilities.problem}' problem class, but the "
                f"spec describes a '{spec.problem}' problem"
            )
        return registered.solve(a, b, spec, operator=operator, executor=executor)
    from repro.linalg.planner import plan_and_execute  # local: planner imports registry

    return plan_and_execute(a, b, spec, executor=executor)
