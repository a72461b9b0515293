"""Request and response types for the sketch-and-solve serving layer.

A request is a host-side problem (NumPy arrays) plus routing metadata; a
response carries the solution, accuracy and accounting for exactly one
request, even when the server fused many requests into one device batch.
Everything here is a plain dataclass so responses can be logged, asserted on
in tests, and rendered by the harness without touching device state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.linalg.planner import normalize_policy
from repro.linalg.registry import canonical_solver_name

__all__ = [
    "AdmissionError",
    "DeadlineExceededError",
    "LANES",
    "LowRankResponse",
    "PRIORITY_HIGH",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
    "QueueFullError",
    "SketchResponse",
    "SolveRequest",
    "SolveResponse",
    "normalize_kind",
    "normalize_lane",
    "normalize_policy",
    "normalize_solver",
]

#: Admission-queue lanes, one per problem class the runtime serves.  Order
#: is the *priority* order the dispatcher walks when weights tie: interactive
#: least-squares traffic first, ridge next, streaming ingest last (ingest is
#: throughput work -- it must not starve solve traffic, and the weighted
#: dispatch guarantees it cannot be starved either).
LANES = ("solve", "ridge", "stream")

#: Request priorities within a lane (smaller dispatches first).
PRIORITY_HIGH = 0
PRIORITY_NORMAL = 1
PRIORITY_LOW = 2


def normalize_lane(lane: str) -> str:
    """Canonical admission-lane name (``"solve"``, ``"ridge"`` or ``"stream"``)."""
    l = lane.lower()
    if l in ("solve", "lstsq", "least_squares", "interactive"):
        return "solve"
    if l in ("ridge", "regularized"):
        return "ridge"
    if l in ("stream", "streaming", "ingest"):
        return "stream"
    raise ValueError(f"unknown admission lane '{lane}' (expected one of {LANES})")


class AdmissionError(RuntimeError):
    """A request the runtime refused to solve, with the reason typed.

    Attributes
    ----------
    lane:
        Admission lane the request was bound for.
    request_id:
        Server request id when one was assigned (-1 before admission).
    """

    reason = "admission"

    def __init__(self, message: str, *, lane: str = "solve", request_id: int = -1) -> None:
        super().__init__(message)
        self.lane = lane
        self.request_id = request_id


class QueueFullError(AdmissionError):
    """Raised at submit time when the bounded admission queue is full.

    Backpressure, not failure: the caller may retry after in-flight work
    drains.  ``queue_depth`` records the depth observed at rejection.
    """

    reason = "queue_full"

    def __init__(self, message: str, *, lane: str = "solve", queue_depth: int = 0) -> None:
        super().__init__(message, lane=lane)
        self.queue_depth = queue_depth


class DeadlineExceededError(AdmissionError):
    """Raised on a future whose request was shed instead of solved late.

    The dispatcher sheds a request when its projected completion (queue wait
    already accrued plus the planned solver's estimated service time) can no
    longer meet its ``latency_budget`` -- the contract is "reject, don't
    violate".  ``projected_seconds`` / ``budget_seconds`` record the decision.
    """

    reason = "deadline"

    def __init__(
        self,
        message: str,
        *,
        lane: str = "solve",
        request_id: int = -1,
        projected_seconds: float = 0.0,
        budget_seconds: float = 0.0,
    ) -> None:
        super().__init__(message, lane=lane, request_id=request_id)
        self.projected_seconds = projected_seconds
        self.budget_seconds = budget_seconds


def normalize_kind(kind: str) -> str:
    """Canonical sketch-family name used in cache keys and reports."""
    k = kind.lower()
    if k in ("gaussian", "gauss"):
        return "gaussian"
    if k in ("countsketch", "count", "sparse"):
        return "countsketch"
    if k in ("srht",):
        return "srht"
    if k in ("multisketch", "multi", "count_gauss"):
        return "multisketch"
    raise ValueError(f"unknown sketch kind '{kind}'")


def normalize_solver(solver: str) -> str:
    """Canonical registry name of a solver.

    Every solver registered in :mod:`repro.linalg.registry` is servable:
    ``normal_equations``, ``sketch_and_solve``, ``qr``, ``rand_cholqr`` and
    ``sketch_precond_lsqr`` (plus their accepted spellings).
    """
    return canonical_solver_name(solver)


@dataclass
class SolveRequest:
    """One request ``min_x ||b - A x||^2 + lam ||x||^2`` awaiting service.

    ``lam = 0`` (the default) is plain least squares; a positive
    ``regularization`` makes it a ridge request, served as least squares on
    the augmented system ``[A; sqrt(lam) I]`` through the same micro-batched
    path.

    Attributes
    ----------
    request_id:
        Server-assigned monotonically increasing id.
    a / b:
        Host arrays: ``A`` is ``d x n`` (tall), ``b`` is a length-``d`` vector.
    kind:
        Sketch family to solve with (canonical name).
    solver:
        Registered solver name (see :mod:`repro.linalg.registry`).  Under a
        ``"fixed"`` server policy this is the solver that runs; under the
        adaptive policies it is advisory and the planner routes.  A ridge
        request leaves it empty unless the caller pinned a solver.
    accuracy_target:
        Worst acceptable relative residual for this request (``None`` means
        the server's configured default).  Feeds the planner's admissibility
        check.
    latency_budget:
        Optional cap on estimated simulated seconds for this request, used
        by the ``"adaptive"`` policy.  The concurrent runtime additionally
        treats it as the request's *deadline*: a queued request whose
        projected completion exceeds the budget is shed with
        :class:`DeadlineExceededError` instead of being solved late.
    priority:
        Dispatch priority within the request's admission lane
        (:data:`PRIORITY_HIGH` / :data:`PRIORITY_NORMAL` /
        :data:`PRIORITY_LOW`; smaller dispatches first).  Ignored by the
        synchronous server, which serves in submission order.
    regularization:
        The Tikhonov ``lam`` (non-negative; ``0`` is least squares).
    """

    request_id: int
    a: np.ndarray
    b: np.ndarray
    kind: str = "multisketch"
    solver: str = "sketch_and_solve"
    accuracy_target: Optional[float] = None
    latency_budget: Optional[float] = None
    priority: int = PRIORITY_NORMAL
    regularization: float = 0.0

    def __post_init__(self) -> None:
        self.a = np.asarray(self.a)
        self.b = np.asarray(self.b)
        if self.a.ndim != 2:
            raise ValueError("A must be a 2-D matrix")
        if self.a.shape[0] <= self.a.shape[1]:
            raise ValueError("A must be tall (d > n)")
        if self.b.ndim != 1 or self.b.shape[0] != self.a.shape[0]:
            raise ValueError("b must be a vector with one entry per row of A")
        if not self.regularization >= 0.0:
            raise ValueError("regularization (Tikhonov lambda) must be non-negative")
        self.regularization = float(self.regularization)
        self.kind = normalize_kind(self.kind)
        if self.solver or not self.regularization:  # only ridge may leave it unpinned
            self.solver = normalize_solver(self.solver)

    @property
    def d(self) -> int:
        """Number of rows of the problem."""
        return self.a.shape[0]

    @property
    def n(self) -> int:
        """Number of columns of the problem."""
        return self.a.shape[1]

    def group_key(self) -> Tuple:
        """Micro-batching key: requests with equal keys fuse into one solve.

        Fusing into a multi-RHS solve requires *the same coefficient matrix*,
        so the key includes the identity of ``a`` (requests hold a reference,
        which keeps ``id(a)`` stable while the request is pending) alongside
        the shape/dtype and the routing parameters -- including the accuracy
        target, latency budget and ridge lambda, because the planner routes
        a fused batch as a unit and must not average away one rider's
        requirements.
        """
        return (
            id(self.a),
            self.a.shape,
            self.a.dtype.str,
            self.kind,
            self.solver,
            self.accuracy_target,
            self.latency_budget,
            self.priority,
            self.regularization,
        )


@dataclass
class SolveResponse:
    """Outcome of one :class:`SolveRequest`.

    ``simulated_seconds`` is the request's *latency*: the simulated device
    time of the fused batch it rode in plus the cross-shard transfer time for
    returning its slice of the result.  Requests fused into the same batch
    therefore share a latency, which is exactly how a micro-batching server
    behaves (a request pays for its whole batch).
    """

    request_id: int
    x: Optional[np.ndarray]
    relative_residual: float
    simulated_seconds: float
    compute_seconds: float
    comm_seconds: float
    shard: int
    batch_size: int
    cache_hit: bool
    kind: str
    solver: str
    method: str = ""
    extra: Dict[str, object] = field(default_factory=dict)
    #: Server policy that routed this request ("fixed" unless configured).
    policy: str = "fixed"
    #: Solver the planner executed (may differ from ``solver`` under
    #: adaptive routing or after a fallback rescue).
    executed_solver: str = ""
    #: Number of fallback hops the batch took before succeeding.
    fallbacks: int = 0
    #: Problem class the request belonged to ("least_squares" or "ridge");
    #: ridge responses carry the lambda in ``extra["regularization"]``.
    problem: str = "least_squares"


@dataclass
class LowRankResponse:
    """Outcome of an ``approx_lowrank(A, rank)`` request.

    ``left @ right`` is the rank-``rank`` approximation (see
    :class:`repro.problems.lowrank.LowRankResult` for the per-method factor
    semantics); ``relative_error`` is its Frobenius error relative to
    ``||A||_F``.  ``cache_hit`` reports whether the range finder's Gaussian
    test operator came out of the operator cache (always False for the
    deterministic Frequent Directions path, which has no operator state).
    """

    request_id: int
    left: Optional[np.ndarray]
    right: Optional[np.ndarray]
    rank: int
    method: str
    relative_error: float
    simulated_seconds: float
    compute_seconds: float
    comm_seconds: float
    shard: int
    cache_hit: bool
    extra: Dict[str, float] = field(default_factory=dict)


@dataclass
class SketchResponse:
    """Outcome of a ``sketch(A)`` request: the sketched matrix ``S A``."""

    request_id: int
    sketch: Optional[np.ndarray]
    k: int
    simulated_seconds: float
    compute_seconds: float
    comm_seconds: float
    shard: int
    cache_hit: bool
    kind: str
