"""Adaptive solve planning: route each problem to the cheapest safe solver.

The registry (:mod:`repro.linalg.registry`) says what each solver *can* do;
this module decides what each request *should* use:

1. probe the spectrum with one cheap sketched estimate
   (:func:`~repro.linalg.conditioning.estimate_spectrum_bounds`): the
   multisketch's own first-stage CountSketch to ``k1 = 2 n^2`` rows -- one
   pass over ``A`` -- plus a blocked R reduction and an ``n x n`` SVD, off
   the simulated clock like every other planning step.  The plan keeps the
   probe (:attr:`SolvePlan.probe`), and :func:`execute_plan` hands its
   ``S1 A`` on to every sketch solver of the chain
   (:meth:`~repro.core.base.SketchOperator.with_first_stage`), so a routed
   solve reads ``A`` once for the probe and the sketch together;
2. keep the solvers of the spec's *problem class* (plain least squares, or
   ridge when ``spec.regularization > 0``) whose declared stability floor
   and distortion meet the spec's accuracy target at that conditioning --
   for ridge, at the lambda-shifted *effective* conditioning;
3. rank them by expected simulated seconds
   (:meth:`~repro.linalg.registry.RegisteredSolver.estimate_seconds`: a
   memoised analytic dry-run on the device model, so the ranking input is
   exactly what each solver would be charged;
   :func:`repro.theory.complexity.solver_complexity` is the corresponding
   closed-form Table-1 reference) and pick per policy;
4. execute the resulting :class:`SolvePlan`, walking its fallback chain when
   a solver breaks down (POTRF failure on an ill-conditioned Gram matrix,
   rand_cholQR breakdown, ...) instead of returning ``failed=True``.

Policies
--------
``"fixed"``
    Use exactly the requested solver, no fallback -- the pre-registry
    behaviour, and the baseline the routing benchmark compares against.
    Only a ridge spec handed its matrix is probed, so the plan still
    reports the conditioning it was served at.
``"cheapest_accurate"``
    Cheapest admissible solver at the estimated conditioning; remaining
    admissible solvers form the fallback chain in increasing cost order.
``"adaptive"``
    Like ``cheapest_accurate`` but latency-budget aware: among solvers that
    fit ``spec.latency_budget`` it prefers the *most robust* (lowest
    accuracy floor), degrading to cheapest-admissible when nothing fits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.base import SketchOperator
from repro.gpu.arrays import DeviceArray
from repro.gpu.device import DeviceSpec, H100_SXM5
from repro.gpu.executor import GPUExecutor
from repro.gpu.timing import TimeBreakdown
from repro.linalg.conditioning import SpectrumBounds, estimate_spectrum_bounds
from repro.linalg.lstsq import LeastSquaresResult
from repro.linalg.registry import (
    SolveSpec,
    available_solvers,
    canonical_solver_name,
    ensure_problem_solvers,
    get_solver,
)

ArrayLike = Union[np.ndarray, DeviceArray]

#: Recognised planning policies (also normalised by the serving layer).
POLICIES = ("fixed", "adaptive", "cheapest_accurate")

#: Chain order per problem class, used to break cost ties and to append
#: last-resort solvers: most robust last (the exact-QR family is the solver
#: of record when everything else fails).
_ROBUSTNESS_ORDER = {
    "least_squares": (
        "normal_equations",
        "sketch_and_solve",
        "rand_cholqr",
        "sketch_precond_lsqr",
        "qr",
    ),
    "ridge": (
        "ridge_normal_equations",
        "ridge_precond_lsqr",
        "ridge_qr",
    ),
}

#: Solvers appended to every fallback chain of a problem class (in order),
#: regardless of admissibility: a fallback runs because a breakdown just
#: disproved the conditioning estimate, so the chain must end in solvers
#: that survive any conditioning.
_LAST_RESORT = {
    "least_squares": ("rand_cholqr", "sketch_precond_lsqr", "qr"),
    "ridge": ("ridge_precond_lsqr", "ridge_qr"),
}


def normalize_policy(policy: str) -> str:
    """Canonical policy name, or ``ValueError`` for unknown policies."""
    p = policy.lower()
    if p in POLICIES:
        return p
    raise ValueError(f"policy must be one of {POLICIES}, got '{policy}'")


@dataclass(frozen=True)
class SolvePlan:
    """The planner's decision for one request.

    Attributes
    ----------
    solver:
        Canonical name of the solver to run first.
    chain:
        Full execution order: ``chain[0] == solver``, the rest are fallbacks
        tried in order when a solver reports ``failed``.
    kind / embedding_dim:
        Sketch family and output dimension for the sketch-based links.
    cond_estimate:
        The conditioning estimate the decision was based on.
    policy:
        Policy that produced this plan.
    costs:
        Estimated simulated seconds per considered solver (planner's own
        ranking input; useful for telemetry and tests).
    reason:
        One-line human-readable justification.
    probe:
        The spectrum probe this plan ran (its ``first_stage`` is the
        ``S1 A`` that :func:`execute_plan` hands to the sketch solvers), or
        ``None`` when the spec already carried the estimates or no matrix
        was given.  It holds ``A`` alive, so keep a plan no longer than the
        solve it was made for.
    """

    solver: str
    chain: Tuple[str, ...]
    kind: str
    embedding_dim: int
    cond_estimate: float
    policy: str
    costs: Dict[str, float]
    reason: str = ""
    probe: Optional[SpectrumBounds] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.chain or self.chain[0] != self.solver:
            raise ValueError("plan chain must start with the chosen solver")


def _probe_spectrum(
    a: Optional[ArrayLike], spec: SolveSpec
) -> Tuple[float, Optional[float], Optional[SpectrumBounds]]:
    """``(kappa, smax, probe)`` for planning: the spec's estimates, else one sketched probe.

    ``smax`` is only needed to place the ridge lambda on the singular-value
    scale (:meth:`~repro.linalg.registry.SolveSpec.effective_condition`);
    it comes from the same sketched SVD as the condition estimate, so ridge
    planning costs no extra passes over ``A``.  ``None`` means unknown
    (shape-only planning), which leaves the effective conditioning at the
    unit scale.  ``probe`` is the probe's result, ``None`` when nothing was
    probed.
    """
    cond, smax = spec.cond_estimate, spec.smax_estimate
    # A ridge floor evaluated with the default unit smax can be off by
    # orders of magnitude; with the matrix in hand, one probe fills the
    # scale even when the caller supplied kappa.
    known = cond is not None and (smax is not None or spec.regularization == 0.0)
    if known or a is None:  # nothing missing, or nothing to probe (analytic handle)
        return (1.0 if cond is None else float(cond)), smax, None
    probe = estimate_spectrum_bounds(
        a.data if isinstance(a, DeviceArray) else np.asarray(a),
        oversampling=spec.oversampling,
        seed=spec.seed,
    )
    smax, smin = probe
    if cond is None:
        cond = float("inf") if smin == 0.0 else smax / smin
    return float(cond), smax, probe


def plan(
    a: Optional[ArrayLike] = None,
    spec: Optional[SolveSpec] = None,
    *,
    policy: str = "cheapest_accurate",
    solver: Optional[str] = None,
    device: DeviceSpec = H100_SXM5,
    cost_source=None,
    **spec_overrides,
) -> SolvePlan:
    """Build a :class:`SolvePlan` for one problem.

    Parameters
    ----------
    a:
        The coefficient matrix (host or device).  Optional when ``spec``
        already carries a ``cond_estimate`` or under the ``"fixed"`` policy.
        When the plan has to probe it, the probe rides on the plan
        (:attr:`SolvePlan.probe`) for :func:`execute_plan` to hand on.
    spec:
        The request; built via :meth:`SolveSpec.from_problem` from ``a`` and
        ``spec_overrides`` when omitted.
    policy:
        One of :data:`POLICIES`.
    solver:
        Required for ``"fixed"``; otherwise an optional preference that
        seeds the ranking (the planner may still fall back from it).
    device:
        Roofline used to convert flop estimates into seconds.
    cost_source:
        Optional ``(name, spec, device, analytic_seconds) -> seconds``
        hook that replaces the analytic candidate cost in the ranking --
        the closed-loop path hands in
        :meth:`repro.obs.calibrate.CalibratedEstimator.as_cost_source` so
        adaptive/cheapest-accurate policies rank by *measured* reality.
        Admissibility (accuracy floors) is never delegated: the hook only
        reshapes costs, so a miscalibrated factor can reorder the chain
        but cannot route to a solver that misses the accuracy target.
    """
    policy = normalize_policy(policy)

    def _cost(name: str, spec_) -> float:
        analytic = get_solver(name).estimate_seconds(spec_, device)
        if cost_source is None:
            return analytic
        return float(cost_source(name, spec_, device, analytic))

    if spec is None:
        if a is None:
            raise ValueError("plan() needs a matrix or an explicit SolveSpec")
        a_np = a.data if isinstance(a, DeviceArray) else np.asarray(a)
        spec = SolveSpec.from_problem(a_np, **spec_overrides)
    elif spec_overrides:
        spec = replace(spec, **spec_overrides)
    ensure_problem_solvers(spec.problem)

    if policy == "fixed":
        if solver is None:
            raise ValueError("the 'fixed' policy needs an explicit solver")
        name = canonical_solver_name(solver)
        if get_solver(name).capabilities.problem != spec.problem:
            raise ValueError(
                f"fixed routing to '{name}' "
                f"({get_solver(name).capabilities.problem}) cannot serve a "
                f"'{spec.problem}' spec: it would answer the wrong question"
            )
        cond, probe = spec.cond_estimate, None
        if spec.problem == "ridge" and cond is None and a is not None:
            cond, _, probe = _probe_spectrum(a, spec)
        return SolvePlan(
            solver=name,
            chain=(name,),
            kind=spec.kind,
            embedding_dim=spec.embedding_dim,
            cond_estimate=cond if cond is not None else float("nan"),
            policy=policy,
            costs={name: _cost(name, spec)},
            reason=f"fixed routing to {name}",
            probe=probe,
        )

    cond, smax, probe = _probe_spectrum(a, spec)
    spec = replace(spec, cond_estimate=cond, smax_estimate=smax)
    # All floor comparisons happen at the conditioning the solver actually
    # faces: kappa(A) for least squares, the lambda-shifted effective
    # kappa of the augmented system for ridge.
    cond_eff = spec.effective_condition(cond)
    order = _ROBUSTNESS_ORDER[spec.problem]

    candidates = {}
    for name in available_solvers():
        registered = get_solver(name)
        caps = registered.capabilities
        if caps.problem != spec.problem:
            continue  # a solver for a different question is never a candidate
        candidates[name] = {
            "caps": caps,
            "cost": _cost(name, spec),
            "admissible": caps.admissible(spec, cond),
        }
    admissible = [n for n, c in candidates.items() if c["admissible"]]
    costs = {n: c["cost"] for n, c in candidates.items()}

    if not admissible:
        # Nothing meets the target (e.g. kappa beyond every floor): serve
        # best-effort with the most robust solvers rather than refusing.
        chain = tuple(
            n for n in order if n in candidates and candidates[n]["caps"].distortion == 1.0
        )[::-1]
        chain = chain or tuple(candidates)
        return SolvePlan(
            solver=chain[0],
            chain=chain,
            kind=spec.kind,
            embedding_dim=spec.embedding_dim,
            cond_estimate=cond,
            policy=policy,
            costs=costs,
            reason=(
                f"no solver meets target {spec.accuracy_target:.1e} at "
                f"effective kappa~{cond_eff:.1e}; serving best-effort, most robust first"
            ),
            probe=probe,
        )

    by_cost = sorted(admissible, key=lambda n: (costs[n], order.index(n)))
    chosen = by_cost[0]
    reason = f"cheapest admissible at effective kappa~{cond_eff:.1e}"
    if solver is not None:
        preferred = canonical_solver_name(solver)
        if preferred in admissible:
            chosen = preferred
            reason = f"requested solver admissible at effective kappa~{cond_eff:.1e}"

    if policy == "adaptive" and spec.latency_budget is not None:
        within = [n for n in admissible if costs[n] <= spec.latency_budget]
        if within:
            # Most robust (lowest floor, no distortion) that fits the budget.
            chosen = min(
                within,
                key=lambda n: (
                    candidates[n]["caps"].accuracy_floor(cond_eff),
                    candidates[n]["caps"].distortion,
                    costs[n],
                ),
            )
            reason = f"most robust within {spec.latency_budget:.2e}s budget"
        else:
            chosen = by_cost[0]
            reason = "nothing fits the latency budget; degraded to cheapest admissible"

    # Fallback chain: remaining *distortion-free* admissible solvers by
    # cost, then the problem class's last-resort robust solvers (exact QR
    # last).  A fallback runs because a breakdown just disproved the
    # conditioning estimate, so solvers whose admissibility leaned on that
    # estimate's optimism (the distortion-bearing sketch-and-solve chief
    # among them) are skipped -- matching the POTRF failure -> rand_cholQR
    # -> LSQR chain of the issue.
    chain = [chosen] + [
        n
        for n in by_cost
        if n != chosen and candidates[n]["caps"].distortion == 1.0
    ]
    for name in _LAST_RESORT[spec.problem]:
        if name in candidates and name not in chain:
            chain.append(name)
    return SolvePlan(
        solver=chosen,
        chain=tuple(chain),
        kind=spec.kind,
        embedding_dim=spec.embedding_dim,
        cond_estimate=cond,
        policy=policy,
        costs=costs,
        reason=reason,
        probe=probe,
    )


def execute_plan(
    plan_: SolvePlan,
    a: ArrayLike,
    b: ArrayLike,
    spec: Optional[SolveSpec] = None,
    *,
    executor: Optional[GPUExecutor] = None,
    operators: Optional[Dict[str, SketchOperator]] = None,
    operator_provider=None,
    span_log: Optional[List[Dict[str, object]]] = None,
) -> LeastSquaresResult:
    """Run a plan, walking the fallback chain on solver breakdown.

    ``operators`` maps solver names to pre-built sketch operators (the
    serving layer passes its cached ones); ``operator_provider`` is a
    callable ``(solver_name) -> SketchOperator`` consulted next, and links
    without either get one built from the spec
    (:meth:`~repro.linalg.registry.RegisteredSolver.build_operator`).  Every
    sketch operator takes the plan's probed ``S1 A``
    (:meth:`~repro.core.base.SketchOperator.with_first_stage`): one whose
    first stage is the probe's CountSketch serves that product instead of
    reading ``A`` again, and any other operator (another kind, oversampling
    or seed, a ridge operator over the augmented rows) is used as is.

    Every attempted solver and every failure reason is recorded on the
    returned result via
    :meth:`~repro.linalg.lstsq.LeastSquaresResult.record_attempt_chain`, so
    a rescued solve still reports what broke and a failed solve carries the
    last reason instead of swallowing it.

    ``span_log``, when given a list, receives one dict per attempted chain
    link -- ``{"solver", "start", "end", "failed", "reason", "hop"}`` with
    start/end read off the executor's simulated clock (zeros without an
    executor) -- which the serving layer turns into per-attempt trace spans
    without the planner knowing about tracers.
    """
    if spec is None:
        a_np = a.data if isinstance(a, DeviceArray) else np.asarray(a)
        b_np = b.data if isinstance(b, DeviceArray) else np.asarray(b)
        spec = SolveSpec.from_problem(a_np, b_np, kind=plan_.kind)
    first_stage = plan_.probe.first_stage if plan_.probe is not None else None
    operator_executor = a._executor if executor is None and isinstance(a, DeviceArray) else executor
    attempts = []
    reasons = []
    last_result: Optional[LeastSquaresResult] = None
    start_mark = executor.mark() if executor is not None else 0

    def _log_attempt(name: str, start: float, failed: bool, reason: Optional[str]) -> None:
        if span_log is None:
            return
        span_log.append(
            {
                "solver": name,
                "start": start,
                "end": executor.elapsed if executor is not None else 0.0,
                "failed": failed,
                "reason": reason,
                "hop": len(attempts) - 1,
            }
        )

    for name in plan_.chain:
        solver = get_solver(name)
        operator = None
        if solver.capabilities.needs_sketch:
            if operators and name in operators:
                operator = operators[name]
            elif operator_provider is not None:
                operator = operator_provider(name)
            else:
                operator = solver.build_operator(spec, executor=operator_executor)
            if first_stage is not None:
                operator = operator.with_first_stage(first_stage)
        attempts.append(name)
        attempt_start = executor.elapsed if executor is not None else 0.0
        try:
            result = solver.solve(a, b, spec, operator=operator, executor=executor)
        except np.linalg.LinAlgError as exc:  # defensive: adapters usually catch
            reasons.append(f"{name}: {exc}")
            _log_attempt(name, attempt_start, True, str(exc))
            continue
        if not result.failed:
            _log_attempt(name, attempt_start, False, None)
            return result.record_attempt_chain(attempts, reasons)
        reasons.append(f"{name}: {result.failure_reason}" if result.failure_reason else name)
        _log_attempt(name, attempt_start, True, result.failure_reason)
        last_result = result
    if last_result is None:
        # Every link raised: a failed result carries the whole chain's reasons
        # instead of an exception taking the caller's batch down with it.
        breakdown = (
            executor.breakdown_since(start_mark) if executor is not None else TimeBreakdown()
        )
        last_result = LeastSquaresResult(
            method=attempts[-1] if attempts else "",
            x=None,
            residual_norm=float("inf"),
            relative_residual=float("inf"),
            breakdown=breakdown,
            total_seconds=breakdown.total(),
            failed=True,
            failure_reason="; ".join(reasons) or "solve plan had no executable links",
        )
    return last_result.record_attempt_chain(attempts, reasons)


def plan_and_execute(
    a: ArrayLike,
    b: ArrayLike,
    spec: Optional[SolveSpec] = None,
    *,
    policy: str = "cheapest_accurate",
    solver: Optional[str] = None,
    executor: Optional[GPUExecutor] = None,
    device: DeviceSpec = H100_SXM5,
    **spec_overrides,
) -> LeastSquaresResult:
    """Convenience: :func:`plan` then :func:`execute_plan` in one call."""
    if spec is None:
        a_np = a.data if isinstance(a, DeviceArray) else np.asarray(a)
        b_np = b.data if isinstance(b, DeviceArray) else np.asarray(b)
        spec = SolveSpec.from_problem(a_np, b_np, **spec_overrides)
    elif spec_overrides:
        spec = replace(spec, **spec_overrides)
    plan_ = plan(a, spec, policy=policy, solver=solver, device=device)
    return execute_plan(plan_, a, b, spec, executor=executor)
