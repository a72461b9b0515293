"""`StreamingSolver`: the online sketch-and-solve engine.

The batch pipeline of PR 1/2 assumes ``A`` arrives whole; this engine
assumes it never does.  Rows stream in as ``(rows, targets)`` batches and
the engine maintains only the joint hashed-CountSketch state ``S [A | b]``
(:mod:`repro.streaming.state` -- landmark, sliding-window, or
exponential-decay variants), so per-batch ingest cost is ``O(batch * n)``
no matter how many rows the stream has seen.

Solutions are produced *lazily*: a query re-solves only when the window has
changed since the last solve, and the re-solve routes the small sketched
problem ``min_x ||S b - (S A) x||`` through the PR 2 registry/planner
(:func:`repro.linalg.planner.plan` / :func:`~repro.linalg.planner.execute_plan`),
so a stale or ill-conditioned window still lands on the cheapest admissible
solver and any breakdown walks the declared fallback chain -- with the
attempted chain recorded on the result exactly as in batch serving.

A :class:`~repro.streaming.drift.DriftDetector` (optional but on by
default) watches every arriving batch's out-of-sample residual and
periodically probes the window's conditioning; a firing triggers a window
reset (residual drift: the old rows are actively wrong) or a re-plan
(conditioning drift: the old routing is), followed by an eager re-solve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.base import default_embedding_dim
from repro.gpu.executor import GPUExecutor
from repro.linalg.incremental import OperatorRefresher
from repro.linalg.lstsq import LeastSquaresResult, relative_residual
from repro.linalg.planner import SolvePlan, execute_plan, normalize_policy, plan
from repro.linalg.registry import SolveSpec
from repro.streaming.drift import DriftDetector, DriftDetectorConfig, DriftEvent
from repro.streaming.state import make_state, normalize_mode


def as_row_batch(rows, targets, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Validate and normalise one arriving block: float64 ``(batch, n)`` rows
    and ``batch`` targets.

    Every entry must be finite: a NaN or infinite cell raises ``ValueError``
    naming it rather than poisoning the window sketch (and, on a durable
    server, the WAL that would replay it).
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    targets = np.asarray(targets, dtype=np.float64).ravel()
    if rows.shape[1] != n:
        raise ValueError(f"expected rows with {n} columns, got {rows.shape}")
    if targets.shape[0] != rows.shape[0]:
        raise ValueError("need one target per row")
    for name, arr in (("rows", rows), ("targets", targets)):
        finite = np.isfinite(arr)
        if not finite.all():
            raise ValueError(f"{name} must be finite, got {float(arr[~finite][0])!r}")
    return rows, targets


@dataclass
class IngestReport:
    """What one :meth:`StreamingSolver.ingest` call did.

    ``batch_residual`` is the arriving batch's out-of-sample relative
    residual against the pre-ingest solution (NaN before the first solve);
    ``drift`` carries the detector event when one fired, and ``resolved``
    says whether the ingest triggered an eager re-solve.
    ``simulated_seconds`` covers the ingest itself (fold + any probe
    merge); an eager re-solve's cost is reported separately in
    ``resolve_seconds`` so serving-side accounting can attribute both.
    """

    rows: int
    batch_residual: float
    drift: Optional[DriftEvent] = None
    resolved: bool = False
    simulated_seconds: float = 0.0
    resolve_seconds: float = 0.0


@dataclass
class StreamingSolution:
    """One (possibly cached) answer to a solution query.

    ``relative_residual`` is measured on the sketched window system (the
    only data the engine has); ``staleness_rows`` counts rows ingested
    after the solve that produced ``x`` -- 0 means the solution reflects
    the whole window.
    """

    x: Optional[np.ndarray]
    relative_residual: float
    planned_solver: str
    executed_solver: str
    attempted: Tuple[str, ...]
    fallbacks: int
    cond_estimate: float
    policy: str
    trigger: str
    window_rows: int
    rows_at_solve: int
    solved_version: int
    simulated_seconds: float
    staleness_rows: int = 0
    failed: bool = False
    failure_reason: str = ""


class StreamingSolver:
    """Online least-squares over a row stream, solved through the planner.

    Parameters
    ----------
    n:
        Number of feature columns of the streamed rows.
    k:
        Embedding dimension of the window sketch; defaults to the paper's
        CountSketch rule ``ceil(oversampling * (n+1)^2)`` for the joint
        ``[A | b]`` sketch.
    mode:
        Window maintenance: ``"landmark"``, ``"sliding"``, ``"decay"``, or
        ``"fd"`` (a deterministic Frequent Directions spectral summary --
        see :mod:`repro.streaming.state`).
    bucket_rows / window_buckets:
        Sliding-window geometry (rows per sub-sketch, sub-sketches kept).
    decay:
        Per-row forgetting factor of the ``"decay"`` mode.
    policy:
        Planner policy used at every re-solve (``"fixed"`` is not meaningful
        here and is rejected -- streaming exists to re-route).
    solve_kind:
        Sketch family the *inner* solvers may use on the ``k x n`` window
        problem (forwarded into the :class:`~repro.linalg.registry.SolveSpec`).
    accuracy_target / latency_budget / oversampling / seed:
        Forwarded to the spec / sketch state (a latency budget makes the
        ``"adaptive"`` policy prefer the most robust solver that fits it).
    detector:
        A :class:`~repro.streaming.drift.DriftDetector`, ``True`` (default
        config), or ``False``/``None`` to run open-loop.
    reset_on_drift:
        Whether a residual-drift event resets the window before re-solving
        (conditioning events never reset; they only re-plan).
    executor:
        Simulated device the ingest/merge/solve kernels are charged to; a
        private numeric H100 executor is created when omitted.  The window
        state is fixed-size (retired accumulators are freed), but the
        library's one-shot solvers never free their per-solve temporaries,
        so a long-lived engine should run with ``track_memory=False`` (the
        private executor's default) like the serving pool does.
    """

    def __init__(
        self,
        n: int,
        *,
        k: Optional[int] = None,
        mode: str = "landmark",
        bucket_rows: int = 1024,
        window_buckets: int = 4,
        decay: float = 0.999,
        policy: str = "cheapest_accurate",
        solve_kind: str = "multisketch",
        accuracy_target: float = 1e-6,
        latency_budget: Optional[float] = None,
        oversampling: float = 2.0,
        seed: Optional[int] = 0,
        detector=True,
        reset_on_drift: bool = True,
        executor: Optional[GPUExecutor] = None,
    ) -> None:
        if n <= 0:
            raise ValueError("n must be positive")
        self.n = int(n)
        self.mode = normalize_mode(mode)
        self.policy = normalize_policy(policy)
        if self.policy == "fixed":
            raise ValueError("streaming re-solves route through the planner; use an adaptive policy")
        if executor is None:
            executor = GPUExecutor(numeric=True, seed=seed, track_memory=False)
        self.executor = executor
        # None maps to 0, matching StreamingCountSketch's hash-seed
        # convention: streaming state is always reproducible from its seed.
        self.seed = 0 if seed is None else int(seed)
        self.solve_kind = solve_kind
        self.accuracy_target = float(accuracy_target)
        self.latency_budget = None if latency_budget is None else float(latency_budget)
        self.oversampling = float(oversampling)
        if k is None:
            if self.mode == "fd":
                # The FD buffer is k rows (ell = k/2): 2*ell = 4(n+1) keeps
                # ell comfortably above the joint column count, the minimum
                # for a faithful spectral summary of [A | b].
                k = 4 * (self.n + 1)
            else:
                k = default_embedding_dim("countsketch", self.n + 1, oversampling)
        if k <= self.n:
            raise ValueError("embedding dimension k must exceed n")
        self.k = int(k)
        self.state = make_state(
            self.mode,
            self.n + 1,
            self.k,
            executor=executor,
            seed=self.seed,
            bucket_rows=bucket_rows,
            window_buckets=window_buckets,
            decay=decay,
        )
        if detector is True:
            self.detector: Optional[DriftDetector] = DriftDetector()
        elif isinstance(detector, DriftDetectorConfig):
            self.detector = DriftDetector(detector)
        elif isinstance(detector, DriftDetector):
            self.detector = detector
        elif detector is False or detector is None:
            self.detector = None
        else:
            # Anything else silently disabling detection would be the
            # opposite of what the caller asked for.
            raise TypeError(
                "detector must be True/False/None, a DriftDetector or a "
                f"DriftDetectorConfig, got {type(detector).__name__}"
            )
        self.reset_on_drift = bool(reset_on_drift)

        # Sketch operators the inner (fallback-chain) solvers need persist
        # across re-solves: the window shape never changes, so their factors
        # are refreshed once and reused by every subsequent re-solve.
        self._refresher = OperatorRefresher(executor)
        self._solution: Optional[StreamingSolution] = None
        self._last_result: Optional[LeastSquaresResult] = None
        self._joint: Optional[np.ndarray] = None
        self._joint_version = -1
        self.batches_ingested = 0
        self.resolve_count = 0
        self.drift_resolves = 0
        self.ingest_seconds = 0.0

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def ingest(self, rows: np.ndarray, targets: np.ndarray) -> IngestReport:
        """Fold one arriving ``(batch, n)`` block of rows and its targets.

        Runs the drift checks, updates the window sketch (one
        ``O(batch * n)`` kernel), and eagerly re-solves when a drift event
        fires; otherwise solving is deferred to the next query.
        """
        rows, targets = as_row_batch(rows, targets, self.n)
        batch = rows.shape[0]
        if batch == 0:
            return IngestReport(rows=0, batch_residual=float("nan"))
        self.batches_ingested += 1

        # Out-of-sample check of the *old* solution on the *new* rows
        # (host-side, off the simulated clock, like every residual check).
        batch_resid = float("nan")
        event: Optional[DriftEvent] = None
        if self._solution is not None and self._solution.x is not None:
            batch_resid = relative_residual(rows, targets, self._solution.x)
            if self.detector is not None:
                event = self.detector.observe_residual(batch_resid)
        # Everything the stream's arrival costs -- a drift reset's fresh
        # accumulator, the fold kernel, and the window merge a condition
        # probe reads -- is charged inside one ingest accounting window;
        # re-solves are solve work and are attributed to the solution.
        mark = self.executor.mark()
        if event is not None and self.reset_on_drift and event.kind == "residual":
            # The old window is actively wrong: drop it before folding the
            # batch so the fresh solve reflects the new regime only.
            self.state.reset()
        block = np.concatenate([rows, targets[:, None]], axis=1)
        self.state.fold(block, batch)
        if (
            event is None
            and self._solution is not None
            and self.detector is not None
            and self.detector.should_probe()
            and self.executor.numeric
        ):
            joint = self._window_joint()
            if joint is not None:
                # The kappa estimate itself is host-side (off-clock, like
                # every residual check); only the merge above was charged.
                event = self.detector.observe_sketch(joint[:, : self.n])
        seconds = self.executor.elapsed_since(mark)
        self.ingest_seconds += seconds

        resolved = False
        if event is not None:
            if self.state.rows_in_window() > self.n:
                self._solve(
                    trigger=f"drift:{event.kind}",
                    fresh_window=event.kind == "residual" and self.reset_on_drift,
                )
                self.drift_resolves += 1
                resolved = True
            else:
                # A reset left the fresh window underdetermined: the old
                # model is known-wrong, so stop serving it and let the
                # warmup path re-solve once the window is overdetermined.
                self._solution = None
        elif (
            self.detector is not None
            and self._solution is None
            and self.executor.numeric
            and self.state.rows_in_window() > self.n
        ):
            # A detector needs a model to score arriving batches against;
            # solve once as soon as the window is overdetermined instead of
            # waiting for the first query.
            self._solve(trigger="warmup", fresh_window=True)
            resolved = True
        return IngestReport(
            rows=batch,
            batch_residual=batch_resid,
            drift=event,
            resolved=resolved,
            simulated_seconds=seconds,
            resolve_seconds=(
                self._solution.simulated_seconds if resolved and self._solution else 0.0
            ),
        )

    # ------------------------------------------------------------------
    # solve / query
    # ------------------------------------------------------------------
    def solution(self, *, force: bool = False) -> StreamingSolution:
        """Current window's solution, re-solving only if the window changed."""
        stale = (
            self._solution is None
            or self._solution.solved_version != self.state.version
        )
        if force or stale:
            self._solve(trigger="query")
        sol = self._solution
        assert sol is not None
        # A fresh copy per query: responses already handed out must keep the
        # staleness they were served at.
        return replace(sol, staleness_rows=self.state.rows_total - sol.rows_at_solve)

    @property
    def staleness_rows(self) -> int:
        """Rows ingested since the last solve (whole stream if never solved)."""
        if self._solution is None:
            return self.state.rows_total
        return self.state.rows_total - self._solution.rows_at_solve

    @property
    def last_result(self) -> Optional[LeastSquaresResult]:
        """Full :class:`~repro.linalg.lstsq.LeastSquaresResult` of the last re-solve."""
        return self._last_result

    def _window_joint(self) -> Optional[np.ndarray]:
        """The window's merged ``k x (n+1)`` sketch, cached per state version.

        A condition probe and the re-solve it triggers (or a probe and the
        next query) land on the same window version; caching the merged
        array means the ring is merged -- and charged -- once per version,
        not once per reader.
        """
        if self._joint_version == self.state.version and self._joint is not None:
            return self._joint
        self._joint = self.state.current()
        self._joint_version = self.state.version
        return self._joint

    def _solve(self, trigger: str, fresh_window: bool = False) -> None:
        """Re-solve the window; ``fresh_window`` marks solves whose window
        reflects a single regime by construction (warmup, post-reset), whose
        residual is therefore safe to adopt as the detector reference."""
        if not self.executor.numeric:
            raise RuntimeError("solution queries need a numeric executor")
        if self.state.rows_in_window() == 0:
            raise RuntimeError("cannot solve an empty window; ingest rows first")
        mark = self.executor.mark()
        joint = self._window_joint()
        merge_seconds = self.executor.elapsed_since(mark)  # 0 when probe pre-merged
        assert joint is not None
        sa, sb = joint[:, : self.n], joint[:, self.n]

        spec = SolveSpec(
            d=self.k,
            n=self.n,
            nrhs=1,
            accuracy_target=self.accuracy_target,
            latency_budget=self.latency_budget,
            kind=self.solve_kind,
            oversampling=self.oversampling,
            seed=self.seed,
        )
        plan_: SolvePlan = plan(sa, spec, policy=self.policy, device=self.executor.device)
        result = execute_plan(
            plan_,
            sa,
            sb,
            spec,
            executor=self.executor,
            operator_provider=self._refresher.provider(spec),
        )
        self.resolve_count += 1
        self._last_result = result
        if self.detector is not None and not result.failed:
            # Re-anchor the detector -- except on a re-solve of a window
            # that was *not* reset and whose own residual already looks
            # out-of-regime: adopting it as the reference would mask the
            # very drift it evidences (the window still mixes regimes until
            # the detector fires and resets it).
            ref = self.detector.reference_residual
            in_regime = (
                fresh_window
                or ref is None
                or result.relative_residual <= ref * self.detector.config.residual_threshold
            )
            if in_regime:
                self.detector.rebase(result.relative_residual, plan_.cond_estimate)
        self._solution = StreamingSolution(
            x=result.x,
            relative_residual=result.relative_residual,
            planned_solver=plan_.solver,
            executed_solver=result.attempted_solvers[-1],
            attempted=result.attempted_solvers,
            fallbacks=int(float(result.extra.get("fallbacks", 0.0))),
            cond_estimate=plan_.cond_estimate,
            policy=self.policy,
            trigger=trigger,
            window_rows=self.state.rows_in_window(),
            rows_at_solve=self.state.rows_total,
            solved_version=self.state.version,
            simulated_seconds=result.total_seconds + merge_seconds,
            failed=result.failed,
            failure_reason=result.failure_reason,
        )

    # ------------------------------------------------------------------
    # durable state
    # ------------------------------------------------------------------
    def state_dict(self) -> Tuple[dict, Dict[str, np.ndarray]]:
        """Everything a restore needs: config, window state, detector, solution.

        Returns ``(meta, arrays)`` in the durable record's split -- JSON-able
        metadata plus named numpy arrays.  The engine's construction
        parameters ride along so :meth:`from_state_dict` can rebuild an
        identically-configured solver without out-of-band knowledge.
        """
        state_meta, arrays = self.state.state_dict()
        meta = {
            "config": {
                "n": self.n,
                "k": self.k,
                "mode": self.mode,
                "policy": self.policy,
                "solve_kind": self.solve_kind,
                "accuracy_target": self.accuracy_target,
                "latency_budget": self.latency_budget,
                "oversampling": self.oversampling,
                "seed": self.seed,
                "reset_on_drift": self.reset_on_drift,
                "bucket_rows": int(getattr(self.state, "bucket_rows", 1024)),
                "window_buckets": int(getattr(self.state, "window_buckets", 4)),
                "decay": float(getattr(self.state, "decay", 0.999)),
            },
            "counters": {
                "batches_ingested": self.batches_ingested,
                "resolve_count": self.resolve_count,
                "drift_resolves": self.drift_resolves,
                "ingest_seconds": self.ingest_seconds,
            },
            "detector": None if self.detector is None else self.detector.state_dict(),
            "state": state_meta,
        }
        sol = self._solution
        if sol is None:
            meta["solution"] = None
        else:
            meta["solution"] = {
                "relative_residual": sol.relative_residual,
                "planned_solver": sol.planned_solver,
                "executed_solver": sol.executed_solver,
                "attempted": list(sol.attempted),
                "fallbacks": sol.fallbacks,
                "cond_estimate": sol.cond_estimate,
                "policy": sol.policy,
                "trigger": sol.trigger,
                "window_rows": sol.window_rows,
                "rows_at_solve": sol.rows_at_solve,
                "solved_version": sol.solved_version,
                "simulated_seconds": sol.simulated_seconds,
                "failed": sol.failed,
                "failure_reason": sol.failure_reason,
                "has_x": sol.x is not None,
            }
            if sol.x is not None:
                arrays = dict(arrays)
                arrays["solution_x"] = np.asarray(sol.x, dtype=np.float64)
        return meta, arrays

    @classmethod
    def from_state_dict(
        cls,
        meta: dict,
        arrays: Dict[str, np.ndarray],
        *,
        executor: Optional[GPUExecutor] = None,
    ) -> "StreamingSolver":
        """Rebuild a mid-stream engine from :meth:`state_dict` output.

        The restored engine is behaviourally identical to the snapshotted
        one: the window sketch, global row counter, detector references and
        cached solution all match, so replaying the same subsequent batches
        produces the same answers.
        """
        cfg = meta["config"]
        detector_state = meta.get("detector")
        solver = cls(
            int(cfg["n"]),
            k=int(cfg["k"]),
            mode=str(cfg["mode"]),
            bucket_rows=int(cfg["bucket_rows"]),
            window_buckets=int(cfg["window_buckets"]),
            decay=float(cfg["decay"]),
            policy=str(cfg["policy"]),
            solve_kind=str(cfg["solve_kind"]),
            accuracy_target=float(cfg["accuracy_target"]),
            latency_budget=None if cfg["latency_budget"] is None else float(cfg["latency_budget"]),
            oversampling=float(cfg["oversampling"]),
            seed=int(cfg["seed"]),
            detector=(
                DriftDetector.from_state_dict(detector_state)
                if detector_state is not None
                else False
            ),
            reset_on_drift=bool(cfg["reset_on_drift"]),
            executor=executor,
        )
        state_arrays = {name: arr for name, arr in arrays.items() if name != "solution_x"}
        solver.state.load_state(meta["state"], state_arrays)
        counters = meta["counters"]
        solver.batches_ingested = int(counters["batches_ingested"])
        solver.resolve_count = int(counters["resolve_count"])
        solver.drift_resolves = int(counters["drift_resolves"])
        solver.ingest_seconds = float(counters["ingest_seconds"])
        sol_meta = meta.get("solution")
        if sol_meta is not None:
            x = arrays.get("solution_x")
            if sol_meta["has_x"] and x is None:
                raise ValueError("solution snapshot is missing its x payload")
            solver._solution = StreamingSolution(
                x=None if x is None else np.asarray(x, dtype=np.float64),
                relative_residual=float(sol_meta["relative_residual"]),
                planned_solver=str(sol_meta["planned_solver"]),
                executed_solver=str(sol_meta["executed_solver"]),
                attempted=tuple(str(s) for s in sol_meta["attempted"]),
                fallbacks=int(sol_meta["fallbacks"]),
                cond_estimate=float(sol_meta["cond_estimate"]),
                policy=str(sol_meta["policy"]),
                trigger=str(sol_meta["trigger"]),
                window_rows=int(sol_meta["window_rows"]),
                rows_at_solve=int(sol_meta["rows_at_solve"]),
                solved_version=int(sol_meta["solved_version"]),
                simulated_seconds=float(sol_meta["simulated_seconds"]),
                failed=bool(sol_meta["failed"]),
                failure_reason=str(sol_meta["failure_reason"]),
            )
        return solver

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def drift_events(self) -> int:
        """Detector firings so far (0 when running open-loop)."""
        return self.detector.event_count if self.detector is not None else 0

    def stats(self) -> Dict[str, float]:
        """Headline counters as one flat dict (mirrors the serving style)."""
        out = {
            "batches_ingested": float(self.batches_ingested),
            "rows_ingested": float(self.state.rows_total),
            "window_rows": float(self.state.rows_in_window()),
            "resolve_count": float(self.resolve_count),
            "drift_resolves": float(self.drift_resolves),
            "drift_events": float(self.drift_events),
            "staleness_rows": float(self.staleness_rows),
            "ingest_seconds": self.ingest_seconds,
            "ingest_rows_per_second": (
                self.state.rows_total / self.ingest_seconds if self.ingest_seconds > 0 else 0.0
            ),
        }
        return out
