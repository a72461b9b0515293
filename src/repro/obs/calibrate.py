"""Online cost-model calibration: learn measured/analytic ratios per bucket.

The planner ranks solvers by :meth:`RegisteredSolver.estimate_seconds` -- an
analytic dry-run of each adapter on the roofline device model.  That estimate
is exact for the kernels it charges, but it is still *a-priori*: it cannot
know data-dependent behaviour.  The canonical example in this repository is
``sketch_precond_lsqr``, whose analytic dry-run charges a fixed
representative iteration count while the numeric solve stops at convergence
-- so the analytic cost is systematically wrong by a shape-dependent factor.
Deadline shedding inherits that error verbatim.

:class:`CalibratedEstimator` closes the loop.  It consumes *measured*
per-solver durations -- either directly from the serving layer's per-attempt
execution log or from completed ``solver:<name>`` spans
(:meth:`CalibratedEstimator.ingest`) -- and maintains one robust online
correction factor per ``(solver family, problem class, shape bucket)``:

* the correction is an EWMA of the measured/analytic ratio,
* each incoming ratio is clipped into ``[1/clip, clip]`` so one outlier
  (a fallback-polluted or truncated measurement) cannot poison the factor,
* a minimum-sample gate keeps predictions on the analytic estimate until the
  bucket has seen enough evidence to be trusted.

A serving layer hands its samples over with :meth:`CalibratedEstimator.defer`,
which only queues them.  The queue is folded in bulk, in arrival order,
before anything reads the estimator or its registry (and on the writer's
side once it holds :data:`FOLD_BOUND` samples), so every reader sees
exactly the state per-sample :meth:`~CalibratedEstimator.observe` calls
would have left.

``predict_seconds(spec, solver=...)`` returns ``analytic * factor`` once the
gate opens and the plain analytic estimate before that, so callers can always
ask for the best currently-available number.  The estimator also scores
itself: every observation lands one predicted-vs-measured relative error in
the registry under ``calibration_relative_error{model="calibrated"}`` and
the corresponding analytic error under ``model="analytic"`` -- the pair the
calibration acceptance benchmark compares.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.gpu.device import DeviceSpec, H100_SXM5
from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.obs.trace import Span

__all__ = ["CalibratedEstimator", "CalibrationKey", "FOLD_BOUND", "shape_bucket"]

#: Queued samples at which :meth:`CalibratedEstimator.defer` folds on the
#: writer's side, so the deferred work is amortised within the run instead
#: of waiting for the next read.
FOLD_BOUND = 256


def shape_bucket(d: int, n: int, nrhs: int = 1) -> Tuple[int, int, int]:
    """Logarithmic shape bucket ``(log2 d, log2 n, log2 nrhs)`` (floored).

    Costs scale polynomially in the dimensions, so a measured/analytic
    *ratio* is stable across nearby shapes; bucketing by octave keeps the
    state bounded while separating regimes (a 512 x 16 solve and a
    65536 x 256 solve calibrate independently).
    """
    return (
        int(math.log2(max(int(d), 1))),
        int(math.log2(max(int(n), 1))),
        int(math.log2(max(int(nrhs), 1))),
    )


@dataclass(frozen=True)
class CalibrationKey:
    """Identity of one correction factor: solver x problem class x shape bucket."""

    solver: str
    problem: str
    bucket: Tuple[int, int, int]

    def labels(self) -> Dict[str, str]:
        """Label set used for this key's registry gauges."""
        return {
            "solver": self.solver,
            "problem": self.problem,
            "bucket": "x".join(str(b) for b in self.bucket),
        }


@dataclass
class _BucketState:
    """Online state of one correction factor, with its key's registry series.

    The handles are resolved once, when the bucket opens, so an observation
    does not look its labels up again (the rare clip still does: its series
    appears only on the first clip).
    """

    samples_total: Counter
    factor: Gauge
    ewma: float = 1.0
    samples: int = 0
    clipped: int = 0

    def update(self, ratio: float, alpha: float) -> None:
        if self.samples == 0:
            self.ewma = ratio
        else:
            self.ewma = (1.0 - alpha) * self.ewma + alpha * ratio
        self.samples += 1


class CalibratedEstimator:
    """Measured-over-analytic correction factors for solver cost estimates.

    Parameters
    ----------
    registry:
        :class:`~repro.obs.metrics.MetricsRegistry` the estimator scores
        itself into (a private one is created when omitted).  Series:
        ``calibration_relative_error{model=calibrated|analytic}`` (histogram),
        ``calibration_factor{solver,problem,bucket}`` (gauge),
        ``calibration_samples_total{solver}`` and
        ``calibration_clipped_total{solver}`` (counters).
    alpha:
        EWMA step for the ratio update (higher adapts faster, forgets
        faster).
    min_samples:
        Observations a bucket needs before :meth:`predict_seconds` trusts
        its factor; below the gate predictions fall back to the analytic
        :meth:`~repro.linalg.registry.RegisteredSolver.estimate_seconds`.
    clip:
        Outlier bound: each incoming measured/analytic ratio is clipped
        into ``[1/clip, clip]`` before entering the EWMA.
    device:
        Default device model for analytic estimates (callers can override
        per call).
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        *,
        alpha: float = 0.25,
        min_samples: int = 4,
        clip: float = 16.0,
        device: DeviceSpec = H100_SXM5,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if min_samples < 1:
            raise ValueError("min_samples must be at least 1")
        if clip <= 1.0:
            raise ValueError("clip must exceed 1 (it bounds the ratio both ways)")
        self.registry = registry if registry is not None else MetricsRegistry()
        self.alpha = float(alpha)
        self.min_samples = int(min_samples)
        self.clip = float(clip)
        self.device = device
        self._lock = threading.Lock()
        self._state: Dict[CalibrationKey, _BucketState] = {}
        self._ingest_cursor = 0
        self._err_calibrated = self.registry.histogram(
            "calibration_relative_error", model="calibrated"
        )
        self._err_analytic = self.registry.histogram(
            "calibration_relative_error", model="analytic"
        )
        #: Samples queued by :meth:`defer`, oldest first:
        #: ``(solver, spec, measured, analytic or None, device or None)``.
        self._pending: List[tuple] = []
        self.registry.before_read(self._fold)

    # ------------------------------------------------------------------
    # observation side
    # ------------------------------------------------------------------
    def _analytic_seconds(self, solver: str, spec, device: Optional[DeviceSpec]) -> float:
        from repro.linalg.registry import get_solver  # local: avoid import cycle

        return float(
            get_solver(solver).estimate_seconds(spec, device if device is not None else self.device)
        )

    def key_for(self, solver: str, spec) -> CalibrationKey:
        """The calibration key a spec falls into for one solver family."""
        return CalibrationKey(
            solver=str(solver),
            problem=spec.problem,
            bucket=shape_bucket(spec.d, spec.n, spec.nrhs),
        )

    def observe(
        self,
        solver: str,
        spec,
        measured_seconds: float,
        *,
        analytic_seconds: Optional[float] = None,
        device: Optional[DeviceSpec] = None,
    ) -> Optional[float]:
        """Fold one measured solver duration into its bucket's factor.

        Returns the (clipped) measured/analytic ratio that entered the
        EWMA, or ``None`` when the sample was unusable (non-positive
        measurement or analytic estimate).  The prediction error of the
        *pre-update* factor is recorded first, so the error histograms
        score the estimator exactly as callers would have experienced it.
        Samples queued by :meth:`defer` are folded first, in order.
        """
        measured = float(measured_seconds)
        if not math.isfinite(measured) or measured <= 0.0:
            return None
        if analytic_seconds is None:
            analytic_seconds = self._analytic_seconds(solver, spec, device)
        with self._lock:
            self._pending.append((solver, spec, measured, float(analytic_seconds), device))
            return self._fold_locked()[-1]

    def defer(
        self, solver: str, spec, measured_seconds: float, *, device: Optional[DeviceSpec] = None
    ) -> None:
        """Queue one measured duration for :meth:`observe`'s fold, without folding it.

        The queue is folded before the next read of the estimator or its
        registry, or here once it holds :data:`FOLD_BOUND` samples; either
        way the result equals one :meth:`observe` call per sample, in order.
        """
        with self._lock:
            self._pending.append((solver, spec, measured_seconds, None, device))
            if len(self._pending) >= FOLD_BOUND:
                self._fold_locked()

    def _fold(self) -> None:
        """Fold every queued sample (a no-op when none is queued)."""
        if self._pending:
            with self._lock:
                self._fold_locked()

    def _fold_locked(self) -> List[Optional[float]]:
        """Replay the queued samples in order; returns each one's clipped ratio.

        The pre-update prediction, clipping and EWMA run per sample, as in
        :meth:`observe`; each distinct ``(solver, spec, device)`` has its
        analytic estimate and key looked up once.  The registry gets one
        ``observe_many`` per error histogram, one ``inc(n)`` per counter and
        each touched factor gauge its final value, which equals the
        per-sample updates bit for bit (the counters hold integers).
        """
        pending, self._pending = self._pending, []
        out: List[Optional[float]] = []
        lookups: Dict[tuple, tuple] = {}
        err_calibrated: List[float] = []
        err_analytic: List[float] = []
        increments: Dict[Counter, int] = {}
        touched: Dict[CalibrationKey, _BucketState] = {}
        try:
            for solver, spec, measured, analytic, device in pending:
                measured = float(measured)
                if not math.isfinite(measured) or measured <= 0.0:
                    out.append(None)
                    continue
                if analytic is None:
                    lookup = (solver, spec, device)
                    found = lookups.get(lookup)
                    if found is None:
                        found = lookups[lookup] = (
                            self._analytic_seconds(solver, spec, device),
                            self.key_for(solver, spec),
                        )
                    analytic, key = found
                else:
                    key = self.key_for(solver, spec)
                if not math.isfinite(analytic) or analytic <= 0.0:
                    out.append(None)
                    continue
                state = self._state.get(key)
                if state is None:
                    state = self._state[key] = _BucketState(
                        self.registry.counter("calibration_samples_total", solver=key.solver),
                        self.registry.gauge("calibration_factor", **key.labels()),
                    )
                predicted = analytic * (state.ewma if state.samples >= self.min_samples else 1.0)
                err_calibrated.append(abs(predicted - measured) / measured)
                err_analytic.append(abs(analytic - measured) / measured)
                ratio = measured / analytic
                clipped = min(max(ratio, 1.0 / self.clip), self.clip)
                if clipped != ratio:
                    state.clipped += 1
                    counter = self.registry.counter("calibration_clipped_total", solver=key.solver)
                    increments[counter] = increments.get(counter, 0) + 1
                state.update(clipped, self.alpha)
                increments[state.samples_total] = increments.get(state.samples_total, 0) + 1
                touched[key] = state
                out.append(clipped)
        finally:
            self._err_calibrated.observe_many(np.array(err_calibrated))
            self._err_analytic.observe_many(np.array(err_analytic))
            for counter, n in increments.items():
                counter.inc(n)
            for state in touched.values():
                state.factor.set(state.ewma)
        return out

    def ingest(self, root: Span) -> int:
        """Consume one completed trace's ``solver:<name>`` spans.

        Only successful attempts whose spans carry the shape attributes the
        serving layer stamps (``d``, ``n``, ``nrhs``, ``problem``,
        ``kind``, and optionally ``analytic_seconds``) are usable; failed
        attempts measure a truncated run and are skipped.  Returns the
        number of samples folded in.
        """
        from repro.linalg.registry import SolveSpec  # local: avoid import cycle

        self._fold()
        count = 0
        for span in root.walk():
            if not span.name.startswith("solver:") or span.end is None:
                continue
            if span.status != "ok":
                continue
            attrs = span.attributes
            if "d" not in attrs or "n" not in attrs:
                continue
            spec = SolveSpec(
                d=int(attrs["d"]),
                n=int(attrs["n"]),
                nrhs=int(attrs.get("nrhs", 1)),
                regularization=float(attrs.get("regularization", 0.0)),
                kind=str(attrs.get("kind", "multisketch")),
            )
            analytic = attrs.get("analytic_seconds")
            ratio = self.observe(
                str(attrs.get("solver", span.name.split(":", 1)[1])),
                spec,
                span.duration,
                analytic_seconds=float(analytic) if analytic is not None else None,
            )
            if ratio is not None:
                count += 1
        return count

    def ingest_tracer(self, tracer) -> int:
        """Consume every completed trace not yet ingested from a tracer.

        Tracks a cursor against ``tracer.traces_retained`` so repeated
        calls only read newly retained traces (head sampling already
        excluded the rest); traces evicted from the bounded deque before a
        call are simply missed (the cursor still advances).
        """
        self._fold()
        with self._lock:
            cursor = self._ingest_cursor
            retained = tracer.traces_retained
            self._ingest_cursor = retained
        new = retained - cursor
        if new <= 0:
            return 0
        count = 0
        for root in tracer.traces()[-new:]:
            count += self.ingest(root)
        return count

    # ------------------------------------------------------------------
    # prediction side
    # ------------------------------------------------------------------
    def factor(self, solver: str, spec) -> Optional[float]:
        """Current correction factor, or None while the bucket is gated."""
        self._fold()
        with self._lock:
            state = self._state.get(self.key_for(solver, spec))
            if state is None or state.samples < self.min_samples:
                return None
            return state.ewma

    def samples(self, solver: str, spec) -> int:
        """Observations the spec's bucket has accumulated."""
        self._fold()
        with self._lock:
            state = self._state.get(self.key_for(solver, spec))
            return 0 if state is None else state.samples

    def predict_seconds(
        self, spec, *, solver: str, device: Optional[DeviceSpec] = None
    ) -> float:
        """Best current estimate of one solve: analytic x learned factor.

        Falls back to the plain analytic estimate while the bucket is
        below its minimum-sample gate, so the prediction is never worse
        informed than the planner's a-priori ranking.
        """
        analytic = self._analytic_seconds(solver, spec, device)
        factor = self.factor(solver, spec)
        return analytic * factor if factor is not None else analytic

    def as_cost_source(self):
        """Adapter for :func:`repro.linalg.planner.plan`'s ``cost_source`` hook.

        Returns ``(name, spec, device, analytic) -> seconds`` -- the
        analytic estimate the planner already computed is corrected in
        place, so a warmed estimator re-ranks candidates by measured
        reality at zero extra dry-run cost.
        """

        def source(name: str, spec, device: DeviceSpec, analytic: float) -> float:
            factor = self.factor(name, spec)
            return analytic * factor if factor is not None else analytic

        return source

    # ------------------------------------------------------------------
    # self-assessment
    # ------------------------------------------------------------------
    def error_summary(self, window: Optional[int] = None) -> Dict[str, float]:
        """Median relative prediction error, calibrated vs analytic.

        ``window`` restricts the comparison to the most recent samples
        (e.g. post-warm-up), using the histograms' exact retained rings.
        """
        self._fold()
        out: Dict[str, float] = {}
        for label, hist in (
            ("calibrated", self._err_calibrated),
            ("analytic", self._err_analytic),
        ):
            if hist.count == 0:
                out[f"{label}_median_rel_error"] = float("nan")
            elif window is not None:
                out[f"{label}_median_rel_error"] = float(
                    hist.recent_percentile(50.0, int(window))
                )
            else:
                out[f"{label}_median_rel_error"] = float(hist.percentile(50.0))
        return out

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-bucket state keyed ``solver|problem|bucket`` (for reports)."""
        self._fold()
        with self._lock:
            return {
                f"{k.solver}|{k.problem}|{'x'.join(map(str, k.bucket))}": {
                    "factor": s.ewma,
                    "samples": float(s.samples),
                    "clipped": float(s.clipped),
                }
                for k, s in self._state.items()
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        self._fold()
        with self._lock:
            buckets = len(self._state)
            total = sum(s.samples for s in self._state.values())
        return f"CalibratedEstimator(buckets={buckets}, samples={total})"
