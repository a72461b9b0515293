"""One entry point per paper artefact (Table 1, Figures 2-8, Section 7).

Every ``figureN`` function sweeps the same grid the paper uses (or a scaled
version of it, see :class:`~repro.harness.runner.SweepConfig`) and returns a
list of plain dictionaries -- one row per (problem size, method) -- that the
report module renders as text and the benchmark suite asserts shapes on.

Timing rows come from the simulated-GPU cost model; accuracy rows (Figures
6-8) come from actual floating-point computation, so they are real measured
residuals, not estimates.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.base import default_embedding_dim
from repro.core.countsketch import CountSketch
from repro.core.gaussian import GaussianSketch
from repro.core.multisketch import count_gauss
from repro.core.srht import SRHT
from repro.distributed.comm import SimComm
from repro.distributed.cost_model import communication_table
from repro.gpu.executor import GPUExecutor
from repro.gpu.memory import DeviceOutOfMemoryError
from repro.harness.metrics import percent_of_peak_bandwidth, percent_of_peak_flops, speedup
from repro.harness.runner import SweepConfig, average_breakdowns
from repro.linalg.lstsq import (
    normal_equations,
    qr_solve,
    relative_residual,
    sketch_and_solve,
)
from repro.linalg.rand_cholqr import rand_cholqr_lstsq
from repro.theory.complexity import complexity_table
from repro.workloads.least_squares import (
    condition_sweep_problem,
    easy_problem,
    hard_problem,
)

#: Sketch methods of Figures 2-4, in the paper's plotting order.
SKETCH_METHODS = ("Gram", "Gauss", "Count (Alg 2)", "Count (SPMM)", "Multi", "SRHT")

#: Least-squares methods of Figure 5, in the paper's plotting order.
SOLVER_METHODS = ("Normal Eq", "Gauss", "Count", "Multi", "SRHT", "rand_cholQR")

#: Generation/application phase labels summed into Figure 2's two bar segments.
_GEN_PHASES = ("Sketch gen",)
_APPLY_PHASES = ("Matrix sketch", "Apply", "Gram matrix")


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------
def table1(d: int = 1 << 22, n: int = 128, eps: float = 0.5) -> List[Dict[str, float]]:
    """Table 1: embedding dimension, arithmetic, read/writes, max distortion."""
    return [row.as_dict() for row in complexity_table(d, n, eps)]


# ---------------------------------------------------------------------------
# Figures 2-4: sketch application performance
# ---------------------------------------------------------------------------
def _build_sketch(method: str, d: int, n: int, executor: GPUExecutor, seed: int):
    """Instantiate the sketch operator a Figure-2 method refers to."""
    k_gauss = default_embedding_dim("gaussian", n)
    k_count = min(default_embedding_dim("countsketch", n), d)
    if method == "Gauss":
        return GaussianSketch(d, k_gauss, executor=executor, seed=seed)
    if method == "Count (Alg 2)":
        return CountSketch(d, k_count, variant="atomic", executor=executor, seed=seed)
    if method == "Count (SPMM)":
        return CountSketch(d, k_count, variant="spmm", executor=executor, seed=seed)
    if method == "Multi":
        return count_gauss(d, n, executor=executor, seed=seed)
    if method == "SRHT":
        return SRHT(d, k_gauss, executor=executor, seed=seed)
    raise ValueError(f"unknown sketch method '{method}'")


def _sketch_once(method: str, d: int, n: int, config: SweepConfig, seed: int) -> Dict[str, float]:
    """Run one sketch experiment and return its timing row."""
    executor = GPUExecutor(config.device, numeric=config.numeric, seed=seed, track_memory=True)
    try:
        if config.numeric:
            a = executor.rand.random_matrix((d, n), label="A", phase="Problem gen")
        else:
            a = executor.empty((d, n), label="A")
        mark = executor.mark()
        if method == "Gram":
            executor.blas.gram(a, phase="Apply")
        else:
            sketch = _build_sketch(method, d, n, executor, seed)
            sketch.generate()
            sketch.apply(a, phase="Matrix sketch")
        breakdown = executor.breakdown_since(mark)
    except DeviceOutOfMemoryError:
        return {
            "d": d,
            "n": n,
            "method": method,
            "oom": True,
            "gen_seconds": math.nan,
            "apply_seconds": math.nan,
            "total_seconds": math.nan,
            "bytes_moved": math.nan,
            "flops": math.nan,
        }
    phases = breakdown.by_phase()
    gen = sum(phases.get(p, 0.0) for p in _GEN_PHASES)
    apply_time = sum(phases.get(p, 0.0) for p in _APPLY_PHASES)
    return {
        "d": d,
        "n": n,
        "method": method,
        "oom": False,
        "gen_seconds": gen,
        "apply_seconds": apply_time,
        "total_seconds": breakdown.total(),
        "bytes_moved": breakdown.total_bytes(),
        "flops": breakdown.total_flops(),
    }


def figure2(
    config: Optional[SweepConfig] = None,
    methods: Sequence[str] = SKETCH_METHODS,
) -> List[Dict[str, float]]:
    """Figure 2: sketch generation + application time per method and size."""
    if config is None:
        config = SweepConfig(scale="paper")
    rows: List[Dict[str, float]] = []
    for d, n in config.grid():
        for method in methods:
            repeats = [
                _sketch_once(method, d, n, config, config.seed_for(d, n, r))
                for r in range(config.repetitions)
            ]
            if any(r["oom"] for r in repeats):
                rows.append(repeats[0])
                continue
            avg = dict(repeats[0])
            for key in ("gen_seconds", "apply_seconds", "total_seconds", "bytes_moved", "flops"):
                avg[key] = float(np.mean([r[key] for r in repeats]))
            rows.append(avg)
    return rows


def figure3(
    config: Optional[SweepConfig] = None,
    methods: Sequence[str] = SKETCH_METHODS,
    rows: Optional[List[Dict[str, float]]] = None,
) -> List[Dict[str, float]]:
    """Figure 3: percent of peak memory throughput per method and size."""
    if config is None:
        config = SweepConfig(scale="paper")
    if rows is None:
        rows = figure2(config, methods)
    out = []
    for row in rows:
        if row["oom"] or row["total_seconds"] <= 0:
            pct = math.nan
        else:
            pct = 100.0 * (row["bytes_moved"] / row["total_seconds"]) / config.device.memory_bandwidth
        out.append({**row, "percent_peak_bandwidth": pct})
    return out


def figure4(
    config: Optional[SweepConfig] = None,
    methods: Sequence[str] = SKETCH_METHODS,
    rows: Optional[List[Dict[str, float]]] = None,
) -> List[Dict[str, float]]:
    """Figure 4: percent of peak FLOP/s per method and size."""
    if config is None:
        config = SweepConfig(scale="paper")
    if rows is None:
        rows = figure2(config, methods)
    out = []
    for row in rows:
        if row["oom"] or row["total_seconds"] <= 0:
            pct = math.nan
        else:
            pct = 100.0 * (row["flops"] / row["total_seconds"]) / config.device.peak_flops(8)
        out.append({**row, "percent_peak_flops": pct})
    return out


# ---------------------------------------------------------------------------
# Figure 5: least-squares solver timing
# ---------------------------------------------------------------------------
def _solve_once(method: str, d: int, n: int, config: SweepConfig, seed: int) -> Dict[str, float]:
    """Run one least-squares timing experiment and return its row."""
    executor = GPUExecutor(config.device, numeric=config.numeric, seed=seed, track_memory=True)
    try:
        if config.numeric:
            a = executor.rand.random_matrix((d, n), label="A", phase="Problem gen")
            b = executor.rand.random_matrix((d,), label="b", phase="Problem gen")
        else:
            a = executor.empty((d, n), label="A")
            b = executor.empty((d,), label="b")

        k_count = min(default_embedding_dim("countsketch", n), d)
        k_gauss = default_embedding_dim("gaussian", n)
        if method == "Normal Eq":
            result = normal_equations(a, b, executor=executor)
        elif method == "Gauss":
            sketch = GaussianSketch(d, k_gauss, executor=executor, seed=seed)
            result = sketch_and_solve(a, b, sketch, executor=executor)
        elif method == "Count":
            sketch = CountSketch(d, k_count, executor=executor, seed=seed)
            result = sketch_and_solve(a, b, sketch, executor=executor)
        elif method == "Multi":
            sketch = count_gauss(d, n, executor=executor, seed=seed)
            result = sketch_and_solve(a, b, sketch, executor=executor)
        elif method == "SRHT":
            sketch = SRHT(d, k_gauss, executor=executor, seed=seed)
            result = sketch_and_solve(a, b, sketch, executor=executor)
        elif method == "rand_cholQR":
            sketch = count_gauss(d, n, executor=executor, seed=seed)
            result = rand_cholqr_lstsq(a, b, sketch, executor=executor)
        else:
            raise ValueError(f"unknown solver method '{method}'")
    except DeviceOutOfMemoryError:
        return {
            "d": d,
            "n": n,
            "method": method,
            "oom": True,
            "total_seconds": math.nan,
            "phases": {},
        }
    return {
        "d": d,
        "n": n,
        "method": method,
        "oom": False,
        "total_seconds": result.total_seconds,
        "phases": result.breakdown.by_phase(),
    }


def figure5(
    config: Optional[SweepConfig] = None,
    methods: Sequence[str] = SOLVER_METHODS,
) -> List[Dict[str, float]]:
    """Figure 5: runtime breakdown of the least-squares solvers."""
    if config is None:
        config = SweepConfig(scale="paper")
    rows: List[Dict[str, float]] = []
    for d, n in config.grid():
        for method in methods:
            repeats = [
                _solve_once(method, d, n, config, config.seed_for(d, n, r))
                for r in range(config.repetitions)
            ]
            if any(r["oom"] for r in repeats):
                rows.append(repeats[0])
                continue
            avg = dict(repeats[0])
            avg["total_seconds"] = float(np.mean([r["total_seconds"] for r in repeats]))
            phase_keys = set()
            for r in repeats:
                phase_keys.update(r["phases"])
            avg["phases"] = {
                key: float(np.mean([r["phases"].get(key, 0.0) for r in repeats]))
                for key in phase_keys
            }
            rows.append(avg)
    return rows


def headline_speedup(
    rows: Optional[List[Dict[str, float]]] = None,
    config: Optional[SweepConfig] = None,
) -> Dict[str, float]:
    """The Section 6.3 / conclusion headline: multisketch vs normal equations.

    Returns the best observed speedup of the multisketch sketch-and-solve
    solver over the normal equations across the sweep ("up to 77% faster" in
    the paper, at d = 2^22, n = 256).
    """
    if rows is None:
        rows = figure5(config)
    by_size: Dict[tuple, Dict[str, float]] = {}
    for row in rows:
        if row["oom"]:
            continue
        by_size.setdefault((row["d"], row["n"]), {})[row["method"]] = row["total_seconds"]
    best = {"speedup": -math.inf, "d": None, "n": None}
    for (d, n), times in by_size.items():
        if "Normal Eq" in times and "Multi" in times and times["Multi"] > 0:
            s = speedup(times["Normal Eq"], times["Multi"])
            if s > best["speedup"]:
                best = {"speedup": s, "d": d, "n": n,
                        "normal_eq_seconds": times["Normal Eq"], "multi_seconds": times["Multi"]}
    return best


# ---------------------------------------------------------------------------
# Figures 6-7: least-squares residuals on easy/hard problems
# ---------------------------------------------------------------------------
def _accuracy_methods(d: int, n: int, executor: GPUExecutor, seed: int) -> Dict[str, Callable]:
    """Solver closures used by the accuracy experiments (Figures 6-8)."""
    k_count = min(default_embedding_dim("countsketch", n), d)
    k_gauss = default_embedding_dim("gaussian", n)
    return {
        "Normal Eq": lambda a, b: normal_equations(a, b, executor=executor),
        "Gauss": lambda a, b: sketch_and_solve(
            a, b, GaussianSketch(d, k_gauss, executor=executor, seed=seed), executor=executor
        ),
        "Count": lambda a, b: sketch_and_solve(
            a, b, CountSketch(d, k_count, executor=executor, seed=seed + 1), executor=executor
        ),
        "Multi": lambda a, b: sketch_and_solve(
            a, b, count_gauss(d, n, executor=executor, seed=seed + 2), executor=executor
        ),
        "SRHT": lambda a, b: sketch_and_solve(
            a, b, SRHT(d, k_gauss, executor=executor, seed=seed + 3), executor=executor
        ),
        "rand_cholQR": lambda a, b: rand_cholqr_lstsq(
            a, b, count_gauss(d, n, executor=executor, seed=seed + 4), executor=executor
        ),
        "QR": lambda a, b: qr_solve(a, b, executor=executor),
    }


def _residual_sweep(
    problem_factory: Callable[[int, int, int], "object"],
    config: SweepConfig,
    methods: Sequence[str],
) -> List[Dict[str, float]]:
    rows: List[Dict[str, float]] = []
    for d, n in config.grid():
        per_method: Dict[str, List[float]] = {m: [] for m in methods}
        for r in range(config.repetitions):
            seed = config.seed_for(d, n, r)
            problem = problem_factory(d, n, seed)
            executor = GPUExecutor(config.device, numeric=True, seed=seed, track_memory=False)
            solvers = _accuracy_methods(d, n, executor, seed)
            for m in methods:
                result = solvers[m](problem.a, problem.b)
                per_method[m].append(result.relative_residual)
        for m in methods:
            vals = np.asarray(per_method[m], dtype=np.float64)
            rows.append(
                {
                    "d": d,
                    "n": n,
                    "method": m,
                    "relative_residual": float(np.mean(vals)),
                    "residual_std": float(np.std(vals)),
                }
            )
    return rows


_ACCURACY_METHODS = ("Normal Eq", "Gauss", "Count", "Multi", "SRHT", "rand_cholQR", "QR")


def figure6(
    config: Optional[SweepConfig] = None,
    methods: Sequence[str] = _ACCURACY_METHODS,
) -> List[Dict[str, float]]:
    """Figure 6: relative residuals on the "easy" (low-noise) problem."""
    if config is None:
        config = SweepConfig(scale="quick", numeric=True, repetitions=1)
    return _residual_sweep(lambda d, n, s: easy_problem(d, n, seed=s), config, methods)


def figure7(
    config: Optional[SweepConfig] = None,
    methods: Sequence[str] = _ACCURACY_METHODS,
) -> List[Dict[str, float]]:
    """Figure 7: relative residuals on the "hard" (high-noise) problem."""
    if config is None:
        config = SweepConfig(scale="quick", numeric=True, repetitions=1)
    return _residual_sweep(lambda d, n, s: hard_problem(d, n, seed=s), config, methods)


# ---------------------------------------------------------------------------
# Figure 8: stability vs condition number
# ---------------------------------------------------------------------------
_FIGURE8_METHODS = ("Normal Eq", "Gauss", "Count", "Multi", "QR")


def figure8(
    cond_values: Optional[Sequence[float]] = None,
    *,
    d: int = 1 << 14,
    n: int = 16,
    seed: int = 0,
    methods: Sequence[str] = _FIGURE8_METHODS,
) -> List[Dict[str, float]]:
    """Figure 8: relative residual vs cond(A) for ``b = A e`` (exact solution exists).

    The paper uses ``d = 2^17``; the default here is ``2^14`` so the sweep
    stays quick, and the benchmark suite exposes the full-size option.
    """
    if cond_values is None:
        cond_values = np.logspace(0, 20, 11)
    rows: List[Dict[str, float]] = []
    for cond in cond_values:
        problem = condition_sweep_problem(float(cond), d=d, n=n, seed=seed)
        executor = GPUExecutor(numeric=True, seed=seed, track_memory=False)
        solvers = _accuracy_methods(d, n, executor, seed)
        for m in methods:
            result = solvers[m](problem.a, problem.b)
            rows.append(
                {
                    "cond": float(cond),
                    "d": d,
                    "n": n,
                    "method": m,
                    "relative_residual": result.relative_residual,
                    "failed": result.failed,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Serving: micro-batched sketch-and-solve under synthetic traffic
# ---------------------------------------------------------------------------
def serving_throughput(
    d: int = 1 << 14,
    n: int = 32,
    *,
    n_requests: int = 128,
    n_matrices: int = 2,
    kinds: Sequence[str] = ("multisketch", "countsketch", "gaussian"),
    shards: int = 2,
    max_batch: int = 8,
    noise: float = 0.01,
    seed: int = 0,
) -> List[Dict[str, float]]:
    """Serving-layer experiment: batched server vs naive per-request loop.

    Synthesises repeated-shape solve traffic (``n_requests`` right-hand sides
    spread over ``n_matrices`` shared ``d x n`` design matrices), serves it
    through a :class:`~repro.serving.server.SketchServer` per sketch kind,
    and solves the same traffic with the one-request-at-a-time reference
    loop.  One row per kind with throughput, speedup, latency percentiles
    and operator-cache hit rate -- the serving analogue of the Figure-5
    solver comparison.
    """
    from repro.serving import SketchServer, naive_solve_loop

    rng = np.random.default_rng(seed)
    matrices = [rng.standard_normal((d, n)) for _ in range(n_matrices)]
    x_true = np.linspace(-1.0, 1.0, n)
    traffic = []
    for i in range(n_requests):
        a = matrices[i % n_matrices]
        b = a @ x_true + noise * rng.standard_normal(d)
        traffic.append((a, b))

    rows: List[Dict[str, float]] = []
    for kind in kinds:
        server = SketchServer(kind=kind, shards=shards, max_batch=max_batch, seed=seed)
        for a, b in traffic:
            server.submit(a, b)
        responses = server.flush()
        stats = server.stats()
        naive = naive_solve_loop(traffic, kind=kind, seed=seed)
        naive_rps = naive["requests_per_second"]
        rows.append(
            {
                "kind": kind,
                "d": d,
                "n": n,
                "requests": n_requests,
                "batched_rps": stats["requests_per_second"],
                "naive_rps": naive_rps,
                "speedup": stats["requests_per_second"] / naive_rps if naive_rps > 0 else math.nan,
                "cache_hit_rate": stats["cache_hit_rate"],
                "mean_batch_size": stats["mean_batch_size"],
                "p50_us": stats["p50_seconds"] * 1e6,
                "p95_us": stats["p95_seconds"] * 1e6,
                "p99_us": stats["p99_seconds"] * 1e6,
                "comm_seconds": stats["comm_seconds"],
                "worst_relative_residual": max(r.relative_residual for r in responses),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Solver routing: fixed vs adaptive policies over a conditioning sweep
# ---------------------------------------------------------------------------
def solver_policy(
    d: int = 1 << 16,
    n: int = 64,
    *,
    easy_conds: Sequence[float] = (1e2, 1e3, 1e4),
    hard_conds: Sequence[float] = (1e10, 1e12),
    rhs_per_matrix: int = 8,
    policies: Sequence[str] = ("fixed", "cheapest_accurate", "adaptive"),
    fixed_solvers: Sequence[str] = ("normal_equations", "sketch_and_solve", "qr"),
    kind: str = "multisketch",
    accuracy_target: float = 1e-6,
    noise: float = 0.0,
    seed: int = 0,
) -> List[Dict[str, float]]:
    """Routing experiment: fixed-solver servers vs the adaptive planner.

    Synthesises the Figure-6/7-style conditioning sweep as serving traffic
    (``rhs_per_matrix`` right-hand sides against one design matrix per
    condition number, spanning the easy ``kappa ~ 1e2`` regime and the hard
    ``kappa >= 1e10`` regime where the normal equations fail), then serves
    the *same* traffic through one :class:`~repro.serving.server.SketchServer`
    per policy:

    * ``policy="fixed"`` with each solver in ``fixed_solvers`` -- the
      pre-registry behaviour (one row per solver);
    * the adaptive policies -- the planner probes each matrix's conditioning
      and routes per batch, with fallback chains.

    Returns one row per served configuration with the worst relative
    residual split by regime, failure counts, makespan and throughput --
    the input to ``benchmarks/test_solver_routing.py``'s acceptance checks.
    """
    from repro.linalg.conditioning import matrix_with_condition
    from repro.serving import SketchServer

    rng = np.random.default_rng(seed)
    scale = np.sqrt(float(d) * n)
    problems = []
    for cond in list(easy_conds) + list(hard_conds):
        a = matrix_with_condition(d, n, float(cond), seed=seed + int(math.log10(cond)))
        a = a * scale
        x_true = np.ones(n)
        bs = [
            a @ x_true + (noise * rng.standard_normal(d) if noise > 0 else 0.0)
            for _ in range(rhs_per_matrix)
        ]
        problems.append((float(cond), a, bs))

    def serve(policy: str, solver: str) -> Dict[str, float]:
        server = SketchServer(
            kind=kind,
            solver=solver,
            policy=policy,
            accuracy_target=accuracy_target,
            shards=1,
            max_batch=rhs_per_matrix,
            seed=seed,
        )
        responses = {}
        for cond, a, bs in problems:
            ids = [server.submit(a, b) for b in bs]
            for rid, resp in zip(ids, server.flush()):
                responses.setdefault(cond, []).append(resp)
        easy_set = set(float(c) for c in easy_conds)
        worst_easy = max(
            r.relative_residual for c, rs in responses.items() if c in easy_set for r in rs
        )
        hard_rs = [r for c, rs in responses.items() if c not in easy_set for r in rs]
        failed = sum(1 for rs in responses.values() for r in rs if r.extra["failed"])
        finite_hard = [r.relative_residual for r in hard_rs if math.isfinite(r.relative_residual)]
        stats = server.stats()
        return {
            "policy": policy,
            "solver": solver if policy == "fixed" else "(planned)",
            "d": d,
            "n": n,
            "requests": sum(len(rs) for rs in responses.values()),
            "worst_easy_residual": worst_easy,
            "worst_hard_residual": max(finite_hard) if finite_hard else math.inf,
            "failed_requests": failed,
            "fallback_batches": stats["fallback_batches"],
            "makespan_seconds": stats["makespan_seconds"],
            "requests_per_second": stats["requests_per_second"],
            "executed_solvers": ",".join(
                sorted({r.executed_solver for rs in responses.values() for r in rs})
            ),
        }

    rows: List[Dict[str, float]] = []
    for policy in policies:
        if policy == "fixed":
            for solver in fixed_solvers:
                rows.append(serve("fixed", solver))
        else:
            rows.append(serve(policy, "sketch_and_solve"))
    return rows


# ---------------------------------------------------------------------------
# Streaming: drift detection + re-solve vs an open-loop baseline
# ---------------------------------------------------------------------------
def streaming_drift(
    n: int = 16,
    *,
    rows_per_segment: int = 4096,
    batch_size: int = 256,
    noise_std: float = 0.05,
    shift_scale: float = 2.0,
    mode: str = "landmark",
    policy: str = "cheapest_accurate",
    seed: int = 0,
) -> List[Dict[str, float]]:
    """Streaming experiment: does drift detection keep the model fresh?

    One piecewise-stationary stream (two segments, abrupt coefficient shift
    at the boundary) is ingested twice through
    :class:`~repro.streaming.solver.StreamingSolver`:

    * ``"detector"`` -- drift detection on: a residual-energy firing resets
      the window and eagerly re-solves, so the post-shift model reflects the
      new regime;
    * ``"baseline"`` -- detection off: the landmark window keeps
      accumulating both regimes and the solution degrades.

    Both engines are scored out-of-sample: every batch is first tested
    against the engine's *current* solution (refreshed by a lazy query each
    batch), then ingested.  Returns one row per configuration with mean
    pre-/post-shift batch residuals, re-solve and drift counts, and the
    simulated ingest rate -- the input to
    ``benchmarks/test_streaming.py``'s recovery assertions.
    """
    from repro.streaming import StreamingSolver
    from repro.workloads.streams import piecewise_stationary_stream

    stream = piecewise_stationary_stream(
        n,
        rows_per_segment=rows_per_segment,
        n_segments=2,
        batch_size=batch_size,
        noise_std=noise_std,
        shift_scale=shift_scale,
        seed=seed,
    )

    def run(detector: bool) -> Dict[str, float]:
        engine = StreamingSolver(
            n, mode=mode, policy=policy, seed=seed, detector=detector
        )
        pre_shift: List[float] = []
        post_shift: List[float] = []
        query_every = 4  # a consumer polling the model at a fixed cadence
        for i, batch in enumerate(stream):
            # ingest() scores each batch out-of-sample against the solution
            # being served *before* folding it in -- the freshness metric.
            report = engine.ingest(batch.rows, batch.targets)
            if np.isfinite(report.batch_residual):
                (post_shift if batch.segment > 0 else pre_shift).append(
                    float(report.batch_residual)
                )
            if (i + 1) % query_every == 0:
                engine.solution()
        final = engine.solution()
        stats = engine.stats()
        # Recovery: the final model scored on the last (post-shift) batch.
        last = stream.batches[-1]
        final_resid = relative_residual(last.rows, last.targets, final.x)
        return {
            "config": "detector" if detector else "baseline",
            "n": n,
            "batches": len(stream),
            "mean_pre_shift_residual": float(np.mean(pre_shift)) if pre_shift else math.nan,
            "mean_post_shift_residual": float(np.mean(post_shift)) if post_shift else math.nan,
            "final_residual": final_resid,
            "resolves": stats["resolve_count"],
            "drift_events": stats["drift_events"],
            "drift_resolves": stats["drift_resolves"],
            "ingest_rows_per_second": stats["ingest_rows_per_second"],
            "executed_solver": final.executed_solver,
            "attempted": "->".join(final.attempted),
        }

    return [run(True), run(False)]


# ---------------------------------------------------------------------------
# Section 7: distributed considerations
# ---------------------------------------------------------------------------
def section7_distributed(
    d: int = 1 << 22,
    n: int = 128,
    p_values: Sequence[int] = (2, 4, 8, 16, 32, 64),
) -> List[Dict[str, float]]:
    """Section 7: per-sketch communication volume / time across process counts."""
    rows = []
    for est in communication_table(d, n, p_values):
        rows.append(est.as_dict())
    # annotate with the process count (communication_table iterates p outer)
    idx = 0
    methods_per_p = 4
    for p in p_values:
        for _ in range(methods_per_p):
            rows[idx]["p"] = p
            idx += 1
    return rows


# ---------------------------------------------------------------------------
# Problem classes: ridge routing + low-rank accuracy (repro.problems)
# ---------------------------------------------------------------------------
def problem_classes(
    d: int = 4096,
    n: int = 32,
    *,
    ridge_cases: Sequence = ((1e2, 1e-4), (1e6, 1e-4), (1e10, 1e-6), (1e12, 1e-14)),
    rank: int = 8,
    decay: float = 0.5,
    power_iters: int = 1,
    accuracy_target: float = 1e-6,
    seed: int = 0,
) -> List[Dict[str, float]]:
    """The multi-problem planner's accuracy/routing table (repro.problems).

    Ridge rows: one per ``(cond, lam_rel)`` case -- the planner solves the
    Tikhonov problem end-to-end (spectrum probe, lambda-aware admissibility,
    fallback chain) and the row records the executed solver, the attempted
    chain, and the ridge-objective residual relative to the dense direct
    solve (:func:`repro.problems.ridge.dense_ridge_reference`); the
    ``lam_rel = 1e-14`` case keeps the effective conditioning near
    ``kappa(A)`` so the routing visibly avoids (or falls back from) the
    regularized normal equations.

    Low-rank rows: one per method (range finder / Frequent Directions) on a
    decaying-spectrum matrix, with the Frobenius error relative to the
    truncated-SVD optimum (known in closed form from the generator's
    spectrum).  ``benchmarks/test_problems.py`` asserts both row families.
    """
    from repro.problems import (
        dense_ridge_reference,
        lowrank_approx,
        ridge_residuals,
        solve_ridge,
    )
    from repro.workloads.lowrank import decaying_spectrum_matrix
    from repro.workloads.ridge import make_ridge_problem

    rows: List[Dict[str, float]] = []
    for i, (cond, lam_rel) in enumerate(ridge_cases):
        problem = make_ridge_problem(
            d, n, cond=float(cond), lam_rel=float(lam_rel), seed=seed + i
        )
        result = solve_ridge(
            problem.a, problem.b, problem.lam, accuracy_target=accuracy_target
        )
        x_ref = dense_ridge_reference(problem.a, problem.b, problem.lam)
        _, ref_rel, _ = ridge_residuals(problem.a, problem.b, x_ref, problem.lam)
        rows.append(
            {
                "problem": "ridge",
                "method": result.attempted_solvers[-1],
                "attempted": result.extra.get("attempted", result.method),
                "cond": float(cond),
                "lam_rel": float(lam_rel),
                "effective_cond": problem.effective_condition(),
                "relative_residual": result.relative_residual,
                "reference_residual": ref_rel,
                "residual_ratio": (
                    result.relative_residual / ref_rel if ref_rel > 0 else float("inf")
                ),
                "fallbacks": float(result.extra.get("fallbacks", 0.0)),
                "failed": float(result.failed),
                "simulated_seconds": result.total_seconds,
            }
        )

    lowrank = decaying_spectrum_matrix(d, n, rank=rank, decay=decay, seed=seed)
    optimum = lowrank.optimal_error(rank)
    for method, kwargs in (
        ("rangefinder", {"power_iters": power_iters}),
        ("frequent_directions", {}),
    ):
        result = lowrank_approx(lowrank.a, rank, method=method, seed=seed, **kwargs)
        rows.append(
            {
                "problem": "lowrank",
                "method": result.method,
                "attempted": result.method,
                "rank": float(rank),
                "relative_error": result.relative_error,
                "optimal_error": optimum,
                "error_ratio": result.relative_error / optimum if optimum > 0 else 1.0,
                "simulated_seconds": result.total_seconds,
                **{f"extra_{k}": v for k, v in result.extra.items()},
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Concurrent runtime: mixed load through the admission queue vs synchronous
# ---------------------------------------------------------------------------
def concurrent_load(
    d: int = 4096,
    n: int = 16,
    *,
    n_matrices: int = 8,
    rhs_per_matrix: int = 32,
    ridge_requests: int = 8,
    stream_batches: int = 8,
    stream_batch_rows: int = 256,
    shards: int = 2,
    max_shards: int = 8,
    max_batch: int = 8,
    queue_depth: int = 512,
    shed_requests: int = 48,
    shed_budget_batches: float = 4.0,
    noise: float = 0.01,
    seed: int = 0,
) -> List[Dict[str, float]]:
    """Concurrent-runtime experiment: three rows for the three tentpole claims.

    * ``mode="synchronous"`` -- the mixed load (least-squares micro-batches
      over ``n_matrices`` design matrices, ridge requests, one streaming
      session's ingest) served by the plain :class:`SketchServer` at
      ``shards`` shards, one call at a time.
    * ``mode="concurrent"`` -- the *same* load admitted through an
      :class:`~repro.serving.runtime.AsyncSketchServer` on a fixed pool of
      ``max(shards, max_shards)`` shards.  ``speedup`` is its throughput
      over the synchronous row's at equal accuracy (both worst residuals
      reported): 8 simulated shards by default against the synchronous
      row's ``shards`` (2), in simulated time.  The runtime
      dispatches on one thread, so the extra shards add no wall-clock
      parallelism.
    * ``mode="shedding"`` -- a single-shard runtime saturated with
      deadline-carrying traffic: requests whose projected completion
      exceeds ``shed_budget_batches`` typical batch times are shed with a
      typed error; completed ones are checked against their budget
      (``deadline_violations`` counts queue-inclusive latencies over it).

    ``benchmarks/test_concurrent_runtime.py`` asserts the acceptance
    criteria on these rows.
    """
    from repro.serving import (
        AsyncSketchServer,
        DeadlineExceededError,
        QueueFullError,
        SketchServer,
    )

    rng = np.random.default_rng(seed)
    matrices = [rng.standard_normal((d, n)) for _ in range(n_matrices)]
    x_true = np.linspace(-1.0, 1.0, n)
    solve_traffic = []
    for i in range(n_matrices * rhs_per_matrix):
        a = matrices[i % n_matrices]
        solve_traffic.append((a, a @ x_true + noise * rng.standard_normal(d)))
    ridge_traffic = [
        (matrices[i % n_matrices], matrices[i % n_matrices] @ x_true, 1e-3)
        for i in range(ridge_requests)
    ]
    stream_rows = [
        (
            rng.standard_normal((stream_batch_rows, n)),
            rng.standard_normal(stream_batch_rows),
        )
        for _ in range(stream_batches)
    ]

    rows: List[Dict[str, float]] = []

    # -- synchronous baseline ----------------------------------------------
    server = SketchServer(shards=shards, max_batch=max_batch, seed=seed)
    for a, b in solve_traffic:
        server.submit(a, b)
    responses = server.flush()
    for a, b, lam in ridge_traffic:
        responses.append(server.solve_ridge(a, b, lam))
    sid = server.open_stream(n)
    for batch_rows, batch_targets in stream_rows:
        server.append_rows(sid, batch_rows, batch_targets)
    server.query_solution(sid)
    server.close_stream(sid)
    sync_stats = server.stats()
    sync_rps = sync_stats["requests_per_second"]
    rows.append(
        {
            "mode": "synchronous",
            "requests": float(len(responses)),
            "requests_per_second": sync_rps,
            "makespan_seconds": sync_stats["makespan_seconds"],
            "worst_relative_residual": max(r.relative_residual for r in responses),
            "shards": float(shards),
        }
    )

    # -- concurrent runtime over the same load ------------------------------
    # The throughput phase admits the whole spike while paused, so its queue
    # must hold it; the *bound* is what the shedding phase exercises.
    spike = len(solve_traffic) + len(ridge_traffic) + len(stream_rows) + 1
    runtime = AsyncSketchServer(
        shards=max(shards, max_shards),
        max_batch=max_batch,
        seed=seed,
        queue_depth=max(queue_depth, spike),
    )
    # Admit the whole spike before dispatching any of it: the queue-depth
    # spike is deterministic, not a race between the submitting thread and
    # the dispatcher.
    runtime.pause()
    futures = [runtime.submit(a, b) for a, b in solve_traffic]
    futures += [runtime.submit_ridge(a, b, lam) for a, b, lam in ridge_traffic]
    sid = runtime.open_stream(n)
    stream_futures = [runtime.append_rows(sid, r, t) for r, t in stream_rows]
    stream_futures.append(runtime.query_solution(sid))
    runtime.resume()
    concurrent_responses = [f.result(timeout=120.0) for f in futures]
    for f in stream_futures:
        f.result(timeout=120.0)
    runtime.drain()
    runtime.close_stream(sid)
    rt_stats = runtime.stats()
    runtime.stop()
    rt_rps = rt_stats["requests_per_second"]
    rows.append(
        {
            "mode": "concurrent",
            "requests": float(len(concurrent_responses)),
            "requests_per_second": rt_rps,
            "makespan_seconds": rt_stats["makespan_seconds"],
            "worst_relative_residual": max(
                r.relative_residual for r in concurrent_responses
            ),
            "speedup": rt_rps / sync_rps if sync_rps > 0 else math.nan,
            "shards": rt_stats["shards"],
            "queue_depth_max": rt_stats.get("queue_depth_max", 0.0),
            "requests_shed": rt_stats.get("requests_shed", 0.0),
            "fallback_batches": rt_stats.get("fallback_batches", 0.0),
            "lane_stream_requests": rt_stats.get("lane_stream_requests", 0.0),
            # Queue-inclusive per-lane latency percentiles: the bench
            # record's ``lanes`` section (see repro.obs.bench) reads these.
            **{
                f"lane_{lane}_{q}_seconds": rt_stats.get(f"lane_{lane}_{q}_seconds", 0.0)
                for lane in ("solve", "ridge", "stream")
                for q in ("p50", "p95", "p99")
            },
        }
    )

    # -- deadline shedding under saturation ---------------------------------
    shed_runtime = AsyncSketchServer(
        shards=1, max_batch=max_batch, seed=seed,
        queue_depth=max(shed_requests // 2, 4),
    )
    # Distinct matrices (same shape, so the operator cache still amortises)
    # keep the requests unfusable: 48 separate batches queue behind one
    # shard and one dispatcher, so queueing delay grows linearly and requests
    # past the budget must shed.  All inputs are prepared *before* the
    # submission loop so admission outpaces dispatch.
    shed_problems = [
        (m, m @ x_true + noise * rng.standard_normal(d))
        for m in (rng.standard_normal((d, n)) for _ in range(shed_requests))
    ]
    # Calibrate the budget from warm-up requests' service time.
    warmup = [shed_runtime.submit(a, b) for a, b in shed_problems[: max_batch // 2]]
    warm_responses = [f.result(timeout=120.0) for f in warmup]
    shed_runtime.drain()
    service_seconds = max(r.compute_seconds for r in warm_responses)
    budget = shed_budget_batches * service_seconds
    shed_futures = []
    queue_full = 0
    shed_runtime.pause()  # saturate the queue before the worker sees any of it
    for a, b in shed_problems[max_batch // 2 :]:
        try:
            shed_futures.append(shed_runtime.submit(a, b, latency_budget=budget))
        except QueueFullError:
            queue_full += 1
    shed_runtime.resume()
    completed, shed = [], 0
    for f in shed_futures:
        try:
            completed.append(f.result(timeout=120.0))
        except DeadlineExceededError:
            shed += 1
    shed_runtime.drain()
    shed_stats = shed_runtime.stats()
    shed_runtime.stop()
    violations = sum(1 for r in completed if r.simulated_seconds > budget)
    rows.append(
        {
            "mode": "shedding",
            "requests": float(shed_requests),
            "completed": float(len(completed)),
            "requests_shed": float(shed),
            "queue_full_rejects": float(queue_full),
            "deadline_violations": float(violations),
            "budget_seconds": budget,
            "queue_depth_max": shed_stats.get("queue_depth_max", 0.0),
            "shed_deadline": shed_stats.get("shed_deadline", 0.0),
        }
    )
    return rows


# ---------------------------------------------------------------------------
# Perf trajectory: the numbers this revision of the codebase ships with
# ---------------------------------------------------------------------------
def perf_trajectory(
    *,
    pr: int,
    d: int = 2048,
    n: int = 16,
    seed: int = 0,
) -> Dict[str, object]:
    """One ``BENCH_<pr>.json`` payload: the headline numbers of this revision.

    Composes the existing experiments at a reduced (CI-friendly) scale --
    batched-vs-naive serving throughput, the concurrent runtime over mixed
    traffic (per-lane queue-inclusive latency percentiles), deadline
    shedding under saturation, the planner's ridge residual ratio against
    the dense reference, and the drift-detecting streaming engine -- into
    the schema :func:`repro.obs.bench.validate_bench` checks.  Driven by
    ``tools/record_bench.py``; asserted by ``benchmarks/test_obs_overhead.py``.
    """
    from repro.obs.bench import BENCH_SCHEMA_VERSION

    serving = serving_throughput(
        d=d, n=n, n_requests=32, n_matrices=2, kinds=("multisketch",),
        shards=2, max_batch=8, seed=seed,
    )[0]
    conc_rows = concurrent_load(
        d=d, n=n, n_matrices=4, rhs_per_matrix=8, ridge_requests=4,
        stream_batches=4, stream_batch_rows=128, shed_requests=24, seed=seed,
    )
    sync_row = next(r for r in conc_rows if r["mode"] == "synchronous")
    conc_row = next(r for r in conc_rows if r["mode"] == "concurrent")
    shed_row = next(r for r in conc_rows if r["mode"] == "shedding")
    ridge_rows = problem_classes(
        d=max(d // 2, 512), n=n, ridge_cases=((1e4, 1e-4),), seed=seed
    )
    ridge_row = next(r for r in ridge_rows if r["problem"] == "ridge")
    drift_row = streaming_drift(
        n=n, rows_per_segment=1024, batch_size=128, seed=seed
    )[0]  # the detector-on configuration

    worst_sync = float(sync_row["worst_relative_residual"])
    worst_conc = float(conc_row["worst_relative_residual"])
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "pr": int(pr),
        "config": {"d": int(d), "n": int(n), "seed": int(seed)},
        "throughput": {
            "serving_requests_per_second": float(serving["batched_rps"]),
            "concurrent_requests_per_second": float(conc_row["requests_per_second"]),
            "speedup_vs_naive": float(serving["speedup"]),
            "concurrent_speedup_vs_sync": float(conc_row["speedup"]),
        },
        "lanes": {
            lane: {
                f"{q}_seconds": float(conc_row[f"lane_{lane}_{q}_seconds"])
                for q in ("p50", "p95", "p99")
            }
            for lane in ("solve", "ridge", "stream")
        },
        "residuals": {
            "worst_sync": worst_sync,
            "worst_concurrent": worst_conc,
            "concurrent_over_sync_ratio": (
                worst_conc / worst_sync if worst_sync > 0 else 1.0
            ),
            "ridge_residual_ratio": float(ridge_row["residual_ratio"]),
        },
        "counters": {
            "requests_shed": float(shed_row["requests_shed"]),
            "queue_full_rejects": float(shed_row["queue_full_rejects"]),
            "deadline_violations": float(shed_row["deadline_violations"]),
            "fallback_batches": float(conc_row["fallback_batches"]),
            "drift_events": float(drift_row["drift_events"]),
        },
        "streaming": {
            "ingest_rows_per_second": float(drift_row["ingest_rows_per_second"]),
            "resolves": float(drift_row["resolves"]),
            "final_residual": float(drift_row["final_residual"]),
        },
    }
