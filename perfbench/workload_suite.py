"""The benchmark's workloads: seeded inputs, a server, a measured loop, answer checks.

Every workload drives the program only through ``SketchServer`` /
``AsyncSketchServer`` and their session endpoints.  Inputs are drawn from the
seed before timing starts; the timed regions contain calls into the program
and nothing else.  Answers are checked outside the timed regions:

* least-squares answers against ``numpy.linalg.lstsq`` (``solve_tall`` knows
  its optimum in closed form from the construction and cross-checks it
  against ``lstsq`` once per run);
* the streaming solution against a from-scratch ``lstsq`` of its window;
* heavy hitters against the exact counts of the ``zipf_stream`` items
  appended so far.

Each workload also has a *simulated twin*: a fixed, seed-determined request
sequence replayed on a fresh server whose simulated-device counts must repeat
exactly from run to run.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import AsyncSketchServer, DurabilityConfig, MemoryCheckpointStore, SketchServer
from repro.serving.requests import AdmissionError
from repro.serving.runtime import RuntimeFuture
from repro.workloads import piecewise_stationary_stream, zipf_stream

from hostinfo import reference_ms

clock = time.perf_counter

#: Served residual over the optimum may not exceed this on any answer.  The
#: paper bounds it by an O(1) factor; the default multisketch embeds into
#: only 2n rows, whose ratio has a heavy tail (up to ~3.2 over 1024 answers
#: on some seeds), so the limit catches wrong answers, not unlucky ones.
RESIDUAL_RATIO_LIMIT = 5.0
#: Least share of the exact top-k a heavy-hitter answer must contain.
TOPK_RECALL_MIN = 0.75
#: Open-loop generator health: p90 of how late arrivals were sent.
GENERATOR_LATE_LIMIT_MS = 1.0
#: Seconds to wait for one runtime future before calling it lost.
FUTURE_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Scale:
    """Input sizes.  :data:`FULL` is the benchmark; :data:`TINY` the smoke test."""

    hot_rows: int = 2048
    hot_cols: int = 16
    hot_matrices: int = 4
    hot_burst: int = 32
    hot_rhs_per_matrix: int = 128
    tall_rows: int = 65536
    tall_cols: int = 64
    tall_bases: int = 2
    stream_cols: int = 32
    stream_batch_rows: int = 1024
    stream_pool_batches: int = 64
    freq_domain: int = 1 << 20
    freq_batch: int = 4096
    query_every: int = 10
    mixed_rows: int = 2048
    mixed_cols: int = 16
    mixed_matrices: int = 8
    mixed_rhs_per_matrix: int = 64
    mixed_rate: float = 500.0
    mixed_burst: int = 64
    mixed_append_rows: int = 256
    twin_requests: int = 32


FULL = Scale()
TINY = Scale(
    hot_rows=256, hot_cols=8, hot_burst=8, hot_rhs_per_matrix=8,
    tall_rows=2048, tall_cols=16, tall_bases=1,
    stream_cols=8, stream_batch_rows=128, stream_pool_batches=8,
    freq_domain=1 << 12, freq_batch=512, query_every=4,
    mixed_rows=256, mixed_cols=8, mixed_matrices=2, mixed_rhs_per_matrix=4,
    mixed_rate=200.0, mixed_burst=16, mixed_append_rows=32, twin_requests=8,
)


@dataclass
class Run:
    """What one measured phase observed (times in seconds)."""

    completed: int = 0  # requests completed in the throughput phase
    busy_s: float = 0.0  # throughput phase: wall spent waiting on the program
    served: int = 0  # requests completed in every phase
    client_call_s: float = 0.0  # client-thread wall inside program calls
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    ratios: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    units: List[Tuple[int, float, List[float], float]] = field(default_factory=list)
    #: Seconds between host-pace readings taken between requests (0: none).
    pace_every_s: float = 0.0
    _paces: List[float] = field(default_factory=list)
    _pace_ms: float = float("nan")
    _paced_at: float = float("-inf")

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    def unit(self, completed: int, busy_s: float, latencies: List[float]) -> None:
        """One throughput-phase unit of work: a burst, a cycle of solves, a cycle of stream steps.

        Units are whole cycles of the workload's request mix, so any run of
        consecutive units sees the same mix.  Each unit carries the median
        host pace (:func:`hostinfo.reference_ms`) read while it ran.
        """
        self.completed += completed
        self.busy_s += busy_s
        self.tick()
        if self._paces:
            self._pace_ms = statistics.median(self._paces)
            self._paces.clear()
        self.units.append((completed, busy_s, list(latencies), self._pace_ms))

    def tick(self) -> None:
        """Between requests, outside timed regions: read the host pace when due."""
        if self.pace_every_s and clock() - self._paced_at >= self.pace_every_s:
            self._paces.append(reference_ms())
            self._paced_at = clock()


# ---------------------------------------------------------------------------
# reference answers
# ---------------------------------------------------------------------------
def lstsq_ratio(a: np.ndarray, b: np.ndarray, x: Optional[np.ndarray]) -> float:
    """Served residual norm over the ``numpy.linalg.lstsq`` optimum."""
    if x is None or not np.all(np.isfinite(x)):
        return float("inf")
    x_opt = np.linalg.lstsq(a, b, rcond=None)[0]
    return float(np.linalg.norm(b - a @ x) / np.linalg.norm(b - a @ x_opt))


def ridge_ratio(a: np.ndarray, b: np.ndarray, lam: float, x: Optional[np.ndarray]) -> float:
    """Served ridge objective over the optimum (``lstsq`` on the augmented system)."""
    if x is None or not np.all(np.isfinite(x)):
        return float("inf")
    n = a.shape[1]
    aug = np.vstack([a, np.sqrt(lam) * np.eye(n)])
    rhs = np.concatenate([b, np.zeros(n)])
    x_opt = np.linalg.lstsq(aug, rhs, rcond=None)[0]
    return float(np.linalg.norm(rhs - aug @ x) / np.linalg.norm(rhs - aug @ x_opt))


def orthonormal(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q * np.sign(np.diag(r))


def _check_ratio(run: Run, what: str, ratio: float) -> None:
    run.ratios.append(ratio)
    if not ratio <= RESIDUAL_RATIO_LIMIT:
        run.errors.append(f"{what}: residual ratio {ratio:.4g} exceeds {RESIDUAL_RATIO_LIMIT}")


def _pool_counts(pool) -> Tuple[float, float]:
    flops = sum(ex.breakdown().total_flops() for ex in pool)
    moved = sum(ex.breakdown().total_bytes() for ex in pool)
    return flops, moved


def _twin_record(sims: List[float], pool) -> Dict[str, object]:
    flops, moved = _pool_counts(pool)
    count = max(len(sims), 1)
    return {
        "requests": len(sims),
        "sim_seconds": [float(s).hex() for s in sims],
        "gpu_sim_us_per_req": float(np.sum(sims)) * 1e6 / count,
        "gpu_flops_per_req": flops / count,
        "gpu_bytes_per_req": moved / count,
    }


class Workload:
    """Interface every workload implements (see the module docstring)."""

    name = ""

    def __init__(self, seed: int, scale: Scale = FULL) -> None:
        self.seed = int(seed)
        self.scale = scale

    def prepare(self) -> None:
        """Draw the measured run's inputs from the seed (before any timing)."""

    def probe_request(self):
        """One small input for the set-up probe's first response."""
        raise NotImplementedError

    def open(self):
        """Build the server (and sessions); returns the handle ``first`` uses."""
        raise NotImplementedError

    def first(self, handle, request):
        """Serve the probe request; returns the response."""
        raise NotImplementedError

    def check_first(self, request, response) -> List[str]:
        """Errors in the first response (empty when correct)."""
        raise NotImplementedError

    def warm_up(self, handle) -> None:
        """Unmeasured traffic so caches fill and lazy set-up finishes before timing.

        Workloads whose request sequence restarts afterwards replay the same
        inputs in the measured phases whatever the warm-up covered.
        """

    def measure(self, handle, seconds: float, run: Run) -> None:
        """Drive the workload for ``seconds`` of wall time into ``run``."""
        raise NotImplementedError

    def check(self, run: Run) -> None:
        """Answer checks deferred until after the measured phases."""

    def twin(self) -> Dict[str, object]:
        """Replay the fixed simulated-twin sequence on a fresh server."""
        raise NotImplementedError

    def runtime_stats(self, handle) -> Dict[str, float]:
        """Runtime counters for the per-layer report (runtime workloads only)."""
        return {}

    def close(self, handle) -> None:
        """Release the server."""


# ---------------------------------------------------------------------------
# serve_hot
# ---------------------------------------------------------------------------
class ServeHot(Workload):
    """Closed-loop bursts of 32 ``submit`` + ``flush`` on the default ``SketchServer``.

    Four shared 2048x16 matrices: operators stay cached, batches fuse and
    kernels are tiny, so serving bookkeeping, obs and fan-out dominate.
    """

    name = "serve_hot"
    SAMPLE_EVERY = 13
    SAMPLE_CAP = 1024

    def prepare(self) -> None:
        s = self.scale
        rng = np.random.default_rng(self.seed)
        self.mats = [rng.standard_normal((s.hot_rows, s.hot_cols)) for _ in range(s.hot_matrices)]
        self.rhs = [
            [m @ rng.standard_normal(s.hot_cols) + 0.1 * rng.standard_normal(s.hot_rows)
             for _ in range(s.hot_rhs_per_matrix)]
            for m in self.mats
        ]
        self._next = 0
        self._samples: List[Tuple[int, int, Optional[np.ndarray]]] = []

    def _request(self, i: int) -> Tuple[int, int]:
        m = i % len(self.mats)
        return m, (i // len(self.mats)) % len(self.rhs[m])

    def probe_request(self):
        s = self.scale
        rng = np.random.default_rng([self.seed, 1])
        a = rng.standard_normal((s.hot_rows, s.hot_cols))
        return a, a @ rng.standard_normal(s.hot_cols) + 0.1 * rng.standard_normal(s.hot_rows)

    def open(self):
        return SketchServer(shards=2, max_batch=8)

    def first(self, handle, request):
        return handle.solve(*request)

    def check_first(self, request, response) -> List[str]:
        run = Run()
        _check_ratio(run, "first response", lstsq_ratio(*request, response.x))
        return run.errors

    def _burst(self, server, run: Run) -> list:
        burst = self.scale.hot_burst
        ids = [self._request(self._next + k) for k in range(burst)]
        submitted = []
        t0 = clock()
        for m, j in ids:
            submitted.append(clock())
            server.submit(self.mats[m], self.rhs[m][j])
        responses = server.flush()
        t1 = clock()
        run.unit(len(responses), t1 - t0, [t1 - t for t in submitted])
        run.client_call_s += t1 - t0
        run.attempted += burst
        run.served += len(responses)
        run.failed += burst - len(responses)
        for k, resp in enumerate(responses):
            if resp.x is None or resp.extra.get("failed"):
                run.failed += 1
            i = self._next + k
            if i % self.SAMPLE_EVERY == 0 and len(self._samples) < self.SAMPLE_CAP:
                self._samples.append((*ids[k], resp.x))
        self._next += burst
        return responses

    def warm_up(self, handle) -> None:
        for _ in range(32):
            self._burst(handle, Run())
        self._next, self._samples = 0, []

    def measure(self, handle, seconds: float, run: Run) -> None:
        start = clock()
        deadline = start + seconds
        while clock() < deadline:
            self._burst(handle, run)
        run.wall_s += clock() - start

    def check(self, run: Run) -> None:
        for m, j, x in self._samples:
            _check_ratio(run, f"serve_hot matrix {m} rhs {j}", lstsq_ratio(self.mats[m], self.rhs[m][j], x))
        self._samples.clear()

    def twin(self) -> Dict[str, object]:
        server = self.open()
        saved, saved_samples = self._next, self._samples
        self._next, self._samples = 0, []
        sims: List[float] = []
        for _ in range(max(self.scale.twin_requests // self.scale.hot_burst, 1)):
            sims.extend(r.simulated_seconds for r in self._burst(server, Run()))
        self._next, self._samples = saved, saved_samples
        return _twin_record(sims, server.pool)


# ---------------------------------------------------------------------------
# solve_tall
# ---------------------------------------------------------------------------
class SolveTall(Workload):
    """Closed loop of adaptive-policy ``solve`` calls on distinct 65536x64 matrices.

    Condition numbers cycle over 1e2 ... 1e12 so the planner routes
    across the paper's solvers; nothing fuses and no probe is reused, so the
    sketch kernels, the spectrum probe and the factorizations dominate.
    """

    name = "solve_tall"
    # Five conditionings, so p50 and p90 fall inside a routed solver's
    # latency mode rather than on the boundary between two of them.
    CONDS = (1e2, 1e4, 1e6, 1e8, 1e12)

    def prepare(self) -> None:
        s = self.scale
        rng = np.random.default_rng(self.seed)
        # A few shared orthonormal bases keep generation cheap; every request
        # still gets its own right singular vectors, spectrum and rhs.
        self.bases = [orthonormal(s.tall_rows, s.tall_cols, rng) for _ in range(s.tall_bases)]
        self._next = 0

    def materialize(self, i: int) -> Tuple[np.ndarray, np.ndarray, float]:
        """Request ``i``: ``(A, b, optimal residual norm)``, a pure function of (seed, i).

        ``A = U diag(s) V^T`` and ``b = A x + r`` with ``r`` orthogonal to
        ``range(U)``, so the least-squares optimum leaves exactly ``r``.
        """
        s = self.scale
        u = self.bases[i % len(self.bases)]
        cond = self.CONDS[i % len(self.CONDS)]
        rng = np.random.default_rng([self.seed, 2, i])
        v = orthonormal(s.tall_cols, s.tall_cols, rng)
        a = (u * np.geomspace(1.0, 1.0 / cond, s.tall_cols)) @ v.T
        fit = a @ rng.standard_normal(s.tall_cols)
        g = rng.standard_normal(s.tall_rows)
        r = g - u @ (u.T @ g)
        r *= 0.1 * np.linalg.norm(fit) / np.linalg.norm(r)
        return a, fit + r, float(np.linalg.norm(r))

    def probe_request(self):
        s = self.scale
        rng = np.random.default_rng([self.seed, 1])
        return rng.standard_normal((s.tall_rows, s.tall_cols)), rng.standard_normal(s.tall_rows)

    def open(self):
        return SketchServer(policy="adaptive", shards=2)

    def first(self, handle, request):
        return handle.solve(*request)

    def check_first(self, request, response) -> List[str]:
        run = Run()
        _check_ratio(run, "first response", lstsq_ratio(*request, response.x))
        return run.errors

    def _one(self, server, run: Run) -> object:
        a, b, opt = self.materialize(self._next)
        t0 = clock()
        resp = server.solve(a, b)
        t1 = clock()
        run.client_call_s += t1 - t0
        run.sample("latency_s", t1 - t0)
        run.attempted += 1
        run.served += 1
        if resp.x is None or resp.extra.get("failed"):
            run.failed += 1
        ratio = float(np.linalg.norm(b - a @ resp.x) / opt) if resp.x is not None else float("inf")
        _check_ratio(run, f"solve_tall request {self._next} ({resp.executed_solver})", ratio)
        run.sample(f"solver:{resp.executed_solver}", 1.0)
        run.tick()
        self._next += 1
        return resp

    def warm_up(self, handle) -> None:
        for _ in range(2):
            self._one(handle, Run())
        self._next = 0

    def measure(self, handle, seconds: float, run: Run) -> None:
        start = clock()
        deadline = start + seconds
        while clock() < deadline:
            # One throughput unit per full cycle of conditionings.
            busy, seen = run.client_call_s, len(run.samples.get("latency_s", ()))
            for _ in self.CONDS:
                self._one(handle, run)
            run.unit(len(self.CONDS), run.client_call_s - busy, run.samples["latency_s"][seen:])
        run.wall_s += clock() - start

    def check(self, run: Run) -> None:
        # The closed-form optimum is the oracle above; confirm it is lstsq's.
        a, b, opt = self.materialize(0)
        x_opt = np.linalg.lstsq(a, b, rcond=None)[0]
        lstsq_opt = float(np.linalg.norm(b - a @ x_opt))
        if abs(lstsq_opt / opt - 1.0) > 1e-8:
            run.errors.append(f"solve_tall oracle {opt:.17g} disagrees with lstsq {lstsq_opt:.17g}")

    def twin(self) -> Dict[str, object]:
        server = self.open()
        saved = self._next
        self._next = 0
        sims = [self._one(server, Run()).simulated_seconds for _ in range(len(self.CONDS))]
        self._next = saved
        return _twin_record(sims, server.pool)


# ---------------------------------------------------------------------------
# stream_sessions
# ---------------------------------------------------------------------------
@dataclass
class _Sessions:
    server: SketchServer
    stream: int
    freq: int


class StreamSessions(Workload):
    """A durable server hosting one streaming least-squares and one frequency session.

    Appends interleave and every ``query_every`` steps both sessions are
    queried: the write path beside the read path, and the only workload for
    the streaming, frequency and durability layers.
    """

    name = "stream_sessions"
    TOP_K = 16
    PHI = 0.02
    CHECKPOINT_EVERY = 8
    WINDOW_BATCHES = 4  # the stream session's sliding window, in appended batches

    def prepare(self) -> None:
        s = self.scale
        rows = s.stream_pool_batches * s.stream_batch_rows
        stream = piecewise_stationary_stream(
            s.stream_cols, rows_per_segment=rows // 2, n_segments=2,
            batch_size=s.stream_batch_rows, seed=self.seed,
        )
        self.row_batches = [(b.rows, b.targets) for b in stream]
        items = zipf_stream(
            s.freq_domain, total_items=s.stream_pool_batches * s.freq_batch,
            batch_size=s.freq_batch, seed=self.seed,
        )
        self.item_batches = [b.ids for b in items]
        self.pool_counts = np.bincount(np.concatenate(self.item_batches), minlength=s.freq_domain)
        self._step = 0
        self._window: deque = deque(maxlen=self.WINDOW_BATCHES + 1)

    def probe_request(self):
        s = self.scale
        rng = np.random.default_rng([self.seed, 1])
        rows = rng.standard_normal((s.stream_batch_rows, s.stream_cols))
        targets = rows @ rng.standard_normal(s.stream_cols) + 0.05 * rng.standard_normal(s.stream_batch_rows)
        return rows, targets, rng.integers(0, s.freq_domain, s.freq_batch)

    def open(self):
        server = SketchServer(
            durability=DurabilityConfig(
                store=MemoryCheckpointStore(), checkpoint_interval_batches=self.CHECKPOINT_EVERY
            )
        )
        stream = server.open_stream(
            self.scale.stream_cols,
            bucket_rows=self.scale.stream_batch_rows,
            window_buckets=self.WINDOW_BATCHES,
        )
        freq = server.open_frequency_stream(self.scale.freq_domain, phi=self.PHI, need_ranges=True)
        return _Sessions(server, stream, freq)

    def first(self, handle, request):
        rows, targets, ids = request
        handle.server.append_rows(handle.stream, rows, targets)
        handle.server.append_items(handle.freq, ids)
        return handle.server.query_solution(handle.stream)

    def check_first(self, request, response) -> List[str]:
        run = Run()
        _check_ratio(run, "first response", lstsq_ratio(request[0], request[1], response.x))
        return run.errors

    def _exact_counts(self, appended: int) -> np.ndarray:
        pool = len(self.item_batches)
        counts = (appended // pool) * self.pool_counts
        tail = appended % pool
        if tail:
            counts = counts + np.bincount(
                np.concatenate(self.item_batches[:tail]), minlength=self.scale.freq_domain
            )
        return counts

    def _recall(self, answer, appended: int) -> float:
        counts = self._exact_counts(appended)
        kth = np.partition(counts, counts.size - self.TOP_K)[counts.size - self.TOP_K]
        truth = set(np.flatnonzero(counts >= kth).tolist())
        return len({int(i) for i, _ in answer} & truth) / self.TOP_K

    def _step_once(self, h: _Sessions, run: Run) -> Tuple[int, float, List[float]]:
        """One ingest step (and a query pair every ``query_every`` steps).

        Returns the calls made, the wall spent in them and their simulated
        seconds.
        """
        server = h.server
        pool = len(self.row_batches)
        rows, targets = self.row_batches[self._step % pool]
        ids = self.item_batches[self._step % pool]
        t0 = clock()
        ingest = server.append_rows(h.stream, rows, targets)
        t1 = clock()
        items = server.append_items(h.freq, ids)
        t2 = clock()
        self._window.append((rows, targets))
        self._step += 1
        sims = [ingest.simulated_seconds, items.simulated_seconds]
        run.sample("step_s", t2 - t0)
        run.sample("append_rows_s", t1 - t0)
        run.sample("append_items_s", t2 - t1)
        run.sample("rows", rows.shape[0])
        run.sample("items", ids.shape[0])
        busy, calls = t2 - t0, 2
        if self._step % self.scale.query_every == 0:
            t3 = clock()
            sol = server.query_solution(h.stream)
            t4 = clock()
            hh = server.query_heavy_hitters(h.freq, k=self.TOP_K)
            t5 = clock()
            busy, calls = busy + t5 - t3, calls + 2
            run.sample("solution_query_s", t4 - t3)
            run.sample("topk_query_s", t5 - t4)
            run.sample("resolved", float(sol.resolved))
            if sol.x is None or sol.extra.get("failed"):
                run.failed += 1
            sims += [sol.simulated_seconds, hh.simulated_seconds]
            # The window is the newest ``window_rows`` rows appended.
            window = sol.window_rows
            a = np.vstack([r for r, _ in self._window])[-window:]
            b = np.concatenate([t for _, t in self._window])[-window:]
            if a.shape[0] != window:
                run.errors.append(f"stream window of {window} rows exceeds the {a.shape[0]} kept")
            _check_ratio(run, f"stream window at step {self._step}", lstsq_ratio(a, b, sol.x))
            recall = self._recall(hh.value, self._step)
            run.sample("topk_recall", recall)
            if recall < TOPK_RECALL_MIN:
                run.errors.append(f"top-{self.TOP_K} recall {recall:.3f} at step {self._step}")
        run.attempted += calls
        run.served += calls
        run.client_call_s += busy
        run.tick()
        return calls, busy, sims

    def warm_up(self, handle) -> None:
        # The step counter keeps running: it is what the exact counts follow.
        for _ in range(self.scale.query_every):
            self._step_once(handle, Run())

    def measure(self, handle, seconds: float, run: Run) -> None:
        # One throughput unit per whole cycle of queries and checkpoints.
        steps = math.lcm(self.scale.query_every, self.CHECKPOINT_EVERY)
        start = clock()
        deadline = start + seconds
        while clock() < deadline:
            calls = busy = 0
            for _ in range(steps):
                c, b, _ = self._step_once(handle, run)
                calls, busy = calls + c, busy + b
            run.unit(calls, busy, run.samples["step_s"][-steps:])
        run.wall_s += clock() - start

    def twin(self) -> Dict[str, object]:
        handle = self.open()
        saved = (self._step, self._window)
        self._step, self._window = 0, deque(maxlen=self.WINDOW_BATCHES + 1)
        sims: List[float] = []
        run = Run()
        while self._step < max(self.scale.twin_requests // 2, self.scale.query_every):
            sims.extend(self._step_once(handle, run)[2])
        self._step, self._window = saved
        return _twin_record(sims, handle.server.pool)


# ---------------------------------------------------------------------------
# runtime_mixed
# ---------------------------------------------------------------------------
@contextlib.contextmanager
def completion_stamps():
    """Stamp each ``RuntimeFuture`` with the wall time it resolved.

    The futures expose no completion time, and waiting on them in order
    would charge head-of-line blocking to every later request; stamping at
    resolution costs one clock read per request, in the traced and the
    untraced run alike.
    """
    resolve, reject = RuntimeFuture._resolve, RuntimeFuture._reject

    def stamped_resolve(future, response):
        future.done_at = clock()
        resolve(future, response)

    def stamped_reject(future, error):
        future.done_at = clock()
        reject(future, error)

    RuntimeFuture._resolve, RuntimeFuture._reject = stamped_resolve, stamped_reject
    try:
        yield
    finally:
        RuntimeFuture._resolve, RuntimeFuture._reject = resolve, reject


@dataclass
class _Runtime:
    runtime: AsyncSketchServer
    stream: int


class RuntimeMixed(Workload):
    """``AsyncSketchServer(workers=1)`` under a mix of 85% solve, 7% ridge, 8% stream append.

    Half the time is a Poisson open loop (reported, not gated: its latency
    swings with host noise), half is paused bursts of 64 whose drain gives
    the gated throughput and latency.  The only workload through admission,
    lanes and the ridge path.
    """

    name = "runtime_mixed"
    MIX = (0.85, 0.07, 0.08)  # solve, ridge, append
    LAM = 10.0
    OPEN_LOOP_SHARE = 0.5
    SAMPLE_EVERY = 23
    SAMPLE_CAP = 512

    def prepare(self) -> None:
        s = self.scale
        rng = np.random.default_rng(self.seed)
        self.mats = [rng.standard_normal((s.mixed_rows, s.mixed_cols)) for _ in range(s.mixed_matrices)]
        self.rhs = [
            [m @ rng.standard_normal(s.mixed_cols) + 0.1 * rng.standard_normal(s.mixed_rows)
             for _ in range(s.mixed_rhs_per_matrix)]
            for m in self.mats
        ]
        self.appends = []
        for _ in range(32):
            rows = rng.standard_normal((s.mixed_append_rows, s.mixed_cols))
            self.appends.append((rows, rows @ np.ones(s.mixed_cols) + 0.05 * rng.standard_normal(rows.shape[0])))
        count = 1 << 16
        self.kinds = rng.choice(3, size=count, p=self.MIX)
        self.picks = rng.integers(0, 1 << 30, size=count)
        self.gaps = rng.exponential(1.0 / s.mixed_rate, size=count)
        self._next = 0
        self._samples: List[Tuple[int, int, int, object]] = []

    def probe_request(self):
        s = self.scale
        rng = np.random.default_rng([self.seed, 1])
        a = rng.standard_normal((s.mixed_rows, s.mixed_cols))
        return a, a @ rng.standard_normal(s.mixed_cols) + 0.1 * rng.standard_normal(s.mixed_rows)

    def open(self):
        runtime = AsyncSketchServer(workers=1, shards=2, max_batch=8)
        return _Runtime(runtime, runtime.open_stream(self.scale.mixed_cols))

    def first(self, handle, request):
        return handle.runtime.submit(*request).result(FUTURE_TIMEOUT_S)

    def check_first(self, request, response) -> List[str]:
        run = Run()
        _check_ratio(run, "first response", lstsq_ratio(*request, response.x))
        return run.errors

    def _submit(self, h: _Runtime, i: int):
        """Admit schedule entry ``i``; returns ``(kind, matrix, rhs, future)``."""
        slot = i % len(self.kinds)
        kind, pick = int(self.kinds[slot]), int(self.picks[slot])
        m = pick % len(self.mats)
        j = (pick // len(self.mats)) % len(self.rhs[m])
        if kind == 0:
            future = h.runtime.submit(self.mats[m], self.rhs[m][j])
        elif kind == 1:
            future = h.runtime.submit_ridge(self.mats[m], self.rhs[m][j], self.LAM)
        else:
            rows, targets = self.appends[pick % len(self.appends)]
            future = h.runtime.append_rows(h.stream, rows, targets)
        return kind, m, j, future

    def _settle(self, entries, run: Run, sample: bool) -> List[object]:
        """Wait for admitted entries; count failures, keep checked samples."""
        results = []
        for i, kind, m, j, future in entries:
            error = future.exception(FUTURE_TIMEOUT_S)
            run.attempted += 1
            if error is not None:
                run.failed += 1
                results.append(None)
                continue
            response = future.result()
            results.append(response)
            run.served += 1
            if kind == 2:
                if response.rows != self.scale.mixed_append_rows:
                    run.errors.append(f"stream append {i} folded {response.rows} rows")
            elif response.x is None or response.extra.get("failed"):
                run.failed += 1
            elif sample and i % self.SAMPLE_EVERY == 0 and len(self._samples) < self.SAMPLE_CAP:
                self._samples.append((kind, m, j, response.x))
        return results

    def _open_loop(self, h: _Runtime, seconds: float, run: Run) -> None:
        entries, due_at = [], []
        start = clock() + 0.002
        due = start
        while True:
            due += float(self.gaps[self._next % len(self.gaps)])
            if due - start > seconds:
                break
            delay = due - clock()
            if delay > 0:
                time.sleep(delay)
            t0 = clock()
            run.sample("late_s", t0 - due)
            i = self._next
            self._next += 1
            try:
                kind, m, j, future = self._submit(h, i)
            except AdmissionError:
                run.attempted += 1
                run.failed += 1
                continue
            finally:
                run.client_call_s += clock() - t0
            entries.append((i, kind, m, j, future))
            due_at.append(due)
        self._settle(entries, run, sample=True)
        for (_, _, _, _, future), due in zip(entries, due_at):
            if future.exception(0) is None:
                run.sample("open_loop_s", future.done_at - due)

    def _bursts(self, h: _Runtime, seconds: float, run: Run) -> None:
        deadline = clock() + seconds
        while clock() < deadline:
            h.runtime.pause()
            entries = []
            t0 = clock()
            for _ in range(self.scale.mixed_burst):
                i = self._next
                self._next += 1
                entries.append((i, *self._submit(h, i)))
            t1 = clock()
            h.runtime.resume()
            results = self._settle(entries, run, sample=True)
            done = max(e[-1].done_at for e in entries)
            run.client_call_s += t1 - t0
            run.unit(
                sum(r is not None for r in results), done - t1,
                [e[-1].done_at - t1 for e, r in zip(entries, results) if r is not None],
            )

    def warm_up(self, handle) -> None:
        with completion_stamps():
            self._open_loop(handle, 0.5, Run())
            self._bursts(handle, 0.1, Run())
        self._next, self._samples = 0, []

    def measure(self, handle, seconds: float, run: Run) -> None:
        start = clock()
        with completion_stamps():
            self._open_loop(handle, seconds * self.OPEN_LOOP_SHARE, run)
            self._bursts(handle, seconds * (1.0 - self.OPEN_LOOP_SHARE), run)
        run.wall_s += clock() - start

    def check(self, run: Run) -> None:
        for kind, m, j, x in self._samples:
            if kind == 0:
                ratio = lstsq_ratio(self.mats[m], self.rhs[m][j], x)
            else:
                ratio = ridge_ratio(self.mats[m], self.rhs[m][j], self.LAM, x)
            _check_ratio(run, f"runtime_mixed {'solve' if kind == 0 else 'ridge'} matrix {m} rhs {j}", ratio)
        self._samples.clear()

    def runtime_stats(self, handle) -> Dict[str, float]:
        stats = handle.runtime.stats()
        admitted = stats.get("requests_admitted", 0.0)
        shed = stats.get("requests_shed", 0.0) + stats.get("admission_rejects", 0.0)
        return {
            "runtime_queue_depth_max": stats.get("queue_depth_max", 0.0),
            "runtime_shed_share": shed / admitted if admitted else 0.0,
        }

    def twin(self) -> Dict[str, object]:
        handle = self.open()
        try:
            handle.runtime.pause()
            entries = [(i, *self._submit(handle, i)) for i in range(self.scale.twin_requests)]
            handle.runtime.resume()
            saved = self._samples
            self._samples = []
            results = self._settle(entries, Run(), sample=False)
            self._samples = saved
            sims = [r.simulated_seconds for r in results if r is not None]
            return _twin_record(sims, handle.runtime.pool)
        finally:
            handle.runtime.stop()

    def close(self, handle) -> None:
        handle.runtime.stop()


WORKLOADS = {w.name: w for w in (ServeHot, SolveTall, StreamSessions, RuntimeMixed)}
