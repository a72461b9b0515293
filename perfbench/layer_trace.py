"""Per-layer wall-clock tracing from outside the program.

The traced run wraps each layer's public entry points at the attribute its
caller looks up (a class attribute for methods, the importing module's name
for functions such as ``plan``), records one span per call and restores the
originals afterwards.  Nothing in ``src/`` changes, and the untraced run
never has a wrapper installed.

Spans nest per thread.  A span's *self time* is its duration minus the time
its child spans cover; summed over a key it is the wall time that key's code
spent outside every other traced entry point.  Spans are kept in memory (the
first :data:`SPAN_KEEP` verbatim, all of them in the aggregates) and written
out when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Raw spans retained for the span dump; the aggregates count every span.
SPAN_KEEP = 20000


class _ThreadState:
    """One thread's span stack and running totals (merged after the run)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.stack: List[list] = []  # frames: [key, child_ns, span_id]
        self.depth: Dict[str, int] = {}
        self.stats: Dict[str, List[int]] = {}  # key -> [outermost calls, self ns, outermost ns]
        self.counts: Dict[str, float] = {}
        self.top_ns = 0  # wall covered by this thread's outermost spans


class Recorder:
    """Collects spans from every thread that calls a wrapped entry point."""

    def __init__(self, keep: int = SPAN_KEEP) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.keep = keep
        self.spans: List[Tuple] = []
        self.span_total = 0

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add to a named counter on the calling thread."""
        counts = self._state().counts
        counts[name] = counts.get(name, 0.0) + amount

    def wrap(
        self,
        fn: Callable,
        key: "str | Callable[..., str]",
        on_return: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` with a span around every call; ``key`` may depend on the args."""
        recorder = self
        dynamic = callable(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = recorder._state()
            span_key = key(*args, **kwargs) if dynamic else key
            stack = state.stack
            span_id = next(recorder._ids)
            frame = [span_key, 0, span_id]
            parent_id = stack[-1][2] if stack else 0
            root_id = stack[0][2] if stack else span_id
            stack.append(frame)
            depth = state.depth
            depth[span_key] = depth.get(span_key, 0) + 1
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                depth[span_key] -= 1
                duration = end - start
                stats = state.stats.get(span_key)
                if stats is None:
                    stats = state.stats[span_key] = [0, 0, 0]
                stats[1] += duration - frame[1]
                if depth[span_key] == 0:
                    stats[0] += 1
                    stats[2] += duration
                if stack:
                    stack[-1][1] += duration
                else:
                    state.top_ns += duration
                recorder.span_total += 1
                if len(recorder.spans) < recorder.keep:
                    recorder.spans.append(
                        (span_id, parent_id, root_id, span_key, state.name, start, end)
                    )
            if on_return is not None:
                on_return(recorder, out, *args, **kwargs)
            return out

        return traced

    # -- read side --------------------------------------------------------
    def merged(self) -> Tuple[Dict[str, List[int]], Dict[str, float], Dict[str, int]]:
        """(stats per key, counters, outermost-span ns per thread) over all threads."""
        stats: Dict[str, List[int]] = {}
        counts: Dict[str, float] = {}
        top: Dict[str, int] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, (calls, self_ns, outer_ns) in state.stats.items():
                acc = stats.setdefault(key, [0, 0, 0])
                acc[0] += calls
                acc[1] += self_ns
                acc[2] += outer_ns
            for name, value in state.counts.items():
                counts[name] = counts.get(name, 0.0) + value
            top[state.name] = top.get(state.name, 0) + state.top_ns
        return stats, counts, top

    def span_dump(self) -> Dict[str, object]:
        """The retained spans as JSON-ready rows (ids shared per outermost call)."""
        fields = ("id", "parent", "root", "key", "thread", "start_ns", "end_ns")
        return {
            "spans_recorded": self.span_total,
            "spans_kept": len(self.spans),
            "fields": list(fields),
            "spans": [list(span) for span in self.spans],
        }


# ---------------------------------------------------------------------------
# What gets wrapped
# ---------------------------------------------------------------------------
def _solver_key(solver, *args, **kwargs) -> str:
    return "problems.ridge" if solver.name.startswith("ridge_") else "linalg.solver"


def _count_solver(recorder: Recorder, out, solver, *args, **kwargs) -> None:
    recorder.count(f"solver:{solver.name}")


def _count_batches(recorder: Recorder, out, *args, **kwargs) -> None:
    batches = out if isinstance(out, list) else ([out] if out is not None else [])
    for batch in batches:
        recorder.count("batches")
        recorder.count("batched_requests", batch.size)


def _count_cache_get(recorder: Recorder, out, *args, **kwargs) -> None:
    recorder.count("cache_lookups")
    if out is not None:
        recorder.count("cache_hits")


def _count_wal_bytes(recorder: Recorder, out, store, key, data, *args, **kwargs) -> None:
    recorder.count("wal_bytes", len(data))


@dataclass(frozen=True)
class Target:
    """One entry point: ``module.attr`` (``attr`` may be ``Class.method``)."""

    module: str
    attr: str
    key: "str | Callable[..., str]"
    on_return: Optional[Callable] = None


def _methods(module: str, cls: str, names: Sequence[str], key: str, on_return=None) -> List[Target]:
    return [Target(module, f"{cls}.{name}", key, on_return) for name in names]


_SERVER_ENDPOINTS = (
    "submit", "flush", "solve", "solve_ridge", "open_stream", "append_rows",
    "query_solution", "open_frequency_stream", "append_items",
    "query_heavy_hitters", "stats",
)
_RUNTIME_ADMISSION = (
    "submit", "submit_ridge", "append_rows", "query_solution", "append_items",
    "query_heavy_hitters", "stats",
)

TARGETS: Tuple[Target, ...] = tuple(
    # core: sketch kernels and the streaming/frequency update loops
    _methods("repro.core.base", "SketchOperator", ("apply", "apply_vector", "sketch_host"), "core.sketch")
    + [
        Target("repro.core.countsketch", "StreamingCountSketch.update", "core.stream_update"),
        Target("repro.core.frequency", "FrequencySketch.update", "core.freq_update"),
        Target("repro.core.frequency", "HierarchicalFrequencySketch.update", "core.freq_update"),
        Target("repro.core.frequency", "HierarchicalFrequencySketch.top_k", "core.freq_topk"),
    ]
    # linalg: the probe is looked up in conditioning (server, drift) and planner
    + [
        Target("repro.linalg.conditioning", "estimate_spectrum_bounds", "linalg.probe"),
        Target("repro.linalg.planner", "estimate_spectrum_bounds", "linalg.probe"),
        Target("repro.serving.server", "plan", "linalg.plan"),
        Target("repro.streaming.solver", "plan", "linalg.plan"),
        Target("repro.serving.server", "execute_plan", "linalg.execute"),
        Target("repro.streaming.solver", "execute_plan", "linalg.execute"),
        Target("repro.linalg.registry", "RegisteredSolver.solve", _solver_key, _count_solver),
    ]
    # serving
    + _methods("repro.serving.batcher", "MicroBatcher", ("add",), "serving.batcher")
    + _methods("repro.serving.batcher", "MicroBatcher", ("drain", "pop_batch"), "serving.batcher", _count_batches)
    + _methods("repro.serving.cache", "OperatorCache", ("get",), "serving.cache", _count_cache_get)
    + [
        Target("repro.serving.server", "build_operator", "serving.cache_build"),
        Target("repro.serving.cache", "build_operator", "serving.cache_build"),
    ]
    + _methods("repro.serving.server", "SketchServer", _SERVER_ENDPOINTS, "serving.server")
    + _methods("repro.serving.runtime", "AsyncSketchServer", _RUNTIME_ADMISSION, "serving.runtime.admit")
    + _methods("repro.serving.streaming", "StreamingSessionManager", ("append", "query"), "serving.streaming")
    + _methods(
        "repro.serving.frequency", "FrequencySessionManager", ("append", "query_heavy_hitters"), "serving.frequency"
    )
    # streaming engine
    + [
        Target("repro.streaming.solver", "StreamingSolver.ingest", "streaming.ingest"),
        Target("repro.streaming.solver", "StreamingSolver.solution", "streaming.resolve"),
    ]
    # durability
    + _methods("repro.durability.store", "MemoryCheckpointStore", ("append_wal",), "durability.wal", _count_wal_bytes)
    + _methods("repro.durability.store", "DirectoryCheckpointStore", ("append_wal",), "durability.wal", _count_wal_bytes)
    + _methods("repro.durability.store", "MemoryCheckpointStore", ("write_checkpoint",), "durability.checkpoint")
    + _methods("repro.durability.store", "DirectoryCheckpointStore", ("write_checkpoint",), "durability.checkpoint")
    + _methods("repro.serving.streaming", "StreamingSessionManager", ("checkpoint",), "durability.checkpoint")
    + _methods("repro.serving.frequency", "FrequencySessionManager", ("checkpoint",), "durability.checkpoint")
    # obs
    + _methods("repro.obs.trace", "Tracer", ("start_trace", "start_span", "event", "end_trace"), "obs.trace")
    + _methods("repro.obs.trace", "Span", ("finish", "set"), "obs.trace")
    + _methods("repro.obs.metrics", "MetricsRegistry", ("counter", "gauge", "histogram"), "obs.metrics")
    + _methods("repro.obs.metrics", "Counter", ("inc",), "obs.metrics")
    + _methods("repro.obs.metrics", "Gauge", ("set", "inc", "dec"), "obs.metrics")
    + _methods("repro.obs.metrics", "Histogram", ("observe", "observe_many"), "obs.metrics")
    + _methods("repro.obs.calibrate", "CalibratedEstimator", ("observe",), "obs.calibration")
    # the simulated-device cost model (host-side bookkeeping per kernel launch)
    + [Target("repro.gpu.kernels", "KernelCostModel.estimate", "gpu.cost_model")]
)

#: Entry points found by name prefix: ServingTelemetry's recorders are the
#: registry facade (obs.metrics), and the runtime's worker runs one
#: ``_dispatch*`` call per unit of work it takes off the queue.
_BY_PREFIX = (
    ("repro.serving.telemetry", "ServingTelemetry", ("record_", "set_"), "obs.metrics"),
    ("repro.serving.runtime", "AsyncSketchServer", ("_dispatch",), "serving.runtime.dispatch"),
)


def _resolve(target: Target):
    module = importlib.import_module(target.module)
    owner = module
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if name not in vars(owner):
        raise AttributeError(f"{target.module}.{target.attr}")
    return owner, name


def all_targets() -> List[Target]:
    """:data:`TARGETS` plus the methods matched by :data:`_BY_PREFIX`."""
    targets = list(TARGETS)
    for module, cls, prefixes, key in _BY_PREFIX:
        owner = getattr(importlib.import_module(module), cls, None)
        names = sorted(
            n for n, v in vars(owner or object).items() if callable(v) and n.startswith(prefixes)
        )
        targets += _methods(module, cls, names or [f"{prefixes[0]}*"], key)
    return targets


class Installed:
    """Context manager: wrappers on at entry, originals back at exit."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.missing: List[str] = []
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Installed":
        for target in all_targets():
            try:
                owner, name = _resolve(target)
            except (ImportError, AttributeError):
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            original = vars(owner)[name]
            if isinstance(original, (staticmethod, classmethod)):
                self.missing.append(f"{target.module}.{target.attr} (not a plain function)")
                continue
            self._saved.append((owner, name, original))
            setattr(owner, name, self.recorder.wrap(original, target.key, target.on_return))
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------
class Aggregate:
    """Read-side view of one traced phase, normalised per request or per call."""

    def __init__(self, recorder: Recorder, requests: int, extra: Dict[str, float]) -> None:
        self.stats, self.counts, self.top_ns = recorder.merged()
        self.requests = max(int(requests), 1)
        self.extra = extra

    def calls(self, key: str) -> int:
        return self.stats.get(key, [0, 0, 0])[0]

    def self_s(self, key: str) -> float:
        return self.stats.get(key, [0, 0, 0])[1] * 1e-9

    def per_call(self, key: str, unit: float) -> float:
        calls = self.calls(key)
        return self.self_s(key) / unit / calls if calls else 0.0

    def per_req(self, key: str, unit: float) -> float:
        return self.self_s(key) / unit / self.requests

    def count(self, name: str) -> float:
        return self.counts.get(name, 0.0)

    def ratio(self, num: float, den: float) -> float:
        return num / den if den else 0.0


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric: how it is computed and what it should move."""

    name: str
    unit: str
    better: str
    moves: str  # end-to-end metric(s) a change here should move
    on: str  # workload where it is exercised
    compute: Callable[[Aggregate], float]


_MS, _US = 1e-3, 1e-6

_SOLVERS = (
    "normal_equations", "sketch_and_solve", "qr", "rand_cholqr", "sketch_precond_lsqr",
    "ridge_normal_equations", "ridge_precond_lsqr", "ridge_qr",
)


def _solver_metric(name: str) -> LayerMetric:
    return LayerMetric(
        f"linalg.solver_calls.{name}", "1/req", "lower", "residual_ratio_mean", "solve_tall",
        lambda g, n=name: g.count(f"solver:{n}") / g.requests,
    )


def _fallbacks(g: Aggregate) -> float:
    solver_calls = sum(g.count(f"solver:{n}") for n in _SOLVERS)
    return max(solver_calls - g.calls("linalg.execute"), 0.0) / g.requests


PER_LAYER: Tuple[LayerMetric, ...] = (
    LayerMetric("core.sketch_apply_ms", "ms/req", "lower", "requests_per_s latency_p50_ms", "solve_tall",
                lambda g: g.per_req("core.sketch", _MS)),
    LayerMetric("core.stream_update_us", "us", "lower", "requests_per_s", "stream_sessions",
                lambda g: g.per_call("core.stream_update", _US)),
    LayerMetric("core.freq_update_us", "us", "lower", "requests_per_s", "stream_sessions",
                lambda g: g.per_call("core.freq_update", _US)),
    LayerMetric("core.freq_topk_ms", "ms", "lower", "latency_p90_ms", "stream_sessions",
                lambda g: g.per_call("core.freq_topk", _MS)),
    LayerMetric("linalg.probe_ms", "ms", "lower", "latency_p50_ms", "solve_tall",
                lambda g: g.per_call("linalg.probe", _MS)),
    LayerMetric("linalg.probe_calls", "1/req", "lower", "latency_p50_ms", "solve_tall",
                lambda g: g.calls("linalg.probe") / g.requests),
    LayerMetric("linalg.plan_us", "us", "lower", "requests_per_s", "serve_hot",
                lambda g: g.per_call("linalg.plan", _US)),
    LayerMetric("linalg.execute_ms", "ms", "lower", "requests_per_s", "solve_tall",
                lambda g: g.per_call("linalg.execute", _MS)),
    LayerMetric("linalg.solver_ms", "ms", "lower", "requests_per_s latency_p50_ms", "solve_tall",
                lambda g: g.per_call("linalg.solver", _MS)),
)
PER_LAYER = PER_LAYER + tuple(_solver_metric(n) for n in _SOLVERS) + (
    LayerMetric("linalg.fallbacks", "1/req", "lower", "residual_ratio_mean", "solve_tall", _fallbacks),
    LayerMetric("problems.ridge_ms", "ms", "lower", "latency_p90_ms", "runtime_mixed",
                lambda g: g.per_call("problems.ridge", _MS)),
    LayerMetric("serving.batcher.mean_batch_size", "req", "higher", "requests_per_s", "serve_hot",
                lambda g: g.ratio(g.count("batched_requests"), g.count("batches"))),
    LayerMetric("serving.batcher.self_us_per_req", "us/req", "lower", "requests_per_s", "serve_hot",
                lambda g: g.per_req("serving.batcher", _US)),
    LayerMetric("serving.cache.hit_rate", "share", "higher", "requests_per_s setup_s", "serve_hot",
                lambda g: g.ratio(g.count("cache_hits"), g.count("cache_lookups"))),
    LayerMetric("serving.cache.build_ms", "ms", "lower", "setup_s", "serve_hot",
                lambda g: g.per_call("serving.cache_build", _MS)),
    LayerMetric("serving.server.self_us_per_req", "us/req", "lower", "requests_per_s", "serve_hot",
                lambda g: g.per_req("serving.server", _US)),
    LayerMetric("serving.runtime.admit_us", "us", "lower", "latency_p50_ms", "runtime_mixed",
                lambda g: g.per_call("serving.runtime.admit", _US)),
    LayerMetric("serving.runtime.dispatch_self_us_per_req", "us/req", "lower", "requests_per_s", "runtime_mixed",
                lambda g: g.per_req("serving.runtime.dispatch", _US)),
    LayerMetric("serving.runtime.busy_share", "share", "lower", "latency_p50_ms requests_per_s", "runtime_mixed",
                lambda g: g.extra.get("runtime_busy_share", 0.0)),
    LayerMetric("serving.runtime.queue_depth_max", "req", "lower", "latency_p90_ms", "runtime_mixed",
                lambda g: g.extra.get("runtime_queue_depth_max", 0.0)),
    LayerMetric("serving.runtime.shed", "1/req", "lower", "requests_per_s", "runtime_mixed",
                lambda g: g.extra.get("runtime_shed_share", 0.0)),
    LayerMetric("serving.streaming.append_us", "us", "lower", "requests_per_s", "stream_sessions",
                lambda g: g.per_call("serving.streaming", _US)),
    LayerMetric("serving.frequency.append_us", "us", "lower", "requests_per_s", "stream_sessions",
                lambda g: g.per_call("serving.frequency", _US)),
    LayerMetric("streaming.ingest_us", "us", "lower", "requests_per_s", "stream_sessions",
                lambda g: g.per_call("streaming.ingest", _US)),
    LayerMetric("streaming.resolve_ms", "ms", "lower", "latency_p90_ms", "stream_sessions",
                lambda g: g.per_call("streaming.resolve", _MS)),
    LayerMetric("streaming.resolves", "1/query", "lower", "latency_p90_ms", "stream_sessions",
                lambda g: g.extra.get("stream_resolves_per_query", 0.0)),
    LayerMetric("durability.wal_append_us", "us", "lower", "requests_per_s", "stream_sessions",
                lambda g: g.per_call("durability.wal", _US)),
    LayerMetric("durability.wal_bytes", "B", "lower", "requests_per_s", "stream_sessions",
                lambda g: g.ratio(g.count("wal_bytes"), g.calls("durability.wal"))),
    LayerMetric("durability.checkpoint_ms", "ms", "lower", "latency_p90_ms", "stream_sessions",
                lambda g: g.per_call("durability.checkpoint", _MS)),
    LayerMetric("durability.checkpoints", "1/req", "lower", "latency_p90_ms", "stream_sessions",
                lambda g: g.calls("durability.checkpoint") / g.requests),
    LayerMetric("obs.trace_us_per_req", "us/req", "lower", "requests_per_s", "serve_hot",
                lambda g: g.per_req("obs.trace", _US)),
    LayerMetric("obs.metrics_us_per_req", "us/req", "lower", "requests_per_s", "serve_hot",
                lambda g: g.per_req("obs.metrics", _US)),
    LayerMetric("obs.calibration_us_per_req", "us/req", "lower", "requests_per_s", "serve_hot",
                lambda g: g.per_req("obs.calibration", _US)),
    LayerMetric("gpu.cost_model_us_per_req", "us/req", "lower", "requests_per_s", "serve_hot",
                lambda g: g.per_req("gpu.cost_model", _US)),
    LayerMetric("gpu.sim_us_per_req", "us/req", "lower", "none: must repeat exactly", "all",
                lambda g: g.extra.get("gpu_sim_us_per_req", 0.0)),
    LayerMetric("gpu.flops_per_req", "flop/req", "lower", "none: must repeat exactly", "all",
                lambda g: g.extra.get("gpu_flops_per_req", 0.0)),
    LayerMetric("gpu.bytes_per_req", "B/req", "lower", "none: must repeat exactly", "all",
                lambda g: g.extra.get("gpu_bytes_per_req", 0.0)),
    LayerMetric("trace.overhead_share", "share", "lower", "none: cost of this traced run", "all",
                lambda g: g.extra.get("trace_overhead_share", 0.0)),
    LayerMetric("trace.unaccounted_share", "share", "lower", "none: coverage of the wrappers", "all",
                lambda g: g.extra.get("trace_unaccounted_share", 0.0)),
    LayerMetric("runtime.generator_late_ms_p90", "ms", "lower", "none: load-generator health", "runtime_mixed",
                lambda g: g.extra.get("generator_late_ms_p90", 0.0)),
)


def layer_metrics(agg: Aggregate) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric for one traced phase (0 where unexercised)."""
    return {m.name: float(m.compute(agg)) for m in PER_LAYER}


def unaccounted_share(agg: Aggregate, busy_ns: Dict[str, int]) -> float:
    """Share of the threads' busy wall that no outermost span covers.

    ``busy_ns`` maps thread names to the wall time the benchmark spent
    waiting on the program on that thread (the client's timed calls; a
    runtime worker's dispatches).
    """
    busy = sum(busy_ns.values())
    if busy <= 0:
        return 0.0
    covered = sum(min(agg.top_ns.get(name, 0), ns) for name, ns in busy_ns.items())
    return max(busy - covered, 0) / busy
