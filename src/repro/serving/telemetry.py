"""Serving telemetry: latency percentiles, throughput and counters.

Latencies are deterministic *simulated* seconds.  Every number lives in one
:class:`~repro.obs.metrics.MetricsRegistry` family, declared once in the
tables below; ``record_*``/``set_*`` write the registry, and every getter
and ``snapshot()`` read it back, so the report and the scrape agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.obs.metrics import Histogram, MetricsRegistry


@dataclass
class LatencySummary:
    """Percentile summary of per-request latency (simulated seconds)."""

    count: int
    p50: float
    p95: float
    p99: float
    mean: float
    max: float

    def as_dict(self) -> Dict[str, float]:
        seconds = {f"{q}_seconds": getattr(self, q) for q in ("p50", "p95", "p99", "mean", "max")}
        return {"count": self.count, **seconds}


def _summarise(hist: Optional[Histogram]) -> Optional[LatencySummary]:
    """Percentile summary of a histogram (None when absent or empty)."""
    if hist is None or hist.count == 0:
        return None
    p50, p95, p99 = (float(hist.percentile(q)) for q in (50.0, 95.0, 99.0))
    return LatencySummary(int(hist.count), p50, p95, p99, float(hist.mean), float(hist.max))


#: Public counter/gauge attributes: ``attribute -> (unlabelled registry family,
#: read type)``.  Counts read as ``int``, ``*_seconds`` totals as ``float``.
_READS: Dict[str, Tuple[str, type]] = {
    "requests_served": ("serving_requests_total", int),
    "sketch_requests": ("serving_sketch_requests_total", int),
    "batches_executed": ("serving_batches_total", int),
    "fallback_batches": ("serving_fallback_batches_total", int),
    "failed_requests": ("serving_failed_requests_total", int),
    "requests_shed": ("runtime_requests_shed_total", int),
    "requests_admitted": ("runtime_requests_admitted_total", int),
    "admission_rejects": ("runtime_admission_rejects_total", int),
    "streams_opened": ("stream_sessions_opened_total", int),
    "streams_closed": ("stream_sessions_closed_total", int),
    "stream_rows": ("stream_rows_total", int),
    "stream_batches": ("stream_batches_total", int),
    "stream_resolves": ("stream_resolves_total", int),
    "stream_drift_events": ("stream_drift_events_total", int),
    "stream_ingest_seconds": ("stream_ingest_seconds_total", float),
    "stream_resolve_seconds": ("stream_resolve_seconds_total", float),
    "frequency_sessions_opened": ("frequency_sessions_opened_total", int),
    "frequency_sessions_closed": ("frequency_sessions_closed_total", int),
    "frequency_items": ("frequency_items_total", int),
    "frequency_batches": ("frequency_batches_total", int),
    "frequency_queries": ("frequency_queries_total", int),
    "frequency_query_seconds": ("frequency_query_seconds_total", float),
    "frequency_ingest_seconds": ("frequency_ingest_seconds_total", float),
    "checkpoints_written": ("durability_checkpoints_total", int),
    "checkpoint_bytes": ("durability_checkpoint_bytes_total", int),
    "wal_appends": ("durability_wal_appends_total", int),
    "wal_bytes": ("durability_wal_bytes_total", int),
    "restores": ("durability_restores_total", int),
    "replayed_batches": ("durability_replayed_batches_total", int),
    "corrupt_checkpoints": ("durability_corrupt_checkpoints_total", int),
    "wal_truncations": ("durability_wal_truncations_total", int),
    "sessions_evicted": ("stream_sessions_evicted_total", int),
    "passivated_sessions": ("durability_passivated_sessions", int),
}

#: Unlabelled gauges and histograms; the other :data:`_READS` families are counters.
_GAUGES = (
    "durability_passivated_sessions", "runtime_queue_depth_current",
)
_HISTOGRAMS = (
    "serving_request_latency_seconds", "serving_batch_size", "serving_batch_seconds",
    "runtime_queue_depth", "stream_staleness_rows",
)

#: Labelled families: ``family -> (type, label names)``; children appear on first use.
_LABELLED: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "serving_solver_latency_seconds": ("histogram", ("solver",)),
    "serving_fallback_hops_total": ("counter", ("src", "dst")),
    "runtime_lane_latency_seconds": ("histogram", ("lane",)),
    "runtime_admitted_total": ("counter", ("lane",)),
    "runtime_admission_rejects_by_lane_total": ("counter", ("lane",)),
    "runtime_shed_total": ("counter", ("lane",)),
    "runtime_shed_by_reason_total": ("counter", ("reason",)),
    "frequency_queries_by_kind_total": ("counter", ("kind",)),
    "stream_sessions_evicted_by_reason_total": ("counter", ("reason",)),
}

#: ``snapshot()`` sections (runtime, stream, frequency, durability), each
#: reported when any of its gate attributes is non-zero.  A row is a
#: ``(snapshot key, attribute)`` pair, or one name when the two agree; a
#: getter returning a dict adds one key per entry, its name filling ``{}``.
_SECTIONS = (
    (("requests_admitted", "requests_shed", "admission_rejects"), (
        "requests_admitted", "requests_shed", "admission_rejects", "queue_depth_max",
        "queue_depth_mean", ("shed_{}", "shed_counts"), ("lane_{}", "_lane_rows"),
        ("lane_{}_shed", "sheds_by_lane"),
    )),
    (("streams_opened", "streams_closed", "stream_batches"), (
        "streams_opened", "streams_closed", ("stream_rows_ingested", "stream_rows"),
        "stream_batches", "stream_resolves", "stream_resolve_seconds", "stream_ingest_seconds",
        "stream_drift_events", "stream_ingest_rows_per_second",
        ("stream_mean_staleness_rows", "stream_mean_staleness"),
    )),
    (("frequency_sessions_opened", "frequency_batches", "frequency_queries"), (
        "frequency_sessions_opened", "frequency_sessions_closed",
        ("frequency_items_ingested", "frequency_items"), "frequency_batches", "frequency_queries",
        "frequency_query_seconds", "frequency_ingest_seconds",
        ("frequency_{}_queries", "frequency_query_counts"),
    )),
    (("checkpoints_written", "wal_appends", "restores", "sessions_evicted"), (
        ("durability_checkpoints", "checkpoints_written"),
        ("durability_checkpoint_bytes", "checkpoint_bytes"),
        ("durability_wal_appends", "wal_appends"),
        ("durability_wal_bytes", "wal_bytes"), ("durability_restores", "restores"),
        ("durability_replayed_batches", "replayed_batches"),
        ("durability_corrupt_checkpoints", "corrupt_checkpoints"),
        ("durability_wal_truncations", "wal_truncations"),
        ("durability_passivated_sessions", "passivated_sessions"),
        ("stream_sessions_evicted", "sessions_evicted"), ("stream_evicted_{}", "eviction_counts"),
    )),
)


class ServingTelemetry:
    """Accumulates per-request and per-batch measurements for one server.

    Records into ``registry`` (a private one when omitted); histogram rings
    hold ``sample_capacity`` samples.  No lock: registry primitives lock
    themselves.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None, sample_capacity: int = 4096):
        r = self.registry = registry if registry is not None else MetricsRegistry(sample_capacity)
        self.sample_capacity = int(sample_capacity)
        # Held handles by family name, or by (family, *label values) for children.
        self._m: Dict[Any, Any] = {f: r.gauge(f) for f in _GAUGES}
        self._m.update((f, r.histogram(f, capacity=self.sample_capacity)) for f in _HISTOGRAMS)
        self._m.update((f, r.counter(f)) for f, _ in _READS.values() if f not in self._m)

    def _child(self, family: str, *values: str) -> Any:
        metric = self._m.get((family, *values))
        if metric is None:
            kind, names = _LABELLED[family]
            extra = {"capacity": self.sample_capacity} if kind == "histogram" else {}
            metric = getattr(self.registry, kind)(family, **extra, **dict(zip(names, values)))
            self._m[(family, *values)] = metric
        return metric

    # Request path: ``count`` requests of one latency (a batch's riders), run by ``solver``;
    # a fallback hop is planned -> executed; a failure is a request whose whole chain failed.
    def record_request(self, latency_seconds: float, solver: Optional[str] = None, count: int = 1) -> None:
        self._m["serving_request_latency_seconds"].observe(float(latency_seconds), count)
        self._m["serving_requests_total"].inc(count)
        if solver:
            self._child("serving_solver_latency_seconds", solver).observe(float(latency_seconds), count)

    def record_requests(self, latencies: Iterable[float]) -> None:
        arr = np.asarray(list(latencies) if not isinstance(latencies, np.ndarray) else latencies)
        self._m["serving_request_latency_seconds"].observe_many(arr)
        self._m["serving_requests_total"].inc(arr.size)

    def record_fallback(self, from_solver: str, to_solver: str) -> None:
        self._child("serving_fallback_hops_total", from_solver, to_solver).inc()
        self._m["serving_fallback_batches_total"].inc()

    def record_failure(self, count: int = 1) -> None:
        self._m["serving_failed_requests_total"].inc(int(count))

    def record_sketch(self, latency_seconds: float) -> None:
        self._m["serving_request_latency_seconds"].observe(float(latency_seconds))
        self._m["serving_sketch_requests_total"].inc()

    def record_batch(self, size: int, seconds: float) -> None:
        self._m["serving_batch_size"].observe(int(size))
        self._m["serving_batch_seconds"].observe(float(seconds))
        self._m["serving_batches_total"].inc()

    # Concurrent runtime.  Queue depth is sampled at submit and dispatch; lane
    # latencies are queue-inclusive (admission to completion).
    def record_admission(self, lane: str) -> None:
        self._m["runtime_requests_admitted_total"].inc()
        self._child("runtime_admitted_total", lane).inc()
        self._child("runtime_shed_total", lane)  # the lane becomes visible at 0 sheds

    def record_admission_reject(self, lane: str) -> None:
        self._m["runtime_admission_rejects_total"].inc()
        self._child("runtime_admission_rejects_by_lane_total", lane).inc()

    def record_queue_depth(self, depth: int) -> None:
        self._m["runtime_queue_depth"].observe(int(depth))
        self._m["runtime_queue_depth_current"].set(int(depth))

    def record_shed(self, lane: str, reason: str, count: int = 1) -> None:
        self._m["runtime_requests_shed_total"].inc(int(count))
        self._child("runtime_shed_by_reason_total", reason).inc(int(count))
        self._child("runtime_shed_total", lane).inc(int(count))

    def record_lane_latency(self, lane: str, latency_seconds: float, count: int = 1) -> None:
        self._child("runtime_lane_latency_seconds", lane).observe(float(latency_seconds), count)

    # Streaming sessions.  Re-solve seconds include eager (drift, warm-up)
    # re-solves inside an ingest; staleness is rows behind at query time.
    def record_stream_open(self) -> None:
        self._m["stream_sessions_opened_total"].inc()

    def record_stream_close(self) -> None:
        self._m["stream_sessions_closed_total"].inc()

    def record_stream_ingest(self, rows: int, seconds: float) -> None:
        self._m["stream_batches_total"].inc()
        self._m["stream_rows_total"].inc(int(rows))
        self._m["stream_ingest_seconds_total"].inc(float(seconds))

    def record_stream_resolve(self, count: int = 1, seconds: float = 0.0) -> None:
        self._m["stream_resolves_total"].inc(int(count))
        self._m["stream_resolve_seconds_total"].inc(float(seconds))

    def record_stream_drift(self, count: int = 1) -> None:
        self._m["stream_drift_events_total"].inc(int(count))

    def record_stream_query(self, staleness_rows: int) -> None:
        self._m["stream_staleness_rows"].observe(float(staleness_rows))

    # Frequency-analytics sessions; ``kind`` is the query type (``point`` /
    # ``heavy_hitters`` / ``norm`` / ``range``).
    def record_frequency_open(self) -> None:
        self._m["frequency_sessions_opened_total"].inc()

    def record_frequency_close(self) -> None:
        self._m["frequency_sessions_closed_total"].inc()

    def record_frequency_ingest(self, items: int, seconds: float) -> None:
        self._m["frequency_batches_total"].inc()
        self._m["frequency_items_total"].inc(int(items))
        self._m["frequency_ingest_seconds_total"].inc(float(seconds))

    def record_frequency_query(self, kind: str, seconds: float) -> None:
        self._m["frequency_queries_total"].inc()
        self._m["frequency_query_seconds_total"].inc(float(seconds))
        self._child("frequency_queries_by_kind_total", kind).inc()

    # Durability.  A WAL truncation drops a torn or corrupt tail at replay;
    # passivated sessions are evicted but durable, awaiting resurrection.
    def record_checkpoint(self, nbytes: int) -> None:
        self._m["durability_checkpoints_total"].inc()
        self._m["durability_checkpoint_bytes_total"].inc(int(nbytes))

    def record_wal_append(self, nbytes: int) -> None:
        self._m["durability_wal_appends_total"].inc()
        self._m["durability_wal_bytes_total"].inc(int(nbytes))

    def record_restore(self, replayed_batches: int) -> None:
        self._m["durability_restores_total"].inc()
        self._m["durability_replayed_batches_total"].inc(int(replayed_batches))

    def record_corrupt_checkpoint(self) -> None:
        self._m["durability_corrupt_checkpoints_total"].inc()

    def record_wal_truncation(self) -> None:
        self._m["durability_wal_truncations_total"].inc()

    def record_session_evicted(self, reason: str) -> None:
        self._m["stream_sessions_evicted_total"].inc()
        self._child("stream_sessions_evicted_by_reason_total", reason).inc()

    def set_passivated_sessions(self, count: int) -> None:
        self._m["durability_passivated_sessions"].set(int(count))

    # Reads.  Breakdowns and ``*_seen()`` list what was recorded since ``reset()``
    # (``sheds_by_lane()`` also admitted lanes at 0); empty summaries are None.
    def _counts(self, family: str, keep_zero: bool = False) -> Dict[str, int]:
        values = self.registry.labelled_values(family, _LABELLED[family][1][0])
        return {name: int(v) for name, v in values.items() if keep_zero or v > 0}

    def _summary_rows(self, family: str, quantiles: Tuple[str, ...]) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for hist in self.registry.series(family):
            summary = _summarise(hist)
            if summary is not None:
                (name,) = hist.labels.values()
                out[f"{name}_requests"] = summary.count
                out.update((f"{name}_{q}_seconds", getattr(summary, q)) for q in quantiles)
        return out

    def _lane_rows(self) -> Dict[str, float]:
        return self._summary_rows("runtime_lane_latency_seconds", ("p50", "p95", "p99"))

    def latency_summary(self) -> Optional[LatencySummary]:
        return _summarise(self._m["serving_request_latency_seconds"])

    def solver_latency_summary(self, solver: str) -> Optional[LatencySummary]:
        return _summarise(self.registry.get("serving_solver_latency_seconds", solver=solver))

    def lane_latency_summary(self, lane: str) -> Optional[LatencySummary]:
        return _summarise(self.registry.get("runtime_lane_latency_seconds", lane=lane))

    def solvers_seen(self) -> List[str]:
        hists = self.registry.series("serving_solver_latency_seconds")
        return [h.labels["solver"] for h in hists if h.count > 0]

    def lanes_seen(self) -> List[str]:
        hists = self.registry.series("runtime_lane_latency_seconds")
        return [h.labels["lane"] for h in hists if h.count > 0]

    def fallback_counts(self) -> Dict[str, int]:
        """``"from->to"`` fallback-hop counters."""
        hops = self.registry.series("serving_fallback_hops_total")
        return {f"{c.labels['src']}->{c.labels['dst']}": int(c.value) for c in hops if c.value > 0}

    def shed_counts(self) -> Dict[str, int]:
        return self._counts("runtime_shed_by_reason_total")

    def sheds_by_lane(self) -> Dict[str, int]:
        return self._counts("runtime_shed_total", keep_zero=True)

    def frequency_query_counts(self) -> Dict[str, int]:
        return self._counts("frequency_queries_by_kind_total")

    def eviction_counts(self) -> Dict[str, int]:
        return self._counts("stream_sessions_evicted_by_reason_total")

    def queue_depth_max(self) -> int:
        return int(self._m["runtime_queue_depth"].max)

    def queue_depth_mean(self) -> float:
        return float(self._m["runtime_queue_depth"].mean)

    def mean_batch_size(self) -> float:
        return float(self._m["serving_batch_size"].mean)

    def stream_mean_staleness(self) -> float:
        return float(self._m["stream_staleness_rows"].mean)

    def stream_ingest_rows_per_second(self) -> float:
        """Sustained ingest rate over all sessions (simulated seconds)."""
        seconds = self.stream_ingest_seconds
        return self.stream_rows / seconds if seconds > 0.0 else 0.0

    def throughput(self, makespan_seconds: float) -> float:
        """Requests per simulated second given the pool's makespan."""
        total = self.requests_served + self.sketch_requests
        return total / makespan_seconds if makespan_seconds > 0.0 else 0.0

    def snapshot(self, makespan_seconds: Optional[float] = None) -> Dict[str, float]:
        """One flat dict with every headline number (for reports and tests)."""
        head = ("requests_served", "sketch_requests", "batches_executed")
        out: Dict[str, float] = {key: float(getattr(self, key)) for key in head}
        out["mean_batch_size"] = self.mean_batch_size()
        summary = self.latency_summary()
        out.update(summary.as_dict() if summary is not None else {})
        out["fallback_batches"] = float(self.fallback_batches)
        out["failed_requests"] = float(self.failed_requests)
        for gates, rows in _SECTIONS:
            if not any(getattr(self, gate) for gate in gates):
                continue
            for row in rows:
                key, attr = (row, row) if isinstance(row, str) else row
                value = getattr(self, attr)
                value = value() if callable(value) else value
                if isinstance(value, dict):
                    out.update((key.format(name), float(v)) for name, v in value.items())
                else:
                    out[key] = float(value)
        solvers = self._summary_rows("serving_solver_latency_seconds", ("p50", "p99"))
        out.update((f"solver_{name}", float(v)) for name, v in solvers.items())
        if makespan_seconds is not None:
            out["makespan_seconds"] = float(makespan_seconds)
            out["requests_per_second"] = self.throughput(makespan_seconds)
        return out

    def reset(self) -> None:
        """Zero counters and histograms (series stay registered); gauges keep state."""
        self.registry.reset()


for _attr, (_family, _read) in _READS.items():
    setattr(ServingTelemetry, _attr, property(lambda t, f=_family, r=_read: r(t._m[f].value)))
del _attr, _family, _read
