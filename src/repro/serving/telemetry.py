"""Serving telemetry: latency percentiles, throughput and counters.

Latencies here are *simulated* seconds from the GPU cost model and the
alpha-beta communication model, so the numbers are deterministic and the
percentile report answers the question the ROADMAP's north star asks --
what p99 would this serving configuration sustain on the paper's hardware --
without a physical GPU in the loop.

Since the observability PR, :class:`ServingTelemetry` is a facade over a
:class:`~repro.obs.metrics.MetricsRegistry`: every recorder lands in a
named counter/gauge/histogram with label sets, so the same numbers the
``snapshot()`` contract has always reported are also scrapeable through
:func:`repro.obs.export.to_prometheus` and the JSON exporter.  Latency
samples now live in **bounded** ring+P² histograms instead of unbounded
Python lists -- a long-lived server's telemetry footprint is fixed, while
``recent_p95()`` (the elastic-scaling signal) keeps its exact last-window
semantics and whole-stream p50/p95/p99 stay available past the ring via
the P² sketches.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.obs.metrics import Counter, Histogram, MetricsRegistry


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
        return {
            "count": self.count,
            "p50_seconds": self.p50,
            "p95_seconds": self.p95,
            "p99_seconds": self.p99,
            "mean_seconds": self.mean,
            "max_seconds": self.max,
        }


def _summarise(hist: Histogram) -> Optional[LatencySummary]:
    """Percentile summary of a histogram (None when empty).

    Exact while the sample count fits the histogram's ring; beyond that
    p50/p95/p99 come from the whole-stream P² sketches and mean/max from
    the exact running aggregates.
    """
    if hist.count == 0:
        return None
    return LatencySummary(
        count=int(hist.count),
        p50=float(hist.percentile(50.0)),
        p95=float(hist.percentile(95.0)),
        p99=float(hist.percentile(99.0)),
        mean=float(hist.mean),
        max=float(hist.max),
    )


class ServingTelemetry:
    """Accumulates per-request and per-batch measurements for one server.

    All recorders (including the streaming-session ones and ``reset()``)
    take an internal lock, so the runtime's dispatcher and admitting threads
    can report into one instance without corrupting counters; the lock is
    uncontended (and cheap) for the synchronous server.

    Parameters
    ----------
    registry:
        The :class:`~repro.obs.metrics.MetricsRegistry` to record into
        (a private one is created when omitted).  Exposed as
        ``self.registry`` for the exporters.
    sample_capacity:
        Ring size for every latency/depth histogram.  Must be at least
        the largest window ``recent_p95()`` is asked for.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        sample_capacity: int = 4096,
    ) -> None:
        self._lock = threading.Lock()
        self.registry = registry if registry is not None else MetricsRegistry(sample_capacity)
        self.sample_capacity = int(sample_capacity)
        r = self.registry
        cap = self.sample_capacity
        # Request-path histograms (bounded: ring of ``cap`` + P² sketches).
        self._latencies = r.histogram("serving_request_latency_seconds", capacity=cap)
        self._batch_sizes = r.histogram("serving_batch_size", capacity=cap)
        self._batch_seconds = r.histogram("serving_batch_seconds", capacity=cap)
        self._solver_latencies: Dict[str, Histogram] = {}
        self._fallback_hops: Dict[str, Counter] = {}
        self._c_requests = r.counter("serving_requests_total")
        self._c_sketches = r.counter("serving_sketch_requests_total")
        self._c_batches = r.counter("serving_batches_total")
        self._c_fallback_batches = r.counter("serving_fallback_batches_total")
        self._c_failures = r.counter("serving_failed_requests_total")
        # Concurrent-runtime series (see repro.serving.runtime).
        self._lane_latencies: Dict[str, Histogram] = {}
        self._queue_depths = r.histogram("runtime_queue_depth", capacity=cap)
        self._g_queue_depth = r.gauge("runtime_queue_depth_current")
        self._g_active_shards = r.gauge("runtime_active_shards")
        self._sheds_by_reason: Dict[str, Counter] = {}
        self._sheds_by_lane: Dict[str, Counter] = {}
        self._c_shed = r.counter("runtime_requests_shed_total")
        self._c_admitted = r.counter("runtime_requests_admitted_total")
        self._c_admission_rejects = r.counter("runtime_admission_rejects_total")
        # Streaming-session series (see repro.serving.streaming).
        self._c_streams_opened = r.counter("stream_sessions_opened_total")
        self._c_streams_closed = r.counter("stream_sessions_closed_total")
        self._c_stream_rows = r.counter("stream_rows_total")
        self._c_stream_batches = r.counter("stream_batches_total")
        self._c_stream_resolves = r.counter("stream_resolves_total")
        self._c_stream_drift = r.counter("stream_drift_events_total")
        self._c_stream_ingest_seconds = r.counter("stream_ingest_seconds_total")
        self._c_stream_resolve_seconds = r.counter("stream_resolve_seconds_total")
        self._stream_staleness = r.histogram("stream_staleness_rows", capacity=cap)
        # Frequency-analytics series (see repro.serving.frequency).
        self._c_freq_opened = r.counter("frequency_sessions_opened_total")
        self._c_freq_closed = r.counter("frequency_sessions_closed_total")
        self._c_freq_items = r.counter("frequency_items_total")
        self._c_freq_batches = r.counter("frequency_batches_total")
        self._c_freq_queries = r.counter("frequency_queries_total")
        self._c_freq_query_seconds = r.counter("frequency_query_seconds_total")
        self._c_freq_ingest_seconds = r.counter("frequency_ingest_seconds_total")
        self._freq_queries_by_kind: Dict[str, Counter] = {}
        # Durability series (see repro.durability / repro.serving.streaming).
        self._c_checkpoints = r.counter("durability_checkpoints_total")
        self._c_checkpoint_bytes = r.counter("durability_checkpoint_bytes_total")
        self._c_wal_appends = r.counter("durability_wal_appends_total")
        self._c_wal_bytes = r.counter("durability_wal_bytes_total")
        self._c_restores = r.counter("durability_restores_total")
        self._c_replayed_batches = r.counter("durability_replayed_batches_total")
        self._c_corrupt_checkpoints = r.counter("durability_corrupt_checkpoints_total")
        self._c_wal_truncations = r.counter("durability_wal_truncations_total")
        self._c_sessions_evicted = r.counter("stream_sessions_evicted_total")
        self._g_passivated = r.gauge("durability_passivated_sessions")

    # ------------------------------------------------------------------
    # derived counter attributes (read-only views over the registry)
    # ------------------------------------------------------------------
    @property
    def requests_served(self) -> int:
        return int(self._c_requests.value)

    @property
    def sketch_requests(self) -> int:
        return int(self._c_sketches.value)

    @property
    def batches_executed(self) -> int:
        return int(self._c_batches.value)

    @property
    def fallback_batches(self) -> int:
        return int(self._c_fallback_batches.value)

    @property
    def failed_requests(self) -> int:
        return int(self._c_failures.value)

    @property
    def requests_shed(self) -> int:
        return int(self._c_shed.value)

    @property
    def requests_admitted(self) -> int:
        return int(self._c_admitted.value)

    @property
    def admission_rejects(self) -> int:
        return int(self._c_admission_rejects.value)

    @property
    def streams_opened(self) -> int:
        return int(self._c_streams_opened.value)

    @property
    def streams_closed(self) -> int:
        return int(self._c_streams_closed.value)

    @property
    def stream_rows(self) -> int:
        return int(self._c_stream_rows.value)

    @property
    def stream_batches(self) -> int:
        return int(self._c_stream_batches.value)

    @property
    def stream_resolves(self) -> int:
        return int(self._c_stream_resolves.value)

    @property
    def stream_drift_events(self) -> int:
        return int(self._c_stream_drift.value)

    @property
    def stream_ingest_seconds(self) -> float:
        return float(self._c_stream_ingest_seconds.value)

    @property
    def stream_resolve_seconds(self) -> float:
        return float(self._c_stream_resolve_seconds.value)

    @property
    def checkpoints_written(self) -> int:
        return int(self._c_checkpoints.value)

    @property
    def checkpoint_bytes(self) -> int:
        return int(self._c_checkpoint_bytes.value)

    @property
    def wal_appends(self) -> int:
        return int(self._c_wal_appends.value)

    @property
    def wal_bytes(self) -> int:
        return int(self._c_wal_bytes.value)

    @property
    def restores(self) -> int:
        return int(self._c_restores.value)

    @property
    def replayed_batches(self) -> int:
        return int(self._c_replayed_batches.value)

    @property
    def corrupt_checkpoints(self) -> int:
        return int(self._c_corrupt_checkpoints.value)

    @property
    def wal_truncations(self) -> int:
        return int(self._c_wal_truncations.value)

    @property
    def sessions_evicted(self) -> int:
        return int(self._c_sessions_evicted.value)

    @property
    def passivated_sessions(self) -> int:
        return int(self._g_passivated.value)

    # ------------------------------------------------------------------
    def record_request(self, latency_seconds: float, solver: Optional[str] = None) -> None:
        """Record one served solve request's latency.

        ``solver`` (the solver that actually executed, after any planner
        fallback) additionally lands the latency in that solver's own
        histogram, so the per-solver p50/p99 the planner's routing produces
        are directly observable.
        """
        with self._lock:
            self._latencies.observe(float(latency_seconds))
            self._c_requests.inc()
            if solver:
                hist = self._solver_latencies.get(solver)
                if hist is None:
                    hist = self.registry.histogram(
                        "serving_solver_latency_seconds",
                        capacity=self.sample_capacity,
                        solver=solver,
                    )
                    self._solver_latencies[solver] = hist
                hist.observe(float(latency_seconds))

    def record_requests(self, latencies: Iterable[float]) -> None:
        """Bulk-record served request latencies (vectorised ring ingest)."""
        arr = np.asarray(list(latencies) if not isinstance(latencies, np.ndarray) else latencies)
        with self._lock:
            self._latencies.observe_many(arr)
            self._c_requests.inc(arr.size)

    def record_fallback(self, from_solver: str, to_solver: str) -> None:
        """Record one fallback hop a batch took (planned -> executed)."""
        hop = f"{from_solver}->{to_solver}"
        with self._lock:
            counter = self._fallback_hops.get(hop)
            if counter is None:
                counter = self.registry.counter(
                    "serving_fallback_hops_total", src=from_solver, dst=to_solver
                )
                self._fallback_hops[hop] = counter
            counter.inc()
            self._c_fallback_batches.inc()

    def record_failure(self, count: int = 1) -> None:
        """Record requests whose whole fallback chain failed."""
        with self._lock:
            self._c_failures.inc(int(count))

    def record_sketch(self, latency_seconds: float) -> None:
        """Record one served sketch request's latency."""
        with self._lock:
            self._latencies.observe(float(latency_seconds))
            self._c_sketches.inc()

    def record_batch(self, size: int, seconds: float) -> None:
        """Record one executed micro-batch."""
        with self._lock:
            self._batch_sizes.observe(int(size))
            self._batch_seconds.observe(float(seconds))
            self._c_batches.inc()

    # ------------------------------------------------------------------
    # concurrent runtime (admission queue, lanes, shedding)
    # ------------------------------------------------------------------
    def _shed_counter_locked(self, lane: str) -> Counter:
        counter = self._sheds_by_lane.get(lane)
        if counter is None:
            counter = self.registry.counter("runtime_shed_total", lane=lane)
            self._sheds_by_lane[lane] = counter
        return counter

    def record_admission(self, lane: str) -> None:
        """Record one request admitted into the bounded queue."""
        with self._lock:
            self._c_admitted.inc()
            self.registry.counter("runtime_admitted_total", lane=lane).inc()
            self._shed_counter_locked(lane)  # lane becomes visible at 0 sheds

    def record_admission_reject(self, lane: str) -> None:
        """Record one request bounced at admission (queue full)."""
        with self._lock:
            self._c_admission_rejects.inc()
            self.registry.counter("runtime_admission_rejects_by_lane_total", lane=lane).inc()

    def record_queue_depth(self, depth: int) -> None:
        """Sample the admission-queue depth (taken at submit and dispatch)."""
        with self._lock:
            self._queue_depths.observe(int(depth))
            self._g_queue_depth.set(int(depth))

    def set_active_shards(self, count: int) -> None:
        """Publish the elastic pool's current active-shard count."""
        with self._lock:
            self._g_active_shards.set(int(count))

    def record_shed(self, lane: str, reason: str, count: int = 1) -> None:
        """Record requests shed by the dispatcher (deadline, shutdown, ...)."""
        with self._lock:
            self._c_shed.inc(int(count))
            by_reason = self._sheds_by_reason.get(reason)
            if by_reason is None:
                by_reason = self.registry.counter("runtime_shed_by_reason_total", reason=reason)
                self._sheds_by_reason[reason] = by_reason
            by_reason.inc(int(count))
            self._shed_counter_locked(lane).inc(int(count))

    def record_lane_latency(self, lane: str, latency_seconds: float) -> None:
        """Record one completed request's latency under its admission lane.

        Lane latencies are *queue-inclusive* (admission to completion on the
        simulated clock), unlike the per-solver histograms which measure
        service time only -- the difference between the two is the queueing
        delay the elastic policy exists to keep bounded.
        """
        with self._lock:
            hist = self._lane_latencies.get(lane)
            if hist is None:
                hist = self.registry.histogram(
                    "runtime_lane_latency_seconds",
                    capacity=self.sample_capacity,
                    lane=lane,
                )
                self._lane_latencies[lane] = hist
            hist.observe(float(latency_seconds))

    def lane_latency_summary(self, lane: str) -> Optional[LatencySummary]:
        """Queue-inclusive latency percentiles for one lane (None if unused)."""
        with self._lock:
            hist = self._lane_latencies.get(lane)
        if hist is None:
            return None
        return _summarise(hist)

    def lanes_seen(self) -> List[str]:
        """Lanes with at least one completed request."""
        with self._lock:
            return list(self._lane_latencies)

    def shed_counts(self) -> Dict[str, int]:
        """Per-reason shed counters."""
        with self._lock:
            return {reason: int(c.value) for reason, c in self._sheds_by_reason.items()}

    def sheds_by_lane(self) -> Dict[str, int]:
        """Per-lane shed counters."""
        with self._lock:
            return {lane: int(c.value) for lane, c in self._sheds_by_lane.items()}

    def queue_depth_max(self) -> int:
        """Deepest admission queue observed (0 when never sampled)."""
        with self._lock:
            return int(self._queue_depths.max)

    def queue_depth_mean(self) -> float:
        """Mean sampled admission-queue depth (0 when never sampled)."""
        with self._lock:
            return float(self._queue_depths.mean)

    def recent_p95(self, window: int = 64) -> Optional[float]:
        """p95 of the most recent ``window`` request latencies.

        This is the latency signal the elastic policy scales on: recent
        enough to track the current load phase rather than the whole
        history.  ``None`` before any request completes.  Exact for any
        ``window <= sample_capacity`` (the ring always holds the tail).
        """
        with self._lock:
            return self._latencies.recent_percentile(95.0, int(window))

    # ------------------------------------------------------------------
    # streaming sessions
    # ------------------------------------------------------------------
    def record_stream_open(self) -> None:
        """Record one opened streaming session."""
        with self._lock:
            self._c_streams_opened.inc()

    def record_stream_close(self) -> None:
        """Record one closed streaming session."""
        with self._lock:
            self._c_streams_closed.inc()

    def record_stream_ingest(self, rows: int, seconds: float) -> None:
        """Record one ingested batch (row count and simulated ingest time)."""
        with self._lock:
            self._c_stream_batches.inc()
            self._c_stream_rows.inc(int(rows))
            self._c_stream_ingest_seconds.inc(float(seconds))

    def record_stream_resolve(self, count: int = 1, seconds: float = 0.0) -> None:
        """Record streaming re-solves (lazy query or drift triggered).

        ``seconds`` is the re-solve's simulated compute time, so eager
        (drift/warmup) solves inside an ingest are costed the same way as
        query-time ones instead of vanishing from the accounting.
        """
        with self._lock:
            self._c_stream_resolves.inc(int(count))
            self._c_stream_resolve_seconds.inc(float(seconds))

    def record_stream_drift(self, count: int = 1) -> None:
        """Record drift-detector firings across all sessions."""
        with self._lock:
            self._c_stream_drift.inc(int(count))

    def record_stream_query(self, staleness_rows: int) -> None:
        """Record one solution query and the staleness it was served at."""
        with self._lock:
            self._stream_staleness.observe(float(staleness_rows))

    # ------------------------------------------------------------------
    # frequency-analytics sessions
    # ------------------------------------------------------------------
    @property
    def frequency_sessions_opened(self) -> int:
        return int(self._c_freq_opened.value)

    @property
    def frequency_sessions_closed(self) -> int:
        return int(self._c_freq_closed.value)

    @property
    def frequency_items(self) -> int:
        return int(self._c_freq_items.value)

    @property
    def frequency_batches(self) -> int:
        return int(self._c_freq_batches.value)

    @property
    def frequency_queries(self) -> int:
        return int(self._c_freq_queries.value)

    @property
    def frequency_query_seconds(self) -> float:
        return float(self._c_freq_query_seconds.value)

    @property
    def frequency_ingest_seconds(self) -> float:
        return float(self._c_freq_ingest_seconds.value)

    def record_frequency_open(self) -> None:
        """Record one opened frequency-analytics session."""
        with self._lock:
            self._c_freq_opened.inc()

    def record_frequency_close(self) -> None:
        """Record one closed frequency-analytics session."""
        with self._lock:
            self._c_freq_closed.inc()

    def record_frequency_ingest(self, items: int, seconds: float) -> None:
        """Record one ingested item batch (count and simulated fold time)."""
        with self._lock:
            self._c_freq_batches.inc()
            self._c_freq_items.inc(int(items))
            self._c_freq_ingest_seconds.inc(float(seconds))

    def record_frequency_query(self, kind: str, seconds: float) -> None:
        """Record one answered frequency query under its query type.

        ``kind`` is one of the catalog's query types (``point`` /
        ``heavy_hitters`` / ``norm`` / ``range``); each gets its own
        labelled counter so the query mix is observable per type.
        """
        with self._lock:
            self._c_freq_queries.inc()
            self._c_freq_query_seconds.inc(float(seconds))
            counter = self._freq_queries_by_kind.get(kind)
            if counter is None:
                counter = self.registry.counter(
                    "frequency_queries_by_kind_total", kind=kind
                )
                self._freq_queries_by_kind[kind] = counter
            counter.inc()

    def frequency_query_counts(self) -> Dict[str, int]:
        """Per-kind frequency query counters."""
        with self._lock:
            return {kind: int(c.value) for kind, c in self._freq_queries_by_kind.items()}

    # ------------------------------------------------------------------
    # durability (checkpoint / WAL / restore / eviction)
    # ------------------------------------------------------------------
    def record_checkpoint(self, nbytes: int) -> None:
        """Record one session snapshot written to the checkpoint store."""
        with self._lock:
            self._c_checkpoints.inc()
            self._c_checkpoint_bytes.inc(int(nbytes))

    def record_wal_append(self, nbytes: int) -> None:
        """Record one batch framed into a session's write-ahead log."""
        with self._lock:
            self._c_wal_appends.inc()
            self._c_wal_bytes.inc(int(nbytes))

    def record_restore(self, replayed_batches: int) -> None:
        """Record one session restored (checkpoint + replayed WAL tail)."""
        with self._lock:
            self._c_restores.inc()
            self._c_replayed_batches.inc(int(replayed_batches))

    def record_corrupt_checkpoint(self) -> None:
        """Record a checkpoint that failed its typed decode (no fallback yet)."""
        with self._lock:
            self._c_corrupt_checkpoints.inc()

    def record_wal_truncation(self) -> None:
        """Record a WAL whose tail was dropped at replay (torn or corrupt)."""
        with self._lock:
            self._c_wal_truncations.inc()

    def record_session_evicted(self, reason: str) -> None:
        """Record one session evicted (``reason``: ttl / capacity / manual)."""
        with self._lock:
            self._c_sessions_evicted.inc()
            self.registry.counter(
                "stream_sessions_evicted_by_reason_total", reason=reason
            ).inc()

    def set_passivated_sessions(self, count: int) -> None:
        """Publish how many evicted-but-durable sessions await resurrection."""
        with self._lock:
            self._g_passivated.set(int(count))

    def eviction_counts(self) -> Dict[str, int]:
        """Per-reason eviction counts (reasons with evictions since reset)."""
        breakdown = self.registry.labelled_values(
            "stream_sessions_evicted_by_reason_total", "reason"
        )
        return {reason: int(v) for reason, v in breakdown.items() if v > 0}

    def stream_ingest_rows_per_second(self) -> float:
        """Sustained ingest rate over all sessions (simulated seconds)."""
        seconds = self.stream_ingest_seconds
        if seconds <= 0.0:
            return 0.0
        return self.stream_rows / seconds

    def stream_mean_staleness(self) -> float:
        """Average rows-behind-the-stream at query time (0 when no queries)."""
        with self._lock:
            return float(self._stream_staleness.mean)

    # ------------------------------------------------------------------
    def latency_summary(self) -> Optional[LatencySummary]:
        """p50/p95/p99 latency over everything served so far (None when idle)."""
        return _summarise(self._latencies)

    def solver_latency_summary(self, solver: str) -> Optional[LatencySummary]:
        """Latency percentiles for one executed solver (None if never used)."""
        with self._lock:
            hist = self._solver_latencies.get(solver)
        if hist is None:
            return None
        return _summarise(hist)

    def solvers_seen(self) -> List[str]:
        """Executed-solver names with at least one recorded request."""
        with self._lock:
            return list(self._solver_latencies)

    def fallback_counts(self) -> Dict[str, int]:
        """``"from->to"`` fallback-hop counters."""
        with self._lock:
            return {hop: int(c.value) for hop, c in self._fallback_hops.items()}

    def mean_batch_size(self) -> float:
        """Average fused batch size (0 when no batch ran)."""
        with self._lock:
            return float(self._batch_sizes.mean)

    def throughput(self, makespan_seconds: float) -> float:
        """Requests per simulated second given the pool's makespan."""
        total = self.requests_served + self.sketch_requests
        if makespan_seconds <= 0.0:
            return 0.0
        return total / makespan_seconds

    # ------------------------------------------------------------------
    def snapshot(self, makespan_seconds: Optional[float] = None) -> Dict[str, float]:
        """One flat dict with every headline number (for reports and tests)."""
        out: Dict[str, float] = {
            "requests_served": float(self.requests_served),
            "sketch_requests": float(self.sketch_requests),
            "batches_executed": float(self.batches_executed),
            "mean_batch_size": self.mean_batch_size(),
        }
        summary = self.latency_summary()
        if summary is not None:
            out.update(summary.as_dict())
        out["fallback_batches"] = float(self.fallback_batches)
        out["failed_requests"] = float(self.failed_requests)
        if self.requests_admitted or self.requests_shed or self.admission_rejects:
            out["requests_admitted"] = float(self.requests_admitted)
            out["requests_shed"] = float(self.requests_shed)
            out["admission_rejects"] = float(self.admission_rejects)
            out["queue_depth_max"] = float(self.queue_depth_max())
            out["queue_depth_mean"] = self.queue_depth_mean()
            for reason, count in self.shed_counts().items():
                out[f"shed_{reason}"] = float(count)
            for lane in self.lanes_seen():
                s = self.lane_latency_summary(lane)
                if s is None:
                    continue
                out[f"lane_{lane}_requests"] = float(s.count)
                out[f"lane_{lane}_p50_seconds"] = s.p50
                out[f"lane_{lane}_p95_seconds"] = s.p95
                out[f"lane_{lane}_p99_seconds"] = s.p99
            for lane, count in self.sheds_by_lane().items():
                out[f"lane_{lane}_shed"] = float(count)
        if self.streams_opened or self.streams_closed or self.stream_batches:
            out["streams_opened"] = float(self.streams_opened)
            out["streams_closed"] = float(self.streams_closed)
            out["stream_rows_ingested"] = float(self.stream_rows)
            out["stream_batches"] = float(self.stream_batches)
            out["stream_resolves"] = float(self.stream_resolves)
            out["stream_resolve_seconds"] = self.stream_resolve_seconds
            out["stream_ingest_seconds"] = self.stream_ingest_seconds
            out["stream_drift_events"] = float(self.stream_drift_events)
            out["stream_ingest_rows_per_second"] = self.stream_ingest_rows_per_second()
            out["stream_mean_staleness_rows"] = self.stream_mean_staleness()
        if self.frequency_sessions_opened or self.frequency_batches or self.frequency_queries:
            out["frequency_sessions_opened"] = float(self.frequency_sessions_opened)
            out["frequency_sessions_closed"] = float(self.frequency_sessions_closed)
            out["frequency_items_ingested"] = float(self.frequency_items)
            out["frequency_batches"] = float(self.frequency_batches)
            out["frequency_queries"] = float(self.frequency_queries)
            out["frequency_query_seconds"] = self.frequency_query_seconds
            out["frequency_ingest_seconds"] = self.frequency_ingest_seconds
            for kind, count in self.frequency_query_counts().items():
                out[f"frequency_{kind}_queries"] = float(count)
        if self.checkpoints_written or self.wal_appends or self.restores or self.sessions_evicted:
            out["durability_checkpoints"] = float(self.checkpoints_written)
            out["durability_checkpoint_bytes"] = float(self.checkpoint_bytes)
            out["durability_wal_appends"] = float(self.wal_appends)
            out["durability_wal_bytes"] = float(self.wal_bytes)
            out["durability_restores"] = float(self.restores)
            out["durability_replayed_batches"] = float(self.replayed_batches)
            out["durability_corrupt_checkpoints"] = float(self.corrupt_checkpoints)
            out["durability_wal_truncations"] = float(self.wal_truncations)
            out["durability_passivated_sessions"] = float(self.passivated_sessions)
            out["stream_sessions_evicted"] = float(self.sessions_evicted)
            for reason, count in self.eviction_counts().items():
                out[f"stream_evicted_{reason}"] = float(count)
        for solver in self.solvers_seen():
            s = self.solver_latency_summary(solver)
            if s is None:
                continue
            out[f"solver_{solver}_requests"] = float(s.count)
            out[f"solver_{solver}_p50_seconds"] = s.p50
            out[f"solver_{solver}_p99_seconds"] = s.p99
        if makespan_seconds is not None:
            out["makespan_seconds"] = float(makespan_seconds)
            out["requests_per_second"] = self.throughput(makespan_seconds)
        return out

    def reset(self) -> None:
        """Clear every measurement (under the lock: workers may be recording).

        Registry registrations survive -- a scrape endpoint keeps its
        series at zero -- but the per-name handle maps are cleared so
        ``lanes_seen()``/``solvers_seen()`` report empty again.
        """
        with self._lock:
            self.registry.reset()
            self._solver_latencies.clear()
            self._fallback_hops.clear()
            self._lane_latencies.clear()
            self._sheds_by_reason.clear()
            self._sheds_by_lane.clear()
            self._freq_queries_by_kind.clear()
