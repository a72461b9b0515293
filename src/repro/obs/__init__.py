"""repro.obs: the observability layer -- tracing, bounded metrics, exporters.

Three pieces, layered under the serving stack:

* :mod:`repro.obs.trace` -- :class:`~repro.obs.trace.Tracer` /
  :class:`~repro.obs.trace.Span`: per-request span trees on the simulated
  clock, threaded through admission, queueing, planning, placement, fused
  batch execution, the planner's fallback chain and streaming sessions.
* :mod:`repro.obs.metrics` -- :class:`~repro.obs.metrics.MetricsRegistry`
  with counters, gauges and bounded ring + log-bucket-count histograms.
  The serving layer's families are declared in
  :mod:`repro.serving.telemetry`, whose
  :class:`~repro.serving.telemetry.ServingTelemetry` records into one
  registry and reads every number back from it.
* :mod:`repro.obs.export` -- Prometheus text exposition, JSON snapshots,
  and per-trace waterfall / critical-path reports
  (``repro-serve --metrics`` / ``--dump-trace``).

Two closed-loop pieces consume what the three above produce:

* :mod:`repro.obs.calibrate` --
  :class:`~repro.obs.calibrate.CalibratedEstimator`: online
  measured/analytic cost-correction factors learned from completed
  ``solver:<name>`` spans, feeding planner ranking, deadline shedding and
  proactive scaling.
* :mod:`repro.obs.slo` -- :class:`~repro.obs.slo.SLOConfig` /
  :class:`~repro.obs.slo.SLOEngine`: declarative objectives over the
  registry with Google-SRE-style multi-window burn-rate alerts.

:mod:`repro.obs.bench` defines the ``BENCH_<pr>.json`` perf-trajectory
schema recorded by ``tools/record_bench.py``, compared against the previous
record by ``tools/compare_bench.py``, and enforced in CI.
"""

from repro.obs.bench import BENCH_SCHEMA_VERSION, load_bench, validate_bench, write_bench
from repro.obs.calibrate import CalibratedEstimator, CalibrationKey, shape_bucket
from repro.obs.export import (
    critical_path,
    registry_to_dict,
    render_critical_path,
    render_waterfall,
    to_json,
    to_prometheus,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.slo import SLOConfig, SLOEngine, SLOStatus, default_serving_slos
from repro.obs.trace import NULL_SPAN, Span, Tracer

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "CalibratedEstimator",
    "CalibrationKey",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "SLOConfig",
    "SLOEngine",
    "SLOStatus",
    "Span",
    "Tracer",
    "critical_path",
    "default_serving_slos",
    "load_bench",
    "registry_to_dict",
    "render_critical_path",
    "render_waterfall",
    "shape_bucket",
    "to_json",
    "to_prometheus",
    "validate_bench",
    "write_bench",
]
