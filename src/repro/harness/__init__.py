"""Experiment harness: regenerates every table and figure of the paper.

* :mod:`repro.harness.metrics` -- percent-of-peak bandwidth / FLOP metrics
  (Figures 3-4).
* :mod:`repro.harness.runner` -- repetition/averaging utilities and the
  sweep configuration object.
* :mod:`repro.harness.experiments` -- one entry point per paper artefact
  (``table1``, ``figure2`` ... ``figure8``, ``headline_speedup``,
  ``section7_distributed``) plus the system-growth experiments:
  ``serving_throughput`` (batched vs naive), ``solver_policy`` (adaptive
  routing), ``streaming_drift`` (online engine), ``problem_classes``
  (ridge routing + low-rank accuracy, :mod:`repro.problems`) and
  ``concurrent_load`` (the async runtime on a fixed shard pool: admission
  control and deadline shedding vs the synchronous server) and
  ``perf_trajectory`` (the ``BENCH_<pr>.json`` payload recorded per PR,
  see :mod:`repro.obs.bench` and ``tools/record_bench.py``).
* :mod:`repro.harness.report` -- plain-text renderers that print the same
  rows / series the paper's figures show.
"""

from repro.harness.metrics import percent_of_peak_bandwidth, percent_of_peak_flops
from repro.harness.runner import SweepConfig, average_breakdowns, run_repeated
from repro.harness.experiments import (
    SKETCH_METHODS,
    SOLVER_METHODS,
    concurrent_load,
    table1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    headline_speedup,
    perf_trajectory,
    problem_classes,
    section7_distributed,
    serving_throughput,
    solver_policy,
    streaming_drift,
)
from repro.harness.report import format_table, render_figure_rows, render_breakdown_rows

__all__ = [
    "percent_of_peak_bandwidth",
    "percent_of_peak_flops",
    "SweepConfig",
    "average_breakdowns",
    "run_repeated",
    "SKETCH_METHODS",
    "SOLVER_METHODS",
    "table1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "headline_speedup",
    "perf_trajectory",
    "problem_classes",
    "section7_distributed",
    "concurrent_load",
    "serving_throughput",
    "solver_policy",
    "streaming_drift",
    "format_table",
    "render_figure_rows",
    "render_breakdown_rows",
]
