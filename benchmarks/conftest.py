"""Shared configuration for the benchmark harness.

Each ``test_*`` module regenerates one of the paper's tables or figures.  The
``paper-scale`` timing figures (2-5) are produced by the analytic cost model,
so they run at the paper's true sizes; the accuracy figures (6-8) execute real
floating point and therefore default to proportionally scaled-down grids
(documented in DESIGN.md / EXPERIMENTS.md).  Set the environment variable
``REPRO_BENCH_SCALE=scaled`` to run the accuracy figures at the larger scaled
grid (d up to 2^17).
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.harness.runner import SweepConfig

_BENCH_DIR = pathlib.Path(__file__).parent.resolve()


#: Module-name prefixes that carry the ``planner`` marker automatically
#: (kept in sync with the marker description in pyproject.toml).
_PLANNER_PREFIXES = ("test_registry", "test_planner", "test_solver_routing")

#: Module-name prefixes that carry the ``streaming`` marker automatically.
_STREAMING_PREFIXES = ("test_streaming",)

#: Module-name prefixes that carry the ``runtime`` marker automatically
#: (the concurrent serving runtime: admission queue, lanes, shedding).
#: ``-m runtime`` runs the whole subset, and the CI fast step
#: includes it next to serving/planner/streaming.
_RUNTIME_PREFIXES = ("test_runtime", "test_concurrent_runtime")

#: Module-name prefixes that carry the ``obs`` marker automatically
#: (tracing, metrics, exporters, perf-trajectory record -- kept in sync
#: with tests/conftest.py so ``-m obs`` runs units and benchmarks alike).
_OBS_PREFIXES = (
    "test_obs", "test_metrics", "test_trace", "test_exporters", "test_record_bench",
)

#: Module-name prefixes that carry the ``slo`` marker automatically
#: (closed-loop observability: calibration, SLO burn rates, bench
#: comparison -- kept in sync with tests/conftest.py).
_SLO_PREFIXES = ("test_slo", "test_calibrat", "test_compare_bench")

#: Module-name prefixes that carry the ``durability`` marker automatically
#: (checkpoint/WAL durability, crash recovery, fault injection -- kept in
#: sync with tests/conftest.py).
_DURABILITY_PREFIXES = ("test_durability",)

#: Module-name prefixes that carry the ``frequency`` marker automatically
#: (frequency-analytics vertical: heavy hitters, norms, hierarchical
#: sketches -- kept in sync with tests/conftest.py).
_FREQUENCY_PREFIXES = ("test_frequency",)


def pytest_collection_modifyitems(items):
    """Mark everything under benchmarks/ with the ``benchmark`` marker.

    This is what lets the unit suite run in isolation with
    ``pytest -m "not benchmark"`` without repeating the marker in every
    module (modules can still add further markers such as ``serving``).
    Registry / routing modules additionally get the ``planner`` marker and
    online-engine modules the ``streaming`` marker, so ``-m planner`` /
    ``-m streaming`` each run their whole subset in one go.
    """
    for item in items:
        try:
            path = pathlib.Path(str(item.fspath)).resolve()
        except OSError:  # pragma: no cover - defensive
            continue
        if _BENCH_DIR in path.parents:
            item.add_marker(pytest.mark.benchmark)
        if path.name.startswith(_PLANNER_PREFIXES):
            item.add_marker(pytest.mark.planner)
        if path.name.startswith(_STREAMING_PREFIXES):
            item.add_marker(pytest.mark.streaming)
        if path.name.startswith(_RUNTIME_PREFIXES):
            item.add_marker(pytest.mark.runtime)
        if path.name.startswith(_OBS_PREFIXES):
            item.add_marker(pytest.mark.obs)
        if path.name.startswith(_SLO_PREFIXES):
            item.add_marker(pytest.mark.slo)
        if path.name.startswith(_DURABILITY_PREFIXES):
            item.add_marker(pytest.mark.durability)
        if path.name.startswith(_FREQUENCY_PREFIXES):
            item.add_marker(pytest.mark.frequency)


def accuracy_scale() -> str:
    """Grid preset used by the numeric (accuracy) benchmarks."""
    return os.environ.get("REPRO_BENCH_SCALE", "quick")


@pytest.fixture(scope="session")
def paper_config() -> SweepConfig:
    """Paper-size grid, analytic cost model, single repetition."""
    return SweepConfig(scale="paper", repetitions=1)


@pytest.fixture(scope="session")
def accuracy_config() -> SweepConfig:
    """Numeric grid for the residual figures."""
    return SweepConfig(scale=accuracy_scale(), numeric=True, repetitions=1)
