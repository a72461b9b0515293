"""Shared fixtures for the test-suite.

Most tests need a numeric executor with memory tracking disabled (so shapes
can be chosen for test speed rather than device realism), a seeded NumPy
generator, and a small random matrix.  Keeping them here avoids repeating the
setup in every module.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from repro.gpu.device import TEST_DEVICE, H100_SXM5
from repro.gpu.executor import GPUExecutor

#: Module-name prefixes auto-marked ``planner`` (see pyproject.toml markers);
#: mirrors the hook in benchmarks/conftest.py so the whole routing subset --
#: unit and benchmark alike -- runs with ``pytest -m planner``.
_PLANNER_PREFIXES = ("test_registry", "test_planner", "test_solver_routing")

#: Module-name prefixes auto-marked ``streaming`` (same pattern: the online
#: engine's unit, serving-session and benchmark modules all run with
#: ``pytest -m streaming``).
_STREAMING_PREFIXES = ("test_streaming",)

#: Module-name prefixes auto-marked ``runtime`` (concurrent serving runtime;
#: mirrors benchmarks/conftest.py so ``pytest -m runtime`` runs the unit
#: tests and the acceptance benchmark together).
_RUNTIME_PREFIXES = ("test_runtime", "test_concurrent_runtime")

#: Module-name prefixes auto-marked ``obs`` (tracing, metrics registry,
#: exporters, perf-trajectory record; ``pytest -m obs`` runs the subset).
_OBS_PREFIXES = (
    "test_obs", "test_metrics", "test_trace", "test_exporters", "test_record_bench",
)

#: Module-name prefixes auto-marked ``slo`` (closed-loop observability:
#: cost calibration, SLO burn-rate engine, bench comparison; mirrors
#: benchmarks/conftest.py so ``pytest -m slo`` runs the whole subset).
_SLO_PREFIXES = ("test_slo", "test_calibrat", "test_compare_bench")

#: Module-name prefixes auto-marked ``durability`` (checkpoint/WAL codec,
#: crash recovery, fault injection, session TTL/eviction; mirrors
#: benchmarks/conftest.py so ``pytest -m durability`` runs the subset).
_DURABILITY_PREFIXES = ("test_durability",)

#: Module-name prefixes auto-marked ``frequency`` (frequency-analytics
#: vertical: core sketches, eps-phi property tests, serving sessions,
#: acceptance benchmark; mirrors benchmarks/conftest.py so
#: ``pytest -m frequency`` runs the subset).
_FREQUENCY_PREFIXES = ("test_frequency",)

#: Directory whose every module is auto-marked ``serving`` (server, batcher,
#: cache, scheduler, runtime, sessions, CLI; ``pytest -m serving`` runs the
#: whole serving-layer suite).
_SERVING_DIR = pathlib.Path(__file__).parent / "serving"


def pytest_collection_modifyitems(items):
    """Auto-apply the ``planner``/``streaming``/``runtime``/``obs``/``slo``/``durability``/``frequency`` markers by module prefix, and ``serving`` by directory."""
    for item in items:
        try:
            path = pathlib.Path(str(item.fspath))
        except OSError:  # pragma: no cover - defensive
            continue
        name = path.name
        if path.parent == _SERVING_DIR:
            item.add_marker(pytest.mark.serving)
        if name.startswith(_PLANNER_PREFIXES):
            item.add_marker(pytest.mark.planner)
        if name.startswith(_STREAMING_PREFIXES):
            item.add_marker(pytest.mark.streaming)
        if name.startswith(_RUNTIME_PREFIXES):
            item.add_marker(pytest.mark.runtime)
        if name.startswith(_OBS_PREFIXES):
            item.add_marker(pytest.mark.obs)
        if name.startswith(_SLO_PREFIXES):
            item.add_marker(pytest.mark.slo)
        if name.startswith(_DURABILITY_PREFIXES):
            item.add_marker(pytest.mark.durability)
        if name.startswith(_FREQUENCY_PREFIXES):
            item.add_marker(pytest.mark.frequency)


@pytest.fixture
def executor() -> GPUExecutor:
    """Numeric executor on the paper's H100 with unlimited memory."""
    return GPUExecutor(H100_SXM5, numeric=True, seed=1234, track_memory=False)


@pytest.fixture
def analytic_executor() -> GPUExecutor:
    """Analytic (shape-only) executor on the paper's H100."""
    return GPUExecutor(H100_SXM5, numeric=False, seed=1234, track_memory=False)


@pytest.fixture
def small_executor() -> GPUExecutor:
    """Numeric executor on the tiny test device (1 GB) with memory tracking."""
    return GPUExecutor(TEST_DEVICE, numeric=True, seed=1234, track_memory=True)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic NumPy generator for building test inputs."""
    return np.random.default_rng(20240614)


@pytest.fixture
def tall_matrix(rng) -> np.ndarray:
    """A 4096 x 16 random Gaussian matrix (tall and skinny, like the paper's A)."""
    return rng.standard_normal((4096, 16))
