"""The served process sets its own BLAS pool (``repro.blas.SERVED_THREADS``).

The case that reads the process's pools runs in a fresh subprocess with
no pinning variables, so it sees the pools as the libraries start them,
whatever the test process itself has set.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro.blas
from repro.blas import SERVED_THREADS, blas_threads, set_blas_threads

SRC = Path(__file__).resolve().parents[2] / "src"
PINNING = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fresh_process(code: str) -> dict:
    env = {key: value for key, value in os.environ.items() if key not in PINNING}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_building_a_server_pins_both_blas_pools_to_one_thread():
    got = _fresh_process(
        "import json\n"
        "from repro.blas import blas_threads\n"
        "from repro.serving import SketchServer\n"
        "SketchServer(shards=1)\n"
        "print(json.dumps(blas_threads()))\n"
    )
    assert SERVED_THREADS == 1
    assert got == {"numpy": 1, "scipy": 1}


def test_thread_count_must_be_positive():
    with pytest.raises(ValueError):
        set_blas_threads(0)


def test_unknown_blas_warns_once_and_carries_on(monkeypatch):
    monkeypatch.setattr(repro.blas, "_thread_functions", lambda package: None)
    monkeypatch.setattr(repro.blas, "_warned", False)
    with pytest.warns(UserWarning, match="no known OpenBLAS thread symbol"):
        assert set_blas_threads(1) == {"numpy": None, "scipy": None}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a second warning would raise
        assert set_blas_threads(1) == {"numpy": None, "scipy": None}
    assert blas_threads() == {"numpy": None, "scipy": None}
