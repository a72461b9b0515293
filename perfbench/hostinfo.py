"""Host fingerprint recorded with every benchmark result.

Wall-clock numbers only compare between runs on the same kind of host with
the same numerical stack, so every result carries the core count, the
Python/NumPy/SciPy versions and, for each OpenBLAS that NumPy and SciPy
load, its vendor string, version and live thread count.  The thread count
is read back from the library through ``ctypes`` (threadpoolctl is not a
dependency), which is how the benchmark proves its BLAS pinning took.

Import this module only after the pinning variables are set: it imports
NumPy and SciPy.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from typing import Dict, Optional

#: Environment every benchmark process runs under.  One BLAS thread per
#: process: NumPy and SciPy each load their own OpenBLAS, and two default
#: pools oversubscribe a small host badly enough to swamp every other effect.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_CONFIG_SYMBOLS = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _openblas_probe(package) -> Dict[str, object]:
    """Vendor/version from the build config, config string and threads live."""
    out: Dict[str, object] = {}
    try:
        blas = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out["vendor"] = str(blas.get("name", "unknown"))
        out["version"] = str(blas.get("version", "unknown"))
    except (AttributeError, KeyError, TypeError):
        out["vendor"] = out["version"] = "unknown"
    libdir = os.path.join(
        os.path.dirname(os.path.dirname(package.__file__)), package.__name__ + ".libs"
    )
    threads: Optional[int] = None
    config: Optional[str] = None
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in _THREAD_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        for sym in _CONFIG_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_char_p
                config = fn().decode("ascii", "replace").strip()
                break
    out["threads"] = threads
    out["config"] = config
    return out


def fingerprint() -> Dict[str, object]:
    """The host/stack identity two results must share to be compared."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _openblas_probe(numpy),
        "scipy_blas": _openblas_probe(scipy),
    }


def blas_pinned(fp: Dict[str, object]) -> bool:
    """Whether every BLAS whose thread count could be read runs one thread."""
    for key in ("numpy_blas", "scipy_blas"):
        threads = fp[key].get("threads")  # type: ignore[union-attr]
        if threads is not None and threads != 1:
            return False
    return True


#: Pace the benchmark's timings are scaled to: the milliseconds
#: :func:`reference_ms` takes on an undisturbed core of the host the
#: benchmark was tuned on.
REFERENCE_NOMINAL_MS = 10.0


def reference_ms() -> float:
    """Wall milliseconds of a fixed CPU task: the host's pace right now.

    On a shared host a neighbour can slow this core by ~45% for minutes at a
    time.  The task mixes what the program spends its time on (interpreter
    bytecode, small BLAS calls, scattered adds), so its time moves with the
    program's; timings taken next to it are scaled by
    ``REFERENCE_NOMINAL_MS / reference_ms()``.
    """
    import time

    import numpy as np

    a = np.linspace(-1.0, 1.0, 256 * 256).reshape(256, 256)
    idx = np.arange(100000) * 7919 % 4096
    acc = np.zeros(4096)
    t0 = time.perf_counter()
    total = 0
    for i in range(60000):
        total += i * i
    for _ in range(6):
        a = a @ a
        a /= np.abs(a).max()
    np.add.at(acc, idx, 1.0)
    return (time.perf_counter() - t0) * 1e3

