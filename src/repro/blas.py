"""Thread count of the OpenBLAS pools that NumPy and SciPy load.

NumPy and SciPy wheels each bundle their own OpenBLAS, and each starts a
pool of one thread per core.  On a small host the two pools oversubscribe
the cores, and every solve pays for it (on a 2-core host, a stream of small
served solves ran 6-9x slower with both default pools than with one thread
per library).  The serving stack therefore sets the count itself instead of
relying on ``OPENBLAS_NUM_THREADS`` being exported before the process started:
building a :class:`~repro.serving.server.SketchServer`, and ``repro-serve``
before any work, apply :func:`set_blas_threads` with :data:`SERVED_THREADS`.
The count is process-wide: it holds for every server, solver and thread of
the process.  :func:`blas_threads` reads the live counts.

The thread get/set symbols are looked up through ``ctypes`` in the shared
libraries shipped next to each package (``numpy.libs`` / ``scipy.libs``),
so no extra dependency is needed.  A library exporting none of the known
symbols (another BLAS vendor) is reported as ``None``; setting the count
then warns once per process and leaves that library alone.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import warnings
from typing import Dict, Optional, Tuple

__all__ = ["LIBRARIES", "SERVED_THREADS", "blas_threads", "set_blas_threads"]

#: The packages whose bundled BLAS is managed, in report order.
LIBRARIES = ("numpy", "scipy")

#: Threads per library in a serving process: what every measured number assumes.
SERVED_THREADS = 1

# Symbol stems, in lookup order: NumPy's 64-bit-integer scipy-openblas build,
# SciPy's 32-bit one, then a plain OpenBLAS of either interface.
_STEMS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
          "openblas_{}_num_threads64_", "openblas_{}_num_threads")

_warned = False


@functools.lru_cache(maxsize=None)
def _thread_functions(package: str) -> Optional[Tuple[object, object]]:
    """``(get, set)`` of the OpenBLAS bundled with ``package``, or ``None``."""
    module = __import__(package)
    libdir = os.path.join(os.path.dirname(os.path.dirname(module.__file__)), package + ".libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for stem in _STEMS:
            get, set_ = getattr(lib, stem.format("get"), None), getattr(lib, stem.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def blas_threads() -> Dict[str, Optional[int]]:
    """Live thread count of each library's BLAS (``None``: unknown symbols)."""
    out: Dict[str, Optional[int]] = {}
    for package in LIBRARIES:
        funcs = _thread_functions(package)
        out[package] = None if funcs is None else int(funcs[0]())
    return out


def set_blas_threads(threads: int) -> Dict[str, Optional[int]]:
    """Set every managed library's BLAS pool to ``threads``; returns the live counts.

    Process-wide: every server, solver and thread in the process shares
    these pools.
    """
    global _warned
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    for package in LIBRARIES:
        funcs = _thread_functions(package)
        if funcs is not None:
            funcs[1](int(threads))
    live = blas_threads()
    missing = [package for package, count in live.items() if count is None]
    if missing and not _warned:
        _warned = True
        warnings.warn(
            f"no known OpenBLAS thread symbol in {', '.join(missing)}; "
            "its BLAS thread count is left as the process started it",
            stacklevel=2,
        )
    return live
