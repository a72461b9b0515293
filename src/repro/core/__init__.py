"""Sketching operators: the paper's primary contribution.

This package implements every sketch the paper evaluates:

* :class:`~repro.core.countsketch.CountSketch` -- the high-performance
  Algorithm-2 kernel (atomic row accumulation) and the cuSPARSE SpMM baseline.
* :class:`~repro.core.countsketch.StreamingCountSketch` -- the hash-based
  on-the-fly variant sketched as future work in Section 8.
* :class:`~repro.core.gaussian.GaussianSketch` -- dense GEMM-applied Gaussian.
* :class:`~repro.core.srht.SRHT` -- subsampled randomized Hadamard transform
  built on the radix-4 FWHT of Algorithm 3, plus the block SRHT of Section 7.
* :class:`~repro.core.multisketch.MultiSketch` -- composition of sketches,
  with the Count-Gauss configuration used throughout the paper.

All operators share the :class:`~repro.core.base.SketchOperator` interface:
``generate()`` materialises the random state (timed under "Sketch gen"),
``apply()`` sketches a device matrix, ``apply_vector()`` sketches a vector and
``sketch_host()`` is a NumPy-in / NumPy-out convenience wrapper.
"""

from repro.core.base import SketchOperator, default_embedding_dim
from repro.core.countsketch import (
    DENSIFY_LIMIT,
    CountSketch,
    SketchMaterializationError,
    StreamingCountSketch,
)
from repro.core.frequency import (
    ExactFrequencyLevel,
    FrequencySketch,
    HierarchicalFrequencySketch,
)
from repro.core.gaussian import GaussianSketch
from repro.core.srht import SRHT, BlockSRHT
from repro.core.multisketch import MultiSketch, count_gauss, count_srht
from repro.core.fwht import fwht, fwht_matrix, fwht_radix4_inplace, is_power_of_two

__all__ = [
    "SketchOperator",
    "default_embedding_dim",
    "CountSketch",
    "StreamingCountSketch",
    "SketchMaterializationError",
    "DENSIFY_LIMIT",
    "FrequencySketch",
    "ExactFrequencyLevel",
    "HierarchicalFrequencySketch",
    "GaussianSketch",
    "SRHT",
    "BlockSRHT",
    "MultiSketch",
    "count_gauss",
    "count_srht",
    "fwht",
    "fwht_matrix",
    "fwht_radix4_inplace",
    "is_power_of_two",
]
