"""Sketching theory: embedding dimensions, distortion, and complexity counts.

This package encodes the analytical content of the paper:

* :mod:`repro.theory.embeddings` -- the embedding dimension each sketch
  family needs to be an :math:`(\\epsilon, \\delta, n)` oblivious subspace
  embedding (Definitions 1.1-1.2).
* :mod:`repro.theory.distortion` -- empirical measurement of the distortion a
  concrete sketch realises on a given subspace.
* :mod:`repro.theory.complexity` -- the arithmetic / memory-traffic / maximum
  distortion table (Table 1).
* :mod:`repro.theory.frequency` -- eps-phi guarantees for the frequency
  vertical: point-query error/failure bounds, heavy-hitter recoverability,
  and hierarchical query work counts.
"""

from repro.theory.embeddings import (
    required_embedding_dim,
    gaussian_embedding_dim,
    srht_embedding_dim,
    countsketch_embedding_dim,
    multisketch_embedding_dims,
    subspace_embedding_holds,
)
from repro.theory.distortion import (
    measure_subspace_distortion,
    measure_pairwise_distortion,
    residual_distortion_bound,
)
from repro.theory.complexity import (
    SketchComplexity,
    complexity_table,
    sketch_complexity,
    solver_complexity,
    streaming_complexity,
)
from repro.theory.frequency import (
    depth_for_failure,
    exact_hierarchy_levels,
    heavy_hitter_guarantee,
    hierarchical_topk_work,
    hierarchy_levels,
    point_query_epsilon,
    point_query_failure,
    range_query_nodes,
    width_for_epsilon,
)

__all__ = [
    "required_embedding_dim",
    "gaussian_embedding_dim",
    "srht_embedding_dim",
    "countsketch_embedding_dim",
    "multisketch_embedding_dims",
    "subspace_embedding_holds",
    "measure_subspace_distortion",
    "measure_pairwise_distortion",
    "residual_distortion_bound",
    "SketchComplexity",
    "complexity_table",
    "sketch_complexity",
    "solver_complexity",
    "streaming_complexity",
    "point_query_epsilon",
    "point_query_failure",
    "width_for_epsilon",
    "depth_for_failure",
    "heavy_hitter_guarantee",
    "hierarchy_levels",
    "exact_hierarchy_levels",
    "range_query_nodes",
    "hierarchical_topk_work",
]
