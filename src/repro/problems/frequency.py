"""The ``frequency`` problem class: planning and building frequency sketches.

Where the solver-backed problem classes answer a :class:`SolveSpec` through
the planner's solver ranking, the frequency class answers *query streams*:
the planning question is not "which solver" but "how large a sketch" for a
requested heavy-hitter level ``phi`` and failure probability ``delta``.
:func:`plan_frequency_sketch` inverts the closed-form bounds of
:mod:`repro.theory.frequency` into concrete table dimensions, and
:func:`build_frequency_sketch` materialises the planned engine -- flat for
enumerable domains, hierarchical (dyadic) whenever the domain is an address
space that a flat ``findHH`` scan could never enumerate, or when range
queries are requested.  A hierarchical plan also decides which levels above
the leaf are counted exactly instead of sketched
(:func:`~repro.theory.frequency.exact_hierarchy_levels`).

The class itself is registered in the
:mod:`repro.linalg.registry` catalog (``get_problem_class("frequency")``);
this module is imported on first use by
:func:`repro.linalg.registry.ensure_problem_solvers`, mirroring how the
ridge solvers register.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.core.countsketch import DENSIFY_LIMIT
from repro.core.frequency import FrequencySketch, HierarchicalFrequencySketch
from repro.gpu.executor import GPUExecutor
from repro.theory.frequency import (
    depth_for_failure,
    exact_hierarchy_levels,
    heavy_hitter_guarantee,
    hierarchical_topk_work,
    hierarchy_levels,
    point_query_epsilon,
    width_for_epsilon,
)

#: Query types the frequency class serves (mirrors the catalog entry).
FREQUENCY_QUERIES = ("point", "heavy_hitters", "norm", "range")


@dataclass(frozen=True)
class FrequencyPlan:
    """A sized frequency-sketch configuration for a requested operating point.

    Attributes
    ----------
    domain:
        Item-universe size the sketch will accept ids from.
    phi:
        Heavy-hitter level: items with ``f_i >= phi ||f||_2`` must be
        recoverable.
    eps:
        Achieved point-query error (``<= phi / 2`` by construction, the
        recoverability condition).
    delta:
        Achieved per-query failure probability.
    width, depth:
        Table dimensions realising ``(eps, delta)``.
    hierarchical:
        Whether the plan builds a dyadic stack (forced for address-space
        domains where a flat heavy-hitter scan would be refused, and
        whenever range queries are requested).
    branch, levels:
        Dyadic branching factor and resulting level count (1 when flat).
    exact_levels:
        How many top levels of the hierarchy are exact dense count arrays
        instead of sketches: every level above the leaf whose domain is at
        most ``width * depth``.  Exact levels add zero point-query error.
        The leaf is always a sketch; 0 for flat plans.
    """

    domain: int
    phi: float
    eps: float
    delta: float
    width: int
    depth: int
    hierarchical: bool
    branch: int
    levels: int
    exact_levels: int = 0

    def guarantee(self) -> dict:
        """The eps-phi guarantee this plan offers (theory reference)."""
        return heavy_hitter_guarantee(self.phi, self.width, self.depth)

    def descent_work(self) -> dict:
        """Planned top-k work vs. a flat scan (hierarchical plans only)."""
        return hierarchical_topk_work(self.domain, self.branch, self.phi)


def plan_frequency_sketch(
    domain: int,
    phi: float = 0.05,
    delta: float = 1e-3,
    *,
    branch: int = 16,
    need_ranges: bool = False,
    max_width: Optional[int] = None,
) -> FrequencyPlan:
    """Size a frequency sketch for a ``(phi, delta)`` operating point.

    The width realises the recoverability condition ``eps = phi / 2``
    (``width = ceil(12 / phi^2)``) and the depth realises ``delta`` via the
    median Chernoff bound.  ``max_width`` optionally caps the table (the
    serving layer's memory guard); the achieved ``eps`` is then recomputed
    from the capped width and may lose recoverability, which the returned
    plan's :meth:`FrequencyPlan.guarantee` makes visible rather than hiding.
    A hierarchical plan counts every level above the leaf whose domain is
    at most the capped ``width * depth`` exactly (``exact_levels``).
    """
    if domain <= 0:
        raise ValueError("domain must be positive")
    if not 0.0 < phi <= 1.0:
        raise ValueError(f"phi must lie in (0, 1], got {phi}")
    width = width_for_epsilon(phi / 2.0)
    if max_width is not None and width > max_width:
        width = int(max_width)
    depth = depth_for_failure(delta)
    hierarchical = bool(need_ranges or domain > DENSIFY_LIMIT)
    levels = hierarchy_levels(domain, branch) if hierarchical else 1
    exact_levels = exact_hierarchy_levels(domain, branch, width, depth) if hierarchical else 0
    return FrequencyPlan(
        domain=int(domain),
        phi=float(phi),
        eps=point_query_epsilon(width),
        delta=float(delta),
        width=width,
        depth=depth,
        hierarchical=hierarchical,
        branch=int(branch),
        levels=levels,
        exact_levels=exact_levels,
    )


def build_frequency_sketch(
    plan: FrequencyPlan,
    *,
    executor: Optional[GPUExecutor] = None,
    seed: Optional[int] = None,
    dtype=np.float64,
) -> Union[FrequencySketch, HierarchicalFrequencySketch]:
    """Materialise the engine a :class:`FrequencyPlan` describes."""
    if plan.hierarchical:
        return HierarchicalFrequencySketch(
            plan.domain,
            plan.width,
            plan.depth,
            branch=plan.branch,
            exact_levels=plan.exact_levels,
            executor=executor,
            seed=seed,
            dtype=dtype,
        )
    return FrequencySketch(
        plan.domain, plan.width, plan.depth, executor=executor, seed=seed, dtype=dtype
    )
