"""Error bounds for the frequency-analytics vertical.

The CountSketch frequency estimator (Charikar et al. 2002) admits clean
closed-form guarantees that the planner uses to *size* a sketch from a
requested operating point, and that the property tests pin empirically:

Point queries
    One row's signed-bucket estimate of ``f_i`` is unbiased with variance at
    most ``||f||_2^2 / width`` (the other items land in the same bucket with
    probability ``1/width`` and enter with independent signs).  Chebyshev
    then gives ``P(|err| > eps ||f||_2) <= 1 / (eps^2 width)``; at the
    operating point ``eps = sqrt(3 / width)`` each row fails with
    probability at most ``1/3``, and the median over ``depth`` independent
    rows fails only when at least half the rows fail -- a Chernoff event of
    probability at most ``exp(-depth / 6)``.

Heavy hitters
    An item with ``f_i >= phi ||f||_2`` is recoverable by thresholding at
    ``phi ||f||_2 / 2`` whenever the point-query error is below
    ``phi / 2 * ||f||_2``: the heavy item's estimate stays above the
    threshold and any item lighter than ``(phi - 2 eps) ||f||_2`` stays
    below it.  Hence the *recoverability condition* ``eps <= phi / 2``,
    i.e. ``width >= 12 / phi^2``.

Hierarchical queries
    A dyadic stack over branching factor ``branch`` has
    ``ceil(log_branch(domain))`` levels above the leaves.  A range
    decomposes into at most ``2 (branch - 1)`` nodes per level, and
    threshold descent examines at most ``branch`` children per surviving
    candidate per level -- at most ``levels * branch / phi^2`` point
    queries total (there are at most ``1/phi^2`` items above ``phi
    ||f||_2``), versus the flat scan's ``domain``.

Exact levels
    A level above the leaves whose domain is at most ``width * depth``
    needs no sketch: a dense count array of ``domain`` cells is no larger
    than the table and answers every node query with zero error.  Such a
    level adds nothing to the eps-phi bounds above: a range's error comes
    from its sketched nodes only, and threshold descent through exact
    levels keeps exactly the prefixes whose true weight clears the
    threshold.  Domains shrink going up, so the exact levels are always
    the top ones (:func:`exact_hierarchy_levels`).  The leaf stays a
    sketch even when it would fit.

These are the bounds :mod:`repro.problems.frequency` inverts when planning
a sketch for a requested ``(phi, delta)`` and that
``tests/core/test_frequency_properties.py`` checks at the configured
failure rates.
"""

from __future__ import annotations

import math
from typing import Dict


def point_query_epsilon(width: int) -> float:
    """Relative-to-``||f||_2`` point-query error at the 1/3-per-row point.

    ``eps = sqrt(3 / width)``: the largest ``eps`` for which Chebyshev
    bounds each row's failure probability by ``1/3``, making the median
    across rows exponentially reliable.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    return math.sqrt(3.0 / width)


def point_query_failure(depth: int) -> float:
    """Per-query failure probability of the ``depth``-row median.

    Chernoff bound for at least half of ``depth`` independent 1/3-failure
    rows failing simultaneously: ``exp(-depth / 6)``.
    """
    if depth <= 0:
        raise ValueError("depth must be positive")
    return math.exp(-depth / 6.0)


def width_for_epsilon(eps: float) -> int:
    """Smallest width achieving point-query error ``eps * ||f||_2``."""
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    return int(math.ceil(3.0 / (eps * eps)))


def depth_for_failure(delta: float) -> int:
    """Smallest depth achieving per-query failure probability ``delta``."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return max(1, int(math.ceil(6.0 * math.log(1.0 / delta))))


def heavy_hitter_guarantee(phi: float, width: int, depth: int) -> Dict[str, float]:
    """The eps-phi guarantee a ``(width, depth)`` table offers at level ``phi``.

    Returns a dict with the achieved ``eps`` and ``delta``, whether the
    sketch satisfies the recoverability condition ``eps <= phi / 2`` (every
    true ``phi``-heavy hitter is found, no item lighter than
    ``(phi - 2 eps) ||f||_2`` is reported), and the separation margin.
    """
    if not 0.0 < phi <= 1.0:
        raise ValueError(f"phi must lie in (0, 1], got {phi}")
    eps = point_query_epsilon(width)
    return {
        "phi": float(phi),
        "eps": eps,
        "delta": point_query_failure(depth),
        "recoverable": eps <= phi / 2.0,
        "false_positive_level": max(0.0, phi - 2.0 * eps),
    }


def hierarchy_levels(domain: int, branch: int) -> int:
    """Number of sketch levels a dyadic stack needs (leaves included).

    Levels are added until a level's domain fits within ``branch`` nodes,
    so the top level is always enumerable without a scan.
    """
    if domain <= 0:
        raise ValueError("domain must be positive")
    if branch < 2:
        raise ValueError("branch must be at least 2")
    levels = 1
    while domain > branch:
        domain = (domain + branch - 1) // branch
        levels += 1
    return levels


def exact_hierarchy_levels(domain: int, branch: int, width: int, depth: int) -> int:
    """Number of levels above the leaves counted exactly, not sketched.

    A level ``l >= 1`` of the dyadic stack is an exact dense count array
    when its domain is at most ``width * depth`` -- the cells its sketch
    would hold.  An exact level adds zero point-query error.  The leaf
    (level 0) is never counted.
    """
    if width <= 0 or depth <= 0:
        raise ValueError("width and depth must be positive")
    levels = hierarchy_levels(domain, branch)
    cells = width * depth
    exact = 0
    for _ in range(levels - 1):
        domain = (domain + branch - 1) // branch
        exact += domain <= cells
    return exact


def range_query_nodes(domain: int, branch: int) -> int:
    """Worst-case dyadic-cover size: ``2 (branch - 1)`` nodes per level."""
    return 2 * (branch - 1) * hierarchy_levels(domain, branch)


def hierarchical_topk_work(domain: int, branch: int, phi: float) -> Dict[str, float]:
    """Point queries performed by threshold descent vs. the flat scan.

    At most ``1 / phi^2`` items (and hence prefixes per level) can exceed
    ``phi ||f||_2``, so descent examines at most ``levels * branch / phi^2``
    nodes, versus ``domain`` for the flat ``findHH`` scan.  The returned
    ratio is what the acceptance benchmark asserts shrinks with ``domain``.
    """
    if not 0.0 < phi <= 1.0:
        raise ValueError(f"phi must lie in (0, 1], got {phi}")
    levels = hierarchy_levels(domain, branch)
    descent = levels * branch * (1.0 / (phi * phi))
    return {
        "levels": float(levels),
        "descent_queries": descent,
        "flat_queries": float(domain),
        "ratio": descent / float(domain),
    }
