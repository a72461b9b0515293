"""Seeded property-based tests for the frequency-analytics error bounds.

Hypothesis drives the stream seeds (``derandomize=True`` like
``test_sketch_properties.py``, so the suite is deterministic run to run);
the exact ground truth comes from :class:`repro.workloads.streams.FrequencyStream`,
never from a second sketch.  Four contracts:

1. **Point-query bound**: ``|est - f_i| <= eps ||f||_2`` with
   ``eps = sqrt(3 / width)`` fails for at most a ``delta = exp(-depth / 6)``
   fraction of queried ids (the Chebyshev-per-row / Chernoff-median bound of
   :mod:`repro.theory.frequency`).
2. **Heavy-hitter eps-phi guarantee**: with ``width >= 12 / phi^2`` (i.e.
   ``eps <= phi / 2``), every true ``phi``-heavy item is reported and no
   reported item is lighter than ``(phi - eps) ||f||_2``.
3. **Hierarchical range queries** agree with brute-force truth within the
   canonical cover's accumulated per-node error.
4. **Merge and restore transparency**: the identities are *bitwise* --
   a merged pair of half-stream sketches equals the single-pass sketch, and
   a ``state_dict``/``load_state`` round trip changes no answer -- so every
   bound above holds verbatim for merged and restored sketches.
5. **One-pass update**: the vectorised scatter builds exactly the table of
   the per-row reference loop kept here as the oracle, for every mix of
   weights, merges, scalings and restores, and charges the same kernels.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frequency import FrequencySketch, HierarchicalFrequencySketch, as_index_array
from repro.theory.frequency import (
    point_query_epsilon,
    point_query_failure,
    range_query_nodes,
    width_for_epsilon,
)
from repro.workloads.streams import zipf_stream

SEEDS = st.integers(min_value=0, max_value=10_000)

DOMAIN = 1 << 14


def _feed(sketch, stream) -> None:
    for batch in stream:
        sketch.update(batch.ids, batch.weights)


# ---------------------------------------------------------------------------
# 1. point estimates respect eps * ||f||_2 at the configured failure rate
# ---------------------------------------------------------------------------
@settings(max_examples=6, deadline=None, derandomize=True)
@given(seed=SEEDS)
def test_point_estimates_respect_epsilon_bound(seed):
    width, depth = 256, 7
    eps = point_query_epsilon(width)       # sqrt(3/256) ~ 0.108
    delta = point_query_failure(depth)     # exp(-7/6) ~ 0.31
    stream = zipf_stream(DOMAIN, total_items=20_000, alpha=1.2, seed=seed)
    sketch = FrequencySketch(DOMAIN, width, depth, seed=seed + 1)
    _feed(sketch, stream)

    counts = stream.true_counts()
    l2 = stream.true_l2()
    # Query every id that occurred plus an equal number of absent ids
    # (true frequency 0): the bound covers both.
    present = np.fromiter(counts.keys(), dtype=np.int64)
    rng = np.random.default_rng(seed)
    absent = rng.integers(0, DOMAIN, size=present.size)
    absent = absent[np.fromiter((int(i) not in counts for i in absent), dtype=bool)]
    ids = np.concatenate([present, absent])
    truth = np.array([counts.get(int(i), 0.0) for i in ids])

    est = sketch.point_query(ids)
    failures = np.abs(est - truth) > eps * l2
    assert failures.mean() <= delta, (
        f"{failures.sum()}/{ids.size} point queries broke the eps*l2 bound "
        f"(allowed fraction {delta:.3f})"
    )


# ---------------------------------------------------------------------------
# 2. heavy-hitter recovery achieves the eps-phi guarantee on Zipfian streams
# ---------------------------------------------------------------------------
@settings(max_examples=6, deadline=None, derandomize=True)
@given(seed=SEEDS)
def test_heavy_hitters_eps_phi_guarantee(seed):
    phi = 0.1
    width = width_for_epsilon(phi / 2.0)   # 12 / phi^2 = 1200
    eps = point_query_epsilon(width)
    stream = zipf_stream(DOMAIN, total_items=20_000, alpha=1.3, seed=seed)
    sketch = FrequencySketch(DOMAIN, width, depth=9, seed=seed + 1)
    _feed(sketch, stream)

    l2 = stream.true_l2()
    true_heavy = {i for i, _ in stream.heavy_hitters(phi)}
    reported = dict(sketch.heavy_hitters(phi))

    # Completeness: every true phi-heavy item is recovered (est >= phi*l2_est
    # holds because |est - f| <= eps*l2 and f >= phi*l2 with eps <= phi/2).
    missed = true_heavy - set(reported)
    assert not missed, f"true heavy hitters missed: {sorted(missed)}"
    # Soundness: nothing lighter than (phi - eps) * ||f||_2 is reported.
    counts = stream.true_counts()
    floor = (phi - eps) * l2
    too_light = {
        i for i in reported if counts.get(int(i), 0.0) < floor * (1.0 - 1e-12)
    }
    assert not too_light, f"reported items below (phi-eps)*l2: {sorted(too_light)}"


# ---------------------------------------------------------------------------
# 3. hierarchical range queries vs. brute force on small universes
# ---------------------------------------------------------------------------
@settings(max_examples=6, deadline=None, derandomize=True)
@given(seed=SEEDS, lo_frac=st.floats(0.0, 0.8), span_frac=st.floats(0.05, 0.5))
def test_hierarchical_range_matches_brute_force(seed, lo_frac, span_frac):
    domain, branch = 4096, 4
    width, depth = 2048, 9
    eps = point_query_epsilon(width)
    stream = zipf_stream(domain, total_items=8_000, alpha=1.3, seed=seed)
    sketch = HierarchicalFrequencySketch(
        domain, width, depth, branch=branch, seed=seed + 1
    )
    _feed(sketch, stream)

    lo = int(lo_frac * domain)
    hi = min(domain, lo + max(1, int(span_frac * domain)))
    truth = stream.range_weight(lo, hi)
    est = sketch.range_query(lo, hi)

    # Each node of the canonical cover errs by at most eps * ||f_level||_2
    # (w.h.p.); every level's norm is bounded by the total stream weight
    # ||f||_1, so the cover's accumulated error is bounded by
    # nodes * eps * ||f||_1.
    nodes = range_query_nodes(domain, branch)
    total_weight = float(stream.total_items)
    assert abs(est - truth) <= nodes * eps * total_weight, (
        f"range [{lo}, {hi}): estimate {est} vs truth {truth} "
        f"(allowed {nodes * eps * total_weight:.1f})"
    )


# ---------------------------------------------------------------------------
# 4. merge and restore are bitwise-transparent, so the bounds transfer
# ---------------------------------------------------------------------------
@settings(max_examples=6, deadline=None, derandomize=True)
@given(seed=SEEDS)
def test_merged_sketch_is_bitwise_single_pass(seed):
    width, depth = 512, 5
    stream = zipf_stream(DOMAIN, total_items=10_000, alpha=1.2, seed=seed)
    whole = FrequencySketch(DOMAIN, width, depth, seed=seed + 1)
    left = FrequencySketch(DOMAIN, width, depth, seed=seed + 1)
    right = FrequencySketch(DOMAIN, width, depth, seed=seed + 1)
    batches = list(stream)
    half = len(batches) // 2
    for b in batches:
        whole.update(b.ids, b.weights)
    for b in batches[:half]:
        left.update(b.ids, b.weights)
    for b in batches[half:]:
        right.update(b.ids, b.weights)
    left.merge_from(right)
    np.testing.assert_array_equal(left.table(), whole.table())
    assert left.items_seen == whole.items_seen
    # Identical tables => identical answers; spot-check the query surface.
    ids = stream.all_ids()[:64]
    np.testing.assert_array_equal(left.point_query(ids), whole.point_query(ids))
    assert left.l2_estimate() == whole.l2_estimate()
    assert left.heavy_hitters(0.1) == whole.heavy_hitters(0.1)


@settings(max_examples=6, deadline=None, derandomize=True)
@given(seed=SEEDS)
def test_restored_sketch_answers_bitwise_identically(seed):
    width, depth = 512, 5
    stream = zipf_stream(DOMAIN, total_items=10_000, alpha=1.2, seed=seed)
    original = FrequencySketch(DOMAIN, width, depth, seed=seed + 1)
    _feed(original, stream)
    clone = FrequencySketch(DOMAIN, width, depth, seed=seed + 1)
    clone.load_state(original.state_dict())
    ids = stream.all_ids()[:64]
    np.testing.assert_array_equal(clone.point_query(ids), original.point_query(ids))
    assert clone.l2_estimate() == original.l2_estimate()
    assert clone.heavy_hitters(0.1) == original.heavy_hitters(0.1)


@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=SEEDS)
def test_hierarchical_restore_round_trip(seed):
    domain, branch = 4096, 4
    stream = zipf_stream(domain, total_items=6_000, alpha=1.3, seed=seed)
    original = HierarchicalFrequencySketch(
        domain, 1024, 5, branch=branch, seed=seed + 1
    )
    _feed(original, stream)
    clone = HierarchicalFrequencySketch(
        domain, 1024, 5, branch=branch, seed=seed + 1
    )
    clone.load_state(original.state_dict())
    assert clone.range_query(7, 1023) == original.range_query(7, 1023)
    assert clone.top_k(10, 0.1) == original.top_k(10, 0.1)
    assert clone.l2_estimate() == original.l2_estimate()


def test_mismatched_merge_is_refused():
    a = FrequencySketch(DOMAIN, 256, 5, seed=1)
    b = FrequencySketch(DOMAIN, 256, 5, seed=2)     # different hash seed
    c = FrequencySketch(DOMAIN, 128, 5, seed=1)     # different width
    with pytest.raises(ValueError):
        a.merge_from(b)
    with pytest.raises(ValueError):
        a.merge_from(c)


# ---------------------------------------------------------------------------
# 5. the one-pass update equals the per-row loop bit for bit
# ---------------------------------------------------------------------------
def _oracle_update(sketch: FrequencySketch, table: np.ndarray, ids, weights) -> None:
    """The per-row reference: hash every item in every row, add in stream order."""
    idx = np.asarray(ids, dtype=np.int64).ravel()
    w = np.ones(idx.size, dtype=table.dtype) if weights is None else np.asarray(
        weights, dtype=table.dtype
    )
    for r in range(sketch.depth):
        buckets, signs = sketch.buckets_and_signs(idx, r)
        np.add.at(table[r], buckets, np.where(signs, w, -w))


def _oracle_point_query(sketch: FrequencySketch, table: np.ndarray, ids) -> np.ndarray:
    """The per-row reference point query: median over rows of sign * counter."""
    est = np.empty((sketch.depth, len(ids)), dtype=table.dtype)
    for r in range(sketch.depth):
        buckets, signs = sketch.buckets_and_signs(ids, r)
        est[r] = np.where(signs, 1.0, -1.0) * table[r, buckets]
    return np.median(est, axis=0).astype(table.dtype)


class _Reference:
    """Oracle tables for a flat or hierarchical sketch, one per level."""

    def __init__(self, sketch) -> None:
        self.levels = list(getattr(sketch, "levels", [sketch]))
        self.shift = sketch.branch.bit_length() - 1 if len(self.levels) > 1 else 0
        self.tables = [np.zeros((s.depth, s.width), dtype=s.dtype) for s in self.levels]

    def update(self, ids, weights) -> None:
        idx = np.asarray(ids, dtype=np.int64)
        for lvl, (level, table) in enumerate(zip(self.levels, self.tables)):
            _oracle_update(level, table, idx >> (lvl * self.shift), weights)

    def assert_matches(self, sketch) -> None:
        for level, table in zip(getattr(sketch, "levels", [sketch]), self.tables):
            assert level.table().tobytes() == table.tobytes()


def _random_history(rng, make, domain):
    """Drive a sketch and its oracle through a mixed history, checking each step."""
    sketch = make()
    ref = _Reference(sketch)
    for _ in range(30):
        op = rng.integers(0, 9)
        n = int(rng.integers(1, 600))
        ids = rng.integers(0, 8, n) if rng.random() < 0.5 else rng.integers(0, domain, n)
        if op == 0:
            ids, weights = ids[:0], None  # empty batch
        elif op in (1, 2):
            weights = None  # pure counting
        elif op == 3:
            weights = rng.integers(-3, 4, n)  # integer, negative
        elif op == 4:
            weights = rng.standard_normal(n)  # float, negative
        elif op == 5:
            weights = rng.random(n)  # float, positive
        if op == 6:  # merge a twin
            other = make()
            weights = None if rng.random() < 0.5 else rng.random(n) / 3
            other.update(ids, weights)
            other_ref = _Reference(other)
            other_ref.update(ids, weights)
            sketch.merge_from(other)
            for table, addend in zip(ref.tables, other_ref.tables):
                table += addend
        elif op == 7:  # decay
            alpha = float(rng.choice([0.5, 2.0, 1 / 3]))
            sketch.scale(alpha)
            for table in ref.tables:
                table *= alpha
        elif op == 8:  # restore mid-stream
            clone = make()
            clone.load_state(sketch.state_dict())
            sketch = clone
        else:
            sketch.update(ids, weights)
            ref.update(ids, weights)
        ref.assert_matches(sketch)
    ids = rng.integers(0, domain, 300)
    expected = _oracle_point_query(ref.levels[0], ref.tables[0], ids)
    assert sketch.point_query(ids).tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_one_pass_update_matches_the_per_row_loop_flat(seed, dtype):
    rng = np.random.default_rng(seed)
    _random_history(rng, lambda: FrequencySketch(1 << 12, 97, 7, seed=seed, dtype=dtype), 1 << 12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_pass_update_matches_the_per_row_loop_hierarchical(seed):
    rng = np.random.default_rng(100 + seed)
    _random_history(
        rng, lambda: HierarchicalFrequencySketch(1 << 12, 61, 5, branch=4, seed=seed), 1 << 12
    )


def test_unweighted_after_weighted_batches_keeps_stream_order():
    # A float-weighted batch leaves non-integer counters; a later unweighted
    # batch must then add +-1 per item in stream order, not per-id counts.
    sketch = FrequencySketch(1 << 10, 5, 3, seed=4)
    ref = _Reference(sketch)
    ids = np.array([1, 2, 3, 1, 1, 2, 7, 1])
    for weights in (np.full(ids.size, 0.1), None, None):
        sketch.update(ids, weights)
        ref.update(ids, weights)
        ref.assert_matches(sketch)


def test_scale_and_merge_end_the_counting_path():
    # 1/3 + 1 + 1 + 1 rounds differently from 1/3 + 3: once a counter may
    # be fractional (scaled, or merged from a weighted sketch) unweighted
    # batches must add per item.
    ids = np.array([5, 5, 5])
    scaled = FrequencySketch(1 << 10, 8, 3, seed=2)
    ref = _Reference(scaled)
    scaled.update([5])
    ref.update([5], None)
    scaled.scale(1 / 3)
    ref.tables[0] *= 1 / 3
    scaled.update(ids)
    ref.update(ids, None)
    ref.assert_matches(scaled)

    merged = FrequencySketch(1 << 10, 8, 3, seed=2)
    weighted = FrequencySketch(1 << 10, 8, 3, seed=2)
    weighted.update([5], [1 / 3])
    merged.merge_from(weighted)
    ref = _Reference(merged)
    ref.tables[0][...] = weighted.table()
    merged.update(ids)
    ref.update(ids, None)
    ref.assert_matches(merged)


def test_counting_near_the_float_mantissa_limit_keeps_stream_order():
    # Past 2**24 a float32 counter no longer holds every integer: adding +-1
    # per item rounds where adding the per-id count would not.  The counting
    # path must stand down once items_seen can reach that limit.
    sketch = FrequencySketch(1 << 10, 4, 2, seed=6, dtype=np.float32)
    near = float(2**24 - 2)
    state = sketch.state_dict()
    state["table"] = np.full((2, 4), near, dtype=np.float32)
    state["items_seen"] = 2**24 - 2
    sketch.load_state(state)
    ref = _Reference(sketch)
    ref.tables[0][...] = near
    ids = np.array([5] * 7 + [9] * 3)
    sketch.update(ids)
    ref.update(ids, None)
    ref.assert_matches(sketch)


def test_one_update_charges_the_same_simulated_kernels():
    sketch = HierarchicalFrequencySketch(1 << 12, 256, 5, branch=4, seed=1)
    ids = np.random.default_rng(0).zipf(1.3, 1000) % (1 << 12)
    ex = sketch.executor
    mark = ex.mark()
    sketch.update(ids)
    charged = ex.breakdown_since(mark)
    levels, batch, depth = sketch.num_levels, 1000, 5
    assert [r.name for r in charged.records] == ["frequency_update"] * levels
    assert charged.total_bytes() == levels * (batch * 16.0 + depth * batch * 8.0) == 336000.0
    assert charged.total_flops() == levels * 9.0 * depth * batch == 270000.0
    assert charged.total() == pytest.approx(3.018236092265943e-05, rel=1e-12)


@pytest.mark.parametrize("bad", [[3.7, 3.2, 5.9], [1.0, np.nan], [np.inf], np.array([[2.0, 0.5]])])
def test_fractional_or_non_finite_ids_are_rejected(bad):
    with pytest.raises(ValueError, match="item ids must be integers"):
        as_index_array(bad, 1 << 10)
    sketch = FrequencySketch(1 << 10, 16, 3, seed=0)
    with pytest.raises(ValueError):
        sketch.update(bad)
    assert sketch.items_seen == 0 and not sketch.table().any()


def test_integral_float_ids_are_accepted():
    np.testing.assert_array_equal(as_index_array([3.0, 5.0, 0.0], 8), [3, 5, 0])
    np.testing.assert_array_equal(as_index_array(np.array([[1.0], [2.0]]), 8), [1, 2])
    with pytest.raises(ValueError, match="range"):
        as_index_array([8.0], 8)
