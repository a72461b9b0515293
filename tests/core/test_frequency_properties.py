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
6. **Exact levels**: a hierarchy's exact upper levels hold the weighted
   counts of the shifted ids -- bit for bit under integer weights -- while
   the sketched leaf keeps matching the per-row oracle.
7. **One sort per batch**: a hierarchy's shared-sort fold equals updating
   each level on its own, whatever the levels' integral flags, and a
   history on the served plan reproduces pinned tables, answers,
   checkpoint bytes and simulated seconds.
8. **Empty heavy hitters**: an all-zero table has none, and the descent
   stops at the top level.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frequency import (
    ExactFrequencyLevel,
    FrequencySketch,
    HierarchicalFrequencySketch,
    as_index_array,
)
from repro.durability.session import serialize_frequency_session
from repro.problems.frequency import build_frequency_sketch, plan_frequency_sketch
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


def _exact(level) -> bool:
    return isinstance(level, ExactFrequencyLevel)


class _Reference:
    """Oracle tables for a flat or hierarchical sketch, one per level.

    An exact level's oracle is the count vector of its shifted ids, added
    item by item in stream order.  It equals the level bit for bit while
    every weight and scale factor keeps the counts integral (or dyadic), and
    to rel 1e-12 of the largest count otherwise.
    """

    def __init__(self, sketch) -> None:
        self.levels = list(getattr(sketch, "levels", [sketch]))
        self.shift = sketch.branch.bit_length() - 1 if len(self.levels) > 1 else 0
        self.tables = [
            np.zeros(s.domain if _exact(s) else (s.depth, s.width), dtype=s.dtype)
            for s in self.levels
        ]
        self.integral = True

    def update(self, ids, weights) -> None:
        idx = np.asarray(ids, dtype=np.int64)
        if weights is not None:
            self.integral &= bool(np.array_equal(weights, np.trunc(weights)))
        for lvl, (level, table) in enumerate(zip(self.levels, self.tables)):
            if _exact(level):
                w = np.ones(idx.size) if weights is None else np.asarray(weights, dtype=table.dtype)
                np.add.at(table, idx >> (lvl * self.shift), w)
            else:
                _oracle_update(level, table, idx >> (lvl * self.shift), weights)

    def merge(self, other: "_Reference") -> None:
        for table, addend in zip(self.tables, other.tables):
            table += addend
        self.integral &= other.integral

    def scale(self, alpha: float) -> None:
        for table in self.tables:
            table *= alpha
        self.integral &= alpha in (0.5, 2.0)

    def assert_matches(self, sketch) -> None:
        for level, table in zip(getattr(sketch, "levels", [sketch]), self.tables):
            if not _exact(level):
                assert level.table().tobytes() == table.tobytes()
            elif self.integral:
                assert level.counts().tobytes() == table.tobytes()
            else:
                err = np.abs(level.counts() - table).max()
                assert err <= 1e-12 * max(1.0, np.abs(table).max())


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
            ref.merge(other_ref)
        elif op == 7:  # decay
            alpha = float(rng.choice([0.5, 2.0, 1 / 3]))
            sketch.scale(alpha)
            ref.scale(alpha)
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
    return sketch, ref


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


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_exact_levels_hold_the_counts_of_the_shifted_ids(seed):
    # 61 * 5 = 305 cells: levels 256, 64, 16 and 4 are exact, the 4096 and
    # 1024 levels stay sketches.
    make = lambda: HierarchicalFrequencySketch(  # noqa: E731
        1 << 12, 61, 5, branch=4, seed=seed, exact_levels=4
    )
    sketch, ref = _random_history(np.random.default_rng(200 + seed), make, 1 << 12)
    kinds = [_exact(level) for level in sketch.levels]
    assert kinds == [False, False, True, True, True, True]
    for level in sketch.levels:
        if _exact(level):  # a point query reads the counts themselves
            nodes = np.arange(level.domain)
            assert level.point_query(nodes).tobytes() == level.counts().tobytes()


def test_exact_levels_never_include_the_leaf():
    # Every domain here fits in width * depth, the leaf's too.
    with pytest.raises(ValueError, match="exact_levels"):
        HierarchicalFrequencySketch(1 << 10, 4800, 42, branch=16, exact_levels=3)
    sketch = HierarchicalFrequencySketch(1 << 10, 4800, 42, branch=16, exact_levels=2)
    assert [_exact(level) for level in sketch.levels] == [False, True, True]


def test_merging_different_exact_levels_is_refused():
    a = HierarchicalFrequencySketch(1 << 12, 61, 5, branch=4, seed=1, exact_levels=2)
    b = HierarchicalFrequencySketch(1 << 12, 61, 5, branch=4, seed=1, exact_levels=1)
    with pytest.raises(ValueError, match="exact_levels"):
        a.merge_from(b)
    with pytest.raises(ValueError, match="exact_levels"):
        b.merge_from(a)


@pytest.mark.parametrize("bad", [[1.0, np.nan, 1.0], [np.inf, 1.0, 1.0], [1.0, 1.0, -np.inf]])
def test_non_finite_weights_are_rejected(bad):
    ids = [1, 2, 3]
    engines = [
        FrequencySketch(1 << 10, 16, 3, seed=0),
        ExactFrequencyLevel(1 << 10),
        HierarchicalFrequencySketch(1 << 10, 16, 3, branch=4, seed=0, exact_levels=2),
    ]
    for engine in engines:
        with pytest.raises(ValueError, match="weights must be finite"):
            engine.update(ids, bad)
        assert engine.items_seen == 0
    assert not engines[0].table().any() and not engines[1].counts().any()
    assert all(not level.state_dict()["table"].any() for level in engines[2].levels)


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


def _energy_reference(table: np.ndarray) -> float:
    return float(np.sqrt(np.median(np.sum(table.astype(np.float64) ** 2, axis=1))))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_l2_estimate_is_exact_on_an_integral_leaf(seed):
    sketch = HierarchicalFrequencySketch(1 << 16, 2000, 7, branch=16, seed=seed, exact_levels=2)
    _feed(sketch, zipf_stream(1 << 16, total_items=40_000, batch_size=4096, alpha=1.1, seed=seed))
    leaf = sketch.levels[0]
    assert sketch.l2_estimate() == leaf.l2_estimate() == _energy_reference(leaf.table())


def test_l2_estimate_matches_the_squared_sum_on_a_weighted_table():
    rng = np.random.default_rng(3)
    sketch = FrequencySketch(1 << 12, 512, 5, seed=4)
    for _ in range(4):
        sketch.update(rng.integers(0, 1 << 12, 2048), rng.standard_normal(2048) * 1e3)
    assert sketch.l2_estimate() == pytest.approx(_energy_reference(sketch.table()), rel=1e-12)


# ---------------------------------------------------------------------------
# the integral flag: one contract for sketch and exact levels
# ---------------------------------------------------------------------------
LEVEL_KINDS = {
    "sketch": lambda: FrequencySketch(1 << 10, 64, 3, seed=5),
    "exact": lambda: ExactFrequencyLevel(1 << 10),
}


@pytest.mark.parametrize("kind", sorted(LEVEL_KINDS))
def test_integral_flag_follows_updates_merges_scale_and_restore(kind):
    make = LEVEL_KINDS[kind]
    ids = np.array([1, 5, 5, 900])
    level = make()
    assert level.integral  # fresh
    level.update(ids)
    assert level.integral  # unweighted keeps it
    weighted = make()
    weighted.update(ids, [1.0, 1.0, -1.0, 1.0])
    assert not weighted.integral  # any weighted update clears it, integral or not

    merged = make()
    merged.merge_from(level)
    assert merged.integral  # True AND True
    merged.merge_from(weighted)
    assert not merged.integral  # ANDed

    scaled = make()
    scaled.update(ids)
    scaled.scale(3.0)
    assert not scaled.integral  # scale clears it, even to integers

    # load_state recomputes it from the counters and items_seen (the scaled
    # counters are integers above items_seen).
    for source, expected in ((level, True), (weighted, True), (scaled, False)):
        clone = make()
        clone.load_state(source.state_dict())
        assert clone.integral is expected
    for weights in ([0.5, 1.0, 1.0, 1.0], [1.0, 2.0, 3.0, 4.0]):  # fractional; above items_seen
        source = make()
        source.update(ids, weights)
        clone = make()
        clone.load_state(source.state_dict())
        assert not clone.integral
    with pytest.raises(AttributeError):
        level.integral = False  # read-only


def test_out_of_range_uint64_ids_are_reported_as_given():
    # 2**63 and 2**64 - 1 wrap to negative int64 ids; the message must name
    # the ids the caller passed, not the wrapped ones.
    ids = np.array([5, 2**63, 2**64 - 1], dtype=np.uint64)
    with pytest.raises(ValueError, match=r"got range \[5, 18446744073709551615\]"):
        as_index_array(ids, 1 << 10)


# ---------------------------------------------------------------------------
# 7. one sort per batch: the shared fold equals the per-level loop
# ---------------------------------------------------------------------------
def _update_level_by_level(sketch: HierarchicalFrequencySketch, ids) -> None:
    """The per-level loop: every level updated on its own shifted ids."""
    shift = sketch.branch.bit_length() - 1
    idx = np.asarray(ids, dtype=np.int64)
    for lvl, level in enumerate(sketch.levels):
        level.update(idx >> (lvl * shift))


def _assert_same_levels(a: HierarchicalFrequencySketch, b: HierarchicalFrequencySketch) -> None:
    for mine, theirs in zip(a.levels, b.levels):
        assert mine.state_dict()["table"].tobytes() == theirs.state_dict()["table"].tobytes()
        assert (mine.items_seen, mine.integral) == (theirs.items_seen, theirs.integral)


def _charged(sketch, update, ids):
    mark = sketch.executor.mark()
    update(sketch, ids)
    charged = sketch.executor.breakdown_since(mark)
    return [(r.name, r.seconds) for r in charged.records], charged.total()


def test_shared_sort_matches_the_per_level_loop_when_integral_flags_differ():
    # Levels 4096 and 1024 are sketches, 256 .. 4 exact.  One sketched and
    # two exact levels are scaled (one by -1, leaving -0.0 counters at
    # untouched nodes), so the levels disagree on taking per-id counts, and
    # a restore must not mark the -0.0 level integral again.
    make = lambda: HierarchicalFrequencySketch(  # noqa: E731
        1 << 12, 61, 5, branch=4, seed=3, exact_levels=4
    )
    shared, loop = make(), make()
    rng = np.random.default_rng(11)
    first = rng.zipf(1.3, 700) % (1 << 12)
    shared.update(first)
    loop.update(first)
    for sketch in (shared, loop):
        sketch.levels[1].scale(0.5)
        sketch.levels[2].scale(-1.0)
        sketch.levels[3].scale(1 / 3)
    assert [level.integral for level in shared.levels] == [True, False, False, False, True, True]
    for sketch in (shared, loop):  # a restore keeps the -0.0 counters
        sketch.load_state(sketch.state_dict())
    negated = shared.levels[2].counts()
    assert np.signbit(negated[negated == 0]).any() and not shared.levels[2].integral
    for step in range(6):
        ids = rng.zipf(1.3, 900) % (1 << 12)
        if step == 3:  # a weighted batch in between takes the stream-order path everywhere
            weights = rng.standard_normal(ids.size)
            shared.update(ids, weights)
            loop.update(ids, weights)
            continue
        assert _charged(shared, HierarchicalFrequencySketch.update, ids) == _charged(
            loop, _update_level_by_level, ids
        )
        _assert_same_levels(shared, loop)
    probe = rng.integers(0, 1 << 12, 200)
    assert shared.point_query(probe).tobytes() == loop.point_query(probe).tobytes()
    assert shared.range_query(100, 3000) == loop.range_query(100, 3000)


def test_shared_sort_matches_the_per_level_loop_across_the_float32_mantissa_limit():
    # Every level restored just below 2**24 items: the batch carries items_seen
    # past the limit, so the sketched levels fall back to +-1 per item while
    # the exact levels still add each node's count once.
    make = lambda: HierarchicalFrequencySketch(  # noqa: E731
        1 << 10, 16, 3, branch=4, seed=6, exact_levels=2, dtype=np.float32
    )
    state = make().state_dict()
    near = float(2**24 - 3)
    for level in state["levels"]:
        level["table"] = np.full_like(level["table"], near)
        level["items_seen"] = 2**24 - 3
    shared, loop = make(), make()
    shared.load_state(state)
    loop.load_state(state)
    assert all(level.integral for level in shared.levels)
    ids = np.array([5] * 7 + [9] * 3 + [700] * 2)
    shared.update(ids)
    _update_level_by_level(loop, ids)
    _assert_same_levels(shared, loop)
    assert shared.items_seen > 2**24


def _workload_history_digests() -> dict:
    """SHA-256 digests of a 4096-id zipf history on the served plan.

    The plan is the ``stream_sessions`` benchmark's: a 2^20 domain, a
    42 x 30000 leaf and exact levels of 65536, 4096, 256 and 16 nodes.
    """
    plan = plan_frequency_sketch(1 << 20, 0.02, need_ranges=True)
    sketch = build_frequency_sketch(plan, seed=5)
    mark = sketch.executor.mark()
    digests = {}

    def put(name, payload):
        digests[name] = hashlib.sha256(payload).hexdigest()

    probe = np.random.default_rng(7).integers(0, 1 << 20, 256)
    for step, batch in enumerate(zipf_stream(1 << 20, total_items=6 * 4096, batch_size=4096, seed=3)):
        sketch.update(batch.ids)
        ids = np.concatenate([batch.ids[:256], probe])
        ranges = ((0, 1 << 20), (12345, 70000), (1 << 19, 17))
        answers = [
            sketch.point_query(ids).tobytes(),
            repr(sketch.top_k(16, 0.02)).encode(),
            repr(sketch.l2_estimate()).encode(),
            repr([sketch.range_query(lo, lo + span) for lo, span in ranges]).encode(),
        ]
        put(f"answers_{step}", b"|".join(answers))
    put("tables", b"".join(level.state_dict()["table"].tobytes() for level in sketch.levels))
    put("checkpoint", serialize_frequency_session(sketch, plan, 5, {"durable_seq": 1}))
    put("simulated", repr(sketch.executor.breakdown_since(mark).total()).encode())
    return digests


#: :func:`_workload_history_digests` as the per-level update loop computed it.
_PINNED_WORKLOAD_HISTORY = {
    "answers_0": "1abf00dc07bff03fbde168322b313bac050533bc94277b7fea70fa438ecb02fc",
    "answers_1": "f93da9be845c8c85e14b3104063a6e2c1920a4f77c46c33d0a99138085837a2f",
    "answers_2": "50237664e637dfaed4502d2bba39712951ba8890d91006030cf616f9f5abbbec",
    "answers_3": "14300403ce27966891a583fd3a8ce9c2b71ce8c13bdc3eb3db8f4a69e5045c6f",
    "answers_4": "b385188e19b0a899870ea80e9271f5382cd652958ef7e24c398a627dcf51f14f",
    "answers_5": "45016320fdb82b4affa49e1429070102f358aacd50a46f877a0d69deafe75040",
    "tables": "f255d88e7400d47ffdacc5d8ad5d5894e3842edda8c6ddb334d03ed74106d91b",
    "checkpoint": "32ddaddd7a383e4f9ebac6ececbdf323d438801f602ddc47cb6e86e3cedc764d",
    "simulated": "7d9befc381a0b430e7d69ee9e0fe72044b14a933bba1f0dea02e88aa161a784f",
}


def test_workload_plan_history_matches_the_pinned_reference():
    assert _workload_history_digests() == _PINNED_WORKLOAD_HISTORY


# ---------------------------------------------------------------------------
# 8. heavy hitters of an empty or all-zero table
# ---------------------------------------------------------------------------
def test_flat_heavy_hitters_of_an_all_zero_table_are_empty():
    fresh = FrequencySketch(1 << 10, 64, 5, seed=1)
    assert fresh.heavy_hitters(0.1) == []
    cancelled = FrequencySketch(1 << 10, 64, 5, seed=1)
    cancelled.update([3, 3, 9], [1.0, -1.0, 0.0])  # weights that cancel to zero
    assert not cancelled.table().any() and cancelled.l2_estimate() == 0.0
    assert cancelled.heavy_hitters(0.1) == []


def test_top_k_of_an_empty_hierarchy_stops_at_the_top_level():
    sketch = HierarchicalFrequencySketch(1 << 14, 256, 5, branch=16, seed=2, exact_levels=2)
    mark = sketch.executor.mark()
    assert sketch.top_k(16, 0.05) == []
    charged = [r.name for r in sketch.executor.breakdown_since(mark).records]
    # The l2 estimate and one query of the top level's 4 nodes, nothing below.
    assert charged == ["frequency_l2", "frequency_exact_query"]


def test_a_non_empty_heavy_hitter_answer_is_unchanged():
    sketch = FrequencySketch(1 << 12, 400, 7, seed=8)
    _feed(sketch, zipf_stream(1 << 12, total_items=8000, alpha=1.3, seed=8))
    estimates = sketch.point_query(np.arange(1 << 12))
    threshold = 0.1 * sketch.l2_estimate()
    hot = np.flatnonzero(np.abs(estimates) >= threshold)
    order = hot[np.argsort(-np.abs(estimates[hot]), kind="stable")]
    expected = [(int(i), float(estimates[i])) for i in order]
    assert expected and sketch.heavy_hitters(0.1) == expected
