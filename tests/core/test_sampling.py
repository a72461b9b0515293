"""Tests for the random-state helpers (signs, row maps, hashing)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sampling import (
    _split_hash,
    hash_offsets,
    hashed_row_map_and_signs,
    hashed_table_map_and_signs,
    rademacher_signs,
    row_sample,
    signs_to_values,
    splitmix64,
    uniform_row_map,
)


class TestRademacher:
    def test_signed_values(self, rng):
        s = rademacher_signs(rng, 1000)
        assert set(np.unique(s)) <= {-1, 1}
        # roughly balanced
        assert abs(int(s.sum())) < 200

    def test_bool_values(self, rng):
        s = rademacher_signs(rng, 1000, as_bool=True)
        assert s.dtype == np.bool_

    def test_signs_to_values_from_bool(self):
        vals = signs_to_values(np.array([True, False, True]))
        np.testing.assert_array_equal(vals, [1.0, -1.0, 1.0])

    def test_signs_to_values_from_int8(self):
        vals = signs_to_values(np.array([1, -1, 1], dtype=np.int8))
        np.testing.assert_array_equal(vals, [1.0, -1.0, 1.0])


class TestRowMapAndSample:
    def test_row_map_range(self, rng):
        r = uniform_row_map(rng, 500, 7)
        assert r.min() >= 0 and r.max() < 7
        assert r.shape == (500,)

    def test_row_map_invalid_dims(self, rng):
        with pytest.raises(ValueError):
            uniform_row_map(rng, 0, 5)
        with pytest.raises(ValueError):
            uniform_row_map(rng, 5, 0)

    def test_row_sample_distinct_and_sorted(self, rng):
        s = row_sample(rng, 100, 40)
        assert len(np.unique(s)) == 40
        assert np.all(np.diff(s) > 0)

    def test_row_sample_too_many(self, rng):
        with pytest.raises(ValueError):
            row_sample(rng, 10, 11)


class TestHashing:
    def test_splitmix64_deterministic(self):
        x = np.arange(100, dtype=np.uint64)
        np.testing.assert_array_equal(splitmix64(x), splitmix64(x))

    def test_splitmix64_distinct_inputs_distinct_outputs(self):
        x = np.arange(10_000, dtype=np.uint64)
        assert len(np.unique(splitmix64(x))) == 10_000

    def test_hashed_row_map_in_range(self):
        rows, signs = hashed_row_map_and_signs(np.arange(5000), k=37, seed=3)
        assert rows.min() >= 0 and rows.max() < 37
        assert signs.dtype == np.bool_

    def test_hashed_row_map_depends_on_seed(self):
        idx = np.arange(1000)
        r1, s1 = hashed_row_map_and_signs(idx, 64, seed=1)
        r2, s2 = hashed_row_map_and_signs(idx, 64, seed=2)
        assert not np.array_equal(r1, r2)

    def test_hashed_row_map_reproducible(self):
        idx = np.arange(1000)
        r1, s1 = hashed_row_map_and_signs(idx, 64, seed=9)
        r2, s2 = hashed_row_map_and_signs(idx, 64, seed=9)
        np.testing.assert_array_equal(r1, r2)
        np.testing.assert_array_equal(s1, s2)

    def test_hashed_row_map_roughly_uniform(self):
        rows, signs = hashed_row_map_and_signs(np.arange(64_000), k=64, seed=5)
        counts = np.bincount(rows, minlength=64)
        # each bucket expects 1000 +- a few standard deviations
        assert counts.min() > 800 and counts.max() < 1200
        assert 0.45 < signs.mean() < 0.55

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            hashed_row_map_and_signs(np.arange(10), 0, seed=1)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**62), k=st.integers(min_value=1, max_value=10_000))
    def test_hashed_rows_always_in_range_property(self, seed, k):
        rows, _ = hashed_row_map_and_signs(np.arange(257), k=k, seed=seed)
        assert rows.min() >= 0
        assert rows.max() < k


class TestSplitHash:
    """The in-place split hash against its two-line reference."""

    #: Ids at both ends of uint64 plus a few between; with the offset of
    #: seed 2**63 + 5 and the splitmix64 increment, the sums wrap.
    IDS = np.array([0, 1, 12345, 2**63, 2**64 - 1], dtype=np.uint64)
    SEEDS = (0, 3, 2**63 + 5)

    @staticmethod
    def _reference(idx, offsets, k):
        mixed = splitmix64(idx + offsets)  # uint64 arrays wrap silently
        return (mixed >> np.uint64(1)) % np.uint64(k), (mixed & np.uint64(1)).astype(bool)

    @pytest.mark.parametrize("k", [1, 97, 30000, 2**32 + 1])
    def test_matches_the_reference_at_the_uint64_edges(self, k):
        offsets = hash_offsets(self.SEEDS)
        assert int(offsets.max()) + int(self.IDS.max()) >= 2**64  # the sum wraps
        before = self.IDS.copy()
        rows, signs = _split_hash(self.IDS.reshape(1, -1), offsets, k)
        want_rows, want_signs = self._reference(self.IDS.reshape(1, -1), offsets, k)
        assert rows.dtype == np.int64 and signs.dtype == np.bool_
        assert rows.shape == signs.shape == (len(self.SEEDS), self.IDS.size)
        np.testing.assert_array_equal(rows, want_rows.astype(np.int64))
        np.testing.assert_array_equal(signs, want_signs)
        assert rows.min() >= 0 and rows.max() < k
        np.testing.assert_array_equal(self.IDS, before)  # the input is never written

    @pytest.mark.parametrize("k", [1, 97, 30000, 2**32 + 1])
    def test_public_wrappers_match_the_reference(self, k):
        for seed, offset in zip(self.SEEDS, hash_offsets(self.SEEDS)):
            rows, signs = hashed_row_map_and_signs(self.IDS, k, seed)
            want_rows, want_signs = self._reference(self.IDS, offset, k)
            assert rows.dtype == np.int64 and signs.dtype == np.bool_
            np.testing.assert_array_equal(rows, want_rows.astype(np.int64))
            np.testing.assert_array_equal(signs, want_signs)
        table_rows, table_signs = hashed_table_map_and_signs(self.IDS, k, hash_offsets(self.SEEDS))
        for r, seed in enumerate(self.SEEDS):
            rows, signs = hashed_row_map_and_signs(self.IDS, k, seed)
            np.testing.assert_array_equal(table_rows[r], rows)
            np.testing.assert_array_equal(table_signs[r], signs)

    def test_splitmix64_leaves_its_input_unwritten(self):
        x = self.IDS.copy()
        mixed = splitmix64(x)
        np.testing.assert_array_equal(x, self.IDS)
        assert mixed.dtype == np.uint64 and not np.shares_memory(mixed, x)
        # splitmix64(0) is the published first output of a zero-seeded generator.
        assert int(splitmix64(np.zeros(1, dtype=np.uint64))[0]) == 0xE220A8397B1DCDAF
