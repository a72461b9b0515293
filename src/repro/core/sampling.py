"""Random-state helpers shared by the sketch operators.

These helpers produce the primitive random objects the paper's sketches are
assembled from (Definition 4.1 and Definition 5.1):

* i.i.d. Rademacher sign vectors,
* uniform row maps (one target row in ``{0, ..., k-1}`` per input row),
* uniform row samples without replacement, and
* the 32/64-bit mixing hash used by the streaming CountSketch variant
  (Section 8 future work), which derives both the target row and the sign of
  an input row from its index alone so the sketch never has to be stored.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Multiplicative constants of the splitmix64 finaliser; used by the
#: hash-based streaming CountSketch so that row maps and signs can be
#: recomputed on the fly from the row index and a seed.
_SPLITMIX64_C1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX64_C2 = np.uint64(0x94D049BB133111EB)
_SPLITMIX64_INC = np.uint64(0x9E3779B97F4A7C15)


def rademacher_signs(rng: np.random.Generator, count: int, as_bool: bool = False) -> np.ndarray:
    """Draw ``count`` i.i.d. Rademacher variables.

    Returns ``+/-1`` int8 values, or booleans (True == +1) when ``as_bool``
    is set, matching the boolean-controlled add/subtract of Algorithm 2.
    """
    bits = rng.integers(0, 2, size=int(count), dtype=np.int8)
    if as_bool:
        return bits.astype(np.bool_)
    return (2 * bits - 1).astype(np.int8)


def uniform_row_map(rng: np.random.Generator, d: int, k: int, dtype=np.int64) -> np.ndarray:
    """Draw the CountSketch row map: ``d`` i.i.d. uniforms over ``{0, ..., k-1}``."""
    if k <= 0 or d <= 0:
        raise ValueError("dimensions must be positive")
    return rng.integers(0, k, size=int(d), dtype=np.int64).astype(dtype, copy=False)


def row_sample(rng: np.random.Generator, d: int, k: int) -> np.ndarray:
    """Sample ``k`` distinct row indices from ``range(d)`` (SRHT row sampling)."""
    if k > d:
        raise ValueError("cannot sample more rows than available")
    return np.sort(rng.choice(d, size=int(k), replace=False))


def splitmix64(values: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finaliser over unsigned 64-bit inputs.

    A small, high-quality mixing function; each distinct input maps to a
    pseudo-random 64-bit output, which the streaming CountSketch splits into
    a row index and a sign bit.
    """
    z = np.array(values, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z += _SPLITMIX64_INC
    _splitmix64_mix(z, np.empty_like(z))
    return z[()]  # a numpy scalar for a scalar input


def _splitmix64_mix(z: np.ndarray, scratch: np.ndarray) -> None:
    """The splitmix64 finaliser after its increment, in place on ``z``.

    ``scratch`` is a ``z``-shaped uint64 work array; no temporary is made.
    uint64 array arithmetic wraps modulo ``2**64`` without a warning.
    """
    for shift, mult in ((30, _SPLITMIX64_C1), (27, _SPLITMIX64_C2)):
        np.right_shift(z, np.uint64(shift), out=scratch)
        z ^= scratch
        z *= mult
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch


def hashed_row_map_and_signs(
    indices: np.ndarray, k: int, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Derive (row map, signs) for the given row indices from a hash.

    This is the "build the CountSketch on the fly using a hash-based
    strategy" of the paper's future-work section: rather than storing the
    ``d``-long row map and sign vectors, both are recomputed from the row
    index whenever a row is streamed in.

    Returns
    -------
    rows:
        int64 array of target rows in ``{0, ..., k-1}``.
    signs:
        boolean array, True meaning +1.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    idx = np.asarray(indices, dtype=np.uint64)
    return _split_hash(idx, np.uint64(_hash_offset(seed)), k)


def hash_offsets(seeds) -> np.ndarray:
    """The additive hash offsets of several seeds, as a ``(len(seeds), 1)`` column.

    Precompute once per table and pass to :func:`hashed_table_map_and_signs`.
    """
    return np.array([_hash_offset(seed) for seed in seeds], dtype=np.uint64).reshape(-1, 1)


def hashed_table_map_and_signs(
    indices: np.ndarray, k: int, offsets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`hashed_row_map_and_signs` for many seeds in one broadcast pass.

    ``offsets`` comes from :func:`hash_offsets`.  Row ``r`` of the returned
    ``(len(offsets), len(indices))`` arrays is bit for bit
    ``hashed_row_map_and_signs(indices, k, seeds[r])``: the whole table of
    buckets is hashed by one 2-D splitmix64 instead of one call per seed.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    idx = np.asarray(indices, dtype=np.uint64).reshape(1, -1)
    return _split_hash(idx, offsets, k)


def _hash_offset(seed: int) -> int:
    return (int(seed) * 0x632BE59BD9B4E019) % (1 << 64)


def _split_hash(idx: np.ndarray, offsets, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Mix ``idx + offsets`` and split each hash into (row in ``[0, k)``, sign bit).

    Bit for bit ``rows = (splitmix64(idx + offsets) >> 1) % k`` and
    ``signs = splitmix64(idx + offsets) & 1``, computed in one broadcast
    ``uint64`` block and one scratch array of its shape: the offsets and the
    splitmix64 increment are folded into one addition (both wrap modulo
    ``2**64``), the finaliser runs in place, and the modulo is taken as
    ``z - (z // k) * k``, whose division by a scalar numpy runs without a
    hardware divide per element.  ``idx`` is never written.  Returns the
    rows as an ``int64`` view of the block (every row is below ``2**63``)
    and the signs as booleans, True meaning +1.
    """
    with np.errstate(over="ignore"):
        start = np.asarray(offsets, dtype=np.uint64) + _SPLITMIX64_INC
    z = np.empty(np.broadcast_shapes(np.shape(idx), start.shape), dtype=np.uint64)
    np.add(idx, start, out=z)
    scratch = np.empty_like(z)
    _splitmix64_mix(z, scratch)
    signs = np.bitwise_and(z, np.uint64(1), out=scratch).astype(np.bool_)
    z >>= np.uint64(1)
    divisor = np.uint64(k)
    np.floor_divide(z, divisor, out=scratch)
    scratch *= divisor
    z -= scratch
    return z.view(np.int64), signs


def signs_to_values(signs: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Convert a boolean/int8 sign representation to floating ``+/-1`` values.

    Booleans map through ``2 * sign - 1`` in place on one ``dtype`` array.
    Multiplying by the result is exact: ``x * signs_to_values(s)`` equals
    ``np.where(s, x, -x)`` bit for bit, ``-0.0`` included.
    """
    signs = np.asarray(signs)
    if signs.dtype == np.bool_:
        values = signs.astype(dtype)
        values *= 2
        values -= 1
        return values
    return np.sign(signs).astype(dtype)
