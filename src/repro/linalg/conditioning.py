"""Test matrices with prescribed condition numbers and spectra.

Figure 8 of the paper studies how each least-squares solver degrades as the
condition number of ``A`` grows from 1 to 1e20: the normal equations fail
beyond ``kappa ~ u^{-1/2} ~ 1e8`` while the sketch-and-solve and QR solvers
track each other up to ``kappa ~ u^{-1} ~ 1e16``.  Reproducing that figure
requires matrices whose condition number is set exactly, which is what
:func:`matrix_with_condition` provides: ``A = U diag(s) V^T`` with Haar-ish
random orthonormal factors and a chosen singular-value profile.

The module also holds the planner's spectrum probe,
:func:`estimate_spectrum_bounds`: the multisketch's first-stage CountSketch
(``k1 = 2 n^2`` rows at the default oversampling) evaluated on the host,
whose product ``S1 A`` the serving layer hands on to the batch's sketch
solver so that ``A`` is sketched once per solve.
"""

from __future__ import annotations

from typing import Literal, Optional

import numpy as np

from repro.core.countsketch import CountSketch, SketchProduct
from repro.core.multisketch import first_stage_dim


def _random_orthonormal(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Random matrix with orthonormal columns (QR of a Gaussian)."""
    if cols > rows:
        raise ValueError("need rows >= cols for orthonormal columns")
    g = rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    # Fix the signs so the distribution is Haar (and deterministic given rng).
    q *= np.sign(np.diag(r))
    return q


def singular_value_profile(
    n: int,
    cond: float,
    profile: Literal["geometric", "linear", "cluster"] = "geometric",
) -> np.ndarray:
    """Singular values in ``[1/cond, 1]`` following the requested profile.

    ``geometric`` (default) spaces them geometrically, which is the standard
    hard case for Gram-matrix-based methods; ``linear`` spaces them linearly;
    ``cluster`` puts one small singular value at ``1/cond`` and the rest at 1.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if cond < 1.0:
        raise ValueError("condition number must be >= 1")
    if n == 1:
        return np.array([1.0])
    if profile == "geometric":
        return np.geomspace(1.0, 1.0 / cond, n)
    if profile == "linear":
        return np.linspace(1.0, 1.0 / cond, n)
    if profile == "cluster":
        s = np.ones(n)
        s[-1] = 1.0 / cond
        return s
    raise ValueError(f"unknown profile '{profile}'")


def matrix_with_condition(
    d: int,
    n: int,
    cond: float,
    *,
    profile: Literal["geometric", "linear", "cluster"] = "geometric",
    seed: Optional[int] = None,
    dtype=np.float64,
) -> np.ndarray:
    """Dense ``d x n`` matrix with condition number exactly ``cond``.

    The construction is ``A = U diag(s) V^T`` with random orthonormal ``U``
    (``d x n``) and ``V`` (``n x n``) and singular values from
    :func:`singular_value_profile`; by construction ``kappa_2(A) = cond`` up
    to rounding.
    """
    if d < n:
        raise ValueError("matrix_with_condition builds overdetermined (d >= n) matrices")
    rng = np.random.default_rng(seed)
    u = _random_orthonormal(d, n, rng)
    v = _random_orthonormal(n, n, rng)
    s = singular_value_profile(n, cond, profile).astype(dtype)
    return (u * s) @ v.T


def condition_number(a: np.ndarray) -> float:
    """2-norm condition number ``sigma_max / sigma_min`` of a matrix."""
    svals = np.linalg.svd(np.asarray(a, dtype=np.float64), compute_uv=False)
    smin = svals.min()
    if smin == 0.0:
        return float("inf")
    return float(svals.max() / smin)


def estimate_condition(
    a: np.ndarray,
    *,
    oversampling: float = 2.0,
    seed: Optional[int] = 0,
) -> float:
    """Cheap sketched estimate of ``kappa_2(A)`` for a tall ``d x n`` matrix.

    By the subspace-embedding property (Definition 1.1), every singular value
    of ``S A`` lies within ``(1 +/- eps)`` of the corresponding singular value
    of ``A``, so ``kappa(S A)`` estimates ``kappa(A)`` up to a constant
    factor -- at the cost of one pass over ``A`` plus the singular values of
    the small ``k x n`` sketch, instead of an SVD of the full matrix.  This is the
    condition probe :func:`repro.linalg.planner.plan` uses to route a problem
    to the cheapest solver that is still stable for it.

    The sketch is the multisketch's own first stage, evaluated on the host
    (see :func:`estimate_spectrum_bounds`): planning must stay off the
    accounted clock, exactly like the residual checks in
    :mod:`repro.linalg.lstsq`.  Estimates saturate around ``u^{-1} ~ 1e16``
    -- beyond that the sketch itself is rank-deficient in floating point,
    which the planner treats as "worse than every solver's stability limit"
    anyway.
    """
    smax, smin = estimate_spectrum_bounds(a, oversampling=oversampling, seed=seed)
    if smin == 0.0:
        return float("inf")
    return smax / smin


class SpectrumBounds(tuple):
    """``(sigma_max, sigma_min)``, plus the first-stage sketch they were read from.

    Compares, unpacks and indexes as the plain pair.  ``first_stage`` is the
    :class:`~repro.core.countsketch.SketchProduct` ``S1 A`` of the probe's
    CountSketch (``None`` when the probe took an exact SVD instead).  It
    describes ``A`` at probe time and holds ``A`` alive, so keep it no
    longer than the solve it was probed for.
    """

    first_stage: Optional[SketchProduct]

    def __new__(cls, smax: float, smin: float, first_stage: Optional[SketchProduct] = None):
        bounds = super().__new__(cls, (smax, smin))
        bounds.first_stage = first_stage
        return bounds

    def __getnewargs__(self):  # copy / pickle rebuild through __new__
        return (*self, self.first_stage)


def estimate_spectrum_bounds(
    a: np.ndarray,
    *,
    oversampling: float = 2.0,
    seed: Optional[int] = 0,
) -> SpectrumBounds:
    """Sketched estimates ``(sigma_max, sigma_min)`` of a tall matrix.

    The same one-pass CountSketch probe as :func:`estimate_condition`, but
    returning the spectrum *extremes* rather than their ratio.  The planner
    needs the absolute scale for ridge routing: the Tikhonov ``lam`` only
    regularizes relative to ``sigma_min(A)^2``, so deciding whether the
    lambda-augmented system is benign requires knowing where the spectrum
    sits, not just how wide it is
    (:func:`repro.linalg.registry.ridge_effective_condition`).

    The sketch is the first stage of the paper's multisketch: a
    ``CountSketch(d, k1, seed=seed)`` with ``k1 = oversampling * n^2``
    rows (:func:`repro.core.multisketch.first_stage_dim`; at least
    ``n + 4``, and an exact SVD when that reaches ``d``).  A CountSketch is
    already a subspace embedding at ``k ~ n^2`` rows (Table 1), so its
    singular values track ``A``'s; the multisketch's final ``2 n``-row
    Gaussian stage is not accurate enough to probe with.  Because the draws
    are the operator's own, at the default oversampling ``S1 A`` is
    bit-identical to stage 0 of the Count-Gauss operator built with the
    same seed, and the result carries it as ``first_stage`` so a solver can
    reuse it instead of reading ``A`` again
    (:meth:`~repro.core.base.SketchOperator.with_first_stage`).
    The singular values of ``S1 A`` come from :func:`_singular_values`: a
    blocked R reduction when the sketch is taller than one block, a direct
    SVD when it fits one.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < a.shape[1]:
        raise ValueError("estimate_spectrum_bounds expects a tall d x n matrix")
    d, n = a.shape
    k = min(d, max(first_stage_dim(d, n, oversampling), n + 4))
    if k >= d:
        svals = np.linalg.svd(a, compute_uv=False)
        first_stage = None
    else:
        first_stage = CountSketch(d, k, seed=seed).host_product(a)
        svals = _singular_values(first_stage.y)
    return SpectrumBounds(float(svals.max()), float(svals.min()), first_stage)


def _singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values of a tall ``k x n`` matrix via a blocked R reduction.

    Each block of ``max(16 n, 1024)`` rows is reduced to its ``n x n`` QR
    factor ``R``; one more QR of the stacked factors gives an ``R`` with the
    singular values of ``m`` (``m = Q R`` with orthonormal ``Q``), and the
    SVD runs on that ``n x n`` matrix only.  Blocks of at least ``16 n``
    rows shrink the stack 16x; a matrix that fits one block (below 1024
    rows the direct SVD is already cheap) is SVD'd directly.
    """
    k, n = m.shape
    block = max(16 * n, 1024)
    if k > block:
        factors = [np.linalg.qr(m[i:i + block], mode="r") for i in range(0, k, block)]
        m = np.linalg.qr(np.vstack(factors), mode="r")
    return np.linalg.svd(m, compute_uv=False)


def well_conditioned_matrix(
    d: int,
    n: int,
    *,
    cond: float = 100.0,
    seed: Optional[int] = None,
    dtype=np.float64,
) -> np.ndarray:
    """The paper's timing-experiment matrix: random with ``kappa(A) = 100``.

    Section 6.3 fixes ``kappa(A) = 1e2`` so the normal equations remain
    stable and the comparison is purely about speed.
    """
    return matrix_with_condition(d, n, cond, seed=seed, dtype=dtype)
