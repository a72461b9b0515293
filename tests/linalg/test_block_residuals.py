"""The one residual helper behind every multi-RHS result.

``block_residuals`` forms ``R^T = B^T - X^T A^T`` in the rows-per-column
layout; these tests pin it against ``np.linalg.norm`` references, its
zero-column branch (no division, no warning), the ridge term, and that the
solvers and ``ridge_residuals`` report exactly what it computes.  The vector
path of ``_residuals`` is a separate formula and must not move.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.multisketch import count_gauss
from repro.gpu.executor import GPUExecutor
from repro.linalg.iterative import sketch_preconditioned_lsqr
from repro.linalg.lstsq import _residuals, block_residuals, qr_solve
from repro.problems.ridge import ridge_residuals

D, N = 512, 8
REL = 1e-13


def _problem(m, order, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((D, N))
    b = np.asarray(a @ rng.standard_normal((N, m)) + 0.1 * rng.standard_normal((D, m)), order=order)
    x = np.linalg.lstsq(a, b, rcond=None)[0] + 1e-3 * rng.standard_normal((N, m))
    return a, b, x


def _reference(a, b, x, lam=0.0):
    resid = b - a @ x
    col_res = np.sqrt(np.linalg.norm(resid, axis=0) ** 2 + lam * np.linalg.norm(x, axis=0) ** 2)
    col_nb = np.linalg.norm(b, axis=0)
    total = float(np.sqrt(np.sum(col_res**2)))
    nb = float(np.linalg.norm(b))
    columns = np.array([r / n if n > 0 else r for r, n in zip(col_res, col_nb)])
    return total, (total / nb if nb > 0 else total), columns


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("m", [1, 8])
@pytest.mark.parametrize("lam", [0.0, 0.7])
def test_matches_norm_reference(order, m, lam):
    a, b, x = _problem(m, order)
    res, rel, columns = block_residuals(a, b, x, lam)
    ref_res, ref_rel, ref_columns = _reference(a, b, x, lam)
    assert columns.shape == (m,)
    assert res == pytest.approx(ref_res, rel=REL)
    assert rel == pytest.approx(ref_rel, rel=REL)
    np.testing.assert_allclose(columns, ref_columns, rtol=REL)


@pytest.mark.parametrize("order", ["C", "F"])
def test_zero_column_is_absolute_and_silent(order):
    a, b, x = _problem(4, order)
    b[:, 2] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, columns = block_residuals(a, b, x)
        res, rel, zero_columns = block_residuals(a, np.zeros_like(b), x)
    assert columns[2] == pytest.approx(np.linalg.norm(a @ x[:, 2]), rel=REL)
    np.testing.assert_allclose(columns, _reference(a, b, x)[2], rtol=REL)
    # All of B zero: every ratio falls back to the absolute residual.
    assert rel == res == pytest.approx(np.linalg.norm(a @ x), rel=REL)
    np.testing.assert_allclose(zero_columns, np.linalg.norm(a @ x, axis=0), rtol=REL)


def test_vector_path_of_residuals_is_unchanged():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((D, N))
    b = a @ rng.standard_normal(N) + 0.1 * rng.standard_normal(D)
    x = np.linalg.lstsq(a, b, rcond=None)[0]
    ex = GPUExecutor(numeric=True, track_memory=False)
    res, rel, x_host, columns = _residuals(
        ex, ex.place_readonly(a), ex.place_readonly(b), ex.place_readonly(x)
    )
    expected = float(np.linalg.norm(b - a @ x))
    assert columns is None
    assert res == expected
    assert rel == expected / float(np.linalg.norm(b))
    assert np.array_equal(x_host, x)


@pytest.mark.parametrize("dtypes", [(np.float64, np.float64), (np.float32, np.float64)])
@pytest.mark.parametrize("d", [7, 2048, 65536 + 1])
@pytest.mark.parametrize("order", ["C", "F"])
def test_vector_residual_is_bit_identical_to_norm(order, d, dtypes):
    """The in-place vector residual equals ``np.linalg.norm(b - a @ x)`` bit for bit."""
    a_dtype, b_dtype = dtypes
    rng = np.random.default_rng(d)
    a = np.asarray(rng.standard_normal((d, 4)), dtype=a_dtype, order=order)
    x = rng.standard_normal(4).astype(a_dtype)
    b = (a @ x + 0.1 * rng.standard_normal(d)).astype(b_dtype)
    ex = GPUExecutor(numeric=True, track_memory=False)
    res, rel, _, _ = _residuals(ex, ex.place_readonly(a), ex.place_readonly(b), ex.place_readonly(x))
    expected = float(np.linalg.norm(b - a @ x))
    assert res == expected
    assert rel == expected / float(np.linalg.norm(b))


@pytest.mark.parametrize("order", ["C", "F"])
def test_solvers_report_the_helper(order):
    """Each multi-RHS caller reports exactly what the helper computes for its x."""
    a, b, _ = _problem(5, order, seed=2)
    for result in (
        qr_solve(a, b),
        sketch_preconditioned_lsqr(
            a, b, count_gauss(D, N, executor=GPUExecutor(numeric=True, seed=0), seed=1)
        ),
    ):
        res, rel, columns = block_residuals(a, b, result.x)
        assert result.residual_norm == res and result.relative_residual == rel
        assert np.array_equal(result.column_residuals, columns)


def test_ridge_residuals_block_and_vector():
    a, b, x = _problem(3, "F", seed=4)
    lam = 0.25
    total, rel, columns = ridge_residuals(a, b, x, lam)
    ref_total, ref_rel, ref_columns = block_residuals(a, b, x, lam)
    assert (total, rel) == (ref_total, ref_rel)
    assert np.array_equal(columns, ref_columns)
    # The vector path keeps its own formula.
    total, rel, columns = ridge_residuals(a, b[:, 0], x[:, 0], lam)
    resid = b[:, 0] - a @ x[:, 0]
    expected = float(np.sqrt(np.sum(resid**2) + lam * np.sum(x[:, 0] ** 2)))
    assert columns is None and total == expected
    assert rel == expected / np.linalg.norm(b[:, 0])
