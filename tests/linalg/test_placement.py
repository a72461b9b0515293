"""Solvers read their inputs in place: read-only views, never copies.

Every registered solver places a host ``A`` (and ``b``) through
:func:`repro.linalg.lstsq._to_device`, which wraps a non-writeable view of
the caller's contiguous buffer instead of copying it (a strided input is
packed into a read-only copy, as before).  The augmented ridge solvers
(``ridge_qr``, ``ridge_precond_lsqr``) factor ``[A; sqrt(lam) I]``, a new
array by construction, so for them the placed matrix is a read-only view of
that augmentation rather than of the caller's ``A``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpu.executor import GPUExecutor
from repro.linalg import registry
from repro.linalg.conditioning import matrix_with_condition
from repro.linalg.registry import SolveSpec
from repro.problems.lowrank import lowrank_approx

D, N, LAM = 2048, 8, 1e-3

registry.ensure_problem_solvers("ridge")
SOLVERS = registry.available_solvers()
AUGMENTED = ("ridge_qr", "ridge_precond_lsqr")


@pytest.fixture
def placed(monkeypatch):
    """Every array the executors place by view, in placement order."""
    arrays = []
    real = GPUExecutor.place_readonly

    def recording(self, host, order="C", label=""):
        arr = real(self, host, order=order, label=label)
        arrays.append(arr)
        return arr

    monkeypatch.setattr(GPUExecutor, "place_readonly", recording)
    return arrays


def test_every_solver_family_is_covered():
    assert {"normal_equations", "sketch_and_solve", "qr", "rand_cholqr",
            "sketch_precond_lsqr", "ridge_normal_equations"} <= set(SOLVERS)
    assert set(AUGMENTED) <= set(SOLVERS)


@pytest.mark.parametrize("name", SOLVERS)
def test_solver_reads_the_callers_arrays_in_place(name, placed):
    a = matrix_with_condition(D, N, 1e3, seed=1)
    b = a @ np.ones(N) + 1e-3 * np.random.default_rng(1).standard_normal(D)
    a_before, b_before = a.tobytes(), b.tobytes()
    solver = registry.get_solver(name)
    lam = LAM if solver.capabilities.problem == "ridge" else 0.0
    spec = SolveSpec.from_problem(a, b, regularization=lam, seed=0)
    result = solver.solve(a, b, spec, executor=GPUExecutor(numeric=True, seed=0, track_memory=False))
    assert not result.failed

    matrices = [arr for arr in placed if arr.label == "A"]
    assert matrices, f"{name} placed no matrix by view"
    for arr in matrices:
        if name in AUGMENTED:
            assert arr.shape == (D + N, N)
        else:
            assert np.shares_memory(arr.data, a)
        with pytest.raises(ValueError):
            arr.data[0, 0] = 0.0
    if name not in AUGMENTED:
        vectors = [arr for arr in placed if arr.label == "b"]
        assert vectors and all(np.shares_memory(arr.data, b) for arr in vectors)
    assert a.tobytes() == a_before
    assert b.tobytes() == b_before


@pytest.mark.parametrize("name", ["normal_equations", "sketch_and_solve", "rand_cholqr"])
def test_strided_input_is_packed_as_before(name, placed):
    """A strided matrix is copied contiguous (read-only), so answers match a packed input."""
    a = matrix_with_condition(D, N, 1e3, seed=3)
    b = a @ np.ones(N)
    strided = np.repeat(a, 2, axis=1)[:, ::2]
    assert not strided.flags.c_contiguous and np.array_equal(strided, a)
    solver = registry.get_solver(name)
    spec = SolveSpec.from_problem(a, b, seed=0)
    answers = [
        solver.solve(m, b, spec, executor=GPUExecutor(numeric=True, seed=0, track_memory=False)).x
        for m in (strided, a)
    ]
    assert answers[0].tobytes() == answers[1].tobytes()
    arr = next(arr for arr in placed if arr.label == "A")
    assert not np.shares_memory(arr.data, strided)
    with pytest.raises(ValueError):
        arr.data[0, 0] = 0.0


def test_lowrank_reads_the_callers_matrix_in_place(placed):
    a = matrix_with_condition(D, N, 1e3, seed=2)
    before = a.tobytes()
    result = lowrank_approx(a, 4, seed=0)
    assert result.rank == 4 and result.left.shape == (D, 4)
    (arr,) = [arr for arr in placed if arr.label == "A"]
    assert np.shares_memory(arr.data, a)
    with pytest.raises(ValueError):
        arr.data[0, 0] = 0.0
    assert a.tobytes() == before


def test_to_device_still_copies():
    ex = GPUExecutor(numeric=True, seed=0, track_memory=False)
    host = np.arange(12.0).reshape(4, 3)
    arr = ex.to_device(host)
    assert not np.shares_memory(arr.data, host)
    arr.data[0, 0] = -1.0
    assert host[0, 0] == 0.0
