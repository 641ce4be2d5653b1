"""The matrix primitives every layer builds on.

Input coercion is the one check in ``events`` that ``validate_event``,
``State(...)`` and matrix operands share; the identity is
``identity_event``; the least-squares scalar fit is the private fit of
``objective``.
"""

import numpy as np
import pytest

from qcondprob import DEFAULT_TOL, State, ValidationError, identity_event, state_value, validate_event
from qcondprob.objective import _fit

from helpers import random_unitary


def test_as_complex_matrix_accepts_lists_and_arrays():
    e = validate_event([[1, 0], [0, 0]])
    assert e.matrix.dtype == np.complex128
    assert e.matrix.shape == (2, 2)
    assert e.matrix[0, 0] == 1 + 0j
    rho = State([[0.5, 0], [0, 0.5]]).rho
    assert rho.dtype == np.complex128
    assert rho[1, 1] == 0.5 + 0j
    assert np.array_equal(validate_event(np.diag([0, 1])).matrix, np.diag([0, 1]))


def test_as_complex_matrix_rejects_bad_input():
    # Events, states and matrix operands share one input check.
    checks = (validate_event, State, lambda m: state_value(State.maximally_mixed(2), m))
    bad = (
        [[1, 2, 3], [4, 5, 6]],
        [1, 2, 3],
        [[np.inf, 0], [0, 1]],
        [[np.nan, 0], [0, 1]],
        "nonsense",
        np.zeros((0, 0)),
    )
    for check in checks:
        for entries in bad:
            with pytest.raises(ValidationError):
                check(entries)


def test_identity():
    e = identity_event(3)
    assert np.array_equal(e.matrix, np.eye(3))
    assert e.rank == 3
    with pytest.raises(ValidationError):
        identity_event(0)


def test_fit_scalar_recovers_exact_multiples():
    rng = np.random.default_rng(17)
    for _ in range(20):
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        lam_true = complex(rng.normal(), rng.normal())
        lam, residual, norm = _fit(lam_true * b, b, DEFAULT_TOL)
        assert abs(lam - lam_true) < 1e-12
        assert residual < 1e-12
        assert abs(norm - np.linalg.norm(b)) < 1e-12


def test_fit_scalar_orthogonal_input_gives_zero_scalar():
    # diag(1, 0) and diag(0, 1) are orthogonal under the trace inner
    # product, so the best multiple is zero and the residual is all of a.
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    lam, residual, _ = _fit(a, b, DEFAULT_TOL)
    assert lam == 0
    assert abs(residual - 1.0) < 1e-15


def test_fit_scalar_is_a_minimum():
    # No scalar from a sampled cloud around the fit may do better.
    rng = np.random.default_rng(19)
    for _ in range(10):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        lam, residual, _ = _fit(a, b, DEFAULT_TOL)
        for _ in range(50):
            other = lam + complex(rng.normal(), rng.normal())
            assert residual <= np.linalg.norm(a - other * b, "fro") + 1e-12


def test_fit_scalar_rejects_zero_reference():
    with pytest.raises(ValidationError, match="numerically zero"):
        _fit(np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex), DEFAULT_TOL)


def test_fit_scalar_unitary_invariance():
    rng = np.random.default_rng(23)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u = random_unitary(rng, 4)
    lam1, res1, _ = _fit(a, b, DEFAULT_TOL)
    lam2, res2, _ = _fit(u @ a @ u.conj().T, u @ b @ u.conj().T, DEFAULT_TOL)
    assert abs(lam1 - lam2) < 1e-10
    assert abs(res1 - res2) < 1e-10
