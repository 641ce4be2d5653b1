import numpy as np
import pytest

from qcondprob import ValidationError, as_complex_matrix, fit_scalar, identity

from helpers import random_unitary


def test_as_complex_matrix_accepts_lists_and_arrays():
    m = as_complex_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128
    assert m.shape == (2, 2)
    assert m[1, 0] == 3 + 0j


def test_as_complex_matrix_rejects_bad_input():
    with pytest.raises(ValidationError):
        as_complex_matrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValidationError):
        as_complex_matrix([1, 2, 3])
    with pytest.raises(ValidationError):
        as_complex_matrix([[np.inf, 0], [0, 1]])
    with pytest.raises(ValidationError):
        as_complex_matrix([[np.nan, 0], [0, 1]])
    with pytest.raises(ValidationError):
        as_complex_matrix("nonsense")
    with pytest.raises(ValidationError):
        as_complex_matrix(np.zeros((0, 0)))


def test_identity():
    assert np.array_equal(identity(3), np.eye(3))
    with pytest.raises(ValidationError):
        identity(0)


def test_fit_scalar_recovers_exact_multiples():
    rng = np.random.default_rng(17)
    for _ in range(20):
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        lam_true = complex(rng.normal(), rng.normal())
        lam, residual = fit_scalar(lam_true * b, b)
        assert abs(lam - lam_true) < 1e-12
        assert residual < 1e-12


def test_fit_scalar_orthogonal_input_gives_zero_scalar():
    # diag(1, 0) and diag(0, 1) are orthogonal under the trace inner
    # product, so the best multiple is zero and the residual is all of a.
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    lam, residual = fit_scalar(a, b)
    assert lam == 0
    assert abs(residual - 1.0) < 1e-15


def test_fit_scalar_is_a_minimum():
    # No scalar from a sampled cloud around the fit may do better.
    rng = np.random.default_rng(19)
    for _ in range(10):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        lam, residual = fit_scalar(a, b)
        for _ in range(50):
            other = lam + complex(rng.normal(), rng.normal())
            assert residual <= np.linalg.norm(a - other * b, "fro") + 1e-12


def test_fit_scalar_rejects_zero_reference():
    with pytest.raises(ValidationError):
        fit_scalar(np.eye(2), np.zeros((2, 2)))


def test_fit_scalar_unitary_invariance():
    rng = np.random.default_rng(23)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u = random_unitary(rng, 4)
    lam1, res1 = fit_scalar(a, b)
    lam2, res2 = fit_scalar(u @ a @ u.conj().T, u @ b @ u.conj().T)
    assert abs(lam1 - lam2) < 1e-10
    assert abs(res1 - res2) < 1e-10
