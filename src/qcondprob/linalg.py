"""Dense complex matrix primitives.

Matrices are square numpy ``complex128`` arrays throughout.  This module
coerces and checks input matrices and provides the self-adjointness test
and the least-squares scalar fit that the rest of the package is built
on; everything else is plain numpy.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .tolerances import DEFAULT_TOL, Tolerances


def as_complex_matrix(entries) -> np.ndarray:
    """Coerce input to a square complex128 matrix.

    Accepts anything numpy can turn into a 2-d array.  Raises
    :class:`ValidationError` if the result is not square, is empty, or
    contains non-finite values.  Returns a fresh writable array.
    """
    try:
        m = np.array(entries, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"cannot interpret input as a complex matrix: {exc}") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise ValidationError("matrix must have positive dimension")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix contains non-finite entries")
    return m


def identity(dim: int) -> np.ndarray:
    """Identity matrix of the given dimension."""
    if not (isinstance(dim, (int, np.integer)) and dim >= 1):
        raise ValidationError(f"dimension must be a positive integer, got {dim!r}")
    return np.eye(int(dim), dtype=np.complex128)


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValidationError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")


def is_self_adjoint(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when a equals its conjugate transpose within tolerance."""
    a = as_complex_matrix(a)
    scale = 1.0 + float(np.linalg.norm(a, "fro"))
    return float(np.linalg.norm(a - a.conj().T, "fro")) <= tol.atol + tol.rtol * scale


def fit_scalar(a: np.ndarray, b: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> tuple[complex, float]:
    """Least-squares scalar fit of ``a`` against ``b``.

    Finds the complex scalar ``lam`` minimising the Frobenius norm of
    ``a - lam * b`` and returns ``(lam, residual)``.  Under the trace
    inner product the minimiser is

        lam = trace(adjoint(b) @ a) / trace(adjoint(b) @ b)

    and the residual is the norm of the remainder.  A residual near zero
    certifies that ``a`` is a scalar multiple of ``b``.  Both traces are
    taken as elementwise sums (``vdot``), in O(d^2) rather than O(d^3).

    Raises :class:`ValidationError` when ``b`` is numerically zero, since
    no scalar fit exists against the zero matrix.
    """
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    _check_same_dim(a, b)
    denom = float(np.real(np.vdot(b, b)))
    if denom <= (tol.atol + tol.rtol) ** 2:
        raise ValidationError("cannot fit a scalar against a numerically zero matrix")
    lam = complex(np.vdot(b, a)) / denom
    residual = float(np.linalg.norm(a - lam * b, "fro"))
    return lam, residual
