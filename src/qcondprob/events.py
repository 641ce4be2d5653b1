"""Events as orthogonal projection matrices.

An event is a self-adjoint idempotent matrix (``e = adjoint(e) = e @ e``).
Its trace equals its rank, which counts the dimensions the event occupies.
Rank-1 events are minimal: they cannot be split into smaller nonzero
events.  The logical structure lives in the matrix algebra:

* negation is the complement ``identity - e``,
* mutual exclusion is ``e @ f == 0``,
* implication ``f <= e`` is absorption ``e @ f == f``,
* conjunction is the lattice meet, the projection onto the intersection
  of the two ranges.

No eigendecomposition is used anywhere; ranks come from traces and the
meet comes from repeated squaring of the product ``e @ f @ e``.

This module also holds the package's one input check for matrices,
which events, states and operands all pass, its one index and one
dimension rule, the one sameness and one exclusion rule, and the ray of
a minimal event.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, ValidationError
from .tolerances import DEFAULT_TOL, Tolerances

_EPS = float(np.finfo(np.float64).eps)
# Rounding in the meet's own directions doubles with every squaring, and so
# does lattice_meet's stopping floor, from 16 eps.  The bound stops where the
# floor reaches eps**0.25, the largest error that two polish passes
# (x -> 27 x**4) still bring back to round-off.
_MEET_MAX_SQUARINGS = int(np.log2(_EPS ** -0.75 / 16.0))


class Event:
    """A validated orthogonal projection.

    Instances are immutable; ``matrix`` is a read-only complex array and
    ``rank`` the integer trace.  Construct via :func:`validate_event` or
    the module helpers rather than trusting raw matrices.
    """

    __slots__ = ("_matrix", "_rank")

    def __init__(self, matrix: np.ndarray, rank: int):
        m = np.array(matrix, dtype=np.complex128)
        m.setflags(write=False)
        self._matrix = m
        self._rank = int(rank)

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def is_zero(self) -> bool:
        return self._rank == 0

    def is_identity(self) -> bool:
        return self._rank == self.dim

    def is_minimal(self) -> bool:
        """True for rank-1 events, the atoms of the event lattice."""
        return self._rank == 1

    def __repr__(self) -> str:
        return f"Event(dim={self.dim}, rank={self._rank})"


def _self_adjoint_matrix(entries, what: str, tol: Tolerances) -> tuple[np.ndarray, float]:
    """The one input check for matrices: events, states and operands.

    Coerces ``entries`` to a fresh finite square complex128 matrix ``m``
    with a finite ``|m|_F`` and requires
    ``|m - adjoint(m)|_F <= atol + rtol * (1 + |m|_F)``.  Returns ``m``
    with that budget, which callers reuse for their further checks, taking
    norms with :func:`_frobenius`, so that one that overflows exceeds the
    budget.  Raises :class:`ValidationError` naming ``what``.
    """
    try:
        m = np.array(entries, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"cannot interpret input as a complex matrix: {exc}") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise ValidationError("matrix must have positive dimension")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix contains non-finite entries")
    norm = _frobenius(m)
    # An infinite norm would make the budget infinite and pass every check.
    if not math.isfinite(norm):
        raise ValidationError(f"{what} is too large: its Frobenius norm overflows")
    budget = tol.atol + tol.rtol * (1.0 + norm)
    if _frobenius(m - m.conj().T) > budget:
        raise ValidationError(f"{what} is not self-adjoint within tolerance")
    return m, budget


def _frobenius(x: np.ndarray) -> float:
    """``np.linalg.norm(x, "fro")`` bit for bit, but inf without a warning where it overflows.

    ``np.vdot`` runs the same BLAS dot on the real and imaginary parts as
    the norm does, without the floating-point check that reports an
    overflow as a ``RuntimeWarning``.
    """
    x = x.ravel(order="K")
    return math.sqrt(np.vdot(x.real, x.real) + np.vdot(x.imag, x.imag))


def _is_integer(i) -> bool:
    """The one integer rule: a Python or numpy integer, not a bool."""
    return isinstance(i, (int, np.integer)) and not isinstance(i, bool)


def _index(i, stop: int, what: str) -> int:
    """The one index rule: an integer by ``_is_integer``, in ``range(stop)``."""
    if not _is_integer(i):
        raise ValidationError(f"{what} {i!r} is not an integer")
    if not 0 <= i < stop:
        raise ValidationError(f"{what} {i} outside range 0..{stop - 1}")
    return int(i)


def _dimension(dim) -> int:
    """The one dimension rule: a positive integer by ``_is_integer``."""
    if not (_is_integer(dim) and dim >= 1):
        raise ValidationError(f"dimension must be a positive integer, got {dim!r}")
    return int(dim)


def validate_event(matrix, tol: Tolerances = DEFAULT_TOL) -> Event:
    """Check that a matrix is an orthogonal projection and wrap it.

    Requires self-adjointness, idempotence and a trace within tolerance
    of a nonnegative integer, all at Frobenius scale.  The stored rank is
    that integer.  Raises :class:`ValidationError` with the failed
    property named.
    """
    m, budget = _self_adjoint_matrix(matrix, "event matrix", tol)
    if _frobenius(m @ m - m) > budget:
        raise ValidationError("event matrix is not idempotent within tolerance")
    tr = complex(np.trace(m))
    rank = int(round(tr.real))
    if abs(tr - rank) > budget or rank < 0 or rank > m.shape[0]:
        raise ValidationError(f"event trace {tr!r} is not a valid rank for dimension {m.shape[0]}")
    return Event(m, rank)


def zero_event(dim: int) -> Event:
    """The impossible event."""
    dim = _dimension(dim)
    return Event(np.zeros((dim, dim), dtype=np.complex128), 0)


def identity_event(dim: int) -> Event:
    """The certain event."""
    dim = _dimension(dim)
    return Event(np.eye(dim, dtype=np.complex128), dim)


def _check_same_space(e: Event, f: Event) -> None:
    if e.dim != f.dim:
        raise ValidationError(f"events live in different dimensions: {e.dim} vs {f.dim}")


def complement(e: Event) -> Event:
    """Negation: the projection onto the orthogonal complement of e."""
    return Event(np.eye(e.dim, dtype=np.complex128) - e.matrix, e.dim - e.rank)


# The sameness and exclusion rules, on Frobenius norms given as scalars or
# arrays: e and f are the same event when |e - f|_F is within atol + rtol,
# and exclude each other when |e @ f|_F is.  lattice_meet on two minimal
# events and the valuation problems' deduplication decide by _same;
# is_orthogonal and their exclusion relation decide by _excludes.
def _same(distance, tol: Tolerances):
    return distance <= tol.atol + tol.rtol


def _excludes(overlap, tol: Tolerances):
    return overlap <= tol.atol + tol.rtol


def _ray(e: Event) -> np.ndarray:
    """Unit vector spanning the range of a minimal event, up to phase.

    For ``e = v @ adjoint(v)`` column k is ``v * conj(v[k])`` and the
    diagonal entry ``|v[k]|^2``, so the column with the largest diagonal
    entry (at least 1/d) divided by its norm is ``v`` times a phase: O(d)
    work, no eigendecomposition.  ``e`` must be minimal.
    """
    k = int(np.argmax(e.matrix.diagonal().real))
    column = e.matrix[:, k]
    return column / np.linalg.norm(column)


def is_orthogonal(e: Event, f: Event, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Mutual exclusion: the product e @ f vanishes.

    Symmetric for events, since ``f @ e`` is the adjoint of ``e @ f``.
    """
    _check_same_space(e, f)
    return bool(_excludes(np.linalg.norm(e.matrix @ f.matrix, "fro"), tol))


def implies(f: Event, e: Event, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when f is contained in e (f <= e), i.e. e absorbs f: e @ f == f."""
    _check_same_space(f, e)
    diff = e.matrix @ f.matrix - f.matrix
    return float(np.linalg.norm(diff, "fro")) <= tol.atol + tol.rtol * (1.0 + float(np.linalg.norm(f.matrix, "fro")))


def commutes(e: Event, f: Event, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when e @ f == f @ e within tolerance."""
    _check_same_space(e, f)
    scale = 1.0 + float(np.linalg.norm(e.matrix, "fro")) * float(np.linalg.norm(f.matrix, "fro"))
    return float(np.linalg.norm(e.matrix @ f.matrix - f.matrix @ e.matrix, "fro")) <= tol.atol + tol.rtol * scale


def _polish(p: np.ndarray) -> np.ndarray:
    """One symmetrised pass of p -> 3p^2 - 2p^3; an eigenvalue x off {0, 1} ends about 3x^2 off."""
    p2 = p @ p
    p = 3.0 * p2 - 2.0 * (p2 @ p)
    return (p + p.conj().T) / 2.0


def lattice_meet(e: Event, f: Event, tol: Tolerances = DEFAULT_TOL) -> Event:
    """Conjunction: the projection onto range(e) intersected with range(f).

    Two minimal events meet in ``e`` when they coincide and in zero
    otherwise; this closed form also separates rays closer than the
    squaring below resolves.  For every other pair both inputs are
    polished, then ``t = e @ f @ e`` (eigenvalue 1 on the meet, cos^2 of
    each other principal angle elsewhere) is squared until a step
    ``|t @ t - t|`` falls below a floor of 16 eps (1 + |t|) that doubles
    per squaring, as the rounding in the meet's own directions does.  k
    squarings raise cos^2 to the power 2^k, so the count grows like
    log(1 / theta^2) for the smallest angle theta: about 10 at 0.3, 25 at
    1e-3, 32 at 1e-4, one for commuting pairs.  Two polish passes precede
    validation; the result is accurate to about eps / theta^2.

    Resolvable angles: below about 2e-5 the squaring bound runs out and
    :class:`ConvergenceError` is raised; below about 1e-7 two directions
    cannot be told from a shared one and count as shared.
    """
    _check_same_space(e, f)
    if e.is_minimal() and f.is_minimal():
        return e if _same(np.linalg.norm(e.matrix - f.matrix, "fro"), tol) else zero_event(e.dim)
    a = _polish(e.matrix)
    t = a @ _polish(f.matrix) @ a
    t = (t + t.conj().T) / 2.0
    floor = 16.0 * _EPS * (1.0 + float(np.linalg.norm(t, "fro")))
    for _ in range(_MEET_MAX_SQUARINGS):
        t2 = t @ t
        step = float(np.linalg.norm(t2 - t, "fro"))
        t = t2
        if step <= floor:
            break
        floor *= 2.0
    else:
        raise ConvergenceError(f"lattice meet did not converge within {_MEET_MAX_SQUARINGS} squarings")
    return validate_event(_polish(_polish(t)), tol)
