"""Events as orthogonal projection matrices.

An event is a self-adjoint idempotent matrix (``e = adjoint(e) = e @ e``),
stored exactly self-adjoint, so no route takes an adjoint.  Its trace
equals its rank, which counts the dimensions the event occupies.
Rank-1 events are minimal: they cannot be split into smaller nonzero
events.  The logical structure lives in the matrix algebra:

* negation is the complement ``identity - e``,
* mutual exclusion is ``e @ f == 0``,
* implication ``f <= e`` is absorption ``e @ f == f``,
* conjunction is the lattice meet, the projection onto the intersection
  of the two ranges, read from one SVD (see :func:`lattice_meet`).

This module also holds the package's one input check for matrices,
which events, states and operands all pass, its one Hermitian part,
index, dimension, number, choice and argument rule, the event lattice's
one resolution limit, the one sameness and one exclusion rule, and the
ray of a minimal event, and the factor of an event: an orthonormal ``V``
(d x r) with ``e = V @ adjoint(V)`` up to round-off, read by left-looking
pivoted Cholesky in O(d r^2) and kept on the event once derived, as is the
factor of the complement and the ray.  The conditioning kernel reads
events through their factors from d = 32, so it works in d x r
coordinates; an event that is a projection only within its budget has no
factor, and the kernel reads its matrix.  The lattice and exclusion
relations read the matrices.  Every comparison here is at Frobenius
scale, within a :meth:`Tolerances.budget`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .tolerances import DEFAULT_TOL, Tolerances


class Event:
    """A validated orthogonal projection.

    Instances are immutable; ``matrix`` is a read-only complex array and
    ``rank`` the integer trace.  The constructor checks structure only, a
    nonempty square matrix and a rank in 0..dim, and no numerics, not even
    self-adjointness: construct via :func:`validate_event` or the module
    helpers, whose matrices are exactly self-adjoint.  The constructor
    copies ``matrix``; the package's own constructors hand over a matrix
    they have just built, uncopied (:func:`_event`).  An event keeps its
    factor once :func:`_range` has derived it, the factor of its complement
    once :func:`_side` has, and a minimal event its ray once :func:`_ray`
    has; constructors that know a factor keep it.
    """

    __slots__ = ("_matrix", "_rank", "_ray", "_range", "_null")

    def __init__(self, matrix: np.ndarray, rank: int):
        try:
            m = np.array(matrix, dtype=np.complex128)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"cannot interpret input as a complex matrix: {exc}") from exc
        if m.ndim != 2 or not 0 < m.shape[0] == m.shape[1] or not (_is_integer(rank) and 0 <= rank <= m.shape[0]):
            raise ValidationError(f"event needs a nonempty square matrix and a rank in 0..dim, got {m.shape}, {rank!r}")
        _adopt(self, m, int(rank))

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

    def is_minimal(self) -> bool:
        """True for rank-1 events, the atoms of the event lattice."""
        return self._rank == 1

    def __repr__(self) -> str:
        return f"Event(dim={self.dim}, rank={self._rank})"


def _self_adjoint_matrix(entries, what: str, tol: Tolerances) -> tuple[np.ndarray, float]:
    """The one input check for matrices: events, states and operands.

    Coerces ``entries`` to a fresh finite square complex128 matrix ``m``
    with a finite ``|m|_F`` and requires
    ``|m - adjoint(m)|_F <= tol.budget(|m|_F)``.  Returns ``_hermitian(m)``
    with that budget, which callers reuse for their further checks of it,
    taking norms with :func:`_frobenius`, so that one that overflows
    exceeds the budget.  Raises :class:`ValidationError` naming ``what``.
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
    budget = tol.budget(norm)
    if _frobenius(m - m.conj().T) > budget:
        raise ValidationError(f"{what} is not self-adjoint within tolerance")
    return _hermitian(m), budget


def _hermitian(x: np.ndarray) -> np.ndarray:
    """The Hermitian part ``(x + adjoint(x)) / 2``, bitwise self-adjoint: each stored matrix not exact otherwise."""
    return (x + x.conj().T) / 2.0


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


def _is_number(x, kinds=(int, float)) -> bool:
    """The one number rule: an instance of ``kinds``, not a bool (a JSON boolean loads as ``bool``, an ``int``)."""
    return isinstance(x, kinds) and not isinstance(x, bool)


def _index(i, stop: int, what: str) -> int:
    """The one index rule: an integer by ``_is_integer``, in ``range(stop)``."""
    if type(i) is int and 0 <= i < stop:  # the common case, with no further check
        return i
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


def _is_choice(x, options: tuple[str, ...]) -> bool:
    """The one choice rule: a ``str`` among ``options``, so that an array is never compared elementwise."""
    return isinstance(x, str) and x in options


def _arg(x, kind: type, what: str, dim: int | None = None):
    """The one argument rule: ``x`` if it is a ``kind`` of dimension ``dim``, when given; else :class:`ValidationError`.

    A matrix's dimension is its order, a classical object's its outcome count, any other object's its ``dim``.
    """
    if not isinstance(x, kind):
        name = kind.__name__
        raise ValidationError(f"{what} must be {'an' if name[0] in 'AEIOU' else 'a'} {name}, got {type(x).__name__}")
    if dim is not None:
        size = getattr(x, "dim", None)
        if size is None:
            size = x.shape[0] if isinstance(x, np.ndarray) else x.n_outcomes
        if size != dim:
            raise ValidationError(f"dimension mismatch: {what} has dimension {size}, expected {dim}")
    return x


def _args(xs, kind: type, what: str, dim: int | None = None, empty: bool = False) -> list:
    """The sequence form of :func:`_arg`: ``xs`` as a fresh list of entries, each read by :func:`_arg`.

    ``xs`` is any iterable but a string, bytes or an array, nonempty unless ``empty``; ``kind=object`` takes any
    entry as it is, with no ``dim``.
    """
    if isinstance(xs, (str, bytes, np.ndarray)) or not hasattr(xs, "__iter__"):
        raise ValidationError(f"{what} must be a sequence, got {type(xs).__name__}")
    items = list(xs)
    if not (items or empty):
        raise ValidationError(f"{what} must contain at least one entry")
    if kind is not object:
        entry = f"{what} entry"
        for x in items:
            _arg(x, kind, entry, dim)
    return items


def validate_event(matrix, tol: Tolerances = DEFAULT_TOL) -> Event:
    """Check that a matrix is an orthogonal projection and wrap it.

    Requires self-adjointness, then idempotence and a trace near a
    nonnegative integer of the Hermitian part, which is stored, each
    defect within ``tol.budget(|e|_F)``.  The stored rank is that
    integer.  Raises :class:`ValidationError` naming the failed property.
    """
    m, budget = _self_adjoint_matrix(matrix, "event matrix", _arg(tol, Tolerances, "tol"))
    if _frobenius(m @ m - m) > budget:
        raise ValidationError("event matrix is not idempotent within tolerance")
    tr = complex(np.trace(m))
    rank = int(round(tr.real))
    if abs(tr - rank) > budget or rank < 0 or rank > m.shape[0]:
        raise ValidationError(f"event trace {tr!r} is not a valid rank for dimension {m.shape[0]}")
    return _event(m, rank)


def zero_event(dim: int) -> Event:
    """The impossible event, with the empty factor (d x 0) and the identity as its complement's."""
    eye = np.eye(_dimension(dim), dtype=np.complex128)
    return _event(np.zeros_like(eye), 0, eye[:, :0], eye)


def identity_event(dim: int) -> Event:
    """The certain event, with the identity as its factor and the empty factor as its complement's."""
    eye = np.eye(_dimension(dim), dtype=np.complex128)
    return _event(eye, eye.shape[0], eye, eye[:, :0])


def complement(e: Event) -> Event:
    """Negation: the projection onto the orthogonal complement of e; it takes over the factors e has derived."""
    _arg(e, Event, "e")
    return _event(np.eye(e.dim, dtype=np.complex128) - e.matrix, e.dim - e.rank, e._null, e._range)


def _event(m: np.ndarray, rank: int, v=None, null=None) -> Event:
    """The event on ``m``, uncopied, keeping its factor ``v`` and its complement's ``null`` where given.

    The package's constructors build ``m`` afresh, an exactly self-adjoint
    d x d complex128 matrix with ``rank`` in 0..d, and hand it over; it
    becomes read-only.  Each factor must be exact up to round-off: ``v``
    has ``rank`` orthonormal columns with ``v @ adjoint(v) == m``.  A factor
    :func:`_spanning` refused (``False``) is taken over as it is.
    """
    return _adopt(Event.__new__(Event), m, rank, v, null)


def _adopt(e: Event, m: np.ndarray, rank: int, v=None, null=None) -> Event:
    """Fill ``e``'s slots, with ``m`` and each factor given made read-only: both constructors' last step."""
    for f in (m, v, null):
        if isinstance(f, np.ndarray):
            f.setflags(write=False)
    e._matrix, e._rank, e._ray, e._range, e._null = m, rank, None, v, null
    return e


def _cholesky(m: np.ndarray, rank: int) -> np.ndarray:
    """An orthonormal factor ``V`` (d x rank) of the projection ``m``, by left-looking pivoted Cholesky.

    Step k pivots on the largest residual diagonal entry p (at least
    (rank - k) / d for a projection) and takes column p of the residual
    ``m - V @ adjoint(V) @ m``, divided by its own norm: r steps of O(d r),
    no eigendecomposition.  Step 0 is the column / norm of :func:`_ray`,
    so a minimal event's factor is its ray bit for bit.  For a projection
    ``adjoint(V) @ m`` is ``adjoint(V)``, so this is the Cholesky update
    ``m[:, p] - V @ conj(V[p])``; reading ``adjoint(V) @ m[:, p]`` instead
    keeps V orthonormal to round-off also for a matrix that is a
    projection only within its budget.
    """
    v = np.empty((m.shape[0], rank), dtype=np.complex128)
    vh = np.empty((rank, m.shape[0]), dtype=np.complex128)
    residual = m.diagonal().real.copy()
    for k in range(rank):
        p = int(np.argmax(residual))
        column = m[:, p] - v[:, :k] @ (vh[:k] @ m[:, p])
        v[:, k] = column = column / np.linalg.norm(column)
        np.conjugate(column, out=vh[k])
        residual -= (column * vh[k]).real
    return v


# How far ``V @ adjoint(V)`` may miss the matrix, per dimension, for the
# factor to stand in for it: round-off, 64 eps d.  On exact projections
# the factor misses by at most 1.6 eps d (measured, d 4 to 128); a matrix
# written to 10 decimals, a projection only within its budget, misses by
# about 1e-10, so its kernels read the matrix and agree with every route
# that applies it.
_ROUNDOFF = 64 * np.finfo(np.float64).eps


def _spanning(m: np.ndarray, rank: int):
    """The :func:`_cholesky` factor of ``m``, read-only, or ``False`` when it misses ``m`` by more than round-off.

    The check is one d x rank x d product, paid once per event.
    """
    v = _cholesky(m, rank)
    if _frobenius(v @ v.conj().T - m) > _ROUNDOFF * m.shape[0]:
        return False
    v.setflags(write=False)
    return v


def _range(e: Event) -> np.ndarray | None:
    """``V`` (d x rank, orthonormal) with ``e = V @ adjoint(V)`` up to round-off, or None when e has none.

    Derived by :func:`_spanning` on the first call and kept, the refusal
    too, so that every later call returns the same array or None.  None
    means that e is a projection only within its budget, and a kernel
    reads e's matrix instead.
    """
    if e._range is None:
        e._range = _spanning(e.matrix, e.rank)
    return None if e._range is False else e._range


def _side(e: Event) -> tuple[np.ndarray | None, bool]:
    """The factor of e's smaller side, or None as :func:`_range` gives it, and whether that side is ``I - e``.

    A quadratic form ``Re vdot(x, e @ x)`` reads ``|adjoint(V) @ x|^2`` on
    the range when ``rank <= d / 2``, else ``|x|^2 - |adjoint(V_perp) @ x|^2``
    on the complement: at most d / 2 columns either way, with an absolute
    error of about eps ``|x|^2``, which is what a clamped probability needs.
    The complement's factor is read from ``I - e`` (as :func:`complement`
    forms it) once, then kept.
    """
    if 2 * e.rank <= e.dim:
        return _range(e), False
    if e._null is None:
        e._null = _spanning(np.eye(e.dim, dtype=np.complex128) - e.matrix, e.dim - e.rank)
    return (None if e._null is False else e._null), True


def _resolution(rank, tol: Tolerances):
    """``sqrt(2) * tol.budget(sqrt(rank))``: the event lattice's one resolution limit, the meet's cut.

    A validated event of rank ``r`` has ``|e|_F = sqrt(r)`` to first
    order and defects within its budget ``b = tol.budget(sqrt(r))``, so
    each of the two stacked complements ``[I - e; I - f]`` of
    :func:`lattice_meet` may miss a shared direction by ``b``, which puts
    that direction's singular value within ``sqrt(2) b``.  ``rank`` is the
    larger of the pair's ranks, a scalar or an array; the limit grows with
    it, so the limit at the larger rank is the larger of the two limits.

    A direction at principal angle theta to the other range has singular
    value ``sqrt(2) sin(theta / 2)``, adds ``sin theta`` to
    ``|e @ f - f|_F`` and ``sqrt(2) sin theta`` to ``|e - f|_F``, so the
    meet's cut ``tau``, implication at ``sqrt(2) tau`` and sameness at
    ``2 tau`` all cut one angle at about ``sqrt(2) tau`` (relative gap
    theta^2 / 8); with several angles the two Frobenius relations are
    only stricter than the meet.  Exclusion is implication into the
    complement, ``|(I - e) @ f - f|_F = |e @ f|_F``, so it reads
    ``sqrt(2) tau`` too.
    """
    return math.sqrt(2.0) * _arg(tol, Tolerances, "tol").budget(np.sqrt(rank))


# The sameness and exclusion rules, on Frobenius norms and the resolution
# limit tau at the pair's larger rank, given as scalars or arrays:
# |e - f|_F within 2 tau, and |e @ f|_F within sqrt(2) tau.  Sameness at
# 2 tau puts e within sqrt(2) tau of f's range, so a copy merged into a kept
# event still excludes its complement.  lattice_meet on two minimal events
# and the valuation problems' deduplication decide by _same; implies,
# is_orthogonal and the valuation problems' exclusion relation by _excludes.
def _same(distance, tau):
    return distance <= 2.0 * tau


def _excludes(overlap, tau):
    return overlap <= math.sqrt(2.0) * tau


def _ray(e: Event) -> np.ndarray:
    """Unit vector spanning the range of a minimal event, up to phase.

    For ``e = v @ adjoint(v)`` column k is ``v * conj(v[k])`` and the
    diagonal entry ``|v[k]|^2``, so the column with the largest diagonal
    entry (at least 1/d) divided by its norm is ``v`` times a phase: O(d)
    work, no eigendecomposition.  ``e`` must be minimal.  The ray is
    derived on the first call and kept on ``e`` as a read-only array,
    which every later call returns.
    """
    if e._ray is None:
        k = int(np.argmax(e.matrix.diagonal().real))
        column = e.matrix[:, k]
        ray = column / np.linalg.norm(column)
        ray.setflags(write=False)
        e._ray = ray
    return e._ray


def is_orthogonal(e: Event, f: Event, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Mutual exclusion: the product e @ f vanishes.

    Decided by :func:`_excludes`.  Symmetric for events, since ``f @ e``
    is the adjoint of ``e @ f``.
    """
    _arg(f, Event, "f", _arg(e, Event, "e").dim)
    return bool(_excludes(_frobenius(e.matrix @ f.matrix), _resolution(max(e.rank, f.rank), tol)))


def implies(f: Event, e: Event, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when f is contained in e (f <= e), i.e. e absorbs f: e @ f == f.

    Decided as f excluding e's complement, ``|e @ f - f|_F`` by
    :func:`_excludes`, so it holds where :func:`lattice_meet` finds f in e.
    """
    _arg(e, Event, "e", _arg(f, Event, "f").dim)
    return bool(_excludes(_frobenius(e.matrix @ f.matrix - f.matrix), _resolution(max(e.rank, f.rank), tol)))


def commutes(e: Event, f: Event, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when e @ f == f @ e within tolerance."""
    _arg(f, Event, "f", _arg(e, Event, "e").dim)
    scale = _frobenius(e.matrix) * _frobenius(f.matrix)
    return _frobenius(e.matrix @ f.matrix - f.matrix @ e.matrix) <= _arg(tol, Tolerances, "tol").budget(scale)


def lattice_meet(e: Event, f: Event, tol: Tolerances = DEFAULT_TOL) -> Event:
    """Conjunction: the projection onto range(e) intersected with range(f).

    Two minimal events meet in ``e`` when they coincide by :func:`_same`
    (a closed form that spares them the SVD) and in zero otherwise.  For
    every other pair the meet is the null space of the stacked complements
    ``[I - e; I - f]`` (2d x d): a vector lies in both ranges exactly when
    both complements kill it.  One SVD gives it with no iteration, after
    Bjorck & Golub (1973), who read principal angles from sines: a
    direction at principal angle theta to the other range has singular
    value sqrt(2) sin(theta / 2), so the gap seen is about theta, not
    theta^2, and the result is accurate to about eps / theta.  The meet
    basis is the right singular vectors whose singular value is at most
    ``tau = _resolution(r, tol)``, ``r`` the larger rank: the lattice's
    one resolution limit, which sameness and :func:`_excludes` read too.
    Two directions at an angle below ``sqrt(2) tau = 2 tol.budget(sqrt(r))``,
    6e-10 for two rays at the default tolerances, count as shared.  An
    orthonormal basis gives a projection by construction, so the result,
    the product's Hermitian part, is not revalidated.
    """
    _arg(f, Event, "f", _arg(e, Event, "e").dim)
    if e.is_minimal() and f.is_minimal():
        return e if _same(_frobenius(e.matrix - f.matrix), _resolution(1, tol)) else zero_event(e.dim)
    eye = np.eye(e.dim, dtype=np.complex128)
    _, s, vh = np.linalg.svd(np.vstack([eye - e.matrix, eye - f.matrix]), full_matrices=False)
    basis = vh[s <= _resolution(max(e.rank, f.rank), tol)]
    v = basis.conj().T
    return _event(_hermitian(v @ basis), len(basis), v)
