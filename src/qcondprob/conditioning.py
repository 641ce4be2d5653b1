"""States and state-dependent conditional probabilities.

A state assigns each event its probability via ``mu(e) = trace(rho @ e)``
for a density matrix ``rho`` (self-adjoint, positive semi-definite,
trace 1), and keeps a factor ``W`` (d x m) with ``rho = W @ adjoint(W)``,
as an event keeps its factor ``V``.  Conditioning on an event ``e`` with
``mu(e) > 0`` maps ``W`` to ``e @ W``, no adjoint since a stored event
matrix is exactly self-adjoint, and renormalises: the updated state is

    rho_e = (e @ rho @ e) / trace(e @ rho @ e).

Conditioning on several events in succession collapses into one closed
form: with the ordered product ``E = e1 @ e2 @ ... @ en`` and
``X = adjoint(E) @ W = en @ ... @ e1 @ W``,

    mu(d | e1, ..., en) = trace(rho @ E @ d @ adjoint(E)) / trace(rho @ E @ adjoint(E))
                        = Re vdot(X, d @ X) / vdot(X, X),

a ratio of squared norms (Lüders 1951).  From d = 32 (``_FACTOR_DIM``)
the closed form reads the events through their orthonormal factors
(``events._range``, ``e = V @ adjoint(V)``): ``X = Vn @ Z`` with
``Z = T(n-1) @ ... @ T1 @ adjoint(V1) @ W`` and the r(i+1) x r(i)
overlaps ``Ti = adjoint(V(i+1)) @ Vi``, so the weight is ``|Z|^2``, read
on the last condition's own range, an event outcome is read on its
smaller side (``events._side``), and the work is O(k d r m) for k events
of rank r and an m-column state factor, not O(k d^3).  Below d = 32, and
for a condition that is a projection only within its budget and so has
no factor, it folds the event matrices; such an outcome is read by its
matrix at ``X = Vn @ Z``.  The step-by-step cross-check of
:func:`repeated_cond_prob` folds ``x -> e @ x`` from ``W`` at every d, in
O(k d^2 m), the fold that the fits of :mod:`.objective` read too, so from
d = 32 it checks the factors against the matrices.  One refusal of a
weight at or below the probability floor serves both and
:func:`cond_state`, which divides ``e @ W`` by the root of that weight.
A single condition is the chain of length one, so :func:`cond_prob`
equals :func:`repeated_cond_prob` on ``[e]`` bit for bit.

Validation happens once, at the boundary: ``State(...)`` checks every
matrix handed to it and reads its factor from the eigendecomposition;
the other constructors and :func:`cond_state` build the factor of a
state by construction and do not check it again.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Sequence

import numpy as np

from .errors import InvariantError, UndefinedProbabilityError, ValidationError
from .events import (
    Event, _arg, _args, _dimension, _event, _frobenius, _hermitian, _is_number, _range, _self_adjoint_matrix,
    _side,
)
from .tolerances import DEFAULT_TOL, Tolerances, clamp_probability, probability_slack

# Agreement threshold between the closed-form and step-by-step values of
# a repeated conditional probability, relative to max(1, |value|): a fixed
# bound on the round-off of two association orders, not a user tolerance.
_PATH_AGREEMENT_TOL = 1e-12

# The dimension from which the conditioning kernel reads factors.  Below
# it a product costs about one numpy call whatever its size, and the factor
# route takes more of them (the overlaps, the outcome's side), so the kernel
# applies the event matrices.  Measured on one x86-64 core, one BLAS thread,
# per cond_prob / repeated_cond_prob over 4 events (ranks 2 to d - 1, a
# full-rank state): matrices 12 / 38 us against factors 14 / 45 us at
# d = 16, 15 / 57 against 17 / 67 at d = 24, 22 / 88 against 20 / 92 at
# d = 32, 80 / 376 against 33 / 287 at d = 64.
_FACTOR_DIM = 32


def _scaled_norm(v: np.ndarray) -> tuple[float, float]:
    """``(s, n)`` with ``|v| = s * n``, so that no square overflows or underflows.

    While |v|^2 stays well inside the float range, ``s`` is 1.0 and ``n``
    is ``np.linalg.norm(v)`` bit for bit; else ``s`` is the largest
    amplitude and ``n`` the norm of ``v / s``.
    """
    n = _frobenius(v)
    if 1e-150 < n < 1e150:
        return 1.0, n
    s = float(np.max(np.abs(v)))
    return s, _frobenius(v / s)


class PureVector:
    """A nonzero one-dimensional vector of complex amplitudes.

    Not required to be normalised; every consumer divides by the squared
    norm where needed.
    """

    __slots__ = ("_amplitudes",)

    def __init__(self, amplitudes):
        try:
            v = np.array(amplitudes, dtype=np.complex128)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"cannot interpret input as a complex vector: {exc}") from exc
        if v.ndim != 1:
            raise ValidationError(f"expected a one-dimensional vector, got shape {v.shape}")
        if v.size == 0:
            raise ValidationError("vector must have positive dimension")
        if not np.all(np.isfinite(v)):
            raise ValidationError("vector contains non-finite entries")
        if not np.any(v):
            raise ValidationError("vector must be nonzero")
        v.setflags(write=False)
        self._amplitudes = v

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amplitudes

    @property
    def dim(self) -> int:
        return self._amplitudes.size

    def norm(self) -> float:
        s, n = _scaled_norm(self._amplitudes)
        return s * n

    def _unit(self) -> np.ndarray:
        s, n = _scaled_norm(self._amplitudes)
        return self._amplitudes / s / n

    def projector(self) -> Event:
        """The minimal event whose range is the line spanned by this vector; it keeps the unit vector as its factor."""
        v = self._unit()
        return _event(_hermitian(np.outer(v, v.conj())), 1, v[:, None])

    def __repr__(self) -> str:
        return f"PureVector(dim={self.dim})"


def _vector(x, what: str, dim: int | None = None) -> PureVector:
    """``x`` read by :func:`_arg` as a :class:`PureVector`, raw amplitudes converted first."""
    return _arg(x if isinstance(x, PureVector) else PureVector(x), PureVector, what, dim)


class State:
    """A density matrix ``rho = W @ adjoint(W)`` and its factor ``W``: the probability assignment over events.

    Construct from an explicit matrix (validated for self-adjointness,
    positive semi-definiteness and unit trace) or from an ensemble of
    weighted vectors via :meth:`from_ensemble`.  Positive
    semi-definiteness lets the smallest eigenvalue dip to
    ``-tol.atol * max(1, |trace|)``, as round-off slack: an eigenvalue's
    round-off scales with the trace, not with a Frobenius norm.  The
    factor keeps ``sqrt(lam) v`` for each eigenpair with ``lam > 0``, so
    an eigenvalue inside that slack reads as 0 in it.
    """

    __slots__ = ("_rho", "_factor")

    def __init__(self, rho, tol: Tolerances = DEFAULT_TOL):
        m, _ = _self_adjoint_matrix(rho, "state matrix", _arg(tol, Tolerances, "tol"))
        tr = float(np.real(np.trace(m)))
        if not tol.close(tr, 1.0):
            raise ValidationError(f"state trace {tr!r} differs from 1 beyond tolerance")
        lam, vectors = np.linalg.eigh(m)
        if float(lam[0]) < -tol.atol * max(1.0, abs(tr)):
            raise ValidationError("state matrix is not positive semi-definite within tolerance")
        positive = lam > 0
        self._factor = vectors[:, positive] * np.sqrt(lam[positive])
        self._rho = m
        self._factor.setflags(write=False)
        m.setflags(write=False)

    @classmethod
    def _trusted(cls, factor: np.ndarray, rho: np.ndarray | None = None) -> "State":
        """Wrap the factor ``W`` (complex, d x m) of a state by construction, without validation.

        For package code whose inputs were validated.  Without ``rho``,
        ``W @ adjoint(W)``'s Hermitian part is formed; a given ``rho`` must
        be that product, exactly self-adjoint.  Both are made read-only.
        """
        if rho is None:
            rho = _hermitian(factor @ factor.conj().T)
        state = cls.__new__(cls)
        factor.setflags(write=False)
        rho.setflags(write=False)
        state._factor, state._rho = factor, rho
        return state

    @classmethod
    def from_ensemble(cls, pairs: Iterable[tuple[float, PureVector]]) -> "State":
        """Mix weighted pure vectors into a state.

        ``pairs`` is a nonempty iterable of (weight, vector).  Weights
        must be finite nonnegative numbers (an ``int`` or ``float``, not a
        bool) with a positive sum and are normalised to 1; vectors are
        normalised individually, so

            rho = sum_i  w_i * |v_i><v_i| / <v_i|v_i>.

        The factor stacks the columns ``sqrt(w_i) v_i / |v_i|``: a convex
        mixture of unit rays is a state by construction, so it is wrapped
        without the checks of ``State(...)``.
        """
        weights, vectors = [], []
        for pair in _args(pairs, object, "ensemble"):
            pair = _args(pair, object, "ensemble component")
            if len(pair) != 2 or not (_is_number(pair[0]) and 0 <= pair[0] <= sys.float_info.max):
                raise ValidationError(f"ensemble component {pair!r} is not a (finite weight >= 0, vector) pair")
            weights.append(float(pair[0]))
            vectors.append(_vector(pair[1], "ensemble vector", vectors[0].dim if vectors else None))
        # Scaled by the largest weight, so the sum cannot overflow.
        top = max(weights)
        if top <= 0:
            raise ValidationError("ensemble weights must have positive sum")
        total = sum(w / top for w in weights)
        columns = [math.sqrt(w / top / total) * v._unit() for w, v in zip(weights, vectors)]
        return cls._trusted(np.stack(columns, axis=1))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "State":
        """The uniform state, identity divided by dimension: a state by construction, so not checked again."""
        dim = _dimension(dim)
        eye = np.eye(dim, dtype=np.complex128)
        return cls._trusted(eye / math.sqrt(dim), eye / dim)

    @property
    def rho(self) -> np.ndarray:
        return self._rho

    @property
    def dim(self) -> int:
        return self._rho.shape[0]

    def __repr__(self) -> str:
        return f"State(dim={self.dim})"


def _operand_matrix(a, what: str, tol: Tolerances, dim: int) -> np.ndarray:
    m = a.matrix if isinstance(a, Event) else _self_adjoint_matrix(a, what, tol)[0]
    return _arg(m, np.ndarray, what, dim)


def state_value(mu: State, a, tol: Tolerances = DEFAULT_TOL) -> float:
    """Expectation ``trace(rho @ a)`` of a self-adjoint operand.

    ``a`` may be an :class:`Event` or a self-adjoint matrix.  The result
    is real; for events it is additionally clamped into [0, 1], with any
    departure beyond :func:`probability_slack` raising :class:`InvariantError`.
    """
    m = _operand_matrix(a, "operand of state_value", _arg(tol, Tolerances, "tol"), _arg(mu, State, "state").dim)
    # Re trace(rho @ m) == Re vdot(m, rho) for self-adjoint m: O(d^2) instead of forming the product.
    value = float(np.real(np.vdot(m, mu.rho)))
    if isinstance(a, Event):
        return clamp_probability(value, probability_slack(a.rank, tol), what="event probability")
    return value


def _weight(x: np.ndarray, tol: Tolerances, what: str) -> float:
    """``Re vdot(x, x)``, the weight of a compressed factor ``x``: the one refusal of a Lüders value.

    Raises :class:`UndefinedProbabilityError`, naming ``what`` was
    conditioned on, when the weight is at or below the probability floor.
    """
    weight = float(np.vdot(x, x).real)
    if weight <= tol.prob_floor:
        raise UndefinedProbabilityError(f"cannot condition on {what} of probability {weight!r}")
    return weight


def cond_state(mu: State, e: Event, tol: Tolerances = DEFAULT_TOL) -> State:
    """State update on observing ``e``: ``(e @ rho @ e) / trace(e @ rho @ e)``.

    For an exact projection the denominator is ``mu(e) = trace(rho @ e)``.
    The updated factor is ``e @ W`` divided by the root of its weight,
    the step of :func:`repeated_cond_prob`'s cross-check, so the two
    agree even for events that are idempotent only within tolerance.
    A validated state compressed by a validated event and renormalised
    is a state, so the result skips the checks of ``State(...)``.

    Raises :class:`UndefinedProbabilityError` when the weight
    ``trace(e @ rho @ e)`` is at or below the probability floor, since
    conditioning on a probability-zero event is undefined.
    """
    _arg(e, Event, "condition", _arg(mu, State, "state").dim)
    x = e.matrix @ mu._factor
    return State._trusted(x / math.sqrt(_weight(x, _arg(tol, Tolerances, "tol"), "an event")))


def _fold(x: np.ndarray, events) -> np.ndarray:
    """``x -> e @ x`` for each event in turn: the one Lüders fold, of a factor, a ray or a first event's matrix."""
    for e in events:
        x = e.matrix @ x
    return x


def _value(x: np.ndarray, d, dm: np.ndarray, tol: Tolerances, what: str) -> float:
    """The Lüders quotient ``Re vdot(x, dm @ x) / Re vdot(x, x)``, clamped as ``what`` when ``d`` is an event."""
    weight = _weight(x, tol, "a chain")
    value = float(np.vdot(x, dm @ x).real) / weight
    if isinstance(d, Event):
        value = clamp_probability(value, probability_slack(d.rank, tol), what=what)
    return value


def _factor_value(w: np.ndarray, factors: list[np.ndarray], d, dm: np.ndarray, tol: Tolerances) -> float:
    """The closed form in the events' factor coordinates: ``Z = T(n-1) @ ... @ T1 @ adjoint(V1) @ W``.

    The overlaps ``Ti = adjoint(V(i+1)) @ Vi`` are folded first, then
    applied to ``adjoint(V1) @ W``; the weight is ``|Z|^2``, read on the
    last condition's own range, and an event outcome is read on its
    smaller side (``events._side``), ``S = adjoint(V_side) @ Vn``, as
    ``|S @ Z|^2`` or ``|Z|^2 - |S @ Z|^2``.  Any other operand, and an
    event without a factor, is read as ``Re vdot(X, dm @ X)`` at
    ``X = Vn @ Z``.
    """
    folded = None
    for v, u in zip(factors, factors[1:]):
        overlap = u.conj().T @ v
        folded = overlap if folded is None else overlap @ folded
    z = factors[0].conj().T @ w
    if folded is not None:
        z = folded @ z
    weight = _weight(z, tol, "a chain")
    side, complement = _side(d) if isinstance(d, Event) else (None, False)
    if side is None:
        x = factors[-1] @ z
        value = float(np.vdot(x, dm @ x).real) / weight
    else:
        a = (side.conj().T @ factors[-1]) @ z
        share = float(np.vdot(a, a).real)
        value = (weight - share if complement else share) / weight
    if isinstance(d, Event):
        value = clamp_probability(value, probability_slack(d.rank, tol), what="conditional probability")
    return value


def _closed_form(mu: State, d, events: list[Event], tol: Tolerances) -> tuple[float, np.ndarray]:
    """``Re vdot(X, d @ X) / vdot(X, X)`` at ``X = adjoint(E) @ W = en @ ... @ e1 @ W``, and d's matrix.

    The one conditioning kernel: :func:`cond_prob` is it on a one-element
    chain, and :func:`repeated_cond_prob` cross-checks it on the operand
    matrix validated here.  From ``_FACTOR_DIM`` on, and when every
    condition has a factor, it is read in factor coordinates
    (:func:`_factor_value`); otherwise from the event matrices, folded
    first and then applied to ``W``.  ``mu`` and ``events`` are checked by
    the caller.
    """
    dm = _operand_matrix(d, "conditioned operand", _arg(tol, Tolerances, "tol"), mu.dim)
    if mu.dim >= _FACTOR_DIM:
        factors = [_range(e) for e in events]
        if all(v is not None for v in factors):
            return _factor_value(mu._factor, factors, d, dm, tol), dm
    return _value(_fold(events[0].matrix, events[1:]) @ mu._factor, d, dm, tol, "conditional probability"), dm


def cond_prob(mu: State, d, e: Event, tol: Tolerances = DEFAULT_TOL) -> float:
    """Conditional probability ``trace(rho @ e @ d @ e) / trace(rho @ e)``.

    The closed form on ``[e]`` (module docstring), the Lüders quotient of
    ``d`` at ``e @ W``.  ``d`` may be an event or any self-adjoint
    matrix (in which case the result is a conditional expectation rather
    than a probability and is not clamped).  Raises
    :class:`UndefinedProbabilityError` when ``mu(e)`` is at or below the
    probability floor.
    """
    return _closed_form(mu, d, [_arg(e, Event, "condition", _arg(mu, State, "state").dim)], tol)[0]


def repeated_cond_prob(mu: State, d, chain: Sequence[Event], tol: Tolerances = DEFAULT_TOL) -> float:
    """Probability of ``d`` after conditioning on ``chain`` in order.

    Uses the closed form over the ordered product ``E``:

        trace(rho @ E @ d @ adjoint(E)) / trace(rho @ E @ adjoint(E))

    and recomputes the value step by step: it folds ``X -> e @ X``
    over the chain from the state's factor ``X = W`` and takes the Lüders
    quotient once at the end, the fold of :func:`cond_state` without its
    per-step normalisations, which cancel.  This fold reads the event
    matrices at every d, so where the closed form reads factors (module
    docstring) it checks them too.  The two association orders
    must agree to ``1e-12 * max(1, |value|)``, so to 1e-12 for an event
    outcome; disagreement raises :class:`InvariantError`.  A weight at or
    below the probability floor on either path raises
    :class:`UndefinedProbabilityError`.

    The order of the chain matters: distinct orderings of the same events
    are genuinely different observations and give different values.  As
    in :func:`cond_prob`, ``d`` may be an event or any self-adjoint matrix.
    """
    events = _args(chain, Event, "conditioning chain", _arg(mu, State, "state").dim)
    value, dm = _closed_form(mu, d, events, tol)
    stepwise = _value(_fold(mu._factor, events), d, dm, tol, "step-by-step conditional probability")
    if abs(value - stepwise) > _PATH_AGREEMENT_TOL * max(1.0, abs(value)):
        raise InvariantError(f"closed-form and step-by-step conditioning disagree: {value!r} vs {stepwise!r}")
    return value
