"""States and state-dependent conditional probabilities.

A state assigns each event its probability via ``mu(e) = trace(rho @ e)``
for a density matrix ``rho`` (self-adjoint, positive semi-definite,
trace 1).  Conditioning on an event ``e`` with ``mu(e) > 0`` produces the
updated state

    rho_e = (e @ rho @ e) / trace(e @ rho @ e)

(for a projection the denominator is ``mu(e)``), and the conditional
probability of ``d`` given ``e`` is the value of the updated state at
``d``, which works out to

    mu(d | e) = trace(rho @ e @ d @ e) / trace(rho @ e).

Conditioning on several events in succession collapses into one closed
form: with the ordered product ``E = e1 @ e2 @ ... @ en``,

    mu(d | e1, ..., en) = trace(rho @ E @ d @ adjoint(E))
                          / trace(rho @ E @ adjoint(E)).

One private kernel evaluates this closed form.  A single condition is
the chain of length one, so :func:`cond_prob` is the kernel on ``[e]``
and equals :func:`repeated_cond_prob` on ``[e]`` bit for bit.
:func:`repeated_cond_prob` always cross-checks it against the fold of
:func:`cond_state` over the chain and raises if the two disagree.

Validation happens once, at the boundary: ``State(...)`` checks every
matrix handed to it, and :func:`cond_state` and :meth:`State.from_ensemble`
wrap what they build from validated objects without checking it again.
Traces of products with a self-adjoint factor are taken as elementwise
sums in O(d^2) rather than by forming the product in O(d^3).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from .errors import InvariantError, UndefinedProbabilityError, ValidationError
from .events import Event, _arg, _args, _dimension, _frobenius, _self_adjoint_matrix
from .tolerances import DEFAULT_TOL, Tolerances, clamp_probability, probability_slack

# Agreement threshold between the closed-form and step-by-step values of
# a repeated conditional probability, relative to max(1, |value|): a fixed
# bound on the round-off of two association orders, not a user tolerance.
_PATH_AGREEMENT_TOL = 1e-12


def _real_trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """``Re trace(a @ b)`` as the elementwise sum ``Re vdot(b, a)``.

    ``vdot(b, a)`` is ``trace(adjoint(b) @ a)``, whose real part equals
    ``Re trace(a @ b)`` whenever either factor is self-adjoint.  Costs
    O(d^2) instead of the O(d^3) of forming the product.
    """
    return float(np.real(np.vdot(b, a)))


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
        """The minimal event whose range is the line spanned by this vector."""
        v = self._unit()
        return Event(np.outer(v, v.conj()), 1)

    def __repr__(self) -> str:
        return f"PureVector(dim={self.dim})"


def _vector(x, what: str, dim: int | None = None) -> PureVector:
    """``x`` read by :func:`_arg` as a :class:`PureVector`, raw amplitudes converted first."""
    return _arg(x if isinstance(x, PureVector) else PureVector(x), PureVector, what, dim)


class State:
    """A density matrix: the probability assignment over events.

    Construct from an explicit matrix (validated for self-adjointness,
    positive semi-definiteness and unit trace) or from an ensemble of
    weighted vectors via :meth:`from_ensemble`.  Positive
    semi-definiteness lets the smallest eigenvalue dip to
    ``-tol.atol * max(1, |trace|)``, as round-off slack: an eigenvalue's
    round-off scales with the trace, not with a Frobenius norm.
    """

    __slots__ = ("_rho",)

    def __init__(self, rho, tol: Tolerances = DEFAULT_TOL):
        m, _ = _self_adjoint_matrix(rho, "state matrix", tol)
        m = (m + m.conj().T) / 2.0
        tr = float(np.real(np.trace(m)))
        if not tol.close(tr, 1.0):
            raise ValidationError(f"state trace {tr!r} differs from 1 beyond tolerance")
        if float(np.linalg.eigvalsh(m)[0]) < -tol.atol * max(1.0, abs(tr)):
            raise ValidationError("state matrix is not positive semi-definite within tolerance")
        m.setflags(write=False)
        self._rho = m

    @classmethod
    def _trusted(cls, rho: np.ndarray) -> "State":
        """Wrap a matrix that is a state by construction, without validation.

        For package code whose result is a state because its inputs were
        validated: ``rho`` must be a freshly built, exactly self-adjoint
        complex array that no caller holds.  It is made read-only here.
        """
        state = cls.__new__(cls)
        rho.setflags(write=False)
        state._rho = rho
        return state

    @classmethod
    def from_ensemble(cls, pairs: Iterable[tuple[float, PureVector]]) -> "State":
        """Mix weighted pure vectors into a state.

        ``pairs`` is an iterable of (weight, vector).  Weights must be
        nonnegative with a positive sum and are normalised to 1; vectors
        are normalised individually, so

            rho = sum_i  w_i * |v_i><v_i| / <v_i|v_i>.

        A convex mixture of unit rays is a state by construction, so the
        symmetrised sum is wrapped without the checks of ``State(...)``.
        """
        pairs = list(pairs)
        if not pairs:
            raise ValidationError("ensemble must contain at least one component")
        weights, vectors = [], []
        for w, v in pairs:
            w = float(w)
            if not np.isfinite(w) or w < 0:
                raise ValidationError(f"ensemble weight {w!r} must be finite and nonnegative")
            weights.append(w)
            vectors.append(_vector(v, "ensemble vector", vectors[0].dim if vectors else None))
        # Scaled by the largest weight, so the sum cannot overflow.
        top = max(weights)
        if top <= 0:
            raise ValidationError("ensemble weights must have positive sum")
        total = sum(w / top for w in weights)
        dim = vectors[0].dim
        rho = np.zeros((dim, dim), dtype=np.complex128)
        for w, v in zip(weights, vectors):
            u = v._unit()
            rho += (w / top / total) * np.outer(u, u.conj())
        return cls._trusted((rho + rho.conj().T) / 2.0)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "State":
        """The uniform state, identity divided by dimension: a state by construction, so not checked again."""
        dim = _dimension(dim)
        return cls._trusted(np.eye(dim, dtype=np.complex128) / dim)

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
    m = _operand_matrix(a, "operand of state_value", tol, _arg(mu, State, "state").dim)
    value = _real_trace_product(mu.rho, m)
    if isinstance(a, Event):
        return clamp_probability(value, probability_slack(a.rank, tol), what="event probability")
    return value


def _compress(rho: np.ndarray, e: Event) -> np.ndarray:
    """The unnormalised Lüders compression ``adjoint(e) @ rho @ e``."""
    m = e.matrix
    return m.conj().T @ rho @ m


def cond_state(mu: State, e: Event, tol: Tolerances = DEFAULT_TOL) -> State:
    """State update on observing ``e``: ``(e @ rho @ e) / trace(e @ rho @ e)``.

    For an exact projection the denominator is ``mu(e) = trace(rho @ e)``.
    The compression is taken as ``adjoint(e) @ rho @ e``, the step of
    :func:`repeated_cond_prob`'s cross-check, and divided by its own
    trace, exactly like the closed form, so the two agree even for events
    that are self-adjoint and idempotent only within tolerance.

    A validated state compressed by a validated event and renormalised is
    a state, so the symmetrised result skips the checks of ``State(...)``.

    Raises :class:`UndefinedProbabilityError` when that trace is at or
    below the probability floor, since conditioning on a probability-zero
    event is undefined.
    """
    _arg(e, Event, "condition", _arg(mu, State, "state").dim)
    compressed = _compress(mu.rho, e)
    p = float(np.real(np.trace(compressed)))
    if p <= tol.prob_floor:
        raise UndefinedProbabilityError(f"cannot condition on an event of probability {p!r}")
    updated = compressed / p
    return State._trusted((updated + updated.conj().T) / 2.0)


def _chain_product(events: list[Event]) -> np.ndarray:
    """Ordered product ``e1 @ e2 @ ... @ en`` of a nonempty chain of events checked by :func:`_args`."""
    product = events[0].matrix
    for e in events[1:]:
        product = product @ e.matrix
    return product


def _closed_form(mu: State, d, events: list[Event], tol: Tolerances) -> tuple[float, np.ndarray]:
    """``trace(rho @ E @ d @ adjoint(E)) / trace(rho @ E @ adjoint(E))`` for the ordered product ``E``, and d's matrix.

    The one conditioning kernel: :func:`cond_prob` is it on a one-element
    chain, and :func:`repeated_cond_prob` cross-checks it on the operand
    matrix validated here.  ``mu`` and ``events`` are checked by the caller.
    """
    product = _chain_product(events)
    dm = _operand_matrix(d, "conditioned operand", tol, mu.dim)
    # trace(adjoint(E) @ rho @ E @ X) == vdot(E, rho @ E @ X) for both X = 1 and X = d.
    weighted = mu.rho @ product
    den = float(np.vdot(product, weighted).real)
    if den <= tol.prob_floor:
        raise UndefinedProbabilityError(f"cannot condition on a chain of probability {den!r}")
    value = float(np.vdot(product, weighted @ dm).real) / den
    if isinstance(d, Event):
        value = clamp_probability(value, probability_slack(d.rank, tol), what="conditional probability")
    return value, dm


def cond_prob(mu: State, d, e: Event, tol: Tolerances = DEFAULT_TOL) -> float:
    """Conditional probability ``trace(rho @ e @ d @ e) / trace(rho @ e)``.

    The closed form on ``[e]`` (module docstring), with the compression
    ``adjoint(e) @ rho @ e`` divided by its own trace.  ``d`` may be an
    event or any self-adjoint matrix (in which case the result is a
    conditional expectation rather than a probability and is not
    clamped).  Raises :class:`UndefinedProbabilityError` when ``mu(e)``
    is at or below the probability floor.
    """
    return _closed_form(mu, d, [_arg(e, Event, "condition", _arg(mu, State, "state").dim)], tol)[0]


def repeated_cond_prob(mu: State, d, chain: Sequence[Event], tol: Tolerances = DEFAULT_TOL) -> float:
    """Probability of ``d`` after conditioning on ``chain`` in order.

    Uses the closed form over the ordered product ``E``:

        trace(rho @ E @ d @ adjoint(E)) / trace(rho @ E @ adjoint(E))

    and recomputes the value step by step: it folds the unnormalised
    compressions ``C -> adjoint(e) @ C @ e`` over the chain from
    ``C = rho`` and takes ``Re trace(C @ d) / Re trace(C)`` once at the
    end.  This is the fold of :func:`cond_state`, whose per-step traces
    cancel, and whose symmetrisation leaves ``Re trace(C @ d)`` unchanged.
    The two paths must agree to ``1e-12 * max(1, |value|)``, so to 1e-12
    for an event outcome; disagreement raises :class:`InvariantError`.
    A weight ``trace(C)`` at or below the probability floor on either
    path raises :class:`UndefinedProbabilityError`.

    The order of the chain matters: distinct orderings of the same events
    are genuinely different observations and give different values.  As
    in :func:`cond_prob`, ``d`` may be an event or any self-adjoint matrix.
    """
    events = _args(chain, Event, "conditioning chain", _arg(mu, State, "state").dim)
    value, dm = _closed_form(mu, d, events, tol)
    compressed = mu.rho
    for e in events:
        compressed = _compress(compressed, e)
    weight = float(np.real(np.trace(compressed)))
    if weight <= tol.prob_floor:
        raise UndefinedProbabilityError(f"cannot condition on a chain of probability {weight!r}")
    stepwise = _real_trace_product(compressed, dm) / weight
    if isinstance(d, Event):
        slack = probability_slack(d.rank, tol)
        stepwise = clamp_probability(stepwise, slack, what="step-by-step conditional probability")
    if abs(value - stepwise) > _PATH_AGREEMENT_TOL * max(1.0, abs(value)):
        raise InvariantError(f"closed-form and step-by-step conditioning disagree: {value!r} vs {stepwise!r}")
    return value
