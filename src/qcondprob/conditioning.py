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
:func:`repeated_cond_prob` always recomputes its value by composing the
state updates step by step and raises if the two paths disagree.

Validation happens once, at the boundary: ``State(...)`` checks every
matrix handed to it.  The update ``rho -> rho_e`` of an already
validated state by an already validated event is a state by
construction, so :func:`cond_state` wraps its result without checking
it again.  Traces of products with a self-adjoint factor are taken as
elementwise sums in O(d^2) rather than by forming the product in O(d^3).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from .errors import InvariantError, UndefinedProbabilityError, ValidationError
from .events import Event, _self_adjoint_matrix
from .tolerances import DEFAULT_TOL, Tolerances, clamp_probability

# Agreement threshold between the closed-form and step-by-step values of
# a repeated conditional probability.
_PATH_AGREEMENT_TOL = 1e-12


def _real_trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """``Re trace(a @ b)`` as the elementwise sum ``Re vdot(b, a)``.

    ``vdot(b, a)`` is ``trace(adjoint(b) @ a)``, whose real part equals
    ``Re trace(a @ b)`` whenever either factor is self-adjoint.  Costs
    O(d^2) instead of the O(d^3) of forming the product.
    """
    return float(np.real(np.vdot(b, a)))


class PureVector:
    """A nonzero vector of complex amplitudes.

    Not required to be normalised; every consumer divides by the squared
    norm where needed.
    """

    __slots__ = ("_amplitudes",)

    def __init__(self, amplitudes):
        try:
            v = np.array(amplitudes, dtype=np.complex128).reshape(-1)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"cannot interpret input as a complex vector: {exc}") from exc
        if v.size == 0:
            raise ValidationError("vector must have positive dimension")
        if not np.all(np.isfinite(v)):
            raise ValidationError("vector contains non-finite entries")
        if float(np.linalg.norm(v)) == 0.0:
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
        return float(np.linalg.norm(self._amplitudes))

    def normalized(self) -> "PureVector":
        return PureVector(self._amplitudes / self.norm())

    def projector(self) -> Event:
        """The minimal event whose range is the line spanned by this vector."""
        v = self._amplitudes / self.norm()
        return Event(np.outer(v, v.conj()), 1)

    def __repr__(self) -> str:
        return f"PureVector(dim={self.dim})"


class State:
    """A density matrix: the probability assignment over events.

    Construct from an explicit matrix (validated for self-adjointness,
    positive semi-definiteness and unit trace) or from an ensemble of
    weighted vectors via :meth:`from_ensemble`.  Positive
    semi-definiteness lets the smallest eigenvalue dip to
    ``-tol.atol * max(1, |trace|)``, as round-off slack.
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
    def from_ensemble(cls, pairs: Iterable[tuple[float, PureVector]], tol: Tolerances = DEFAULT_TOL) -> "State":
        """Mix weighted pure vectors into a state.

        ``pairs`` is an iterable of (weight, vector).  Weights must be
        nonnegative with a positive sum and are normalised to 1; vectors
        are normalised individually, so

            rho = sum_i  w_i * |v_i><v_i| / <v_i|v_i>.
        """
        pairs = list(pairs)
        if not pairs:
            raise ValidationError("ensemble must contain at least one component")
        weights = []
        vectors = []
        for w, v in pairs:
            w = float(w)
            if not np.isfinite(w) or w < 0:
                raise ValidationError(f"ensemble weight {w!r} must be finite and nonnegative")
            if not isinstance(v, PureVector):
                v = PureVector(v)
            weights.append(w)
            vectors.append(v)
        total = sum(weights)
        if total <= 0:
            raise ValidationError("ensemble weights must have positive sum")
        dim = vectors[0].dim
        rho = np.zeros((dim, dim), dtype=np.complex128)
        for w, v in zip(weights, vectors):
            if v.dim != dim:
                raise ValidationError(f"ensemble vectors live in different dimensions: {dim} vs {v.dim}")
            u = v.amplitudes / v.norm()
            rho += (w / total) * np.outer(u, u.conj())
        return cls(rho, tol=tol)

    @classmethod
    def from_pure(cls, v: PureVector, tol: Tolerances = DEFAULT_TOL) -> "State":
        """The state concentrated on a single vector."""
        return cls.from_ensemble([(1.0, v)], tol=tol)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "State":
        """The uniform state, identity divided by dimension."""
        return cls(np.eye(dim, dtype=np.complex128) / dim)

    @property
    def rho(self) -> np.ndarray:
        return self._rho

    @property
    def dim(self) -> int:
        return self._rho.shape[0]

    def __repr__(self) -> str:
        return f"State(dim={self.dim})"


def _operand_matrix(a, what: str, tol: Tolerances) -> np.ndarray:
    if isinstance(a, Event):
        return a.matrix
    return _self_adjoint_matrix(a, what, tol)[0]


def state_value(mu: State, a, tol: Tolerances = DEFAULT_TOL) -> float:
    """Expectation ``trace(rho @ a)`` of a self-adjoint operand.

    ``a`` may be an :class:`Event` or a self-adjoint matrix.  The result
    is real; for events it is additionally clamped into [0, 1], with any
    departure beyond tolerance raising :class:`InvariantError`.
    """
    m = _operand_matrix(a, "operand of state_value", tol)
    if m.shape[0] != mu.dim:
        raise ValidationError(f"dimension mismatch: state {mu.dim} vs operand {m.shape[0]}")
    value = _real_trace_product(mu.rho, m)
    if isinstance(a, Event):
        return clamp_probability(value, tol, what="event probability")
    return value


def cond_state(mu: State, e: Event, tol: Tolerances = DEFAULT_TOL) -> State:
    """State update on observing ``e``: ``(e @ rho @ e) / trace(e @ rho @ e)``.

    For an exact projection the denominator is ``mu(e) = trace(rho @ e)``.
    The compression is taken as ``adjoint(e) @ rho @ e`` and divided by
    its own trace, exactly like the closed form of
    :func:`repeated_cond_prob`, so the two agree even for events that are
    self-adjoint and idempotent only within tolerance.

    ``mu`` and ``e`` were validated when they were built, and compressing
    a state by a projection and renormalising yields a state, so the
    symmetrised result is wrapped without re-running the checks of
    ``State(...)``.

    Raises :class:`UndefinedProbabilityError` when that trace is at or
    below the probability floor, since conditioning on a probability-zero
    event is undefined.
    """
    if e.dim != mu.dim:
        raise ValidationError(f"dimension mismatch: state {mu.dim} vs event {e.dim}")
    compressed = e.matrix.conj().T @ mu.rho @ e.matrix
    p = float(np.real(np.trace(compressed)))
    if p <= tol.prob_floor:
        raise UndefinedProbabilityError(f"cannot condition on an event of probability {p!r}")
    updated = compressed / p
    return State._trusted((updated + updated.conj().T) / 2.0)


def _chain_events(chain: Sequence[Event], dim: int) -> list[Event]:
    events = list(chain)
    if not events:
        raise ValidationError("conditioning chain must contain at least one event")
    for e in events:
        if not isinstance(e, Event):
            raise ValidationError("conditioning chain must consist of Events")
        if e.dim != dim:
            raise ValidationError(f"dimension mismatch in chain: expected {dim}, got {e.dim}")
    return events


def _chain_product(events: list[Event]) -> np.ndarray:
    """Ordered product ``e1 @ e2 @ ... @ en`` of a chain checked by :func:`_chain_events`."""
    product = events[0].matrix
    for e in events[1:]:
        product = product @ e.matrix
    return product


def _closed_form(mu: State, d, chain: Sequence[Event], tol: Tolerances) -> float:
    """``trace(rho @ E @ d @ adjoint(E)) / trace(rho @ E @ adjoint(E))`` for the ordered product ``E``.

    The one conditioning kernel: :func:`cond_prob` is it on a one-element
    chain, and :func:`repeated_cond_prob` cross-checks it.
    """
    product = _chain_product(_chain_events(chain, mu.dim))
    dm = _operand_matrix(d, "conditioned operand", tol)
    if dm.shape[0] != mu.dim:
        raise ValidationError("state and operand dimensions must agree")
    # trace(adjoint(E) @ rho @ E @ X) == vdot(E, rho @ E @ X) for both X = 1 and X = d.
    weighted = mu.rho @ product
    den = float(np.vdot(product, weighted).real)
    if den <= tol.prob_floor:
        raise UndefinedProbabilityError(f"cannot condition on a chain of probability {den!r}")
    value = float(np.vdot(product, weighted @ dm).real) / den
    if isinstance(d, Event):
        return clamp_probability(value, tol, what="conditional probability")
    return value


def cond_prob(mu: State, d, e: Event, tol: Tolerances = DEFAULT_TOL) -> float:
    """Conditional probability ``trace(rho @ e @ d @ e) / trace(rho @ e)``.

    The closed form of :func:`repeated_cond_prob` on the one-element
    chain ``[e]``, with which it agrees bit for bit; the compression is
    taken as ``adjoint(e) @ rho @ e`` and divided by its own trace.
    ``d`` may be an event or any self-adjoint matrix (in which case the
    result is a conditional expectation rather than a probability and is
    not clamped).  Raises :class:`UndefinedProbabilityError` when
    ``mu(e)`` is at or below the probability floor.
    """
    return _closed_form(mu, d, [e], tol)


def repeated_cond_prob(mu: State, d, chain: Sequence[Event], tol: Tolerances = DEFAULT_TOL) -> float:
    """Probability of ``d`` after conditioning on ``chain`` in order.

    Uses the closed form over the ordered product ``E``:

        trace(rho @ E @ d @ adjoint(E)) / trace(rho @ E @ adjoint(E))

    and recomputes the value by folding :func:`cond_state` over the chain
    and evaluating ``d`` in the final state.  The two paths must agree to
    1e-12; disagreement raises :class:`InvariantError`.  A vanishing
    denominator raises :class:`UndefinedProbabilityError`.

    The order of the chain matters: distinct orderings of the same events
    are genuinely different observations and give different values.
    """
    events = list(chain)
    value = _closed_form(mu, d, events, tol)
    current = mu
    for e in events:
        current = cond_state(current, e, tol)
    stepwise = state_value(current, d, tol)
    if abs(value - stepwise) > _PATH_AGREEMENT_TOL:
        raise InvariantError(f"closed-form and step-by-step conditioning disagree: {value!r} vs {stepwise!r}")
    return value
