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

Both the closed form and the step-by-step composition are implemented
and cross-checked against each other on every call.

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
from .events import Event
from .linalg import as_complex_matrix, is_self_adjoint
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

    def projector(self, tol: Tolerances = DEFAULT_TOL) -> Event:
        """The minimal event whose range is the line spanned by this vector."""
        v = self._amplitudes / self.norm()
        return Event(np.outer(v, v.conj()), 1)

    def __repr__(self) -> str:
        return f"PureVector(dim={self.dim})"


def _is_psd_pivoted_cholesky(matrix: np.ndarray, pivot_tol: float) -> bool:
    """Positive semi-definiteness test by pivoted Cholesky elimination.

    Runs diagonal-pivoted elimination on a Hermitian matrix.  Pivots may
    dip to ``-pivot_tol`` (round-off slack).  When every remaining pivot
    candidate is below the slack the untouched block must itself be
    negligible, because a true PSD block with a vanishing diagonal has
    vanishing off-diagonal entries as well.
    """
    a = np.array(matrix, dtype=np.complex128)
    n = a.shape[0]
    slack = pivot_tol * max(1.0, float(np.abs(np.real(np.trace(a)))))
    for k in range(n):
        tail = np.real(np.diag(a))[k:]
        j = k + int(np.argmax(tail))
        pivot = float(np.real(a[j, j]))
        if pivot <= slack:
            block = a[k:, k:]
            if float(np.min(np.real(np.diag(block)))) < -slack:
                return False
            return bool(np.max(np.abs(block)) <= 10.0 * slack)
        if j != k:
            a[[k, j], :] = a[[j, k], :]
            a[:, [k, j]] = a[:, [j, k]]
        if k + 1 < n:
            col = a[k + 1:, k]
            a[k + 1:, k + 1:] -= np.outer(col, col.conj()) / pivot
    return True


class State:
    """A density matrix: the probability assignment over events.

    Construct from an explicit matrix (validated for self-adjointness,
    positive semi-definiteness and unit trace) or from an ensemble of
    weighted vectors via :meth:`from_ensemble`.
    """

    __slots__ = ("_rho",)

    def __init__(self, rho, tol: Tolerances = DEFAULT_TOL):
        m = as_complex_matrix(rho)
        scale = 1.0 + float(np.linalg.norm(m, "fro"))
        budget = tol.atol + tol.rtol * scale
        if float(np.linalg.norm(m - m.conj().T, "fro")) > budget:
            raise ValidationError("state matrix is not self-adjoint within tolerance")
        m = (m + m.conj().T) / 2.0
        tr = float(np.real(np.trace(m)))
        if not tol.close(tr, 1.0):
            raise ValidationError(f"state trace {tr!r} differs from 1 beyond tolerance")
        if not _is_psd_pivoted_cholesky(m, pivot_tol=tol.atol):
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
    m = as_complex_matrix(a)
    if not is_self_adjoint(m, tol):
        raise ValidationError(f"{what} must be self-adjoint")
    return m


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
    Dividing by the compression's own trace instead gives the result
    unit trace even for events that are idempotent only within
    tolerance, and normalises exactly like the closed form of
    :func:`repeated_cond_prob`.

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
    compressed = e.matrix @ mu.rho @ e.matrix
    p = float(np.real(np.trace(compressed)))
    if p <= tol.prob_floor:
        raise UndefinedProbabilityError(f"cannot condition on an event of probability {p!r}")
    updated = compressed / p
    return State._trusted((updated + updated.conj().T) / 2.0)


def cond_prob(mu: State, d, e: Event, tol: Tolerances = DEFAULT_TOL) -> float:
    """Conditional probability ``trace(rho @ e @ d @ e) / trace(rho @ e)``.

    ``d`` may be an event or any self-adjoint matrix (in which case the
    result is a conditional expectation rather than a probability and is
    not clamped).  Raises :class:`UndefinedProbabilityError` when
    ``mu(e)`` is at or below the probability floor.
    """
    if not isinstance(e, Event):
        raise ValidationError("conditioning requires an Event")
    dm = _operand_matrix(d, "conditioned operand", tol)
    if e.dim != mu.dim or dm.shape[0] != mu.dim:
        raise ValidationError("state, operand and event dimensions must agree")
    den = _real_trace_product(mu.rho, e.matrix)
    if den <= tol.prob_floor:
        raise UndefinedProbabilityError(f"cannot condition on an event of probability {den!r}")
    num = _real_trace_product(mu.rho, e.matrix @ dm @ e.matrix)
    value = num / den
    if isinstance(d, Event):
        return clamp_probability(value, tol, what="conditional probability")
    return value


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


def chain_product(chain: Sequence[Event]) -> np.ndarray:
    """Ordered product ``e1 @ e2 @ ... @ en`` of the chain's matrices."""
    if not chain:
        raise ValidationError("conditioning chain must contain at least one event")
    product = chain[0].matrix
    for e in chain[1:]:
        product = product @ e.matrix
    return product


def repeated_cond_prob(
    mu: State,
    d,
    chain: Sequence[Event],
    tol: Tolerances = DEFAULT_TOL,
    cross_check: bool = True,
) -> float:
    """Probability of ``d`` after conditioning on ``chain`` in order.

    Uses the closed form over the ordered product ``E``:

        trace(rho @ E @ d @ adjoint(E)) / trace(rho @ E @ adjoint(E))

    and, unless ``cross_check`` is disabled, recomputes the value by
    folding :func:`cond_state` over the chain and evaluating ``d`` in the
    final state.  The two paths must agree to 1e-12; disagreement raises
    :class:`InvariantError`.  A vanishing denominator raises
    :class:`UndefinedProbabilityError`.

    The order of the chain matters: distinct orderings of the same events
    are genuinely different observations and give different values.
    """
    events = _chain_events(chain, mu.dim)
    dm = _operand_matrix(d, "conditioned operand", tol)
    if dm.shape[0] != mu.dim:
        raise ValidationError("state and operand dimensions must agree")
    product = chain_product(events)
    # trace(rho @ E @ X @ adjoint(E)) == trace(compressed @ X) for both X = 1 and X = d.
    compressed = product.conj().T @ mu.rho @ product
    den = float(np.real(np.trace(compressed)))
    if den <= tol.prob_floor:
        raise UndefinedProbabilityError("chain product has vanishing probability; conditioning is undefined")
    num = _real_trace_product(compressed, dm)
    value = num / den
    if isinstance(d, Event):
        value = clamp_probability(value, tol, what="repeated conditional probability")
    if cross_check:
        current = mu
        for e in events:
            current = cond_state(current, e, tol)
        stepwise = state_value(current, d, tol)
        if abs(value - stepwise) > _PATH_AGREEMENT_TOL:
            raise InvariantError(
                f"closed-form and step-by-step conditioning disagree: {value!r} vs {stepwise!r}"
            )
    return value
