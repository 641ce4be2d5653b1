"""State-independent conditional probabilities.

The conditional probability of ``d`` given ``e`` usually depends on the
underlying state.  It becomes a property of the event pair alone exactly
when the compression ``e @ d @ e`` is a scalar multiple of ``e``:

    e @ d @ e == lam * e   =>   mu(d | e) == lam for every state with mu(e) > 0.

This module detects that situation by a least-squares scalar fit and
reports the fitted scalar, the fit residual, and the resulting value when
the fit certifies state-independence.  The same test applies to a whole
conditioning sequence through its ordered product ``E``, fitting
``E @ d @ adjoint(E)`` against ``E @ adjoint(E)``; a single condition is
the sequence of length one, so :func:`objective_cond_prob` is
:func:`objective_seq` on ``[e]``.

Consequences worth knowing:

* conditioning on a minimal (rank-1) event makes every further
  probability state-independent, so a sequence ending in a minimal event
  depends only on that last event;
* the last event of any sequence has state-independent probability 1
  given the sequence;
* for commuting events the only state-independent values are 0 and 1,
  so genuinely fractional values are a strictly noncommutative effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from .conditioning import PureVector, State, _chain_events, _chain_product
from .errors import UndefinedProbabilityError, ValidationError
from .events import Event
from .tolerances import DEFAULT_TOL, Tolerances, clamp_probability


@dataclass(frozen=True)
class CondProbResult:
    """Outcome of a state-independence test.

    Attributes
    ----------
    value : float or None
        The state-independent conditional probability, present only when
        ``objective`` is true.
    lam : complex
        Least-squares scalar fitted to the compressed operator.
    residual : float
        Frobenius norm left over by the fit; small residual certifies
        state-independence.
    objective : bool
        Whether the fit residual is below the objectivity threshold.
    chain_length : int
        Number of conditioning events that entered the test.
    """

    value: float | None
    lam: complex
    residual: float
    objective: bool
    chain_length: int


def _fit(compressed: np.ndarray, reference: np.ndarray, tol: Tolerances) -> tuple[complex, float]:
    """Least-squares ``(lam, residual)`` of ``compressed ~= lam * reference`` in Frobenius norm.

    ``lam = vdot(reference, compressed) / vdot(reference, reference)``,
    the trace inner products taken as O(d^2) elementwise sums.  Both
    arrays were built by :func:`objective_seq` from validated events and
    are not checked again.  A numerically zero ``reference`` admits no
    fit and raises :class:`ValidationError`.
    """
    denom = float(np.real(np.vdot(reference, reference)))
    if denom <= (tol.atol + tol.rtol) ** 2:
        raise ValidationError("cannot fit a scalar against a numerically zero matrix")
    lam = complex(np.vdot(reference, compressed)) / denom
    residual = float(np.linalg.norm(compressed - lam * reference, "fro"))
    return lam, residual


def _result_from_fit(
    compressed: np.ndarray,
    reference: np.ndarray,
    chain_length: int,
    tol: Tolerances,
) -> CondProbResult:
    lam, residual = _fit(compressed, reference, tol)
    scale = 1.0 + float(np.linalg.norm(reference, "fro"))
    objective = residual <= tol.objectivity_tol * scale
    value = None
    if objective:
        # A certified fit of one self-adjoint operator against another
        # has a real scalar; a large imaginary part means the residual
        # threshold lied about the fit, so do not report a value.
        if abs(lam.imag) <= tol.atol + tol.rtol * abs(lam):
            value = clamp_probability(lam.real, tol, what="state-independent conditional probability")
        else:
            objective = False
    return CondProbResult(
        value=value,
        lam=lam,
        residual=float(residual),
        objective=objective,
        chain_length=chain_length,
    )


def objective_cond_prob(d: Event, e: Event, tol: Tolerances = DEFAULT_TOL) -> CondProbResult:
    """Test whether ``mu(d | e)`` is the same for every state.

    The one-element sequence ``objective_seq(d, [e], tol)``: fits
    ``e @ d @ adjoint(e) ~= lam * (e @ adjoint(e))``, which for a
    projection reads ``e @ d @ e ~= lam * e``.  When the residual is below
    ``tol.objectivity_tol`` the conditional probability equals ``lam``
    for every state assigning ``e`` positive probability.

    Always state-independent: ``d`` orthogonal to ``e`` (value 0), ``e``
    contained in ``d`` (value 1), and any ``d`` when ``e`` is minimal.
    """
    return objective_seq(d, [e], tol)


def objective_seq(d: Event, chain: Sequence[Event], tol: Tolerances = DEFAULT_TOL) -> CondProbResult:
    """State-independence test for conditioning on a whole sequence.

    With ``E`` the ordered product of the chain, fits

        E @ d @ adjoint(E)  ~=  lam * (E @ adjoint(E)).

    A certified fit means every state with nonvanishing weight on the
    sequence assigns ``d`` the same conditional probability ``lam``.
    Raises :class:`UndefinedProbabilityError` when ``E`` vanishes, since
    then no state can be conditioned on the sequence at all.
    """
    if not isinstance(d, Event):
        raise ValidationError("objective_seq expects an Event to evaluate")
    events = _chain_events(chain, d.dim)
    product = _chain_product(events)
    # trace(E @ adjoint(E)) is the elementwise sum vdot(E, E).
    weight = float(np.vdot(product, product).real)
    if weight <= tol.prob_floor:
        raise UndefinedProbabilityError("chain product vanishes; conditioning is undefined")
    adjoint = product.conj().T
    return _result_from_fit(product @ d.matrix @ adjoint, product @ adjoint, len(events), tol)


def pure_event_prob(psi: PureVector, d: Event, tol: Tolerances = DEFAULT_TOL) -> float:
    """Probability of ``d`` in the pure state along ``psi``.

    Equals ``<psi| d |psi> / <psi|psi>`` and coincides with the
    state-independent conditional probability given the minimal event
    projecting onto ``psi``.
    """
    if not isinstance(psi, PureVector):
        psi = PureVector(psi)
    if psi.dim != d.dim:
        raise ValidationError(f"dimension mismatch: vector {psi.dim} vs event {d.dim}")
    v = psi.amplitudes
    value = float(np.real(np.vdot(v, d.matrix @ v))) / (psi.norm() ** 2)
    return clamp_probability(value, tol, what="pure-state probability")


def transition_prob(psi: PureVector, xi: PureVector, tol: Tolerances = DEFAULT_TOL) -> float:
    """Squared overlap ``|<psi|xi>|^2`` of two normalised directions.

    Symmetric in its arguments; equals the state-independent probability
    of one minimal event given the other.
    """
    if not isinstance(psi, PureVector):
        psi = PureVector(psi)
    if not isinstance(xi, PureVector):
        xi = PureVector(xi)
    if psi.dim != xi.dim:
        raise ValidationError(f"dimension mismatch: {psi.dim} vs {xi.dim}")
    overlap = complex(np.vdot(psi.amplitudes, xi.amplitudes))
    value = (abs(overlap) ** 2) / (psi.norm() ** 2 * xi.norm() ** 2)
    return clamp_probability(value, tol, what="transition probability")


def state_from_outcome(e: Event, tol: Tolerances = DEFAULT_TOL) -> State:
    """The unique state determined by a minimal outcome.

    Observing a minimal event fixes the post-outcome state completely:
    it is the normalised projector itself.  Non-minimal outcomes leave
    the state underdetermined, so they raise
    :class:`UndefinedProbabilityError`.
    """
    if not isinstance(e, Event):
        raise ValidationError("state_from_outcome expects an Event")
    if not e.is_minimal():
        raise UndefinedProbabilityError(
            f"outcome of rank {e.rank} does not determine a state; only minimal outcomes do"
        )
    return State(e.matrix, tol=tol)
