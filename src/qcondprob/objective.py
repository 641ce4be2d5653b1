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

The rank-one rule: a minimal event ``v @ adjoint(v)`` anywhere in the
sequence, at position j, factors the product as ``E = u @ adjoint(r)``
with ``u = e1 ... e_{j-1} v`` and ``r = e_n ... e_{j+1} v`` (stored
event matrices are exactly self-adjoint).  Then
``E @ d @ adjoint(E) = (adjoint(r) d r) u adjoint(u)`` and
``E @ adjoint(E) = |r|^2 u adjoint(u)``, so the value is state-independent
and equals ``adjoint(r) d r / |r|^2``.  Such sequences are fitted from
these vectors, folded from ``v`` by the Lüders step ``x -> e @ x`` in
matrix-vector products, in O(k d^2) for k events;
the others from the dense products in O(k d^3).  Both fits refuse a
sequence at the same thresholds and in the same order, and pass one
accept step.

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

from .conditioning import PureVector, State, _fold, _vector
from .errors import UndefinedProbabilityError, ValidationError
from .events import Event, _arg, _args, _frobenius, _ray
from .tolerances import DEFAULT_TOL, Tolerances, clamp_probability, probability_slack


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


def _refuse_vanishing(weight: float, tol: Tolerances) -> None:
    """First refusal of both fits: a chain weight ``trace(E @ adjoint(E))`` at or below the floor."""
    if weight <= tol.prob_floor:
        raise UndefinedProbabilityError("chain product vanishes; conditioning is undefined")


def _refuse_zero_reference(reference_sq: float, tol: Tolerances) -> None:
    """Second refusal of both fits: a reference whose squared Frobenius norm is within ``tol.budget() ** 2``."""
    if reference_sq <= tol.budget() ** 2:
        raise ValidationError("cannot fit a scalar against a numerically zero matrix")


def _fit(compressed: np.ndarray, reference: np.ndarray, tol: Tolerances) -> tuple[complex, float]:
    """Least-squares ``(lam, residual)`` of ``compressed ~= lam * reference`` in Frobenius norm.

    ``lam = vdot(reference, compressed) / vdot(reference, reference)``,
    the trace inner products taken as O(d^2) elementwise sums.  Both
    arrays were built by :func:`objective_seq` from validated events and
    are not checked again.  A numerically zero ``reference`` admits no
    fit and raises :class:`ValidationError`.
    """
    denom = float(np.real(np.vdot(reference, reference)))
    _refuse_zero_reference(denom, tol)
    lam = complex(np.vdot(reference, compressed)) / denom
    residual = _frobenius(compressed - lam * reference)
    return lam, residual


def _dense_fit(d: np.ndarray, events: list[Event], tol: Tolerances) -> tuple[complex, float, float]:
    """``(lam, residual, |G|_F)`` of :func:`_fit` on ``C = E @ d @ adjoint(E)`` against ``G = E @ adjoint(E)``."""
    adjoint = _fold(events[0].matrix, events[1:])  # en @ ... @ e1
    # trace(E @ adjoint(E)) is the elementwise sum of |E_ij|^2, vdot(adjoint(E), adjoint(E)).
    _refuse_vanishing(float(np.vdot(adjoint, adjoint).real), tol)
    product = adjoint.conj().T
    reference = product @ adjoint
    lam, residual = _fit(product @ d @ adjoint, reference, tol)
    return lam, residual, _frobenius(reference)


def _rank_one_fit(d: np.ndarray, events: list[Event], j: int, tol: Tolerances) -> tuple[complex, float, float]:
    """The fit of :func:`_dense_fit` when ``events[j]`` is minimal, in O(k d^2).

    By the module docstring's rank-one rule, with ``u`` and ``r`` folded
    from the ray ``v``: ``lam = adjoint(r) d r / |r|^2``,
    ``|G|_F = trace(G) = |u|^2 |r|^2`` and the residual is
    ``|u|^2 |adjoint(r) d r - lam |r|^2|``: G has rank one and the fit is
    exact up to round-off.
    """
    v = _ray(events[j])
    u, r = _fold(v, reversed(events[:j])), _fold(v, events[j + 1:])
    uu = float(np.vdot(u, u).real)
    rr = float(np.vdot(r, r).real)
    weight = uu * rr
    _refuse_vanishing(weight, tol)
    _refuse_zero_reference(weight * weight, tol)
    rdr = complex(np.vdot(r, d @ r))
    lam = rdr / rr
    return lam, uu * abs(rdr - lam * rr), weight


def _verdict(lam: complex, residual: float, reference_norm: float, chain_length: int, rank: int,
             tol: Tolerances) -> CondProbResult:
    """The accept step of both fits: residual threshold, imaginary-part check, clamp by the outcome's rank."""
    objective = residual <= tol.objectivity_tol * (1.0 + reference_norm)
    value = None
    if objective:
        # A certified fit of one self-adjoint operator against another
        # has a real scalar; a large imaginary part means the residual
        # threshold lied about the fit, so do not report a value.
        if tol.close(lam, lam.real):
            slack = probability_slack(rank, tol)
            value = clamp_probability(lam.real, slack, what="state-independent conditional probability")
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
    When the sequence contains a minimal event, the first one selects the
    rank-one fit of the module docstring, in O(k d^2); otherwise the
    dense products are fitted.  Raises :class:`UndefinedProbabilityError`
    when ``E`` vanishes, since then no state can be conditioned on the
    sequence at all, and :class:`ValidationError` when the reference
    ``E @ adjoint(E)`` is numerically zero.
    """
    events = _args(chain, Event, "conditioning chain", _arg(d, Event, "outcome").dim)
    _arg(tol, Tolerances, "tol")
    j = next((k for k, e in enumerate(events) if e.is_minimal()), None)
    if j is None:
        lam, residual, reference_norm = _dense_fit(d.matrix, events, tol)
    else:
        lam, residual, reference_norm = _rank_one_fit(d.matrix, events, j, tol)
    return _verdict(lam, residual, reference_norm, len(events), d.rank, tol)


def pure_event_prob(psi: PureVector, d: Event, tol: Tolerances = DEFAULT_TOL) -> float:
    """Probability of ``d`` in the pure state along ``psi``.

    Equals ``<psi| d |psi> / <psi|psi>`` and coincides with the
    state-independent conditional probability given the minimal event
    projecting onto ``psi``.  ``psi`` may be raw amplitudes, read as a
    :class:`PureVector`.
    """
    psi = _vector(psi, "vector")
    _arg(d, Event, "event", psi.dim)
    v = psi._unit()
    value = float(np.real(np.vdot(v, d.matrix @ v)))
    return clamp_probability(value, probability_slack(d.rank, tol), what="pure-state probability")


def transition_prob(psi: PureVector, xi: PureVector, tol: Tolerances = DEFAULT_TOL) -> float:
    """Squared overlap ``|<psi|xi>|^2`` of two normalised directions.

    Symmetric in its arguments; equals the state-independent probability
    of one minimal event given the other, and clamps as one.  Either
    argument may be raw amplitudes, read as a :class:`PureVector`.
    """
    psi = _vector(psi, "psi")
    xi = _vector(xi, "xi", psi.dim)
    value = abs(complex(np.vdot(psi._unit(), xi._unit()))) ** 2
    return clamp_probability(value, probability_slack(1, tol), what="transition probability")


def state_from_outcome(e: Event) -> State:
    """The unique state determined by a minimal outcome.

    Observing a minimal event fixes the post-outcome state completely:
    it is the normalised projector ``|v><v|`` of the event's ray ``v``,
    whose factor is ``v`` as one column: a state by construction, so it
    is not checked again.  Non-minimal outcomes leave the state
    underdetermined, so they raise :class:`UndefinedProbabilityError`.
    """
    if not _arg(e, Event, "outcome").is_minimal():
        raise UndefinedProbabilityError(
            f"outcome of rank {e.rank} does not determine a state; only minimal outcomes do"
        )
    return State._trusted(_ray(e)[:, None])
