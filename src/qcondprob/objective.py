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

The pivot rule: the fit reads ``E`` through one pivot ``P`` at position
j.  P is the ray of the first minimal event, ``e_j = P @ adjoint(P)``;
without one, j = 1 and P is the first event's orthonormal factor
(``events._range``, ``e_1 = P @ adjoint(P)``) from d = 32
(``conditioning._FACTOR_DIM``), or its matrix below that or where it has
no factor.  Stored event matrices are exactly self-adjoint, so with
``R = e_n ... e_{j+1} P``, folded from P by the Lüders step
``x -> e @ x``, the product is ``E = u @ adjoint(R)``: u is
``e_1 ... e_{j-1} P`` at a ray, a column of squared norm ``s = |u|^2``,
the isometry P at a factor, and the identity at a matrix, where
``R = adjoint(E)``.  Then

    E @ d @ adjoint(E) = u (adjoint(R) d R) adjoint(u),   E @ adjoint(E) = u (adjoint(R) R) adjoint(u),

and the trace inner products that the fit reads are those of
``s * adjoint(R) d R`` and ``s * adjoint(R) R``, with s = 1 at j = 1.  So
the fit runs on these r x r matrices for a pivot of r columns, in
O(k d^2 r) for k events, and in O(k d^3) only at the matrix pivot.  A
sequence with a minimal event fits 1 x 1 matrices, exactly up to
round-off, so it is always state-independent, with value
``adjoint(R) d R / |R|^2``.

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

import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from . import conditioning
from .conditioning import PureVector, State, _fold, _vector
from .errors import UndefinedProbabilityError, ValidationError
from .events import Event, _arg, _args, _frobenius, _range, _ray
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


def _fit(compressed: np.ndarray, reference: np.ndarray, tol: Tolerances) -> tuple[complex, float, float]:
    """Least-squares ``(lam, residual, |reference|_F)`` of ``compressed ~= lam * reference`` in Frobenius norm.

    ``lam = vdot(reference, compressed) / vdot(reference, reference)``,
    the trace inner products taken as elementwise sums, and the norm is
    the root of that denominator.  Both arrays were built by
    :func:`objective_seq` from validated events and are not checked
    again.  A reference whose squared norm is within ``tol.budget() ** 2``
    is numerically zero, admits no fit and raises :class:`ValidationError`.
    """
    denom = float(np.vdot(reference, reference).real)
    if denom <= tol.budget() ** 2:
        raise ValidationError("cannot fit a scalar against a numerically zero matrix")
    lam = complex(np.vdot(reference, compressed)) / denom
    residual = _frobenius(compressed - lam * reference)
    return lam, residual, math.sqrt(denom)


def _verdict(lam: complex, residual: float, reference_norm: float, chain_length: int, rank: int,
             tol: Tolerances) -> CondProbResult:
    """The accept step of the fit: residual threshold, imaginary-part check, clamp by the outcome's rank."""
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
    The fit reads ``E`` through the pivot of the module docstring: the ray
    of the first minimal event, else the first event's factor from
    d = 32, else its matrix; it fits ``s * adjoint(R) d R`` against
    ``s * adjoint(R) R`` for ``R = e_n ... e_{j+1} P``, in O(k d^2 r) for
    a pivot of r columns and in O(k d^3) only at the matrix pivot.
    Raises :class:`UndefinedProbabilityError` when the weight
    ``trace(E @ adjoint(E)) = s |R|_F^2`` is at or below the probability
    floor, since then no state can be conditioned on the sequence at all,
    and then :class:`ValidationError` when the reference
    ``E @ adjoint(E)`` is numerically zero.
    """
    events = _args(chain, Event, "conditioning chain", _arg(d, Event, "outcome").dim)
    _arg(tol, Tolerances, "tol")
    j = next((k for k, e in enumerate(events) if e.is_minimal()), None)
    if j is not None:
        pivot = _ray(events[j])[:, None]
    else:
        j = 0
        pivot = _range(events[0]) if d.dim >= conditioning._FACTOR_DIM else None
        if pivot is None:
            pivot = events[0].matrix
    u = _fold(pivot, reversed(events[:j]))
    s = float(np.vdot(u, u).real) if j else 1.0
    r = _fold(pivot, events[j + 1:])
    # trace(E @ adjoint(E)) = s |R|_F^2, the elementwise sum of |R_ij|^2 scaled by s.
    if s * float(np.vdot(r, r).real) <= tol.prob_floor:
        raise UndefinedProbabilityError("chain product vanishes; conditioning is undefined")
    rh = r.conj().T
    lam, residual, reference_norm = _fit(s * (rh @ d.matrix @ r), s * (rh @ r), tol)
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
