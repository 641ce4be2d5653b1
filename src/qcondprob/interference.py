"""Decomposition of conditional probabilities over a two-part condition.

When an event splits into two mutually exclusive parts ``e = e1 + e2``,
the conditional probability of ``d`` given ``e`` in the state ``rho``
decomposes as

    mu(d | e) * mu(e) = trace(rho @ e1 @ d @ e1) + trace(rho @ e2 @ d @ e2)
                        + 2 Re trace(rho @ e1 @ d @ e2)

The first two terms, ``mu(d | e1) mu(e1)`` and ``mu(d | e2) mu(e2)``, are
the classical mixture over the parts; the last is the interference term,
absent from classical probability.  It vanishes whenever ``d`` commutes
with both parts, and more generally whenever which-part information
exists.

After preparation by a minimal event ``f`` the state is ``f`` itself
(:func:`~qcondprob.objective.state_from_outcome`), so the
state-independent variant is the same formula at ``rho = f``.  Its cross
term ``lam = trace(f @ e1 @ d @ e2)`` is the scalar with
``f @ e1 @ d @ e2 @ f == lam * f``.

The incoherent variant models the presence of a which-part record: the
classical mixture terms survive, the interference term is dropped.

All four entry points read their terms and totals from one kernel and
one formula.  It checks the split once, by the exclusion rule
``|e1 @ e2|_F <= 2 tol.budget(sqrt(r))``, r the larger rank, and reads
the state as a factor ``W`` of ``rho = W @ adjoint(W)``: the state's own
factor, or the ray ``v`` of a minimal preparation as the one-column
factor.  With ``b_i = e_i @ W``, since

    trace(rho @ e_i @ d @ e_j) == vdot(e_i @ W, d @ e_j @ W),

every term is ``vdot(b_i, d @ b_j)``, the branch weights are
``vdot(b_i, b_i)`` and the normalizer is their sum.  The coherent total
is the Lüders value of the single condition ``e1 + e2``,

    Re vdot(b_1 + b_2, d @ (b_1 + b_2)) / vdot(b_1 + b_2, b_1 + b_2),

a ratio of squared norms whose numerator is ``part1 + part2 + 2 Re cross``
for the exactly self-adjoint stored ``d``; the incoherent
total is ``(part1 + part2) / normalizer``.  Both are clamped by the
outcome's :func:`~qcondprob.tolerances.probability_slack`.  Each outcome
costs the two products ``d @ b_i``, in O(d^2 m) for an m-column factor:
matrix-vector products on a ray, so no d x d product is formed at all.
No entry point forms ``e1 + e2`` as a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from .conditioning import State
from .errors import UndefinedProbabilityError, ValidationError
from .events import Event, _arg, _args, _ray, is_orthogonal
from .tolerances import DEFAULT_TOL, Tolerances, clamp_probability, probability_slack


@dataclass(frozen=True)
class InterferenceReport:
    """One decomposed conditional probability.

    ``total`` is the conditional probability of the outcome given the
    combined condition.  ``part1``/``part2`` are the unnormalised
    classical contributions of the two branches, ``interference`` the
    cross contribution, and ``normalizer = w1 + w2`` the sum of the branch
    weights.  The identity

        total * normalizer == part1 + part2 + interference

    holds up to the split's overlap ``2 Re vdot(b_1, b_2) * total`` (module
    docstring), and so, up to round-off, exactly for exclusive parts.
    ``coherent`` records whether the cross term was kept;
    ``lambda_complex`` is the complex cross-term scalar when one was
    computed (its doubled real part is ``interference``), else None.
    """

    total: float
    part1: float
    part2: float
    interference: float
    normalizer: float
    coherent: bool
    lambda_complex: complex | None


def _decompose(
    factor: np.ndarray, e1: Event, e2: Event, outcomes: Sequence[Event], tol: Tolerances
) -> tuple[float, list[tuple[float, float, complex, float, float]]]:
    """Terms and totals of ``trace(rho @ e @ d @ e)`` over the split ``e = e1 + e2``.

    ``factor`` is a factor ``W`` of ``rho = W @ adjoint(W)``, a d x m
    array or the unit ray ``v`` of a minimal preparation.  Returns the
    normalizer and, for each outcome ``d``, the tuple
    ``(part1, part2, cross, coherent, incoherent)``: the terms
    ``vdot(b_i, d @ b_j)`` for ``(i, j)`` = (1, 1), (2, 2), (1, 2) and the
    two totals, clamped by ``probability_slack(d.rank)``, by the module
    docstring's formulas.  The normalizer ``vdot(b_1, b_1) + vdot(b_2, b_2)``
    is, like the conditioning kernel's denominator, not clamped: for parts
    that are projections only within tolerance it may exceed 1 by their
    defects.

    Outcomes are checked before the weights, so an invalid outcome raises
    :class:`ValidationError` even where the decomposition is undefined.
    Raises :class:`UndefinedProbabilityError` when either branch weight
    ``vdot(b_i, b_i)`` is at or below the probability floor.
    """
    dim = factor.shape[0]
    for e in (e1, e2):
        _arg(e, Event, "branch condition", dim)
    if not is_orthogonal(e1, e2, tol):
        raise ValidationError("branch events must be mutually exclusive (orthogonal)")
    for d in outcomes:
        _arg(d, Event, "outcome", dim)
    b1, b2 = e1.matrix @ factor, e2.matrix @ factor
    w1, w2 = float(np.vdot(b1, b1).real), float(np.vdot(b2, b2).real)
    if min(w1, w2) <= tol.prob_floor:
        raise UndefinedProbabilityError("branch probability vanishes; decomposition is undefined")
    normalizer = w1 + w2
    # Re vdot(b_1 + b_2, b_1 + b_2): the weight of the single condition e1 + e2.
    combined = normalizer + 2.0 * float(np.vdot(b1, b2).real)
    terms = []
    for d in outcomes:
        db1, db2 = d.matrix @ b1, d.matrix @ b2
        p1, p2 = float(np.vdot(b1, db1).real), float(np.vdot(b2, db2).real)
        cross = complex(np.vdot(b1, db2))
        slack = probability_slack(d.rank, tol)
        coherent = (p1 + p2 + 2.0 * cross.real) / combined
        terms.append((
            p1,
            p2,
            cross,
            clamp_probability(coherent, slack, what="decomposed conditional probability"),
            clamp_probability((p1 + p2) / normalizer, slack, what="incoherent combination"),
        ))
    return normalizer, terms


def _prepared(f: Event) -> np.ndarray:
    """The unit ray of a minimal preparation ``f``, which stands for the state ``f`` itself."""
    if not _arg(f, Event, "preparation").is_minimal():
        raise ValidationError("preparation event must be minimal (rank 1)")
    return _ray(f)


def _report(factor: np.ndarray, d: Event, e1: Event, e2: Event, tol: Tolerances, coherent: bool) -> InterferenceReport:
    """The report of one outcome over the split, with the cross term kept (``coherent``) or dropped."""
    normalizer, [(p1, p2, cross, total, incoherent)] = _decompose(factor, e1, e2, [d], tol)
    return InterferenceReport(
        total=total if coherent else incoherent,
        part1=p1,
        part2=p2,
        interference=2.0 * cross.real if coherent else 0.0,
        normalizer=normalizer,
        coherent=coherent,
        lambda_complex=cross if coherent else None,
    )


def split_cond_prob(mu: State, d: Event, e1: Event, e2: Event, tol: Tolerances = DEFAULT_TOL) -> InterferenceReport:
    """State-dependent decomposition of ``mu(d | e1 + e2)``.

    ``total`` is the Lüders value of the single condition ``e1 + e2``,
    read from the same products as the parts and cross term (module
    docstring) without forming the sum; for self-adjoint parts it equals
    ``cond_prob(mu, d, e1 + e2)`` up to round-off.  Raises
    :class:`UndefinedProbabilityError` if either branch carries
    probability at or below the floor.
    """
    return _report(_arg(mu, State, "state")._factor, d, e1, e2, tol, coherent=True)


def objective_split(f: Event, d: Event, e1: Event, e2: Event, tol: Tolerances = DEFAULT_TOL) -> InterferenceReport:
    """State-independent decomposition after minimal preparation ``f``.

    The terms and total of :func:`split_cond_prob` at the state ``f``
    (module docstring), read on the ray of ``f``: ``total`` is the
    Rayleigh quotient of ``d`` at ``(e1 + e2) @ v``, the value of the
    chain that prepares ``f`` and blocks on the negation of ``e1 + e2``.
    """
    return _report(_prepared(f), d, e1, e2, tol, coherent=True)


def incoherent_combine(f: Event, d: Event, e1: Event, e2: Event, tol: Tolerances = DEFAULT_TOL) -> InterferenceReport:
    """Which-part combination: classical mixture of the branches, no cross term.

    Models a recorded branch: the outcome probability is the branch
    mixture renormalised by the same combined mass as the coherent case,
    so the two variants are directly comparable.
    """
    return _report(_prepared(f), d, e1, e2, tol, coherent=False)


@dataclass(frozen=True)
class ScanPoint:
    """One detector position in a two-slit scan."""

    index: int
    coherent: float
    incoherent: float
    defined: bool


def double_slit_scan(
    f: Event, e1: Event, e2: Event, detectors: Sequence[Event], tol: Tolerances = DEFAULT_TOL
) -> list[ScanPoint]:
    """Coherent and incoherent detection profiles across a detector bank.

    For each detector event the coherent column is the decomposed
    conditional probability with the cross term kept, the incoherent
    column the which-part variant; both come from one kernel formed once
    per scan.  When a branch has vanishing weight after ``f`` the
    decomposition is undefined for every detector, and every row is
    flagged ``defined=False`` with NaN values.
    """
    detectors = _args(detectors, object, "detector bank")  # each read as an outcome by _decompose
    try:
        _, terms = _decompose(_prepared(f), e1, e2, detectors, tol)
    except UndefinedProbabilityError:
        nan = float("nan")
        return [ScanPoint(index=i, coherent=nan, incoherent=nan, defined=False) for i in range(len(detectors))]
    return [
        ScanPoint(index=i, coherent=coherent, incoherent=incoherent, defined=True)
        for i, (_, _, _, coherent, incoherent) in enumerate(terms)
    ]

