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

All four entry points read their terms from one kernel and one formula.
It checks the split once, by the exclusion rule
``|e1 @ e2|_F <= 2 tol.budget(sqrt(r))``, r the larger rank, and forms ``b_i = e_i @ rho`` and ``c_i``:
``c_i = e_i`` for a density matrix, ``c_i = b_i`` for the ray ``v`` of a
minimal preparation, which stands for ``rho = v @ adjoint(v)``.  Since

    trace(rho @ e_i @ d @ e_j) == vdot(e_i @ rho, d @ e_j)   and
    adjoint(v) @ e_i @ d @ e_j @ v == vdot(e_i @ v, d @ e_j @ v),

every term is ``vdot(b_i, d @ c_j)``, the branch weights are
``vdot(b_i, c_i)`` and the normalizer is their sum.  Each outcome costs
the two products ``d @ c_i``: matrix-vector products in O(d^2) on a ray,
so no d x d product is formed at all, and on a density matrix d x d
products, four in all with the two ``b_i``.  Only
:func:`split_cond_prob` forms ``e1 + e2``, as the event of rank
``r1 + r2``, without revalidating the sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from .conditioning import State, cond_prob
from .errors import UndefinedProbabilityError, ValidationError
from .events import Event, _ray, _resolution, is_orthogonal
from .tolerances import DEFAULT_TOL, Tolerances, clamp_probability, probability_slack


@dataclass(frozen=True)
class InterferenceReport:
    """One decomposed conditional probability.

    ``total`` is the conditional probability of the outcome given the
    combined condition.  ``part1``/``part2`` are the unnormalised
    classical contributions of the two branches, ``interference`` the
    cross contribution, and ``normalizer`` the probability mass of the
    combined condition, so that

        total * normalizer == part1 + part2 + interference

    up to round-off.  ``coherent`` records whether the cross term was
    kept; ``lambda_complex`` is the complex cross-term scalar when one
    was computed (its doubled real part is ``interference``), else None.
    """

    total: float
    part1: float
    part2: float
    interference: float
    normalizer: float
    coherent: bool
    lambda_complex: complex | None


def _decompose(
    rho: np.ndarray, e1: Event, e2: Event, outcomes: Sequence[Event], tol: Tolerances
) -> tuple[float, list[tuple[float, float, complex]]]:
    """Terms of ``trace(rho @ e @ d @ e)`` over the split ``e = e1 + e2``.

    ``rho`` is a density matrix, or the unit ray ``v`` of a minimal
    preparation.  Returns the normalizer and, for each outcome ``d``, the
    triple ``(part1, part2, cross)`` = ``vdot(b_i, d @ c_j)`` for
    ``(i, j)`` = (1, 1), (2, 2), (1, 2), by the module docstring's formula.
    The normalizer ``vdot(b_1, c_1) + vdot(b_2, c_2)`` is, like the
    conditioning kernel's denominator, not clamped: for parts that are
    projections only within tolerance it may exceed 1 by their defects.

    Outcomes are checked before the weights, so an invalid outcome raises
    :class:`ValidationError` even where the decomposition is undefined.
    Raises :class:`UndefinedProbabilityError` when either branch weight
    ``vdot(b_i, c_i)`` is at or below the probability floor.
    """
    if not isinstance(e1, Event) or not isinstance(e2, Event):
        raise ValidationError("branch conditions must be Events")
    if e1.dim != e2.dim:
        raise ValidationError(f"branch events live in different dimensions: {e1.dim} vs {e2.dim}")
    if not is_orthogonal(e1, e2, tol):
        raise ValidationError("branch events must be mutually exclusive (orthogonal)")
    for d in outcomes:
        if not isinstance(d, Event):
            raise ValidationError("outcome must be an Event")
    if any(x.dim != rho.shape[0] for x in (e1, *outcomes)):
        raise ValidationError("state, outcome and branch dimensions must agree")
    b1, b2 = e1.matrix @ rho, e2.matrix @ rho
    c1, c2 = (b1, b2) if rho.ndim == 1 else (e1.matrix, e2.matrix)
    weights = (float(np.vdot(b1, c1).real), float(np.vdot(b2, c2).real))
    if min(weights) <= tol.prob_floor:
        raise UndefinedProbabilityError("branch probability vanishes; decomposition is undefined")
    terms = []
    for d in outcomes:
        dc2 = d.matrix @ c2
        p1, p2 = np.vdot(b1, d.matrix @ c1).real, np.vdot(b2, dc2).real
        terms.append((float(p1), float(p2), complex(np.vdot(b1, dc2))))
    return weights[0] + weights[1], terms


def _exclusion_slack(normalizer: float, e1: Event, e2: Event, tol: Tolerances) -> float:
    """Extra clamp slack of a coherent total on a unit ray ``v``: ``3 (x + b_1 + b_2) / sqrt(N)``.

    With ``u_i = e_i @ v`` and ``N`` the normalizer, the total is a Rayleigh quotient of ``d``
    times ``|u_1 + u_2|^2 / N = 1 + 2 Re<u_1, u_2> / N``, plus ``Re<u_1, (d - adjoint(d)) u_2> / N``.
    Expanding ``u_i = e_i @ u_i - (e_i @ e_i - e_i) @ v`` bounds ``2 |<u_1, u_2>| / N`` by
    ``x + b_1 + 2 (b_1 + b_2) / sqrt(N)`` to first order, for the exclusion slack
    ``x = |e_1 @ e_2|_F <= sqrt(2) _resolution(r) = 2 budget(sqrt(r))``, r the larger rank,
    and the parts' budgets ``b_i = budget(sqrt(r_i))``; ``N <= 1 + O(b)``.  A part mixing a
    direction of ``v`` outside both ranges into the other's range attains the ``b / sqrt(N)``.
    """
    parts = tol.budget(math.sqrt(e1.rank)) + tol.budget(math.sqrt(e2.rank))
    x = math.sqrt(2.0) * _resolution(max(e1.rank, e2.rank), tol)
    return 3.0 * (x + parts) / math.sqrt(normalizer)


def _coherent_total(normalizer: float, p1: float, p2: float, cross: complex, slack: float) -> float:
    """``(part1 + part2 + 2 Re cross) / normalizer``: the cross term kept."""
    total = (p1 + p2 + 2.0 * cross.real) / normalizer
    return clamp_probability(total, slack, what="decomposed conditional probability")


def _incoherent_total(normalizer: float, p1: float, p2: float, slack: float) -> float:
    """``(part1 + part2) / normalizer``, a mean of Rayleigh quotients of the outcome: the cross term dropped."""
    return clamp_probability((p1 + p2) / normalizer, slack, what="incoherent combination")


def _prepared(f: Event) -> np.ndarray:
    """The unit ray of a minimal preparation ``f``, which stands for the state ``f`` itself."""
    if not isinstance(f, Event):
        raise ValidationError("preparation must be an Event")
    if not f.is_minimal():
        raise ValidationError("preparation event must be minimal (rank 1)")
    return _ray(f)


def split_cond_prob(mu: State, d: Event, e1: Event, e2: Event, tol: Tolerances = DEFAULT_TOL) -> InterferenceReport:
    """State-dependent decomposition of ``mu(d | e1 + e2)``.

    ``total`` is computed directly from the combined condition, the
    parts and cross term from the branches, so the report's identity is
    a genuine consistency statement rather than a tautology.  Raises
    :class:`UndefinedProbabilityError` if either branch carries
    probability at or below the floor.
    """
    normalizer, [(p1, p2, cross)] = _decompose(mu.rho, e1, e2, [d], tol)
    return InterferenceReport(
        total=cond_prob(mu, d, Event(e1.matrix + e2.matrix, e1.rank + e2.rank), tol),
        part1=p1,
        part2=p2,
        interference=2.0 * cross.real,
        normalizer=normalizer,
        coherent=True,
        lambda_complex=cross,
    )


def objective_split(f: Event, d: Event, e1: Event, e2: Event, tol: Tolerances = DEFAULT_TOL) -> InterferenceReport:
    """State-independent decomposition after minimal preparation ``f``.

    The terms of :func:`split_cond_prob` at the state ``f`` (module
    docstring); ``total`` is assembled from the decomposition

        total = (part1 + part2 + 2 Re lam) / normalizer

    so it can be checked independently against the direct sequential
    conditional probability of ``d`` given ``f`` then ``e1 + e2``.
    """
    normalizer, [(p1, p2, lam)] = _decompose(_prepared(f), e1, e2, [d], tol)
    slack = probability_slack(d.rank, tol) + _exclusion_slack(normalizer, e1, e2, tol)
    return InterferenceReport(
        total=_coherent_total(normalizer, p1, p2, lam, slack),
        part1=p1,
        part2=p2,
        interference=2.0 * lam.real,
        normalizer=normalizer,
        coherent=True,
        lambda_complex=lam,
    )


def incoherent_combine(f: Event, d: Event, e1: Event, e2: Event, tol: Tolerances = DEFAULT_TOL) -> InterferenceReport:
    """Which-part combination: classical mixture of the branches, no cross term.

    Models a recorded branch: the outcome probability is the branch
    mixture renormalised by the same combined mass as the coherent case,
    so the two variants are directly comparable.
    """
    normalizer, [(p1, p2, _)] = _decompose(_prepared(f), e1, e2, [d], tol)
    return InterferenceReport(
        total=_incoherent_total(normalizer, p1, p2, probability_slack(d.rank, tol)),
        part1=p1,
        part2=p2,
        interference=0.0,
        normalizer=normalizer,
        coherent=False,
        lambda_complex=None,
    )


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
    if not detectors:
        raise ValidationError("detector bank must contain at least one event")
    try:
        normalizer, terms = _decompose(_prepared(f), e1, e2, detectors, tol)
    except UndefinedProbabilityError:
        nan = float("nan")
        return [ScanPoint(index=i, coherent=nan, incoherent=nan, defined=False) for i in range(len(detectors))]
    split = _exclusion_slack(normalizer, e1, e2, tol)
    slacks = [probability_slack(d.rank, tol) for d in detectors]
    return [
        ScanPoint(
            index=i,
            coherent=_coherent_total(normalizer, p1, p2, cross, slack + split),
            incoherent=_incoherent_total(normalizer, p1, p2, slack),
            defined=True,
        )
        for i, ((p1, p2, cross), slack) in enumerate(zip(terms, slacks))
    ]


def scan_to_csv(points: Sequence[ScanPoint]) -> str:
    """Render scan points as CSV with a fixed header."""
    lines = ["index,coherent,incoherent,defined"]
    for p in points:
        lines.append(f"{p.index},{p.coherent:.12g},{p.incoherent:.12g},{str(p.defined).lower()}")
    return "\n".join(lines) + "\n"
