"""Decomposition of conditional probabilities over a two-part condition.

When an event splits into two mutually exclusive parts ``e = e1 + e2``,
the conditional probability of ``d`` given ``e`` decomposes as

    mu(d | e) * mu(e) = mu(d | e1) mu(e1) + mu(d | e2) mu(e2)
                        + 2 Re trace(rho @ e1 @ d @ e2)

The first two terms are the classical mixture over the parts; the last
is the interference term, absent from classical probability.  It
vanishes whenever ``d`` commutes with both parts, and more generally
whenever which-part information exists.

The same decomposition holds state-independently after preparation by a
minimal event ``f``: every term becomes a state-independent conditional
probability and the cross term becomes a scalar ``lam`` with
``f @ e1 @ d @ e2 @ f == lam * f``.

The incoherent variant models the presence of a which-part record: the
classical mixture terms survive, the interference term is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from .conditioning import State, cond_prob, state_value
from .errors import InvariantError, UndefinedProbabilityError, ValidationError
from .events import Event, is_orthogonal, validate_event
from .linalg import fit_scalar
from .objective import objective_cond_prob, objective_seq
from .tolerances import DEFAULT_TOL, Tolerances, clamp_probability


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


def _check_split(e1: Event, e2: Event, tol: Tolerances) -> Event:
    if not isinstance(e1, Event) or not isinstance(e2, Event):
        raise ValidationError("branch conditions must be Events")
    if e1.dim != e2.dim:
        raise ValidationError(f"branch events live in different dimensions: {e1.dim} vs {e2.dim}")
    if not is_orthogonal(e1, e2, tol):
        raise ValidationError("branch events must be mutually exclusive (orthogonal)")
    return validate_event(e1.matrix + e2.matrix, tol)


def split_cond_prob(
    mu: State,
    d: Event,
    e1: Event,
    e2: Event,
    tol: Tolerances = DEFAULT_TOL,
) -> InterferenceReport:
    """State-dependent decomposition of ``mu(d | e1 + e2)``.

    ``total`` is computed directly from the combined condition, the
    parts and cross term from the branches, so the report's identity is
    a genuine consistency statement rather than a tautology.  Raises
    :class:`UndefinedProbabilityError` if either branch (or the
    combination) carries probability at or below the floor.
    """
    e = _check_split(e1, e2, tol)
    if not isinstance(d, Event):
        raise ValidationError("outcome must be an Event")
    total = cond_prob(mu, d, e, tol)
    normalizer = state_value(mu, e, tol)
    p1 = cond_prob(mu, d, e1, tol) * state_value(mu, e1, tol)
    p2 = cond_prob(mu, d, e2, tol) * state_value(mu, e2, tol)
    cross = complex(np.trace(mu.rho @ e1.matrix @ d.matrix @ e2.matrix))
    return InterferenceReport(
        total=total,
        part1=p1,
        part2=p2,
        interference=2.0 * cross.real,
        normalizer=normalizer,
        coherent=True,
        lambda_complex=cross,
    )


def _branch_weights(f: Event, e1: Event, e2: Event, tol: Tolerances) -> tuple[float, float, float]:
    """Outcome-independent terms: both branch weights and the normalizer after ``f``."""
    e = _check_split(e1, e2, tol)
    if not isinstance(f, Event):
        raise ValidationError("preparation must be an Event")
    if not f.is_minimal():
        raise ValidationError("preparation event must be minimal (rank 1)")
    if f.dim != e1.dim:
        raise ValidationError("preparation, outcome and branch dimensions must agree")
    weights = []
    for branch in (e1, e2):
        weight = objective_cond_prob(branch, f, tol)
        if weight.value is None:
            raise InvariantError("branch weight after minimal preparation must be state-independent")
        if weight.value <= tol.prob_floor:
            raise UndefinedProbabilityError("branch probability vanishes; decomposition is undefined")
        weights.append(weight.value)
    normalizer = objective_cond_prob(e, f, tol)
    if normalizer.value is None:
        raise InvariantError("combined condition after minimal preparation must be state-independent")
    if normalizer.value <= tol.prob_floor:
        raise UndefinedProbabilityError("combined condition has vanishing probability")
    return weights[0], weights[1], normalizer.value


def _check_outcome(f: Event, d: Event) -> None:
    if not isinstance(d, Event):
        raise ValidationError("outcome must be an Event")
    if d.dim != f.dim:
        raise ValidationError("preparation, outcome and branch dimensions must agree")


def _branch_parts(
    f: Event, d: Event, e1: Event, e2: Event, w1: float, w2: float, tol: Tolerances
) -> tuple[float, float]:
    """Unnormalised classical contributions ``mu(d | f, branch) * weight`` of both branches."""
    parts = []
    for branch, weight in ((e1, w1), (e2, w2)):
        through = objective_seq(d, [f, branch], tol)
        if through.value is None:
            raise InvariantError("branch conditional after minimal preparation must be state-independent")
        parts.append(through.value * weight)
    return parts[0], parts[1]


def _cross_scalar(f: Event, d: Event, e1: Event, e2: Event, tol: Tolerances) -> complex:
    """Scalar ``lam`` with ``f @ e1 @ d @ e2 @ f == lam * f``."""
    lam, residual = fit_scalar(f.matrix @ e1.matrix @ d.matrix @ e2.matrix @ f.matrix, f.matrix, tol)
    scale = 1.0 + float(np.linalg.norm(f.matrix, "fro"))
    if residual > tol.objectivity_tol * scale:
        raise InvariantError("cross term after minimal preparation must be a scalar multiple of the preparation")
    return complex(lam)


def _coherent_total(p1: float, p2: float, interference: float, normalizer: float, tol: Tolerances) -> float:
    return clamp_probability((p1 + p2 + interference) / normalizer, tol, what="decomposed conditional probability")


def _incoherent_total(p1: float, p2: float, normalizer: float, tol: Tolerances) -> float:
    return clamp_probability((p1 + p2) / normalizer, tol, what="incoherent combination")


def objective_split(
    f: Event,
    d: Event,
    e1: Event,
    e2: Event,
    tol: Tolerances = DEFAULT_TOL,
) -> InterferenceReport:
    """State-independent decomposition after minimal preparation ``f``.

    All terms are state-independent because ``f`` is minimal.  The cross
    scalar comes from fitting ``f @ e1 @ d @ e2 @ f`` against ``f``;
    ``total`` is assembled from the decomposition

        total = (part1 + part2 + 2 Re lam) / normalizer

    so it can be checked independently against the direct sequential
    conditional probability of ``d`` given ``f`` then ``e1 + e2``.
    """
    w1, w2, normalizer = _branch_weights(f, e1, e2, tol)
    _check_outcome(f, d)
    p1, p2 = _branch_parts(f, d, e1, e2, w1, w2, tol)
    lam = _cross_scalar(f, d, e1, e2, tol)
    interference = 2.0 * lam.real
    return InterferenceReport(
        total=_coherent_total(p1, p2, interference, normalizer, tol),
        part1=p1,
        part2=p2,
        interference=interference,
        normalizer=normalizer,
        coherent=True,
        lambda_complex=lam,
    )


def incoherent_combine(
    f: Event,
    d: Event,
    e1: Event,
    e2: Event,
    tol: Tolerances = DEFAULT_TOL,
) -> InterferenceReport:
    """Which-part combination: classical mixture of the branches, no cross term.

    Models a recorded branch: the outcome probability is the branch
    mixture renormalised by the same combined mass as the coherent case,
    so the two variants are directly comparable.
    """
    w1, w2, normalizer = _branch_weights(f, e1, e2, tol)
    _check_outcome(f, d)
    p1, p2 = _branch_parts(f, d, e1, e2, w1, w2, tol)
    return InterferenceReport(
        total=_incoherent_total(p1, p2, normalizer, tol),
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
    f: Event,
    e1: Event,
    e2: Event,
    detectors: Sequence[Event],
    tol: Tolerances = DEFAULT_TOL,
) -> list[ScanPoint]:
    """Coherent and incoherent detection profiles across a detector bank.

    For each detector event the coherent column is the decomposed
    conditional probability with the cross term kept, the incoherent
    column the which-part variant.  Detectors for which the terms are
    undefined produce a row flagged ``defined=False`` with NaN values.
    """
    if not detectors:
        raise ValidationError("detector bank must contain at least one event")
    try:
        w1, w2, normalizer = _branch_weights(f, e1, e2, tol)
    except UndefinedProbabilityError:
        normalizer = None
    for det in detectors:
        _check_outcome(f, det)
    points = []
    for i, det in enumerate(detectors):
        point = ScanPoint(index=i, coherent=float("nan"), incoherent=float("nan"), defined=False)
        if normalizer is not None:
            try:
                p1, p2 = _branch_parts(f, det, e1, e2, w1, w2, tol)
                lam = _cross_scalar(f, det, e1, e2, tol)
            except UndefinedProbabilityError:
                pass
            else:
                point = ScanPoint(
                    index=i,
                    coherent=_coherent_total(p1, p2, 2.0 * lam.real, normalizer, tol),
                    incoherent=_incoherent_total(p1, p2, normalizer, tol),
                    defined=True,
                )
        points.append(point)
    return points


def scan_to_csv(points: Sequence[ScanPoint]) -> str:
    """Render scan points as CSV with a fixed header."""
    lines = ["index,coherent,incoherent,defined"]
    for p in points:
        lines.append(f"{p.index},{p.coherent:.12g},{p.incoherent:.12g},{str(p.defined).lower()}")
    return "\n".join(lines) + "\n"
