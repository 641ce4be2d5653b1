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

All four entry points read their terms from one kernel.  It checks the
split once, by the exclusion rule ``|e1 @ e2|_F <= atol + rtol``, and
takes ``e1 + e2`` as the event of rank ``r1 + r2`` without revalidating
the sum.  For a general state it forms ``e1 @ rho @ e1``,
``e2 @ rho @ e2`` and ``e2 @ rho @ e1`` once; each outcome then costs
three traces against ``d``, in O(d^2) rather than O(d^3).  A minimal
preparation runs on its ray ``v``: the kernel forms ``e1 @ v`` and
``e2 @ v`` once, and each outcome costs two matrix-vector products
with ``d``, so no d x d product is formed at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from .conditioning import State, cond_prob
from .errors import UndefinedProbabilityError, ValidationError
from .events import Event, _ray, is_orthogonal
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


def _decompose(
    rho: np.ndarray, e1: Event, e2: Event, outcomes: Sequence[Event], tol: Tolerances
) -> tuple[Event, float, list[tuple[float, float, complex]]]:
    """Terms of ``trace(rho @ e @ d @ e)`` over the split ``e = e1 + e2``.

    ``rho`` is a density matrix, or the unit ray ``v`` of a minimal
    preparation, which stands for ``rho = v @ adjoint(v)``.  Returns the
    combined event ``e``, the normalizer ``trace(rho @ e)`` and, for each
    outcome ``d``, the triple ``(part1, part2, cross)``:

        trace(rho @ e1 @ d @ e1),  trace(rho @ e2 @ d @ e2),  trace(rho @ e1 @ d @ e2).

    On a ray, with ``b_i = e_i @ v``, these are ``adjoint(b_1) d b_1``,
    ``adjoint(b_2) d b_2`` and ``adjoint(b_1) d b_2``, the normalizer is
    ``adjoint(v) e v`` and the branch weights are ``|b_i|^2``, so each
    outcome costs O(d^2).

    Outcomes are checked before the weights, so an invalid outcome raises
    :class:`ValidationError` even where the decomposition is undefined.
    Raises :class:`UndefinedProbabilityError` when either branch weight
    or the normalizer is at or below the probability floor.
    """
    if not isinstance(e1, Event) or not isinstance(e2, Event):
        raise ValidationError("branch conditions must be Events")
    if e1.dim != e2.dim:
        raise ValidationError(f"branch events live in different dimensions: {e1.dim} vs {e2.dim}")
    if not is_orthogonal(e1, e2, tol):
        raise ValidationError("branch events must be mutually exclusive (orthogonal)")
    e = Event(e1.matrix + e2.matrix, e1.rank + e2.rank)
    for d in outcomes:
        if not isinstance(d, Event):
            raise ValidationError("outcome must be an Event")
    if any(x.dim != rho.shape[0] for x in (e, *outcomes)):
        raise ValidationError("state, outcome and branch dimensions must agree")
    if rho.ndim == 1:
        b1, b2 = e1.matrix @ rho, e2.matrix @ rho
        weights = (np.vdot(b1, b1).real, np.vdot(b2, b2).real)
        raw_normalizer = np.vdot(rho, e.matrix @ rho).real

        def parts(d: np.ndarray):
            d2 = d @ b2
            return np.vdot(b1, d @ b1), np.vdot(b2, d2), np.vdot(b1, d2)
    else:
        left = rho @ e1.matrix
        a1 = e1.matrix @ left
        a2 = e2.matrix @ rho @ e2.matrix
        c = e2.matrix @ left
        weights = (np.trace(a1).real, np.trace(a2).real)
        raw_normalizer = np.real(np.vdot(e.matrix, rho))

        def parts(d: np.ndarray):
            # trace(x @ d) == dot(x.ravel(), d.T.ravel()), in O(d^2).
            flat = d.T.ravel()
            return (np.dot(x.ravel(), flat) for x in (a1, a2, c))
    normalizer = clamp_probability(float(raw_normalizer), tol, what="probability of the condition")
    if min(weights) <= tol.prob_floor:
        raise UndefinedProbabilityError("branch probability vanishes; decomposition is undefined")
    if normalizer <= tol.prob_floor:
        raise UndefinedProbabilityError("combined condition has vanishing probability")
    terms = []
    for d in outcomes:
        p1, p2, cross = parts(d.matrix)
        terms.append((float(p1.real), float(p2.real), complex(cross)))
    return e, normalizer, terms


def _prepared(f: Event) -> np.ndarray:
    """The unit ray of a minimal preparation ``f``, which stands for the state ``f`` itself."""
    if not isinstance(f, Event):
        raise ValidationError("preparation must be an Event")
    if not f.is_minimal():
        raise ValidationError("preparation event must be minimal (rank 1)")
    return _ray(f)


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
    e, normalizer, [(p1, p2, cross)] = _decompose(mu.rho, e1, e2, [d], tol)
    return InterferenceReport(
        total=cond_prob(mu, d, e, tol),
        part1=p1,
        part2=p2,
        interference=2.0 * cross.real,
        normalizer=normalizer,
        coherent=True,
        lambda_complex=cross,
    )


def objective_split(
    f: Event,
    d: Event,
    e1: Event,
    e2: Event,
    tol: Tolerances = DEFAULT_TOL,
) -> InterferenceReport:
    """State-independent decomposition after minimal preparation ``f``.

    All terms are state-independent because ``f`` is minimal: they are
    the terms of :func:`split_cond_prob` at the state ``f``, and the cross
    scalar ``lam`` satisfies ``f @ e1 @ d @ e2 @ f == lam * f``.
    ``total`` is assembled from the decomposition

        total = (part1 + part2 + 2 Re lam) / normalizer

    so it can be checked independently against the direct sequential
    conditional probability of ``d`` given ``f`` then ``e1 + e2``.
    """
    _, normalizer, [(p1, p2, lam)] = _decompose(_prepared(f), e1, e2, [d], tol)
    interference = 2.0 * lam.real
    return InterferenceReport(
        total=clamp_probability((p1 + p2 + interference) / normalizer, tol, what="decomposed conditional probability"),
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
    _, normalizer, [(p1, p2, _)] = _decompose(_prepared(f), e1, e2, [d], tol)
    return InterferenceReport(
        total=clamp_probability((p1 + p2) / normalizer, tol, what="incoherent combination"),
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
    column the which-part variant; both come from one kernel formed once
    per scan.  When a branch or the combined condition has vanishing
    weight after ``f`` the decomposition is undefined for every detector,
    and every row is flagged ``defined=False`` with NaN values.
    """
    if not detectors:
        raise ValidationError("detector bank must contain at least one event")
    try:
        _, normalizer, terms = _decompose(_prepared(f), e1, e2, detectors, tol)
    except UndefinedProbabilityError:
        nan = float("nan")
        return [ScanPoint(index=i, coherent=nan, incoherent=nan, defined=False) for i in range(len(detectors))]
    return [
        ScanPoint(
            index=i,
            coherent=clamp_probability((p1 + p2 + 2.0 * cross.real) / normalizer, tol,
                                       what="decomposed conditional probability"),
            incoherent=clamp_probability((p1 + p2) / normalizer, tol, what="incoherent combination"),
            defined=True,
        )
        for i, (p1, p2, cross) in enumerate(terms)
    ]


def scan_to_csv(points: Sequence[ScanPoint]) -> str:
    """Render scan points as CSV with a fixed header."""
    lines = ["index,coherent,incoherent,defined"]
    for p in points:
        lines.append(f"{p.index},{p.coherent:.12g},{p.incoherent:.12g},{str(p.defined).lower()}")
    return "\n".join(lines) + "\n"
