"""Finite classical probability spaces and their diagonal embedding.

A classical space is a finite set of outcomes with nonnegative weights
summing to 1; events are outcome subsets.  Conditioning is the ordinary
ratio rule, and conditioning on several events in succession is the same
as conditioning on their intersection, in any order.

Every classical space embeds into the matrix setting: outcomes become
the standard basis axes, the state becomes the diagonal density matrix
of the weights, and a subset becomes the diagonal 0/1 projection on its
members.  Under this embedding the matrix conditioning rules reproduce
the classical ratios exactly, which is the consistency check the tests
lean on.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from .conditioning import State
from .errors import UndefinedProbabilityError, ValidationError
from .events import Event, _arg, _args, _dimension, _event, _index
from .tolerances import DEFAULT_TOL, Tolerances


class ClassicalSpace:
    """Finite outcome set with a probability weight per outcome, read from a one-dimensional list of weights."""

    __slots__ = ("_weights",)

    def __init__(self, weights, tol: Tolerances = DEFAULT_TOL):
        try:
            w = np.array(weights, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"cannot interpret weights: {exc}") from exc
        if w.ndim != 1:
            raise ValidationError(f"weights must be one-dimensional, got shape {w.shape}")
        if w.size == 0:
            raise ValidationError("classical space needs at least one outcome")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValidationError("weights must be finite and nonnegative")
        total = float(np.sum(w))
        if not _arg(tol, Tolerances, "tol").close(total, 1.0):
            raise ValidationError(f"weights sum to {total!r}, expected 1")
        w.setflags(write=False)
        self._weights = w

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def n_outcomes(self) -> int:
        return self._weights.size

    def __repr__(self) -> str:
        return f"ClassicalSpace(n_outcomes={self.n_outcomes})"


class ClassicalEvent:
    """A subset of outcomes, read from a one-dimensional boolean membership mask."""

    __slots__ = ("_membership",)

    def __init__(self, membership):
        try:
            m = np.array(membership)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"cannot interpret membership: {exc}") from exc
        if m.ndim != 1 or m.size and m.dtype != bool:
            raise ValidationError(f"membership must be a one-dimensional boolean mask, got {m.dtype} shape {m.shape}")
        if m.size == 0:
            raise ValidationError("classical event needs a membership entry per outcome")
        m.setflags(write=False)
        self._membership = m

    @classmethod
    def from_indices(cls, n_outcomes: int, indices: Iterable[int]) -> "ClassicalEvent":
        """The outcomes listed by ``indices``: an iterable of integers or a one-dimensional index array."""
        n_outcomes = _dimension(n_outcomes)
        if isinstance(indices, np.ndarray) and indices.ndim == 1:
            indices = list(indices)
        mask = np.zeros(n_outcomes, dtype=bool)
        for i in _args(indices, object, "outcome indices", empty=True):
            mask[_index(i, n_outcomes, "outcome index")] = True
        return cls(mask)

    @property
    def membership(self) -> np.ndarray:
        return self._membership

    @property
    def n_outcomes(self) -> int:
        return self._membership.size

    def intersect(self, other: "ClassicalEvent") -> "ClassicalEvent":
        _arg(other, ClassicalEvent, "other", self.n_outcomes)
        return ClassicalEvent(self._membership & other._membership)

    def complement(self) -> "ClassicalEvent":
        return ClassicalEvent(~self._membership)

    def indices(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.nonzero(self._membership)[0])

    def __repr__(self) -> str:
        return f"ClassicalEvent(indices={list(self.indices())})"


def classical_prob(space: ClassicalSpace, event: ClassicalEvent) -> float:
    """Total weight of the event's outcomes."""
    _arg(event, ClassicalEvent, "event", _arg(space, ClassicalSpace, "space").n_outcomes)
    return float(np.sum(space.weights[event.membership]))


def classical_cond_prob(
    space: ClassicalSpace,
    d: ClassicalEvent,
    e: ClassicalEvent,
    tol: Tolerances = DEFAULT_TOL,
) -> float:
    """Ratio rule: weight of ``d and e`` divided by weight of ``e``."""
    _arg(d, ClassicalEvent, "d", _arg(space, ClassicalSpace, "space").n_outcomes)
    _arg(e, ClassicalEvent, "e", space.n_outcomes)
    den = float(np.sum(space.weights[e.membership]))
    if den <= _arg(tol, Tolerances, "tol").prob_floor:
        raise UndefinedProbabilityError(f"cannot condition on an event of probability {den!r}")
    return float(np.sum(space.weights[d.membership & e.membership])) / den


def classical_repeated(
    space: ClassicalSpace,
    d: ClassicalEvent,
    chain: Sequence[ClassicalEvent],
    tol: Tolerances = DEFAULT_TOL,
) -> float:
    """Condition on a sequence of events: same as conditioning on their intersection."""
    chain = _args(chain, ClassicalEvent, "conditioning chain", _arg(space, ClassicalSpace, "space").n_outcomes)
    joint = ClassicalEvent(np.logical_and.reduce([e.membership for e in chain]))
    return classical_cond_prob(space, d, joint, tol)


def embed_event(event: ClassicalEvent) -> Event:
    """Diagonal 0/1 projection picking out the event's outcomes.

    Its factor is the identity's columns at the members, and its
    complement's the identity's columns at the other outcomes, so the
    event keeps both and never derives one.
    """
    members = _arg(event, ClassicalEvent, "event").membership
    n = members.size
    return _event(
        np.diag(members.astype(np.complex128)),
        int(np.count_nonzero(members)),
        _columns(n, np.flatnonzero(members)),
        _columns(n, np.flatnonzero(~members)),
    )


def embed_diagonal(space: ClassicalSpace) -> State:
    """Diagonal density matrix carrying the space's weights, with the factor ``diag(sqrt(w))`` at the positive weights.

    As ``State(...)`` keeps an eigenpair only for a positive eigenvalue,
    the factor keeps the columns of the positive weights, so a zero weight
    costs no column.  The weights were checked when the space was built
    (finite, nonnegative, summing to 1), so their diagonal matrix is a
    state and is wrapped without re-running the checks of ``State(...)``.
    """
    w = _arg(space, ClassicalSpace, "space").weights.astype(np.complex128)
    support = np.flatnonzero(space.weights)
    return State._trusted(_columns(w.size, support, np.sqrt(w[support])), np.diag(w))


def _columns(n: int, at: np.ndarray, values=1.0) -> np.ndarray:
    """Columns ``at`` of the n x n diagonal matrix carrying ``values`` there, written into zeros.

    Selecting the columns of a d x d matrix instead copies with a stride:
    at d = 128 it made :func:`embed_event` 1.7 times as slow (265 against
    158 us a call, one x86-64 core).
    """
    factor = np.zeros((n, at.size), dtype=np.complex128)
    factor[at, np.arange(at.size)] = values
    return factor
