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
from .events import Event, _dimension, _index
from .tolerances import DEFAULT_TOL, Tolerances


class ClassicalSpace:
    """Finite outcome set with a probability weight per outcome."""

    __slots__ = ("_weights",)

    def __init__(self, weights, tol: Tolerances = DEFAULT_TOL):
        try:
            w = np.array(weights, dtype=np.float64).reshape(-1)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"cannot interpret weights: {exc}") from exc
        if w.size == 0:
            raise ValidationError("classical space needs at least one outcome")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValidationError("weights must be finite and nonnegative")
        total = float(np.sum(w))
        if not tol.close(total, 1.0):
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
    """A subset of outcomes, stored as a boolean membership mask."""

    __slots__ = ("_membership",)

    def __init__(self, membership):
        m = np.array(membership, dtype=bool).reshape(-1)
        if m.size == 0:
            raise ValidationError("classical event needs a membership entry per outcome")
        m.setflags(write=False)
        self._membership = m

    @classmethod
    def from_indices(cls, n_outcomes: int, indices: Iterable[int]) -> "ClassicalEvent":
        n_outcomes = _dimension(n_outcomes)
        mask = np.zeros(n_outcomes, dtype=bool)
        for i in indices:
            mask[_index(i, n_outcomes, "outcome index")] = True
        return cls(mask)

    @property
    def membership(self) -> np.ndarray:
        return self._membership

    @property
    def n_outcomes(self) -> int:
        return self._membership.size

    def intersect(self, other: "ClassicalEvent") -> "ClassicalEvent":
        if self.n_outcomes != other.n_outcomes:
            raise ValidationError("classical events live over different outcome sets")
        return ClassicalEvent(self._membership & other._membership)

    def complement(self) -> "ClassicalEvent":
        return ClassicalEvent(~self._membership)

    def indices(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.nonzero(self._membership)[0])

    def __repr__(self) -> str:
        return f"ClassicalEvent(indices={list(self.indices())})"


def _check_space_event(space: ClassicalSpace, event: ClassicalEvent) -> None:
    if event.n_outcomes != space.n_outcomes:
        raise ValidationError("event does not match the outcome count of the space")


def classical_prob(space: ClassicalSpace, event: ClassicalEvent) -> float:
    """Total weight of the event's outcomes."""
    _check_space_event(space, event)
    return float(np.sum(space.weights[event.membership]))


def classical_cond_prob(
    space: ClassicalSpace,
    d: ClassicalEvent,
    e: ClassicalEvent,
    tol: Tolerances = DEFAULT_TOL,
) -> float:
    """Ratio rule: weight of ``d and e`` divided by weight of ``e``."""
    _check_space_event(space, d)
    _check_space_event(space, e)
    den = classical_prob(space, e)
    if den <= tol.prob_floor:
        raise UndefinedProbabilityError(f"cannot condition on an event of probability {den!r}")
    return classical_prob(space, d.intersect(e)) / den


def classical_repeated(
    space: ClassicalSpace,
    d: ClassicalEvent,
    chain: Sequence[ClassicalEvent],
    tol: Tolerances = DEFAULT_TOL,
) -> float:
    """Condition on a sequence of events: same as conditioning on their intersection."""
    if not chain:
        raise ValidationError("conditioning chain must contain at least one event")
    joint = chain[0]
    _check_space_event(space, joint)
    for e in chain[1:]:
        joint = joint.intersect(e)
    return classical_cond_prob(space, d, joint, tol)


def embed_event(event: ClassicalEvent) -> Event:
    """Diagonal 0/1 projection picking out the event's outcomes."""
    diag = event.membership.astype(np.complex128)
    return Event(np.diag(diag), int(np.count_nonzero(event.membership)))


def embed_diagonal(space: ClassicalSpace) -> State:
    """Diagonal density matrix carrying the space's weights.

    The weights were checked when the space was built (finite,
    nonnegative, summing to 1), so their diagonal matrix is a state and
    is wrapped without re-running the checks of ``State(...)``.
    """
    return State._trusted(np.diag(space.weights.astype(np.complex128)))
