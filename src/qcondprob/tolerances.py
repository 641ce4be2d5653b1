"""Shared numerical comparison policy.

One :class:`Tolerances` instance, threaded through as an optional
argument, sets every cutoff.  A comparison at Frobenius scale ``norm``
takes the slack ``budget(norm) = atol + rtol * (1 + norm)``, a
probability read from validated events the :func:`probability_slack`
derived from it, and two scalars compare by :meth:`Tolerances.close`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvariantError, ValidationError


@dataclass(frozen=True)
class Tolerances:
    """Bundle of numerical thresholds, each a real number in (0, 1).

    Attributes
    ----------
    atol : float
        Absolute floor for scalar and matrix comparisons.
    rtol : float
        Relative slack for scalar and matrix comparisons.
    objectivity_tol : float
        Residual threshold below which an operator counts as a scalar
        multiple of another (state-independence detection).
    prob_floor : float
        Conditioning denominators at or below this value are treated as
        zero and raise instead of dividing.
    """

    atol: float = 1e-10
    rtol: float = 1e-10
    objectivity_tol: float = 1e-9
    prob_floor: float = 1e-12

    def __post_init__(self) -> None:
        # A tolerance of 1 or more lets any probability pass for any other.
        for name in ("atol", "rtol", "objectivity_tol", "prob_floor"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and not isinstance(value, bool) and 0 < value < 1):
                raise ValidationError(f"tolerance {name!r} must be a number in (0, 1), got {value!r}")

    def budget(self, norm: float = 0.0) -> float:
        """``atol + rtol * (1 + norm)``: the slack of a comparison at Frobenius scale ``norm``."""
        return self.atol + self.rtol * (1.0 + norm)

    def close(self, x: float, y: float) -> bool:
        """True when x and y agree within atol + rtol * max(|x|, |y|): two scalars, so no matrix norm."""
        return abs(x - y) <= self.atol + self.rtol * max(abs(x), abs(y))


DEFAULT_TOL = Tolerances()


def probability_slack(rank: int, tol: Tolerances = DEFAULT_TOL) -> float:
    """``4 * budget(sqrt(rank))``: how far a probability read from a validated event may leave [0, 1].

    The derivation bounds the matrix ``e`` that is applied: the stored
    one, exactly self-adjoint, whose defect ``D = e @ e - e`` validation
    bounds by ``b = budget(|e|_F)``, with ``|e|_F = sqrt(rank) + O(b)``.
    An eigenvalue l of ``e`` with unit eigenvector x has
    ``l^2 - l = <x, D x>``, so l, and every Rayleigh quotient
    ``Re<u, e u> / |u|^2`` or mean of them such as ``Re tr(s @ e) / tr(s)``
    (``s >= 0``), lies in ``[-b, 1 + b] + O(b^2)``.  A branch weight
    ``|e u|^2 / |u|^2``, or one of ``I - e`` (same defect), is at most
    ``l^2 <= 1 + 2b + O(b^2)``.  ``4b`` bounds both with ``2b`` to spare for
    the second-order terms, and is never below ``budget()``.  A ``rank``
    that is not a nonnegative number is refused, and so is a ``tol`` that
    is not a :class:`Tolerances`, as ``events._arg`` would refuse it.
    """
    if not isinstance(tol, Tolerances):
        raise ValidationError(f"tol must be a Tolerances, got {type(tol).__name__}")
    try:
        return 4.0 * tol.budget(math.sqrt(rank))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"rank must be a nonnegative number, got {rank!r}") from exc


def clamp_probability(value: float, slack: float, what: str = "probability") -> float:
    """Clamp a should-be-probability into [0, 1].

    ``slack`` is the bound the value's derivation gives, usually
    :func:`probability_slack`, so validated input stays within it; a
    value further out signals broken arithmetic and raises :class:`InvariantError`;
    a value or slack that is not a real number, :class:`ValidationError`.
    """
    try:
        if value < -slack or value > 1.0 + slack:
            raise InvariantError(f"{what} {value!r} lies outside [0, 1] beyond tolerance")
        return min(max(value, 0.0), 1.0)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} {value!r} and slack {slack!r} must be real numbers") from exc
