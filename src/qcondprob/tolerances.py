"""Shared numerical comparison policy.

Every approximate comparison in the package goes through one rule:

    close(x, y)  <=>  |x - y| <= atol + rtol * max(|x|, |y|)

so that a single :class:`Tolerances` instance, threaded through as an
optional argument, controls all cutoffs consistently.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantError, ValidationError


@dataclass(frozen=True)
class Tolerances:
    """Bundle of numerical thresholds.

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
        for name in ("atol", "rtol", "objectivity_tol", "prob_floor"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and value > 0):
                raise ValidationError(f"tolerance {name!r} must be a positive number, got {value!r}")

    def close(self, x: float, y: float) -> bool:
        """True when x and y agree within atol + rtol * max(|x|, |y|)."""
        return abs(x - y) <= self.atol + self.rtol * max(abs(x), abs(y))


DEFAULT_TOL = Tolerances()


def clamp_probability(value: float, tol: Tolerances = DEFAULT_TOL, what: str = "probability") -> float:
    """Clamp a should-be-probability into [0, 1].

    Values may leave [0, 1] by round-off only; anything further out
    signals broken inputs and raises :class:`InvariantError`.
    """
    slack = tol.atol + tol.rtol
    if value < -slack or value > 1.0 + slack:
        raise InvariantError(f"{what} {value!r} lies outside [0, 1] beyond tolerance")
    return min(max(value, 0.0), 1.0)
