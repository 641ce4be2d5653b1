"""The timed unit of every workload and the checks shared by its oracles.

An op runs some package calls (timed) and is then checked (untimed)
against an oracle.  ``check(result, exc)`` returns None for a correct
result and a one-line reason otherwise.  An op whose oracle says the
quantity is undefined is correct exactly when the package raises
``UndefinedProbabilityError`` (exit code 3 on the command line).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

# Probabilities computed two ways agree to round-off; 1e-8 leaves room for
# d = 128 products without admitting a wrong value.
VALUE_TOL = 1e-8


@dataclass
class Op:
    kind: str
    dim: int
    run: Callable[[Any], Any]
    check: Callable[[Any, BaseException | None], str | None]
    tags: dict = field(default_factory=dict)


class KnownDefect(str):
    """A failure reason that matches a defect documented at this commit.

    Known defects: ``chain-branch-weights`` (evaluate_chain weighs detector
    branches before later blocks, so chains with a block after a detector
    get a wrong analytic value), ``meet-convergence`` (lattice_meet stops
    with ConvergenceError at small principal angles) and ``event-cap``
    (ValuationProblem refuses more than MAX_EVENTS = 24 events, so
    Peres-33).  Such an op is not correct: it counts against correct_frac
    and in failed_frac.  It is reported apart from unexpected failures,
    which alone mark a run incorrect.
    """


def known(defect: str, reason: str) -> KnownDefect:
    return KnownDefect(f"known defect {defect}: {reason}")


def raised(exc: BaseException) -> str:
    return f"raised {type(exc).__name__}: {str(exc)[:120]}"


def is_undefined_error(exc: BaseException | None) -> bool:
    return exc is not None and type(exc).__name__ == "UndefinedProbabilityError"


def close(value: float | None, expected: float) -> bool:
    return value is not None and abs(value - expected) <= VALUE_TOL


def check_value(expected: float | None):
    """A check comparing a float result with an oracle value (None: undefined)."""

    def check(result, exc):
        if expected is None:
            return None if is_undefined_error(exc) else f"oracle says undefined; got {raised(exc) if exc else result!r}"
        if exc is not None:
            return raised(exc)
        if not close(result, expected):
            return f"value {result!r} differs from oracle {expected!r}"
        return None

    return check
