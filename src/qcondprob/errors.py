"""Exception hierarchy shared across the package."""


class QcpError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(QcpError):
    """An input fails a structural or numerical requirement.

    Raised for malformed matrices, dimension mismatches, operators that
    are not valid events or states, bad configuration values, and
    unreadable input files.
    """


class UndefinedProbabilityError(QcpError):
    """The requested quantity is mathematically undefined.

    Typical causes: conditioning on an event of probability zero, a
    sequential product of events that vanishes, or asking for the
    post-outcome state of an outcome that is not minimal.
    """


class ConvergenceError(QcpError):
    """An iterative routine exhausted its iteration cap.

    No routine of the package raises it; the name stays exported for
    callers that catch it.
    """


class InvariantError(QcpError):
    """An internal consistency check failed.

    Two independent computations of the same quantity disagreed, or an
    intermediate value landed outside its mathematically guaranteed
    range.  Indicates a bug or numerically unusable inputs.
    """
