"""Exception hierarchy for tailforge, and the argument checks that raise
ParameterError.

Every error raised on purpose by the library derives from TailforgeError so
CLI code can map numerical failures to a dedicated exit code.
"""

import math
import numbers


class TailforgeError(Exception):
    """Base class for all tailforge errors."""


class ParameterError(TailforgeError, ValueError):
    """A constructor or operation argument violates its stated constraint."""


def _count(name: str, value, least: int) -> int:
    """``value`` as an int, or ParameterError unless it is an integer (a
    Python or numpy one, not a bool or a float) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ParameterError(f"{name} must be >= {least}, got {value}")
    return int(value)


def _positive(name: str, value) -> None:
    """ParameterError unless ``value`` is a finite positive real number (a
    Python or numpy one, not a bool)."""
    # Written so that NaN fails it too.
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
        raise ParameterError(f"{name} must be a finite positive number, got {value!r}")


class TruncationError(TailforgeError):
    """A query reaches beyond the materialized part of a piecewise tail.

    Infinite piecewise constructions are cut off at the last breakpoint
    representable in binary64; evaluating past that point would silently
    fabricate asymptotics, so it is a hard error instead.
    """


class DivergenceError(TailforgeError):
    """An integral that was requested is provably infinite."""


class ToleranceError(TailforgeError):
    """Adaptive quadrature could not certify the requested tolerance."""

    def __init__(self, message: str, achieved_rel_error: float):
        super().__init__(message)
        self.achieved_rel_error = achieved_rel_error


class LogDepthError(ToleranceError):
    """An integral's log magnitude exceeds binary64 resolution (|log| beyond
    ~4.5e15), so it carries no relative structure."""


class GridGuardError(TailforgeError):
    """A grid convolution request exceeds the configured cell budget."""


class LowAcceptanceError(TailforgeError):
    """Monte Carlo acceptance below floor; use the quadrature route.

    ``pilot_acceptance`` is the share of the run's own first ceil(10 / floor)
    draws with S_n > x, or 0.0 when no draw of the run was accepted.
    """

    def __init__(self, message: str, pilot_acceptance: float):
        super().__init__(message)
        self.pilot_acceptance = pilot_acceptance


class InconclusiveBracketError(TailforgeError):
    """Interval arithmetic produced a degenerate (uninformative) bracket."""
