"""Semantic exception hierarchy, and the one gate every argument passes.

Domain violations (bad arguments, unstable load points) and numerical
failures (non-convergence, lost brackets) are distinct: callers such as the
CLI map them to different exit codes, and sweeps record them per-row instead
of aborting. Only this module checks a scalar argument's type and range,
and each check returns the value as the float or int its caller computes
with: no caller converts after checking, where an integer past the double
range raised OverflowError. A module raises DomainError itself only where
arguments meet (a < s, n > beta**2), for the support of a law (proof_kit's
y >= 1), and past the ceiling its docstring states for its own work.
"""

from __future__ import annotations

import numbers
import sys

_MAX = sys.float_info.max
# Most steps of a loop the caller's arguments size: about a second at the
# 0.1 us a step of the Erlang-B recurrence and the birth-death sum.
MAX_STEPS = 10**7


class StaffingError(Exception):
    """Base class for every error raised by this package."""


class DomainError(StaffingError, ValueError):
    """Arguments violate a precondition (e.g. offered load >= servers)."""


class NumericalError(StaffingError, ArithmeticError):
    """An iterative method failed to converge.

    Carries the best estimate produced so far and its error bound when the
    failing routine can provide them, plus the iteration count when the
    failure is an iteration cap.
    """

    def __init__(self, message, *, estimate=None, error_bound=None, iterations=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound
        self.iterations = iterations


class BracketError(NumericalError):
    """Root bracketing failed; the message names the endpoint values."""


def finite_real(x, what: str, symbol: str) -> float:
    """x as a float, if it is finite as a double (not nan, nor an integer
    past the double range); what and symbol name it."""
    if not -_MAX <= x <= _MAX:
        raise DomainError(f"{what} must be finite, got {symbol}={x}")
    return float(x)


def positive_finite(x, what: str, symbol: str) -> float:
    """x as a float, if it is positive and finite as a double (not nan)."""
    if not 0.0 < x <= _MAX:
        raise DomainError(f"{what} must be positive and finite, got {symbol}={x}")
    return float(x)


def count(n, what: str, least: int, most: int | None = None, *, floats: bool = False) -> int:
    """n as an int, if it is an integer from least to most (None: no
    ceiling). A bool is not, nor is a float unless floats admits the
    integral ones such as 5.0 (inf, nan and 2.5 never pass)."""
    integral = type(n) is int or not isinstance(n, bool) and (
        isinstance(n, numbers.Integral) or floats and isinstance(n, float) and n.is_integer())
    if not integral or n < least or (most is not None and n > most):
        kind = {0: "a nonnegative integer", 1: "a positive integer"}.get(
            least, f"an integer >= {least}")
        ceiling = "" if most is None else f" no larger than {most:,}"
        raise DomainError(f"{what} must be {kind}{ceiling}, got {n!r}")
    return int(n)


def delay_target(epsilon) -> float:
    """epsilon as a float, if it lies in (0, 1) as a target delay
    probability must, and is no smaller than sys.float_info.min: below that
    the routes return C as 0.0 and cannot tell such targets apart."""
    if not (0.0 < epsilon < 1.0):
        raise DomainError(f"target must lie in (0, 1), got epsilon={epsilon}")
    if epsilon < sys.float_info.min:
        raise DomainError(f"target must be at least sys.float_info.min = "
                          f"{sys.float_info.min!r}, got epsilon={epsilon}")
    return float(epsilon)


def increasing(grid, what: str) -> tuple:
    """grid as a tuple, if its points rise strictly (a nan fails); they keep
    their types, for the entry each point goes to checks it."""
    points = tuple(grid)
    for u, v in zip(points, points[1:]):
        if not v > u:
            raise DomainError(f"{what} must be strictly increasing, got {u} before {v}")
    return points


def work_ceiling(steps, loop: str) -> None:
    """DomainError, before it starts, for a loop of more than MAX_STEPS steps."""
    if steps > MAX_STEPS:
        raise DomainError(f"{loop} would take more than its ceiling of {MAX_STEPS:,} steps; "
                          f"erlang_c_gamma takes C(s, a) at any load")
