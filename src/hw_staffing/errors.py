"""Semantic exception hierarchy shared by all modules.

Domain violations (bad arguments, unstable load points) and numerical
failures (non-convergence, lost brackets) are distinct: callers such as the
CLI map them to different exit codes, and sweeps record them per-row instead
of aborting. server_count, positive_finite and delay_target are the one
check each of a server count, of a positive finite parameter and of a
target delay probability, shared by every module that takes one.
"""

from __future__ import annotations

import numbers
import sys


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


def server_count(n, least: int) -> int:
    """n as an int, if it is an integer of at least `least`; a bool is not.

    Integral floats such as 5.0 pass; inf, nan and 2.5 raise DomainError.
    """
    integral = type(n) is int or (
        not isinstance(n, bool)
        and (isinstance(n, numbers.Integral) or (isinstance(n, float) and n.is_integer()))
    )
    if not integral or n < least:
        kind = "nonnegative" if least == 0 else "positive"
        raise DomainError(f"server count must be a {kind} integer, got {n!r}")
    return int(n)


def positive_finite(x, what: str, symbol: str):
    """x, if it is positive and finite as a double (not nan); what and symbol name it."""
    if not (0.0 < x <= sys.float_info.max):
        raise DomainError(f"{what} must be positive and finite, got {symbol}={x}")
    return x


def delay_target(epsilon):
    """epsilon, if it lies in (0, 1) as a target delay probability must,
    and is no smaller than sys.float_info.min: below that the routes return
    C as 0.0 and cannot tell such targets apart."""
    if not (0.0 < epsilon < 1.0):
        raise DomainError(f"target must lie in (0, 1), got epsilon={epsilon}")
    if epsilon < sys.float_info.min:
        raise DomainError(
            f"target must be at least sys.float_info.min = {sys.float_info.min!r}, "
            f"got epsilon={epsilon}"
        )
    return epsilon
