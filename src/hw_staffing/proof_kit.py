"""Executable forms of the auxiliary random variables behind the
monotonicity of square-root-staffed delay probabilities.

The reciprocal 1/C(a + beta*sqrt(a), a) equals the beta-th moment of
Y_a = (1 + X_a)**sqrt(a), where X_a has density
g(t, a) = a t e**(-a t) (1 + t)**(a - 1) on t >= 0. This module exposes:

* density_g / cdf_x       -- X_a's density and distribution function;
* density_y / tail_y      -- Y_a's density and survival function
                             tail_y(y, a) = y**sqrt(a) * e**(-a(y**(1/sqrt(a)) - 1));
* tail_y_via_h / h        -- the rewrite tail_y = exp((log y)**2 * h(sqrt(a)/log y))
                             with h(x) = x + x**2 (1 - e**(1/x));
* h_series                -- the equivalent series -sum x**-n/(n+2)!;
* moment_y                -- E[Y_a**beta] by quadrature of Y_a's tail through h;
* check_stochastic_order  -- first-order dominance of Y_a in a over a grid.

Every tail/CDF evaluation goes through one shared log-space survival
kernel, so the algebraic identities between them hold to rounding error by
construction rather than by numerical coincidence. It and the density
kernel take a*(log1p(x) - x) from log1pmx, free of cancellation at any load.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, positive_finite
from .numerics import integrate_semi_infinite, log1pmx

__all__ = [
    "OrderReport",
    "density_g",
    "cdf_x",
    "density_y",
    "tail_y",
    "tail_y_via_h",
    "h",
    "h_series",
    "moment_y",
    "check_stochastic_order",
]

# Closed form of h loses ~log10(x) digits to cancellation; past this point
# the series is the accurate path. Both agree to ~1e-14 at the switch.
_H_SERIES_SWITCH = 20.0
_H_SERIES_TERMS = 30

# Largest argument math.exp and math.expm1 take without overflow.
_EXP_MAX_ARG = math.log(sys.float_info.max)

# Combined absolute tolerance when asserting tail dominance: strict
# inequality cannot be resolved at float-equality scale.
_ORDER_TOL = 1e-13


def _check_load(a: float) -> float:
    return positive_finite(float(a), "load parameter", "a")


@dataclass(frozen=True)
class OrderReport:
    """Evidence that Y_{a_high} dominates Y_{a_low} over a tail grid.
    worst_excess is the largest tail_y(y, a_low) - tail_y(y, a_high) on
    the grid (-inf for an empty grid); dominance means it is <= 0 up to
    the tolerance."""

    a_low: float
    a_high: float
    y_grid: tuple[float, ...]
    violations: tuple[tuple[float, float, float], ...]
    passed: bool
    worst_excess: float


def _log_survival_x(x: float, a: float) -> float:
    """log Pr{X_a > x} = a*(log1p(x) - x); the single shared tail kernel."""
    return a * log1pmx(x)


def _log_density_x(t: float, a: float) -> float:
    """log g(t, a) = log(a) + log(t) + a*(log1p(t) - t) - log1p(t), -inf
    for t <= 0. log(a) and log(t) stay apart: a*t may underflow."""
    if t <= 0.0:
        return -math.inf
    return math.log(a) + math.log(t) + a * log1pmx(t) - math.log1p(t)


def density_g(t: float, a: float) -> float:
    """Density of X_a: a t e**(-a t) (1 + t)**(a - 1), in log space."""
    a = _check_load(a)
    t = float(t)
    if t < 0.0 or not math.isfinite(t):
        raise DomainError(f"t must be finite and >= 0, got {t}")
    return math.exp(_log_density_x(t, a))


def cdf_x(x: float, a: float) -> float:
    """Distribution function of X_a: 1 - (1 + x)**a e**(-a x).

    The closed form is the antiderivative identity that makes g a density;
    its derivative reproduces density_g (checked by finite differences in
    the test suite).
    """
    a = _check_load(a)
    x = float(x)
    if x < 0.0 or math.isnan(x):
        raise DomainError(f"x must be >= 0, got {x}")
    if math.isinf(x):
        return 1.0
    return -math.expm1(_log_survival_x(x, a))


def _y_to_x(y: float, a: float) -> float:
    """Inverse change of variables x(y) = y**(1/sqrt(a)) - 1, cancellation-free."""
    return math.expm1(math.log(y) / math.sqrt(a))


def density_y(y: float, a: float) -> float:
    """Density of Y_a: g(x, a) * dx/dy at x = y**(1/sqrt(a)) - 1, where
    dx/dy = (1 + x)/(sqrt(a)*y), in log space."""
    a = _check_load(a)
    y = float(y)
    if not (y > 1.0):
        raise DomainError(f"density_y requires y > 1, got {y}")
    if math.isinf(y):
        return 0.0
    x = _y_to_x(y, a)
    return math.exp(_log_density_x(x, a) + math.log1p(x) - 0.5 * math.log(a) - math.log(y))


def tail_y(y: float, a: float) -> float:
    """Survival function Pr{Y_a > y} = y**sqrt(a) e**(-a (y**(1/sqrt(a)) - 1)).

    Defined for y >= 1; the boundary y = 1 carries the full mass and
    returns exactly 1.
    """
    a = _check_load(a)
    y = float(y)
    if y < 1.0 or math.isnan(y):
        raise DomainError(f"tail_y requires y >= 1, got {y}")
    if y == 1.0:
        return 1.0
    if math.isinf(y):
        return 0.0
    u = math.log(y) / math.sqrt(a)
    if u > _EXP_MAX_ARG:
        # x = e**u - 1 overflows, and the tail underflows for every a: the
        # log tail is -a*(e**u - 1 - u), and y >= 1 + 2**-52 gives
        # a >= (2**-52/u)**2, so it is below -e**u/(4e31 u**2) < -1e270
        return 0.0
    return math.exp(_log_survival_x(math.expm1(u), a))


def h(x: float) -> float:
    """The monotone core of the tail rewrite: h(x) = x + x**2 (1 - e**(1/x)).

    Strictly increasing on x > 0 and bounded above by -1/2. For x > 20 the
    closed form cancels catastrophically and the series takes over. Below
    x ~ 1/710, e**(1/x) overflows; h is x + x**2 - e**(1/x + 2 log x), whose
    first two terms are far below an ulp of the last, and -inf once that
    passes the largest double (below x ~ 1/723), where every tail it gives
    is 0.
    """
    x = positive_finite(float(x), "h's argument", "x")
    if x > _H_SERIES_SWITCH:
        return h_series(x, _H_SERIES_TERMS)
    inv_x = 1.0 / x
    if inv_x > _EXP_MAX_ARG:
        log_magnitude = inv_x + 2.0 * math.log(x)
        return -math.inf if log_magnitude > _EXP_MAX_ARG else -math.exp(log_magnitude)
    return x + x * x * -math.expm1(inv_x)


def h_series(x: float, terms: int) -> float:
    """Truncated series -sum_{n=0}^{terms-1} x**-n / (n+2)!.

    For x >= 1 the omitted tail is positive and below the first omitted
    term, so 30 terms give ~1e-33 truncation error.
    """
    x = positive_finite(float(x), "h_series's argument", "x")
    if terms < 1:
        raise DomainError(f"terms must be >= 1, got {terms}")
    inv_x = 1.0 / x
    power = 1.0
    factorial = 2.0  # (n+2)! starting at n = 0
    total = 0.0
    for n in range(terms):
        total += power / factorial
        power *= inv_x
        factorial *= n + 3.0
    return -total


def tail_y_via_h(y: float, a: float) -> float:
    """Survival of Y_a through the rewrite exp((log y)**2 h(sqrt(a)/log y)).

    Requires y > 1 strictly (the rewrite divides by log y).
    """
    a = _check_load(a)
    y = float(y)
    if not (y > 1.0):
        raise DomainError(f"tail_y_via_h requires y > 1, got {y}")
    log_y = math.log(y)
    return math.exp(log_y * log_y * h(math.sqrt(a) / log_y))


def moment_y(a: float, beta: float) -> float:
    """E[Y_a**beta] = 1 + beta * integral_0^inf exp(beta*u + u**2 * h(sqrt(a)/u)) du.

    Y_a's tail, through h as in tail_y_via_h, integrated by parts in
    u = log y. Its reciprocal is C(a + beta*sqrt(a), a), which the Erlang
    routes take from another integral, so the two check each other.
    """
    a = _check_load(a)
    beta = positive_finite(float(beta), "moment_y's beta", "beta")
    r = math.sqrt(a)
    return 1.0 + beta * integrate_semi_infinite(lambda u: beta * u + u**2 * h(r / u))


def check_stochastic_order(
    a_low: float, a_high: float, y_grid: Sequence[float]
) -> OrderReport:
    """First-order dominance check: tail_y(y, a_low) <= tail_y(y, a_high).

    Records every grid point where the low-load tail exceeds the high-load
    tail by more than the combined tolerance, and the largest excess.
    Swapped loads therefore report violations everywhere; equal loads pass
    trivially.
    """
    a_low = _check_load(a_low)
    a_high = _check_load(a_high)
    grid = tuple(float(y) for y in y_grid)
    if any(y <= 1.0 for y in grid):
        raise DomainError("all grid points must be > 1")
    for u, v in zip(grid, grid[1:]):
        if not (v > u):
            raise DomainError(f"y_grid must be strictly increasing, got {u} before {v}")

    violations = []
    worst = -math.inf
    for y in grid:
        lo = tail_y(y, a_low)
        hi = tail_y(y, a_high)
        worst = max(worst, lo - hi)
        if lo > hi + _ORDER_TOL:
            violations.append((y, lo, hi))
    return OrderReport(a_low, a_high, grid, tuple(violations), not violations, worst)
