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
from typing import NamedTuple, Sequence

from .errors import DomainError, count, increasing, positive_finite
from .numerics import _EPS, _LOG_MAX, bisect_monotone, integrate_semi_infinite, log1pmx

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

# Combined absolute tolerance when asserting tail dominance: strict
# inequality cannot be resolved at float-equality scale.
_ORDER_TOL = 1e-13


class OrderReport(NamedTuple):
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
    a = positive_finite(a, "load parameter", "a")
    if not 0.0 <= t <= sys.float_info.max:
        raise DomainError(f"t must be finite and >= 0, got {t}")
    return math.exp(_log_density_x(float(t), a))


def cdf_x(x: float, a: float) -> float:
    """Distribution function of X_a: 1 - (1 + x)**a e**(-a x).

    The closed form is the antiderivative identity that makes g a density;
    its derivative reproduces density_g (checked by finite differences in
    the test suite).
    """
    a = positive_finite(a, "load parameter", "a")
    if not x >= 0.0:
        raise DomainError(f"x must be >= 0, got {x}")
    if x > sys.float_info.max:  # inf, or an integer past the double range
        return 1.0
    return -math.expm1(_log_survival_x(float(x), a))


def density_y(y: float, a: float) -> float:
    """Density of Y_a: g(x, a) * dx/dy at x = y**(1/sqrt(a)) - 1, where
    dx/dy = (1 + x)/(sqrt(a)*y), in log space. math.log takes y as given,
    also an integer past the double range."""
    a = positive_finite(a, "load parameter", "a")
    if not (y > 1.0):
        raise DomainError(f"density_y requires y > 1, got {y}")
    u = math.log(y) / math.sqrt(a)
    if u > _LOG_MAX:  # y = inf, or x = e**u - 1 overflows: the density underflows, as the tail
        return 0.0
    x = math.expm1(u)
    return math.exp(_log_density_x(x, a) + math.log1p(x) - 0.5 * math.log(a) - math.log(y))


def tail_y(y: float, a: float) -> float:
    """Survival function Pr{Y_a > y} = y**sqrt(a) e**(-a (y**(1/sqrt(a)) - 1)).

    Defined for y >= 1; the boundary y = 1 carries the full mass and
    returns exactly 1. As in density_y, y is not converted to a double.
    """
    a = positive_finite(a, "load parameter", "a")
    if not y >= 1.0:
        raise DomainError(f"tail_y requires y >= 1, got {y}")
    if y == 1.0:
        return 1.0
    u = math.log(y) / math.sqrt(a)
    if u > _LOG_MAX:
        # y = inf, or x = e**u - 1 overflows: the tail underflows for every a.
        # The log tail is -a*(e**u - 1 - u), and y >= 1 + 2**-52 gives
        # a >= (2**-52/u)**2, so it is below -e**u/(4e31 u**2) < -1e270
        return 0.0
    return math.exp(_log_survival_x(math.expm1(u), a))


def h(x: float) -> float:
    """The monotone core of the tail rewrite: h(x) = x + x**2 (1 - e**(1/x)).

    Strictly increasing on x > 0 and bounded above by -1/2. Why h' > 0:
    h'(x) = 1 + 2x + e**(1/x)*(1 - 2x) is positive at once for x <= 1/2;
    for x > 1/2 put v = 1/(2x) in (0, 1), so h' = (1 + v - (1 - v)*e**(2v))/v
    > 0 iff 2v < log((1 + v)/(1 - v)) = 2*(v + v**3/3 + ...), which holds.
    For x > 20 the closed form cancels catastrophically and the series
    takes over. Below x ~ 1/710, e**(1/x) overflows; h is
    x + x**2 - e**(1/x + 2 log x), whose first two terms are far below an
    ulp of the last, and -inf once that passes the largest double (below
    x ~ 1/723), where every tail it gives is 0.
    """
    return _h(positive_finite(x, "h's argument", "x"))


def _h(x: float) -> float:
    """h without the check, for a positive finite double x: moment_y's
    integrand calls it at every node, where r/(c*t) always is one."""
    if x > _H_SERIES_SWITCH:
        return _h_series(x, _H_SERIES_TERMS)
    inv_x = 1.0 / x
    if inv_x > _LOG_MAX:
        log_magnitude = inv_x + 2.0 * math.log(x)
        return -math.inf if log_magnitude > _LOG_MAX else -math.exp(log_magnitude)
    return x + x * x * -math.expm1(inv_x)


def h_series(x: float, terms: int) -> float:
    """Truncated series -sum_{n=0}^{terms-1} x**-n / (n+2)!.

    For x >= 1 the omitted tail is positive and below the first omitted
    term, so 30 terms give ~1e-33 truncation error. The sum stops, with
    the bits of all terms, at the first term that leaves it unchanged (they
    fall once n + 3 > 1/x): at most about 950 terms. Below x ~ 1/80,
    x**-n would overflow before they fall, so once it passes 1e300 the
    factorial so far is divided into it: the sum stays within 6e-14
    (relative) of h down to x ~ 1/720, where h passes the largest double.
    """
    return _h_series(positive_finite(x, "h_series's argument", "x"), count(terms, "terms", 1))


def _h_series(x: float, terms: int) -> float:
    """h_series at a positive finite double x and an int terms >= 1, unchecked."""
    inv_x = 1.0 / x
    power = 1.0
    factorial = 2.0  # (n+2)! starting at n = 0
    total = 0.0
    for n in range(terms):
        term = power / factorial
        if total + term == total:
            break
        total += term
        power *= inv_x
        factorial *= n + 3.0
        if power > 1e300:  # fold (n+2)! in before x**-n overflows (only below x ~ 1/80)
            power, factorial = power / factorial, 1.0
    return -total


def tail_y_via_h(y: float, a: float) -> float:
    """Survival of Y_a through the rewrite exp((log y)**2 h(sqrt(a)/log y)).

    Requires y > 1 strictly (the rewrite divides by log y).
    """
    a = positive_finite(a, "load parameter", "a")
    if not (y > 1.0):
        raise DomainError(f"tail_y_via_h requires y > 1, got {y}")
    log_y = math.log(y)
    return math.exp(log_y * log_y * h(math.sqrt(a) / log_y))


def moment_y(a: float, beta: float) -> float:
    """E[Y_a**beta] = 1 + beta * integral_0^inf exp(beta*u + u**2 * h(sqrt(a)/u)) du.

    Y_a's tail, through h as in tail_y_via_h, integrated by parts in
    u = log y. Its reciprocal is C(a + beta*sqrt(a), a), which the Erlang
    routes take from another integral, so the two check each other.

    With r = sqrt(a) the integrand peaks in log u at the root (taken to 1e-6) of
    beta - r*expm1(u/r) + 1/u = 0, whose left side falls in u, from positive
    at min(r, 1/2) to negative at beta + sqrt(beta**2 + 4) (r*expm1(u/r) >= u).
    The width there is 1/sqrt(1 + u**2*e**(u/r)), e**(u/r) = 1 + (beta + 1/u)/r.
    Below a = 1 the mass sits near u = r*log(1/a), clear of the quadrature's
    floor 2**-52 in u/r; and beta*E[log Y_a] <= beta*r*log(3/a**2) (Jensen,
    E[X_a] <= 2/a**2), so the moment is 1.0 once that is below half an ulp.
    Reach: every a > 0 (betas 1e-9 to 30 checked from 5e-324 to 1.8e308).
    """
    a = positive_finite(a, "load parameter", "a")
    beta = positive_finite(beta, "moment_y's beta", "beta")
    r = math.sqrt(a)
    if a <= 1.0 and beta * r * (math.log(3.0) - 2.0 * math.log(a)) < 0.5 * _EPS:
        return 1.0

    def slope(w: float) -> float:  # log(beta + 1/u) - log(r*expm1(u/r)) at u = e**w
        y = math.exp(w) / r
        return math.log(beta + math.exp(-w)) - math.log(r) - y - math.log(-math.expm1(-y))

    top = math.log(beta + math.hypot(beta, 2.0))
    centre = bisect_monotone(slope, math.log(min(r, 0.5)), top, 0.0, 1e-6).value
    u = math.exp(centre)
    width = 1.0 / math.sqrt(1.0 + u * u + u * (beta * u + 1.0) / r)
    c = min(r, 1.0)
    return 1.0 + beta * c * integrate_semi_infinite(
        lambda x: beta * (c * x) + (c * x) ** 2 * _h(r / (c * x)), centre - math.log(c), width)


def check_stochastic_order(
    a_low: float, a_high: float, y_grid: Sequence[float]
) -> OrderReport:
    """First-order dominance check: tail_y(y, a_low) <= tail_y(y, a_high).

    Records every grid point where the low-load tail exceeds the high-load
    tail by more than the combined tolerance, and the largest excess.
    Swapped loads therefore report violations everywhere; equal loads pass
    trivially.
    """
    a_low = positive_finite(a_low, "load parameter", "a_low")
    a_high = positive_finite(a_high, "load parameter", "a_high")
    grid = increasing(y_grid, "y_grid")  # as tail_y takes them, which checks each y >= 1

    violations = []
    worst = -math.inf
    for y in grid:
        lo = tail_y(y, a_low)
        hi = tail_y(y, a_high)
        worst = max(worst, lo - hi)
        if lo > hi + _ORDER_TOL:
            violations.append((y, lo, hi))
    return OrderReport(a_low, a_high, grid, tuple(violations), not violations, worst)
