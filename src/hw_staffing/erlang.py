"""Erlang B/C delay probabilities for integer and real server counts.

Three independent evaluation routes are exposed and cross-validated:

* ``erlang_c_integer`` -- the classical stable Erlang-B recurrence followed
  by the B-to-C conversion (integer servers only);
* ``erlang_c_real`` -- trapezoid quadrature of the continuous-server
  integral 1/C(s,a) = integral_0^inf a*t*(1+t)**(s-1)*e**(-a*t) dt, taken
  in the Halfin-Whitt variable z = sqrt(a)*t;
* ``erlang_c_gamma`` -- the closed form obtained from that integral by
  parts, 1/C(s,a) = 1 + (s-a) * e**a * a**(-s) * Gamma(s) * Q(s,a).

All three agree to ~1e-12 on stable inputs; staffing inversions (smallest
integer server count, continuous staffing level) sit on top of them.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass

from .errors import DomainError
from .numerics import bisect_monotone, integrate_exp_sinh, log1pmx, upper_gamma_regularized

__all__ = [
    "Method",
    "DelayProbability",
    "erlang_b_integer",
    "erlang_c_integer",
    "erlang_c_real",
    "erlang_c_slack",
    "erlang_c_gamma",
    "min_servers",
    "real_staffing_level",
]

# Nominal error bound reported by the non-quadrature paths: recurrence and
# closed form carry only accumulated rounding, a few hundred ulps at worst.
_NOMINAL_BOUND = 1e-13

_EPS = 2.0**-52
_LOG_MAX = math.log(sys.float_info.max)
# Rounding allowances, in ulps of the size of the terms that set each
# route's exponent (see erlang_c_real and erlang_c_gamma).
_EXPONENT_ULPS = 8.0
_GAMMA_ULPS = 16.0

# Accept C(n,a) == epsilon as "meeting" an SLA target epsilon up to this
# relative slack, so exact-boundary targets resolve deterministically.
_TIE_REL_TOL = 1e-12
# real_staffing_level pins s* to this width in s.
_STAFFING_TOL = 1e-9


class Method(enum.Enum):
    INTEGER_RECURRENCE = "recurrence"
    QUADRATURE = "quadrature"
    GAMMA_CLOSED_FORM = "gamma"


@dataclass(frozen=True)
class DelayProbability:
    """A waiting probability, the method that produced it, its absolute
    error bound, and the integrand evaluations it cost (quadrature only)."""

    value: float
    method: Method
    error_bound: float
    evaluations: int = 0


def _check_stable(s: float, a: float):
    if not (a > 0.0 and math.isfinite(a)):
        raise DomainError(f"offered load must be positive and finite, got a={a}")
    if not math.isfinite(s):
        raise DomainError(f"server count must be finite, got s={s}")
    if a >= s:
        raise DomainError(
            f"delay probability requires 0 < a < s (stability), got a={a}, s={s}"
        )


def erlang_b_integer(n: int, a: float) -> float:
    """Blocking probability B(n, a) by the stable recurrence.

    B(0,a) = 1;  B(k,a) = a*B(k-1,a) / (k + a*B(k-1,a)).
    """
    if n != int(n) or n < 0:
        raise DomainError(f"server count must be a nonnegative integer, got {n}")
    if not (a > 0.0 and math.isfinite(a)):
        raise DomainError(f"offered load must be positive and finite, got a={a}")
    b = 1.0
    for k in range(1, int(n) + 1):
        b = a * b / (k + a * b)
    return b


def erlang_c_integer(n: int, a: float) -> DelayProbability:
    """Waiting probability C(n, a) for integer servers via the B recurrence."""
    if n != int(n) or n < 1:
        raise DomainError(f"server count must be a positive integer, got {n}")
    _check_stable(float(n), a)
    b = erlang_b_integer(int(n), a)
    rho = a / n
    value = b / (1.0 - rho * (1.0 - b))
    return DelayProbability(value, Method.INTEGER_RECURRENCE, _NOMINAL_BOUND)


def erlang_c_real(s: float, a: float) -> DelayProbability:
    """Waiting probability C(s, a) for real s > a via quadrature.

    The defining integral is written in the Halfin-Whitt variable
    z = sqrt(a)*t, with x = z/sqrt(a):
    1/C = integral_0^inf z * exp(a*log1pmx(x) + (s - a - 1)*log1p(x)) dz.
    For s = a + beta*sqrt(a) both terms of the exponent stay O(1) at any
    load (about -z**2/2 and beta*z), and log1pmx keeps the first free of
    cancellation. In w = log z the integrand z**2 * e**exponent peaks where
    sqrt(a)*z**2 - (s - a + 1)*z - 2*sqrt(a) = 0, and its second
    derivative there, sqrt(a)*z*((s - 1)/(sqrt(a) + z)**2 - 1), sets the
    width; integrate_exp_sinh is centred on that peak and scaled by that
    width.

    The error bound is the gap between the last two trapezoid sums, but
    never below the rounding of the exponent: 1e-14 plus a few ulps of
    the size of its two terms at the peak. When 1/C overflows, C is
    returned as 0 with bound 0.
    """
    _check_stable(s, a)
    return _quadrature(float(s) - float(a), float(a))


def erlang_c_slack(d: float, a: float) -> DelayProbability:
    """C(a + d, a) for a slack d > 0, by the quadrature of erlang_c_real.

    The slack reaches the integrand as given instead of through a rounded
    s = a + d. That matters on the square-root-staffed curve at large
    loads: at a = 1e15 rounding s moves beta by up to 2e-9, and C with it
    by more than C(a + beta*sqrt(a), a) falls per half decade of a when
    beta is small.
    """
    if not (a > 0.0 and math.isfinite(a)):
        raise DomainError(f"offered load must be positive and finite, got a={a}")
    if not (d > 0.0 and math.isfinite(d)):
        raise DomainError(f"slack must be positive and finite, got d={d}")
    return _quadrature(float(d), float(a))


def _quadrature(d: float, a: float) -> DelayProbability:
    r = math.sqrt(a)
    inv_r = 1.0 / r
    d1 = d - 1.0
    z_peak = (d + 1.0 + math.sqrt((d + 1.0) ** 2 + 8.0 * a)) / (2.0 * r)
    # the factor 1 - (a + d1)/(r + z_peak)**2 of the second derivative;
    # near 0 (large loads) it is taken with r**2 and a cancelled by hand
    curvature = 1.0 - (a + d1) / (r + z_peak) ** 2
    if curvature < 1e-3:
        curvature = (2.0 * r * z_peak + z_peak**2 - d1) / (r + z_peak) ** 2
    width = 1.0 / math.sqrt(r * z_peak * curvature)

    def log_integrand(w: float) -> float:  # z * e**exponent * dz/dw, at z = e**w
        x = math.exp(w) * inv_r
        return 2.0 * w + a * log1pmx(x) + d1 * math.log1p(x)

    shift, total, err, evaluations = integrate_exp_sinh(log_integrand, math.log(z_peak), width)
    if shift + math.log(total) > _LOG_MAX:  # 1/C overflows: C underflows
        return DelayProbability(0.0, Method.QUADRATURE, 0.0, evaluations)
    value = 1.0 / (total * math.exp(shift))
    x_peak = z_peak * inv_r
    exponent_size = abs(a * log1pmx(x_peak)) + abs(d1 * math.log1p(x_peak))
    rel_bound = max(err / total, 1e-14 + _EXPONENT_ULPS * _EPS * exponent_size)
    return DelayProbability(value, Method.QUADRATURE, value * rel_bound, evaluations)


def erlang_c_gamma(s: float, a: float) -> DelayProbability:
    """Waiting probability C(s, a) via the incomplete-gamma closed form.

    Integrating the defining integral by parts against
    d/dt[(1+t)**a e**(-a t)] = -a t (1+t)**(a-1) e**(-a t) gives
    1/C(s,a) = 1 + (s-a) * e**a * a**(-s) * Gamma(s) * Q(s,a),
    assembled in log space so s in the hundreds stays in range.

    Error bound: C = 1/(1 + e**L) with
    L = log(s - a) + a - s*log(a) + lgamma(s) + log(Q), and dC/dL =
    -C*(1 - C). Each term of L is rounded to about an ulp of its own size,
    and Q carries the same prefactor s*log(a) - a - lgamma(s) inside, so
    |dL| <= K*eps*(1 + |log(s - a)| + a + s*|log a| + |lgamma(s)|) for a
    modest K; the bound is C*(1 - C)*|dL| plus the final division's
    rounding. On 166 points of the staffed curves s = a + beta*sqrt(a)
    (beta from 0.1 to 3, a from 1e-2 to 2.5e6) the error against a
    40-digit mpmath value stayed below 4 of these eps units; K = 16.
    """
    _check_stable(s, a)
    s = float(s)
    a = float(a)
    q = upper_gamma_regularized(s, a)
    log_a = math.log(a)
    lgamma_s = math.lgamma(s)
    log_term = math.log(s - a) + a - s * log_a + lgamma_s + math.log(q)
    if log_term > 40.0:  # 1 + e**L is e**L beyond double precision
        value = math.exp(-log_term)  # underflows gracefully past e**-745
    else:
        value = 1.0 / (1.0 + math.exp(log_term))
    size = 1.0 + abs(math.log(s - a)) + a + s * abs(log_a) + abs(lgamma_s)
    bound = _EPS * value * (_GAMMA_ULPS * (1.0 - value) * size + 2.0)
    return DelayProbability(value, Method.GAMMA_CLOSED_FORM, bound)


def _meets_target(value: float, epsilon: float) -> bool:
    return value <= epsilon * (1.0 + _TIE_REL_TOL)


def min_servers(a: float, epsilon: float) -> int:
    """Smallest integer n > a with C(n, a) <= epsilon.

    One pass of the Erlang-B recurrence: B(floor(a), a) first, then one
    step per server from the smallest stable count floor(a) + 1 upwards,
    converting each B(n, a) to C(n, a) as erlang_c_integer does, until
    the target is met. The answer lies a few multiples of sqrt(a) above
    the load, so the scan adds little to the recurrence up to floor(a).
    """
    if not (a > 0.0 and math.isfinite(a)):
        raise DomainError(f"offered load must be positive and finite, got a={a}")
    if not (0.0 < epsilon < 1.0):
        raise DomainError(f"target must lie in (0, 1), got epsilon={epsilon}")

    n = math.floor(a)
    b = erlang_b_integer(n, a)
    while True:
        n += 1
        b = a * b / (n + a * b)
        rho = a / n
        if _meets_target(b / (1.0 - rho * (1.0 - b)), epsilon):
            return n


def real_staffing_level(a: float, epsilon: float) -> float:
    """Continuous staffing level s* with C(s*, a) = epsilon.

    C(s, a) decreases from 1 (as s -> a+) to 0, so a doubling bracket
    above the load holds s*, and bisect_monotone's safeguarded Illinois
    steps pin it to within _STAFFING_TOL (1e-9) in s. They solve
    log C = log epsilon, which is close to linear in s over the bracket
    where C itself falls by orders of magnitude; log C reads -inf once C
    underflows to 0. C is computed at most once per s in one call, so the
    solver's first two evaluations, at the bracket's ends, cost nothing.
    """
    if not (a > 0.0 and math.isfinite(a)):
        raise DomainError(f"offered load must be positive and finite, got a={a}")
    if not (0.0 < epsilon < 1.0):
        raise DomainError(f"target must lie in (0, 1), got epsilon={epsilon}")

    @functools.cache
    def c_at(s: float) -> float:
        return erlang_c_real(s, a).value

    lo = a * (1.0 + 1e-12)
    if c_at(lo) <= epsilon:
        return lo  # target met already at the validity boundary
    gap = max(1.0, math.sqrt(a))
    hi = a + gap
    while c_at(hi) > epsilon:
        gap *= 2.0
        hi = a + gap

    def log_c(s: float) -> float:
        value = c_at(s)
        return math.log(value) if value > 0.0 else -math.inf

    root = bisect_monotone(log_c, lo, hi, math.log(epsilon), _STAFFING_TOL)
    return root.value
