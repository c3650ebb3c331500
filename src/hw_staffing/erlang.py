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

from .errors import DomainError, delay_target, positive_finite, server_count
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
# Where the quadrature's peak overflows, d or a is past 1e154. A slack of
# more than this many sqrt(a) then puts the integrand's exponent at x = d/a,
# a*((1 + x)*log1p(x) - x) less log1p(x), above 3e5 (it is at least
# d**2/(3a) for d <= a and 0.38d for d > a): 1/C overflows.
_SLACK_SQRTS_UNDERFLOW = 1e3
# C = 0 without a quadrature once log(1/C), read at the peak, passes
# _LOG_MAX by this many nats (the reading is good to a few nats).
_PEAK_OVERFLOW_NATS = 40.0

# erlang_b_integer starts K = _WARM_START_SQRTS multiples of sqrt(a) below
# min(n, a); its docstring derives the value.
_WARM_START_SQRTS = 10

# Accept C(n,a) == epsilon as "meeting" an SLA target epsilon up to this
# relative slack, so exact-boundary targets resolve deterministically.
_TIE_REL_TOL = 1e-12
# real_staffing_level pins s* to this width in s.
_STAFFING_TOL = 1e-9


class Method(enum.Enum):
    INTEGER_RECURRENCE = "recurrence"
    QUADRATURE = "quadrature"
    GAMMA_CLOSED_FORM = "gamma"


@dataclass(frozen=True, slots=True)
class DelayProbability:
    """A waiting probability, the method that produced it, its absolute
    error bound, and the integrand evaluations it cost (quadrature only)."""

    value: float
    method: Method
    error_bound: float
    evaluations: int = 0


def _check_stable(s: float, a: float):
    positive_finite(a, "offered load", "a")
    if not math.isfinite(s):
        raise DomainError(f"server count must be finite, got s={s}")
    if a >= s:
        raise DomainError(
            f"delay probability requires 0 < a < s (stability), got a={a}, s={s}"
        )


def erlang_b_integer(n: int, a: float) -> float:
    """Blocking probability B(n, a) by the stable recurrence.

    B(0,a) = 1;  B(k,a) = a*B(k-1,a) / (k + a*B(k-1,a)).

    Only the last few multiples of sqrt(a) below min(n, a) matter, so the
    recurrence starts at k0 = max(0, floor(min(n, a) - K*sqrt(a))) from
    B(k0, a) ~ 1 - k0/a (exactly B(0, a) = 1 when k0 = 0, which is every
    a <= K**2) and takes at most K*sqrt(a) + max(0, n - a) steps: O(sqrt(a))
    where n is a few multiples of sqrt(a) above the load, as in staffing.

    Why the start does not matter: r_k = 1/B(k, a) obeys
    r_k = 1 + (k/a)*r_(k-1), so a relative error rho in r_(k-1) becomes
    rho*(1 - 1/r_k) <= rho*k/a in r_k. It never grows, and from k0 to
    min(n, a) it is multiplied by prod k/a <= exp(-sum (a - k)/a), at most
    exp(-K**2/2 + 3/2) over the L >= K*sqrt(a) - 1 steps. The start
    overestimates r_k0 (termwise 1/(1 - k0/a) = sum (k0/a)**j against
    r_k0 = sum prod_(i<j) (k0 - i)/a), by a relative 1/K**2 or so where
    the normal approximation holds and by at most sqrt(a)/K in any case.
    K = 10 makes the damping 9e-22, below an ulp even for the crude bound
    at a ~ 1e12 (sqrt(a)/K * 9e-22 ~ 1e-16), so the start leaves no trace:
    against the recurrence from k = 1 the result was the same double on
    every (n, a) checked, with a up to 1e7. A larger K only adds steps.

    Far above the load B falls faster than geometrically and leaves the
    normal range about 38*sqrt(a) above it. Below sys.float_info.min,
    rounding holds B on a few subnormal values over long runs of k (on
    5e-324 until k ~ 2a, where it rounds to 0.0 and stays there). For a
    fixed b the rounded step a*b/(k + a*b) never increases with k, since
    each rounding in it is monotone; so once a step returns b unchanged,
    the steps that still do form one run of k, and _subnormal_tail jumps
    to its end in O(log) steps, with the same double as stepping through
    it. n past the normal range thus costs O(sqrt(a)) steps, not O(a):
    B(1.5e8, 1e8) takes 0.05 s, where stepping every k takes 15 s.
    """
    n = server_count(n, 0)
    positive_finite(a, "offered load", "a")
    k0 = max(0, math.floor(min(n, a) - _WARM_START_SQRTS * math.sqrt(a)))
    b = 1.0 - k0 / a
    tiny = sys.float_info.min
    for k in range(k0 + 1, n + 1):
        b = a * b / (k + a * b)
        if b < tiny:
            return _subnormal_tail(b, k, n, a)
    return b


def _subnormal_tail(b: float, k: int, n: int, a: float) -> float:
    """B(n, a) from b = B(k, a) below the normal range, skipping each run
    of k whose step returns b unchanged (see erlang_b_integer).

    The run is found by doubling the jump and then halving it, so no
    probe lies more than twice the run's length past its end. Once b is
    0.0 every further step returns 0.0, and the loop stops there.
    """
    while k < n and b > 0.0:
        step = a * b / (k + 1 + a * b)
        if step != b:
            b, k = step, k + 1
            continue
        width = 1
        while k + width <= n and a * b / (k + width + a * b) == b:
            k += width
            width *= 2
        while width > 1:
            width //= 2
            if k + width <= n and a * b / (k + width + a * b) == b:
                k += width
    return b


def erlang_c_integer(n: int, a: float) -> DelayProbability:
    """Waiting probability C(n, a) for integer servers via the B recurrence."""
    n = server_count(n, 1)
    _check_stable(float(n), a)
    b = erlang_b_integer(n, a)
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
    returned as 0 with bound 0; far past overflow, without a quadrature.
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
    positive_finite(a, "offered load", "a")
    positive_finite(d, "slack", "d")
    return _quadrature(float(d), float(a))


def _quadrature(d: float, a: float) -> DelayProbability:
    r = math.sqrt(a)
    inv_r = 1.0 / r
    d1 = d - 1.0
    try:
        z_peak = (d + 1.0 + math.sqrt((d + 1.0) ** 2 + 8.0 * a)) / (2.0 * r)
    except OverflowError:
        z_peak = math.inf
    if z_peak == math.inf:  # (d + 1)**2 + 8a overflowed, from a ~ 2e307
        u = (d + 1.0) / r
        if u > _SLACK_SQRTS_UNDERFLOW:  # 1/C overflows: C underflows
            return DelayProbability(0.0, Method.QUADRATURE, 0.0)
        z_peak = (u + math.sqrt(u * u + 8.0)) / 2.0
    # the factor 1 - (a + d1)/(r + z_peak)**2 of the second derivative;
    # near 0 (large loads) it is taken with r**2 and a cancelled by hand
    try:
        curvature = 1.0 - (a + d1) / (r + z_peak) ** 2
    except OverflowError:  # z_peak past 1.3e154: a tiny, or d huge against it
        curvature = 1.0 - (a + d1) / (r + z_peak) / (r + z_peak)
    if curvature < 1e-3:
        curvature = (2.0 * r * z_peak + z_peak**2 - d1) / (r + z_peak) ** 2
    width = 1.0 / math.sqrt(r * z_peak * curvature)
    # the exponent's two terms at the peak size its rounding in the bound,
    # and with log(z_peak**2 * width) give log(1/C) to a few nats
    x_peak = z_peak * inv_r
    peak_a, peak_d = a * log1pmx(x_peak), d1 * math.log1p(x_peak)
    log_inv_c = 2.0 * math.log(z_peak) + peak_a + peak_d + math.log(width)
    if log_inv_c > _LOG_MAX + _PEAK_OVERFLOW_NATS:
        return DelayProbability(0.0, Method.QUADRATURE, 0.0)

    def log_integrand(w: float) -> float:  # z * e**exponent * dz/dw, at z = e**w
        x = math.exp(w) * inv_r
        return 2.0 * w + a * log1pmx(x) + d1 * math.log1p(x)

    shift, total, err, evaluations = integrate_exp_sinh(log_integrand, math.log(z_peak), width)
    if shift + math.log(total) > _LOG_MAX:  # 1/C overflows: C underflows
        return DelayProbability(0.0, Method.QUADRATURE, 0.0, evaluations)
    value = 1.0 / (total * math.exp(shift))
    exponent_size = abs(peak_a) + abs(peak_d)
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
    the target is met. erlang_b_integer reaches B(floor(a), a) in about
    10*sqrt(a) steps, and the answer lies a few multiples of sqrt(a)
    above the load, so a call takes O(sqrt(a)) steps: about 1 ms at
    a = 1e6 and 10 ms at 1e8.
    """
    positive_finite(a, "offered load", "a")
    delay_target(epsilon)

    n = math.floor(a)
    b = erlang_b_integer(n, a)
    while True:
        n += 1
        b = a * b / (n + a * b)
        rho = a / n
        if _meets_target(b / (1.0 - rho * (1.0 - b)), epsilon):
            return n


def real_staffing_level(a: float, epsilon: float) -> float:
    """Continuous staffing level s* = a + d* with C(a + d*, a) = epsilon.

    The root is sought in the slack d = s - a, as erlang_c_slack takes it.
    C falls from C(a, a) = 1 at d = 0, known without a quadrature, to 0,
    so a bracket [0, hi] with hi doubling from max(1, sqrt(a)) holds d*,
    and bisect_monotone's safeguarded Illinois steps pin it to within
    max(_STAFFING_TOL, 2*ulp(a)): 1e-9 in s wherever the doubles near s
    resolve it, and their spacing from a ~ 1e7 up. They solve
    log C = log epsilon, which is close to linear in d over the bracket
    where C itself falls by orders of magnitude; log C reads -inf once C
    underflows to 0. C is computed at most once per d in one call, so the
    solver's evaluation at the bracket's upper end costs nothing; a call
    takes about 10 quadratures.
    """
    positive_finite(a, "offered load", "a")
    delay_target(epsilon)

    @functools.cache
    def log_c(d: float) -> float:
        if d == 0.0:
            return 0.0  # C(a, a) = 1
        value = erlang_c_slack(d, a).value
        return math.log(value) if value > 0.0 else -math.inf

    target = math.log(epsilon)
    hi = max(1.0, math.sqrt(a))
    while log_c(hi) > target:
        hi *= 2.0
    tol = max(_STAFFING_TOL, 2.0 * math.ulp(a))
    return a + bisect_monotone(log_c, 0.0, hi, target, tol).value
