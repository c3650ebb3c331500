"""Erlang B/C delay probabilities for integer and real server counts.

Three independent evaluation routes are exposed and cross-validated:

* ``erlang_c_integer`` -- the classical stable Erlang-B recurrence followed
  by the B-to-C conversion (integer servers only);
* ``erlang_c_real`` -- trapezoid quadrature of the continuous-server
  integral 1/C(s,a) = integral_0^inf a*t*(1+t)**(s-1)*e**(-a*t) dt, taken
  in the Halfin-Whitt variable z = sqrt(a)*t, and in log t at the nodes
  where t overflows (tiny loads);
* ``erlang_c_gamma`` -- the closed form obtained from that integral by
  parts, 1/C(s,a) = 1 + (s-a) * e**a * a**(-s) * Gamma(s) * Q(s,a), taken
  in Temme's normalized variables at every s, with its own kernel here:
  Gamma*(s), and Q from Temme's uniform expansion or the lower-gamma
  series, whichever _upper_gamma picks. Both sweeps and both staffing
  inversions take it from the slack itself, through the private _gamma,
  as erlang_c_slack takes the quadrature.

Each result carries an error bound, and the routes agree within them. On
the staffed curves s = a + beta*sqrt(a), at any load, the quadrature's is
about 1.5e-14 relative and the gamma route's at most 2e-14; the
recurrence's grows with its steps, about 3*eps*(sqrt(pi*a/2) + n - a), to
1.8e-11 at a = 1e8.
"""

from __future__ import annotations

import enum
import math
import sys
from typing import NamedTuple

from .errors import DomainError, NumericalError, count, finite_real, positive_finite, work_ceiling
from .numerics import _EPS, _LOG_MAX, _PEAK_OVERFLOW_NATS, _trapezoid, log1pmx

__all__ = [
    "Method",
    "DelayProbability",
    "erlang_b_integer",
    "erlang_c_integer",
    "erlang_c_real",
    "erlang_c_slack",
    "erlang_c_gamma",
]

# Rounding allowances, in ulps of the size of the terms that set each
# route's exponent (see erlang_c_real and erlang_c_gamma).
_EXPONENT_ULPS = 8.0
_GAMMA_ULPS = 16.0
# The gamma route forms e**(s*eta**2/2) itself up to here; past it, in logs.
_TEMME_LINEAR_MAX = 700.0
# Where the quadrature's peak overflows, d or a is past 1e154. A slack of
# more than this many sqrt(a) then puts the integrand's exponent at x = d/a,
# a*((1 + x)*log1p(x) - x) less log1p(x), above 3e5 (it is at least
# d**2/(3a) for d <= a and 0.38d for d > a): 1/C overflows.
_SLACK_SQRTS_UNDERFLOW = 1e3

# erlang_b_integer starts K = _WARM_START_SQRTS multiples of sqrt(a) below
# min(n, a); its docstring derives the value.
_WARM_START_SQRTS = 10


class Method(enum.Enum):
    INTEGER_RECURRENCE = "recurrence"
    QUADRATURE = "quadrature"
    GAMMA_CLOSED_FORM = "gamma"


class DelayProbability(NamedTuple):
    """A waiting probability, the method that produced it, its absolute
    error bound, and the work it cost: integrand evaluations for the
    quadrature, lower-gamma series terms for the gamma route (0 on
    Temme's path), none counted for the recurrence."""

    value: float
    method: Method
    error_bound: float
    evaluations: int = 0


def _check_stable(s: float, a: float):
    a = positive_finite(a, "offered load", "a")
    s = finite_real(s, "server count", "s")
    if a >= s:
        raise DomainError(f"delay probability requires 0 < a < s (stability), got a={a}, s={s}")
    return s, a


def erlang_b_integer(n: int, a: float) -> float:
    """Blocking probability B(n, a) by the stable recurrence.

    B(0,a) = 1;  B(k,a) = a*B(k-1,a) / (k + a*B(k-1,a)).

    Only the last few multiples of sqrt(a) below min(n, a) matter, so the
    recurrence starts at k0 = max(0, floor(min(n, a) - K*sqrt(a))) from
    B(k0, a) ~ 1 - k0/a (exactly B(0, a) = 1 when k0 = 0, which is every
    a <= K**2) and takes at most K*sqrt(a) + max(0, n - a) steps.

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

    B leaves the normal range about 38*sqrt(a) above the load; the first b
    below sys.float_info.min returns 0.0, an absolute error below 2.3e-308.
    Above the load a step multiplies b by less than 1/(1 + (k - floor(a) - 1)/a),
    so by Bennett's bound on (1 + u)*log1p(u) - u it has left by k = a + 2 + J,
    J = c/3 + sqrt(c**2/9 + 2*a*c), c = 709. From errors.MAX_STEPS (1e7 steps of
    min(n, a + 2 + J) - k0, near a = 8e11 on the staffed curves), DomainError.
    """
    n = count(n, "server count", 0, floats=True)
    a = positive_finite(a, "offered load", "a")
    k0 = max(0, math.floor(min(n, a) - _WARM_START_SQRTS * math.sqrt(a)))
    c = 709.0  # -log(sys.float_info.min), 708.4, rounded up: B leaves the normal range
    work_ceiling(min(n, a + 2.0 + c / 3.0 + math.sqrt(c * c / 9.0 + 2.0 * a * c)) - k0,
                 "the Erlang-B recurrence")
    b = 1.0 - k0 / a
    tiny = sys.float_info.min
    for k in range(k0 + 1, n + 1):
        ab = a * b
        b = ab / (k + ab)
        if b < tiny:
            return 0.0
    return b


def erlang_c_integer(n: int, a: float) -> DelayProbability:
    """Waiting probability C(n, a) for integer servers via the B recurrence:
    C = b/D, D = 1 - rho*(1 - b), rho = a/n, b = erlang_b_integer(n, a).

    Relative error bound: step k, b <- a*b/(k + a*b), rounds three times
    (1.5*eps) and passes on the relative error of the b before it times
    k/(k + a*b) = 1 - B(k, a). That is below 1, and below the load at most
    k/a, since B(k - 1, a) >= 1 - (k - 1)/a (see erlang_b_integer). So the
    error made m steps before the last step k <= a is damped by
    prod_(i<m) (1 - i/a) <= exp(-m*(m - 1)/(2a)), and these weights sum
    over m to at most 2 + integral_0^inf exp(-x**2/(2a)) dx =
    2 + sqrt(pi*a/2): the warm start's 10*sqrt(a) steps count as about
    sqrt(pi*a/2). Each of the at most n - a + 1 steps above the load
    counts once, and one more covers the warm start's own error, damped
    below an ulp. So b is within beta = 1.5*eps*L, with
    L = min(n, sqrt(pi*a/2) + 4 + n - a); D, which cancels just above the
    load, within beta + 1.5*eps*(1 - D)/D + eps/2; C within
    2*beta + 1.5*eps/D + eps. Where b underflows to 0.0, C is below
    sys.float_info.min/(1 - rho), which the bound adds. DomainError at once
    past n = 2**53 (n + 1 rounds to n) or the recurrence's ceiling.
    """
    n = count(n, "server count", 1, 2**53, floats=True)
    _, a = _check_stable(n, a)
    b = erlang_b_integer(n, a)
    rho = a / n
    denominator = 1.0 - rho * (1.0 - b)
    value = b / denominator
    steps = min(n, math.sqrt(0.5 * math.pi * a) + 4.0 + (n - a))
    bound = value * _EPS * (3.0 * steps + 1.5 / denominator + 1.0)
    bound += sys.float_info.min / (1.0 - rho)  # C's ceiling where b underflows to 0
    return DelayProbability(value, Method.INTEGER_RECURRENCE, bound)


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
    width. numerics._trapezoid centres its exp-sinh map on that peak,
    scales it by that width and applies it itself, with one call per node
    into the integrand's log in w. At a node where x = e**w/sqrt(a)
    overflows, which takes (s - a + 1)/a past about 3.5e306, the exponent
    is taken in log x instead: log1p(x) = log x = w - log sqrt(a), and
    a*log1pmx(x) = a*log x - e**w*sqrt(a). The reading at the peak follows
    the same rule.

    The error bound is the gap between the last two trapezoid sums, but
    never below the rounding of the exponent: 1e-14 plus a few ulps of
    the size of its two terms at the peak, and a few ulps of its 2*log z
    term, which is larger only at tiny loads (log z near 350 at the peak,
    and the two terms small where s - a is near 1). When 1/C overflows, C
    is returned as 0 with bound 0; far past overflow, without a
    quadrature.
    """
    s, a = _check_stable(s, a)
    return _quadrature(s - a, a)


def erlang_c_slack(d: float, a: float) -> DelayProbability:
    """C(a + d, a) for a slack d > 0, by the quadrature of erlang_c_real.

    The slack reaches the integrand as given instead of through a rounded
    s = a + d. That matters on the square-root-staffed curve at large
    loads: at a = 1e15 rounding s moves beta by up to 2e-9, and C with it
    by more than C(a + beta*sqrt(a), a) falls per half decade of a when
    beta is small. real_staffing_level's certificate calls it once, at the
    gamma route's root, and holds the two routes to their summed bounds
    there.
    """
    return _quadrature(positive_finite(d, "slack", "d"), positive_finite(a, "offered load", "a"))


def _peak(d: float, a: float):
    """(z, width) at the peak of 1/C(a + d, a)'s integrand in log z; z = inf: C underflows."""
    r = math.sqrt(a)
    d1 = d - 1.0
    try:
        z_peak = (d + 1.0 + math.sqrt((d + 1.0) ** 2 + 8.0 * a)) / (2.0 * r)
    except OverflowError:
        z_peak = math.inf
    if z_peak == math.inf:  # (d + 1)**2 + 8a overflowed, from a ~ 2e307
        u = (d + 1.0) / r
        if u > _SLACK_SQRTS_UNDERFLOW:  # 1/C overflows: C underflows
            return math.inf, 0.0
        z_peak = (u + math.sqrt(u * u + 8.0)) / 2.0
    # the factor 1 - (a + d1)/(r + z_peak)**2 of the second derivative;
    # near 0 (large loads) it is taken with r**2 and a cancelled by hand
    try:
        curvature = 1.0 - (a + d1) / (r + z_peak) ** 2
    except OverflowError:  # z_peak past 1.3e154: a tiny, or d huge against it
        curvature = 1.0 - (a + d1) / (r + z_peak) / (r + z_peak)
    if curvature < 1e-3:
        curvature = (2.0 * r * z_peak + z_peak**2 - d1) / (r + z_peak) ** 2
    return z_peak, 1.0 / math.sqrt(r * z_peak * curvature)


def _quadrature(d: float, a: float) -> DelayProbability:
    z_peak, width = _peak(d, a)
    if z_peak == math.inf:  # C underflows
        return DelayProbability(0.0, Method.QUADRATURE, 0.0)
    r = math.sqrt(a)
    inv_r = 1.0 / r
    d1 = d - 1.0
    # the exponent's two terms at the peak size its rounding in the bound,
    # and with log(z_peak**2 * width) give log(1/C) to a few nats
    centre, log_width = math.log(z_peak), math.log(width)
    log_r = math.log(r)
    x_peak = z_peak * inv_r
    if x_peak < math.inf:
        peak_a, peak_d = a * log1pmx(x_peak), d1 * math.log1p(x_peak)
    else:  # x overflows: log1p(x) = log x, taken as log z - log sqrt(a)
        log1p_peak = centre - log_r
        peak_a, peak_d = a * log1p_peak - z_peak * r, d1 * log1p_peak
    log_inv_c = 2.0 * centre + peak_a + peak_d + log_width
    if log_inv_c > _LOG_MAX + _PEAK_OVERFLOW_NATS:
        return DelayProbability(0.0, Method.QUADRATURE, 0.0)

    exp, log1p, inf = math.exp, math.log1p, math.inf

    def log_mass(w: float) -> float:
        # z * e**exponent * dz/dw at z = e**w; where x overflows, in log x
        # (_trapezoid takes no node past w = _LOG_MAX, where z overflows)
        z = exp(w)
        x = z * inv_r
        if x <= 0.25:
            return 2.0 * w + a * log1pmx(x) + d1 * log1p(x)
        if x < inf:  # log1pmx(x) is log1p(x) - x here: one log1p serves both
            log1p_x = log1p(x)
            return 2.0 * w + a * (log1p_x - x) + d1 * log1p_x
        log1p_x = w - log_r
        return 2.0 * w + (a * log1p_x - z * r) + d1 * log1p_x

    shift, total, err, evaluations = _trapezoid(log_mass, centre, width)
    if shift + math.log(total) > _LOG_MAX:  # 1/C overflows: C underflows
        return DelayProbability(0.0, Method.QUADRATURE, 0.0, evaluations)
    value = 1.0 / (total * math.exp(shift))
    exponent_size = abs(peak_a) + abs(peak_d)
    rel_bound = max(err / total, 1e-14 + _EXPONENT_ULPS * _EPS * exponent_size,
                    _EXPONENT_ULPS * _EPS * 2.0 * abs(centre))
    return DelayProbability(value, Method.QUADRATURE, value * rel_bound, evaluations)


_GAMMA_MAX_ITER = 10_000
_GAMMA_EPS = 1e-16

# Temme's uniform expansion serves s >= _TEMME_MIN_S with |eta| <= 0.3,
# that is eta**2/2 <= _TEMME_MAX_HALF_ETA2.
_TEMME_MIN_S = 1000.0
_TEMME_MAX_HALF_ETA2 = 0.045
# Taylor coefficients in eta of Temme's c_0 .. c_3, lowest degree first,
# as tests/temme_coefficients.py derives them in exact rationals (c_k(0) =
# -1/3, -1/540, 25/6048, 101/155520). Each is cut where its dropped terms,
# at |eta| = 0.3 and s = 1000, sum below 2**-66.
_TEMME_C = (
    (-0.3333333333333333, 0.08333333333333333, -0.014814814814814815,
     0.0011574074074074073, 0.0003527336860670194, -0.0001787551440329218,
     3.919263178522438e-05, -2.185448510679992e-06, -1.85406221071516e-06,
     8.296711340953087e-07, -1.7665952736826078e-07, 6.707853543401498e-09,
     1.0261809784240309e-08, -4.382036018453353e-09, 9.14769958223679e-10,
     -2.5514193994946248e-11, -5.830772132550426e-11, 2.4361948020667415e-11),
    (-0.001851851851851852, -0.003472222222222222, 0.0026455026455026454,
     -0.0009902263374485596, 0.00020576131687242798, -4.018775720164609e-07,
     -1.8098550334489977e-05, 7.64916091608111e-06, -1.6120900894563446e-06,
     4.647127802807434e-09, 1.378633446915721e-07, -5.752545603517705e-08,
     1.1951628599778148e-08, -1.7543241719747647e-11, -1.0091543710600413e-09),
    (0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049,
     2.0093878600823047e-06, -0.0001073665322636516, 5.2923448829120125e-05,
     -1.2760635188618728e-05, 3.423578734096138e-08, 1.3721957309062934e-06,
     -6.298992138380055e-07, 1.4280614206064242e-07),
    (0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557,
     0.00026772063206283885, -7.561801671883977e-05, -2.396505113867297e-07,
     1.1082654115347302e-05, -5.6749528269915965e-06, 1.4230900732435883e-06),
)
# c_3 .. c_0 for Horner's rule, as (top coefficient, the rest downwards)
_TEMME_HORNER = tuple((row[-1], row[-2::-1]) for row in reversed(_TEMME_C))
# |c_4(eta)| <= this for |eta| <= 0.3 (tests/temme_coefficients.py): the
# first term the expansion omits.
_TEMME_C4_MAX = 0.0011246989202084807
_SQRT_2PI = 2.5066282746310002  # sqrt(2*pi)


def _gamma_star(s: float) -> float:
    """Gamma*(s) = Gamma(s) / (sqrt(2*pi/s) * s**s * e**-s) for s > 0, within
    5 eps (relative) from s = 1e-320 to 1e6: from s = 10, Stirling's series
    to s**-13 (its first omitted term is below 3e-17 there); below,
    sqrt(s)*Gamma(s), as Gamma(1 + s)/sqrt(s) under s = 1 (no overflow).
    """
    if s >= 10.0:
        inv_s = 1.0 / s
        t = inv_s * inv_s
        head = math.exp(inv_s * (1.0 / 12.0 - t / 360.0))
        if s > 400.0:  # the rest is below eps/2 from s ~ 382: its exp is 1.0
            return head
        tail = 1 / 1260 - t * (1 / 1680 - t * (1 / 1188 - t * (691 / 360360 - t / 156)))
        return head * math.exp(inv_s * t * t * tail)
    root = math.gamma(s) * math.sqrt(s) if s >= 1.0 else math.gamma(1.0 + s) / math.sqrt(s)
    return root * math.exp(s) / (s**s * _SQRT_2PI)


def _half_eta2(s: float, x: float, d: float):
    """(eta**2/2, s*eta**2/2) at x = s - d, eta**2/2 = x/s - 1 - log(x/s),
    with d as the caller holds it. For |d| < s/2, eta**2/2 = -log1pmx(-d/s);
    about (d/s)**2/2, it leaves the normal range and its digits from
    s ~ 1e300 on the staffed curves, so below 1e-300 s*eta**2/2 is taken as
    d*(d/s)/2, good to a relative 2d/(3s). Elsewhere 1 - d/s would lose the
    digits of x/s: eta**2/2 reads inf, past Temme's range, and s*eta**2/2 is
    -(s*log(x/s) + d). Below the normal range x/s keeps fewer digits (one at
    5e-324, where a subnormal load put C 9e-7 off), and then underflows:
    there log(x/s) is log x - log s.
    """
    if -0.5 * s < d < 0.5 * s:
        half_eta2 = -log1pmx(-d / s)
        return half_eta2, s * half_eta2 if half_eta2 > 1e-300 else 0.5 * d * (d / s)
    ratio = x / s
    log_ratio = math.log(ratio) if ratio >= sys.float_info.min else math.log(x) - math.log(s)
    return math.inf, -(s * log_ratio + d)


def _upper_gamma(s: float, x: float, d: float):
    """(s*eta**2/2, Q(s, x), rel, Gamma*(s), terms) for 0 < x < s, the gamma
    route's x = a, with d = s - x as the caller holds it: a slack given
    apart from a rounded s is more exact than s - x. s*eta**2/2 comes from
    _half_eta2; rel bounds Q's relative error beyond the prefactor's
    rounding.

    For s >= 1000 and |eta| <= 0.3, Temme's uniform expansion (SIAM J.
    Math. Anal. 10, 1979; DLMF 8.12), with sign(eta) = -sign(d):
    Q = erfc(eta*sqrt(s/2))/2 + e**(-s*eta**2/2) * sum_k c_k(eta) s**-k
    / sqrt(2*pi*s), which holds Q apart from e**(s*eta**2/2), as that
    overflows once s*eta**2/2 passes about 700. The sum keeps c_0..c_3;
    rel is twice the first omitted term, |c_4| s**-4 / sqrt(2*pi*s)
    (below 1.5e-17 at s = 1000), over Q >= 1/2; terms = 0.

    Elsewhere the lower-gamma series, stopped at 10 000 terms
    (NumericalError), against the prefactor in the normalized form of
    DiDonato & Morris (ACM TOMS 12, 1986) and Gil, Segura & Temme (SIAM J.
    Sci. Comput. 34, 2012): x**s e**-x / Gamma(s) = e**-(s*eta**2/2) /
    (sqrt(2*pi/s) * Gamma*(s)). For its n terms after the first (terms =
    n), rel is (n + 4)*eps*P/Q, n ulps for its terms and partial sums and 4
    for the prefactor where P/Q passes 1 (s*eta**2/2 is small there), with
    Q floored at half that error (1 - P rounds to 0 below s ~ 1e-12).
    Below s ~ 5.6e-309 its first term 1/s overflows: NumericalError at
    once, with no term taken.
    """
    gamma_star = _gamma_star(s)
    half_eta2, half_s_eta2 = _half_eta2(s, x, d)
    if s >= _TEMME_MIN_S and half_eta2 <= _TEMME_MAX_HALF_ETA2:
        eta = math.sqrt(2.0 * half_eta2)
        root = math.sqrt(half_s_eta2)  # |eta|*sqrt(s/2)
        if d > 0.0:
            eta, root = -eta, -root
        inv_s = 1.0 / s
        series = 0.0
        for c, row in _TEMME_HORNER:
            for coefficient in row:
                c = c * eta + coefficient
            series = series * inv_s + c
        q = 0.5 * math.erfc(root) + math.exp(-half_s_eta2) * series / (_SQRT_2PI * math.sqrt(s))
        return (half_s_eta2, q, 4.0 * _TEMME_C4_MAX * inv_s**4 / math.sqrt(2.0 * math.pi * s),
                gamma_star, 0)
    term = 1.0 / s
    if term == math.inf:
        raise NumericalError(f"lower-gamma series: 1/s overflows for s={s}", iterations=0)
    # sqrt(s/(2*pi)), whose s/(2*pi) is subnormal below s ~ 1.4e-307
    root = math.sqrt(s / (2.0 * math.pi)) if s > 1e-300 else math.sqrt(s) / _SQRT_2PI
    prefactor = math.exp(-half_s_eta2) * root / gamma_star

    total = term
    denom = s
    for n in range(1, _GAMMA_MAX_ITER + 1):
        denom += 1.0
        term *= x / denom
        total += term
        if term < total * _GAMMA_EPS:  # both positive: s > 0, x > 0
            p = prefactor * total
            q = max(1.0 - p, 0.5 * (n + 4) * _EPS * p)
            return half_s_eta2, q, (n + 4) * _EPS * p / q, gamma_star, n
    raise NumericalError(
        f"lower-gamma series failed to converge for s={s}, x={x}",
        iterations=_GAMMA_MAX_ITER,
    )


def erlang_c_gamma(s: float, a: float) -> DelayProbability:
    """Waiting probability C(s, a) via the incomplete-gamma closed form.

    Integrating the defining integral by parts against
    d/dt[(1+t)**a e**(-a t)] = -a t (1+t)**(a-1) e**(-a t) gives
    1/C(s,a) = 1 + (s-a) * e**a * a**(-s) * Gamma(s) * Q(s,a), taken in
    Temme's normalized variables at every s: with d = s - a,
    1/C = 1 + E,  E = d*sqrt(2*pi/s) * Gamma*(s) * e**(s*eta**2/2) * Q(s, a),
    where s*eta**2/2 = -s*log1pmx(-d/s), Gamma*(s) and Q come from _upper_gamma.
    No term of size a or s*log(a) cancels: on the staffed curves
    s*eta**2/2 is about beta**2/2. Past 700 E is taken in logs, C = 1/E.

    Error bound: dC = -C*(1 - C)*dE/E. E's relative error is the
    prefactor's share, _GAMMA_ULPS*eps*(1 + s*eta**2/2): 9 ulps of
    s*eta**2/2's size (log1pmx's direct difference near |d/s| = 0.27 loses
    3 bits, d/s rounds once), Gamma*(s) and the products 4 (7 below s = 10),
    Q on Temme's path 8 (erfc, its rounded argument, the sum), exp, log and
    the rest 2 (in logs the sums add 3 ulps of s*eta**2/2); plus Q's own
    rel from _upper_gamma. The bound is C*((1 - C)*rel_E + 2*eps), the
    last term the final addition and division: at most 2e-14 relative on
    the staffed curves for betas 0.1 to 3, at any load.

    Reach: every s > a > 0 with s >= 5.6e-309, where 1/s is finite (below,
    NumericalError at once); the series ends within a few hundred terms, none
    above the switch (s >= 1000, a above about 0.73s), and evaluations
    counts them.
    """
    s, a = _check_stable(s, a)
    return _gamma(s, s - a, a)


def _gamma(s: float, d: float, a: float) -> DelayProbability:
    """C(a + d, a) by erlang_c_gamma's assembly at s = a + d, with the slack
    d as the caller holds it rather than s - a. The sweeps pass beta*sqrt(x)
    itself, as erlang_c_slack takes it: rounding s moves s - a off the
    slack by up to half an ulp of s, at a = 1e15 and beta = 0.1 a relative
    2e-8, and C with it by 1.4e-9, a million times its bound.
    The slack enters the prefactor and, as d/s, eta; elsewhere the rounding
    of s costs about an ulp."""
    half_s_eta2, q, rel_q, gamma_star, terms = _upper_gamma(s, a, d)
    # sqrt(2*pi/s), whose 2*pi/s overflows below s ~ 3.5e-308
    root = math.sqrt(math.tau * (1.0 / s)) if s > 1e-300 else math.sqrt(math.tau) / math.sqrt(s)
    prefactor = d * root * gamma_star
    if half_s_eta2 < _TEMME_LINEAR_MAX:
        value = 1.0 / (1.0 + prefactor * math.exp(half_s_eta2) * q)
    else:  # 1 + E is E: C = 1/E, taken in logs
        value = math.exp(-(math.log(prefactor) + half_s_eta2 + math.log(q)))
    rel_e = _GAMMA_ULPS * _EPS * (1.0 + half_s_eta2) + rel_q
    return DelayProbability(value, Method.GAMMA_CLOSED_FORM,
                            value * ((1.0 - value) * rel_e + 2.0 * _EPS), terms)
