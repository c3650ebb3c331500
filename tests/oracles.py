"""Independent oracles used by the test suite.

Exact-rational Erlang recurrences (fractions never round, so these are
ground truth for any rational load), a frozen copy of the simulator's
one-customer-at-a-time loop, frozen copies of the numerical kernels as
they were before their inner loops were tightened (the library must
match them to the bit), plus the frozen high-precision
constants the tests assert against. The frozen values were produced by a
50-digit evaluation of the defining expressions and rounded to the nearest
double once, before the implementation existed; they must never be
regenerated from the code under test. For loads far beyond any exact
recurrence, erlang_c_mpmath evaluates the defining integral itself in
mpmath at 30 digits.
"""

from __future__ import annotations

import functools
import heapq
import math
import sys
from fractions import Fraction


def erlang_b_exact(n: int, a: Fraction) -> Fraction:
    """Blocking probability by the recurrence, in exact rational arithmetic."""
    b = Fraction(1)
    for k in range(1, n + 1):
        b = a * b / (k + a * b)
    return b


def erlang_b_full(n: int, a: float) -> float:
    """B(n, a) by the float recurrence run from B(0, a) = 1 through every k.

    The same steps as erlang_b_integer without its start below the load
    or its stop below the normal range, so the two must agree to the bit
    wherever this value is at least sys.float_info.min.
    """
    b = 1.0
    for k in range(1, n + 1):
        b = a * b / (k + a * b)
    return b


def erlang_b_plain(n: int, a: float) -> float:
    """erlang_b_integer with the step written a*b/(k + a*b), as it was.

    The same warm start and stop rule; the library forms a*b once per
    step, which must not move a bit.
    """
    k0 = max(0, math.floor(min(n, a) - 10 * math.sqrt(a)))
    b = 1.0 - k0 / a
    for k in range(k0 + 1, n + 1):
        b = a * b / (k + a * b)
        if b < sys.float_info.min:
            return 0.0
    return b


def min_servers_plain(a: float, epsilon: float) -> int:
    """min_servers as it was: the plain B step and the tie test per step."""
    n = math.floor(a)
    b = erlang_b_plain(n, a)
    while True:
        n += 1
        b = a * b / (n + a * b)
        rho = a / n
        if b / (1.0 - rho * (1.0 - b)) <= epsilon * (1.0 + 1e-12):
            return n


def trapezoid_visit(log_term):
    """numerics._trapezoid as it was before it took the map: every node of
    a log term in v through a visit() closure, and each tail walked after
    every halving.

    Reads the engine's settings from numerics at call time, so a test that
    patches one patches both. integrate_exp_sinh_visit puts the map on top.
    """
    from hw_staffing import numerics
    from hw_staffing.errors import NumericalError

    h = numerics._FIRST_STEP
    shift = log_term(0.0)
    if not (-math.inf < shift < math.inf):
        raise NumericalError(
            f"log integrand is {shift} at the centre of the quadrature map", iterations=1
        )
    acc = 1.0
    evaluations = 1
    total, error = h, math.inf

    def give_up(why):
        return NumericalError(
            f"quadrature did not reach tolerance: {why} "
            f"({evaluations} integrand evaluations, step {h:g})",
            estimate=numerics._unscale(total, shift),
            error_bound=numerics._unscale(error, shift),
            iterations=evaluations,
        )

    def visit(v):
        nonlocal shift, acc, evaluations
        f = log_term(v)
        evaluations += 1
        if f > shift:
            acc = acc * math.exp(shift - f) + 1.0
            shift = f
        else:
            acc += math.exp(f - shift)
        return f

    def walk(k, step, f):
        while f >= shift - numerics._TRUNCATION_LOG_CUTOFF:
            if evaluations >= numerics._MAX_EVALUATIONS:
                raise give_up("the integrand tail did not decay")
            k += step
            f = visit(k * h)
        return k, f

    right, f_right = walk(0, 1, shift)
    left, f_left = walk(0, -1, shift)
    total = h * acc
    while True:
        if evaluations + right - left > numerics._MAX_EVALUATIONS:
            raise give_up("evaluation cap reached")
        previous, previous_shift = total, shift
        h *= 0.5
        right *= 2
        left *= 2
        for k in range(left + 1, right, 2):
            visit(k * h)
        right, f_right = walk(right, 1, f_right)
        left, f_left = walk(left, -1, f_left)
        total = h * acc
        error = max(abs(total - previous * math.exp(previous_shift - shift)),
                    numerics._SUM_ROUNDING * total)
        if error <= numerics._REL_TOL * total:
            return shift, total, error, evaluations


def integrate_exp_sinh_visit(log_integrand, centre, scale):
    """The exp-sinh map as numerics.integrate_exp_sinh applied it, over
    trapezoid_visit: the map and the log mass in w as two calls per node.
    numerics._trapezoid(log_mass, centre, width) applies the map itself, in
    line at each node, and walks each tail once; for any log mass it must
    return the same (shift, total, error, evaluations), or raise the same
    NumericalError, to the bit."""
    from hw_staffing import numerics

    log_scale = math.log(scale)

    def log_term(v):
        if v < numerics._V_MIN:
            return -math.inf
        ev = math.exp(-v)
        w = centre + scale * (v + 1.0 - ev)
        if w > numerics._LOG_MAX:
            return -math.inf
        return log_integrand(w) + log_scale + math.log1p(ev)

    return trapezoid_visit(log_term)


def erlang_c_slack_visit(d: float, a: float):
    """erlang_c_slack as it was, for 0 < d and 0 < a: the Erlang log
    integrand in w integrated by integrate_exp_sinh_visit.

    Where x = z/sqrt(a) overflows at the peak (a tiny) it raises
    NumericalError after one evaluation, and where x overflows only in the
    right tail it raises after 2 561. Everywhere else the library must
    return the same value and work, or raise the same NumericalError, to
    the bit, and the same error bound except at tiny loads with d between
    about 0.01 and 2, where the library counts the rounding of the
    exponent's 2*log z term.
    """
    from hw_staffing import erlang
    from hw_staffing.erlang import DelayProbability, Method
    from hw_staffing.numerics import _EPS, _LOG_MAX, log1pmx

    r = math.sqrt(a)
    inv_r = 1.0 / r
    d1 = d - 1.0
    try:
        z_peak = (d + 1.0 + math.sqrt((d + 1.0) ** 2 + 8.0 * a)) / (2.0 * r)
    except OverflowError:
        z_peak = math.inf
    if z_peak == math.inf:
        u = (d + 1.0) / r
        if u > erlang._SLACK_SQRTS_UNDERFLOW:
            return DelayProbability(0.0, Method.QUADRATURE, 0.0)
        z_peak = (u + math.sqrt(u * u + 8.0)) / 2.0
    try:
        curvature = 1.0 - (a + d1) / (r + z_peak) ** 2
    except OverflowError:
        curvature = 1.0 - (a + d1) / (r + z_peak) / (r + z_peak)
    if curvature < 1e-3:
        curvature = (2.0 * r * z_peak + z_peak**2 - d1) / (r + z_peak) ** 2
    width = 1.0 / math.sqrt(r * z_peak * curvature)
    x_peak = z_peak * inv_r
    peak_a, peak_d = a * log1pmx(x_peak), d1 * math.log1p(x_peak)
    log_inv_c = 2.0 * math.log(z_peak) + peak_a + peak_d + math.log(width)
    if log_inv_c > _LOG_MAX + erlang._PEAK_OVERFLOW_NATS:
        return DelayProbability(0.0, Method.QUADRATURE, 0.0)

    def log_integrand(w):
        x = math.exp(w) * inv_r
        return 2.0 * w + a * log1pmx(x) + d1 * math.log1p(x)

    shift, total, err, evaluations = integrate_exp_sinh_visit(
        log_integrand, math.log(z_peak), width
    )
    if shift + math.log(total) > _LOG_MAX:
        return DelayProbability(0.0, Method.QUADRATURE, 0.0, evaluations)
    value = 1.0 / (total * math.exp(shift))
    exponent_size = abs(peak_a) + abs(peak_d)
    rel_bound = max(err / total, 1e-14 + erlang._EXPONENT_ULPS * _EPS * exponent_size)
    return DelayProbability(value, Method.QUADRATURE, value * rel_bound, evaluations)


def erlang_c_slack_three_paths(d: float, a: float):
    """erlang_c_slack as it was with three node paths, for 0 < d and 0 < a.

    Where x = z/sqrt(a) is finite at the peak, the map and the exponent in
    one log term per node; where x_peak also passes sys.float_info.max/1024,
    that term wrapped so that a node whose x overflows (its nan) is taken
    in log x; where x overflows at the peak, every node in log x through a
    separate map over the log-x integrand. The library chooses per node,
    so it must match this to the bit wherever x_peak is finite, and take
    the same work where it is not. The engine is integrate_exp_sinh_visit,
    which matches numerics._trapezoid to the bit.
    """
    from hw_staffing import erlang
    from hw_staffing.erlang import DelayProbability, Method
    from hw_staffing.numerics import _EPS, _LOG_MAX, log1pmx

    r = math.sqrt(a)
    inv_r = 1.0 / r
    d1 = d - 1.0
    try:
        z_peak = (d + 1.0 + math.sqrt((d + 1.0) ** 2 + 8.0 * a)) / (2.0 * r)
    except OverflowError:
        z_peak = math.inf
    if z_peak == math.inf:
        u = (d + 1.0) / r
        if u > erlang._SLACK_SQRTS_UNDERFLOW:
            return DelayProbability(0.0, Method.QUADRATURE, 0.0)
        z_peak = (u + math.sqrt(u * u + 8.0)) / 2.0
    try:
        curvature = 1.0 - (a + d1) / (r + z_peak) ** 2
    except OverflowError:
        curvature = 1.0 - (a + d1) / (r + z_peak) / (r + z_peak)
    if curvature < 1e-3:
        curvature = (2.0 * r * z_peak + z_peak**2 - d1) / (r + z_peak) ** 2
    width = 1.0 / math.sqrt(r * z_peak * curvature)
    centre, log_width = math.log(z_peak), math.log(width)
    x_peak = z_peak * inv_r
    if x_peak < math.inf:
        peak_a, peak_d = a * log1pmx(x_peak), d1 * math.log1p(x_peak)
    else:
        log_r = math.log(r)
        log1p_peak = centre - log_r
        peak_a, peak_d = a * log1p_peak - z_peak * r, d1 * log1p_peak
    log_inv_c = 2.0 * centre + peak_a + peak_d + log_width
    if log_inv_c > _LOG_MAX + erlang._PEAK_OVERFLOW_NATS:
        return DelayProbability(0.0, Method.QUADRATURE, 0.0)

    def in_x(w):
        x = math.exp(w) * inv_r
        return 2.0 * w + a * log1pmx(x) + d1 * math.log1p(x)

    def in_log_x(w):
        log1p_x = w - math.log(r)
        return 2.0 * w + (a * log1p_x - math.exp(w) * r) + d1 * log1p_x

    def in_x_else_log_x(w):
        f = in_x(w)
        return f if f == f else in_log_x(w)  # a nan: x overflowed

    if x_peak == math.inf:
        log_integrand = in_log_x
    elif x_peak > sys.float_info.max / 1024.0:
        log_integrand = in_x_else_log_x
    else:
        log_integrand = in_x
    shift, total, err, evaluations = integrate_exp_sinh_visit(log_integrand, centre, width)
    if shift + math.log(total) > _LOG_MAX:
        return DelayProbability(0.0, Method.QUADRATURE, 0.0, evaluations)
    value = 1.0 / (total * math.exp(shift))
    exponent_size = abs(peak_a) + abs(peak_d)
    rel_bound = max(err / total, 1e-14 + erlang._EXPONENT_ULPS * _EPS * exponent_size,
                    erlang._EXPONENT_ULPS * _EPS * 2.0 * abs(centre))
    return DelayProbability(value, Method.QUADRATURE, value * rel_bound, evaluations)


def simulate_mmn_per_arrival(cfg):
    """simulate_mmn as it was with one draw per stream per arrival.

    The start draws K from pi by a linear scan of its running weights, then
    each arrival draws its service time and then the time to the next
    arrival, each by one scalar standard_exponential() call on its PCG64
    stream, tests the batch boundary, makes one heap step and adds the gap
    to the clock; simulate_mmn must return the same SimEstimate to the bit.
    """
    import numpy as np

    from hw_staffing.mmn_oracle import SimEstimate

    batches = 32
    t_crit_31 = 2.0395134463964077

    def exponential_stream(seed_seq, rate):
        gen = np.random.Generator(np.random.PCG64(seed_seq))
        scale = 1.0 / rate
        return lambda: gen.standard_exponential() * scale

    arrivals_stream, services_stream, start_stream = np.random.SeedSequence(cfg.seed).spawn(3)
    draw_interarrival = exponential_stream(arrivals_stream, cfg.lam)
    draw_service = exponential_stream(services_stream, cfg.mu)

    # the stationary start: K from pi, in the same float operations
    n = cfg.n
    a = cfg.lam / cfg.mu
    rho = a / n
    log_weights = [k * math.log(a) - math.lgamma(k + 1.0) for k in range(n + 1)]
    top = max(log_weights)
    weights = [math.exp(w - top) for w in log_weights]
    weights[n] = weights[n] / (1.0 - rho)
    running = []
    total = 0.0
    for w in weights:
        total += w
        running.append(total)
    start = np.random.Generator(np.random.PCG64(start_stream))
    target = start.random() * total
    busy = 0
    while busy < n and running[busy] <= target:
        busy += 1
    queued = 0
    if busy == n:
        queued = math.floor(math.log1p(-start.random()) / math.log(rho))
    scale = 1.0 / cfg.mu
    free = [-math.inf] * (n - busy)
    free += [start.standard_exponential() * scale for _ in range(busy)]
    heapq.heapify(free)
    for _ in range(queued):
        heapq.heapreplace(free, free[0] + start.standard_exponential() * scale)

    boundaries = [(i * cfg.measured_arrivals) // batches for i in range(1, batches + 1)]
    batch_waits = [0] * batches
    batch_sizes = [0] * batches
    time = 0.0  # customer 0 arrives at the start state
    batch = 0
    for index in range(cfg.measured_arrivals):
        earliest = free[0]
        if index >= boundaries[batch]:
            batch += 1
        batch_sizes[batch] += 1
        if earliest >= time:
            batch_waits[batch] += 1
        heapq.heapreplace(free, max(time, earliest) + draw_service())
        time += draw_interarrival()

    p_wait = sum(batch_waits) / cfg.measured_arrivals
    means = [w / size for w, size in zip(batch_waits, batch_sizes)]
    mean_of_means = sum(means) / batches
    variance = sum((m - mean_of_means) ** 2 for m in means) / (batches - 1)
    ci = t_crit_31 * math.sqrt(variance / batches)
    return SimEstimate(p_wait=p_wait, ci_halfwidth=ci, batches=batches)


def erlang_c_exact(n: int, a: Fraction) -> Fraction:
    """Waiting probability from the exact blocking probability."""
    b = erlang_b_exact(n, a)
    rho = Fraction(a, n)
    return b / (1 - rho * (1 - b))


@functools.lru_cache(maxsize=None)
def erlang_c_mpmath(s: float, a: float) -> float:
    """C(s, a) for real s > a from a 30-digit mpmath quadrature.

    Integrates 1/C = integral_0^inf z*exp((s-1)*log1p(z/sqrt(a)) - sqrt(a)*z) dz
    (the defining integral in z = sqrt(a)*t), scaled by z = z_mass*u, where
    z_mass is the peak of the mass z**2 * integrand in log z:
    sqrt(a)*z**2 - (d + 1)*z - 2*sqrt(a) = 0 with d = s - a. The mass lies
    within a few multiples of z_mass: near the integrand's own peak at
    moderate loads, and spread up to z ~ 1/sqrt(a), where e**(-sqrt(a)*z)
    cuts it off, at tiny loads. Breakpoints sit at sqrt(a)/z_mass (where
    (1 + z/sqrt(a))**(s-1) turns over), at u = 1 and a few widths past it,
    so that one layout serves loads from 1e-310 to 1e15, and mpmath's
    infinite tail has a unit scale. s and a may be floats or mpmath
    numbers. Returns the double nearest C.
    """
    from mpmath import mp, mpf

    with mp.workdps(30):
        s_, a_ = mpf(s), mpf(a)
        r = mp.sqrt(a_)
        s1 = s_ - 1
        d = s_ - a_
        z_mass = (d + 1 + mp.sqrt((d + 1) ** 2 + 8 * a_)) / (2 * r)
        # z_mass**2 times minus the log integrand's second derivative there;
        # where it is at most 1 (s <= 1) the width in u is capped at 1
        curvature = 1 + s1 * (z_mass / (r + z_mass)) ** 2
        width = 1 / mp.sqrt(curvature) if curvature > 1 else mpf(1)
        points = [0, 1, 1 + 8 * width, 1 + 30 * width, mp.inf]
        if r < z_mass / 2:
            points.insert(1, r / z_mass)
        log_scale = 2 * mp.log(z_mass)
        inv_c, error = mp.quad(
            lambda u: u * mp.exp(log_scale + s1 * mp.log1p(u * z_mass / r) - r * z_mass * u),
            points, error=True,
        )
        assert error < mpf("1e-25") * inv_c, (s, a, error)
        return float(1 / inv_c)


@functools.lru_cache(maxsize=None)
def erlang_c_gammainc(s: float, a: float) -> float:
    """C(s, a) from the closed form 1/C = 1 + (s - a)*e**a*a**-s*Gamma(s, a)
    with mpmath's gammainc at 60 digits, for a <= 1e6.

    Past that mpmath's hypergeometric series stops converging
    (NoConvergence on the staffed curves from a ~ 3e6),
    so larger loads take erlang_c_mpmath, the 30-digit quadrature of the
    defining integral; where both run they agree to 1e-50.
    """
    from mpmath import mp, mpf

    if a > 1e6:
        return erlang_c_mpmath(s, a)
    with mp.workdps(60):
        s_, a_ = mpf(s), mpf(a)
        return float(1 / (1 + (s_ - a_) * mp.exp(a_) * mp.power(a_, -s_) * mp.gammainc(s_, a_)))


def upper_gamma_mpmath(s: float, x: float):
    """Q(s, x) to 40 digits (an mpf).

    Below s = 1000, and below x = 0.72s (short of Temme's range), this is
    mpmath's gammainc, whose power series converges there within a few
    hundred terms. Elsewhere it is the integral in v = t/s - 1,
    Q = sqrt(s/(2*pi))/Gamma*(s) * integral_(x/s-1)^inf e**(s*log1pmx(v))/(1+v) dv,
    with Gamma*(s) from mpmath's loggamma. The integrand is scaled to 1 at
    its peak (v = 0 for x < s, the lower end otherwise) and the variable to
    the peak's width, so that mpmath's absolute error floor and its unit
    scale at infinity do not matter; it serves every s >= 1000, where
    mpmath's gammainc stops converging from s ~ 1e7. Past x = s + 1 it
    returns 0 without the integral where Q's upper bound
    x**s e**-x / (Gamma(s)*(x + 1 - s)) is below 2**-1100, far below the
    smallest double.
    """
    from mpmath import mp, mpf

    if s < 1000.0 or x < 0.72 * s:
        with mp.workdps(40):
            return mp.gammainc(mpf(s), mpf(x), regularized=True)
    if x >= s + 1.0:
        with mp.workdps(30):
            s_, x_ = mpf(s), mpf(x)
            if s_ * mp.log(x_) - x_ - mp.loggamma(s_) - mp.log(x_ + 1 - s_) < -1100 * mp.log(2):
                return mpf(0)
    # log1p(v) - v cancels about log10(s) digits at v ~ 1/sqrt(s)
    with mp.workdps(40 + int(math.log10(s))):
        s_ = mpf(s)
        v0 = mpf(x) / s_ - 1
        log_gamma_star = mp.loggamma(s_) - (s_ * mp.log(s_) - s_ + mp.log(2 * mp.pi / s_) / 2)
        if v0 < 0:  # peak at v = 0, width 1/sqrt(s); below 60 widths it is under e**-1700
            start, top, scale = mpf(0), mpf(0), 1 / mp.sqrt(s_)
            lower = max(v0 / scale, -60)
            points = [lower] + [u for u in (-40, -10, 0) if u > lower] + [10, 40, mp.inf]
        else:  # falls from v0 at the rate s*v0/(1 + v0)
            start, top = v0, s_ * (mp.log1p(v0) - v0)
            scale = 1 / (s_ * v0 / (1 + v0) + mp.sqrt(s_))
            points = [0, 1, 5, 20, 60, mp.inf]

        def integrand(u):
            v = start + u * scale
            return mp.exp(s_ * (mp.log1p(v) - v) - top) / (1 + v)

        value, error = mp.quad(integrand, points, error=True)
        assert error < mpf("1e-32") * value, (s, x, error)
        return mp.sqrt(s_ / (2 * mp.pi)) * mp.exp(top - log_gamma_star) * value * scale


def erlang_c_direct_sum(n: int, a: Fraction) -> Fraction:
    """Waiting probability straight from the defining normalized sum.

    C = (a**n / (n! (1-rho))) / (sum_{k<n} a**k/k! + a**n/(n! (1-rho))).
    Exact rationals make the naive form safe; this is a second derivation
    sharing nothing with the recurrence route above.
    """
    rho = Fraction(a, n)
    top = a ** n / (_factorial(n) * (1 - rho))
    partial = sum(a ** k / _factorial(k) for k in range(n))
    return top / (partial + top)


def _factorial(k: int) -> Fraction:
    out = Fraction(1)
    for i in range(2, k + 1):
        out *= i
    return out


# 1/sqrt(2*pi) and the standard normal at selected points.
PDF_AT_0 = 0.3989422804014327
PDF_AT_1 = 0.2419707245191433498  # exp(-1/2)/sqrt(2*pi), 20 digits
CDF_AT_1 = 0.8413447460685429

# (x, Phi(x)) pairs spanning |x| <= 8, each correctly rounded to double.
PHI_TABLE = [
    (-8.0, 6.220960574271784e-16),
    (-6.5, 4.016000583859118e-11),
    (-5.0, 2.866515718791939e-07),
    (-4.0, 3.1671241833119924e-05),
    (-3.0, 0.0013498980316300946),
    (-2.0, 0.02275013194817921),
    (-1.0, 0.15865525393145705),
    (-0.5, 0.3085375387259869),
    (-0.25, 0.4012936743170763),
    (0.25, 0.5987063256829237),
    (0.5, 0.6914624612740131),
    (1.0, 0.8413447460685429),
    (1.5, 0.9331927987311419),
    (2.0, 0.9772498680518208),
    (3.0, 0.9986501019683699),
    (4.5, 0.9999966023268753),
    (6.0, 0.9999999990134123),
    (8.0, 0.9999999999999993),
]

# Regularized upper incomplete gamma spot values.
Q_5_5 = 0.4404932850652124
Q_HALF_03 = 0.4385780260809998
Q_250_240 = 0.7323499301459842

# Halfin-Whitt limit values.
HW_LIMIT_1 = 0.22336127479826074025
HW_LIMIT_HALF = 0.504538640997945
HW_LIMIT_2 = 0.026881362429432263
HW_LIMIT_8 = 6.315338854421115e-16
HW_LIMIT_8_ASYMPTOTIC = 6.315338854421119e-16  # phi(8)/(8*Phi(8))

# Continuous-server delay probabilities (50-digit quadrature + closed form).
C_110_100 = 0.23700750028505272902
C_55_4 = 0.4011171992462609  # C(5.5, 4)
C_500_50 = 5.36570791909442e-307
C_130_100 = 0.0024922365939338284

# Proof-object values.
CDF_X_1_1 = 0.26424111765711535681  # 1 - 2/e
TAIL_Y_2_1 = 0.73575888234288464319  # 2/e
TAIL_Y_2_4 = 0.76295220666203942723  # 4*exp(-4*(sqrt(2)-1))
DENSITY_Y_E_1 = 0.3082152199852437854  # (e-1)*exp(-(e-1))
H_AT_1 = -0.71828182845904523536  # 2 - e
H_AT_HALF = -1.0972640247326625568  # 1/2 + (1 - e**2)/4
H_AT_2 = -0.59488508280051258739
H_AT_1000 = -0.50016670834166805575
H_SERIES_20_30 = -0.50843855040961587901
