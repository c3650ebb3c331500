"""Square-root staffing, its heavy-traffic limit, and the staffing inversions.

The staffing rule s = a + beta*sqrt(a) keeps the delay probability
C(a + beta*sqrt(a), a) nondegenerate as the offered load a grows; its limit
is hw_limit(beta) = 1/(1 + beta*Phi(beta)/phi(beta)). The inversions
min_servers and real_staffing_level search the gamma route from that rule
at beta = beta_for_target(epsilon), and the quadrature certifies each root
of real_staffing_level, agreeing with the gamma route there within both
routes' bounds. The two sweeps share one loop, one route (the gamma
route at the slack) and one row type (SweepRow), and produce the evidence
tables behind two facts:

* the load-parametrized curve C(a + beta*sqrt(a), a) decreases strictly in
  a and stays above the limit for every beta > 0 (hw_sweep's SweepResult
  carries the verdict and the margins it rests on);
* the server-parametrized curve C(s, s - beta*sqrt(s)) is NOT claimed to be
  monotone -- inverse_sweep only emits the data. Its measured shape is in
  inverse_sweep's docstring.
"""

from __future__ import annotations

import bisect
import functools
import math
from typing import NamedTuple, Sequence

from .erlang import _gamma, erlang_c_slack
from .errors import (
    DomainError, NumericalError, count, delay_target, finite_real, increasing, positive_finite)
from .numerics import _INV_SQRT_2, bisect_monotone, normal_cdf, normal_pdf

__all__ = [
    "SweepRow",
    "SweepResult",
    "hw_limit",
    "staffing",
    "inverse_load",
    "beta_for_target",
    "min_servers",
    "real_staffing_level",
    "hw_sweep",
    "inverse_sweep",
    "default_load_grid",
]

# default_load_grid builds at most this many points.
_MAX_POINTS = 10**6

_LOG_SQRT_2PI = 0.9189385332046728  # log(sqrt(2*pi))
_SQRT_2_OVER_PI = 0.7978845608028654  # sqrt(2/pi) = 1/R(0)
# beta_for_target's tolerance in beta, and a ceiling on its Newton steps:
# from its start it takes at most 5.
_BETA_TOL = 1e-12
_NEWTON_MAX_STEPS = 100
# Accept C(n,a) == epsilon as "meeting" an SLA target epsilon up to this
# relative slack, so exact-boundary targets resolve deterministically.
_TIE_REL_TOL = 1e-12
# real_staffing_level pins s* to this width in s.
_STAFFING_TOL = 1e-9


class SweepRow(NamedTuple):
    """One row of a sweep: C(s, a) at one grid point, or the error that
    stopped it (c_value None). Load-parametrized rows (s = a +
    beta*sqrt(a)) also carry the limit c_star and so a gap above it;
    server-parametrized rows (a = s - beta*sqrt(s)) leave both None."""

    a: float
    s: float
    c_value: float | None
    error_bound: float = 0.0
    error: str | None = None
    c_star: float | None = None

    @property
    def gap(self) -> float | None:
        if self.c_value is None or self.c_star is None:
            return None
        return self.c_value - self.c_star


class SweepResult(NamedTuple):
    """Ordered sweep rows plus hw_sweep's smallest decrement margin (each
    decrement less the two rows' summed error bounds; inf for one row) and
    smallest gap above the limit, and the flags read from those two.

    Both are None from inverse_sweep (no monotonicity claim is made
    there) and None when any row failed, since grid-wide claims are then
    unverifiable; the flags are None with them.
    """

    beta: float
    rows: tuple[SweepRow, ...]
    min_margin: float | None = None
    min_gap: float | None = None

    @property
    def decreasing(self) -> bool | None:
        return None if self.min_margin is None else self.min_margin > 0.0

    @property
    def gaps_positive(self) -> bool | None:
        return None if self.min_gap is None else self.min_gap > 0.0

    @property
    def verified(self) -> bool | None:
        return self.decreasing and self.gaps_positive


def hw_limit(beta: float) -> float:
    """Limiting delay probability (1 + beta*Phi(beta)/phi(beta))**-1.

    beta = 0 is accepted as the boundary case and returns 1; negative beta
    is rejected.
    """
    if beta == 0.0:
        return 1.0
    beta = positive_finite(beta, "hw_limit's beta, if not 0,", "beta")
    pdf = normal_pdf(beta)
    if pdf == 0.0:  # beta beyond ~38: the limit underflows to zero
        return 0.0
    return 1.0 / (1.0 + beta * normal_cdf(beta) / pdf)


def staffing(a: float, beta: float) -> float:
    """Square-root staffing level s = a + beta*sqrt(a); requires beta > 0
    so the result stays in the validity region a < s."""
    a = positive_finite(a, "offered load", "a")
    return a + positive_finite(beta, "staffing slack", "beta") * math.sqrt(a)


def inverse_load(n: float, beta: float) -> float:
    """Offered load a = n - beta*sqrt(n); valid only for finite n > beta**2."""
    beta = positive_finite(beta, "staffing slack", "beta")
    n = finite_real(n, "inverse_load's server count", "n")
    if not (n > beta * beta):
        raise DomainError(
            f"inverse_load requires n > beta**2 = {beta * beta} so the load "
            f"stays positive, got n={n}"
        )
    return n - beta * math.sqrt(n)


def _log_mills(beta: float) -> float:
    """log R(beta) for beta >= 0, R = Phi/phi the Mills ratio of the normal
    lower tail, as log(erfc(-beta/sqrt(2))/2) + beta**2/2 + log(sqrt(2*pi)):
    finite wherever beta is, although R itself overflows past beta ~ 37.7."""
    return math.log(0.5 * math.erfc(-beta * _INV_SQRT_2)) + 0.5 * beta * beta + _LOG_SQRT_2PI


def _slack_correction(beta: float) -> float:
    """The constant of refined square-root staffing, s ~ a + beta*sqrt(a) +
    _slack_correction(beta) for C(s, a) = hw_limit(beta) (Janssen, van
    Leeuwaarden & Zwart, Oper. Res. 59, 2011): -I_1/M_2, with the moments
    M_j = integral_0^inf z**j e**(-z**2/2 + beta*z) dz (M_0 = R, M_1 =
    1 + beta*R, M_j = beta*M_(j-1) + (j - 1)*M_(j-2)) and I_1 = M_4/3 -
    beta*M_3/2 - M_2, the 1/sqrt(a) term of 1/C on the staffed curve. The
    recursion makes I_1 = -beta*M_3/6, so the constant is beta*M_3/(6*M_2),
    positive and about beta**2/6 at large beta. The moments are taken over
    R, from 1/R = e**-log R, which underflows harmlessly where R overflows.
    """
    m1 = beta + math.exp(-_log_mills(beta))
    m2 = beta * m1 + 1.0
    m3 = beta * m2 + 2.0 * m1
    return beta * m3 / (6.0 * m2)


def beta_for_target(epsilon: float) -> float:
    """Slack beta with hw_limit(beta) = epsilon, to 1e-12, by safeguarded
    Newton steps.

    hw_limit(beta) = epsilon where g(beta) = log(beta) + log R(beta) -
    log((1 - epsilon)/epsilon) is 0, R = Phi/phi (_log_mills); g rises
    with slope 1/beta + 1/R + beta, since R' = 1 + beta*R. The root lies
    below (1/epsilon - 1)*sqrt(2/pi), as R >= R(0) = sqrt(pi/2), and below
    max(1, sqrt(2*log(1/epsilon - 1))), as R >= e**(beta**2/2)*sqrt(pi/2).
    The steps start from that first bound where it is below 0.5 (the
    small-beta asymptote, as epsilon nears 1), and elsewhere from the
    large-beta asymptote sqrt(2*(log(1/epsilon - 1) - log(sqrt(2*pi)))),
    held in [0.5, the bound]. Each step's sign of g moves one end of the
    bracket [0, bound], and a step that would leave the bracket bisects it
    instead (rtsafe, Press et al., Numerical Recipes, 3rd ed., 9.4). The
    solve stops after the first step of at most 1e-12: at most 5 steps,
    3-5 for epsilon in [1e-3, 0.5], from sys.float_info.min to 1 - 2**-53.
    """
    epsilon = delay_target(epsilon)
    odds = (1.0 - epsilon) / epsilon  # 1 - epsilon is exact from 0.5 up
    target = math.log(odds)
    small = odds * _SQRT_2_OVER_PI
    lo, hi = 0.0, min(small, max(1.0, math.sqrt(2.0 * max(target, 0.0))))
    if small < 0.5:
        beta = small
    else:
        beta = min(max(math.sqrt(max(2.0 * (target - _LOG_SQRT_2PI), 0.0)), 0.5), hi)
    for _ in range(_NEWTON_MAX_STEPS):
        log_r = _log_mills(beta)
        g = math.log(beta) + log_r - target
        if g > 0.0:
            hi = beta
        else:
            lo = beta
        step = g / (1.0 / beta + math.exp(-log_r) + beta)
        if abs(step) <= _BETA_TOL:
            return beta - step
        beta = beta - step if lo < beta - step < hi else 0.5 * (lo + hi)
    raise NumericalError(f"beta_for_target did not converge for epsilon={epsilon}",
                         iterations=_NEWTON_MAX_STEPS)


def min_servers(a: float, epsilon: float) -> int:
    """Smallest integer n > a with C(n, a) <= epsilon.

    Searches on the gamma route (_gamma at the slack n - a) from the
    square-root start max(floor(a) + 1, ceil(a + beta*sqrt(a))), beta =
    beta_for_target(epsilon): if C(n) meets the target, down while C(n - 1)
    meets it and n - 1 > a; else up in doubling steps, then by bisection,
    to an n that meets it next to one that misses. The walk down is a guard
    that has not been seen to step: by the paper's theorem
    C(a + beta*sqrt(a), a) > hw_limit(beta) = epsilon, so the start lies at
    or below the answer (over 1e5 random (a, epsilon), C(n - 1) at the
    start stayed 1.4e-9 or more above the target, against the 1e-12 tie
    allowance). At most 4 evaluations for a in [1, 1e15] and epsilon in
    [1e-3, 0.5]; 16 at epsilon = sys.float_info.min (beta ~ 37.6), where
    the start lies up to 237 servers low. From a = 2**53, where n and
    n + 1 are one double, DomainError.
    """
    a = positive_finite(a, "offered load", "a")
    epsilon = delay_target(epsilon)
    if a >= 2.0**53:
        raise DomainError(f"min_servers requires a < 2**53, got a={a}")
    limit, floor_a = epsilon * (1.0 + _TIE_REL_TOL), math.floor(a)

    def meets(n: int) -> bool:  # the slack n - a rounds once, also past 2**53
        return _gamma(float(n), (n - floor_a) - (a - floor_a), a).value <= limit

    n = max(floor_a + 1, math.ceil(a + beta_for_target(epsilon) * math.sqrt(a)))
    if meets(n):
        while n - 1 > a and meets(n - 1):
            n -= 1
        return n
    step = 1  # n misses: up in doubling steps, then bisect (n, n + step]
    while not meets(n + step):
        n, step = n + step, 2 * step
    return n + 1 + bisect.bisect_left(range(n + 1, n + step), True, key=meets)


def real_staffing_level(a: float, epsilon: float) -> float:
    """Continuous staffing level s* = a + d* with C(a + d*, a) = epsilon.

    The root is sought in the slack d = s - a on the gamma route (_gamma
    at s = a + d, with the slack as given), by bisect_monotone's
    safeguarded Illinois steps on log C = log epsilon, to within tol/4,
    tol = max(_STAFFING_TOL, 2*ulp(a)): 1e-9 in s wherever the doubles near
    s resolve it, and their spacing from a ~ 1e7 up. log C is close to
    linear in d near the root, and reads -inf once C underflows to 0.

    From a = 1 the bracket is centred on refined square-root staffing,
    d_ref = beta*sqrt(a) + _slack_correction(beta) with beta =
    beta_for_target(epsilon), which lay within 0.5/sqrt(a) of d* on
    400 seeded (a, epsilon). Its half-width is max(1/sqrt(a), tol), with
    tol counted only up to d_ref/2: past a ~ 1e30, where the tolerance
    outgrows the slack, s = a + d rounds to a across [d_ref/2, 3*d_ref/2].
    An end that misses the root becomes the other end, and the half-width
    doubles; the lower end stops at d = 0, where C(a, a) = 1 is known
    without evaluating it. Below a = 1 the bracket starts as [0, 1] and
    grows the same way. C is computed at most once per d in one call, so
    the solver's evaluations at the ends cost nothing: the search takes at
    most 8 gamma evaluations for a in [1, 1e5] and epsilon in [1e-3, 0.5].

    One quadrature then certifies the root d_g: erlang_c_slack's C at d_g
    and the gamma route's (one more gamma evaluation, unless the search
    ended on a level it evaluated) must agree within their summed error
    bounds b_q + b_g. The gamma route's root lies within
    tol/8 of d_g, so the quadrature's lies within tol/8 + (b_q +
    b_g)/|dC/dd| of it: within tol/2 wherever the bounds are small against
    the slope. On 6 424 seeded (a, epsilon), from a = 1e-323 to the
    largest double, the routes differed by at most 0.13 of their summed
    bounds. Otherwise NumericalError, with a + d_g as its estimate and the
    gamma evaluations plus the quadrature as its iterations.
    """
    a = positive_finite(a, "offered load", "a")
    epsilon = delay_target(epsilon)

    gamma = functools.cache(lambda d: _gamma(a + d, d, a))

    def log_c(d: float) -> float:
        if d == 0.0:
            return 0.0  # C(a, a) = 1
        value = gamma(d).value
        return math.log(value) if value > 0.0 else -math.inf

    target = math.log(epsilon)
    tol = max(_STAFFING_TOL, 2.0 * math.ulp(a))
    d_ref, width = 0.0, 1.0  # below a = 1, the bracket [0, 1]
    if a >= 1.0:
        beta = beta_for_target(epsilon)
        d_ref = beta * math.sqrt(a) + _slack_correction(beta)
        width = max(1.0 / math.sqrt(a), min(tol, 0.5 * d_ref))
    lo, hi = max(d_ref - width, 0.0), d_ref + width
    while log_c(hi) > target:  # hi short of the root: it becomes lo
        width *= 2.0
        lo, hi = hi, hi + width
    while log_c(lo) < target:  # lo past the root: it becomes hi
        width *= 2.0
        lo, hi = max(lo - width, 0.0), lo
    d = bisect_monotone(log_c, lo, hi, target, 0.25 * tol).value  # d > 0
    # the certificate: both routes agree at d within their summed bounds
    c_q, c_g = erlang_c_slack(d, a), gamma(d)
    if abs(c_q.value - c_g.value) <= c_q.error_bound + c_g.error_bound:
        return a + d
    raise NumericalError(
        f"the quadrature's C(a + d, a) = {c_q.value!r} and the gamma route's {c_g.value!r} "
        f"at d = {d!r} differ by more than their summed error bounds (a={a}, "
        f"epsilon={epsilon!r})",
        estimate=a + d, iterations=gamma.cache_info().currsize + 1)


def default_load_grid(
    lo: float = 0.01, hi: float = 1e4, points: int = 40, log_spaced: bool = True
) -> tuple[float, ...]:
    """The package's one grid: log-spaced from lo > 0 to hi, or evenly
    spaced; finite bounds, hi > lo unless the grid is the single point
    (lo,). It starts at lo and ends at hi exactly. The defaults are
    verify's load grid, spanning six orders of magnitude; points runs to
    1e6."""
    points = count(points, "points", 1, _MAX_POINTS)
    lo, hi = finite_real(lo, "grid bounds", "lo"), finite_real(hi, "grid bounds", "hi")
    if log_spaced and not lo > 0.0:
        raise DomainError(f"log spacing needs lo > 0, got lo={lo}")
    if points == 1:
        return (lo,)
    if not hi > lo:
        raise DomainError(f"need hi > lo for {points} points, got lo={lo}, hi={hi}")
    if log_spaced:
        r = math.log(hi / lo) / (points - 1)
        return tuple(lo * math.exp(r * i) for i in range(points - 1)) + (hi,)
    step = (hi - lo) / (points - 1)
    return tuple(lo + step * i for i in range(points - 1)) + (hi,)


def _sweep_rows(beta: float, grid: Sequence[float], hw: bool):
    """The loop behind hw_sweep (hw, x = a) and inverse_sweep (x = s): one
    SweepRow per grid value x, with C evaluated by the gamma route at the
    slack beta*sqrt(x) itself; hw selects only the parametrization."""
    grid_name = "a_grid" if hw else "s_grid"
    beta = positive_finite(beta, "staffing slack", "beta")
    grid = increasing(grid, grid_name)
    if not grid:
        raise DomainError(f"{grid_name} must not be empty")

    c_star = hw_limit(beta) if hw else None
    rows = []
    for x in grid:
        # DomainError at the first load a <= 0, or server count s <= beta**2
        x = positive_finite(x, "offered load", "a") if hw else finite_real(x, "server count", "s")
        a, s = (x, staffing(x, beta)) if hw else (inverse_load(x, beta), x)
        try:
            c = _gamma(s, beta * math.sqrt(x), a)
            rows.append(SweepRow(a, s, c.value, c.error_bound, None, c_star))
        except NumericalError as exc:
            rows.append(SweepRow(a, s, None, 0.0, str(exc), c_star))
    return tuple(rows)


def hw_sweep(beta: float, a_grid: Sequence[float]) -> SweepResult:
    """Evaluate C(a + beta*sqrt(a), a) across a strictly increasing load grid.

    Each row carries c_star = hw_limit(beta) and its gap above it.
    Per-point numerical failures are recorded in-row and do not abort the
    sweep. When every row succeeded, the result carries the smallest
    decrement margin (each decrement less the two rows' summed error
    bounds, which separates real monotonicity from rounding noise) and
    the smallest gap above the limit; the curve is verified when both are
    positive. C comes from the gamma route at the slack beta*sqrt(a)
    itself (erlang._gamma), so the rounding of the row's s cannot make the
    curve jitter at large loads. A row costs no quadrature, and its bound
    is at most 2e-14 relative for betas 0.1 to 3 at any load:
    41-point grids from a = 1 certify betas 0.1, 1 and 3 to 1e26.
    """
    rows = _sweep_rows(beta, a_grid, hw=True)
    if any(r.c_value is None for r in rows):
        # failed rows leave the grid-wide claims unverifiable
        return SweepResult(beta, rows)
    margins = [x.c_value - y.c_value - (x.error_bound + y.error_bound)
               for x, y in zip(rows, rows[1:])]
    return SweepResult(beta, rows, min(margins, default=math.inf), min(r.gap for r in rows))


def inverse_sweep(beta: float, s_grid: Sequence[float]) -> SweepResult:
    """Evaluate C(s, s - beta*sqrt(s)) across a strictly increasing server grid.

    Every s must exceed beta**2. The rows carry no limit and no gap, and no
    monotonicity flag is computed; the rows feed the figure emitter as-is.
    As in hw_sweep, C comes from the gamma route at the slack beta*sqrt(s)
    itself: at s = 1e15 rounding a = s - beta*sqrt(s) would move C by ~1e-9
    relative. Below s = 5.6e-309 (grids reach it only for beta < 7.5e-155)
    a row records the route's NumericalError, and a slack of 0 aborts nothing.

    The curve's shape, measured but not claimed: at large s,
    C = hw_limit(beta) + k_inv(beta)/sqrt(s) + O(1/s), with
    k_inv = -(beta**2*M_2/2 + I_1)/I_0**2 from the staffed curve's
    expansion (tests/test_halfin_whitt.py derives it, and checks it
    against the quadrature at s = 1e8 for betas 0.1 to 3).
    k_inv changes sign at beta_c = 0.638833. Above it the curve rises
    toward the limit from below; below it the curve rises, turns once and
    falls toward the limit from above. On 81-point log grids from just
    above beta**2 to s = 1e10, every step rose for betas 0.64, 0.7, 1, 2
    and 3, and the curve turned near s = 0.32 at beta 0.3 and near s = 81
    at beta 0.6; every step exceeded the two rows' summed bounds.
    """
    return SweepResult(beta, _sweep_rows(beta, s_grid, hw=False))
