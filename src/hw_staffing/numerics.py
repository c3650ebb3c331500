"""Foundation numerics: normal distribution, a cancellation-free
log1p(x) - x, trapezoid quadrature in log space, and a bracketing root
finder for monotone functions.

Everything here is a pure function of its arguments and safe to call
concurrently. One quadrature engine serves every integral: a trapezoid
rule whose step is halved until two successive sums agree to a fixed
relative tolerance, 1e-12 (or 4096 integrand evaluations are spent),
applied after an exp-sinh change of variables centred on the integrand's
peak in log t. Each caller supplies that peak and its width, in closed form
or from a one-dimensional equation, and its *log* integrand in w = log t;
the engine applies the map itself. Log integrands let peaks of magnitude
e**(+-600) be handled by max-shifting before exponentiation.

The map's own values at the nodes do not depend on the integrand, so one
process-wide table (_NODES) holds them, built on first use and grown only
when a call reaches past it, never beyond |k| <= 4096 nodes from the
centre at any step. It keeps every function pure: each level of it is an
immutable tuple, replaced whole in one assignment and never changed in
place, and every entry is the same double whichever call computed it.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

from .errors import BracketError, DomainError, NumericalError, finite_real, positive_finite

# log1pmx and _trapezoid are building blocks of erlang_c_real: importable,
# but outside the package API, so that profiles charge their work to the
# public function that calls them.
__all__ = [
    "BracketedRoot",
    "normal_pdf",
    "normal_cdf",
    "integrate_semi_infinite",
    "bisect_monotone",
]

_INV_SQRT_2PI = 0.3989422804014327  # 1/sqrt(2*pi)
_INV_SQRT_2 = 0.7071067811865476  # 1/sqrt(2)


class BracketedRoot(NamedTuple):
    """A root located by bisect_monotone's safeguarded Illinois steps:
    lo <= value <= hi, |hi - lo| <= tol (unless f hit target exactly at
    value, or the bracket reached floating-point resolution first), and
    the evaluations of f it cost, both ends included."""

    lo: float
    hi: float
    value: float
    evaluations: int


def normal_pdf(x: float) -> float:
    """Standard normal density exp(-x**2/2)/sqrt(2*pi)."""
    x = finite_real(x, "normal_pdf's argument", "x")
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def normal_cdf(x: float) -> float:
    """Standard normal distribution function.

    Evaluated through the complementary error function, Phi(x) =
    erfc(-x/sqrt(2))/2, which keeps the relative error at libm level
    (~1e-16) even deep in the lower tail.
    """
    x = finite_real(x, "normal_cdf's argument", "x")
    return 0.5 * math.erfc(-x * _INV_SQRT_2)


_EPS = 2.0**-52
_LOG_MAX = math.log(sys.float_info.max)  # e**x overflows above this
# An integral is inf without a quadrature (and 1/C, so C = 0) once its log,
# read at the peak, passes _LOG_MAX by this many nats (the reading is good
# to a few nats).
_PEAK_OVERFLOW_NATS = 40.0

# The trapezoid rule stops once two successive sums agree to this share
# of the last one.
_REL_TOL = 1e-12
# First trapezoid step in the exp-sinh variable v. The map's slope at v = 0
# is 2*width, so the peak, a width wide in w, is about half a unit wide in
# v: h = 1 meets it at the centre, and the first halvings resolve it.
_FIRST_STEP = 1.0
# One integral may evaluate its integrand at most this often: the node
# count doubles with every halving, so a non-convergent input fails after
# a few milliseconds instead of refining on.
_MAX_EVALUATIONS = 4096
# The outward walk from the peak stops at the first node this many nats
# below the running maximum of the log integrand: the mass it drops is
# below e**-40 of the peak contribution.
_TRUNCATION_LOG_CUTOFF = 40.0
# Relative rounding of a trapezoid sum of positive terms, each an ulp or
# two off: the error estimate never claims less than this.
_SUM_ROUNDING = 8 * _EPS
# e**-v overflows below this; the map sends such nodes to w = -inf: zero.
_V_MIN = -700.0
# The map's constants (v + 1 - e**-v, log1p(e**-v)) at the nodes v = k*h,
# h = _FIRST_STEP*2**-j: _NODES[j] holds them for every k in [-n, n] at
# j = 0, and for the odd k in [1 - 2n, 2n - 1], the nodes a halving adds,
# at j >= 1; so n = len(_NODES[j]) // 2 at every level, and k sits at
# index n + k, or n + (k - 1)//2. A node below _V_MIN holds (inf, 0.0):
# its w is inf, past _LOG_MAX, so it counts as zero, uncalled. Levels only
# grow, by a new tuple put in place whole (_node_level); n stays within
# _MAX_EVALUATIONS at j = 0 and half that above, so |k| <= _MAX_EVALUATIONS.
_NODES: dict[int, tuple[tuple[float, float], ...]] = {}

# Below t = 2**-52 an integrand counts as zero: 1 + t rounds to 1 there,
# and integrands written in 1 + t may reject it.
_T_MIN_EXP = -52
_W_MIN = _T_MIN_EXP * math.log(2.0)

# Steps bisect_monotone may fall behind bisection while it tries the
# Illinois point: its worst case is plain bisection plus this many
# evaluations.
_SPARE_STEPS = 2
# Its truncation toward the midpoint is _ITP_SHIFT * w**2 / w0 for a
# bracket of width w out of a first width w0: a hundredth of the bracket
# at the start, vanishing against the Illinois step as the bracket closes.
# A larger share holds smooth functions near bisection pace: at 0.2,
# real_staffing_level's search took 9.9 gamma-route evaluations a call,
# against 7.7 at 0.01.
_ITP_SHIFT = 0.01


def log1pmx(x: float) -> float:
    """log1p(x) - x without cancellation, for x > -1.

    Near 0 both terms agree to many digits, so the difference is taken
    from the atanh series of log1p in y = x/(2 + x), whose leading term
    cancels x exactly: log1p(x) - x = -x*y + 2*(y**3/3 + y**5/5 + ...).
    Ten terms reach double precision for -0.25 <= x <= 0.25; beyond that
    the direct difference loses at most a few bits.
    """
    if -0.25 <= x <= 0.25:
        y = x / (2.0 + x)
        y2 = y * y
        return -x * y + y * y2 * (
            2 / 3 + y2 * (2 / 5 + y2 * (2 / 7 + y2 * (2 / 9 + y2 * (2 / 11 + y2 * (
                2 / 13 + y2 * (2 / 15 + y2 * (2 / 17 + y2 * (2 / 19 + y2 * (2 / 21)))))))))
        )
    return math.log1p(x) - x


def _unscale(x: float, shift: float) -> float:
    """x * e**shift, or inf once the product leaves the double range."""
    if x == 0.0 or math.isinf(x):
        return x
    log_value = shift + math.log(x)
    if log_value > _LOG_MAX:
        return math.inf
    if shift < _LOG_MAX:
        return x * math.exp(shift)
    return math.exp(log_value)


def _give_up(why, evaluations, h, total, error, shift):
    return NumericalError(
        f"quadrature did not reach tolerance: {why} "
        f"({evaluations} integrand evaluations, step {h:g})",
        estimate=_unscale(total, shift),
        error_bound=_unscale(error, shift),
        iterations=evaluations,
    )


def _node_ks(j: int, n: int) -> range:
    """The k of _NODES[j]'s entries, in order, for a level of half-length n."""
    return range(-n, n + 1) if j == 0 else range(1 - 2 * n, 2 * n, 2)


def _node_level(j: int, n: int) -> tuple[tuple[float, float], ...]:
    """_NODES[j], first grown to a half-length of at least n if it is shorter:
    to double its old one or n, within the ceiling of _NODES, and at least 8."""
    level = _NODES.get(j, ())
    if len(level) // 2 >= n:
        return level
    ceiling = _MAX_EVALUATIONS if j == 0 else _MAX_EVALUATIONS // 2
    n = min(max(n, len(level), 8), ceiling)
    h = _FIRST_STEP * 0.5**j
    entries = []
    for k in _node_ks(j, n):
        v = k * h
        if v < _V_MIN:
            entries.append((math.inf, 0.0))
        else:
            ev = math.exp(-v)
            entries.append((v + 1.0 - ev, math.log1p(ev)))
    level = tuple(entries)
    _NODES[j] = level  # one assignment: a concurrent reader holds the old or the new
    return level


def _trapezoid(log_mass: Callable[[float], float], centre: float, width: float):
    """Trapezoid rule for the integral of exp(log_mass(w)) dw over the real
    line, after the exp-sinh map w = centre + width*(v + 1 - e**-v).

    The map fixes v = 0 at the peak, which the caller gives as centre, with
    the width 1/sqrt(-log_mass''(centre)); it stretches the right side
    linearly and compresses the left double-exponentially (Takahasi & Mori,
    1974). On the nodes v = k*h the rule sums e**(f - shift), f =
    log_mass(w) + log(width) + log1p(e**-v) the log of the integrand times
    dw/dv: one call a node. The map's part, v + 1 - e**-v and log1p(e**-v),
    is the same at every call, so it is read from _NODES, one level a step
    h, which the first call to reach a node builds. A node below
    v = _V_MIN (e**-v overflows) or past w = _LOG_MAX (e**w does) counts
    as zero, uncalled. The shift is the running maximum of f, which starts
    at the centre's; a new maximum rescales the sum to itself.

    From v = 0 the right side, then the left, is walked outward until a
    term falls _TRUNCATION_LOG_CUTOFF nats below the running maximum,
    which never falls, so no later walk would go further. Then h is halved,
    reusing every node, until two successive sums agree to _REL_TOL. For
    an integrand analytic in a strip around the real line and decaying
    double-exponentially, the error falls like e**(-c/h), so each halving
    roughly squares it (Trefethen & Weideman, SIAM Review 56, 2014).

    Returns (shift, total, error, evaluations): the integral is
    total * e**shift, with error * e**shift the gap between the last two
    sums (never below _SUM_ROUNDING * total). The evaluation cap is the
    only other stopping rule: NumericalError, with the last sum and its
    gap, once a walk or the next halving would pass _MAX_EVALUATIONS.
    """
    exp, inf = math.exp, math.inf
    log_max = _LOG_MAX
    log_width = math.log(width)
    h = _FIRST_STEP
    # the centre node, v = 0: w = centre, and dw/dv = 2*width
    shift = -inf if centre > log_max else log_mass(centre) + log_width + math.log1p(1.0)
    if not (-inf < shift < inf):
        raise NumericalError(
            f"log integrand is {shift} at the centre of the quadrature map", iterations=1
        )
    acc = 1.0  # sum of exp(f - shift) over every node so far
    evaluations = 1
    total, error = h, inf
    nodes = _node_level(0, 1)
    n = len(nodes) // 2
    ends = []  # the outermost nodes, in units of h: right, then left
    for step in (1, -1):
        k, f = 0, inf  # each side takes a first step
        while f >= shift - _TRUNCATION_LOG_CUTOFF:
            if evaluations >= _MAX_EVALUATIONS:
                raise _give_up("the integrand tail did not decay",
                               evaluations, h, total, error, shift)
            k += step
            if k * step > n:
                nodes = _node_level(0, k * step)
                n = len(nodes) // 2
            t, log_jacobian = nodes[n + k]
            w = centre + width * t
            f = -inf if w > log_max else log_mass(w) + log_width + log_jacobian
            evaluations += 1
            if f > shift:
                acc = acc * exp(shift - f) + 1.0
                shift = f
            else:
                acc += exp(f - shift)
        ends.append(k)
    right, left = ends
    total = h * acc
    j = 0
    while True:
        if evaluations + right - left > _MAX_EVALUATIONS:
            raise _give_up("evaluation cap reached", evaluations, h, total, error, shift)
        previous, previous_shift = total, shift
        # halve h: the new nodes are the odd multiples of the new step
        h *= 0.5
        right *= 2
        left *= 2
        j += 1
        nodes = _node_level(j, max(right, -left) // 2)
        n = len(nodes) // 2
        for t, log_jacobian in nodes[n + left // 2:n + right // 2]:
            w = centre + width * t
            f = -inf if w > log_max else log_mass(w) + log_width + log_jacobian
            if f > shift:
                acc = acc * exp(shift - f) + 1.0
                shift = f
            else:
                acc += exp(f - shift)
        evaluations += (right - left) // 2
        total = h * acc
        error = max(abs(total - previous * exp(previous_shift - shift)),
                    _SUM_ROUNDING * total)
        if error <= _REL_TOL * total:
            return shift, total, error, evaluations


def integrate_semi_infinite(
    log_integrand: Callable[[float], float], centre: float, width: float
) -> float:
    """Integral of exp(log_integrand(t)) dt over t in [0, inf).

    The integrand must be given in log space (may return -inf where it
    vanishes) with an eventually decaying tail. It is integrated in
    w = log t, as the log mass m(w) = log_integrand(e**w) + w, by
    _trapezoid's exp-sinh rule about its peak, which the caller gives as
    centre, with the width 1/sqrt(-m''(centre)); log_mass counts nodes
    below t = 2**-52, or where t overflows, as zero. Returns inf without a
    quadrature where log_mass(centre) + log(width) passes _LOG_MAX by
    _PEAK_OVERFLOW_NATS, the rule erlang_c_real applies to 1/C. Raises
    NumericalError if the mass below 2**-52 is not negligible, or, with the
    best estimate attached, if the evaluation cap is hit first.
    """
    centre = finite_real(centre, "quadrature centre", "centre")
    width = positive_finite(width, "quadrature width", "width")

    def log_mass(w: float) -> float:
        return log_integrand(math.exp(w)) + w if _W_MIN <= w <= _LOG_MAX else -math.inf

    peak = log_mass(centre)
    if peak + math.log(width) > _LOG_MAX + _PEAK_OVERFLOW_NATS:
        return math.inf
    # log_mass drops the mass below t = 2**-52, about e**log_mass(_W_MIN);
    # it must not matter at the quadrature's (or, below it, attainable) accuracy
    if log_mass(_W_MIN) > peak + math.log(max(_REL_TOL, _SUM_ROUNDING)):
        raise NumericalError(
            f"integrand mass below t = 2**{_T_MIN_EXP} is not negligible", iterations=1
        )
    shift, total, _, _ = _trapezoid(log_mass, centre, width)
    return _unscale(total, shift)


def bisect_monotone(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    target: float,
    tol: float,
) -> BracketedRoot:
    """Solve f(x) = target for monotone f by safeguarded Illinois steps.

    Works for increasing or decreasing f; the endpoint values must bracket
    the target. Each step starts from the regula falsi point of the
    bracket, with the Illinois rule: when the same end is kept twice in a
    row, its function value is halved, so the kept end cannot stall
    (Dowell & Jarratt, BIT 11, 1971). The point is then safeguarded as in
    the ITP method (Oliveira & Takahashi, ACM TOMS 47, 2021):

    * it moves toward the midpoint by 0.01*w**2/w0 (w the bracket width,
      w0 the first), or onto the midpoint if that is nearer, so that it
      cannot crawl along one end while the bracket is wide;
    * it is clamped tol/2 inside the bracket, so that once it lands within
      tol/2 of the root the next step crosses it and both ends close in;
    * it is pulled toward the midpoint as far as needed to keep the
      bracket no wider than bisection would have left it _SPARE_STEPS (2)
      steps earlier;
    * it falls back to the midpoint when it is not finite (an end value is
      infinite, or their difference overflows) or the clamp rounds onto
      an end.

    So f is evaluated at most _SPARE_STEPS times more often than by plain
    bisection, and on smooth f far less often: real_staffing_level's log C
    on the gamma route, from a bracket 2/sqrt(a) wide (a in [1, 1e5]),
    takes 5-6 steps where bisection takes 25-33. Stops when the bracket
    width is <= tol or its midpoint is at floating-point resolution; value
    is then the midpoint. A BracketError for ends that do not bracket the
    target carries the two evaluations as its iterations.
    """
    lo = finite_real(lo, "bracket end", "lo")
    hi = finite_real(hi, "bracket end", "hi")
    target = finite_real(target, "target", "target")
    tol = positive_finite(tol, "tolerance", "tol")
    if lo > hi:
        raise DomainError(f"need lo <= hi, got lo={lo}, hi={hi}")

    f_lo = f(lo) - target
    f_hi = f(hi) - target
    evaluations = 2
    if f_lo == 0.0:
        return BracketedRoot(lo, lo, lo, evaluations)
    if f_hi == 0.0:
        return BracketedRoot(hi, hi, hi, evaluations)
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise BracketError(
            f"target {target} not bracketed: f({lo})={f_lo + target}, "
            f"f({hi})={f_hi + target}",
            iterations=evaluations,
        )

    half_tol = 0.5 * tol
    shift_per_width = _ITP_SHIFT / (hi - lo)
    allowance = (hi - lo) * 2.0**_SPARE_STEPS  # widest bracket after the step
    kept = None  # the end the last step kept: "lo", "hi" or None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # bracket at floating-point resolution
        width = hi - lo
        allowance *= 0.5
        radius = max(allowance - 0.5 * width, 0.0)
        # share of the bracket below the regula falsi point: in (0, 1)
        # unless an end value is infinite or was halved down to zero
        t = f_lo / (f_lo - f_hi) if f_lo != f_hi else math.nan
        x = lo + width * t
        shift = shift_per_width * width * width
        x = mid if abs(mid - x) <= shift else x + math.copysign(shift, mid - x)
        x = min(max(x, lo + half_tol, mid - radius), hi - half_tol, mid + radius)
        if not (0.0 < t < 1.0 and lo < x < hi):
            x = mid
        f_x = f(x) - target
        evaluations += 1
        if f_x == 0.0:
            return BracketedRoot(lo, hi, x, evaluations)
        if (f_x > 0.0) == (f_lo > 0.0):
            lo, f_lo = x, f_x
            if kept == "hi":
                f_hi *= 0.5
            kept = "hi"
        else:
            hi, f_hi = x, f_x
            if kept == "lo":
                f_lo *= 0.5
            kept = "lo"

    return BracketedRoot(lo, hi, 0.5 * (lo + hi), evaluations)
