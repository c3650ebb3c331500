"""Foundation numerics: normal distribution, regularized upper incomplete
gamma, a cancellation-free log1p(x) - x, trapezoid quadrature
in log space, and a bracketing root finder for monotone functions.

Everything here is a pure function of its arguments and safe to call
concurrently. One quadrature engine serves every integral: a trapezoid
rule whose step is halved until two successive sums agree to a fixed
relative tolerance, 1e-12 (or 4096 integrand evaluations are spent),
applied after an exp-sinh change of variables centred on the integrand's
peak in log t (integrate_exp_sinh). The real-server delay probability
supplies that peak in closed form; integrate_semi_infinite finds it for
any integrand by a geometric scan. Integrands arrive as *log* integrands
so that peaks of magnitude e**(+-600) can be handled by max-shifting
before exponentiation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

from .errors import BracketError, DomainError, NumericalError

# log1pmx and integrate_exp_sinh are building blocks of erlang_c_real:
# importable, but outside the package API, so that profiles charge their
# work to the public function that calls them.
__all__ = [
    "BracketedRoot",
    "normal_pdf",
    "normal_cdf",
    "upper_gamma_regularized",
    "integrate_semi_infinite",
    "bisect_monotone",
]

_INV_SQRT_2PI = 0.3989422804014327  # 1/sqrt(2*pi)
_INV_SQRT_2 = 0.7071067811865476  # 1/sqrt(2)


@dataclass(frozen=True)
class BracketedRoot:
    """A root located by bisect_monotone's safeguarded Illinois steps:
    lo <= value <= hi, |hi - lo| <= tol (unless f hit target exactly at
    value, or the bracket reached floating-point resolution first)."""

    lo: float
    hi: float
    value: float


def _require_finite(x: float, name: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x


def normal_pdf(x: float) -> float:
    """Standard normal density exp(-x**2/2)/sqrt(2*pi)."""
    x = _require_finite(x, "x")
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def normal_cdf(x: float) -> float:
    """Standard normal distribution function.

    Evaluated through the complementary error function, Phi(x) =
    erfc(-x/sqrt(2))/2, which keeps the relative error at libm level
    (~1e-16) even deep in the lower tail.
    """
    x = _require_finite(x, "x")
    return 0.5 * math.erfc(-x * _INV_SQRT_2)


_GAMMA_MAX_ITER = 10_000
_GAMMA_EPS = 1e-16


def upper_gamma_regularized(s: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(s, x) = Gamma(s, x)/Gamma(s).

    Uses the lower-gamma power series for x < s + 1 and the continued
    fraction (modified Lentz) otherwise; both are evaluated against the
    scaled prefactor x**s e**-x / Gamma(s) assembled in log space.
    """
    s = _require_finite(s, "s")
    x = _require_finite(x, "x")
    if s <= 0.0:
        raise DomainError(f"upper_gamma_regularized requires s > 0, got s={s}")
    if x < 0.0:
        raise DomainError(f"upper_gamma_regularized requires x >= 0, got x={x}")
    if x == 0.0:
        return 1.0

    log_prefactor = s * math.log(x) - x - math.lgamma(s)

    if x < s + 1.0:
        # P(s,x) = prefactor * sum_k x^k / (s(s+1)...(s+k)); Q = 1 - P.
        term = 1.0 / s
        total = term
        denom = s
        for _ in range(_GAMMA_MAX_ITER):
            denom += 1.0
            term *= x / denom
            total += term
            if abs(term) < abs(total) * _GAMMA_EPS:
                return 1.0 - math.exp(log_prefactor) * total
        raise NumericalError(
            f"lower-gamma series failed to converge for s={s}, x={x}",
            iterations=_GAMMA_MAX_ITER,
        )

    # Q(s,x) = prefactor * 1/(x+1-s- 1*(1-s)/(x+3-s- 2*(2-s)/(x+5-s- ...)))
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    f = d
    for i in range(1, _GAMMA_MAX_ITER + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if d == 0.0:
            d = tiny
        c = b + an / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = d * c
        f *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            return math.exp(log_prefactor) * f
    raise NumericalError(
        f"upper-gamma continued fraction failed to converge for s={s}, x={x}",
        iterations=_GAMMA_MAX_ITER,
    )


_EPS = 2.0**-52
_LN2 = math.log(2.0)
_LOG_MAX = math.log(sys.float_info.max)  # e**x overflows above this

# The trapezoid rule stops once two successive sums agree to this share
# of the last one.
_REL_TOL = 1e-12
# First trapezoid step in the exp-sinh variable v. The map gives the peak
# about unit width in v, so h = 1 already samples it a few times.
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
# e**-v overflows below this; the map sends such nodes to w = -inf anyway.
_V_MIN = -700.0

# Geometric scan of a generic integrand over t = 2**k.
_SCAN_LO_EXP = -40
_SCAN_HI_EXP = 10
_SCAN_MAX_DOUBLINGS = 500
# Below t = 2**-52 a generic integrand counts as zero: 1 + t rounds to 1
# there, and integrands written in 1 + t may reject it.
_T_MIN_EXP = -52
_W_MIN = _T_MIN_EXP * _LN2
# Golden-section refinement of the scanned peak stops at this bracket
# width in log t, a small fraction of any width the step halving can
# resolve within the evaluation cap.
_PEAK_TOL = 1e-5
_INV_PHI = 0.6180339887498949  # 1/golden ratio
# A flat scan can suggest any width; wider than this in log t, one step
# of the map would jump over whole decades of t.
_MAX_SCALE = 10.0

# Steps bisect_monotone may fall behind bisection while it tries the
# Illinois point: its worst case is plain bisection plus this many
# evaluations.
_SPARE_STEPS = 2
# Its truncation toward the midpoint is _ITP_SHIFT * w**2 / w0 for a
# bracket of width w out of a first width w0: a fifth of the bracket at
# the start, vanishing against the Illinois step as the bracket closes.
_ITP_SHIFT = 0.2


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


def _trapezoid(log_term: Callable[[float], float]):
    """Trapezoid rule for the integral of exp(log_term(v)) over the real line.

    Sums the terms on the nodes v = k*h, max-shifted by the running
    maximum of log_term, which starts at log_term(0). From v = 0 each side
    is walked outward until a term falls _TRUNCATION_LOG_CUTOFF nats below
    the running maximum. Then h is halved, reusing every node, until two
    successive sums agree to _REL_TOL. For an integrand analytic in a strip
    around the real line and decaying double-exponentially, the error
    falls like e**(-c/h), so each halving roughly squares it (Trefethen &
    Weideman, SIAM Review 56, 2014).

    Returns (shift, total, error, evaluations): the integral is
    total * e**shift, with error * e**shift the gap between the last two
    sums (never below _SUM_ROUNDING * total). The evaluation cap is the
    only other stopping rule: NumericalError, with the last sum and its
    gap, once a walk or the next halving would pass _MAX_EVALUATIONS.
    """
    h = _FIRST_STEP
    shift = log_term(0.0)
    if not (-math.inf < shift < math.inf):
        raise NumericalError(
            f"log integrand is {shift} at the centre of the quadrature map", iterations=1
        )
    acc = 1.0  # sum of exp(log_term(v) - shift) over every node so far
    evaluations = 1
    total, error = h, math.inf

    def give_up(why):
        return NumericalError(
            f"quadrature did not reach tolerance: {why} "
            f"({evaluations} integrand evaluations, step {h:g})",
            estimate=_unscale(total, shift),
            error_bound=_unscale(error, shift),
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
        # extend one side from node k (log term f) until it has decayed
        while f >= shift - _TRUNCATION_LOG_CUTOFF:
            if evaluations >= _MAX_EVALUATIONS:
                raise give_up("the integrand tail did not decay")
            k += step
            f = visit(k * h)
        return k, f

    right, f_right = walk(0, 1, shift)
    left, f_left = walk(0, -1, shift)
    total = h * acc
    while True:
        if evaluations + right - left > _MAX_EVALUATIONS:
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
                    _SUM_ROUNDING * total)
        if error <= _REL_TOL * total:
            return shift, total, error, evaluations


def integrate_exp_sinh(log_integrand: Callable[[float], float], centre: float, scale: float):
    """Integral of exp(log_integrand(w)) dw over the real line.

    The integrand should be unimodal with its peak near w = centre and a
    width of about scale, decaying at least exponentially to the right and
    at all to the left. The exp-sinh map w = centre + scale*(v + 1 - e**-v)
    fixes v = 0 at the centre, stretches the right side linearly and
    compresses the left side double-exponentially, and the trapezoid rule
    in v does the rest (Takahasi & Mori, 1974). Nodes where e**w
    overflows count as zero.

    Returns (shift, total, error, evaluations) as the trapezoid core
    does: the integral is total * e**shift within error * e**shift.
    """
    log_scale = math.log(scale)

    def log_term(v: float) -> float:
        if v < _V_MIN:
            return -math.inf
        ev = math.exp(-v)
        w = centre + scale * (v + 1.0 - ev)
        if w > _LOG_MAX:
            return -math.inf
        return log_integrand(w) + log_scale + math.log1p(ev)

    return _trapezoid(log_term)


def _golden_peak(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Maximiser of a unimodal f on [lo, hi] to within _PEAK_TOL."""
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > _PEAK_TOL:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = f(x2)
    return x1 if f1 >= f2 else x2


def _peak_and_scale(log_mass: Callable[[float], float]):
    """Centre and width, in w = log t, of the log-space integrand log_mass(w).

    A geometric scan over t = 2**k brackets the peak and checks that the
    right tail decays; golden-section search then refines the peak, and a
    second difference around it, taken at a spacing where log_mass has
    dropped by at most a few nats, gives the width. Returns None when the
    integrand vanishes on the whole scan.
    """
    ws = [k * _LN2 for k in range(_SCAN_LO_EXP, _SCAN_HI_EXP + 1)]
    ls = [log_mass(w) for w in ws]
    if max(ls) == -math.inf:
        return None
    doublings = 0
    while ls[-1] > max(ls) - _TRUNCATION_LOG_CUTOFF:
        doublings += 1
        if doublings > _SCAN_MAX_DOUBLINGS:
            raise NumericalError(
                "semi-infinite integrand tail did not decay within the scan range"
            )
        ws.append(ws[-1] + _LN2)
        ls.append(log_mass(ws[-1]))

    i = ls.index(max(ls))
    centre = _golden_peak(log_mass, ws[i] - _LN2, ws[i] + _LN2)
    top = log_mass(centre)
    if not top > ls[i]:
        centre, top = ws[i], ls[i]
    delta = _LN2
    while True:
        drop = top - 0.5 * (log_mass(centre - delta) + log_mass(centre + delta))
        if drop <= 4.0 or delta < _PEAK_TOL:
            break
        delta *= 0.25
    scale = delta / math.sqrt(2.0 * drop) if 0.0 < drop < math.inf else delta
    return centre, min(scale, _MAX_SCALE)


def integrate_semi_infinite(log_integrand: Callable[[float], float]) -> float:
    """Integral of exp(log_integrand(t)) dt over t in [0, inf).

    The integrand must be given in log space (may return -inf where it
    vanishes) with an eventually decaying tail. It is integrated in
    w = log t by integrate_exp_sinh, centred on the peak and width that a
    geometric scan finds. Raises NumericalError with the best estimate
    attached if the evaluation cap is hit first.
    """

    def log_mass(w: float) -> float:
        return log_integrand(math.exp(w)) + w if _W_MIN <= w <= _LOG_MAX else -math.inf

    peak = _peak_and_scale(log_mass)
    if peak is None:  # integrand vanishes on the whole scan range
        return 0.0
    # log_mass drops the mass below t = 2**-52, about e**log_mass(_W_MIN);
    # it must not matter at the quadrature's (or, below it, attainable) accuracy
    if log_mass(_W_MIN) > log_mass(peak[0]) + math.log(max(_REL_TOL, _SUM_ROUNDING)):
        raise NumericalError(
            f"integrand mass below t = 2**{_T_MIN_EXP} is not negligible", iterations=1
        )
    shift, total, _, _ = integrate_exp_sinh(log_mass, *peak)
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

    * it moves toward the midpoint by 0.2*w**2/w0 (w the bracket width,
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
    bisection, and on smooth f far less often: about a third as often for
    real_staffing_level's log C. Stops when the bracket
    width is <= tol or its midpoint is at floating-point resolution; value
    is then the midpoint.
    """
    lo = _require_finite(lo, "lo")
    hi = _require_finite(hi, "hi")
    if not (tol > 0.0):
        raise DomainError(f"tol must be > 0, got {tol}")
    if lo > hi:
        raise DomainError(f"need lo <= hi, got lo={lo}, hi={hi}")

    f_lo = f(lo) - target
    f_hi = f(hi) - target
    if f_lo == 0.0:
        return BracketedRoot(lo, lo, lo)
    if f_hi == 0.0:
        return BracketedRoot(hi, hi, hi)
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise BracketError(
            f"target {target} not bracketed: f({lo})={f_lo + target}, "
            f"f({hi})={f_hi + target}"
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
        if f_x == 0.0:
            return BracketedRoot(lo, hi, x)
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

    return BracketedRoot(lo, hi, 0.5 * (lo + hi))
