"""High-precision references for the benchmark's correctness checks.

Nothing here calls ``hw_staffing``. The delay probability comes from a
40-digit mpmath quadrature of the continuous-server integral written in the
Halfin-Whitt variable z = sqrt(a)*t:

    1/C(s, a) = integral_0^inf z * exp((s - 1)*log1p(z/sqrt(a)) - sqrt(a)*z) dz.

For s = a + beta*sqrt(a) the integrand peaks near z = beta whatever the
load, so one breakpoint layout serves every load from 1e-2 to 1e15. (The
incomplete-gamma route of mpmath cannot serve: ``mpmath.gammainc`` stops
converging near a = 1e11.) Values are cached by input, because the
benchmark repeats its request set and several checks share a point.
"""

from __future__ import annotations

import importlib.util
from fractions import Fraction
from pathlib import Path

from mpmath import mp, mpf

DIGITS = 40
# The reference must be good to far below any double-precision bound.
_MAX_REL_ERROR = mpf("1e-30")


class ReferenceFailure(RuntimeError):
    """The reference itself could not be evaluated to its accuracy target."""


class Reference:
    """Cached 40-digit reference values."""

    def __init__(self):
        self._delay = {}
        self._limit = {}

    def delay(self, s: float, a: float):
        """C(s, a) for real s > a > 0, as an mpf."""
        key = (float(s), float(a))
        if key not in self._delay:
            self._delay[key] = _delay(*key)
        return self._delay[key]

    def limit(self, beta: float):
        """hw_limit(beta) = 1/(1 + beta*Phi(beta)/phi(beta)), as an mpf."""
        beta = float(beta)
        if beta not in self._limit:
            with mp.workdps(DIGITS):
                b = mpf(beta)
                self._limit[beta] = 1 / (1 + b * mp.ncdf(b) / mp.npdf(b))
        return self._limit[beta]

    def limit_slope(self, beta: float):
        """d hw_limit / d beta by a central difference at 40 digits."""
        with mp.workdps(DIGITS):
            b = mpf(beta)
            h = mpf("1e-15")

            def lim(x):
                return 1 / (1 + x * mp.ncdf(x) / mp.npdf(x))

            return (lim(b + h) - lim(b - h)) / (2 * h)

    def staffing(self, a: float, beta: float):
        """a + beta*sqrt(a) from the exact doubles, as an mpf."""
        with mp.workdps(DIGITS):
            return mpf(a) + mpf(beta) * mp.sqrt(mpf(a))


def _delay(s: float, a: float):
    if not (s > a > 0.0):
        raise ReferenceFailure(f"reference needs s > a > 0, got s={s!r}, a={a!r}")
    with mp.workdps(DIGITS):
        s_ = mpf(s)
        a_ = mpf(a)
        r = mp.sqrt(a_)
        s1 = s_ - 1

        def integrand(z):
            return z * mp.exp(s1 * mp.log1p(z / r) - r * z)

        # Peak of the log-integrand: r*z**2 - (s - a)*z - r = 0.
        d = s_ - a_
        z_peak = (d + mp.sqrt(d * d + 4 * a_)) / (2 * r)
        width = 1 / mp.sqrt(1 / z_peak**2 + s1 / (r + z_peak) ** 2)
        points = [0, z_peak, z_peak + 8 * width, z_peak + 30 * width, mp.inf]
        value, error = mp.quad(integrand, points, error=True)
        if not (value > 0) or error > _MAX_REL_ERROR * value:
            raise ReferenceFailure(
                f"reference quadrature missed its target at s={s!r}, a={a!r}: "
                f"value {mp.nstr(value, 8)}, error {mp.nstr(error, 3)}"
            )
        return 1 / value


def self_check(checkout: Path, reference: Reference):
    """Compare the reference with the exact-rational recurrence at small n.

    The recurrence lives in the test suite's oracles (tests/oracles.py);
    rational arithmetic makes it exact for any rational load.
    """
    path = checkout / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("hw_staffing_test_oracles", path)
    if spec is None or not path.is_file():
        raise ReferenceFailure(f"cannot load the exact oracle from {path}")
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    for n, a in ((1, 0.5), (5, 4.0), (10, 9.0), (20, 2.0), (50, 45.0), (100, 99.5)):
        exact = oracles.erlang_c_exact(n, Fraction(a))
        with mp.workdps(DIGITS):
            want = mpf(exact.numerator) / exact.denominator
            got = reference.delay(float(n), a)
            if abs(got - want) > mpf("1e-32") * want:
                raise ReferenceFailure(
                    f"reference disagrees with the exact recurrence at n={n}, a={a}: "
                    f"{mp.nstr(got, 20)} vs {mp.nstr(want, 20)}"
                )
