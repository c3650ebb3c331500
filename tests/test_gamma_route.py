"""The gamma route in Temme's normalized variables.

erlang_c_gamma forms 1/C = 1 + d*sqrt(2*pi/s)*Gamma*(s)*e**(s*eta**2/2)*Q
at every s > a, with eta**2/2 = x/s - 1 - log(x/s). For s >= 1000 and
|eta| <= 0.3 the regularized upper gamma Q comes from Temme's uniform
expansion; elsewhere from the lower-gamma series, run against the same
normalized prefactor (test_kernel_oracles.TestGammaSeries checks it on
seeded inputs). Below s ~ 5.6e-309, where the series' first term 1/s
overflows, the route raises NumericalError at once. The
references are mpmath's: the closed form with gammainc at 60 digits where
it converges, the 30-digit quadrature of the defining integral above
a = 1e6, and gammainc or a 40-digit integral for Q itself (oracles.py).
"""

import math
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hw_staffing import erlang
from hw_staffing.erlang import erlang_c_gamma
from hw_staffing.errors import NumericalError
from hw_staffing.numerics import _EPS

import oracles
import temme_coefficients

def within_bound_of_reference(s, a):
    result = erlang_c_gamma(s, a)
    want = oracles.erlang_c_gammainc(s, a)
    assert abs(result.value - want) <= result.error_bound, (s, a, result, want)
    return result


class TestCoefficientTable:
    def test_library_table_is_the_generated_one(self):
        assert erlang._TEMME_C == temme_coefficients.tables()
        assert erlang._TEMME_C4_MAX == temme_coefficients.first_omitted_bound()

    def test_known_values_at_zero(self):
        # Temme (1979), DLMF 8.12: c_0(0) .. c_3(0)
        from fractions import Fraction

        series = temme_coefficients.temme_series()
        assert [c[0] for c in series[:4]] == [
            Fraction(-1, 3), Fraction(-1, 540), Fraction(25, 6048), Fraction(101, 155520)]
        assert temme_coefficients.stirling_coefficients()[:4] == [
            1, Fraction(1, 12), Fraction(1, 288), Fraction(-139, 51840)]

    def test_generator_runs_as_a_script(self):
        script = Path(__file__).with_name("temme_coefficients.py")
        out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                             check=True, timeout=60).stdout
        assert "c_3: 9 terms" in out and repr(erlang._TEMME_C4_MAX) in out


class TestGammaStar:
    def test_against_mpmath(self):
        # Gamma*(s) = Gamma(s)/(sqrt(2*pi/s) s**s e**-s), within 5 eps from
        # s = 1e-320 through the switch to Stirling's series at 10, to 1e6
        from mpmath import mp, mpf

        rng = random.Random(3)
        for _ in range(400):
            s = 10.0 ** (rng.uniform(-320.0, 6.0) if rng.random() < 0.2 else rng.uniform(-3.0, 3.0))
            with mp.workdps(40):
                s_ = mpf(s)
                want = mp.gamma(s_) / (mp.sqrt(2 * mp.pi / s_) * s_**s_ * mp.exp(-s_))
                assert abs(erlang._gamma_star(s) - want) <= 5 * _EPS * want, s


class TestTemmeKernel:
    @pytest.mark.parametrize("s", [1e3, 1e6, 1e15])
    @pytest.mark.parametrize("ratio", [0.73, 0.999, 1.0, 1.001, 1.33])
    def test_q_against_mpmath(self, s, ratio):
        # a rounded argument moves Q by up to s*eta**2/2 times its relative
        # rounding (erfc's condition number), which the tolerance allows,
        # and below the normal range Q keeps an absolute error of a few
        # subnormal ulps
        x = s * ratio
        half_s_eta2, q, _, _, terms = erlang._upper_gamma(s, x, s - x)
        assert terms == 0  # Temme's expansion, on both sides of x = s
        want = oracles.upper_gamma_mpmath(s, x)
        tolerance = 16 * _EPS * (1.0 + half_s_eta2) * want + 16 * math.ulp(0.0)
        assert abs(q - want) <= tolerance, (s, x)

    @pytest.mark.parametrize("s", [1e15, 1e300, 1e306, sys.float_info.max])
    @pytest.mark.parametrize("beta", [0.01, 1.0, 3.0])
    def test_half_s_eta2_to_the_largest_double(self, s, beta):
        # on the staffed curves eta**2/2, about (d/s)**2/2, is subnormal from
        # s ~ 1e300; s*eta**2/2 is then d*(d/s)/2, not s times it
        from mpmath import mp, mpf

        d = beta * math.sqrt(s)
        with mp.workdps(40):  # -s*log1pmx(-u) = d*(u/2 + u**2/3 + ...), u = d/s <= 1e-7
            u = mpf(d) / mpf(s)
            want = mpf(d) * u * (mpf(1) / 2 + u / 3 + u**2 / 4)
        assert abs(erlang._upper_gamma(s, s - d, d)[0] - want) <= 4 * _EPS * want

    @pytest.mark.parametrize("s, x", [(999.0, 990.0), (1e6, 0.72e6), (1e6, 1.34e6),
                                      (1e6, 10.0), (1e6, 1e12), (1e300, 1.0)])
    def test_outside_the_switch(self, s, x):
        # below s = 1000 or past |eta| = 0.3, read from eta itself: at
        # x > s + 1 the series would not converge
        half_eta2, _ = erlang._half_eta2(s, x, s - x)
        assert s < erlang._TEMME_MIN_S or half_eta2 > erlang._TEMME_MAX_HALF_ETA2
        if x < s:
            assert erlang._upper_gamma(s, x, s - x)[4] > 0


class TestGammaRouteOnTheCurves:
    @pytest.mark.parametrize("beta", [0.1, 1.0, 3.0])
    def test_grid(self, beta):
        # a = 10**k from 1e-2 to 1e15: within its bound of mpmath, no
        # NumericalError, and at most 1e-13 relative above the switch
        for k in range(-2, 16):
            a = 10.0**k
            s = a + beta * math.sqrt(a)
            result = within_bound_of_reference(s, a)
            if s >= 1000.0:
                assert result.error_bound <= 1e-13 * result.value, (beta, a)

    @given(st.floats(min_value=0.1, max_value=3.0), st.floats(min_value=-2.0, max_value=15.0))
    @settings(max_examples=25, deadline=None)
    def test_random_points(self, beta, log10_a):
        a = 10.0**log10_a
        s = a + beta * math.sqrt(a)
        result = within_bound_of_reference(s, a)
        if s >= 1000.0:
            assert result.error_bound <= 1e-13 * result.value

    @pytest.mark.parametrize("s", [999.0, 1000.0, 1e4, 1e8])
    @pytest.mark.parametrize("ratio", [0.5, 0.72, 0.74, 0.99])
    def test_off_the_curves(self, s, ratio):
        within_bound_of_reference(s, s * ratio)

    @pytest.mark.parametrize("beta", [0.1, 0.5, 1.0, 2.0, 3.0, 3.2])
    def test_grid_below_the_switch(self, beta):
        # a = 10**(k/8) from 1e-2 up to the switch: within its bound of
        # mpmath, and at most 2e-14 relative for betas up to 3 (at 3.2 the
        # (1 + s*eta**2/2) share alone reads 2.2e-14, as above the switch)
        k = -16
        while (a := 10.0 ** (k / 8)) + beta * math.sqrt(a) < 1000.0:
            result = within_bound_of_reference(a + beta * math.sqrt(a), a)
            if beta <= 3.0:
                assert result.error_bound <= 2e-14 * result.value, (beta, a)
            k += 1

    @pytest.mark.parametrize("s", [0.5, 5.0, 50.0, 500.0, 999.0, 1e4])
    @pytest.mark.parametrize("ratio", [0.1, 0.5, 0.99])
    def test_off_the_curves_below_the_switch(self, s, ratio):
        within_bound_of_reference(s, s * ratio)

    def test_tiny_server_counts(self):
        # s from 1e-4 to 1e-2: P/Q reaches a few hundred, and the series'
        # rounding, (n + 4)*eps*P/Q in the bound, is what covers the error
        rng = random.Random(5)
        for _ in range(300):
            s = 10.0 ** rng.uniform(-4.0, -2.0)
            within_bound_of_reference(s, s * 10.0 ** rng.uniform(-3.0, -1e-9))

    @pytest.mark.parametrize("s, a", [(1e-18, 5e-19), (1e-300, 1e-301), (2e-308, 1e-308),
                                      (3e-308, 1e-310)])
    def test_where_q_falls_below_its_own_error(self, s, a):
        # 1 - P rounds to 0 below s ~ 1e-12: Q is then half the series'
        # error, with relative error 2, and C keeps a finite bound
        _, q, rel, _, _ = erlang._upper_gamma(s, a, s - a)
        assert q > 0.0 and rel == 2.0
        within_bound_of_reference(s, a)

    @pytest.mark.parametrize("s, a", [(1e-310, 1e-311), (5e-309, 1e-309)])
    def test_raises_at_once_where_one_over_s_overflows(self, s, a):
        # the series' first term 1/s is inf: no term is taken
        with pytest.raises(NumericalError, match="1/s overflows") as excinfo:
            erlang_c_gamma(s, a)
        assert excinfo.value.iterations == 0

    def test_at_the_bottom_of_the_double_range(self):
        # below s ~ 3.5e-308 2*pi/s overflows, and below 1.4e-307 s/(2*pi)
        # is subnormal; both roots are then taken as two. For s < a few
        # 1e-300, 1 - C is below s*745, far under an ulp: C is 1.0 exactly
        rng = random.Random(5)
        for _ in range(20_000):
            s = 10.0 ** rng.uniform(-308.25, -300.0)
            a = s * 10.0 ** rng.uniform(-12.0, -1e-9)
            result = erlang_c_gamma(s, a)
            assert 1.0 - result.value <= result.error_bound, (s, a, result)

    @pytest.mark.parametrize("s, a", [(2000.0, 10.0), (1e5, 100.0), (500.0, 50.0),
                                      (520.0, 52.0)])
    def test_where_the_reciprocal_prefactor_overflows(self, s, a):
        # s*eta**2/2 past 700: E is taken in logs; C is 0, or subnormal
        # at (520, 52), or near 5e-307 at (500, 50)
        assert erlang._upper_gamma(s, a, s - a)[0] > 700.0
        within_bound_of_reference(s, a)

    def test_bound_flat_above_the_switch(self):
        # the bound no longer grows with a: one figure from 1e3 to 1e15
        bounds = [erlang_c_gamma(a + math.sqrt(a), a) for a in (1e3, 1e6, 1e9, 1e15)]
        rel = [r.error_bound / r.value for r in bounds]
        assert max(rel) < 1.1 * min(rel)


def _eta_edge(s):
    """The smallest load a that the expansion takes at this s (|eta| <= 0.3)."""
    lo, hi = 0.7 * s, 0.75 * s  # outside, inside
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if erlang._upper_gamma(s, mid, s - mid)[4]:  # the series ran
            lo = mid
        else:
            hi = mid


class TestSwitch:
    def test_across_s_equals_1000(self):
        # the curve's last point below the switch and its first above
        for beta in (0.1, 1.0, 3.0):
            results = []
            for s in (math.nextafter(1000.0, 0.0), 1000.0):
                a = s - beta * math.sqrt(s)
                below = erlang._upper_gamma(s, a, s - a)[4] > 0
                assert below == (s < 1000.0)
                results.append(within_bound_of_reference(s, a))
            low, high = results
            assert abs(low.value - high.value) <= low.error_bound + high.error_bound + 1e-15

    @pytest.mark.parametrize("s", [1000.0, 1e5, 1e9])
    def test_across_eta_equals_point_3(self, s):
        inside = _eta_edge(s)
        outside = math.nextafter(inside, 0.0)
        assert erlang._upper_gamma(s, inside, s - inside)[4] == 0
        assert erlang._upper_gamma(s, outside, s - outside)[4] > 0
        a, b = within_bound_of_reference(s, inside), within_bound_of_reference(s, outside)
        # one ulp of a moves log(1/C - 1) by about ulp(a)*(1/d + 0.4), far
        # below s*ulp(s)
        moved = s * math.ulp(s) * a.value
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound + moved
        qa = erlang._upper_gamma(s, inside, s - inside)[1]
        qb = erlang._upper_gamma(s, outside, s - outside)[1]
        assert qa == pytest.approx(qb, rel=1e-12)
