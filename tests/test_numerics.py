"""Foundation module: special functions, quadrature, bisection."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hw_staffing import numerics
from hw_staffing.errors import BracketError, DomainError, NumericalError
from hw_staffing.numerics import (
    BracketedRoot,
    bisect_monotone,
    integrate_semi_infinite,
    log1pmx,
    normal_cdf,
    normal_pdf,
    upper_gamma_regularized,
)

import oracles


class TestNormalPdf:
    def test_at_zero(self):
        assert normal_pdf(0.0) == pytest.approx(oracles.PDF_AT_0, rel=1e-15)

    def test_at_one(self):
        assert normal_pdf(1.0) == pytest.approx(oracles.PDF_AT_1, rel=1e-15)

    @given(st.floats(min_value=-30, max_value=30, allow_nan=False))
    def test_symmetry(self, x):
        assert normal_pdf(x) == normal_pdf(-x)

    @given(st.floats(min_value=-30, max_value=30, allow_nan=False))
    def test_positive(self, x):
        assert normal_pdf(x) > 0.0

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError):
            normal_pdf(bad)


class TestNormalCdf:
    def test_at_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_high_precision_table(self):
        for x, expected in oracles.PHI_TABLE:
            assert normal_cdf(x) == pytest.approx(expected, rel=1e-15), x

    @given(st.floats(min_value=-8, max_value=8, allow_nan=False))
    def test_reflection(self, x):
        assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-15)

    def test_nondecreasing_on_grid(self):
        xs = [-8 + 0.05 * i for i in range(321)]
        values = [normal_cdf(x) for x in xs]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_pdf_is_cdf_derivative(self):
        step = 1e-4
        for i in range(-50, 51):
            x = i / 10.0
            diff = (normal_cdf(x + step) - normal_cdf(x - step)) / (2 * step)
            assert diff == pytest.approx(normal_pdf(x), abs=1e-6)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError):
            normal_cdf(bad)


class TestUpperGammaRegularized:
    def test_exponential_special_case(self):
        for x in (0.1, 1.0, 2.5, 7.0):
            assert upper_gamma_regularized(1.0, x) == pytest.approx(
                math.exp(-x), rel=1e-14
            )

    def test_full_mass_at_zero(self):
        for s in (0.3, 1.0, 4.5, 200.0):
            assert upper_gamma_regularized(s, 0.0) == 1.0

    def test_frozen_spot_values(self):
        assert upper_gamma_regularized(5.0, 5.0) == pytest.approx(oracles.Q_5_5, rel=1e-12)
        assert upper_gamma_regularized(0.5, 0.3) == pytest.approx(oracles.Q_HALF_03, rel=1e-12)
        assert upper_gamma_regularized(3.7, 9.2) == pytest.approx(oracles.Q_37_92, rel=1e-12)
        assert upper_gamma_regularized(250.0, 240.0) == pytest.approx(
            oracles.Q_250_240, rel=1e-12
        )

    def test_against_quadrature_definition(self):
        # Q(s, x) = integral_x^inf t**(s-1) e**-t dt / Gamma(s)
        for s in (0.7, 2.0, 5.0, 11.5, 40.0):
            for x in (0.2, 1.0, 5.0, 12.0, 60.0):
                lg = math.lgamma(s)

                def log_integrand(u, s=s, x=x, lg=lg):
                    t = x + u
                    if t <= 0.0:
                        return -math.inf
                    return (s - 1.0) * math.log(t) - t - lg

                reference = integrate_semi_infinite(log_integrand)
                assert upper_gamma_regularized(s, x) == pytest.approx(
                    reference, rel=1e-12, abs=1e-300
                ), (s, x)

    def test_monotone_in_x(self):
        for s in (0.5, 3.0, 50.0):
            values = [upper_gamma_regularized(s, 0.25 * k) for k in range(60)]
            assert all(b <= a for a, b in zip(values, values[1:]))

    def test_monotone_in_s(self):
        for x in (0.5, 4.0, 20.0):
            values = [upper_gamma_regularized(0.5 + 0.5 * k, x) for k in range(60)]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            upper_gamma_regularized(0.0, 1.0)
        with pytest.raises(DomainError):
            upper_gamma_regularized(2.0, -0.5)


class TestIntegrateSemiInfinite:
    def test_unit_exponential(self):
        assert integrate_semi_infinite(lambda t: -t) == pytest.approx(1.0, rel=1e-12)

    def test_gamma_two(self):
        value = integrate_semi_infinite(lambda t: math.log(t) - t if t > 0 else -math.inf)
        assert value == pytest.approx(1.0, rel=1e-12)

    def test_gamma_family(self):
        for k in range(1, 11):
            def log_integrand(t, k=k):
                if t <= 0.0:
                    return -math.inf if k > 1 else 0.0
                return (k - 1) * math.log(t) - t

            value = integrate_semi_infinite(log_integrand)
            assert value == pytest.approx(math.factorial(k - 1), rel=numerics._REL_TOL * 10), k

    def test_delay_integrand_spot_value(self):
        # a*t*(1+t)**(s-1)*e**(-a*t) at s=2, a=1 integrates to 3 = 1/C(2,1)
        def log_integrand(t):
            if t <= 0.0:
                return -math.inf
            return math.log(t) + math.log1p(t) - t

        assert integrate_semi_infinite(log_integrand) == pytest.approx(3.0, rel=1e-12)

    def test_extreme_positive_shift(self):
        value = integrate_semi_infinite(lambda t: 600.0 + math.log(t) - t if t > 0 else -math.inf)
        assert value == pytest.approx(math.exp(600.0), rel=1e-11)

    def test_extreme_negative_shift(self):
        value = integrate_semi_infinite(lambda t: -600.0 - t)
        assert value == pytest.approx(math.exp(-600.0), rel=1e-11)

    def test_refinement_cap_raises_with_estimate(self, monkeypatch):
        monkeypatch.setattr(numerics, "_REL_TOL", 1e-30)

        def kinked(t):  # corner at t = 3: no sum agrees to 1e-30 within the cap
            return -abs(t - 3.0) * 7.0

        with pytest.raises(NumericalError) as excinfo:
            integrate_semi_infinite(kinked)
        err = excinfo.value
        assert err.estimate is not None
        assert err.error_bound is not None and err.error_bound > 0.0

    def test_identically_zero_integrand(self):
        assert integrate_semi_infinite(lambda t: -math.inf) == 0.0

    @pytest.mark.parametrize("centre", [0.37, 1.0, 3.0, 200.0])
    def test_narrow_peak_correct_or_raises(self, centre):
        # lognormal spike of log-width 1e-3, off the scan's powers of two:
        # integral of exp(-(log t - mu)**2/(2 w**2)) dt = sqrt(2 pi) w e**(mu + w**2/2)
        mu, w = math.log(centre), 1e-3

        def log_integrand(t):
            if t <= 0.0:
                return -math.inf
            return -0.5 * ((math.log(t) - mu) / w) ** 2

        exact = math.sqrt(2.0 * math.pi) * w * math.exp(mu + 0.5 * w * w)
        try:
            value = integrate_semi_infinite(log_integrand)
        except NumericalError:
            return  # refusing is allowed; a wrong value is not
        assert value == pytest.approx(exact, rel=1e-12)

    def test_non_convergent_input_stops_at_evaluation_cap(self, monkeypatch):
        # no double-precision sum agrees to 1e-30; the quadrature must give
        # up after its documented 4096 evaluations
        monkeypatch.setattr(numerics, "_REL_TOL", 1e-30)
        with pytest.raises(NumericalError) as excinfo:
            integrate_semi_infinite(lambda t: -t)
        err = excinfo.value
        assert 0 < err.iterations <= 4096
        assert err.estimate == pytest.approx(1.0, rel=1e-12)
        assert err.error_bound > 0.0

    def test_mass_below_smallest_node_raises(self):
        # t**-0.9 e**-t keeps a share t**0.1/0.1 ~ 3% of its mass below 2**-52
        def log_integrand(t):
            return -0.9 * math.log(t) - t if t > 0.0 else -math.inf

        with pytest.raises(NumericalError):
            integrate_semi_infinite(log_integrand)


class TestLog1pmx:
    def test_matches_mpmath(self):
        from mpmath import mp, mpf

        with mp.workdps(40):
            for k in range(-60, 9):
                for x in (2.0 ** (k / 2), -0.9 * 2.0 ** (k / 2)):
                    if x <= -1.0:
                        continue
                    want = float(mp.log1p(mpf(x)) - mpf(x))
                    assert log1pmx(x) == pytest.approx(want, rel=8e-16), x

    def test_zero(self):
        assert log1pmx(0.0) == 0.0



class TestBisectMonotone:
    def test_identity(self):
        root = bisect_monotone(lambda x: x, 0.0, 1.0, 0.5, 1e-12)
        assert root.value == pytest.approx(0.5, abs=1e-12)
        assert root.lo <= root.value <= root.hi

    def test_square(self):
        root = bisect_monotone(lambda x: x * x, 0.0, 10.0, 4.0, 1e-10)
        assert root.value == pytest.approx(2.0, abs=1e-9)

    def test_normal_cdf_inverse(self):
        root = bisect_monotone(normal_cdf, 0.0, 8.0, oracles.CDF_AT_1, 1e-11)
        assert root.value == pytest.approx(1.0, abs=1e-10)

    def test_decreasing_function(self):
        root = bisect_monotone(lambda x: -x, 0.0, 4.0, -1.5, 1e-12)
        assert root.value == pytest.approx(1.5, abs=1e-11)

    def test_bracket_width_bound(self):
        root = bisect_monotone(lambda x: x ** 3, 0.0, 9.0, 20.0, 1e-6)
        assert root.hi - root.lo <= 1e-6

    def test_missing_bracket_names_endpoints(self):
        with pytest.raises(BracketError) as excinfo:
            bisect_monotone(lambda x: x, 0.0, 1.0, 5.0, 1e-9)
        message = str(excinfo.value)
        assert "0.0" in message and "1.0" in message

    def test_result_type(self):
        def f(x):
            return x

        root = bisect_monotone(f, 0.0, 1.0, 0.25, 1e-9)
        assert isinstance(root, BracketedRoot)
        assert abs(f(root.value) - 0.25) <= 1e-9


def _bisection_evaluations(lo, hi, tol):
    """Evaluations plain bisection spends: both ends, and one per halving
    until the bracket is tol wide (or at float resolution)."""
    count = 2
    while hi - lo > tol and lo < 0.5 * (lo + hi) < hi:
        hi = 0.5 * (lo + hi)
        count += 1
    return count


def _steep_tanh(x):
    return math.tanh(1e6 * (x - 0.3))


class TestBisectMonotoneWork:
    # (f, lo, hi, targets, exact root of f(x) = target)
    CASES = {
        "exp": (math.exp, -700.0, 700.0, (1e-300, 1e-100, 2.0, 1e100, 1e300), math.log),
        "x**25": (lambda x: x**25, 0.0, 2.0, (1e-150, 1e-20, 0.5, 1e7), lambda y: y ** (1 / 25)),
        "tanh": (_steep_tanh, 0.0, 1.0, (-0.999, -0.5, 0.5, 0.999999),
                 lambda y: 0.3 + math.atanh(y) / 1e6),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    def test_never_two_evaluations_worse_than_bisection(self, name, tol):
        f, lo, hi, targets, root_of = self.CASES[name]
        for target in targets:
            calls = []
            root = bisect_monotone(lambda x: calls.append(x) or f(x), lo, hi, target, tol)
            assert root.hi - root.lo <= tol, (target, root)
            assert abs(root.value - root_of(target)) <= tol, (target, root)
            assert len(calls) <= _bisection_evaluations(lo, hi, tol) + 2, (target, len(calls))

    def test_smooth_function_takes_far_fewer_evaluations(self):
        calls = []
        root = bisect_monotone(lambda x: calls.append(x) or math.log(x), 1.0, 1e4, 2.0, 1e-12)
        assert root.value == pytest.approx(math.exp(2.0), abs=1e-12)
        assert len(calls) <= _bisection_evaluations(1.0, 1e4, 1e-12) // 2

    def test_infinite_end_value_falls_back_to_midpoint(self):
        # the regula falsi point is undefined while f(hi) is -inf
        root = bisect_monotone(lambda x: -math.inf if x > 3.0 else -x, 0.0, 10.0, -2.5, 1e-9)
        assert root.value == pytest.approx(2.5, abs=1e-9)

    def test_tolerance_below_float_spacing(self):
        # near 1e8 the doubles are 1.5e-8 apart: lo + tol/2 rounds to lo, and
        # the bracket ends on the adjacent doubles around the root 1e8 + 1/3
        root = bisect_monotone(lambda x: x - 1e8, 1e8, 1e8 + 1.0, 1.0 / 3.0, 1e-9)
        assert root.lo - 1e8 < 1.0 / 3.0 < root.hi - 1e8
        assert math.nextafter(root.lo, math.inf) == root.hi
        assert root.value in (root.lo, root.hi)
