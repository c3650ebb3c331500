"""The auxiliary variables X_a, Y_a: densities, tails, rewrite, ordering."""

import math
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hw_staffing import erlang
from hw_staffing.erlang import erlang_c_real, erlang_c_slack
from hw_staffing.errors import DomainError
from hw_staffing.halfin_whitt import staffing
from hw_staffing.numerics import integrate_semi_infinite
from hw_staffing.proof_kit import (
    cdf_x,
    check_stochastic_order,
    density_g,
    density_y,
    h,
    h_series,
    moment_y,
    tail_y,
    tail_y_via_h,
)
from hw_staffing.verify import _log_density_y_in_t

import oracles


# Loads from 1e-2 to the top of the double range.
_LOADS = (1e-2, 1.0, 1e4, 1e8, 1e15, 1e20, 1e50, 1e100, 1e300)


def _geom_grid(lo, hi, points):
    r = math.log(hi / lo) / (points - 1)
    return [lo * math.exp(r * i) for i in range(points)]


def _log(f):
    return lambda t: math.log(f(t)) if f(t) > 0.0 else -math.inf


def _x_peak(a):
    # X_a's density is 1/C's integrand at s = a: erlang's peak, moved from
    # log z to log t, as verify takes it
    z, width = erlang._peak(0.0, a)
    return math.log(z / math.sqrt(a)), width


class TestDensityG:
    def test_zero_at_origin(self):
        assert density_g(0.0, 3.0) == 0.0

    def test_unit_point(self):
        assert density_g(1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    @pytest.mark.parametrize("a", [0.5, 1.0, 10.0, 100.0])
    def test_normalizes_to_one(self, a):
        total = integrate_semi_infinite(_log(lambda t: density_g(t, a)), *_x_peak(a))
        assert total == pytest.approx(1.0, abs=1e-10)

    @given(
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_nonnegative(self, t, a):
        assert density_g(t, a) >= 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            density_g(-0.1, 1.0)
        with pytest.raises(DomainError):
            density_g(1.0, 0.0)


class TestCdfX:
    def test_zero_at_origin(self):
        assert cdf_x(0.0, 5.0) == 0.0

    def test_tail_vanishes(self):
        assert cdf_x(1e6, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert cdf_x(math.inf, 1.0) == 1.0

    def test_unit_point(self):
        assert cdf_x(1.0, 1.0) == pytest.approx(oracles.CDF_X_1_1, rel=1e-14)

    def test_derivative_matches_density(self):
        step = 1e-6
        for a in (0.5, 1.0, 4.0, 30.0):
            for x in (0.05, 0.3, 1.0, 2.5):
                diff = (cdf_x(x + step, a) - cdf_x(x - step, a)) / (2 * step)
                assert diff == pytest.approx(density_g(x, a), abs=1e-6), (a, x)

    @given(
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_in_unit_interval(self, x, a):
        # mathematically < 1, but a survival below eps/2 rounds the CDF to 1.0
        assert 0.0 <= cdf_x(x, a) <= 1.0

    def test_strictly_below_one_while_tail_representable(self):
        for a in (0.5, 2.0, 20.0):
            for x in (0.1, 1.0, 3.0):
                assert cdf_x(x, a) < 1.0

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            cdf_x(-1.0, 1.0)


class TestDensityY:
    def test_vanishes_at_lower_boundary(self):
        assert density_y(1.0 + 1e-13, 2.0) < 1e-10

    def test_value_at_e_for_unit_load(self):
        assert density_y(math.e, 1.0) == pytest.approx(oracles.DENSITY_Y_E_1, rel=1e-13)

    @pytest.mark.parametrize("a", [1.0, 4.0, 25.0])
    def test_normalizes_to_one(self, a):
        # in t = y**(1/sqrt(a)) - 1, where Y's density times dy/dt is X's
        total = integrate_semi_infinite(lambda t: _log_density_y_in_t(t, a), *_x_peak(a))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_matches_negative_tail_derivative(self):
        for a in (1.0, 4.0, 25.0):
            for y in (1.5, 2.0, 5.0, 20.0):
                step = 1e-5 * y
                diff = (tail_y(y + step, a) - tail_y(y - step, a)) / (2 * step)
                assert -diff == pytest.approx(density_y(y, a), abs=1e-6), (a, y)

    def test_vanishes_at_infinity(self):
        assert density_y(math.inf, 1.0) == 0.0

    @pytest.mark.parametrize("y, a", [(1e300, 0.25), (1e200, 0.01)])
    def test_zero_where_x_overflows(self, y, a):
        # log(y)/sqrt(a) > 710: x = e**(log(y)/sqrt(a)) - 1 overflowed (an
        # OverflowError before), and the density is far below the smallest
        assert density_y(y, a) == 0.0

    def test_rejects_boundary(self):
        with pytest.raises(DomainError):
            density_y(1.0, 2.0)
        with pytest.raises(DomainError):
            density_y(0.5, 2.0)


class TestTailY:
    def test_full_mass_at_one(self):
        for a in (0.25, 1.0, 50.0):
            assert tail_y(1.0, a) == 1.0

    def test_frozen_points(self):
        assert tail_y(2.0, 1.0) == pytest.approx(oracles.TAIL_Y_2_1, rel=1e-14)
        assert tail_y(2.0, 4.0) == pytest.approx(oracles.TAIL_Y_2_4, rel=1e-14)

    def test_ordering_visible_at_y_two(self):
        assert tail_y(2.0, 4.0) > tail_y(2.0, 1.0)

    def test_strictly_decreasing_in_y(self):
        # grid top kept where the tail is still representable for the
        # smallest load (underflowed zeros cannot decrease strictly)
        for a in (0.5, 1.0, 9.0):
            ys = _geom_grid(1.0001, 30.0, 60)
            values = [tail_y(y, a) for y in ys]
            assert all(b < a_ for a_, b in zip(values, values[1:]))

    def test_vanishes_at_infinity(self):
        assert tail_y(1e9, 1.0) < 1e-200 or tail_y(1e9, 1.0) == 0.0
        assert tail_y(math.inf, 1.0) == 0.0

    def test_consistency_chain_with_cdf(self):
        # tail_y(y, a) == 1 - cdf_x(y**(1/sqrt(a)) - 1, a): same kernel
        for a in (0.25, 1.0, 9.0, 100.0):
            for y in _geom_grid(1.01, 50.0, 15):
                x = math.expm1(math.log(y) / math.sqrt(a))
                assert tail_y(y, a) == pytest.approx(1.0 - cdf_x(x, a), abs=1e-13)

    def test_rejects_below_one(self):
        with pytest.raises(DomainError):
            tail_y(0.999, 1.0)

    @pytest.mark.parametrize("a", _LOADS)
    def test_matches_mpmath_at_every_load(self, a):
        # the log tail a*(log1p(x) - x) cancels unless taken through
        # log1pmx: a*log1p(x) - a*x was off by 6.8e-7 at 1e20; the
        # reference needs log10(a) + 40 digits, or it reads 1.0 at 1e300
        import mpmath

        with mpmath.workdps(40 + max(0, int(math.log10(a)))):
            for y in (1.01, 1.5, 3.0, 30.0, 1e3):
                x = mpmath.expm1(mpmath.log(y) / mpmath.sqrt(a))
                log_tail = a * (mpmath.log1p(x) - x)
                want = float(mpmath.exp(log_tail))
                tol = 1e-15 * (1.0 + abs(float(log_tail)))
                assert tail_y(y, a) == pytest.approx(want, rel=tol, abs=0.0), (a, y)

    @pytest.mark.parametrize("y, a", [(1e10, 1e-4), (1e35, 0.01), (1.0 + 2**-52, 1e-40)])
    def test_zero_where_h_overflows(self, y, a):
        # log(y)/sqrt(a) > 710: e**(log(y)/sqrt(a)) - 1 overflows a double
        # (an OverflowError before), and the tail is far below the smallest
        assert h(math.sqrt(a) / math.log(y)) == -math.inf
        assert tail_y(y, a) == 0.0
        assert tail_y_via_h(y, a) == 0.0


class TestH:
    def test_unit_value(self):
        assert h(1.0) == pytest.approx(oracles.H_AT_1, rel=1e-14)

    def test_half_value(self):
        assert h(0.5) == pytest.approx(oracles.H_AT_HALF, rel=1e-14)

    def test_two_value(self):
        assert h(2.0) == pytest.approx(oracles.H_AT_2, rel=1e-14)

    def test_large_argument_approaches_minus_half(self):
        assert h(1000.0) == pytest.approx(oracles.H_AT_1000, rel=1e-13)
        assert h(1e6) == pytest.approx(-0.5, abs=1e-5)

    def test_strictly_increasing(self):
        xs = _geom_grid(0.01, 1e3, 120)
        values = [h(x) for x in xs]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_bounded_above_by_minus_half(self):
        for x in _geom_grid(0.01, 1e3, 120):
            assert h(x) < -0.5 + 1e-12

    def test_series_switch_is_seamless(self):
        below = h(20.0 * (1.0 - 1e-12))
        above = h(20.0 * (1.0 + 1e-12))
        assert below == pytest.approx(above, abs=1e-12)
        assert h(20.0) == pytest.approx(h_series(20.0, 30), abs=1e-12)

    def test_below_exp_overflow(self):
        # e**(1/x) overflows below x ~ 1/710 (an OverflowError before); h
        # stays finite to x ~ 1/723 and is -inf below
        import mpmath

        with mpmath.workdps(30):
            for x in (1.0 / 711.0, 1.0 / 720.0, 1.0 / 722.5):
                exact = x + x * x * (1 - mpmath.exp(1 / mpmath.mpf(x)))
                assert h(x) == pytest.approx(float(exact), rel=1e-13), x
        for x in (1.0 / 724.0, 1e-3, 1e-300, 5e-324):
            assert h(x) == -math.inf, x
        values = [h(1.0 / k) for k in range(730, 700, -1)]  # x increasing
        finite = [v for v in values if v > -math.inf]
        assert values[: len(values) - len(finite)] == [-math.inf] * (len(values) - len(finite))
        assert all(b > a for a, b in zip(finite, finite[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            h(0.0)
        with pytest.raises(DomainError):
            h(-2.0)


class TestHSeries:
    def test_single_term(self):
        assert h_series(7.3, 1) == -0.5

    def test_telescopes_to_two_minus_e(self):
        assert h_series(1.0, 30) == pytest.approx(2.0 - math.e, abs=1e-14)

    def test_matches_closed_form(self):
        for x in _geom_grid(1.0, 20.0, 25):
            assert h_series(x, 30) == pytest.approx(h(x), abs=1e-12), x

    def test_frozen_switch_value(self):
        assert h_series(20.0, 30) == pytest.approx(oracles.H_SERIES_20_30, rel=1e-14)

    def test_stopped_sum_is_the_full_loop_to_the_bit(self):
        # from x = 1 each term is at most a third of the last: the sum stops
        # where one no longer changes it, with the bits of all 30
        def full_loop(x, terms):
            power, factorial, total = 1.0, 2.0, 0.0
            for n in range(terms):
                total += power / factorial
                power /= x
                factorial *= n + 3.0
            return -total

        for x in _geom_grid(1.0, 1e3, 40):
            assert h_series(x, 30) == full_loop(x, 30), x

    def test_overflowing_power_is_not_nan(self):
        # x**-n overflowed, then inf/inf: both returned nan. At x = 0.001 the
        # 200-term sum is finite, and the full one is -inf, as h is there
        from mpmath import factorial, fsum, mp, mpf

        assert h_series(0.5, 2000) == pytest.approx(h(0.5), rel=1e-15)
        with mp.workdps(50):
            want = -fsum(mpf(0.001) ** -n / factorial(n + 2) for n in range(200))
        assert h_series(0.001, 200) == pytest.approx(float(want), rel=1e-14)
        assert h_series(0.001, 10**6) == h(0.001) == -math.inf

    @pytest.mark.parametrize("x", [0.002, 0.005, 0.01, 0.0124, 0.0125])
    def test_below_one_eightieth_against_mpmath(self, x):
        # x**-n would overflow before the terms fall: the factorial is
        # divided into it on the way, and the sum is h to 1e-14, not -inf
        from mpmath import expm1, mp, mpf

        with mp.workdps(50):
            want = float(mpf(x) + mpf(x) ** 2 * -expm1(1 / mpf(x)))
        assert h_series(x, 10**6) == pytest.approx(want, rel=1e-14)
        assert h_series(x, 1000) == h_series(x, 10**6)

    def test_any_term_count_ends(self):
        start = time.perf_counter()
        assert h_series(2.0, 10**400) == h_series(2.0, 30)
        assert h_series(0.02, 10**400) == pytest.approx(h(0.02), rel=1e-12)
        assert time.perf_counter() - start < 0.1

    def test_domain(self):
        with pytest.raises(DomainError):
            h_series(1.0, 0)
        with pytest.raises(DomainError):
            h_series(0.0, 5)

    @pytest.mark.parametrize("terms", [2.5, True, 5.0, 0, -3])
    def test_terms_must_be_an_integer(self, terms):
        with pytest.raises(DomainError, match="^terms must be a positive integer"):
            h_series(2.0, terms)


class TestTailRewrite:
    def test_identity_at_two_one(self):
        assert tail_y_via_h(2.0, 1.0) == pytest.approx(tail_y(2.0, 1.0), rel=1e-13)

    def test_simplification_at_e(self):
        for a in (0.5, 1.0, 9.0):
            assert tail_y_via_h(math.e, a) == pytest.approx(
                math.exp(h(math.sqrt(a))), rel=1e-13
            )

    def test_equivalence_on_grid(self):
        # load floor 0.5 keeps every tail above the double underflow line
        worst = 0.0
        for y in _geom_grid(1.1, 100.0, 20):
            for a in _geom_grid(0.5, 1000.0, 20):
                reference = tail_y(y, a)
                worst = max(worst, abs(tail_y_via_h(y, a) - reference) / reference)
        assert worst <= 1e-12

    def test_rejects_boundary(self):
        with pytest.raises(DomainError):
            tail_y_via_h(1.0, 1.0)


@pytest.mark.parametrize("a", [1e-2, 4.0, 1e300])
def test_points_past_the_double_range_read_their_limits(a):
    # y or x is an integer that float() cannot hold: it is checked and then
    # taken by math.log as given, or read as past every double
    y = 10**400
    assert cdf_x(y, a) == 1.0
    assert density_y(y, a) == 0.0
    assert tail_y(y, a) == 0.0
    assert tail_y_via_h(y, a) == 0.0
    assert check_stochastic_order(a, 2.0 * a, (2.0, y)).passed


class TestMomentY:
    def test_vanishing_slack_gives_unit_moment(self):
        assert moment_y(2.0, 1e-9) == pytest.approx(1.0, abs=1e-6)

    def test_unit_case_is_three(self):
        assert moment_y(1.0, 1.0) == pytest.approx(3.0, rel=1e-10)

    def test_reciprocal_matches_delay_probability(self):
        for a in (1.0, 10.0, 100.0):
            for beta in (0.5, 1.0, 3.0):
                c = erlang_c_real(staffing(a, beta), a).value
                assert 1.0 / moment_y(a, beta) == pytest.approx(c, rel=1e-8), (a, beta)
        # through Y's tail the moment holds at every load; in t it raised
        # from 1e12, where its mass sits near the scan's floor t = 2**-52
        for a in _LOADS:
            for beta in (0.1, 0.5, 1.0, 2.0, 3.0):
                c = erlang_c_slack(beta * math.sqrt(a), a).value
                assert 1.0 / moment_y(a, beta) == pytest.approx(c, rel=4e-15), (a, beta)

    @pytest.mark.parametrize("a", [10.0**k for k in range(-60, -1)] + [1e-310, 5e-324])
    def test_tiny_loads(self, a):
        # the mass sits near u = sqrt(a)*log(1/a), below 2**-52 from a ~ 1e-36
        # (the peak scan raised from 1e-29 to 1e-10, and found nothing below);
        # against the closed form at 60 digits, and within the quadrature
        # route's own bound
        from mpmath import mp, mpf

        with mp.workdps(60):
            s = mpf(a) + mp.sqrt(mpf(a))
        want = oracles.erlang_c_gammainc(s, a)
        got = 1.0 / moment_y(a, 1.0)
        assert got == pytest.approx(want, rel=4e-16)
        c = erlang_c_slack(math.sqrt(a), a)
        assert abs(got - c.value) <= c.error_bound

    def test_at_least_one(self):
        for a in (0.5, 5.0):
            for beta in (0.1, 2.0):
                assert moment_y(a, beta) >= 1.0

    @pytest.mark.parametrize("beta", [1e3, 1e6])
    def test_overflowing_moment_is_inf(self, beta):
        # log E[Y**beta] is about beta**2/2, far past the double range: inf
        # from the peak's reading, before a quadrature whose two sums the
        # exponent's rounding (about beta**2/2*eps relative) keeps apart
        for k in range(1, 308, 6):
            assert moment_y(10.0**k, beta) == math.inf, (k, beta)


_LARGE_LOAD_PAIRS = ((1e15, 1e20), (1e20, 1e50), (1e100, 1e300))


class TestStochasticOrder:
    def test_ordered_pair_passes(self):
        report = check_stochastic_order(1.0, 4.0, _geom_grid(1.01, 50.0, 40))
        assert report.passed
        assert report.violations == ()
        # (1e15, 1e20) reported a violation while the tail cancelled
        for a_low, a_high in _LARGE_LOAD_PAIRS:
            report = check_stochastic_order(a_low, a_high, _geom_grid(1.01, 50.0, 40))
            assert report.passed, (a_low, a_high)

    def test_equal_loads_pass_trivially(self):
        grid = _geom_grid(1.1, 10.0, 10)
        report = check_stochastic_order(2.0, 2.0, grid)
        assert report.passed

    def test_swapped_pair_reports_everywhere(self):
        grid = _geom_grid(1.1, 10.0, 10)
        report = check_stochastic_order(4.0, 1.0, grid)
        assert not report.passed
        assert len(report.violations) == len(grid)
        # the log tails differ by about u**3/(6*sqrt(a)), u = log y: seen
        # up to 1e50, and below rounding between 1e100 and 1e300
        grid = _geom_grid(1.01, 50.0, 40)
        for a_low, a_high in _LARGE_LOAD_PAIRS[:2]:
            assert not check_stochastic_order(a_high, a_low, grid).passed, (a_low, a_high)
        swapped = check_stochastic_order(1e300, 1e100, grid)
        assert swapped.passed and abs(swapped.worst_excess) <= 1e-15

    def test_worst_excess_matches_violations(self):
        grid = _geom_grid(1.1, 10.0, 10)
        swapped = check_stochastic_order(4.0, 1.0, grid)
        excesses = [lo - hi for _, lo, hi in swapped.violations]
        assert swapped.worst_excess == max(excesses) > 0.0
        ordered = check_stochastic_order(1.0, 4.0, grid)
        assert ordered.violations == ()
        assert ordered.worst_excess == max(tail_y(y, 1.0) - tail_y(y, 4.0) for y in grid)
        assert ordered.worst_excess <= 0.0
        assert check_stochastic_order(1.0, 4.0, []).worst_excess == -math.inf

    def test_tail_nondecreasing_in_load(self):
        loads = [0.5 * 2.0 ** k for k in range(12)]
        for y in (1.05, 2.0, 10.0, 80.0):
            values = [tail_y(y, a) for a in loads]
            assert all(b >= a for a, b in zip(values, values[1:])), y

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            check_stochastic_order(1.0, 2.0, [0.9, 1.5])
        with pytest.raises(DomainError):
            check_stochastic_order(1.0, 2.0, [2.0, 1.5])

