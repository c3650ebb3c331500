"""Delay probabilities, three ways, against the exact rational oracle."""

import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hw_staffing import erlang, numerics
from hw_staffing.erlang import (
    Method,
    erlang_b_integer,
    erlang_c_gamma,
    erlang_c_integer,
    erlang_c_real,
    erlang_c_slack,
    min_servers,
    real_staffing_level,
)
from hw_staffing.errors import DomainError, NumericalError
from hw_staffing.halfin_whitt import hw_limit

import oracles


class TestErlangB:
    def test_recurrence_base(self):
        assert erlang_b_integer(0, 2.7) == 1.0

    def test_single_server(self):
        assert erlang_b_integer(1, 1.0) == pytest.approx(0.5, rel=1e-15)

    def test_five_servers_load_four(self):
        expected = float(oracles.erlang_b_exact(5, Fraction(4)))  # 128/643
        assert erlang_b_integer(5, 4.0) == pytest.approx(expected, rel=1e-14)

    def test_strictly_decreasing_in_n(self):
        values = [erlang_b_integer(n, 7.0) for n in range(0, 30)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_matches_exact_oracle_on_grid(self):
        for n in (1, 2, 3, 5, 8, 13, 21, 40):
            for num, den in ((1, 2), (3, 4), (7, 5), (9, 2)):
                a = Fraction(num, den)
                expected = float(oracles.erlang_b_exact(n, a))
                assert erlang_b_integer(n, num / den) == pytest.approx(
                    expected, rel=1e-13
                ), (n, a)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            erlang_b_integer(-1, 1.0)
        with pytest.raises(DomainError):
            erlang_b_integer(2, 0.0)

    @pytest.mark.parametrize("n", [math.inf, math.nan, True, False, 2.5])
    def test_server_count_domain(self, n):
        # inf and nan used to escape as OverflowError and a bare ValueError
        with pytest.raises(DomainError, match="^server count must be a nonnegative integer"):
            erlang_b_integer(n, 1.0)

    def test_integral_float_count(self):
        assert erlang_b_integer(5.0, 4.0) == erlang_b_integer(5, 4.0)

    def test_underflow_stops_the_recurrence(self):
        # 10**12 steps would take hours; B reaches 0.0 near k = 2a, past
        # its subnormal runs, and the recurrence stops there
        start = time.perf_counter()
        assert erlang_b_integer(10**12, 1e4) == 0.0
        assert time.perf_counter() - start < 1.0


# Loads across the warm start's threshold K**2 = 100 (k0 = 0 up to a = 100,
# k0 = 24 at 144) and up to 1e6.
_WARM_START_LOADS = (99.0, 100.0, 101.0, 144.0, 1000.5, 12345.678, 1e5, 1e6)


class TestErlangBWarmStart:
    @staticmethod
    def _counts(a):
        r = math.sqrt(a)
        fl = math.floor(a)
        k0 = math.floor(a - 10.0 * r)
        counts = {0, 1, k0 // 2, fl, fl + 1, fl + math.floor(50.0 * r)}
        for c in (-1, 0, 1):
            counts |= {math.floor(a - 10.0 * r) + c, math.floor(a + 10.0 * r) + c}
        return sorted(n for n in counts if n >= 0)

    @pytest.mark.parametrize("a", _WARM_START_LOADS)
    def test_bit_identical_to_full_recurrence(self, a):
        # the start 10*sqrt(a) below min(n, a) and the stop at underflow
        # leave the double unchanged, for n below the load's own start k0
        # (k0 // 2 starts below itself), around k0 and a + 10*sqrt(a), and
        # far above a, where B has underflowed
        for n in self._counts(a):
            assert erlang_b_integer(n, a) == oracles.erlang_b_full(n, a), (n, a)

    def test_min_servers_matches_full_pass(self):
        # min_servers as it was with the recurrence run from k = 1
        def full_pass(a, epsilon):
            n = math.floor(a)
            b = oracles.erlang_b_full(n, a)
            while True:
                n += 1
                b = a * b / (n + a * b)
                rho = a / n
                if b / (1.0 - rho * (1.0 - b)) <= epsilon * (1.0 + 1e-12):
                    return n

        rng = random.Random(20261018)
        for _ in range(400):
            a = 10.0 ** rng.uniform(0.0, 6.0)
            epsilon = 10.0 ** rng.uniform(-4.0, math.log10(0.9))
            assert min_servers(a, epsilon) == full_pass(a, epsilon), (a, epsilon)


# Loads for the subnormal tail, and server counts past the normal range:
# about 38 and 45 multiples of sqrt(a) above the load, around 2*round(a),
# where 5e-324 rounds to 0.0, and 3a, past it.
_TAIL_LOADS = (1000.5, 1001.5, 12345.678, 1e5)


class TestErlangBSubnormalTail:
    @pytest.mark.parametrize("a", _TAIL_LOADS)
    def test_bit_identical_to_full_recurrence(self, a):
        r = math.sqrt(a)
        two_a = 2 * round(a)
        counts = [
            math.floor(a + 38.0 * r),
            math.floor(a + 45.0 * r),
            two_a - 1,
            two_a,
            two_a + 1,
            math.floor(3.0 * a),
        ]
        for n in counts:
            assert erlang_b_integer(n, a) == oracles.erlang_b_full(n, a), (n, a)

    def test_far_past_the_load_is_fast(self):
        # stepping every k to 2e8, where B leaves 5e-324 for 0.0, took 30 s
        start = time.perf_counter()
        assert erlang_c_integer(10**15, 1e8).value == 0.0
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("a", [5.0, 1e4])
    def test_counts_past_the_float_range(self, a):
        # float(n) overflows; the jumps probe no k far past the end of a run
        assert erlang_b_integer(10**400, a) == 0.0


class TestErlangCInteger:
    def test_single_server_equals_load(self):
        for a in (0.1, 0.5, 0.9, 0.999):
            assert erlang_c_integer(1, a).value == pytest.approx(a, rel=1e-13)

    def test_two_servers_unit_load(self):
        assert erlang_c_integer(2, 1.0).value == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_five_servers_load_four(self):
        expected = float(oracles.erlang_c_exact(5, Fraction(4)))  # 128/231
        assert erlang_c_integer(5, 4.0).value == pytest.approx(expected, rel=1e-13)

    def test_matches_exact_oracle_on_grid(self):
        for n in (1, 2, 4, 7, 12, 30, 75):
            for rho_num, rho_den in ((1, 10), (1, 2), (4, 5), (19, 20)):
                a = Fraction(n) * Fraction(rho_num, rho_den)
                expected = float(oracles.erlang_c_exact(n, a))
                got = erlang_c_integer(n, float(a)).value
                assert got == pytest.approx(expected, rel=1e-12), (n, a)

    def test_two_exact_oracles_agree(self):
        # recurrence-based and direct-sum rationals are equal exactly
        for n in (1, 2, 5, 9, 24):
            for a in (Fraction(1, 2), Fraction(3, 4) * n, Fraction(9, 10) * n):
                assert oracles.erlang_c_exact(n, a) == oracles.erlang_c_direct_sum(n, a)

    def test_instability_raises(self):
        with pytest.raises(DomainError):
            erlang_c_integer(3, 3.0)
        with pytest.raises(DomainError):
            erlang_c_integer(3, 3.5)

    @pytest.mark.parametrize("n", [math.inf, math.nan, True, 0, 2.5])
    def test_server_count_domain(self, n):
        with pytest.raises(DomainError, match="^server count must be a positive integer"):
            erlang_c_integer(n, 0.5)

    def test_metadata(self):
        result = erlang_c_integer(5, 4.0)
        assert result.method is Method.INTEGER_RECURRENCE
        assert result.error_bound == 1e-13

    @given(
        st.integers(min_value=1, max_value=120),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=150)
    def test_bounds_and_dominance(self, n, rho):
        a = n * rho
        c = erlang_c_integer(n, a).value
        b = erlang_b_integer(n, a)
        assert 0.0 < c <= 1.0
        assert c >= b


class TestErlangCReal:
    def test_matches_integer_at_two(self):
        assert erlang_c_real(2.0, 1.0).value == pytest.approx(1.0 / 3.0, rel=1e-10)

    def test_tiny_load_single_server(self):
        assert erlang_c_real(1.0, 1e-6).value == pytest.approx(1e-6, rel=1e-9)

    def test_hw_point_between_limit_and_unit_load_value(self):
        value = erlang_c_real(110.0, 100.0).value
        assert oracles.HW_LIMIT_1 < value < 1.0 / 3.0
        assert value == pytest.approx(oracles.C_110_100, rel=1e-11)

    def test_integer_agreement_on_grid(self):
        for n in (1, 2, 5, 10, 20, 50, 100):
            for rho in (0.1, 0.3, 0.5, 0.7, 0.9, 0.95):
                a = n * rho
                reference = erlang_c_integer(n, a).value
                got = erlang_c_real(float(n), a).value
                assert got == pytest.approx(reference, rel=1e-10), (n, rho)

    def test_fractional_servers_spot_value(self):
        assert erlang_c_real(5.5, 4.0).value == pytest.approx(oracles.C_55_4, rel=1e-11)

    def test_strictly_decreasing_in_s(self):
        values = [erlang_c_real(10.0 + 0.5 * k, 10.0).value for k in range(1, 21)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_validity_error_quotes_condition(self):
        with pytest.raises(DomainError, match="0 < a < s"):
            erlang_c_real(2.0, 2.0)

    def test_error_bound_reported(self):
        result = erlang_c_real(7.0, 4.0)
        assert result.method is Method.QUADRATURE
        assert 0.0 < result.error_bound < 1e-10 * result.value


# The square-root-staffed curves of the paper: five slacks, loads from
# 1e-2 to 1e15 at two points per decade.
_HW_BETAS = (0.1, 0.5, 1.0, 2.0, 3.0)
_HW_LOADS = tuple(10.0 ** (k / 2) for k in range(-4, 31))
# Loads checked against the mpmath oracle.
_ORACLE_LOADS = (1e-2, 1.0, 1e2, 1e5, 1e8, 1e11, 1e13, 1e15)


class TestErlangCRealWork:
    def test_evaluations_on_halfin_whitt_grid(self):
        counts = [
            erlang_c_real(a + beta * math.sqrt(a), a).evaluations
            for beta in _HW_BETAS
            for a in _HW_LOADS
        ]
        assert 0 < min(counts) and max(counts) <= 150

    def test_evaluations_at_five_servers(self):
        assert 0 < erlang_c_real(5.0, 4.0).evaluations <= 150

    def test_other_routes_count_no_evaluations(self):
        assert erlang_c_integer(5, 4.0).evaluations == 0
        assert erlang_c_gamma(5.0, 4.0).evaluations == 0

    def test_non_convergent_input_raises_within_evaluation_cap(self, monkeypatch):
        # no double-precision sum agrees to 1e-30: the quadrature gives up
        # after its documented 4096 evaluations, with its best estimate
        monkeypatch.setattr(numerics, "_REL_TOL", 1e-30)
        with pytest.raises(NumericalError) as excinfo:
            erlang_c_real(5.0, 4.0)
        err = excinfo.value
        assert 0 < err.iterations <= 4096
        assert 1.0 / err.estimate == pytest.approx(
            float(oracles.erlang_c_exact(5, Fraction(4))), rel=1e-12
        )
        assert err.error_bound > 0.0

    def test_overflowing_reciprocal_gives_zero(self):
        # 1/C(2000, 10) is about e**8600
        result = erlang_c_real(2000.0, 10.0)
        assert result.value == 0.0 and result.error_bound == 0.0


class TestErlangCRealLargeLoads:
    @pytest.mark.parametrize("beta", [0.1, 1.0, 3.0])
    def test_within_own_bound_of_mpmath(self, beta):
        for a in _ORACLE_LOADS:
            s = a + beta * math.sqrt(a)
            result = erlang_c_real(s, a)
            want = oracles.erlang_c_mpmath(s, a)
            assert abs(result.value - want) <= result.error_bound, (beta, a)
            assert 0.0 < result.error_bound <= 1e-13 * result.value, (beta, a)

    def test_slack_route_matches_real_route(self):
        for a, d in ((4.0, 1.0), (100.0, 10.0), (1e10, 3e5)):
            got = erlang_c_slack(d, a)
            want = erlang_c_real(a + d, a)
            assert got.value == pytest.approx(want.value, rel=1e-13)
            assert got.method is Method.QUADRATURE

    @pytest.mark.parametrize("d,a", [(0.0, 4.0), (-1.0, 4.0), (math.inf, 4.0), (math.nan, 4.0),
                                     (1.0, 0.0), (1.0, math.inf)])
    def test_slack_domain(self, d, a):
        with pytest.raises(DomainError):
            erlang_c_slack(d, a)

    def test_slack_below_the_resolution_of_s(self):
        # a + d rounds to a, yet C(a + d, a) stays well defined, near 1
        result = erlang_c_slack(0.25, 1e16)
        assert 1.0 - 1e-6 < result.value < 1.0

    @pytest.mark.parametrize("beta", [0.1, 1.0, 3.0])
    @pytest.mark.parametrize(
        "a", [1e33, 1e40, 1e100, 1e200, 1e298, 2e307, 1e308, sys.float_info.max]
    )
    def test_staffed_curve_at_extreme_loads(self, a, beta):
        # the width's curvature factor 1 - (a + d - 1)/(sqrt(a) + z)**2
        # rounds to zero or below here unless taken without cancellation,
        # and from 2e307 the peak's (d + 1)**2 + 8a overflows; the curve
        # has reached its limit to rounding
        result = erlang_c_slack(beta * math.sqrt(a), a)
        assert abs(result.value - hw_limit(beta)) <= result.error_bound

    @pytest.mark.parametrize(
        "route, first, a",
        [
            (erlang_c_real, 1e155, 2.0),
            (erlang_c_real, sys.float_info.max, 1.0),
            (erlang_c_real, sys.float_info.max, 1e308),
            (erlang_c_slack, 1e300, 1e10),
            (erlang_c_slack, 1e307, sys.float_info.max),
            (erlang_c_slack, 1e153, 1.0),
            (erlang_c_slack, 1.3e154, 1.0),
        ],
    )
    def test_slack_far_past_overflow_gives_zero(self, route, first, a):
        # (d + 1)**2 overflows, and the peak and width from u = (d + 1)/sqrt(a)
        # raised a bare ValueError or OverflowError; 1/C is far past overflow.
        # The last two spent 4 096 evaluations and raised NumericalError;
        # the exponent at the peak now shows the overflow without a quadrature
        result = route(first, a)
        assert result.value == 0.0 and result.error_bound == 0.0
        assert result.evaluations == 0

    @pytest.mark.parametrize("d, a", [(1e-5, 1e-310), (1.0, 5e-324), (1e10, 1e-300),
                                      (1e150, 1e-300)])
    def test_tiny_loads_fail_typed_after_one_evaluation(self, d, a):
        # z_peak ~ 1/sqrt(a) or d/sqrt(a) passes 1.3e154, where the width
        # raised a bare OverflowError; x = z/sqrt(a) overflows at the peak
        with pytest.raises(NumericalError) as excinfo:
            erlang_c_slack(d, a)
        assert excinfo.value.iterations == 1

    @pytest.mark.parametrize("a, slacks", [(1.0, (170.0, 185.0)), (1e4, (38.0, 45.0)),
                                           (1e8, (36.0, 41.0))])
    def test_peak_overflow_check_spares_every_representable_value(self, a, slacks):
        # the check before integrating returns C = 0 untried; across its
        # threshold in d/sqrt(a) it must fire only where mpmath puts C
        # below the least subnormal, 5e-324 (the check is monotone in d)
        from mpmath import mpf

        lo, hi = slacks
        grid = [math.sqrt(a) * (lo + (hi - lo) * k / 400) for k in range(401)]
        untried = [erlang_c_slack(d, a).evaluations == 0 for d in grid]
        first = untried.index(True)
        assert 0 < first and all(untried[first:])
        assert oracles.erlang_c_mpmath(mpf(a) + mpf(grid[first]), a) < 5e-324


class TestErlangCGamma:
    def test_matches_integer_at_two(self):
        assert erlang_c_gamma(2.0, 1.0).value == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_matches_quadrature(self):
        for s, a in ((110.0, 100.0), (5.5, 4.0), (3.2, 0.5), (500.0, 475.0)):
            quad = erlang_c_real(s, a).value
            assert erlang_c_gamma(s, a).value == pytest.approx(quad, rel=1e-10), (s, a)

    def test_slack_to_zero_approaches_one(self):
        assert erlang_c_gamma(5.0 + 1e-9, 5.0).value == pytest.approx(1.0, abs=1e-6)

    def test_near_underflow_spot_value(self):
        assert erlang_c_gamma(500.0, 50.0).value == pytest.approx(
            oracles.C_500_50, rel=1e-10
        )

    def test_instability_raises(self):
        with pytest.raises(DomainError):
            erlang_c_gamma(4.0, 4.0)

    @pytest.mark.parametrize("beta", [0.1, 1.0, 3.0])
    def test_within_own_bound_of_mpmath(self, beta):
        # the rounding of the closed form grows with a; up to the series
        # cap near a = 1.8e6 the reported bound must grow with it
        for a in (1e-2, 1.0, 1e2, 2.5e2, 1e3, 1e4, 1e5, 1e6):
            s = a + beta * math.sqrt(a)
            result = erlang_c_gamma(s, a)
            want = oracles.erlang_c_mpmath(s, a)
            assert 0.0 < result.error_bound, (beta, a)
            assert abs(result.value - want) <= result.error_bound, (beta, a)


class TestThreeWayAgreement:
    @given(
        st.integers(min_value=1, max_value=200),
        st.floats(min_value=0.05, max_value=0.97),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_points(self, n, rho):
        a = n * rho
        recurrence = erlang_c_integer(n, a).value
        quadrature = erlang_c_real(float(n), a).value
        gamma = erlang_c_gamma(float(n), a).value
        assert quadrature == pytest.approx(recurrence, rel=1e-10)
        assert gamma == pytest.approx(recurrence, rel=1e-10)


class TestMinServers:
    def test_examples(self):
        assert min_servers(4.0, 0.6) == 5
        assert min_servers(4.0, 0.5) == 6

    def test_loose_target_gives_smallest_stable(self):
        for a in (0.3, 4.0, 17.5, 230.0):
            assert min_servers(a, 1.0 - 1e-9) == math.floor(a) + 1

    def test_result_is_minimal(self):
        for a, epsilon in ((4.0, 0.5), (25.0, 0.2), (117.3, 0.01)):
            n = min_servers(a, epsilon)
            assert erlang_c_integer(n, a).value <= epsilon
            if n - 1 > a:
                assert erlang_c_integer(n - 1, a).value > epsilon

    def test_exact_boundary_accepted(self):
        # C(n, a) == epsilon counts as meeting the target
        target = erlang_c_integer(7, 5.0).value
        assert min_servers(5.0, target) == 7

    def test_round_trip_with_slack(self):
        for n, a in ((3, 2.2), (10, 8.0), (40, 35.0), (150, 140.0)):
            epsilon = erlang_c_integer(n, a).value * (1.0 + 1e-9)
            assert min_servers(a, epsilon) == n

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.1, 1.5])
    def test_target_domain(self, epsilon):
        with pytest.raises(DomainError):
            min_servers(4.0, epsilon)

    @staticmethod
    def _scan(a, epsilon):
        # first n > a whose own erlang_c_integer value meets the target,
        # with the same tie allowance as min_servers
        n = math.floor(a) + 1
        while erlang_c_integer(n, a).value > epsilon * (1.0 + 1e-12):
            n += 1
        return n

    def test_matches_brute_force_scan(self):
        for a in (0.05, 0.7, 1.0, 3.5, 12.0, 99.9, 640.0):
            for epsilon in (0.9, 0.5, 0.2, 0.05, 1e-3, 1e-8):
                assert min_servers(a, epsilon) == self._scan(a, epsilon), (a, epsilon)

    def test_matches_brute_force_scan_on_exact_boundaries(self):
        for a, n in ((0.7, 2), (4.0, 6), (99.9, 112), (640.0, 700)):
            target = erlang_c_integer(n, a).value
            assert min_servers(a, target) == self._scan(a, target) == n
            below = target * (1.0 - 1e-9)
            assert min_servers(a, below) == self._scan(a, below) == n + 1

    def test_matches_brute_force_scan_at_large_load(self):
        # each scan step reruns the recurrence, so the target stays loose
        assert min_servers(1e5, 0.9) == self._scan(1e5, 0.9)
        # and tighter targets are checked at the answer and one below it
        for epsilon in (0.5, 0.2, 1e-3):
            n = min_servers(1e5, epsilon)
            assert erlang_c_integer(n, 1e5).value <= epsilon
            assert erlang_c_integer(n - 1, 1e5).value > epsilon


    @pytest.mark.parametrize("a", [1e8, 1e10])
    @pytest.mark.parametrize("epsilon", [0.5, 0.2, 1e-3])
    def test_bracketed_by_quadrature_at_large_loads(self, a, epsilon):
        # the warm-started recurrence reaches these loads in O(sqrt(a))
        # steps; the quadrature, within its bound, confirms the answer
        n = min_servers(a, epsilon)
        at, below = erlang_c_real(float(n), a), erlang_c_real(float(n - 1), a)
        assert at.value - at.error_bound <= epsilon * (1.0 + 1e-12), (n, at)
        assert below.value + below.error_bound > epsilon, (n, below)


class TestRealStaffingLevel:
    def test_round_trip_integer_point(self):
        target = float(oracles.erlang_c_exact(5, Fraction(4)))
        assert real_staffing_level(4.0, target) == pytest.approx(5.0, abs=1e-8)

    def test_round_trip_fractional_points(self):
        for s, a in ((5.5, 4.0), (12.25, 10.0), (110.0, 100.0)):
            epsilon = erlang_c_real(s, a).value
            assert real_staffing_level(a, epsilon) == pytest.approx(s, abs=1e-6)

    def test_loose_target_approaches_load(self):
        s = real_staffing_level(9.0, 1.0 - 1e-9)
        assert s == pytest.approx(9.0, rel=1e-6)

    def test_consistency_with_min_servers(self):
        for a, epsilon in ((4.0, 0.5), (30.0, 0.15)):
            s = real_staffing_level(a, epsilon)
            assert min_servers(a, epsilon) == math.ceil(s - 1e-9)

    @staticmethod
    def _count_quadratures(monkeypatch):
        # the solver reaches C through erlang_c_slack, one quadrature a call
        calls = []

        def counted(d, a):
            calls.append(d)
            return erlang_c_slack(d, a)

        monkeypatch.setattr(erlang, "erlang_c_slack", counted)
        return calls

    def test_quadratures_per_call(self, monkeypatch):
        calls = self._count_quadratures(monkeypatch)
        per_call = []
        for a in (1.0, 7.0, 50.0, 400.0, 3e3, 2e4, 1e5):
            for epsilon in (1e-3, 0.01, 0.05, 0.2, 0.5):
                calls.clear()
                s = real_staffing_level(a, epsilon)
                assert erlang_c_real(s, a).value == pytest.approx(epsilon, rel=1e-6)
                per_call.append(len(calls))
        assert max(per_call) <= 14
        assert sorted(per_call)[len(per_call) // 2] <= 10

    @pytest.mark.parametrize("a", [1e7, 1e8, 1e10, 1e12])
    @pytest.mark.parametrize("epsilon", [1e-2, 1e-6])
    def test_quadratures_at_large_loads(self, monkeypatch, a, epsilon):
        # the tolerance widens with the doubles near s, so the solver stops
        # short of bisecting to floating-point resolution
        calls = self._count_quadratures(monkeypatch)
        s = real_staffing_level(a, epsilon)
        assert len(calls) <= 14, calls
        assert erlang_c_slack(s - a, a).value == pytest.approx(epsilon, rel=1e-5)

    def test_no_level_evaluated_twice(self, monkeypatch):
        # the bracket's upper end is where the solver starts: C there is reused
        calls = self._count_quadratures(monkeypatch)
        for a in (1.0, 7.0, 50.0, 400.0, 3e3, 2e4, 1e5):
            for epsilon in (1e-3, 0.01, 0.05, 0.2, 0.5):
                calls.clear()
                real_staffing_level(a, epsilon)
                assert calls and len(calls) == len(set(calls)), (a, epsilon, calls)
                assert 0.0 not in calls  # C(a, a) = 1 needs no quadrature

    @pytest.mark.parametrize("a,epsilon,s", [
        (1e8, 0.5, 100005060.70027193),
        (1e8, 1e-3, 100031154.52119488),
        (1e12, 0.5, 1000000506054.6245),
        (1e12, 0.2, 1000001061516.6582),
        (1e12, 1e-3, 1000003115262.0745),
    ])
    def test_tolerance_below_float_spacing(self, a, epsilon, s):
        # the doubles near s are 1.5e-8 (a = 1e8) and 1.2e-4 (a = 1e12)
        # apart, wider than 1e-9: the tolerance is then 2*ulp(a), and the
        # root stays within it of the double at which C crosses epsilon,
        # as bisection to floating-point resolution found it
        tol = 2.0 * math.ulp(a)
        got = real_staffing_level(a, epsilon)
        assert abs(got - s) <= tol
        # C(got) misses epsilon by at most its own error bound plus the
        # slope of C times the width the root is pinned to
        c = oracles.erlang_c_mpmath
        slope = (c(got - tol, a) - c(got + tol, a)) / (2.0 * tol)
        bound = erlang_c_real(got, a).error_bound
        assert abs(c(got, a) - epsilon) <= bound + slope * tol

    @pytest.mark.parametrize("a", [4.0, 1e4])
    def test_target_near_underflow(self, a):
        # C underflows to 0 on the way to the bracket: log C is then -inf
        s = real_staffing_level(a, 1e-300)
        assert erlang_c_real(s, a).value == pytest.approx(1e-300, rel=1e-7)
