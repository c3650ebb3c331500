"""Delay probabilities, three ways, against the exact rational oracle."""

import math
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
    @pytest.mark.parametrize("a", [1e33, 1e40, 1e100, 1e200, 1e298])
    def test_staffed_curve_at_extreme_loads(self, a, beta):
        # the width's curvature factor 1 - (a + d - 1)/(sqrt(a) + z)**2
        # rounds to zero or below here unless taken without cancellation;
        # the curve has reached its limit to rounding
        result = erlang_c_slack(beta * math.sqrt(a), a)
        assert abs(result.value - hw_limit(beta)) <= result.error_bound


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
        # each scan step reruns the O(a) recurrence, so the target stays loose
        assert min_servers(1e5, 0.9) == self._scan(1e5, 0.9)
        # and tighter targets are checked at the answer and one below it
        for epsilon in (0.5, 0.2, 1e-3):
            n = min_servers(1e5, epsilon)
            assert erlang_c_integer(n, 1e5).value <= epsilon
            assert erlang_c_integer(n - 1, 1e5).value > epsilon


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

    def test_quadratures_per_call(self, monkeypatch):
        calls = []

        def counted(s, a):
            calls.append(s)
            return erlang_c_real(s, a)

        monkeypatch.setattr(erlang, "erlang_c_real", counted)
        per_call = []
        for a in (1.0, 7.0, 50.0, 400.0, 3e3, 2e4, 1e5):
            for epsilon in (1e-3, 0.01, 0.05, 0.2, 0.5):
                calls.clear()
                s = real_staffing_level(a, epsilon)
                assert erlang_c_real(s, a).value == pytest.approx(epsilon, rel=1e-6)
                per_call.append(len(calls))
        assert max(per_call) <= 24
        assert sorted(per_call)[len(per_call) // 2] <= 12

    def test_no_level_evaluated_twice(self, monkeypatch):
        # the bracket's ends are where the solver starts: C there is reused
        calls = []

        def counted(s, a):
            calls.append(s)
            return erlang_c_real(s, a)

        monkeypatch.setattr(erlang, "erlang_c_real", counted)
        for a in (1.0, 7.0, 50.0, 400.0, 3e3, 2e4, 1e5):
            for epsilon in (1e-3, 0.01, 0.05, 0.2, 0.5):
                calls.clear()
                real_staffing_level(a, epsilon)
                assert len(calls) == len(set(calls)), (a, epsilon, calls)

    @pytest.mark.parametrize("a,epsilon,s", [
        (1e8, 0.5, 100005060.70027193),
        (1e8, 1e-3, 100031154.52119488),
        (1e12, 0.5, 1000000506054.6245),
        (1e12, 0.2, 1000001061516.6582),
        (1e12, 1e-3, 1000003115262.0745),
    ])
    def test_tolerance_below_float_spacing(self, a, epsilon, s):
        # the doubles near s are 1.5e-8 (a = 1e8) and 1.2e-4 (a = 1e12)
        # apart, wider than tol = 1e-9: the root is the double at which C
        # crosses epsilon, as monotone bisection found it
        assert real_staffing_level(a, epsilon) == s

    @pytest.mark.parametrize("a", [4.0, 1e4])
    def test_target_near_underflow(self, a):
        # C underflows to 0 on the way to the bracket: log C is then -inf
        s = real_staffing_level(a, 1e-300)
        assert erlang_c_real(s, a).value == pytest.approx(1e-300, rel=1e-7)
