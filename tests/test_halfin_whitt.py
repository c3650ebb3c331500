"""Limit formula, staffing regimes, inversions, sweeps."""

import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hw_staffing import erlang, halfin_whitt
from hw_staffing.erlang import erlang_c_slack
from hw_staffing.errors import DomainError, NumericalError
from hw_staffing.halfin_whitt import (
    beta_for_target,
    default_load_grid,
    hw_limit,
    hw_sweep,
    inverse_load,
    inverse_sweep,
    staffing,
)
from hw_staffing.numerics import normal_cdf, normal_pdf

import oracles


def _moments(beta):
    """(M_0, ..., M_4) and I_1 from the moments M_j = integral_0^inf z**j
    e**(-z**2/2 + beta*z) dz: M_0 = Phi(beta)/phi(beta), M_1 = 1 + beta*M_0
    and M_j = beta*M_(j-1) + (j - 1)*M_(j-2); I_0 = M_1 = 1/hw_limit(beta)
    and I_1 = M_4/3 - beta*M_3/2 - M_2 are the first terms of the staffed
    curve's expansion 1/C = I_0 + I_1/sqrt(a) + ... (the load-parametrized
    gap is -I_1/I_0**2)."""
    m = [normal_cdf(beta) / normal_pdf(beta)]
    m.append(1.0 + beta * m[0])
    for j in range(2, 5):
        m.append(beta * m[j - 1] + (j - 1) * m[j - 2])
    return m, m[4] / 3.0 - beta * m[3] / 2.0 - m[2]


def _k_inv(beta):
    """The inverse curve's first-order coefficient -(beta**2*M_2/2 + I_1)/I_0**2
    (_moments); putting beta*sqrt(s/a) for beta adds the beta**2*M_2/2."""
    m, i_1 = _moments(beta)
    return -(beta**2 * m[2] / 2.0 + i_1) / m[1] ** 2


class TestHwLimit:
    def test_boundary_beta_zero(self):
        assert hw_limit(0.0) == 1.0

    def test_unit_slack(self):
        assert hw_limit(1.0) == pytest.approx(oracles.HW_LIMIT_1, rel=1e-13)

    def test_frozen_spot_values(self):
        assert hw_limit(0.5) == pytest.approx(oracles.HW_LIMIT_HALF, rel=1e-13)
        assert hw_limit(2.0) == pytest.approx(oracles.HW_LIMIT_2, rel=1e-13)

    def test_large_slack_matches_asymptotic_tail(self):
        assert hw_limit(8.0) == pytest.approx(oracles.HW_LIMIT_8, rel=1e-12)
        assert hw_limit(8.0) == pytest.approx(oracles.HW_LIMIT_8_ASYMPTOTIC, rel=1e-12)

    def test_strictly_decreasing(self):
        betas = [0.01 * 10 ** (3 * k / 99) for k in range(100)]  # 0.01 .. 10
        values = [hw_limit(b) for b in betas]
        assert all(b < a for a, b in zip(values, values[1:]))

    @given(st.floats(min_value=1e-3, max_value=10.0))
    def test_in_unit_interval(self, beta):
        assert 0.0 < hw_limit(beta) < 1.0

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            hw_limit(-0.5)

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            hw_limit(math.nan)

    def test_underflows_to_zero(self):
        # phi(40) = e**-800/sqrt(2*pi) underflows
        assert hw_limit(40.0) == 0.0


class TestStaffing:
    def test_arithmetic(self):
        assert staffing(100.0, 1.0) == 110.0
        assert staffing(1.0, 2.0) == 3.0

    def test_result_exceeds_load(self):
        for a in (0.01, 1.0, 1e4):
            for beta in (0.05, 1.0, 3.0):
                assert staffing(a, beta) > a

    @pytest.mark.parametrize("beta", [0.0, -1.0])
    def test_rejects_nonpositive_slack(self, beta):
        with pytest.raises(DomainError):
            staffing(100.0, beta)


class TestInverseLoad:
    def test_arithmetic(self):
        assert inverse_load(100.0, 3.0) == 70.0
        assert inverse_load(100.0, 0.1) == 99.0

    def test_boundary_rejected(self):
        with pytest.raises(DomainError, match="beta\\*\\*2"):
            inverse_load(9.0, 3.0)

    def test_positive_result_near_boundary(self):
        a = inverse_load(9.0 + 1e-9, 3.0)
        assert a > 0.0

    @pytest.mark.parametrize("n", [math.inf, math.nan])
    def test_nonfinite_servers_rejected(self, n):
        with pytest.raises(DomainError, match="finite"):
            inverse_load(n, 1.0)

    def test_round_trip_with_staffing_is_approximate(self):
        # the two regimes parametrize the same family differently, so the
        # composition is close but not the identity
        a = 100.0
        n = staffing(a, 1.0)
        back = inverse_load(n, 1.0)
        assert back != a
        assert back == pytest.approx(a, rel=0.01)


class TestBetaForTarget:
    def test_round_trip_unit(self):
        assert beta_for_target(hw_limit(1.0)) == pytest.approx(1.0, abs=1e-9)

    def test_identity_on_range(self):
        for k in range(20):
            beta = 0.05 + (6.0 - 0.05) * k / 19
            assert beta_for_target(hw_limit(beta)) == pytest.approx(beta, abs=1e-9)

    def test_loose_target_gives_small_beta(self):
        assert beta_for_target(0.999) < 0.01

    def test_half_target_forward_check(self):
        beta = beta_for_target(0.5)
        assert hw_limit(beta) == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.2, 2.0])
    def test_domain(self, epsilon):
        with pytest.raises(DomainError):
            beta_for_target(epsilon)

    @pytest.mark.parametrize("epsilon", [5e-324, 1e-315])
    def test_target_below_the_normal_range(self, epsilon):
        with pytest.raises(DomainError, match="sys.float_info.min"):
            beta_for_target(epsilon)

    def test_within_tolerance_of_a_40_digit_root(self):
        # hw_limit(beta) = eps, taken as log(beta*Phi/phi) = log((1 - eps)/eps),
        # so that findroot's absolute tolerance cannot stop it where eps is tiny
        from mpmath import findroot, log, mpf, ncdf, npdf, workdps

        targets = ([sys.float_info.min] + [10.0**-k for k in range(300, 0, -10)]
                   + [0.0075, 0.01, 0.0103, 0.2, 0.5]
                   + [1.0 - 10.0**-k for k in range(1, 17)] + [1.0 - 2.0**-53])
        for epsilon in targets:
            beta = beta_for_target(epsilon)
            with workdps(40):
                e, b = mpf(epsilon), mpf(beta)
                root = findroot(lambda x: log(x * ncdf(x) / npdf(x)) - log((1 - e) / e),
                                (b * (1 - mpf(10) ** -6), b * (1 + mpf(10) ** -6)),
                                solver="anderson")
                assert abs(b - root) <= 1e-12, (epsilon, beta, root)


class TestSlackCorrection:
    @pytest.mark.parametrize("beta", [0.1, 0.3, 0.5, 1.0, 2.0, 3.0])
    def test_is_minus_i_1_over_m_2(self, beta):
        # the refined square-root start of real_staffing_level: a sign slip
        # there costs quadratures but no accuracy, so only this test sees it
        m, i_1 = _moments(beta)
        assert halfin_whitt._slack_correction(beta) == pytest.approx(-i_1 / m[2], rel=1e-13)


class TestHwSweep:
    def test_decreasing_above_limit(self):
        result = hw_sweep(1.0, (1.0, 10.0, 100.0, 1000.0))
        assert result.decreasing and result.gaps_positive
        assert result.verified
        for row in result.rows:
            assert row.c_value > oracles.HW_LIMIT_1
            assert row.gap > 0.0

    def test_single_point_grid(self):
        result = hw_sweep(1.0, (50.0,))
        assert result.decreasing  # vacuous but defined
        assert result.gaps_positive
        assert result.min_margin == math.inf
        assert result.min_gap == result.rows[0].gap

    def test_verdict_figures(self):
        result = hw_sweep(1.0, (1.0, 10.0, 100.0))
        x, y, z = result.rows
        assert result.min_margin == min(
            x.c_value - y.c_value - (x.error_bound + y.error_bound),
            y.c_value - z.c_value - (y.error_bound + z.error_bound),
        )
        assert result.min_gap == z.gap

    @pytest.mark.parametrize("beta", [0.1, 3.0])
    def test_other_slacks(self, beta):
        result = hw_sweep(beta, (0.5, 5.0, 50.0, 500.0))
        assert result.verified

    def test_row_consistency(self):
        result = hw_sweep(2.0, (4.0, 16.0, 64.0))
        for row in result.rows:
            assert row.s - row.a == pytest.approx(2.0 * math.sqrt(row.a), rel=1e-12)
            assert row.c_star == hw_limit(2.0)

    def test_rows_in_grid_order(self):
        grid = (1.0, 2.0, 8.0, 64.0)
        result = hw_sweep(0.5, grid)
        assert tuple(r.a for r in result.rows) == grid

    @pytest.mark.parametrize("beta", [0.1, 0.5, 1.0, 2.0, 3.0])
    def test_certified_up_to_1e15(self, beta):
        # two loads per decade from 1e-2 to 1e15: every decrement exceeds
        # the summed error bounds, and every value stays above the limit
        result = hw_sweep(beta, default_load_grid(1e-2, 1e15, 35))
        assert all(r.error is None for r in result.rows)
        assert result.verified is True

    @pytest.mark.parametrize("beta", [0.1, 1.0, 3.0])
    def test_certified_up_to_1e26(self, beta):
        # the gamma route's bound, at most 2e-14 relative, resolves the
        # decrements two decades past the quadrature's (1e24)
        assert hw_sweep(beta, default_load_grid(1.0, 1e26, 41)).verified is True

    def test_runs_no_quadrature(self, monkeypatch):
        def no_quadrature(d, a):
            raise AssertionError(f"quadrature at d={d}, a={a}")

        monkeypatch.setattr(erlang, "_quadrature", no_quadrature)
        for beta in (0.1, 1.0, 3.0):
            assert hw_sweep(beta, default_load_grid(1e-2, 1e15, 35)).verified is True

    @pytest.mark.parametrize("beta", [0.1, 0.5, 1.0, 2.0, 3.0])
    def test_rows_within_their_bound_of_mpmath(self, beta):
        # the reference takes the row's slack beta*sqrt(a) exactly, with no
        # rounded s between: a = 10**k from 1e-2 to 1e15
        from mpmath import mp, mpf

        for row in hw_sweep(beta, tuple(10.0**k for k in range(-2, 16))).rows:
            with mp.workdps(40):
                s_exact = mpf(row.a) + mpf(beta * math.sqrt(row.a))
            want = oracles.erlang_c_mpmath(s_exact, row.a)
            assert abs(row.c_value - want) <= row.error_bound, (row.a, row.c_value, want)
            assert row.error_bound <= 2e-14 * row.c_value

    @pytest.mark.parametrize("beta", [0.1, 1.0, 3.0])
    def test_rows_agree_with_the_quadrature_to_the_largest_double(self, beta):
        # measured at most 0.06 of the summed bounds on 301-point grids; from
        # about 1e300 the gamma route takes s*eta**2/2 as d*(d/s)/2
        grid = default_load_grid(1e-2, 1e300, 61) + (1e305, 1e308, sys.float_info.max)
        for row in hw_sweep(beta, grid).rows:
            c = erlang_c_slack(beta * math.sqrt(row.a), row.a)
            assert abs(row.c_value - c.value) <= 0.25 * (row.error_bound + c.error_bound), row

    def test_per_point_failures_recorded_not_raised(self, monkeypatch):
        def failing_gamma(s, d, a):  # the route hw_sweep's rows take
            raise NumericalError(f"stopped on purpose at a={a}", iterations=0)

        monkeypatch.setattr(halfin_whitt, "_gamma", failing_gamma)
        result = hw_sweep(1.0, (1.0, 10.0))
        assert len(result.rows) == 2
        assert all(r.error is not None and r.c_value is None for r in result.rows)
        # grid-wide claims are indeterminate once a row has failed
        assert result.decreasing is None and result.gaps_positive is None
        assert result.verified is None

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            hw_sweep(1.0, (1.0, 1.0))
        with pytest.raises(DomainError):
            hw_sweep(1.0, ())
        with pytest.raises(DomainError):
            hw_sweep(0.0, (1.0, 2.0))
        with pytest.raises(DomainError, match="positive"):
            hw_sweep(1.0, [0.0, 1.0])


class TestInverseSweep:
    def test_rows_follow_regime(self):
        result = inverse_sweep(3.0, (9.5, 20.0, 100.0, 500.0))
        assert result.decreasing is None and result.gaps_positive is None
        assert result.verified is None
        for row in result.rows:
            assert row.a == pytest.approx(row.s - 3.0 * math.sqrt(row.s), rel=1e-12)
            assert 0.0 < row.c_value < 1.0

    def test_near_boundary_load_vanishes(self):
        result = inverse_sweep(1.0, (1.0 + 1e-7, 2.0))
        first = result.rows[0]
        assert first.a < 1e-6
        assert first.c_value < 1e-6

    def test_rows_carry_no_limit(self):
        for row in inverse_sweep(1.0, (4.0, 40.0)).rows:
            assert row.c_star is None and row.gap is None
        for row in hw_sweep(1.0, (4.0, 40.0)).rows:
            assert row.c_star == hw_limit(1.0)
            assert row.gap == row.c_value - row.c_star

    def test_boundary_grid_rejected(self):
        with pytest.raises(DomainError):
            inverse_sweep(3.0, (9.0, 20.0))

    @pytest.mark.parametrize("beta", [0.01, 0.1, 0.5, 1.0, 2.0, 3.0, 10.0])
    def test_rows_within_summed_bounds_of_the_quadrature(self, beta):
        # the rows take the gamma route; the quadrature, at the same slack
        # beta*sqrt(s), was measured within 0.087 of the summed bounds here
        # (at beta = 10 the first row's C underflows to 0 on both routes)
        grid = default_load_grid(beta**2 * (1.0 + 1e-9), 1e15, 300)
        for row in inverse_sweep(beta, grid).rows:
            c = erlang_c_slack(beta * math.sqrt(row.s), row.a)
            assert abs(row.c_value - c.value) <= 0.5 * (row.error_bound + c.error_bound), row

    @pytest.mark.parametrize("beta", [0.1, 0.5, 1.0, 1.5, 2.0, 3.0])
    def test_first_order_term_at_1e8_servers(self, beta):
        # C(s, s - beta*sqrt(s)) = hw_limit(beta) + k_inv(beta)/sqrt(s) + O(1/s)
        s = 1e8
        d = beta * math.sqrt(s)
        gap = (erlang_c_slack(d, s - d).value - hw_limit(beta)) * math.sqrt(s)
        assert abs(gap - _k_inv(beta)) <= 2e-5, (gap, _k_inv(beta))

    def test_first_order_term_changes_sign_at_beta_c(self):
        # above beta_c = 0.638833 the curve rises toward the limit from
        # below; under it, it ends falling toward the limit from above
        assert _k_inv(0.6) > 0.0 > _k_inv(0.7)
        assert _k_inv(0.638833) > 0.0 > _k_inv(0.638834)

    @pytest.mark.parametrize("beta", [0.1, 1.0])
    def test_on_the_curve_at_large_server_counts(self, beta):
        # the reference sits at the exact curve point a = s - beta*sqrt(s),
        # not at its rounding to a double, which is off the curve by up to
        # 0.06 at s = 1e15
        from mpmath import mp, mpf

        for row in inverse_sweep(beta, (1e14, 1e15)).rows:
            with mp.workdps(40):
                a_exact = mpf(row.s) - mpf(beta) * mp.sqrt(mpf(row.s))
            want = oracles.erlang_c_mpmath(row.s, a_exact)
            assert abs(row.c_value - want) <= row.error_bound, (row.s, row.c_value, want)

    def test_default_load_grid_shape(self):
        grid = default_load_grid(0.01, 1e4, 40)
        assert len(grid) == 40
        assert grid[0] == 0.01 and grid[-1] == 1e4
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_default_load_grid_single_point(self):
        assert default_load_grid(3.0, 3.0, 1) == (3.0,)

    def test_default_load_grid_single_point_ignores_hi(self):
        assert default_load_grid(3.0, 1.0, 1) == (3.0,)

    def test_default_load_grid_evenly_spaced(self):
        grid = default_load_grid(9.5, 500.0, 200, log_spaced=False)
        step = (500.0 - 9.5) / 199
        assert grid == tuple(9.5 + step * i for i in range(199)) + (500.0,)
        assert default_load_grid(-1.0, 1.0, 3, log_spaced=False) == (-1.0, 0.0, 1.0)

    @pytest.mark.parametrize("lo,hi", [(math.nan, 10.0), (-math.inf, 10.0), (1.0, math.nan)])
    def test_default_load_grid_rejects_nonfinite_bounds(self, lo, hi):
        for log_spaced in (True, False):
            with pytest.raises(DomainError, match="bounds must be finite"):
                default_load_grid(lo, hi, 5, log_spaced)

    def test_default_load_grid_rejects_zero_lo(self):
        with pytest.raises(DomainError, match="lo > 0"):
            default_load_grid(0.0, 10.0, 5)

    def test_default_load_grid_rejects_negative_lo(self):
        with pytest.raises(DomainError, match="lo > 0"):
            default_load_grid(-1.0, 10.0, 5)

    def test_default_load_grid_rejects_nonfinite_hi(self):
        with pytest.raises(DomainError, match="finite"):
            default_load_grid(1.0, math.inf, 5)

    def test_default_load_grid_rejects_hi_below_lo(self):
        with pytest.raises(DomainError, match="hi > lo"):
            default_load_grid(10.0, 1.0, 5)

    def test_default_load_grid_rejects_equal_ends_for_many_points(self):
        with pytest.raises(DomainError, match="hi > lo"):
            default_load_grid(2.0, 2.0, 3)

    def test_default_load_grid_rejects_zero_points(self):
        with pytest.raises(DomainError, match="points"):
            default_load_grid(1.0, 10.0, 0)

    @pytest.mark.parametrize("points", [10**6 + 1, 10**400])
    def test_default_load_grid_points_have_a_ceiling(self, points):
        # 10**400 raised OverflowError, and a million points is the grid's ceiling
        with pytest.raises(DomainError, match="^points must be a positive integer no larger than"):
            default_load_grid(1.0, 2.0, points)

    def test_default_load_grid_rejects_fractional_points(self):
        with pytest.raises(DomainError, match="points"):
            default_load_grid(1.0, 10.0, 2.5)
