"""Limit formula, staffing regimes, inversions, sweeps."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hw_staffing import numerics
from hw_staffing.errors import DomainError
from hw_staffing.halfin_whitt import (
    Regime,
    beta_for_target,
    default_load_grid,
    hw_limit,
    hw_sweep,
    inverse_load,
    inverse_sweep,
    staffing,
)

import oracles


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


class TestHwSweep:
    def test_decreasing_above_limit(self):
        result = hw_sweep(1.0, (1.0, 10.0, 100.0, 1000.0))
        assert result.regime is Regime.LOAD_PARAMETRIZED
        assert result.decreasing and result.gaps_positive
        assert result.verified
        for row in result.rows:
            assert row.c_value > oracles.HW_LIMIT_1
            assert row.gap > 0.0

    def test_single_point_grid(self):
        result = hw_sweep(1.0, (50.0,))
        assert result.decreasing  # vacuous but defined
        assert result.gaps_positive

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

    def test_per_point_failures_recorded_not_raised(self, monkeypatch):
        monkeypatch.setattr(numerics, "_REL_TOL", 1e-30)  # past the evaluation cap
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


class TestInverseSweep:
    def test_rows_follow_regime(self):
        result = inverse_sweep(3.0, (9.5, 20.0, 100.0, 500.0))
        assert result.regime is Regime.SERVER_PARAMETRIZED
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
        assert grid[0] == pytest.approx(0.01)
        assert grid[-1] == pytest.approx(1e4)
        assert all(b > a for a, b in zip(grid, grid[1:]))
