"""The tightened inner loops against frozen copies of the loops they replaced.

The trapezoid engine and its exp-sinh map, the Erlang integrand and the
Erlang-B step were rewritten for speed or simplicity only, so every
result must be the same double as before: value, error bound and work
count, and for a NumericalError its message, estimate, bound and count.
The quadrature's three node paths became one rule, which keeps those
bits wherever x is finite at the integrand's peak. The frozen copies live
in oracles.py. The lower-gamma series now runs against Temme's normalized
prefactor, so its seeded inputs are checked against mpmath instead.
"""

import math
import random
import sys

import pytest

from hw_staffing import erlang, halfin_whitt, numerics, proof_kit
from hw_staffing.erlang import (
    erlang_b_integer,
    erlang_c_gamma,
    erlang_c_slack,
    min_servers,
    real_staffing_level,
)
from hw_staffing.errors import NumericalError
from hw_staffing.halfin_whitt import default_load_grid, inverse_sweep

import oracles


def outcome(f, *args):
    """f(*args), or the fields of the NumericalError it raises, as reprs
    so that nan fields compare equal."""
    try:
        return repr(f(*args))
    except NumericalError as err:
        return ("NumericalError", str(err), repr(err.estimate), repr(err.error_bound),
                err.iterations)


def _slack_cases():
    rng = random.Random(20240917)
    cases = []
    for i in range(2000):
        a = 10.0 ** rng.uniform(-2.0, 300.0)
        if i % 2:  # around the staffed curve, past C's underflow at the top
            d = 10.0 ** rng.uniform(-3.0, 2.0) * math.sqrt(a)
        else:
            d = 10.0 ** rng.uniform(-5.0, 5.0)
        cases.append((d, a))
    return cases


class TestQuadratureKernel:
    def test_erlang_slack_matches_frozen_kernel(self):
        cases = _slack_cases()
        evaluated = 0
        for d, a in cases:
            got = outcome(erlang_c_slack, d, a)
            assert got == outcome(oracles.erlang_c_slack_visit, d, a), (d, a)
            evaluated += erlang_c_slack(d, a).evaluations > 0
        # most cases reach the trapezoid engine, not just the overflow checks
        assert evaluated > len(cases) // 2

    # (d, the smallest load below the tail-overflow band at that d that
    # the frozen kernel returns for, and the next double down, for which
    # it raised), found by bisection
    BAND_EDGES = [(1e-5, 2.8895877256210474e-307, 2.889587725621047e-307),
                  (0.1, 2.6448149097664373e-307, 2.644814909766437e-307),
                  (1.0, 3.768362774527998e-307, 3.768362774527996e-307)]

    @pytest.mark.parametrize("d, kept, band", BAND_EDGES)
    def test_band_edges(self, d, kept, band):
        # the band now returns; just outside it the value and the work keep
        # their bits, and the bound can only grow, by the rounding of the
        # exponent's 2*log z term (about 700 here)
        old, new = oracles.erlang_c_slack_visit(d, kept), erlang_c_slack(d, kept)
        assert (repr(new.value), new.evaluations) == (repr(old.value), old.evaluations)
        assert new.error_bound >= old.error_bound
        if d < 1e-3:  # the exponent's d - 1 term outweighs that rounding
            assert repr(new) == repr(old)
        with pytest.raises(NumericalError):
            oracles.erlang_c_slack_visit(d, band)
        assert erlang_c_slack(d, band).evaluations > 1

    def test_tiny_loads_match_frozen_three_paths(self):
        # the library takes a node in log x only where its x overflows; the
        # frozen copy took every node so where x overflowed at the peak
        rng = random.Random(20)
        finite = tail = overflowed = 0
        for _ in range(1200):
            d = 10.0 ** rng.uniform(-5.0, 2.0)
            a = math.exp(math.log1p(d) - rng.uniform(290.0, 323.0) * math.log(10.0))
            if a == 0.0:
                continue
            new, old = erlang_c_slack(d, a), oracles.erlang_c_slack_three_paths(d, a)
            assert new.evaluations == old.evaluations, (d, a)
            x_peak = _x_peak(d, a)
            if x_peak < math.inf:
                assert repr(new) == repr(old), (d, a)
                finite += 1
                tail += x_peak > 1.8e305 and new.evaluations > 0  # x can overflow past the peak
            else:
                assert abs(new.value - old.value) <= old.error_bound / 10.0, (d, a)
                overflowed += new.evaluations > 0
        assert finite > 200 and tail > 50 and overflowed > 200

    def test_cap_error_matches_frozen_kernel(self, monkeypatch):
        # no double-precision sum agrees to 1e-30: both give up at the cap
        monkeypatch.setattr(numerics, "_REL_TOL", 1e-30)
        for d, a in ((1.0, 4.0), (10.0, 100.0), (3e5, 1e10)):
            got = outcome(erlang_c_slack, d, a)
            assert got[0] == "NumericalError" and "evaluation cap reached" in got[1]
            assert got == outcome(oracles.erlang_c_slack_visit, d, a)

    @pytest.mark.parametrize(
        "log_mass",
        [
            lambda w: -w * w,
            lambda w: -abs(w),  # a kink: the sums converge slowly, cap reached
            lambda w: 0.0,  # no decay: the walks stop only at the map's two ends
            lambda w: -1e-4 * w * w,  # too wide for the evaluation cap
            lambda w: math.nan if w > 3.0 else -w * w / 8.0,
            lambda w: math.nan,  # the centre itself
            lambda w: 1e20 - w * w,  # the cutoff is below an ulp of the shift
            lambda w: 40.0 * w - math.exp(w),  # peak off the centre
        ],
        ids=["gauss", "kink", "flat", "wide", "nan-tail", "nan-centre", "huge", "shifted"],
    )
    def test_trapezoid_matches_frozen_engine(self, log_mass):
        assert outcome(numerics._trapezoid, log_mass, 0.0, 1.0) == outcome(
            oracles.integrate_exp_sinh_visit, log_mass, 0.0, 1.0
        )

    def test_trapezoid_walk_gives_up_as_frozen_engine(self, monkeypatch):
        # the map's ends stop every walk within 1 411 nodes at the first
        # step, so only a lower cap makes a walk give up
        monkeypatch.setattr(numerics, "_MAX_EVALUATIONS", 512)
        got = outcome(numerics._trapezoid, lambda w: 0.0, 0.0, 1.0)
        assert got[0] == "NumericalError" and "did not decay" in got[1]
        assert got == outcome(oracles.integrate_exp_sinh_visit, lambda w: 0.0, 0.0, 1.0)

    def test_trapezoid_skips_nodes_past_the_map_floor(self):
        # a Gaussian right tail and a left tail, 1/(1 - w), that the map
        # cannot compress: its terms stay near e**0 in v, so the left walk
        # runs to v = -701, past _V_MIN = -700, and the first halving meets
        # v = -700.5. Below _V_MIN e**-v overflows; those nodes are zero.
        seen = []

        def log_mass(w):
            seen.append(w)
            return -0.5 * w * w if w >= 0.0 else -math.log1p(-w)

        got = outcome(numerics._trapezoid, log_mass, 0.0, 1.0)
        assert min(seen) < -1e303  # v = -700: w = 1 - 700 - e**700
        assert got[0] == "NumericalError" and "evaluation cap reached" in got[1]
        assert "step 0.25" in got[1]
        assert got == outcome(oracles.integrate_exp_sinh_visit, log_mass, 0.0, 1.0)

    def test_moment_y_matches_frozen_engine(self, monkeypatch):
        rng = random.Random(7)
        cases = [(10.0 ** rng.uniform(-2.0, 300.0), rng.uniform(0.1, 3.0)) for _ in range(40)]
        got = [outcome(proof_kit.moment_y, a, beta) for a, beta in cases]
        monkeypatch.setattr(numerics, "_trapezoid", oracles.integrate_exp_sinh_visit)
        assert got == [outcome(proof_kit.moment_y, a, beta) for a, beta in cases]


def _x_peak(d, a):
    """x = z/sqrt(a) at the peak of the quadrature's integrand in log z."""
    r = math.sqrt(a)
    return (d + 1.0 + math.sqrt((d + 1.0) ** 2 + 8.0 * a)) / (2.0 * r) / r


def _below_the_switch(s, x):
    """Inputs that _upper_gamma takes through the series, not Temme's
    expansion."""
    return erlang._upper_gamma(s, x, s - x)[4] > 0


class TestGammaSeries:
    """Below Temme's switch (s >= 1000 with |eta| <= 0.3) the series is
    evaluated against the prefactor in Temme's normalized variables, so it
    is checked against mpmath on the seeded inputs that once pinned the
    log-space form's bits; above the switch it does not run
    (TestExactWork)."""

    def test_matches_mpmath(self):
        # Q within 16*eps*(1 + s*eta**2/2), the prefactor's rounding, plus
        # the error _upper_gamma reports for the loop that ran, relative,
        # and 16 subnormal ulps absolute where Q leaves the normal range
        # x < s + 1 only: the gamma route takes x = a < s
        rng = random.Random(11)
        cases = []
        for _ in range(600):
            x = 10.0 ** rng.uniform(-3.0, 6.6)
            cases.append((x * rng.uniform(0.3, 3.0), x))  # both sides of s = x
            cases.append((x + rng.uniform(0.0, 3.0) * math.sqrt(x), x))  # staffed curve
        below = [(s, x) for s, x in cases if x < s + 1.0 and _below_the_switch(s, x)]
        for s, x in below:
            half_s_eta2, q, rel, _, _ = erlang._upper_gamma(s, x, s - x)
            assert rel <= 1e-12, (s, x, rel)  # the Q floor (rel = 2) never fires here
            want = oracles.upper_gamma_mpmath(s, x)
            tolerance = (16 * numerics._EPS * (1.0 + half_s_eta2) + rel) * want
            assert abs(q - want) <= tolerance + 16 * math.ulp(0.0), (s, x)
        # compared on both sides of s = 1000
        assert any(s >= 1000.0 for s, _ in below)
        assert any(s < 1000.0 for s, _ in below)
        assert len(below) < len(cases)

    def test_erlang_gamma_matches_mpmath(self):
        rng = random.Random(13)
        cases = []
        for _ in range(200):
            a = 10.0 ** rng.uniform(-2.0, 6.6)
            cases.append((a + rng.uniform(0.1, 3.0) * math.sqrt(a), a))
        for _ in range(100):  # far from the curve, where s >= 1000 stays below the switch
            a = 10.0 ** rng.uniform(2.0, 6.6)
            cases.append((a * rng.uniform(1.4, 3.0), a))
        cases = [(s, a) for s, a in cases if _below_the_switch(s, a)]
        assert any(s >= 1000.0 for s, _ in cases)
        for s, a in cases:
            result = erlang_c_gamma(s, a)
            want = oracles.erlang_c_gammainc(s, a)
            assert abs(result.value - want) <= result.error_bound, (s, a, result, want)

    @pytest.mark.parametrize("a", [5e-324, 1e-320, 1e-310, 1e-300])
    def test_erlang_gamma_at_subnormal_ratios(self, a):
        # a/s below the normal range keeps few digits: log(a/s) read from
        # it put C 8.9e-7 off at a = 5e-324 (bound 8e-15), and 6e-11 off at
        # 1e-320; it is log a - log s there
        for d in (1e-6, 0.0021636159157122593, 0.5, 3.0, 50.0):
            result = erlang._gamma(a + d, d, a)
            want = oracles.erlang_c_gammainc(a + d, a)
            assert abs(result.value - want) <= result.error_bound, (a, d, result, want)


def _staffing_cases():
    rng = random.Random(29)
    return [(10.0 ** rng.uniform(-2.0, 5.5), 10.0 ** rng.uniform(-12.0, -0.01))
            for _ in range(400)]


class TestRecurrenceStep:
    def test_erlang_b_matches_plain_step(self):
        rng = random.Random(17)
        for _ in range(400):
            a = 10.0 ** rng.uniform(-2.0, 6.0)
            n = math.floor(a) + rng.randrange(0, 40 + 40 * math.isqrt(math.floor(a) + 1))
            assert erlang_b_integer(n, a) == oracles.erlang_b_plain(n, a), (n, a)

    def test_min_servers_matches_plain_step(self):
        for a, epsilon in _staffing_cases():
            assert min_servers(a, epsilon) == oracles.min_servers_plain(a, epsilon), (a, epsilon)

    def test_min_servers_ties_match_plain_step(self):
        # targets set to C itself, and one ulp either side
        for n, a in ((5, 4.0), (12, 10.0), (130, 100.0), (10_150, 1e4)):
            c = erlang.erlang_c_integer(n, a).value
            for epsilon in (c, math.nextafter(c, 0.0), math.nextafter(c, 1.0)):
                assert min_servers(a, epsilon) == oracles.min_servers_plain(a, epsilon)

    def test_real_staffing_level_matches_frozen_kernel(self, monkeypatch):
        cases = _staffing_cases()
        got = [real_staffing_level(a, epsilon) for a, epsilon in cases]
        monkeypatch.setattr(erlang, "erlang_c_slack", oracles.erlang_c_slack_visit)
        assert got == [real_staffing_level(a, epsilon) for a, epsilon in cases]


class TestExactWork:
    """Work counts that hold on any machine: a change that makes the kernels
    do more work fails here even where timings are noisy."""

    @pytest.mark.parametrize("a", [4.0, 1e2, 1e4, 1e6])
    def test_quadrature_evaluations_on_the_staffed_curve(self, a):
        assert erlang.erlang_c_real(a + math.sqrt(a), a).evaluations == 65

    @pytest.mark.parametrize("a", [1e-307, 1e-310])
    def test_quadrature_evaluations_at_tiny_loads(self, a):
        # x = z/sqrt(a) overflows in the right tail (1e-307) or at the peak
        assert erlang_c_slack(1e-5, a).evaluations == 57

    @pytest.mark.parametrize("a, beta, calls", [(1e8, 1.0, 60), (1.0, 1.0, 103), (1e-2, 3.0, 218)])
    def test_moment_y_calls_to_h(self, monkeypatch, a, beta, calls):
        # the trapezoid's nodes and the two of the small-t mass check: the
        # peak comes from its equation, with no scan (142, 204 and 193 before).
        # The integrand calls h's unchecked core, so that is what is counted.
        count = 0
        h = proof_kit._h

        def counted(x):
            nonlocal count
            count += 1
            return h(x)

        monkeypatch.setattr(proof_kit, "_h", counted)
        proof_kit.moment_y(a, beta)
        assert count == calls

    def test_beta_for_target_newton_steps(self, monkeypatch):
        # one Mills ratio a Newton step; at most 5 across [1e-3, 0.5], also
        # in the pocket 0.0075-0.0103 where bisecting hw_limit took 25-49
        # evaluations against 11-17 elsewhere
        steps = [0]
        log_mills = halfin_whitt._log_mills

        def counted(beta):
            steps[0] += 1
            return log_mills(beta)

        monkeypatch.setattr(halfin_whitt, "_log_mills", counted)
        rng = random.Random(34)
        pocket = [0.0075 + 0.0028 * k / 49 for k in range(50)]
        for epsilon in pocket + [10.0 ** rng.uniform(-3.0, math.log10(0.5)) for _ in range(300)]:
            steps[0] = 0
            halfin_whitt.beta_for_target(epsilon)
            assert steps[0] <= 5, (epsilon, steps[0])
        for epsilon, want in ((0.2, 4), (0.01, 5)):
            steps[0] = 0
            halfin_whitt.beta_for_target(epsilon)
            assert steps[0] == want

    @pytest.mark.parametrize("a, beta, terms", [(995.0, 0.1, 265), (968.0, 1.0, 238),
                                                (1e6, 0.1, 0), (1e15, 3.0, 0)])
    def test_gamma_route_series_terms(self, a, beta, terms):
        # just below the switch at s = 1000 the series is longest; above
        # it Temme's expansion takes no term
        assert erlang_c_gamma(a + beta * math.sqrt(a), a).evaluations == terms

    @staticmethod
    def _count_gamma(monkeypatch, module=erlang):
        counts = [0]
        gamma = module._gamma

        def counted(*args):
            counts[0] += 1
            return gamma(*args)

        monkeypatch.setattr(module, "_gamma", counted)
        return counts

    def test_min_servers_gamma_evaluations(self, monkeypatch):
        # the square-root start lies within a server or two of the answer
        counts = self._count_gamma(monkeypatch)
        rng = random.Random(26)
        for _ in range(300):
            a = 10.0 ** rng.uniform(0.0, 15.0)
            epsilon = 10.0 ** rng.uniform(-3.0, math.log10(0.5))
            counts[0] = 0
            min_servers(a, epsilon)
            assert counts[0] <= 4, (a, epsilon, counts[0])

    @pytest.mark.parametrize("a, epsilon", [(1.0, 0.5), (37.0, 0.2), (2.5e3, 0.01), (1e5, 1e-3)])
    def test_staffing_request_work(self, monkeypatch, a, epsilon):
        # one whole request of perfbench's staffing workload, phase by phase:
        # gamma-route evaluations, quadratures and beta_for_target's Newton
        # steps (one Mills ratio each)
        work = {"gamma": 0, "quadrature": 0, "newton": 0}

        def counting(module, name, key):
            original = getattr(module, name)

            def counted(*args):
                work[key] += 1
                return original(*args)

            monkeypatch.setattr(module, name, counted)

        counting(erlang, "_gamma", "gamma")
        counting(erlang, "_quadrature", "quadrature")
        counting(halfin_whitt, "_log_mills", "newton")

        def spent(f, *args):
            for key in work:
                work[key] = 0
            return f(*args), dict(work)

        n, work_n = spent(min_servers, a, epsilon)
        assert work_n["gamma"] <= 4 and work_n["quadrature"] == 0, work_n
        s, work_s = spent(real_staffing_level, a, epsilon)
        assert work_s["gamma"] <= 8 and work_s["quadrature"] == 2, work_s
        beta, work_beta = spent(halfin_whitt.beta_for_target, epsilon)
        assert work_beta["newton"] <= 5 and work_beta["gamma"] == 0, work_beta
        s_hw, work_hw = spent(halfin_whitt.staffing, a, beta)
        assert work_hw == {"gamma": 0, "quadrature": 0, "newton": 0}
        _, work_c = spent(erlang_c_gamma, s_hw, a)
        assert work_c == {"gamma": 1, "quadrature": 0, "newton": 0}
        assert n - 1 <= s <= n

    @pytest.mark.parametrize("a, calls", [(1e-2, 14), (4.0, 16), (1e2, 16),
                                          (1e4, 16), (1e6, 16), (1e15, 16)])
    def test_min_servers_gamma_evaluations_at_the_smallest_target(self, monkeypatch, a, calls):
        # beta_for_target is about 37.6 here, and the start lies 86 to 237
        # servers low: doubling steps and a bisection, not one step a server
        counts = self._count_gamma(monkeypatch)
        min_servers(a, sys.float_info.min)
        assert counts[0] == calls

    def test_gamma_route_runs_no_series_above_the_switch(self, monkeypatch):
        # the lower-gamma series hit its 10 000-term cap here and raised;
        # above the switch it does not run: with no term allowed, C and Q
        # still come back
        from mpmath import mpf

        a = 3e6
        s = a + math.sqrt(a)
        monkeypatch.setattr(erlang, "_GAMMA_MAX_ITER", 0)
        result = erlang_c_gamma(s, a)
        assert abs(result.value - oracles.erlang_c_mpmath(mpf(s), mpf(a))) <= result.error_bound
        assert result.error_bound <= 1e-13 * result.value
        for x in (a, s, 0.75 * s):
            assert 0.0 <= erlang._upper_gamma(s, x, s - x)[1] <= 1.0
        with pytest.raises(NumericalError, match="lower-gamma series"):
            erlang._upper_gamma(999.0, 990.0, 9.0)

    def test_inverse_sweep_one_gamma_evaluation_per_row(self, monkeypatch):
        # both sweeps take the gamma route, one evaluation a row, and run no
        # quadrature
        def no_quadrature(d, a):
            raise AssertionError(f"quadrature at d={d}, a={a}")

        counts = self._count_gamma(monkeypatch, halfin_whitt)
        monkeypatch.setattr(erlang, "_quadrature", no_quadrature)
        for beta in (0.01, 1.0, 10.0):
            counts[0] = 0
            result = inverse_sweep(beta, default_load_grid(beta**2 * (1.0 + 1e-9), 1e15, 200))
            assert counts[0] == 200
            assert all(r.error is None for r in result.rows)

    def test_inverse_sweep_rows_below_the_gamma_routes_reach(self):
        # below s = 5.6e-309 the gamma route fails at once, and the slack
        # beta*sqrt(s) underflows to 0: each row records the NumericalError,
        # and the sweep raises nothing
        result = inverse_sweep(1e-200, (1e-320, 1e-315))
        assert [r.c_value for r in result.rows] == [None, None]
        assert all(r.error.startswith("lower-gamma series: 1/s overflows") for r in result.rows)
