"""Foundation module: special functions, quadrature, bisection."""

import math
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hw_staffing import erlang, numerics
from hw_staffing.errors import BracketError, DomainError, NumericalError
from hw_staffing.numerics import (
    BracketedRoot,
    bisect_monotone,
    integrate_semi_infinite,
    log1pmx,
    normal_cdf,
    normal_pdf,
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


def upper_gamma(s, x):
    """Q(s, x) from the gamma route's kernel, for 0 < x < s + 1."""
    return erlang._upper_gamma(s, x, s - x)[1]


class TestUpperGammaRegularized:
    """Q(s, x) = Gamma(s, x)/Gamma(s) as the gamma route takes it, at x < s
    (and up to s + 1, where the series still holds)."""

    def test_exponential_special_case(self):
        for x in (0.1, 1.0):
            assert upper_gamma(1.0, x) == pytest.approx(math.exp(-x), rel=1e-14)

    def test_full_mass_at_zero(self):
        # at the smallest positive x, P = x**s/Gamma(1 + s) rounds away
        for s in (0.3, 1.0, 4.5, 200.0):
            assert upper_gamma(s, 5e-324) == 1.0

    def test_frozen_spot_values(self):
        assert upper_gamma(5.0, 5.0) == pytest.approx(oracles.Q_5_5, rel=1e-12)
        assert upper_gamma(0.5, 0.3) == pytest.approx(oracles.Q_HALF_03, rel=1e-12)
        assert upper_gamma(250.0, 240.0) == pytest.approx(oracles.Q_250_240, rel=1e-12)

    def test_against_quadrature_definition(self):
        # Q(s, x) = integral_x^inf t**(s-1) e**-t dt / Gamma(s), in u = t - x:
        # the log mass peaks where u**2 + (x - s)*u - x = 0
        for s in (0.7, 2.0, 5.0, 11.5, 40.0):
            for x in (0.2, 1.0, 5.0, 12.0, 60.0):
                if x >= s + 1.0:
                    continue
                lg = math.lgamma(s)

                def log_integrand(u, s=s, x=x, lg=lg):
                    t = x + u
                    if t <= 0.0:
                        return -math.inf
                    return (s - 1.0) * math.log(t) - t - lg

                u = ((s - x) + math.sqrt((s - x) ** 2 + 4.0 * x)) / 2.0
                width = 1.0 / math.sqrt(u * (1.0 - (s - 1.0) * x / (x + u) ** 2))
                reference = integrate_semi_infinite(log_integrand, math.log(u), width)
                assert upper_gamma(s, x) == pytest.approx(
                    reference, rel=1e-12, abs=1e-300
                ), (s, x)

    def test_monotone_in_x(self):
        for s in (0.5, 3.0, 50.0):
            values = [upper_gamma(s, 0.25 * k) for k in range(1, 60) if 0.25 * k < s + 1.0]
            assert all(b <= a for a, b in zip(values, values[1:]))

    def test_monotone_in_s(self):
        for x in (0.5, 4.0, 20.0):
            values = [upper_gamma(0.5 + 0.5 * k, x) for k in range(60) if x < 1.5 + 0.5 * k]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_ratio_past_the_double_range(self):
        # x/s underflows to 0; the prefactor's log form holds it at 5e-324
        from mpmath import mp, mpf

        s, x = 3.0, 5e-324
        with mp.workdps(30):
            want = float(mp.gammainc(mpf(s), mpf(x), regularized=True))
        assert upper_gamma(s, x) == pytest.approx(want, rel=1e-14, abs=4 * math.ulp(0.0))


def _gamma_peak(k):
    """Centre and width in log t of t**(k-1) e**-t: t = k, 1/sqrt(k)."""
    return math.log(k), 1.0 / math.sqrt(k)


class TestIntegrateSemiInfinite:
    def test_unit_exponential(self):
        assert integrate_semi_infinite(lambda t: -t, *_gamma_peak(1)) == pytest.approx(
            1.0, rel=1e-12)

    def test_gamma_two(self):
        value = integrate_semi_infinite(
            lambda t: math.log(t) - t if t > 0 else -math.inf, *_gamma_peak(2))
        assert value == pytest.approx(1.0, rel=1e-12)

    def test_gamma_family(self):
        for k in range(1, 11):
            def log_integrand(t, k=k):
                if t <= 0.0:
                    return -math.inf if k > 1 else 0.0
                return (k - 1) * math.log(t) - t

            value = integrate_semi_infinite(log_integrand, *_gamma_peak(k))
            assert value == pytest.approx(math.factorial(k - 1), rel=numerics._REL_TOL * 10), k

    def test_delay_integrand_spot_value(self):
        # a*t*(1+t)**(s-1)*e**(-a*t) at s=2, a=1 integrates to 3 = 1/C(2,1);
        # its log mass peaks at t = 1 + sqrt(3), as erlang's peak gives
        def log_integrand(t):
            if t <= 0.0:
                return -math.inf
            return math.log(t) + math.log1p(t) - t

        z, width = erlang._peak(1.0, 1.0)
        assert z == pytest.approx(1.0 + math.sqrt(3.0), rel=1e-15)
        value = integrate_semi_infinite(log_integrand, math.log(z), width)
        assert value == pytest.approx(3.0, rel=1e-12)

    def test_extreme_positive_shift(self):
        value = integrate_semi_infinite(
            lambda t: 600.0 + math.log(t) - t if t > 0 else -math.inf, *_gamma_peak(2))
        assert value == pytest.approx(math.exp(600.0), rel=1e-11)

    def test_overflowing_integral_is_inf(self):
        # log mass 1000 at the peak, past _LOG_MAX + 40: inf with no
        # quadrature, and one reading of the integrand at the peak
        calls = []

        def log_integrand(t):
            calls.append(t)
            return 1000.0 - t

        assert integrate_semi_infinite(log_integrand, *_gamma_peak(1)) == math.inf
        assert calls == [1.0]

    def test_integral_past_the_largest_double_is_inf_after_a_quadrature(self):
        # log mass 719 at the peak, between _LOG_MAX and _LOG_MAX + 40: the
        # quadrature runs, and its sum, e**720, is inf once unscaled
        calls = []

        def log_integrand(t):
            calls.append(t)
            return 720.0 - t

        assert integrate_semi_infinite(log_integrand, *_gamma_peak(1)) == math.inf
        assert len(calls) > 2

    def test_extreme_negative_shift(self):
        value = integrate_semi_infinite(lambda t: -600.0 - t, *_gamma_peak(1))
        assert value == pytest.approx(math.exp(-600.0), rel=1e-11)

    def test_refinement_cap_raises_with_estimate(self, monkeypatch):
        monkeypatch.setattr(numerics, "_REL_TOL", 1e-30)

        def kinked(t):  # corner at t = 3: no sum agrees to 1e-30 within the cap
            return -abs(t - 3.0) * 7.0

        with pytest.raises(NumericalError) as excinfo:
            integrate_semi_infinite(kinked, math.log(3.0), 0.1)
        err = excinfo.value
        assert err.estimate is not None
        assert err.error_bound is not None and err.error_bound > 0.0

    @pytest.mark.parametrize("centre", [0.37, 1.0, 3.0, 200.0])
    def test_narrow_peak_correct_or_raises(self, centre):
        # lognormal spike of log-width 1e-3: integral of
        # exp(-(log t - mu)**2/(2 w**2)) dt = sqrt(2 pi) w e**(mu + w**2/2),
        # whose log mass peaks at log t = mu + w**2 with width w
        mu, w = math.log(centre), 1e-3

        def log_integrand(t):
            if t <= 0.0:
                return -math.inf
            return -0.5 * ((math.log(t) - mu) / w) ** 2

        exact = math.sqrt(2.0 * math.pi) * w * math.exp(mu + 0.5 * w * w)
        value = integrate_semi_infinite(log_integrand, mu + w * w, w)
        assert value == pytest.approx(exact, rel=1e-12)

    def test_non_convergent_input_stops_at_evaluation_cap(self, monkeypatch):
        # no double-precision sum agrees to 1e-30; the quadrature must give
        # up after its documented 4096 evaluations
        monkeypatch.setattr(numerics, "_REL_TOL", 1e-30)
        with pytest.raises(NumericalError) as excinfo:
            integrate_semi_infinite(lambda t: -t, *_gamma_peak(1))
        err = excinfo.value
        assert 0 < err.iterations <= 4096
        assert err.estimate == pytest.approx(1.0, rel=1e-12)
        assert err.error_bound > 0.0

    def test_mass_below_smallest_node_raises(self):
        # t**-0.9 e**-t keeps a share t**0.1/0.1 ~ 3% of its mass below 2**-52
        def log_integrand(t):
            return -0.9 * math.log(t) - t if t > 0.0 else -math.inf

        with pytest.raises(NumericalError):
            integrate_semi_infinite(log_integrand, *_gamma_peak(0.1))


def _node_reach(level_index, level):
    """The largest |k| among a _NODES level's entries."""
    return max(map(abs, numerics._node_ks(level_index, len(level) // 2)))


def _kinked(t):  # corner at t = 3: the sums converge slowly, the cap is reached
    return -abs(math.log(t) - 3.0) * 7.0 - math.log(t)


class TestNodeTable:
    """numerics._NODES, the exp-sinh map's constants shared by every call.
    Each test starts from an empty table of its own."""

    @staticmethod
    def _entries():
        return sum(len(level) for level in numerics._NODES.values())

    def test_second_identical_call_adds_no_entry(self, monkeypatch):
        monkeypatch.setattr(numerics, "_NODES", {})
        first = erlang.erlang_c_slack(10.0, 100.0)
        entries = self._entries()
        assert entries > 0
        assert repr(erlang.erlang_c_slack(10.0, 100.0)) == repr(first)
        assert self._entries() == entries

    def test_capped_call_stays_within_the_ceiling(self, monkeypatch):
        monkeypatch.setattr(numerics, "_NODES", {})
        with pytest.raises(NumericalError, match="evaluation cap reached") as excinfo:
            integrate_semi_infinite(_kinked, 3.0, 0.1)
        assert 3000 < excinfo.value.iterations <= numerics._MAX_EVALUATIONS
        reach = {j: _node_reach(j, level) for j, level in numerics._NODES.items()}
        assert max(reach.values()) > 2000  # the call went far out at its last step
        assert max(reach.values()) <= numerics._MAX_EVALUATIONS
        # the largest half-lengths the engine can ask for, after requests past
        # half of them, from which doubling alone would overshoot the ceiling
        cap = numerics._MAX_EVALUATIONS
        for j, first, largest in ((0, 2100, cap), (1, 1100, cap // 2), (9, 1100, cap // 2)):
            numerics._node_level(j, first)
            assert _node_reach(j, numerics._node_level(j, largest)) <= cap

    def test_entries_are_the_map_in_line(self, monkeypatch):
        # every level the staffed curves use holds, bit for bit, what the
        # engine computed at each node before the table
        monkeypatch.setattr(numerics, "_NODES", {})
        for a in (1e-3, 0.5, 4.0, 1e2, 1e4, 1e6, 1e10, 1e15):
            for beta in (0.1, 0.5, 1.0, 2.0, 3.0):
                erlang.erlang_c_slack(beta * math.sqrt(a), a)
            erlang.real_staffing_level(a, 0.2)
        assert sorted(numerics._NODES) == list(range(len(numerics._NODES)))
        assert len(numerics._NODES) >= 4
        h = 1.0
        for j in sorted(numerics._NODES):
            level = numerics._NODES[j]
            ks = numerics._node_ks(j, len(level) // 2)
            assert len(ks) == len(level)
            for k, (t, log_jacobian) in zip(ks, level):
                v = k * h
                ev = math.exp(-v)
                assert (t.hex(), log_jacobian.hex()) == ((v + 1.0 - ev).hex(), math.log1p(ev).hex())
            h *= 0.5

    def test_nodes_past_the_map_floor_count_as_zero(self, monkeypatch):
        monkeypatch.setattr(numerics, "_NODES", {})
        numerics._trapezoid(lambda w: -0.5 * w * w, 0.0, 1.0)
        level = numerics._node_level(0, 701)
        ks = numerics._node_ks(0, len(level) // 2)
        assert level[ks.index(-701)] == (math.inf, 0.0)
        assert level[ks.index(-700)][0] == -700.0 + 1.0 - math.exp(700.0)

    def test_concurrent_first_use_matches_serial(self, monkeypatch):
        cases = [(beta * math.sqrt(a), a) for a in (1e-2, 4.0, 1e3, 1e8) for beta in (0.1, 1.0, 3.0)]

        def work():
            got = [repr(erlang.erlang_c_slack(d, a)) for d, a in cases]
            try:
                integrate_semi_infinite(_kinked, 3.0, 0.1)
            except NumericalError as err:
                got.append((str(err), repr(err.estimate), repr(err.error_bound)))
            return got

        monkeypatch.setattr(numerics, "_NODES", {})
        serial = work()
        start = threading.Barrier(4)

        def run(i):
            start.wait(timeout=30)
            results[i] = work()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):  # three races, each on an empty table
                monkeypatch.setattr(numerics, "_NODES", {})
                results = [None] * 4
                threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert results == [serial] * 4
        finally:
            sys.setswitchinterval(interval)


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
        assert excinfo.value.iterations == 2  # both ends, and no step

    @pytest.mark.parametrize("target", [0.0, 0.25, 1.0])  # an end, or a step's point
    def test_evaluations_count_every_call(self, target):
        calls = []
        root = bisect_monotone(lambda x: calls.append(x) or x, 0.0, 1.0, target, 1e-9)
        assert root.evaluations == len(calls)

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


@pytest.mark.parametrize("args", [
    (0.0, 1.0, 10**400, 1e-9),  # target - f overflowed converting the target
    (0.0, 1.0, 0.5, math.inf),
    (0.0, 1.0, 0.5, 0.0),
    (0.0, 1.0, math.nan, 1e-9),
])
def test_bisect_arguments_are_checked(args):
    with pytest.raises(DomainError, match="finite"):
        bisect_monotone(lambda x: x, *args)


@pytest.mark.parametrize("centre, width", [(0.0, 0.0), (0.0, -1.0), (math.nan, 1.0)])
def test_quadrature_map_arguments_are_checked(centre, width):
    # a width of 0 or below raised a bare ValueError from math.log
    with pytest.raises(DomainError, match="finite"):
        integrate_semi_infinite(lambda t: -t, centre, width)


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

    def test_smooth_decreasing_function_from_a_tight_bracket(self):
        # log erfc, shaped like real_staffing_level's log C, bracketed 0.03
        # either side of 33 roots (offset by -0.4, 0 and 0.3 of that): 194
        # evaluations in all, 253 with the ITP truncation at 0.2*w**2/w0,
        # under which the steps stayed near bisection pace
        def f(x):
            return math.log(math.erfc(x))

        evaluations = []
        for k in range(11):
            root = 0.5 + 0.25 * k
            for offset in (-0.4, 0.0, 0.3):
                lo, hi = root + 0.03 * (offset - 1.0), root + 0.03 * (offset + 1.0)
                found = bisect_monotone(f, lo, hi, f(root), 1e-9)
                assert found.value == pytest.approx(root, abs=1e-9)
                evaluations.append(found.evaluations)
        assert max(evaluations) <= 8
        assert sum(evaluations) <= 195

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
