"""Birth-death solve and discrete-event simulation against the analytics."""

import math
import random
import statistics
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hw_staffing import mmn_oracle
from hw_staffing.erlang import erlang_c_gamma, erlang_c_integer
from hw_staffing.errors import DomainError
from hw_staffing.mmn_oracle import SimConfig, SimEstimate, birth_death_wait_prob, simulate_mmn

import oracles


class TestBirthDeath:
    def test_two_servers_unit_load(self):
        assert birth_death_wait_prob(2, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-13)

    def test_single_server_is_rho(self):
        assert birth_death_wait_prob(1, 0.5) == pytest.approx(0.5, rel=1e-13)

    def test_five_servers_load_four(self):
        expected = float(oracles.erlang_c_exact(5, Fraction(4)))
        assert birth_death_wait_prob(5, 4.0) == pytest.approx(expected, rel=1e-13)

    def test_equals_recurrence_on_grid(self):
        for n in (1, 2, 5, 10, 20, 50, 100, 500):
            for rho in (0.1, 0.3, 0.5, 0.7, 0.9, 0.95):
                a = n * rho
                reference = erlang_c_integer(n, a).value
                assert birth_death_wait_prob(n, a) == pytest.approx(
                    reference, rel=1e-12
                ), (n, rho)
        # past the recurrence's flat bound, against the 30-digit integral;
        # C(4000, 400) and its neighbours underflow to 0.0 in both
        for n in (1000, 4000):
            for rho in (0.1, 0.3, 0.5, 0.7, 0.9, 0.95):
                a = n * rho
                reference = oracles.erlang_c_mpmath(float(n), a)
                assert birth_death_wait_prob(n, a) == pytest.approx(
                    reference, rel=1e-14, abs=0.0
                ), (n, rho)

    def test_overflow_returns_zero(self):
        # n >> a: n!/a**n overflows, so C underflows; the log-space sum
        # this replaced raised OverflowError from (4000, 2000)
        assert birth_death_wait_prob(400, 4.0) == 0.0
        assert birth_death_wait_prob(4000, 2000.0) == 0.0

    def test_stopped_sum_is_the_full_loop_to_the_bit(self):
        # below the load the sum stops at the first term that leaves it
        # unchanged; the loop it stops early makes all n steps
        def full_loop(n, a):
            term, ratio = 1.0, 0.0
            for k in range(n, 0, -1):
                term *= k / a
                ratio += term
            return 1.0 / (1.0 + (1.0 - a / n) * ratio)

        rng = random.Random(27)
        for _ in range(1000):
            n = int(10.0 ** rng.uniform(0.0, 4.0)) + 1
            a = rng.choice([n * rng.random(), n - rng.uniform(0.0, 5.0) * math.sqrt(n),
                            n * 10.0 ** rng.uniform(-6.0, 0.0)])
            if 0.0 < a < n:
                assert repr(birth_death_wait_prob(n, a)) == repr(full_loop(n, a)), (n, a)

    @pytest.mark.parametrize("n, a", [(10**9, 1e9 - 1e4), (10**7, 5.0)])
    def test_large_server_counts_within_a_time_budget(self, n, a):
        # all n steps took 0.9 s at (1e7, 5), where the sum overflows at once,
        # and 13 s at (1e8, 1e8 - 1e4), where a subnormal term held steady
        start = time.perf_counter()
        value = birth_death_wait_prob(n, a)
        assert time.perf_counter() - start < 1.0
        assert value == pytest.approx(erlang_c_gamma(n, a).value, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("n, a", [(2**53, 2.0**53 - 2.0**30), (10**12, 1e12 - 5e6)])
    def test_past_the_ceiling_raises_at_once(self, n, a):
        # the terms grow for n - a steps, then fall for about 9*sqrt(a):
        # 1.1e9 and 1.4e7 steps, minutes and seconds
        start = time.perf_counter()
        with pytest.raises(DomainError, match="ceiling of 10,000,000 steps; erlang_c_gamma"):
            birth_death_wait_prob(n, a)
        assert time.perf_counter() - start < 0.1

    def test_step_count_bounds_the_loop(self):
        rng = random.Random(31)
        for _ in range(300):
            a = 10.0 ** rng.uniform(-3.0, 6.0)
            n = rng.choice([math.floor(a + rng.uniform(0.0, 60.0) * math.sqrt(a)) + 1,
                            math.floor(a * 10.0 ** rng.uniform(0.0, 3.0)) + 1])
            if not a < n:
                continue
            d = n - a
            grow = 710.0 / math.log1p(d / (2.0 * a)) + 2.0
            bound = min(n, grow if grow <= d / 2.0 else d + 9.0 * math.sqrt(a) + 3.0)
            term, ratio, steps = 1.0, 0.0, 0
            for k in range(n, 0, -1):
                steps += 1
                term *= k / a
                if ratio + term == ratio:
                    break
                ratio += term
            assert steps <= bound, (n, a)

    def test_instability_rejected(self):
        with pytest.raises(DomainError):
            birth_death_wait_prob(3, 3.0)
        with pytest.raises(DomainError):
            birth_death_wait_prob(2, 5.0)

    @pytest.mark.parametrize("n", [math.inf, math.nan, True, False, 2.5, 0])
    def test_server_count_domain(self, n):
        # inf and nan used to escape as OverflowError and a bare ValueError,
        # and True counted as one server
        with pytest.raises(DomainError, match="^server count must be a positive integer"):
            birth_death_wait_prob(n, 0.5)

    def test_integral_float_count(self):
        assert birth_death_wait_prob(5.0, 4.0) == birth_death_wait_prob(5, 4.0)


class TestSimConfig:
    def test_warmup_default(self):
        # replications start at stationarity: no warm-up, and none to set
        cfg = SimConfig(n=5, lam=4.0, mu=1.0, measured_arrivals=1000, seed=1)
        assert cfg.warmup_arrivals == 0
        assert cfg.offered_load == 4.0
        with pytest.raises(TypeError):
            SimConfig(n=5, lam=4.0, mu=1.0, measured_arrivals=1000, seed=1, warmup_arrivals=7)

    def test_unstable_rejected(self):
        with pytest.raises(DomainError):
            SimConfig(n=2, lam=3.0, mu=1.0, measured_arrivals=1000, seed=1)

    def test_bad_counts_rejected(self):
        with pytest.raises(DomainError):
            SimConfig(n=2, lam=1.0, mu=1.0, measured_arrivals=10, seed=1)
        with pytest.raises(DomainError):
            SimConfig(n=0, lam=0.1, mu=1.0, measured_arrivals=100, seed=1)

    def test_replace_and_make_check_fields(self):
        cfg = SimConfig(n=2, lam=1.0, mu=1.0, measured_arrivals=100, seed=1)
        assert cfg._replace(seed=2) == (2, 1.0, 1.0, 100, 2)
        with pytest.raises(DomainError):
            cfg._replace(n=0)
        with pytest.raises(DomainError):
            SimConfig._make((2, 1.0, 1.0, 100, -1))

    @pytest.mark.parametrize("field, value", [("n", 10**6 + 1), ("measured_arrivals", 10**8 + 1)])
    def test_counts_past_their_ceilings(self, field, value):
        # the stationary law holds n + 1 weights, and 1e8 arrivals take ~20 s
        kwargs = dict(n=10**6, lam=1.0, mu=1.0, measured_arrivals=10**8, seed=1)
        assert SimConfig(**kwargs).n == 10**6
        kwargs[field] = value
        with pytest.raises(DomainError, match="no larger than"):
            SimConfig(**kwargs)

    def test_negative_seed_rejected(self):
        # checked up front: numpy's SeedSequence raises a bare ValueError
        with pytest.raises(DomainError, match="^seed must be a nonnegative integer"):
            SimConfig(n=2, lam=1.0, mu=1.0, measured_arrivals=100, seed=-1)

    @pytest.mark.parametrize(
        "field,value",
        [("lam", 0.0), ("lam", -1.0), ("lam", math.inf), ("lam", math.nan),
         ("mu", 0.0), ("mu", math.inf), ("mu", math.nan)],
    )
    def test_rates_rejected(self, field, value):
        kwargs = dict(n=2, lam=1.0, mu=1.0, measured_arrivals=100, seed=1)
        kwargs[field] = value
        with pytest.raises(DomainError):
            SimConfig(**kwargs)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n", 2.0),
            ("n", True),
            ("measured_arrivals", 100.0),
            ("measured_arrivals", 100.5),
            ("seed", 1.5),
            ("seed", True),
        ],
    )
    def test_non_integer_counts_rejected(self, field, value):
        kwargs = dict(n=2, lam=1.0, mu=1.0, measured_arrivals=100, seed=1)
        kwargs[field] = value
        name = {"n": "server count"}.get(field, field)
        with pytest.raises(DomainError, match=f"^{name} must be an? [a-z ]*integer"):
            SimConfig(**kwargs)


class TestSimulation:
    def test_deterministic_for_fixed_seed(self):
        cfg = SimConfig(n=5, lam=4.0, mu=1.0, measured_arrivals=20_000, seed=42)
        first = simulate_mmn(cfg)
        second = simulate_mmn(cfg)
        assert first == second  # bit-identical fields

    def test_different_seeds_differ(self):
        base = dict(n=5, lam=4.0, mu=1.0, measured_arrivals=20_000)
        est1 = simulate_mmn(SimConfig(seed=1, **base))
        est2 = simulate_mmn(SimConfig(seed=2, **base))
        assert est1.p_wait != est2.p_wait

    def test_single_server_half_load(self):
        cfg = SimConfig(n=1, lam=0.5, mu=1.0, measured_arrivals=60_000, seed=7)
        est = simulate_mmn(cfg)
        assert est.batches == 32
        assert abs(est.p_wait - 0.5) <= 3.0 * est.ci_halfwidth

    def test_five_servers_matches_analytic(self):
        cfg = SimConfig(n=5, lam=4.0, mu=1.0, measured_arrivals=60_000, seed=11)
        est = simulate_mmn(cfg)
        expected = float(oracles.erlang_c_exact(5, Fraction(4)))
        assert abs(est.p_wait - expected) <= 3.0 * est.ci_halfwidth

    def test_ci_coverage_over_seeds(self):
        # 95% CIs from 20 independent seeds should cover the true value
        # at least 18 times (binomial sanity band)
        expected = float(oracles.erlang_c_exact(5, Fraction(4)))
        covered = 0
        for seed in range(20):
            est = simulate_mmn(
                SimConfig(n=5, lam=4.0, mu=1.0, measured_arrivals=24_000, seed=seed)
            )
            if abs(est.p_wait - expected) <= est.ci_halfwidth:
                covered += 1
        assert covered >= 18, covered

    def test_ci_shrinks_like_root_two(self):
        halves = []
        for seed in range(9):
            small = simulate_mmn(
                SimConfig(n=5, lam=4.0, mu=1.0, measured_arrivals=30_000, seed=100 + seed)
            )
            large = simulate_mmn(
                SimConfig(n=5, lam=4.0, mu=1.0, measured_arrivals=60_000, seed=100 + seed)
            )
            halves.append(small.ci_halfwidth / large.ci_halfwidth)
        assert 1.25 <= statistics.median(halves) <= 1.6

    @pytest.mark.parametrize(
        "n, lam, seed, p_wait, ci_halfwidth",
        [
            (1, 0.5, 7, 0.50115, 0.014983171666882325),
            (5, 4.0, 42, 0.5793, 0.028753593207089045),
            (100, 90.0, 7, 0.20125, 0.05396577182265801),
            (400, 380.0, 11, 0.07625, 0.03926394887375503),
        ],
        ids=["n1", "n5", "n100", "n400"],  # stable when the draws are re-pinned
    )
    def test_pinned_estimates(self, n, lam, seed, p_wait, ci_halfwidth):
        # values from oracles.simulate_mmn_per_arrival on the same seeds
        est = simulate_mmn(SimConfig(n=n, lam=lam, mu=1.0, measured_arrivals=20_000, seed=seed))
        assert est == SimEstimate(p_wait=p_wait, ci_halfwidth=ci_halfwidth, batches=32)

    @pytest.mark.parametrize(
        "n, lam, mu, measured, seed, chunk",
        [
            (2, 1.0, 1.0, 32, 0, None),  # the benchmark's set-up call
            (5, 4.0, 1.0, 20_000, 42, None),
            (5, 4.0, 1.0, 20_001, 42, None),
            (100, 90.0, 1.0, 20_000, 7, None),
            (100, 90.0, 1.0, 20_001, 7, None),
            (400, 380.0, 1.0, 20_000, 11, None),
            (400, 380.0, 1.0, 20_001, 11, None),
            (5, 4.0, 1.0, 1_000, 3, 1),
            # one array per batch of 4 096 or 4 097 draws
            (5, 4.0, 1.0, 131_077, 5, 65_531),
            (3, 4.0, 1.7, 20_000, 9, None),
            (3, 2.9, 1.0, 2_000, 4, None),  # starts with ~30 customers queued
        ],
    )
    def test_same_as_per_arrival_loop(self, monkeypatch, n, lam, mu, measured, seed, chunk):
        # chunked draws and accumulated arrival times give each customer the
        # same variates through the same float operations in the same order,
        # from the same start; chunk, when given, is the most draws per array
        if chunk is not None:
            monkeypatch.setattr(mmn_oracle, "_CHUNK", chunk)
        cfg = SimConfig(n=n, lam=lam, mu=mu, measured_arrivals=measured, seed=seed)
        assert simulate_mmn(cfg) == oracles.simulate_mmn_per_arrival(cfg)

    @pytest.mark.parametrize("rate", [1.0, 3.7])
    def test_draws_are_scalar_ziggurat_calls(self, rate):
        # the joined arrays are the stream's scalar standard_exponential()
        # calls times 1/rate, to the bit; the inverse-transform sampler
        # (method="inv") draws other doubles from the same stream
        sizes = [65_531, 3, 4_097]
        stream = np.random.SeedSequence(17).spawn(2)[1]
        chunks = list(mmn_oracle._exponential_chunks(stream, rate, sizes))
        gen = np.random.Generator(np.random.PCG64(stream))
        expected = [gen.standard_exponential() * (1.0 / rate) for _ in range(sum(sizes))]
        assert [x for chunk in chunks for x in chunk.tolist()] == expected
        # at most _CHUNK draws per array, cut at each segment's end
        cuts = [len(chunk) for chunk in chunks]
        assert cuts == [4096] * 15 + [4091, 3, 4096, 1]

    def test_arrival_times_are_running_sums(self):
        # customer 0 arrives at 0.0 and customer i after the gaps of 0..i-1,
        # with the clock carried across chunk and segment cuts
        sizes = [4_099, 3, 5]
        stream = np.random.SeedSequence(23).spawn(3)[0]
        gap_chunks = list(mmn_oracle._exponential_chunks(stream, 0.01, sizes))
        gaps = [x for chunk in gap_chunks for x in chunk.tolist()]
        chunks = list(mmn_oracle._arrival_times(gap_chunks))
        assert [len(chunk) for chunk in chunks] == [4096, 3, 3, 5]
        expected = []
        time = 0.0
        for gap in gaps:
            expected.append(time)
            time += gap
        assert [t for chunk in chunks for t in chunk.tolist()] == expected

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    def test_chunk_size_changes_no_bit(self, monkeypatch, chunk):
        cfg = SimConfig(n=5, lam=4.0, mu=1.0, measured_arrivals=2_001, seed=8)
        monkeypatch.setattr(mmn_oracle, "_CHUNK", chunk)
        assert simulate_mmn(cfg) == oracles.simulate_mmn_per_arrival(cfg)

    @pytest.mark.parametrize("n, a", [(5, 4.0), (100, 90.0), (400, 380.0)])
    def test_start_is_stationary(self, n, a):
        # by PASTA an arrival finds all n busy with probability C(n, a), and
        # the mean number of busy servers is the offered load a
        draws = 20_000
        law = mmn_oracle._stationary_law(n, a)
        gen = np.random.Generator(np.random.PCG64(n))
        busy = [n - mmn_oracle._stationary_start(gen, law, 1.0).count(-math.inf)
                for _ in range(draws)]
        share = sum(b == n for b in busy) / draws
        c = erlang_c_integer(n, a).value
        assert abs(share - c) <= 4.0 * math.sqrt(c * (1.0 - c) / draws), (share, c)
        se = statistics.stdev(busy) / math.sqrt(draws)
        assert abs(statistics.fmean(busy) - a) <= 4.0 * se, (statistics.fmean(busy), a)

    @pytest.mark.parametrize("n, lam", [(5, 4.0), (100, 90.0), (400, 380.0)])
    def test_start_from_wrong_law_forgotten(self, monkeypatch, n, lam):
        # the start shares pi with birth_death_wait_prob, but the estimate
        # does not lean on it: a start drawn at load 0.9a still meets the
        # 1e6-arrival criterion of the acceptance tests
        law = mmn_oracle._stationary_law
        monkeypatch.setattr(mmn_oracle, "_stationary_law", lambda n, a: law(n, 0.9 * a))
        est = simulate_mmn(
            SimConfig(n=n, lam=lam, mu=1.0, measured_arrivals=1_000_000, seed=20260808)
        )
        expected = erlang_c_integer(n, lam).value
        assert abs(est.p_wait - expected) <= 3.0 * est.ci_halfwidth, (est, expected)

    def test_memory_flat_in_arrivals(self):
        # one array and one list of draws per stream (~0.34 MB); holding
        # every draw of the run, even as packed doubles, would take 3.2 MB
        simulate_mmn(SimConfig(n=2, lam=1.0, mu=1.0, measured_arrivals=32, seed=0))
        tracemalloc.start()
        try:
            simulate_mmn(SimConfig(n=5, lam=4.0, mu=1.0, measured_arrivals=200_000, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak

    def test_estimate_fields(self):
        est = simulate_mmn(SimConfig(n=3, lam=1.5, mu=1.0, measured_arrivals=5_000, seed=3))
        assert isinstance(est, SimEstimate)
        assert 0.0 <= est.p_wait <= 1.0
        assert est.ci_halfwidth >= 0.0
        assert est.batches >= 10


def test_package_and_cli_load_without_numpy():
    # numpy is imported by simulate_mmn alone
    code = "import sys, hw_staffing, hw_staffing.cli; sys.exit('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr or "numpy was imported"


def test_package_and_cli_load_without_dataclasses():
    # the records are NamedTuples; dataclasses pulled in inspect, dis, ast
    # and tokenize, about two thirds of the package's import time
    code = (
        "import sys, hw_staffing, hw_staffing.cli; "
        "sys.exit(', '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules) or None)"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
