"""Birth-death solve and discrete-event simulation against the analytics."""

import math
import statistics
import subprocess
import sys
from fractions import Fraction

import pytest

from hw_staffing.erlang import erlang_c_integer
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

    def test_instability_rejected(self):
        with pytest.raises(DomainError):
            birth_death_wait_prob(3, 3.0)
        with pytest.raises(DomainError):
            birth_death_wait_prob(2, 5.0)


class TestSimConfig:
    def test_warmup_default(self):
        cfg = SimConfig(n=5, lam=4.0, mu=1.0, measured_arrivals=1000, seed=1)
        rho = 4.0 / 5.0
        assert cfg.warmup_arrivals == math.ceil(10.0 * 5 / (1.0 - rho))
        assert cfg.offered_load == 4.0

    def test_explicit_warmup_kept(self):
        cfg = SimConfig(n=2, lam=1.0, mu=1.0, measured_arrivals=64, seed=1, warmup_arrivals=7)
        assert cfg.warmup_arrivals == 7

    def test_unstable_rejected(self):
        with pytest.raises(DomainError):
            SimConfig(n=2, lam=3.0, mu=1.0, measured_arrivals=1000, seed=1)

    def test_bad_counts_rejected(self):
        with pytest.raises(DomainError):
            SimConfig(n=2, lam=1.0, mu=1.0, measured_arrivals=10, seed=1)
        with pytest.raises(DomainError):
            SimConfig(n=0, lam=0.1, mu=1.0, measured_arrivals=100, seed=1)
        with pytest.raises(DomainError):
            SimConfig(n=2, lam=1.0, mu=1.0, measured_arrivals=100, seed=1, warmup_arrivals=0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n", 2.0),
            ("n", True),
            ("measured_arrivals", 100.0),
            ("measured_arrivals", 100.5),
            ("seed", 1.5),
            ("seed", True),
            ("warmup_arrivals", 7.0),
            ("warmup_arrivals", 2.5),
        ],
    )
    def test_non_integer_counts_rejected(self, field, value):
        kwargs = dict(n=2, lam=1.0, mu=1.0, measured_arrivals=100, seed=1)
        kwargs[field] = value
        with pytest.raises(DomainError, match=f"^{field} must be an integer"):
            SimConfig(**kwargs)


class TestSimulation:
    def test_deterministic_for_fixed_seed(self):
        cfg = SimConfig(n=5, lam=4.0, mu=1.0, measured_arrivals=20_000, seed=42)
        first = simulate_mmn(cfg)
        second = simulate_mmn(cfg)
        assert first == second  # bit-identical dataclass

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
            (1, 0.5, 7, 0.4968, 0.011518606839110077),
            (5, 4.0, 42, 0.5609, 0.030934027963666757),
            (100, 90.0, 7, 0.2095, 0.06839138231270277),
            (400, 380.0, 11, 0.1662, 0.09352502270147314),
        ],
    )
    def test_pinned_estimates(self, n, lam, seed, p_wait, ci_halfwidth):
        # values from an event-heap simulation of the same seeded streams:
        # the FCFS recursion gives each customer the same variates
        est = simulate_mmn(SimConfig(n=n, lam=lam, mu=1.0, measured_arrivals=20_000, seed=seed))
        assert est == SimEstimate(p_wait=p_wait, ci_halfwidth=ci_halfwidth, batches=32)

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
