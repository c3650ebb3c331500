"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and fails
loudly if its gate is missed. Runtime-limited criteria assert their own
wall-clock budget.
"""

import math
import time
import xml.etree.ElementTree as ET
from fractions import Fraction

from hw_staffing import erlang
from hw_staffing.cli import main as cli_main
from hw_staffing.erlang import erlang_c_gamma, erlang_c_integer, erlang_c_real
from hw_staffing.halfin_whitt import (
    beta_for_target,
    default_load_grid,
    hw_limit,
    hw_sweep,
    min_servers,
    real_staffing_level,
    staffing,
)
from hw_staffing.mmn_oracle import SimConfig, birth_death_wait_prob, simulate_mmn
from hw_staffing.numerics import integrate_semi_infinite
from hw_staffing.proof_kit import (
    check_stochastic_order,
    density_g,
    h,
    h_series,
    moment_y,
    tail_y,
    tail_y_via_h,
)
from hw_staffing.verify import _log_density_y_in_t

import oracles

GRID_N = (1, 2, 5, 10, 20, 50, 100, 500)
GRID_RHO = (0.1, 0.3, 0.5, 0.7, 0.9, 0.95)
BETAS = (0.1, 0.5, 1.0, 2.0, 3.0)


def _geom_grid(lo, hi, points):
    r = math.log(hi / lo) / (points - 1)
    return [lo * math.exp(r * i) for i in range(points)]


def _x_peak(a):
    # X_a's density is 1/C's integrand at s = a: erlang's peak, moved from
    # log z to log t, as verify takes it
    z, width = erlang._peak(0.0, a)
    return math.log(z / math.sqrt(a)), width


def _report(number, name, failures, detail=""):
    status = "PASS" if not failures else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} criterion {number}: {name}{suffix}")
    assert not failures, failures[:10]


def test_criterion_1_three_way_agreement():
    start = time.perf_counter()
    failures = []
    worst = 0.0
    for n in GRID_N:
        for rho in GRID_RHO:
            a = n * rho
            values = {
                "recurrence": erlang_c_integer(n, a).value,
                "quadrature": erlang_c_real(float(n), a).value,
                "gamma": erlang_c_gamma(float(n), a).value,
            }
            for name_i, v_i in values.items():
                for name_j, v_j in values.items():
                    if name_i == name_j:
                        continue
                    rel = abs(v_i - v_j) / v_j
                    worst = max(worst, rel)
                    if rel > 1e-10:
                        failures.append((n, rho, name_i, name_j, rel))
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(("runtime", elapsed))
    _report(1, "three-way Erlang agreement <= 1e-10",
            failures, f"worst rel diff {worst:.3e}, {elapsed:.2f}s")


def test_criterion_2_monotone_dominance():
    start = time.perf_counter()
    failures = []
    worst_margin = math.inf
    worst_gap = math.inf
    grid = default_load_grid(0.01, 1e4, 40)
    for beta in BETAS:
        sweep = hw_sweep(beta, grid)
        rows = sweep.rows
        if any(r.c_value is None for r in rows):
            failures.append((beta, "failed rows"))
            continue
        for x, y in zip(rows, rows[1:]):
            margin = x.c_value - y.c_value - (x.error_bound + y.error_bound)
            worst_margin = min(worst_margin, margin)
            if margin <= 0.0:
                failures.append((beta, x.a, "not strictly decreasing"))
        for r in rows:
            worst_gap = min(worst_gap, r.gap)
            if r.gap <= 0.0:
                failures.append((beta, r.a, "at or below limit"))
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(("runtime", elapsed))
    _report(2, "C(a+beta*sqrt(a),a) strictly decreasing and above C*(beta)",
            failures, f"min decrement margin {worst_margin:.3e}, min gap {worst_gap:.3e}, {elapsed:.2f}s")


def test_criterion_3_limit_convergence():
    failures = []
    details = []
    for beta in BETAS:
        c_star = hw_limit(beta)
        gap_100 = abs(erlang_c_real(staffing(1e2, beta), 1e2).value - c_star)
        gap_10k = abs(erlang_c_real(staffing(1e4, beta), 1e4).value - c_star)
        details.append(f"beta={beta:g}: {gap_10k:.2e}")
        if not (gap_10k < gap_100):
            failures.append((beta, "gap did not shrink", gap_100, gap_10k))
        if not (gap_10k < 0.01):
            failures.append((beta, "gap at a=1e4 not below 0.01", gap_10k))
    _report(3, "limit convergence from above", failures, "; ".join(details))


def test_criterion_4_proof_object_identities():
    failures = []

    def log_of(f):
        def log_f(t):
            v = f(t)
            return math.log(v) if v > 0.0 else -math.inf
        return log_f

    worst_norm = 0.0
    for a in (0.25, 1.0, 9.0, 100.0, 2500.0):
        peak = _x_peak(a)
        g_total = integrate_semi_infinite(log_of(lambda t, a=a: density_g(t, a)), *peak)
        f_total = integrate_semi_infinite(lambda t, a=a: _log_density_y_in_t(t, a), *peak)
        worst_norm = max(worst_norm, abs(g_total - 1.0), abs(f_total - 1.0))
        if abs(g_total - 1.0) > 1e-10:
            failures.append(("integral g", a, g_total))
        if abs(f_total - 1.0) > 1e-10:
            failures.append(("integral f", a, f_total))

    worst_rewrite = 0.0
    for y in _geom_grid(1.1, 100.0, 20):
        for a in _geom_grid(0.5, 1000.0, 20):
            reference = tail_y(y, a)
            rel = abs(tail_y_via_h(y, a) - reference) / reference
            worst_rewrite = max(worst_rewrite, rel)
            if rel > 1e-12:
                failures.append(("rewrite", y, a, rel))

    worst_h = 0.0
    for x in _geom_grid(1.0, 1e3, 60):
        diff = abs(h(x) - h_series(x, 30))
        worst_h = max(worst_h, diff)
        if diff > 1e-12:
            failures.append(("h series", x, diff))

    worst_moment = 0.0
    for a in (1.0, 10.0, 100.0):
        for beta in (0.5, 1.0, 3.0):
            c = erlang_c_real(staffing(a, beta), a).value
            rel = abs(1.0 / moment_y(a, beta) - c) / c
            worst_moment = max(worst_moment, rel)
            if rel > 1e-8:
                failures.append(("moment", a, beta, rel))

    _report(4, "proof-object identities",
            failures,
            f"norm {worst_norm:.2e}, rewrite {worst_rewrite:.2e}, "
            f"h {worst_h:.2e}, moment {worst_moment:.2e}")


def test_criterion_5_stochastic_ordering():
    failures = []
    loads = [0.5 * 2.0 ** k for k in range(12)]  # 0.5 .. 1024
    y_grid = _geom_grid(1.01, 100.0, 50)
    for a_low, a_high in zip(loads, loads[1:]):
        report = check_stochastic_order(a_low, a_high, y_grid)
        if not report.passed:
            failures.append((a_low, a_high, report.violations[:3]))
    _report(5, "stochastic ordering of Y_a across adjacent loads", failures,
            f"{len(loads) - 1} pairs x {len(y_grid)} tail points")


def test_criterion_6_oracle_equivalence():
    start = time.perf_counter()
    failures = []
    worst = 0.0
    for n in GRID_N:
        for rho in GRID_RHO:
            a = n * rho
            reference = erlang_c_integer(n, a).value
            rel = abs(birth_death_wait_prob(n, a) - reference) / reference
            worst = max(worst, rel)
            if rel > 1e-12:
                failures.append(("birth-death", n, rho, rel))

    estimate = simulate_mmn(
        SimConfig(n=5, lam=4.0, mu=1.0, measured_arrivals=1_000_000, seed=20260808)
    )
    analytic = float(oracles.erlang_c_exact(5, Fraction(4)))
    if abs(estimate.p_wait - 0.55414) > 3.0 * estimate.ci_halfwidth:
        failures.append(("simulation vs quoted value", estimate))
    if abs(estimate.p_wait - analytic) > 3.0 * estimate.ci_halfwidth:
        failures.append(("simulation vs exact oracle", estimate))
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(("runtime", elapsed))
    _report(6, "model-level oracles agree with the analytics", failures,
            f"worst birth-death rel {worst:.2e}, sim |dev| "
            f"{abs(estimate.p_wait - analytic):.2e} vs ci {estimate.ci_halfwidth:.2e}, {elapsed:.1f}s")


STAFFING_SAMPLES = [
    (2, 1.0), (3, 2.2), (4, 3.0), (5, 4.0), (6, 3.3),
    (8, 6.5), (10, 8.0), (12, 9.6), (15, 13.0), (20, 16.0),
    (25, 21.0), (30, 27.0), (40, 35.0), (50, 45.0), (75, 64.0),
    (100, 88.0), (150, 140.0), (200, 185.0), (300, 270.0), (500, 460.0),
]


def test_criterion_7_staffing_round_trips():
    failures = []
    for n, a in STAFFING_SAMPLES:
        epsilon = erlang_c_integer(n, a).value * (1.0 + 1e-9)
        got = min_servers(a, epsilon)
        if got != n:
            failures.append(("min_servers", n, a, got))

    for s, a in ((5.5, 4.0), (12.25, 10.0), (31.4, 28.0), (110.0, 100.0), (3.3, 2.1)):
        epsilon = erlang_c_real(s, a).value
        got = real_staffing_level(a, epsilon)
        if abs(got - s) > 1e-6:
            failures.append(("real_staffing_level", s, a, got))

    worst_beta = 0.0
    for k in range(25):
        beta = 0.05 + (6.0 - 0.05) * k / 24
        got = beta_for_target(hw_limit(beta))
        worst_beta = max(worst_beta, abs(got - beta))
        if abs(got - beta) > 1e-9:
            failures.append(("beta round trip", beta, got))
    _report(7, "staffing inversions round-trip", failures,
            f"20 integer pairs, 5 real pairs, worst beta dev {worst_beta:.2e}")


def test_criterion_8_figure_reproduction(tmp_path, capsys):
    failures = []
    for beta, flags in (("0.1", ["--log-x"]), ("3", [])):
        outputs = []
        for attempt in ("one", "two"):
            base = tmp_path / f"beta{beta}_{attempt}"
            code = cli_main(
                ["sweep", "--regime", "inverse", "--beta", beta,
                 "--format", "both", "--out", str(base), *flags]
            )
            if code != 0:
                failures.append((beta, "exit code", code))
            outputs.append(base)
        capsys.readouterr()  # drop the "wrote ..." lines

        csv_one = (tmp_path / (outputs[0].name + ".csv")).read_bytes()
        csv_two = (tmp_path / (outputs[1].name + ".csv")).read_bytes()
        svg_one = (tmp_path / (outputs[0].name + ".svg")).read_bytes()
        svg_two = (tmp_path / (outputs[1].name + ".svg")).read_bytes()
        if csv_one != csv_two or svg_one != svg_two:
            failures.append((beta, "outputs not byte-stable"))

        rows = csv_one.decode().strip().splitlines()[1:]
        if len(rows) != 200:
            failures.append((beta, "row count", len(rows)))
        for row in rows:
            fields = row.split(",")
            if fields[-1] != "":
                failures.append((beta, "failed row", row))
                break
            c = float(fields[2])
            if not (0.0 < c < 1.0):
                failures.append((beta, "value outside (0,1)", c))
                break

        root = ET.fromstring(svg_one.decode())
        if root.tag != "{http://www.w3.org/2000/svg}svg" or root.get("version") != "1.1":
            failures.append((beta, "not a valid SVG 1.1 document"))
    _report(8, "inverse-regime figures reproduce deterministically", failures,
            "beta=0.1 and beta=3, 200 rows each, CSV+SVG byte-stable")
