"""Property verification suites: the numerical evidence for the paper's claim.

Three suites, each a list of (name, passed, detail) records:

* monotonicity -- C(a + beta*sqrt(a), a) decreases strictly in a (every
  decrement beyond the summed error bounds) and stays above hw_limit(beta),
  as hw_sweep's SweepResult reports it; a failed row fails both records
  and is named in their detail;
* order -- tail dominance of Y_a between successive loads;
* identities -- density normalizations, the tail rewrite through h, the
  series form of h, the moment identity 1/C = E[Y_a**beta], and agreement
  of the three routes to C(n, a).

The suites reach the functions they check through their modules
(proof_kit.tail_y, not a local name), so a patched module function is the
one that gets checked.
"""

from __future__ import annotations

import math

from . import erlang, halfin_whitt, numerics, proof_kit
from .errors import DomainError

__all__ = ["SUITES", "run_suite"]

SUITES = ("monotonicity", "order", "identities")

_BETAS = (0.1, 0.5, 1.0, 2.0, 3.0)
_ORDER_LOADS = tuple(0.5 * 2.0 ** k for k in range(12))  # 0.5 .. 1024
_AGREEMENT_N = (1, 2, 5, 10, 20, 50, 100, 500)
_AGREEMENT_RHO = (0.1, 0.3, 0.5, 0.7, 0.9, 0.95)


def run_suite(suite: str = "all") -> list[tuple[str, bool, str]]:
    """The (name, passed, detail) records of one suite, or of all three
    (in SUITES order) for suite "all". Details print floats with 17
    significant digits."""
    if suite != "all" and suite not in SUITES:
        raise DomainError(f"unknown verify suite {suite!r}; expected 'all' or one of {SUITES}")
    checks = []
    if suite in ("all", "monotonicity"):
        checks.extend(_monotonicity())
    if suite in ("all", "order"):
        checks.extend(_order())
    if suite in ("all", "identities"):
        checks.extend(_identities())
    return checks


def _monotonicity():
    checks = []
    grid = halfin_whitt.default_load_grid(0.01, 1e4, 40)
    for beta in _BETAS:
        sweep = halfin_whitt.hw_sweep(beta, grid)
        failed = next((r for r in sweep.rows if r.error is not None), None)
        if failed is not None:
            margin_detail = gap_detail = f"row a={failed.a:.17g} failed: {failed.error}"
        else:
            margin_detail = f"min decrement margin {sweep.min_margin:.17g}"
            gap_detail = f"min gap {sweep.min_gap:.17g}"
        checks.append((f"strict-decrease beta={beta:g}", bool(sweep.decreasing), margin_detail))
        checks.append((f"above-limit beta={beta:g}", bool(sweep.gaps_positive), gap_detail))
    return checks


def _order():
    checks = []
    y_grid = halfin_whitt.default_load_grid(1.01, 100.0, 50)
    for a_low, a_high in zip(_ORDER_LOADS, _ORDER_LOADS[1:]):
        report = proof_kit.check_stochastic_order(a_low, a_high, y_grid)
        checks.append((f"tail-dominance a={a_low:g}->{a_high:g}", report.passed,
                       f"worst excess {report.worst_excess:.17g}"))
    return checks


def _log_density_y_in_t(t: float, a: float) -> float:
    # Y_a's density at y = (1 + t)**sqrt(a), times dy/dt: X_a's density again
    r = math.sqrt(a)
    y = (1.0 + t) ** r
    d = proof_kit.density_y(y, a) if y > 1.0 else 0.0  # y rounds to 1 below t ~ eps/r
    return math.log(d * r * y / (1.0 + t)) if d > 0.0 else -math.inf


def _identities():
    checks = []
    integrate = numerics.integrate_semi_infinite
    log_density_x = proof_kit._log_density_x
    grid = halfin_whitt.default_load_grid

    worst = 0.0
    for a in (0.25, 1.0, 9.0, 100.0, 2500.0):
        z, width = erlang._peak(0.0, a)  # X_a's density is 1/C's integrand at s = a
        peak = math.log(z / math.sqrt(a)), width  # moved from log z to log t
        worst = max(worst, abs(integrate(lambda t: log_density_x(t, a), *peak) - 1.0))
        worst = max(worst, abs(integrate(lambda t: _log_density_y_in_t(t, a), *peak) - 1.0))
    checks.append(("density-normalization", worst <= 1e-10, f"worst |integral - 1| {worst:.17g}"))

    worst = 0.0
    for y in grid(1.1, 100.0, 20):
        for a in grid(0.5, 1000.0, 20):  # floor keeps tails above underflow
            t1 = proof_kit.tail_y(y, a)
            t2 = proof_kit.tail_y_via_h(y, a)
            worst = max(worst, abs(t1 - t2) / t1)
    checks.append(("tail-rewrite", worst <= 1e-12, f"worst relative diff {worst:.17g}"))

    worst = 0.0
    for x in grid(1.0, 1e3, 40):
        worst = max(worst, abs(proof_kit.h(x) - proof_kit.h_series(x, 30)))
    checks.append(("h-series", worst <= 1e-12, f"worst |closed - series| {worst:.17g}"))

    worst = 0.0
    for a in (1.0, 10.0, 100.0):
        for beta in (0.5, 1.0, 3.0):
            c = erlang.erlang_c_real(halfin_whitt.staffing(a, beta), a).value
            worst = max(worst, abs(1.0 / proof_kit.moment_y(a, beta) - c) / c)
    checks.append(("moment-identity", worst <= 1e-8, f"worst relative diff {worst:.17g}"))

    worst = 0.0
    for n in _AGREEMENT_N:
        for rho in _AGREEMENT_RHO:
            a = n * rho
            values = [
                erlang.erlang_c_integer(n, a).value,
                erlang.erlang_c_real(float(n), a).value,
                erlang.erlang_c_gamma(float(n), a).value,
            ]
            worst = max(worst, *(abs(u - v) / v for u in values for v in values))
    checks.append(("three-way-agreement", worst <= 1e-10, f"worst relative diff {worst:.17g}"))
    return checks
