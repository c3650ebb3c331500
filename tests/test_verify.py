"""Verification suites as library records."""

import math

import pytest

from hw_staffing import halfin_whitt
from hw_staffing.errors import DomainError, NumericalError
from hw_staffing.verify import SUITES, run_suite


def test_records_are_name_passed_detail():
    checks = run_suite("order")
    assert len(checks) == 11
    for name, passed, detail in checks:
        assert name.startswith("tail-dominance a=")
        assert passed is True
        assert detail.startswith("worst excess ")


def test_all_is_the_suites_in_order():
    names = [name for name, _, _ in run_suite("all")]
    assert names == [name for suite in SUITES for name, _, _ in run_suite(suite)]


def test_patched_module_function_is_checked(monkeypatch):
    monkeypatch.setattr("hw_staffing.proof_kit.moment_y", lambda a, beta: 1.0)
    failed = [name for name, passed, _ in run_suite("identities") if not passed]
    assert failed == ["moment-identity"]


def test_unknown_suite_rejected():
    with pytest.raises(DomainError, match="unknown verify suite"):
        run_suite("bogus")


def test_monotonicity_details_are_the_sweeps_own_figures():
    grid = halfin_whitt.default_load_grid(0.01, 1e4, 40)
    details = {name: detail for name, _, detail in run_suite("monotonicity")}
    sweep = halfin_whitt.hw_sweep(0.5, grid)
    assert details["strict-decrease beta=0.5"] == f"min decrement margin {sweep.min_margin:.17g}"
    assert details["above-limit beta=0.5"] == f"min gap {sweep.min_gap:.17g}"


def test_failed_sweep_row_fails_and_names_its_error(monkeypatch):
    grid = halfin_whitt.default_load_grid(0.01, 1e4, 40)
    real_gamma = halfin_whitt._gamma

    def failing_gamma(s, d, a):  # fails the row at grid[20] of beta = 1 alone
        if a == grid[20] and d == math.sqrt(a):
            raise NumericalError("stopped on purpose")
        return real_gamma(s, d, a)

    monkeypatch.setattr(halfin_whitt, "_gamma", failing_gamma)
    records = {name: (passed, detail) for name, passed, detail in run_suite("monotonicity")}
    want = f"row a={grid[20]:.17g} failed: stopped on purpose"
    assert records["strict-decrease beta=1"] == (False, want)
    assert records["above-limit beta=1"] == (False, want)
    assert records["strict-decrease beta=2"][0] is True
