"""Verification suites as library records."""

import pytest

from hw_staffing.errors import DomainError
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
