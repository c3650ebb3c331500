"""The result records: their repr, defaults, immutability and hashing.

The repr strings are the ones the records printed before they became
NamedTuples, so comparisons made through repr (the frozen-kernel oracles)
keep their meaning.
"""

import pytest

from hw_staffing.erlang import DelayProbability, Method
from hw_staffing.halfin_whitt import SweepResult, SweepRow
from hw_staffing.mmn_oracle import SimConfig, SimEstimate
from hw_staffing.numerics import BracketedRoot
from hw_staffing.proof_kit import OrderReport

_ROW = SweepRow(4.0, 6.0, 0.25, 1e-15, None, 0.2)

SAMPLES = [
    (
        DelayProbability(0.25, Method.QUADRATURE, 1e-15, 65),
        "DelayProbability(value=0.25, method=<Method.QUADRATURE: 'quadrature'>, "
        "error_bound=1e-15, evaluations=65)",
    ),
    (BracketedRoot(1.0, 2.0, 1.5, 7), "BracketedRoot(lo=1.0, hi=2.0, value=1.5, evaluations=7)"),
    (
        _ROW,
        "SweepRow(a=4.0, s=6.0, c_value=0.25, error_bound=1e-15, error=None, c_star=0.2)",
    ),
    (
        SweepResult(1.0, (_ROW,), 0.5, 0.05),
        "SweepResult(beta=1.0, rows=(SweepRow(a=4.0, s=6.0, c_value=0.25, "
        "error_bound=1e-15, error=None, c_star=0.2),), min_margin=0.5, min_gap=0.05)",
    ),
    (
        SimConfig(n=5, lam=4.0, mu=1.0, measured_arrivals=64, seed=3),
        "SimConfig(n=5, lam=4.0, mu=1.0, measured_arrivals=64, seed=3)",
    ),
    (
        SimEstimate(0.25, 0.125, 32),
        "SimEstimate(p_wait=0.25, ci_halfwidth=0.125, batches=32)",
    ),
    (
        OrderReport(1.0, 2.0, (1.5, 3.0), ((3.0, 0.5, 0.25),), False, 0.25),
        "OrderReport(a_low=1.0, a_high=2.0, y_grid=(1.5, 3.0), "
        "violations=((3.0, 0.5, 0.25),), passed=False, worst_excess=0.25)",
    ),
]
_IDS = [type(record).__name__ for record, _ in SAMPLES]


@pytest.mark.parametrize("record, text", SAMPLES, ids=_IDS)
def test_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", [r for r, _ in SAMPLES], ids=_IDS)
def test_fields_are_read_only(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("record", [r for r, _ in SAMPLES], ids=_IDS)
def test_hashable_and_equal_to_plain_tuple(record):
    copy = type(record)(*record)
    assert copy == record and hash(copy) == hash(record)
    assert tuple(record) == record


def test_defaults():
    assert DelayProbability(0.5, Method.GAMMA_CLOSED_FORM, 0.0).evaluations == 0
    row = SweepRow(4.0, 6.0, 0.25)
    assert (row.error_bound, row.error, row.c_star) == (0.0, None, None)
    result = SweepResult(1.0, (row,))
    assert (result.min_margin, result.min_gap) == (None, None)
    assert (result.decreasing, result.gaps_positive, result.verified) == (None, None, None)


def test_unpacks_in_field_order():
    value, method, bound, evaluations = DelayProbability(0.25, Method.QUADRATURE, 1e-15, 65)
    assert (value, method, bound, evaluations) == (0.25, Method.QUADRATURE, 1e-15, 65)
