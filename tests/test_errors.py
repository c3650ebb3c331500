"""The shared domain checks, and the public names each module lists."""

import importlib
import itertools
import math
import pkgutil
import signal
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import hw_staffing
from hw_staffing.errors import DomainError, StaffingError, count, delay_target, positive_finite

MODULES = ["hw_staffing"] + [
    f"hw_staffing.{m.name}" for m in pkgutil.iter_modules(hw_staffing.__path__)
]


@pytest.mark.parametrize("x", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_positive_finite_rejects(x):
    with pytest.raises(DomainError, match=f"^offered load must be positive and finite, got a={x}$"):
        positive_finite(x, "offered load", "a")


@pytest.mark.parametrize("x", [5e-324, 1.0, 3, 1.7976931348623157e308])
def test_positive_finite_returns_its_argument(x):
    # as a float, the type its callers compute with
    got = positive_finite(x, "offered load", "a")
    assert type(got) is float and got == x


@pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.5, 2.0, math.nan])
def test_delay_target_rejects(epsilon):
    with pytest.raises(DomainError, match=r"^target must lie in \(0, 1\)"):
        delay_target(epsilon)


@pytest.mark.parametrize("epsilon", [5e-324, 1e-315, math.nextafter(sys.float_info.min, 0.0)])
def test_delay_target_rejects_below_the_normal_range(epsilon):
    with pytest.raises(DomainError, match=r"^target must be at least sys\.float_info\.min"):
        delay_target(epsilon)


# (entry, arguments, the reason its DomainError names): an integer past the
# double range reads as not finite, or as past the ceiling of a count that
# has one below it; the last two raised OverflowError from a comparison or a
# quotient of their unconverted arguments
_PAST_THE_RANGE = [
    ("erlang.min_servers", (10**400, 0.2), "finite"),
    ("erlang.erlang_c_real", (10**401, 10**400), "finite"),
    ("erlang.erlang_c_real", (10**401, 1.0), "finite"),
    ("erlang.erlang_c_integer", (10**400, 1.0), "no larger than"),
    ("halfin_whitt.hw_limit", (10**400,), "finite"),
    ("halfin_whitt.staffing", (10**400, 1.0), "finite"),
    ("halfin_whitt.default_load_grid", (1, 10**400, 3), "finite"),
    ("halfin_whitt.inverse_load", (10**400, 1.0), "finite"),
    ("halfin_whitt.inverse_sweep", (1.0, (2.0, 10**400)), "finite"),
    ("mmn_oracle.birth_death_wait_prob", (10**400, 1.0), "no larger than"),
    ("mmn_oracle.SimConfig", (10**400, 1.0, 1.0, 1000, 0), "no larger than"),
    ("proof_kit.density_g", (1.0, 10**400), "finite"),
    ("proof_kit.density_g", (10**400, 1.0), "finite"),
    ("proof_kit.cdf_x", (1.0, 10**400), "finite"),
    ("proof_kit.density_y", (2.0, 10**400), "finite"),
    ("proof_kit.tail_y", (2.0, 10**400), "finite"),
    ("proof_kit.tail_y_via_h", (2.0, 10**400), "finite"),
    ("proof_kit.h", (10**400,), "finite"),
    ("proof_kit.h_series", (10**400, 30), "finite"),
    ("proof_kit.moment_y", (10**400, 1.0), "finite"),
    ("proof_kit.moment_y", (1.0, 10**400), "finite"),
    ("proof_kit.check_stochastic_order", (1.0, 10**400, (2.0,)), "finite"),
    ("proof_kit.check_stochastic_order", (10**400, 1.0, (2.0,)), "finite"),
    ("halfin_whitt.default_load_grid", (1.0, 2.0, 10**400), "no larger than"),
    ("mmn_oracle.SimConfig", (5, 4.0, 1.0, 10**400, 0), "no larger than"),
    ("mmn_oracle.birth_death_wait_prob", (sys.float_info.max, Fraction(1, 3)), "no larger than"),
    ("erlang.erlang_c_integer", (sys.float_info.max, np.int64(5)), "no larger than"),
]


@pytest.mark.parametrize(
    "call, args, reason", _PAST_THE_RANGE,
    ids=[f"{call}-args{i}" for i, (call, _, _) in enumerate(_PAST_THE_RANGE)])
def test_integers_past_the_double_range_are_domain_errors(call, args, reason):
    # float() of such an integer raises OverflowError; each entry checks
    # before it converts
    module, name = call.split(".")
    f = getattr(importlib.import_module(f"hw_staffing.{module}"), name)
    with pytest.raises(DomainError, match=reason):
        f(*args)


def test_delay_target_returns_its_argument():
    assert delay_target(0.2) == 0.2
    assert delay_target(sys.float_info.min) == sys.float_info.min


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    # the benchmark's tracer looks each listed name up with getattr
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_package_exports_every_layer():
    # a name retired from a layer is retired from the package too
    layers = ["erlang", "halfin_whitt", "mmn_oracle", "numerics", "proof_kit"]
    names = {"BracketError", "DomainError", "NumericalError", "StaffingError"}
    for layer in layers:
        names.update(importlib.import_module(f"hw_staffing.{layer}").__all__)
    assert sorted(hw_staffing.__all__) == sorted(names)


def test_count_returns_an_int():
    assert count(np.int64(5), "server count", 1) == 5 and type(count(5.0, "n", 0, floats=True)) is int
    for n in (5.0, True, 2.5, math.inf, math.nan, 0, 11):
        with pytest.raises(DomainError, match="^n must be a positive integer no larger than 10, got"):
            count(n, "n", 1, 10)


# The hostile-value scan: every public entry that takes numbers is called
# with each tuple of these values over its numeric parameters (all pairs of
# fields for SimConfig, from a valid base), and must return or raise a
# StaffingError within _CALL_BUDGET. A SIGALRM timer interrupts a call that
# overruns it; no thread or process is started.
_HOSTILE = [math.nan, math.inf, -1, 0, 5e-324, 0.5, 4, 2**53, sys.float_info.max, 10**400,
            True, Fraction(1, 3), Decimal("1e400"), np.nan, np.int64(5)]
_CALL_BUDGET = 1.0

_NUMERIC_ENTRIES = {  # name: the entry, with any argument that is not a number fixed
    **{name: (getattr(hw_staffing, name), 2) for name in (
        "erlang_b_integer", "erlang_c_integer", "erlang_c_real", "erlang_c_slack",
        "erlang_c_gamma", "min_servers", "real_staffing_level", "staffing", "inverse_load",
        "birth_death_wait_prob", "density_g", "cdf_x", "density_y", "tail_y", "tail_y_via_h",
        "h_series", "moment_y")},
    **{name: (getattr(hw_staffing, name), 1) for name in (
        "hw_limit", "beta_for_target", "normal_pdf", "normal_cdf", "h")},
    "default_load_grid": (hw_staffing.default_load_grid, 3),
    "bisect_monotone": (lambda *args: hw_staffing.bisect_monotone(lambda x: x, *args), 4),
    "integrate_semi_infinite": (
        lambda *args: hw_staffing.integrate_semi_infinite(lambda t: -t, *args), 2),
    "check_stochastic_order": (
        lambda *args: hw_staffing.check_stochastic_order(*args, (1.5, 2.0)), 2),
    "hw_sweep": (lambda beta: hw_staffing.hw_sweep(beta, (1.0, 2.0)), 1),
    "inverse_sweep": (lambda beta: hw_staffing.inverse_sweep(beta, (50.0, 60.0)), 1),
}


class _OverBudget(BaseException):
    """Raised in the overrunning call by the timer; no except Exception stops it."""


def _arguments(name, arity):
    if name != "SimConfig":
        return itertools.product(_HOSTILE, repeat=arity)
    base = (5, 4.0, 1.0, 1000, 0)
    return (base[:i] + (u,) + base[i + 1:j] + (v,) + base[j + 1:]
            for i, j in itertools.combinations(range(len(base)), 2)
            for u, v in itertools.product(_HOSTILE, repeat=2))


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs signal.setitimer")
@pytest.mark.parametrize("name", [*_NUMERIC_ENTRIES, "SimConfig"])
def test_hostile_values_return_or_raise_typed_errors_in_time(name):
    f, arity = _NUMERIC_ENTRIES.get(name, (hw_staffing.SimConfig, 5))

    def over_budget(signum, frame):
        raise _OverBudget

    escapes = []
    previous = signal.signal(signal.SIGALRM, over_budget)
    try:
        for args in _arguments(name, arity):
            try:
                signal.setitimer(signal.ITIMER_REAL, _CALL_BUDGET)
                f(*args)
            except StaffingError:
                pass
            except _OverBudget:
                escapes.append((args, "over budget"))
            except Exception as exc:  # the defect the scan looks for
                escapes.append((args, repr(exc)))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert escapes == []


def test_real_staffing_level_certifies_at_hostile_values():
    # the quadrature confirms the gamma route's root wherever the arguments
    # pass the gate: an answer or a DomainError, never a NumericalError
    answers = 0
    for a, epsilon in itertools.product(_HOSTILE, repeat=2):
        try:
            hw_staffing.real_staffing_level(a, epsilon)
            answers += 1
        except DomainError:
            pass
    assert answers > 0
