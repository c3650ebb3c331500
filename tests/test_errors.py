"""The shared domain checks, and the public names each module lists."""

import importlib
import math
import pkgutil
import sys

import pytest

import hw_staffing
from hw_staffing.errors import DomainError, delay_target, positive_finite

MODULES = ["hw_staffing"] + [
    f"hw_staffing.{m.name}" for m in pkgutil.iter_modules(hw_staffing.__path__)
]


@pytest.mark.parametrize("x", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_positive_finite_rejects(x):
    with pytest.raises(DomainError, match=f"^offered load must be positive and finite, got a={x}$"):
        positive_finite(x, "offered load", "a")


@pytest.mark.parametrize("x", [5e-324, 1.0, 3, 1.7976931348623157e308])
def test_positive_finite_returns_its_argument(x):
    assert positive_finite(x, "offered load", "a") is x


@pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.5, 2.0, math.nan])
def test_delay_target_rejects(epsilon):
    with pytest.raises(DomainError, match=r"^target must lie in \(0, 1\)"):
        delay_target(epsilon)


@pytest.mark.parametrize("epsilon", [5e-324, 1e-315, math.nextafter(sys.float_info.min, 0.0)])
def test_delay_target_rejects_below_the_normal_range(epsilon):
    with pytest.raises(DomainError, match=r"^target must be at least sys\.float_info\.min"):
        delay_target(epsilon)


@pytest.mark.parametrize("call, args", [
    ("erlang.min_servers", (10**400, 0.2)),
    ("erlang.erlang_c_real", (10**401, 10**400)),
    ("erlang.erlang_c_real", (10**401, 1.0)),
    ("erlang.erlang_c_integer", (10**400, 1.0)),
    ("halfin_whitt.hw_limit", (10**400,)),
    ("halfin_whitt.staffing", (10**400, 1.0)),
    ("halfin_whitt.default_load_grid", (1, 10**400, 3)),
    ("halfin_whitt.inverse_load", (10**400, 1.0)),
    ("halfin_whitt.inverse_sweep", (1.0, (2.0, 10**400))),
    ("mmn_oracle.birth_death_wait_prob", (10**400, 1.0)),
    ("mmn_oracle.SimConfig", (10**400, 1.0, 1.0, 1000, 0)),
    ("proof_kit.density_g", (1.0, 10**400)),
    ("proof_kit.density_g", (10**400, 1.0)),
    ("proof_kit.cdf_x", (1.0, 10**400)),
    ("proof_kit.density_y", (2.0, 10**400)),
    ("proof_kit.tail_y", (2.0, 10**400)),
    ("proof_kit.tail_y_via_h", (2.0, 10**400)),
    ("proof_kit.h", (10**400,)),
    ("proof_kit.h_series", (10**400, 30)),
    ("proof_kit.moment_y", (10**400, 1.0)),
    ("proof_kit.moment_y", (1.0, 10**400)),
    ("proof_kit.check_stochastic_order", (1.0, 10**400, (2.0,))),
    ("proof_kit.check_stochastic_order", (10**400, 1.0, (2.0,))),
])
def test_integers_past_the_double_range_are_domain_errors(call, args):
    # float() of such an integer raises OverflowError; each entry checks
    # before it converts, and reads it as not finite
    module, name = call.split(".")
    f = getattr(importlib.import_module(f"hw_staffing.{module}"), name)
    with pytest.raises(DomainError, match="finite"):
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
