"""Erlang C delay probabilities and square-root staffing for M/M/n queues.

The package computes the waiting probability C(s, a) for integer and real
server counts by three mutually validating routes, exposes the
heavy-traffic (square-root staffing) limit and its inversions, materializes
the auxiliary random variables that explain why the staffed delay curve
decreases in the offered load, and ships two model-level oracles (a
birth-death solve and a discrete-event simulation). The ``hw-staffing``
CLI wraps computation, staffing, sweeps, verification and simulation.

Importing the package loads none of its modules: each public name, and
each module that defines one read as an attribute, loads its module on
first use, so a call pays only for the modules it needs. numpy is imported by
simulate_mmn alone.
"""

import sys

__version__ = "0.1.0"

# Each public name and the module that defines it.
_MODULE_OF = {
    name: module
    for module, names in {
        "erlang": "DelayProbability Method erlang_b_integer erlang_c_gamma erlang_c_integer "
        "erlang_c_real erlang_c_slack",
        "errors": "BracketError DomainError NumericalError StaffingError",
        "halfin_whitt": "SweepResult SweepRow beta_for_target default_load_grid hw_limit "
        "hw_sweep inverse_load inverse_sweep min_servers real_staffing_level staffing",
        "mmn_oracle": "SimConfig SimEstimate birth_death_wait_prob simulate_mmn",
        "numerics": "BracketedRoot bisect_monotone integrate_semi_infinite normal_cdf normal_pdf",
        "proof_kit": "OrderReport cdf_x check_stochastic_order density_g density_y h h_series "
        "moment_y tail_y tail_y_via_h",
    }.items()
    for name in names.split()
}
_SUBMODULES = frozenset(_MODULE_OF.values())

__all__ = sorted(_MODULE_OF)


def _load(module: str):
    name = f"{__name__}.{module}"
    __import__(name)  # unlike importlib.import_module, this shows under -X importtime
    return sys.modules[name]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _load(name)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_load(_MODULE_OF[name]), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
