"""Erlang C delay probabilities and square-root staffing for M/M/n queues.

The package computes the waiting probability C(s, a) for integer and real
server counts by three mutually validating routes, exposes the
heavy-traffic (square-root staffing) limit and its inversions, materializes
the auxiliary random variables that explain why the staffed delay curve
decreases in the offered load, and ships two model-level oracles (a
birth-death solve and a discrete-event simulation). The ``hw-staffing``
CLI wraps computation, staffing, sweeps, verification and simulation.
"""

from .erlang import (
    DelayProbability,
    Method,
    erlang_b_integer,
    erlang_c_gamma,
    erlang_c_integer,
    erlang_c_real,
    erlang_c_slack,
    min_servers,
    real_staffing_level,
)
from .errors import BracketError, DomainError, NumericalError, StaffingError
from .halfin_whitt import (
    Regime,
    SweepResult,
    SweepRow,
    beta_for_target,
    default_load_grid,
    hw_limit,
    hw_sweep,
    inverse_load,
    inverse_sweep,
    staffing,
)
from .mmn_oracle import SimConfig, SimEstimate, birth_death_wait_prob, simulate_mmn
from .numerics import (
    BracketedRoot,
    bisect_monotone,
    integrate_semi_infinite,
    normal_cdf,
    normal_pdf,
    upper_gamma_regularized,
)
from .proof_kit import (
    OrderReport,
    cdf_x,
    check_stochastic_order,
    density_g,
    density_y,
    h,
    h_series,
    moment_y,
    tail_y,
    tail_y_via_h,
)

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "BracketedRoot",
    "DelayProbability",
    "DomainError",
    "Method",
    "NumericalError",
    "OrderReport",
    "Regime",
    "SimConfig",
    "SimEstimate",
    "StaffingError",
    "SweepResult",
    "SweepRow",
    "beta_for_target",
    "birth_death_wait_prob",
    "bisect_monotone",
    "cdf_x",
    "check_stochastic_order",
    "default_load_grid",
    "density_g",
    "density_y",
    "erlang_b_integer",
    "erlang_c_gamma",
    "erlang_c_integer",
    "erlang_c_real",
    "erlang_c_slack",
    "h",
    "h_series",
    "hw_limit",
    "hw_sweep",
    "integrate_semi_infinite",
    "inverse_load",
    "inverse_sweep",
    "min_servers",
    "moment_y",
    "normal_cdf",
    "normal_pdf",
    "real_staffing_level",
    "simulate_mmn",
    "staffing",
    "tail_y",
    "tail_y_via_h",
    "upper_gamma_regularized",
]
