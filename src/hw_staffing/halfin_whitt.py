"""Square-root staffing and its heavy-traffic limit.

The staffing rule s = a + beta*sqrt(a) keeps the delay probability
C(a + beta*sqrt(a), a) nondegenerate as the offered load a grows; its limit
is hw_limit(beta) = 1/(1 + beta*Phi(beta)/phi(beta)). The two sweeps here
share one loop and one row type (SweepRow) and produce the evidence tables
behind two facts:

* the load-parametrized curve C(a + beta*sqrt(a), a) decreases strictly in
  a and stays above the limit for every beta > 0 (verified per sweep);
* the server-parametrized curve C(s, s - beta*sqrt(s)) is NOT claimed to be
  monotone -- inverse_sweep only emits the data.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

from .erlang import erlang_c_slack
from .errors import DomainError, NumericalError
from .numerics import bisect_monotone, normal_cdf, normal_pdf

__all__ = [
    "Regime",
    "SweepRow",
    "SweepResult",
    "hw_limit",
    "staffing",
    "inverse_load",
    "beta_for_target",
    "hw_sweep",
    "inverse_sweep",
    "default_load_grid",
]


class Regime(enum.Enum):
    LOAD_PARAMETRIZED = "hw"
    SERVER_PARAMETRIZED = "inverse"


@dataclass(frozen=True)
class SweepRow:
    """One row of a sweep: C(s, a) at one grid point, or the error that
    stopped it (c_value None). Load-parametrized rows (s = a +
    beta*sqrt(a)) also carry the limit c_star and so a gap above it;
    server-parametrized rows (a = s - beta*sqrt(s)) leave both None."""

    a: float
    s: float
    c_value: float | None
    error_bound: float = 0.0
    error: str | None = None
    c_star: float | None = None

    @property
    def gap(self) -> float | None:
        if self.c_value is None or self.c_star is None:
            return None
        return self.c_value - self.c_star


@dataclass(frozen=True)
class SweepResult:
    """Ordered sweep rows plus the verification flags (hw regime only).

    decreasing/gaps_positive are None for the server-parametrized regime
    (no monotonicity claim is made there) and None when any row failed,
    since grid-wide claims are then unverifiable.
    """

    regime: Regime
    beta: float
    rows: tuple[SweepRow, ...]
    decreasing: bool | None = None
    gaps_positive: bool | None = None

    @property
    def verified(self) -> bool | None:
        if self.decreasing is None or self.gaps_positive is None:
            return None
        return self.decreasing and self.gaps_positive


def hw_limit(beta: float) -> float:
    """Limiting delay probability (1 + beta*Phi(beta)/phi(beta))**-1.

    beta = 0 is accepted as the boundary case and returns 1; negative beta
    is rejected.
    """
    beta = float(beta)
    if not math.isfinite(beta):
        raise DomainError(f"beta must be finite, got {beta}")
    if beta < 0.0:
        raise DomainError(f"hw_limit requires beta >= 0, got {beta}")
    if beta == 0.0:
        return 1.0
    pdf = normal_pdf(beta)
    if pdf == 0.0:  # beta beyond ~38: the limit underflows to zero
        return 0.0
    return 1.0 / (1.0 + beta * normal_cdf(beta) / pdf)


def staffing(a: float, beta: float) -> float:
    """Square-root staffing level s = a + beta*sqrt(a); requires beta > 0
    so the result stays in the validity region a < s."""
    if not (a > 0.0 and math.isfinite(a)):
        raise DomainError(f"offered load must be positive and finite, got a={a}")
    if not (beta > 0.0 and math.isfinite(beta)):
        raise DomainError(
            f"staffing requires beta > 0 to keep s > a (validity of the "
            f"continuous delay formula), got beta={beta}"
        )
    return a + beta * math.sqrt(a)


def inverse_load(n: float, beta: float) -> float:
    """Offered load a = n - beta*sqrt(n); valid only for n > beta**2."""
    if not (beta > 0.0 and math.isfinite(beta)):
        raise DomainError(f"inverse_load requires beta > 0, got beta={beta}")
    if not (n > beta * beta):
        raise DomainError(
            f"inverse_load requires n > beta**2 = {beta * beta} so the load "
            f"stays positive, got n={n}"
        )
    return n - beta * math.sqrt(n)


def beta_for_target(epsilon: float) -> float:
    """Slack beta with hw_limit(beta) = epsilon, to 1e-12 by bisect_monotone."""
    if not (0.0 < epsilon < 1.0):
        raise DomainError(f"target must lie in (0, 1), got epsilon={epsilon}")
    hi = 1.0
    while hw_limit(hi) > epsilon:
        hi *= 2.0
    root = bisect_monotone(hw_limit, 0.0, hi, epsilon, 1e-12)
    return root.value


def default_load_grid(lo: float = 0.01, hi: float = 1e4, points: int = 40) -> tuple[float, ...]:
    """Log-spaced grid from lo to hi (both > 0), the package's only one;
    the defaults are verify's load grid, spanning six orders of magnitude."""
    if points == 1:
        return (lo,)
    r = math.log(hi / lo) / (points - 1)
    return tuple(lo * math.exp(r * i) for i in range(points))


def _sweep_rows(regime: Regime, beta: float, grid: Sequence[float]):
    """The loop behind hw_sweep and inverse_sweep: one SweepRow per grid
    value x, with C evaluated at the slack beta*sqrt(x) itself."""
    hw = regime is Regime.LOAD_PARAMETRIZED
    name, grid_name = ("hw_sweep", "a_grid") if hw else ("inverse_sweep", "s_grid")
    if not (beta > 0.0 and math.isfinite(beta)):
        raise DomainError(f"{name} requires beta > 0, got beta={beta}")
    if len(grid) == 0:
        raise DomainError(f"{grid_name} must not be empty")
    for x, y in zip(grid, grid[1:]):
        if not (y > x):
            raise DomainError(f"{grid_name} must be strictly increasing, got {x} before {y}")
    if hw and grid[0] <= 0.0:
        raise DomainError("all loads in a_grid must be positive")

    c_star = hw_limit(beta) if hw else None
    rows = []
    for x in grid:
        # inverse_load raises DomainError at the first s <= beta**2
        a, s = (x, staffing(x, beta)) if hw else (inverse_load(x, beta), x)
        try:
            c = erlang_c_slack(beta * math.sqrt(x), a)
            rows.append(SweepRow(a, s, c.value, c.error_bound, None, c_star))
        except NumericalError as exc:
            rows.append(SweepRow(a, s, None, 0.0, str(exc), c_star))
    return tuple(rows)


def hw_sweep(beta: float, a_grid: Sequence[float]) -> SweepResult:
    """Evaluate C(a + beta*sqrt(a), a) across a strictly increasing load grid.

    Each row carries c_star = hw_limit(beta) and its gap above it.
    Per-point numerical failures are recorded in-row and do not abort the
    sweep. The result's flags report whether the successful values were
    strictly decreasing (successive decrements must exceed the summed error
    bounds, to separate real monotonicity from quadrature noise) and whether
    every gap above the limit was positive. C is evaluated at the slack
    beta*sqrt(a) itself (erlang_c_slack), so the rounding of the row's s
    cannot make the curve jitter at large loads.
    """
    rows = _sweep_rows(Regime.LOAD_PARAMETRIZED, beta, a_grid)
    if any(r.c_value is None for r in rows):
        # failed rows leave the grid-wide claims unverifiable
        return SweepResult(Regime.LOAD_PARAMETRIZED, beta, rows, None, None)
    decreasing = all(
        x.c_value - y.c_value > x.error_bound + y.error_bound
        for x, y in zip(rows, rows[1:])
    )
    gaps_positive = all(r.gap > 0.0 for r in rows)
    return SweepResult(Regime.LOAD_PARAMETRIZED, beta, rows, decreasing, gaps_positive)


def inverse_sweep(beta: float, s_grid: Sequence[float]) -> SweepResult:
    """Evaluate C(s, s - beta*sqrt(s)) across a strictly increasing server grid.

    Every s must exceed beta**2. The rows carry no limit and no gap, and no
    monotonicity flag is computed: the curve's behaviour is an open question
    and the rows feed the figure emitter as-is. As in hw_sweep, C is
    evaluated at the slack beta*sqrt(s) itself (erlang_c_slack): at s = 1e15
    the rounding of the row's a = s - beta*sqrt(s) would move the slack, and
    C with it by ~1e-9 relative, far beyond the quadrature's bound.
    """
    rows = _sweep_rows(Regime.SERVER_PARAMETRIZED, beta, s_grid)
    return SweepResult(Regime.SERVER_PARAMETRIZED, beta, rows, None, None)
