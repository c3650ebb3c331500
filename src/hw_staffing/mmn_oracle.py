"""Model-level oracles for the M/M/n waiting probability.

Two routes that share nothing with the analytic Erlang evaluations:

* ``birth_death_wait_prob`` -- sums the stationary birth-death distribution
  (pi_k proportional to a**k/k! below n, geometric above, tail summed in
  closed form) and returns Pr{all n servers busy};
* ``simulate_mmn`` -- a first-come-first-served simulation whose estimate
  of the same probability is the fraction of arrivals finding every server
  busy, valid because Poisson arrivals see time averages.

Randomness is pinned for reproducibility: a PCG64 bit generator per stream,
two streams (arrivals, services) spawned from one SeedSequence, and
exponential variates drawn by inverse transform -log1p(-U)/rate. Identical
seeds therefore give bit-identical estimates. numpy is imported by
simulate_mmn alone, so the rest of the package loads without it.
"""

from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SimConfig",
    "SimEstimate",
    "birth_death_wait_prob",
    "simulate_mmn",
]

_BATCHES = 32
# Student-t 0.975 quantile at 31 degrees of freedom (batch-means CI).
_T_CRIT_31 = 2.0395134463964077
_UNIFORM_BLOCK = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    """Inputs of one simulation replication.

    warmup_arrivals may be given as None, which resolves to the default
    ceil(10 * n / (1 - rho)): the relaxation time grows near saturation.
    """

    n: int
    lam: float
    mu: float
    measured_arrivals: int
    seed: int
    warmup_arrivals: int | None = None

    def __post_init__(self):
        for name in ("n", "measured_arrivals", "seed", "warmup_arrivals"):
            value = getattr(self, name)
            if name == "warmup_arrivals" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise DomainError(f"{name} must be an integer, got {value!r}")
        if self.n < 1:
            raise DomainError(f"server count must be a positive integer, got {self.n}")
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise DomainError(f"arrival rate must be positive and finite, got {self.lam}")
        if not (self.mu > 0.0 and math.isfinite(self.mu)):
            raise DomainError(f"service rate must be positive and finite, got {self.mu}")
        if self.lam >= self.n * self.mu:
            raise DomainError(
                f"unstable configuration: lambda={self.lam} >= n*mu={self.n * self.mu}"
            )
        if self.measured_arrivals < _BATCHES:
            raise DomainError(
                f"measured_arrivals must be >= {_BATCHES}, got {self.measured_arrivals}"
            )
        if self.warmup_arrivals is None:
            rho = self.lam / (self.n * self.mu)
            object.__setattr__(
                self, "warmup_arrivals", math.ceil(10.0 * self.n / (1.0 - rho))
            )
        elif self.warmup_arrivals < 1:
            raise DomainError(f"warmup_arrivals must be >= 1, got {self.warmup_arrivals}")

    @property
    def offered_load(self) -> float:
        return self.lam / self.mu


@dataclass(frozen=True)
class SimEstimate:
    """Point estimate of the waiting probability with a batch-means CI."""

    p_wait: float
    ci_halfwidth: float
    batches: int


def birth_death_wait_prob(n: int, a: float) -> float:
    """Stationary probability that all n servers are busy, from the chain.

    With pi_k ~ a**k/k! for k <= n and pi_{n+j} = pi_n rho**j, the waiting
    probability is 1/(1 + (1 - rho) * sum_{k<n} (a**k/k!) / (a**n/n!)); the
    sum is accumulated term-by-term in log space so n in the hundreds with
    small rho stays finite.
    """
    if n != int(n) or n < 1:
        raise DomainError(f"server count must be a positive integer, got {n}")
    if not (0.0 < a < n) or not math.isfinite(a):
        raise DomainError(f"requires 0 < a < n for stability, got a={a}, n={n}")
    n = int(n)
    rho = a / n
    log_a = math.log(a)
    log_top = n * log_a - math.lgamma(n + 1.0)  # log(a**n/n!)
    log_one_minus_rho = math.log1p(-rho)
    ratio = 0.0
    for k in range(n):
        ratio += math.exp(k * log_a - math.lgamma(k + 1.0) + log_one_minus_rho - log_top)
    return 1.0 / (1.0 + ratio)


class _ExponentialStream:
    """Inverse-transform exponential draws over a buffered PCG64 stream."""

    def __init__(self, gen: np.random.Generator, rate: float):
        self._gen = gen
        self._scale = 1.0 / rate
        self._buffer = self._gen.random(_UNIFORM_BLOCK)
        self._index = 0

    def next(self) -> float:
        if self._index == len(self._buffer):
            self._buffer = self._gen.random(_UNIFORM_BLOCK)
            self._index = 0
        u = self._buffer[self._index]
        self._index += 1
        return -math.log1p(-u) * self._scale


def simulate_mmn(cfg: SimConfig) -> SimEstimate:
    """FCFS M/M/n replication measuring the waiting fraction.

    Customers are followed in arrival order through the times at which
    the n servers next fall free (Kiefer & Wolfowitz, Trans. AMS 78,
    1955): an arrival at t waits iff the earliest of them is >= t (a
    departure at the same instant has not yet freed its server), and its
    service starts at the later of t and that time. Post-warmup arrivals
    are split into 32 batches; the CI half-width is the 97.5% Student-t
    quantile times the standard error of the batch means.
    """
    import numpy as np  # ~13 MB and tens of ms to load; only this needs it

    arrivals_stream, services_stream = np.random.SeedSequence(cfg.seed).spawn(2)
    draw_interarrival = _ExponentialStream(
        np.random.Generator(np.random.PCG64(arrivals_stream)), cfg.lam
    ).next
    draw_service = _ExponentialStream(
        np.random.Generator(np.random.PCG64(services_stream)), cfg.mu
    ).next

    total_arrivals = cfg.warmup_arrivals + cfg.measured_arrivals
    boundaries = [
        (i * cfg.measured_arrivals) // _BATCHES for i in range(1, _BATCHES + 1)
    ]
    batch_waits = [0] * _BATCHES
    batch_sizes = [0] * _BATCHES

    # min-heap of the times at which each server next falls free; under FCFS
    # services start in arrival order, so drawing each service on arrival
    # draws them in service-start order
    free = [-math.inf] * cfg.n
    time = 0.0
    batch = 0

    for seen in range(1, total_arrivals + 1):
        time += draw_interarrival()
        earliest = free[0]
        if seen > cfg.warmup_arrivals:
            measured_index = seen - cfg.warmup_arrivals - 1
            if measured_index >= boundaries[batch]:
                batch += 1
            batch_sizes[batch] += 1
            if earliest >= time:
                batch_waits[batch] += 1
        heapq.heapreplace(free, max(time, earliest) + draw_service())

    p_wait = sum(batch_waits) / cfg.measured_arrivals
    means = [w / size for w, size in zip(batch_waits, batch_sizes)]
    mean_of_means = sum(means) / _BATCHES
    variance = sum((m - mean_of_means) ** 2 for m in means) / (_BATCHES - 1)
    ci = _T_CRIT_31 * math.sqrt(variance / _BATCHES)
    return SimEstimate(p_wait=p_wait, ci_halfwidth=ci, batches=_BATCHES)
