"""Model-level oracles for the M/M/n waiting probability.

Two routes that share nothing with the analytic Erlang evaluations:

* ``birth_death_wait_prob`` -- sums the stationary birth-death distribution
  (pi_k proportional to a**k/k! below n, geometric above, tail summed in
  closed form) and returns Pr{all n servers busy};
* ``simulate_mmn`` -- a first-come-first-served simulation whose estimate
  of the same probability is the fraction of arrivals finding every server
  busy, valid because Poisson arrivals see time averages.

Randomness is pinned for reproducibility: two PCG64 streams (arrivals,
services) spawned from one SeedSequence, and exponential variates drawn by
numpy's C inverse-transform sampler (standard_exponential, method="inv"):
one next_double per variate, as random() takes, through glibc's log1p,
which math.log1p also calls, so each draw is -math.log1p(-U) * (1/rate) to
the bit. numpy's log1p ufunc is not used, as its SIMD paths need not round
alike. Customer i takes the i-th draw of each stream however the draws are
chunked, so identical seeds give bit-identical estimates. numpy is
imported by the simulation alone; the rest of the package loads without it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from heapq import heapreplace

from .errors import DomainError, server_count

__all__ = [
    "SimConfig",
    "SimEstimate",
    "birth_death_wait_prob",
    "simulate_mmn",
]

_BATCHES = 32
# Student-t 0.975 quantile at 31 degrees of freedom (batch-means CI).
_T_CRIT_31 = 2.0395134463964077
_CHUNK = 1 << 12  # most draws per array


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
        if self.seed < 0:
            raise DomainError(f"seed must be non-negative, got {self.seed}")
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
    n = server_count(n, 1)
    if not (0.0 < a < n) or not math.isfinite(a):
        raise DomainError(f"requires 0 < a < n for stability, got a={a}, n={n}")
    rho = a / n
    log_a = math.log(a)
    log_top = n * log_a - math.lgamma(n + 1.0)  # log(a**n/n!)
    log_one_minus_rho = math.log1p(-rho)
    ratio = 0.0
    for k in range(n):
        ratio += math.exp(k * log_a - math.lgamma(k + 1.0) + log_one_minus_rho - log_top)
    return 1.0 / (1.0 + ratio)


def _exponential_chunks(stream, rate: float, sizes):
    """The draws -log1p(-U) * (1/rate) of a PCG64 stream, segment by segment,
    as arrays of at most _CHUNK draws cut at the end of each segment."""
    import numpy as np

    gen = np.random.Generator(np.random.PCG64(stream))
    scale = 1.0 / rate
    for size in sizes:
        for start in range(0, size, _CHUNK):
            yield gen.standard_exponential(min(_CHUNK, size - start), method="inv") * scale


def simulate_mmn(cfg: SimConfig) -> SimEstimate:
    """FCFS M/M/n replication measuring the waiting fraction.

    Customers are followed in arrival order through the times at which
    the n servers next fall free (Kiefer & Wolfowitz, Trans. AMS 78,
    1955): an arrival at t waits iff the earliest of them is >= t (a
    departure at the same instant has not yet freed its server), and its
    service starts at the later of t and that time. Post-warmup arrivals
    are split into 32 batches; the CI half-width is the 97.5% Student-t
    quantile times the standard error of the batch means.

    Customer i takes the i-th draw of the arrivals stream as its
    interarrival time and the i-th of the services stream as its service
    time. The draws come in arrays cut at the ends of the warm-up and of
    each batch, arrival times are running sums carried across arrays, and
    each array is one loop over its customers.
    """
    import numpy as np  # ~13 MB and tens of ms to load; only this needs it

    arrivals_stream, services_stream = np.random.SeedSequence(cfg.seed).spawn(2)
    bounds = [(i * cfg.measured_arrivals) // _BATCHES for i in range(_BATCHES + 1)]
    batch_sizes = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    segments = [cfg.warmup_arrivals, *batch_sizes]
    gaps = _exponential_chunks(arrivals_stream, cfg.lam, segments)
    services = _exponential_chunks(services_stream, cfg.mu, segments)

    # min-heap of the times at which each server next falls free; under FCFS
    # services start in arrival order, so each customer's service time is
    # also the next one a server takes up. `time = earliest` on a tie
    # keeps max(time, earliest): the two are the same double.
    free = [-math.inf] * cfg.n
    clock = 0.0
    segment_waits = []
    for size in segments:
        waits = 0
        for _ in range(0, size, _CHUNK):
            times = next(gaps)
            # add.accumulate makes the same left-to-right sums as `time += gap`
            times[0] += clock
            np.cumsum(times, out=times)
            clock = times[-1]
            for time, service in zip(times.tolist(), next(services).tolist()):
                earliest = free[0]
                if earliest >= time:
                    waits += 1
                    time = earliest
                heapreplace(free, time + service)
        segment_waits.append(waits)
    batch_waits = segment_waits[1:]

    p_wait = sum(batch_waits) / cfg.measured_arrivals
    means = [w / size for w, size in zip(batch_waits, batch_sizes)]
    mean_of_means = sum(means) / _BATCHES
    variance = sum((m - mean_of_means) ** 2 for m in means) / (_BATCHES - 1)
    ci = _T_CRIT_31 * math.sqrt(variance / _BATCHES)
    return SimEstimate(p_wait=p_wait, ci_halfwidth=ci, batches=_BATCHES)
