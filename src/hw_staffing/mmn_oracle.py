"""Model-level oracles for the M/M/n waiting probability.

Two routes that share nothing with the analytic Erlang evaluations:

* ``birth_death_wait_prob`` -- sums the stationary birth-death distribution
  (pi_k proportional to a**k/k! below n, geometric above, tail summed in
  closed form) and returns Pr{all n servers busy};
* ``simulate_mmn`` -- a first-come-first-served simulation whose estimate
  of the same probability is the fraction of arrivals finding every server
  busy, valid because Poisson arrivals see time averages.

The two share pi: each replication starts from a state drawn from it,
in place of a warm-up. The simulation computes the weights in its own
code, and a wrong start biases only the arrivals before the queue forgets
it: one drawn at load 0.9a leaves the million-arrival estimate within its
confidence interval (a test checks this at n = 5, 100 and 400).

Randomness is pinned for reproducibility: three PCG64 streams (arrivals,
services, start state) spawned from one SeedSequence, and exponential
variates drawn by numpy's default sampler, standard_exponential, a
ziggurat (Marsaglia & Tsang, J. Stat. Softw. 5(8), 2000) that takes its
random bits straight from the stream and keeps no buffer between calls.
So the k-th variate of a stream is the same double whether it comes from
one scalar call at a time or from arrays of any size, and customer i
takes the i-th draw of each stream however the draws are chunked:
identical seeds give bit-identical estimates. A draw at rate r is
standard_exponential() * (1/r). numpy is imported by the simulation
alone; the rest of the package loads without it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from heapq import heapify, heapreplace
from itertools import accumulate
from typing import NamedTuple

from .errors import DomainError, count, positive_finite, work_ceiling

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
# SimConfig's ceilings: the stationary law holds n + 1 weights, and at
# 0.2 us an arrival a replication of _MAX_ARRIVALS takes about 20 s.
_MAX_SERVERS, _MAX_ARRIVALS = 10**6, 10**8


class _SimFields(NamedTuple):
    n: int
    lam: float
    mu: float
    measured_arrivals: int
    seed: int


class SimConfig(_SimFields):
    """Inputs of one simulation replication, which starts at stationarity:
    n up to 1e6 servers, and 32 to 1e8 measured arrivals."""

    __slots__ = ()

    def __new__(cls, n: int, lam: float, mu: float, measured_arrivals: int, seed: int):
        n = count(n, "server count", 1, _MAX_SERVERS)
        lam = positive_finite(lam, "arrival rate", "lambda")
        mu = positive_finite(mu, "service rate", "mu")
        if lam >= n * mu:
            raise DomainError(f"unstable configuration: lambda={lam} >= n*mu={n * mu}")
        seed = count(seed, "seed", 0)
        measured_arrivals = count(measured_arrivals, "measured_arrivals", _BATCHES, _MAX_ARRIVALS)
        return super().__new__(cls, n, lam, mu, measured_arrivals, seed)

    @classmethod
    def _make(cls, iterable):  # _replace calls it too: both check the fields
        return cls(*iterable)

    @property
    def offered_load(self) -> float:
        return self.lam / self.mu

    @property
    def warmup_arrivals(self) -> int:
        """0: no arrival is stepped and discarded (read by the benchmark's
        work count, warm-up plus measured arrivals)."""
        return 0


class SimEstimate(NamedTuple):
    """Point estimate of the waiting probability with a batch-means CI."""

    p_wait: float
    ci_halfwidth: float
    batches: int


def birth_death_wait_prob(n: int, a: float) -> float:
    """Stationary probability that all n servers are busy, from the chain.

    With pi_k ~ a**k/k! for k <= n and pi_{n+j} = pi_n rho**j, the waiting
    probability is 1/(1 + (1 - rho) * sum_{k<n} (a**k/k!) / (a**n/n!)). The
    sum is taken backward from k = n - 1, as sum_{j=1..n} prod_{i<j} (n-i)/a,
    each term the last times (n - j + 1)/a, so no exponent of size n*log(a)
    is rounded. It stops at the first term that leaves it unchanged, with
    the full loop's bits: that term lies below the load (above it the terms
    grow), where later ones are smaller, or the sum is inf (n >> a: 0.0).
    With d = n - a, the first d/2 terms grow by 1 + d/(2a) a step or more,
    so the loop ends once j*log1p(d/(2a)) passes 710 if that is within d/2;
    else in d + 1 steps plus 8.7*sqrt(a) + 2 below the load, where the terms
    fall under 2**-54 of the sum. Past errors.MAX_STEPS or n = 2**53, DomainError.
    """
    n = count(n, "server count", 1, 2**53, floats=True)  # past it n + 1 rounds to n
    a = positive_finite(a, "offered load", "a")
    if a >= n:
        raise DomainError(f"requires 0 < a < n for stability, got a={a}, n={n}")
    d = n - a
    grow = 710.0 / math.log1p(d / (2.0 * a)) + 2.0
    work_ceiling(min(n, grow if grow <= d / 2.0 else d + 9.0 * math.sqrt(a) + 3.0),
                 "the birth-death sum")
    term = 1.0
    ratio = 0.0
    for k in range(n, 0, -1):
        term *= k / a
        if ratio + term == ratio:
            break
        ratio += term
    return 1.0 / (1.0 + (1.0 - a / n) * ratio)


def _exponential_chunks(stream, rate: float, sizes):
    """The draws standard_exponential() * (1/rate) of a PCG64 stream, segment
    by segment, as arrays of at most _CHUNK draws cut at the end of each
    segment."""
    import numpy as np

    gen = np.random.Generator(np.random.PCG64(stream))
    scale = 1.0 / rate
    for size in sizes:
        for start in range(0, size, _CHUNK):
            yield gen.standard_exponential(min(_CHUNK, size - start)) * scale


def _arrival_times(gap_chunks):
    """Arrival times from the interarrival draws g_0, g_1, ..., in place and
    chunk by chunk: customer 0 arrives at 0.0 and customer i at
    g_0 + ... + g_(i-1). add.accumulate adds left to right and the clock is
    carried across chunks, so these are the sums `time += gap` makes."""
    import numpy as np

    clock = 0.0
    for times in gap_chunks:
        last = times[-1]
        times[1:] = times[:-1]
        times[0] = clock
        np.cumsum(times, out=times)
        clock = times[-1] + last
        yield times


def _stationary_law(n: int, a: float) -> tuple[list[float], float]:
    """pi as _stationary_start reads it: the running sums of weights
    proportional to pi_k for K = 0, ..., n - 1 and to Pr{K >= n} last, with
    pi_k ~ a**k/k! for k <= n and pi_(n+j) = pi_n * rho**j; and rho = a/n."""
    rho = a / n
    log_a = math.log(a)
    log_weights = [k * log_a - math.lgamma(k + 1.0) for k in range(n + 1)]
    top = max(log_weights)
    weights = [math.exp(w - top) for w in log_weights]
    weights[n] /= 1.0 - rho
    return list(accumulate(weights)), rho


def _stationary_start(gen, law: tuple[list[float], float], mu: float) -> list[float]:
    """The servers' next-free times, as a heap, at an arrival in steady state.

    The number in system K is drawn from pi (law, from _stationary_law),
    which by PASTA is what an arrival sees. min(K, n) servers are busy with
    Exp(mu) residual times (memoryless), the rest have been free since
    -inf, and the K - n queued customers take servers in FCFS order, each
    with a fresh Exp(mu) service. The clock reads 0 at this arrival. Draws
    from gen, in order: the uniform for K, the uniform for K - n when all
    servers are busy, the residuals, and the queued customers' services.
    """
    cumulative, rho = law
    n = len(cumulative) - 1
    busy = min(bisect_right(cumulative, gen.random() * cumulative[-1]), n)
    # K - n is geometric: Pr{K - n >= j | K >= n} = rho**j
    queued = math.floor(math.log1p(-gen.random()) / math.log(rho)) if busy == n else 0
    scale = 1.0 / mu
    free = [-math.inf] * (n - busy)
    free += (gen.standard_exponential(busy) * scale).tolist()
    heapify(free)
    for service in (gen.standard_exponential(queued) * scale).tolist():
        heapreplace(free, free[0] + service)
    return free


def simulate_mmn(cfg: SimConfig) -> SimEstimate:
    """FCFS M/M/n replication measuring the waiting fraction.

    Customers are followed in arrival order through the times at which
    the n servers next fall free (Kiefer & Wolfowitz, Trans. AMS 78,
    1955): an arrival at t waits iff the earliest of them is >= t (a
    departure at the same instant has not yet freed its server), and its
    service starts at the later of t and that time. The replication starts
    at stationarity (_stationary_start), with customer 0 arriving at time
    0, so every arrival is measured and none is a warm-up. Arrivals are
    split into 32 batches; the CI half-width is the 97.5% Student-t
    quantile times the standard error of the batch means.

    Customer i takes the i-th draw of the arrivals stream as the time to
    the next arrival and the i-th of the services stream as its service
    time; a third stream draws the start. Each draw is numpy's ziggurat
    standard_exponential() times 1/rate. The draws come in arrays cut at
    the end of each batch, which hold the same doubles as one scalar call
    per customer; arrival times are running sums carried across arrays,
    and each array is one loop over its customers.
    """
    import numpy as np  # ~13 MB and tens of ms to load; only this needs it

    arrivals_stream, services_stream, start_stream = np.random.SeedSequence(cfg.seed).spawn(3)
    bounds = [(i * cfg.measured_arrivals) // _BATCHES for i in range(_BATCHES + 1)]
    batch_sizes = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    start = np.random.Generator(np.random.PCG64(start_stream))
    free = _stationary_start(start, _stationary_law(cfg.n, cfg.offered_load), cfg.mu)
    times = _arrival_times(_exponential_chunks(arrivals_stream, cfg.lam, batch_sizes))
    services = _exponential_chunks(services_stream, cfg.mu, batch_sizes)

    # free is a min-heap of the times at which each server next falls free;
    # under FCFS services start in arrival order, so each customer's service
    # time is also the next one a server takes up. `time = earliest` on a
    # tie keeps max(time, earliest): the two are the same double.
    batch_waits = []
    for size in batch_sizes:
        waits = 0
        for _ in range(0, size, _CHUNK):
            for time, service in zip(next(times).tolist(), next(services).tolist()):
                earliest = free[0]
                if earliest >= time:
                    waits += 1
                    time = earliest
                heapreplace(free, time + service)
        batch_waits.append(waits)

    p_wait = sum(batch_waits) / cfg.measured_arrivals
    means = [w / size for w, size in zip(batch_waits, batch_sizes)]
    mean_of_means = sum(means) / _BATCHES
    variance = sum((m - mean_of_means) ** 2 for m in means) / (_BATCHES - 1)
    ci = _T_CRIT_31 * math.sqrt(variance / _BATCHES)
    return SimEstimate(p_wait=p_wait, ci_halfwidth=ci, batches=_BATCHES)
