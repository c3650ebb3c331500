"""Exact Taylor coefficients of Temme's c_k(eta) for the gamma route.

Temme's uniform expansion of the regularized upper incomplete gamma
(Temme, SIAM J. Math. Anal. 10 (1979); DLMF 8.12.7-8.12.9) reads, with
lambda = x/s and eta**2/2 = lambda - 1 - log(lambda), sign(eta) =
sign(lambda - 1):

    Q(s, x) = erfc(eta*sqrt(s/2))/2
              + e**(-s*eta**2/2) / sqrt(2*pi*s) * sum_k c_k(eta) s**-k,
    c_0(eta) = 1/(lambda - 1) - 1/eta,
    c_k(eta) = c_(k-1)'(eta)/eta + (-1)**k g_k/(lambda - 1),

where g_k are the Stirling coefficients, Gamma*(s) ~ sum_k g_k s**-k.
Every step here is a truncated power series in exact rationals:

1. mu = lambda - 1 as a series in eta, by Lagrange inversion of
   eta = mu*sqrt(2*(mu - log(1 + mu))/mu**2);
2. psi = eta/mu, so that 1/(lambda - 1) = psi/eta;
3. g_k from the Bernoulli numbers, exponentiating
   log Gamma*(s) ~ sum_m B_2m / (2m(2m - 1) s**(2m - 1));
4. c_0 = (psi - 1)/eta and c_k = (c_(k-1)' + (-1)**k g_k psi)/eta, where
   each division by eta drops a constant term that the recurrence makes
   vanish (asserted).

hw_staffing.erlang keeps c_0..c_3 as literal doubles, each truncated
where the dropped terms, at |eta| = 0.3 and s = 1000 (the route's
switch), sum below 2**-66; tests/test_gamma_route.py re-runs this script and
compares. The script also bounds |c_4(eta)| on |eta| <= 0.3, the first
term the route omits. Run it to print the tables:

    python tests/temme_coefficients.py
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

# Series length: enough for c_4 to the order where its terms at 0.3 fall
# below 1e-40 (each c_k loses two orders to the derivative and division).
ORDER = 50
# The route's switch: s >= 1000 and |eta| <= 0.3.
MIN_S = 1000
MAX_ETA = Fraction(3, 10)
# Each c_k is truncated once its dropped terms, times 1000**-k, sum below this.
TRUNCATION = Fraction(1, 2**66)
KEPT = 4  # c_0..c_3


def _mul(a, b):
    out = [Fraction(0)] * ORDER
    for i, x in enumerate(a):
        if x:
            for j in range(ORDER - i):
                out[i + j] += x * b[j]
    return out


def _reciprocal(a):
    out = [Fraction(0)] * ORDER
    out[0] = 1 / a[0]
    for n in range(1, ORDER):
        out[n] = -sum(a[k] * out[n - k] for k in range(1, n + 1)) / a[0]
    return out


def _sqrt_one_plus(a):
    """sqrt of a series whose constant term is 1."""
    out = [Fraction(0)] * ORDER
    out[0] = Fraction(1)
    for n in range(1, ORDER):
        out[n] = (a[n] - sum(out[k] * out[n - k] for k in range(1, n))) / 2
    return out


def _bernoulli(count):
    b = [Fraction(1)]
    for m in range(1, count + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b


def stirling_coefficients():
    """g_k with Gamma*(s) = Gamma(s)/(sqrt(2*pi/s) s**s e**-s) ~ sum g_k s**-k."""
    b = _bernoulli(2 * ORDER)
    log_series = [Fraction(0)] * ORDER
    for m in range(1, ORDER // 2 + 1):
        if 2 * m - 1 < ORDER:
            log_series[2 * m - 1] = b[2 * m] / (2 * m * (2 * m - 1))
    g = [Fraction(1)] + [Fraction(0)] * (ORDER - 1)
    for n in range(1, ORDER):  # (exp L)' = L' exp L, coefficient by coefficient
        g[n] = sum(k * log_series[k] * g[n - k] for k in range(1, n + 1)) / n
    return g


@functools.cache
def temme_series():
    """Taylor coefficients in eta of c_0 .. c_4, exact rationals."""
    # 2*(mu - log(1 + mu))/mu**2 = sum_n 2*(-1)**n mu**n/(n + 2)
    h = [Fraction(2 * (-1) ** n, n + 2) for n in range(ORDER)]
    phi = _reciprocal(_sqrt_one_plus(h))  # mu/eta as a series in mu
    mu = [Fraction(0)] * ORDER
    power = [Fraction(1)] + [Fraction(0)] * (ORDER - 1)
    for n in range(1, ORDER):  # Lagrange: [eta**n] mu = [mu**(n-1)] phi**n / n
        power = _mul(power, phi)
        mu[n] = power[n - 1] / n
    psi = _reciprocal(mu[1:] + [Fraction(0)])  # eta/mu
    g = stirling_coefficients()
    c = psi[1:]  # (psi - 1)/eta
    out = [c]
    for k in range(1, KEPT + 1):
        bracket = [(n + 1) * c[n + 1] + (-1) ** k * g[k] * psi[n] for n in range(len(c) - 1)]
        assert bracket[0] == 0, (k, bracket[0])
        c = bracket[1:]
        out.append(c)
    return out


def _dropped(coefficients, n, k):
    """Sum of |terms| from degree n on at |eta| = MAX_ETA, times MIN_S**-k."""
    return sum(abs(x) * MAX_ETA**m for m, x in enumerate(coefficients) if m >= n) / MIN_S**k


def tables():
    """The literal tables of erlang: for k = 0..3, the doubles nearest the
    Taylor coefficients of c_k, lowest degree first, up to the truncation."""
    out = []
    for k, coefficients in enumerate(temme_series()[:KEPT]):
        n = next(n for n in range(len(coefficients))
                 if _dropped(coefficients, n, k) < TRUNCATION)
        out.append(tuple(float(x) for x in coefficients[:n]))
    return tuple(out)


def first_omitted_bound():
    """An upper bound on |c_4(eta)| for |eta| <= 0.3: the sum of its Taylor
    terms' magnitudes at 0.3 (those past ORDER - 8 are below 1e-40)."""
    return float(_dropped(temme_series()[KEPT], 0, 0))


if __name__ == "__main__":
    for k, row in enumerate(tables()):
        print(f"c_{k}: {len(row)} terms")
        print("    (" + ", ".join(repr(x) for x in row) + "),")
    print(f"max |c_4| on |eta| <= 0.3: {first_omitted_bound()!r}")
