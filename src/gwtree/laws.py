"""The offspring and bush-size laws in the log domain, and their cdf tables.

Q_r is Poisson(r) and Q*_r is Poisson(r) conditioned positive.  This is
the only implementation of these laws: samplers draw from one by building
its cdf table once (cdf_table, cached by law and parameters) and inverting
it per draw (quantile).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache

import numpy as np

_TAIL_TOL = 2.0 ** -53  # the resolution of a uniform draw in [0, 1)
_KCAP = 200_000


def log_expm1(x: float) -> float:
    """log(e^x - 1) for x > 0, stable for small and large x."""
    if x > 30.0:
        return x + math.log1p(-math.exp(-x))
    return math.log(math.expm1(x))


def log_poisson(rate: float, k: int) -> float:
    """Q_rate at k >= 0."""
    return -rate + (k * math.log(rate) if k else 0.0) - math.lgamma(k + 1)


def log_conv(lam: float, beta: float, k: int) -> float:
    """Q*_lam + Q_beta at k >= 1: e^-beta ((lam+beta)^k - beta^k) / ((e^lam - 1)
    k!); beta = 0 gives Q*_lam."""
    lp = -beta + k * math.log(lam + beta) - math.lgamma(k + 1) - log_expm1(lam)
    return lp + math.log1p(-(beta / (lam + beta)) ** k) if beta else lp


def log_split(rate: float, beta: float, s: int, a: int) -> float:
    """A = a, B = s - a for A ~ Q*_rate, B ~ Q_beta; normalized over a, the
    law of A given A + B = s."""
    if a > s:
        return -math.inf
    return log_conv(rate, 0.0, a) + log_poisson(beta, s - a)


def log_borel(lam: float, k: int) -> float:
    """Borel: size k of a Q_lam branching tree, (lam e^-lam)^k k^(k-1) /
    (lam k!); of total mass q(lam) for lam > 1."""
    return (k * (math.log(lam) - lam) + (k - 1) * math.log(k)
            - math.log(lam) - math.lgamma(k + 1))


def log_bush_excess(lam: float, mu: float, k: int) -> float:
    """m_k(lam) - m_k(mu), m_k(nu) = nu Borel_nu(k) the mean count of size-k
    finite bushes below a vertex; for 1 < lam < mu it is positive and sums
    to lam q(lam) - mu q(mu)."""
    a = math.log(lam) + log_borel(lam, k)
    return a + math.log1p(-math.exp(math.log(mu) + log_borel(mu, k) - a))


@lru_cache(maxsize=256)
def cdf_table(logpmf, *params) -> tuple[float, ...]:
    """Table of P(X <= k), k >= 1, for masses proportional to
    exp(logpmf(*params, k)), summed until the tail after the last mass t,
    estimated as t r / (1 - r) with r the ratio of t to the mass before,
    is below 2^-53 of the sum; then divided by the sum, so it ends at 1.0.
    Raises ArithmeticError if it has not closed within 200000 terms."""
    cums = []
    cum = prev = 0.0
    for k in range(1, _KCAP + 1):
        t = math.exp(logpmf(*params, k))
        cum += t
        cums.append(cum)
        if t < prev and t * t <= _TAIL_TOL * cum * (prev - t):
            return tuple(x / cum for x in cums)
        prev = t
    raise ArithmeticError(
        f"cdf table of {logpmf.__name__}({', '.join(map(repr, params))}) "
        f"did not close within {_KCAP} terms")


def positive_poisson_cdf(rate: float) -> tuple[float, ...]:
    """cdf table of Q*_rate; rate 0 is the limit law, the constant 1."""
    return cdf_table(log_conv, rate, 0.0) if rate > 0.0 else (1.0,)


def _log_poisson_from0(rate: float, k: int) -> float:
    return log_poisson(rate, k - 1)


def poisson_cdf(rate: float) -> tuple[float, ...]:
    """cdf table of 1 + Q_rate (tables start at k = 1), so quantile(table, u)
    - 1 is a Q_rate draw; rate 0 is the point mass at 0."""
    return cdf_table(_log_poisson_from0, rate) if rate > 0.0 else (1.0,)


def quantile(table, u):
    """Least k with P(X <= k) >= u for u in [0, 1): by bisection for a float
    u, by np.searchsorted for an array u (pass the table as an array)."""
    if isinstance(u, float):
        return bisect_left(table, u) + 1
    return np.searchsorted(table, u, side="left") + 1
