"""The offspring and bush-size laws in the log domain, and their cdf tables.

Q_r is Poisson(r) and Q*_r is Poisson(r) conditioned positive.  This is
the only implementation of these laws, and no sampler calls numpy's: every
offspring count draws from one by building its cdf table once (cdf_table,
cached by law and parameters) and inverting it: quantile inverts an array
of draws, and every scalar draw (the node-by-node tree builders, the
coupling and the killed walk) calls bisect_left on the table itself, plus 1.

A table inverts a large array of draws through its guide table (Chen &
Asau, 1974), built on first use and cached by the table's identity: L >=
2 len(table) buckets, a power of two, each holding the number of table
entries below its left end.  The bucket of u gives a k that is at most the
answer, one step up settles nearly every draw, and np.searchsorted the few
left, so the result is bit-identical to np.searchsorted on the table.
Tables stay plain tuples: bisect_left, the scalar lookup, is about three
times slower on any tuple subclass.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_TAIL_TOL = 2.0 ** -53  # the resolution of a uniform draw in [0, 1)
_KCAP = 200_000
_GUIDE_MIN = 1024  # fewer draws than this go by np.searchsorted
# id(table) -> (table, its array, L, its guide); holding the table keeps its
# id from being reused while the entry lives
_guides: dict[int, tuple] = {}


def _guided(table: tuple) -> tuple:
    """The numpy array, bucket count L and guide of a cdf table, built on
    first use; at most 64 tables are kept."""
    entry = _guides.get(id(table))
    if entry is None:
        if len(_guides) >= 64:
            _guides.clear()
        arr = np.asarray(table)
        size = 4096
        while size < 2 * len(arr):
            size *= 2
        # one more bucket, at u = 1.0, takes the end of the table
        guide = np.searchsorted(arr, np.arange(size + 1) / size)
        entry = _guides[id(table)] = (table, arr, size, guide)
    return entry[1:]


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
    # log(1 - (beta/(lam+beta))^k), finite for beta far below or above lam
    return (lp + math.log(-math.expm1(-k * math.log1p(lam / beta)))
            if beta else lp)


def log_borel(lam: float, k: int) -> float:
    """Borel: size k of a Q_lam branching tree, (lam e^-lam)^k k^(k-1) /
    (lam k!); of total mass q(lam) for lam > 1."""
    return (k * (math.log(lam) - lam) + (k - 1) * math.log(k)
            - math.log(lam) - math.lgamma(k + 1))


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


def quantile(table, u: np.ndarray) -> np.ndarray:
    """Least k with P(X <= k) >= u, for each u of an array in [0, 1): by
    np.searchsorted, through the table's guide once u holds 1024 draws."""
    arr, size, guide = _guided(table)
    if len(u) < _GUIDE_MIN:
        return np.searchsorted(arr, u, side="left") + 1
    k = guide[(u * size).astype(np.intp)]  # u * size is exact: size = 2^m
    up = np.flatnonzero(arr[k] < u)
    k[up] += 1
    up = up[arr[k[up]] < u[up]]
    k[up] = np.searchsorted(arr, u[up], side="left")
    return k + 1
