"""The offspring and bush-size laws in the log domain, and their cdf tables.

Q_r is Poisson(r) and Q*_r is Poisson(r) conditioned positive.  This is
the only implementation of these laws, and no sampler calls numpy's: every
offspring count draws from one by building its cdf table once (cdf_table,
cached by law and parameters) and inverting it: quantile inverts an array
of draws, and every scalar draw (the node-by-node tree builders, the
coupling and the killed walk) calls bisect_left on the table itself, plus 1.
A type-I node of a path-keyed tree draws its two child counts at once, from
one draw through the joint table of the trees module; the walk engine
inverts that table and the type-F Poisson table in one pass of stack_index
over its exact integer draws, against stack_thresholds of the two.

A table inverts a large array of draws through its guide table (Chen &
Asau, 1974), built on first use and cached by the table's identity: L >=
2 len(table) buckets, a power of two, each holding the number of table
entries below its left end.  The bucket of u gives a k that is at most the
answer, one step up settles nearly every draw, and np.searchsorted the few
left, so the result is bit-identical to np.searchsorted on the table.  A
stack of integer thresholds has its guide built the same way, over the
power of two above its last entry.  Tables stay plain tuples: bisect_left,
the scalar lookup, is about three times slower on any tuple subclass.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_TAIL_TOL = 2.0 ** -53  # the resolution of a uniform draw in [0, 1)
_KCAP = 200_000
_GUIDE_MIN = 1024  # fewer draws than this go by np.searchsorted
_SEGMENT = 1 << 53  # integer draws x in [0, 2^53) stand for x 2^-53
# id(table) -> (table, its array, L or the bucket shift, its guide); holding
# the table keeps its id from being reused while the entry lives
_guides: dict[int, tuple] = {}


def _guided(table) -> tuple:
    """The numpy array and guide of a cdf table or a stack of thresholds,
    built on first use, with the bucket count L of a table or the shift
    that takes a stack's draw to its bucket; at most 64 are kept."""
    entry = _guides.get(id(table))
    if entry is None:
        if len(_guides) >= 64:
            _guides.clear()
        arr = np.asarray(table)
        size = 4096
        while size < 2 * len(arr):
            size *= 2
        if arr.dtype.kind == "f":
            # one more bucket, at u = 1.0, takes the end of the table
            scale, left = size, np.arange(size + 1) / size
        else:  # L buckets over [0, 2^b), 2^b the power of two above the end
            scale = int(arr[-1]).bit_length() - size.bit_length() + 1
            left = np.arange(size + 1, dtype=np.int64) << scale
        guide = np.searchsorted(arr, left)
        entry = _guides[id(table)] = (table, arr, scale, guide)
    return entry[1:]


def _settle(arr: np.ndarray, k: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The least k with arr[k] >= u, for each u, from the guide's k, which
    is at most that: one step up settles nearly every draw, and
    np.searchsorted the few left."""
    up = np.flatnonzero(arr[k] < u)
    k[up] += 1
    up = up[arr[k[up]] < u[up]]
    k[up] = np.searchsorted(arr, u[up], side="left")
    return k


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
    # u * size is exact: size = 2^m
    return _settle(arr, guide[(u * size).astype(np.intp)], u) + 1


def stack_thresholds(*tables) -> np.ndarray:
    """The cdf tables as one ascending int64 array: segment s holds
    s 2^53 + floor(table * 2^53), each clipped to 2^53 - 1 within it.  For
    an integer x in [0, 2^53), table[k] >= x 2^-53 iff floor(table[k] 2^53)
    >= x, and no clipped entry falls below x, so the first entry >= s 2^53 +
    x sits at the segment's start plus bisect_left(table, x 2^-53).  The
    clipping keeps the 1.0 entries of one segment below the next."""
    return np.concatenate([
        s * _SEGMENT + np.minimum(np.floor(np.asarray(t) * _SEGMENT),
                                  _SEGMENT - 1).astype(np.int64)
        for s, t in enumerate(tables)])


def stack_index(stack: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Least k with stack[k] >= x, for each int64 x of an array: a draw in
    [0, 2^53) plus s 2^53 looks up segment s.  By np.searchsorted, through
    the stack's guide once x holds 1024 draws."""
    arr, shift, guide = _guided(stack)
    if len(x) < _GUIDE_MIN:
        return np.searchsorted(arr, x, side="left")
    return _settle(arr, guide[x >> shift], x)
