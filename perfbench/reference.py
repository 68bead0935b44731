"""Reference values computed from numpy and scipy alone.

Nothing here imports gwtree.  Each function is written from the
mathematical definition of the quantity it returns, so that a workload's
outputs can be checked against a computation that shares no code with the
program under test.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, sparse, special, stats
from scipy.sparse import csgraph

_KMAX = 400  # Poisson series truncation; rates here stay below 50


def extinction_q(c: float) -> float:
    """Smallest root of q = exp(-c(1-q)), c > 1, by bracketing.

    h(q) = q - exp(-c(1-q)) is negative at 0 and positive at 1/c
    (log c < c - 1), and the smallest root lies in between.
    """
    return optimize.brentq(lambda q: q - math.exp(-c * (1.0 - q)),
                           0.0, 1.0 / c, xtol=1e-16, rtol=1e-15)


def theta(c: float) -> float:
    """Survival probability 1 - q(c)."""
    return 1.0 - extinction_q(c)


def _poisson_pmf(rate: float, ks: np.ndarray) -> np.ndarray:
    if rate == 0.0:
        return (ks == 0).astype(float)
    return np.exp(ks * math.log(rate) - rate - special.gammaln(ks + 1))


def positive_poisson_pmf(rate: float, ks: np.ndarray) -> np.ndarray:
    """Poisson(rate) conditioned positive, on the integers ks (>= 0)."""
    p = _poisson_pmf(rate, ks) / -math.expm1(-rate)
    return np.where(ks >= 1, p, 0.0)


def root_degree_pmf(c: float, kmax: int = _KMAX) -> np.ndarray:
    """pmf[k] of the root degree of the survival-conditioned tree, k = 0..kmax.

    The root has a positive-Poisson(c theta) number of type-I children plus
    an independent Poisson(c q) number of type-F children; the pmf is the
    convolution of the two laws.
    """
    q = extinction_q(c)
    ks = np.arange(kmax + 1)
    pmf = np.convolve(positive_poisson_pmf(c * (1.0 - q), ks),
                      _poisson_pmf(c * q, ks))[:kmax + 1]
    return pmf


def expected_log_degree(c: float) -> float:
    """E[log D] for the root degree D of the survival-conditioned tree."""
    pmf = root_degree_pmf(c)
    ks = np.arange(len(pmf))
    return float(np.sum(pmf[2:] * np.log(ks[2:])))


def f_lower_constant() -> float:
    """sum_{k>=0} e^{-1} log(1+k)/k!, E[log D] of the c -> 1 limit."""
    ks = np.arange(_KMAX)
    return float(np.sum(np.exp(-1.0 - special.gammaln(ks + 1)) * np.log1p(ks)))


def f_sandwich(c: float) -> tuple[float, float]:
    """(f_lower, f_upper) bounds on the spanning-tree entropy f(c)."""
    upper = expected_log_degree(c)
    return max(0.0, upper - f_lower_constant()), upper


def annealed_p2(c: float, kmax: int = 120) -> float:
    """E[p_2] on the survival-conditioned tree, as an exact series.

    p_2 = (1/D) sum over root children v of 1/deg(v).  A type-I child has
    degree 1 + A + B with A ~ Q*_{c theta}, B ~ Poisson(c q); a type-F
    child has degree 1 + B.  The root's child counts (D_I, D_F) have the
    same two laws, independently, so
        E[p_2] = E[D_I/D] E[1/(1+A+B)] + E[D_F/D] E[1/(1+B)].
    """
    q = extinction_q(c)
    ks = np.arange(kmax + 1)
    pa = positive_poisson_pmf(c * (1.0 - q), ks)
    pb = _poisson_pmf(c * q, ks)
    joint = np.outer(pa, pb)
    a, b = np.meshgrid(ks, ks, indexing="ij")
    total = a + b
    share_i = float(np.sum(joint * np.divide(a, total, out=np.zeros(a.shape),
                                             where=total > 0)))
    inv_i = float(np.sum(joint / (1.0 + total)))
    inv_f = float(np.sum(pb / (1.0 + ks)))
    return share_i * inv_i + (1.0 - share_i) * inv_f


def tree_p2(children, root: int = 0) -> float:
    """p_2 of one rooted tree, summed directly over the root's children."""
    kids = children[root]
    if not kids:
        return 0.0
    # a child's degree is its child count plus the edge to the root
    return sum(1.0 / (len(children[v]) + 1) for v in kids) / len(kids)


def uniform_tree_childless_mean(n: int) -> float:
    """Expected number of childless vertices of a uniform labeled tree on n
    vertices rooted at a uniform vertex: n (1 - 1/n)^(n-1).

    A vertex is a leaf exactly when it is absent from the tree's length
    n-2 code, so the mean leaf count is n (1-1/n)^(n-2); the root is a leaf
    with probability (1-1/n)^(n-2), and a leaf root has a child.
    """
    return n * (1.0 - 1.0 / n) ** (n - 1)


def uniform_tree_leaf_var(n: int) -> float:
    """Variance of the leaf count of a uniform labeled tree on n vertices."""
    m = n - 2
    mean = n * (1.0 - 1.0 / n) ** m
    pair = n * (n - 1) * (1.0 - 2.0 / n) ** m
    return pair + mean - mean * mean


def alpha(lam: float, mu: float) -> float:
    """log((e^mu - 1)/mu) - log((e^lam - 1)/lam)."""
    return (math.log(math.expm1(mu) / mu) - math.log(math.expm1(lam) / lam))


def sample_gnp_edges(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Edge array (u < v) of G(n, p): a Binomial number of distinct pairs."""
    total = n * (n - 1) // 2
    m = int(rng.binomial(total, p))
    lin = np.sort(rng.choice(total, size=m, replace=False))
    # row i of the upper triangle holds pair indices [off[i], off[i+1])
    off = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))
    i = np.searchsorted(off, lin, side="right") - 1
    j = lin - off[i] + i + 1
    return np.stack([i, j], axis=1)


def giant_edges(n: int, edges: np.ndarray) -> tuple[int, np.ndarray]:
    """(size, relabelled edges) of the largest connected component."""
    if len(edges) == 0:
        return 1, np.empty((0, 2), dtype=np.int64)
    adj = sparse.coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                            shape=(n, n))
    _, labels = csgraph.connected_components(adj, directed=False)
    big = np.argmax(np.bincount(labels))
    keep = labels == big
    new = np.cumsum(keep) - 1
    mask = keep[edges[:, 0]]
    return int(keep.sum()), new[edges[mask]]


def log_tau(n: int, edges: np.ndarray) -> float:
    """log of the number of spanning trees by the Matrix-Tree theorem:
    slogdet of the Laplacian with vertex 0's row and column removed."""
    if n == 1:
        return 0.0
    lap = np.zeros((n, n))
    np.add.at(lap, (edges[:, 0], edges[:, 0]), 1.0)
    np.add.at(lap, (edges[:, 1], edges[:, 1]), 1.0)
    lap[edges[:, 0], edges[:, 1]] = -1.0
    lap[edges[:, 1], edges[:, 0]] = -1.0
    sign, logdet = np.linalg.slogdet(lap[1:, 1:])
    if sign <= 0:
        raise ArithmeticError("reduced Laplacian is not positive definite")
    return float(logdet)


def cayley_log_tau(n: int) -> float:
    """log n^(n-2), the spanning-tree count of the complete graph K_n."""
    return (n - 2) * math.log(n)


def chi2_pvalue(observed: np.ndarray, probs: np.ndarray) -> float:
    """Goodness-of-fit p-value of integer samples against a pmf on 0..len-1.

    Cells are merged from the tail inward until each expects >= 5 draws.
    """
    n = len(observed)
    counts = np.bincount(observed, minlength=len(probs))
    if len(counts) > len(probs) or np.any(counts[probs == 0.0] > 0):
        return 0.0  # a draw outside the law's support
    expect = n * probs
    cells_o, cells_e = [], []
    acc_o = acc_e = 0.0
    for k in range(len(probs) - 1, -1, -1):
        acc_o += counts[k]
        acc_e += expect[k]
        if acc_e >= 5.0:
            cells_o.append(acc_o)
            cells_e.append(acc_e)
            acc_o = acc_e = 0.0
    if cells_e:
        cells_o[-1] += acc_o
        cells_e[-1] += acc_e
    if len(cells_e) < 2:
        return 1.0
    o, e = np.asarray(cells_o), np.asarray(cells_e)
    stat = float(np.sum((o - e) ** 2 / e))
    return float(stats.chi2.sf(stat, len(e) - 1))
