"""Spanning-tree counting on sampled random graphs.

The empirical route to the entropy: sample G(n, c/n), extract the giant
component, and compute log tau(G) as the log-determinant of the Laplacian
with one row/column deleted (any cofactor of the Laplacian counts spanning
trees).  It has about c n nonzeros: rounds of multiple-elimination minimum
degree take pendant trees and degree-2 paths without fill, and the filled-in
rest (random graphs have no small separators) goes to a dense Cholesky.
The logs of the pivots are summed, so tau itself (exp of order n) never
materializes.  Connectivity is checked first, because roundoff can leave a
tiny nonzero pivot where a singular matrix has an exact zero.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.linalg.lapack import dpotrf
from scipy.sparse import csr_matrix, diags
from scipy.sparse.csgraph import connected_components

from .reports import EstimateReport
from .rng import derive_seed, substream

__all__ = [
    "SparseGraph",
    "ComplexityResult",
    "sample_gnp",
    "giant_component",
    "log_spanning_trees",
    "empirical_f",
    "write_edgelist",
    "read_edgelist",
    "FACTORIZATION_CAP",
]

# The cap bounds the dense Cholesky tail, at most 8 n^2 bytes (128 MB at
# n = 4000).  Raising it needs a guard on the fill of the sparse rounds too.
FACTORIZATION_CAP = 4000
# the sparse rounds end at > _DENSE_FILL n^2 nonzeros or <= _DENSE_N rows
_DENSE_FILL, _DENSE_N, _NO_KEY = 0.02, 64, np.iinfo(np.int64).max
_BREAKDOWN = "nonpositive pivot at vertex {}: numerical breakdown"


class SparseGraph:
    """Simple undirected graph: n vertices, canonical (u < v) edge array."""

    def __init__(self, n: int, edges):
        self.n = int(n)
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self.edges = e
        self.validate()

    @classmethod
    def from_edges(cls, n: int, pairs) -> "SparseGraph":
        """Build from arbitrary pair order: canonicalizes, sorts, dedupes."""
        e = np.asarray(list(pairs), dtype=np.int64).reshape(-1, 2)
        e = np.sort(e, axis=1)
        e = np.unique(e, axis=0)
        return cls(n, e)

    def validate(self) -> None:
        if self.n < 1:
            raise ValueError(f"graph needs n >= 1 vertices, got {self.n}")
        e = self.edges
        if len(e):
            if e.min() < 0 or e.max() >= self.n:
                raise ValueError("edge endpoint out of range")
            if (e[:, 0] >= e[:, 1]).any():
                raise ValueError("edges must be canonical u < v (no self-loops)")
            key = e[:, 0] * self.n + e[:, 1]  # sorted edges: increasing
            if not (np.diff(key) > 0).all() and len(np.unique(key)) != len(e):
                raise ValueError("duplicate edges")

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        return (np.bincount(self.edges[:, 0], minlength=self.n)
                + np.bincount(self.edges[:, 1], minlength=self.n))

    def adjacency(self) -> csr_matrix:
        e = self.edges
        data = np.ones(2 * len(e), dtype=np.int8)
        rows = np.concatenate([e[:, 0], e[:, 1]])
        cols = np.concatenate([e[:, 1], e[:, 0]])
        return csr_matrix((data, (rows, cols)), shape=(self.n, self.n))


class ComplexityResult:
    """log of the spanning-tree count and its per-vertex normalization."""

    def __init__(self, log_tau: float, n_giant: int):
        self.log_tau = log_tau
        self.n_giant = n_giant
        self.per_vertex = log_tau / n_giant

    def to_dict(self) -> dict:
        return {"log_tau": self.log_tau, "n_giant": self.n_giant,
                "per_vertex": self.per_vertex}


def sample_gnp(n: int, p: float, seed: int) -> SparseGraph:
    """Erdos-Renyi G(n, p): each of the C(n,2) pairs kept independently with
    probability p, generated by geometric skipping over the pair index."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p}")
    total = n * (n - 1) // 2
    if p == 0.0 or total == 0:
        return SparseGraph(n, np.empty((0, 2), dtype=np.int64))
    if p == 1.0:
        iu = np.triu_indices(n, k=1)
        return SparseGraph(n, np.stack(iu, axis=1))

    rng = substream(seed, "gnp", n, p)
    picks = []
    pos = -1
    while True:
        batch = max(256, int((total - pos) * p * 1.1) + 16)
        gaps = rng.geometric(p, size=batch)
        lin = pos + np.cumsum(gaps)
        inside = lin[lin < total]
        picks.append(inside)
        if len(inside) < len(lin):
            break
        pos = int(lin[-1])
    lin = np.concatenate(picks)
    # linear pair index -> (i, j): row i holds indices [off[i], off[i+1])
    off = np.concatenate(([0], np.cumsum(n - 1 - np.arange(n - 1))))
    i = np.searchsorted(off, lin, side="right") - 1
    j = lin - off[i] + i + 1
    return SparseGraph(n, np.stack([i, j], axis=1))


def giant_component(g: SparseGraph) -> tuple[SparseGraph, np.ndarray]:
    """Induced subgraph on the largest component (ties broken by smallest
    contained vertex id), vertices relabeled contiguously in old-id order.
    Returns (subgraph, mapping) with mapping[new_id] = old_id."""
    _, labels = connected_components(g.adjacency(), directed=False)
    sizes = np.bincount(labels)
    candidates = np.flatnonzero(sizes == sizes.max())
    _, first_occurrence = np.unique(labels, return_index=True)
    best = candidates[np.argmin(first_occurrence[candidates])]
    keep = labels == best
    old_ids = np.flatnonzero(keep)
    new_of_old = np.full(g.n, -1, dtype=np.int64)
    new_of_old[old_ids] = np.arange(len(old_ids))
    if g.m:
        emask = keep[g.edges[:, 0]] & keep[g.edges[:, 1]]
        new_edges = new_of_old[g.edges[emask]]
    else:
        new_edges = np.empty((0, 2), dtype=np.int64)
    return SparseGraph(len(old_ids), new_edges), old_ids


def _log_det(a, labels: np.ndarray) -> float:
    """log det of a sparse symmetric positive definite matrix.  Each round
    eliminates the rows whose (degree, hashed label) key is below their
    neighbours', if their degree is at most twice the minimum plus two, by one
    Schur complement A_RR - A_RI diag(1/d) A_IR; the diagonal is kept as row
    sums minus off-diagonals, so no term of a Laplacian cancels (GTH).  A
    dense rest goes to LAPACK.  Raises ValueError naming labels[k] of the
    first nonpositive pivot k."""
    a = csr_matrix(a)
    n = a.shape[0]
    labels = np.asarray(labels)
    tie = labels.astype(np.uint64) & 0xFFFFFFFF  # lowbias32: a bijection
    for shift, mult in ((16, 0x7FEB352D), (15, 0x846CA68B), (16, 1)):
        tie = ((tie ^ (tie >> shift)) * mult) & 0xFFFFFFFF
    tie = tie.astype(np.int64)
    excess = a @ np.ones(n)
    off = a - diags(a.diagonal())
    total = 0.0
    while n > _DENSE_N and off.nnz + n <= _DENSE_FILL * n * n:
        deg = np.diff(off.indptr).astype(np.int64)
        key = deg << 32 | tie
        # least neighbour key; meaningless in a row with no neighbours
        nbr = np.minimum.reduceat(np.append(key[off.indices], _NO_KEY),
                                  off.indptr[:-1])
        go = ((key < nbr) | (deg == 0)) & (deg <= 2 * deg.min() + 2)
        elim, rest = np.flatnonzero(go), np.flatnonzero(~go)
        d = (excess - off @ np.ones(n))[elim]
        bad = np.flatnonzero(~(d > 0.0))
        if len(bad):
            raise ValueError(_BREAKDOWN.format(labels[elim[bad[0]]]))
        total += float(np.sum(np.log(d)))
        rows = off[rest]
        b = rows[:, elim] @ diags(1.0 / np.sqrt(d))  # b b^T: exactly symmetric
        excess = excess[rest] - b @ (excess[elim] / np.sqrt(d))
        fill = b @ b.T
        off = rows[:, rest] - (fill - diags(fill.diagonal()))
        labels, tie, n = labels[rest], tie[rest], len(rest)
    # in tie order, a thin tail (a long path) is eliminated in few levels
    order = np.argsort(tie)
    labels, off = labels[order], off[order][:, order]
    dense = off.toarray()
    np.fill_diagonal(dense, excess[order] - dense.sum(axis=1))
    # symmetric: the transpose is the same matrix, in LAPACK's Fortran order
    chol, info = dpotrf(dense.T, overwrite_a=1)
    if info:
        raise ValueError(_BREAKDOWN.format(labels[info - 1]))
    return total + 2.0 * float(np.sum(np.log(chol.diagonal())))


def log_spanning_trees(g: SparseGraph, ground: int = 0) -> ComplexityResult:
    """log tau(G) via the Matrix-Tree theorem: the log-determinant of the
    Laplacian with the ground row/column deleted, by rounds of sparse
    minimum-degree elimination and a dense Cholesky tail (see _log_det).

    Raises ValueError on disconnected input, and on a nonpositive pivot
    (numerical breakdown), naming its vertex of g.
    """
    n = g.n
    if not (0 <= ground < n):
        raise ValueError(f"ground vertex {ground} out of range")
    adj = g.adjacency()
    parts = connected_components(adj, directed=False)[0]
    if parts > 1:
        raise ValueError(f"graph has {parts} components: the reduced "
                         "Laplacian is singular (a zero pivot)")
    if n == 1:
        return ComplexityResult(0.0, 1)
    keep = np.arange(n) != ground
    lap = (diags(g.degrees().astype(float)) - adj).tocsr()[keep][:, keep]
    return ComplexityResult(_log_det(lap, np.flatnonzero(keep)), n)


def empirical_f(n: int, c: float, reps: int, seed: int) -> EstimateReport:
    """Mean per-vertex log spanning-tree count of the giant of G(n, c/n)
    over independent repetitions."""
    if not (1 <= n <= FACTORIZATION_CAP):
        raise ValueError(f"n must lie in [1, {FACTORIZATION_CAP}], got {n}")
    if not (c > 1.0) or not math.isfinite(c):
        raise ValueError(f"empirical_f requires finite c > 1, got {c}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    t0 = time.perf_counter()
    vals = np.zeros(reps)
    for r in range(reps):
        graph = sample_gnp(n, c / n, derive_seed(seed, "empirical_f", r))
        giant, _ = giant_component(graph)
        res = log_spanning_trees(giant)
        if not (res.per_vertex >= 0.0 and math.isfinite(res.per_vertex)):
            raise ArithmeticError(
                f"per-vertex complexity {res.per_vertex} out of range")
        vals[r] = res.per_vertex
    stderr = float(vals.std(ddof=1) / math.sqrt(reps)) if reps > 1 else math.nan
    return EstimateReport(
        value=float(vals.mean()),
        stderr=stderr,
        n_samples=reps,
        truncation={"n": n},
        seed=seed,
        wall_time=time.perf_counter() - t0)


def write_edgelist(g: SparseGraph, path) -> None:
    """Flat text format: header 'n m', then one 'u v' line per edge."""
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.m}\n")
        for u, v in g.edges:
            fh.write(f"{u} {v}\n")


def read_edgelist(path) -> SparseGraph:
    """Inverse of write_edgelist; raises ValueError naming the first line
    that breaks the format (header 'n m' with n >= 1, then m edge lines)."""
    with open(path) as fh:
        lines = fh.read().splitlines() or [""]
    pairs = []
    for i, line in enumerate(lines, 1):
        try:
            u, v = map(int, line.split())
        except ValueError:
            raise ValueError(f"{path}:{i}: expected two integers, got "
                             f"{line!r}") from None
        pairs.append((u, v))
    (n, m), edges = pairs[0], pairs[1:]
    if n < 1 or m < 0:
        raise ValueError(f"{path}:1: need n >= 1 and m >= 0, got {n} {m}")
    if len(edges) != m:
        raise ValueError(f"{path}:{min(len(edges), m) + 2}: header declares "
                         f"{m} edges, file has {len(edges)}")
    return SparseGraph.from_edges(n, edges)
