"""Spanning-tree counting on sampled random graphs.

The empirical route to the entropy: sample G(n, c/n), extract the giant
component, and compute log tau(G) as the log-determinant of the Laplacian
with one row/column deleted (any cofactor of the Laplacian counts spanning
trees).  It has about c n nonzeros, read straight from the edge list as
flat numpy triples (row, column, weight): rounds of multiple-elimination
minimum degree take pendant trees and degree-2 paths without fill, and the
filled-in rest (random graphs have no small separators) goes to a dense
Cholesky.  A round is plain numpy (bincount, reduceat, repeat and one
stable sort); no scipy.sparse matrix is built inside the loop.  A Laplacian
that is dense from the start is scattered into the dense array at once.
The logs of the pivots are summed, so tau itself (exp of order n) never
materializes.  Connectivity is checked first, because roundoff can leave a
tiny nonzero pivot where a singular matrix has an exact zero.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dpotrf
from scipy.sparse import coo_matrix, csr_matrix
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
# n = 4000); _ROUND_FILL keeps each sparse round below the tail.
FACTORIZATION_CAP = 4000
# the sparse rounds end at > _DENSE_FILL n^2 nonzeros or <= _DENSE_N rows,
# or before a round of more than _ROUND_FILL n^2 fill pairs
_DENSE_FILL, _DENSE_N, _ROUND_FILL = 0.02, 64, 0.1
_NO_KEY = np.iinfo(np.int64).max
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


class ComplexityResult:
    """log of the spanning-tree count and its per-vertex normalization."""

    def __init__(self, log_tau: float, n_giant: int):
        self.log_tau = log_tau
        self.n_giant = n_giant
        self.per_vertex = log_tau / n_giant


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


def _components(g: SparseGraph) -> tuple[int, np.ndarray]:
    """connected_components of g from its edge list alone, as a CSR of the
    rows u: an undirected search follows each stored edge both ways."""
    u, v = g.edges[:, 0], g.edges[:, 1]
    if (u[1:] < u[:-1]).any():
        order = np.argsort(u, kind="stable")
        u, v = u[order], v[order]
    ptr = np.zeros(g.n + 1, np.int32)
    np.cumsum(np.bincount(u, minlength=g.n), out=ptr[1:])
    adj = csr_matrix((np.ones(len(v)), v.astype(np.int32), ptr),
                     shape=(g.n, g.n))
    return connected_components(adj, directed=False)


def giant_component(g: SparseGraph) -> tuple[SparseGraph, np.ndarray]:
    """Induced subgraph on the largest component (ties broken by smallest
    contained vertex id), vertices relabeled contiguously in old-id order.
    Returns (subgraph, mapping) with mapping[new_id] = old_id."""
    _, labels = _components(g)
    sizes = np.bincount(labels)
    candidates = np.flatnonzero(sizes == sizes.max())
    _, first_occurrence = np.unique(labels, return_index=True)
    best = candidates[np.argmin(first_occurrence[candidates])]
    keep = labels == best
    old_ids = np.flatnonzero(keep)
    new_of_old = np.full(g.n, -1, dtype=np.int64)
    new_of_old[old_ids] = np.arange(len(old_ids))
    emask = keep[g.edges[:, 0]] & keep[g.edges[:, 1]]
    return SparseGraph(len(old_ids), new_of_old[g.edges[emask]]), old_ids


def _coalesce(n: int, i, j, w):
    """(i, j, w) in CSR order, duplicates summed in their given order (the
    sort is stable) and exact zeros dropped."""
    bits = max(n - 1, 1).bit_length()
    key = i << bits | j
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    w = np.add.reduceat(w[order], first)
    nz = w != 0.0
    key = key[first][nz]
    return key >> bits, key & ((1 << bits) - 1), w[nz]


def _sparse(n: int, nnz: int) -> bool:
    return n > _DENSE_N and nnz + n <= _DENSE_FILL * n * n


def _dense_tail(n, i, j, w, excess, labels, tie) -> float:
    """log det by LAPACK of the matrix with off-diagonal entries w at (i, j)
    and (j, i), and row sums `excess`, in hashed order: a thin tail (a long
    path) is then eliminated in few levels."""
    order = np.argsort(tie)
    pos = np.empty(n, np.int64)
    pos[order] = np.arange(n)
    dense = np.zeros((n, n))
    pi, pj = pos[i], pos[j]
    dense[pi, pj] = w
    dense[pj, pi] = w
    np.fill_diagonal(dense, excess[order] - dense.sum(axis=1))
    # symmetric: the transpose is the same matrix, in LAPACK's Fortran order
    chol, info = dpotrf(dense.T, overwrite_a=1)
    if info:
        raise ValueError(_BREAKDOWN.format(labels[order[info - 1]]))
    return 2.0 * float(np.sum(np.log(chol.diagonal())))


def _schur_log_det(n: int, i, j, w, excess, labels) -> float:
    """log det of the symmetric matrix with off-diagonal entries w at (i, j)
    and (j, i), each pair listed once, and row sums `excess` (the diagonal is
    excess minus the off-diagonal row sums).  See _log_det."""
    labels = np.asarray(labels)
    tie = labels.astype(np.uint64) & 0xFFFFFFFF  # lowbias32: a bijection
    for shift, mult in ((16, 0x7FEB352D), (15, 0x846CA68B), (16, 1)):
        tie = ((tie ^ (tie >> shift)) * mult) & 0xFFFFFFFF
    tie = tie.astype(np.int64)
    if not _sparse(n, 2 * len(w)):  # dense at once: no sort, no mirror copy
        return _dense_tail(n, i, j, w, excess, labels, tie)
    i, j, w = _coalesce(n, np.concatenate([i, j]), np.concatenate([j, i]),
                        np.concatenate([w, w]))
    total = 0.0
    while _sparse(n, len(w)):
        deg = np.bincount(i, minlength=n)
        ptr = np.concatenate(([0], np.cumsum(deg)))
        key = deg << 32 | tie
        # least neighbour key; meaningless in a row with no neighbours
        nbr = np.minimum.reduceat(np.append(key[j], _NO_KEY), ptr[:-1])
        go = ((key < nbr) | (deg == 0)) & (deg <= 2 * deg.min() + 2)
        elim, k = np.flatnonzero(go), deg[go]
        # a round holds about 70 bytes for each of its sum k^2 fill pairs:
        # past _ROUND_FILL n^2 of them, the dense tail's 8 n^2 bytes are less
        if k @ k > _ROUND_FILL * n * n:
            break
        d = (excess - np.bincount(i, weights=w, minlength=n))[elim]
        bad = np.flatnonzero(~(d > 0.0))
        if len(bad):
            raise ValueError(_BREAKDOWN.format(labels[elim[bad[0]]]))
        total += float(np.sum(np.log(d)))
        # the entries (r, e) of kept rows r at eliminated columns e (the
        # eliminated rows are an independent set), scaled by 1/sqrt(d_e): the
        # fill -b b^T is then exactly symmetric
        scale = np.zeros(n)
        scale[elim] = 1.0 / np.sqrt(d)
        rest, at_elim = ~go, go[j]
        kept_row = rest[i]
        t = np.flatnonzero(kept_row & at_elim)
        r, e = i[t], j[t]
        b = w[t] * scale[e]
        excess = excess - np.bincount(r, weights=b * (excess * scale)[e],
                                      minlength=n)
        # the fill: for each (r, e), the pairs (r, s) over row e's entries
        # (e, s), s != r.  They come in row order, so the stable sort that
        # merges them meets long presorted runs.
        ke = deg[e]
        q = np.repeat(ptr[e] - np.cumsum(ke) + ke, ke) + np.arange(ke.sum())
        fr, fs = np.repeat(r, ke), j[q]
        ok = fr != fs
        fw = np.repeat(b, ke) * (w[q] * np.repeat(scale[e], ke))
        keep = kept_row & ~at_elim
        new = np.cumsum(rest) - 1
        n = len(rest) - len(elim)
        i, j, w = _coalesce(n, new[np.concatenate([i[keep], fr[ok]])],
                            new[np.concatenate([j[keep], fs[ok]])],
                            np.concatenate([w[keep], -fw[ok]]))
        excess, labels, tie = excess[rest], labels[rest], tie[rest]
    return total + _dense_tail(n, i, j, w, excess, labels, tie)


def _log_det(a, labels: np.ndarray) -> float:
    """log det of a sparse symmetric positive definite matrix, by rounds of
    multiple-elimination minimum degree on flat numpy triples and a dense
    Cholesky tail.  The matrix is read once, as its entries above the
    diagonal and its row sums.

    Each round eliminates the rows whose (degree, hashed label) key is below
    their neighbours', if their degree is at most twice the minimum plus two,
    by one Schur complement A_RR - A_RI diag(1/d) A_IR: its fill is the
    ordered neighbour pairs of each eliminated row, merged in by one stable
    sort.  The diagonal is kept as row sums minus off-diagonals, so no term
    of a Laplacian cancels (GTH).  The rounds stop, and the rest goes to
    LAPACK, once the matrix holds more than _DENSE_FILL n^2 nonzeros or at
    most _DENSE_N rows, or before a round that would build more than
    _ROUND_FILL n^2 fill pairs (the sum of its eliminated degrees squared).
    Raises ValueError naming labels[k] of the first nonpositive pivot k."""
    a = coo_matrix(a, copy=True)
    a.sum_duplicates()
    upper = a.row < a.col
    excess = np.bincount(a.row, weights=a.data, minlength=a.shape[0])
    return _schur_log_det(a.shape[0], a.row[upper].astype(np.int64),
                          a.col[upper].astype(np.int64),
                          a.data[upper].astype(float), excess, labels)


def log_spanning_trees(g: SparseGraph, ground: int = 0) -> ComplexityResult:
    """log tau(G) via the Matrix-Tree theorem: the log-determinant of the
    Laplacian with the ground row/column deleted, read straight from the
    edges by _schur_log_det (see _log_det).  A reduced Laplacian already
    past the dense switch (K_n) is scattered into the dense array at once.
    A tree (connected, n - 1 edges) has one spanning tree: log tau is 0.

    Raises ValueError on disconnected input, and on a nonpositive pivot
    (numerical breakdown), naming its vertex of g.
    """
    n = g.n
    if not (0 <= ground < n):
        raise ValueError(f"ground vertex {ground} out of range")
    parts = _components(g)[0]
    if parts > 1:
        raise ValueError(f"graph has {parts} components: the reduced "
                         "Laplacian is singular (a zero pivot)")
    if g.m == n - 1:
        return ComplexityResult(0.0, n)
    # vertex x != ground is row x - (x > ground); each edge off the ground is
    # an entry -1, and a row sums to 1 at a neighbour of the ground, else 0
    lo, hi = g.edges[:, 0], g.edges[:, 1]
    at = (lo == ground) | (hi == ground)
    nbrs = lo[at] + hi[at] - ground
    lo, hi = lo[~at], hi[~at]
    lo -= lo > ground
    hi -= hi > ground
    excess = np.bincount(nbrs - (nbrs > ground), minlength=n - 1).astype(float)
    log_tau = _schur_log_det(n - 1, lo, hi, np.broadcast_to(-1.0, lo.shape),
                             excess, np.delete(np.arange(n), ground))
    return ComplexityResult(log_tau, n)


def empirical_f(n: int, c: float, reps: int, seed: int) -> EstimateReport:
    """Mean per-vertex log spanning-tree count of the giant of G(n, c/n)
    over independent repetitions."""
    if not (1 <= n <= FACTORIZATION_CAP):
        raise ValueError(f"n must lie in [1, {FACTORIZATION_CAP}], got {n}")
    if not (c > 1.0) or not math.isfinite(c):
        raise ValueError(f"empirical_f requires finite c > 1, got {c}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
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
        seed=seed)


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
