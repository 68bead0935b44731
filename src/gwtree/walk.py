"""Simple-random-walk return probabilities on rooted trees, killed walks,
and the Monte Carlo estimators built on them.

Exactness domain.  p_k, the probability that the walk started at the root
is back at the root after k steps, depends only on the tree restricted to
depth k/2: a k-step return path never goes deeper, and the transition out
of a vertex at depth k/2 still happens in time only through its (known)
degree.  return_probs therefore iterates the transition operator on the
vertex set restricted to depth ceil(K/2), using true degrees, and is exact
for every k <= 2 * (specified depth of the tree).  Mass stepping below the
restriction is dropped; it cannot return within the horizon.

Estimators.  A survival-conditioned tree materialized to depth K/2 has on
the order of c^{K/2} vertices, which is out of reach for the parameters of
interest (c up to 4, K = 60).  The integral estimators therefore sample
the annealed quantity directly: each Monte Carlo sample grows a fresh tree
lazily along one simulated walk trajectory (offspring drawn on first
visit), and records 1/k for each return time k <= K.  The per-sample value
has expectation sum_{k<=K} E[p_k]/k, the K-truncated return integral, so
the estimator is unbiased for the same estimand with variance read off the
sample.  Trees touched this way are never materialized beyond the walk's
trace.  Walks go in chunks of 8192, each drawing from its own substream; a
run of consecutive chunks reuses one node arena, and an executor walks up
to `workers` runs at once, so the output does not depend on the pool.  Both
walk engines invert the laws module's tables for all offspring counts.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.sparse import csr_matrix

from .analytic import expected_log_degree, extinction_prob
from .laws import quantile
from .reports import EstimateReport
from .rng import substream
from .trees import TYPE_F, TYPE_I, RootedTree, _add, _star_tables

__all__ = [
    "ReturnProfile",
    "DecayDiagnostic",
    "return_probs",
    "return_sum",
    "green_value",
    "green_truncation_bound",
    "killed_walk_visits",
    "required_depth_for_killed_walk",
    "estimate_return_integral",
    "estimate_f",
    "pbar_decay_diagnostic",
]

_WALK_CHUNK = 8192


@dataclass(frozen=True)
class ReturnProfile:
    """Return probabilities p_1..p_K (odd entries are exactly zero on a
    tree) and the largest k unaffected by truncation."""

    probs: np.ndarray
    K: int
    exact_upto: int


@dataclass(frozen=True)
class DecayDiagnostic:
    """Per-k annealed return-probability estimates with a least-squares fit
    of log p_k against k^(1/6) (qualitative diagnostic; the decay constants
    are not pinned down analytically)."""

    rows: list  # (k, estimate, stderr)
    fit_slope: float
    fit_intercept: float
    c: float
    K: int
    n_samples: int
    seed: int


def return_probs(t: RootedTree, K: int) -> ReturnProfile:
    """Exact p_k for k = 1..K by dense iteration of the walk's transition
    operator on the depth-restricted vertex set."""
    if K < 2:
        raise ValueError(f"K must be >= 2, got {K}")
    dmax = (K + 1) // 2
    spec_d = t.specified_depth()
    if spec_d < dmax:
        raise ValueError(
            f"tree is specified to depth {spec_d}; p_k up to K={K} needs "
            f"child counts through depth {dmax}")
    # edges both ways, weighted by true degrees (children past dmax count)
    n = len(t)
    nodes = np.flatnonzero(t.depth <= dmax)
    idx = np.full(n, -1)
    idx[nodes] = np.arange(len(nodes))
    kids = nodes[nodes != t.root]
    src, dst = np.r_[kids, t.parent[kids]], np.r_[t.parent[kids], kids]
    deg = (np.bincount(t.parent[t.parent >= 0], minlength=n)
           + (np.arange(n) != t.root))
    P = csr_matrix((1.0 / deg[src], (idx[src], idx[dst])),
                   shape=(len(nodes), len(nodes)))
    Pt = P.T.tocsr()
    vec = np.zeros(len(nodes))
    root_i = idx[t.root]
    vec[root_i] = 1.0
    probs = np.zeros(K)
    for k in range(1, K + 1):
        vec = Pt @ vec
        probs[k - 1] = vec[root_i]
    exact_upto = K if math.isinf(spec_d) else min(K, 2 * int(spec_d))
    return ReturnProfile(probs=probs, K=K, exact_upto=exact_upto)


def return_sum(t: RootedTree, K: int) -> float:
    """sum_{k=1..K} p_k / k."""
    profile = return_probs(t, K)
    ks = np.arange(1, K + 1)
    return float(np.sum(profile.probs / ks))


def green_value(t: RootedTree, s: float, K: int) -> float:
    """sum_{k=0..K} p_k s^k; the truncation error is at most
    green_truncation_bound(s, K)."""
    if not (0.0 < s < 1.0):
        raise ValueError(f"s must lie in (0, 1), got {s}")
    profile = return_probs(t, K)
    powers = s ** np.arange(1, K + 1)
    return 1.0 + float(np.sum(profile.probs * powers))


def green_truncation_bound(s: float, K: int) -> float:
    """Upper bound s^K/(1-s) on the mass dropped past K (p_k <= 1)."""
    return s ** K / (1.0 - s)


def required_depth_for_killed_walk(s: float) -> int:
    """Depth at which the killed walk dies before the frontier except with
    probability below 1e-6."""
    return math.ceil(math.log(1e6) / math.log(1.0 / s))


def killed_walk_visits(t: RootedTree, s: float, seed: int,
                       grow: float | None = None) -> int:
    """Visits to the root (start included) of a walk killed with probability
    1-s per step.

    On a truncated tree the caller either supplies grow=c, in which case
    a copy of the tree's lists is extended past its frontier with the
    two-type law at c (one extension per walk, i.e. annealed semantics), or
    the tree must be deep enough that the walk dies first with probability
    >= 1 - 1e-6 (depth >= required_depth_for_killed_walk(s)).
    """
    if not (0.0 < s < 1.0):
        raise ValueError(f"s must lie in (0, 1), got {s}")
    if grow is None:
        spec_d = t.specified_depth()
        if spec_d < required_depth_for_killed_walk(s):
            raise ValueError(
                f"tree specified to depth {spec_d} but killed walk at s={s} "
                f"needs depth >= {required_depth_for_killed_walk(s)} "
                "(or pass grow=c for lazy extension)")
    else:
        qcdf, fcdf = _star_tables(grow)

    rng = substream(seed, "killedwalk")
    parent, n = t.parent, len(t)  # t's column, then lists[0]
    lists = None  # a copy of t's lists, made when the walk first grows
    kids: dict = {}  # the children of each node the walk has met

    def children(v: int):
        nonlocal parent, lists
        if v < n and not t.open_[v]:
            # a walk meets few arena nodes: scanning parent beats a CSR
            return np.flatnonzero(t.parent == v).tolist()
        if grow is None:
            raise RuntimeError("walk reached the frontier of a tree "
                               "sampled without lazy growth")
        if lists is None:
            lists = tuple(a.tolist() for a in (t.parent, t.depth, t.ntype))
            parent = lists[0]
        n_i = quantile(qcdf, rng.random()) if lists[2][v] == TYPE_I else 0
        w = _add(lists, v, n_i)
        _add(lists, v, quantile(fcdf, rng.random()) - 1, TYPE_F)
        return range(w, len(parent))

    cur, visits = t.root, 1
    while rng.random() < s:
        if cur not in kids:
            kids[cur] = children(cur)
        ch = kids[cur]
        step = int(rng.integers(len(ch) + (cur != t.root)))
        cur = ch[step] if step < len(ch) else parent[cur]
        if cur == t.root:
            visits += 1
    return visits


# ---------------------------------------------------------------------------
# annealed walk engine


def _walk_chunks(c: float, K: int, seed: int, starts, n_samples: int):
    """Walk the run of consecutive chunks that begin at `starts` on one arena,
    reused from chunk to chunk; returns the run's (per_sample, hits) as
    _annealed_return_walks does."""
    qcdf, fcdf = map(np.asarray, _star_tables(c))
    sizes = [min(_WALK_CHUNK, n_samples - s) for s in starts]
    per_sample = np.zeros(sum(sizes))
    hits = np.zeros(K + 1, dtype=np.int64)
    # node columns: parent, first child, child count, first type-F child
    # (children before it are type I); slots past `size` are stale
    cols = np.empty((4, 8 * max(sizes) + 64), np.int64)
    parent, child_start, n_child, f_start = cols
    for start, m in zip(starts, sizes):
        # one substream per chunk: walks are then identical across runs with
        # different K, so K-truncated estimates are monotone per seed
        rng = substream(seed, "annealedwalk", c, start)
        # nodes 0..m-1 are the roots of the m walk trees; node m is their
        # common parent, whose children are all type I
        parent[:m], f_start[m] = m, m + 1
        child_start[:m] = -1
        size = m + 1
        cur = np.arange(m)
        at_root = np.ones(m, bool)
        acc = per_sample[start - starts[0]:start - starts[0] + m]

        for k in range(1, K + 1):
            first = child_start[cur]
            kids = n_child[cur]
            idx = np.flatnonzero(first < 0)
            if len(idx):
                nodes = cur[idx]
                is_i = nodes < f_start[parent[nodes]]
                n_i = np.zeros(len(nodes), np.int64)
                n_i[is_i] = quantile(qcdf, rng.random(np.count_nonzero(is_i)))
                tot = n_i + quantile(fcdf, rng.random(len(nodes))) - 1
                offs = np.cumsum(tot)
                new_total = int(offs[-1])
                offs += size - tot
                if size + new_total > cols.shape[1]:
                    grown = np.empty((4, 2 * (size + new_total)), np.int64)
                    grown[:, :size] = cols[:, :size]
                    cols = grown
                    parent, child_start, n_child, f_start = cols
                child_start[nodes] = first[idx] = offs
                n_child[nodes] = kids[idx] = tot
                f_start[nodes] = offs + n_i
                parent[size:size + new_total] = np.repeat(nodes, tot)
                child_start[size:size + new_total] = -1
                size += new_total

            deg = kids + ~at_root
            r = (rng.random(m) * deg).astype(np.int64)
            np.minimum(r, deg - 1, out=r)
            cur = np.where(r < kids, first + r, parent[cur])
            at_root = cur < m
            if k % 2 == 0:
                np.add(acc, 1.0 / k, out=acc, where=at_root)
            hits[k] += np.count_nonzero(at_root)
    return per_sample, hits


def _annealed_return_walks(c: float, K: int, n_samples: int, seed: int,
                           executor=None, workers=1):
    """Simulate one K-step walk per lazily grown two-type tree.

    Returns (per_sample, hits): per_sample[i] = sum of 1/k over the return
    times k <= K of walk i; hits[k] = number of walks at the root at step k.
    An executor maps the chunks, cut into at most `workers` runs, in order.
    """
    starts = range(0, n_samples, _WALK_CHUNK)
    n = min(workers, len(starts)) if executor else 1
    # the later runs take the spare chunks, as the last chunk may be short
    runs = [starts[len(starts) * i // n:len(starts) * (i + 1) // n]
            for i in range(n)]
    per_sample, hits = zip(*(executor.map if n > 1 else map)(
        partial(_walk_chunks, c, K, seed, n_samples=n_samples), runs))
    return np.concatenate(per_sample), np.sum(hits, axis=0)


def estimate_return_integral(c: float, K: int, n_samples: int, seed: int,
                             executor=None, workers=1) -> EstimateReport:
    """Monte Carlo estimate of the K-truncated annealed return integral
    sum_{k<=K} E[p_k]/k under the survival-conditioned tree at parameter c.
    An executor walks the chunks in up to `workers` runs; same result."""
    _validate_estimator_args(c, K, n_samples)
    t0 = time.perf_counter()
    walks, _ = _annealed_return_walks(c, K, n_samples, seed, executor, workers)
    return EstimateReport(
        value=float(walks.mean()),
        stderr=float(walks.std(ddof=1) / math.sqrt(n_samples)),
        n_samples=n_samples,
        truncation={"K": K, "depth": K // 2 + 1},
        seed=seed,
        wall_time=time.perf_counter() - t0)


def estimate_f(c: float, K: int, n_samples: int, seed: int,
               executor=None, workers=1) -> EstimateReport:
    """Spanning-tree entropy estimate: analytic E[log deg] minus the Monte
    Carlo return integral.  All sampling variance sits in the walk part;
    truncating at K can only push the estimate up (dropped terms are
    nonnegative)."""
    _validate_estimator_args(c, K, n_samples)
    t0 = time.perf_counter()
    eld = expected_log_degree(extinction_prob(c))
    ret = estimate_return_integral(c, K, n_samples, seed, executor, workers)
    return EstimateReport(
        value=eld - ret.value,
        stderr=ret.stderr,
        n_samples=n_samples,
        truncation=ret.truncation,
        seed=seed,
        wall_time=time.perf_counter() - t0)


def pbar_decay_diagnostic(c: float, K: int, n_samples: int, seed: int,
                          executor=None, workers=1) -> DecayDiagnostic:
    """Per-k annealed return-probability table with the decay fit."""
    _validate_estimator_args(c, K, n_samples)
    _, hits = _annealed_return_walks(c, K, n_samples, seed, executor, workers)
    rows = []
    for k in range(1, K + 1):
        p = hits[k] / n_samples
        se = math.sqrt(p * (1.0 - p) / n_samples)
        rows.append((k, float(p), float(se)))
    fit_ks = [k for k in range(2, K + 1, 2) if hits[k] > 0]
    if len(fit_ks) >= 2:
        x = np.asarray(fit_ks, float) ** (1.0 / 6.0)
        y = np.log([hits[k] / n_samples for k in fit_ks])
        slope, intercept = np.polyfit(x, y, 1)
    else:
        slope, intercept = math.nan, math.nan
    return DecayDiagnostic(rows=rows, fit_slope=float(slope),
                           fit_intercept=float(intercept), c=c, K=K,
                           n_samples=n_samples, seed=seed)


def _validate_estimator_args(c: float, K: int, n_samples: int) -> None:
    if not (c > 1.0) or not math.isfinite(c):
        raise ValueError(f"estimators require finite c > 1, got {c}")
    if K < 20 or K % 2:
        raise ValueError(f"K must be even and >= 20, got {K}")
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
