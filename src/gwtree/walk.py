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
trace, which keeps a 1e5-sample run at K = 60 in seconds.  Type-I offspring
counts invert the laws module's positive-Poisson table, fetched once per call.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .analytic import expected_log_degree, extinction_prob
from .laws import positive_poisson_cdf, quantile
from .reports import EstimateReport
from .rng import substream
from .trees import TYPE_I, RootedTree, _star_tables

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
    the tree is extended lazily past its frontier with the two-type law at
    parameter c (one extension per walk, i.e. annealed semantics), or the
    tree must be deep enough that the walk dies first with probability
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
        qcdf, _, rate_f = _star_tables(grow)

    rng = substream(seed, "killedwalk")
    # arena nodes are int keys, lazily grown nodes are tuples (base, i, j, ...);
    # grown[key] = (children keys, number of type-I children)
    grown: dict = {}

    def neighbors(key):
        if isinstance(key, int):
            par = int(t.parent[key]) if key != t.root else None
        else:
            par = key[:-1] if len(key) > 2 else key[0]
        if key not in grown:
            if isinstance(key, int) and not t.open_[key]:
                # a walk meets few arena nodes: scanning parent beats a CSR
                grown[key] = (np.flatnonzero(t.parent == key).tolist(), 0)
            elif grow is None:
                raise RuntimeError("walk reached the frontier of a tree "
                                   "sampled without lazy growth")
            else:
                is_i = (t.ntype[key] == TYPE_I if isinstance(key, int)
                        else key[-1] < grown[par][1])
                n_i = quantile(qcdf, rng.random()) if is_i else 0
                n_f = int(rng.poisson(rate_f))
                base = key if isinstance(key, tuple) else (key,)
                grown[key] = ([base + (i,) for i in range(n_i + n_f)], n_i)
        return grown[key][0], par

    cur = t.root
    visits = 1
    while rng.random() < s:
        kids, par = neighbors(cur)
        deg = len(kids) + (par is not None)
        step = int(rng.integers(deg))
        cur = kids[step] if step < len(kids) else par
        if cur == t.root:
            visits += 1
    return visits


# ---------------------------------------------------------------------------
# annealed walk engine


def _annealed_return_walks(c: float, K: int, n_samples: int, seed: int):
    """Simulate one K-step walk per lazily grown two-type tree.

    Returns (per_sample, hits): per_sample[i] = sum of 1/k over the return
    times k <= K of walk i; hits[k] = number of walks at the root at step k.
    """
    params = extinction_prob(c)
    rate_i, rate_f = params.ctheta, params.cq
    qcdf = np.asarray(positive_poisson_cdf(rate_i))
    per_sample = np.zeros(n_samples)
    hits = np.zeros(K + 1, dtype=np.int64)

    for start in range(0, n_samples, _WALK_CHUNK):
        # one substream per chunk: walks are then identical across runs with
        # different K, so K-truncated estimates are monotone per seed
        rng = substream(seed, "annealedwalk", c, start)
        m = min(_WALK_CHUNK, n_samples - start)
        cap = 8 * m + 64
        parent = np.full(cap, -1, np.int64)
        child_start = np.full(cap, -1, np.int64)
        n_child = np.zeros(cap, np.int64)
        is_f = np.zeros(cap, bool)
        size = m  # nodes 0..m-1 are the roots (type I) of the m walk trees
        roots = np.arange(m)
        cur = roots.copy()
        acc = np.zeros(m)

        for k in range(1, K + 1):
            unexpanded = child_start[cur] < 0
            if unexpanded.any():
                nodes = cur[unexpanded]
                f_here = is_f[nodes]
                n_i = np.zeros(len(nodes), np.int64)
                if (~f_here).any():
                    u = rng.random(int((~f_here).sum()))
                    n_i[~f_here] = quantile(qcdf, u)
                n_f = rng.poisson(rate_f, len(nodes))
                tot = n_i + n_f
                new_total = int(tot.sum())
                while size + new_total > cap:
                    cap *= 2
                    parent = np.resize(parent, cap)
                    child_start = np.resize(child_start, cap)
                    n_child = np.resize(n_child, cap)
                    is_f = np.resize(is_f, cap)
                offs = size + np.concatenate(([0], np.cumsum(tot[:-1])))
                child_start[nodes] = offs
                n_child[nodes] = tot
                block = np.arange(size, size + new_total)
                parent[block] = np.repeat(nodes, tot)
                within = block - np.repeat(offs, tot)
                is_f[block] = within >= np.repeat(n_i, tot)
                child_start[block] = -1
                n_child[block] = 0
                size += new_total

            deg = n_child[cur] + (cur != roots)
            r = (rng.random(m) * deg).astype(np.int64)
            np.minimum(r, deg - 1, out=r)
            down = r < n_child[cur]
            cur = np.where(down, child_start[cur] + r, parent[cur])
            at_root = cur == roots
            if k % 2 == 0:
                acc[at_root] += 1.0 / k
            hits[k] += int(at_root.sum())

        per_sample[start:start + m] = acc
    return per_sample, hits


def estimate_return_integral(c: float, K: int, n_samples: int,
                             seed: int) -> EstimateReport:
    """Monte Carlo estimate of the K-truncated annealed return integral
    sum_{k<=K} E[p_k]/k under the survival-conditioned tree at parameter c."""
    _validate_estimator_args(c, K, n_samples)
    t0 = time.perf_counter()
    per_sample, _ = _annealed_return_walks(c, K, n_samples, seed)
    return EstimateReport(
        value=float(per_sample.mean()),
        stderr=float(per_sample.std(ddof=1) / math.sqrt(n_samples)),
        n_samples=n_samples,
        truncation={"K": K, "depth": K // 2 + 1},
        seed=seed,
        wall_time=time.perf_counter() - t0)


def estimate_f(c: float, K: int, n_samples: int, seed: int) -> EstimateReport:
    """Spanning-tree entropy estimate: analytic E[log deg] minus the Monte
    Carlo return integral.  All sampling variance sits in the walk part;
    truncating at K can only push the estimate up (dropped terms are
    nonnegative)."""
    _validate_estimator_args(c, K, n_samples)
    t0 = time.perf_counter()
    eld = expected_log_degree(extinction_prob(c))
    ret = estimate_return_integral(c, K, n_samples, seed)
    return EstimateReport(
        value=eld - ret.value,
        stderr=ret.stderr,
        n_samples=n_samples,
        truncation=ret.truncation,
        seed=seed,
        wall_time=time.perf_counter() - t0)


def pbar_decay_diagnostic(c: float, K: int, n_samples: int,
                          seed: int) -> DecayDiagnostic:
    """Per-k annealed return-probability table with the decay fit."""
    _validate_estimator_args(c, K, n_samples)
    _, hits = _annealed_return_walks(c, K, n_samples, seed)
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
