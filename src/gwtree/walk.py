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
the annealed quantity directly: each Monte Carlo sample walks a fresh tree
along one simulated trajectory and records 1/k for each return time
k <= K.  The per-sample value has expectation sum_{k<=K} E[p_k]/k, the
K-truncated return integral, so the estimator is unbiased for the same
estimand with variance read off the sample.  The trees are path keyed, as
sample_pgw_star's are: a node's child counts are a function of its key,
drawn afresh each time the walk enters it, so no tree is ever stored.  A
walk holds only the keys and counts of the nodes on its path from the root,
one stack level per depth, whatever c is.  Walks go in chunks of 8192, each
drawing its step choices from its own substream; an executor walks up to
`workers` runs of consecutive chunks at once, so the output does not depend
on the pool.  Both walk engines invert the laws module's tables for all
offspring counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from scipy.sparse import csr_matrix

from .analytic import expected_log_degree, extinction_prob
from .laws import quantile
from .reports import EstimateReport
from .rng import child_keys, derive_seed, node_uniforms, substream
from .trees import TYPE_F, TYPE_I, RootedTree, _star_tables

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
    the walk grows its own lists of the tree's parents and types past the
    frontier with the two-type law at c (one extension per walk, i.e.
    annealed semantics), or the tree must be deep enough that the walk dies
    first with probability >= 1 - 1e-6 (depth >=
    required_depth_for_killed_walk(s)).  A step draws survival, then the
    counts of a node met the first time, then the move.
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
    parent, types = t.parent.tolist(), t.ntype.tolist()
    kids: dict = {}  # the children of each node the walk has met
    cur, visits = t.root, 1
    while rng.random() < s:
        ch = kids.get(cur)
        if ch is None:
            if cur < len(t) and not t.open_[cur]:
                # a walk meets few arena nodes: scanning parent beats a CSR
                ch = np.flatnonzero(t.parent == cur).tolist()
            elif grow is None:
                raise RuntimeError("walk reached the frontier of a tree "
                                   "sampled without lazy growth")
            else:
                n_i = (quantile(qcdf, rng.random()) if types[cur] == TYPE_I
                       else 0)
                n = n_i + quantile(fcdf, rng.random()) - 1
                ch = range(len(parent), len(parent) + n)
                parent += [cur] * n
                types += [TYPE_I] * n_i + [TYPE_F] * (n - n_i)
            kids[cur] = ch
        step = int(rng.integers(len(ch) + (cur != t.root)))
        cur = ch[step] if step < len(ch) else parent[cur]
        if cur == t.root:
            visits += 1
    return visits


# ---------------------------------------------------------------------------
# annealed walk engine


def _node_counts(keys: np.ndarray, is_i: np.ndarray, qcdf, fcdf):
    """The type-I and total child counts of the nodes with the given path
    keys and types, drawn as _grow_star draws them: a type-I node's from its
    draws 0 and 1, a type-F node's (type-F children only) from its draw 0."""
    u = node_uniforms(keys, 0)
    n_i = quantile(qcdf, u) * is_i
    return n_i, n_i + quantile(fcdf, np.where(is_i, node_uniforms(keys, 1),
                                              u)) - 1


def _walk_chunks(c: float, K: int, seed: int, starts, n_samples: int):
    """Walk the run of consecutive chunks that begin at `starts`; returns the
    run's (per_sample, hits) as _annealed_return_walks does.

    Walk j (counted over all chunks) walks the path-keyed tree with root key
    child_key(derive_seed(seed, "annealedtree", c), j), whose root is type
    I.  A node's counts are a function of its key, so a walk keeps only the
    path from its root to where it stands: level d of its stack holds the
    key, type-I count and child count of its node at depth d.  A step up
    pops a level; a step down to child i hashes child_key(key, i), draws
    that child's counts and pushes them (child i is type I if i is below the
    type-I count).  The step choices alone come from the chunk's substream.
    """
    qcdf, fcdf = _star_tables(c)
    tree_key = derive_seed(seed, "annealedtree", c)
    sizes = [min(_WALK_CHUNK, n_samples - s) for s in starts]
    per_sample = np.zeros(sum(sizes))
    hits = np.zeros(K + 1, dtype=np.int64)
    # the stacks of a chunk's m walks: level d of walk w at slot d * m + w
    keys = np.empty((K + 1) * max(sizes), np.uint64)
    n_i = np.empty(len(keys), np.int64)
    n_child = np.empty(len(keys), np.int64)
    for start, m in zip(starts, sizes):
        # one substream per chunk: walks are then identical across runs with
        # different K, so K-truncated estimates are monotone per seed
        rng = substream(seed, "annealedwalk", c, start)
        keys[:m] = child_keys(tree_key, np.arange(start, start + m))
        n_i[:m], n_child[:m] = _node_counts(keys[:m], np.ones(m, bool), qcdf,
                                            fcdf)
        slot = np.arange(m)  # each walk's slot: its depth times m, plus w
        acc = per_sample[start - starts[0]:start - starts[0] + m]

        for k in range(1, K + 1):
            kids = n_child[slot]
            deg = kids + (slot >= m)  # a non-root node has its parent too
            # r < deg: a double u < 1 times an integer rounds below it
            r = (rng.random(m) * deg).astype(np.int64)
            down = np.flatnonzero(r < kids)
            top, i = slot[down], r[down]
            slot -= m  # every walk pops a level, and those stepping down
            slot[down] += 2 * m  # to their child i push one instead
            new = top + m
            keys[new] = child = child_keys(keys[top], i)
            n_i[new], n_child[new] = _node_counts(child, i < n_i[top], qcdf,
                                                  fcdf)
            at_root = slot < m
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
    walks, _ = _annealed_return_walks(c, K, n_samples, seed, executor, workers)
    return EstimateReport(
        value=float(walks.mean()),
        stderr=float(walks.std(ddof=1) / math.sqrt(n_samples)),
        n_samples=n_samples,
        truncation={"K": K, "depth": K // 2 + 1},
        seed=seed)


def estimate_f(c: float, K: int, n_samples: int, seed: int,
               executor=None, workers=1) -> EstimateReport:
    """Spanning-tree entropy estimate: analytic E[log deg] minus the Monte
    Carlo return integral.  All sampling variance sits in the walk part;
    truncating at K can only push the estimate up (dropped terms are
    nonnegative)."""
    ret = estimate_return_integral(c, K, n_samples, seed, executor, workers)
    eld = expected_log_degree(extinction_prob(c))
    return replace(ret, value=eld - ret.value)


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
