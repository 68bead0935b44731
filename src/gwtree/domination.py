"""Offspring-law domination checks and explicit tree couplings.

Notation: Q_r is Poisson(r), Q*_r is Poisson(r) conditioned positive.
For mu > lam the law Q*_lam + Q_beta is dominated by Q*_mu exactly when
beta <= alpha(lam, mu), with equality of the two pmfs at k = 1 when
beta = alpha.  verify_tail_domination checks the full family of tail
inequalities in extended precision; the samplers realize the domination
as a monotone (quantile) coupling, which the underlying result guarantees
to exist but does not construct.

sample_coupled_trees builds a pair (T, T') of survival-conditioned trees
at parameters lam < mu together with a root-preserving node map from T
into T', by recursing the following step over matched type-I vertices
(u in T, v in T'):

  * u takes the two-type step of the lam tree: A ~ Q*_{lam theta_lam}
    type-I children and Poisson(lam q_lam) type-F children, the bush below
    each grown by trees._bush at lam, the grower of sample_pgw_star;
  * each bush is marked: one of size k is shared with probability
    m_k(mu)/m_k(lam) = e^{k d}, d = (log mu - mu) - (log lam - lam), where
    m_k(nu) = nu Borel_nu(k) is the mean number of size-k bushes below a
    type-I vertex.  A shared bush is copied node for node below v; the E
    others are lam-only extra bushes;
  * S = A + E + V with V ~ Poisson(alpha* - g), where alpha* =
    alpha(lam theta_lam, mu theta_mu) and g = lam q_lam - mu q_mu (their
    difference is analytic.g_gap_via_alpha, >= 0).  v gets H type-I
    children, H the quantile of the Q*_{mu theta_mu} table (clamped below
    the table of S ~ Q*_{lam theta_lam} + Q_{alpha*}) at a uniform drawn
    inside (F_S(S - 1), F_S(S)], so that (S, H) is the monotone coupling of
    the two laws and H >= S >= A + E;
  * the first A type-I children of v are matched with those of u, the next
    E are the images of the extra bushes' roots, the rest are mu-only.

By the marking theorem of Poisson processes (Kingman, Poisson Processes,
1993; the sizes are Borel by Dwass 1969) the shared bushes are exactly the
bush process of a type-I vertex at mu, and they are independent of the
extra ones, whose count E is Poisson(g).  So E + V is Poisson(alpha*), H
is independent of the shared bushes, and both marginals are exact: T is
the lam tree itself, T' has the mu step's laws at every matched vertex.
The node map covers the matched type-I skeleton, the shared bushes
(isomorphically), and the roots of the extra bushes; interiors of extra
bushes have no structural counterpart on the mu side (their domination
witness is the infinite subtree size of the image).

The spare (mu-only) type-I children of the hi side are left open, like the
frontier stubs past the horizon: their subtrees do not depend on the
coupling, nothing in the node map lies below them, and both audits read
only their roots (type I, so N = inf).  A killed walk with grow=mu draws
them on first visit with the same marginal law; CoupledPair.complete()
grows them to the horizon instead with trees._grow_star, the step of
sample_pgw_star, each stub x keyed by child_key(derive_seed(seed,
"couple-hi", lam, mu), x).  Both trees are built with trees' list builders.

A pair takes its draws in traversal order from one buffer of uniforms
refilled from substream (seed, "couple", lam, mu): at each matched pair
the counts A and of bushes, then each bush's nodes and its mark in turn,
then V and the uniform that places H.  lo.bush_resamples counts the bushes
resampled for passing trees.BUSH_NODE_CAP.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, zip_longest

import numpy as np
from mpmath import mp, mpf

from .analytic import alpha, extinction_prob
from .laws import (cdf_table, log_conv, poisson_cdf, positive_poisson_cdf,
                   quantile)
from .rng import child_key, derive_seed, substream
from .trees import (TYPE_F, TYPE_I, RootedTree, _add, _arena, _bush,
                    _grow_star, _sizes, _star_tables)

__all__ = [
    "TailReport",
    "OffspringCouple",
    "CoupledPair",
    "conv_pmf",
    "positive_poisson_pmf",
    "verify_tail_domination",
    "sample_dominated_offspring",
    "sample_dominated_offspring_many",
    "sample_coupled_trees",
    "check_le1",
]


@dataclass(frozen=True)
class TailReport:
    """Result of an exact tail-domination check between Q*_mu and
    Q*_lam + Q_beta.

    margin(k) compares survival functions, P(hi > k) - P(lo > k) for
    k = 1..kmax; min_margin is the smallest margin and violated_at the
    first k with a genuinely negative margin (None when domination holds).
    """

    lam: float
    mu: float
    beta: float
    kmax: int
    min_margin: float
    violated_at: int | None

    def to_dict(self) -> dict:
        return {"lambda": self.lam, "mu": self.mu, "beta": self.beta,
                "kmax": self.kmax, "min_margin": self.min_margin,
                "violated_at": self.violated_at}


@dataclass(frozen=True)
class OffspringCouple:
    """Root-level offspring decomposition of a coupled pair.

    n_fin_lo / n_fin_hi map bush size -> count; the hi counts are the
    shared component, the lo counts additionally include the extra bushes.
    """

    n_fin_lo: dict
    n_fin_hi: dict
    n_inf_lo: int
    n_inf_hi: int

    def extra_total(self) -> int:
        return sum(self.n_fin_lo.values()) - sum(self.n_fin_hi.values())


def conv_pmf(lam: float, beta: float, k: int) -> float:
    """pmf of Q*_lam + Q_beta:
    a_k = e^{-beta}/(e^lam - 1) * ((lam+beta)^k - beta^k)/k!.

    beta = 0 reduces to the positive-Poisson pmf lam^k/((e^lam - 1) k!).
    """
    if k < 1:
        raise ValueError(f"conv_pmf requires k >= 1 (the sum is always >= 1), got {k}")
    if not (lam > 0.0):
        raise ValueError(f"conv_pmf requires lam > 0, got {lam}")
    if beta < 0.0:
        raise ValueError(f"conv_pmf requires beta >= 0, got {beta}")
    return math.exp(log_conv(lam, beta, k))


def positive_poisson_pmf(rate: float, k: int) -> float:
    """pmf of Q*_rate: rate^k / ((e^rate - 1) k!)."""
    return conv_pmf(rate, 0.0, k)


def verify_tail_domination(lam: float, mu: float, beta: float | None = None,
                           kmax: int = 200, dps: int = 400) -> TailReport:
    """Exact check of the tail inequalities P(hi > k) >= P(lo > k), k <= kmax,
    between hi ~ Q*_mu and lo ~ Q*_lam + Q_beta, in dps-digit arithmetic.

    beta=None uses alpha(lam, mu) evaluated at working precision, the
    boundary case where domination holds with equality of the pmfs at
    k = 1.  Callers passing a float beta get the verdict for exactly that
    beta (a float rounded a hair above alpha genuinely violates).

    The margins are computed as finite partial-sum differences
    sum_{j<=k}(a_j - b_j), so no infinite-tail truncation enters; dps=400
    resolves the genuinely tiny positive margins (~1e-340 at k = 200 for
    small mu) well above the rounding floor.
    """
    if not (mu > lam > 0.0):
        raise ValueError(f"requires mu > lam > 0, got lam={lam}, mu={mu}")
    if kmax < 50:
        raise ValueError(f"kmax must be >= 50, got {kmax}")
    with mp.workdps(dps):
        lam_, mu_ = mpf(lam), mpf(mu)
        if beta is None:
            beta_ = (mp.log((mp.e ** mu_ - 1) / mu_)
                     - mp.log((mp.e ** lam_ - 1) / lam_))
        else:
            if beta < 0.0:
                raise ValueError(f"beta must be >= 0, got {beta}")
            beta_ = mpf(beta)
        norm_a = mp.e ** (-beta_) / (mp.e ** lam_ - 1)
        norm_b = 1 / (mp.e ** mu_ - 1)
        cum_a = cum_b = mpf(0)
        fact = pow_s = pow_b = pow_m = mpf(1)  # k!, (lam+beta)^k, beta^k, mu^k
        sum_ = lam_ + beta_
        min_margin = mp.inf
        violated_at = None
        thresh = mpf(10) ** (-(dps - 20))
        for k in range(1, kmax + 1):
            fact *= k
            pow_s *= sum_
            pow_b *= beta_
            pow_m *= mu_
            a_k = norm_a * (pow_s - pow_b) / fact
            b_k = norm_b * pow_m / fact
            cum_a += a_k
            cum_b += b_k
            margin = cum_a - cum_b  # = P(hi > k) - P(lo > k)
            if margin < min_margin:
                min_margin = margin
            if violated_at is None and margin < -thresh:
                violated_at = k
        return TailReport(lam=float(lam), mu=float(mu), beta=float(beta_),
                          kmax=kmax, min_margin=float(min_margin),
                          violated_at=violated_at)


# ---------------------------------------------------------------------------
# quantile-coupled samplers


@lru_cache(maxsize=64)
def _dominated_cdf_pair(rate_lo: float, beta: float, rate_hi: float):
    """cdf tables for lo ~ Q*_rate_lo + Q_beta and hi ~ Q*_rate_hi, with the
    hi table clamped below the lo table so the shared-uniform quantile
    coupling satisfies hi >= lo even at float rounding."""
    cdf_lo = cdf_table(log_conv, rate_lo, beta)
    cdf_hi = positive_poisson_cdf(rate_hi)
    return cdf_lo, tuple(min(h, lo) for h, lo in
                         zip_longest(cdf_hi, cdf_lo, fillvalue=1.0))


def sample_dominated_offspring(lam: float, mu: float, seed: int) -> tuple[int, int]:
    """One draw of the monotone coupling (lo, hi) with lo ~ Q*_lam + Q_alpha,
    hi ~ Q*_mu, and hi >= lo surely."""
    lo, hi = sample_dominated_offspring_many(lam, mu, 1, seed)
    return int(lo[0]), int(hi[0])


def sample_dominated_offspring_many(lam: float, mu: float, n: int,
                                    seed: int) -> tuple[np.ndarray, np.ndarray]:
    """n draws of sample_dominated_offspring's coupling, one uniform each;
    the first is the single draw of the same seed."""
    cdf_lo, cdf_hi = _dominated_cdf_pair(lam, alpha(lam, mu), mu)
    u = substream(seed, "domoffspring", lam, mu).random(n)
    return quantile(cdf_lo, u), quantile(cdf_hi, u)


# ---------------------------------------------------------------------------
# coupled survival-conditioned trees


@dataclass(eq=False)
class CoupledPair:
    """Two trees plus the root-preserving node map lo -> hi.

    The map covers the coupled type-I skeleton, all shared finite bushes,
    and the roots of lo-only extra bushes (whose images are spare type-I
    children on the hi side).  Interiors of extra bushes are unmapped;
    their domination witness is the infinite subtree size of the image.

    As sampled, the spare type-I children on the hi side are open stubs at
    any depth; complete() grows them to the horizon.
    """

    lo: RootedTree
    hi: RootedTree
    node_map: dict
    root_couple: OffspringCouple
    lam: float
    mu: float
    depth: int
    seed: int

    def complete(self) -> CoupledPair:
        """Grow every open type-I node of hi at depth <= self.depth to the
        horizon with the marginal two-type law at mu, path-keyed (see the
        module docstring); lo, node_map and root_couple do not change, nor
        does a complete pair.  Returns the pair, whose hi.bush_resamples
        counts the bushes resampled at trees.BUSH_NODE_CAP."""
        hi = self.hi
        stubs = np.flatnonzero(hi.open_ & (hi.depth <= self.depth)).tolist()
        if stubs:
            t = (hi.parent.tolist(), hi.depth.tolist(), hi.ntype.tolist())
            key = derive_seed(self.seed, "couple-hi", self.lam, self.mu)
            resamples = sum(_grow_star(t, x, self.depth, child_key(key, x),
                                       self.mu) for x in stubs)
            self.hi = _arena(t, resamples)
        return self

    def validate_embedding(self) -> None:
        """Injectivity, root preservation, parent compatibility, and
        subtree-size dominance of the node map; raises on violation."""
        lo, hi, m = self.lo, self.hi, self.node_map
        if m.get(lo.root) != hi.root:
            raise ValueError("node map does not send root to root")
        u, v = (np.fromiter(x, np.int64, len(m)) for x in (m, m.values()))
        if np.bincount(v).max() > 1:
            raise ValueError("node map is not injective")
        image = np.full(len(lo) + 1, -2)  # -2: unmapped
        image[u], image[-1] = v, -1  # index -1: the parent of the root
        bad_parent = image[lo.parent[u]] != hi.parent[v]
        bad = bad_parent | (_sizes(hi)[v] < _sizes(lo)[u])
        if bad.any():
            i = bad.argmax()
            what = ("parent of image differs from image of parent"
                    if bad_parent[i] else "subtree size dominance fails")
            raise ValueError(f"{what} at {u[i]}")

    def audit_le1(self) -> bool:
        """check_le1 at every mapped pair whose two sides are structurally
        coupled (type-I skeleton pairs and shared-bush pairs).  Extra-bush
        roots map to type-I vertices and are witnessed by N = inf at the
        parent level, not by a recursive child-list comparison."""
        m = self.node_map
        u, v = (np.fromiter(x, np.int64, len(m)) for x in (m, m.values()))
        # skip extra-bush roots (onto spare type-I nodes) and frontier stubs
        keep = (self.lo.ntype[u] == self.hi.ntype[v]) & ~self.lo.open_[u]
        return _le1(self.lo, self.hi, u[keep], v[keep])


def _le1(lo: RootedTree, hi: RootedTree, u: np.ndarray, v: np.ndarray) -> bool:
    """For every i, an injection from the children of u[i] in lo to those of
    v[i] in hi with N(image) >= N(child); greedy matching of the sizes in
    descending order is exact here (standard exchange argument)."""
    sides = []
    for t, x in ((lo, u), (hi, v)):
        group = np.full(len(t) + 1, -1)  # index -1: the parent of the root
        group[x] = np.arange(len(x))
        g = group[t.parent]
        g, size = g[g >= 0], _sizes(t)[g >= 0]
        sides.append((size[np.lexsort((-size, g))],
                      np.bincount(g, minlength=len(x))))
    (lo_size, lo_count), (hi_size, hi_count) = sides
    # the j-th largest child of u[i] meets the j-th largest of v[i]
    spare = hi_count - lo_count
    shift = np.cumsum(spare) - spare  # where v[i]'s run starts past u[i]'s
    at = np.arange(len(lo_size)) + np.repeat(shift, lo_count)
    return bool((lo_count <= hi_count).all()
                and (hi_size[at] >= lo_size).all())


def check_le1(lo: RootedTree, hi: RootedTree) -> bool:
    """True iff an injection from lo-root children to hi-root children exists
    with N(image) >= N(child).  Both trees need subtree-size annotations
    (filled on demand)."""
    return _le1(lo, hi, np.array([lo.root]), np.array([hi.root]))


class _CoupledSampler:
    """Precomputed tables for one (lam, mu) pair; see the module docstring
    for the per-vertex coupling step."""

    def __init__(self, lam: float, mu: float):
        if not (mu > lam > 1.0):
            raise ValueError(f"requires mu > lam > 1, got lam={lam}, mu={mu}")
        self.lam, self.mu = lam, mu
        pl, pm = extinction_prob(lam), extinction_prob(mu)
        self.qcdf, self.fcdf = _star_tables(lam)
        alpha_star = alpha(pl.ctheta, pm.ctheta)
        cdf_s, self.cdf_h = _dominated_cdf_pair(pl.ctheta, alpha_star,
                                                pm.ctheta)
        self.cdf_s = (0.0, *cdf_s)  # F_S(k) at index k >= 0, up to its end
        self.vcdf = poisson_cdf(alpha_star - (pl.cq - pm.cq))
        self.d = (math.log(mu) - mu) - (math.log(lam) - lam)

    def sample(self, depth: int, seed: int) -> CoupledPair:
        rng = substream(seed, "couple", self.lam, self.mu)
        # the stream's uniforms in order, 256 at a time
        draw = chain.from_iterable(
            iter(lambda: rng.random(256).tolist(), None)).__next__
        # arena lists (parent, depth, ntype), each from the root
        lo, hi = ([-1], [0], [TYPE_I]), ([-1], [0], [TYPE_I])
        node_map = {0: 0}
        root_couple = None
        resamples = 0
        stack = [(0, 0)]
        while stack:
            u, v = stack.pop()
            a = quantile(self.qcdf, draw())
            n_f = quantile(self.fcdf, draw()) - 1
            cu = _add(lo, u, a)
            _add(lo, u, n_f, TYPE_F)
            shared, extra = [], []  # (root, interior from, interior to)
            for b in range(cu + a, cu + a + n_f):
                w = len(lo[0])
                resamples += _bush(lo, b, self.fcdf, draw)
                e = len(lo[0])
                mark = draw() < math.exp((1 + e - w) * self.d)
                (shared if mark else extra).append((b, w, e))
            s = a + len(extra) + quantile(self.vcdf, draw()) - 1
            h = self._h(s, draw())
            # a matched children, the images of the extra roots, then the
            # spare ones, left open
            cv = _add(hi, v, h)
            pairs = list(zip(range(cu, cu + a), range(cv, cv + a)))
            node_map.update(pairs)
            if lo[1][u] < depth:  # else the children stay open stubs
                stack.extend(pairs)
            node_map.update((b, cv + a + j) for j, (b, _, _) in
                            enumerate(extra))
            # the shared bushes, copied node for node
            bv = _add(hi, v, len(shared), TYPE_F)
            for b, w, e in shared:
                node_map[b] = bv
                shift = len(hi[0]) - w
                node_map.update((x, x + shift) for x in range(w, e))
                hi[0].extend([bv if p == b else p + shift
                              for p in lo[0][w:e]])
                hi[1].extend(lo[1][w:e])
                hi[2].extend(lo[2][w:e])
                bv += 1
            if u == 0:
                root_couple = OffspringCouple(
                    n_fin_lo=dict(Counter(1 + e - w for _, w, e in
                                          shared + extra)),
                    n_fin_hi=dict(Counter(1 + e - w for _, w, e in shared)),
                    n_inf_lo=a, n_inf_hi=h)
        return CoupledPair(_arena(lo, resamples), _arena(hi), node_map,
                           root_couple, self.lam, self.mu, depth, seed)

    def _h(self, s: int, unif: float) -> int:
        """The hi type-I count coupled to S = s: the hi table's quantile at
        F_S(s - 1) + (1 - unif) (F_S(s) - F_S(s - 1)), at least s even where
        rounding closes that interval or s is past the end of the table."""
        end = len(self.cdf_s) - 1
        below, at = self.cdf_s[min(s - 1, end)], self.cdf_s[min(s, end)]
        return max(s, quantile(self.cdf_h, below + (1.0 - unif) * (at - below)))


@lru_cache(maxsize=16)
def _coupled_sampler(lam: float, mu: float) -> _CoupledSampler:
    return _CoupledSampler(lam, mu)


def sample_coupled_trees(lam: float, mu: float, depth: int,
                         seed: int) -> CoupledPair:
    """One coupled pair (T, T') of survival-conditioned trees, type-I
    skeletons truncated at the given depth, with T's marginal at parameter
    lam, T' at mu, and the embedding witnessing domination (see module
    docstring).  T' leaves its mu-only subtrees open; pair.complete() grows
    them to the horizon."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    return _coupled_sampler(lam, mu).sample(depth, seed)
