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
into T', by recursing the following step over matched type-I vertices:

  * the count S of type-I children on the lam side plus an independent
    Poisson(alpha*) overhead (alpha* = alpha(lam*theta_lam, mu*theta_mu))
    is drawn jointly with the mu-side count H through one uniform and the
    cdf tables of the two laws (hi clamped below lo), so H >= S surely;
  * S is split conditionally into the actual lam-side type-I count and
    the overhead W; thinning W with probability g/alpha*
    (g = lam*q_lam - mu*q_mu) yields the number Z' of lam-only finite
    bushes, so Z' <= W and hence H >= (type-I count) + Z';
  * shared finite bushes (count Poisson(mu*q_mu), sizes Borel(mu*q_mu))
    are built once and placed in both trees; the Z' extra bushes (sizes
    proportional to the difference of expected per-size counts) go only
    into the lam-side tree, their roots mapped to spare mu-side type-I
    children.

Superposing the shared and extra bush point processes restores the exact
per-size Poisson counts of the lam-side tree, so both marginals are exact.
The node map covers the matched type-I skeleton, the shared bushes
(isomorphically), and the roots of the extra bushes; interiors of extra
bushes have no structural counterpart on the mu side (their domination
witness is the infinite subtree size of the image).
Its tables come from laws.cdf_table; below lam of about 1.02 the bush-size
tables cannot close and _CoupledSampler raises ArithmeticError.

A pair takes its draws in traversal order from one buffer of uniforms
refilled from substream (seed, "couple", lam, mu): counts and sizes invert
their tables, the thinning is W Bernoulli trials, and a size-k bush shape is
k - 2 sequence draws int(u k) and a root int(u k) (none for k <= 2).
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
from .laws import (cdf_table, log_borel, log_bush_excess, log_conv,
                   log_split, poisson_cdf, positive_poisson_cdf, quantile)
from .rng import substream
from .trees import TYPE_F, TYPE_I, RootedTree, _rooted_shape, _sizes

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
        fact = mpf(1)
        min_margin = mp.inf
        violated_at = None
        thresh = mpf(10) ** (-(dps - 20))
        for k in range(1, kmax + 1):
            fact *= k
            a_k = norm_a * ((lam_ + beta_) ** k - beta_ ** k) / fact
            b_k = norm_b * mu_ ** k / fact
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
    return quantile(np.asarray(cdf_lo), u), quantile(np.asarray(cdf_hi), u)


# ---------------------------------------------------------------------------
# coupled survival-conditioned trees


@dataclass(eq=False)
class CoupledPair:
    """Two trees plus the root-preserving node map lo -> hi.

    The map covers the coupled type-I skeleton, all shared finite bushes,
    and the roots of lo-only extra bushes (whose images are spare type-I
    children on the hi side).  Interiors of extra bushes are unmapped;
    their domination witness is the infinite subtree size of the image.
    """

    lo: RootedTree
    hi: RootedTree
    node_map: dict
    root_couple: OffspringCouple
    lam: float
    mu: float
    depth: int
    seed: int

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


_SMALL_SHAPES = {1: ([-1], [0]), 2: ([-1, 0], [0, 1])}


# keyed by (seq as a tuple, k, root); its shapes are shared, and only read
_cached_shape = lru_cache(maxsize=4096)(_rooted_shape)


def _bush_shape(k: int, draw) -> tuple[list, ...]:
    """A uniform rooted tree on k nodes as _rooted_shape lists, from k - 2
    sequence entries and then the root label, each int(u * k)."""
    if k in _SMALL_SHAPES:
        return _SMALL_SHAPES[k]
    seq = tuple([int(draw() * k) for _ in range(k - 2)])
    return _cached_shape(seq, k, int(draw() * k))


def _add(t: tuple, p: int, n: int) -> int:
    """Give node p of the arena lists t = (parent, depth, ntype) n new type-I
    children; returns the id of the first."""
    parent, depth, ntype = t
    w = len(parent)
    parent.extend([p] * n)
    depth.extend([depth[p] + 1] * n)
    ntype.extend([TYPE_I] * n)
    return w


def _graft(t: tuple, p: int, shape) -> int:
    """Give node p of the arena lists t a type-F bush of the given shape,
    its root first and its interior right after; returns the root's id."""
    parent, depth, ntype = t
    bush_parent, bush_depth = shape
    w, d = len(parent), depth[p] + 1
    parent.extend(map(w.__add__, bush_parent))
    parent[w] = p
    depth.extend(map(d.__add__, bush_depth))
    ntype.extend([TYPE_F] * len(bush_depth))
    return w


def _arena(t: tuple, depth: int) -> RootedTree:
    """The RootedTree of the arena lists t, type-I nodes past depth open."""
    tree = RootedTree(*t, np.zeros(len(t[0]), bool))
    tree.open_[(tree.ntype == TYPE_I) & (tree.depth > depth)] = True
    return tree


class _CoupledSampler:
    """Precomputed tables for one (lam, mu) pair; see the module docstring
    for the per-vertex coupling step."""

    def __init__(self, lam: float, mu: float):
        if not (mu > lam > 1.0):
            raise ValueError(f"requires mu > lam > 1, got lam={lam}, mu={mu}")
        self.lam, self.mu = lam, mu
        pl, pm = extinction_prob(lam), extinction_prob(mu)
        self.rate_i_lo, self.rate_i_hi = pl.ctheta, pm.ctheta
        self.rate_f_hi = pm.cq
        self.alpha_star = alpha(self.rate_i_lo, self.rate_i_hi)
        self.g = pl.cq - pm.cq  # expected extra finite mass on the lam side
        self.thin_p = self.g / self.alpha_star  # in (0, 1)
        self.cdf_loplus, self.cdf_ihi = _dominated_cdf_pair(
            self.rate_i_lo, self.alpha_star, self.rate_i_hi)
        self.shared_count_cdf = poisson_cdf(self.rate_f_hi)
        self.shared_size_cdf = cdf_table(log_borel, self.rate_f_hi)
        # sizes of lam-only bushes: pmf_k = (m_k(lam) - m_k(mu)) / g
        self.extra_size_cdf = cdf_table(log_bush_excess, lam, mu)
        self.qstar_hi_cdf = positive_poisson_cdf(self.rate_i_hi)

    def sample(self, depth: int, seed: int) -> CoupledPair:
        rng = substream(seed, "couple", self.lam, self.mu)
        draw = chain.from_iterable(  # its uniforms in order, 256 at a time
            iter(lambda: rng.random(256).tolist(), None)).__next__
        # arena lists (parent, depth, ntype), each from the root
        lo, hi = ([-1], [0], [TYPE_I]), ([-1], [0], [TYPE_I])
        node_map = {0: 0}
        root_couple = None
        stack = [(0, 0)]
        while stack:
            u, v = stack.pop()
            unif = draw()
            s_plus = quantile(self.cdf_loplus, unif)
            h = quantile(self.cdf_ihi, unif)  # h >= s_plus
            a = quantile(cdf_table(log_split, self.rate_i_lo, self.alpha_star,
                                   s_plus), draw())
            z_extra = sum([draw() < self.thin_p for _ in range(s_plus - a)])
            z_shared = quantile(self.shared_count_cdf, draw()) - 1
            shared_sizes = [quantile(self.shared_size_cdf, draw())
                            for _ in range(z_shared)]
            extra_sizes = [quantile(self.extra_size_cdf, draw())
                           for _ in range(z_extra)]
            cu, cv = _add(lo, u, a), _add(hi, v, h)  # a matched, h - a spare
            pairs = list(zip(range(cu, cu + a), range(cv, cv + a)))
            node_map.update(pairs)
            spare = range(cv + a, cv + h)
            if lo[1][u] < depth:  # else the children stay open stubs
                stack.extend(pairs)
                for x in spare:
                    self._expand_marginal_hi(hi, x, depth, draw)
            for size in shared_sizes:
                shape = _bush_shape(size, draw)
                bu, bv = _graft(lo, u, shape), _graft(hi, v, shape)
                node_map.update(zip(range(bu, bu + size), range(bv, bv + size)))
            for j, size in enumerate(extra_sizes):
                # z_extra <= s_plus - a <= h - a spare children
                node_map[_graft(lo, u, _bush_shape(size, draw))] = spare[j]
            if u == 0:
                root_couple = OffspringCouple(
                    n_fin_lo=dict(Counter(shared_sizes + extra_sizes)),
                    n_fin_hi=dict(Counter(shared_sizes)),
                    n_inf_lo=a, n_inf_hi=h)
        return CoupledPair(_arena(lo, depth), _arena(hi, depth), node_map,
                           root_couple, self.lam, self.mu, depth, seed)

    def _expand_marginal_hi(self, t: tuple, node: int, depth: int,
                            draw) -> None:
        """Marginal two-type expansion of an unpaired hi subtree down to the
        horizon (same law as sample_pgw_star restricted to a subtree)."""
        stack = [node]
        while stack:
            x = stack.pop()
            n_i = quantile(self.qstar_hi_cdf, draw())
            n_f = quantile(self.shared_count_cdf, draw()) - 1
            w = _add(t, x, n_i)
            if t[1][x] < depth:
                stack.extend(range(w, w + n_i))
            for _ in range(n_f):
                _graft(t, x, _bush_shape(
                    quantile(self.shared_size_cdf, draw()), draw))


@lru_cache(maxsize=16)
def _coupled_sampler(lam: float, mu: float) -> _CoupledSampler:
    return _CoupledSampler(lam, mu)


def sample_coupled_trees(lam: float, mu: float, depth: int,
                         seed: int) -> CoupledPair:
    """One coupled pair (T, T') of survival-conditioned trees, type-I
    skeletons truncated at the given depth, with T's marginal at parameter
    lam, T' at mu, and the embedding witnessing domination (see module
    docstring)."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    return _coupled_sampler(lam, mu).sample(depth, seed)
