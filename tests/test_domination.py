"""Domination: exact tail checks, quantile couplings, coupled trees."""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, chi2_contingency

from gwtree import (TYPE_F, TYPE_I, alpha, check_le1, conv_pmf, degree_pmf,
                    extinction_prob, killed_walk_visits, positive_poisson_pmf,
                    sample_coupled_trees, sample_dominated_offspring,
                    sample_dominated_offspring_many, sample_pgw_star,
                    subtree_stats, verify_tail_domination)
from gwtree import trees
from gwtree.domination import TailReport, _CoupledSampler
from gwtree.laws import log_conv, poisson_cdf
from gwtree.rng import derive_seed
from gwtree.trees import RootedTree, _bush

INF = math.inf


class TestConvPmf:
    def test_frozen_value(self):
        # e^{-1/2}/(e - 1), cross-checked by numeric Poisson convolution below
        assert conv_pmf(1.0, 0.5, 1) == pytest.approx(0.352986715954838, abs=1e-13)

    def test_matches_numeric_convolution(self):
        lam, beta = 1.0, 0.5
        norm = 1.0 - math.exp(-lam)
        for k in range(1, 41):
            direct = sum(
                (math.exp(-lam) * lam**j / math.factorial(j) / norm)
                * (math.exp(-beta) * beta**(k - j) / math.factorial(k - j))
                for j in range(1, k + 1))
            assert conv_pmf(lam, beta, k) == pytest.approx(direct, rel=1e-10)

    def test_beta_zero_reduces_to_positive_poisson(self):
        for k in [1, 2, 7]:
            want = 1.3**k / ((math.e**1.3 - 1) * math.factorial(k))
            assert conv_pmf(1.3, 0.0, k) == pytest.approx(want, rel=1e-12)
            assert positive_poisson_pmf(1.3, k) == conv_pmf(1.3, 0.0, k)

    def test_beta_far_from_lambda(self):
        # lam + beta rounds to lam below, and to beta above
        for k in range(1, 6):
            assert conv_pmf(1.5, 1e-17, k) == pytest.approx(
                positive_poisson_pmf(1.5, k), rel=1e-12)
            assert math.isfinite(log_conv(1.5, 1e300, k))

    def test_normalization(self):
        total = sum(conv_pmf(1.3, 0.4, k) for k in range(1, 120))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            conv_pmf(1.0, 0.5, 0)
        with pytest.raises(ValueError):
            conv_pmf(0.0, 0.5, 1)
        with pytest.raises(ValueError):
            conv_pmf(1.0, -0.1, 1)


def tail_report_by_powers(lam, mu, beta=None, kmax=200, dps=400):
    """verify_tail_domination as it was written first, with every power
    raised anew at each k: the reference for its running products."""
    with mpmath.workdps(dps):
        lam_, mu_ = mpmath.mpf(lam), mpmath.mpf(mu)
        if beta is None:
            beta_ = (mpmath.log((mpmath.e ** mu_ - 1) / mu_)
                     - mpmath.log((mpmath.e ** lam_ - 1) / lam_))
        else:
            beta_ = mpmath.mpf(beta)
        norm_a = mpmath.e ** (-beta_) / (mpmath.e ** lam_ - 1)
        norm_b = 1 / (mpmath.e ** mu_ - 1)
        cum_a = cum_b = mpmath.mpf(0)
        fact = mpmath.mpf(1)
        min_margin, violated_at = mpmath.inf, None
        thresh = mpmath.mpf(10) ** (-(dps - 20))
        for k in range(1, kmax + 1):
            fact *= k
            cum_a += norm_a * ((lam_ + beta_) ** k - beta_ ** k) / fact
            cum_b += norm_b * mu_ ** k / fact
            min_margin = min(min_margin, cum_a - cum_b)
            if violated_at is None and cum_a - cum_b < -thresh:
                violated_at = k
        return TailReport(lam=float(lam), mu=float(mu), beta=float(beta_),
                          kmax=kmax, min_margin=float(min_margin),
                          violated_at=violated_at)


class TestVerifyTailDomination:
    def test_running_products_match_powers(self):
        # the README's pair and the lambda and mu grids of the benchmark, the
        # acceptance gate and this file, at the boundary mass and a hair over
        lams, mus = (1.0, 1.1, 1.5, 2.0, 3.0), (1.5, 2.0, 3.0, 4.0)
        for lam, mu in itertools.product(lams, mus):
            if mu > lam:
                assert (verify_tail_domination(lam, mu, kmax=200)
                        == tail_report_by_powers(lam, mu)), (lam, mu)
                bad = alpha(lam, mu) + 1e-4
                assert (verify_tail_domination(lam, mu, bad, 200, dps=60)
                        == tail_report_by_powers(lam, mu, bad, dps=60))
        assert (verify_tail_domination(1.0, 2.0, kmax=50)
                == tail_report_by_powers(1.0, 2.0, kmax=50))

    def test_boundary_mass_gives_no_violation(self):
        rep = verify_tail_domination(1.0, 2.0)
        assert rep.violated_at is None
        assert rep.min_margin >= -1e-300

    def test_pmf_equality_at_one_for_boundary_mass(self):
        a1 = conv_pmf(1.0, alpha(1.0, 2.0), 1)
        b1 = positive_poisson_pmf(2.0, 1)
        assert a1 == pytest.approx(b1, abs=1e-15)
        assert b1 == pytest.approx(0.313035285499331, abs=1e-13)

    def test_excess_mass_violates_at_one(self):
        rep = verify_tail_domination(1.0, 2.0, beta=alpha(1.0, 2.0) + 1e-4)
        assert rep.violated_at == 1
        assert rep.min_margin < -1e-6

    def test_grid_no_violations(self):
        grid = [1.1, 1.5, 2.0, 3.0]
        for lam, mu in itertools.combinations(grid, 2):
            rep = verify_tail_domination(lam, mu, kmax=200)
            assert rep.violated_at is None, (lam, mu)

    def test_report_invariant(self):
        rep = verify_tail_domination(1.5, 2.0)
        assert (rep.violated_at is None) == (rep.min_margin >= -1e-200)

    def test_crossing_set_is_an_interval(self):
        # the per-k comparison a_k >= b_k holds exactly on an initial segment
        for lam, mu in [(1.1, 1.5), (1.5, 2.0), (2.0, 3.0), (1.1, 3.0)]:
            with mpmath.workdps(60):
                lam_, mu_ = mpmath.mpf(lam), mpmath.mpf(mu)
                beta = (mpmath.log((mpmath.e**mu_ - 1) / mu_)
                        - mpmath.log((mpmath.e**lam_ - 1) / lam_))
                na = mpmath.e**(-beta) / (mpmath.e**lam_ - 1)
                nb = 1 / (mpmath.e**mu_ - 1)
                flags = []
                for k in range(1, 201):
                    a_k = na * ((lam_ + beta)**k - beta**k) / mpmath.factorial(k)
                    b_k = nb * mu_**k / mpmath.factorial(k)
                    flags.append(a_k >= b_k)
            assert flags[0]
            dropped = flags.index(False) if False in flags else len(flags)
            assert all(not f for f in flags[dropped:]), (lam, mu)

    def test_kmax_validation(self):
        with pytest.raises(ValueError):
            verify_tail_domination(1.0, 2.0, kmax=10)

    def test_serialization(self):
        d = verify_tail_domination(1.0, 2.0).to_dict()
        assert set(d) == {"lambda", "mu", "beta", "kmax", "min_margin",
                          "violated_at"}


class TestDominatedOffspring:
    def test_hi_never_below_lo(self):
        lo, hi = sample_dominated_offspring_many(1.5, 2.0, 1_000_000, seed=3)
        assert (hi >= lo).all()
        assert lo.min() >= 1

    def test_single_draw_matches_batch(self):
        lo, hi = sample_dominated_offspring(1.5, 2.0, seed=44)
        assert hi >= lo >= 1

    def test_hi_marginal(self):
        n = 1_000_000
        _, hi = sample_dominated_offspring_many(1.5, 2.0, n, seed=5)
        for k in range(1, 13):
            want = positive_poisson_pmf(2.0, k)
            got = float((hi == k).mean())
            band = 4.0 * math.sqrt(want * (1.0 - want) / n) + 1e-12
            assert abs(got - want) <= band, (k, got, want)

    def test_lo_marginal(self):
        n = 1_000_000
        a = alpha(1.5, 2.0)
        lo, _ = sample_dominated_offspring_many(1.5, 2.0, n, seed=5)
        for k in range(1, 13):
            want = conv_pmf(1.5, a, k)
            got = float((lo == k).mean())
            band = 4.0 * math.sqrt(want * (1.0 - want) / n) + 1e-12
            assert abs(got - want) <= band, (k, got, want)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            sample_dominated_offspring(2.0, 1.5, seed=0)


def tree_with_child_sizes(sizes):
    """Root plus one marked child per entry; inf entries become open stubs."""
    t = RootedTree()
    t.add_node(-1, open_=False)
    for s in sizes:
        v = t.add_node(0, open_=(s == INF))
        if s != INF:
            t.open_[v] = False
            for _ in range(int(s) - 1):
                t.add_node(v, open_=False)
    subtree_stats(t)
    return t


def brute_force_le1(lo_sizes, hi_sizes):
    if len(lo_sizes) > len(hi_sizes):
        return False
    return any(
        all(lo_sizes[i] <= pick[i] for i in range(len(lo_sizes)))
        for pick in itertools.permutations(hi_sizes, len(lo_sizes)))


class TestCheckLe1:
    def test_identical_trees(self):
        t = tree_with_child_sizes([3, 2, 1])
        assert check_le1(t, t)

    def test_spec_examples(self):
        assert not check_le1(tree_with_child_sizes([3, 2]),
                             tree_with_child_sizes([3, 1]))
        assert check_le1(tree_with_child_sizes([2, 1]),
                         tree_with_child_sizes([INF, 2, 1]))

    @given(st.lists(st.sampled_from([1, 2, 3, 5, INF]), max_size=5),
           st.lists(st.sampled_from([1, 2, 3, 5, INF]), max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_greedy_matches_brute_force(self, lo_sizes, hi_sizes):
        got = check_le1(tree_with_child_sizes(lo_sizes),
                        tree_with_child_sizes(hi_sizes))
        assert got == brute_force_le1(lo_sizes, hi_sizes)


class TestCoupledTrees:
    def test_structure_and_embedding(self):
        for i in range(500):
            pair = sample_coupled_trees(1.5, 2.0, 4, derive_seed(7, i))
            pair.lo.validate()
            pair.hi.validate()
            pair.validate_embedding()
            assert pair.audit_le1()
            assert check_le1(pair.lo, pair.hi)

    def test_root_couple_decomposition(self):
        for i in range(500):
            pair = sample_coupled_trees(1.2, 1.5, 3, derive_seed(8, i))
            rc = pair.root_couple
            # hi bush counts are the shared component of the lo bush counts
            for size, cnt in rc.n_fin_hi.items():
                assert rc.n_fin_lo.get(size, 0) >= cnt
            assert rc.n_inf_hi >= rc.n_inf_lo + rc.extra_total()
            assert rc.n_inf_lo >= 1 and rc.n_inf_hi >= 1

    def test_infinite_count_marginals(self):
        # n_inf of the lo root ~ positive Poisson(lam * theta(lam)), of the
        # hi root ~ positive Poisson(mu * theta(mu))
        n = 5000
        lam, mu = 1.2, 1.5
        pl, pm = extinction_prob(lam), extinction_prob(mu)
        lo_counts = np.zeros(n, int)
        hi_counts = np.zeros(n, int)
        for i in range(n):
            pair = sample_coupled_trees(lam, mu, 1, derive_seed(9, i))
            lo_counts[i] = pair.root_couple.n_inf_lo
            hi_counts[i] = pair.root_couple.n_inf_hi
        for k in range(1, 7):
            for counts, rate in [(lo_counts, pl.ctheta), (hi_counts, pm.ctheta)]:
                want = positive_poisson_pmf(rate, k)
                got = float((counts == k).mean())
                band = 4.0 * math.sqrt(want * (1.0 - want) / n) + 1e-12
                assert abs(got - want) <= band, (k, rate, got, want)

    def test_root_degree_marginals(self):
        n = 5000
        lam, mu = 1.2, 1.5
        pl, pm = extinction_prob(lam), extinction_prob(mu)
        lo_deg = np.zeros(n, int)
        hi_deg = np.zeros(n, int)
        for i in range(n):
            pair = sample_coupled_trees(lam, mu, 1, derive_seed(10, i))
            lo_deg[i] = len(pair.lo.children[pair.lo.root])
            hi_deg[i] = len(pair.hi.children[pair.hi.root])
        for k in range(1, 9):
            for deg, params in [(lo_deg, pl), (hi_deg, pm)]:
                want = degree_pmf(params, k)
                got = float((deg == k).mean())
                band = 4.0 * math.sqrt(want * (1.0 - want) / n) + 1e-12
                assert abs(got - want) <= band, (k, params.c, got, want)

    def test_determinism(self):
        from gwtree.trees import tree_to_text
        p1 = sample_coupled_trees(1.5, 2.0, 4, seed=99)
        p2 = sample_coupled_trees(1.5, 2.0, 4, seed=99)
        assert tree_to_text(p1.lo) == tree_to_text(p2.lo)
        assert tree_to_text(p1.hi) == tree_to_text(p2.hi)
        assert p1.node_map == p2.node_map

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sample_coupled_trees(1.5, 2.0, 0, seed=0)
        with pytest.raises(ValueError):
            sample_coupled_trees(2.0, 1.5, 3, seed=0)
        with pytest.raises(ValueError):
            sample_coupled_trees(0.9, 1.5, 3, seed=0)


def mean_bush_count(nu, k):
    """m_k(nu) = (nu e^-nu)^k k^(k-1) / k!, the mean number of size-k bushes
    below a type-I vertex at nu."""
    return math.exp(k * (math.log(nu) - nu) + (k - 1) * math.log(k)
                    - math.lgamma(k + 1))


class TestMarking:
    def test_shared_and_extra_bush_sizes(self):
        # per-size counts at the root are independent Poisson: shared ones of
        # mean m_k(mu), extra ones of mean m_k(lam) - m_k(mu); sizes above 5
        # share a bin
        lam, mu, n = 1.5, 2.0, 20_000
        shared, extra = np.zeros(6), np.zeros(6)
        for i in range(n):
            rc = sample_coupled_trees(lam, mu, 1, derive_seed(18, i)).root_couple
            for size, cnt in rc.n_fin_lo.items():
                hi = rc.n_fin_hi.get(size, 0)
                shared[min(size, 6) - 1] += hi
                extra[min(size, 6) - 1] += cnt - hi
        cq_lam, cq_mu = extinction_prob(lam).cq, extinction_prob(mu).cq
        for got, mean, total in (
                (shared, lambda k: mean_bush_count(mu, k), cq_mu),
                (extra, lambda k: mean_bush_count(lam, k)
                 - mean_bush_count(mu, k), cq_lam - cq_mu)):
            want = np.array([mean(k) for k in range(1, 6)])
            want = n * np.append(want, total - want.sum())
            stat = float(((got - want) ** 2 / want).sum())
            assert chi2.sf(stat, len(want)) >= 1e-4, (got, want)

    def test_hi_count_never_below_s(self):
        sampler = _CoupledSampler(1.5, 2.0)
        end = len(sampler.cdf_s)
        # S past the end of its table: the interval is the point 1.0
        for unif in (0.0, 0.5, 1.0 - 2.0 ** -53):
            assert sampler._h(end + 5, unif) == end + 5
        # an interval that rounds to a point, where both tables are flat
        sampler.cdf_s, sampler.cdf_h = (0.0, 0.5, 0.5, 1.0), (0.5, 1.0)
        assert sampler._h(2, 0.3) == 2

    def test_capped_bushes_are_counted(self, monkeypatch):
        # near lam = 1 a bush passes a cap of 2 nodes below its root often
        monkeypatch.setattr(trees, "BUSH_NODE_CAP", 2)
        pair = sample_coupled_trees(1.01, 1.5, 3, seed=5).complete()
        lo = pair.lo
        assert lo.bush_resamples > 0
        lo.validate()
        pair.validate_embedding()
        assert pair.audit_le1()
        subtree_stats(lo)
        roots = (lo.ntype == TYPE_F) & (lo.ntype[lo.parent] == TYPE_I)
        assert roots.any() and (lo.subtree_size[roots] <= 3).all()


def two_sample_pvalue(x, y):
    """Chi-square two-sample p-value on bins (edges[i-1], edges[i]] cut at
    the pooled deciles; empty bins are dropped."""
    pooled = np.concatenate([x, y])
    edges = np.unique(np.quantile(pooled, np.linspace(0.1, 0.9, 9)))
    table = np.array([np.bincount(np.searchsorted(edges, z),
                                  minlength=len(edges) + 1) for z in (x, y)])
    return chi2_contingency(table[:, table.sum(axis=0) > 0]).pvalue


class TestCoupledLaw:
    def test_marginals_match_sample_pgw_star(self):
        # each side of a completed depth-2 pair has the law of
        # sample_pgw_star at its own parameter: node counts and root
        # degrees, two-sample chi-square
        lam, mu, n = 1.5, 2.0, 4000
        pairs = [sample_coupled_trees(lam, mu, 2, derive_seed(12, i)).complete()
                 for i in range(n)]
        for side, c in (("lo", lam), ("hi", mu)):
            coupled = [getattr(p, side) for p in pairs]
            marginal = [sample_pgw_star(c, 2, derive_seed(13, c, i))
                        for i in range(n)]
            for stat in (len, lambda t: len(t.children[t.root])):
                pv = two_sample_pvalue(np.array([stat(t) for t in coupled]),
                                       np.array([stat(t) for t in marginal]))
                assert pv >= 1e-4, (side, pv)


class TestLazyPairs:
    def test_open_nodes_and_complete(self):
        # as built, hi is open exactly at its type-I nodes at depth <= the
        # horizon that are unmapped or images of extra-bush roots, and at
        # the frontier; complete() grows the former and nothing else
        for depth, i in itertools.product((1, 3), range(100)):
            pair = sample_coupled_trees(1.5, 2.0, depth, derive_seed(15, i))
            lo, hi, m = pair.lo, pair.hi, pair.node_map
            images = {v for u, v in m.items() if lo.ntype[u] == TYPE_I}
            spare = {v for v in range(len(hi)) if hi.ntype[v] == TYPE_I
                     and hi.depth[v] <= depth and v not in images}
            frontier = set(np.flatnonzero((hi.ntype == TYPE_I)
                                          & (hi.depth == depth + 1)).tolist())
            assert set(np.flatnonzero(hi.open_).tolist()) == spare | frontier
            before = [a.copy() for a in (lo.parent, lo.ntype, lo.open_,
                                         hi.parent, hi.ntype)]
            n_hi, node_map, rc = len(hi), dict(m), pair.root_couple
            assert pair.complete() is pair
            assert pair.lo is lo and pair.node_map == node_map
            assert pair.root_couple is rc
            for a, b in zip(before, (lo.parent, lo.ntype, lo.open_,
                                     pair.hi.parent[:n_hi],
                                     pair.hi.ntype[:n_hi])):
                assert np.array_equal(a, b)
            hi = pair.hi
            assert not (hi.open_ & (hi.depth <= depth)).any()
            assert (hi.depth[hi.open_] == depth + 1).all()
            hi.validate()
            pair.validate_embedding()
            assert pair.audit_le1()
            pair.complete()
            assert pair.hi is hi  # a complete pair does not change

    def test_walk_visits_match_completed_pairs(self):
        # killed walks on lazy hi trees, grown at mu on first visit, count
        # root visits with the law they have on completed hi trees
        lam, mu, s, n = 1.5, 2.0, 0.7, 3000

        def visits(tag, complete):
            x = np.zeros(n, int)
            for i in range(n):
                pair = sample_coupled_trees(lam, mu, 2, derive_seed(tag, i))
                hi = (pair.complete() if complete else pair).hi
                x[i] = killed_walk_visits(hi, s, derive_seed(tag, "walk", i),
                                          grow=mu)
            return x
        assert two_sample_pvalue(visits(16, False), visits(17, True)) >= 1e-4


def shape_key(parent):
    """Sorted depths of a rooted tree on at most 4 nodes, which tell its
    shape apart."""
    depth = [0] * len(parent)
    for v in range(1, len(parent)):
        assert 0 <= parent[v] < v
        depth[v] = depth[parent[v]] + 1
    return tuple(sorted(depth))


class TestBushShape:
    """The shape law of trees._bush given the bush size, which both
    sample_pgw_star and the coupling use: uniform over labeled rooted trees,
    whatever the rate."""

    def shape_law(self, k, rate):
        """Exact shape law of a size-k bush at the rate: every sequence of k
        child counts is scripted as draws at the centres of their cells of
        the Poisson table and weighted by its pmf; the sequences that grow a
        size-k bush from exactly k draws are kept."""
        cdf = (0.0, *poisson_cdf(rate))
        law = {}
        for counts in itertools.product(range(k), repeat=k):
            draws = iter([(cdf[n] + cdf[n + 1]) / 2 for n in counts])
            t = ([-1], [TYPE_F])
            try:
                assert _bush(t, 0, poisson_cdf(rate), draws.__next__,
                             next(draws)) == 0
            except StopIteration:  # the counts ask for more nodes
                continue
            if next(draws, None) is not None:  # ... or for fewer
                continue
            key = shape_key(t[0])
            weight = math.prod(math.exp(-rate) * rate ** n / math.factorial(n)
                               for n in counts)
            law[key] = law.get(key, 0.0) + weight
        total = sum(law.values())
        return {key: w / total for key, w in law.items()}

    def test_three_nodes(self):
        for rate in (0.3, 0.9):
            assert self.shape_law(3, rate) == pytest.approx(
                {(0, 1, 1): 1 / 3, (0, 1, 2): 2 / 3}, rel=1e-12)

    def test_four_nodes(self):
        for rate in (0.3, 0.9):
            assert self.shape_law(4, rate) == pytest.approx({
                (0, 1, 2, 3): 24 / 64,  # path rooted at an end
                (0, 1, 1, 2): 24 / 64,  # path rooted inside
                (0, 1, 1, 1): 4 / 64,   # star rooted at its centre
                (0, 1, 2, 2): 12 / 64,  # star rooted at a leaf
            }, rel=1e-12)


def pair_with(predicate, depth=3):
    """The first pair at (1.5, 2.0) for which predicate(pair) is truthy,
    and its value."""
    for i in range(200):
        pair = sample_coupled_trees(1.5, 2.0, depth, derive_seed(14, i))
        found = predicate(pair)
        if found:
            return pair, found
    raise AssertionError("no such pair in 200 seeds")


class TestAuditRejections:
    def test_map_entry_redirected_to_non_child(self):
        # an expanded type-I child of the root sent to a hi frontier stub
        def target(pair):
            lo, hi = pair.lo, pair.hi
            images = set(pair.node_map.values())
            u = next((u for u in lo.children[0] if lo.ntype[u] == TYPE_I
                      and not lo.open_[u]), None)
            v = next((v for v in range(len(hi)) if hi.open_[v]
                      and v not in images), None)
            return u is not None and v is not None and (u, v)
        pair, (u, v) = pair_with(target)
        assert pair.audit_le1()
        pair.node_map[u] = v
        with pytest.raises(ValueError, match="parent"):
            pair.validate_embedding()
        assert not pair.audit_le1()

    def test_child_removed_from_shared_bush(self):
        def target(pair):
            return next(((u, v) for u, v in pair.node_map.items()
                         if pair.lo.ntype[u] == TYPE_F
                         and pair.hi.ntype[v] == TYPE_F
                         and pair.hi.children[v]), None)
        pair, (u, v) = pair_with(target)
        pair.validate_embedding()
        assert pair.audit_le1()
        # move the first child of v under the root; sizes are recomputed
        # from the corrupted parent array
        parent = pair.hi.parent.copy()
        parent[pair.hi.children[v][0]] = pair.hi.root
        pair.hi = RootedTree(parent, pair.hi.ntype, pair.hi.open_)
        with pytest.raises(ValueError, match="dominance"):
            pair.validate_embedding()
        assert not pair.audit_le1()
