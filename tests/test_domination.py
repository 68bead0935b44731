"""Domination: exact tail checks, quantile couplings, coupled trees."""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from gwtree import (TYPE_F, TYPE_I, alpha, check_le1, conv_pmf, degree_pmf,
                    extinction_prob, positive_poisson_pmf,
                    sample_coupled_trees, sample_dominated_offspring,
                    sample_dominated_offspring_many, sample_pgw_star,
                    subtree_stats, verify_tail_domination)
from gwtree.domination import _bush_shape
from gwtree.rng import derive_seed
from gwtree.trees import RootedTree

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


class TestVerifyTailDomination:
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
        # each side of a depth-2 pair has the law of sample_pgw_star at its
        # own parameter: node counts and root degrees, two-sample chi-square
        lam, mu, n = 1.5, 2.0, 4000
        pairs = [sample_coupled_trees(lam, mu, 2, derive_seed(12, i))
                 for i in range(n)]
        for side, c in (("lo", lam), ("hi", mu)):
            coupled = [getattr(p, side) for p in pairs]
            marginal = [sample_pgw_star(c, 2, derive_seed(13, c, i))
                        for i in range(n)]
            for stat in (len, lambda t: len(t.children[t.root])):
                pv = two_sample_pvalue(np.array([stat(t) for t in coupled]),
                                       np.array([stat(t) for t in marginal]))
                assert pv >= 1e-4, (side, pv)


def shape_key(parent):
    """Sorted depths of a rooted tree on at most 4 nodes, which tell its
    shape apart."""
    depth = [0] * len(parent)
    for v in range(1, len(parent)):
        assert 0 <= parent[v] < v
        depth[v] = depth[parent[v]] + 1
    return tuple(sorted(depth))


class TestBushShape:
    def shape_law(self, k):
        """Exact shape law of _bush_shape over all k^(k-1) equally likely
        draw sequences (each draw at the centre of its cell)."""
        law = {}
        for cells in itertools.product(range(k), repeat=k - 1):
            draws = iter([(j + 0.5) / k for j in cells])
            parent, depth = _bush_shape(k, draws.__next__)
            assert next(draws, None) is None  # k - 1 draws, no more
            key = shape_key(parent)
            assert tuple(sorted(depth)) == key
            for j in range(1, k):  # parents first, one level up
                assert parent[j] < j and depth[j] == depth[parent[j]] + 1
            law[key] = law.get(key, 0) + 1
        return {key: cnt / k ** (k - 1) for key, cnt in law.items()}

    def test_small_sizes_draw_nothing(self):
        def no_draw():
            raise AssertionError("drew a uniform")
        assert _bush_shape(1, no_draw)[:2] == ([-1], [0])
        assert _bush_shape(2, no_draw)[:2] == ([-1, 0], [0, 1])

    def test_three_nodes(self):
        assert self.shape_law(3) == {(0, 1, 1): 1 / 3, (0, 1, 2): 2 / 3}

    def test_four_nodes(self):
        assert self.shape_law(4) == {
            (0, 1, 2, 3): 24 / 64,  # path rooted at an end
            (0, 1, 1, 2): 24 / 64,  # path rooted inside
            (0, 1, 1, 1): 4 / 64,   # star rooted at its centre
            (0, 1, 2, 2): 12 / 64,  # star rooted at a leaf
        }


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
        pair.hi = RootedTree(parent, pair.hi.depth, pair.hi.ntype,
                             pair.hi.open_)
        with pytest.raises(ValueError, match="dominance"):
            pair.validate_embedding()
        assert not pair.audit_le1()
