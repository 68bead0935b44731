"""Tree samplers: size laws, two-type structure, uniform trees, statistics."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, chi2_contingency

from gwtree import (TYPE_F, TYPE_I, RootedTree, borel_pmf, degree_pmf,
                    extinction_prob, sample_coupled_trees, sample_pgw,
                    sample_pgw_star, sample_uniform_rooted_tree, subtree_stats,
                    tree_from_text, tree_to_text, trees)
from gwtree.laws import poisson_cdf, positive_poisson_cdf, quantile
from gwtree.rng import child_key, derive_seed, node_uniform, substream

INF = math.inf


def make_path(n):
    t = RootedTree()
    t.add_node(-1, open_=False)
    for v in range(1, n):
        t.add_node(v - 1, open_=False)
    return t


def shape(t, v=0):
    """Canonical unordered shape below v: its children's shapes, sorted."""
    return "(" + "".join(sorted(shape(t, w) for w in t.children[v])) + ")"


def reference_pgw(c, node_cap, seed):
    """sample_pgw grown node by node in lists, from the same draws."""
    table = np.asarray(poisson_cdf(c))
    rng = substream(seed, "pgw", c)
    parent, open_ = [-1], [True]
    level, capped = [0], False
    while level:
        counts = quantile(table, rng.random(len(level))) - 1
        if len(parent) + int(counts.sum()) > node_cap:
            capped = True
            break
        nxt = []
        for v, k in zip(level, counts.tolist()):
            open_[v] = False
            nxt += range(len(parent), len(parent) + k)
            parent += [v] * k
            open_ += [True] * k
        level = nxt
    t = RootedTree(parent, [trees.TYPE_UNTYPED] * len(parent), open_)
    t.capped = capped
    return t


class TestPathKeyedDraws:
    def test_uniforms_pass_chi_square(self):
        root = derive_seed(0, "chi2")
        u = np.array([node_uniform(child_key(root, i), i % 3)
                      for i in range(1 << 16)])
        assert u.min() >= 0.0 and u.max() < 1.0
        counts = np.bincount((u * 64).astype(int), minlength=64)
        expect = len(u) / 64
        stat = float(((counts - expect) ** 2 / expect).sum())
        assert chi2.sf(stat, 63) > 1e-4, stat

    def test_child_keys_are_distinct(self):
        key = derive_seed(1, "keys")
        kids = [child_key(key, i) for i in range(10_000)]
        assert len(set(kids)) == len(kids)
        assert key not in kids


class TestSamplePgw:
    @pytest.mark.parametrize("cap", [50, 5000])
    def test_matches_per_node_reference(self, cap):
        for s in range(300):
            t, ref = sample_pgw(2.0, cap, s), reference_pgw(2.0, cap, s)
            assert (t.parent.tolist(), t.depth.tolist(), t.open_.tolist(),
                    t.capped) == (ref.parent.tolist(), ref.depth.tolist(),
                                  ref.open_.tolist(), ref.capped), s
            assert list(t.children) == list(ref.children), s

    def test_size_law_matches_borel(self):
        n = 100_000
        sizes = np.zeros(n, int)
        for i in range(n):
            t = sample_pgw(0.5, 10_000, derive_seed(0, "borel", i))
            assert not t.capped
            sizes[i] = len(t)
        for k in range(1, 11):
            want = borel_pmf(0.5, k)
            got = float((sizes == k).mean())
            band = 4.0 * math.sqrt(want * (1.0 - want) / n)
            assert abs(got - want) <= band, (k, got, want)

    def test_singleton_probability(self):
        # P(|T| = 1) = e^{-c}: covered by k = 1 of the Borel match; spot value
        assert borel_pmf(0.5, 1) == pytest.approx(math.exp(-0.5), rel=1e-14)

    def test_capped_fraction_is_survival_probability(self):
        # a supercritical tree hits any finite cap iff it survives (the
        # finite-but-huge contribution is astronomically small at c = 2)
        n, cap = 20_000, 5000
        capped = 0
        for i in range(n):
            t = sample_pgw(2.0, cap, derive_seed(1, "cap", i))
            capped += t.capped
            assert t.capped or len(t) <= cap
        theta = extinction_prob(2.0).theta
        band = 3.0 * math.sqrt(theta * (1.0 - theta) / n)
        assert abs(capped / n - theta) <= band

    def test_capped_result_is_explicit(self):
        t = sample_pgw(3.0, 10, seed=12)  # survival is likely; retry seeds
        i = 0
        while not t.capped:
            i += 1
            t = sample_pgw(3.0, 10, seed=12 + i)
        assert any(t.open_)  # unexpanded nodes are marked, not dropped

    def test_validate_on_samples(self):
        for i in range(200):
            sample_pgw(0.8, 10_000, derive_seed(2, i)).validate()

    def test_rate_past_the_table_raises_before_drawing(self):
        # the Poisson(3e5) table cannot close within 200000 terms
        with pytest.raises(ArithmeticError, match="did not close"):
            sample_pgw(3e5, 10, 0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sample_pgw(0.0, 10, 0)
        with pytest.raises(ValueError):
            sample_pgw(1.0, 0, 0)


class TestSamplePgwStar:
    def test_root_degree_law(self):
        n = 150_000
        c = 2.0
        params = extinction_prob(c)
        degs = np.zeros(n, int)
        fin_hist = np.zeros(16, int)
        for i in range(n):
            t = sample_pgw_star(c, 1, derive_seed(3, "star", i))
            kids = t.children[t.root]
            degs[i] = len(kids)
            for w in kids:
                if t.ntype[w] == TYPE_F:
                    sz = len(_subtree_nodes(t, w))
                    if sz < 16:
                        fin_hist[sz] += 1
        for k in range(1, 13):
            want = degree_pmf(params, k)
            got = float((degs == k).mean())
            band = 4.0 * math.sqrt(want * (1.0 - want) / n) + 1e-12
            assert abs(got - want) <= band, (k, got, want)
        # mean number of finite root-bushes of size k: (c e^{-c})^k k^{k-1}/k!
        for k in range(1, 7):
            want = math.exp(k * (math.log(c) - c) + (k - 1) * math.log(k)
                            - math.lgamma(k + 1))
            got = fin_hist[k] / n
            band = 4.0 * math.sqrt(want / n) + 1e-12  # Poisson variance = mean
            assert abs(got - want) <= band, (k, got, want)

    def test_spine_limit_at_one(self):
        t = sample_pgw_star(1.0, 8, seed=5)
        t.validate()
        for v in range(len(t)):
            if t.ntype[v] == TYPE_I and not t.open_[v]:
                i_kids = [w for w in t.children[v] if t.ntype[w] == TYPE_I]
                assert len(i_kids) == 1

    def test_large_c_root_children(self):
        # ~c*theta = 800 type-I children; the quantile must not underflow
        for s in range(4):
            t = sample_pgw_star(800.0, 0, s)
            assert sum(t.ntype[w] == TYPE_I for w in t.children[t.root]) > 700

    def test_structure_invariants_on_samples(self):
        for i in range(10_000):
            t = sample_pgw_star(1.5, 3, derive_seed(4, i))
            t.validate()
            hist = subtree_stats(t)
            assert hist[INF] >= 1  # survival: at least one infinite child

    def test_deepening_reproduces_shallow_tree(self):
        shallow = sample_pgw_star(2.0, 3, seed=77)
        deep = sample_pgw_star(2.0, 5, seed=77)

        def restricted_signature(t, dmax):
            sig = []
            for v in range(len(t)):
                if t.depth[v] <= dmax and not t.open_[v]:
                    kid_types = sorted(t.ntype[w] for w in t.children[v])
                    sig.append((t.depth[v], t.ntype[v], tuple(kid_types)))
            return sorted(sig)

        assert restricted_signature(shallow, 3) == restricted_signature(deep, 3)

    def test_independence_of_bush_and_infinite_counts(self):
        n = 60_000
        n1 = np.zeros(n)
        ninf = np.zeros(n)
        for i in range(n):
            t = sample_pgw_star(2.0, 1, derive_seed(6, "cov", i))
            hist = subtree_stats(t)
            n1[i] = hist.get(1.0, 0)
            ninf[i] = hist.get(INF, 0)
        cov = float(np.cov(n1, ninf)[0, 1])
        prods = (n1 - n1.mean()) * (ninf - ninf.mean())
        se = float(prods.std(ddof=1) / math.sqrt(n))
        assert abs(cov) <= 4.0 * se

    def test_bush_resample_path(self, monkeypatch):
        # a Poisson(1) bush passes a cap of 2 nodes below its root about
        # half the time
        monkeypatch.setattr(trees, "BUSH_NODE_CAP", 2)
        t = sample_pgw_star(1.0, 20, seed=8)
        assert t.bush_resamples > 0
        t.validate()
        for v in range(len(t)):
            for w in t.children[v]:
                if t.ntype[v] == TYPE_I and t.ntype[w] == TYPE_F:
                    assert len(_subtree_nodes(t, w)) <= 3
        again = sample_pgw_star(1.0, 20, seed=8)
        assert tree_to_text(again) == tree_to_text(t)

    @given(c=st.floats(min_value=1.0, max_value=1e3),
           seed=st.integers(min_value=0, max_value=(1 << 63) - 1),
           depth=st.integers(min_value=0, max_value=2))
    @example(c=1.0, seed=0, depth=2)
    @example(c=1e3, seed=(1 << 63) - 1, depth=2)
    @settings(max_examples=30, deadline=None)
    def test_valid_and_invariant_under_deepening(self, c, seed, depth):
        # the deeper tree has about (c theta)^(depth + 2) nodes; depth is
        # lowered to keep that below 1e5 where it can (c = 1e3 still gives
        # 1e6 at depth 0)
        growth = c * extinction_prob(c).theta if c > 1.0 else 1.0
        while depth and growth ** (depth + 2) > 1e5:
            depth -= 1
        t = sample_pgw_star(c, depth, seed)
        t.validate()
        deep = sample_pgw_star(c, depth + 1, seed)
        # drop what grows below the type-I nodes expanded only in deep
        p, a, d = (np.array(x) for x in (deep.parent, deep.ntype, deep.depth))
        anc = np.arange(len(deep))  # ancestor at depth + 1, for deeper nodes
        while (d[anc] > depth + 1).any():
            anc = np.where(d[anc] > depth + 1, p[anc], anc)
        kept = np.flatnonzero((d <= depth + 1) | (a[anc] != TYPE_I))
        index = np.full(len(deep) + 1, -1)  # index[-1] maps the root's parent
        index[kept] = np.arange(len(kept))
        assert index[p[kept]].tolist() == t.parent.tolist()
        assert a[kept].tolist() == t.ntype.tolist()
        assert d[kept].tolist() == t.depth.tolist()
        was_open = np.array(deep.open_) | ((a == TYPE_I) & (d == depth + 1))
        assert was_open[kept].tolist() == t.open_.tolist()

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sample_pgw_star(0.9, 3, 0)
        with pytest.raises(ValueError):
            sample_pgw_star(2.0, -1, 0)


def _subtree_nodes(t, v):
    out = [v]
    stack = [v]
    while stack:
        x = stack.pop()
        for w in t.children[x]:
            out.append(w)
            stack.append(w)
    return out


class TestJointTable:
    """A type-I node's (type-I, type-F) counts come from one draw through
    the joint table of _star_tables: their law must be the product of
    Q*_{c theta} and Q_{cq}."""

    @pytest.mark.parametrize("c", [1.0001, 1.05, 2.0, 4.0, 100.0, 1e5])
    def test_marginals_are_the_laws(self, c):
        params = extinction_prob(c)
        qcdf = positive_poisson_cdf(params.ctheta)
        fcdf = poisson_cdf(params.cq)
        joint = np.asarray(trees._star_tables(c)[0])
        assert np.all(np.diff(joint) >= 0.0) and joint[-1] == 1.0
        pmf = np.diff(joint, prepend=0.0).reshape(len(qcdf), len(fcdf))
        for got, table in ((pmf.sum(axis=1), qcdf), (pmf.sum(axis=0), fcdf)):
            want = np.diff(table, prepend=0.0)
            assert np.abs(got - want).max() <= 1e-15, c

    @pytest.mark.parametrize("c", [1.5, 2.0])
    def test_root_counts_independent(self, c):
        # chi-square contingency of the root's type-I count (1, 2, 3, >= 4)
        # against its type-F count (0, 1, 2, >= 3), on sample_pgw_star's
        # root and on the lam root of a coupled pair
        n = 20_000
        for sample in ("star", "coupled"):
            table = np.zeros((4, 4), int)
            for i in range(n):
                if sample == "star":
                    t = sample_pgw_star(c, 0, derive_seed(12, "joint", c, i))
                    kids = t.ntype[t.children[t.root]]
                    n_i = int(np.count_nonzero(kids == TYPE_I))
                    n_f = len(kids) - n_i
                else:
                    root = sample_coupled_trees(c, c + 0.5, 1, derive_seed(
                        12, "joint-coupled", c, i)).root_couple
                    n_i, n_f = root.n_inf_lo, sum(root.n_fin_lo.values())
                table[min(n_i, 4) - 1, min(n_f, 3)] += 1
            assert chi2_contingency(table).pvalue >= 1e-6, (sample, table)


class TestUniformRootedTree:
    def test_tiny_sizes(self):
        t1 = sample_uniform_rooted_tree(1, 0)
        assert len(t1) == 1
        t2 = sample_uniform_rooted_tree(2, 0)
        assert len(t2) == 2 and t2.parent[1] == 0

    def test_validate_and_size(self):
        for n in [1, 2, 3, 4, 9, 30, 20_000]:
            t = sample_uniform_rooted_tree(n, derive_seed(8, n))
            t.validate()
            assert len(t) == n
            assert (np.diff(t.depth) >= 0).all()  # ids are breadth first

    def test_root_degree_two_on_three_vertices(self):
        # all labeled trees on 3 vertices are paths; a uniform root is the
        # middle vertex with probability exactly 1/3
        n = 30_000
        hits = sum(
            len(sample_uniform_rooted_tree(3, derive_seed(9, i)).children[0]) == 2
            for i in range(n))
        band = 3.0 * math.sqrt((1 / 3) * (2 / 3) / n)
        assert abs(hits / n - 1 / 3) <= band

    def test_mean_root_degree(self):
        # handshake: mean degree of a uniform vertex is 2(n-1)/n
        n = 30_000
        total = sum(
            len(sample_uniform_rooted_tree(8, derive_seed(10, i)).children[0])
            for i in range(n))
        want = 2.0 * 7.0 / 8.0
        # degree of a uniform root of a uniform tree on 8 vertices is in [1,7]
        sd_bound = 1.5
        assert abs(total / n - want) <= 3.0 * sd_bound / math.sqrt(n)

    def test_growth_domination_in_n(self):
        # finite-size consequence of the size-coupled growth: the maximal
        # root-child subtree size is stochastically larger for larger n
        nsamp = 20_000
        data = {}
        for n in (5, 10, 20):
            vals = np.zeros(nsamp)
            for i in range(nsamp):
                t = sample_uniform_rooted_tree(n, derive_seed(11, n, i))
                hist = subtree_stats(t)
                vals[i] = max(hist.keys()) if hist else 0
            data[n] = vals
        for n_small, n_big in [(5, 10), (10, 20)]:
            for m in range(1, n_small + 1):
                p_small = float((data[n_small] >= m).mean())
                p_big = float((data[n_big] >= m).mean())
                se = math.sqrt(p_small * (1 - p_small) / nsamp
                               + p_big * (1 - p_big) / nsamp)
                assert p_big >= p_small - 3.0 * se, (n_small, n_big, m)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            sample_uniform_rooted_tree(0, 0)

    @pytest.mark.parametrize("n, want", [
        (4, {"(((())))": 24, "((())())": 24, "((()()))": 12, "(()()())": 4}),
        (5, {"((((()))))": 120, "(((()))())": 120, "(((())()))": 120,
             "((())()())": 60, "((()())())": 60, "(((()())))": 60,
             "((())(()))": 60, "((()()()))": 20, "(()()()())": 5})])
    def test_shape_law(self, n, want):
        # labels dropped, each unordered shape has the probability of its
        # rooted labelings among all n^(n-1) rooted labeled trees
        draws = 40_000
        got = Counter(
            shape(sample_uniform_rooted_tree(n, derive_seed(12, n, i)))
            for i in range(draws))
        assert got.keys() <= want.keys()
        expect = {s: k * draws / n ** (n - 1) for s, k in want.items()}
        stat = sum((got[s] - e) ** 2 / e for s, e in expect.items())
        assert chi2.sf(stat, len(want) - 1) >= 1e-4, got


class TestSubtreeStats:
    def test_path_sizes(self):
        t = make_path(3)
        subtree_stats(t)
        assert t.subtree_size.tolist() == [3.0, 2.0, 1.0]

    def test_star_histogram(self):
        t = RootedTree()
        t.add_node(-1, open_=False)
        for _ in range(4):
            t.add_node(0, open_=False)
        hist = subtree_stats(t)
        assert hist == {1.0: 4}

    def test_infinite_markers(self):
        t = sample_pgw_star(2.0, 2, seed=13)
        subtree_stats(t)
        for v in range(len(t)):
            if t.ntype[v] == TYPE_I:
                assert math.isinf(t.subtree_size[v])
            elif not t.open_[v]:
                assert t.subtree_size[v] >= 1.0


class TestSerialization:
    def test_roundtrip(self):
        t = sample_pgw_star(1.5, 3, seed=21)
        text = tree_to_text(t)
        back = tree_from_text(text)
        assert tree_to_text(back) == text
        assert len(back) == len(t)
        assert back.parent.tolist() == t.parent.tolist()
        assert back.ntype.tolist() == t.ntype.tolist()

    @pytest.mark.parametrize("text", [
        "0 -1 I inf\n1 -1 F 1\n2 1 F 1\n",  # a second root
        "0 0 I inf\n1 0 F 1\n",  # the root has a parent
        "0 -2 U 1\n",
    ])
    def test_forest_or_rootless_raises(self, text):
        with pytest.raises(ValueError, match="follow the id of their parent"):
            tree_from_text(text)

    @pytest.mark.parametrize("text, where", [
        ("", "empty text"),
        ("0 -1 I\n", "line 1"),
        ("0 -1 I inf\n1 0 F 1\n2 0 F\n3 0 F 1\n", "line 3"),
        ("0 -1 I inf\n1 x F 1\n", "line 2"),
        ("0 -1 I inf\n1 0 F one\n", "line 2"),
        ("0 -1 I inf\n1 0 F nan\n", "line 2"),
        ("0 -1 I inf\n1 0 F -3\n", "line 2"),
        ("0 -1 I inf\n99999999999999999999 0 F 1\n", "line 2"),
        ("0 -1 I inf\n1 -99999999999999999999 F 1\n", "line 2"),
    ], ids=["empty", "three-fields", "one-short-line", "parent-not-int",
            "size-not-float", "size-nan", "size-negative", "id-past-int64",
            "parent-past-int64"])
    def test_malformed_line_named(self, text, where):
        with pytest.raises(ValueError, match=f"^{where}: .*'id parent-id "
                                             "type N'"):
            tree_from_text(text)

    def test_unknown_type_letter(self):
        with pytest.raises(ValueError, match="'X'"):
            tree_from_text("0 -1 X inf\n")

    def test_format_fields(self):
        t = make_path(2)
        lines = tree_to_text(t).strip().splitlines()
        assert lines[0].split() == ["0", "-1", "U", "2"]
        assert lines[1].split() == ["1", "0", "U", "1"]
