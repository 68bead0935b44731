"""Walk computations: exact return profiles, killed walks, estimators."""

import hashlib
import math
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np
import pytest
from scipy.stats import poisson

from gwtree import (EstimateReport, estimate_f, estimate_return_integral,
                    expected_log_degree, extinction_prob, green_truncation_bound,
                    green_value, killed_walk_visits, pbar_decay_diagnostic,
                    required_depth_for_killed_walk, return_probs, return_sum,
                    sample_coupled_trees, sample_pgw_star)
from gwtree import laws, trees, walk
from gwtree.rng import child_key, derive_seed
from gwtree.trees import RootedTree
from gwtree.walk import _annealed_return_walks


def single_edge():
    t = RootedTree()
    t.add_node(-1, open_=False)
    t.add_node(0, open_=False)
    return t


def path3():
    t = RootedTree()
    t.add_node(-1, open_=False)
    t.add_node(0, open_=False)
    t.add_node(1, open_=False)
    return t


def star(d):
    t = RootedTree()
    t.add_node(-1, open_=False)
    for _ in range(d):
        t.add_node(0, open_=False)
    return t


def annealed_p2(c, kmax=120):
    """E[p_2] on the survival-conditioned tree, as an exact series.

    p_2 = (1/D) sum over root children v of 1/deg(v).  A type-I child has
    degree 1 + A + B with A ~ Q*_{c theta}, B ~ Poisson(c q); a type-F child
    has degree 1 + B.  The root's child counts (D_I, D_F) have the same two
    laws, independently, so
        E[p_2] = E[D_I/D] E[1/(1+A+B)] + E[D_F/D] E[1/(1+B)].
    """
    p = extinction_prob(c)
    ks = np.arange(kmax + 1)
    pa = np.where(ks >= 1, poisson.pmf(ks, p.ctheta), 0.0) / -math.expm1(
        -p.ctheta)
    pb = poisson.pmf(ks, p.cq)
    joint = np.outer(pa, pb)
    a, b = np.meshgrid(ks, ks, indexing="ij")
    total = a + b
    share_i = float(np.sum(joint * np.divide(a, total, out=np.zeros(a.shape),
                                             where=total > 0)))
    inv_i = float(np.sum(joint / (1.0 + total)))
    inv_f = float(np.sum(pb / (1.0 + ks)))
    return share_i * inv_i + (1.0 - share_i) * inv_f


def transition_matrix(t):
    """Dense oracle: full row-stochastic transition matrix of the walk."""
    n = len(t)
    P = np.zeros((n, n))
    for v in range(n):
        nbrs = list(t.children[v]) + ([t.parent[v]] if v != t.root else [])
        for w in nbrs:
            P[v, w] = 1.0 / len(nbrs)
    return P


class TestReturnProbs:
    def test_single_edge(self):
        prof = return_probs(single_edge(), 8)
        assert prof.probs[1::2] == pytest.approx([1, 1, 1, 1])
        assert prof.probs[0::2] == pytest.approx([0, 0, 0, 0])
        assert prof.exact_upto == 8

    def test_path_against_matrix_powers(self):
        t = path3()
        P = transition_matrix(t)
        vec = np.zeros(3)
        vec[0] = 1.0
        prof = return_probs(t, 10)
        for k in range(1, 11):
            vec = vec @ P
            assert prof.probs[k - 1] == pytest.approx(vec[0], abs=1e-14)
        assert prof.probs[1] == pytest.approx(0.5)
        assert prof.probs[3] == pytest.approx(0.5)

    def test_star_alternates(self):
        prof = return_probs(star(7), 4)
        assert prof.probs[1] == pytest.approx(1.0)
        assert prof.probs[3] == pytest.approx(1.0)

    def test_sampled_tree_against_matrix_powers(self):
        for i in range(25):
            t = sample_pgw_star(1.5, 3, derive_seed(0, i))
            P = transition_matrix(t)
            vec = np.zeros(len(t))
            vec[0] = 1.0
            probs = return_probs(t, 6).probs
            for k in range(1, 7):
                vec = vec @ P
                assert probs[k - 1] == pytest.approx(vec[0], abs=1e-12), (i, k)

    def test_odd_parity_zero(self):
        for i in range(50):
            t = sample_pgw_star(2.0, 3, derive_seed(1, i))
            probs = return_probs(t, 6).probs
            assert (probs[0::2] == 0.0).all()

    def test_depth_precondition_error(self):
        t = sample_pgw_star(2.0, 2, seed=4)
        with pytest.raises(ValueError, match="depth 3"):
            return_probs(t, 6)

    def test_exact_upto_reporting(self):
        t = sample_pgw_star(2.0, 5, seed=4)
        assert return_probs(t, 6).exact_upto == 6
        assert return_probs(t, 10).exact_upto == 10
        assert return_probs(single_edge(), 12).exact_upto == 12

    def test_k_validation(self):
        with pytest.raises(ValueError):
            return_probs(single_edge(), 1)


class TestReturnSum:
    def test_single_edge_harmonic(self):
        K = 20
        want = 0.5 * sum(1.0 / j for j in range(1, K // 2 + 1))
        assert return_sum(single_edge(), K) == pytest.approx(want, rel=1e-12)

    def test_path_value(self):
        assert return_sum(path3(), 4) == pytest.approx(0.375)

    def test_nondecreasing_in_K(self):
        t = sample_pgw_star(2.0, 6, seed=9)
        sums = [return_sum(t, K) for K in (2, 4, 8, 12)]
        assert all(a <= b for a, b in zip(sums, sums[1:]))


class TestGreenValue:
    def test_single_edge_geometric(self):
        got = green_value(single_edge(), 0.5, 40)
        assert abs(got - 4.0 / 3.0) <= green_truncation_bound(0.5, 40) + 1e-12

    def test_at_least_one(self):
        t = sample_pgw_star(2.0, 4, seed=2)
        assert green_value(t, 0.7, 8) >= 1.0

    def test_small_s_limit(self):
        t = sample_pgw_star(2.0, 4, seed=2)
        assert green_value(t, 1e-6, 8) == pytest.approx(1.0, abs=1e-11)

    def test_quadrature_identity(self):
        # sum_k p_k / k = integral_0^1 (V_K(s) - 1)/s ds for the truncated
        # (polynomial) V; 64-point Gauss-Legendre is exact through degree 127
        t = path3()
        K = 60
        x, w = np.polynomial.legendre.leggauss(64)
        s = 0.5 * (x + 1.0)
        w = 0.5 * w
        integral = float(sum(
            wi * (green_value(t, si, K) - 1.0) / si for si, wi in zip(s, w)))
        assert integral == pytest.approx(return_sum(t, K), abs=1e-10)

    def test_s_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                green_value(single_edge(), bad, 8)


class TestKilledWalk:
    def test_at_least_one_visit(self):
        t = single_edge()
        assert all(killed_walk_visits(t, 0.5, seed=i) >= 1 for i in range(500))

    def test_mean_visits_is_green_value(self):
        t = single_edge()
        n = 20_000
        xs = np.array([killed_walk_visits(t, 0.5, derive_seed(3, i))
                       for i in range(n)])
        want = 4.0 / 3.0
        assert abs(xs.mean() - want) <= 3.0 * xs.std(ddof=1) / math.sqrt(n)

    def test_small_s_rarely_returns(self):
        s = 0.05
        t = star(3)
        n = 10_000
        ones = sum(killed_walk_visits(t, s, derive_seed(4, i)) == 1
                   for i in range(n))
        # returning needs two survived steps: P(X > 1) <= s^2
        assert ones / n >= 1.0 - 2.0 * s * s - 3.0 / math.sqrt(n)

    def test_depth_guard(self):
        t = sample_pgw_star(2.0, 3, seed=6)
        assert required_depth_for_killed_walk(0.7) == 39
        with pytest.raises(ValueError, match="39"):
            killed_walk_visits(t, 0.7, seed=0)

    def test_lazy_growth_allows_shallow_trees(self):
        t = sample_pgw_star(2.0, 3, seed=6)
        xs = [killed_walk_visits(t, 0.7, derive_seed(5, i), grow=2.0)
              for i in range(2000)]
        assert min(xs) >= 1

    def test_complete_tree_needs_no_guard(self):
        assert killed_walk_visits(single_edge(), 0.9, seed=1) >= 1

    def test_shallow_tree_without_growth_raises(self):
        pair = sample_coupled_trees(1.5, 2.0, 6, seed=3)
        for t, c in ((pair.lo, 1.5), (pair.hi, 2.0)):
            with pytest.raises(ValueError, match="grow=c"):
                killed_walk_visits(t, 0.7, seed=0)
            assert killed_walk_visits(t, 0.7, seed=0, grow=c) >= 1

    def test_lazy_growth_draws_pinned(self):
        # pinned visit counts of one fixed tree: the lazy-growth rates and
        # table, cached per c, must reproduce the walk's draws exactly
        t = sample_pgw_star(2.0, 3, seed=6)
        xs = [killed_walk_visits(t, 0.7, derive_seed(5, i), grow=2.0)
              for i in range(40)]
        assert xs == [1, 1, 2, 1, 1, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 1,
                      1, 2, 2, 1, 1, 2, 3, 1, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                      2, 2]
        assert sum(killed_walk_visits(t, 0.9, derive_seed(5, i), grow=2.0)
                   for i in range(2000)) == 4528

    def test_lazy_growth_law_is_the_annealed_walk(self):
        # E[visits] = 1 + sum_k s^k E[p_k] on a tree grown along the walk: a
        # depth-0 tree with grow=c against the annealed engine's hits
        c, s, n, m = 2.0, 0.7, 20_000, 400_000
        xs = np.array([killed_walk_visits(
            sample_pgw_star(c, 0, derive_seed(19, "tree", i)), s,
            derive_seed(19, "walk", i), grow=c) for i in range(n)])
        _, hits = _annealed_return_walks(c, 80, m, seed=19)
        want = 1.0 + sum(s ** k * hits[k] / m for k in range(1, 81))
        # per walk, the annealed sum is E[visits - 1 | path]: no more variance
        se = xs.std(ddof=1) * math.sqrt(1.0 / n + 1.0 / m)
        assert abs(xs.mean() - want) <= 4.0 * se, (xs.mean(), want, se)

    def test_grown_walk_leaves_tree_unchanged(self, monkeypatch):
        # a walk grows its own lists of the tree's parents and types, never
        # the tree; it inverts a table only to grow a node
        grown = []

        def counting_quantile(table, u):
            grown.append(u)
            return laws.quantile(table, u)
        monkeypatch.setattr(walk, "quantile", counting_quantile)
        def state(t):
            return len(t), [hashlib.sha256(a.tobytes()).hexdigest() for a in
                            (t.parent, t.depth, t.ntype, t.open_)]
        pair = sample_coupled_trees(1.5, 2.0, 2, seed=7)
        for t, c in ((pair.lo, 1.5), (pair.hi, 2.0)):
            before = state(t)
            for i in range(50):
                killed_walk_visits(t, 0.9, derive_seed(18, i), grow=c)
            assert state(t) == before
        assert grown


class TestTwoStepCrossCheck:
    def test_p2_equals_degree_formula(self):
        # p_2 = sum over children of (1/deg root)(1/deg child), per tree
        for i in range(200):
            t = sample_pgw_star(2.0, 2, derive_seed(6, i))
            p2 = return_probs(t, 2).probs[1]
            droot = t.degree(t.root)
            direct = sum(1.0 / (droot * t.degree(w))
                         for w in t.children[t.root])
            assert p2 == pytest.approx(direct, rel=1e-12)


class TestEstimators:
    def test_bit_identical_reports(self):
        r1 = estimate_return_integral(2.0, 20, 5000, seed=11)
        r2 = estimate_return_integral(2.0, 20, 5000, seed=11)
        assert r1.value == r2.value and r1.stderr == r2.stderr

    def test_monotone_in_K_per_seed(self):
        r20 = estimate_return_integral(2.0, 20, 20_000, seed=12)
        r60 = estimate_return_integral(2.0, 60, 20_000, seed=12)
        assert r60.value >= r20.value
        # dropped terms are bounded by the harmonic mass between the horizons
        assert r60.value - r20.value < sum(1.0 / k for k in range(21, 61))

    def test_return_integral_decreasing_in_c(self):
        r2 = estimate_return_integral(2.0, 40, 30_000, seed=13)
        r4 = estimate_return_integral(4.0, 40, 30_000, seed=13)
        sep = math.hypot(r2.stderr, r4.stderr)
        assert r2.value - r4.value >= 3.0 * sep

    def test_estimate_f_decomposition(self):
        c, K, n, seed = 2.0, 20, 5000, 14
        ret = estimate_return_integral(c, K, n, seed)
        f = estimate_f(c, K, n, seed)
        eld = expected_log_degree(extinction_prob(c))
        assert f.value == eld - ret.value
        assert f.stderr == ret.stderr

    def test_estimate_f_truncation_direction(self):
        f20 = estimate_f(2.0, 20, 20_000, seed=15)
        f60 = estimate_f(2.0, 60, 20_000, seed=15)
        assert f20.value >= f60.value  # shorter horizon drops positive terms

    def test_report_shape(self):
        rep = estimate_return_integral(2.0, 20, 2000, seed=16)
        assert isinstance(rep, EstimateReport)
        assert rep.truncation == {"K": 20, "depth": 11}

    def test_large_c_terminates(self):
        rep = estimate_return_integral(800.0, 20, 10, 1)
        assert 0.0 <= rep.value < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_return_integral(1.0, 20, 100, seed=0)
        with pytest.raises(ValueError):
            estimate_return_integral(2.0, 19, 100, seed=0)
        with pytest.raises(ValueError):
            estimate_return_integral(2.0, 10, 100, seed=0)
        with pytest.raises(ValueError):
            estimate_return_integral(2.0, 20, 1, seed=0)


class TestAnnealedEnginePinned:
    """sha256 of (per_sample, hits) at K = 20, on path-keyed trees walked
    with per-walk stacks: several chunks, and a short chunk after full ones.
    c enters the tree key and the substream key as given, so c = 2 and
    c = 2.0 differ."""

    PINS = {
        (2, 20000, 1): (
            "a41f29176dc296cd22e5387cc1dd2f9852086f1b3d9d018795e94343c006b60e",
            "06df6193043e7373201b78169c4684cd648a6f6767400723aec6bd51e39a0b0c"),
        (4, 16389, 2): (
            "51593cab03ac5849a574b454c79b025c392e36c3a3e5a11c97605047caced00e",
            "8138e773ab92c2b944ebd00e4360aa1efeb5734b68a51c25173228e11d25eca4"),
        (1.5, 8192, 3): (
            "e1902d7e004a6e0edcf67f8c85a53933d6f83b67ef04d0020826fdeaf683d50d",
            "4a8543e464f9b3cc722890fc3aa1f0d63162b9a71896fc4045db7eef2a2ec943"),
    }

    @staticmethod
    def digests(c, n, seed, executor=None):
        per_sample, hits = _annealed_return_walks(c, 20, n, seed, executor,
                                                  workers=2)
        return tuple(hashlib.sha256(a.tobytes()).hexdigest()
                     for a in (per_sample, hits))

    def test_serial(self):
        for key, pin in self.PINS.items():
            assert self.digests(*key) == pin, key

    def test_two_workers(self):
        with ProcessPoolExecutor(max_workers=2) as ex:
            for key, pin in self.PINS.items():
                assert self.digests(*key, executor=ex) == pin, key

    def test_any_executor(self):
        # the run count comes from `workers`, not from the executor's fields
        with ThreadPoolExecutor(max_workers=2) as ex:
            for key, pin in self.PINS.items():
                assert self.digests(*key, executor=ex) == pin, key


class TestPathKeyedTrees:
    """The engine walks _grow_star's trees: the counts it draws for a key are
    those _grow_star gives the node of that key, at every type-I node and
    bush root the walks enter (deeper bush nodes are keyed by path in the
    engine and by draw order in _grow_star, so they are not compared)."""

    @staticmethod
    def reference(c, key, depth):
        """(is type I, type-I count, child count) by key, for the type-I
        nodes to depth and their bush roots of _grow_star's tree."""
        lists = ([-1], [0], [trees.TYPE_I])
        trees._grow_star(lists, 0, depth, key, c)
        t = trees._arena(lists)
        ref, stack = {}, [(0, key)]
        while stack:
            v, k = stack.pop()
            kids = t.children[v]
            n_i = int(np.count_nonzero(t.ntype[kids] == trees.TYPE_I))
            ref[k] = (True, n_i, len(kids))
            for i, w in enumerate(kids):
                if i >= n_i:
                    ref[child_key(k, i)] = (False, 0, len(t.children[w]))
                elif t.depth[w] <= depth:
                    stack.append((w, child_key(k, i)))
        return ref

    @pytest.mark.parametrize("c", [1.5, 2.0, 4.0])
    def test_counts_match_grow_star(self, monkeypatch, c):
        seed, m, depth = 23, 40, 4
        drawn = {}

        def recording(keys, is_i, qcdf, fcdf):
            n_i, n_child = counts(keys, is_i, qcdf, fcdf)
            for row in zip(keys.tolist(), is_i.tolist(), n_i.tolist(),
                           n_child.tolist()):
                assert drawn.setdefault(row[0], row[1:]) == row[1:]
            return n_i, n_child
        counts = walk._node_counts
        monkeypatch.setattr(walk, "_node_counts", recording)
        # the second chunk: walk j's tree is keyed by j over all chunks
        first = walk._WALK_CHUNK
        walk._walk_chunks(c, 20, seed, [first], first + m)

        tree_key = derive_seed(seed, "annealedtree", c)
        met = []
        for j in range(first, first + m):
            ref = self.reference(c, child_key(tree_key, j), depth)
            assert child_key(tree_key, j) in drawn  # the walk's root
            met += [(ref[k] == v, v[0]) for k, v in drawn.items() if k in ref]
        assert all(ok for ok, _ in met)
        # the walks met many type-I nodes and bush roots of the references
        assert sum(is_i for _, is_i in met) >= 2 * m
        assert sum(not is_i for _, is_i in met) >= 1


class TestDecayDiagnostic:
    @pytest.mark.parametrize("c", [1.5, 2.0, 3.0, 4.0])
    def test_p2_matches_exact_series(self, c):
        k, p, se = pbar_decay_diagnostic(c, 20, 200_000, seed=11).rows[1]
        assert k == 2
        assert abs(p - annealed_p2(c)) <= 4.0 * se, (p, annealed_p2(c), se)

    def test_table_and_fit(self):
        diag = pbar_decay_diagnostic(2.0, 40, 100_000, seed=17)
        ks = [k for k, _, _ in diag.rows]
        assert ks == list(range(1, 41))
        odd = [p for k, p, _ in diag.rows if k % 2 == 1]
        assert all(p == 0.0 for p in odd)
        assert diag.fit_slope < 0.0

    def test_eventually_nonincreasing(self):
        n = 150_000
        diag = pbar_decay_diagnostic(2.0, 40, n, seed=18)
        rows = {k: (p, se) for k, p, se in diag.rows}
        for k in range(10, 38, 2):
            p1, se1 = rows[k]
            p2, se2 = rows[k + 2]
            assert p2 <= p1 + 3.0 * math.hypot(se1, se2), (k, p1, p2)
