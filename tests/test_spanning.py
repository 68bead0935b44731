"""Random graphs, giant components, and Matrix-Tree counting."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from gwtree import (SparseGraph, empirical_f, extinction_prob, giant_component,
                    log_spanning_trees, read_edgelist, sample_gnp,
                    write_edgelist)
from gwtree.rng import derive_seed
from gwtree.spanning import _schur_log_det


def complete_graph(n):
    iu = np.triu_indices(n, k=1)
    return SparseGraph(n, np.stack(iu, axis=1))


def spanning_tree_count_brute(g):
    """Oracle: enumerate all (n-1)-edge subsets and count the acyclic
    connected ones (only feasible for tiny graphs)."""
    n, edges = g.n, [tuple(e) for e in g.edges]
    count = 0
    for subset in itertools.combinations(edges, n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        count += ok
    return count


def dense_log_tau(g):
    """Oracle: slogdet of the dense reduced Laplacian (ground vertex 0)."""
    lap = np.diag(g.degrees().astype(float))
    lap[g.edges[:, 0], g.edges[:, 1]] = -1.0
    lap[g.edges[:, 1], g.edges[:, 0]] = -1.0
    sign, logdet = np.linalg.slogdet(lap[1:, 1:])
    assert sign == 1.0
    return logdet


@st.composite
def connected_graphs(draw):
    """Giants of G(n, c/n) with n <= 300, and paths, cycles, stars and
    complete graphs; each with a ground vertex."""
    kind = draw(st.sampled_from(["giant", "path", "cycle", "star", "complete"]))
    if kind == "giant":
        n = draw(st.integers(2, 300))
        c = draw(st.floats(1.1, 8.0))
        seed = draw(st.integers(0, 2**32 - 1))
        g = giant_component(sample_gnp(n, min(1.0, c / n), seed))[0]
    elif kind == "complete":
        g = complete_graph(draw(st.integers(1, 60)))
    else:
        n = draw(st.integers(3, 300))
        pairs = {"path": [(i, i + 1) for i in range(n - 1)],
                 "cycle": [(i, (i + 1) % n) for i in range(n)],
                 "star": [(0, i) for i in range(1, n)]}[kind]
        g = SparseGraph.from_edges(n, pairs)
    return g, draw(st.integers(0, g.n - 1))


class TestSparseGraph:
    def test_validation(self):
        with pytest.raises(ValueError):
            SparseGraph(3, [[0, 3]])
        with pytest.raises(ValueError):
            SparseGraph(3, [[1, 1]])
        with pytest.raises(ValueError):
            SparseGraph(3, [[0, 1], [0, 1]])
        with pytest.raises(ValueError, match="duplicate"):
            SparseGraph(3, [[0, 2], [0, 1], [0, 2]])  # unsorted duplicates
        with pytest.raises(ValueError):
            SparseGraph(0, [])

    def test_from_edges_canonicalizes(self):
        g = SparseGraph.from_edges(4, [(2, 0), (0, 2), (3, 1)])
        assert g.m == 2
        assert g.edges.tolist() == [[0, 2], [1, 3]]

    def test_degrees(self):
        g = SparseGraph(3, [[0, 1], [0, 2]])
        assert g.degrees().tolist() == [2, 1, 1]


class TestSampleGnp:
    def test_degenerate_probabilities(self):
        assert sample_gnp(50, 0.0, seed=0).m == 0
        assert sample_gnp(10, 1.0, seed=0).m == 45
        assert sample_gnp(1, 0.5, seed=0).m == 0

    def test_determinism(self):
        g1 = sample_gnp(300, 0.01, seed=5)
        g2 = sample_gnp(300, 0.01, seed=5)
        assert np.array_equal(g1.edges, g2.edges)

    def test_mean_edge_count(self):
        n, reps = 3000, 200
        p = 3.0 / n
        counts = np.array([sample_gnp(n, p, derive_seed(1, r)).m
                           for r in range(reps)])
        want = n * (n - 1) / 2 * p
        sd = math.sqrt(n * (n - 1) / 2 * p * (1 - p))
        assert abs(counts.mean() - want) <= 3.0 * sd / math.sqrt(reps)

    def test_edges_valid(self):
        sample_gnp(500, 0.02, seed=9).validate()

    def test_p_validation(self):
        with pytest.raises(ValueError):
            sample_gnp(10, -0.1, seed=0)
        with pytest.raises(ValueError):
            sample_gnp(10, 1.1, seed=0)


class TestGiantComponent:
    def test_connected_graph_is_itself(self):
        g = complete_graph(5)
        giant, mapping = giant_component(g)
        assert giant.n == 5 and giant.m == g.m
        assert mapping.tolist() == [0, 1, 2, 3, 4]

    def test_tie_break_smallest_vertex(self):
        g = SparseGraph(6, [[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5]])
        giant, mapping = giant_component(g)
        assert giant.n == 3
        assert mapping.tolist() == [0, 1, 2]

    def test_relabeling_preserves_structure(self):
        g = SparseGraph(7, [[2, 4], [4, 6], [0, 1]])
        giant, mapping = giant_component(g)
        assert giant.n == 3 and giant.m == 2
        assert sorted(mapping.tolist()) == [2, 4, 6]
        assert sorted(giant.degrees().tolist()) == [1, 1, 2]

    def test_giant_fraction_matches_survival_probability(self):
        n, reps = 5000, 100
        theta = extinction_prob(2.0).theta
        fracs = np.array([
            giant_component(sample_gnp(n, 2.0 / n, derive_seed(2, r)))[0].n / n
            for r in range(reps)])
        assert abs(fracs.mean() - theta) <= 3.0 * fracs.std(ddof=1) / math.sqrt(reps)


class TestLogSpanningTrees:
    def test_triangle(self):
        g = SparseGraph(3, [[0, 1], [0, 2], [1, 2]])
        assert log_spanning_trees(g).log_tau == pytest.approx(math.log(3), rel=1e-12)

    def test_k4_against_brute_force(self):
        g = complete_graph(4)
        assert spanning_tree_count_brute(g) == 16
        assert log_spanning_trees(g).log_tau == pytest.approx(math.log(16), rel=1e-12)

    def test_k8_cayley(self):
        got = log_spanning_trees(complete_graph(8)).log_tau
        assert got == pytest.approx(6.0 * math.log(8), rel=1e-12)

    def test_tree_has_one_spanning_tree(self):
        g = SparseGraph(5, [[0, 1], [1, 2], [2, 3], [3, 4]])
        assert log_spanning_trees(g).log_tau == 0.0

    def test_single_vertex(self):
        res = log_spanning_trees(SparseGraph(1, []))
        assert res.log_tau == 0.0 and res.per_vertex == 0.0

    @pytest.mark.parametrize("kind, want", [
        ("path", 0.0), ("star", 0.0), ("cycle", math.log(4000)),
        ("complete", 498 * math.log(500))])
    def test_closed_forms_past_the_oracle(self, kind, want):
        # id-ordered paths and stars take many rounds (and rely on the hashed
        # tie-break); K_500 is dense at once
        n, ids = 4000, np.arange(4000)
        g = {"path": lambda: SparseGraph(n, np.stack([ids[:-1], ids[1:]], 1)),
             "star": lambda: SparseGraph(n, np.stack([0 * ids[1:], ids[1:]], 1)),
             "cycle": lambda: SparseGraph.from_edges(
                 n, np.stack([ids, (ids + 1) % n], 1)),
             "complete": lambda: complete_graph(500)}[kind]()
        assert log_spanning_trees(g).log_tau == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("c", [2.0, 3.0, 4.0])
    def test_cli_scale_giants(self, c):
        # the CLI's largest graphs: many rounds, then a tail of up to 1,250 rows
        g = giant_component(sample_gnp(4000, c / 4000, derive_seed(31, c)))[0]
        want = dense_log_tau(g)
        assert log_spanning_trees(g).log_tau == pytest.approx(want, rel=1e-10)

    def test_fill_bound_stops_the_rounds(self, monkeypatch):
        # K_{30,3000} grounded on the small side: its first round would
        # eliminate the 3,000 big-side vertices at once, 2.5 million fill
        # pairs for 812 distinct entries, so the whole matrix goes dense
        tails = []
        real = lapack.dpotrf  # spanning imports it at each call
        monkeypatch.setattr(lapack, "dpotrf",
                            lambda a, **kw: tails.append(len(a)) or real(a, **kw))
        a, b = 30, 3000
        edges = np.stack([np.repeat(np.arange(a), b),
                          a + np.tile(np.arange(b), a)], 1)
        got = log_spanning_trees(SparseGraph(a + b, edges)).log_tau
        want = (b - 1) * math.log(a) + (a - 1) * math.log(b)
        assert got == pytest.approx(want, rel=1e-12)
        assert tails == [a + b - 1]

    def test_first_round_past_the_switch(self):
        # mean degree 40: the first round's fill takes the matrix past the
        # dense switch
        g = giant_component(sample_gnp(3000, 40.0 / 3000, seed=8))[0]
        want = dense_log_tau(g)
        assert log_spanning_trees(g).log_tau == pytest.approx(want, rel=1e-10)

    def test_pivot_error_names_the_row(self):
        # the dense path: only row 1 of [[2, 0, 1], [0, -1, 0], [1, 0, 2]]
        # has a negative pivot in any order; its one entry above the
        # diagonal is (0, 2, 1.0) and its row sums are [3, -1, 3]
        i, j, w = np.array([0]), np.array([2]), np.array([1.0])
        excess = np.array([3.0, -1.0, 3.0])
        with pytest.raises(ValueError, match="pivot at vertex 1:"):
            _schur_log_det(3, i, j, w, excess, np.arange(3))
        with pytest.raises(ValueError, match="pivot at vertex 11:"):
            _schur_log_det(3, i, j, w, excess, labels=[10, 11, 12])
        # the sparse rounds: a diagonal matrix with one negative entry, no
        # entries off the diagonal and its diagonal as row sums
        diag = np.ones(100)
        diag[37] = -1.0
        none = np.array([], np.int64)
        with pytest.raises(ValueError, match="pivot at vertex 37:"):
            _schur_log_det(100, none, none, np.array([]), diag,
                           np.arange(100))

    def test_disconnected_raises_with_pivot(self):
        g = SparseGraph(4, [[0, 1], [2, 3]])
        with pytest.raises(ValueError, match="pivot"):
            log_spanning_trees(g)

    @given(connected_graphs())
    @settings(max_examples=80, deadline=None)
    def test_matches_dense_oracle_at_any_ground(self, case):
        g, ground = case
        want = dense_log_tau(g)
        for got in (log_spanning_trees(g).log_tau,
                    log_spanning_trees(g, ground=ground).log_tau):
            if g.m == g.n - 1:  # a tree: tau = 1
                assert abs(got) <= 1e-12
            else:
                assert got == pytest.approx(want, rel=1e-10)

    def test_disconnected_always_raises(self):
        k50 = complete_graph(50).edges
        giant = giant_component(sample_gnp(500, 3.0 / 500, seed=12))[0]
        for g in (SparseGraph(100, np.concatenate([k50, k50 + 50])),
                  SparseGraph(giant.n + 1, giant.edges)):  # one isolated vertex
            for ground in (0, g.n // 2, g.n - 1):
                with pytest.raises(ValueError, match="pivot"):
                    log_spanning_trees(g, ground=ground)

    def test_repeat_calls_bitwise_equal(self):
        g = giant_component(sample_gnp(1500, 3.0 / 1500, seed=13))[0]
        assert log_spanning_trees(g).log_tau == log_spanning_trees(g).log_tau

    def test_ground_row_invariance(self):
        g = giant_component(sample_gnp(400, 2.5 / 400, seed=3))[0]
        base = log_spanning_trees(g, ground=0).log_tau
        for ground in (1, g.n // 2, g.n - 1):
            other = log_spanning_trees(g, ground=ground).log_tau
            assert abs(other - base) <= 1e-8 * g.n

    def test_per_vertex_sanity_bound(self):
        for r in range(5):
            g = giant_component(sample_gnp(800, 3.0 / 800, derive_seed(4, r)))[0]
            res = log_spanning_trees(g)
            bound = (g.m / g.n) * math.log(2.0) + math.log(2.0 * g.m / g.n)
            assert 0.0 <= res.per_vertex <= bound
            assert math.isfinite(res.per_vertex)


class TestEmpiricalF:
    def test_bit_identical(self):
        r1 = empirical_f(400, 2.0, 3, seed=6)
        r2 = empirical_f(400, 2.0, 3, seed=6)
        assert r1.value == r2.value and r1.stderr == r2.stderr

    def test_monotone_in_c(self):
        lo = empirical_f(1000, 2.0, 10, seed=7)
        hi = empirical_f(1000, 4.0, 10, seed=7)
        sep = math.hypot(lo.stderr, hi.stderr)
        assert hi.value - lo.value >= 3.0 * sep

    def test_single_rep_has_nan_stderr(self):
        rep = empirical_f(300, 2.0, 1, seed=8)
        assert math.isnan(rep.stderr)
        assert rep.n_samples == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            empirical_f(5000, 2.0, 2, seed=0)  # above the factorization cap
        with pytest.raises(ValueError):
            empirical_f(100, 1.0, 2, seed=0)
        with pytest.raises(ValueError):
            empirical_f(100, 2.0, 0, seed=0)


class TestEdgelistIO:
    def test_roundtrip(self, tmp_path):
        g = sample_gnp(60, 0.1, seed=9)
        path = tmp_path / "graph.txt"
        write_edgelist(g, path)
        back = read_edgelist(path)
        assert back.n == g.n
        assert np.array_equal(back.edges, g.edges)
        header = path.read_text().splitlines()[0]
        assert header == f"{g.n} {g.m}"

    @pytest.mark.parametrize("text, line", [
        ("5 3\n0 1\n1 2\n", 4),          # truncated: third edge missing
        ("5 1\n0 1\n1 2\n", 3),          # an edge past the header's m
        ("5 2\n0 1\n1\n", 3),            # malformed edge line
        ("5\n", 1),                        # header without m
        ("0 0\n", 1),                      # no vertices
        ("", 1),                            # empty file
    ])
    def test_malformed_files_name_the_line(self, tmp_path, text, line):
        path = tmp_path / "graph.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"graph.txt:{line}:"):
            read_edgelist(path)
