"""The tree arena: every consumer of a RootedTree against a plain-Python
reference, and sampler outputs pinned bit for bit."""

import hashlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwtree import (TYPE_F, TYPE_I, RootedTree, sample_pgw, sample_pgw_star,
                    sample_uniform_rooted_tree, subtree_stats, tree_from_text,
                    tree_to_text, trees)
from gwtree.domination import OffspringCouple, sample_coupled_trees


def reference_violation(parent, ntype, open_, children, size):
    """The first invariant that validate() finds broken, at its first node,
    or None."""
    n = len(parent)
    for v in range(1, n):
        if not 0 <= parent[v] < v:
            return f"parent/children mismatch at node {v}"
    for v in range(1, n):
        if ntype[parent[v]] == TYPE_F and ntype[v] != TYPE_F:
            return f"type-F node {parent[v]} has non-F child {v}"
    for v in range(n):
        if ntype[v] == TYPE_I and not open_[v] and not any(
                ntype[w] == TYPE_I for w in children[v]):
            return f"expanded type-I node {v} has no type-I child"
    for v in range(n):
        if not open_[v] and ntype[v] != TYPE_I and size[v] != 1 + sum(
                size[w] for w in children[v]):
            return f"subtree size inconsistent at node {v}"
    return None


def check_against_reference(t, corrupt=None):
    """children, subtree_stats, validate, specified_depth and the text round
    trip of t agree with loops over plain lists; corrupt = (node, amount)
    adds amount to one finite subtree size before validate runs."""
    parent, ntype, open_ = (a.tolist() for a in (t.parent, t.ntype, t.open_))
    n = len(parent)
    children = [[] for _ in range(n)]
    depth = [0] * n
    for v in range(1, n):
        children[parent[v]].append(v)
        depth[v] = depth[parent[v]] + 1
    size = [0.0] * n
    for v in reversed(range(n)):  # parents precede their children
        size[v] = (math.inf if ntype[v] == TYPE_I or open_[v]
                   else 1.0 + sum(size[w] for w in children[v]))

    assert [list(kids) for kids in t.children] == children
    assert all(type(w) is int for kids in t.children for w in kids)
    assert subtree_stats(t) == Counter(size[w] for w in children[0])
    assert t.subtree_size.tolist() == size
    open_depths = [d for d, o in zip(depth, open_) if o]
    assert t.specified_depth() == (min(open_depths) - 1 if open_depths
                                   else math.inf)

    text = "".join(f"{v} {parent[v]} {'UIF'[ntype[v]]} "
                   f"{'inf' if math.isinf(size[v]) else int(size[v])}\n"
                   for v in range(n))
    assert tree_to_text(t) == text
    back = tree_from_text(text)
    assert tree_to_text(back) == text
    assert [back.parent.tolist(), back.depth.tolist(),
            back.ntype.tolist()] == [parent, depth, ntype]
    assert back.open_.tolist() == [math.isinf(size[v]) and not children[v]
                                   for v in range(n)]

    if corrupt is not None:
        v = corrupt[0] % n
        if math.isfinite(size[v]):
            t.subtree_size[v] += corrupt[1]
            size[v] += corrupt[1]
    want = reference_violation(parent, ntype, open_, children, size)
    if want is None:
        t.validate()
    else:
        with pytest.raises(ValueError) as err:
            t.validate()
        assert str(err.value) == want


@st.composite
def hand_built_trees(draw):
    """add_node in arbitrary order: each node hangs from any earlier one, so
    children are interleaved with other nodes' children."""
    types = st.sampled_from([0, TYPE_I, TYPE_F])
    t = RootedTree()
    n = draw(st.integers(1, 40))
    for v in range(n):
        p = draw(st.integers(0, v - 1)) if v else -1
        t.add_node(p, draw(types), open_=draw(st.booleans()))
    for v in draw(st.lists(st.integers(0, n - 1), max_size=4)):
        t.open_[v] = not t.open_[v]  # writes through the views persist
    return t


def coupled_side(depth, seed, side, complete):
    """One side of a coupled pair at (1.5, 2.0), as built or completed."""
    pair = sample_coupled_trees(1.5, 2.0, depth, seed)
    return getattr(pair.complete() if complete else pair, side)


SEEDS = st.integers(0, (1 << 63) - 1)
SAMPLED_TREES = st.one_of(
    st.builds(sample_pgw, st.floats(0.5, 3.0), st.integers(1, 300), SEEDS),
    st.builds(sample_pgw_star, st.floats(1.0, 3.0), st.integers(0, 3), SEEDS),
    st.builds(sample_uniform_rooted_tree, st.integers(1, 60), SEEDS),
    st.builds(coupled_side, st.integers(1, 3), SEEDS,
              st.sampled_from(["lo", "hi"]), st.booleans()))
CORRUPTIONS = st.none() | st.tuples(st.integers(0, 1000),
                                    st.sampled_from([-1.0, 1.0]))


class TestArenaAgainstReference:
    @given(hand_built_trees(), CORRUPTIONS)
    @settings(max_examples=200, deadline=None)
    def test_hand_built(self, t, corrupt):
        check_against_reference(t, corrupt)

    @given(SAMPLED_TREES, CORRUPTIONS)
    @settings(max_examples=150, deadline=None)
    def test_sampled(self, t, corrupt):
        check_against_reference(t, corrupt)

    @given(SAMPLED_TREES)
    @settings(max_examples=250, deadline=None)
    def test_text_round_trip_keeps_open(self, t):
        # a sampler leaves open only childless nodes, whose subtrees are
        # infinite, and every other infinite node has children
        back = tree_from_text(tree_to_text(t))
        assert np.array_equal(back.open_, t.open_)

    def test_parent_after_child_is_rejected(self):
        # node 1 hangs from node 2: subtree_stats would give the root size 2
        t = RootedTree([-1, 2, 0], [TYPE_F] * 3, [False] * 3)
        assert reference_violation(t.parent.tolist(), t.ntype.tolist(),
                                   t.open_.tolist(), [[2], [], [1]],
                                   [3.0, 1.0, 2.0]) == (
            "parent/children mismatch at node 1")
        with pytest.raises(ValueError,
                           match="parent/children mismatch at node 1"):
            t.validate()

    def test_detects_unordered_children(self):
        # a children CSR that lost the stable ordering must fail the check
        t = RootedTree()
        t.add_node(-1, open_=False)
        for p in (0, 0, 1, 0):
            t.add_node(p, open_=False)
        check_against_reference(t)
        t._children = tuple(kids[::-1] for kids in t.children)
        with pytest.raises(AssertionError):
            check_against_reference(t)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a, np.int64).tobytes())
    return h.hexdigest()[:16]


def tree_digest(t) -> str:
    return digest(t.parent, t.ntype, t.depth, t.open_)


class TestSamplersPinned:
    """Digests of parent, ntype, depth and open_ (and of the sorted node map)
    of the trees the list builders make.  sample_pgw_star draws a type-I
    node's two counts from its draw 0 through the joint table and grows each
    bush from its root's path key, the coupled pairs draw a lam node's two
    counts from one uniform through the same table and mark the bushes of
    their lam side; the pairs are pinned as built with their mu-only
    subtrees open, then with hi completed by path-keyed draws.
    sample_uniform_rooted_tree builds its trees breadth first from the
    cycle-lemma rotation of multinomial child counts."""

    @pytest.mark.parametrize("seed, capped, want", [
        (0, True, "e8435bca667ebdcf"), (1, True, "0d8fdfe71a9b3569"),
        (2, True, "6aa17071bc2d5cbf")])
    def test_pgw(self, seed, capped, want):
        t = sample_pgw(2.0, 5000, seed)
        assert (t.capped, tree_digest(t)) == (capped, want)

    @pytest.mark.parametrize("seed, want", [
        (0, "b1421a6562d32db8"), (1, "078acbbc04f4e38b"),
        (2, "4eced99db98fa630")])
    def test_pgw_star(self, seed, want):
        assert tree_digest(sample_pgw_star(2.0, 6, seed)) == want

    @pytest.mark.parametrize("seed, want", [
        (0, "43e4dc0ba8571607"), (1, "22cf28c6d63c8fa8"),
        (2, "0e0eca3239efe072")])
    def test_uniform(self, seed, want):
        assert tree_digest(sample_uniform_rooted_tree(200, seed)) == want

    @pytest.mark.parametrize("seed, want", [
        (0, ("8fdb8c301c12f1ab", "de1f3d547ea66ee4", "d6f31fb4b42f7b42",
             "65f784d113a8191e")),
        (1, ("56ce87154fc9f486", "43b027e6911cd457", "d2c44159148812d1",
             "f8173231a683efb6")),
        (2, ("14f92abbe316a92f", "7754fedc51369a98", "b72d87a97c643a40",
             "d618436976dce16c"))])
    def test_coupled(self, seed, want):
        pair = sample_coupled_trees(1.5, 2.0, 6, seed)
        assert all(type(x) is int for item in pair.node_map.items()
                   for x in item)
        lazy = (tree_digest(pair.lo), tree_digest(pair.hi),
                digest(sorted(pair.node_map.items())))
        assert lazy + (tree_digest(pair.complete().hi),) == want

    def test_pgw_star_bush_resamples(self, monkeypatch):
        # a cap of 2 nodes discards about half the Poisson(1) bushes, so the
        # resampled bushes draw on from where the discarded ones stopped
        monkeypatch.setattr(trees, "BUSH_NODE_CAP", 2)
        t = sample_pgw_star(1.0, 20, seed=8)
        assert (len(t), t.bush_resamples, tree_digest(t)) == (
            70, 18, "2c346f05757e0ea1")

    @pytest.mark.parametrize("lam, mu, depth, seed, cap, want", [
        # near lam = 1 a lam bush passes a cap of 2 nodes often
        (1.01, 1.5, 3, 5, 2, (
            (8, 9, 1), ("4726a78ec57f12a4", "180e08a348183b35",
                        "09d1783e2a3311e8", "180e08a348183b35"),
            OffspringCouple({1: 1}, {1: 1}, 1, 1))),
        # a near-critical pair of 150 + 150 nodes, its bushes all shared
        (1.005, 1.01, 3, 1, trees.BUSH_NODE_CAP, (
            (150, 150, 0), ("d534e5c213832a3b", "d534e5c213832a3b",
                            "c90135d7f502deb1", "d534e5c213832a3b"),
            OffspringCouple({}, {}, 1, 1)))])
    def test_coupled_off_the_common_path(self, monkeypatch, lam, mu, depth,
                                         seed, cap, want):
        monkeypatch.setattr(trees, "BUSH_NODE_CAP", cap)
        pair = sample_coupled_trees(lam, mu, depth, seed)
        sizes = (len(pair.lo), len(pair.hi), pair.lo.bush_resamples)
        lazy = (tree_digest(pair.lo), tree_digest(pair.hi),
                digest(sorted(pair.node_map.items())))
        got = (sizes, lazy + (tree_digest(pair.complete().hi),),
               pair.root_couple)
        assert got == want
