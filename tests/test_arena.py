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
                    tree_to_text)
from gwtree.domination import sample_coupled_trees


def reference_violation(parent, depth, ntype, open_, children, size):
    """The first invariant that validate() finds broken, at its first node,
    or None."""
    n = len(parent)
    for v in range(1, n):
        if not 0 <= parent[v] < n:
            return f"parent/children mismatch at node {v}"
    for v in range(1, n):
        if depth[v] != depth[parent[v]] + 1:
            return f"depth inconsistent at node {v}"
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
    parent, depth, ntype, open_ = (a.tolist() for a in
                                   (t.parent, t.depth, t.ntype, t.open_))
    n = len(parent)
    children = [[] for _ in range(n)]
    for v in range(1, n):
        children[parent[v]].append(v)
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
    want = reference_violation(parent, depth, ntype, open_, children, size)
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


SEEDS = st.integers(0, (1 << 63) - 1)
SAMPLED_TREES = st.one_of(
    st.builds(sample_pgw, st.floats(0.5, 3.0), st.integers(1, 300), SEEDS),
    st.builds(sample_pgw_star, st.floats(1.0, 3.0), st.integers(0, 3), SEEDS),
    st.builds(sample_uniform_rooted_tree, st.integers(1, 60), SEEDS),
    st.builds(lambda depth, seed, side: getattr(
        sample_coupled_trees(1.5, 2.0, depth, seed), side),
        st.integers(1, 3), SEEDS, st.sampled_from(["lo", "hi"])))
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
    taken from the per-node list arena that the numpy arena replaced: the
    arrays must hold exactly the trees the list builders made."""

    @pytest.mark.parametrize("seed, capped, want", [
        (0, True, "1dd8a6d7c589acd4"), (1, True, "c095cebea481f3c1"),
        (2, False, "74bc0c3170a226de")])
    def test_pgw(self, seed, capped, want):
        t = sample_pgw(2.0, 5000, seed)
        assert (t.capped, tree_digest(t)) == (capped, want)

    @pytest.mark.parametrize("seed, want", [
        (0, "beb184ef4a3bb2f0"), (1, "0a3a6d6024937f4a"),
        (2, "9c7bf601506289a0")])
    def test_pgw_star(self, seed, want):
        assert tree_digest(sample_pgw_star(2.0, 6, seed)) == want

    @pytest.mark.parametrize("seed, want", [
        (0, "ca12710039635c20"), (1, "ef99aee3b353f54b"),
        (2, "04ce8ddbdf75ce2b")])
    def test_uniform(self, seed, want):
        assert tree_digest(sample_uniform_rooted_tree(200, seed)) == want

    @pytest.mark.parametrize("seed, want", [
        (0, ("3a6365c4a542f651", "9d3f345c62400e67", "409afcac98c09226")),
        (1, ("2da0af86a52f8ab4", "5ac181fb5a51990f", "2528fcd4d87078a8")),
        (2, ("8cb2a585e484e592", "d213ee3641508bc1", "e62584cc025d1177"))])
    def test_coupled(self, seed, want):
        pair = sample_coupled_trees(1.5, 2.0, 6, seed)
        assert all(type(x) is int for item in pair.node_map.items()
                   for x in item)
        assert (tree_digest(pair.lo), tree_digest(pair.hi),
                digest(sorted(pair.node_map.items()))) == want
