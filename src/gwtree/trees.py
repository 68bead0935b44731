"""Rooted-tree arena and samplers.

Three tree laws are sampled here:

  sample_pgw               plain Poisson(c) branching tree, breadth first,
                           with a hard node cap (capped results are flagged,
                           never silently truncated).
  sample_pgw_star          the survival-conditioned tree in its two-type
                           form: type-I ("infinite") vertices get a positive-
                           Poisson(c*theta) number of type-I children and
                           Poisson(c*q) type-F children; type-F ("finite")
                           vertices get Poisson(c*q) type-F children only.
  sample_uniform_rooted_tree  uniform labeled tree on n vertices (random
                           length n-2 sequence decoded to a tree), rooted at
                           a uniform vertex, labels dropped.

Horizon semantics for sample_pgw_star(c, depth): every type-I node at
depth <= depth has its child counts sampled; the type-I children created
at depth+1 are left open ("frontier").  Type-F subtrees are always
sampled in full (they are a.s. finite), subject to a large per-bush node
cap with resample-and-count-rejections accounting.  Walk computations on
such a tree are exact for return times k <= 2*depth (see walk module).

sample_pgw_star is _grow_star on a one-node root.  _grow_star expands one
open type-I node to the horizon and keys each node's draws by its path (the
counter-based rng.child_key and rng.node_uniform, no Generator per node), so
deepening a tree (same seed, larger depth) reproduces the shallow tree
exactly.  Type-I counts invert the laws module's positive-Poisson table at
any c, type-F counts its Poisson table.  Every bush (the type-F subtree
below a type-F child of a type-I node) is grown by _bush, the one bush loop
of the package, from a callable that hands out uniforms in turn: here the
draws of the bush root's path key, one hash a node; in the coupling of the
domination module, the pair's buffered stream.  CoupledPair.complete() grows
the mu-side stubs of a coupled pair with _grow_star.  sample_pgw inverts the
Poisson table at one uniform vector per level from its substream.

Every tree is one RootedTree arena of per-node numpy arrays; children are
derived from parent once per tree.  Node-by-node samplers build the lists
(parent, depth, ntype) by appending, mostly with _add, and _arena converts
them.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from functools import lru_cache
from itertools import count, repeat

import numpy as np

from .laws import poisson_cdf, positive_poisson_cdf, quantile
from .rng import child_key, derive_seed, node_uniform, substream

__all__ = [
    "TYPE_UNTYPED",
    "TYPE_I",
    "TYPE_F",
    "RootedTree",
    "sample_pgw",
    "sample_pgw_star",
    "sample_uniform_rooted_tree",
    "subtree_stats",
    "tree_to_text",
    "tree_from_text",
]

TYPE_UNTYPED = 0
TYPE_I = 1
TYPE_F = 2

_TYPE_CHARS = np.array(["U", "I", "F"])  # indexed by type
_CHAR_TYPE = {ch: k for k, ch in enumerate(_TYPE_CHARS.tolist())}

BUSH_NODE_CAP = 1_000_000
_DTYPES = (np.int64, np.int64, np.int8, bool)  # parent, depth, ntype, open_


class _Types(np.ndarray):
    """ntype, whose single elements read as Python ints (JSON takes them)."""

    def __getitem__(self, key):
        item = super().__getitem__(key)
        return item.item() if isinstance(item, np.generic) else item


class _Children(Sequence):
    """children[v]: the ids whose parent is v, ascending, as a list of ints
    cut from a CSR built once from the parent array."""

    def __init__(self, parent: np.ndarray):
        self._ids = np.argsort(parent, kind="stable").tolist()
        # the children of v follow the nodes whose parent is below v
        self._start = np.cumsum(
            np.bincount(parent + 1, minlength=len(parent) + 1)).tolist()

    def __len__(self) -> int:
        return len(self._start) - 1

    def __getitem__(self, v: int) -> list[int]:
        return self._ids[self._start[v]:self._start[v + 1]]


class RootedTree:
    """One arena of per-node numpy arrays; the root is node 0.

      parent[v]   int64, index of the parent, -1 for the root
      depth[v]    int64, distance from the root
      ntype[v]    int8, TYPE_I / TYPE_F / TYPE_UNTYPED
      open_[v]    bool, True while v's child counts have not been sampled
                  (frontier stubs of truncated samples, or unexpanded
                  nodes of capped samples)

    children[v] lists v's children in ascending id order, from a CSR derived
    from parent on first use (add_node resets it).  subtree_size, a float
    array, is filled by subtree_stats (math.inf marks subtrees that escape
    the sampled horizon; every type-I node is infinite).
    """

    def __init__(self, parent=(), depth=(), ntype=(), open_=(),
                 subtree_size: np.ndarray | None = None):
        # np.fromiter reads a list about twice as fast as np.array
        p, d, a, o = (np.fromiter(x, dt, len(x)) if isinstance(x, list) else
                      np.asarray(x, dt) for x, dt in zip(
                          (parent, depth, ntype, open_), _DTYPES))
        self._cols = (p, d, a.view(_Types), o)
        self.parent, self.depth, self.ntype, self.open_ = self._cols
        self.root: int = 0
        self.subtree_size = subtree_size
        self.capped: bool = False
        self.bush_resamples: int = 0
        self._children: _Children | None = None

    @property
    def children(self) -> _Children:
        if self._children is None:
            self._children = _Children(self.parent)
        return self._children

    def add_node(self, parent: int, ntype: int = TYPE_UNTYPED,
                 open_: bool = True) -> int:
        """Append one node to a hand-built tree.  The arrays are views of
        buffers that double when full, so writes through them persist."""
        v = len(self.parent)
        if v == len(self._cols[0]):
            self._cols = tuple(np.resize(col, 2 * v + 8).view(type(col))
                               for col in self._cols)
        depth = self.depth[parent] + 1 if parent >= 0 else 0
        for col, x in zip(self._cols, (parent, depth, ntype, open_)):
            col[v] = x
        self.parent, self.depth, self.ntype, self.open_ = (
            col[:v + 1] for col in self._cols)
        self._children = self.subtree_size = None
        return v

    def __len__(self) -> int:
        return len(self.parent)

    def degree(self, v: int) -> int:
        return len(self.children[v]) + (1 if v != self.root else 0)

    def specified_depth(self) -> float:
        """Deepest level d such that every node at depth <= d is expanded."""
        open_depths = self.depth[self.open_]
        return int(open_depths.min()) - 1 if len(open_depths) else math.inf

    def validate(self) -> None:
        """Raises ValueError at the first node breaking the first invariant."""
        n, p, a = len(self), self.parent, self.ntype
        if n == 0:
            raise ValueError("empty tree")
        if p[self.root] != -1:
            raise ValueError("root has a parent")
        kid = np.arange(n) != self.root
        q = np.where((p >= 0) & (p < n), p, self.root)
        checks = [
            (kid & (q != p), "parent/children mismatch at node {v}"),
            (kid & (self.depth != self.depth[q] + 1),
             "depth inconsistent at node {v}"),
            (kid & (a[q] == TYPE_F) & (a != TYPE_F),
             "type-F node {p} has non-F child {v}"),
            ((a == TYPE_I) & ~self.open_
             & (np.bincount(q[kid & (a == TYPE_I)], minlength=n) == 0),
             "expanded type-I node {v} has no type-I child")]
        if self.subtree_size is not None:
            size = self.subtree_size
            expect = 1.0 + np.bincount(q[kid], weights=size[kid], minlength=n)
            checks.append((~self.open_ & (a != TYPE_I) & (size != expect),
                           "subtree size inconsistent at node {v}"))
        for bad, msg in checks:
            if bad.any():
                v = int(bad.argmax())
                raise ValueError(msg.format(v=v, p=p[v]))


def sample_pgw(c: float, node_cap: int, seed: int) -> RootedTree:
    """Poisson(c) branching tree by breadth-first level growth.

    If the arena would exceed node_cap the sample stops with capped=True
    and the unexpanded nodes left open.  c past about 1.96e5, where the
    Poisson(c) table cannot close, raises its ArithmeticError.
    """
    if not (c > 0.0) or not math.isfinite(c):
        raise ValueError(f"sample_pgw requires finite c > 0, got {c}")
    if node_cap < 1:
        raise ValueError(f"node_cap must be >= 1, got {node_cap}")
    table = poisson_cdf(c)
    rng = substream(seed, "pgw", c)
    counts = []  # child counts of each expanded level, in breadth-first order
    width, size, capped = 1, 1, False
    while width:
        k = quantile(table, rng.random(width)) - 1
        m = int(k.sum())
        if size + m > node_cap:
            capped = True  # this level and beyond stay open
            break
        counts.append(k)
        size += m
        width = m
    # nodes are numbered breadth first, so the children of v follow those
    # of the nodes before v
    expanded = size - width * capped
    widths = [len(k) for k in counts] + [width] * capped
    parent = np.repeat(np.arange(-1, expanded), np.concatenate([[1], *counts]))
    t = RootedTree(parent, np.repeat(np.arange(len(widths)), widths),
                   np.zeros(size, np.int8), np.arange(size) >= expanded)
    t.capped = capped
    return t


@lru_cache(maxsize=64)
def _star_tables(c: float) -> tuple:
    """cdf tables of the type-I count Q*_{c theta} and of 1 + the type-F
    count Q_{cq}."""
    if c == 1.0:
        return positive_poisson_cdf(0.0), poisson_cdf(1.0)
    from .analytic import extinction_prob
    params = extinction_prob(c)
    return positive_poisson_cdf(params.ctheta), poisson_cdf(params.cq)


def _add(t: tuple, p: int, n: int, ntype: int = TYPE_I) -> int:
    """Give node p of the arena lists t = (parent, depth, ntype) n new
    children of the given type; returns the id of the first."""
    parent, depth, types = t
    w = len(parent)
    parent.extend([p] * n)
    depth.extend([depth[p] + 1] * n)
    types.extend([ntype] * n)
    return w


def _arena(t: tuple, bush_resamples: int = 0) -> RootedTree:
    """The RootedTree of the arena lists t; its childless type-I nodes are
    the open ones (an expanded type-I node has a type-I child)."""
    tree = RootedTree(*t, np.zeros(len(t[0]), bool))
    tree.open_[tree.ntype == TYPE_I] = True
    tree.open_[tree.parent[1:]] = False
    tree.bush_resamples = bush_resamples
    return tree


def _bush(t: tuple, b: int, fcdf, draw) -> int:
    """Sample the type-F subtree below node b of the arena lists t in full
    (a.s. finite: its Poisson rate is at most 1), depth first, each node's
    child count the quantile of fcdf at the next draw().  An attempt that
    passes BUSH_NODE_CAP nodes is discarded and counted, and the next one
    draws on; returns the number discarded."""
    keep = len(t[0])
    for attempt in range(64):
        stack = [b]
        while stack and len(t[0]) - keep <= BUSH_NODE_CAP:
            x = stack.pop()
            n = quantile(fcdf, draw()) - 1
            if n:
                w = _add(t, x, n, TYPE_F)
                stack.extend(range(w, w + n))
        if len(t[0]) - keep <= BUSH_NODE_CAP:
            return attempt
        for arr in t:
            del arr[keep:]
    raise ArithmeticError("bush sampling exceeded the node cap 64 times")


def _grow_star(t: tuple, v: int, depth: int, key: int, c: float) -> int:
    """Expand the open type-I node v of the arena lists t with the two-type
    law at c, and its type-I descendants down to depth; the type-I children
    made below depth stay open.  A type-I node x draws node_uniform(key_x, 0)
    and (key_x, 1), where key_x is key at v and child_key(key_x, i) at its
    i-th child; the bush below its j-th child grows from node_uniform(
    child_key(key_x, j), 0), (..., 1), ... in turn.  Returns the number of
    bushes resampled for passing BUSH_NODE_CAP."""
    qcdf, fcdf = _star_tables(c)
    resamples = 0
    stack = [(v, key)]  # (type-I node, key)
    while stack:
        x, key = stack.pop()
        n_i = quantile(qcdf, node_uniform(key, 0))
        n_f = quantile(fcdf, node_uniform(key, 1)) - 1
        w = _add(t, x, n_i)
        _add(t, x, n_f, TYPE_F)
        for j in range(n_i, n_i + n_f):
            draws = map(node_uniform, repeat(child_key(key, j)), count())
            resamples += _bush(t, w + j, fcdf, draws.__next__)
        if t[1][x] < depth:
            stack.extend((w + i, child_key(key, i)) for i in range(n_i))
    return resamples


def sample_pgw_star(c: float, depth: int, seed: int) -> RootedTree:
    """Two-type survival-conditioned tree, type-I skeleton truncated at depth.

    c = 1 is the spine limit: exactly one type-I child per type-I node and
    Poisson(1) type-F children.
    """
    if not (c >= 1.0) or not math.isfinite(c):
        raise ValueError(f"sample_pgw_star requires finite c >= 1, got {c}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    t = ([-1], [0], [TYPE_I])
    resamples = _grow_star(t, 0, depth, derive_seed(seed, "pgwstar"), c)
    return _arena(t, resamples)


def _decode_tree_sequence(seq, n: int) -> list[int]:
    """Decode a length n-2 sequence over {0..n-1} into the labeled tree
    whose edges are (leaf[i], seq[i]) and then (leaf[n-2], n-1), by the
    smallest-leaf rule in linear time; returns leaf."""
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    leaf = ptr = deg.index(1)
    leaves = []
    for x in seq:
        leaves.append(leaf)
        deg[x] -= 1
        if deg[x] == 1 and x < ptr:
            leaf = x  # x is now the smallest leaf
        else:
            ptr = leaf = deg.index(1, ptr + 1)
    leaves.append(leaf)
    return leaves


def _rooted_shape(seq, n: int, root: int) -> tuple[list[int], list[int]]:
    """Lists (parent, depth) of the labeled tree decoded from seq and rooted
    at the label root, labels dropped: nodes are numbered breadth first, each
    node's neighbours taken in the order of the decoded edges."""
    if n == 1:
        return [-1], [0]
    adj = [[] for _ in range(n)]
    for a, b in zip(_decode_tree_sequence(seq, n), [*seq, n - 1]):
        adj[a].append(b)
        adj[b].append(a)
    seen = [False] * n
    seen[root] = True
    order, parent, depth = [root], [-1], [0]
    for v, lab in enumerate(order):  # a breadth-first queue, read as it grows
        for nb in adj[lab]:
            if not seen[nb]:
                seen[nb] = True
                order.append(nb)
                parent.append(v)
                depth.append(depth[v] + 1)
    return parent, depth


def _uniform_rooted_tree(n: int, rng: np.random.Generator) -> RootedTree:
    seq = rng.integers(0, n, size=max(0, n - 2)).tolist()
    parent, depth = _rooted_shape(seq, n, int(rng.integers(n)))
    return RootedTree(parent, depth, np.zeros(n, np.int8), np.zeros(n, bool))


def sample_uniform_rooted_tree(n: int, seed: int) -> RootedTree:
    """Uniform labeled tree on n vertices with a uniform root, labels dropped."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _uniform_rooted_tree(n, substream(seed, "uniformtree", n))


def subtree_stats(t: RootedTree) -> Counter:
    """Fill per-node subtree sizes N(v) and return the root child-size
    histogram {size: count}, with math.inf collecting the infinite branches.

    N(v) = math.inf whenever v's subtree escapes the sample: v is type I,
    or v (or a descendant) is still open.
    """
    size = np.where((t.ntype == TYPE_I) | t.open_, math.inf, 1.0).tolist()
    parent = t.parent.tolist()
    # parents precede children; on coupled trees this beats numpy by levels
    for v in range(len(parent) - 1, 0, -1):
        size[parent[v]] += size[v]
    t.subtree_size = np.fromiter(size, np.float64, len(size))
    return Counter(t.subtree_size[t.parent == t.root].tolist())


def _sizes(t: RootedTree) -> np.ndarray:
    if t.subtree_size is None:
        subtree_stats(t)
    return t.subtree_size


def tree_to_text(t: RootedTree) -> str:
    """Adjacency text format: one node per line, 'id parent-id type N'."""
    size = _sizes(t)
    nv = np.where(np.isinf(size), -1, size).astype(np.int64).tolist()
    return "".join(
        f"{v} {p} {ch} {'inf' if s < 0 else s}\n" for v, (p, ch, s) in
        enumerate(zip(t.parent.tolist(), _TYPE_CHARS[t.ntype].tolist(), nv)))


def tree_from_text(text: str) -> RootedTree:
    # raises ValueError unless every line reads 'id parent-id type N'
    ids, parent, chars, sizes = np.array(
        [line.split() for line in text.strip().splitlines()]).T
    bad = set(chars.tolist()) - _CHAR_TYPE.keys()
    if bad:
        raise ValueError(f"unknown node type {min(bad)!r}, not U, I or F")
    ids, parent = ids.astype(np.int64), parent.astype(np.int64)
    v = np.arange(len(ids))
    if (ids != v).any() or ((parent < -1) | (parent >= v)).any():
        raise ValueError("node ids must run 0, 1, 2, ... and follow the id "
                         "of their parent")
    depth = [0] * len(ids)
    for w, p in enumerate(parent.tolist()):
        depth[w] = depth[p] + 1 if p >= 0 else 0
    sizes = sizes.astype(float)
    # the format has no open column: infinite childless nodes are the open
    # ones, exactly so for every tree whose open nodes are childless, as the
    # samplers leave them
    childless = np.bincount(parent[parent >= 0], minlength=len(v)) == 0
    return RootedTree(parent, depth,
                      [_CHAR_TYPE[ch] for ch in chars.tolist()],
                      np.isinf(sizes) & childless, subtree_size=sizes)
