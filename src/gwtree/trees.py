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
  sample_uniform_rooted_tree  uniform rooted labeled tree on n vertices,
                           labels dropped: the Poisson(1) Galton-Watson tree
                           conditioned on n vertices (Aldous 1991), built
                           breadth first from n-1 multinomial draws by the
                           cycle lemma (Dvoretzky & Motzkin 1947; Pitman
                           2006, sec. 6.1); siblings in a uniform order.

Horizon semantics for sample_pgw_star(c, depth): every type-I node at
depth <= depth has its child counts sampled; the type-I children created
at depth+1 are left open ("frontier").  Type-F subtrees are always
sampled in full (they are a.s. finite), subject to a large per-bush node
cap with resample-and-count-rejections accounting.  Walk computations on
such a tree are exact for return times k <= 2*depth (see walk module).

sample_pgw_star is _grow_star on a one-node root.  _grow_star expands one
open type-I node to the horizon, counted in levels left below that node,
and keys each node's draws by its path (the counter-based rng.child_key and
rng.node_uniform, no Generator per node), so deepening a tree (same seed,
larger depth) reproduces the shallow tree exactly.  A type-I node draws its
independent type-I and type-F counts from one uniform, its draw 0, through
_joint_table, the product of the laws module's positive-Poisson and Poisson
tables, built once per c; a type-F node's count inverts the Poisson table.
Every bush (the type-F subtree below a type-F child of a type-I node) is
grown by _bush, the one bush loop of the package, from a callable that
hands out uniforms in turn: here the draws of the bush root's path key, one
hash a node; in the coupling of the domination module, the pair's buffered
stream.  CoupledPair.complete() grows the mu-side stubs of a coupled pair
with _grow_star.  sample_pgw inverts the Poisson table at one uniform vector
per level from its substream.

Every tree is one RootedTree arena of per-node numpy arrays; children and
depth are derived from parent once per tree.  Node-by-node samplers build
the lists (parent, ntype) by appending, each nonempty block of siblings with
_add, and _arena converts them.  Scalar draws invert a table with
bisect_left directly.  The caller of _bush draws the bush root's first
uniform itself: at most fcdf[0], the root has no child, and nothing more is
called or drawn for it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
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
_DTYPES = (np.int64, np.int8, bool)  # parent, ntype, open_


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

      parent[v]   int64, index of the parent, -1 for the root; every
                  parent precedes its children
      ntype[v]    int8, TYPE_I / TYPE_F / TYPE_UNTYPED
      open_[v]    bool, True while v's child counts have not been sampled
                  (frontier stubs of truncated samples, or unexpanded
                  nodes of capped samples)

    A tree is built from complete columns (add_node builds it anew with
    one node more).  children[v] lists v's children in ascending id order,
    from a CSR, and depth[v] (int64) is v's distance from the root; both
    are derived from parent on first use.  subtree_size, a float array, is
    filled by subtree_stats (math.inf marks subtrees that escape the
    sampled horizon; every type-I node is infinite).
    """

    def __init__(self, parent=(), ntype=(), open_=(),
                 subtree_size: np.ndarray | None = None):
        # np.fromiter reads a list about twice as fast as np.array
        p, a, o = (np.fromiter(x, dt, len(x)) if isinstance(x, list) else
                   np.asarray(x, dt) for x, dt in zip(
                       (parent, ntype, open_), _DTYPES))
        self.parent, self.ntype, self.open_ = p, a.view(_Types), o
        self.root: int = 0
        self.subtree_size = subtree_size
        self.capped: bool = False
        self.bush_resamples: int = 0
        self._children: _Children | None = None
        self._depth: np.ndarray | None = None

    @property
    def children(self) -> _Children:
        if self._children is None:
            self._children = _Children(self.parent)
        return self._children

    @property
    def depth(self) -> np.ndarray:
        if self._depth is None:
            depth = [0] * len(self.parent)
            for v, p in enumerate(self.parent[1:].tolist(), 1):
                depth[v] = depth[p] + 1  # parents precede children
            self._depth = np.fromiter(depth, np.int64, len(depth))
        return self._depth

    def add_node(self, parent: int, ntype: int = TYPE_UNTYPED,
                 open_: bool = True) -> int:
        """Append one node to a small hand-built tree and return its id: the
        tree is rebuilt from its columns with the node appended, at the cost
        of a copy, and its other fields start afresh."""
        self.__init__(*map(np.append, (self.parent, self.ntype, self.open_),
                           (parent, ntype, open_)))
        return len(self) - 1

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
        ids = np.arange(n)
        kid = ids != self.root
        q = np.where((p >= 0) & (p < ids), p, self.root)
        checks = [
            (kid & (q != p), "parent/children mismatch at node {v}"),
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
    parent = np.repeat(np.arange(-1, expanded), np.concatenate([[1], *counts]))
    t = RootedTree(parent, np.zeros(size, np.int8),
                   np.arange(size) >= expanded)
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


@lru_cache(maxsize=64)
def _joint_table(c: float) -> tuple[float, ...]:
    """cdf table of a type-I node's independent counts (n_i, n_f) at c, in
    lexicographic order: entry (n_i - 1) len(fcdf) + n_f, so divmod by
    len(fcdf) decodes it.  Row n_i runs from qcdf[n_i - 2] by the type-I
    mass times fcdf and ends at qcdf[n_i - 1] exactly."""
    qcdf, fcdf = _star_tables(c)
    return tuple(x for lo, hi in zip((0.0,) + qcdf, qcdf)
                 for x in [min(lo + (hi - lo) * f, hi) for f in fcdf[:-1]]
                 + [hi])


def _add(t: tuple, p: int, n: int, ntype: int = TYPE_I) -> int:
    """Give node p of the arena lists t = (parent, ntype) n new children of
    the given type; returns the id of the first."""
    parent, types = t
    w = len(parent)
    parent.extend([p] * n)
    types.extend([ntype] * n)
    return w


def _arena(t: tuple, bush_resamples: int = 0) -> RootedTree:
    """The RootedTree of the arena lists t = (parent, ntype); its childless
    type-I nodes are the open ones (an expanded type-I node has a type-I
    child)."""
    parent, types = t
    p = np.fromiter(parent, np.int64, len(parent))
    a = np.fromiter(types, np.int8, len(types))
    open_ = a == TYPE_I
    open_[p[1:]] = False
    tree = RootedTree(p, a, open_)
    tree.bush_resamples = bush_resamples
    return tree


def _bush(t: tuple, b: int, fcdf, draw, u: float) -> int:
    """Sample the type-F subtree below node b of the arena lists t in full
    (a.s. finite: its Poisson rate is at most 1), depth first, each node's
    child count the quantile of fcdf at its draw: u, which the caller drew
    for b, and the next draw() for each later node.  The caller skips the
    call when u is at most fcdf[0] (b then has no child).  An attempt that
    passes BUSH_NODE_CAP nodes is discarded and counted, and the next one
    draws on from draw(), its root too; returns the number discarded."""
    keep = len(t[0])
    for attempt in range(64):
        x, stack = b, []
        while True:
            n = bisect_left(fcdf, u)
            if n:
                w = _add(t, x, n, TYPE_F)
                stack.extend(range(w, w + n))
            if not stack or len(t[0]) - keep > BUSH_NODE_CAP:
                break
            x = stack.pop()
            u = draw()
        if len(t[0]) - keep <= BUSH_NODE_CAP:
            return attempt
        for arr in t:
            del arr[keep:]
        u = draw()
    raise ArithmeticError("bush sampling exceeded the node cap 64 times")


def _grow_star(t: tuple, v: int, levels: int, key: int, c: float) -> int:
    """Expand the open type-I node v of the arena lists t with the two-type
    law at c, and its type-I descendants down to the given number of levels
    below v; the type-I children made past that level stay open.  A type-I
    node x draws its type-I and type-F counts together from
    node_uniform(key_x, 0) through _joint_table, where key_x is key at v and
    child_key(key_x, i) at its i-th child; the bush below its j-th child
    grows from node_uniform(child_key(key_x, j), 0), (..., 1), ... in turn.
    Returns the number of bushes resampled for passing BUSH_NODE_CAP."""
    fcdf = _star_tables(c)[1]
    joint, width = _joint_table(c), len(fcdf)
    leaf = fcdf[0]  # a bush root drawing at most this has no child
    resamples = 0
    stack = [(v, key, levels)]  # (type-I node, key, levels left below it)
    while stack:
        x, key, levels = stack.pop()
        n_i, n_f = divmod(bisect_left(joint, node_uniform(key, 0)), width)
        n_i += 1
        w = _add(t, x, n_i)
        if n_f:
            _add(t, x, n_f, TYPE_F)
        for j in range(n_i, n_i + n_f):
            bkey = child_key(key, j)
            u = node_uniform(bkey, 0)
            if u > leaf:
                draws = map(node_uniform, repeat(bkey), count(1))
                resamples += _bush(t, w + j, fcdf, draws.__next__, u)
        if levels:
            stack.extend((w + i, child_key(key, i), levels - 1)
                         for i in range(n_i))
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
    t = ([-1], [TYPE_I])
    resamples = _grow_star(t, 0, depth, derive_seed(seed, "pgwstar"), c)
    return _arena(t, resamples)


def _uniform_rooted_tree(n: int, rng: np.random.Generator) -> RootedTree:
    # Poisson(1) child counts conditioned to sum to n - 1 are multinomial.
    # Read in breadth-first order, counts k are a tree iff the queue
    # 1 + cumsum(k - 1) first empties at the last node; by the cycle lemma
    # exactly one rotation of k does so, the one starting just after the
    # first minimum of cumsum(k) - arange(n).
    k = np.bincount(rng.integers(0, n, n - 1), minlength=n)
    ids = np.arange(n)
    r = int((k.cumsum() - ids).argmin()) + 1
    k = np.concatenate((k[r:], k[:r]))
    parent = np.concatenate(([-1], np.repeat(ids, k)))
    return RootedTree(parent, np.zeros(n, np.int8), np.zeros(n, bool))


def sample_uniform_rooted_tree(n: int, seed: int) -> RootedTree:
    """Uniform labeled tree on n vertices with a uniform root, labels dropped.

    That is the Poisson(1) Galton-Watson tree conditioned to have n vertices
    (Aldous, The continuum random tree II, 1991).  Its child counts are
    built breadth first from n - 1 multinomial draws, rotated by the cycle
    lemma (Dvoretzky & Motzkin, 1947; Pitman, Combinatorial Stochastic
    Processes, 2006, sec. 6.1).  Ids are breadth first, and the children of
    a node are in a uniform order among its plane embeddings.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _uniform_rooted_tree(n, substream(seed, "uniformtree", n))


def subtree_stats(t: RootedTree, histogram: bool = True) -> Counter:
    """Fill per-node subtree sizes N(v) and return the root child-size
    histogram {size: count}, with math.inf collecting the infinite branches;
    histogram=False leaves it empty, for callers that read the sizes alone.

    N(v) = math.inf whenever v's subtree escapes the sample: v is type I,
    or v (or a descendant) is still open.
    """
    size = np.where((t.ntype == TYPE_I) | t.open_, math.inf, 1.0).tolist()
    parent = t.parent.tolist()
    # parents precede children; on coupled trees this beats numpy by levels
    for v in range(len(parent) - 1, 0, -1):
        size[parent[v]] += size[v]
    t.subtree_size = np.fromiter(size, np.float64, len(size))
    if not histogram:
        return Counter()
    return Counter(t.subtree_size[t.parent == t.root].tolist())


def _sizes(t: RootedTree) -> np.ndarray:
    """t.subtree_size, filled on first use."""
    if t.subtree_size is None:
        subtree_stats(t, histogram=False)
    return t.subtree_size


def tree_to_text(t: RootedTree) -> str:
    """Adjacency text format: one node per line, 'id parent-id type N'."""
    size = _sizes(t)
    nv = np.where(np.isinf(size), -1, size).astype(np.int64).tolist()
    return "".join(
        f"{v} {p} {ch} {'inf' if s < 0 else s}\n" for v, (p, ch, s) in
        enumerate(zip(t.parent.tolist(), _TYPE_CHARS[t.ntype].tolist(), nv)))


def _fields(row: list[str]) -> tuple | None:
    """(id, parent-id, type, N) of a line's fields, or None unless there
    are four and the id and parent-id read as ints and N as a float."""
    try:
        v, p, ch, size = row
        return int(v), int(p), ch, float(size)
    except ValueError:
        return None


def tree_from_text(text: str) -> RootedTree:
    # raises ValueError unless every line reads 'id parent-id type N'
    rows = {i: _fields(line.split())
            for i, line in enumerate(text.splitlines(), 1) if line.strip()}
    bad = [i for i, row in rows.items() if row is None]
    if bad or not rows:
        where = f"line {bad[0]}" if bad else "empty text"
        raise ValueError(f"{where}: lines must read 'id parent-id type N'")
    ids, parent, chars, sizes = zip(*rows.values())
    unknown = set(chars) - _CHAR_TYPE.keys()
    if unknown:
        raise ValueError(f"unknown node type {min(unknown)!r}, not U, I or F")
    ids, parent, sizes = (np.array(x, dt) for x, dt in zip(
        (ids, parent, sizes), (np.int64, np.int64, float)))
    v = np.arange(len(ids))
    # the root alone has parent -1, and every parent precedes its children
    if (ids != v).any() or parent[0] != -1 or (
            (parent[1:] < 0) | (parent[1:] >= v[1:])).any():
        raise ValueError("node ids must run 0, 1, 2, ... and follow the id "
                         "of their parent")
    # the format has no open column: infinite childless nodes are the open
    # ones, exactly so for every tree whose open nodes are childless, as the
    # samplers leave them
    childless = np.bincount(parent[parent >= 0], minlength=len(v)) == 0
    return RootedTree(parent, [_CHAR_TYPE[ch] for ch in chars],
                      np.isinf(sizes) & childless, subtree_size=sizes)
