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

sample_pgw_star keys each node's draws by its path from the root (the
counter-based rng.child_key and rng.node_uniform, no Generator per node),
so deepening a tree (same seed, larger depth) reproduces the shallow tree
exactly.  Type-I counts invert the laws module's positive-Poisson table at
any c, type-F counts its Poisson table.  sample_pgw draws one Poisson vector
per level from its substream.  Both samplers collect per-node lists and
build the arena once at the end (RootedTree.from_parents).
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from functools import lru_cache
from itertools import accumulate, chain, repeat

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

_TYPE_CHAR = {TYPE_UNTYPED: "U", TYPE_I: "I", TYPE_F: "F"}
_CHAR_TYPE = {v: k for k, v in _TYPE_CHAR.items()}

BUSH_NODE_CAP = 1_000_000


class RootedTree:
    """Arena of nodes with parent/children indices and per-node type tags.

    Parallel per-node lists:
      parent[v]   index of the parent, -1 for the root
      children[v] read-only sequence of child indices: a list for trees
                  grown by add_node, a range for trees built in one piece
                  by from_parents; coupled trees hold both
      ntype[v]    TYPE_I / TYPE_F / TYPE_UNTYPED
      depth[v]    distance from the root
      open_[v]    True while v's child counts have not been sampled
                  (frontier stubs of truncated samples, or unexpanded
                  nodes of capped samples)

    subtree_size is filled by subtree_stats (math.inf marks subtrees that
    escape the sampled horizon; every type-I node is infinite).
    """

    def __init__(self):
        self.parent: list[int] = []
        self.children: list = []
        self.ntype: list[int] = []
        self.depth: list[int] = []
        self.open_: list[bool] = []
        self.root: int = 0
        self.truncation_depth: int | None = None
        self.subtree_size: list[float] | None = None
        self.capped: bool = False
        self.bush_resamples: int = 0

    @classmethod
    def from_parents(cls, parent, depth, ntype, open_, first,
                     count) -> RootedTree:
        """Arena built in one piece from per-node lists, which it keeps: the
        children of v are the nodes first[v] .. first[v] + count[v] - 1,
        held as a range.  add_node cannot extend such a tree."""
        t = cls()
        t.parent, t.depth, t.ntype, t.open_ = parent, depth, ntype, open_
        t.children = list(map(range, first, map(int.__add__, first, count)))
        return t

    def add_node(self, parent: int, ntype: int = TYPE_UNTYPED,
                 open_: bool = True) -> int:
        v = len(self.parent)
        self.parent.append(parent)
        self.children.append([])
        self.ntype.append(ntype)
        self.depth.append(0 if parent < 0 else self.depth[parent] + 1)
        self.open_.append(open_)
        if parent >= 0:
            self.children[parent].append(v)
        return v

    def __len__(self) -> int:
        return len(self.parent)

    def degree(self, v: int) -> int:
        return len(self.children[v]) + (1 if v != self.root else 0)

    def specified_depth(self) -> float:
        """Deepest level d such that every node at depth <= d is expanded."""
        open_depths = [self.depth[v] for v in range(len(self)) if self.open_[v]]
        if not open_depths:
            return math.inf
        return min(open_depths) - 1

    def validate(self) -> None:
        """Structural invariants; raises ValueError on the first violation."""
        n = len(self)
        if n == 0:
            raise ValueError("empty tree")
        if self.parent[self.root] != -1:
            raise ValueError("root has a parent")
        for v in range(n):
            p = self.parent[v]
            if v == self.root:
                continue
            if not (0 <= p < n) or v not in self.children[p]:
                raise ValueError(f"parent/children mismatch at node {v}")
            if self.depth[v] != self.depth[p] + 1:
                raise ValueError(f"depth inconsistent at node {v}")
            if self.ntype[p] == TYPE_F and self.ntype[v] != TYPE_F:
                raise ValueError(
                    f"type-F node {p} has non-F child {v}")
        for v in range(n):
            if self.ntype[v] == TYPE_I and not self.open_[v]:
                if not any(self.ntype[w] == TYPE_I for w in self.children[v]):
                    raise ValueError(
                        f"expanded type-I node {v} has no type-I child")
        if self.subtree_size is not None:
            for v in range(n):
                if self.open_[v] or self.ntype[v] == TYPE_I:
                    continue
                expect = 1 + sum(self.subtree_size[w] for w in self.children[v])
                if self.subtree_size[v] != expect:
                    raise ValueError(f"subtree size inconsistent at node {v}")


def sample_pgw(c: float, node_cap: int, seed: int) -> RootedTree:
    """Poisson(c) branching tree by breadth-first level growth.

    If the arena would exceed node_cap the sample stops with capped=True
    and the unexpanded nodes left open.
    """
    if not (c > 0.0) or not math.isfinite(c):
        raise ValueError(f"sample_pgw requires finite c > 0, got {c}")
    if node_cap < 1:
        raise ValueError(f"node_cap must be >= 1, got {node_cap}")
    rng = substream(seed, "pgw", c)
    counts = []  # child counts of each expanded level, in breadth-first order
    width, size, capped = 1, 1, False
    while width:
        k = rng.poisson(c, size=width)
        m = int(k.sum())
        if size + m > node_cap:
            capped = True  # this level and beyond stay open
            break
        counts.append(k)
        size += m
        width = m
    # nodes are numbered breadth first, so the children of v follow those
    # of the nodes before v, starting at 1
    expanded = size - width * capped
    widths = [len(k) for k in counts] + [width] * capped
    count = np.concatenate(counts + [np.zeros(width * capped, np.int64)])
    n_kids = count.tolist()
    t = RootedTree.from_parents(
        [-1] + np.repeat(np.arange(size), count).tolist(),
        list(chain.from_iterable(map(repeat, range(len(widths)), widths))),
        [TYPE_UNTYPED] * size, [False] * expanded + [True] * (size - expanded),
        list(accumulate(n_kids[:-1], initial=1)), n_kids)
    t.capped = capped
    return t


@lru_cache(maxsize=64)
def _star_tables(c: float) -> tuple:
    """cdf tables of the type-I count Q*_{c theta} and of 1 + the type-F
    count Q_{cq}, and the rate cq."""
    if c == 1.0:
        rate_i, rate_f = 0.0, 1.0
    else:
        from .analytic import extinction_prob
        params = extinction_prob(c)
        rate_i, rate_f = params.ctheta, params.cq
    return positive_poisson_cdf(rate_i), poisson_cdf(rate_f), rate_f


def sample_pgw_star(c: float, depth: int, seed: int) -> RootedTree:
    """Two-type survival-conditioned tree, type-I skeleton truncated at depth.

    c = 1 is the spine limit: exactly one type-I child per type-I node and
    Poisson(1) type-F children.
    """
    if not (c >= 1.0) or not math.isfinite(c):
        raise ValueError(f"sample_pgw_star requires finite c >= 1, got {c}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    qcdf, fcdf, _ = _star_tables(c)

    parent, ntype, dep, open_ = [-1], [TYPE_I], [0], [False]
    first, count = [0], [0]
    resamples = 0

    def grow(v: int, n_i: int, n_f: int) -> int:
        """Append n_i type-I and then n_f type-F children to v, the type-I
        ones open past the horizon; returns the index of the first."""
        w, n = len(parent), n_i + n_f
        first[v], count[v] = w, n
        parent.extend([v] * n)
        ntype.extend([TYPE_I] * n_i + [TYPE_F] * n_f)
        open_.extend([dep[v] >= depth] * n_i + [False] * n_f)
        dep.extend([dep[v] + 1] * n)
        first.extend([0] * n)
        count.extend([0] * n)
        return w

    def bush(b: int, key: int) -> None:
        """Sample the type-F subtree below b in full (a.s. finite: the bush
        rate cq is at most 1); attempt a draws from key child_key(key, a),
        and an attempt that passes BUSH_NODE_CAP nodes is discarded and
        counted."""
        nonlocal resamples
        keep = len(parent)
        for attempt in range(64):
            stack = [(b, child_key(key, attempt))]
            while stack and len(parent) - keep <= BUSH_NODE_CAP:
                v, k = stack.pop()
                n = quantile(fcdf, node_uniform(k, 0)) - 1
                if n:
                    w = grow(v, 0, n)
                    stack.extend((w + i, child_key(k, i)) for i in range(n))
            if len(parent) - keep <= BUSH_NODE_CAP:
                return
            resamples += 1
            for arr in (parent, ntype, dep, open_, first, count):
                del arr[keep:]
            first[b] = count[b] = 0
        raise ArithmeticError("bush sampling exceeded the node cap 64 times "
                              f"at c = {c}")

    stack = [(0, derive_seed(seed, "pgwstar"))]  # (type-I node, key)
    while stack:
        v, key = stack.pop()
        n_i = quantile(qcdf, node_uniform(key, 0))
        n_f = quantile(fcdf, node_uniform(key, 1)) - 1
        w = grow(v, n_i, n_f)
        for j in range(n_i, n_i + n_f):
            bush(w + j, child_key(key, j))
        if dep[v] < depth:
            stack.extend((w + i, child_key(key, i)) for i in range(n_i))
    t = RootedTree.from_parents(parent, dep, ntype, open_, first, count)
    t.truncation_depth = depth
    t.bush_resamples = resamples
    return t


def _decode_tree_sequence(seq, n: int) -> list[tuple[int, int]]:
    """Decode a length n-2 sequence over {0..n-1} into the edge list of the
    corresponding labeled tree (smallest-leaf rule)."""
    if n == 1:
        return []
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    leaves = [i for i in range(n) if deg[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def _rooted_shape(seq, n: int, root: int) -> tuple[list[int], ...]:
    """Per-node lists (parent, depth, first, count) of the labeled tree
    decoded from seq and rooted at the label root, labels dropped: nodes are
    numbered breadth first, so the children of v are first[v] ..
    first[v] + count[v] - 1."""
    adj = [[] for _ in range(n)]
    for a, b in _decode_tree_sequence(seq, n):
        adj[a].append(b)
        adj[b].append(a)
    seen = [False] * n
    seen[root] = True
    order, parent, depth, first, count = [root], [-1], [0], [], []
    for v, lab in enumerate(order):  # a breadth-first queue, read as it grows
        first.append(len(order))
        for nb in adj[lab]:
            if not seen[nb]:
                seen[nb] = True
                order.append(nb)
                parent.append(v)
                depth.append(depth[v] + 1)
        count.append(len(order) - first[v])
    return parent, depth, first, count


def _uniform_rooted_tree(n: int, rng: np.random.Generator) -> RootedTree:
    seq = rng.integers(0, n, size=max(0, n - 2)).tolist()
    parent, depth, first, count = _rooted_shape(seq, n, int(rng.integers(n)))
    return RootedTree.from_parents(parent, depth, [TYPE_UNTYPED] * n,
                                   [False] * n, first, count)


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
    n = len(t)
    size: list[float] = [0.0] * n
    # children-processed-first order: arena indices are topological
    # (children are always appended after their parent), so a reverse sweep
    # is a valid post-order.
    for v in range(n - 1, -1, -1):
        if t.ntype[v] == TYPE_I or t.open_[v]:
            size[v] = math.inf
        else:
            s = 1.0
            for w in t.children[v]:
                s += size[w]
            size[v] = s
    t.subtree_size = size
    return Counter(size[w] for w in t.children[t.root])


def tree_to_text(t: RootedTree) -> str:
    """Adjacency text format: one node per line, 'id parent-id type N'."""
    if t.subtree_size is None:
        subtree_stats(t)
    lines = []
    for v in range(len(t)):
        nv = t.subtree_size[v]
        nv_str = "inf" if math.isinf(nv) else str(int(nv))
        lines.append(f"{v} {t.parent[v]} {_TYPE_CHAR[t.ntype[v]]} {nv_str}")
    return "\n".join(lines) + "\n"


def tree_from_text(text: str) -> RootedTree:
    t = RootedTree()
    sizes = []
    for line in text.strip().splitlines():
        v, p, ch, nv = line.split()
        w = t.add_node(int(p), _CHAR_TYPE[ch], open_=False)
        if w != int(v):
            raise ValueError(f"node ids must be contiguous, got {v} at {w}")
        sizes.append(math.inf if nv == "inf" else float(nv))
    t.subtree_size = sizes
    # nodes with unsampled children cannot be distinguished from childless
    # ones in this format; infinite leaves are conservatively marked open
    for v in range(len(t)):
        t.open_[v] = math.isinf(sizes[v]) and not t.children[v]
    return t
