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

Node draws are keyed by the node's path from the root, so deepening a
tree (same seed, larger depth) reproduces the shallow tree exactly.
Type-I counts invert the laws module's positive-Poisson table at any c.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, deque

import numpy as np

from .laws import positive_poisson_cdf, quantile
from .rng import substream

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
      children[v] list of child indices
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
        self.children: list[list[int]] = []
        self.ntype: list[int] = []
        self.depth: list[int] = []
        self.open_: list[bool] = []
        self.root: int = 0
        self.truncation_depth: int | None = None
        self.subtree_size: list[float] | None = None
        self.capped: bool = False
        self.bush_resamples: int = 0

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
    t = RootedTree()
    t.add_node(-1)
    level = [0]
    while level:
        counts = rng.poisson(c, size=len(level))
        if len(t) + int(counts.sum()) > node_cap:
            t.capped = True
            return t  # nodes in `level` and beyond stay open
        nxt = []
        for v, k in zip(level, counts.tolist()):
            t.open_[v] = False
            for _ in range(k):
                nxt.append(t.add_node(v))
        level = nxt
    return t


def _expand_bush(t: RootedTree, bush_root: int, rate: float, seed: int,
                 path: tuple) -> None:
    """Fully sample the type-F subtree at bush_root (subcritical, rate < 1),
    resampling from scratch in the rare event the per-bush cap is hit."""
    for attempt in range(64):
        rng = substream(seed, "bush", path, attempt)
        created = []
        stack = [bush_root]
        t.open_[bush_root] = False
        ok = True
        while stack:
            v = stack.pop()
            for _ in range(int(rng.poisson(rate))):
                w = t.add_node(v, TYPE_F, open_=False)
                created.append(w)
                stack.append(w)
            if len(created) > BUSH_NODE_CAP:
                ok = False
                break
        if ok:
            return
        # reject: unlink everything below bush_root and retry
        t.bush_resamples += 1
        keep = len(t) - len(created)
        del t.parent[keep:], t.children[keep:], t.ntype[keep:]
        del t.depth[keep:], t.open_[keep:]
        t.children[bush_root] = []
    raise ArithmeticError("bush sampling exceeded the node cap 64 times; "
                          f"rate {rate} is not subcritical enough")


def sample_pgw_star(c: float, depth: int, seed: int) -> RootedTree:
    """Two-type survival-conditioned tree, type-I skeleton truncated at depth.

    c = 1 is the spine limit: exactly one type-I child per type-I node and
    Poisson(1) type-F children.
    """
    if not (c >= 1.0) or not math.isfinite(c):
        raise ValueError(f"sample_pgw_star requires finite c >= 1, got {c}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if c == 1.0:
        rate_i, rate_f = 0.0, 1.0
    else:
        from .analytic import extinction_prob
        params = extinction_prob(c)
        rate_i, rate_f = params.ctheta, params.cq
    qcdf = positive_poisson_cdf(rate_i)

    t = RootedTree()
    t.truncation_depth = depth
    t.add_node(-1, TYPE_I)
    stack = [(0, ())]  # (type-I node, path)
    while stack:
        v, path = stack.pop()
        if t.depth[v] > depth:
            continue  # frontier stub, stays open
        rng = substream(seed, "pgwstar", path)
        n_i = quantile(qcdf, rng.random())
        n_f = int(rng.poisson(rate_f))
        t.open_[v] = False
        for i in range(n_i):
            w = t.add_node(v, TYPE_I)
            stack.append((w, path + (i,)))
        for j in range(n_f):
            w = t.add_node(v, TYPE_F)
            _expand_bush(t, w, rate_f, seed, path + (n_i + j,))
    return t


def _decode_tree_sequence(seq, n: int) -> list[tuple[int, int]]:
    """Decode a length n-2 sequence over {0..n-1} into the edge list of the
    corresponding labeled tree (smallest-leaf rule)."""
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


def _uniform_rooted_tree(n: int, rng: np.random.Generator) -> RootedTree:
    t = RootedTree()
    t.add_node(-1, open_=False)
    if n == 1:
        return t
    seq = rng.integers(0, n, size=max(0, n - 2)).tolist()
    edges = _decode_tree_sequence(seq, n)
    root_label = int(rng.integers(n))
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    # BFS from the chosen root, dropping labels
    idx = {root_label: 0}
    queue = deque([root_label])
    while queue:
        lab = queue.popleft()
        v = idx[lab]
        t.open_[v] = False
        for nb in adj[lab]:
            if nb not in idx:
                idx[nb] = t.add_node(v, open_=False)
                queue.append(nb)
    return t


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
