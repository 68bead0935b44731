"""Checks of each workload's outputs against reference.py and against
properties the methods must have.

Each check returns a list of problems, empty when the outputs pass.
Statistical checks use 5-sigma bands (or a chi-square p-value above
1e-6), so a correct program fails one about once in a million runs.  The
3-sigma comparisons are the ones the method itself states (monotone
estimates, visit-count domination); at 3000 pairs the visit-count margins
leave about one false alarm in 10 000 runs.
"""

from __future__ import annotations

import math

import numpy as np

import reference as R
from setup_probe import import_program

import_program()
import gwtree as gw  # noqa: E402

import workloads as W  # noqa: E402

_P_MIN = 1e-6


def _near(got: float, want: float, tol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= tol


def f_rows(rows: list, grid, label: str) -> list[str]:
    """Entropy estimates: inside the sandwich at 3 se, strictly increasing in
    c at 3 sigma, with a positive finite stderr."""
    problems = []
    if [r["c"] for r in rows] != list(grid):
        return [f"{label}: grid {[r['c'] for r in rows]} != {list(grid)}"]
    for r in rows:
        se = r["stderr"]
        if se is None or not (se > 0.0 and math.isfinite(se)):
            problems.append(f"{label}: bad stderr {se} at c={r['c']}")
            continue
        lo, hi = R.f_sandwich(r["c"])
        if not (lo - 3 * se <= r["value"] <= hi + 3 * se):
            problems.append(f"{label}: f({r['c']}) = {r['value']} outside "
                            f"[{lo:.5f}, {hi:.5f}] +- 3 se")
    for a, b in zip(rows, rows[1:]):
        if a["stderr"] and b["stderr"]:
            gap = b["value"] - a["value"]
            if gap < 3 * math.hypot(a["stderr"], b["stderr"]):
                problems.append(f"{label}: f not increasing at 3 sigma "
                                f"between c={a['c']} and c={b['c']}")
    return problems


def walk_estimates(doc: dict, sz: dict) -> list[str]:
    rows = doc["results"]
    problems = f_rows(rows, W.WALK_GRID, "estimate-f")
    for r in rows:
        if (r["K"], r["n_samples"]) != (sz["walk_K"], sz["walk_samples"]):
            problems.append(f"estimate-f: K/samples {r['K']}/{r['n_samples']}")
        if not _near(r["elog_deg"], R.expected_log_degree(r["c"]), 1e-9):
            problems.append(f"estimate-f: E[log D] {r['elog_deg']} at "
                            f"c={r['c']} differs from the reference")
        if not _near(r["return_integral"], r["elog_deg"] - r["value"], 1e-12):
            problems.append(f"estimate-f: value != E[log D] - return "
                            f"integral at c={r['c']}")
    return problems


def decay_table(doc: dict, sz: dict) -> list[str]:
    """p-bar_k is exactly 0 at odd k, and p-bar_2 matches its closed form."""
    rows = doc["results"]
    n = sz["walk_samples"]
    problems = []
    if [r["k"] for r in rows] != list(range(1, sz["walk_K"] + 1)):
        return ["decay: rows are not k = 1..K"]
    for r in rows:
        if r["k"] % 2 and r["pbar"] != 0.0:
            problems.append(f"decay: pbar_{r['k']} = {r['pbar']} at odd k")
        if not 0.0 <= r["pbar"] <= 1.0:
            problems.append(f"decay: pbar_{r['k']} = {r['pbar']} not in [0,1]")
        elif not _near(r["stderr"],
                       math.sqrt(r["pbar"] * (1 - r["pbar"]) / n), 1e-12):
            problems.append(f"decay: stderr of pbar_{r['k']} inconsistent")
    p2 = rows[1]
    want = R.annealed_p2(2.0)
    if not abs(p2["pbar"] - want) <= 5 * p2["stderr"]:
        problems.append(f"decay: pbar_2 = {p2['pbar']} vs closed form "
                        f"{want:.5f} beyond 5 se")
    if not doc["fit_slope"] < 0.0:
        problems.append(f"decay: fit slope {doc['fit_slope']} is not negative")
    return problems


def check_walk(inp: dict, sz: dict, out: dict) -> list[str]:
    return (walk_estimates(out["estimate-f"], sz)
            + decay_table(out["decay"], sz))


def spanning_rows(out: dict, sz: dict) -> list[str]:
    problems = []
    for op, grid, (n, reps) in (
            ("empirical-f.small", [W.SPAN_SMALL_C], sz["span_small"]),
            ("empirical-f.large", W.SPAN_LARGE_GRID, sz["span_large"])):
        rows = out[op]["results"]
        problems += f_rows(rows, grid, op)
        for r in rows:
            if (r["n"], r["reps"]) != (n, reps):
                problems.append(f"{op}: n/reps {r['n']}/{r['reps']}")
    return problems


def reference_mean_f(n: int, c: float, reps: int, seed: int):
    """Mean and stderr of log tau / |giant| over graphs the benchmark samples
    and counts itself."""
    rng = np.random.default_rng(seed)
    vals = []
    for _ in range(reps):
        size, edges = R.giant_edges(n, R.sample_gnp_edges(n, c / n, rng))
        vals.append(R.log_tau(size, edges) / size)
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(reps))


def spanning_reference(inp: dict, sz: dict, out: dict) -> list[str]:
    """The n=small estimate against the reference mean; the program's
    G(n,p), giant and log tau on one n=large graph against scipy and
    slogdet; log tau(K_m) against Cayley's formula."""
    problems = []
    n1, _ = sz["span_small"]
    row = out["empirical-f.small"]["results"][0]
    mean, se = reference_mean_f(n1, W.SPAN_SMALL_C, sz["span_ref_reps"],
                                inp["ref_seed"])
    if not abs(row["value"] - mean) <= 5 * math.hypot(row["stderr"], se):
        problems.append(f"empirical-f.small: {row['value']} vs reference "
                        f"{mean:.5f} +- {se:.5f} beyond 5 sigma")

    n2, _ = sz["span_large"]
    p = W.SPAN_SMALL_C / n2
    g = gw.sample_gnp(n2, p, inp["ref_seed"])
    pairs = n2 * (n2 - 1) / 2
    if not abs(g.m - pairs * p) <= 5 * math.sqrt(pairs * p * (1 - p)):
        problems.append(f"sample_gnp: {g.m} edges, expected {pairs * p:.0f}")
    giant, _ = gw.giant_component(g)
    size, edges = R.giant_edges(n2, g.edges)
    if giant.n != size:
        problems.append(f"giant_component: {giant.n} vertices, reference {size}")
    else:
        want = R.log_tau(size, edges)
        got = gw.log_spanning_trees(giant).log_tau
        if not _near(got, want, 1e-9 * abs(want)):
            problems.append(f"log_spanning_trees: {got} vs slogdet {want}")
    m = 300
    iu = np.triu_indices(m, k=1)
    got = gw.log_spanning_trees(gw.SparseGraph(m, np.stack(iu, axis=1))).log_tau
    if not _near(got, R.cayley_log_tau(m), 1e-9 * R.cayley_log_tau(m)):
        problems.append(f"log_spanning_trees(K_{m}) = {got} vs Cayley")
    return problems


def check_spanning(inp: dict, sz: dict, out: dict) -> list[str]:
    return spanning_rows(out, sz) + spanning_reference(inp, sz, out)


def killed_walk_domination(visits: np.ndarray) -> list[str]:
    """P(X >= m) on the lambda tree >= P(X' >= m) on the mu tree, at 3 sigma,
    for m = 2..6."""
    n = visits.shape[1]
    problems = []
    for m in range(2, 7):
        p, pp = (visits >= m).mean(axis=1)
        se = math.sqrt(p * (1 - p) / n + pp * (1 - pp) / n)
        if p < pp - 3 * se:
            problems.append(f"killed walks: P(X>={m}) {p:.4f} < "
                            f"P(X'>={m}) {pp:.4f} - 3 se")
    return problems


def root_degree_law(degrees: np.ndarray, c: float, label: str) -> list[str]:
    pv = R.chi2_pvalue(np.asarray(degrees), R.root_degree_pmf(c))
    if pv < _P_MIN:
        return [f"{label}: root degrees fit the c={c} law with p = {pv:.2e}"]
    return []


def _subtree_sizes(t) -> list[float]:
    """N(v) by a post-order from the root; inf for type-I or open nodes and
    for anything above them."""
    order, stack = [], [t.root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(t.children[v])
    size = [0.0] * len(t.parent)
    for v in reversed(order):
        infinite = t.ntype[v] == gw.TYPE_I or t.open_[v]
        size[v] = math.inf if infinite else 1.0 + sum(size[w] for w in t.children[v])
    return size


def embedding(pair) -> list[str]:
    """The node map sends root to root, is injective, maps parents to
    parents, and never maps a node onto a smaller subtree."""
    m = pair.node_map
    if m.get(pair.lo.root) != pair.hi.root:
        return ["embedding: root is not mapped to root"]
    if len(set(m.values())) != len(m):
        return ["embedding: node map is not injective"]
    size_lo, size_hi = _subtree_sizes(pair.lo), _subtree_sizes(pair.hi)
    for u, v in m.items():
        if u != pair.lo.root and m.get(pair.lo.parent[u]) != pair.hi.parent[v]:
            return [f"embedding: parent of node {u} not mapped to parent"]
        if size_hi[v] < size_lo[u]:
            return [f"embedding: subtree of node {u} larger than its image"]
    return []


def domination_rows(doc: dict) -> list[str]:
    """At beta = alpha every pair is dominated: violated_at is null."""
    problems = []
    rows = doc["results"]
    lams = [float(x) for x in W.VERIFY_LAMBDA.split(",")]
    mus = [float(x) for x in W.VERIFY_MU.split(",")]
    want = [(l, m) for l in lams for m in mus if m > l]
    if [(r["lambda"], r["mu"]) for r in rows] != want:
        return ["verify-domination: pairs differ from the requested grid"]
    for r in rows:
        if r["violated_at"] is not None:
            problems.append(f"verify-domination: violated at k = "
                            f"{r['violated_at']} for ({r['lambda']}, {r['mu']})")
        if not _near(r["beta"], R.alpha(r["lambda"], r["mu"]), 1e-12):
            problems.append(f"verify-domination: beta {r['beta']} != alpha")
    return problems


def check_coupled(inp: dict, sz: dict, out: dict) -> list[str]:
    problems = []
    if out["bad_embedding"] or out["bad_le1"]:
        problems.append(f"audit: {out['bad_embedding']} invalid embeddings, "
                        f"{out['bad_le1']} le1 failures")
    problems += killed_walk_domination(out["visits"])
    problems += root_degree_law(out["root_deg"][0], W.COUPLE_LAM, "pair lo")
    problems += root_degree_law(out["root_deg"][1], W.COUPLE_MU, "pair hi")
    for pair in out["kept"]:
        problems += embedding(pair)
    problems += domination_rows(out["verify-domination"])
    rows = out["couple"]["results"]
    if not rows or not all(r["le1_ok"] and r["embedding_ok"] for r in rows):
        problems.append("couple: a sample failed its own audit")
    return problems


def star_trees(star: list) -> list[str]:
    """p_k is exactly 0 at odd k, bitwise the same at both depths, p_2 equals
    the sum over the root's children, and its mean fits the closed form."""
    problems = []
    p2 = []
    for i, ((probs_a, p2_a), (probs_b, p2_b)) in enumerate(star):
        if not np.array_equal(probs_a, probs_b):
            problems.append(f"return_probs: seed #{i} changes under deepening")
        for probs, direct in ((probs_a, p2_a), (probs_b, p2_b)):
            if np.any(np.asarray(probs)[0::2] != 0.0):
                problems.append(f"return_probs: seed #{i} has p_k != 0 at odd k")
            if not _near(probs[1], direct, 1e-12):
                problems.append(f"return_probs: seed #{i} p_2 {probs[1]} vs "
                                f"direct sum {direct}")
        p2.append(probs_a[1])
    se = np.std(p2, ddof=1) / math.sqrt(len(p2))
    want = R.annealed_p2(W.STAR_C)
    if not abs(np.mean(p2) - want) <= 5 * se:
        problems.append(f"return_probs: mean p_2 {np.mean(p2):.5f} vs closed "
                        f"form {want:.5f} beyond 5 se")
    return problems


def pgw_trees(pgw: list, cap: int) -> list[str]:
    """The capped fraction estimates the survival probability theta."""
    problems = []
    for size, capped, n_open in pgw:
        if size > cap or (not capped and n_open):
            problems.append(f"sample_pgw: tree of {size} nodes, capped="
                            f"{capped}, {n_open} open")
            break
    frac = np.mean([capped for _, capped, _ in pgw])
    th = R.theta(W.PGW_C)
    if not abs(frac - th) <= 5 * math.sqrt(th * (1 - th) / len(pgw)):
        problems.append(f"sample_pgw: capped fraction {frac:.4f} vs theta "
                        f"{th:.4f} beyond 5 se")
    return problems


def root_laws(roots: list) -> list[str]:
    deg = np.array([d for d, _ in roots])
    n_i = np.array([i for _, i in roots])
    problems = root_degree_law(deg, W.STAR_C, "sample_pgw_star")
    q = R.extinction_q(W.STAR_C)
    ks = np.arange(200)
    pv = R.chi2_pvalue(n_i, R.positive_poisson_pmf(W.STAR_C * (1 - q), ks))
    if pv < _P_MIN:
        problems.append(f"sample_pgw_star: type-I child counts fit "
                        f"Q*(c theta) with p = {pv:.2e}")
    return problems


def uniform_trees(uniform: list, n: int) -> list[str]:
    """Mean childless count against n (1 - 1/n)^(n-1)."""
    if any(size != n for size, _ in uniform):
        return [f"sample_uniform_rooted_tree: a tree without {n} nodes"]
    mean = np.mean([k for _, k in uniform])
    want = R.uniform_tree_childless_mean(n)
    # + 1: the root indicator the leaf-count variance leaves out
    tol = 5 * math.sqrt(R.uniform_tree_leaf_var(n) / len(uniform)) + 1
    if not abs(mean - want) <= tol:
        return [f"sample_uniform_rooted_tree: mean childless {mean:.1f} vs "
                f"{want:.1f}"]
    return []


def check_trees(inp: dict, sz: dict, out: dict) -> list[str]:
    return (star_trees(out["star"]) + pgw_trees(out["pgw"], inp["pgw_cap"])
            + root_laws(out["roots"])
            + uniform_trees(out["uniform"], inp["uniform_n"]))


CHECKS = {"entropy-walk": check_walk, "entropy-spanning": check_spanning,
          "coupled-walks": check_coupled, "exact-trees": check_trees}
