"""The four workloads: their inputs, one pass of their operations, and the
figures a pass yields.

Every call into gwtree is one operation.  A pass makes the same calls on
the same inputs each time it runs, so every pass of a run gives the same
outputs and the same count of operations.  Inputs derive from the run seed
alone, except the c = 800 draws of exact-trees, whose seeds are fixed.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as R
from setup_probe import import_program

import_program()
from gwtree import cli, domination, trees, walk  # noqa: E402

SIZES = {
    False: {
        "walk_K": 60, "walk_samples": 100_000,
        "span_small": (1500, 20), "span_large": (4000, 2), "span_ref_reps": 20,
        "pairs": 3000, "pairs_kept": 100,
        "star_seeds": 200, "pgw_seeds": 1000, "pgw_cap": 5000,
        "root_seeds": 10_000, "uniform": (20_000, 10),
    },
    True: {  # --quick: the same operations and checks at toy sizes
        "walk_K": 20, "walk_samples": 4000,
        "span_small": (300, 6), "span_large": (400, 2), "span_ref_reps": 6,
        "pairs": 60, "pairs_kept": 20,
        "star_seeds": 20, "pgw_seeds": 100, "pgw_cap": 500,
        "root_seeds": 1000, "uniform": (2000, 3),
    },
}

WALK_GRID = (2.0, 3.0, 4.0)
SPAN_SMALL_C = 3.0
SPAN_LARGE_GRID = (2.0, 3.0, 4.0)
COUPLE_LAM, COUPLE_MU, COUPLE_DEPTH, KILL_S = 1.5, 2.0, 6, 0.7
VERIFY_LAMBDA, VERIFY_MU = "1.1,1.5,2,3", "1.5,2,3,4"
STAR_C, STAR_DEPTHS, STAR_K = 2.0, (4, 6), 8
PGW_C = 2.0
# ROADMAP item 5: at c = 800 the positive-Poisson quantile underflows and
# every root gets one type-I child.  Fixed seeds keep the failure share of a
# run independent of --seed.
BIG_C, BIG_C_SEEDS = 800.0, (0, 1, 2, 3)


def _grid(values) -> str:
    return ",".join(f"{c:g}" for c in values)


class Pass:
    """Per-group seconds and the operation count of one pass."""

    def __init__(self, recorder=None):
        self.seconds: dict[str, float] = defaultdict(float)
        self.ops = 0
        self.recorder = recorder

    def call(self, group: str, fn: Callable, *args):
        span = self.recorder.enter("op." + group) if self.recorder else None
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.seconds[group] += time.perf_counter() - t0
            self.ops += 1
            if span is not None:
                self.recorder.exit(span)

    def cli(self, group: str, argv: list[str]) -> dict:
        """Run one gwtree command in this process; returns its JSON output."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.call(group, cli.main, argv)
        if rc != 0:
            raise RuntimeError(f"gwtree {' '.join(argv)} exited with {rc}")
        return json.loads(buf.getvalue())

    @property
    def wall(self) -> float:
        return sum(self.seconds.values())


def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**63 - 1, size=n)]


def _with_workers(argv: list[str], workers: int | None) -> list[str]:
    return argv if workers is None else argv + ["--workers", str(workers)]


# --- entropy-walk -----------------------------------------------------------

def walk_inputs(seed: int, sz: dict) -> dict:
    s_f, s_d = _seeds(np.random.default_rng([seed, 1]), 2)
    K, n = str(sz["walk_K"]), str(sz["walk_samples"])
    return {
        "estimate-f": ["estimate-f", "--c", _grid(WALK_GRID), "--K", K,
                       "--samples", n, "--seed", str(s_f)],
        "decay": ["decay", "--c", "2", "--K", K, "--samples", n,
                  "--seed", str(s_d)],
    }


def walk_pass(inp: dict, p: Pass, workers: int | None) -> dict:
    return {cmd: p.cli(cmd, _with_workers(inp[cmd], workers))
            for cmd in ("estimate-f", "decay")}


def walk_figures(inp: dict, sz: dict, out: dict, p: Pass) -> dict:
    steps = sz["walk_samples"] * sz["walk_K"] * len(WALK_GRID)
    worst_se = max(r["stderr"] for r in out["estimate-f"]["results"])
    return {"walk_steps_per_s": steps / p.seconds["estimate-f"],
            "time_to_f_at_se_0.001_s":
                p.seconds["estimate-f"] * (worst_se / 1e-3) ** 2}


# --- entropy-spanning -------------------------------------------------------

def spanning_inputs(seed: int, sz: dict) -> dict:
    s_small, s_large, s_ref = _seeds(np.random.default_rng([seed, 2]), 3)
    (n1, r1), (n2, r2) = sz["span_small"], sz["span_large"]
    return {
        "empirical-f.small": ["empirical-f", "--c", _grid([SPAN_SMALL_C]),
                              "--n", str(n1), "--reps", str(r1),
                              "--seed", str(s_small)],
        "empirical-f.large": ["empirical-f", "--c", _grid(SPAN_LARGE_GRID),
                              "--n", str(n2), "--reps", str(r2),
                              "--seed", str(s_large)],
        "ref_seed": s_ref,
    }


def spanning_pass(inp: dict, p: Pass, workers: int | None) -> dict:
    return {op: p.cli(op, _with_workers(inp[op], workers))
            for op in ("empirical-f.small", "empirical-f.large")}


def spanning_figures(inp: dict, sz: dict, out: dict, p: Pass) -> dict:
    (n1, r1), (n2, r2) = sz["span_small"], sz["span_large"]
    vertices = n1 * r1 + n2 * r2 * len(SPAN_LARGE_GRID)
    ops = ("empirical-f.small", "empirical-f.large")
    seconds = sum(p.seconds[op] for op in ops)
    to_se = max(p.seconds[op] * (r["stderr"] / 1e-3) ** 2
                for op in ops for r in out[op]["results"])
    return {"graph_vertices_per_s": vertices / seconds,
            "time_to_f_at_se_0.001_s": to_se}


# --- coupled-walks ----------------------------------------------------------

def coupled_inputs(seed: int, sz: dict) -> dict:
    rng = np.random.default_rng([seed, 3])
    n = sz["pairs"]
    return {
        "pair_seeds": _seeds(rng, n), "lo_seeds": _seeds(rng, n),
        "hi_seeds": _seeds(rng, n),
        "verify-domination": ["verify-domination", "--lambda", VERIFY_LAMBDA,
                              "--mu", VERIFY_MU],
        "couple": ["couple", "--lambda", "1.2", "--mu", "1.5",
                   "--seed", str(_seeds(rng, 1)[0])],
        "kept": sz["pairs_kept"],
    }


def coupled_pass(inp: dict, p: Pass, workers: int | None) -> dict:
    n = len(inp["pair_seeds"])
    visits = np.zeros((2, n), dtype=np.int64)
    root_deg = np.zeros((2, n), dtype=np.int64)
    bad_embedding = bad_le1 = nodes = 0
    kept = []
    for i in range(n):
        pair = p.call("pair", domination.sample_coupled_trees, COUPLE_LAM,
                      COUPLE_MU, COUPLE_DEPTH, inp["pair_seeds"][i])
        visits[0, i] = p.call("walk", walk.killed_walk_visits, pair.lo, KILL_S,
                              inp["lo_seeds"][i], COUPLE_LAM)
        visits[1, i] = p.call("walk", walk.killed_walk_visits, pair.hi, KILL_S,
                              inp["hi_seeds"][i], COUPLE_MU)
        try:
            p.call("audit", pair.validate_embedding)
        except ValueError:
            bad_embedding += 1
        bad_le1 += not p.call("audit", pair.audit_le1)
        root_deg[0, i] = len(pair.lo.children[pair.lo.root])
        root_deg[1, i] = len(pair.hi.children[pair.hi.root])
        nodes += len(pair.lo) + len(pair.hi)
        if i < inp["kept"]:
            kept.append(pair)
    return {
        "visits": visits, "root_deg": root_deg, "bad_embedding": bad_embedding,
        "bad_le1": bad_le1, "nodes": nodes, "kept": kept,
        # verify-domination takes no seed; couple draws from its own
        "verify-domination": p.cli("verify-domination",
                                   inp["verify-domination"]),
        "couple": p.cli("couple", inp["couple"]),
    }


def coupled_figures(inp: dict, sz: dict, out: dict, p: Pass) -> dict:
    seconds = p.seconds["pair"] + p.seconds["walk"] + p.seconds["audit"]
    return {"coupled_pairs_per_s": len(inp["pair_seeds"]) / seconds}


# --- exact-trees ------------------------------------------------------------

def trees_inputs(seed: int, sz: dict) -> dict:
    rng = np.random.default_rng([seed, 4])
    return {"star_seeds": _seeds(rng, sz["star_seeds"]),
            "pgw_seeds": _seeds(rng, sz["pgw_seeds"]),
            "root_seeds": _seeds(rng, sz["root_seeds"]),
            "uniform_seeds": _seeds(rng, sz["uniform"][1]),
            "uniform_n": sz["uniform"][0], "pgw_cap": sz["pgw_cap"]}


def trees_pass(inp: dict, p: Pass, workers: int | None) -> dict:
    nodes = 0
    star = []  # per seed: p_k at each depth, and p_2 summed by hand
    for s in inp["star_seeds"]:
        row = []
        for depth in STAR_DEPTHS:
            t = p.call("sample", trees.sample_pgw_star, STAR_C, depth, s)
            probs = p.call("return_probs", walk.return_probs, t, STAR_K).probs
            row.append((probs, R.tree_p2(t.children, t.root)))
            nodes += len(t)
        star.append(row)
    pgw = []  # (nodes, capped, open nodes)
    for s in inp["pgw_seeds"]:
        t = p.call("sample", trees.sample_pgw, PGW_C, inp["pgw_cap"], s)
        pgw.append((len(t), t.capped, sum(t.open_)))
        nodes += len(t)
    roots = []  # (root degree, type-I children of the root)
    for s in inp["root_seeds"]:
        t = p.call("sample", trees.sample_pgw_star, STAR_C, 1, s)
        kids = t.children[t.root]
        roots.append((len(kids), sum(t.ntype[v] == trees.TYPE_I for v in kids)))
        nodes += len(t)
    uniform = []  # (nodes, childless nodes)
    for s in inp["uniform_seeds"]:
        t = p.call("sample", trees.sample_uniform_rooted_tree,
                   inp["uniform_n"], s)
        uniform.append((len(t), sum(not ch for ch in t.children)))
        nodes += len(t)
    big = []  # type-I children of the root; None when the draw raised
    for s in BIG_C_SEEDS:
        try:
            t = p.call("big_c", trees.sample_pgw_star, BIG_C, 0, s)
        except Exception:  # a crash counts as a failed draw, like a bad law
            big.append(None)
            continue
        big.append(sum(t.ntype[v] == trees.TYPE_I for v in t.children[t.root]))
    return {"star": star, "pgw": pgw, "roots": roots, "uniform": uniform,
            "big_c": big, "nodes": nodes}


def trees_failed(out: dict) -> int:
    """Failed c = 800 draws: the root needs >= 2 type-I children (~800 are
    expected; a single one means the quantile underflowed)."""
    return sum(k is None or k < 2 for k in out["big_c"])


def trees_figures(inp: dict, sz: dict, out: dict, p: Pass) -> dict:
    return {"tree_nodes_per_s": out["nodes"] / p.seconds["sample"]}


@dataclass(frozen=True)
class Workload:
    inputs: Callable
    run: Callable
    figures: Callable       # the workload's own end-to-end figures
    throughput: str         # which figure is reported as throughput_per_s
    failed: Callable = lambda out: 0
    workers: int | None = None  # --workers of the untraced passes


WORKLOADS = {
    "entropy-walk": Workload(
        walk_inputs, walk_pass, walk_figures,
        "walk_steps_per_s"),
    # The default pool runs two dense factorizations side by side, each with
    # its own BLAS threads; on 2 cores identical passes then take 3.3-9.4 s.
    # The untraced passes run serially; the traced run compares the two.
    "entropy-spanning": Workload(
        spanning_inputs, spanning_pass, spanning_figures,
        "graph_vertices_per_s", workers=1),
    "coupled-walks": Workload(
        coupled_inputs, coupled_pass, coupled_figures,
        "coupled_pairs_per_s"),
    "exact-trees": Workload(
        trees_inputs, trees_pass, trees_figures, "tree_nodes_per_s",
        trees_failed),
}


def fingerprint(out: dict) -> str:
    """Canonical text of a pass's outputs, pairs kept for checks excluded."""
    body = {k: v for k, v in out.items() if k != "kept"}
    return json.dumps(body, sort_keys=True,
                      default=lambda a: np.asarray(a).tolist())
