"""Spans around the calls into gwtree's layers, kept in memory, and the
per-layer metrics derived from them.

Recorder.patched() replaces each public function of rng, analytic, trees,
domination, walk, spanning and cli (plus the tree-code decoder that bush
grafts share, and the two audit methods of CoupledPair) with a wrapper
that records a span, in every gwtree module that holds a reference to it.
A span's self time is its duration minus the time of its child spans.
Nothing under src/ changes; the untraced runs never install the wrappers.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
import time

from setup_probe import import_program

import_program()
from gwtree import (analytic, cli, domination, rng, spanning,  # noqa: E402
                    trees, walk)

import workloads as W  # noqa: E402

LAYERS = (rng, analytic, trees, domination, walk, spanning, cli)
_EXTRA = {trees: ("_uniform_rooted_tree",), rng: ("derive_seed", "substream"),
          cli: ("main",)}
_METHODS = ("validate_embedding", "audit_le1")  # of CoupledPair


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


# units a span counts (nodes, steps, vertices) and the context it passes to
# its descendants (the n of an empirical_f call, the c of a walk estimate)
_UNITS = {
    "trees.sample_pgw": lambda a, k, out: len(out),
    "trees.sample_pgw_star": lambda a, k, out: len(out),
    "trees.sample_uniform_rooted_tree": lambda a, k, out: len(out),
    "trees._uniform_rooted_tree": lambda a, k, out: len(out),
    "trees.subtree_stats": lambda a, k, out: len(_arg(a, k, 0, "t")),
    "domination.sample_coupled_trees":
        lambda a, k, out: len(out.lo) + len(out.hi),
    "walk.estimate_return_integral":
        lambda a, k, out: _arg(a, k, 1, "K") * _arg(a, k, 2, "n_samples"),
    "spanning.giant_component": lambda a, k, out: out[0].n,
}
_CONTEXT = {
    "spanning.empirical_f": lambda a, k: f"n{_arg(a, k, 0, 'n')}",
    "walk.estimate_return_integral": lambda a, k: f"c{_arg(a, k, 0, 'c'):g}",
}


class Recorder:
    """Spans as [name, parent, start_ns, end_ns, self_ns, units, context]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._child_ns: list[int] = []

    def enter(self, name: str, context: str | None = None) -> int:
        if context is None and self._open:
            context = self.spans[self._open[-1]][6]
        idx = len(self.spans)
        self.spans.append([name, self._open[-1] if self._open else -1,
                           time.perf_counter_ns(), 0, 0, 0, context])
        self._open.append(idx)
        self._child_ns.append(0)
        return idx

    def exit(self, idx: int, units=0) -> None:
        end = time.perf_counter_ns()
        span = self.spans[idx]
        self._open.pop()
        child = self._child_ns.pop()
        dur = end - span[2]
        span[3], span[4], span[5] = end, dur - child, units
        if self._open:
            self._child_ns[-1] += dur

    def _wrap(self, name, fn):
        units, context = _UNITS.get(name), _CONTEXT.get(name)

        def traced(*args, **kwargs):
            idx = self.enter(name, context(args, kwargs) if context else None)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                self.exit(idx, units(args, kwargs, out)
                          if units and out is not None else 0)
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the span wrappers for the duration of the block."""
        targets = []
        for mod in LAYERS:
            layer = mod.__name__.split(".")[-1]
            names = list(getattr(mod, "__all__", ())) + list(_EXTRA.get(mod, ()))
            for attr in dict.fromkeys(names):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) or hasattr(fn, "cache_info"):
                    targets.append((f"{layer}.{attr}", fn))
        holders = [m for n, m in sys.modules.items()
                   if n == "gwtree" or n.startswith("gwtree.")]
        undo = []
        for name, fn in targets:
            wrapper = self._wrap(name, fn)
            for mod in holders:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        undo.append((mod, attr, val))
                        setattr(mod, attr, wrapper)
        for attr in _METHODS:
            fn = getattr(domination.CoupledPair, attr)
            undo.append((domination.CoupledPair, attr, fn))
            setattr(domination.CoupledPair, attr,
                    self._wrap(f"domination.CoupledPair.{attr}", fn))
        try:
            yield self
        finally:
            for obj, attr, val in reversed(undo):
                setattr(obj, attr, val)

    def dump(self, path: str, meta: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({**meta, "names": names,
                       "fields": ["name", "parent", "start_ns", "end_ns",
                                  "self_ns", "units", "context"],
                       "spans": [[ids[s[0]]] + s[1:] for s in self.spans]},
                      fh, separators=(",", ":"))


def _metric_table(sz: dict) -> dict:
    """metric -> (span names, context, statistic, scale, unit)."""
    small, large = f"n{sz['span_small'][0]}", f"n{sz['span_large'][0]}"
    pair = ("domination.sample_coupled_trees",)
    table = {
        "rng.substream_us": (("rng.substream",), None, "per_call", 1e6, "us"),
        "rng.derive_seed_us":
            (("rng.derive_seed",), None, "per_call", 1e6, "us"),
        "analytic.extinction_prob_us":
            (("analytic.extinction_prob",), None, "per_call", 1e6, "us"),
        "trees.pgw_us_per_node":
            (("trees.sample_pgw",), None, "per_unit", 1e6, "us/node"),
        "trees.pgw_star_us_per_node":
            (("trees.sample_pgw_star",), None, "per_unit", 1e6, "us/node"),
        "trees.nodes": (("trees.sample_pgw", "trees.sample_pgw_star",
                         "trees.sample_uniform_rooted_tree"), None, "units", 1,
                        "count"),
        "trees.uniform_tree_us_per_node":
            (("trees._uniform_rooted_tree",), None, "per_unit", 1e6,
             "us/node"),
        "trees.subtree_stats_us_per_node":
            (("trees.subtree_stats",), None, "per_unit", 1e6, "us/node"),
        "domination.pair_ms": (pair, None, "per_call", 1e3, "ms"),
        "domination.pair_us_per_node":
            (pair, None, "per_unit", 1e6, "us/node"),
        "domination.nodes_per_pair":
            (pair, None, "units_per_call", 1, "count"),
        "domination.validate_embedding_ms":
            (("domination.CoupledPair.validate_embedding",), None, "per_call",
             1e3, "ms"),
        "domination.audit_le1_ms":
            (("domination.CoupledPair.audit_le1",), None, "per_call", 1e3,
             "ms"),
        "domination.verify_tail_ms":
            (("domination.verify_tail_domination",), None, "per_call", 1e3,
             "ms"),
        "walk.decay_s":
            (("walk.pbar_decay_diagnostic",), None, "per_call", 1, "s"),
        "walk.killed_walk_us":
            (("walk.killed_walk_visits",), None, "per_call", 1e6, "us"),
        "walk.return_probs_ms":
            (("walk.return_probs",), None, "per_call", 1e3, "ms"),
        "spanning.giant_vertices":
            (("spanning.giant_component",), None, "units", 1, "count"),
    }
    for c in W.WALK_GRID:
        table[f"walk.annealed_ns_per_step.c{c:g}"] = (
            ("walk.estimate_return_integral",), f"c{c:g}", "per_unit", 1e9,
            "ns/step")
    for label, ctx in (("n1500", small), ("n4000", large)):
        for metric, fn in (("gnp_ms", "sample_gnp"),
                           ("giant_ms", "giant_component"),
                           ("log_tau_ms", "log_spanning_trees")):
            table[f"spanning.{metric}.{label}"] = (
                (f"spanning.{fn}",), ctx, "per_call", 1e3, "ms")
    return table


def units(sz: dict) -> dict:
    """Unit of every per-layer metric."""
    out = {k: v[4] for k, v in _metric_table(sz).items()}
    out.update({f"cli.parallel_speedup.{cmd}": "ratio"
                for cmd in ("estimate-f", "empirical-f")})
    out.update({"trace.layer_share_pct": "%", "trace.overhead_pct": "%"})
    return out


def layer_metrics(spans: list, rounds: int, sz: dict) -> dict:
    """Per-layer figures from a list of spans; None where no span matched."""
    out = {}
    for metric, (names, ctx, stat, scale, _) in _metric_table(sz).items():
        sel = [s for s in spans if s[0] in names and (ctx is None or s[6] == ctx)]
        if not sel:
            out[metric] = None
            continue
        self_s = sum(s[4] for s in sel) * 1e-9
        units = sum(s[5] for s in sel)
        out[metric] = scale * {
            "per_call": self_s / len(sel),
            "per_unit": self_s / units if units else 0.0,
            "units": units / rounds,
            "units_per_call": units / len(sel),
        }[stat]
    return out


def layer_shares(spans: list) -> dict:
    """Self time of each layer as a share of the operations' traced time;
    the shares sum to the part of that time the layer spans cover."""
    total = sum(s[3] - s[2] for s in spans if s[0].startswith("op."))
    out = {}
    for s in spans:
        layer = s[0].split(".")[0]
        if layer != "op":
            out[layer] = out.get(layer, 0.0) + 100.0 * s[4] / total
    return out


def _speedup(argv: list[str]) -> float:
    """Serial time of one command over its time on the default pool."""
    serial, pool = W.Pass(), W.Pass()
    pool.cli("cmd", argv)
    serial.cli("cmd", argv + ["--workers", "1"])
    return serial.seconds["cmd"] / pool.seconds["cmd"]


def probe(sz: dict) -> dict:
    """Per-layer metrics from a small fixed set of calls, for the layers a
    workload leaves idle."""
    rec = Recorder()
    p = W.Pass(recorder=rec)
    (n1, _), (n2, _) = sz["span_small"], sz["span_large"]
    K, n_walk = str(sz["walk_K"]), str(sz["walk_samples"] // 6)
    with rec.patched():
        p.cli("estimate-f", ["estimate-f", "--c", "2,3,4", "--K", K,
                             "--samples", n_walk, "--workers", "1"])
        p.cli("decay", ["decay", "--c", "2", "--K", K, "--samples",
                        str(sz["walk_samples"])])
        for n in (n1, n2):
            p.call("empirical-f", spanning.empirical_f, n, 3.0, 1, 1)
        p.call("verify", domination.verify_tail_domination, 1.5, 2.0)
        for i in range(20):
            pair = p.call("pair", domination.sample_coupled_trees, 1.5, 2.0,
                          6, i)
            p.call("walk", walk.killed_walk_visits, pair.lo, 0.7, i, 1.5)
            p.call("audit", pair.validate_embedding)
            p.call("audit", pair.audit_le1)
        for i in range(20):
            p.call("sample", trees.sample_pgw, 2.0, sz["pgw_cap"], i)
            t = p.call("sample", trees.sample_pgw_star, 2.0, 4, i)
            p.call("return_probs", walk.return_probs, t, 8)
        p.call("sample", trees.sample_uniform_rooted_tree, sz["uniform"][0], 1)
    out = layer_metrics(rec.spans, 1, sz)
    out["cli.parallel_speedup.estimate-f"] = _speedup(
        ["estimate-f", "--c", "2,3,4", "--K", K, "--samples", n_walk])
    out["cli.parallel_speedup.empirical-f"] = _speedup(
        ["empirical-f", "--c", "2,3,4", "--n", str(n1 // 4), "--reps", "2"])
    return out


def speedups(name: str, pool: list, serial: list) -> dict:
    """cli.parallel_speedup from the workload's own commands, where it runs
    them: serial replay time over the default-pool time."""
    groups = {"entropy-walk": {"estimate-f": ("estimate-f",)},
              "entropy-spanning": {"empirical-f": ("empirical-f.small",
                                                   "empirical-f.large")}}
    out = {}
    for cmd, ops in groups.get(name, {}).items():
        s = sum(p.seconds[g] for p in serial for g in ops)
        d = sum(p.seconds[g] for p in pool for g in ops)
        out[f"cli.parallel_speedup.{cmd}"] = s / d
    return out

