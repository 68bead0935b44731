"""Batch experiment driver.

    gwtree <subcommand> [--flags]

Subcommands: params, bounds, verify-domination, couple, returns,
estimate-f, empirical-f, decay, crosscheck.  Each is one _COMMANDS entry
(help, runner, CSV columns, fields), from which come the parser, the
config-file keys, the defaults, the field checks and the embedded config.
A config file is flat `key = value` text setting the command's own keys or
format, seed, out and workers; explicit flags override it.  Flags and file
values are read alike, so both embed grid fields as given and scalar fields
as read.  Output is one JSON document or a CSV table (frozen column order
per subcommand, documented in the README) embedding the resolved config and
the code version.  Identical config + seed gives byte-identical output
files; nothing is written on failure.

All randomness flows from the single --seed through named substreams, so
grid points, repetitions and walk chunks are reproducible independently of
the worker pool (--workers, default GWTREE_THREADS or the CPU count, never
above it).  A command opens one pool: the walk commands split each c's walk
chunks over it, empirical-f its grid points.  A config that cannot run exits
with status 2 before any work starts; a failure while a command runs exits
with status 3.  Either way the error is one line.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, NamedTuple

from . import __version__, analytic, domination, spanning, trees, walk
from .rng import derive_seed

_REQUIRED = object()  # the default of a field with no default


class ConfigError(Exception):
    pass


class _Field(NamedTuple):
    """One input.  `read` turns a flag's or a file's text into the value
    embedded in the output; a grid keeps its text, checked as comma-separated
    floats that must each pass `check`, as a set scalar must."""
    read: Callable
    default: object = _REQUIRED
    check: Callable | None = None
    msg: str = ""
    grid: bool = False
    help: str | None = None


def _writable_dir(path):
    where = os.path.dirname(os.path.abspath(path))
    return os.path.isdir(where) and os.access(where, os.W_OK)


_C = _Field(float, check=lambda v: math.isfinite(v) and v > 1.0,
           msg="must be finite and > 1")
_C_GRID = _C._replace(read=str, grid=True, help="comma-separated c grid")
_K = _Field(int, 60, lambda v: v >= 20 and v % 2 == 0, "must be even and >= 20")
_WALKS = _Field(int, 100_000, lambda v: v >= 2, "must be >= 2")
_N = _Field(int, 1500, lambda v: 1 <= v <= spanning.FACTORIZATION_CAP,
            f"must lie in [1, {spanning.FACTORIZATION_CAP}]")
_REPS = _Field(int, 20, lambda v: v >= 1, "must be >= 1")

# out/workers are execution details, not experiment parameters: identical
# experiments must produce byte-identical files wherever and however they run
_EMBEDDED = {"format": _Field(str, "json", ("json", "csv").__contains__,
                              "must be json or csv", help="json or csv"),
             "seed": _Field(int, 0)}
_EXECUTION = {
    "out": _Field(lambda text: text or None, None, _writable_dir,  # "": stdout
                  "its directory must exist and be writable",
                  help="output path (default: stdout)"),
    "workers": _Field(int, None, help="worker processes (default: "
                                      "GWTREE_THREADS or CPU count)")}


def _fields(cmd: str) -> dict:
    return {**_EMBEDDED, **_COMMANDS[cmd].fields, **_EXECUTION}


def _read_config_file(path: str) -> dict:
    out = {}
    try:
        with open(path) as fh:
            for ln, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{ln}: expected 'key = value'")
                key, val = (part.strip() for part in line.split("=", 1))
                key = key.replace("-", "_")
                out["lam" if key == "lambda" else key] = val
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwtree",
        description="samplers, domination checks, and entropy estimators "
                    "for the supercritical branching-tree toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, spec in _COMMANDS.items():
        p = sub.add_parser(cmd, help=spec.help)
        p.add_argument("--config", default=None,
                       help="flat key=value config file; flags override")
        for key, f in _fields(cmd).items():
            p.add_argument("--lambda" if key == "lam" else f"--{key}",
                           dest=key, default=None, type=f.read, help=f.help)
    return parser


def _resolve(args: argparse.Namespace) -> dict:
    """defaults <- config file <- explicit flags, each read by its field."""
    fields = _fields(args.command)
    cfg = {key: f.default for key, f in fields.items()}
    file_cfg = _read_config_file(args.config) if args.config else {}
    for key, val in file_cfg.items():
        if key not in fields:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            cfg[key] = fields[key].read(val)
        except ValueError as exc:
            raise ConfigError(f"{args.config}: {key}: {exc}") from None
    cfg.update((key, val) for key, val in vars(args).items()
               if key in fields and val is not None)
    return cfg


# Most nodes one complete couple pair may hold.  A run takes about 160 bytes
# a node (--lambda 50 --mu 800 --depth 1, 6.9e5 hi nodes, peaked at 175 MB),
# so this keeps one below about half a gigabyte.
_COUPLE_NODE_BUDGET = 2_000_000


# Most bytes the walk stacks of one chunk may hold.  walk._walk_chunk keeps
# walk._STACK_LEVEL_BYTES (16: a uint64 key and two int32 counts) for each of
# K + 1 stack levels of each of a chunk's min(samples, 8192) walks, whatever
# c is; the estimate counts K + 2 levels, the last for the chunk's per-walk
# vectors.  Levels that no walk reaches stay untouched: returns --c 2
# --K 1000 --samples 8192 --workers 1 peaked at 122 MB (estimate 125 MB over
# a 67 MB interpreter).
_WALK_STACK_BUDGET = 1 << 30
_WALK_COMMANDS = ("returns", "estimate-f", "decay", "crosscheck")


def _complete_nodes(c: float, depth: int) -> float:
    """Expected size of one complete tree of a couple pair at c: m^d type-I
    nodes at each depth d <= depth, each with bushes of mean total size
    cq/(1 - cq), and m^(depth+1) frontier stubs, where m = E[Q*(c theta)].
    The bushes have no bound as c -> 1."""
    p = analytic.extinction_prob(c)
    m, cq = p.ctheta / -math.expm1(-p.ctheta), p.cq
    try:
        return (sum(m ** d for d in range(depth + 1)) * (1 + cq / (1 - cq))
                + m ** (depth + 1))
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _validated_inputs(cmd: str, cfg: dict) -> dict:
    """Every field's check, then the checks that join fields or need the
    laws, all before any work starts."""
    v = {}
    for key, f in _fields(cmd).items():
        val = cfg[key]
        if val is _REQUIRED:
            raise ConfigError(f"{key}: required for '{cmd}'")
        if f.grid:
            try:
                val = [float(x) for x in val.split(",") if x.strip() != ""]
            except ValueError:
                raise ConfigError(f"{key}: cannot parse float list from "
                                  f"{val!r}") from None
            if not val:
                raise ConfigError(f"{key}: need >= 1 value")
        if f.check is not None and val is not None:
            for x in val if f.grid else [val]:
                if not f.check(x):
                    raise ConfigError(f"{key}: {f.msg}, got {x!r}")
        v[key] = val
    v["workers"] = _worker_count(v["workers"])
    if cmd == "verify-domination":
        v["pairs"] = [(l, m) for l in v["lam"] for m in v["mu"] if m > l > 0.0]
        if not v["pairs"]:
            raise ConfigError("lam/mu: no pair satisfies mu > lambda > 0")
    if cmd == "couple":
        lam, mu = v["lam"], v["mu"]
        if not mu > lam:
            raise ConfigError(f"lam/mu: need mu > lambda, got {lam}, {mu}")
        try:
            domination._coupled_sampler(lam, mu)
        except ArithmeticError as exc:
            raise ConfigError(
                f"lam/mu: cannot couple at {lam}, {mu}: {exc}") from None
        depth = v["depth"]
        nodes = {"lam": _complete_nodes(lam, depth),
                 "mu": _complete_nodes(mu, depth)}
        total = sum(nodes.values())
        if total > _COUPLE_NODE_BUDGET:
            raise ConfigError(
                f"{max(nodes, key=nodes.get)}/depth: a pair at lambda = {lam}, "
                f"mu = {mu}, depth {depth} holds about {total:.3g} nodes, "
                f"over the budget of {_COUPLE_NODE_BUDGET:,}")
    if cmd in _WALK_COMMANDS:
        size = (walk._STACK_LEVEL_BYTES * (v["K"] + 2)
                * min(v["samples"], walk._WALK_CHUNK))
        if size > _WALK_STACK_BUDGET:
            raise ConfigError(
                f"K: walks of {v['K']} steps hold about {size / 2**20:,.0f} "
                f"MB of stacks a chunk, over the budget of "
                f"{_WALK_STACK_BUDGET >> 20:,} MB")
    cs = v["c"] if isinstance(v.get("c"), list) else [v.get("c")]
    for c in cs:
        try:
            if cmd in _WALK_COMMANDS:
                trees._star_tables(c)  # the tables the walks invert
            if cmd in ("bounds", "estimate-f", "crosscheck"):
                analytic.expected_log_degree(analytic.extinction_prob(c))
        except ArithmeticError as exc:
            raise ConfigError(f"c: cannot run {cmd} at {c}: {exc}") from None
    if cmd in ("empirical-f", "crosscheck") and max(cs) > v["n"]:
        raise ConfigError(f"c: must not exceed n = {v['n']} "
                          f"(edge probability c/n), got {max(cs)}")
    return v


# --- worker pools ------------------------------------------------------------

def _worker_count(cfg_workers) -> int:
    """--workers, else GWTREE_THREADS, else the CPU count; never more
    processes than CPUs."""
    env = os.environ.get("GWTREE_THREADS")
    if cfg_workers is None and env and not env.strip().isdigit():
        raise ConfigError(f"GWTREE_THREADS must be an integer, got {env!r}")
    cpus = os.cpu_count() or 1
    asked = cfg_workers if cfg_workers is not None else env or cpus
    return max(1, min(int(asked), cpus))


def _pool(workers: int):
    """The process pool of one command; one worker runs in this process."""
    return (ProcessPoolExecutor(max_workers=workers) if workers > 1
            else contextlib.nullcontext())


# --- command runners ---------------------------------------------------------

def _run_params(v):
    rows = []
    for c in v["c"]:
        p = analytic.extinction_prob(c, v["tol"])
        rows.append({"c": c, "q": p.q, "theta": p.theta,
                     "duality_residual": p.duality_residual()})
    return rows, {}


def _run_bounds(v):
    rows = []
    for c in v["c"]:
        b = analytic.f_bounds(analytic.extinction_prob(c))
        rows.append({"c": c, "f_lower": b.f_lower, "f_upper": b.f_upper,
                     "fprime_lower": b.fprime_lower})
    return rows, {}


def _run_verify_domination(v):
    return [domination.verify_tail_domination(
                lam, mu, beta=v["beta"], kmax=v["kmax"]).to_dict()
            for lam, mu in v["pairs"]], {}


def _run_couple(v):
    rows, details = [], []
    for i in range(v["samples"]):
        pair = domination.sample_coupled_trees(
            v["lam"], v["mu"], v["depth"],
            derive_seed(v["seed"], "couple", i)).complete()
        ok_emb = True
        try:
            pair.validate_embedding()
        except ValueError:
            ok_emb = False
        ok_le1 = pair.audit_le1()
        rows.append({"sample": i, "lo_nodes": len(pair.lo),
                     "hi_nodes": len(pair.hi), "le1_ok": ok_le1,
                     "embedding_ok": ok_emb})
        details.append({"sample": i, "lo": trees.tree_to_text(pair.lo),
                        "hi": trees.tree_to_text(pair.hi),
                        "node_map": sorted(pair.node_map.items())})
    return rows, {"samples_detail": details}


def _run_returns(v):
    with _pool(v["workers"]) as ex:
        reps = [walk.estimate_return_integral(
                    c, v["K"], v["samples"],
                    derive_seed(v["seed"], "returns", c), ex)
                for c in v["c"]]
    rows = [{"c": c, "K": v["K"], "n_samples": r.n_samples,
             "value": r.value, "stderr": r.stderr, "seed": r.seed}
            for c, r in zip(v["c"], reps)]
    return rows, {}


def _walk_f(v, c, ex):
    seed = derive_seed(v["seed"], "estimate_f", c)
    return walk.estimate_f(c, v["K"], v["samples"], seed, ex)


def _run_estimate_f(v):
    rows = []
    with _pool(v["workers"]) as ex:
        for c in v["c"]:
            r = _walk_f(v, c, ex)
            eld = analytic.expected_log_degree(analytic.extinction_prob(c))
            rows.append({"c": c, "K": v["K"], "n_samples": r.n_samples,
                         "value": r.value, "stderr": r.stderr,
                         "elog_deg": eld, "return_integral": eld - r.value,
                         "seed": r.seed})
    return rows, {}


def _run_empirical_f(v):
    cs, k = v["c"], len(v["c"])
    seeds = [derive_seed(v["seed"], "empirical_f", c) for c in cs]
    # spanning imports scipy on first use: once here, not in every worker
    import scipy.linalg.lapack  # noqa: F401
    import scipy.sparse.csgraph  # noqa: F401
    with _pool(min(v["workers"], k)) as ex:
        reps = list((ex.map if ex else map)(spanning.empirical_f, [v["n"]] * k,
                                            cs, [v["reps"]] * k, seeds))
    rows = [{"c": c, "n": v["n"], "reps": r.n_samples, "value": r.value,
             "stderr": r.stderr, "seed": r.seed}
            for c, r in zip(cs, reps)]
    return rows, {}


def _run_decay(v):
    with _pool(v["workers"]) as ex:
        diag = walk.pbar_decay_diagnostic(
            v["c"], v["K"], v["samples"],
            derive_seed(v["seed"], "decay", v["c"]), ex)
    rows = [{"k": k, "pbar": p, "stderr": se} for k, p, se in diag.rows]
    return rows, {"fit_slope": diag.fit_slope,
                  "fit_intercept": diag.fit_intercept}


def _run_crosscheck(v):
    with _pool(v["workers"]) as ex:
        walk_rep = _walk_f(v, v["c"], ex)
    span_rep = spanning.empirical_f(v["n"], v["c"], v["reps"], derive_seed(
        v["seed"], "empirical_f", v["c"]))
    rows = [{"c": v["c"], "walk_value": walk_rep.value,
             "walk_stderr": walk_rep.stderr,
             "spanning_value": span_rep.value,
             "spanning_stderr": span_rep.stderr,
             "discrepancy": abs(walk_rep.value - span_rep.value)}]
    return rows, {}


class _Command(NamedTuple):
    help: str
    run: Callable
    columns: tuple
    fields: dict


_COMMANDS = {
    "params": _Command(
        "extinction/survival probabilities", _run_params,
        ("c", "q", "theta", "duality_residual"),
        {"c": _C_GRID, "tol": _Field(float, 1e-12, lambda v: 0 < v <= 1e-6,
                                     "must lie in (0, 1e-6]")}),
    "bounds": _Command(
        "entropy bounds grid", _run_bounds,
        ("c", "f_lower", "f_upper", "fprime_lower"), {"c": _C_GRID}),
    "verify-domination": _Command(
        "exact offspring tail-domination check", _run_verify_domination,
        ("lambda", "mu", "beta", "kmax", "min_margin", "violated_at"),
        {"lam": _Field(str, check=math.isfinite, msg="must be finite",
                       grid=True, help="comma-separated lambda grid"),
         "mu": _Field(str, check=math.isfinite, msg="must be finite",
                      grid=True, help="comma-separated mu grid"),
         "beta": _Field(float, None, lambda v: math.isfinite(v) and v >= 0,
                        "must be finite and >= 0",
                        help="added Poisson mass (default: alpha(lambda, mu))"),
         "kmax": _Field(int, 200, lambda v: v >= 50, "must be >= 50")}),
    "couple": _Command(
        "coupled tree pairs with audit", _run_couple,
        ("sample", "lo_nodes", "hi_nodes", "le1_ok", "embedding_ok"),
        {"lam": _C, "mu": _C,
         "depth": _Field(int, 6, lambda v: v >= 1, "must be >= 1"),
         "samples": _Field(int, 8, lambda v: v >= 1, "must be >= 1")}),
    "returns": _Command(
        "Monte Carlo truncated return integral", _run_returns,
        ("c", "K", "n_samples", "value", "stderr", "seed"),
        {"c": _C_GRID, "K": _K, "samples": _WALKS}),
    "estimate-f": _Command(
        "entropy estimate via the walk pipeline", _run_estimate_f,
        ("c", "K", "n_samples", "value", "stderr", "elog_deg",
         "return_integral", "seed"),
        {"c": _C_GRID, "K": _K, "samples": _WALKS}),
    "empirical-f": _Command(
        "entropy estimate via giant-component counting", _run_empirical_f,
        ("c", "n", "reps", "value", "stderr", "seed"),
        {"c": _C_GRID, "n": _N, "reps": _REPS}),
    "decay": _Command(
        "annealed return-probability decay table", _run_decay,
        ("k", "pbar", "stderr"), {"c": _C, "K": _K, "samples": _WALKS}),
    "crosscheck": _Command(
        "both entropy pipelines and their discrepancy", _run_crosscheck,
        ("c", "walk_value", "walk_stderr", "spanning_value",
         "spanning_stderr", "discrepancy"),
        {"c": _C, "n": _N, "reps": _REPS, "samples": _WALKS, "K": _K}),
}


def _serializable_config(cmd: str, cfg: dict) -> dict:
    return {k: cfg[k] for k in sorted({**_EMBEDDED, **_COMMANDS[cmd].fields})}


def _render_json(cmd, cfg, rows, extra) -> str:
    doc = {"command": cmd, "version": __version__,
           "config": _serializable_config(cmd, cfg), "results": rows}
    doc.update(extra)
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False,
                      default=str) + "\n"


def _render_csv(cmd, cfg, rows, extra) -> str:
    buf = io.StringIO()
    buf.write(f"# command={cmd}\n# version={__version__}\n")
    for key, val in _serializable_config(cmd, cfg).items():
        buf.write(f"# {key}={val}\n")
    for key, val in sorted(extra.items()):
        if key != "samples_detail":
            buf.write(f"# {key}={val}\n")
    cols = _COMMANDS[cmd].columns
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    for row in rows:
        writer.writerow([row.get(col, "") for col in cols])
    return buf.getvalue()


def _sanitize(obj):
    # JSON forbids NaN under allow_nan=False; stderr of 1-rep runs is None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cmd = args.command
    try:
        cfg = _resolve(args)
        validated = _validated_inputs(cmd, cfg)
    except ConfigError as exc:
        print(f"gwtree: error: {exc}", file=sys.stderr)
        return 2
    try:
        rows, extra = _COMMANDS[cmd].run(validated)
    except Exception as exc:  # a worker killed, memory exhausted, a bug
        what = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"gwtree: error: {cmd} failed: {what}", file=sys.stderr)
        return 3
    rows = _sanitize(rows)
    extra = _sanitize(extra)
    if cfg["format"] == "json":
        text = _render_json(cmd, cfg, rows, extra)
    else:
        text = _render_csv(cmd, cfg, rows, extra)
    if cfg["out"]:
        tmp = str(cfg["out"]) + ".tmp"
        try:
            with open(tmp, "w") as fh:
                fh.write(text)
            os.replace(tmp, cfg["out"])
        except OSError as exc:
            if os.path.exists(tmp):
                os.remove(tmp)
            print(f"gwtree: error: cannot write {cfg['out']}: {exc}",
                  file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
