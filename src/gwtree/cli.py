"""Batch experiment driver.

    gwtree <subcommand> [--flags]

Subcommands: params, bounds, verify-domination, couple, returns,
estimate-f, empirical-f, decay, crosscheck.  Flags mirror config-file keys
one to one; a config file is flat `key = value` text and explicit flags
override it.  Output is a single JSON document or a CSV table (frozen
column order per subcommand, documented in the README), always embedding
the resolved config and the code version.  Identical config + seed gives
byte-identical output files; nothing is written on failure.

All randomness flows from the single --seed through named substreams, so
grid points, repetitions and walk chunks are reproducible independently of
the worker pool (--workers, default GWTREE_THREADS or the CPU count, never
above it).  A command opens one pool: the walk commands split each c's walk
chunks over it, empirical-f its grid points.  A failure while a command runs
exits with status 3 and one line.
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

from . import __version__
from .rng import derive_seed

_FORMATS = ("json", "csv")

_COLUMNS = {
    "params": ["c", "q", "theta", "duality_residual"],
    "bounds": ["c", "f_lower", "f_upper", "fprime_lower"],
    "verify-domination": ["lambda", "mu", "beta", "kmax", "min_margin",
                          "violated_at"],
    "couple": ["sample", "lo_nodes", "hi_nodes", "le1_ok", "embedding_ok"],
    "returns": ["c", "K", "n_samples", "value", "stderr", "seed"],
    "estimate-f": ["c", "K", "n_samples", "value", "stderr", "elog_deg",
                   "return_integral", "seed"],
    "empirical-f": ["c", "n", "reps", "value", "stderr", "seed"],
    "decay": ["k", "pbar", "stderr"],
    "crosscheck": ["c", "walk_value", "walk_stderr", "spanning_value",
                   "spanning_stderr", "discrepancy"],
}

# out/workers are execution details, not experiment parameters: identical
# experiments must produce byte-identical files wherever and however they run
_COMMON_KEYS = ("format", "seed")
_CONFIG_KEYS = {
    "params": ("c", "tol"),
    "bounds": ("c",),
    "verify-domination": ("lam", "mu", "beta", "kmax"),
    "couple": ("lam", "mu", "depth", "samples"),
    "returns": ("c", "K", "samples"),
    "estimate-f": ("c", "K", "samples"),
    "empirical-f": ("c", "n", "reps"),
    "decay": ("c", "K", "samples"),
    "crosscheck": ("c", "n", "reps", "samples", "K"),
}


class ConfigError(Exception):
    pass


def _float_list(text: str) -> list[float]:
    try:
        return [float(x) for x in str(text).split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"cannot parse float list from {text!r}") from exc


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

    def common(p):
        p.add_argument("--config", default=None,
                       help="flat key=value config file; flags override")
        p.add_argument("--out", default=None,
                       help="output path (default: stdout)")
        p.add_argument("--format", default=None, choices=_FORMATS)
        p.add_argument("--seed", default=None, type=int)
        p.add_argument("--workers", default=None, type=int,
                       help="worker processes (default: GWTREE_THREADS "
                            "or CPU count)")

    p = sub.add_parser("params", help="extinction/survival probabilities")
    common(p)
    p.add_argument("--c", default=None, help="comma-separated c grid")
    p.add_argument("--tol", default=None, type=float)

    p = sub.add_parser("bounds", help="entropy bounds grid")
    common(p)
    p.add_argument("--c", default=None)

    p = sub.add_parser("verify-domination",
                       help="exact offspring tail-domination check")
    common(p)
    p.add_argument("--lambda", dest="lam", default=None,
                   help="comma-separated lambda grid")
    p.add_argument("--mu", default=None, help="comma-separated mu grid")
    p.add_argument("--beta", default=None, type=float,
                   help="added Poisson mass (default: alpha(lambda, mu))")
    p.add_argument("--kmax", default=None, type=int)

    p = sub.add_parser("couple", help="coupled tree pairs with audit")
    common(p)
    p.add_argument("--lambda", dest="lam", default=None, type=float)
    p.add_argument("--mu", default=None, type=float)
    p.add_argument("--depth", default=None, type=int)
    p.add_argument("--samples", default=None, type=int)

    for name, help_text in [
            ("returns", "Monte Carlo truncated return integral"),
            ("estimate-f", "entropy estimate via the walk pipeline")]:
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.add_argument("--c", default=None)
        p.add_argument("--K", default=None, type=int)
        p.add_argument("--samples", default=None, type=int)

    p = sub.add_parser("empirical-f",
                       help="entropy estimate via giant-component counting")
    common(p)
    p.add_argument("--c", default=None)
    p.add_argument("--n", default=None, type=int)
    p.add_argument("--reps", default=None, type=int)

    p = sub.add_parser("decay", help="annealed return-probability decay table")
    common(p)
    p.add_argument("--c", default=None, type=float)
    p.add_argument("--K", default=None, type=int)
    p.add_argument("--samples", default=None, type=int)

    p = sub.add_parser("crosscheck",
                       help="both entropy pipelines and their discrepancy")
    common(p)
    p.add_argument("--c", default=None, type=float)
    p.add_argument("--n", default=None, type=int)
    p.add_argument("--reps", default=None, type=int)
    p.add_argument("--samples", default=None, type=int)
    p.add_argument("--K", default=None, type=int)
    return parser


_DEFAULTS = {
    "format": "json", "seed": 0, "tol": 1e-12, "kmax": 200, "depth": 6,
    "samples": 100_000, "K": 60, "n": 1500, "reps": 20, "beta": None,
    "out": None, "workers": None,
}


def _resolve(args: argparse.Namespace) -> dict:
    """defaults <- config file <- explicit flags, with type coercion."""
    cfg = dict(_DEFAULTS)
    if args.command == "couple":
        cfg["samples"] = 8
    file_cfg = _read_config_file(args.config) if args.config else {}
    casts = {"seed": int, "kmax": int, "depth": int, "samples": int, "K": int,
             "n": int, "reps": int, "workers": int, "tol": float,
             "beta": float, "mu": str, "lam": str, "c": str, "format": str,
             "out": str}
    for key, val in file_cfg.items():
        if key not in casts and key not in ("c", "lam", "mu"):
            raise ConfigError(f"unknown config key {key!r}")
        try:
            cfg[key] = casts.get(key, str)(val)
        except ValueError as exc:
            raise ConfigError(f"{args.config}: {key}: {exc}") from None
    for key, val in vars(args).items():
        if key in ("command", "config") or val is None:
            continue
        cfg[key] = val
    cfg["command"] = args.command
    if cfg["format"] not in _FORMATS:
        raise ConfigError(f"format must be one of {_FORMATS}, got {cfg['format']}")
    return cfg


def _need(cfg: dict, key: str, kind, cond=None, msg: str = ""):
    if key not in cfg or cfg[key] is None:
        raise ConfigError(f"{key}: required for '{cfg['command']}'")
    try:
        val = kind(cfg[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    if cond is not None and not cond(val):
        raise ConfigError(f"{key}: {msg}, got {cfg[key]!r}")
    return val


def _validated_inputs(cfg: dict) -> dict:
    """Field-level validation of every numeric input before any work starts."""
    cmd = cfg["command"]
    out = {"seed": _need(cfg, "seed", int),
           "workers": _worker_count(cfg.get("workers"))}
    if cfg.get("out"):
        where = os.path.dirname(os.path.abspath(cfg["out"]))
        if not (os.path.isdir(where) and os.access(where, os.W_OK)):
            raise ConfigError(f"out: directory {where} does not exist or is "
                              "not writable")
    if cmd in ("params", "bounds", "returns", "estimate-f", "empirical-f"):
        cs = _need(cfg, "c", _float_list, lambda v: len(v) > 0, "need >= 1 value")
        for c in cs:
            if not (c > 1.0 and math.isfinite(c)):
                raise ConfigError(f"c: every value must be finite and > 1, got {c}")
        out["c_grid"] = cs
    if cmd in ("decay", "crosscheck"):
        out["c"] = _need(cfg, "c", float, lambda v: v > 1.0 and math.isfinite(v),
                         "must be finite and > 1")
        cs = [out["c"]]
    if cmd == "params":
        out["tol"] = _need(cfg, "tol", float, lambda v: 0 < v <= 1e-6,
                           "must lie in (0, 1e-6]")
    if cmd == "verify-domination":
        lams = _need(cfg, "lam", _float_list, lambda v: len(v) > 0, "need values")
        mus = _need(cfg, "mu", _float_list, lambda v: len(v) > 0, "need values")
        pairs = [(l, m) for l in lams for m in mus if m > l > 0.0]
        if not pairs:
            raise ConfigError("lam/mu: no pair satisfies mu > lambda > 0")
        out["pairs"] = pairs
        out["kmax"] = _need(cfg, "kmax", int, lambda v: v >= 50, "must be >= 50")
        out["beta"] = cfg.get("beta")
    if cmd == "couple":
        lam = _need(cfg, "lam", float)
        mu = _need(cfg, "mu", float)
        if not (mu > lam > 1.0):
            raise ConfigError(f"lam/mu: need mu > lambda > 1, got {lam}, {mu}")
        from .domination import _coupled_sampler
        try:
            _coupled_sampler(lam, mu)
        except ArithmeticError as exc:
            raise ConfigError(
                f"lam/mu: cannot couple at {lam}, {mu}: {exc}") from None
        out["lam"], out["mu"] = lam, mu
        out["depth"] = _need(cfg, "depth", int, lambda v: v >= 1, "must be >= 1")
        out["samples"] = _need(cfg, "samples", int, lambda v: v >= 1, "must be >= 1")
    if cmd in ("returns", "estimate-f", "decay", "crosscheck"):
        out["K"] = _need(cfg, "K", int, lambda v: v >= 20 and v % 2 == 0,
                         "must be even and >= 20")
        out["samples"] = _need(cfg, "samples", int, lambda v: v >= 2,
                               "must be >= 2")
        from .analytic import extinction_prob
        from .laws import positive_poisson_cdf
        for c in cs:
            try:
                positive_poisson_cdf(extinction_prob(c).ctheta)
            except ArithmeticError as exc:
                raise ConfigError(f"c: cannot sample at {c}: {exc}") from None
    if cmd in ("empirical-f", "crosscheck"):
        from .spanning import FACTORIZATION_CAP
        out["n"] = _need(cfg, "n", int, lambda v: 1 <= v <= FACTORIZATION_CAP,
                         f"must lie in [1, {FACTORIZATION_CAP}]")
        out["reps"] = _need(cfg, "reps", int, lambda v: v >= 1, "must be >= 1")
        if max(cs) > out["n"]:
            raise ConfigError(f"c: must not exceed n = {out['n']} "
                              f"(edge probability c/n), got {max(cs)}")
    return out


# --- worker pools ------------------------------------------------------------

def _task_empirical_f(kw):
    from .spanning import empirical_f
    return empirical_f(**kw).to_dict()


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


def _parallel(task, kwargs_list, workers: int):
    with _pool(min(workers, len(kwargs_list))) as ex:
        return list((ex.map if ex else map)(task, kwargs_list))


# --- command runners ---------------------------------------------------------

def _run_params(v, cfg):
    from .analytic import extinction_prob
    rows = []
    for c in v["c_grid"]:
        p = extinction_prob(c, v["tol"])
        rows.append({"c": c, "q": p.q, "theta": p.theta,
                     "duality_residual": p.duality_residual()})
    return rows, {}


def _run_bounds(v, cfg):
    from .analytic import extinction_prob, f_bounds
    rows = []
    for c in v["c_grid"]:
        b = f_bounds(extinction_prob(c))
        rows.append({"c": c, "f_lower": b.f_lower, "f_upper": b.f_upper,
                     "fprime_lower": b.fprime_lower})
    return rows, {}


def _run_verify_domination(v, cfg):
    from .domination import verify_tail_domination
    rows = []
    for lam, mu in v["pairs"]:
        rep = verify_tail_domination(lam, mu, beta=v["beta"], kmax=v["kmax"])
        rows.append(rep.to_dict())
    return rows, {}


def _run_couple(v, cfg):
    from .domination import sample_coupled_trees
    from .trees import tree_to_text
    rows, details = [], []
    for i in range(v["samples"]):
        pair = sample_coupled_trees(v["lam"], v["mu"], v["depth"],
                                    derive_seed(v["seed"], "couple", i))
        ok_emb = True
        try:
            pair.validate_embedding()
        except ValueError:
            ok_emb = False
        ok_le1 = pair.audit_le1()
        rows.append({"sample": i, "lo_nodes": len(pair.lo),
                     "hi_nodes": len(pair.hi), "le1_ok": ok_le1,
                     "embedding_ok": ok_emb})
        details.append({"sample": i, "lo": tree_to_text(pair.lo),
                        "hi": tree_to_text(pair.hi),
                        "node_map": sorted(pair.node_map.items())})
    return rows, {"samples_detail": details}


def _run_returns(v, cfg):
    from .walk import estimate_return_integral
    with _pool(v["workers"]) as ex:
        reps = [estimate_return_integral(
                    c, v["K"], v["samples"],
                    derive_seed(v["seed"], "returns", c), ex, v["workers"])
                for c in v["c_grid"]]
    rows = [{"c": c, "K": v["K"], "n_samples": r.n_samples,
             "value": r.value, "stderr": r.stderr, "seed": r.seed}
            for c, r in zip(v["c_grid"], reps)]
    return rows, {}


def _walk_f(v, c, ex):
    from .walk import estimate_f
    seed = derive_seed(v["seed"], "estimate_f", c)
    return estimate_f(c, v["K"], v["samples"], seed, ex, v["workers"])


def _run_estimate_f(v, cfg):
    from .analytic import expected_log_degree, extinction_prob
    rows = []
    with _pool(v["workers"]) as ex:
        for c in v["c_grid"]:
            r = _walk_f(v, c, ex)
            eld = expected_log_degree(extinction_prob(c))
            rows.append({"c": c, "K": v["K"], "n_samples": r.n_samples,
                         "value": r.value, "stderr": r.stderr,
                         "elog_deg": eld, "return_integral": eld - r.value,
                         "seed": r.seed})
    return rows, {}


def _run_empirical_f(v, cfg):
    tasks = [{"n": v["n"], "c": c, "reps": v["reps"],
              "seed": derive_seed(v["seed"], "empirical_f", c)}
             for c in v["c_grid"]]
    reps = _parallel(_task_empirical_f, tasks, v["workers"])
    rows = [{"c": c, "n": v["n"], "reps": r["n_samples"], "value": r["value"],
             "stderr": r["stderr"], "seed": r["seed"]}
            for c, r in zip(v["c_grid"], reps)]
    return rows, {}


def _run_decay(v, cfg):
    from .walk import pbar_decay_diagnostic
    with _pool(v["workers"]) as ex:
        diag = pbar_decay_diagnostic(v["c"], v["K"], v["samples"],
                                     derive_seed(v["seed"], "decay", v["c"]),
                                     ex, v["workers"])
    rows = [{"k": k, "pbar": p, "stderr": se} for k, p, se in diag.rows]
    return rows, {"fit_slope": diag.fit_slope,
                  "fit_intercept": diag.fit_intercept}


def _run_crosscheck(v, cfg):
    with _pool(v["workers"]) as ex:
        walk_rep = _walk_f(v, v["c"], ex)
    span_rep = _task_empirical_f({"n": v["n"], "c": v["c"], "reps": v["reps"],
                                  "seed": derive_seed(v["seed"], "empirical_f",
                                                      v["c"])})
    rows = [{"c": v["c"], "walk_value": walk_rep.value,
             "walk_stderr": walk_rep.stderr,
             "spanning_value": span_rep["value"],
             "spanning_stderr": span_rep["stderr"],
             "discrepancy": abs(walk_rep.value - span_rep["value"])}]
    return rows, {}


_RUNNERS = {
    "params": _run_params,
    "bounds": _run_bounds,
    "verify-domination": _run_verify_domination,
    "couple": _run_couple,
    "returns": _run_returns,
    "estimate-f": _run_estimate_f,
    "empirical-f": _run_empirical_f,
    "decay": _run_decay,
    "crosscheck": _run_crosscheck,
}


def _serializable_config(cfg: dict) -> dict:
    keys = _CONFIG_KEYS[cfg["command"]] + _COMMON_KEYS
    return {k: cfg.get(k) for k in sorted(keys)}


def _render_json(cmd, cfg, rows, extra) -> str:
    doc = {"command": cmd, "version": __version__,
           "config": _serializable_config(cfg), "results": rows}
    doc.update(extra)
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False,
                      default=str) + "\n"


def _render_csv(cmd, cfg, rows, extra) -> str:
    buf = io.StringIO()
    buf.write(f"# command={cmd}\n# version={__version__}\n")
    for key, val in sorted(_serializable_config(cfg).items()):
        buf.write(f"# {key}={val}\n")
    for key, val in sorted(extra.items()):
        if key != "samples_detail":
            buf.write(f"# {key}={val}\n")
    cols = _COLUMNS[cmd]
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
    try:
        cfg = _resolve(args)
        validated = _validated_inputs(cfg)
    except ConfigError as exc:
        print(f"gwtree: error: {exc}", file=sys.stderr)
        return 2
    try:
        rows, extra = _RUNNERS[args.command](validated, cfg)
    except Exception as exc:  # a worker killed, memory exhausted, a bug
        what = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"gwtree: error: {args.command} failed: {what}", file=sys.stderr)
        return 3
    rows = _sanitize(rows)
    extra = _sanitize(extra)
    if cfg["format"] == "json":
        text = _render_json(args.command, cfg, rows, extra)
    else:
        text = _render_csv(args.command, cfg, rows, extra)
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
