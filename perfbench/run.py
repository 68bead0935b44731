"""gwtree benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--quick]

Run from the root of a checkout; gwtree is imported from its src/.  The run
repeats whole passes of the workload's operations until S seconds have
gone (at least three passes), checks the outputs of the first pass against
reference.py and the method's own properties, and checks that every later
pass gave the same outputs.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.  The line before it holds
what else the run recorded (workload figures, versions, environment).

--trace 0 reports the end-to-end metrics.  --trace 1 runs, per round, the
workload on the default pool, the same operations serially, and the serial
operations again with a span around every call into gwtree, and reports
the per-layer metrics; the spans go to perfbench/out/.  --quick runs the
same operations and checks at toy sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 5
MIN_PASSES = 3  # so that one disturbed pass cannot move the median
THREAD_VARS = ("GWTREE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="toy sizes: every operation and check in seconds")
    return ap.parse_args(argv)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child
    (the CLI's pool workers)."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def setup_seconds() -> list[float]:
    """Wall time of fresh interpreters that import and warm the program."""
    out = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py")],
                       check=True)
        out.append(time.perf_counter() - t0)
    return out


def environment() -> dict:
    import numpy as np
    import scipy
    from gwtree import cli
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "cli_workers": cli._worker_count(None),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _one_pass(wl, inp, workers=None, recorder=None):
    """One pass; returns (Pass, outputs, failed operations)."""
    import workloads as W
    p = W.Pass(recorder=recorder)
    if recorder is None:
        out = wl.run(inp, p, workers)
    else:
        with recorder.patched():
            out = wl.run(inp, p, workers)
    return p, out, wl.failed(out)


def run_untraced(wl, inp, sz, seconds):
    """Passes until `seconds` have gone, and at least MIN_PASSES."""
    import workloads as W
    t0 = time.perf_counter()
    passes, outs = [], []
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        p, out, failed = _one_pass(wl, inp, wl.workers)
        passes.append((p, failed))
        outs.append(out if not outs else W.fingerprint(out))
    rss = peak_rss_mb()
    setup = setup_seconds()
    figures = [wl.figures(inp, sz, outs[0], p) for p, _ in passes]
    named = {k: statistics.median(f[k] for f in figures) for k in figures[0]}
    metrics = {
        "wall_s": (statistics.median(p.wall for p, _ in passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss, "MB"),
        "throughput_per_s": (named[wl.throughput], "1/s"),
    }
    extra = {"named_metrics": named, "setup_runs_s": setup,
             "pass_wall_s": [p.wall for p, _ in passes],
             "op_seconds": {g: statistics.median(p.seconds[g] for p, _ in passes)
                            for g in passes[0][0].seconds}}
    return passes, outs, metrics, extra


def run_traced(name, wl, inp, sz, seconds, seed):
    """Rounds of (default pool, serial, serial traced) until `seconds` have
    gone; per-layer metrics from the traced passes."""
    import tracing
    import workloads as W
    t0 = time.perf_counter()
    kinds = {"pool": [], "serial": [], "traced": []}
    passes, outs, spans, first_rec = [], [], [], None
    while not passes or time.perf_counter() - t0 < seconds:
        for kind, workers in (("pool", None), ("serial", 1), ("traced", 1)):
            rec = tracing.Recorder() if kind == "traced" else None
            p, out, failed = _one_pass(wl, inp, workers, rec)
            passes.append((p, failed))
            outs.append(out if not outs else W.fingerprint(out))
            kinds[kind].append(p)
            if rec is not None:
                spans += rec.spans
                first_rec = first_rec or rec
    rounds = len(kinds["traced"])
    walls = {k: [p.wall for p in v] for k, v in kinds.items()}
    metrics = tracing.layer_metrics(spans, rounds, sz)
    metrics.update(tracing.speedups(name, kinds["pool"], kinds["serial"]))
    probed = sorted(k for k in tracing.units(sz)
                    if metrics.get(k) is None and not k.startswith("trace."))
    if probed:
        fill = tracing.probe(sz)
        metrics.update({k: fill[k] for k in probed})
    shares = tracing.layer_shares(spans)
    metrics["trace.layer_share_pct"] = sum(shares.values())
    metrics["trace.overhead_pct"] = 100.0 * (
        sum(walls["traced"]) / sum(walls["serial"]) - 1.0)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"trace-{name}-seed{seed}.json")
    first_rec.dump(path, {"workload": name, "seed": seed})
    unit = tracing.units(sz)
    extra = {"rounds": rounds, "probed": probed, "trace_file": path,
             "pass_wall_s": walls, "layer_self_pct": shares}
    return passes, outs, {k: (metrics[k], unit[k]) for k in unit}, extra


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, HERE)
    import setup_probe
    try:
        setup_probe.import_program()
    except ImportError as exc:
        print(f"perfbench: {exc}; run from the root of a gwtree checkout",
              file=sys.stderr)
        return 2
    import checks
    import workloads as W
    if args.workload not in W.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(W.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = W.WORKLOADS[args.workload]
    sz = W.SIZES[args.quick]
    setup_probe.warm()
    inp = wl.inputs(args.seed, sz)
    if args.trace:
        passes, outs, metrics, extra = run_traced(
            args.workload, wl, inp, sz, args.seconds, args.seed)
    else:
        passes, outs, metrics, extra = run_untraced(wl, inp, sz, args.seconds)
    problems = checks.CHECKS[args.workload](inp, sz, outs[0])
    first_fp = W.fingerprint(outs[0])
    differ = sum(fp != first_fp for fp in outs[1:])
    if differ:
        problems.append(f"{differ} passes gave outputs different from the first")
    attempted = sum(p.ops for p, _ in passes)
    failed = sum(f for _, f in passes)
    info = {"workload": args.workload, "seed": args.seed, "quick": args.quick,
            "trace": args.trace, "attempted": attempted, "failed": failed,
            **environment(), **extra, "problems": problems}
    print(json.dumps({"info": info}))
    for msg in problems:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
