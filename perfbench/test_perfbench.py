"""Tests of the benchmark itself: every workload runs and passes its checks
at toy sizes, failures are counted exactly, each check rejects a
deliberately corrupted output, and the benchmark refuses to run without
the program.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import reference as R  # noqa: E402
import workloads as W  # noqa: E402

QUICK = W.SIZES[True]
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def _run(workload, trace, cwd=ROOT, seed=5):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float) and np.isfinite(m["value"]), name
    # every pass makes the same calls, and only the c = 800 draws fail
    info = json.loads(proc.stdout.strip().splitlines()[-2])["info"]
    passes = 3 * info["rounds"] if trace else len(info["pass_wall_s"])
    assert result["attempted"] % passes == 0
    expect = len(W.BIG_C_SEEDS) if workload == "exact-trees" else 0
    assert result["failed"] == expect * passes


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("exact-trees", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def outputs():
    """One quick pass of every workload, run in this process."""
    out = {}
    for name, wl in W.WORKLOADS.items():
        inp = wl.inputs(7, QUICK)
        out[name] = (inp, wl.run(inp, W.Pass(), wl.workers))
    return out


def _problems(outputs, name, corrupt=None):
    inp, out = outputs[name]
    out = copy.deepcopy(out)
    if corrupt is not None:
        corrupt(out)
    return checks.CHECKS[name](inp, QUICK, out)


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_clean_outputs_pass(outputs, name):
    assert _problems(outputs, name) == []


def _row(out, op, i):
    return out[op]["results"][i]


CORRUPTIONS = {
    "entropy-walk": {
        "f not increasing": lambda o: _row(o, "estimate-f", 1).update(
            value=_row(o, "estimate-f", 0)["value"]),
        "f above the sandwich": lambda o: _row(o, "estimate-f", 2).update(
            value=5.0, return_integral=_row(o, "estimate-f", 2)["elog_deg"] - 5.0),
        "E[log D] off": lambda o: _row(o, "estimate-f", 0).update(
            elog_deg=_row(o, "estimate-f", 0)["elog_deg"] + 1e-6),
        "pbar nonzero at odd k": lambda o: _row(o, "decay", 2).update(
            pbar=1e-9),
        "pbar_2 off its closed form": lambda o: _row(o, "decay", 1).update(
            pbar=_row(o, "decay", 1)["pbar"] + 0.05),
        "return integral inconsistent": lambda o: _row(o, "estimate-f", 1)
            .update(return_integral=0.0),
        "decay stderr inconsistent": lambda o: _row(o, "decay", 3).update(
            stderr=2 * _row(o, "decay", 3)["stderr"]),
        "decay fit slope positive": lambda o: o["decay"].update(fit_slope=0.1),
    },
    "entropy-spanning": {
        "small estimate off the reference": lambda o: _row(
            o, "empirical-f.small", 0).update(
            value=_row(o, "empirical-f.small", 0)["value"] + 0.2),
        "large estimates not increasing": lambda o: o["empirical-f.large"][
            "results"][0].update(value=o["empirical-f.large"]["results"][2][
                "value"]),
        "reps changed": lambda o: _row(o, "empirical-f.small", 0).update(
            reps=1),
    },
    "coupled-walks": {
        "visits not dominated": lambda o: o["visits"][0].fill(1),
        "lo root degree law": lambda o: o["root_deg"][0].__iadd__(1),
        "embedding audit failed": lambda o: o.update(bad_embedding=1),
        "le1 audit failed": lambda o: o.update(bad_le1=2),
        "node map broken": lambda o: o["kept"][0].node_map.update(
            {max(o["kept"][0].node_map): 0}),
        "violated at beta = alpha": lambda o: _row(
            o, "verify-domination", 3).update(violated_at=4),
        "beta is not alpha": lambda o: _row(o, "verify-domination", 0).update(
            beta=_row(o, "verify-domination", 0)["beta"] * (1 + 1e-9)),
        "couple audit failed": lambda o: _row(o, "couple", 0).update(
            le1_ok=False),
    },
    "exact-trees": {
        "p_k changes under deepening": lambda o: o["star"][0][1][0].__setitem__(
            3, np.nextafter(o["star"][0][1][0][3], 1.0)),
        "p_k nonzero at odd k": lambda o: o["star"][1][0][0].__setitem__(
            2, 1e-17),
        "p_2 off the direct sum": lambda o: o["star"][2].__setitem__(
            0, (o["star"][2][0][0], o["star"][2][0][1] + 1e-9)),
        "capped fraction off theta": lambda o: o.update(
            pgw=[(cap, True, 1) for cap, _, _ in o["pgw"]]),
        "root degree law": lambda o: o.update(
            roots=[(d + 1, i) for d, i in o["roots"]]),
        "childless mean off": lambda o: o.update(
            uniform=[(n, k + 300) for n, k in o["uniform"]]),
        "uniform tree size": lambda o: o.update(
            uniform=[(n - 1, k) for n, k in o["uniform"]]),
        "type-I child counts": lambda o: o.update(
            roots=[(d, 0) for d, _ in o["roots"]]),
        "mean p_2 off its closed form": lambda o: o.update(star=[
            [(np.where(np.arange(8) == 1, probs + 0.5, probs), p2 + 0.5)
             for probs, p2 in row] for row in o["star"]]),
    },
}


@pytest.mark.parametrize("name,what", [(n, w) for n, c in CORRUPTIONS.items()
                                       for w in c])
def test_check_rejects_corrupted_output(outputs, name, what):
    assert _problems(outputs, name, CORRUPTIONS[name][what]), what


def test_log_tau_check_rejects_a_wrong_factorization(outputs, monkeypatch):
    import gwtree
    real = gwtree.log_spanning_trees

    def off(g, *a):
        res = real(g, *a)
        return gwtree.ComplexityResult(res.log_tau * (1 + 1e-6), res.n_giant)

    monkeypatch.setattr(gwtree, "log_spanning_trees", off)
    inp, out = outputs["entropy-spanning"]
    assert checks.spanning_reference(inp, QUICK, out)


def test_giant_check_rejects_a_wrong_component(outputs, monkeypatch):
    import gwtree
    monkeypatch.setattr(gwtree, "giant_component", lambda g: (g, None))
    inp, out = outputs["entropy-spanning"]
    assert checks.spanning_reference(inp, QUICK, out)


def test_failed_draws_are_counted():
    assert W.trees_failed({"big_c": [800, 1, None, 3]}) == 2


def test_references_agree_with_known_values():
    # q(2) from the Lambert-W closed form q = -W(-c e^{-c})/c
    from scipy.special import lambertw
    q = float(np.real(-lambertw(-2 * np.exp(-2.0)) / 2))
    assert abs(R.extinction_q(2.0) - q) < 1e-14
    assert abs(R.annealed_p2(2.0) - 0.39917) < 1e-5
    assert abs(R.root_degree_pmf(3.0).sum() - 1.0) < 1e-12
    # K_5 has 5^3 spanning trees
    iu = np.triu_indices(5, k=1)
    assert abs(R.log_tau(5, np.stack(iu, axis=1)) - 3 * np.log(5)) < 1e-12
    # a path rooted at one end returns at step 2 with probability 1/2
    assert R.tree_p2([[1], [2], []]) == 0.5
