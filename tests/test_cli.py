"""CLI driver: validation, formats, reproducibility of output files."""

import contextlib
import io
import json
import math
import os
import tempfile
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwtree import cli, extinction_prob, trees
from gwtree.cli import main


def run(tmp_path, name, argv):
    out = tmp_path / name
    rc = main(argv + ["--out", str(out)])
    return rc, out


class TestParams:
    def test_known_value(self, tmp_path):
        rc, out = run(tmp_path, "p.json", ["params", "--c", "2"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["command"] == "params"
        assert doc["version"]
        row = doc["results"][0]
        assert row["q"] == pytest.approx(0.20319, abs=1e-5)
        assert row["duality_residual"] <= 1e-10

    def test_near_critical_theta(self, tmp_path):
        # theta = 2 eps (1 - 4 eps / 3 + ...) at c = 1 + eps
        rc, out = run(tmp_path, "p.json", ["params", "--c", "1.0000000001"])
        row = json.loads(out.read_text())["results"][0]
        assert rc == 0
        assert row["theta"] == pytest.approx(2e-10, rel=1e-6)

    def test_grid(self, tmp_path):
        rc, out = run(tmp_path, "p.json", ["params", "--c", "1.5,2,3"])
        doc = json.loads(out.read_text())
        assert [r["c"] for r in doc["results"]] == [1.5, 2.0, 3.0]


class TestValidation:
    def test_bad_c_exits_nonzero_and_writes_nothing(self, tmp_path):
        rc, out = run(tmp_path, "x.json", ["params", "--c", "0.5"])
        assert rc == 2
        assert not out.exists()

    def test_bad_K(self, tmp_path):
        rc, _ = run(tmp_path, "x.json",
                    ["returns", "--c", "2", "--K", "13", "--samples", "100"])
        assert rc == 2

    def test_empty_pair_grid(self, tmp_path):
        rc, _ = run(tmp_path, "x.json",
                    ["verify-domination", "--lambda", "2", "--mu", "1"])
        assert rc == 2

    @pytest.mark.parametrize("cmd", [
        ["empirical-f", "--c", "2,500"],
        ["crosscheck", "--c", "500", "--K", "20", "--samples", "100"]])
    def test_c_above_n(self, tmp_path, capsys, cmd):
        rc, out = run(tmp_path, "x.json", cmd + ["--n", "300", "--reps", "2"])
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("gwtree: error: c:") and err.count("\n") == 1

    def test_unclosable_offspring_table(self, tmp_path, capsys):
        rc, out = run(tmp_path, "x.json",
                      ["returns", "--c", "300000", "--K", "20",
                       "--samples", "2", "--workers", "1"])
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("gwtree: error: c:") and err.count("\n") == 1

    @pytest.mark.parametrize("cmd", [
        ["returns", "--c", "2", "--K", "6000"],
        ["estimate-f", "--c", "2,1000", "--K", "6000"],
        ["decay", "--c", "1000", "--K", "6000"],
        ["crosscheck", "--c", "3", "--n", "1000", "--K", "6000"]])
    def test_walk_arena_over_budget(self, tmp_path, capsys, cmd):
        # the walk stacks of 8192 walks of 6000 steps, 24 B x 6002 x 8192,
        # are over a gigabyte at any c
        rc, out = run(tmp_path, "x.json", cmd + ["--workers", "1"])
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("gwtree: error: K:") and "budget" in err
        assert err.count("\n") == 1

    def test_walk_memory_does_not_grow_with_c(self, tmp_path):
        # the stacks hold a walk's path, not the children of every node on
        # it, so c = 1e5 needs no more memory than c = 2
        rc, out = run(tmp_path, "x.json",
                      ["returns", "--c", "1e5", "--K", "20", "--samples",
                       "20000", "--workers", "1"])
        assert rc == 0
        row = json.loads(out.read_text())["results"][0]
        assert 0.0 <= row["value"] < 1.0

    @pytest.mark.parametrize("cmd", [
        ["bounds", "--c", "1e5"],
        ["estimate-f", "--c", "150000", "--K", "20", "--samples", "2"]])
    def test_unsettled_log_degree_series(self, tmp_path, capsys, cmd):
        rc, out = run(tmp_path, "x.json", cmd + ["--workers", "1"])
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("gwtree: error: c:") and err.count("\n") == 1

    @pytest.mark.parametrize("cmd", [
        ["verify-domination", "--lambda", "1", "--mu", "2", "--beta", "-1"],
        ["verify-domination", "--lambda", "1", "--mu", "2", "--beta", "nan"],
        ["verify-domination", "--lambda", "1", "--mu", "inf"],
        ["couple", "--lambda", "1.2", "--mu", "inf"]])
    def test_negative_or_nonfinite_value(self, tmp_path, capsys, cmd):
        rc, out = run(tmp_path, "x.json", cmd)
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"gwtree: error: {cmd[-2][2:]}:")
        assert err.count("\n") == 1

    def test_unknown_config_key(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        for text in ("nonsense = 1\n", "seed = abc\n"):
            cfgfile.write_text(text)
            rc, _ = run(tmp_path, "x.json",
                        ["params", "--c", "2", "--config", str(cfgfile)])
            assert rc == 2, text


class TestVerifyDomination:
    def test_boundary_case(self, tmp_path):
        rc, out = run(tmp_path, "v.json",
                      ["verify-domination", "--lambda", "1", "--mu", "2"])
        assert rc == 0
        doc = json.loads(out.read_text())
        row = doc["results"][0]
        assert row["violated_at"] is None
        assert row["min_margin"] >= -1e-300

    def test_csv_format(self, tmp_path):
        rc, out = run(tmp_path, "v.csv",
                      ["verify-domination", "--lambda", "1", "--mu", "2",
                       "--format", "csv"])
        lines = out.read_text().splitlines()
        header = next(line for line in lines if not line.startswith("#"))
        assert header == "lambda,mu,beta,kmax,min_margin,violated_at"


class TestReproducibility:
    def test_byte_identical_reruns(self, tmp_path):
        argv = ["estimate-f", "--c", "2", "--K", "20", "--samples", "3000",
                "--seed", "7", "--workers", "1"]
        _, out1 = run(tmp_path, "a.json", argv)
        _, out2 = run(tmp_path, "b.json", argv)
        assert out1.read_bytes() == out2.read_bytes()

    def test_worker_count_does_not_change_output(self, tmp_path):
        base = ["returns", "--c", "1.5,2", "--K", "20", "--samples", "2000",
                "--seed", "3"]
        _, out1 = run(tmp_path, "w1.json", base + ["--workers", "1"])
        _, out2 = run(tmp_path, "w2.json", base + ["--workers", "2"])
        assert out1.read_bytes() == out2.read_bytes()

    def test_worker_count_does_not_change_empirical_f(self, tmp_path):
        base = ["empirical-f", "--c", "2,4", "--n", "1500", "--reps", "2"]
        _, out1 = run(tmp_path, "w1.json", base + ["--workers", "1"])
        _, out2 = run(tmp_path, "w2.json", base + ["--workers", "2"])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("cmd", [
        ["returns", "--c", "2,3"], ["estimate-f", "--c", "2"],
        ["decay", "--c", "2"]])
    def test_worker_count_does_not_change_split_chunks(self, tmp_path,
                                                       monkeypatch, cmd):
        # 20000 walks are three chunks, so two workers split them
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        base = cmd + ["--K", "20", "--samples", "20000", "--seed", "5"]
        _, out1 = run(tmp_path, "w1.json", base + ["--workers", "1"])
        _, out2 = run(tmp_path, "w2.json", base + ["--workers", "2"])
        assert out1.read_bytes() == out2.read_bytes()

    def test_config_embedded(self, tmp_path):
        _, out = run(tmp_path, "r.json",
                     ["returns", "--c", "2", "--K", "20", "--samples", "500",
                      "--seed", "11", "--workers", "1"])
        doc = json.loads(out.read_text())
        assert doc["config"]["K"] == 20
        assert doc["config"]["seed"] == 11
        assert doc["config"]["samples"] == 500


class TestWorkerCount:
    def test_env_variable_sets_default(self, monkeypatch):
        from gwtree.cli import _worker_count
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setenv("GWTREE_THREADS", "3")
        assert _worker_count(None) == 3
        assert _worker_count(2) == 2  # explicit flag wins
        monkeypatch.delenv("GWTREE_THREADS")
        assert _worker_count(None) >= 1
        monkeypatch.setenv("GWTREE_THREADS", "two")
        assert main(["params", "--c", "2"]) == 2

    def test_capped_at_cpu_count(self, monkeypatch):
        from gwtree.cli import _worker_count
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert _worker_count(512) == 4
        assert _worker_count(0) == 1
        monkeypatch.setenv("GWTREE_THREADS", "512")
        assert _worker_count(None) == 4
        monkeypatch.delenv("GWTREE_THREADS")
        assert _worker_count(None) == 4
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _worker_count(512) == 1


class TestRuntimeFailure:
    @pytest.mark.parametrize("exc", [
        RuntimeError("out of luck\non two lines"),
        BrokenProcessPool("A process in the process pool was terminated "
                          "abruptly")])
    def test_one_line_and_exit_3(self, tmp_path, monkeypatch, capsys, exc):
        def boom(v):
            raise exc
        monkeypatch.setitem(cli._COMMANDS, "returns",
                            cli._COMMANDS["returns"]._replace(run=boom))
        rc, out = run(tmp_path, "r.json",
                      ["returns", "--c", "2", "--K", "20", "--samples", "10"])
        assert rc == 3
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err
        assert err.startswith(f"gwtree: error: returns failed: "
                              f"{type(exc).__name__}: ")
        assert err.count("\n") == 1


class TestConfigFile:
    def test_lambda_key_alias(self, tmp_path):
        cfgfile = tmp_path / "dom.cfg"
        cfgfile.write_text("lambda = 1\nmu = 2\n")
        rc, out = run(tmp_path, "d.json",
                      ["verify-domination", "--config", str(cfgfile)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["results"][0]["lambda"] == 1.0

    def test_file_plus_flag_override(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("c = 2,3\nK = 20\nsamples = 400\nseed = 5\n"
                           "workers = 1\n")
        _, out = run(tmp_path, "c.json",
                     ["returns", "--config", str(cfgfile), "--samples", "600"])
        doc = json.loads(out.read_text())
        assert doc["config"]["samples"] == 600  # flag wins
        assert doc["config"]["K"] == 20
        assert len(doc["results"]) == 2


    @pytest.mark.parametrize("cmd, key, text", [
        (["decay", "--K", "20", "--samples", "2000"], "c", "2"),
        (["couple", "--mu", "1.5", "--depth", "3", "--samples", "2"],
         "lambda", "1.2")])
    def test_file_value_embeds_like_flag(self, tmp_path, cmd, key, text):
        cfgfile = tmp_path / "one.cfg"
        cfgfile.write_text(f"{key} = {text}\n")
        _, by_flag = run(tmp_path, "flag.json", cmd + [f"--{key}", text])
        _, by_file = run(tmp_path, "file.json",
                         cmd + ["--config", str(cfgfile)])
        assert by_flag.read_bytes() == by_file.read_bytes()

    def test_key_of_another_command(self, tmp_path, capsys):
        cfgfile = tmp_path / "ret.cfg"
        cfgfile.write_text("c = 2\nK = 20\nsamples = 10\nkmax = 77\n")
        rc, out = run(tmp_path, "r.json",
                      ["returns", "--config", str(cfgfile)])
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == "gwtree: error: unknown config key 'kmax'\n"


class TestOutput:
    def test_missing_directory_fails_before_work(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert main(["params", "--c", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("gwtree: error: out:") and err.count("\n") == 1

    def test_failed_write_leaves_no_tmp(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()  # replacing a directory with a file fails
        assert main(["params", "--c", "2", "--out", str(target)]) == 1
        assert not (tmp_path / "taken.tmp").exists()


class TestCouple:
    @pytest.mark.parametrize("lam, mu, depth", [(1.005, 1.01, "2"),
                                                (1.01, 1.5, "6")])
    def test_lambda_near_one_runs(self, tmp_path, lam, mu, depth):
        rc, out = run(tmp_path, "cpl.json", ["couple", "--lambda", str(lam),
                                             "--mu", str(mu), "--depth", depth])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert all(r["le1_ok"] and r["embedding_ok"] for r in doc["results"])
        assert_complete(doc, int(depth))

    def test_extinction_underflow_at_mu(self, tmp_path):
        # q(mu) is about e^{-400} = 1.9e-174 here, so the hi side almost
        # surely has no finite bushes
        rc, out = run(tmp_path, "cpl.json",
                      ["couple", "--lambda", "1.5", "--mu", "400",
                       "--depth", "1", "--samples", "1"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["results"][0]["le1_ok"] and doc["results"][0]["embedding_ok"]
        assert_complete(doc, 1)

    def test_audit_passes(self, tmp_path):
        rc, out = run(tmp_path, "cpl.json",
                      ["couple", "--lambda", "1.2", "--mu", "1.5",
                       "--depth", "3", "--samples", "5"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc["results"]) == 5
        assert all(r["le1_ok"] and r["embedding_ok"] for r in doc["results"])
        assert len(doc["samples_detail"]) == 5
        assert "0 -1 I inf" in doc["samples_detail"][0]["lo"]
        assert_complete(doc, 3)

    def test_work_bound(self, tmp_path, capsys, monkeypatch):
        # a complete pair at mu = 400, depth 2 holds about 6.4e7 nodes
        def no_work(*args):
            raise AssertionError("built a pair")
        monkeypatch.setattr(cli.domination, "sample_coupled_trees", no_work)
        rc, out = run(tmp_path, "cpl.json", ["couple", "--lambda", "1.5",
                                             "--mu", "400", "--depth", "2"])
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("gwtree: error: mu/depth:") and err.count("\n") == 1

    def test_lambda_tree_work_bound(self, tmp_path, capsys, monkeypatch):
        # the bushes of a lam tree hold lam q/(1 - lam q), about 1e7 nodes,
        # below each type-I node here
        def no_work(*args):
            raise AssertionError("built a pair")
        monkeypatch.setattr(cli.domination, "sample_coupled_trees", no_work)
        rc, out = run(tmp_path, "cpl.json", ["couple", "--lambda", "1.0000001",
                                             "--mu", "1.02"])
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("gwtree: error: lam/depth:") and "budget" in err
        assert err.count("\n") == 1

    def test_large_pair_within_bound(self, tmp_path):
        # hi has 1 + H + H_1 + ... + H_H nodes, H and the H_i independent
        # Q*(r) with r = mu theta(mu) (mu q(mu) is about e^-380: no bushes),
        # so its mean is 1 + m + m^2, about 1.45e5, and its variance
        # v (1 + 3m + m^2), m and v the mean and variance of Q*(r)
        rc, out = run(tmp_path, "cpl.json",
                      ["couple", "--lambda", "1.5", "--mu", "380",
                       "--depth", "1", "--samples", "1"])
        assert rc == 0
        doc = json.loads(out.read_text())
        r = extinction_prob(380.0).ctheta
        m = r / -math.expm1(-r)
        v = (r + r * r) / -math.expm1(-r) - m * m
        mean, sd = 1 + m + m * m, math.sqrt(v * (1 + 3 * m + m * m))
        assert abs(doc["results"][0]["hi_nodes"] - mean) <= 4 * sd
        assert_complete(doc, 1)


def assert_complete(doc, depth):
    """Each printed hi tree has no open type-I node at depth <= depth, and its
    node count is the row's hi_nodes."""
    for row, detail in zip(doc["results"], doc["samples_detail"]):
        hi = trees.tree_from_text(detail["hi"])
        assert len(hi) == row["hi_nodes"]
        assert not (hi.open_ & (hi.ntype == trees.TYPE_I)
                    & (hi.depth <= depth)).any()


class TestOtherCommands:
    def test_bounds(self, tmp_path):
        _, out = run(tmp_path, "b.json", ["bounds", "--c", "2"])
        row = json.loads(out.read_text())["results"][0]
        assert row["f_lower"] == pytest.approx(0.16696, abs=1e-4)
        assert row["f_upper"] == pytest.approx(0.74036, abs=1e-4)

    @pytest.mark.parametrize("cmd", [
        ["bounds"],
        ["estimate-f", "--K", "20", "--samples", "10", "--workers", "1"],
        ["crosscheck", "--n", "1000", "--reps", "1", "--K", "20",
         "--samples", "10"]])
    def test_extinction_underflow(self, tmp_path, cmd):
        # at c = 400 the first Aitken step of extinction_prob squares
        # e^{-400} to below the least normal double; q is still e^{-400}
        rc, out = run(tmp_path, "big.json", cmd[:1] + ["--c", "400"] + cmd[1:])
        assert rc == 0
        row = json.loads(out.read_text())["results"][0]
        assert all(math.isfinite(x) for x in row.values()
                   if isinstance(x, float))

    def test_decay(self, tmp_path):
        _, out = run(tmp_path, "d.json",
                     ["decay", "--c", "2", "--K", "20", "--samples", "2000"])
        doc = json.loads(out.read_text())
        assert len(doc["results"]) == 20
        assert "fit_slope" in doc

    def test_empirical_f(self, tmp_path):
        _, out = run(tmp_path, "e.json",
                     ["empirical-f", "--c", "2", "--n", "300", "--reps", "3",
                      "--workers", "1"])
        row = json.loads(out.read_text())["results"][0]
        assert 0.0 < row["value"] < 1.0

    def test_empirical_f_tree_giants(self, tmp_path):
        # one giant here is a tree, whose one spanning tree gives log tau 0
        # exactly, not a roundoff of either sign
        rc, out = run(tmp_path, "e.json",
                      ["empirical-f", "--c", "1.02", "--n", "30", "--reps",
                       "2", "--seed", "0", "--workers", "1"])
        assert rc == 0
        row = json.loads(out.read_text())["results"][0]
        assert row["value"] >= 0.0

    def test_crosscheck(self, tmp_path):
        _, out = run(tmp_path, "x.json",
                     ["crosscheck", "--c", "3", "--n", "400", "--reps", "2",
                      "--samples", "2000", "--K", "20", "--workers", "1"])
        row = json.loads(out.read_text())["results"][0]
        assert row["discrepancy"] == pytest.approx(
            abs(row["walk_value"] - row["spanning_value"]), abs=1e-12)


_EDGE_TEXTS = ("nan", "inf", "-1", "0", "1", "1.0000001", "1.02", "2", "400",
               "800", "1e5", "2e5", "1e300", "", "abc", "2,,3")
# fields that set the amount of work always take one of these small values
_SIZES = {"samples": ("2",), "K": ("20",), "n": ("2", "30"),
          "reps": ("1", "2"), "depth": ("1", "2"), "kmax": ("50",)}


# in how many of 4 examples a field is set (else 2): c, lambda and mu have no
# default, and a bad format or seed would end most examples before the rest
_SET_IN_4 = {"c": 4, "lam": 4, "mu": 4, "format": 1, "seed": 1}


def _pair_fits(depth):
    """Whether a couple pair at this mu text stays small: its hi tree has
    about mu^(depth + 1) nodes."""
    def fits(text):
        try:
            mu = float(text)
        except ValueError:
            return True
        return not (math.isfinite(mu) and mu > 2e5 ** (1 / (depth + 1)))
    return fits


@st.composite
def _fuzzed_config(draw):
    cmd = draw(st.sampled_from(sorted(cli._COMMANDS)))
    values = {key: draw(st.sampled_from(_SIZES[key]))
              for key in cli._COMMANDS[cmd].fields if key in _SIZES}
    for key in ["format", "seed", *cli._COMMANDS[cmd].fields]:
        texts = _EDGE_TEXTS + (("json", "csv") if key == "format" else ())
        if cmd == "couple" and key == "mu":
            texts = tuple(filter(_pair_fits(int(values["depth"])), texts))
        if key not in _SIZES and draw(st.integers(0, 3)) < _SET_IN_4.get(key, 2):
            values[key] = draw(st.sampled_from(texts))
    return cmd, values


def _outcome(argv):
    """main's status and stdout; it may raise only argparse's exit."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:  # argparse rejects a flag's text
        assert exc.code == 2, argv
        return 2, ""
    assert rc in (0, 2), (argv, err.getvalue())
    assert err.getvalue().count("\n") <= 1, (argv, err.getvalue())
    return rc, out.getvalue()


class TestFuzz:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(_fuzzed_config())
    def test_flags_and_file_exit_2_or_run_alike(self, config):
        cmd, values = config
        by_flag = [cmd, "--workers", "1"]
        for key, val in values.items():
            by_flag += ["--lambda" if key == "lam" else f"--{key}", val]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.cfg")
            with open(path, "w") as fh:
                fh.writelines(f"{'lambda' if k == 'lam' else k} = {v}\n"
                              for k, v in values.items())
            by_file = _outcome([cmd, "--workers", "1", "--config", path])
        assert _outcome(by_flag) == by_file, by_flag


_EXTREME_C = ("1.0000000001", "1.02", "1e16", "1e300")
_SMALLEST = {"K": "20", "samples": "2", "n": "30", "reps": "2", "depth": "1"}


def test_extreme_values_exit_0_or_2():
    # each command at the c and (lambda, mu) edges, at its smallest sizes
    runs = []
    for cmd, spec in sorted(cli._COMMANDS.items()):
        sizes = [arg for key, val in _SMALLEST.items() if key in spec.fields
                 for arg in (f"--{key}", val)]
        if cmd == "couple":
            sizes[sizes.index("--samples") + 1] = "1"
            pairs = [(lam, mu) for i, lam in enumerate(_EXTREME_C)
                     for mu in _EXTREME_C[i + 1:]]
            runs += [[cmd, "--lambda", lam, "--mu", mu, *sizes]
                     for lam, mu in pairs + [("1.5", "1e300"),
                                             ("1.0000000001", "1e8")]]
        elif "c" in spec.fields:
            runs += [[cmd, "--c", c, "--seed", seed, *sizes]
                     for c in _EXTREME_C for seed in ("0", "53")]
    assert len(runs) == 64
    for argv in runs:
        _outcome(argv + ["--workers", "1"])
