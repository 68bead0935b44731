"""CLI driver: validation, formats, reproducibility of output files."""

import json
import math

import pytest

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
        monkeypatch.setenv("GWTREE_THREADS", "3")
        assert _worker_count(None) == 3
        assert _worker_count(2) == 2  # explicit flag wins
        monkeypatch.delenv("GWTREE_THREADS")
        assert _worker_count(None) >= 1
        monkeypatch.setenv("GWTREE_THREADS", "two")
        assert main(["params", "--c", "2"]) == 2


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
    @pytest.mark.parametrize("lam, mu", [(1.005, 1.01), (1.01, 1.5)])
    def test_unclosable_tables_are_rejected(self, tmp_path, capsys, lam, mu):
        rc, out = run(tmp_path, "cpl.json", ["couple", "--lambda", str(lam),
                                             "--mu", str(mu)])
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("gwtree: error: lam/mu:") and err.count("\n") == 1

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
        # q is 0.0 in double precision at c = 400
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

    def test_crosscheck(self, tmp_path):
        _, out = run(tmp_path, "x.json",
                     ["crosscheck", "--c", "3", "--n", "400", "--reps", "2",
                      "--samples", "2000", "--K", "20", "--workers", "1"])
        row = json.loads(out.read_text())["results"][0]
        assert row["discrepancy"] == pytest.approx(
            abs(row["walk_value"] - row["spanning_value"]), abs=1e-12)
