import hashlib
from pathlib import Path

import pytest

from fdual.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def read_dir(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


class TestCatalog:
    def test_full_table(self, capsys):
        code, out, _ = run_cli(["catalog"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "loss,phi,generator,psi,u_star,link"
        hinge = [l for l in lines if l.startswith("hinge,")][0]
        assert "-2*min(u,1)" in hinge and "2-beta on [0,2]" in hinge
        assert ",1.0," in hinge and hinge.endswith("identity")

    def test_single_name_has_log_two_fixed_point(self, capsys):
        code, out, _ = run_cli(["catalog", "--name", "logistic"], capsys)
        assert code == 0
        assert "0.6931471805599453" in out

    def test_unknown_name_is_usage_error(self, capsys):
        code, _, err = run_cli(["catalog", "--name", "nope"], capsys)
        assert code == 2
        assert "UnknownLoss" in err


class TestVerify:
    def test_small_run_passes(self, tmp_path, capsys):
        code, out, _ = run_cli(["verify", "--measures", "5", "--losses",
                                "hinge,exponential", "--out",
                                str(tmp_path)], capsys)
        assert code == 0
        assert "verify hinge: ok" in out
        files = read_dir(tmp_path)
        assert set(files) == {"verify_correspondence.csv",
                              "verify_conditions.csv", "verify_checks.csv"}
        corr = files["verify_correspondence.csv"].decode().splitlines()
        assert corr[0] == "loss,divergence,R_phi_opt,I_f,residual,pass"
        assert len(corr) == 1 + 2 * 5
        cond = files["verify_conditions.csv"].decode().splitlines()
        assert cond[0] == "loss,condition,pass,witness_beta,residual"

    def test_malformed_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[verify]\nmeasures = not_a_number\n")
        code, _, err = run_cli(["verify", "--config", str(cfg)], capsys)
        assert code == 2
        assert "bad value" in err

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad2.cfg"
        cfg.write_text("[verify]\nbudget = 3\n")
        code, _, err = run_cli(["verify", "--config", str(cfg)], capsys)
        assert code == 2
        assert "unknown key" in err

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(["verify", "--config",
                                str(tmp_path / "none.cfg")], capsys)
        assert code == 2

    def test_unreachable_tolerance_is_assertion_failure(self, tmp_path,
                                                        capsys):
        code, _, err = run_cli(["verify", "--measures", "3", "--losses",
                                "hinge", "--tol", "1e-18", "--out",
                                str(tmp_path)], capsys)
        assert code == 1
        assert "does not induce" in err

    def test_config_values_used(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        out_dir = tmp_path / "from_config"
        cfg.write_text(f"[verify]\nmeasures = 3\nlosses = hinge\n"
                       f"[output]\ndir = {out_dir}\n")
        code, _, _ = run_cli(["verify", "--config", str(cfg)], capsys)
        assert code == 0
        corr = (out_dir / "verify_correspondence.csv").read_text().splitlines()
        assert len(corr) == 1 + 3


class TestEquiv:
    def test_catalog_classes_recovered(self, tmp_path, capsys):
        code, out, _ = run_cli(["equiv", "--out", str(tmp_path)], capsys)
        assert code == 0
        pairs = (tmp_path / "equiv_pairs.csv").read_text().splitlines()
        assert pairs[0] == "f1,f2,c,a,b,residual,verdict"
        hinge_vs_zero = [l for l in pairs
                         if l.startswith("hinge,zero_one,")][0]
        assert hinge_vs_zero.endswith("true")
        hinge_vs_exp = [l for l in pairs
                        if l.startswith("hinge,exponential,")][0]
        assert hinge_vs_exp.endswith("false")
        var = (tmp_path / "equiv_varfam.csv").read_text().splitlines()
        assert var[0] == "loss,c,a,b,residual,verdict"


class TestErm:
    def test_small_sweep(self, tmp_path, capsys):
        code, out, _ = run_cli(["erm", "--losses", "hinge", "--n", "100,400",
                                "--seeds", "3", "--grid", "21", "--out",
                                str(tmp_path)], capsys)
        assert code == 0
        cons = (tmp_path / "erm_consistency.csv").read_text().splitlines()
        assert cons[0] == "loss,n,seed,excess_bayes,t_selected"
        assert len(cons) == 1 + 2 * 3
        summary = (tmp_path / "erm_summary.csv").read_text().splitlines()
        assert summary[0] == "loss,n,median_excess_bayes"

    def test_nonconvex_loss_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(["erm", "--losses", "zero_one", "--out",
                                str(tmp_path)], capsys)
        assert code == 2
        assert "not convex" in err

    def test_unknown_loss_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(["erm", "--losses", "nope", "--out",
                                str(tmp_path)], capsys)
        assert code == 2
        assert "UnknownLoss" in err

    def test_bad_source_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(["erm", "--source", "2,1,4,0.5", "--out",
                                str(tmp_path)], capsys)
        assert code == 2

    def test_zero_seeds_is_usage_error(self, tmp_path, capsys):
        # an explicit 0 is a value, not "unset": it must not become 20 seeds
        code, _, err = run_cli(["erm", "--seeds", "0", "--n", "100",
                                "--grid", "11", "--out", str(tmp_path)],
                               capsys)
        assert code == 2
        assert "replicate" in err
        assert not (tmp_path / "erm_consistency.csv").exists()

    def test_nonpositive_bound_is_usage_error(self, tmp_path, capsys):
        for bound in ("0", "-1.5"):
            code, _, err = run_cli(["erm", "--bound", bound, "--n", "100",
                                    "--seeds", "2", "--grid", "11", "--out",
                                    str(tmp_path)], capsys)
            assert code == 2
            assert "gamma_bound must be positive" in err

    def test_zero_on_command_line_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "lemma.cfg"
        cfg.write_text("[erm]\nlemma2 = 3\n")
        code, out, _ = run_cli(["erm", "--config", str(cfg), "--lemma2", "0",
                                "--n", "100", "--seeds", "2", "--grid", "11",
                                "--out", str(tmp_path)], capsys)
        assert code == 0
        assert "lemma2:" not in out
        code, out, _ = run_cli(["erm", "--config", str(cfg), "--n", "100",
                                "--seeds", "2", "--grid", "11", "--out",
                                str(tmp_path)], capsys)
        assert code == 0
        assert "lemma2: worst lhs-rhs" in out

    def test_mismatch_witness_file(self, tmp_path, capsys):
        code, out, _ = run_cli(["erm", "--losses", "hinge", "--n", "100",
                                "--seeds", "2", "--grid", "11",
                                "--mismatch", "hellinger", "--out",
                                str(tmp_path)], capsys)
        assert code == 0
        assert "mismatch witness:" in out
        lines = (tmp_path / "erm_mismatch.csv").read_text().splitlines()
        assert lines[0] == "t,risk_f1,risk_f2,bayes"

    def test_env_var_sets_output_dir(self, tmp_path, capsys, monkeypatch):
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv("FDUAL_OUT_DIR", str(env_dir))
        code, _, _ = run_cli(["erm", "--losses", "hinge", "--n", "100",
                              "--seeds", "2", "--grid", "11"], capsys)
        assert code == 0
        assert (env_dir / "erm_consistency.csv").exists()


class TestDeterminism:
    def test_verify_reruns_are_byte_identical(self, tmp_path, capsys):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        code1, out1, _ = run_cli(["verify", "--measures", "10", "--losses",
                                  "hinge,sym_kl", "--out", str(d1)], capsys)
        code2, out2, _ = run_cli(["verify", "--measures", "10", "--losses",
                                  "hinge,sym_kl", "--out", str(d2)], capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        assert read_dir(d1) == read_dir(d2)

    def test_erm_reruns_are_byte_identical(self, tmp_path, capsys):
        args = ["erm", "--losses", "hinge", "--n", "100,400", "--seeds", "4",
                "--grid", "21", "--lemma2", "10"]
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        code1, out1, _ = run_cli(args + ["--out", str(d1)], capsys)
        code2, out2, _ = run_cli(args + ["--out", str(d2)], capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        assert read_dir(d1) == read_dir(d2)


class TestPinnedDigests:
    """sha256 of every CSV and of stdout for criterion 10's three commands
    and for the three commands at their defaults (``equiv`` has no
    options there, so one entry serves both).

    These pin the output bytes across refactors, not just across reruns.  A
    change that alters the bits on purpose updates the digests here and
    declares the change, with the old and new digests, in CHANGES.md.
    """

    COMMANDS = {
        "verify_defaults": (["verify"], {
            "stdout": "bde9a7b9e5ff2d9553db4d9acff83795"
                      "3eadb3839e519900775ed5b0a1673585",
            "verify_checks.csv": "08cee1f5187a386b2fcece9d74cbe39c"
                                 "d42ee68ef36b47d01cffe6af0eb17f82",
            "verify_conditions.csv": "64977ae3db7b962ea1b76e66cfa5eed1"
                                     "5fa67266a71a49ed06517e4218b8b4a1",
            "verify_correspondence.csv": "0291cf03a551de719294d6f28ce439e1"
                                         "9b1b50b8640c05540399831f8887f004",
        }),
        "erm_defaults": (["erm"], {
            "stdout": "f437764fa57bd6c36bcc72a6cb20acbd"
                      "62ed93f5ec1ee93a8c38025911221374",
            "erm_consistency.csv": "76f5c509ae4935552b4f36328a7f0b37"
                                   "18a07bc22685ac733c323f0b6cbb4cdf",
            "erm_summary.csv": "999d5802a45d9006f2d4efb03c6a6dff"
                               "384168e130caa9af22b99c829fd21bd6",
        }),
        "verify": (["verify", "--measures", "20", "--losses",
                    "hinge,exponential"], {
            "stdout": "093ea0cd7d5cf7b486a8917c049bde7f"
                      "68aa30fd2756b85a616fd762d65ca0ee",
            "verify_checks.csv": "42b21db29a75bd2eb52538a63ce2cf45"
                                 "508460d0de862f87d3ea163dadd75c14",
            "verify_conditions.csv": "a4904e2328f495d3d73c0046e225684a"
                                     "0722dade1c757414c1c93ed0bbe16735",
            "verify_correspondence.csv": "eb4e157b579d3a9f362e068678ff9802"
                                         "a8b0ea3375aa01e257b7532f2de18ade",
        }),
        "erm": (["erm", "--losses", "hinge", "--n", "100,1000", "--seeds",
                 "5", "--grid", "51", "--mismatch", "hellinger", "--lemma2",
                 "25"], {
            "stdout": "e1d00cc13744190bc73c754abd6837aa"
                      "36ca3ddba38c57b1f6b2b0fca62106af",
            "erm_consistency.csv": "2604a0e28c5f45467c5716e85673a550"
                                   "1fd82dcd9fd8222f03698a25ccb61857",
            "erm_mismatch.csv": "09e3e28a53032ee9fd652ef20a4f84f1"
                                "0ecd38ccd2ae8c2113ef5f115a635a6b",
            "erm_summary.csv": "6ba60f93ddb2a54f4f535a5642697c57"
                               "5c99a6831d2af921bdf30b51bb3ddbb7",
        }),
        "equiv": (["equiv"], {
            "stdout": "341065860562f9632a1f2c660e21c434"
                      "dd95c47e79d6e7f58f60e41b698be56c",
            "equiv_pairs.csv": "6014f8e4f518182a6df59abe4aeab1e4"
                               "0a7b37874620bf92f6ce1e3c39d2e3e0",
            "equiv_varfam.csv": "a6d9955a9a93ab656cdaca6701dc0dff"
                                "ab96d86f51f55ea3dd086d26dcf6d8bc",
        }),
    }

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_outputs_match_pinned_sha256(self, name, tmp_path, capsys):
        argv, want = self.COMMANDS[name]
        code, out, _ = run_cli(argv + ["--out", str(tmp_path)], capsys)
        assert code == 0
        got = {"stdout": hashlib.sha256(out.encode()).hexdigest()}
        got.update((k, hashlib.sha256(v).hexdigest())
                   for k, v in read_dir(tmp_path).items())
        assert got == want
