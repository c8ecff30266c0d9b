import csv
import hashlib
from pathlib import Path

import pytest

from fdual.cli import load_config, main


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def read_dir(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def cell_counts(data: str) -> list:
    """The number of cells csv.reader reads in each row, header first."""
    return [len(r) for r in csv.reader(data.splitlines())]


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

    def test_table_parses_as_csv(self, capsys):
        # cells such as max(0,1-alpha) hold commas, so they are quoted
        code, out, _ = run_cli(["catalog"], capsys)
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert [len(r) for r in rows] == [6] * 8
        hinge = [r for r in rows if r[0] == "hinge"][0]
        assert hinge == ["hinge", "max(0,1-alpha)", "-2*min(u,1)",
                         "2-beta on [0,2]", "1.0", "identity"]

    # sha256 of catalog stdout and of every curve file it writes
    CURVES = {
        "stdout": "50def62c7ca6ec55517611e123144641"
                  "ad9a2972d48eab72e9d84474122945a9",
        "generator_eq10_nonconvex.csv": "e0960bc71f810c55bc8ca7eee2d50c8e"
                                        "ada1abd4781fc724299ba480986f3b1b",
        "generator_exponential.csv": "da188bdcd08937dce660d4c319de8b51"
                                     "ddac40a65360c8301143edbc61fdd9f5",
        "generator_hinge.csv": "e0960bc71f810c55bc8ca7eee2d50c8e"
                               "ada1abd4781fc724299ba480986f3b1b",
        "generator_least_squares.csv": "69a9174fe3407d01925a4909ab5562ff"
                                       "7e57944315fa8972b0c274d5b905060d",
        "generator_logistic.csv": "ed18a3e0f4b19f3e60ed8ba6f00130ea"
                                  "077629d3bb253acef6f575aa280a67cd",
        "generator_sym_kl.csv": "dab74630e47a4bfa164ea3a72e0c54eb"
                                "c936fb64418bbc3a4c8fe729a04830aa",
        "generator_zero_one.csv": "4dc382f33368f59f219a8a80bc8e466c"
                                  "5bb2a33288ce59a310f09b4767538d11",
        "loss_eq10_nonconvex.csv": "007a826b59796250e75a2e26721a032a"
                                   "b855dce59dcb78b9f16668e5780abd6d",
        "loss_exponential.csv": "f72dc8f07538100c5157bd018a38cea6"
                                "45388c43476a1e60a954124f9467f984",
        "loss_hinge.csv": "351aa50fa2f38b667a80303aab4909b1"
                          "16e04486704b859bc4331de42c446ece",
        "loss_least_squares.csv": "5f438f23370d4d0e844c44ae95d01f02"
                                  "8bb97c081ed0f0f14697a68de366a6b2",
        "loss_logistic.csv": "1194cc19d9ca0c4e8a966c32279679c8"
                             "af71b224ba45fb6493b81c2e0e3accaa",
        "loss_sym_kl.csv": "95a20a42f2fe810b4c2b36253b0526b8"
                           "ba56cac176c9c0b2e673e019b8dd8314",
        "loss_zero_one.csv": "5e711999c854a7a0884debf5a061d9c7"
                             "2b15e13a3702f2c29cd98e6ffda2f7da",
    }

    def test_curves_match_pinned_sha256(self, tmp_path, capsys):
        code, out, _ = run_cli(["catalog", "--curves", str(tmp_path)], capsys)
        assert code == 0
        files = read_dir(tmp_path)
        for name, data in files.items():
            points = 161 if name.startswith("loss_") else 121
            assert cell_counts(data.decode()) == [2] * (1 + points)
        got = {"stdout": hashlib.sha256(out.encode()).hexdigest()}
        got.update((k, hashlib.sha256(v).hexdigest())
                   for k, v in files.items())
        assert got == self.CURVES


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

    def test_malformed_config_bool_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad_bool.cfg"
        cfg.write_text("[erm]\ntimings = maybe\n")
        code, _, err = run_cli(["erm", "--config", str(cfg)], capsys)
        assert code == 2
        assert "bad value for erm.timings: 'maybe'" in err

    @pytest.mark.parametrize("raw,want", [("yes", True), ("On", True),
                                          ("1", True), ("off", False),
                                          ("false", False), ("0", False)])
    def test_config_bool_states(self, tmp_path, raw, want):
        cfg = tmp_path / "bool.cfg"
        cfg.write_text(f"[erm]\ntimings = {raw}\n")
        assert load_config(str(cfg)) == {"erm": {"timings": want}}

    @pytest.mark.parametrize("argv,message", [
        (["--measures", "0"], "verify.measures must be at least 1, got 0"),
        (["--measures", "-2"], "verify.measures must be at least 1, got -2"),
        (["--seed", "-1"], "verify.seed must be at least 0, got -1"),
    ])
    def test_bad_count_is_usage_error(self, tmp_path, capsys, argv,
                                      message):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(["verify", "--losses", "hinge"] + argv
                                 + ["--out", str(out_dir)], capsys)
        assert code == 2
        assert message in err
        assert "verify hinge" not in out
        assert not out_dir.exists()

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
        assert "erm.seeds must be at least 1, got 0" in err
        assert not (tmp_path / "erm_consistency.csv").exists()

    @pytest.mark.parametrize("argv,message", [
        (["--lemma2", "-3"], "erm.lemma2 must be at least 0, got -3"),
        (["--n", "0"], "erm.n needs sample sizes >= 1, got '0'"),
        (["--n", "100,-5"], "erm.n needs sample sizes >= 1, got '100,-5'"),
        (["--n", ""], "erm.n needs sample sizes >= 1, got ''"),
        (["--grid", "-2"], "erm.grid must be at least 1, got -2"),
        (["--grid", "0"], "erm.grid must be at least 1, got 0"),
        (["--seed-base", "-1"], "erm.seed_base must be at least 0, got -1"),
    ])
    def test_bad_count_is_usage_error(self, tmp_path, capsys, argv, message):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(["erm", "--seeds", "2", "--grid", "11",
                                  "--n", "100"] + argv
                                 + ["--out", str(out_dir)], capsys)
        assert code == 2
        assert message in err
        assert out == ""
        assert not out_dir.exists()

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
        files = read_dir(tmp_path)
        for data in files.values():
            counts = cell_counts(data.decode())
            assert counts == counts[:1] * len(counts)
        got = {"stdout": hashlib.sha256(out.encode()).hexdigest()}
        got.update((k, hashlib.sha256(v).hexdigest())
                   for k, v in files.items())
        assert got == want
