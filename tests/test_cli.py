from pathlib import Path

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
