"""Batch experiment front end.

Subcommands:
  catalog   print the loss/divergence correspondence table
  verify    correspondence identity + bridge-function conditions on random measures
  equiv     pairwise affine-equivalence verdicts for the generator catalog
  erm       consistency sweeps, mismatch witnesses, excess-risk inequality draws

Exit codes: 0 success, 1 assertion failure, 2 usage/config error.  Files
and the catalog table are plain CSV with pinned headers; a rerun with the
same configuration and seeds is byte-identical (--timings opts into timing).
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np

from . import equivalence, erm, losses, measures, risk
from ._csvfmt import row, text
from .duality import check_theorem1_conditions, psi_from_f
from .errors import ConfigError, FdualError, NonConvexLoss, NoWitnessFound

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2

ENV_OUT_DIR = "FDUAL_OUT_DIR"

VERIFY_LOSSES = ("hinge", "exponential", "logistic", "least_squares", "sym_kl")

# presentation strings for the catalog table (ASCII math)
_CATALOG_TABLE = {
    "zero_one": ("1[alpha<=0]", "-min(u,1)", "1-beta on [0,1]", 0.5, "-"),
    "hinge": ("max(0,1-alpha)", "-2*min(u,1)", "2-beta on [0,2]", 1.0,
              "identity"),
    "exponential": ("exp(-alpha)", "-2*sqrt(u)", "1/beta for beta>0", 1.0,
                    "exp(u-1)"),
    "logistic": ("log(1+exp(-alpha))", "-u*log((u+1)/u)-log(u+1)",
                 "beta-log(exp(beta)-1) for beta>0", math.log(2.0),
                 "log(1+exp(u)/2)"),
    "least_squares": ("(1-alpha)^2", "-4u/(u+1)", "(2-sqrt(beta))^2 for beta>=0",
                      1.0, "u^2"),
    "sym_kl": ("exp(-alpha)-alpha-1", "-log(u)+u*log(u)",
               "implicit: 1/u-log(u)=beta+1", 0.0, "exp(u)+u-1"),
    "eq10_nonconvex": ("(2-exp(alpha))+ then exp(-alpha)", "-2*min(u,1)",
                       "2-beta on [0,2]", 1.0, "exp(u-1)"),
}

_DIVERGENCE_ALIASES = {
    "variational": "hinge",
    "hellinger": "exponential",
    "triangular": "least_squares",
    "capacitory": "logistic",
    "symmetric_kl": "sym_kl",
    "kl": "kl",
}

# catalog generators expected to be affinely equivalent (same class label)
_EQUIV_CLASSES = {
    "zero_one": "variational",
    "hinge": "variational",
    "eq10_nonconvex": "variational",
    "exponential": "hellinger",
    "logistic": "capacitory",
    "least_squares": "triangular",
    "sym_kl": "symmetric_kl",
}


# --- configuration -------------------------------------------------------------

_CONFIG_SCHEMA = {
    "source": {"a": float, "b": float, "c": float, "q": float},
    "erm": {"losses": str, "n": str, "seeds": int, "seed_base": int,
            "grid": int, "bound": float, "mismatch": str, "lemma2": int,
            "timings": bool},
    "verify": {"losses": str, "measures": int, "seed": int, "tol": float},
    "equiv": {"tol": float},
    "output": {"dir": str},
}


def load_config(path: str) -> dict:
    """Strict INI parse: unknown sections or keys are errors."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    out: dict = {}
    for section in parser.sections():
        if section not in _CONFIG_SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        schema = _CONFIG_SCHEMA[section]
        out[section] = {}
        for key, raw in parser.items(section):
            if key not in schema:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            typ = schema[key]
            try:  # a bool is one of ConfigParser.BOOLEAN_STATES
                out[section][key] = (parser.getboolean(section, key)
                                     if typ is bool else typ(raw))
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for {section}.{key}: {raw!r}") from exc
    return out


def _cfg(config: dict, section: str, key: str, default):
    return config.get(section, {}).get(key, default)


def _opt(args, config: dict, section: str, key: str, default, least=None):
    """An option from the command line if given (0 and "" count), else from
    the config, else the default; a value below ``least`` is an error."""
    value = getattr(args, key)
    if value is None:
        value = _cfg(config, section, key, default)
    if least is not None and value < least:
        raise ConfigError(f"{section}.{key} must be at least {least}, "
                          f"got {value}")
    return value


def _resolve_out_dir(args, config: dict) -> Path:
    path = Path(getattr(args, "out", None) or os.environ.get(ENV_OUT_DIR)
                or _cfg(config, "output", "dir", "fdual_out"))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse_loss_list(spec: str) -> list:
    names = [s.strip() for s in spec.split(",") if s.strip()]
    if not names:
        raise ConfigError("empty loss list")
    for nm in names:
        if nm not in losses.LOSS_NAMES:
            raise ConfigError(f"UnknownLoss: {nm!r}")
    return [losses.catalog_loss(nm) for nm in names]


def _source_from(args, config: dict) -> measures.UniformPairSource:
    vals = {k: _cfg(config, "source", k, d)
            for k, d in (("a", 1.0), ("b", 2.0), ("c", 4.0), ("q", 0.5))}
    if getattr(args, "source", None):
        parts = args.source.split(",")
        if len(parts) != 4:
            raise ConfigError("--source expects a,b,c,q")
        try:
            vals = dict(zip(("a", "b", "c", "q"), (float(p) for p in parts)))
        except ValueError as exc:
            raise ConfigError(f"bad --source value: {args.source!r}") from exc
    try:
        priors = measures.Priors.from_q(vals["q"])
        return measures.UniformPairSource(vals["a"], vals["b"], vals["c"],
                                          priors)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# --- subcommands ----------------------------------------------------------------

def cmd_catalog(args, config: dict) -> int:
    names = losses.LOSS_NAMES
    if args.name:
        if args.name not in _CATALOG_TABLE:
            print(f"UnknownLoss: {args.name!r}", file=sys.stderr)
            return EXIT_USAGE
        names = (args.name,)
    print(text("loss,phi,generator,psi,u_star,link",
               (row(nm, *_CATALOG_TABLE[nm]) for nm in names)), end="")
    if args.curves:
        out = Path(args.curves)
        out.mkdir(parents=True, exist_ok=True)
        alphas = np.linspace(-3.0, 5.0, 161)
        us = np.geomspace(1e-2, 10.0, 121)
        for nm in names:
            (out / f"loss_{nm}.csv").write_text(
                losses.curve_csv(losses.catalog_loss(nm), alphas,
                                 x_name="alpha", y_name="phi"))
            (out / f"generator_{nm}.csv").write_text(
                losses.curve_csv(losses.catalog_generator(nm), us,
                                 x_name="u", y_name="f"))
    return EXIT_OK


def cmd_verify(args, config: dict) -> int:
    loss_list = _parse_loss_list(
        _opt(args, config, "verify", "losses", ",".join(VERIFY_LOSSES)))
    n_measures = _opt(args, config, "verify", "measures", 100, least=1)
    seed = _opt(args, config, "verify", "seed", 0, least=0)
    tol = _opt(args, config, "verify", "tol", 1e-6)
    out_dir = _resolve_out_dir(args, config)

    all_pass = True
    corr_rows, cond_rows, check_rows = [], [], []
    for phi in loss_list:
        loss_pass = True
        f = losses.catalog_generator(phi.name)
        rng = np.random.default_rng((seed, losses.LOSS_NAMES.index(phi.name)))
        for k in range(n_measures):
            m = measures.random_measure(rng, int(rng.integers(2, 9)))
            # the loss/generator pairing is a per-loss fact: check it once
            rep = risk.verify_correspondence(phi, f, m, tol=tol,
                                             precheck=(k == 0))
            loss_pass &= rep.passed
            corr_rows.append(rep.to_csv_row())
        psi = psi_from_f(f)
        conditions = check_theorem1_conditions(psi, tol=1e-6)
        for c in conditions.checks:
            loss_pass &= c.passed
            cond_rows.append(row(phi.name, *astuple(c)))
        sym = equivalence.symmetry_check(f)
        loss_pass &= sym
        check_rows.append(row("symmetry", phi.name, "-", "1e-9", sym))
        coer = equivalence.coercivity_check(f)
        expected_coercive = phi.name == "sym_kl"
        ok = coer == expected_coercive
        loss_pass &= ok
        check_rows.append(row("coercivity", phi.name, coer,
                              f"expect_{row(expected_coercive)}", ok))
        all_pass &= loss_pass
        print(f"verify {phi.name}: {'ok' if loss_pass else 'FAIL'}")
    (out_dir / "verify_correspondence.csv").write_text(
        text(risk.RiskReport.csv_header(), corr_rows))
    (out_dir / "verify_conditions.csv").write_text(
        text("loss,condition,pass,witness_beta,residual", cond_rows))
    (out_dir / "verify_checks.csv").write_text(
        text("check,loss,value,threshold,pass", check_rows))
    return EXIT_OK if all_pass else EXIT_ASSERTION


def cmd_equiv(args, config: dict) -> int:
    tol = _opt(args, config, "equiv", "tol", 1e-6)
    out_dir = _resolve_out_dir(args, config)
    names = list(_EQUIV_CLASSES)
    pair_rows, var_rows, ok = [], [], True
    for n1, n2 in [(a, b) for a in names for b in names if a != b]:
        rep = equivalence.affine_fit(losses.catalog_generator(n1),
                                     losses.catalog_generator(n2), tol=tol)
        expected = _EQUIV_CLASSES[n1] == _EQUIV_CLASSES[n2]
        ok &= rep.verdict == expected
        pair_rows.append(row(n1, n2, *astuple(rep)[:5]))  # drops tol
    for nm in names:
        rep = equivalence.variational_family_check(losses.catalog_generator(nm),
                                                   tol=tol)
        expected = _EQUIV_CLASSES[nm] == "variational"
        ok &= rep.verdict == expected
        var_rows.append(row(nm, *astuple(rep)[:5]))
    (out_dir / "equiv_pairs.csv").write_text(
        text("f1,f2,c,a,b,residual,verdict", pair_rows))
    (out_dir / "equiv_varfam.csv").write_text(
        text("loss,c,a,b,residual,verdict", var_rows))
    print(f"equiv: {'ok' if ok else 'FAIL'} "
          f"({len(names) * (len(names) - 1)} pairs)")
    return EXIT_OK if ok else EXIT_ASSERTION


def cmd_erm(args, config: dict) -> int:
    loss_list = _parse_loss_list(_opt(args, config, "erm", "losses", "hinge"))
    n_text = _opt(args, config, "erm", "n", "100,1000,10000")
    try:
        n_list = [int(s) for s in str(n_text).split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad sample-size list: {n_text!r}") from exc
    if min(n_list, default=0) < 1:
        raise ConfigError(f"erm.n needs sample sizes >= 1, got {n_text!r}")
    n_seeds = _opt(args, config, "erm", "seeds", 20, least=1)
    seed_base = _opt(args, config, "erm", "seed_base", 0, least=0)
    grid_n = _opt(args, config, "erm", "grid", 101, least=1)
    lemma2_n = _opt(args, config, "erm", "lemma2", 0, least=0)
    bound = _opt(args, config, "erm", "bound", 4.0)
    timings = _opt(args, config, "erm", "timings", False)
    src = _source_from(args, config)
    try:
        fc = erm.FunctionClassSpec(gamma_bound=bound,
                                   thresholds=erm.threshold_grid(src, grid_n))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out_dir = _resolve_out_dir(args, config)

    for phi in loss_list:
        if not phi.convex:
            raise NonConvexLoss(f"{phi.name} is not convex (B1 violated)")

    seeds = [seed_base + k for k in range(n_seeds)]
    table = erm.consistency_sweep(loss_list, n_list, seeds, src, fc)
    (out_dir / "erm_consistency.csv").write_text(
        table.to_csv(include_runtime=timings))
    (out_dir / "erm_summary.csv").write_text(table.summary_csv())

    ok = True
    for phi in loss_list:
        meds = [table.median_excess(phi.name, n) for n in n_list]
        monotone = all(meds[i] >= meds[i + 1] - 1e-12
                       for i in range(len(meds) - 1))
        ok &= monotone
        med_text = ",".join(repr(m) for m in meds)
        print(f"erm {phi.name}: medians [{med_text}] "
              f"{'nonincreasing' if monotone else 'NOT monotone'}")

    mismatch = _opt(args, config, "erm", "mismatch", "")
    if mismatch:
        if mismatch not in _DIVERGENCE_ALIASES:
            raise ConfigError(f"unknown divergence name: {mismatch!r}")
        f1 = losses.catalog_generator("hinge")
        f2 = losses.catalog_generator(_DIVERGENCE_ALIASES[mismatch])
        try:
            wit = erm.quantizer_mismatch(f1, f2)
        except NoWitnessFound as exc:
            print(f"mismatch: {exc}")
            return EXIT_ASSERTION
        (out_dir / "erm_mismatch.csv").write_text(wit.to_csv())
        print(f"mismatch witness: a={wit.src.a!r} b={wit.src.b!r} "
              f"c={wit.src.c!r} q={wit.src.priors.q!r} "
              f"t_var={wit.t_opt_1!r} t_alt={wit.t_opt_2!r} "
              f"bayes_gap={wit.bayes_gap!r}")

    if lemma2_n:
        hinge = losses.catalog_loss("hinge")
        fit = equivalence.variational_family_check(
            losses.induced_generator(hinge))
        rng = np.random.default_rng((seed_base, 22))
        worst = -math.inf
        for _ in range(lemma2_n):
            a = float(rng.uniform(0.3, 2.0))
            b = a + float(rng.uniform(0.2, 1.5))
            c = b + float(rng.uniform(0.2, 3.0))
            src_k = measures.UniformPairSource(
                a, b, c, measures.Priors.from_q(float(rng.uniform(0.1, 0.9))))
            qz = measures.ThresholdQuantizer(float(rng.uniform(a, b)))
            gamma = rng.uniform(-bound, bound, 2)
            lhs, rhs = erm.lemma2_gap(hinge, gamma, qz, src_k, family_fit=fit)
            worst = max(worst, lhs - rhs)
        ok &= worst <= 1e-10
        print(f"lemma2: worst lhs-rhs {worst!r} over {lemma2_n} draws")

    return EXIT_OK if ok else EXIT_ASSERTION


# --- entry point ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdual",
        description="Margin losses and f-divergences: correspondence checks "
                    "and joint discriminant/quantizer ERM experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalog", help="print the correspondence table")
    p_cat.add_argument("--name", help="restrict to one loss")
    p_cat.add_argument("--curves", help="also write plot-ready loss and "
                                        "generator curves to this directory")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file (strict keys)")
    common.add_argument("--out", help="output directory (overrides "
                                      f"${ENV_OUT_DIR} and config)")

    p_ver = sub.add_parser("verify", parents=[common],
                           help="correspondence identity on random measures")
    p_ver.add_argument("--losses", "--loss", dest="losses",
                       help="comma-separated loss names")
    p_ver.add_argument("--measures", type=int, help="random measures per loss")
    p_ver.add_argument("--seed", type=int, help="rng seed")
    p_ver.add_argument("--tol", type=float, help="residual tolerance")

    p_eq = sub.add_parser("equiv", parents=[common],
                          help="pairwise affine-equivalence verdicts")
    p_eq.add_argument("--tol", type=float, help="fit tolerance")

    p_erm = sub.add_parser("erm", parents=[common],
                           help="consistency sweep / mismatch / inequality")
    p_erm.add_argument("--losses", help="comma-separated loss names")
    p_erm.add_argument("--n", help="comma-separated sample sizes")
    p_erm.add_argument("--seeds", type=int, help="number of replicates")
    p_erm.add_argument("--seed-base", dest="seed_base", type=int,
                       help="first replicate seed")
    p_erm.add_argument("--grid", type=int, help="threshold grid size")
    p_erm.add_argument("--bound", type=float, help="discriminant bound B")
    p_erm.add_argument("--source", help="uniform-pair source as a,b,c,q")
    p_erm.add_argument("--mismatch", help="divergence to pit against the "
                                          "variational objective")
    p_erm.add_argument("--lemma2", type=int,
                       help="random draws for the excess-risk inequality")
    p_erm.add_argument("--timings", action="store_true", default=None,
                       help="include runtime_ms column (breaks byte-"
                            "reproducibility)")
    return parser


_COMMANDS = {"catalog": cmd_catalog, "verify": cmd_verify,
             "equiv": cmd_equiv, "erm": cmd_erm}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config: dict = {}
    if getattr(args, "config", None):
        try:
            config = load_config(args.config)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args, config)
    except (ConfigError, NonConvexLoss) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FdualError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
