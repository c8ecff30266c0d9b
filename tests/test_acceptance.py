"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them inline).

Expected values marked as oracle-fixed were computed by the documented
independent routes (hand evaluation of closed forms, population sweeps,
Monte Carlo pre-registration runs) before being frozen here.
"""

import math
import time
from pathlib import Path

import numpy as np

from fdual.cli import main as cli_main
from fdual.duality import psi_from_f
from fdual.equivalence import (affine_fit, coercivity_check, dominance_check,
                               symmetry_check, variational_family_check)
from fdual.erm import (FunctionClassSpec, consistency_sweep, generate_samples,
                       joint_erm, lemma2_gap, quantizer_mismatch,
                       threshold_grid)
from fdual.losses import (catalog_generator, catalog_link, catalog_loss,
                          f_from_loss, induced_generator, loss_from_f,
                          RECIPE_LINKS)
from fdual.measures import (Priors, ThresholdQuantizer, UniformPairSource,
                            bayes_risk, f_divergence, induce_measures,
                            named_divergence, random_measure)
from fdual.risk import min_per_bin, optimal_phi_risk

CONVEX_LOSSES = ("hinge", "exponential", "logistic", "least_squares",
                 "sym_kl")


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def _hundred_measures(name: str):
    rng = np.random.default_rng((11, CONVEX_LOSSES.index(name)))
    return [random_measure(rng, int(rng.integers(2, 9))) for _ in range(100)]


def test_criterion_01_correspondence_identity():
    """Optimal loss risk equals the negative induced divergence, 1e-6."""
    t0 = time.perf_counter()
    worst = 0.0
    for name in CONVEX_LOSSES:
        phi = catalog_loss(name)
        f = catalog_generator(name)
        for m in _hundred_measures(name):
            opt, _ = optimal_phi_risk(phi, m)
            worst = max(worst, abs(opt + f_divergence(f, m)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    report(1, ok, f"max |R_opt + I_f| = {worst:.3e} over 5x100 measures "
                  f"in {elapsed:.2f}s")
    assert worst <= 1e-6
    assert elapsed < 5.0


def test_criterion_02_closed_form_risk_identities():
    """Named-divergence routes match the optimal risks within 1e-8."""
    worst = 0.0
    for m in _hundred_measures("hinge"):
        v = named_divergence("variational", m)
        h2 = named_divergence("hellinger_term", m)
        tri = named_divergence("triangular", m)
        cap = named_divergence("capacitory", m)
        pairs = [
            (optimal_phi_risk(catalog_loss("hinge"), m)[0], 1.0 - v),
            (optimal_phi_risk(catalog_loss("exponential"), m)[0],
             float(np.sum(2.0 * np.sqrt(m.mu * m.pi)))),
            (optimal_phi_risk(catalog_loss("exponential"), m)[0],
             1.0 - 2.0 * h2),
            (optimal_phi_risk(catalog_loss("least_squares"), m)[0],
             1.0 - tri),
            (optimal_phi_risk(catalog_loss("logistic"), m)[0],
             math.log(2.0) - cap),
        ]
        worst = max(worst, max(abs(x - y) for x, y in pairs))
    ok = worst <= 1e-8
    report(2, ok, f"max closed-form risk gap = {worst:.3e}")
    assert worst <= 1e-8


def test_criterion_03_bridge_function_catalog():
    """Numeric conjugation reproduces the four closed-form bridge functions,
    their involution, and their fixed points."""
    windows = {
        "hinge": (1e-3, 2.0 - 1e-3, lambda b: 2.0 - b, 1.0),
        "exponential": (0.05, 12.0, lambda b: 1.0 / b, 1.0),
        "least_squares": (1e-3, 4.0 - 1e-3,
                          lambda b: (2.0 - np.sqrt(b)) ** 2, 1.0),
        "logistic": (0.05, 12.0,
                     lambda b: -np.log1p(-np.exp(-b)), math.log(2.0)),
    }
    worst_val, worst_inv, worst_fix = 0.0, 0.0, 0.0
    for name, (lo, hi, closed, ustar) in windows.items():
        psi = psi_from_f(catalog_generator(name), numeric=True)
        grid = np.linspace(lo, hi, 1000)
        vals = psi(grid)
        worst_val = max(worst_val, float(np.max(np.abs(vals - closed(grid)))))
        inv = psi(vals)
        worst_inv = max(worst_inv, float(np.max(np.abs(inv - grid))))
        worst_fix = max(worst_fix, abs(psi.u_star - ustar))
    ok = worst_val <= 1e-4 and worst_inv <= 1e-4 and worst_fix <= 1e-6
    report(3, ok, f"closed-form gap {worst_val:.2e}, involution "
                  f"{worst_inv:.2e}, fixed points {worst_fix:.2e}")
    assert worst_val <= 1e-4
    assert worst_inv <= 1e-4
    assert worst_fix <= 1e-6


def test_criterion_04_constructive_recipe_roundtrips():
    """Each convex catalog loss is rebuilt from (generator, link) pointwise,
    and the forward map recovers each generator."""
    alphas = np.linspace(-5.0, 5.0, 201)
    us = np.geomspace(1e-3, 1e3, 61)
    worst_loss, worst_gen = 0.0, 0.0
    for name, link in RECIPE_LINKS.items():
        rec = loss_from_f(catalog_generator(name), catalog_link(link))
        ref = catalog_loss(name)
        worst_loss = max(worst_loss,
                         float(np.max(np.abs(rec(alphas) - ref(alphas)))))
        worst_gen = max(worst_gen,
                        float(np.max(np.abs(f_from_loss(ref, us)
                                            - catalog_generator(name)(us)))))
    ok = worst_loss <= 1e-6 and worst_gen <= 1e-6
    report(4, ok, f"recipe pointwise gap {worst_loss:.2e}, "
                  f"forward-map gap {worst_gen:.2e}")
    assert worst_loss <= 1e-6
    assert worst_gen <= 1e-6


def test_criterion_05_excess_risk_inequality():
    """No violations of the two-sided excess-risk bound over 1000 random
    draws, and the scaled identity between optimal risks holds."""
    hinge = catalog_loss("hinge")
    fit = variational_family_check(induced_generator(hinge))
    rng = np.random.default_rng(7)
    worst = -math.inf
    for _ in range(1000):
        a = float(rng.uniform(0.3, 2.0))
        b = a + float(rng.uniform(0.2, 1.5))
        c = b + float(rng.uniform(0.2, 3.0))
        src = UniformPairSource(a, b, c,
                                Priors.from_q(float(rng.uniform(0.1, 0.9))))
        q = ThresholdQuantizer(float(rng.uniform(a, b)))
        gamma = rng.uniform(-4.0, 4.0, 2)
        lhs, rhs = lemma2_gap(hinge, gamma, q, src, family_fit=fit)
        worst = max(worst, lhs - rhs)
    # scaled identity: optimal-loss-risk excess = c * (0-1 excess), c = 2
    src = UniformPairSource(1.0, 2.0, 4.0, Priors(0.5, 0.5))
    ts = threshold_grid(src, 101)
    bayes = np.array([bayes_risk(induce_measures(ThresholdQuantizer(t), src))
                      for t in ts])
    p, q_ = src.priors.p, src.priors.q
    mu = np.column_stack([p * (ts - 1.0), p * (4.0 - ts)]) / 3.0
    pi = np.column_stack([q_ * ts, q_ * (2.0 - ts)]) / 2.0
    _, vals = min_per_bin(hinge, mu.ravel(), pi.ravel())
    rphi = vals.reshape(mu.shape).sum(axis=1)
    ident = float(np.max(np.abs((rphi - rphi.min())
                                - 2.0 * (bayes - bayes.min()))))
    ok = worst <= 1e-10 and ident <= 1e-8
    report(5, ok, f"worst lhs-rhs = {worst:.3e} over 1000 draws, "
                  f"scaled-identity gap {ident:.2e}")
    assert worst <= 1e-10
    assert ident <= 1e-8


def test_criterion_06_equivalence_checker():
    """Affine pairs accepted with recovered coefficients; distinct shapes
    rejected; symmetry and coercivity classified correctly."""
    base = catalog_generator("hinge")
    member = lambda u: 3.0 * base(u) + 2.0 * np.asarray(u, dtype=float) - 1.0
    rep = affine_fit(member, base)
    coef_gap = float(np.max(np.abs(np.array([rep.c, rep.a, rep.b])
                                   - np.array([3.0, 2.0, -1.0]))))
    cross = affine_fit(base, catalog_generator("exponential"))
    sym_ok = all(symmetry_check(catalog_generator(n)) for n in CONVEX_LOSSES)
    kl_sym = symmetry_check(catalog_generator("kl"))
    coer = {n: coercivity_check(catalog_generator(n))
            for n in ("sym_kl", "hinge", "logistic", "exponential")}
    ok = (rep.verdict and coef_gap <= 1e-8
          and (not cross.verdict) and cross.residual > 1e-2
          and sym_ok and not kl_sym
          and coer == {"sym_kl": True, "hinge": False, "logistic": False,
                       "exponential": False})
    report(6, ok, f"affine coefficients within {coef_gap:.2e}, cross residual "
                  f"{cross.residual:.3f}, symmetry/coercivity as classified")
    assert rep.verdict and coef_gap <= 1e-8
    assert not cross.verdict and cross.residual > 1e-2
    assert sym_ok and not kl_sym
    assert coer == {"sym_kl": True, "hinge": False, "logistic": False,
                    "exponential": False}


def test_criterion_07_consistency_experiment():
    """Joint ERM consistency at the pinned source: 101 thresholds, B = 4,
    n in {100, 1000, 10000}, seeds 0..19.

    Oracle-fixed bound for the final median: 0.02 (pre-registered run gave
    medians 4.49e-3, 0.0, 0.0 and means 1.44e-2, 1.92e-3, 1.63e-4).
    """
    t0 = time.perf_counter()
    src = UniformPairSource(1.0, 2.0, 4.0, Priors(0.5, 0.5))
    fc = FunctionClassSpec(gamma_bound=4.0, thresholds=threshold_grid(src, 101))
    table = consistency_sweep([catalog_loss("hinge")], [100, 1000, 10000],
                              list(range(20)), src, fc)
    meds = [table.median_excess("hinge", n) for n in (100, 1000, 10000)]
    elapsed = time.perf_counter() - t0
    strict = meds[0] > meds[1] > meds[2]
    ok = strict and meds[-1] <= 0.02 and elapsed < 60.0
    report(7, ok, f"medians {meds}, final <= 0.02: "
                  f"{meds[-1] <= 0.02}, strict decrease: {strict}, "
                  f"{elapsed:.1f}s")
    assert meds[-1] <= 0.02, "final median above the oracle-fixed bound"
    assert elapsed < 60.0
    assert strict, (
        f"medians {meds} are not strictly decreasing: on this source the "
        "per-threshold Bayes risk is concave in the threshold (a sum of "
        "minima of linear functions), so the family optimum sits at the "
        "grid edge; ERM selects that exact grid point for at least half "
        "the seeds from n=1000 on and the median excess saturates at "
        "exactly 0, leaving nothing left to decrease strictly. Mean excess "
        "does decrease strictly (1.4e-2, 1.9e-3, 1.6e-4 in the "
        "pre-registered run); see the Tests section of README.md.")


def test_criterion_08_mismatch_witness_and_erm_floor():
    """The variational and Hellinger objectives pick different thresholds on
    some source, the alternative pick costs strictly more Bayes risk, and
    exponential-loss ERM stays above half that gap at n = 10000."""
    wit = quantizer_mismatch(catalog_generator("hinge"),
                             catalog_generator("exponential"))
    assert wit.t_opt_1 != wit.t_opt_2
    assert wit.bayes_gap > 0.0
    fc = FunctionClassSpec(gamma_bound=4.0, thresholds=wit.thresholds)
    expl = catalog_loss("exponential")
    excesses = []
    for seed in range(20):
        s = generate_samples(wit.src, 10_000, (seed, 10_000))
        excesses.append(joint_erm(expl, s, fc).excess_bayes)
    med = float(np.median(excesses))
    ok = med >= wit.bayes_gap / 2.0
    report(8, ok, f"witness (a={wit.src.a}, b={wit.src.b}, c={wit.src.c}, "
                  f"q={wit.src.priors.q}), gap {wit.bayes_gap:.4f}, "
                  f"median ERM excess {med:.4f} >= gap/2 "
                  f"{wit.bayes_gap / 2:.4f}")
    assert med >= wit.bayes_gap / 2.0


def test_criterion_09_dominance_agreement():
    """Prior-sweep and clipped-generator-sweep dominance verdicts coincide
    on 50 random threshold pairs."""
    rng = np.random.default_rng(909)
    disagreements = 0
    for _ in range(50):
        a = float(rng.uniform(0.3, 2.0))
        b = a + float(rng.uniform(0.2, 1.5))
        c = b + float(rng.uniform(0.2, 3.0))
        src = UniformPairSource(a, b, c,
                                Priors.from_q(float(rng.uniform(0.15, 0.85))))
        t1 = float(rng.uniform(a, b))
        t2 = float(rng.uniform(a, b))
        rep = dominance_check(ThresholdQuantizer(t1), ThresholdQuantizer(t2),
                              src)
        disagreements += not rep.agreement
    ok = disagreements == 0
    report(9, ok, f"{50 - disagreements}/50 verdict agreements")
    assert disagreements == 0


def test_criterion_10_cli_determinism(tmp_path, capsys):
    """Repeated CLI runs with identical configuration and seeds are
    byte-identical, stdout included."""

    def run(argv, out_dir: Path):
        code = cli_main(argv + ["--out", str(out_dir)])
        captured = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        return code, captured.out, files

    commands = [
        ["verify", "--measures", "20", "--losses", "hinge,exponential"],
        ["erm", "--losses", "hinge", "--n", "100,1000", "--seeds", "5",
         "--grid", "51", "--mismatch", "hellinger", "--lemma2", "25"],
        ["equiv"],
    ]
    identical = True
    for k, argv in enumerate(commands):
        r1 = run(argv, tmp_path / f"a{k}")
        r2 = run(argv, tmp_path / f"b{k}")
        identical &= r1[0] == r2[0] == 0 and r1[1] == r2[1] \
            and r1[2] == r2[2]
    report(10, identical, "three subcommands rerun byte-identically")
    assert identical
