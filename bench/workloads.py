"""The three benchmark workloads, built from a seed.

``WORKLOADS[name](seed)`` returns one round: a fixed list of operations.  A run
repeats the round, so every run attempts the same operations in the same
proportions whatever its length, and per-op counts repeat exactly.  Each op
calls fdual through module attributes at call time, so the traced run sees
the calls through its patched module callables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from fdual import duality, equivalence, erm, losses, measures, risk

import checks


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]
    # a deeper check that calls fdual again; run once per op, untimed
    audit: Callable[[object], list] | None = None


# --- correspondence -------------------------------------------------------------

CORRESPONDENCE_LOSSES = ("hinge", "exponential", "logistic", "least_squares",
                         "sym_kl", "eq10_nonconvex", "zero_one")
# measures per loss in a round; bin counts cycle over 2..8 so every round has
# the same size mix whatever the seed
PER_LOSS = 28


def _correspondence_op(name: str, m, precheck: bool) -> Op:
    phi = losses.catalog_loss(name)
    f = losses.catalog_generator(name)
    mu, pi = m.mu, m.pi

    def run():
        return risk.verify_correspondence(phi, f, m, precheck=precheck)

    def audit(rep):
        total, gamma = risk.optimal_phi_risk(phi, m)
        out = checks.check_discriminant(name, mu, pi, gamma)
        if total != rep.optimal_phi_risk:
            out.append(f"optimal_phi_risk {total!r} differs from the "
                       f"report's {rep.optimal_phi_risk!r}")
        return out

    return Op(name, run, lambda rep: checks.check_correspondence(
        name, mu, pi, rep), audit)


def correspondence(seed: int) -> list[Op]:
    # one stream per loss, seeded as `fdual verify` seeds it
    pairs = {}
    for name in CORRESPONDENCE_LOSSES:
        rng = np.random.default_rng((seed, losses.LOSS_NAMES.index(name)))
        pairs[name] = [measures.random_measure(rng, 2 + k % 7)
                       for k in range(PER_LOSS)]
    return [_correspondence_op(name, pairs[name][k], precheck=(k == 0))
            for k in range(PER_LOSS) for name in CORRESPONDENCE_LOSSES]


# --- bridge -------------------------------------------------------------------

BRIDGE_GENERATORS = ("hinge", "exponential", "least_squares", "logistic",
                     "sym_kl")
PSI_POINTS = 16      # Psi and Psi(Psi) points per numeric job
TABLE_NODES = 2000   # nodes of a tabulated generator, on [1e-2, 1e2]
TABLE_VS = 2000      # conjugate evaluation points per table
RECIPE_ALPHAS = 201  # points where a rebuilt loss is compared


def _numeric_psi_op(name: str, rng) -> Op:
    f = losses.catalog_generator(name)
    lo, hi, _, _ = checks.PSI[name]
    width = 0.25 * (hi - lo)
    start = float(rng.uniform(lo, hi - width))
    betas = np.linspace(start, start + width, PSI_POINTS)

    def run():
        psi = duality.psi_from_f(f, numeric=True)
        vals = psi(betas)
        return psi.u_star, vals, psi(vals)

    return Op("psi_numeric", run, lambda r: checks.check_psi(
        name, betas, r[1], r[2], r[0]))


def _table_conjugate_op(name: str, rng) -> Op:
    # log-spaced nodes, each jittered inside its own cell
    step = math.log(1e4) / (TABLE_NODES - 1)
    logs = math.log(1e-2) + (np.arange(TABLE_NODES)
                             + rng.uniform(-0.45, 0.45, TABLE_NODES)) * step
    us = np.exp(logs)
    fs = checks.GENERATOR[name][0](us)
    first = (fs[1] - fs[0]) / (us[1] - us[0])
    last = (fs[-1] - fs[-2]) / (us[-1] - us[-2])
    vs = np.linspace(first, last, TABLE_VS + 2)[1:-1]
    ref = []

    def run():
        table = duality.Generator.from_table(us, fs, name=f"table[{name}]")
        return duality.conjugate(table)(vs)

    def check(got):
        if not ref:
            ref.append(checks.table_conjugate(us, fs, vs))
        return checks.check_table_conjugate(name, ref[0], vs, got)

    return Op("table_conjugate", run, check)


def _recipe_op(name: str, rng) -> Op:
    f = losses.catalog_generator(name)
    g = losses.catalog_link(losses.RECIPE_LINKS[name])
    alphas = np.sort(rng.uniform(-5.0, 5.0, RECIPE_ALPHAS))

    def run():
        return losses.loss_from_f(f, g)(alphas)

    return Op("recipe", run, lambda vals: checks.check_recipe(
        name, alphas, vals))


def bridge(seed: int) -> list[Op]:
    rng = np.random.default_rng((seed, 1001))
    ops = []
    for name in BRIDGE_GENERATORS:
        ops += [_numeric_psi_op(name, rng), _table_conjugate_op(name, rng),
                _recipe_op(name, rng)]
    return ops


# --- erm ----------------------------------------------------------------------

ERM_LOSSES = ("hinge", "exponential", "logistic")
ERM_SIZES = (100, 1000, 10_000, 100_000)
ERM_BOUND = 4.0
# ops of each kind in a round; with these counts the median op is a small-n
# replicate and the 90th percentile an n = 100000 replicate, so neither
# percentile sits on the edge between two kinds of different cost
ERM_MIX = {"replicate": 24, "table_erm": 3, "lemma2": 12, "dominance": 19}
TABLE_BINS = 8       # covariate bins of a table source
TABLE_LETTERS = 2    # quantizer alphabet: 2**8 routings in the family
TABLE_N = 2000


def _replicate_op(i: int, seed: int, src, fc) -> Op:
    name = ERM_LOSSES[i % len(ERM_LOSSES)]
    phi = losses.catalog_loss(name)
    n = ERM_SIZES[i // len(ERM_LOSSES) % len(ERM_SIZES)]
    spec = (src.a, src.b, src.c, src.priors.p, src.priors.q)
    ts = fc.thresholds

    def run():
        s = erm.generate_samples(src, n, (seed, i))
        return s, erm.joint_erm(phi, s, fc)

    def check(r):
        s, res = r
        return checks.check_threshold_erm(name, spec, ts, s.x, s.y, res)

    return Op("replicate", run, check)


def _table_op(i: int, seed: int, rng) -> Op:
    name = ERM_LOSSES[i % len(ERM_LOSSES)]
    phi = losses.catalog_loss(name)
    pos = rng.uniform(0.05, 1.0, TABLE_BINS)
    neg = rng.uniform(0.05, 1.0, TABLE_BINS)
    priors = measures.Priors.from_q(float(rng.uniform(0.3, 0.7)))
    src = measures.BinnedSource(pos / pos.sum(), neg / neg.sum(), priors)
    fc = erm.FunctionClassSpec(gamma_bound=ERM_BOUND, table_bins=TABLE_LETTERS)
    best = []

    def run():
        s = erm.generate_samples(src, TABLE_N, (seed, 100 + i))
        return s, erm.joint_erm(phi, s, fc)

    def check(r):
        s, res = r
        args = (src.pos_masses, src.neg_masses, priors.p, priors.q,
                TABLE_LETTERS)
        if not best:
            best.append(checks.table_family_bayes(*args))
        return checks.check_table_erm(name, *args, best[0], s.x, s.y, res)

    return Op("table_erm", run, check)


def _uniform_pair(rng, q_lo: float, q_hi: float):
    a = float(rng.uniform(0.3, 2.0))
    b = a + float(rng.uniform(0.2, 1.5))
    c = b + float(rng.uniform(0.2, 3.0))
    q = float(rng.uniform(q_lo, q_hi))
    return measures.UniformPairSource(a, b, c, measures.Priors.from_q(q))


def _lemma2_op(rng, fit) -> Op:
    # the source distribution of criterion 05
    hinge = losses.catalog_loss("hinge")
    src = _uniform_pair(rng, 0.1, 0.9)
    t = float(rng.uniform(src.a, src.b))
    gamma = rng.uniform(-ERM_BOUND, ERM_BOUND, 2)
    q = measures.ThresholdQuantizer(t)
    spec = (src.a, src.b, src.c, src.priors.p, src.priors.q)
    ts = np.unique(np.append(np.linspace(src.a, src.b, 103)[1:-1], t))

    def run():
        return erm.lemma2_gap(hinge, gamma, q, src, family_fit=fit)

    return Op("lemma2", run, lambda r: checks.check_lemma2(
        spec, t, gamma, ts, *r))


def _dominance_op(rng) -> Op:
    # the source distribution of criterion 09
    src = _uniform_pair(rng, 0.15, 0.85)
    t1 = float(rng.uniform(src.a, src.b))
    t2 = float(rng.uniform(src.a, src.b))
    spec = (src.a, src.b, src.c, src.priors.p, src.priors.q)

    def run():
        return equivalence.dominance_check(measures.ThresholdQuantizer(t1),
                                           measures.ThresholdQuantizer(t2),
                                           src)

    return Op("dominance", run, lambda rep: checks.check_dominance(
        spec, t1, t2, rep))


def _mismatch_op() -> Op:
    f1 = losses.catalog_generator("hinge")
    f2 = losses.catalog_generator("exponential")
    return Op("mismatch", lambda: erm.quantizer_mismatch(f1, f2),
              checks.check_mismatch)


def erm_workload(seed: int) -> list[Op]:
    src = measures.UniformPairSource(1.0, 2.0, 4.0, measures.Priors(0.5, 0.5))
    fc = erm.FunctionClassSpec(gamma_bound=ERM_BOUND,
                               thresholds=erm.threshold_grid(src, 101))
    fit = equivalence.variational_family_check(
        losses.induced_generator(losses.catalog_loss("hinge")))
    rng = np.random.default_rng((seed, 1002))
    kinds = {
        "replicate": [_replicate_op(i, seed, src, fc)
                      for i in range(ERM_MIX["replicate"])],
        "table_erm": [_table_op(i, seed, rng)
                      for i in range(ERM_MIX["table_erm"])],
        # the first draw fits the clipped-linear family itself, the others
        # reuse one fit, as `fdual erm --lemma2` does once per run
        "lemma2": [_lemma2_op(rng, fit if k else None)
                   for k in range(ERM_MIX["lemma2"])],
        "dominance": [_dominance_op(rng) for _ in range(ERM_MIX["dominance"])],
    }
    # rotate over the kinds until each list is used up
    ops = []
    for k in range(max(map(len, kinds.values()))):
        ops += [lst[k] for lst in kinds.values() if k < len(lst)]
    return ops + [_mismatch_op()]


# workload name -> round builder taking the seed
WORKLOADS = {"correspondence": correspondence, "bridge": bridge,
             "erm": erm_workload}
