"""Output checks coded apart from fdual.

Every reference value here comes from a closed form or a direct sum written
out in this file from mu, pi, the samples or the tabulated nodes; nothing
calls into fdual.  Each ``check_*`` function returns a list of problems, empty
when the result passes, so the self-test can show that a perturbed result is
rejected by the same function the benchmark runs.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

LOG2 = math.log(2.0)

# tolerances: criterion 01 (residual), criterion 03 (Psi, involution, u*),
# criterion 04 (rebuilt losses), criterion 05 (excess-risk inequality)
RESIDUAL_TOL = 1e-6
PSI_TOL = 1e-4
INVOLUTION_TOL = 1e-4
USTAR_TOL = 1e-6
RECIPE_TOL = 1e-6
LEMMA2_TOL = 1e-10
# the tie rule of optimal_phi_risk reports the left edge of a 1e-12 value
# band, which moves a unique argmin left by up to 3.2e-5 on these measures
ARGMIN_TOL = 1e-4
EXACT_TOL = 1e-12


def _exp(x):
    with np.errstate(over="ignore"):
        return np.exp(x)


# --- losses -------------------------------------------------------------------

def _eq10(a):
    a = np.asarray(a, dtype=float)
    low = np.maximum(0.0, 2.0 - _exp(np.minimum(a, 0.0)))
    return np.where(a <= 0.0, low, _exp(-a))


LOSS = {
    "zero_one": lambda a: np.where(np.asarray(a) <= 0.0, 1.0, 0.0),
    "hinge": lambda a: np.maximum(0.0, 1.0 - np.asarray(a)),
    "exponential": lambda a: _exp(-np.asarray(a)),
    "logistic": lambda a: np.logaddexp(0.0, -np.asarray(a)),
    "least_squares": lambda a: (1.0 - np.asarray(a)) ** 2,
    "sym_kl": lambda a: _exp(-np.asarray(a)) - np.asarray(a) - 1.0,
    "eq10_nonconvex": _eq10,
}

SIGN_LOSSES = ("hinge", "zero_one", "eq10_nonconvex")


def neg_divergence(name: str, mu: np.ndarray, pi: np.ndarray) -> float:
    """-I_f(mu, pi) for the generator induced by the named loss."""
    if name in ("hinge", "eq10_nonconvex"):
        return 1.0 - float(np.sum(np.abs(mu - pi)))
    if name == "zero_one":
        return float(np.sum(np.minimum(mu, pi)))
    if name == "exponential":
        return float(np.sum(2.0 * np.sqrt(mu * pi)))
    if name == "least_squares":
        return float(np.sum(4.0 * mu * pi / (mu + pi)))
    if name == "logistic":
        mid = 0.5 * (mu + pi)
        cap = float(np.sum(mu * np.log(mu / mid) + pi * np.log(pi / mid)))
        return LOG2 - cap
    if name == "sym_kl":
        return -float(np.sum((mu - pi) * np.log(mu / pi)))
    raise KeyError(name)


def argmin(name: str, mu: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Per-bin minimizer of phi(a) mu + phi(-a) pi for the strictly convex
    catalog losses."""
    if name == "exponential":
        return 0.5 * np.log(mu / pi)
    if name in ("logistic", "sym_kl"):
        return np.log(mu / pi)
    if name == "least_squares":
        return (mu - pi) / (mu + pi)
    raise KeyError(name)


def check_correspondence(name: str, mu, pi, rep) -> list[str]:
    """A RiskReport against the closed-form -I_f and Bayes risk."""
    out = []
    expect = neg_divergence(name, mu, pi)
    bayes = float(np.sum(np.minimum(mu, pi)))
    if not abs(rep.optimal_phi_risk - expect) <= RESIDUAL_TOL:
        out.append(f"R_opt {rep.optimal_phi_risk!r} vs -I_f {expect!r}")
    if not abs(rep.divergence_value + expect) <= 1e-9:
        out.append(f"I_f {rep.divergence_value!r} vs {-expect!r}")
    if not abs(rep.phi_risk - expect) <= RESIDUAL_TOL:
        out.append(f"risk of the argmin {rep.phi_risk!r} vs {expect!r}")
    if not abs(rep.bayes_risk_of_q - bayes) <= EXACT_TOL:
        out.append(f"Bayes risk {rep.bayes_risk_of_q!r} vs {bayes!r}")
    if name in SIGN_LOSSES and not abs(rep.bayes_risk_of_pair - bayes) <= EXACT_TOL:
        out.append(f"0-1 risk of sign(gamma) {rep.bayes_risk_of_pair!r} "
                   f"vs Bayes {bayes!r}")
    return out


def check_discriminant(name: str, mu, pi, gamma) -> list[str]:
    """Returned discriminants against the closed-form argmins, or their
    signs for the losses whose minimizer is a sign."""
    gamma = np.asarray(gamma, dtype=float)
    if name in SIGN_LOSSES:
        want = np.where(mu - pi > 0.0, 1.0, -1.0)
        got = np.where(gamma > 0.0, 1.0, -1.0)
        return [] if np.array_equal(got, want) else [
            f"sign(gamma) {got.tolist()} vs sign(mu - pi) {want.tolist()}"]
    gap = float(np.max(np.abs(gamma - argmin(name, mu, pi))))
    return [] if gap <= ARGMIN_TOL else [f"argmin off by {gap:.3e}"]


# --- bridge functions ---------------------------------------------------------

def _sym_kl_psi(beta):
    """u + log u - 1 where 1/u - log u = beta + 1, by bisection on w = log u
    (exp(-w) - w decreases in w)."""
    tau = np.asarray(beta, dtype=float) + 1.0
    lo = np.full(tau.shape, -60.0)
    hi = np.full(tau.shape, 60.0)
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        above = np.exp(-mid) - mid > tau
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    w = 0.5 * (lo + hi)
    return np.exp(w) + w - 1.0


# name -> (window lo, window hi, Psi, u*); windows of criterion 03, plus one
# for sym_kl inside the range where its maximizer stays below 1e9
PSI = {
    "hinge": (1e-3, 2.0 - 1e-3, lambda b: 2.0 - b, 1.0),
    "exponential": (0.05, 12.0, lambda b: 1.0 / b, 1.0),
    "least_squares": (1e-3, 4.0 - 1e-3, lambda b: (2.0 - np.sqrt(b)) ** 2, 1.0),
    "logistic": (0.05, 12.0, lambda b: -np.log1p(-np.exp(-b)), LOG2),
    "sym_kl": (-4.0, 4.0, _sym_kl_psi, 0.0),
}


def check_psi(name: str, betas, vals, inv, u_star) -> list[str]:
    """Numeric Psi, Psi(Psi(beta)) and u* against the closed forms."""
    out = []
    _, _, closed, ustar = PSI[name]
    gap = float(np.max(np.abs(np.asarray(vals) - closed(np.asarray(betas)))))
    if not gap <= PSI_TOL:
        out.append(f"Psi off by {gap:.3e}")
    inv_gap = float(np.max(np.abs(np.asarray(inv) - np.asarray(betas))))
    if not inv_gap <= INVOLUTION_TOL:
        out.append(f"Psi(Psi(beta)) off by {inv_gap:.3e}")
    if not abs(u_star - ustar) <= USTAR_TOL:
        out.append(f"u* {u_star!r} vs {ustar!r}")
    return out


# generator -> (f, f*), with f* the exact conjugate of f on u >= 0
GENERATOR = {
    "hinge": (lambda u: -2.0 * np.minimum(u, 1.0),
              lambda v: np.where(v < -2.0, 0.0, 2.0 + v)),
    "exponential": (lambda u: -2.0 * np.sqrt(u), lambda v: -1.0 / v),
    "least_squares": (lambda u: -4.0 * u / (u + 1.0),
                      lambda v: np.where(v < -4.0, 0.0,
                                         (2.0 - np.sqrt(-np.minimum(v, 0.0))) ** 2)),
    "logistic": (lambda u: -u * np.log((u + 1.0) / u) - np.log1p(u),
                 lambda v: -np.log1p(-np.exp(v))),
    "sym_kl": (lambda u: (u - 1.0) * np.log(u), lambda v: _sym_kl_psi(-v)),
}


def table_conjugate(us, fs, vs) -> np.ndarray:
    """max_i (u_i v - f_i): the conjugate of the piecewise-linear table."""
    us, fs = np.asarray(us, dtype=float), np.asarray(fs, dtype=float)
    out = np.empty(len(vs))
    for lo in range(0, len(vs), 256):
        block = np.asarray(vs[lo:lo + 256], dtype=float)
        out[lo:lo + 256] = np.max(block[:, None] * us[None, :] - fs[None, :],
                                  axis=1)
    return out


def check_table_conjugate(name: str, ref, vs, got) -> list[str]:
    """Conjugate of a table against the direct node maximum ``ref``, and
    below the conjugate of the generator it tabulates (the table's chords lie
    above the convex generator)."""
    out = []
    got = np.asarray(got, dtype=float)
    gap = float(np.max(np.abs(got - ref) / (1.0 + np.abs(ref))))
    if not gap <= EXACT_TOL:
        out.append(f"table conjugate off the node maximum by {gap:.3e}")
    upper = GENERATOR[name][1](np.asarray(vs, dtype=float))
    over = float(np.max(got - upper))
    if not over <= 1e-9:
        out.append(f"table conjugate above f* by {over:.3e}")
    return out


def check_recipe(name: str, alphas, vals) -> list[str]:
    gap = float(np.max(np.abs(np.asarray(vals) - LOSS[name](alphas))))
    return [] if gap <= RECIPE_TOL else [f"rebuilt {name} off by {gap:.3e}"]


# --- ERM ------------------------------------------------------------------------

def threshold_masses(a, b, c, p, q, ts):
    """(mu, pi), each of shape (m, 2), for thresholds ts on the uniform pair
    X|-1 ~ U[0, b], X|+1 ~ U[a, c]."""
    ts = np.asarray(ts, dtype=float)
    mu = np.column_stack([p * (ts - a), p * (c - ts)]) / (c - a)
    pi = np.column_stack([q * ts, q * (b - ts)]) / b
    return mu, pi


def _empirical_risk(loss, y, gamma_of_sample) -> float:
    return float(np.mean(LOSS[loss](y * gamma_of_sample)))


def check_threshold_erm(loss, src, ts, x, y, res) -> list[str]:
    """Excess Bayes risk from the closed-form threshold masses, and the
    empirical risk of (gamma*, t*) summed over the samples."""
    out = []
    a, b, c, p, q = src
    t = res.q_star.t
    if t not in ts:
        out.append(f"t* {t!r} not in the threshold family")
    g = np.asarray(res.gamma_star, dtype=float)
    mu, pi = threshold_masses(a, b, c, p, q, ts)
    best = float(np.min(np.minimum(mu, pi).sum(axis=1)))
    (mu_t,), (pi_t,) = threshold_masses(a, b, c, p, q, [t])
    excess = float(np.sum(np.where(g > 0.0, pi_t, mu_t))) - best
    if not res.excess_bayes >= -EXACT_TOL:
        out.append(f"excess Bayes risk {res.excess_bayes!r} < 0")
    if not abs(res.excess_bayes - excess) <= EXACT_TOL:
        out.append(f"excess Bayes risk {res.excess_bayes!r} vs {excess!r}")
    emp = _empirical_risk(loss, y, g[(x >= t).astype(int)])
    if not abs(res.empirical_risk - emp) <= EXACT_TOL * (1.0 + abs(emp)):
        out.append(f"empirical risk {res.empirical_risk!r} vs {emp!r}")
    return out


def table_family_bayes(pos, neg, p, q, k) -> float:
    """Least Bayes risk over every deterministic routing of the bins to k
    letters."""
    nb = len(pos)
    assign = np.array(list(itertools.product(range(k), repeat=nb)))
    onehot = assign[:, :, None] == np.arange(k)[None, None, :]
    mu = p * np.einsum("x,axz->az", pos, onehot)
    pi = q * np.einsum("x,axz->az", neg, onehot)
    return float(np.min(np.minimum(mu, pi).sum(axis=1)))


def check_table_erm(loss, pos, neg, p, q, k, best, x, y, res) -> list[str]:
    """Excess Bayes risk against the exhaustive family optimum ``best``,
    empirical risk over the samples, and a nonincreasing objective trace."""
    out = []
    rows = np.asarray(res.q_star.rows)
    assign = np.argmax(rows, axis=1)
    g = np.asarray(res.gamma_star, dtype=float)
    mu = p * np.bincount(assign, weights=pos, minlength=k)
    pi = q * np.bincount(assign, weights=neg, minlength=k)
    excess = float(np.sum(np.where(g > 0.0, pi, mu))) - best
    if not res.excess_bayes >= -EXACT_TOL:
        out.append(f"excess Bayes risk {res.excess_bayes!r} < 0")
    if not abs(res.excess_bayes - excess) <= EXACT_TOL:
        out.append(f"excess Bayes risk {res.excess_bayes!r} vs {excess!r}")
    emp = _empirical_risk(loss, y, g[assign[x.astype(int)]])
    if not abs(res.empirical_risk - emp) <= EXACT_TOL * (1.0 + abs(emp)):
        out.append(f"empirical risk {res.empirical_risk!r} vs {emp!r}")
    rise = np.diff(np.asarray(res.objective_trace, dtype=float))
    if rise.size and not float(np.max(rise)) <= EXACT_TOL:
        out.append(f"objective trace rises by {float(np.max(rise)):.3e}")
    return out


def check_lemma2(src, t, gamma, ts, lhs, rhs) -> list[str]:
    """Both sides of the hinge excess-risk inequality (c = 2) from the
    closed-form masses, and lhs <= rhs."""
    out = []
    a, b, c, p, q = src
    mu, pi = threshold_masses(a, b, c, p, q, ts)
    (mu_t,), (pi_t,) = threshold_masses(a, b, c, p, q, [t])
    g = np.asarray(gamma, dtype=float)
    r01_star = float(np.min(np.minimum(mu, pi).sum(axis=1)))
    lhs_ref = float(np.sum(np.where(g > 0.0, pi_t, mu_t))) - r01_star
    rphi = float(np.sum(LOSS["hinge"](g) * mu_t + LOSS["hinge"](-g) * pi_t))
    rphi_star = float(np.min(2.0 * np.minimum(mu, pi).sum(axis=1)))
    rhs_ref = rphi - rphi_star
    if not abs(lhs - lhs_ref) <= 1e-9:
        out.append(f"lhs {lhs!r} vs {lhs_ref!r}")
    if not abs(rhs - rhs_ref) <= RESIDUAL_TOL:
        out.append(f"rhs {rhs!r} vs {rhs_ref!r}")
    if not lhs <= rhs + LEMMA2_TOL:
        out.append(f"lhs {lhs!r} > rhs {rhs!r}")
    return out


def check_dominance(src, t1, t2, rep) -> list[str]:
    """Bayes risks per prior and clipped divergences from the closed-form
    masses; both verdicts recomputed from them, and in agreement."""
    out = []
    a, b, c, p, q = src
    qs = np.asarray(rep.q_grid, dtype=float)
    for t, got in ((t1, rep.bayes_1), (t2, rep.bayes_2)):
        mu_q, pi_q = threshold_masses(a, b, c, 1.0 - qs, qs, t)
        ref = np.minimum(mu_q, pi_q).sum(axis=1)
        gap = float(np.max(np.abs(np.asarray(got) - ref)))
        if not gap <= EXACT_TOL:
            out.append(f"Bayes risk over priors off by {gap:.3e} at t={t!r}")
    cs = np.asarray(rep.c_grid, dtype=float)
    for t, got in ((t1, rep.div_1), (t2, rep.div_2)):
        p1 = np.array([t - a, c - t]) / (c - a)
        p_1 = np.array([t, b - t]) / b
        ref = -np.minimum(p1[None, :], cs[:, None] * p_1[None, :]).sum(axis=1)
        gap = float(np.max(np.abs(np.asarray(got) - ref)))
        if not gap <= EXACT_TOL:
            out.append(f"clipped divergences off by {gap:.3e} at t={t!r}")
    b1, b2 = np.asarray(rep.bayes_1), np.asarray(rep.bayes_2)
    d1, d2 = np.asarray(rep.div_1), np.asarray(rep.div_2)
    by_prior = (bool(np.all(b1 <= b2 + EXACT_TOL)),
                bool(np.all(b2 <= b1 + EXACT_TOL)))
    by_div = (bool(np.all(d1 >= d2 - EXACT_TOL)),
              bool(np.all(d2 >= d1 - EXACT_TOL)))
    if tuple(rep.dominance_by_prior) != by_prior:
        out.append(f"verdict by prior {rep.dominance_by_prior} vs {by_prior}")
    if tuple(rep.dominance_by_divergence) != by_div:
        out.append(f"verdict by divergence {rep.dominance_by_divergence} "
                   f"vs {by_div}")
    if by_prior != by_div:
        out.append(f"verdicts disagree: {by_prior} vs {by_div}")
    return out


def check_mismatch(wit) -> list[str]:
    """Witness thresholds are the variational and Hellinger optima on the
    witness source, they differ, and the Bayes gap between them is > 0."""
    out = []
    s = wit.src
    ts = np.asarray(wit.thresholds, dtype=float)
    mu, pi = threshold_masses(s.a, s.b, s.c, s.priors.p, s.priors.q, ts)
    bayes = np.minimum(mu, pi).sum(axis=1)
    k1 = int(np.argmin(bayes))
    k2 = int(np.argmin(np.sqrt(mu * pi).sum(axis=1)))
    if wit.t_opt_1 != ts[k1] or wit.t_opt_2 != ts[k2]:
        out.append(f"thresholds ({wit.t_opt_1!r}, {wit.t_opt_2!r}) vs "
                   f"({ts[k1]!r}, {ts[k2]!r})")
    if not wit.t_opt_1 != wit.t_opt_2:
        out.append("witness thresholds coincide")
    gap = float(bayes[k2] - bayes[k1])
    if not wit.bayes_gap > 0.0:
        out.append(f"Bayes gap {wit.bayes_gap!r} not positive")
    if not abs(wit.bayes_gap - gap) <= EXACT_TOL:
        out.append(f"Bayes gap {wit.bayes_gap!r} vs {gap!r}")
    return out
