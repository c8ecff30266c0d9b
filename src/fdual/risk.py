"""Risks of discriminants on the quantized alphabet and the optimal-risk
identity: minimizing the loss risk over discriminants equals the negative
f-divergence of the induced measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfiniteRisk, MismatchedPair
from .losses import SurrogateLoss, f_from_loss
from .measures import JointMeasure, bayes_risk, f_divergence
from .optimize import BRACKET, bisect_predicate, weighted_min

INF = math.inf


def phi_risk(phi: SurrogateLoss, gamma: np.ndarray, m: JointMeasure) -> float:
    """sum_z phi(gamma_z) mu_z + phi(-gamma_z) pi_z."""
    g = np.asarray(gamma, dtype=float)
    if g.shape != m.mu.shape:
        raise ValueError("discriminant length must match the alphabet size")
    with np.errstate(invalid="ignore"):
        terms = phi(g) * m.mu + phi(-g) * m.pi
    if not np.all(np.isfinite(terms)):
        raise InfiniteRisk("some per-bin risk term is not finite")
    return float(terms.sum())


def zero_one_risk(gamma: np.ndarray, m: JointMeasure) -> float:
    """Error probability of sign(gamma) with sign(0) = -1."""
    g = np.asarray(gamma, dtype=float)
    return float(np.sum(np.where(g > 0.0, m.pi, m.mu)))


def min_per_bin(phi: SurrogateLoss, mu: np.ndarray, pi: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Minimize phi(a)*mu_z + phi(-a)*pi_z independently per bin.

    ``weighted_min`` on the per-bin bracket [-b_z, b_z], b_z = BRACKET +
    |log(mu_z/pi_z)|.  Returns (argmins, values); on flat minimizer sets the
    argmin is golden-section's deterministic interior point.
    """
    mu = np.asarray(mu, dtype=float)
    pi = np.asarray(pi, dtype=float)
    ratio = np.where(pi > 0, mu / np.maximum(pi, 1e-300), INF)
    b = BRACKET + np.abs(np.log(np.maximum(ratio, 1e-300)))
    args, vals, _ = weighted_min(phi, mu, pi, b)
    return args, vals


def optimal_phi_risk(phi: SurrogateLoss,
                     m: JointMeasure) -> tuple[float, np.ndarray]:
    """Risk minimized over all discriminants, with the per-bin argmin vector.

    Tie rule (values are unaffected).  Take each bin's argmin ``a`` and
    value ``v`` from ``min_per_bin``; a point is on the plateau when the bin
    objective there is at most ``v + 1e-12 (1 + |v|)``.  If the probe
    ``a - 1e-6 (1 + |a|)`` is on the plateau, the bin reports the left end
    of the plateau: the step left of ``a`` doubles from 1 while its point
    stays on the plateau and the step is below ``2**20``, and the bracket is
    then bisected to 1e-12.  All bins take each stage in one masked pass.
    As it behaves:

    - on an interval of minimizers the smallest one is reported;
    - an unbounded plateau stops at the doubling cap, 2**20 to 2**21 left of
      ``a`` (zero_one with mu = (0.2, 0.3), pi = (0.4, 0.1) reports -2.1e6
      in bin 0);
    - the slack band also covers points beside a unique argmin of a
      strictly convex objective, which then moves left, by up to about
      3e-5 for logistic against log(mu/pi).
    """
    args, vals = min_per_bin(phi, m.mu, m.pi)
    total = float(vals.sum())
    limit = vals + 1e-12 * (1.0 + np.abs(vals))

    def within(sel):
        mu, pi, lim = m.mu[sel], m.pi[sel], limit[sel]
        return lambda x: phi(x) * mu + phi(-x) * pi <= lim

    tied = within(slice(None))(args - 1e-6 * (1.0 + np.abs(args)))
    if tied.any():
        on_plateau = within(tied)
        a = args[tied]
        lo = a - 1.0
        while True:
            grow = on_plateau(lo) & (a - lo < 2.0 ** 20)
            if not grow.any():
                break
            lo = np.where(grow, a - 2.0 * (a - lo), lo)
        args[tied] = bisect_predicate(on_plateau, lo, a, tol=1e-12)
    return total, args


def closed_form_discriminant(name: str, m: JointMeasure) -> np.ndarray:
    """Known optimal discriminants; sign ties resolve to -1."""
    mu, pi = m.mu, m.pi
    if name in ("zero_one", "hinge"):
        return np.where(mu - pi > 0.0, 1.0, -1.0)
    if name == "exponential":
        return 0.5 * np.log(mu / pi)
    if name == "least_squares":
        return (mu - pi) / (mu + pi)
    if name == "logistic":
        return np.log(mu / pi)
    raise ValueError(f"no closed-form discriminant for {name!r}")


@dataclass(frozen=True)
class RiskReport:
    """One verification of the optimal-risk identity on a measure pair."""

    loss_name: str
    generator_name: str
    phi_risk: float
    optimal_phi_risk: float
    bayes_risk_of_pair: float
    bayes_risk_of_q: float
    divergence_value: float
    correspondence_residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.correspondence_residual <= self.tol

    @staticmethod
    def csv_header() -> str:
        return "loss,divergence,R_phi_opt,I_f,residual,pass"

    def to_csv_row(self) -> str:
        return (f"{self.loss_name},{self.generator_name},"
                f"{self.optimal_phi_risk!r},{self.divergence_value!r},"
                f"{self.correspondence_residual!r},{str(self.passed).lower()}")


def verify_correspondence(phi: SurrogateLoss, f, m: JointMeasure,
                          tol: float = 1e-6,
                          precheck: bool = True) -> RiskReport:
    """Check optimal_phi_risk(phi, m) == -I_f(mu, pi) within tol.

    The caller promises f is the generator induced by phi; with
    ``precheck`` the promise is tested on a log-spaced ratio grid first and
    MismatchedPair raised on failure.  The default tol suits closed-form
    generators; pass 1e-4 when f came out of a numeric conjugate.
    """
    if precheck:
        us = np.geomspace(1e-2, 1e2, 21)
        gap = float(np.max(np.abs(f_from_loss(phi, us) - f(us))))
        if gap > tol:
            raise MismatchedPair(
                f"loss {phi.name} does not induce {getattr(f, 'name', 'f')}: "
                f"max gap {gap:.3e} on the ratio grid")
    r_opt, gamma = optimal_phi_risk(phi, m)
    div = f_divergence(f, m)
    return RiskReport(
        loss_name=phi.name,
        generator_name=getattr(f, "name", ""),
        phi_risk=phi_risk(phi, gamma, m),
        optimal_phi_risk=r_opt,
        bayes_risk_of_pair=zero_one_risk(gamma, m),
        bayes_risk_of_q=bayes_risk(m),
        divergence_value=div,
        correspondence_residual=abs(r_opt + div),
        tol=tol,
    )
