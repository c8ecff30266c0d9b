"""Risks of discriminants on the quantized alphabet and the optimal-risk
identity: minimizing the loss risk over discriminants equals the negative
f-divergence of the induced measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csvfmt import row
from .errors import InfiniteRisk, MismatchedPair
from .losses import SurrogateLoss, f_from_loss
from .measures import JointMeasure, bayes_risk, f_divergence
from .optimize import (BRACKET, phi_pair, sublevel_end, weighted_min,
                       zero_safe)

INF = math.inf


def phi_risk(phi: SurrogateLoss, gamma: np.ndarray, m: JointMeasure) -> float:
    """sum_z phi(gamma_z) mu_z + phi(-gamma_z) pi_z."""
    g = np.asarray(gamma, dtype=float)
    if g.shape != m.mu.shape:
        raise ValueError("discriminant length must match the alphabet size")
    return _weighted_risk(phi, g, m.mu, m.pi)


def _weighted_risk(phi, g, w_pos, w_neg) -> float:
    """sum phi(g) w_pos + phi(-g) w_neg by ``phi.__call__`` (each closed
    form's own limits at +-inf: a -inf zero_one or eq10 discriminant scores
    finitely, a -inf hinge one does not); InfiniteRisk unless every term is
    finite."""
    with np.errstate(invalid="ignore"):
        pos, neg = phi_pair(phi, g)
        terms = pos * w_pos + neg * w_neg
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
    |log(mu_z/pi_z)| with the ratio clipped to [1e-300, 1e300] (a bin with
    one zero mass gets its mirror bin's bracket; a non-convex loss is scanned
    on the lattice of step 2**-8 where 32 < b_z <= 64).
    Returns (argmins, values); a flat minimizer set's argmin is the point
    where ``bracket_min`` ends, the set's right end where its values are
    exactly equal.
    """
    mu, pi = np.asarray(mu, dtype=float), np.asarray(pi, dtype=float)
    ratio = np.where(pi > 0, mu / np.maximum(pi, 1e-300), INF)
    b = BRACKET + np.abs(np.log(np.clip(ratio, 1e-300, 1e300)))
    return weighted_min(phi, mu, pi, b)[:2]


@np.errstate(all="ignore")  # the tie rule's one guard
def optimal_phi_risk(phi: SurrogateLoss,
                     m: JointMeasure) -> tuple[float, np.ndarray]:
    """Risk minimized over all discriminants, with the per-bin argmin vector.

    Tie rule (values are unaffected).  Take each bin's argmin ``a`` and
    value ``v`` from ``min_per_bin``; a point is on the plateau when the bin
    objective there is at most ``v + 1e-12 (1 + |v|)``.  If the probe
    ``a - 1e-6 (1 + |a|)`` is on the plateau, the bin reports the left end
    of the plateau by one ``sublevel_end`` stack from ``a`` leftward: the
    first of ``a - 1, a - 2, a - 4, ...`` off it and ``a`` bound a search to
    1e-12; each evaluation is one ``phi.fn`` call, a zero-mass term counting
    0 (also times an infinite loss).  The rule skips the bins with mu_z,
    pi_z > 0 of a ``strictly_convex`` loss (one minimizer).  As it behaves:

    - on an interval of minimizers the smallest one is reported;
    - a plateau still held ``SUBLEVEL_CAP`` (2**40) left of ``a`` has no
      left end and reports -inf (zero_one with mu = (0.2, 0.3), pi = (0.4,
      0.1) in bin 0, where every a < 0 is a minimizer; zero_one(-inf) = 1,
      so ``phi_risk`` scores it finitely);
    - where the rule runs, its slack band also covers points beside a
      unique argmin, which then moves left.
    """
    args, vals = min_per_bin(phi, m.mu, m.pi)
    limit = vals + 1e-12 * (1.0 + np.abs(vals))
    fn = getattr(phi, "fn", phi)  # on finite points, as in weighted_min

    def plateau(sel):  # the test of the bins in sel, on (..., sel.sum())
        mu, pi, lim = m.mu[sel], m.pi[sel], limit[sel]
        return lambda x: zero_safe(*phi_pair(fn, x), mu, pi) <= lim

    tied = ~(phi.strictly_convex & (m.mu > 0.0) & (m.pi > 0.0))
    if tied.any():
        a = args[tied]
        tied[tied] = plateau(tied)(a - 1e-6 * (1.0 + np.abs(a)))
    if tied.any():
        args[tied] = sublevel_end(plateau(tied), args[tied], -1.0)
    return float(vals.sum()), args


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
        return row(self.loss_name, self.generator_name, self.optimal_phi_risk,
                   self.divergence_value, self.correspondence_residual,
                   self.passed)


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
