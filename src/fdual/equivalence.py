"""Equivalence structure on divergence generators.

Two generators order quantizers identically for every source exactly when
they are affine transforms of each other with a positive leading
coefficient.  This module fits that affine relation, tests membership in
the -c*min(u,1)+a*u+b family (the generators whose losses give joint
discriminant/quantizer consistency), checks the symmetry property that
characterizes loss-realizability, classifies 1-coercive generators (whose
losses are unbounded below), and runs the two-sided Blackwell dominance
comparison between quantizers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._csvfmt import row, text
from .duality import _locate_beta1
from .errors import DegenerateFit
from .measures import Quantizer, SourceSpec, induce_measures

# 201 log-spaced points on [1e-2, 1e2]; the kink of min(u,1) at u=1 is
# exactly on the grid
FIT_GRID = np.geomspace(1e-2, 1e2, 201)
FIT_GRID.flags.writeable = False


@dataclass(frozen=True)
class EquivalenceReport:
    """Fitted affine relation f1 ~= c*f2 + a*u + b on the grid."""

    c: float
    a: float
    b: float
    residual: float
    verdict: bool
    tol: float


def affine_fit(f1, f2, tol: float = 1e-6) -> EquivalenceReport:
    """Least-squares fit of f1 against (f2, u, 1) on FIT_GRID with
    max-error residual.

    Verdict is true when the fit is tight and the leading coefficient is
    positive.  Raises DegenerateFit when f2 is affine on the grid (the
    normal equations become singular).
    """
    us = FIT_GRID
    y = np.asarray(f1(us), dtype=float)
    cols = np.column_stack([np.asarray(f2(us), dtype=float), us,
                            np.ones_like(us)])
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(cols))):
        raise ValueError("generators must be finite on the fit grid")
    norms = np.linalg.norm(cols, axis=0)
    scaled = cols / norms
    gram = scaled.T @ scaled
    if abs(float(np.linalg.det(gram))) < 1e-12:
        raise DegenerateFit("reference generator is affine on the grid")
    coef_scaled = np.linalg.solve(gram, scaled.T @ y)
    coef = coef_scaled / norms
    resid = float(np.max(np.abs(y - cols @ coef)))
    c, a, b = (float(x) for x in coef)
    return EquivalenceReport(c=c, a=a, b=b, residual=resid,
                             verdict=bool(resid <= tol and c > 0.0), tol=tol)


def _neg_min_u1(u):
    return -np.minimum(np.asarray(u, dtype=float), 1.0)


def variational_family_check(f, tol: float = 1e-6) -> EquivalenceReport:
    """Membership test for f(u) = -c*min(u,1) + a*u + b with c > 0."""
    return affine_fit(f, _neg_min_u1, tol=tol)


def symmetry_check(f) -> bool:
    """f(u) == u*f(1/u) within 1e-9 on FIT_GRID: the divergence treats its
    two arguments symmetrically, hence is realizable by a margin loss."""
    us = FIT_GRID
    gap = np.abs(np.asarray(f(us), dtype=float)
                 - us * np.asarray(f(1.0 / us), dtype=float))
    return bool(np.max(gap) <= 1e-9)


def coercivity_check(f) -> bool:
    """True for the 1-coercive generators, whose recession slope
    lim f(u)/u is +inf (beta1 = -inf: Psi is finite on the whole line) and
    whose realizing losses are unbounded below."""
    return _locate_beta1(f) == -np.inf


@dataclass(frozen=True)
class DominanceReport:
    """Blackwell comparison of two quantizers on a common source.

    Condition (a): Bayes risks at every prior in q_grid; condition (b):
    divergences of the class-conditionals under -min(u, c) for every c in
    c_grid.  The grids hold both quantizers' kinks and the ends, so each
    verdict (slack 1e-12) holds for every prior and c; the two must agree.
    """

    q_grid: np.ndarray
    bayes_1: np.ndarray
    bayes_2: np.ndarray
    c_grid: np.ndarray
    div_1: np.ndarray
    div_2: np.ndarray
    dominance_by_prior: tuple[bool, bool]
    dominance_by_divergence: tuple[bool, bool]

    @property
    def agreement(self) -> bool:
        return self.dominance_by_prior == self.dominance_by_divergence

    def to_csv(self) -> str:
        return text("criterion,point,value_q1,value_q2", [
            *(row("bayes_at_prior", *v)
              for v in zip(self.q_grid, self.bayes_1, self.bayes_2)),
            *(row("divergence_at_c", *v)
              for v in zip(self.c_grid, self.div_1, self.div_2))])


def _kinks(ratios, end: float) -> np.ndarray:
    """Sorted read-only union of the ends 0, end and every ratio."""
    grid = np.array(sorted({0.0, end}.union(*(r.tolist() for r in ratios))))
    grid.flags.writeable = False
    return grid


def dominance_check(q1: Quantizer, q2: Quantizer,
                    src: SourceSpec) -> DominanceReport:
    """Decide both sides of the Blackwell dominance equivalence exactly.

    With (P1, P0) a quantizer's class-conditionals, the Bayes risk
    sum_z min((1-q) P1_z, q P0_z) kinks only at q_z = P1_z / (P1_z + P0_z)
    and the clipped divergence -sum_z min(P1_z, c P0_z) only at
    c_z = P1_z / P0_z (DeGroot 1962): two such curves compared at the union
    of their kinks and the ends are compared everywhere.  Both induced
    measures are built first, so a quantizer that empties a bin raises
    ZeroMassBin and every ratio is finite and positive.
    """
    conds = [induce_measures(q, src).conditionals() for q in (q1, q2)]
    q_grid = _kinks([p1 / (p1 + p0) for p1, p0 in conds], 1.0)
    c_grid = _kinks([p1 / p0 for p1, p0 in conds], np.inf)
    qs, cs = q_grid[:, None], c_grid[:, None]
    b1, b2 = (np.minimum((1.0 - qs) * p1, qs * p0).sum(axis=1)
              for p1, p0 in conds)
    d1, d2 = (-np.minimum(p1, cs * p0).sum(axis=1) for p1, p0 in conds)
    eps = 1e-12
    dom_a = (bool(np.all(b1 <= b2 + eps)), bool(np.all(b2 <= b1 + eps)))
    dom_b = (bool(np.all(d1 >= d2 - eps)), bool(np.all(d2 >= d1 - eps)))
    return DominanceReport(q_grid=q_grid, bayes_1=b1, bayes_2=b2,
                           c_grid=c_grid, div_1=d1, div_2=d2,
                           dominance_by_prior=dom_a,
                           dominance_by_divergence=dom_b)
