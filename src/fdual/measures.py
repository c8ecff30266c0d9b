"""Finite-alphabet measures induced by quantizers, and divergences between them.

A quantizer maps a 1-D covariate into a finite alphabet Z.  Together with the
class priors it induces a pair of strictly positive sub-probability measures
(mu for label +1, pi for label -1) with mu.sum() == p and pi.sum() == q.
All divergence and risk computations downstream operate on such pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from ._csvfmt import row, text
from .errors import IncompatibleQuantizer, InfiniteValue, ZeroMassBin

MASS_TOL = 1e-12


@dataclass(frozen=True)
class Priors:
    """Class priors: p = P(Y=+1), q = P(Y=-1), with p + q == 1 exactly."""

    p: float
    q: float

    def __post_init__(self) -> None:
        if not (0.0 < self.p < 1.0):
            raise ValueError(f"p must lie in (0,1), got {self.p}")
        if self.p + self.q != 1.0:
            raise ValueError(f"p + q must equal 1 exactly, got {self.p + self.q!r}")

    @classmethod
    def from_q(cls, q: float) -> "Priors":
        # recompute until p + q == 1 bitwise (at most a couple of rounds)
        p = 1.0 - q
        for _ in range(3):
            if p + q == 1.0:
                return cls(p, q)
            q = 1.0 - p
            p = 1.0 - q
        raise ValueError(f"cannot represent priors exactly for q={q!r}")


def _frozen(values, name: str) -> np.ndarray:
    """Read-only float copy; a NaN would pass every comparison check."""
    arr = np.array(values, dtype=float)
    if np.isnan(arr).any():
        raise ValueError(f"{name} must not be NaN")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class JointMeasure:
    """Strictly positive measures mu, pi over a finite alphabet."""

    mu: np.ndarray
    pi: np.ndarray
    priors: Priors

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", _frozen(self.mu, "mu").reshape(-1))
        object.__setattr__(self, "pi", _frozen(self.pi, "pi").reshape(-1))
        if self.mu.shape != self.pi.shape or self.mu.size == 0:
            raise ValueError("mu and pi must be nonempty vectors of equal length")
        if np.any(self.mu <= 0.0) or np.any(self.pi <= 0.0):
            raise ZeroMassBin("every bin must carry strictly positive mass "
                              "under both labels")
        if abs(float(self.mu.sum()) - self.priors.p) > MASS_TOL:
            raise ValueError("mu must sum to the +1 prior")
        if abs(float(self.pi.sum()) - self.priors.q) > MASS_TOL:
            raise ValueError("pi must sum to the -1 prior")

    @property
    def z_count(self) -> int:
        return int(self.mu.size)

    def conditionals(self) -> tuple[np.ndarray, np.ndarray]:
        """Normalized class-conditional distributions (P(z|+1), P(z|-1))."""
        return self.mu / self.priors.p, self.pi / self.priors.q

    def swapped(self) -> "JointMeasure":
        """Measure with the roles of mu and pi exchanged."""
        return JointMeasure(self.pi, self.mu, Priors(self.priors.q, self.priors.p))

    def merge_bins(self, i: int, j: int) -> "JointMeasure":
        """Coarser measure with bins i and j pooled (a garbling of this one)."""
        if i == j:
            raise ValueError("need two distinct bins to merge")
        keep = [k for k in range(self.z_count) if k not in (i, j)]
        mu = np.append(self.mu[keep], self.mu[i] + self.mu[j])
        pi = np.append(self.pi[keep], self.pi[i] + self.pi[j])
        return JointMeasure(mu, pi, self.priors)

    def to_csv(self) -> str:
        return text("z,mu,pi", map(row, range(self.z_count), self.mu, self.pi))


@dataclass(frozen=True)
class ThresholdQuantizer:
    """Deterministic binary quantizer cutting the covariate axis at t.

    Bin 0 collects mass below t, bin 1 the mass at or above t (ties at
    x == t go to the upper bin).
    """

    t: float


@dataclass(frozen=True)
class TableQuantizer:
    """Stochastic quantizer: one probability row over Z per covariate bin."""

    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = _frozen(self.rows, "table rows")
        if rows.ndim != 2:
            raise ValueError("rows must be a (n_bins, z_count) matrix")
        if np.any(rows < 0.0):
            raise ValueError("table rows must be nonnegative")
        if np.any(np.abs(rows.sum(axis=1) - 1.0) > MASS_TOL):
            raise ValueError("every table row must sum to 1")
        object.__setattr__(self, "rows", rows)

    @property
    def n_bins(self) -> int:
        return int(self.rows.shape[0])

    @property
    def z_count(self) -> int:
        return int(self.rows.shape[1])


Quantizer = Union[ThresholdQuantizer, TableQuantizer]


@dataclass(frozen=True)
class UniformPairSource:
    """X | Y=-1 ~ Uniform[0, b] and X | Y=+1 ~ Uniform[a, c], with 0 < a < b < c."""

    a: float
    b: float
    c: float
    priors: Priors

    def __post_init__(self) -> None:
        if not (0.0 < self.a < self.b < self.c):
            raise ValueError("need 0 < a < b < c")


@dataclass(frozen=True)
class BinnedSource:
    """Pre-binned covariate with per-bin class-conditional masses."""

    pos_masses: np.ndarray
    neg_masses: np.ndarray
    priors: Priors

    def __post_init__(self) -> None:
        pos = _frozen(self.pos_masses, "pos_masses").reshape(-1)
        neg = _frozen(self.neg_masses, "neg_masses").reshape(-1)
        if pos.shape != neg.shape or pos.size == 0:
            raise ValueError("class masses must be nonempty and of equal length")
        for name, arr in (("pos_masses", pos), ("neg_masses", neg)):
            if np.any(arr < 0.0):
                raise ValueError(f"{name} must be nonnegative")
            if abs(float(arr.sum()) - 1.0) > MASS_TOL:
                raise ValueError(f"{name} must sum to 1")
        object.__setattr__(self, "pos_masses", pos)
        object.__setattr__(self, "neg_masses", neg)

    @property
    def n_bins(self) -> int:
        return int(self.pos_masses.size)


SourceSpec = Union[UniformPairSource, BinnedSource]


def _masses(src: SourceSpec, cut: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mass formulas at the source's priors: ``cut`` is a threshold
    column (uniform pair) or table rows (..., n_bins, z) (binned source)."""
    p, q_ = src.priors.p, src.priors.q
    if isinstance(src, UniformPairSource):
        a, b, c = src.a, src.b, src.c
        return (np.hstack([p * (cut - a) / (c - a), p * (c - cut) / (c - a)]),
                np.hstack([q_ * cut / b, q_ * (b - cut) / b]))
    return p * (src.pos_masses @ cut), q_ * (src.neg_masses @ cut)


# the one source kind each quantizer kind can route
_ROUTES = {
    ThresholdQuantizer: (UniformPairSource, "threshold quantizers apply only "
                         "to uniform-pair sources"),
    TableQuantizer: (BinnedSource, "table quantizers apply only to binned "
                     "sources"),
}


def _check_route(kind: type, src: SourceSpec) -> None:
    """Raise IncompatibleQuantizer unless quantizers of ``kind`` can route
    src."""
    source_kind, message = _ROUTES[kind]
    if not isinstance(src, source_kind):
        raise IncompatibleQuantizer(message)


def threshold_masses(src: SourceSpec, ts) -> tuple[np.ndarray, np.ndarray]:
    """Masses (mu, pi), each of shape (m, 2), that the thresholds ts induce
    on a uniform pair; bin 0 lies below t.  With p and q_ the priors:

        mu = (p*(t-a)/(c-a),  p*(c-t)/(c-a))
        pi = (q_*t/b,         q_*(b-t)/b)

    No positivity check: a threshold outside (a, b) gives a bin of zero or
    negative mass.  Raises IncompatibleQuantizer unless src is a uniform pair.
    """
    _check_route(ThresholdQuantizer, src)
    return _masses(src, np.asarray(ts, dtype=float).reshape(-1, 1))


def _routing(q: Quantizer, src: SourceSpec) -> np.ndarray:
    """The ``cut`` of ``_masses`` for q (its threshold, or its table rows);
    raises IncompatibleQuantizer unless q can route src."""
    if isinstance(q, ThresholdQuantizer):
        _check_route(ThresholdQuantizer, src)
        return np.array([q.t])
    if isinstance(q, TableQuantizer):
        _check_route(TableQuantizer, src)
        if q.n_bins != src.n_bins:
            raise IncompatibleQuantizer(
                f"table has {q.n_bins} rows but the source has {src.n_bins} bins")
        return q.rows
    raise IncompatibleQuantizer(f"unknown quantizer kind: {type(q).__name__}")


def quantizer_masses(q: Quantizer, src: SourceSpec
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Per-letter masses (mu, pi) that routing the source through q induces,
    as raw arrays (the closed form of ``threshold_masses`` for a threshold).

    No positivity check, so degenerate quantizers (letters with no mass) can
    still be scored.  Raises IncompatibleQuantizer on a quantizer/source kind
    mismatch or a table whose row count is not the source's bin count.
    """
    return _masses(src, _routing(q, src))


def induce_measures(q: Quantizer, src: SourceSpec) -> JointMeasure:
    """Joint measures (mu, pi) over Z induced by routing the source through q
    (``quantizer_masses``).

    Raises ZeroMassBin if any induced bin mass is not strictly positive, and
    IncompatibleQuantizer on a quantizer/source kind mismatch.
    """
    mu, pi = quantizer_masses(q, src)
    if isinstance(q, ThresholdQuantizer) and not (src.a < q.t < src.b):
        raise ZeroMassBin(f"threshold {q.t} outside ({src.a}, {src.b}) "
                          "empties a bin")
    return JointMeasure(mu, pi, src.priors)


def f_divergence(f: Callable[[np.ndarray], np.ndarray], m: JointMeasure) -> float:
    """sum_z pi(z) * f(mu(z)/pi(z)) for a convex generator f."""
    ratios = m.mu / m.pi
    vals = np.asarray(f(ratios), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise InfiniteValue("generator is +inf at some mass ratio")
    return float(np.sum(m.pi * vals))


def bayes_risk(m: JointMeasure) -> float:
    """Minimal 0-1 risk of any discriminant on Z: sum_z min(mu(z), pi(z))."""
    return float(np.minimum(m.mu, m.pi).sum())


def _kl(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sum(a * np.log(a / b)))


def named_divergence(name: str, m: JointMeasure) -> float:
    """Closed-form value of a classical divergence, coded independently of
    f_divergence so the two routes can cross-check each other."""
    mu, pi = m.mu, m.pi
    if name == "variational":
        return float(np.abs(mu - pi).sum())
    if name == "hellinger_term":
        # squared Hellinger distance h2 = 0.5 * sum (sqrt(mu) - sqrt(pi))^2
        return float(0.5 * np.sum((np.sqrt(mu) - np.sqrt(pi)) ** 2))
    if name == "triangular":
        return float(np.sum((mu - pi) ** 2 / (mu + pi)))
    if name == "capacitory":
        mid = 0.5 * (mu + pi)
        return _kl(mu, mid) + _kl(pi, mid)
    if name == "symmetric_kl":
        return _kl(mu, pi) + _kl(pi, mu)
    raise ValueError(f"unknown divergence name: {name!r}")


def random_measure(rng: np.random.Generator, z_count: int,
                   priors: Priors | None = None) -> JointMeasure:
    """Random strictly positive measure pair, entries bounded away from zero."""
    if priors is None:
        priors = Priors.from_q(float(rng.uniform(0.15, 0.85)))
    mu = rng.uniform(0.05, 1.0, z_count)
    pi = rng.uniform(0.05, 1.0, z_count)
    mu = priors.p * mu / mu.sum()
    pi = priors.q * pi / pi.sum()
    return JointMeasure(mu, pi, priors)
