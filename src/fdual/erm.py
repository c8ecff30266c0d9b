"""Joint empirical risk minimization over discriminants and quantizers.

Synthetic sources follow the two-uniform family (negatives on [0, b],
positives on [a, c], 0 < a < b < c) quantized by a threshold, or a
pre-binned covariate quantized by a stochastic table.  ERM minimizes

    (1/n) sum_i sum_z phi(y_i gamma(z)) Q(z | x_i)

exhaustively over a threshold grid (exact) or by alternating minimization
over table rows (each row step is exact because the objective is linear per
row).  Population quantities for excess-risk evaluation come from the
induced-measure closed forms, never from the samples.
"""

from __future__ import annotations

import itertools
import math
import numbers
import time
from dataclasses import astuple, dataclass, field

import numpy as np

from ._csvfmt import row, text
from .equivalence import variational_family_check
from .errors import (EmptySample, IncompatibleQuantizer, NonConvexLoss,
                     NotVariationalFamily, NoWitnessFound, ZeroMassBin)
from .losses import SurrogateLoss, induced_generator
from .measures import (BinnedSource, Priors, Quantizer, SourceSpec,
                       TableQuantizer, ThresholdQuantizer, UniformPairSource,
                       _check_route, _frozen, _masses, _routing,
                       induce_measures, quantizer_masses, threshold_masses)
from .optimize import phi_pair, weighted_min
from .risk import _weighted_risk, min_per_bin, phi_risk, zero_one_risk


@dataclass(frozen=True)
class SampleSet:
    """Labeled draws from a source; bit-reproducible from (src, n, seed)."""

    x: np.ndarray
    y: np.ndarray
    seed: object
    src: SourceSpec

    @property
    def n(self) -> int:
        return int(self.x.size)


def generate_samples(src: SourceSpec, n: int, seed) -> SampleSet:
    """Draw n labeled covariates: labels first, then one position uniform
    per sample, so the stream is independent of the class split.

    The generator is numpy's default PCG64; ``seed`` may be an int or a
    tuple (replicate streams use tuples).
    """
    if n < 1:
        raise EmptySample("need at least one sample")
    rng = np.random.default_rng(seed)
    y = 1 - 2 * (rng.random(n) < src.priors.q).view(np.int8)  # -1 or 1
    u = rng.random(n)
    if isinstance(src, UniformPairSource):
        x = np.where(y < 0, u * src.b, src.a + u * (src.c - src.a))
    elif isinstance(src, BinnedSource):
        cum_pos = np.cumsum(src.pos_masses)
        cum_neg = np.cumsum(src.neg_masses)
        x_pos = np.searchsorted(cum_pos, u, side="right")
        x_neg = np.searchsorted(cum_neg, u, side="right")
        nb = src.n_bins
        x = np.clip(np.where(y < 0, x_neg, x_pos), 0, nb - 1).astype(float)
    else:
        raise IncompatibleQuantizer(f"unknown source kind: {type(src).__name__}")
    x.flags.writeable = False
    y.flags.writeable = False
    return SampleSet(x=x, y=y, seed=seed, src=src)


@dataclass(frozen=True)
class FunctionClassSpec:
    """Bounded per-bin discriminants plus a finite quantizer family.

    Exactly one of ``thresholds`` (threshold family on the covariate axis)
    or ``table_bins`` (alphabet size for stochastic tables) must be set.
    """

    gamma_bound: float
    thresholds: np.ndarray | None = None
    table_bins: int | None = None

    def __post_init__(self) -> None:
        if not self.gamma_bound > 0:
            raise ValueError("gamma_bound must be positive")
        if (self.thresholds is None) == (self.table_bins is None):
            raise ValueError("set exactly one of thresholds / table_bins")
        if self.thresholds is not None:
            ts = _frozen(self.thresholds, "thresholds")
            if ts.size == 0 or np.any(np.diff(ts) <= 0):
                raise ValueError("thresholds must be strictly increasing")
            object.__setattr__(self, "thresholds", ts)
        else:
            nb = self.table_bins
            if (isinstance(nb, bool) or not isinstance(nb, numbers.Integral)
                    or nb < 2):
                raise ValueError("table_bins must be an integer >= 2")
            object.__setattr__(self, "table_bins", int(nb))

    def loss_bound(self, phi: SurrogateLoss) -> float:
        """Envelope of |phi| over the admissible margins (must be finite)."""
        b = self.gamma_bound
        return float(max(abs(phi(b)), abs(phi(-b))))


def threshold_grid(src: UniformPairSource, n_points: int) -> np.ndarray:
    """n_points thresholds strictly inside (a, b)."""
    return np.linspace(src.a, src.b, n_points + 2)[1:-1]


def _threshold_weights(s: SampleSet, thresholds: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Empirical per-bin weights (w_pos, w_neg), shape (m, 2), for every
    threshold: bin 0 is x < t, bin 1 is x >= t."""
    n = s.n
    xp = np.sort(np.compress(s.y > 0, s.x))  # a mask costs branch misses
    xn = np.sort(np.compress(s.y < 0, s.x))
    below_p = np.searchsorted(xp, thresholds, side="left")
    below_n = np.searchsorted(xn, thresholds, side="left")
    w_pos = np.column_stack([below_p, xp.size - below_p]) / n
    w_neg = np.column_stack([below_n, xn.size - below_n]) / n
    return w_pos, w_neg


def _table_counts(s: SampleSet, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    xi = s.x.astype(int)
    c_pos = np.bincount(xi[s.y > 0], minlength=n_bins).astype(float)
    c_neg = np.bincount(xi[s.y < 0], minlength=n_bins).astype(float)
    return c_pos, c_neg


def _empirical_weights(q: Quantizer, s: SampleSet
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Per-letter sample weights (w_pos, w_neg) of q, which must fit the
    source (``_routing``)."""
    cut = _routing(q, s.src)
    if isinstance(q, ThresholdQuantizer):
        w_pos, w_neg = _threshold_weights(s, cut)
        return w_pos[0], w_neg[0]
    c_pos, c_neg = _table_counts(s, q.n_bins)
    return c_pos @ cut / s.n, c_neg @ cut / s.n


def empirical_phi_risk(phi: SurrogateLoss, gamma: np.ndarray, q: Quantizer,
                       s: SampleSet) -> float:
    """(1/n) sum_i sum_z phi(y_i gamma(z)) Q(z | x_i), raising as phi_risk."""
    g = np.asarray(gamma, dtype=float)
    w_pos, w_neg = _empirical_weights(q, s)
    if g.size != w_pos.size:
        raise ValueError("discriminant length must match the alphabet")
    return _weighted_risk(phi, g, w_pos, w_neg)


def _gamma_step(phi: SurrogateLoss, w_pos: np.ndarray, w_neg: np.ndarray,
                bound: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin minimization of the empirical objective over [-B, B]
    (``weighted_min``); bins with no mass get gamma = 0 (predicts the
    negative class)."""
    gam, val, _ = weighted_min(phi, w_pos, w_neg, bound)
    empty = (w_pos + w_neg) == 0.0
    return np.where(empty, 0.0, gam), np.where(empty, 0.0, val)


@dataclass(frozen=True)
class ErmResult:
    gamma_star: np.ndarray
    q_star: Quantizer
    empirical_risk: float
    population_phi_risk: float
    excess_bayes: float
    objective_trace: tuple[float, ...] = field(default_factory=tuple)

    @property
    def t_selected(self) -> float:
        if isinstance(self.q_star, ThresholdQuantizer):
            return self.q_star.t
        return float("nan")


def joint_erm(phi: SurrogateLoss, s: SampleSet,
              fc: FunctionClassSpec) -> ErmResult:
    """Minimize the empirical objective jointly over (gamma, Q).

    Threshold families are swept exhaustively (exact over the family, ties
    to the smallest threshold): the smallest threshold whose total is within
    ``1e-9 (1 + |least total|)`` of the least wins, so that search noise
    between equal empirical risks picks nothing.  The slack assumes n well
    below 1e9, where distinct empirical risks differ by more than it.  Table
    families alternate exact gamma-steps with exact per-row quantizer steps
    until the decrease drops below 1e-10 (at most 100 rounds); the objective
    trace is recorded.
    """
    if not phi.convex:
        raise NonConvexLoss(f"{phi.name} is not convex; ERM requires a "
                            "convex calibrated loss")
    if not math.isfinite(fc.loss_bound(phi)):
        raise NonConvexLoss("loss envelope is not finite on [-B, B]")
    if fc.thresholds is not None:
        return _erm_thresholds(phi, s, fc)
    return _erm_table(phi, s, fc)


def _erm_thresholds(phi: SurrogateLoss, s: SampleSet,
                    fc: FunctionClassSpec) -> ErmResult:
    _check_route(ThresholdQuantizer, s.src)
    ts = fc.thresholds
    w_pos, w_neg = _threshold_weights(s, ts)
    gam, val = _gamma_step(phi, w_pos.ravel(), w_neg.ravel(), fc.gamma_bound)
    totals = val.reshape(w_pos.shape).sum(axis=1)
    low = totals.min()
    # the first (smallest) threshold within the slack of the least total:
    # equal empirical risks differ by search noise, about 1e-11
    k = int(np.argmax(totals <= low + 1e-9 * (1.0 + abs(low))))
    return _erm_result(phi, gam.reshape(w_pos.shape)[k].copy(),
                       ThresholdQuantizer(float(ts[k])), float(totals[k]),
                       s.src, fc)


def _erm_table(phi: SurrogateLoss, s: SampleSet,
               fc: FunctionClassSpec) -> ErmResult:
    _check_route(TableQuantizer, s.src)
    k, nb = fc.table_bins, s.src.n_bins
    c_pos, c_neg = _table_counts(s, nb)
    n = s.n
    assign = np.arange(nb) % k  # deterministic start: round-robin routing
    trace: list[float] = []
    while True:
        rows = np.eye(k)[assign]
        gamma, vals = _gamma_step(phi, c_pos @ rows / n, c_neg @ rows / n,
                                  fc.gamma_bound)
        if len(trace) == 100 or (len(trace) > 1
                                 and trace[-2] - trace[-1] < 1e-10):
            break
        # exact row step: the objective is linear in each row, so each bin
        # routes to its cheapest letter (lowest index on ties)
        pos, neg = phi_pair(phi, gamma)
        cost = (np.outer(c_pos, pos) + np.outer(c_neg, neg)) / n
        assign = np.argmin(cost, axis=1)
        trace.append(float(cost[np.arange(nb), assign].sum()))
    return _erm_result(phi, gamma, TableQuantizer(rows), float(vals.sum()),
                       s.src, fc, tuple(trace))


def _erm_result(phi: SurrogateLoss, gamma: np.ndarray, q: Quantizer,
                empirical: float, src: SourceSpec, fc: FunctionClassSpec,
                trace: tuple[float, ...] = ()) -> ErmResult:
    """The ERM output, scored on one read of the population masses."""
    mu, pi = quantizer_masses(q, src)
    return ErmResult(gamma, q, empirical, _weighted_risk(phi, gamma, mu, pi),
                     _excess_bayes(gamma, mu, pi, src, fc), trace)


def _interior_masses(src: SourceSpec, ts: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """``threshold_masses``; ZeroMassBin for a threshold outside (a, b)."""
    mu, pi = threshold_masses(src, ts)
    if np.any(mu <= 0.0) or np.any(pi <= 0.0):
        raise ZeroMassBin("a threshold outside (a, b) empties a bin")
    return mu, pi


def optimal_family_bayes(fc: FunctionClassSpec, src: SourceSpec) -> float:
    """Least Bayes risk over the quantizer family (per-bin Bayes rule); a
    table family is one stack of one-hot routings, (k**n_bins, n_bins, k)."""
    if fc.thresholds is not None:
        mu, pi = _interior_masses(src, fc.thresholds)
    else:
        _check_route(TableQuantizer, src)
        k, nb = fc.table_bins, src.n_bins
        if k ** nb > 100_000:
            raise ValueError("table family too large to sweep exhaustively")
        rows = np.eye(k)[list(itertools.product(range(k), repeat=nb))]
        mu, pi = _masses(src, rows)
    return float(np.minimum(mu, pi).sum(axis=1).min())


def _excess_bayes(gamma: np.ndarray, mu: np.ndarray, pi: np.ndarray,
                  src: SourceSpec, fc: FunctionClassSpec) -> float:
    pair_risk = float(np.sum(np.where(np.asarray(gamma) > 0.0, pi, mu)))
    return pair_risk - optimal_family_bayes(fc, src)


def excess_bayes_risk(r: ErmResult, src: SourceSpec,
                      fc: FunctionClassSpec) -> float:
    """Population 0-1 regret of an ERM output against the best
    quantizer-family Bayes risk."""
    return _excess_bayes(r.gamma_star, *quantizer_masses(r.q_star, src),
                         src, fc)


# --- excess-risk inequality ---------------------------------------------------

def lemma2_gap(phi: SurrogateLoss, gamma: np.ndarray, q: ThresholdQuantizer,
               src: UniformPairSource, family_fit=None) -> tuple[float, float]:
    """Both sides of the excess-risk inequality

        (c/2) * [R01(gamma, Q) - R01*]  <=  Rphi(gamma, Q) - Rphi*

    for a loss in the -c*min(u,1)+a*u+b family with a = b.  The starred
    quantities sweep the 101-point ``threshold_grid`` of src and Q itself;
    each side is computed by its own route.  Raises NotVariationalFamily
    when the induced generator is outside the family or a != b.
    """
    fit = family_fit
    if fit is None:
        fit = variational_family_check(induced_generator(phi), tol=1e-6)
    if not fit.verdict:
        raise NotVariationalFamily(
            f"{phi.name} induces a generator outside the clipped-linear "
            f"family (residual {fit.residual:.3e})")
    if abs(fit.a - fit.b) > 1e-6:
        raise NotVariationalFamily(
            "the inequality is exercised only for a = b "
            f"(got a={fit.a:.3e}, b={fit.b:.3e})")
    mu, pi = _interior_masses(
        src, np.unique(np.append(threshold_grid(src, 101), q.t)))
    r01_star = float(np.minimum(mu, pi).sum(axis=1).min())
    m_q = induce_measures(q, src)
    lhs = 0.5 * fit.c * (zero_one_risk(gamma, m_q) - r01_star)
    _, vals = min_per_bin(phi, mu.ravel(), pi.ravel())
    rphi_star = float(vals.reshape(mu.shape).sum(axis=1).min())
    rhs = phi_risk(phi, gamma, m_q) - rphi_star
    return float(lhs), float(rhs)


# --- experiments --------------------------------------------------------------

@dataclass(frozen=True)
class ConsistencyRow:
    loss: str
    n: int
    seed: int
    excess_bayes: float
    t_selected: float
    runtime_ms: float


@dataclass(frozen=True)
class ConsistencyTable:
    rows: tuple[ConsistencyRow, ...]

    def median_excess(self, loss: str, n: int) -> float:
        vals = [r.excess_bayes for r in self.rows
                if r.loss == loss and r.n == n]
        return float(np.median(vals))

    def to_csv(self, include_runtime: bool = False) -> str:
        k = 6 if include_runtime else 5  # runtime_ms, the last field
        head = "loss,n,seed,excess_bayes,t_selected,runtime_ms".split(",")
        return text(row(*head[:k]), (row(*astuple(r)[:k]) for r in self.rows))

    def summary_csv(self) -> str:
        keys = dict.fromkeys((r.loss, r.n) for r in self.rows)  # in order
        return text("loss,n,median_excess_bayes",
                    (row(*key, self.median_excess(*key)) for key in keys))


def consistency_sweep(losses_list: list[SurrogateLoss], n_list: list[int],
                      seeds: list[int], src: SourceSpec,
                      fc: FunctionClassSpec) -> ConsistencyTable:
    """ERM replicates over sample sizes and seeds.

    Each replicate draws from its own stream (seed, n), so rows are
    reproducible independently of execution order.
    """
    rows = []
    for phi in losses_list:
        for n in n_list:
            for seed in seeds:
                t0 = time.perf_counter()
                s = generate_samples(src, n, (seed, n))
                res = joint_erm(phi, s, fc)
                ms = (time.perf_counter() - t0) * 1e3
                rows.append(ConsistencyRow(
                    loss=phi.name, n=n, seed=seed,
                    excess_bayes=res.excess_bayes,
                    t_selected=res.t_selected, runtime_ms=ms))
    return ConsistencyTable(tuple(rows))


# --- divergence-objective mismatch witness ------------------------------------

@dataclass(frozen=True)
class MismatchWitness:
    """Source where two divergence objectives pick different thresholds."""

    src: UniformPairSource
    thresholds: np.ndarray
    risk_1: np.ndarray
    risk_2: np.ndarray
    bayes: np.ndarray
    t_opt_1: float
    t_opt_2: float
    bayes_gap: float

    def to_csv(self) -> str:
        return text("t,risk_f1,risk_f2,bayes", map(
            row, self.thresholds, self.risk_1, self.risk_2, self.bayes))


def default_mismatch_grid() -> list[UniformPairSource]:
    sources = []
    for a in (0.5, 1.0, 1.5):
        for db in (0.5, 1.0):
            for dc in (1.0, 2.0):
                for q in (0.3, 0.5, 0.7):
                    b = a + db
                    c = b + dc
                    sources.append(UniformPairSource(a, b, c, Priors.from_q(q)))
    return sources


def quantizer_mismatch(f1, f2) -> MismatchWitness:
    """Search the sources of ``default_mismatch_grid`` for a witness where
    the f1- and f2-optimal thresholds (101 per source) differ; among
    witnesses return the one with the largest Bayes-risk gap between the two
    selections.

    Raises NoWitnessFound when every searched source orders thresholds
    identically (expected for universally equivalent generators).
    """
    best: MismatchWitness | None = None
    for src in default_mismatch_grid():
        ts = threshold_grid(src, 101)
        mu, pi = threshold_masses(src, ts)
        ratios = mu / pi
        i1 = (pi * np.asarray(f1(ratios), dtype=float)).sum(axis=1)
        i2 = (pi * np.asarray(f2(ratios), dtype=float)).sum(axis=1)
        k1 = int(np.argmax(i1))
        k2 = int(np.argmax(i2))
        if k1 == k2:
            continue
        # a genuine witness separates the two choices by more than float
        # noise; near-ties from rounding are not disagreements
        tol1 = 1e-9 * (1.0 + float(np.max(np.abs(i1))))
        tol2 = 1e-9 * (1.0 + float(np.max(np.abs(i2))))
        if i1[k1] - i1[k2] <= tol1 or i2[k2] - i2[k1] <= tol2:
            continue
        bayes = np.minimum(mu, pi).sum(axis=1)
        gap = float(bayes[k2] - bayes[k1])
        wit = MismatchWitness(src=src, thresholds=ts, risk_1=-i1, risk_2=-i2,
                              bayes=bayes, t_opt_1=float(ts[k1]),
                              t_opt_2=float(ts[k2]), bayes_gap=gap)
        if best is None or wit.bayes_gap > best.bayes_gap:
            best = wit
    if best is None:
        raise NoWitnessFound("no source in the searched family separates "
                             "the two objectives")
    return best
