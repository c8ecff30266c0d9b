"""Convex conjugation and the bridge function Psi.

A divergence generator f (convex, lower semicontinuous, +inf below 0) is
linked to margin losses through Psi(beta) = f*(-beta), where f* is the
Legendre transform.  This module computes f* and Psi either from analytic
closed forms attached to a generator or by numeric supremum over an adaptive
grid; Psi and the conjugates evaluate a whole array in one batched scan (a
blocked discrete Legendre transform, cf. Lucet 1997).  It also locates the
domain bounds beta1/beta2 and the fixed point u* of Psi, checks the
decreasing/involution/fixed-point conditions that characterize
loss-realizable divergences, and rebuilds Psi directly from a loss through
the sublevel-set inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import GridTooNarrow, NoFixedPoint
from .optimize import bisect_predicate, bisect_root

INF = math.inf

_PROBE_CAP = 2.0 ** 40  # beyond this a bound is reported as +/- inf
_WIDEN_CAP = 1e9
_BLOCK = 1 << 16  # elements per block of a batched grid scan
_ZOOM_ROUNDS, _ZOOM_PTS = 11, 33  # each round shrinks the bracket 16-fold


def _as_float_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


@dataclass(frozen=True)
class Generator:
    """Convex function on [0, inf) defining an f-divergence.

    ``fn`` must accept numpy arrays.  Evaluation below 0 returns +inf when
    ``halfline`` is set (the divergence convention); conjugates returned by
    :func:`conjugate` live on the whole line and clear the flag.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    name: str = ""
    halfline: bool = True
    conjugate_fn: Callable[[np.ndarray], np.ndarray] | None = None
    table: tuple[np.ndarray, np.ndarray] | None = None

    def __call__(self, u):
        arr, scalar = _as_float_array(u)
        with np.errstate(all="ignore"):
            vals = np.asarray(self.fn(arr), dtype=float)
        if self.halfline:
            vals = np.where(arr < 0.0, INF, vals)
        return float(vals) if scalar else vals

    @classmethod
    def from_table(cls, us: Sequence[float], vals: Sequence[float],
                   name: str = "tabulated") -> "Generator":
        """Piecewise-linear generator; +inf outside the tabulated range."""
        us_a = np.asarray(us, dtype=float)
        vals_a = np.asarray(vals, dtype=float)
        if us_a.ndim != 1 or us_a.shape != vals_a.shape or us_a.size < 2:
            raise ValueError("need matching 1-D tables with >= 2 nodes")
        if np.any(np.diff(us_a) <= 0):
            raise ValueError("table abscissae must be strictly increasing")

        def interp(u):
            return np.interp(u, us_a, vals_a, left=INF, right=INF)

        return cls(fn=interp, name=name, table=(us_a, vals_a))


@dataclass(frozen=True)
class GridSpec:
    """Search grid for numeric suprema: hybrid geometric + linear points."""

    hi: float = 1e3
    n: int = 20000
    lo_geom: float = 1e-9

    def points(self, halfline: bool, hi: float | None = None) -> np.ndarray:
        top = self.hi if hi is None else hi
        half = max(self.n // 2, 8)
        geo = np.geomspace(self.lo_geom, top, half)
        lin = np.linspace(0.0, top, half)
        if halfline:
            return np.unique(np.concatenate([[0.0], geo, lin]))
        return np.unique(np.concatenate([-geo[::-1], [0.0], geo, lin,
                                         -lin[::-1]]))


DEFAULT_GRID = GridSpec()


def _scan(pts: np.ndarray, fpts: np.ndarray,
          vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise argmax and max of v*pts - fpts for each v, NaN read as -inf.

    The (len(vs), len(pts)) objective is written in row blocks of at most
    _BLOCK elements into one buffer.
    """
    rows = max(1, _BLOCK // pts.size)
    buf = np.empty((min(rows, vs.size), pts.size))
    idx = np.empty(vs.size, dtype=np.intp)
    with np.errstate(invalid="ignore", over="ignore"):
        for s in range(0, vs.size, rows):
            b = buf[:min(rows, vs.size - s)]
            np.multiply(vs[s:s + rows, None], pts, out=b)
            np.subtract(b, fpts, out=b)
            b[np.isnan(b)] = -INF
            idx[s:s + len(b)] = np.argmax(b, axis=1)
        best = vs * pts[idx] - fpts[idx]
    return idx, np.where(np.isnan(best), -INF, best)


def _sup_batch(f: Generator, vs: np.ndarray, grid: GridSpec,
               cache: dict) -> np.ndarray:
    """sup_u (u*v - f(u)) for each v of a 1-D array, in one batched pass.

    Each widening level's grid and f on it are computed once and kept in
    ``cache`` (owned by the caller).  Only rows whose maximizer sits on a
    grid edge move on to the next, ten times wider level; rows still on the
    edge at _WIDEN_CAP are +inf, rows with f = +inf on the whole grid -inf.
    All other rows are refined together by a bracket zoom around their grid
    maximizer, each round one call of f on every row.  Every step works row
    by row, so a row's value does not depend on the rest of the batch.
    """
    out = np.empty(vs.size)
    lo, hi = np.empty(vs.size), np.empty(vs.size)
    todo = np.arange(vs.size)
    top = grid.hi
    while todo.size:
        if top not in cache:
            pts = grid.points(f.halfline, top)
            cache[top] = pts, f(pts)
        pts, fpts = cache[top]
        idx, out[todo] = _scan(pts, fpts, vs[todo])
        lo[todo] = pts[np.maximum(idx - 1, 0)]
        hi[todo] = pts[np.minimum(idx + 1, pts.size - 1)]
        edge = (idx == pts.size - 1) | ((idx == 0) & (not f.halfline))
        todo = todo[edge & (out[todo] > -INF)]
        if top >= _WIDEN_CAP:
            out[todo] = INF
            break
        top *= 10.0

    rows = np.flatnonzero(np.isfinite(out))
    if not rows.size:
        return out
    v, a, b, best = vs[rows, None], lo[rows], hi[rows], out[rows]
    r, frac = np.arange(rows.size), np.linspace(0.0, 1.0, _ZOOM_PTS)
    for _ in range(_ZOOM_ROUNDS):
        us = a[:, None] + (b - a)[:, None] * frac
        with np.errstate(invalid="ignore", over="ignore"):
            vals = v * us - f(us.ravel()).reshape(us.shape)
        vals[np.isnan(vals)] = -INF
        j = np.argmax(vals, axis=1)
        best = np.maximum(best, vals[r, j])
        a = us[r, np.maximum(j - 1, 0)]
        b = us[r, np.minimum(j + 1, _ZOOM_PTS - 1)]
    out[rows] = best
    return out


def conjugate(f: Generator, grid: GridSpec | None = None) -> Generator:
    """Legendre transform f*(v) = sup_u (u*v - f(u)) as a new Generator.

    Closed-form generators with an attached analytic conjugate use it
    directly.  Tabulated generators take the supremum over their own nodes
    (exact for piecewise-linear f) and raise GridTooNarrow, naming the first
    offending v, when the maximizing node sits on the table boundary.
    Anything else falls back to the adaptive numeric supremum.  The tabulated
    and numeric routes evaluate a whole array in one batched scan.
    """
    spec = grid or DEFAULT_GRID
    if f.conjugate_fn is not None:
        return Generator(fn=f.conjugate_fn, name=f"{f.name}*",
                         halfline=False)

    if f.table is not None:
        us, vals = f.table

        def eval_table(v):
            flat = v.reshape(-1)
            idx, out = _scan(us, vals, flat)
            edge = (idx == 0) | (idx == us.size - 1)
            if edge.any():
                raise GridTooNarrow(f"maximizer for v={flat[np.argmax(edge)]}"
                                    " lies on the table boundary")
            return out.reshape(v.shape)

        return Generator(fn=eval_table, name=f"{f.name}*", halfline=False)

    cache: dict = {}

    def eval_numeric(v):
        return _sup_batch(f, v.reshape(-1), spec, cache).reshape(v.shape)

    return Generator(fn=eval_numeric, name=f"{f.name}*", halfline=False)


@dataclass(frozen=True)
class PsiFunction:
    """Psi(beta) = f*(-beta) with its domain bounds and fixed point.

    Decreasing and convex; +inf below beta1; involutive on (beta1, beta2)
    with Psi(u_star) = u_star when the generator is loss-realizable.
    ``fn`` maps an array of betas to the array of values in one call.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    beta1: float
    beta2: float
    u_star: float
    name: str = ""

    def __call__(self, beta):
        arr, scalar = _as_float_array(beta)
        out = np.asarray(self.fn(arr), dtype=float)
        return float(out) if scalar else out


def _psi_eval(f: Generator, numeric: bool, grid: GridSpec) -> Callable:
    """Psi(beta) = f*(-beta) for a scalar or an array, one conjugate call.

    Without a closed form in use, the conjugate is the adaptive numeric one
    (never the tabulated one), and it never reads ``conjugate_fn``.
    """
    if numeric or f.conjugate_fn is None:
        f = Generator(f.fn, name=f.name, halfline=f.halfline)
    fstar = conjugate(f, grid)
    return lambda beta: fstar(-np.asarray(beta, dtype=float))


def _locate_beta1(psi: Callable[[float], float]) -> float:
    finite_at = None
    for k in range(42):
        for cand in ((0.0,) if k == 0 else (2.0 ** (k - 1), -(2.0 ** (k - 1)))):
            if math.isfinite(psi(cand)):
                finite_at = cand
                break
        if finite_at is not None:
            break
    if finite_at is None:
        raise NoFixedPoint("Psi has no finite value on the probe range")
    prev = finite_at
    step = 1.0
    while step <= _PROBE_CAP:
        cand = finite_at - step
        if not math.isfinite(psi(cand)):
            return bisect_predicate(lambda b: math.isfinite(psi(b)), cand, prev,
                                    tol=1e-10)
        prev = cand
        step *= 2.0
    return -INF


def _locate_beta2(f: Generator, psi: Callable[[float], float],
                  beta1: float) -> float:
    f0 = f(0.0)
    if not math.isfinite(f0):
        return INF
    inf_psi = -f0
    # If the right derivative of f at 0 diverges, inf Psi is only asymptotic
    # and beta2 = +inf.  Divergence shows up as difference quotients whose
    # decrements fail to decay as the step shrinks (a convergent quotient
    # sequence has decrements shrinking like the step ratio).
    s0, s1, s2 = [(f(h) - f0) / h for h in (1e-4, 1e-6, 1e-8)]
    d0, d1 = s0 - s1, s1 - s2
    if d0 > 1e-7 * (1.0 + abs(s1)) and d1 >= 0.2 * d0:
        return INF
    # Psi reaches inf Psi exactly where -beta passes the right derivative of
    # f at 0; Richardson-extrapolate the quotient for a sharp estimate.
    h1, h2 = 1e-6, 1e-8
    corr = (s1 - s2) / (h1 - h2)
    est = -(s2 - corr * h2)
    scale = max(1.0, abs(inf_psi), abs(est))
    if (psi(est + 1e-6 * scale) <= inf_psi + 1e-6 * scale
            and psi(est - 0.1 * scale) > inf_psi + 1e-8 * scale):
        return est
    # fallback: doubling probe plus bisection on reaching inf Psi
    tol = 1e-11 * max(1.0, abs(inf_psi))
    lo = beta1 if math.isfinite(beta1) else -1.0
    step = 1.0
    prev = lo
    while step <= _PROBE_CAP:
        cand = lo + step
        if psi(cand) <= inf_psi + tol:
            return bisect_predicate(lambda b: psi(b) <= inf_psi + tol,
                                    prev, cand, tol=1e-10)
        prev = cand
        step *= 2.0
    return INF


def _locate_fixed_point(psi: Callable[[float], float],
                        beta1: float, beta2: float) -> float:
    def s(beta: float) -> float:
        return psi(beta) - beta

    lo = beta1 + 1e-9 if math.isfinite(beta1) else -1.0
    # expand left until s > 0 (Psi = +inf below beta1 makes this terminate)
    steps = 0
    while s(lo) <= 0.0:
        lo -= max(1.0, abs(lo))
        steps += 1
        if steps > 60:
            raise NoFixedPoint("Psi(beta) - beta has no positive branch")
    hi = max(lo + 1.0, 1.0)
    steps = 0
    while s(hi) > 0.0:
        hi += max(1.0, abs(hi))
        steps += 1
        if steps > 60 or (math.isfinite(beta2) and hi > beta2 + 2.0):
            if math.isfinite(beta2) and s(beta2 - 1e-9) > 0.0:
                raise NoFixedPoint("no sign change of Psi(beta) - beta "
                                   "inside (beta1, beta2)")
            if not math.isfinite(beta2) and steps > 60:
                raise NoFixedPoint("Psi(beta) - beta has no sign change")
            hi = beta2 - 1e-9 if math.isfinite(beta2) else hi
            break
    return bisect_root(s, lo, hi, tol=1e-12)


def psi_from_f(f: Generator, numeric: bool = False,
               grid: GridSpec | None = None) -> PsiFunction:
    """Build Psi(beta) = f*(-beta) with located bounds and fixed point.

    ``numeric=True`` forces the adaptive-supremum route even when the
    generator carries an analytic conjugate (used to validate the numeric
    machinery against closed forms).  Raises NoFixedPoint when
    Psi(beta) - beta has no sign change, i.e. the divergence is not
    realizable by a decreasing convex loss.
    """
    spec = grid or DEFAULT_GRID
    ev = _psi_eval(f, numeric, spec)
    beta1 = _locate_beta1(ev)
    beta2 = _locate_beta2(f, ev, beta1)
    u_star = _locate_fixed_point(ev, beta1, beta2)
    if not (beta1 < u_star < beta2):
        raise NoFixedPoint(f"fixed point {u_star} outside ({beta1}, {beta2})")
    return PsiFunction(fn=ev, beta1=beta1, beta2=beta2, u_star=u_star,
                       name=f"Psi[{f.name}]")


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    witness_beta: float
    residual: float


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the decreasing/involution/fixed-point checks on Psi."""

    checks: tuple[ConditionCheck, ...] = field(default_factory=tuple)

    def __getitem__(self, name: str) -> ConditionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_csv(self) -> str:
        lines = ["condition,pass,witness_beta,residual"]
        for c in self.checks:
            lines.append(f"{c.name},{str(c.passed).lower()},"
                         f"{c.witness_beta!r},{c.residual!r}")
        return "\n".join(lines) + "\n"


def check_theorem1_conditions(psi: PsiFunction, tol: float,
                              n_grid: int = 201,
                              window: float = 15.0) -> ConditionReport:
    """Check that Psi is decreasing and convex, involutive on the interior of
    its domain, and has an interior fixed point.

    Failures are recorded in the report, never raised.  The interior grid is
    clipped to [-window, window] so unbounded domains stay numerically tame;
    endpoints are excluded because Psi may jump to +inf at beta1.
    """
    margin = 1e-3
    lo = psi.beta1 + margin if math.isfinite(psi.beta1) else -window
    hi = psi.beta2 - margin if math.isfinite(psi.beta2) else window
    lo, hi = max(lo, -window), min(hi, window)
    checks: list[ConditionCheck] = []
    if not lo < hi:
        nan = float("nan")
        empty = [ConditionCheck(n, False, nan, INF) for n in
                 ("decreasing_convex", "involution", "fixed_point")]
        return ConditionReport(tuple(empty))

    grid = np.linspace(lo, hi, n_grid)
    vals = psi(grid)

    diffs = np.diff(vals)
    dec_res = float(np.max(diffs)) if diffs.size else 0.0
    mid_res = 0.0
    mid_wit = grid[0]
    if n_grid >= 3:
        gaps = vals[1:-1] - 0.5 * (vals[:-2] + vals[2:])
        k = int(np.argmax(gaps))
        mid_res = float(gaps[k])
        mid_wit = float(grid[k + 1])
    res_i = max(dec_res, mid_res)
    wit_i = float(grid[int(np.argmax(diffs)) + 1]) if dec_res >= mid_res else mid_wit
    checks.append(ConditionCheck("decreasing_convex", res_i <= tol, wit_i,
                                 max(res_i, 0.0)))

    inv_res = np.abs(psi(vals) - grid)
    inv_res = np.where(np.isnan(inv_res), INF, inv_res)
    k = int(np.argmax(inv_res))
    checks.append(ConditionCheck("involution", bool(inv_res[k] <= tol),
                                 float(grid[k]), float(inv_res[k])))

    fp_res = abs(psi(psi.u_star) - psi.u_star) if math.isfinite(psi.u_star) else INF
    fp_ok = (math.isfinite(psi.u_star) and fp_res <= tol
             and psi.beta1 < psi.u_star < psi.beta2)
    checks.append(ConditionCheck("fixed_point", fp_ok, psi.u_star, fp_res))
    return ConditionReport(tuple(checks))


def phi_inverse(phi, beta: float) -> float:
    """inf of the sublevel set {alpha : phi(alpha) <= beta}.

    Returns +inf when the set is empty and -inf when the loss stays below
    beta all the way down.  ``phi`` must expose ``inf_value`` and
    ``alpha_star`` besides being callable.
    """
    inf_phi = phi.inf_value
    if beta < inf_phi:
        return INF
    # right anchor: a point known to satisfy phi <= beta
    a_star = phi.alpha_star
    if math.isfinite(a_star) and phi(a_star) <= beta:
        anchor = a_star
    else:
        # infimum attained only in the limit (or not at alpha_star itself):
        # march right until the sublevel set is entered
        anchor = (a_star if math.isfinite(a_star) else 0.0) + 1.0
        step = 1.0
        while phi(anchor) > beta:
            anchor += step
            step *= 2.0
            if anchor > _PROBE_CAP:
                return INF  # empty sublevel set

    # left anchor: a point with phi > beta, or -inf if none exists
    left = anchor - 1.0
    step = 2.0
    while phi(left) <= beta:
        left = anchor - step
        step *= 2.0
        if anchor - left > _PROBE_CAP:
            return -INF
    return bisect_predicate(lambda x: phi(x) <= beta, left, anchor, tol=1e-12)


def psi_tilde_from_loss(phi) -> PsiFunction:
    """Rebuild the bridge function directly from a loss: phi(-phi_inverse(.)).

    Domain bounds follow from the loss itself: the lower bound is the loss
    minimum phi(alpha*), the upper bound phi(-alpha*); the fixed point is
    phi(0).
    """
    a_star = phi.alpha_star
    beta1 = phi(a_star) if math.isfinite(a_star) else phi.inf_value
    beta2 = phi(-a_star) if math.isfinite(a_star) else INF

    def fn(beta: float) -> float:
        r = phi_inverse(phi, beta)
        if not math.isfinite(r):
            return INF
        return float(phi(-r))

    return PsiFunction(fn=np.vectorize(fn, otypes=[float]),
                       beta1=float(beta1), beta2=float(beta2),
                       u_star=float(phi(0.0)), name=f"PsiTilde[{phi.name}]")


def check_convex_sampled(f: Callable, grid: np.ndarray, tol: float = 1e-9) -> bool:
    """Midpoint convexity test on a sampled grid."""
    grid = np.asarray(grid, dtype=float)
    vals = np.asarray(f(grid), dtype=float)
    mids = 0.5 * (grid[:-1] + grid[1:])
    vmids = np.asarray(f(mids), dtype=float)
    with np.errstate(invalid="ignore"):
        ok = vmids <= 0.5 * (vals[:-1] + vals[1:]) + tol
    ok = ok | ~np.isfinite(0.5 * (vals[:-1] + vals[1:]))
    return bool(np.all(ok))
