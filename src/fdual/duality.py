"""Convex conjugation and the bridge function Psi.

A divergence generator f (convex, lower semicontinuous, +inf below 0) is
linked to margin losses through Psi(beta) = f*(-beta), where f* is the
Legendre transform.  This module computes f* and Psi either from analytic
closed forms attached to a generator or by numeric supremum over a fixed
grid, widened tenfold per level.  The discrete supremum over a set of nodes
is the linear-time Legendre transform (Lucet 1997): the lower convex hull of
the nodes, built once per table or grid level, and one slope search per
point.  It also locates the domain bounds beta1/beta2 and the fixed point u*
of Psi, checks the decreasing/involution/fixed-point conditions that
characterize loss-realizable divergences, and rebuilds Psi directly from a
loss through the sublevel-set inverse.
"""

from __future__ import annotations

import functools
import math
from dataclasses import astuple, dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._csvfmt import row, text
from .errors import GridTooNarrow, NoFixedPoint, UnconfirmedBound
from .optimize import sublevel_end

INF = math.inf

_WIDEN_CAP = 1e9
_HULL_PASSES = 32  # vectorized hull passes before the monotone chain
_ZOOM_ROUNDS, _ZOOM_PTS, _ZOOM_TOL = 11, 33, 1e-13  # see _sup_batch
_ZOOM_FRAC = np.r_[-2:_ZOOM_PTS + 2, 0] / (_ZOOM_PTS - 1.0)  # 2 steps out
_NEAR = np.array([[-2], [-1], [1], [2]])  # an argmax's outer neighbours
_TAIL = np.array([1e4, 1e6, 1e8, 1e10])  # chord nodes for the recession slope
# numeric suprema scan _grid_points(top) for top = _GRID_TOP, ten times wider
# per level up to _WIDEN_CAP
_GRID_TOP, _GRID_HALF, _GRID_LO = 1e3, 10_000, 1e-9
_COND_N, _COND_WINDOW = 201, 15.0  # Theorem 1 check grid on [-15, 15] at most


def _evaluate(self, x):
    """self._eval on a float array, every floating-point warning ignored; a
    float for a scalar (the ``__call__`` of losses, links and generators)."""
    arr = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        vals = self._eval(arr)
    return float(vals) if arr.ndim == 0 else vals


def _fn_eval(self, arr: np.ndarray) -> np.ndarray:
    return np.asarray(self.fn(arr), dtype=float)


@dataclass(frozen=True)
class Generator:
    """Convex function on [0, inf) defining an f-divergence.

    ``fn`` (and ``conjugate_fn``) gets a float ndarray, 0-d for a scalar,
    with every floating-point warning ignored, so it needs no ``errstate``
    or conversion of its own.  Evaluation below 0 returns +inf when
    ``halfline`` is set (the divergence convention); conjugates returned by
    :func:`conjugate` live on the whole line and clear the flag.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    name: str = ""
    halfline: bool = True
    conjugate_fn: Callable[[np.ndarray], np.ndarray] | None = None
    table: tuple[np.ndarray, np.ndarray] | None = None

    __call__ = _evaluate

    def _eval(self, arr: np.ndarray) -> np.ndarray:
        """f on a float ndarray, for a caller that ignores every warning."""
        vals = _fn_eval(self, arr)
        return np.where(arr < 0.0, INF, vals) if self.halfline else vals

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


@functools.lru_cache(maxsize=14)  # 7 levels on the half line and the line
def _grid_points(halfline: bool, top: float) -> np.ndarray:
    """Scan grid of one widening level: _GRID_HALF geometric points from
    _GRID_LO and _GRID_HALF linear ones from 0, up to ``top`` (mirrored to
    the negative side unless ``halfline``).  Built once per process and
    returned read-only."""
    geo = np.geomspace(_GRID_LO, top, _GRID_HALF)
    lin = np.linspace(0.0, top, _GRID_HALF)
    pts = np.unique(np.concatenate([[0.0], geo, lin] if halfline else
                                   [-geo[::-1], [0.0], geo, lin, -lin[::-1]]))
    pts.flags.writeable = False
    return pts


def _hull(pts: np.ndarray, fpts: np.ndarray) -> tuple:
    """Lower convex hull of the finite nodes (pts[i], fpts[i]), pts rising.

    Returns (idx, fv, slopes): the vertex indices (None when every node is a
    vertex), f at the vertices and the slopes of the edges between them,
    strictly increasing; collinear nodes are dropped.  Each vectorized pass
    deletes every vertex whose right-hand slope is <= its left-hand one;
    survivors still in violation after _HULL_PASSES passes go through
    ``_monotone_chain``, so a node far below a convex chain (one vertex per
    pass) stays linear.  A node with f = -inf is the lone vertex (the sup is
    +inf), and with no finite node node 0 is (every value is -inf).
    """
    keep = slice(None)  # every node, while all are finite and none dropped
    if not np.isfinite(fpts).all():
        keep = np.flatnonzero(fpts == -INF)[:1]
        if keep.size:
            return keep, fpts[keep], np.empty(0)
        keep = np.flatnonzero(np.isfinite(fpts))
        if not keep.size:
            return np.zeros(1, dtype=np.intp), fpts[:1], np.empty(0)
    for _ in range(_HULL_PASSES):
        slopes = np.diff(fpts[keep]) / np.diff(pts[keep])
        bad = slopes[1:] <= slopes[:-1]
        if not bad.any():
            break
        ok = np.concatenate(([True], ~bad, [True]))
        keep = np.flatnonzero(ok) if isinstance(keep, slice) else keep[ok]
    else:
        pos, slopes = _monotone_chain(pts[keep].tolist(),
                                      fpts[keep].tolist())
        keep = keep[pos]
    return None if isinstance(keep, slice) else keep, fpts[keep], slopes


def _monotone_chain(us: list, fs: list) -> tuple[list, np.ndarray]:
    """Andrew's monotone chain: positions of the lower hull vertices of the
    points (us[i], fs[i]), us increasing, and their edge slopes."""
    stack, slopes = [0], []
    for j in range(1, len(us)):
        while True:
            s = (fs[j] - fs[stack[-1]]) / (us[j] - us[stack[-1]])
            if not slopes or slopes[-1] < s:
                break
            stack.pop()
            slopes.pop()
        stack.append(j)
        slopes.append(s)
    return stack, np.array(slopes)


def _scan(pts: np.ndarray, hull: tuple,
          vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Argmax and max over the nodes of v*pts - f(pts) for each v, NaN read
    as -inf, with ``hull = _hull(pts, f(pts))``.

    The maximizing node is the hull vertex whose incoming and outgoing edge
    slopes bracket v, so one searchsorted on the hull slopes finds it
    (Lucet 1997).  That vertex and its right neighbour, tied when v equals
    the edge slope between them, are compared by value as computed, the
    first one winning an exact tie; a row whose max is -inf reports node 0.
    This is the brute argmax over all nodes, but for v = +inf (the last
    vertex instead of the first node with u > 0, both +inf).
    """
    idx, fv, slopes = hull
    j = np.searchsorted(slopes, vs, side="left")
    j = np.stack((j, np.minimum(j + 1, slopes.size)))
    nodes = j if idx is None else idx[j]
    with np.errstate(invalid="ignore", over="ignore"):
        vals = vs * pts[nodes] - fv[j]
    right = vals[1] > vals[0]
    best = np.where(right, vals[1], vals[0])
    best = np.where(np.isnan(best), -INF, best)
    idx = np.where(right, nodes[1], nodes[0])
    return np.where(best == -INF, 0, idx), best


def _sup_batch(f: Generator, vs: np.ndarray, cache: dict) -> tuple:
    """sup_u (u*v - f(u)) and its certified width for each v of a 1-D
    array, in one batched pass of independent rows under one warning guard.

    Each widening level's points (``_grid_points``) and the lower hull of f
    on them (``_hull``) are computed once and kept in ``cache`` (owned by
    the caller); ``_scan`` finds each row's grid maximizer.  Only rows whose
    maximizer sits on a grid edge move on to the next, ten times wider
    level; rows still on the edge at _WIDEN_CAP are +inf, rows with f = +inf
    on the whole grid -inf (both of width +inf).  The others are zoomed by
    one ``f.fn`` call on all live rows per round, each shrinking a row's
    bracket 16-fold and bounding its sup by [L, U]: L is its best sample, U
    the peak of the lower of the outer secants through k-2, k-1 and k+1, k+2
    around its sampled argmax k (one at u = 0), which lie above the concave
    u*v - f(u) there.  Their crossing (a piecewise-linear f's kink) is
    sampled next round.  A row freezes with width max(U - L, 0) once U - L
    <= _ZOOM_TOL (1 + |L|), sound for f convex as evaluated (a non-convex f
    is conjugated as its envelope); one that never closes keeps its
    _ZOOM_ROUNDS-th width, unreported.
    """
    out, lo, hi, width = np.full((4, vs.size), INF)
    todo = np.arange(vs.size)
    top = _GRID_TOP
    while todo.size:
        if top not in cache:
            pts = _grid_points(f.halfline, top)
            cache[top] = pts, _hull(pts, f._eval(pts))
        pts, hull = cache[top]
        idx, out[todo] = _scan(pts, hull, vs[todo])
        lo[todo] = pts[np.maximum(idx - 1, 0)]
        hi[todo] = pts[np.minimum(idx + 1, pts.size - 1)]
        edge = (idx == pts.size - 1) | ((idx == 0) & (not f.halfline))
        todo = todo[edge & (out[todo] > -INF)]
        if top >= _WIDEN_CAP:
            out[todo] = INF
            break
        top *= 10.0

    rows = np.flatnonzero(np.isfinite(out))
    v, a, b, x, lb = vs[rows, None], lo[rows], hi[rows], lo[rows], out[rows]
    base = np.arange(rows.size) * _ZOOM_FRAC.size + 2  # flat index of grid 0
    floor = 0.0 if f.halfline else -INF  # a half-line zoom stays at u >= 0
    for _ in range(_ZOOM_ROUNDS):
        if not rows.size:
            break
        us = np.maximum(a[:, None] + (b - a)[:, None] * _ZOOM_FRAC, floor)
        us[:, -1] = x  # the free sample: last round's secant crossing
        vals = v * us - _fn_eval(f, us.ravel()).reshape(us.shape)
        vals[np.isnan(vals)] = -INF
        lb = np.maximum(lb, vals.max(axis=1))
        k = base[:v.size] + np.argmax(vals[:, 2:-3], axis=1) + _NEAR
        (u0, a, b, u3), (g0, g1, g2, g3) = us.ravel()[k], vals.ravel()[k]
        du = b - a
        p = (g1 - g0) / (a - u0) * du  # left outer secant's rise over [a, b]
        q = (g2 - g3) / (u3 - b) * du  # and the right one's fall
        gap = g2 - g1 + q  # the right secant at a, over g1
        tau = gap / (p + q)  # where the two cross, as a fraction of [a, b]
        w = g1 + np.fmin(np.fmin(p * tau, gap), p) - lb
        x = a + np.minimum(np.fmax(tau, 0.0), 1.0) * du
        out[rows], width[rows] = lb, w
        done = w <= _ZOOM_TOL * (1.0 + np.abs(lb))
        if done.any():
            rows, v, a, b, x, lb = (e[~done] for e in (rows, v, a, b, x, lb))
    return out, np.maximum(width, 0.0)


def conjugate(f: Generator) -> Generator:
    """Legendre transform f*(v) = sup_u (u*v - f(u)) as a new Generator.

    Closed-form generators with an attached analytic conjugate use it
    directly.  Tabulated generators take the supremum over their own nodes
    (exact for piecewise-linear f) and raise GridTooNarrow, naming the first
    offending v, when the maximizing node sits on the table boundary.
    Anything else falls back to the numeric supremum of ``_sup_batch``,
    certified within 1e-13 (1 + |value|) for f convex as evaluated (else for
    its envelope) or else its 11-round value, unreported.  Both evaluate an
    array by a slope search on a lower hull (``_scan``), built once per
    table and, numerically, once per grid level.
    """
    if f.conjugate_fn is not None:
        return Generator(fn=f.conjugate_fn, name=f"{f.name}*",
                         halfline=False)

    if f.table is not None:
        us, vals = f.table
        hull = _hull(us, vals)

        def eval_table(v):
            flat = v.reshape(-1)
            idx, out = _scan(us, hull, flat)
            edge = (idx == 0) | (idx == us.size - 1)
            if edge.any():
                raise GridTooNarrow(f"maximizer for v={flat[np.argmax(edge)]}"
                                    " lies on the table boundary")
            return out.reshape(v.shape)

        return Generator(fn=eval_table, name=f"{f.name}*", halfline=False)

    cache: dict = {}

    def eval_numeric(v):
        return _sup_batch(f, v.reshape(-1), cache)[0].reshape(v.shape)

    return Generator(fn=eval_numeric, name=f"{f.name}*", halfline=False)


@dataclass(frozen=True)
class PsiFunction:
    """Psi(beta) = f*(-beta) with its domain bounds and fixed point.

    Decreasing and convex; +inf below beta1 = -f'_inf (may be -inf);
    involutive on (beta1, beta2) with Psi(u_star) = u_star when the generator
    is loss-realizable.  ``fn`` maps betas to values in one call, under its
    own warning guard.  A numeric Psi is +inf for maximizers past _WIDEN_CAP
    (exponential Psi(1e-5), truly 1e5), else certified within 1e-13 (1 +
    |Psi|) for f convex as evaluated (else its envelope) or its 11-round
    value, unreported.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    beta1: float
    beta2: float
    u_star: float
    name: str = ""

    def __call__(self, x):  # a float for a scalar; fn holds the guard
        vals = _fn_eval(self, np.asarray(x, dtype=float))
        return float(vals) if vals.ndim == 0 else vals


def _psi_eval(f: Generator, numeric: bool) -> Callable:
    """Psi(beta) = f*(-beta) for a scalar or an array, as a convex function
    on the line: one ``fstar._eval`` call under the one guard of its call.

    Without a closed form in use, the conjugate is the numeric one
    (never the tabulated one), and it never reads ``conjugate_fn``.
    """
    if numeric or f.conjugate_fn is None:
        f = Generator(f.fn, name=f.name, halfline=f.halfline)
    fstar = conjugate(f)
    return Generator(lambda beta: fstar._eval(-beta), halfline=False)


def _fails_to_decay(d0: float, d1: float, s1: float) -> bool:
    """Increments d0 > 1e-7 (1 + |s1|) and d1 >= d0 / 5 fail to decay."""
    return d0 > 1e-7 * (1.0 + abs(s1)) and d1 >= 0.2 * d0


def _locate_beta1(f: Callable) -> float:
    """beta1 = -f'_inf = -lim f(u)/u: dom f* is bounded by the recession
    slope (Rockafellar 1970, Sec. 8 and Thm 13.3), so f is read, never Psi.

    Chord slopes between the _TAIL nodes rise (f is convex).  Increments that
    fail to decay (``_fails_to_decay``) with a positive last slope mean
    a 1-coercive f and beta1 = -inf.  A sequence still <= 0 is read as
    converging (slowly for -u**0.9) and Aitken-extrapolated.
    """
    fs = np.asarray(f(_TAIL), dtype=float)
    if np.isinf(fs).any():  # f = +inf out there (a table): f'_inf = +inf
        return -INF
    s0, s1, s2 = np.diff(fs) / np.diff(_TAIL)
    d0, d1 = s1 - s0, s2 - s1
    if _fails_to_decay(d0, d1, s1) and s2 > 0.0:
        return -INF
    if d1 == d0:  # an affine tail, or no decay to extrapolate
        return float(0.0 - s2)
    return float(d1 * d1 / (d1 - d0) - s2)


def _locate_beta2(f: Generator, psi: Callable, extra: np.ndarray) -> tuple:
    f0, *fh = f(np.array([0.0, 1e-4, 1e-6, 1e-8])).tolist()
    if not math.isfinite(f0):
        return INF, psi(extra)
    inf_psi = -f0
    # If the right derivative of f at 0 diverges, inf Psi is only asymptotic
    # and beta2 = +inf.  Divergence shows up as difference quotients whose
    # decrements fail to decay as the step shrinks (a convergent quotient
    # sequence has decrements shrinking like the step ratio).
    s0, s1, s2 = [(fv - f0) / h for fv, h in zip(fh, (1e-4, 1e-6, 1e-8))]
    d0, d1 = s0 - s1, s1 - s2
    if _fails_to_decay(d0, d1, s1):
        return INF, psi(extra)
    # Psi reaches inf Psi exactly where -beta passes the right derivative of
    # f at 0; Richardson-extrapolate the 1e-6 and 1e-8 quotients for it.
    est = -(s2 - (s1 - s2) / (1e-6 - 1e-8) * 1e-8)
    scale = max(1.0, abs(inf_psi), abs(est))
    # Psi leaves inf Psi like (beta2 - beta)^2 / 2f''(0): `below` sits at
    # least where that clears 1e-12 scale
    half_curv = max(d0, 0.0) / (1e-4 - 1e-6)  # f''(0) / 2
    gap = max(0.1 * scale, 2e-6 * math.sqrt(half_curv * scale))
    vals = psi(np.concatenate(([est + 1e-6 * scale, est - gap], extra)))
    above, below = vals[:2]
    # Psi is flat beyond beta2 and above inf Psi before it, so `below` must
    # clear `above` (by 45 ulps of scale), however flat Psi leaves inf Psi
    if above <= inf_psi + 1e-6 * scale and below > above + 1e-14 * scale:
        return est, vals[2:]
    raise UnconfirmedBound(f"Psi does not confirm the beta2 estimate {est}: "
                           f"{below} before it, {above} after")


def _locate_fixed_point(psi: Callable, beta1: float, beta2: float,
                        probe: float, s_pair: np.ndarray) -> float:
    """u* = inf {beta : s(beta) <= 0} for the decreasing s = Psi - beta:
    ``probe`` (-0.0 as +0.0) in (beta1, beta2) where s_pair = s(probe -+
    1e-12 max(1, |probe|)) changes sign; else ``_sublevel_inf`` from 0."""
    if beta1 < probe < beta2 and s_pair[0] > 0.0 >= s_pair[1]:
        return probe + 0.0
    return _sublevel_inf(lambda beta: psi(beta) - beta, 0.0, np.array(0.0))


def psi_from_f(f: Generator, numeric: bool = False) -> PsiFunction:
    """Build Psi(beta) = f*(-beta) with located bounds and fixed point.

    ``numeric=True`` forces the numeric-supremum route even when the
    generator carries an analytic conjugate (used to validate the numeric
    machinery against closed forms).  beta1 = -f'_inf comes from the
    recession slope of f (-inf for sym_kl).  A symmetric f has f(1)/2 in
    its subdifferential at 1, so u* = -f(1)/2 (Rockafellar 1970, Thm 23.5);
    ``_locate_fixed_point`` certifies it (in beta2's Psi call), else
    searches.  Raises NoFixedPoint when u* is not in (beta1, beta2) (not
    loss-realizable) and UnconfirmedBound when Psi does not confirm beta2.
    """
    ev = _psi_eval(f, numeric)
    beta1 = _locate_beta1(f)
    probe = -f(1.0) / 2.0
    pair = probe + 1e-12 * max(1.0, abs(probe)) * np.array([-1.0, 1.0])
    beta2, psi_pair = _locate_beta2(f, ev, pair)
    u_star = _locate_fixed_point(ev, beta1, beta2, probe, psi_pair - pair)
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

    def to_csv_row(self) -> str:
        return row(*astuple(self))


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
        return text("condition,pass,witness_beta,residual",
                    (c.to_csv_row() for c in self.checks))


def check_theorem1_conditions(psi: PsiFunction, tol: float) -> ConditionReport:
    """Check that Psi is decreasing and convex, involutive on the interior of
    its domain, and has an interior fixed point.

    Failures are recorded in the report, never raised.  The 201-point
    interior grid is clipped to [-15, 15] so unbounded domains stay
    numerically tame; endpoints are excluded because Psi may jump to +inf at
    beta1.
    """
    margin = 1e-3
    lo = psi.beta1 + margin if math.isfinite(psi.beta1) else -_COND_WINDOW
    hi = psi.beta2 - margin if math.isfinite(psi.beta2) else _COND_WINDOW
    lo, hi = max(lo, -_COND_WINDOW), min(hi, _COND_WINDOW)
    checks: list[ConditionCheck] = []
    if not lo < hi:
        nan = float("nan")
        empty = [ConditionCheck(n, False, nan, INF) for n in
                 ("decreasing_convex", "involution", "fixed_point")]
        return ConditionReport(tuple(empty))

    grid = np.linspace(lo, hi, _COND_N)
    vals = psi(np.append(grid, psi.u_star))  # and Psi(u*): rows independent
    vals, psi_u = vals[:-1], float(vals[-1])

    with np.errstate(invalid="ignore"):  # inf - inf: an infinite residual
        diffs = np.diff(vals)
        gaps = vals[1:-1] - 0.5 * (vals[:-2] + vals[2:])
    diffs, gaps = (np.where(np.isnan(d), INF, d) for d in (diffs, gaps))
    dec_res = float(np.max(diffs))
    k = int(np.argmax(gaps))
    mid_res = float(gaps[k])
    res_i = max(dec_res, mid_res)
    wit_i = float(grid[int(np.argmax(diffs)) + 1] if dec_res >= mid_res
                  else grid[k + 1])
    checks.append(ConditionCheck("decreasing_convex", res_i <= tol, wit_i,
                                 max(res_i, 0.0)))

    inv_res = np.abs(psi(vals) - grid)
    inv_res = np.where(np.isnan(inv_res), INF, inv_res)
    k = int(np.argmax(inv_res))
    checks.append(ConditionCheck("involution", bool(inv_res[k] <= tol),
                                 float(grid[k]), float(inv_res[k])))

    fp_res = abs(psi_u - psi.u_star) if math.isfinite(psi.u_star) else INF
    fp_ok = fp_res <= tol and psi.beta1 < psi.u_star < psi.beta2
    checks.append(ConditionCheck("fixed_point", fp_ok, psi.u_star, fp_res))
    return ConditionReport(tuple(checks))


def _sublevel_inf(g, start, level):
    """inf {x : g(x) <= level} for an array of levels (a float for a 0-d
    one) by one ``sublevel_end`` stack from ``start``: leftward where
    g(start) <= level (-inf when the set reaches the cap), else rightward to
    the first point with g <= level (+inf when there is none).  The set must
    be an interval holding start or right of it; g maps arrays elementwise."""
    inside = g(start) <= level
    return sublevel_end(lambda x: (g(x) <= level) == inside,
                        np.full(level.shape, start),
                        np.where(inside, -1.0, 1.0))


def phi_inverse(phi, beta):
    """inf {alpha : phi(alpha) <= beta} for an array of betas (a float for a
    scalar) by ``_sublevel_inf`` from ``phi.alpha_star`` (0 where it is not
    finite); ``phi`` must map arrays elementwise."""
    start = phi.alpha_star if math.isfinite(phi.alpha_star) else 0.0
    return _sublevel_inf(phi, start, np.asarray(beta, dtype=float))


def psi_tilde_from_loss(phi) -> PsiFunction:
    """Rebuild the bridge function directly from a loss: phi(-phi_inverse(.))
    (+inf where it is not finite), one ``phi_inverse`` stack per Psi call.

    Domain bounds follow from the loss itself: the lower bound is the loss
    minimum phi(alpha*), the upper bound phi(-alpha*); the fixed point is
    phi(0).
    """
    a_star = phi.alpha_star
    beta1 = phi(a_star) if math.isfinite(a_star) else phi.inf_value
    beta2 = phi(-a_star) if math.isfinite(a_star) else INF

    def fn(beta):
        r = phi_inverse(phi, beta)
        return np.where(np.isfinite(r), phi(-r), INF)

    return PsiFunction(fn=fn, beta1=float(beta1), beta2=float(beta2),
                       u_star=float(phi(0.0)), name=f"PsiTilde[{phi.name}]")


def check_convex_sampled(f: Callable, grid: np.ndarray) -> bool:
    """Midpoint convexity test on a sampled grid, with slack 1e-9; one call
    of ``f`` on the grid and one on its midpoints."""
    grid = np.asarray(grid, dtype=float)
    return _convex_at_mids(f, grid, np.asarray(f(grid), dtype=float))


def _convex_at_mids(f: Callable, grid: np.ndarray, vals: np.ndarray) -> bool:
    """``check_convex_sampled`` given vals = f(grid)."""
    mids = 0.5 * (grid[:-1] + grid[1:])
    vmids = np.asarray(f(mids), dtype=float)
    with np.errstate(invalid="ignore"):
        ok = vmids <= 0.5 * (vals[:-1] + vals[1:]) + 1e-9
    ok = ok | ~np.isfinite(0.5 * (vals[:-1] + vals[1:]))
    return bool(np.all(ok))
