"""One-dimensional search primitives: k-point bracketing minimization,
bisection and the per-element weighted minimization every module shares.

Everything here works on plain floats or on numpy arrays elementwise, so the
per-bin minimizations of the risk, loss and ERM modules run as single
vectorized sweeps.  All routines are deterministic.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import InfiniteObjective, NanObjective

_SIGNS = np.array((1.0, -1.0))
_LOOKAHEAD = 4  # bisection levels bisect_root evaluates per call (15 points)
_K = 2 ** _LOOKAHEAD - 1  # points per bracket_min call, as many as _descend's
_FRAC = np.arange(1, _K + 1) / (_K + 1)  # interior points a + _FRAC * h
# the neighbours of point j, as fractions of the bracket (its ends 0 and 1)
_LOF = np.concatenate(([0.0], _FRAC[:-1]))
_HIF = np.concatenate((_FRAC[1:], [1.0]))

# base half-width of the brackets callers pass to weighted_min: minimizers of
# catalog losses sit within O(log(w_pos/w_neg)) of the origin
BRACKET = 50.0


def bracket_min(f: Callable[[np.ndarray], np.ndarray], lo, hi,
                tol: float = 1e-10, max_iter: int = 200
                ) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise minimization of unimodal functions over [lo_i, hi_i].

    ``f`` maps an array of points to the array of objective values, one
    independent problem per element, and must broadcast over a leading axis:
    each round evaluates the _K interior points ``a + _FRAC * h`` of every
    bracket in one call on shape ``(_K,) + lo.shape`` (a simultaneous k-point
    search; Kiefer 1953).  With ``j`` the last of the equal minima, the
    bracket shrinks to the neighbours ``[a + _LOF[j] h, a + _HIF[j] h]`` of
    point j, an eighth of its width; j = _K - 1 keeps ``b`` exactly.  An
    element is frozen once its bracket is within ``tol`` (or after max_iter
    rounds), so it follows its own recurrence whatever it is stacked with.
    Returns the final bracket midpoints and their values, from one more call
    of ``f``.  On a plateau of equal values the search moves to the
    plateau's right end (or to ``b``).
    """
    a = np.asarray(lo, dtype=float)
    b = np.asarray(hi, dtype=float)
    for _ in range(max_iter):
        h = b - a
        live = h > tol
        if not live.any():
            break
        y = f(a + np.multiply.outer(_FRAC, h))
        j = _K - 1 - y[::-1].argmin(axis=0)  # the last of equal minima
        b = np.where(live & (j < _K - 1), a + _HIF[j] * h, b)
        a = np.where(live, a + _LOF[j] * h, a)
    mid = 0.5 * (a + b)
    return mid, f(mid)


def phi_pair(phi, x):
    """(phi(x), phi(-x)) in one call of phi on shape (2,) + x.shape; phi is
    a loss, or its closed form ``fn`` under a kernel's warning guard."""
    return phi(np.multiply.outer(_SIGNS, x))  # x * -1.0 is -x exactly


def zero_safe(pos, neg, w_pos, w_neg):
    """pos * w_pos + neg * w_neg, a zero-weight term counting 0 (0 * inf);
    the caller's guard ignores the warning of 0 * inf."""
    return (np.where(w_pos == 0.0, 0.0, pos * w_pos)
            + np.where(w_neg == 0.0, 0.0, neg * w_neg))


@np.errstate(all="ignore")  # the one guard of the kernel's evaluations
def weighted_min(phi, w_pos, w_neg, b, dense_n: int = 20_001):
    """Minimize phi(a)*w_pos + phi(-a)*w_neg per element on [-b, b].

    The one per-element search of the package: the optimal risk takes it
    per bin with weights (mu_z, pi_z), the forward map with (u, 1) and ERM
    with the empirical weights.  Weights and half-widths broadcast together.
    A convex ``phi`` (``phi.convex``) is searched by ``bracket_min`` on
    [-b, b].  Any other is scanned on the grid ``linspace(-1, 1, dense_n) *
    b``, with phi(+-grid) evaluated once per distinct half-width; every
    element's best grid cell is then refined by one ``bracket_min``, and the
    grid point is kept when its value is ``<=`` the refined one.  On a plateau
    of equal values ``bracket_min`` moves to its right end.  An evaluation at
    ``a`` is one call of ``phi.fn`` (or phi without one), mapping elementwise
    over leading axes, on the finite sign pair ``phi_pair(fn, a)`` of shape
    ``(2,) + a.shape``, under the kernel's one ``np.errstate`` (no wrapper).

    Returns (args, vals, at_edge); at_edge marks arguments within 1e-6 b of
    the bracket edge.  Raises ValueError unless every half-width is finite
    and positive, NanObjective if any objective value is NaN other than a
    zero weight times an infinite loss, which counts as 0, and
    InfiniteObjective if a returned value is +inf.
    """
    w_pos, w_neg, b = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (w_pos, w_neg, b)))
    if not ((b > 0.0) & (b < math.inf)).all():  # NaN fails both
        raise ValueError("half-widths must be finite and positive")
    fn = getattr(phi, "fn", phi)

    def objective(a):
        pos, neg = phi_pair(fn, a)
        y = pos * w_pos + neg * w_neg
        # a NaN makes the sum NaN; so does inf - inf, hence the second test
        if math.isnan(np.add.reduce(y, None)) and np.isnan(y).any():
            y = zero_safe(pos, neg, w_pos, w_neg)
            if np.isnan(y).any():
                raise NanObjective(f"the objective of {phi.name} is NaN")
        return y

    if phi.convex:
        args, vals = bracket_min(objective, -b, b)
    else:
        # scan one element at a time in one reused buffer (an elements x
        # grid matrix costs memory and time); grid points are unit[i] * h,
        # computed where needed so that no grid array outlives phi's calls
        lo, hi, grid_arg, grid_val = (np.empty(b.shape) for _ in range(4))
        unit = np.linspace(-1.0, 1.0, dense_n)
        for h in np.unique(b):
            pos, neg = fn(unit * h), fn(unit * -h)
            obj = np.empty(dense_n)
            for k in np.flatnonzero(b == h):
                wn = w_neg.flat[k]
                np.multiply(pos, w_pos.flat[k], out=obj)
                obj += neg if wn == 1.0 else neg * wn  # x * 1.0 == x exactly
                i = int(np.argmin(obj))  # the first NaN, if there is one
                if math.isnan(obj[i]):
                    obj = zero_safe(pos, neg, w_pos.flat[k], wn)
                    i = int(np.argmin(obj))
                    if math.isnan(obj[i]):
                        raise NanObjective(
                            f"the objective of {phi.name} is NaN on the grid")
                lo.flat[k] = unit[max(i - 1, 0)] * h
                hi.flat[k] = unit[min(i + 1, dense_n - 1)] * h
                grid_arg.flat[k], grid_val.flat[k] = unit[i] * h, obj[i]
        args, vals = bracket_min(objective, lo, hi)
        args, vals = np.where(grid_val <= vals, (grid_arg, grid_val),
                              (args, vals))
    if np.isposinf(vals).any():
        raise InfiniteObjective(f"the minimum of {phi.name} is not finite")
    return args, vals, b - np.abs(args) < 1e-6 * b


def bisect_predicate(pred: Callable[[np.ndarray], np.ndarray], lo, hi,
                     tol: float = 1e-10, max_iter: int = 200):
    """Smallest x in [lo, hi] with pred(x) true, elementwise over arrays,
    assuming pred is monotone (false then true).  Requires pred(hi) true;
    pred(lo) may be anything, and an element with pred(lo) true reports lo.

    ``pred`` maps an array of points, shaped like ``lo``, to booleans.
    Every element follows the scalar bisection and is frozen once its
    bracket is within ``tol``; each round makes one call of ``pred``.  Scalar
    bounds descend _LOOKAHEAD levels per call (``_descend``) and return a
    float.
    """
    a = np.asarray(lo, dtype=float)
    b = np.asarray(hi, dtype=float)
    at_lo = np.asarray(pred(a), dtype=bool)
    if a.ndim == 0 and b.ndim == 0:
        return float(a) if at_lo else _descend(pred, a, b, tol, max_iter)[1]
    active = ~at_lo
    for _ in range(max_iter):
        active = active & ~(b - a <= tol)
        if not active.any():
            break
        m = 0.5 * (a + b)
        p = np.asarray(pred(m), dtype=bool)
        b = np.where(active & p, m, b)
        a = np.where(active & ~p, m, a)
    return np.where(at_lo, a, b)


def bisect_root(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                tol: float = 1e-10, max_iter: int = 200) -> float:
    """Root of a decreasing function with f(lo) > 0 > f(hi): the midpoint of
    the final bracket of ``_descend``.  ``f`` maps an array of points to
    their values, element by element."""
    a, b = _descend(lambda x: ~(np.asarray(f(x)) > 0.0), lo, hi, tol,
                    max_iter)
    return 0.5 * (a + b)


def _descend(right: Callable[[np.ndarray], np.ndarray], lo, hi, tol: float,
             max_iter: int) -> tuple[float, float]:
    """Final bracket (a, b) of the scalar bisection of [lo, hi] that moves b
    to each midpoint where ``right`` holds and a to the others, until
    b - a <= tol or after max_iter midpoints.

    One call of ``right`` (an array of points to booleans) evaluates the
    midpoints of the next _LOOKAHEAD levels and the scalar recurrence
    descends them: the bracket is the scalar loop's, bit for bit.
    """
    a, b = float(lo), float(hi)
    steps = 0
    while steps < max_iter and not b - a <= tol:
        edges, pts = [a, b], []
        for _ in range(_LOOKAHEAD):  # heap order: node i splits into 2i+1, 2i+2
            mids = [0.5 * (x + y) for x, y in zip(edges, edges[1:])]
            pts += mids
            edges = [e for pair in zip(edges, mids) for e in pair] + [b]
        go_left = np.asarray(right(np.array(pts)), dtype=bool)
        node = 0
        while node < len(pts) and steps < max_iter and not b - a <= tol:
            if go_left[node]:
                b, node = pts[node], 2 * node + 1
            else:
                a, node = pts[node], 2 * node + 2
            steps += 1
    return a, b
