"""One-dimensional search primitives and the per-element weighted
minimization every module shares.  One 15-point search round serves both
public searches: minimization (``bracket_min``) and bisection
(``sublevel_end``, which brackets the end of a predicate's run by doubling
away from an anchor).  Everything works on plain floats or on numpy arrays
elementwise, so the per-bin searches run as single vectorized sweeps.  All
routines are deterministic.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import InfiniteObjective, NanObjective

_SIGNS = np.array((1.0, -1.0))
_K = 15  # points per search round
_ENDS = np.arange(_K + 2) / (_K + 1)  # a bracket's ends and points, k/16
_FRAC = _ENDS[1:-1]  # interior points a + _FRAC * h

# base half-width of the brackets callers pass to weighted_min: minimizers of
# catalog losses sit within O(log(w_pos/w_neg)) of the origin
BRACKET = 50.0
# a run of a predicate this far from its anchor is read as unbounded
SUBLEVEL_CAP = 2.0 ** 40
_ROUNDS = 200  # cap on the rounds of a search
_GRID_BITS = 14  # a non-convex scan's lattice: 2**14 steps per half-width


def _search(f, pick, lo, hi, tol: float):
    """Final brackets (a, b) of the 15-point search of [lo_i, hi_i]: each
    round calls ``f`` once on the points ``a + (k/16) h`` of every bracket,
    shape ``(15,) + shape``, and ``pick`` maps the values to the cell kept,
    ``[a + p h, a + q h]`` (q = 1 keeps ``b`` exactly).  An element is frozen
    once ``b - a <= tol``, so a stack gives each element its result alone;
    at most ``_ROUNDS`` rounds, which end once no bracket moved (a fixed
    point of the recurrence: ``tol`` is below the spacing of its floats)."""
    a, b = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    # a bracket (a <= b) wider than 64 of its floats moves in every round
    stall = tol < 2.0**-46 * max(-a.min(initial=0.0), b.max(initial=0.0))
    for _ in range(_ROUNDS):
        h = b - a
        live = h > tol
        if not live.any():
            break
        p, q = pick(f(a + np.multiply.outer(_FRAC, h)))
        b, b0 = np.where(live & (q < 1.0), a + q * h, b), b
        a, a0 = np.where(live, a + p * h, a), a
        if stall and (a == a0).all() and (b == b0).all():
            break
    return a, b


def _search_floats(f, a: float, b: float, tol: float) -> float:
    """``b`` of ``_search(f, _first_true, a, b, tol)`` on Python floats, bit
    for bit: the same points, picks, stop, stall exit and round cap."""
    stall, a0, b0 = tol < 2.0**-46 * max(-a, b, 0.0), math.nan, math.nan
    for _ in range(_ROUNDS):
        h = b - a
        if not h > tol or stall and a == a0 and b == b0:
            break
        p, q = map(float, _first_true(f(a + _FRAC * h)))
        a, b, a0, b0 = a + p * h, (a + q * h if q < 1.0 else b), a, b
    return b


def _last_min(y):
    """The neighbours of the last of the equal minima: 1/8 of the bracket."""
    j = _K - 1 - y[::-1].argmin(axis=0)
    return _ENDS[j], _ENDS[2:][j]


def _first_true(y):
    """The first true point and its left neighbour (1/16 of the bracket),
    or the last point and ``b`` where no point is true."""
    j = _K - np.logical_or.accumulate(y, axis=0).sum(axis=0)
    return _ENDS[j], _ENDS[1:][j]


def bracket_min(f: Callable[[np.ndarray], np.ndarray],
                lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise minimization of unimodal functions over [lo_i, hi_i].

    ``f`` maps an array of points to their values, one independent problem
    per element, and must broadcast over a leading axis: a round of
    ``_search`` calls it once on the 15 points ``a + (k/16) h`` of every
    bracket, shape ``(15,) + lo.shape`` (a simultaneous k-point search;
    Kiefer 1953), and keeps the two neighbours of the last of the equal
    minima, 1/8 of the bracket (the last point keeps ``b`` exactly).  An
    element is frozen once its bracket is within 1e-10, so it follows its
    own recurrence whatever it is stacked with.  Returns the final midpoints
    and their values, from one more call of ``f``.  On a plateau of equal
    values the search moves to its right end (or to ``b``).
    """
    a, b = _search(f, _last_min, lo, hi, 1e-10)
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
def weighted_min(phi, w_pos, w_neg, b):
    """Minimize phi(a)*w_pos + phi(-a)*w_neg per element on [-b, b].

    The one per-element search of the package: the optimal risk takes it
    per bin with weights (mu_z, pi_z), the forward map with (u, 1) and ERM
    with the empirical weights.  Weights and half-widths broadcast together.
    A convex ``phi`` (``phi.convex``) is searched by ``bracket_min`` on
    [-b, b].  Any other is scanned on the exact lattice ``k 2**e`` (e =
    ceil(log2 b) - 14, |k| <= ceil(b / 2**e), at most 2**15 + 1 points; one
    phi call per step, on the widest window, also gives phi(-a), reversed),
    and each element's best cell is refined by one ``bracket_min``; the
    lattice point is kept when its value is ``<=`` the refined one.  An
    evaluation at ``a`` is one call of ``phi.fn`` (or
    phi without one), elementwise over leading axes, on ``phi_pair(fn, a)``
    of shape ``(2,) + a.shape``, under the kernel's one ``np.errstate``.

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
        # one element at a time in one reused buffer (an elements x lattice
        # matrix costs memory and time), on the middle of its step's window
        mant, ex = np.frexp(b)  # ceil(log2 b) is ex, or ex - 1 at a power
        step = np.ldexp(1.0, np.maximum(ex - (mant == 0.5) - _GRID_BITS, -1074))
        n = np.ceil(b / step).astype(int)
        i, grid_val = np.empty(b.shape, int), np.empty(b.shape)
        for s in np.unique(step):
            top = n[step == s].max()
            phi_s = fn(np.arange(-top, top + 1) * s)  # k * s is exact
            buf = np.empty(phi_s.size)
            for k in np.flatnonzero(step == s):
                pos = phi_s[top - n.flat[k]:top + n.flat[k] + 1]
                neg, obj, wn = pos[::-1], buf[:pos.size], w_neg.flat[k]
                np.multiply(pos, w_pos.flat[k], out=obj)
                obj += neg if wn == 1.0 else neg * wn  # x * 1.0 == x exactly
                j = int(np.argmin(obj))  # the first NaN, if there is one
                if math.isnan(obj[j]):
                    obj = zero_safe(pos, neg, w_pos.flat[k], wn)
                    j = int(np.argmin(obj))
                    if math.isnan(obj[j]):
                        raise NanObjective(
                            f"the objective of {phi.name} is NaN on the grid")
                i.flat[k], grid_val.flat[k] = j, obj[j]
        lo, hi = ((np.clip(i + d, 0, 2 * n) - n) * step for d in (-1, 1))
        args, vals = bracket_min(objective, lo, hi)
        args, vals = np.where(grid_val <= vals, ((i - n) * step, grid_val),
                              (args, vals))
    if np.isposinf(vals).any():
        raise InfiniteObjective(f"the minimum of {phi.name} is not finite")
    return args, vals, b - np.abs(args) < 1e-6 * b


def sublevel_end(pred: Callable[[np.ndarray], np.ndarray], anchor, sign):
    """End of the run of pred going out from ``anchor`` (``sign`` < 0: left,
    > 0: right), elementwise; sign broadcasts to anchor's shape, and a 0-d
    anchor gives a float.

    One call of ``pred`` on the doubling column: the anchor, ``x_1 = anchor
    + sign`` and ``x_{k+1} = anchor + 2 (x_k - anchor)`` out to
    ``SUBLEVEL_CAP``.  The first column point off pred and the anchor bound
    one ``_search`` stack to 1e-12, whose rounds keep the first true point
    and its left neighbour (1/16 of the bracket; the last point and ``b``
    where none is true) of pred where sign < 0 (its leftmost point found),
    of not pred where sign > 0 (the first point found off pred).  An element
    off pred at the anchor returns it, one on pred along the whole column
    ``sign * inf``; both keep zero-width brackets, so pred always gets
    ``(k,) + anchor.shape``.  A 0-d anchor runs on Python floats (the same
    IEEE arithmetic and calls of pred, without numpy's cost per 0-d step).
    """
    anchor = np.asarray(anchor, dtype=float)
    a, s = (anchor, sign) if anchor.ndim else (float(anchor), float(sign))
    col = [a, a + s]
    for _ in range(int(math.log2(SUBLEVEL_CAP))):
        col.append(a + 2.0 * (col[-1] - a))
    col = np.array(col)
    on = pred(col)
    flip = np.asarray(sign) > 0.0
    # the first point off pred; the anchor where pred holds throughout
    end = col[(on.argmin(axis=0), *np.indices(anchor.shape, sparse=True))]
    if not anchor.ndim:
        lo, hi = (a, float(end)) if flip else (float(end), a)
        return s * math.inf if on.all() else _search_floats(
            lambda x: pred(x) != flip, lo, hi, 1e-12)
    b = _search(lambda x: pred(x) != flip, _first_true,
                np.where(flip, anchor, end), np.where(flip, end, anchor),
                1e-12)[1]
    return np.where(on.all(axis=0), sign * math.inf, b)
