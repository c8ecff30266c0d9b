"""Margin loss catalog, link functions, and the loss <-> generator maps.

The forward map sends a loss phi to the convex generator
f(u) = -inf_alpha(phi(-alpha) + phi(alpha) u); the constructive map rebuilds
a loss from a generator f and an increasing convex link g anchored at the
fixed point of Psi.  Catalog entries carry closed forms on both sides so the
numeric machinery can be validated against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .duality import (Generator, check_convex_sampled,
                      check_theorem1_conditions, psi_from_f)
from .errors import BadLink, NotConvex, Unbounded, UnrealizableDivergence
from .optimize import BRACKET, bisect_predicate, phi_pair, weighted_min

INF = math.inf

LOSS_NAMES = ("zero_one", "hinge", "exponential", "logistic",
              "least_squares", "sym_kl", "eq10_nonconvex")


@dataclass(frozen=True)
class SurrogateLoss:
    """Margin loss alpha -> extended real, with calibration metadata.

    ``alpha_star`` is the smallest point attaining inf phi (+inf when the
    infimum is only approached); ``inf_value`` is inf phi itself (-inf for
    losses unbounded below).  ``strictly_convex`` (needs ``convex``) promises
    one minimizer of phi(a) mu + phi(-a) pi at mu, pi > 0 (no tie rule).

    ``fn`` gets a float ndarray (0-d for a scalar) with every floating-point
    warning ignored, by ``__call__`` or by a kernel's one guard (finite points
    only: ``__call__`` alone maps -inf to +inf).
    """

    fn: Callable[[np.ndarray], np.ndarray]
    name: str
    convex: bool
    decreasing: bool
    alpha_star: float
    inf_value: float
    strictly_convex: bool = False

    def __post_init__(self) -> None:
        if self.strictly_convex and not self.convex:
            raise ValueError("a strictly convex loss must be flagged convex")

    def __call__(self, alpha):
        arr = np.asarray(alpha, dtype=float)
        with np.errstate(all="ignore"):
            vals = np.asarray(self.fn(arr), dtype=float)
        # losses are +inf at alpha = -inf by convention
        vals = np.where(arr == -INF, INF, vals)
        return float(vals) if arr.ndim == 0 else vals

    @property
    def u_star(self) -> float:
        """phi(0), the fixed point of the induced bridge function."""
        return float(self(0.0))


@dataclass(frozen=True)
class GLink:
    """Increasing continuous convex link with g(u_star) = u_star; ``fn``
    follows the evaluation contract of :class:`SurrogateLoss`."""

    fn: Callable[[np.ndarray], np.ndarray]
    u_star: float
    name: str = ""

    def __call__(self, u):
        arr = np.asarray(u, dtype=float)
        with np.errstate(all="ignore"):
            vals = np.asarray(self.fn(arr), dtype=float)
        return float(vals) if arr.ndim == 0 else vals

    def validate(self) -> None:
        """Raise BadLink unless anchor, monotonicity, convexity (sampled at
        201 points of [u_star, u_star + 10]) and the right derivative at the
        anchor all check out."""
        if abs(self(self.u_star) - self.u_star) > 1e-12:
            raise BadLink(f"g({self.u_star}) != {self.u_star} "
                          f"(got {self(self.u_star)})")
        grid = np.linspace(self.u_star, self.u_star + 10.0, 201)
        vals = self(grid)
        if np.any(np.diff(vals) < -1e-12):
            raise BadLink("link is not increasing on the sampled range")
        if not check_convex_sampled(self, grid):
            raise BadLink("link fails the sampled midpoint convexity test")
        h = 1e-6
        if (self(self.u_star + h) - self(self.u_star)) / h <= 0.0:
            raise BadLink("right derivative of the link at its anchor "
                          "must be positive")


# --- loss closed forms -------------------------------------------------------

def _phi_zero_one(a):
    return np.where(a <= 0.0, 1.0, 0.0)


def _phi_hinge(a):
    return np.maximum(0.0, 1.0 - a)


def _phi_exponential(a):
    return np.exp(-a)


def _phi_logistic(a):
    return np.logaddexp(0.0, -a)


def _phi_least_squares(a):
    return np.square(1.0 - a)


def _phi_sym_kl(a):
    return np.exp(-a) - a - 1.0


def _phi_eq10(a):
    e = np.abs(a, out=np.empty_like(a))  # one buffer for exp(-|a|): exp(a)
    np.exp(np.negative(e, out=e), out=e)  # for a <= 0, exp(-a) otherwise
    return np.where(a <= 0.0, np.maximum(0.0, 2.0 - e), e)


_LOSSES: dict[str, SurrogateLoss] = {
    "zero_one": SurrogateLoss(_phi_zero_one, "zero_one", convex=False,
                              decreasing=True, alpha_star=0.0, inf_value=0.0),
    "hinge": SurrogateLoss(_phi_hinge, "hinge", convex=True, decreasing=True,
                           alpha_star=1.0, inf_value=0.0),
    "exponential": SurrogateLoss(_phi_exponential, "exponential", convex=True,
                                 decreasing=True, alpha_star=INF,
                                 inf_value=0.0, strictly_convex=True),
    "logistic": SurrogateLoss(_phi_logistic, "logistic", convex=True,
                              decreasing=True, alpha_star=INF, inf_value=0.0,
                              strictly_convex=True),
    "least_squares": SurrogateLoss(_phi_least_squares, "least_squares",
                                   convex=True, decreasing=False,
                                   alpha_star=1.0, inf_value=0.0,
                                   strictly_convex=True),
    "sym_kl": SurrogateLoss(_phi_sym_kl, "sym_kl", convex=True,
                            decreasing=True, alpha_star=INF, inf_value=-INF,
                            strictly_convex=True),
    "eq10_nonconvex": SurrogateLoss(_phi_eq10, "eq10_nonconvex", convex=False,
                                    decreasing=True, alpha_star=INF,
                                    inf_value=0.0),
}


def catalog_loss(name: str) -> SurrogateLoss:
    try:
        return _LOSSES[name]
    except KeyError:
        raise ValueError(f"unknown loss name: {name!r}") from None


# --- generator closed forms (and their analytic conjugates) ------------------

def _f_min_family(scale: float) -> Callable:
    def f(u):
        return -scale * np.minimum(u, 1.0)
    return f


def _fstar_min_family(scale: float) -> Callable:
    def fstar(v):
        return np.where(v > 0.0, INF,
                        np.where(v >= -scale, scale + v, 0.0))
    return fstar


def _f_hellinger(u):
    return -2.0 * np.sqrt(u)


def _fstar_hellinger(v):
    return np.where(v < 0.0, -1.0 / v, INF)


def _f_triangular(u):
    return -4.0 * u / (u + 1.0)


def _fstar_triangular(v):
    # (2 - sqrt(-v))^2 on the whole half-line v <= 0: beyond v = -4 this is
    # the smooth continuation of the conjugate (the strict conjugate clips to
    # 0 there) and is what makes the u^2 link rebuild the full square loss.
    return np.where(v > 0.0, INF, (2.0 - np.sqrt(-v)) ** 2)


def _f_capacitory(u):
    body = -u * (np.log1p(u) - np.log(u)) - np.log1p(u)
    return np.where(u > 0.0, body, 0.0)


def _fstar_capacitory(v):
    return np.where(v < 0.0, -np.log1p(-np.exp(v)), INF)


def _f_sym_kl(u):
    return np.where(u > 0.0, (u - 1.0) * np.log(u), INF)


_SYM_KL_ROUNDS = 5  # the least count a sixth round moves by <= 2 ulps


def _sym_kl_log_u(v, rounds=_SYM_KL_ROUNDS):
    # w = log u of the maximizer of v*u - (u - 1) log u: stationarity reads
    # v = log u + 1 - 1/u, i.e. the root of h(w) = expm1(-w) - w + v, in
    # closed form w = v - 1 + W(e^(1 - v)) (Corless et al. 1996).  h is
    # convex and strictly decreasing, so Newton from a start with h >= 0
    # climbs to the root without overshooting.  For v <= 0 the start
    # w0 = -log1p(s), s = -v, has h(w0) = log1p(s) >= 0; for v > 0 both
    # h(v - 1) = e^(1 - v) and h(v/2) = expm1(-v/2) + v/2 are >= 0.  A fixed
    # round count, no early exit, so no bit depends on a branch.
    w = np.where(v > 0.0, np.maximum(v - 1.0, 0.5 * v), -np.log1p(-v))
    for _ in range(rounds):
        em = np.expm1(-w)
        w = w + (em - w + v) / (em + 2.0)
    return w


def _fstar_sym_kl(v):
    # the value at u = e^w is expm1(w) + w, read as +inf once w > 700 (e^w
    # nears the top of the doubles); f*(+-inf) = +-inf and f*(NaN) = NaN
    w = _sym_kl_log_u(v)
    return np.where(np.isinf(v), v, np.where(w > 700.0, INF, np.expm1(w) + w))


def _f_kl(u):
    return np.where(u > 0.0, u * np.log(u), 0.0)


def _fstar_kl(v):
    return np.exp(v - 1.0)


_GENERATORS: dict[str, Generator] = {
    "zero_one": Generator(_f_min_family(1.0), "f[zero_one]",
                          conjugate_fn=_fstar_min_family(1.0)),
    "hinge": Generator(_f_min_family(2.0), "f[hinge]",
                       conjugate_fn=_fstar_min_family(2.0)),
    "eq10_nonconvex": Generator(_f_min_family(2.0), "f[eq10_nonconvex]",
                                conjugate_fn=_fstar_min_family(2.0)),
    "exponential": Generator(_f_hellinger, "f[exponential]",
                             conjugate_fn=_fstar_hellinger),
    "least_squares": Generator(_f_triangular, "f[least_squares]",
                               conjugate_fn=_fstar_triangular),
    "logistic": Generator(_f_capacitory, "f[logistic]",
                          conjugate_fn=_fstar_capacitory),
    "sym_kl": Generator(_f_sym_kl, "f[sym_kl]", conjugate_fn=_fstar_sym_kl),
    "kl": Generator(_f_kl, "f[kl]", conjugate_fn=_fstar_kl),
}


def catalog_generator(name: str) -> Generator:
    """Closed-form divergence generator induced by the named catalog loss
    (plus the plain KL generator, kept for negative tests)."""
    try:
        return _GENERATORS[name]
    except KeyError:
        raise ValueError(f"unknown generator name: {name!r}") from None


# --- links --------------------------------------------------------------------

def _g_identity(u):
    return u


def _g_exp_shift(u):
    return np.exp(u - 1.0)


def _g_square(u):
    return u ** 2


def _g_logistic(u):
    # log(1 + e^u / 2), anchored at log 2
    return np.logaddexp(0.0, u - math.log(2.0))


def _g_expm1_plus(u):
    return np.expm1(u) + u


_LINKS: dict[str, GLink] = {
    "identity": GLink(_g_identity, u_star=1.0, name="identity"),
    "exp_shift": GLink(_g_exp_shift, u_star=1.0, name="exp_shift"),
    "square": GLink(_g_square, u_star=1.0, name="square"),
    "logistic_link": GLink(_g_logistic, u_star=math.log(2.0),
                           name="logistic_link"),
    "symkl_link": GLink(_g_expm1_plus, u_star=0.0, name="symkl_link"),
}

# link used in the catalog to reconstruct each convex loss from its generator
RECIPE_LINKS = {
    "hinge": "identity",
    "exponential": "exp_shift",
    "least_squares": "square",
    "logistic": "logistic_link",
    "sym_kl": "symkl_link",
}


def catalog_link(name: str) -> GLink:
    try:
        return _LINKS[name]
    except KeyError:
        raise ValueError(f"unknown link name: {name!r}") from None


# --- forward map: loss -> generator ------------------------------------------

_DENSE_N = 100_000


def f_from_loss(phi: SurrogateLoss, u):
    """Generator value f(u) = -inf_alpha(phi(-alpha) + phi(alpha) u).

    Accepts a scalar or an array of nonnegative u, and minimizes with
    ``weighted_min`` at weights (u, 1) on [-BRACKET, BRACKET].  For a convex
    loss the bracket doubles while a minimizer sits on its edge and the
    values still move; a non-convex loss is scanned once (its minimizer
    sets, such as zero_one's half-lines, may reach the edge).  Raises
    Unbounded if the infimum diverges.
    """
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(u_arr < 0.0):
        raise ValueError("u must be nonnegative")
    b, prev = BRACKET, None
    for _ in range(12):
        _, vals, at_edge = weighted_min(phi, u_arr, 1.0, b, _DENSE_N)
        # an infimum approached asymptotically settles as the bracket grows
        settled = prev is not None and np.all(
            np.abs(vals - prev) <= 1e-12 * (1.0 + np.abs(prev)))
        if not (phi.convex and at_edge.any()) or settled:
            return float(-vals[0]) if np.ndim(u) == 0 else -vals
        prev = vals
        b *= 2.0
    # every expansion left a minimizer at the edge with the value still
    # falling: the infimum is -inf
    raise Unbounded("objective of the forward map diverges to -inf")


def induced_generator(phi: SurrogateLoss) -> Generator:
    """The forward map packaged as a Generator (numeric, no closed form)."""
    return Generator(fn=lambda u: f_from_loss(phi, u),
                     name=f"f_from[{phi.name}]")


# --- constructive map: (f, g) -> loss ----------------------------------------

def loss_from_f(f: Generator, g: GLink) -> SurrogateLoss:
    """Build the decreasing-branch loss realizing the divergence of f.

        phi(alpha) = u*             at alpha = 0
                     Psi(g(alpha + u*))   for alpha > 0
                     g(-alpha + u*)       for alpha < 0

    Raises UnrealizableDivergence when Psi fails the decreasing/involution/
    fixed-point conditions and BadLink when g violates its contract at the
    fixed point of Psi.
    """
    psi = psi_from_f(f)
    tol = 1e-6 if f.conjugate_fn is not None else 1e-4
    report = check_theorem1_conditions(psi, tol=tol)
    if not report.all_pass:
        failed = [c.name for c in report.checks if not c.passed]
        raise UnrealizableDivergence(
            f"{f.name or 'generator'} fails: {', '.join(failed)}")
    u_star = psi.u_star
    if abs(g(u_star) - u_star) > 1e-12:
        raise BadLink(f"link must satisfy g({u_star}) = {u_star}, "
                      f"got {g(u_star)}")
    g_anchored = GLink(g.fn, u_star=u_star, name=g.name)
    g_anchored.validate()

    def fn(alpha):
        a = np.asarray(alpha, dtype=float)
        return np.piecewise(
            a.astype(float),
            [a > 0.0, a < 0.0],
            [lambda x: psi(g_anchored(x + u_star)),
             lambda x: g_anchored(-x + u_star),
             u_star])

    alpha_star = _recipe_alpha_star(g_anchored, u_star, psi.beta2)
    inf_value = -f(0.0) if math.isfinite(f(0.0)) else -INF
    probe = np.linspace(-6.0, 6.0, 401)
    loss_name = f"recipe[{f.name},{g.name}]"
    tmp = SurrogateLoss(fn, loss_name, convex=True, decreasing=True,
                        alpha_star=alpha_star, inf_value=inf_value)
    convex = check_convex_sampled(tmp, probe)
    decreasing = bool(np.all(np.diff(tmp(probe)) <= 1e-9))
    return SurrogateLoss(fn, loss_name, convex=convex, decreasing=decreasing,
                         alpha_star=alpha_star, inf_value=inf_value)


def _recipe_alpha_star(g: GLink, u_star: float, beta2: float) -> float:
    if not math.isfinite(beta2):
        return INF
    if g(u_star) >= beta2:
        return 0.0
    hi = 1.0
    while g(hi + u_star) < beta2:
        hi *= 2.0
        if hi > 2.0 ** 40:
            return INF
    return bisect_predicate(lambda x: g(x + u_star) >= beta2, 0.0, hi,
                            tol=1e-12)


# --- calibration and shape checks --------------------------------------------

_LEVELS = [round(0.1 * k, 1) for k in range(1, 10)]
_CALIBRATION_PAIRS = [(x, y) for x in _LEVELS for y in _LEVELS if x != y]


def check_calibration_convex(phi: SurrogateLoss) -> bool:
    """Convex-loss calibration test: differentiable at 0 with slope < 0.

    Left and right difference quotients must agree across shrinking steps
    (Richardson-style) and their common value must be negative.
    """
    if not phi.convex:
        raise NotConvex(f"{phi.name} is not flagged convex")
    hs = (1e-3, 1e-5, 1e-7)
    rights = [(phi(h) - phi(0.0)) / h for h in hs]
    lefts = [(phi(0.0) - phi(-h)) / h for h in hs]
    if abs(rights[-1] - lefts[-1]) > 1e-6:
        return False
    if abs(rights[-1] - rights[-2]) > 1e-3 * (1.0 + abs(rights[-1])):
        return False
    slope = 0.5 * (rights[-1] + lefts[-1])
    return slope < 0.0


def check_calibration_general(phi: SurrogateLoss) -> bool:
    """Pointwise calibration by dense-grid minimization.

    For every weight pair (a, b) of distinct levels 0.1, ..., 0.9 the
    restricted infimum over the wrong-sign margins must strictly exceed the
    infimum over the right-sign margins.  Works for non-convex losses.
    """
    grid = np.linspace(-BRACKET, BRACKET, 20001)
    phi_pos, phi_neg = phi_pair(phi, grid)
    for a, b in _CALIBRATION_PAIRS:
        objective = a * phi_pos + b * phi_neg
        wrong = grid * (a - b) < 0.0
        right = ~wrong  # alpha*(a-b) >= 0, includes alpha = 0
        inf_wrong = float(np.min(objective[wrong]))
        inf_right = float(np.min(objective[right]))
        if not inf_wrong > inf_right:
            return False
    return True


def check_A3(phi: SurrogateLoss) -> bool:
    """Negative deviations from the loss minimizer must cost at least as much
    as positive ones, at 25 log-spaced deviations in [1e-6, 10]; vacuously
    true when the minimizer is at +inf."""
    if not math.isfinite(phi.alpha_star):
        return True
    a = phi.alpha_star
    return not any(phi(a - eps) < phi(a + eps) - 1e-12
                   for eps in np.geomspace(1e-6, 10.0, 25))


def curve_csv(fn: Callable, xs: Sequence[float],
              x_name: str = "x", y_name: str = "value") -> str:
    """Two-column CSV of a function sampled on xs (plot-ready)."""
    lines = [f"{x_name},{y_name}"]
    for x in xs:
        lines.append(f"{float(x)!r},{float(fn(float(x)))!r}")
    return "\n".join(lines) + "\n"
