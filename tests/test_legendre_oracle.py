"""The numeric Legendre route against frozen copies.

``frozen_sup_batch`` is a copy of the numeric conjugate's kernel as it was
before the kernel called ``f.fn`` under the conjugate's one warning guard,
built its grid levels once per process and let a zoom row stop once its
certified bracket closed: every finite row runs all 11 zoom rounds.
``frozen_locate_beta2`` and ``frozen_locate_fixed_point`` probe Psi one
point per call, as before the probes were batched, and search for the fixed
point, as before the certificate, with the scalar 15-point recurrences
``scalar_predicate`` and ``scalar_root`` of ``test_optimize``.

The live numeric ``conjugate`` and ``psi_from_f(numeric=True)`` must
reproduce the frozen domain bounds and raised errors bit for bit, and every
infinite value.  A finite value may sit lower: a live zoom row freezes once
its bracket [L, U] on the supremum has U - L <= 1e-13 (1 + |L|), after a
few of the frozen row's rounds (each with two more steps out on both sides
and the crossing of the outer secants).  So live lies in [frozen - width,
frozen], up to 4 ulps of the row's scale |v| u* + |value| (the rounding of
v u - f(u) at the maximizer u*).  A row whose frozen value lies above the
closed form by more than that read a spike of f's own rounding (logistic's
f cancels near u = 1e6) and is held to the closed form instead: live is no
further from it.  Fixed points: that of a generator with
f(1)/2 in its subdifferential at 1 (every symmetric one) is certified to be
exactly -f(1)/2, where the search stopped within its 1e-12 tolerance.  Any
other is searched by one ``sublevel_end`` stack from 0, which ends at the
first point of its final bracket, not at the frozen search's midpoint:
within 1e-12 of it.  Only the reference values of the width contract read
a closed-form conjugate.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fdual import duality
from fdual.duality import Generator, conjugate, psi_from_f
from fdual.errors import FdualError, NoFixedPoint
from fdual.losses import catalog_generator
from fdual.optimize import SUBLEVEL_CAP
from test_optimize import scalar_predicate, scalar_root

INF = math.inf

CATALOG = ("zero_one", "hinge", "eq10_nonconvex", "exponential",
           "least_squares", "logistic", "sym_kl", "kl")
SYMMETRIC = CATALOG[:-1]  # kl alone is asymmetric: its fixed point is searched

# slopes v of the conjugate: interior maximizers, maximizers near 0 and far
# out (v -> 0-), and rows whose maximizer lies beyond _WIDEN_CAP
VS = np.concatenate([np.linspace(-30.0, 30.0, 61),
                     -np.geomspace(1e-6, 1e3, 25), [-1e-5, 0.0, 1e-9]])
# betas of Psi: below beta1, interior, beyond beta2 and Psi(1e-5), which is
# +inf on the numeric exponential route (maximizer at 1e10)
BETAS = np.concatenate([np.linspace(-2.0, 6.0, 41), [1e-5, 1e-3, 25.0]])


# --- frozen copies -----------------------------------------------------------

def frozen_grid_points(halfline, top):
    geo = np.geomspace(duality._GRID_LO, top, duality._GRID_HALF)
    lin = np.linspace(0.0, top, duality._GRID_HALF)
    if halfline:
        return np.unique(np.concatenate([[0.0], geo, lin]))
    return np.unique(np.concatenate([-geo[::-1], [0.0], geo, lin,
                                     -lin[::-1]]))


def frozen_sup_batch(f, vs, cache):
    out = np.empty(vs.size)
    lo, hi = np.empty(vs.size), np.empty(vs.size)
    todo = np.arange(vs.size)
    top = duality._GRID_TOP
    while todo.size:
        if top not in cache:
            pts = frozen_grid_points(f.halfline, top)
            cache[top] = pts, duality._hull(pts, f(pts))
        pts, hull = cache[top]
        idx, out[todo] = duality._scan(pts, hull, vs[todo])
        lo[todo] = pts[np.maximum(idx - 1, 0)]
        hi[todo] = pts[np.minimum(idx + 1, pts.size - 1)]
        edge = (idx == pts.size - 1) | ((idx == 0) & (not f.halfline))
        todo = todo[edge & (out[todo] > -INF)]
        if top >= duality._WIDEN_CAP:
            out[todo] = INF
            break
        top *= 10.0

    rows = np.flatnonzero(np.isfinite(out))
    if not rows.size:
        return out, None
    n = duality._ZOOM_PTS
    v, a, b, best = vs[rows, None], lo[rows], hi[rows], out[rows]
    r, frac = np.arange(rows.size), np.linspace(0.0, 1.0, n)
    for _ in range(duality._ZOOM_ROUNDS):
        us = a[:, None] + (b - a)[:, None] * frac
        with np.errstate(invalid="ignore", over="ignore"):
            vals = v * us - f(us.ravel()).reshape(us.shape)
        vals[np.isnan(vals)] = -INF
        j = np.argmax(vals, axis=1)
        best = np.maximum(best, vals[r, j])
        a = us[r, np.maximum(j - 1, 0)]
        b = us[r, np.minimum(j + 1, n - 1)]
    out[rows] = best
    return out, None


def frozen_locate_beta2(f, psi, extra):
    return frozen_beta2(f, psi), psi(extra)


def frozen_beta2(f, psi):
    beta1 = duality._locate_beta1(f)
    f0 = f(0.0)
    if not math.isfinite(f0):
        return INF
    inf_psi = -f0
    s0, s1, s2 = [(f(h) - f0) / h for h in (1e-4, 1e-6, 1e-8)]
    d0, d1 = s0 - s1, s1 - s2
    if d0 > 1e-7 * (1.0 + abs(s1)) and d1 >= 0.2 * d0:
        return INF
    h1, h2 = 1e-6, 1e-8
    corr = (s1 - s2) / (h1 - h2)
    est = -(s2 - corr * h2)
    scale = max(1.0, abs(inf_psi), abs(est))
    if (psi(est + 1e-6 * scale) <= inf_psi + 1e-6 * scale
            and psi(est - 0.1 * scale) > inf_psi + 1e-8 * scale):
        return est
    tol = 1e-11 * max(1.0, abs(inf_psi))
    lo = beta1 if math.isfinite(beta1) else -1.0
    step = 1.0
    prev = lo
    while step <= SUBLEVEL_CAP:
        cand = lo + step
        if psi(cand) <= inf_psi + tol:
            return scalar_predicate(lambda b: psi(b) <= inf_psi + tol,
                                    prev, cand, tol=1e-10)[0]
        prev = cand
        step *= 2.0
    return INF


def frozen_locate_fixed_point(psi, beta1, beta2, probe, s_pair):
    def s(beta):
        return psi(beta) - beta

    lo = beta1 + 1e-9 if math.isfinite(beta1) else -1.0
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
            if not math.isfinite(beta2) or s(beta2 - 1e-9) > 0.0:
                raise NoFixedPoint("no sign change of Psi(beta) - beta "
                                   "inside (beta1, beta2)")
            hi = beta2 - 1e-9
            break
    return scalar_root(s, lo, hi, tol=1e-12)[0]


FROZEN = ((duality, "_sup_batch", frozen_sup_batch),
          (duality, "_locate_beta2", frozen_locate_beta2),
          (duality, "_locate_fixed_point", frozen_locate_fixed_point))
# the frozen kernels and fixed-point search under the live beta2, whose old
# fallback missed the true bound
FROZEN_SEARCH = tuple(e for e in FROZEN if e[1] != "_locate_beta2")


# --- helpers ------------------------------------------------------------------

def outcome(run) -> bytes:
    """The pickled result of run(), or the type and message it raised."""
    try:
        result = run()
    except FdualError as err:
        result = (type(err).__name__, str(err))
    return pickle.dumps(result)


def live_and_frozen(monkeypatch, run,
                    frozen_set=FROZEN) -> tuple[bytes, bytes]:
    live = outcome(run)
    with monkeypatch.context() as mp:
        for module, attr, frozen in frozen_set:
            mp.setattr(module, attr, frozen)
        return live, outcome(run)


def stripped(f: Generator) -> Generator:
    """f without its closed-form conjugate: conjugate() goes numeric."""
    return Generator(f.fn, name=f.name, halfline=f.halfline)


def numeric_psi(f: Generator, betas=BETAS):
    psi = psi_from_f(f, numeric=True)
    return psi.beta1, psi.beta2, psi.u_star, psi(betas)


def zoomed(f: Generator, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The live kernel's values and certified widths at vs."""
    with np.errstate(all="ignore"):
        return duality._sup_batch(f, vs, {})


def assert_within_width(f: Generator, vs, frozen, fstar=None) -> None:
    """The live values of sup_u (v u - f(u)) at vs against the frozen ones:
    infinite ones bit for bit.  A finite one has closed its bracket to
    1e-13 (1 + |value|) and is within 4 ulps of rounding
    (of |v| u* + |value|, u* by a central difference of the live values)
    of [frozen - width, frozen], or, where the frozen value lies above the
    closed form ``fstar`` by more than those 4 ulps, no further from it."""
    live, width = zoomed(f, vs)
    fin = np.isfinite(frozen)
    assert live[~fin].tobytes() == frozen[~fin].tobytes()
    vs, live, width, frozen = vs[fin], live[fin], width[fin], frozen[fin]
    h = 1e-3 * np.abs(vs) + 1e-9
    with np.errstate(all="ignore"):  # v = 0 may have u* = +inf
        u_star = (zoomed(f, vs + h)[0] - zoomed(f, vs - h)[0]) / (2.0 * h)
        vu = np.where(vs == 0.0, 0.0, vs * u_star)
        exact = np.full(vs.shape, INF) if fstar is None else fstar(vs)
    slack = 4.0 * np.spacing(np.abs(vu) + np.abs(live))
    assert not np.isnan(slack).any() and np.all(live <= frozen + slack)
    assert np.all(width <= 1e-13 * (1.0 + np.abs(live)))  # every row closed
    spike = frozen > exact + slack
    held = ((frozen - live <= width + slack)
            | spike & (np.abs(live - exact) <= frozen - exact))
    assert held.all(), (vs[~held], live[~held], frozen[~held])


# true conjugates where the catalog's closed forms differ: the catalog's
# logistic conjugate -log1p(-exp(v)) cancels as v -> 0-, and its
# least-squares one continues (2 - sqrt(-v))^2 past v = -4, where f* is 0
REFERENCE = {
    "logistic": lambda v: np.where(v < 0.0, -np.log(-np.expm1(v)), INF),
    "least_squares": lambda v: np.where(
        v < -4.0, 0.0, catalog_generator("least_squares").conjugate_fn(v)),
}


def reference(name: str):
    return REFERENCE.get(name, catalog_generator(name).conjugate_fn)


def assert_psi(live: bytes, frozen: bytes, f: Generator, betas=BETAS,
               fstar=None) -> tuple[float, float]:
    """Bounds bit for bit and Psi values within the width contract; the
    live and frozen fixed points."""
    beta1, beta2, u_star, vals = pickle.loads(live)
    frozen_beta1, frozen_beta2, frozen_u_star, frozen_vals = pickle.loads(
        frozen)
    assert (pickle.dumps((beta1, beta2))
            == pickle.dumps((frozen_beta1, frozen_beta2)))
    assert vals.tobytes() == zoomed(stripped(f), -betas)[0].tobytes()
    assert_within_width(stripped(f), -betas, frozen_vals, fstar)
    return u_star, frozen_u_star


def assert_certified(live: bytes, frozen: bytes, f: Generator,
                     **kw) -> None:
    """``assert_psi``, and u* exactly -f(1)/2, never -0.0."""
    u_star, _ = assert_psi(live, frozen, f, **kw)
    assert u_star == -f(1.0) / 2.0
    assert u_star != 0.0 or math.copysign(1.0, u_star) == 1.0


def assert_searched(live: bytes, frozen: bytes, f: Generator,
                    **kw) -> None:
    """``assert_psi``, and u* within 1e-12 of the frozen search's."""
    u_star, frozen_u_star = assert_psi(live, frozen, f, **kw)
    assert abs(u_star - frozen_u_star) <= 1e-12


def quadratic_kink(u):
    # f'(0) = -2 but curvature 2e6: Psi(2 - 0.1) = 2.5e-9 fell under the
    # old absolute check of the Richardson estimate
    return 1e6 * u * u - 2.0 * u


def shifted_kl(u):
    # u log u - 6 (u - 1): Psi(beta) = exp(5 - beta) - 6, asymmetric, with
    # u* = 2.82 right of the frozen search's first right end hi = 1
    return catalog_generator("kl").fn(u) - 6.0 * (u - 1.0)


# --- the oracle ---------------------------------------------------------------

class TestNumericRouteOracle:
    @pytest.mark.parametrize("name", CATALOG)
    def test_conjugate(self, name):
        f = stripped(catalog_generator(name))
        with np.errstate(all="ignore"):
            frozen = frozen_sup_batch(f, VS, {})[0]
        assert conjugate(f)(VS).tobytes() == zoomed(f, VS)[0].tobytes()
        assert_within_width(f, VS, frozen, reference(name))

    @pytest.mark.parametrize("name", CATALOG)
    def test_psi_from_f(self, monkeypatch, name):
        f = catalog_generator(name)
        live, frozen = live_and_frozen(monkeypatch, lambda: numeric_psi(f))
        check = assert_certified if name in SYMMETRIC else assert_searched
        check(live, frozen, f, fstar=reference(name))

    def test_row_beyond_the_widening_cap(self, monkeypatch):
        f = catalog_generator("exponential")
        betas = np.array([1e-5, 1.0])
        live, frozen = live_and_frozen(monkeypatch,
                                       lambda: numeric_psi(f, betas))
        assert_certified(live, frozen, f, betas=betas, fstar=f.conjugate_fn)
        vals = pickle.loads(live)[3]
        assert vals[0] == INF and 1.0 - vals[1] <= zoomed(
            stripped(f), np.array([-1.0]))[1][0]

    def test_row_with_f_infinite_on_the_whole_grid(self, monkeypatch):
        f = Generator(lambda u: np.full(u.shape, INF), name="nowhere")
        live, frozen = live_and_frozen(monkeypatch,
                                       lambda: conjugate(f)(VS))
        assert live == frozen
        assert np.all(pickle.loads(live) == -INF)

    def test_whole_line_conjugate_of_conjugate(self):
        # f** = f for the closed convex f = -2 sqrt(u), +inf below 0
        f = catalog_generator("exponential")
        fstar = conjugate(stripped(f))
        us = np.array([-1.0, 0.0, 0.5, 1.0, 2.5])
        with np.errstate(all="ignore"):
            frozen = frozen_sup_batch(fstar, us, {})[0]
        assert conjugate(fstar)(us).tobytes() == zoomed(fstar, us)[0].tobytes()
        assert_within_width(fstar, us, frozen, f)
        assert fstar.halfline is False

    def test_fixed_point_bracket_grows_right(self, monkeypatch):
        # 3 f[hinge] has Psi(beta) = 3 Psi_hinge(beta / 3) and u* = 3, so
        # the frozen search's first right end hi = 1 is still left of the
        # fixed point; the certificate returns u* = -f(1)/2 = 3 without a
        # search
        hinge = catalog_generator("hinge")
        f = Generator(lambda u: 3.0 * hinge.fn(u), name="3 f[hinge]")
        live, frozen = live_and_frozen(monkeypatch, lambda: numeric_psi(f))
        assert_certified(live, frozen, f,
                         fstar=lambda v: 3.0 * hinge.conjugate_fn(v / 3.0))
        assert pickle.loads(live)[2] == 3.0

    def test_asymmetric_bracket_grows_right(self, monkeypatch):
        f = Generator(shifted_kl, name="shifted_kl")
        live, frozen = live_and_frozen(monkeypatch, lambda: numeric_psi(f))
        assert_searched(live, frozen, f,
                        fstar=lambda v: np.exp(v + 5.0) - 6.0)
        u_star = pickle.loads(live)[2]
        assert u_star == pytest.approx(math.exp(5.0 - u_star) - 6.0,
                                       abs=1e-9)
        assert u_star > 1.0

    def test_nearly_symmetric_generator_is_searched(self, monkeypatch):
        # f[least_squares] + 1e-5 u log u moves f'(1) off f(1)/2 by 1e-5, so
        # u* = 1 + 2.5e-11 lies outside the certificate's window 1 +- 1e-12
        ls, kl = (catalog_generator(n).fn for n in ("least_squares", "kl"))
        f = Generator(lambda u: ls(u) + 1e-5 * kl(u), name="near_symmetric")
        live, frozen = live_and_frozen(monkeypatch, lambda: numeric_psi(f))
        assert_searched(live, frozen, f)
        assert pickle.loads(live)[2] == pytest.approx(1.0 + 2.5e-11,
                                                      abs=1e-12)

    def test_beta2_fallback(self, monkeypatch):
        # the confirmed Richardson estimate is the true beta2 = 2; the fixed
        # point is searched (f is asymmetric) as the frozen search does
        f = Generator(quadratic_kink, name="quadratic_kink")
        live, frozen = live_and_frozen(monkeypatch, lambda: numeric_psi(f),
                                       FROZEN_SEARCH)
        assert_searched(live, frozen, f, fstar=lambda v: np.where(
            v > -2.0, np.square(v + 2.0) / 4e6, 0.0))
        assert pickle.loads(live)[1] == pytest.approx(2.0, abs=1e-9)


# --- the certified zoom -------------------------------------------------------

def zoom_rounds(f: Generator, v: float) -> tuple[float, float, int]:
    """sup_u (v u - f(u)), its certified width and the number of zoom
    rounds it took (calls of f on one zoom row's points)."""
    sizes = []

    def counted(u):
        sizes.append(u.size)
        return f.fn(u)

    val, width = zoomed(Generator(counted, name=f.name), np.array([v]))
    return val[0], width[0], sizes.count(duality._ZOOM_FRAC.size)


class TestCertifiedZoom:
    @given(st.one_of(st.floats(-2.0, -1e-6, exclude_min=True),
                     st.floats(-50.0, -2.0, exclude_max=True)))
    def test_hinge_rows_close_within_two_rounds(self, v):
        # -2 min(u, 1): the crossing of the outer secants is the kink u = 1
        # for v in (-2, 0); beyond beta2 (v < -2) the maximizer is u = 0
        hinge = catalog_generator("hinge")
        val, width, rounds = zoom_rounds(hinge, v)
        assert rounds <= 2
        assert width <= duality._ZOOM_TOL * (1.0 + abs(val))
        ulps = 4.0 * np.spacing(2.0)
        assert -ulps <= hinge.conjugate_fn(v) - val <= width + ulps

    @given(st.sampled_from(CATALOG), st.floats(-30.0, -0.05))
    def test_closed_forms_lie_within_the_width(self, name, v):
        # away from logistic's cancellation tail (v -> 0-), the true
        # conjugate is in [value - 4 ulps, value + width + 4 ulps], ulps of
        # |v| u* + |f*(v)|
        exact = reference(name)
        val, width, _ = zoom_rounds(catalog_generator(name), v)
        h = 1e-6 * abs(v)
        u_star = (exact(v + h) - exact(v - h)) / (2.0 * h)
        slack = 4.0 * np.spacing(abs(v * u_star) + abs(exact(v)))
        assert -slack <= exact(v) - val <= width + slack


# --- one guard per conjugate call ---------------------------------------------

class TestGuardAndWrapper:
    @pytest.mark.parametrize("name", ["hinge", "exponential", "logistic"])
    def test_no_wrapper_call_on_the_base_generator(self, monkeypatch, name):
        seen, call = [], Generator.__call__

        def counted(self, u):
            seen.append(self)
            return call(self, u)

        monkeypatch.setattr(Generator, "__call__", counted)
        fstar = conjugate(stripped(catalog_generator(name)))
        fstar(VS)
        for v in VS[:5]:
            fstar(v)
        assert len(seen) == 6 and all(g is fstar for g in seen)

    @pytest.mark.parametrize("name", CATALOG)
    def test_a_raising_caller_changes_no_bit(self, name):
        f = catalog_generator(name)
        quiet = outcome(lambda: numeric_psi(f))
        with np.errstate(all="raise"):
            loud = outcome(lambda: numeric_psi(f))
        assert loud == quiet

    def test_grid_levels_are_built_once(self):
        for halfline in (True, False):
            pts = duality._grid_points(halfline, 1e4)
            assert duality._grid_points(halfline, 1e4) is pts
            assert not pts.flags.writeable
            assert (pts.tobytes()
                    == frozen_grid_points(halfline, 1e4).tobytes())
