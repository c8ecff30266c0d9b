"""The numeric Legendre route, bit for bit against frozen copies.

``frozen_sup_batch`` is a copy of the numeric conjugate's kernel as it was
before the kernel called ``f.fn`` under the conjugate's one warning guard
and built its grid levels once per process; ``frozen_locate_beta2`` and
``frozen_locate_fixed_point`` probe Psi one point per call, as before the
probes were batched, and search for the fixed point, as before the
certificate, with the scalar 15-point recurrences ``scalar_predicate`` and
``scalar_root`` of ``test_optimize``.  The live numeric ``conjugate`` and
``psi_from_f(numeric=True)`` must reproduce them bit for bit: values, domain
bounds, fixed point and raised errors.  The exceptions are fixed points.
That of a generator with f(1)/2 in its subdifferential at 1 (every symmetric
one) is certified to be exactly -f(1)/2, where the search stopped within its
1e-12 tolerance.  Any other is searched by one ``sublevel_end`` stack from
0, which ends at the first point of its final bracket, not at the frozen
search's midpoint: within 1e-12 of it.  Nothing in this file reads a
closed-form conjugate.
"""

import math
import pickle

import numpy as np
import pytest

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
        return out
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
    return out


def frozen_locate_beta2(f, psi):
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


def frozen_locate_fixed_point(psi, beta1, beta2, probe):
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


def assert_certified(live: bytes, frozen: bytes, f: Generator) -> None:
    """Bounds and Psi values bit for bit; u* exactly -f(1)/2, never -0.0."""
    beta1, beta2, u_star, vals = pickle.loads(live)
    frozen_beta1, frozen_beta2, _, frozen_vals = pickle.loads(frozen)
    assert (pickle.dumps((beta1, beta2, vals))
            == pickle.dumps((frozen_beta1, frozen_beta2, frozen_vals)))
    assert u_star == -f(1.0) / 2.0
    assert u_star != 0.0 or math.copysign(1.0, u_star) == 1.0


def assert_searched(live: bytes, frozen: bytes) -> None:
    """Bounds and Psi values bit for bit; u* within 1e-12 of the frozen
    search's."""
    beta1, beta2, u_star, vals = pickle.loads(live)
    frozen_beta1, frozen_beta2, frozen_u_star, frozen_vals = pickle.loads(
        frozen)
    assert (pickle.dumps((beta1, beta2, vals))
            == pickle.dumps((frozen_beta1, frozen_beta2, frozen_vals)))
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
    def test_conjugate(self, monkeypatch, name):
        f = stripped(catalog_generator(name))
        live, frozen = live_and_frozen(monkeypatch,
                                       lambda: conjugate(f)(VS))
        assert live == frozen

    @pytest.mark.parametrize("name", CATALOG)
    def test_psi_from_f(self, monkeypatch, name):
        f = catalog_generator(name)
        live, frozen = live_and_frozen(monkeypatch, lambda: numeric_psi(f))
        if name in SYMMETRIC:
            assert_certified(live, frozen, f)
        else:
            assert_searched(live, frozen)

    def test_row_beyond_the_widening_cap(self, monkeypatch):
        f = catalog_generator("exponential")
        live, frozen = live_and_frozen(
            monkeypatch, lambda: numeric_psi(f, np.array([1e-5, 1.0])))
        assert_certified(live, frozen, f)
        assert pickle.loads(live)[3].tolist() == [INF, 1.0]

    def test_row_with_f_infinite_on_the_whole_grid(self, monkeypatch):
        f = Generator(lambda u: np.full(u.shape, INF), name="nowhere")
        live, frozen = live_and_frozen(monkeypatch,
                                       lambda: conjugate(f)(VS))
        assert live == frozen
        assert np.all(pickle.loads(live) == -INF)

    def test_whole_line_conjugate_of_conjugate(self, monkeypatch):
        f = stripped(catalog_generator("exponential"))
        us = np.array([-1.0, 0.0, 0.5, 1.0, 2.5])
        live, frozen = live_and_frozen(
            monkeypatch, lambda: conjugate(conjugate(f))(us))
        assert live == frozen
        assert conjugate(f).halfline is False

    def test_fixed_point_bracket_grows_right(self, monkeypatch):
        # 3 f[hinge] has Psi(beta) = 3 Psi_hinge(beta / 3) and u* = 3, so
        # the frozen search's first right end hi = 1 is still left of the
        # fixed point; the certificate returns u* = -f(1)/2 = 3 without a
        # search
        hinge = catalog_generator("hinge").fn
        f = Generator(lambda u: 3.0 * hinge(u), name="3 f[hinge]")
        live, frozen = live_and_frozen(monkeypatch, lambda: numeric_psi(f))
        assert_certified(live, frozen, f)
        assert pickle.loads(live)[2] == 3.0

    def test_asymmetric_bracket_grows_right(self, monkeypatch):
        f = Generator(shifted_kl, name="shifted_kl")
        live, frozen = live_and_frozen(monkeypatch, lambda: numeric_psi(f))
        assert_searched(live, frozen)
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
        assert_searched(live, frozen)
        assert pickle.loads(live)[2] == pytest.approx(1.0 + 2.5e-11,
                                                      abs=1e-12)

    def test_beta2_fallback(self, monkeypatch):
        # the confirmed Richardson estimate is the true beta2 = 2; the fixed
        # point is searched (f is asymmetric) as the frozen search does
        f = Generator(quadratic_kink, name="quadratic_kink")
        live, frozen = live_and_frozen(monkeypatch, lambda: numeric_psi(f),
                                       FROZEN_SEARCH)
        assert_searched(live, frozen)
        assert pickle.loads(live)[1] == pytest.approx(2.0, abs=1e-9)


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
