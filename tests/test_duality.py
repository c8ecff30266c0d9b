import importlib.util
import math
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fdual import duality
from fdual.duality import (Generator, _locate_beta1, check_convex_sampled,
                           check_theorem1_conditions, conjugate, phi_inverse,
                           psi_from_f, psi_tilde_from_loss)
from fdual.errors import GridTooNarrow, NoFixedPoint, UnconfirmedBound
from fdual.losses import (LOSS_NAMES, catalog_generator, catalog_loss,
                          induced_generator)

INF = math.inf


class TestConjugate:
    def test_clipped_min_conjugate_value(self):
        fstar = conjugate(catalog_generator("hinge"))
        # Psi(0.5) = f*(-0.5)
        assert fstar(-0.5) == pytest.approx(1.5, abs=1e-12)

    def test_sqrt_conjugate_value(self):
        fstar = conjugate(catalog_generator("exponential"))
        assert fstar(-2.0) == pytest.approx(0.5, abs=1e-12)

    def test_linear_generator_on_half_line(self):
        lin = Generator(lambda u: 3.0 * np.asarray(u, dtype=float),
                        name="linear")
        fstar = conjugate(lin)
        # domain is [0, inf): slope at the anchor is free below 3
        assert fstar(3.0) == pytest.approx(0.0, abs=1e-9)
        assert fstar(2.0) == pytest.approx(0.0, abs=1e-9)
        assert fstar(4.0) == INF

    def test_numeric_matches_analytic_on_catalog(self):
        for name in ("hinge", "exponential", "least_squares", "logistic"):
            f = catalog_generator(name)
            numeric = conjugate(Generator(f.fn, name=f.name))  # strip closed form
            analytic = f.conjugate_fn
            vs = -np.geomspace(0.05, 1.9, 25)
            for v in vs:
                assert numeric(float(v)) == pytest.approx(
                    float(analytic(np.asarray(v))), abs=1e-8)

    def test_tabulated_exact_at_nodes_and_narrow_grid(self):
        us = np.linspace(0.0, 4.0, 41)
        tab = Generator.from_table(us, us ** 2 - 2 * us)
        fstar = conjugate(tab)
        # conjugate of the piecewise-linear interpolant is exact node-wise
        assert fstar(0.0) == pytest.approx(1.0, abs=1e-12)  # sup u*0-(u^2-2u)
        with pytest.raises(GridTooNarrow):
            fstar(50.0)

    def test_numeric_batch_widens_only_the_edge_row(self):
        f = catalog_generator("exponential")
        fstar = conjugate(Generator(f.fn, name=f.name))  # strip closed form
        # f*(v) = -1/v, maximized at u = 1/v^2: beyond grid.hi = 1e3 at -0.01
        vs = np.array([-0.5, -1.0, -0.01, -2.0])
        got = fstar(vs)
        np.testing.assert_allclose(got, -1.0 / vs, rtol=1e-10)
        assert got[2] == fstar(-0.01)

    def test_table_batch_matches_nodes_and_names_first_bad_v(self):
        us = np.linspace(0.0, 4.0, 41)
        fstar = conjugate(Generator.from_table(us, us ** 2 - 2 * us))
        vs = np.array([[-1.0, 0.0], [0.5, 3.0]])
        ref = [max(us * v - (us ** 2 - 2 * us)) for v in vs.ravel()]
        np.testing.assert_array_equal(fstar(vs), np.reshape(ref, (2, 2)))
        # 60 and -50 both put the maximizer on a table end; 60 comes first
        with pytest.raises(GridTooNarrow, match=r"v=60\.0 "):
            fstar(np.array([[0.0, 60.0], [-50.0, 1.0]]))

    def test_biconjugation_recovers_catalog(self):
        us = np.geomspace(5e-2, 50.0, 1000)
        for name in ("zero_one", "hinge", "exponential", "least_squares",
                     "logistic", "kl"):
            f = catalog_generator(name)
            fss = conjugate(conjugate(f))
            np.testing.assert_allclose(fss(us), f(us), atol=1e-6)

    def test_biconjugation_recovers_symmetric_kl(self):
        # the inner conjugate is an implicit solve; keep the grid modest
        us = np.geomspace(5e-2, 50.0, 41)
        f = catalog_generator("sym_kl")
        fss = conjugate(conjugate(f))
        np.testing.assert_allclose(fss(us), f(us), atol=1e-6)

    def test_conjugation_reverses_pointwise_order(self):
        f1 = catalog_generator("hinge")       # -2 min(u,1)
        f2 = catalog_generator("zero_one")    # -min(u,1) >= f1
        s1 = conjugate(f1)
        s2 = conjugate(f2)
        vs = np.linspace(-1.9, -0.05, 50)
        assert np.all(s1(vs) >= s2(vs) - 1e-12)


def brute_scan(pts, fpts, vs):
    """The row-blocked (len(vs), len(pts)) argmax that the hull scan
    replaced, frozen as it was: first index on ties, NaN read as -inf."""
    rows = max(1, (1 << 16) // pts.size)
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


SCAN = duality._scan  # the kernel itself, also while a test wraps it


def assert_scan_is_brute(pts, fpts, vs, hull=None):
    hull = duality._hull(pts, fpts) if hull is None else hull
    idx, best = SCAN(pts, hull, vs)
    want_idx, want = brute_scan(pts, fpts, vs)
    np.testing.assert_array_equal(idx, want_idx)
    assert best.tobytes() == want.tobytes()


CATALOG = ("zero_one", "hinge", "eq10_nonconvex", "exponential",
           "least_squares", "logistic", "sym_kl", "kl")
BENCH = Path(__file__).resolve().parents[1] / "bench"


class TestHullScan:
    """The hull scan of duality._scan equals the brute argmax bit for bit."""

    def test_bench_tables(self, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCH))
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", BENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        seen = []

        def checked(pts, hull, vs):
            us, fs = seen_tables[-1]  # the nodes of the table being scanned
            assert pts is us
            assert_scan_is_brute(us, fs, vs, hull)
            seen.append(vs.size)
            return SCAN(pts, hull, vs)

        seen_tables = []
        from_table = Generator.from_table.__func__

        def recording(cls, us, vals, name="tabulated"):
            g = from_table(cls, us, vals, name)
            seen_tables.append(g.table)
            return g

        monkeypatch.setattr(Generator, "from_table", classmethod(recording))
        monkeypatch.setattr(duality, "_scan", checked)
        for seed in range(5):
            for op in workloads.bridge(seed):
                if op.kind == "table_conjugate":
                    op.run()
        assert seen == [2000] * 25

    @pytest.mark.parametrize("name", CATALOG)
    def test_catalog_grids(self, name):
        f = catalog_generator(name)
        for top in (1e3, 1e4, 1e5):
            pts = duality._grid_points(f.halfline, top)
            fpts = f(pts)
            slopes = duality._hull(pts, fpts)[2]
            # generic slopes, and every 50th edge slope (a tie of two
            # vertices in exact arithmetic)
            vs = np.concatenate([np.linspace(-25.0, 25.0, 101),
                                 -np.geomspace(1e-6, 1e3, 40),
                                 slopes[::50], [np.nan, -INF]])
            assert_scan_is_brute(pts, fpts, vs)

    def test_random_tables(self, rng):
        for t in range(60):
            us = np.unique(rng.uniform(-10.0, 10.0, int(rng.integers(2, 300))))
            kind = t % 4
            if kind == 0:    # noise: a small hull under many nodes
                fs = rng.normal(size=us.size)
            elif kind == 1:  # near-linear: nodes within 1e-9 of one line
                fs = 2.0 * us + 1.0 + 1e-9 * rng.normal(size=us.size)
            elif kind == 2:  # NaN nodes
                fs = us ** 2 + 0.1 * rng.normal(size=us.size)
                fs[rng.random(us.size) < 0.2] = np.nan
            else:            # +inf nodes
                fs = np.abs(us)
                fs[rng.random(us.size) < 0.3] = INF
            slopes = duality._hull(us, fs)[2]
            vs = np.concatenate([rng.uniform(-20.0, 20.0, 500), slopes,
                                 [np.nan, -INF, 0.0, 2.0]])
            assert_scan_is_brute(us, fs, vs)

    def test_exactly_linear_and_degenerate_tables(self):
        us = np.linspace(-3.0, 5.0, 81)
        vs = np.concatenate([np.linspace(-4.0, 6.0, 41), [2.0, np.nan]])
        for fs in (2.0 * us + 1.0, np.full(us.size, INF),
                   np.full(us.size, np.nan), np.where(us < 0, INF, us)):
            assert_scan_is_brute(us, fs, vs)
        assert_scan_is_brute(us[:1], us[:1], vs)

    def test_minus_inf_node_reads_plus_inf(self):
        us = np.linspace(0.0, 1.0, 50)
        fs = us ** 2
        fs[[10, 20]] = -INF
        vs = np.linspace(-3.0, 3.0, 101)
        assert_scan_is_brute(us, fs, vs)
        assert np.all(duality._scan(us, duality._hull(us, fs), vs)[1] == INF)

    def test_plus_inf_slope_reads_plus_inf(self):
        # the one documented difference: v = +inf takes the last vertex,
        # not the first node with u > 0; both values are +inf
        us = np.linspace(-1.0, 1.0, 21)
        idx, best = duality._scan(us, duality._hull(us, us ** 2),
                                  np.array([INF]))
        assert best[0] == brute_scan(us, us ** 2, np.array([INF]))[1][0] == INF
        assert idx[0] == us.size - 1

    @pytest.mark.parametrize("n", [2000, 20000])
    def test_cascade_hits_the_pass_cap(self, monkeypatch, n):
        # one node far below a convex chain: each vectorized pass removes
        # one vertex, so the monotone chain finishes the hull
        us = np.linspace(0.0, 1.0, n)
        fs = us ** 2
        fs[0] = -1e3
        chain, calls = duality._monotone_chain, []

        def counted(*args):
            calls.append(len(args[0]))
            return chain(*args)

        monkeypatch.setattr(duality, "_monotone_chain", counted)
        hull = duality._hull(us, fs)
        assert calls == [n - duality._HULL_PASSES]
        assert hull[0].tolist() == [0, n - 1]
        assert_scan_is_brute(us, fs, np.linspace(-3.0, 3.0, 2000), hull)
        # the catalog grids need no chain
        calls.clear()
        pts = duality._grid_points(True, 1e5)
        for name in ("exponential", "logistic", "least_squares", "sym_kl"):
            duality._hull(pts, catalog_generator(name)(pts))
        assert calls == []

    def test_table_error_names_the_brute_first_v(self, rng):
        us = np.linspace(0.0, 4.0, 41)
        fs = us ** 2 - 2 * us
        fstar = conjugate(Generator.from_table(us, fs))
        for _ in range(20):
            vs = rng.uniform(-12.0, 12.0, 30)
            idx, _ = brute_scan(us, fs, vs)
            edge = (idx == 0) | (idx == us.size - 1)
            if not edge.any():
                np.testing.assert_array_equal(fstar(vs), brute_scan(
                    us, fs, vs)[1])
                continue
            first = vs[np.argmax(edge)]
            with pytest.raises(GridTooNarrow, match=re.escape(f"v={first} ")):
                fstar(vs)

    def test_hull_built_once_per_table_and_level(self, monkeypatch):
        hull, calls = duality._hull, []

        def counted(pts, fpts):
            calls.append(pts.size)
            return hull(pts, fpts)

        monkeypatch.setattr(duality, "_hull", counted)
        us = np.linspace(0.0, 4.0, 41)
        fstar = conjugate(Generator.from_table(us, us ** 2))
        for v in np.linspace(0.5, 7.5, 20):
            fstar(v)
        assert calls == [41]
        calls.clear()
        f = catalog_generator("exponential")
        fstar = conjugate(Generator(f.fn, name=f.name))  # strip closed form
        # maximizers at u = 1/v**2 up to 1e6, the last node of level 1e6,
        # so the levels 1e3 ... 1e7 are scanned
        vs = -np.geomspace(1e-3, 2.0, 20)
        fstar(vs)
        levels = len(calls)
        assert levels == 5
        for v in vs:
            fstar(v)
        assert len(calls) == levels


# beta2 (pinned bit for bit) and u* of the bridge generators
BRIDGE_VALUES = {
    "hinge": (2.0, 1.0),
    "exponential": (INF, 1.0),
    "least_squares": (3.9999999999999605, 1.0),
    "logistic": (INF, math.log(2.0)),
    "sym_kl": (INF, 0.0),
}


SYMMETRIC = ("zero_one", "hinge", "eq10_nonconvex", "exponential",
             "least_squares", "logistic", "sym_kl")


def counted_searches(monkeypatch) -> list:
    """The argument tuples of every fixed-point search (``sublevel_end``)."""
    calls, search = [], duality.sublevel_end

    def counting(*args, **kw):
        calls.append(args)
        return search(*args, **kw)

    monkeypatch.setattr(duality, "sublevel_end", counting)
    return calls


def scaled(name: str, c: float) -> Generator:
    """c f[name] with its closed-form conjugate c f*(v / c)."""
    f = catalog_generator(name)
    return Generator(lambda u: c * f.fn(u), name=f"{c} {f.name}",
                     conjugate_fn=lambda v: c * f.conjugate_fn(v / c))


def counted_psi_from_f(monkeypatch, f, **kw):
    """psi_from_f(f) and the number of calls of its Psi evaluator."""
    calls = [0]
    make = duality._psi_eval

    def counting(*args):
        ev = make(*args)

        def wrapped(beta):
            calls[0] += 1
            return ev(beta)
        return wrapped

    monkeypatch.setattr(duality, "_psi_eval", counting)
    return psi_from_f(f, **kw), calls[0]


class TestPsiFromF:
    @pytest.mark.parametrize("numeric", [False, True])
    @pytest.mark.parametrize("name", list(BRIDGE_VALUES))
    def test_bridge_bounds_fixed_point_and_psi_calls(self, monkeypatch, name,
                                                     numeric):
        beta2, u_star = BRIDGE_VALUES[name]
        psi, calls = counted_psi_from_f(monkeypatch, catalog_generator(name),
                                        numeric=numeric)
        if name == "sym_kl":
            assert psi.beta1 == -INF
        else:
            assert abs(psi.beta1) <= 1e-9
        assert psi.beta2 == beta2
        assert abs(psi.u_star - u_star) <= 1e-12
        assert calls <= 16

    def test_clipped_min_bounds_and_fixed_point(self):
        psi = psi_from_f(catalog_generator("hinge"))
        assert psi.beta1 == pytest.approx(0.0, abs=1e-6)
        assert psi.beta2 == pytest.approx(2.0, abs=1e-6)
        assert psi.u_star == pytest.approx(1.0, abs=1e-10)
        assert psi(0.5) == pytest.approx(1.5, abs=1e-12)
        assert psi(-0.5) == INF

    def test_harmonic_family(self):
        psi = psi_from_f(catalog_generator("least_squares"))
        assert psi.u_star == pytest.approx(1.0, abs=1e-10)
        assert psi.beta1 == pytest.approx(0.0, abs=1e-6)
        assert psi.beta2 == pytest.approx(4.0, abs=1e-6)
        for beta in (0.25, 1.0, 3.0):
            assert psi(beta) == pytest.approx((2 - math.sqrt(beta)) ** 2,
                                              abs=1e-10)

    def test_capacitory_fixed_point_is_log_two(self):
        psi = psi_from_f(catalog_generator("logistic"))
        assert psi.u_star == pytest.approx(math.log(2.0), abs=1e-10)
        assert psi.beta2 == INF
        assert psi(1.0) == pytest.approx(1.0 - math.log(math.e - 1.0),
                                         abs=1e-10)

    def test_numeric_route_agrees_with_closed_forms(self):
        for name, closed in (("hinge", lambda b: 2.0 - b),
                             ("exponential", lambda b: 1.0 / b),
                             ("least_squares",
                              lambda b: (2.0 - np.sqrt(b)) ** 2)):
            psi = psi_from_f(catalog_generator(name), numeric=True)
            grid = np.linspace(0.05, min(psi.beta2 - 1e-3, 12.0), 200)
            np.testing.assert_allclose(psi(grid), closed(grid), atol=1e-6)

    @pytest.mark.parametrize("name, numeric", [("hinge", True),
                                               ("logistic", True),
                                               ("sym_kl", False)])
    def test_batch_equals_scalar_calls_bitwise(self, name, numeric):
        psi = psi_from_f(catalog_generator(name), numeric=numeric)
        # interior points, points below beta1 (+inf at the widening cap for
        # hinge), and maximizers far beyond grid.hi (logistic near 0)
        betas = np.concatenate([np.linspace(-1.0, 3.0, 21), [1e-4, 25.0]])
        batch = psi(betas)
        single = np.array([psi(float(b)) for b in betas])
        assert batch.view(np.int64).tolist() == single.view(np.int64).tolist()
        # a row's value does not depend on what else is in the batch
        assert psi(betas[::-1])[::-1].tobytes() == batch.tobytes()
        assert psi(betas[3:5].reshape(1, 2)).tobytes() == batch[3:5].tobytes()

    def test_numeric_route_never_calls_the_closed_form(self):
        def trap(v):
            raise AssertionError("closed form used on the numeric route")

        f = catalog_generator("hinge")
        psi = psi_from_f(Generator(f.fn, name=f.name, conjugate_fn=trap),
                         numeric=True)
        assert psi(np.array([0.5, 1.5])) == pytest.approx([1.5, 0.5],
                                                          abs=1e-9)
        assert check_theorem1_conditions(psi, tol=1e-6).all_pass

    def test_fully_numeric_route_matches_closed_form(self, monkeypatch):
        # loss -> induced generator -> numeric Psi, no closed form anywhere
        psi, calls = counted_psi_from_f(
            monkeypatch, induced_generator(catalog_loss("hinge")))
        assert abs(psi.beta1) <= 1e-9
        assert psi.beta2 == 2.000000000010459
        assert psi.u_star == pytest.approx(1.0, abs=1e-6)
        assert calls <= 16
        grid = np.linspace(1e-3, 2.0 - 1e-3, 1000)
        np.testing.assert_allclose(psi(grid), 2.0 - grid, atol=1e-4)

    def test_no_fixed_point_for_degenerate_generator(self):
        lin = Generator(lambda u: 2.0 * np.asarray(u, dtype=float),
                        name="linear")
        with pytest.raises(NoFixedPoint):
            psi_from_f(lin)

    @pytest.mark.parametrize("kink", [2.7, 3.3, 7.1])
    def test_unconfirmed_beta2_raises(self, kink):
        # hinge's f has f(0) = 0 and f'(0) = -2, so the Richardson estimate
        # is 2; a Psi reaching its infimum 0 only at the kink does not
        # confirm it, and no fallback search guesses another bound
        f = catalog_generator("hinge")

        def psi(beta):
            return np.square(np.maximum(kink - np.asarray(beta), 0.0))

        with pytest.raises(UnconfirmedBound, match="estimate 2.0"):
            duality._locate_beta2(f, psi)

    @pytest.mark.parametrize("c", [1e12, 1e14])
    def test_flat_beta2_is_confirmed(self, c):
        # Psi(beta) = (2 - beta)^2 / 4c is 0.01 / 4c at est - 0.1 scale,
        # under the 1e-14 scale margin: `below` is placed from f''(0) = 2c
        f = Generator(lambda u: c * u * u - 2.0 * u, name="flat")
        assert psi_from_f(f).beta2 == pytest.approx(2.0, abs=1e-9)

    @given(st.lists(st.tuples(st.sampled_from(SYMMETRIC),
                              st.floats(0.1, 10.0)), min_size=2, max_size=5))
    def test_symmetric_mixture_fixed_point_is_minus_half_f1(self, terms):
        parts = [scaled(name, c) for name, c in terms]
        mix = Generator(lambda u: sum(p.fn(u) for p in parts), name="mix")
        assert psi_from_f(mix, numeric=True).u_star == -mix(1.0) / 2.0
        # a sum has no closed-form conjugate: each scaled part takes that
        # route on its own
        for part in parts:
            assert psi_from_f(part).u_star == -part(1.0) / 2.0

    @pytest.mark.parametrize("name", SYMMETRIC)
    def test_symmetric_generator_takes_at_most_two_psi_calls(
            self, monkeypatch, name):
        # one 2-row call confirms beta2 (none when beta2 = +inf), one
        # certifies u* = -f(1)/2; the fixed-point search never runs
        f = catalog_generator(name)
        searches = counted_searches(monkeypatch)
        psi, calls = counted_psi_from_f(monkeypatch, f, numeric=True)
        assert psi.u_star == -f(1.0) / 2.0
        assert calls <= 2 and not searches

    @pytest.mark.parametrize("numeric", [False, True])
    def test_asymmetric_generator_reaches_the_search(self, monkeypatch,
                                                     numeric):
        # f = u log u: f(1)/2 = 0 is not in its subdifferential {1} at 1, so
        # s = Psi - beta keeps its sign around the probe -0.0
        searches = counted_searches(monkeypatch)
        psi, calls = counted_psi_from_f(monkeypatch, catalog_generator("kl"),
                                        numeric=numeric)
        assert len(searches) == 1 and calls > 2
        # Psi(beta) = exp(-1 - beta): u* = W(1/e)
        assert psi.u_star == pytest.approx(0.2784645427610738, abs=1e-10)

    @pytest.mark.parametrize("numeric", [False, True])
    @given(st.floats(0.1, 10.0), st.floats(-5.0, 5.0))
    def test_searched_fixed_point(self, numeric, c, a):
        # f = c u log u + a (u - 1) is asymmetric, with Psi(beta) =
        # c exp((-beta - a) / c - 1) + a; u* is searched on each route's
        # evaluator and lands within 1e-12 right of the sign change of
        # s = Psi - beta.  The true bounds (-inf, inf) are passed, since
        # _locate_beta1 reads a finite slope where a / c < -24 (the chord
        # slopes of f are still negative at u = 1e10)
        kl = catalog_generator("kl")
        f = Generator(lambda u: c * kl.fn(u) + a * (u - 1.0),
                      name="c f[kl] + a (u - 1)",
                      conjugate_fn=lambda v: c * kl.conjugate_fn((v - a) / c)
                      + a)
        psi = duality._psi_eval(f, numeric)
        u_star = duality._locate_fixed_point(psi, -INF, INF, -f(1.0) / 2.0)

        def s(beta):
            return psi(beta) - beta

        assert s(u_star) <= 0.0 < s(u_star - 1e-12)
        closed = c * math.exp((-u_star - a) / c - 1.0) + a
        assert abs(u_star - closed) <= 1e-9

    def test_certificate_needs_a_sign_change_left_of_the_probe(self):
        # s = Psi - beta = -2 beta - 2 is < 0 on both sides of the probe 0,
        # so the probe is no fixed point and the search finds u* = -1
        psi = lambda beta: -np.asarray(beta, dtype=float) - 2.0
        u_star = duality._locate_fixed_point(psi, -INF, INF, 0.0)
        assert abs(u_star + 1.0) <= 1e-12


def _arr(u):
    return np.asarray(u, dtype=float)


class TestRecessionSlope:
    """beta1 = -f'_inf against analytic recession slopes lim f(u)/u."""

    @pytest.mark.parametrize("f, slope, tol", [
        (catalog_generator("hinge"), 0.0, 0.0),            # -2 min(u, 1)
        (catalog_generator("exponential"), 0.0, 1e-9),     # -2 sqrt(u)
        (catalog_generator("least_squares"), 0.0, 1e-9),   # -4u / (u + 1)
        (catalog_generator("logistic"), 0.0, 1e-9),        # capacitory
        (lambda u: -np.log1p(_arr(u)), 0.0, 1e-9),
        # its chord slopes rise by 10**-0.2 per node: a naive decay test
        # reads divergence
        (lambda u: -_arr(u) ** 0.9, 0.0, 1e-6),
        (lambda u: _arr(u) - 2.0 * np.sqrt(_arr(u)), 1.0, 1e-9),
    ])
    def test_finite_slopes(self, f, slope, tol):
        assert abs(-_locate_beta1(f) - slope) <= tol

    @pytest.mark.parametrize("f", [
        lambda u: _arr(u) ** 2,
        lambda u: _arr(u) * np.log(_arr(u)),
        catalog_generator("sym_kl"),
        catalog_generator("kl"),
    ])
    def test_superlinear_slopes_are_infinite(self, f):
        assert _locate_beta1(f) == -INF


class TestTheorem1Conditions:
    def test_realizable_catalog_passes(self):
        for name in ("hinge", "exponential", "least_squares", "logistic",
                     "sym_kl"):
            psi = psi_from_f(catalog_generator(name))
            report = check_theorem1_conditions(psi, tol=1e-6)
            assert report.all_pass, f"{name}: {report.checks}"

    def test_plain_kl_fails_involution_only(self):
        psi = psi_from_f(catalog_generator("kl"))
        report = check_theorem1_conditions(psi, tol=1e-6)
        assert report["decreasing_convex"].passed
        assert not report["involution"].passed
        assert report["fixed_point"].passed
        assert not report.all_pass

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("other", ["hinge", "exponential",
                                       "least_squares", "logistic"])
    def test_sym_kl_mixtures_raise_no_warning(self, other):
        # the numeric Psi is +inf at the window's left end (its maximizer
        # lies beyond _WIDEN_CAP): inf - inf reads as an infinite residual,
        # and the verdicts stand
        a, b = catalog_generator("sym_kl"), catalog_generator(other)
        mix = Generator(lambda u: 0.5 * a.fn(u) + 0.5 * b.fn(u), name="mix")
        report = check_theorem1_conditions(psi_from_f(mix, numeric=True),
                                           tol=1e-6)
        convex = report["decreasing_convex"]
        assert not convex.passed and convex.residual == INF
        assert not report["involution"].passed
        assert report["fixed_point"].passed

    @pytest.mark.parametrize("numeric", [False, True])
    def test_two_psi_calls(self, numeric):
        # the grid with Psi(u*) appended, then Psi at the grid's values
        psi = psi_from_f(catalog_generator("logistic"), numeric=numeric)
        shapes = []

        def counting(beta):
            shapes.append(beta.shape)
            return psi.fn(beta)

        report = check_theorem1_conditions(replace(psi, fn=counting),
                                           tol=1e-6)
        assert shapes == [(202,), (201,)]
        assert report == check_theorem1_conditions(psi, tol=1e-6)

    @pytest.mark.parametrize("name", ["hinge", "exponential", "least_squares",
                                      "logistic", "sym_kl"])
    def test_a_psi_call_enters_one_errstate(self, monkeypatch, name):
        psi, entries = psi_from_f(catalog_generator(name)), []

        class Counting(np.errstate):
            def __enter__(self):
                entries.append(self)
                return super().__enter__()

        monkeypatch.setattr(np, "errstate", Counting)
        psi(np.linspace(-20.0, 20.0, 41))
        psi(0.5)
        assert len(entries) == 2

    def test_csv_shape(self):
        psi = psi_from_f(catalog_generator("hinge"))
        text = check_theorem1_conditions(psi, tol=1e-6).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "condition,pass,witness_beta,residual"
        assert len(lines) == 4

    def test_csv_rows_are_the_check_rows(self):
        report = check_theorem1_conditions(
            psi_from_f(catalog_generator("kl")), tol=1e-6)
        rows = report.to_csv().strip().split("\n")[1:]
        assert rows == [c.to_csv_row() for c in report.checks]
        assert rows[1].startswith("involution,false,")


class TestPhiInverse:
    def test_hinge_values(self):
        hinge = catalog_loss("hinge")
        assert phi_inverse(hinge, 0.5) == pytest.approx(0.5, abs=1e-10)
        assert phi_inverse(hinge, -0.1) == INF
        assert phi_inverse(hinge, 0.0) == pytest.approx(1.0, abs=1e-10)

    def test_exponential_at_one(self):
        assert phi_inverse(catalog_loss("exponential"), 1.0) == pytest.approx(
            0.0, abs=1e-10)

    def test_zero_one_inverse(self):
        z = catalog_loss("zero_one")
        assert phi_inverse(z, 0.5) == pytest.approx(0.0, abs=1e-10)
        assert phi_inverse(z, 1.5) == -INF
        assert phi_inverse(z, -0.5) == INF

    def test_least_squares_left_branch(self):
        ls = catalog_loss("least_squares")
        assert phi_inverse(ls, 0.25) == pytest.approx(0.5, abs=1e-10)

    @given(beta=st.floats(0.0, 5.0))
    def test_sublevel_inequality(self, beta):
        hinge = catalog_loss("hinge")
        alpha = phi_inverse(hinge, beta)
        if math.isfinite(alpha):
            assert hinge(alpha) <= beta + 1e-9
            # equality holds wherever the loss is continuous
            assert hinge(alpha) == pytest.approx(beta, abs=1e-9)

    def test_discontinuity_gives_strict_sublevel_gap(self):
        z = catalog_loss("zero_one")
        alpha = phi_inverse(z, 0.5)
        assert z(alpha) in (0.0, 1.0)
        assert z(alpha + 1e-9) <= 0.5  # the sublevel set starts right there

    @given(b1=st.floats(0.01, 5.0), b2=st.floats(0.01, 5.0))
    def test_inverse_is_decreasing(self, b1, b2):
        hinge = catalog_loss("hinge")
        lo, hi = min(b1, b2), max(b1, b2)
        assert phi_inverse(hinge, lo) >= phi_inverse(hinge, hi) - 1e-9


class TestPsiTilde:
    def test_hinge_rebuild_matches_conjugate_route(self):
        tilde = psi_tilde_from_loss(catalog_loss("hinge"))
        psi = psi_from_f(catalog_generator("hinge"))
        assert (tilde.beta1, tilde.beta2) == (0.0, 2.0)
        assert tilde.u_star == pytest.approx(1.0)
        for beta in np.linspace(1e-3, 2.0 - 1e-3, 101):
            assert tilde(float(beta)) == pytest.approx(psi(float(beta)),
                                                       abs=1e-6)

    def test_exponential_rebuild(self):
        tilde = psi_tilde_from_loss(catalog_loss("exponential"))
        for beta in (0.25, 0.5, 1.0, 2.0, 5.0):
            assert tilde(beta) == pytest.approx(1.0 / beta, abs=1e-8)
        assert tilde.beta2 == INF

    def test_least_squares_rebuild_uses_decreasing_branch(self):
        tilde = psi_tilde_from_loss(catalog_loss("least_squares"))
        assert (tilde.beta1, tilde.beta2) == (0.0, 4.0)
        for beta in (0.25, 1.0, 2.0, 3.9):
            assert tilde(beta) == pytest.approx((2 - math.sqrt(beta)) ** 2,
                                                abs=1e-8)

    def test_rebuild_from_constructed_loss_matches_conjugate_route(self):
        from fdual.losses import catalog_link, loss_from_f
        built = loss_from_f(catalog_generator("hinge"),
                            catalog_link("identity"))
        tilde = psi_tilde_from_loss(built)
        psi = psi_from_f(catalog_generator("hinge"))
        for beta in np.linspace(1e-3, 2.0 - 1e-3, 101):
            assert tilde(float(beta)) == pytest.approx(psi(float(beta)),
                                                       abs=1e-6)

    @pytest.mark.parametrize("name", ["hinge", "exponential", "logistic",
                                      "least_squares", "sym_kl"])
    def test_rebuild_equals_conjugate_route_on_interior(self, name):
        tilde = psi_tilde_from_loss(catalog_loss(name))
        psi = psi_from_f(catalog_generator(name))
        delta = 1e-3
        lo = max(psi.beta1 + delta, tilde.beta1 + delta, -10.0)
        hi = min(psi.beta2 - delta, tilde.beta2 - delta, 10.0)
        grid = np.linspace(lo, hi, 101)
        gaps = [abs(tilde(float(b)) - psi(float(b))) for b in grid]
        assert max(gaps) <= 1e-6

    def test_double_application_contracts(self):
        # applying the rebuilt bridge twice returns to beta on the interior
        for name in ("hinge", "exponential", "least_squares"):
            tilde = psi_tilde_from_loss(catalog_loss(name))
            lo = tilde.beta1 + 1e-2
            hi = min(tilde.beta2 - 1e-2, 8.0)
            for beta in np.linspace(lo, hi, 25):
                val = tilde(float(beta))
                assert tilde(val) <= beta + 1e-8
                assert tilde(val) == pytest.approx(beta, abs=1e-6)

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_one_stack_for_an_array_of_betas(self, name):
        # 3 loss calls for the bounds and the fixed point, then per call of
        # Psi: phi at the start, the doubling column, at most 20 bisection
        # rounds (2**40 cut by sixteenths to 1e-12) and phi(-alpha); each
        # beta gets the bits of its own call
        shapes, base = [], catalog_loss(name)

        def fn(a):
            shapes.append(a.shape)
            return base.fn(a)

        tilde = psi_tilde_from_loss(replace(base, fn=fn))
        betas = np.linspace(-0.5, 5.0, 200)
        vals = tilde(betas)
        assert len(shapes) <= 30
        assert vals.tobytes() == np.array([tilde(b) for b in betas]).tobytes()

    def test_loss_sublevel_consistency(self):
        # evaluating the loss at its own inverse never exceeds the level
        for name in ("hinge", "exponential", "least_squares"):
            phi = catalog_loss(name)
            for beta in np.linspace(0.05, 4.0, 40):
                alpha = phi_inverse(phi, float(beta))
                if math.isfinite(alpha):
                    assert phi(alpha) <= beta + 1e-9


class TestConvexityHelper:
    def test_convex_and_nonconvex_samples(self):
        grid = np.linspace(-3.0, 3.0, 101)
        assert check_convex_sampled(lambda a: np.asarray(a) ** 2, grid)
        assert not check_convex_sampled(lambda a: -np.asarray(a) ** 2, grid)
