"""The array search kernels against the scalar recurrences they batch.

The oracles below are the scalar golden-section and bisection loops, the
two-call ``golden_min_vec`` round and the scalar root bisection; the kernels
must reproduce them bit for bit, element by element.
"""

import math

import numpy as np
import pytest

from fdual import duality, losses
from fdual.optimize import (INVPHI, INVPHI2, bisect_predicate, bisect_root,
                            golden_min, golden_min_vec)


def scalar_golden(f, lo, hi, tol=1e-10, max_iter=200):
    a, b = float(lo), float(hi)
    h = b - a
    if h <= tol:
        m = 0.5 * (a + b)
        return m, f(m)
    c = a + INVPHI2 * h
    d = a + INVPHI * h
    yc = f(c)
    yd = f(d)
    for _ in range(max_iter):
        if h <= tol:
            break
        if yc < yd:
            b = d
            d, yd = c, yc
            h = b - a
            c = a + INVPHI2 * h
            yc = f(c)
        else:
            a = c
            c, yc = d, yd
            h = b - a
            d = a + INVPHI * h
            yd = f(d)
    if yc < yd:
        return c, yc
    return d, yd


def scalar_bisect(pred, lo, hi, tol=1e-10, max_iter=200):
    a, b = float(lo), float(hi)
    if pred(a):
        return a
    for _ in range(max_iter):
        if b - a <= tol:
            break
        m = 0.5 * (a + b)
        if pred(m):
            b = m
        else:
            a = m
    return b


def scalar_bisect_root(f, lo, hi, tol=1e-10, max_iter=200):
    a, b = float(lo), float(hi)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        m = 0.5 * (a + b)
        fm = f(m)
        if fm > 0.0:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def two_call_golden_vec(f, lo, hi, tol=1e-10, max_iter=200):
    a = np.asarray(lo, dtype=float).copy()
    b = np.asarray(hi, dtype=float).copy()
    for _ in range(max_iter):
        h = b - a
        if np.all(h <= tol):
            break
        c = a + INVPHI2 * h
        d = a + INVPHI * h
        left = f(c) < f(d)
        b = np.where(left, d, b)
        a = np.where(left, a, c)
    mid = 0.5 * (a + b)
    return mid, f(mid)


def _same(x, y):
    return np.asarray(x, dtype=float).tobytes() == \
        np.asarray(y, dtype=float).tobytes()


# brackets of widths 1e-11 (already within tol) to 40, so elements converge
# in different rounds; centres off the bracket midpoints
LO = np.array([-3.0, 0.2, -40.0, 1.0, -1.0, 5.0, 2.0])
HI = np.array([4.0, 0.2 + 1e-11, 0.0, 1.0 + 3e-10, 9.0, 6.5, 30.0])
CENTRE = np.array([0.7, 0.2, -13.0, 1.0, 8.9, 5.0, 2.0 + 1e-3])
# widths 3e-8 to 60, all wider than the tolerances used with them: every
# element is active in the first rounds, and they freeze in different ones
MIXED_LO = np.array([-3.0, 0.2, -40.0, 1.0, -1.0, 5.0, 2.0])
MIXED_HI = np.array([4.0, 0.2 + 1e-3, 20.0, 1.0 + 3e-8, 9.0, 6.5, 30.0])


def _bowl(x):
    d = x - CENTRE
    return np.cosh(d) + 0.1 * np.square(np.square(d))


class TestGoldenMin:
    def test_array_equals_scalar_recurrence(self):
        def f(x):
            return np.cosh(x - CENTRE) + 0.1 * np.square(np.square(x - CENTRE))

        arg, val = golden_min(f, LO, HI)
        for z in range(LO.size):
            def fz(x, z=z):
                d = x - CENTRE[z]
                return float(np.cosh(d) + 0.1 * np.square(np.square(d)))
            a, v = scalar_golden(fz, LO[z], HI[z])
            assert _same(arg[z], a) and _same(val[z], v), z

    def test_elements_converge_in_different_rounds(self):
        evals = []
        for z in range(LO.size):
            n = [0]

            def fz(x, z=z, n=n):
                n[0] += 1
                return abs(x - CENTRE[z])
            scalar_golden(fz, LO[z], HI[z], tol=1e-6)
            evals.append(n[0])
        assert len(set(evals)) > 2
        calls = [0]

        def f(x):
            calls[0] += 1
            return np.abs(x - CENTRE)

        golden_min(f, LO, HI, tol=1e-6)
        assert calls[0] == max(evals)

    def test_bracket_within_tol_reports_midpoint(self):
        lo = np.array([1.0, -2.0])
        hi = np.array([1.0 + 1e-11, 2.0])
        arg, val = golden_min(lambda x: np.square(x - 0.5), lo, hi)
        assert _same(arg[0], 0.5 * (lo[0] + hi[0]))
        assert _same(val[0], np.square(arg[0] - 0.5))
        a, v = scalar_golden(lambda x: np.square(x - 0.5), lo[1], hi[1])
        assert _same(arg[1], a) and _same(val[1], v)

    def test_scalar_bounds_give_floats(self):
        arg, val = golden_min(lambda x: np.square(x - 0.3), -1.0, 2.0)
        assert type(arg) is float and type(val) is float
        a, v = scalar_golden(lambda x: np.square(x - 0.3), -1.0, 2.0)
        assert _same(arg, a) and _same(val, v)

    def test_max_iter_caps_each_element(self):
        arg, _ = golden_min(lambda x: np.square(x - CENTRE), LO, HI, max_iter=7)
        for z in range(LO.size):
            a, _ = scalar_golden(lambda x, z=z: np.square(x - CENTRE[z]),
                                 LO[z], HI[z], max_iter=7)
            assert _same(arg[z], a), z


    @pytest.mark.parametrize("tol", (1e-10, 1e-8))
    def test_mixed_brackets_equal_scalar_recurrence(self, tol):
        evals = []
        for z in range(MIXED_LO.size):
            n = [0]

            def fz(x, z=z, n=n):
                n[0] += 1
                return float(_bowl(np.full(CENTRE.shape, x))[z])
            a, v = scalar_golden(fz, MIXED_LO[z], MIXED_HI[z], tol=tol)
            evals.append((n[0], a, v))
        counts = [e[0] for e in evals]
        assert min(counts) > 2 and len(set(counts)) > 2
        calls = [0]

        def f(x):
            calls[0] += 1
            return _bowl(x)

        arg, val = golden_min(f, MIXED_LO, MIXED_HI, tol=tol)
        assert calls[0] == max(counts)
        for z, (_, a, v) in enumerate(evals):
            assert _same(arg[z], a) and _same(val[z], v), z

    def test_0d_bounds_call_f_on_0d_arrays(self):
        args = []

        def f(x):
            args.append(x)
            return np.square(x - 0.3)

        got = golden_min(f, np.array(-1.0), np.array(2.0))
        assert all(type(x) is np.ndarray and x.shape == () for x in args)
        a, v = scalar_golden(lambda x: np.square(x - 0.3), -1.0, 2.0)
        assert _same(got[0], a) and _same(got[1], v)


class TestGoldenMinVec:
    def test_one_call_per_round_on_stacked_points(self):
        shapes = []

        def f(x):
            shapes.append(x.shape)
            return np.square(x - CENTRE)

        golden_min_vec(f, LO, HI)
        assert shapes[-1] == LO.shape
        assert set(shapes[:-1]) == {(2,) + LO.shape}

    def test_matches_two_call_loop(self):
        mu = np.array([0.3, 0.1, 1e-9, 0.25, 0.05, 0.2, 0.1])
        pi = np.array([0.1, 0.4, 0.3, 0.25, 0.2, 1e-12, 0.2])

        def objective(alpha):
            return np.logaddexp(0.0, -alpha) * mu + \
                np.logaddexp(0.0, alpha) * pi

        got = golden_min_vec(objective, -60.0 + 0 * mu, 60.0 + 0 * mu)
        want = two_call_golden_vec(objective, -60.0 + 0 * mu, 60.0 + 0 * mu)
        assert _same(got[0], want[0]) and _same(got[1], want[1])


    @pytest.mark.parametrize("lo, hi", ((MIXED_LO, MIXED_HI),
                                        (np.array(-3.0), np.array(4.0))),
                             ids=("mixed", "0-d"))
    def test_bracket_batches_match_two_call_loop(self, lo, hi):
        shapes = []

        def f(x):
            return np.cosh(x - 0.7) + np.abs(x - 0.3)

        def counted(x):
            shapes.append(x.shape)
            return f(x)

        got = golden_min_vec(counted, lo, hi)
        want = two_call_golden_vec(f, lo, hi)
        assert np.shape(got[0]) == lo.shape
        assert _same(got[0], want[0]) and _same(got[1], want[1])
        assert shapes[-1] == lo.shape
        assert set(shapes[:-1]) == {(2,) + lo.shape}


class TestBisectPredicate:
    def test_array_equals_scalar_bisection(self):
        roots = np.array([0.7, 0.2, -13.0, 1.0, 8.9, 6.0, 29.0])

        def pred(x):
            return x >= roots

        got = bisect_predicate(pred, LO, HI, tol=1e-12)
        for z in range(LO.size):
            want = scalar_bisect(lambda x, z=z: x >= roots[z], LO[z], HI[z],
                                 tol=1e-12)
            assert _same(got[z], want), z

    def test_pred_true_at_lo_reports_lo(self):
        lo = np.array([-1.0, 0.0, 2.0])
        hi = np.array([1.0, 1.0, 3.0])
        calls = [0]

        def pred(x):
            calls[0] += 1
            return x >= np.array([-5.0, 0.5, 2.0])

        got = bisect_predicate(pred, lo, hi)
        assert got[0] == -1.0 and got[2] == 2.0
        evals = [0]

        def pred1(x):
            evals[0] += 1
            return x >= 0.5

        assert _same(got[1], scalar_bisect(pred1, 0.0, 1.0))
        assert calls[0] == evals[0]

    def test_bracket_within_tol_reports_hi(self):
        lo = np.array([-1.0, 0.0])
        hi = np.array([-1.0 + 1e-13, 1.0])
        got = bisect_predicate(lambda x: x >= 0.25, lo, hi, tol=1e-12)
        assert got[0] == hi[0]
        assert _same(got[1], scalar_bisect(lambda x: x >= 0.25, 0.0, 1.0,
                                           tol=1e-12))

    def test_scalar_bounds_give_a_float(self):
        got = bisect_predicate(lambda x: x * x >= 2.0, 0.0, 2.0, tol=1e-12)
        assert type(got) is float
        assert _same(got, scalar_bisect(lambda x: x * x >= 2.0, 0.0, 2.0,
                                        tol=1e-12))


    @pytest.mark.parametrize("shift", (0.0, 1.5),
                             ids=("all_active_first", "some_true_at_lo"))
    def test_mixed_brackets_equal_scalar_bisection(self, shift):
        # shift moves some roots left of their lo, where pred(lo) holds
        roots = np.array([0.7, 0.2 + 5e-4, -13.0, 1.0 + 1e-8, 8.9, 6.0,
                          29.0])
        roots[::3] -= shift * (MIXED_HI - MIXED_LO)[::3]
        at_lo = MIXED_LO >= roots
        assert at_lo.any() == (shift > 0.0) and not at_lo.all()
        evals, want = [], []
        for z in range(MIXED_LO.size):
            n = [0]

            def pz(x, z=z, n=n):
                n[0] += 1
                return x >= roots[z]
            want.append(scalar_bisect(pz, MIXED_LO[z], MIXED_HI[z],
                                      tol=1e-12))
            evals.append(n[0])
        calls = [0]

        def pred(x):
            calls[0] += 1
            return x >= roots

        got = bisect_predicate(pred, MIXED_LO, MIXED_HI, tol=1e-12)
        assert calls[0] == max(evals) and len(set(evals)) > 2
        for z in range(MIXED_LO.size):
            assert _same(got[z], want[z]), z


class TestBisectRoot:
    @staticmethod
    def _levels(f, lo, hi, **kw):
        """The scalar loop's result and its number of halvings."""
        n = [0]

        def counted(x):
            n[0] += 1
            return f(x)
        return scalar_bisect_root(counted, lo, hi, **kw), n[0]

    @staticmethod
    def _lookahead(f, lo, hi, **kw):
        calls = []

        def batched(x):
            calls.append(x.shape)
            return f(x)
        return bisect_root(batched, lo, hi, **kw), calls

    def test_random_brackets_match_scalar_loop(self, rng):
        for _ in range(200):
            root = float(rng.uniform(-50.0, 50.0))
            lo = root - float(rng.uniform(1e-9, 100.0))
            hi = root + float(rng.uniform(1e-9, 100.0))
            tol = float(10.0 ** rng.uniform(-13, -2))

            def f(x, root=root):
                return np.tanh(root - np.asarray(x)) ** 3

            want, levels = self._levels(f, lo, hi, tol=tol)
            got, calls = self._lookahead(f, lo, hi, tol=tol)
            assert _same(got, want)
            # one call per four levels, each on the 15 midpoints of the tree
            assert len(calls) == math.ceil(levels / 4)
            assert set(calls) <= {(15,)}

    def test_non_monotone_function_follows_the_same_path(self):
        def f(x):
            x = np.asarray(x)
            return np.sin(7.0 * x) + 0.3 * np.cos(31.0 * x) - 0.1 * x

        for lo, hi in ((-3.0, 4.0), (0.1, 9.7), (-20.0, 1.0)):
            want, levels = self._levels(f, lo, hi, tol=1e-12)
            got, calls = self._lookahead(f, lo, hi, tol=1e-12)
            assert _same(got, want)
            assert len(calls) == math.ceil(levels / 4)

    def test_bracket_within_tol_makes_no_call(self):
        got, calls = self._lookahead(lambda x: 1.0 - x, 1.0, 1.0 + 1e-13,
                                     tol=1e-12)
        assert calls == [] and _same(got, 0.5 * (1.0 + (1.0 + 1e-13)))

    def test_max_iter_stops_mid_lookahead(self):
        def f(x):
            return 0.3 - np.asarray(x)

        for max_iter in (1, 6, 9):
            want, levels = self._levels(f, 0.0, 1.0, max_iter=max_iter)
            got, calls = self._lookahead(f, 0.0, 1.0, max_iter=max_iter)
            assert levels == max_iter and _same(got, want)
            assert len(calls) == math.ceil(max_iter / 4)


class TestScalarPredicateDescent:
    """Scalar bounds: bisect_predicate descends four levels per call of
    pred and returns the one-midpoint-per-call loop's result bit for bit."""

    @staticmethod
    def _both(pred, lo, hi, **kw):
        calls, n = [], [0]

        def batched(x):
            calls.append(np.shape(x))
            return pred(x)

        def counted(x):
            n[0] += 1
            return pred(x)

        got = bisect_predicate(batched, lo, hi, **kw)
        want = scalar_bisect(counted, lo, hi, **kw)
        return got, want, calls, n[0]

    def test_random_brackets_match_scalar_loop(self, rng):
        for _ in range(200):
            root = float(rng.uniform(-50.0, 50.0))
            lo = root - float(rng.uniform(1e-9, 100.0))
            hi = root + float(rng.uniform(1e-9, 100.0))
            tol = float(10.0 ** rng.uniform(-13, -2))
            got, want, calls, evals = self._both(
                lambda x, root=root: np.asarray(x) >= root, lo, hi, tol=tol)
            assert type(got) is float and _same(got, want)
            # pred(lo), then one call per four levels on 15 midpoints
            assert calls[0] == ()
            assert len(calls) == 1 + math.ceil((evals - 1) / 4)
            assert set(calls[1:]) <= {(15,)}

    def test_pred_true_at_lo_and_max_iter(self):
        got, want, calls, _ = self._both(lambda x: np.asarray(x) >= -1.0,
                                         0.0, 1.0)
        assert got == want == 0.0 and calls == [()]
        for max_iter in (1, 6, 9):
            got, want, calls, evals = self._both(
                lambda x: np.asarray(x) >= 0.3, 0.0, 1.0, max_iter=max_iter)
            assert evals == max_iter + 1 and _same(got, want)
            assert len(calls) == 1 + math.ceil(max_iter / 4)


class TestScalarBisectionCallers:
    """phi_inverse and the recipe's alpha* search give the results of the
    old one-midpoint-per-call loop bit for bit."""

    @staticmethod
    def _old_loop(monkeypatch):
        def old(pred, lo, hi, tol=1e-10, max_iter=200):
            return scalar_bisect(lambda x: bool(pred(np.asarray(x))), lo, hi,
                                 tol=tol, max_iter=max_iter)

        monkeypatch.setattr(duality, "bisect_predicate", old)
        monkeypatch.setattr(losses, "bisect_predicate", old)

    def test_phi_inverse(self, monkeypatch):
        betas = [0.01, 0.3, 0.5, 0.9, 1.0, 1.7, 3.0, 12.0]
        phis = [losses.catalog_loss(n) for n in losses.LOSS_NAMES]
        new = [duality.phi_inverse(phi, b) for phi in phis for b in betas]
        self._old_loop(monkeypatch)
        old = [duality.phi_inverse(phi, b) for phi in phis for b in betas]
        assert _same(new, old)

    def test_recipe_alpha_star(self, monkeypatch):
        def alpha_stars():
            return [losses.loss_from_f(
                losses.catalog_generator(n),
                losses.catalog_link(losses.RECIPE_LINKS[n])).alpha_star
                for n in ("hinge", "least_squares")]

        new = alpha_stars()
        self._old_loop(monkeypatch)
        assert _same(new, alpha_stars())
