"""The one 15-point search round against the scalar recurrences it batches.

The oracles below are the scalar 15-point recurrences of its two pick rules
(the last of the equal minima, the first true point), one call of f or pred
per point, and the k-point round with one call of f per point; the kernels
must reproduce them bit for bit, element by element.  The one-midpoint
bisection loop ``scalar_bisect`` stays as a reference the bisections must
land within ``tol`` of.  ``scalar_predicate`` and ``scalar_root`` write out
the deleted ``bisect_predicate`` and ``bisect_root`` for the frozen copies of
other test files.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdual import duality, losses, optimize
from fdual.optimize import SUBLEVEL_CAP, bracket_min, sublevel_end

K = 15  # interior points per bracket_min round


def scalar_bracket(f, lo, hi, tol=1e-10, max_iter=200):
    """The scalar k-point recurrence: f at the K points a + k h / 16, one
    call each; the bracket becomes the neighbours of the last least point."""
    a, b = float(lo), float(hi)
    for _ in range(max_iter):
        h = b - a
        if not h > tol:
            break
        xs = [a + k / (K + 1) * h for k in range(1, K + 1)]
        ys = [f(x) for x in xs]
        j = K - 1 - ys[::-1].index(min(ys))
        a, b = (a if j == 0 else xs[j - 1]), (b if j == K - 1 else xs[j + 1])
    m = 0.5 * (a + b)
    return m, f(m)


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


def scalar_first_true(pred, lo, hi, tol=1e-10, max_iter=200):
    """The scalar 15-point predicate recurrence: pred at a + k h / 16, one
    call each; the bracket becomes the first true point and its left
    neighbour, or [a + 15 h / 16, b] where none is true.  Returns the final
    bracket and the number of rounds."""
    a, b = float(lo), float(hi)
    rounds = 0
    while rounds < max_iter and b - a > tol:
        h = b - a
        xs = [a] + [a + k / (K + 1) * h for k in range(1, K + 1)] + [b]
        k = next((k for k in range(1, K + 1) if pred(xs[k])), K + 1)
        a, b = xs[k - 1], xs[k]
        rounds += 1
    return a, b, rounds


def scalar_sublevel_end(pred, anchor, sign):
    """sublevel_end's scalar recurrence: pred at the anchor, then outward at
    anchor + sign, doubling the distance (x -> anchor + 2 (x - anchor)) up
    to 40 times, one call each; the first point off pred and the anchor
    bound the 15-point search of pred (sign < 0) or not pred (sign > 0)."""
    if not pred(anchor):
        return anchor
    x = anchor + sign
    for _ in range(40):
        if not pred(x):
            break
        x = anchor + 2.0 * (x - anchor)
    else:
        if pred(x):
            return sign * math.inf
    if sign < 0.0:
        return scalar_first_true(pred, x, anchor, 1e-12)[1]
    return scalar_first_true(lambda y: not pred(y), anchor, x, 1e-12)[1]


def scalar_predicate(pred, lo, hi, tol=1e-10, max_iter=200):
    """The smallest x in [lo, hi] with pred(x) (lo where pred(lo) holds, the
    final b of the 15-point recurrence else) and the number of rounds."""
    if pred(float(lo)):
        return float(lo), 0
    return scalar_first_true(pred, lo, hi, tol, max_iter)[1:]


def scalar_root(f, lo, hi, tol=1e-10, max_iter=200):
    """The root of a decreasing f with f(lo) > 0 > f(hi): the midpoint of the
    final bracket of the recurrence for ``not f > 0``, and its rounds."""
    a, b, rounds = scalar_first_true(lambda x: not f(x) > 0.0, lo, hi, tol,
                                     max_iter)
    return 0.5 * (a + b), rounds


def search_bracket(pred, lo, hi, tol):
    """The final brackets (a, b) of the predicate search, whose b
    sublevel_end reports."""
    return optimize._search(pred, optimize._first_true, lo, hi, tol)


def min_at_tol(f, lo, hi, tol):
    """bracket_min's rounds to ``tol`` in place of its 1e-10: the final
    midpoints and their values."""
    a, b = optimize._search(f, optimize._last_min, lo, hi, tol)
    mid = 0.5 * (a + b)
    return mid, f(mid)


def rounds16(width, tol):
    """Rounds that cut width to tol by sixteenths; width / tol must not
    sit near a power of 16."""
    r = math.log(width / tol) / math.log(16.0)
    assert abs(r - round(r)) > 0.01
    return math.ceil(r)


def per_point_loop(f, lo, hi, tol=1e-10, max_iter=200):
    """bracket_min's array recurrence with one call of f per interior point
    instead of one stacked call."""
    a = np.asarray(lo, dtype=float).copy()
    b = np.asarray(hi, dtype=float).copy()
    for _ in range(max_iter):
        h = b - a
        live = h > tol
        if not live.any():
            break
        xs = [a + k / (K + 1) * h for k in range(1, K + 1)]
        ys = np.array([f(x) for x in xs])
        j = np.expand_dims(K - 1 - np.argmin(ys[::-1], axis=0), 0)
        ends = np.array([a] + xs + [b])  # x_0 = a, the K points, x_16 = b
        new_a, new_b = (np.take_along_axis(ends, j + d, 0)[0] for d in (0, 2))
        a, b = np.where(live, new_a, a), np.where(live, new_b, b)
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


def _rounds(evals):
    """bracket_min rounds of a scalar_bracket run that made evals calls."""
    return (evals - 1) // K


# The k-point kernel bracket_min replaced both golden-section kernels; the
# two classes keep their names and test it in their roles: the per-element
# grid-cell refinement (golden_min) and the stacked convex search
# (golden_min_vec).
class TestGoldenMin:
    def test_array_equals_scalar_recurrence(self):
        def f(x):
            return np.cosh(x - CENTRE) + 0.1 * np.square(np.square(x - CENTRE))

        arg, val = bracket_min(f, LO, HI)
        for z in range(LO.size):
            def fz(x, z=z):
                d = x - CENTRE[z]
                return float(np.cosh(d) + 0.1 * np.square(np.square(d)))
            a, v = scalar_bracket(fz, LO[z], HI[z])
            assert _same(arg[z], a) and _same(val[z], v), z

    def test_elements_converge_in_different_rounds(self):
        evals = []
        for z in range(LO.size):
            n = [0]

            def fz(x, z=z, n=n):
                n[0] += 1
                return abs(x - CENTRE[z])
            scalar_bracket(fz, LO[z], HI[z], tol=1e-6)
            evals.append(n[0])
        assert len(set(evals)) > 2
        calls = [0]

        def f(x):
            calls[0] += 1
            return np.abs(x - CENTRE)

        min_at_tol(f, LO, HI, 1e-6)
        assert calls[0] == _rounds(max(evals)) + 1

    def test_bracket_within_tol_reports_midpoint(self):
        lo = np.array([1.0, -2.0])
        hi = np.array([1.0 + 1e-11, 2.0])
        arg, val = bracket_min(lambda x: np.square(x - 0.5), lo, hi)
        assert _same(arg[0], 0.5 * (lo[0] + hi[0]))
        assert _same(val[0], np.square(arg[0] - 0.5))
        a, v = scalar_bracket(lambda x: np.square(x - 0.5), lo[1], hi[1])
        assert _same(arg[1], a) and _same(val[1], v)

    def test_scalar_bounds_give_floats(self):
        arg, val = bracket_min(lambda x: np.square(x - 0.3), -1.0, 2.0)
        assert isinstance(arg, float) and isinstance(val, float)
        a, v = scalar_bracket(lambda x: np.square(x - 0.3), -1.0, 2.0)
        assert _same(arg, a) and _same(val, v)

    def test_max_iter_caps_each_element(self, monkeypatch):
        monkeypatch.setattr(optimize, "_ROUNDS", 2)
        arg, _ = bracket_min(lambda x: np.square(x - CENTRE), LO, HI)
        for z in range(LO.size):
            a, _ = scalar_bracket(lambda x, z=z: np.square(x - CENTRE[z]),
                                  LO[z], HI[z], max_iter=2)
            assert _same(arg[z], a), z

    @pytest.mark.parametrize("tol", (1e-10, 1e-8))
    def test_mixed_brackets_equal_scalar_recurrence(self, tol):
        evals = []
        for z in range(MIXED_LO.size):
            n = [0]

            def fz(x, z=z, n=n):
                n[0] += 1
                return float(_bowl(np.full(CENTRE.shape, x))[z])
            a, v = scalar_bracket(fz, MIXED_LO[z], MIXED_HI[z], tol=tol)
            evals.append((n[0], a, v))
        counts = [e[0] for e in evals]
        assert min(counts) > 2 and len(set(counts)) > 2
        calls = [0]

        def f(x):
            calls[0] += 1
            return _bowl(x)

        arg, val = min_at_tol(f, MIXED_LO, MIXED_HI, tol)
        assert calls[0] == _rounds(max(counts)) + 1
        for z, (_, a, v) in enumerate(evals):
            assert _same(arg[z], a) and _same(val[z], v), z

    def test_0d_bounds_give_0d_results(self):
        shapes = []

        def f(x):
            shapes.append(np.shape(x))
            return np.square(x - 0.3)

        got = bracket_min(f, np.array(-1.0), np.array(2.0))
        assert set(shapes[:-1]) == {(K,)} and shapes[-1] == ()
        assert np.ndim(got[0]) == np.ndim(got[1]) == 0
        a, v = scalar_bracket(lambda x: np.square(x - 0.3), -1.0, 2.0)
        assert _same(got[0], a) and _same(got[1], v)

    def test_last_of_equal_minima(self):
        # one round on [0, 16] puts the points at 1, ..., 15; the least
        # value 0 is taken at 3 and at 10, so the bracket becomes [9, 11]
        # (the first of them would give [2, 4])
        def f(x):
            return np.where((x == 3.0) | (x == 10.0), 0.0, 1.0)

        arg, _ = min_at_tol(f, 0.0, 16.0, 2.5)
        assert arg == 10.0

    def test_right_end_is_kept_exactly(self):
        # a decreasing f moves every round to the last point: b stays b,
        # where a + 1.0 * (b - a) would not (-3 + 3.1 is 0.1 + 8e-17)
        lo = np.array([-3.0, -0.3, 1.1, -7.7])
        hi = np.array([0.1, 0.7, 2.3, 0.9])
        assert np.any(lo + (hi - lo) != hi)
        arg, val = bracket_min(lambda x: -x, lo, hi)
        assert np.all(arg <= hi) and np.all(hi - arg <= 1e-10)
        for z in range(lo.size):
            a, v = scalar_bracket(lambda x: -x, lo[z], hi[z])
            assert _same(arg[z], a) and _same(val[z], v), z

    @pytest.mark.parametrize("lo, hi", ((0.0, 1.0), (-5.0, 1.0),
                                        (-60.0, -2.0)))
    def test_plateau_ends_at_its_right_end(self, lo, hi):
        # flat on [lo, c] and rising after it: equal values move the search
        # right, to c, or to hi when the plateau reaches it
        c = min(0.5 * (lo + hi) + 0.1, hi)
        arg, _ = bracket_min(lambda x: np.maximum(x - c, 0.0), lo, hi)
        assert abs(arg - c) <= 1e-10
        arg, _ = bracket_min(lambda x: np.zeros_like(x), lo, hi)
        assert hi - 1e-10 <= arg <= hi

    @pytest.mark.parametrize("h0", (100.0, 2.0 * (50.0 + math.log(1e3)),
                                    1480.0, 0.02, 3.0))
    def test_calls_per_solve(self, h0):
        # each round shrinks every bracket to 2/16 of its width: a solve
        # takes ceil(log(h0 / tol) / log 8) rounds and one call for the
        # midpoints; the brackets here are not near a power of 8 of tol
        tol = 1e-10
        rounds = math.log(h0 / tol) / math.log(8.0)
        assert abs(rounds - round(rounds)) > 0.01
        calls = [0]

        def f(x):
            calls[0] += 1
            return np.square(x - 0.3 * h0)

        bracket_min(f, np.array([0.0, -h0 / 2]), np.array([h0, h0 / 2]))
        assert calls[0] == math.ceil(rounds) + 1

    @pytest.mark.parametrize("seed", range(3))
    def test_stack_equals_per_element_loop(self, seed):
        # a frozen element stops where it would alone: brackets of widths
        # 1e-9 to 1e3 take 2 to 15 rounds
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-100.0, 100.0, 40)
        hi = lo + 10.0 ** rng.uniform(-9.0, 3.0, 40)
        centre = lo + rng.uniform(-0.2, 1.2, 40) * (hi - lo)
        arg, val = bracket_min(lambda x: np.abs(x - centre) ** 1.5, lo, hi)
        for z in range(lo.size):
            a, v = bracket_min(lambda x, z=z: np.abs(x - centre[z]) ** 1.5,
                               lo[z:z + 1], hi[z:z + 1])
            assert _same(arg[z], a[0]) and _same(val[z], v[0]), z


class TestGoldenMinVec:
    def test_one_call_per_round_on_stacked_points(self):
        shapes = []

        def f(x):
            shapes.append(x.shape)
            return np.square(x - CENTRE)

        bracket_min(f, LO, HI)
        assert shapes[-1] == LO.shape
        assert set(shapes[:-1]) == {(K,) + LO.shape}

    def test_matches_per_point_loop(self):
        mu = np.array([0.3, 0.1, 1e-9, 0.25, 0.05, 0.2, 0.1])
        pi = np.array([0.1, 0.4, 0.3, 0.25, 0.2, 1e-12, 0.2])

        def objective(alpha):
            return np.logaddexp(0.0, -alpha) * mu + \
                np.logaddexp(0.0, alpha) * pi

        got = bracket_min(objective, -60.0 + 0 * mu, 60.0 + 0 * mu)
        want = per_point_loop(objective, -60.0 + 0 * mu, 60.0 + 0 * mu)
        assert _same(got[0], want[0]) and _same(got[1], want[1])
        # against the closed form log(mu / pi), as the criteria's 1e-7
        np.testing.assert_allclose(got[0], np.log(mu / pi), rtol=0.0,
                                   atol=1e-7)

    @pytest.mark.parametrize("lo, hi", ((MIXED_LO, MIXED_HI),
                                        (np.array(-3.0), np.array(4.0))),
                             ids=("mixed", "0-d"))
    def test_bracket_batches_match_per_point_loop(self, lo, hi):
        shapes = []

        def f(x):
            return np.cosh(x - 0.7) + np.abs(x - 0.3)

        def counted(x):
            shapes.append(x.shape)
            return f(x)

        got = bracket_min(counted, lo, hi)
        want = per_point_loop(f, lo, hi)
        assert np.shape(got[0]) == lo.shape
        assert _same(got[0], want[0]) and _same(got[1], want[1])
        assert shapes[-1] == lo.shape
        assert set(shapes[:-1]) == {(K,) + lo.shape}


class TestOneSearchRound:
    """What both pick rules share: a stack gives each element its bits
    alone, every returned bracket keeps the predicate's contract, a round
    cuts the bracket to 1/16 (predicate) and ``_ROUNDS`` caps the rounds."""

    @pytest.mark.parametrize("mode", ("minimize", "predicate"))
    @pytest.mark.parametrize("seed", range(3))
    def test_stack_equals_per_element_loop(self, mode, seed):
        # widths 1e-13 to 1e3 (some already within tol); a quarter of the
        # predicate roots lie left of lo, where every point is true; each
        # element alone is searched on 0-d bounds
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-100.0, 100.0, 40)
        hi = lo + 10.0 ** rng.uniform(-13.0, 3.0, 40)
        centre = lo + rng.uniform(-0.3, 1.0, 40) * (hi - lo)
        if mode == "minimize":
            # arithmetic only: numpy's pow may round a 0-d value apart from
            # an array's, so the objective itself would differ
            def search(c, lo, hi):
                return min_at_tol(lambda x: np.abs(x - c) + np.square(x - c),
                                  lo, hi, 1e-12)
        else:
            def search(c, lo, hi):
                return search_bracket(lambda x: x >= c, lo, hi, 1e-12)
        got = search(centre, lo, hi)
        for z in range(lo.size):
            alone = search(centre[z], lo[z], hi[z])
            assert _same(np.asarray(got)[..., z], alone), z
        if mode == "predicate":
            assert (centre <= lo).any() and not (centre <= lo).all()

    @pytest.mark.parametrize("seed", range(3))
    def test_returned_bracket_contract(self, seed):
        # for any predicate true at hi, monotone or not: pred(b) holds,
        # pred(a) fails unless a is lo, and b - a <= tol
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-20.0, 20.0, 60)
        hi = lo + 10.0 ** rng.uniform(-11.0, 2.0, 60)
        freq = rng.uniform(0.5, 40.0, 60)

        def pred(x):
            wave = np.sin(freq * x) + 0.3 * np.cos(3.1 * freq * x) - 0.1
            return (wave <= 0.0) | (x >= hi)

        tol = 1e-12
        a, b = search_bracket(pred, lo, hi, tol)
        assert pred(b).all() and not (pred(a) & (a != lo)).any()
        assert (b - a <= tol).all() and (lo <= a).all() and (b <= hi).all()

    @pytest.mark.parametrize("width, tol", ((1.0, 1e-12), (3.0, 1e-12),
                                            (100.0, 1e-12), (0.02, 1e-12),
                                            (2.0 ** 21, 1e-6)))
    def test_calls_per_solve(self, width, tol):
        # ceil(log16(width / tol)) rounds of one call on (15,) + shape,
        # wherever the root lies; a bracket must not be so far out that tol
        # is below the spacing of its floats
        roots = np.array([0.3, 1.0, 0.01, 0.5 + 1e-7]) * width
        lo = np.zeros(4)
        shapes = []

        def pred(x):
            shapes.append(np.shape(x))
            return x >= roots

        got = search_bracket(pred, lo, lo + width, tol)[1]
        assert set(shapes) == {(K, 4)}
        assert len(shapes) == rounds16(width, tol)
        assert np.all((got >= roots) & (got - roots <= tol))

    def test_search_ends_at_a_fixed_point(self):
        # tol is below the spacing of the floats near 1e6 (1.2e-10), so the
        # bracket stops shrinking: 15 rounds, the last of which moves no
        # bracket, rather than _ROUNDS = 200 rounds
        calls = [0]

        def pred(x):
            calls[0] += 1
            return x >= 1e6 + 0.3

        got = search_bracket(pred, 0.0, 2e6, 1e-12)[1]
        assert got == 1e6 + 0.3 and calls[0] == 15
        # stacked with a bracket that still moves after it stopped (16
        # rounds from width 1e7), both keep their bits
        both = search_bracket(lambda x: x >= np.array([1e6 + 0.3, 0.1]),
                              np.array([0.0, -1e7]), np.array([2e6, 1.0]),
                              1e-12)[1]
        alone = search_bracket(lambda x: x >= 0.1, -1e7, 1.0, 1e-12)[1]
        assert _same(both, [got, alone])

    def test_max_iter_caps_rounds(self, monkeypatch):
        for max_iter in (1, 2, 3):
            monkeypatch.setattr(optimize, "_ROUNDS", max_iter)
            calls = [0]

            def pred(x):
                calls[0] += 1
                return x >= 0.3

            got = search_bracket(pred, np.zeros(2), np.ones(2), 1e-10)[1]
            want, rounds = scalar_first_true(lambda x: x >= 0.3, 0.0, 1.0,
                                             max_iter=max_iter)[1:]
            assert rounds == max_iter and calls[0] == max_iter
            assert _same(got, [want, want])


# TestBisectPredicate, TestBisectRoot and TestScalarPredicateDescent keep
# their names, as TestGoldenMin does, and test the predicate round in the
# roles of the deleted functions: the array search (whose b sublevel_end
# reports), the fixed point's search and the search on 0-d bounds.
class TestBisectPredicate:
    def test_array_equals_scalar_bisection(self):
        # each element gets the scalar recurrence's bits, within tol of the
        # one-midpoint bisection
        roots = np.array([0.7, 0.2, -13.0, 1.0, 8.9, 6.0, 29.0])
        got = search_bracket(lambda x: x >= roots, LO, HI, 1e-12)[1]
        for z in range(LO.size):
            def pz(x, z=z):
                return x >= roots[z]
            assert _same(got[z], scalar_first_true(pz, LO[z], HI[z],
                                                   1e-12)[1]), z
            assert abs(got[z] - scalar_bisect(pz, LO[z], HI[z],
                                              tol=1e-12)) <= 1e-12, z

    def test_bracket_within_tol_reports_hi(self):
        lo = np.array([-1.0, 0.0])
        hi = np.array([-1.0 + 1e-13, 1.0])
        got = search_bracket(lambda x: x >= 0.25, lo, hi, 1e-12)[1]
        assert got[0] == hi[0]
        assert _same(got[1], scalar_first_true(lambda x: x >= 0.25, 0.0,
                                               1.0, 1e-12)[1])

    @pytest.mark.parametrize("shift", (0.0, 1.5),
                             ids=("all_active_first", "some_true_at_lo"))
    def test_mixed_brackets_equal_scalar_bisection(self, shift):
        # shift moves some roots left of their lo, where every point is true
        roots = np.array([0.7, 0.2 + 5e-4, -13.0, 1.0 + 1e-8, 8.9, 6.0,
                          29.0])
        roots[::3] -= shift * (MIXED_HI - MIXED_LO)[::3]
        at_lo = MIXED_LO >= roots
        assert at_lo.any() == (shift > 0.0) and not at_lo.all()
        want = [scalar_first_true(lambda x, z=z: x >= roots[z], MIXED_LO[z],
                                  MIXED_HI[z], 1e-12)[1:]
                for z in range(MIXED_LO.size)]
        rounds = [r for _, r in want]
        calls = [0]

        def pred(x):
            calls[0] += 1
            return x >= roots

        got = search_bracket(pred, MIXED_LO, MIXED_HI, 1e-12)[1]
        assert calls[0] == max(rounds) and len(set(rounds)) > 2
        for z, (b, _) in enumerate(want):
            assert _same(got[z], b), z


class TestBisectRoot:
    @staticmethod
    def _counted(f):
        calls = []

        def batched(x):
            calls.append(np.shape(x))
            return f(x)
        return batched, calls

    def test_random_brackets_match_scalar_loop(self, rng):
        # the fixed point's search, inf {x : f(x) <= 0} from 0, for a
        # decreasing f: the scalar recurrence's bits, the first point at or
        # right of the root, from one call at 0, the column and the rounds
        for _ in range(200):
            root = float(rng.uniform(-50.0, 50.0))

            def f(x, root=root):
                return np.tanh(root - np.asarray(x)) ** 3

            batched, calls = self._counted(f)
            got = duality._sublevel_inf(batched, 0.0, np.array(0.0))
            inside = f(0.0) <= 0.0
            want = scalar_sublevel_end(lambda x: (f(x) <= 0.0) == inside,
                                       0.0, -1.0 if inside else 1.0)
            assert type(got) is float and _same(got, want)
            assert 0.0 <= got - root <= 1e-12
            assert calls[:2] == [(), (42,)] and set(calls[2:]) <= {(15,)}

    def test_non_monotone_function_keeps_the_contract(self, rng):
        # the final bracket is within tol and keeps f(a) > 0 and f(b) <= 0
        # (a sign change) unless b is hi
        def f(x):
            x = np.asarray(x)
            return np.sin(7.0 * x) + 0.3 * np.cos(31.0 * x) - 0.1 * x

        brackets = [(lo, hi) for lo, hi in rng.uniform(-20.0, 20.0, (80, 2))
                    if lo < hi and f(lo) > 0.0 > f(hi)]
        assert len(brackets) > 10
        for lo, hi in brackets:
            a, b = search_bracket(lambda x: ~(f(x) > 0.0), lo, hi, 1e-12)
            assert b - a <= 1e-12
            assert f(a) > 0.0 and (b == hi or not f(b) > 0.0)
            assert _same(b, scalar_first_true(lambda x: not f(x) > 0.0, lo,
                                              hi, 1e-12)[1])

    def test_bracket_within_tol_makes_no_call(self):
        batched, calls = self._counted(lambda x: 1.0 - np.asarray(x) <= 0.0)
        a, b = search_bracket(batched, 1.0, 1.0 + 1e-13, 1e-12)
        assert calls == [] and a == 1.0 and b == 1.0 + 1e-13

    def test_max_iter_caps_rounds(self, monkeypatch):
        def pred(x):
            return ~(0.3 - np.asarray(x) > 0.0)

        for max_iter in (1, 2, 3):
            monkeypatch.setattr(optimize, "_ROUNDS", max_iter)
            batched, calls = self._counted(pred)
            got = search_bracket(batched, 0.0, 1.0, 1e-10)
            a, b, rounds = scalar_first_true(lambda x: bool(pred(x)), 0.0,
                                             1.0, max_iter=max_iter)
            assert rounds == max_iter and _same(got, [a, b])
            assert len(calls) == max_iter


class TestScalarPredicateDescent:
    """Scalar bounds: the search runs a 0-d stack of one, one call of pred
    per round on its 15 points."""

    def test_random_brackets_match_scalar_loop(self, rng):
        for _ in range(200):
            root = float(rng.uniform(-50.0, 50.0))
            lo = root - float(rng.uniform(1e-9, 100.0))
            hi = root + float(rng.uniform(1e-9, 100.0))
            tol = float(10.0 ** rng.uniform(-13, -2))
            calls = []

            def pred(x, root=root):
                calls.append(np.shape(x))
                return np.asarray(x) >= root

            got = search_bracket(pred, lo, hi, tol)[1]
            n = len(calls)
            want, rounds = scalar_first_true(pred, lo, hi, tol)[1:]
            assert np.ndim(got) == 0 and _same(got, want)
            assert abs(got - scalar_bisect(pred, lo, hi, tol=tol)) <= tol
            # one call per round on its 15 points
            assert n == rounds and set(calls[:n]) <= {(15,)}


class TestSublevelEnd:
    # per element: an anchor, a direction and the distance out to the run's
    # end (negative: pred fails at the anchor; inf: pred holds to the cap)
    ELEMENT = st.tuples(
        st.floats(-100.0, 100.0), st.sampled_from((-1.0, 1.0)),
        st.one_of(st.floats(-5.0, 5.0), st.floats(0.0, 2.0 * SUBLEVEL_CAP),
                  st.just(math.inf)))

    @given(st.lists(ELEMENT, min_size=1, max_size=6))
    def test_matches_scalar_loop_per_element(self, elements):
        anchor, sign, dist = map(np.array, zip(*elements))
        end = anchor + sign * dist
        shapes = []

        def pred(x):  # within the run: between the anchor side and its end
            shapes.append(x.shape)
            return sign * (end - x) >= 0.0

        got = sublevel_end(pred, anchor, sign)
        assert shapes[0] == (42, anchor.size)
        assert set(shapes[1:]) <= {(15, anchor.size)}
        for z, (a, s, _) in enumerate(elements):
            want = scalar_sublevel_end(
                lambda x: s * (end[z] - x) >= 0.0, a, s)
            assert _same(got[z], want)
            if dist[z] == math.inf:
                assert got[z] == s * math.inf

    # one anchor, a direction and the distance out to the run's end, as in
    # ELEMENT; the examples cover both signs, an anchor off pred, a run past
    # SUBLEVEL_CAP and a stalled bracket (1e-12 is below the spacing at 1e6)
    @settings(max_examples=20)
    @given(st.floats(-100.0, 100.0), st.sampled_from((-1.0, 1.0)),
           st.one_of(st.floats(-5.0, 5.0),
                     st.floats(0.0, 2.0 * SUBLEVEL_CAP), st.just(math.inf)))
    @example(2.5, -1.0, 3.25)
    @example(-7.0, 1.0, -0.5)
    @example(0.0, -1.0, math.inf)
    @example(1e6, 1.0, 0.3)
    @example(1e6, -1.0, 7.1)
    def test_scalar_anchor_equals_stack_of_one(self, anchor, sign, dist):
        end, calls = anchor + sign * dist, []

        def pred(x):
            calls.append(x.copy())
            return sign * (end - x) >= 0.0

        got = sublevel_end(pred, anchor, sign)
        n = len(calls)
        stack = sublevel_end(pred, np.array([anchor]), np.array([sign]))
        assert isinstance(got, float) and _same(got, stack[0])
        # the same calls of pred, on the same points
        assert [x.shape for x in calls[:n]] == [(42,)] + [(15,)] * (n - 1)
        assert len(calls) == 2 * n
        assert all(_same(x, y[:, 0]) for x, y in zip(calls, calls[n:]))
        assert n <= 22  # ceil(log16(2**41 / 1e-12)) rounds at most
        if dist == math.inf:
            assert got == sign * math.inf

    def test_scalar_anchor_returns_a_float(self):
        got = sublevel_end(lambda x: x <= 3.0, 0.0, 1.0)
        assert isinstance(got, float) and abs(got - 3.0) <= 1e-12
        assert sublevel_end(lambda x: x >= 1.0, 0.0, -1.0) == 0.0
        assert sublevel_end(lambda x: x <= 1.0, 0.0, -1.0) == -math.inf


class TestScalarBisectionCallers:
    """phi_inverse and the recipe's alpha* search land within their search's
    tol (1e-12) of the scalar marching loops, one midpoint per call, that
    sublevel_end replaced."""

    @staticmethod
    def _phi_inverse(phi, beta):
        if beta < phi.inf_value:
            return math.inf
        a_star = phi.alpha_star
        if math.isfinite(a_star) and phi(a_star) <= beta:
            anchor = a_star
        else:
            anchor = (a_star if math.isfinite(a_star) else 0.0) + 1.0
            step = 1.0
            while phi(anchor) > beta:
                anchor += step
                step *= 2.0
                if anchor > SUBLEVEL_CAP:
                    return math.inf
        left, step = anchor - 1.0, 2.0
        while phi(left) <= beta:
            left = anchor - step
            step *= 2.0
            if anchor - left > SUBLEVEL_CAP:
                return -math.inf
        return scalar_bisect(lambda x: phi(x) <= beta, left, anchor,
                             tol=1e-12)

    def test_phi_inverse(self):
        betas = [0.01, 0.3, 0.5, 0.9, 1.0, 1.7, 3.0, 12.0]
        for phi in map(losses.catalog_loss, losses.LOSS_NAMES):
            new = duality.phi_inverse(phi, betas)
            old = [self._phi_inverse(phi, b) for b in betas]
            assert all(math.isinf(x) and x == y or abs(x - y) <= 1e-12
                       for x, y in zip(new, old))

    def test_recipe_alpha_star(self):
        for n in ("hinge", "least_squares"):
            f = losses.catalog_generator(n)
            g = losses.catalog_link(losses.RECIPE_LINKS[n])
            psi = duality.psi_from_f(f)
            u_star, beta2 = psi.u_star, psi.beta2
            hi = 1.0
            while g(hi + u_star) < beta2:
                hi *= 2.0
            old = scalar_bisect(lambda x: g(x + u_star) >= beta2, 0.0, hi,
                                tol=1e-12)
            new = losses.loss_from_f(f, g).alpha_star
            assert g(u_star) < beta2 and abs(new - old) <= 1e-12
