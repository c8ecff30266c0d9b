"""The one per-element minimization kernel, ``optimize.weighted_min``, and
its thin wrappers ``risk.min_per_bin``, ``losses.f_from_loss`` and the ERM
gamma step.

The oracles below are frozen copies of the three routines the kernel
replaced: the forward map's convex search with edge doubling, its dense grid
scan with refinement, and the ERM gamma step.  They call today's search
kernel ``bracket_min`` (tested against its scalar recurrence in
``test_optimize.py``), and the new routes must reproduce them bit for bit;
the results are also checked against the closed forms.
"""

import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fdual import losses, optimize
from fdual.errors import (FdualError, InfiniteObjective, NanObjective,
                          Unbounded)
from fdual.erm import (FunctionClassSpec, _gamma_step, _table_counts,
                       _threshold_weights, empirical_phi_risk,
                       generate_samples, joint_erm, threshold_grid)
from fdual.duality import psi_from_f
from fdual.losses import (LOSS_NAMES, SurrogateLoss, catalog_generator,
                          catalog_loss, check_calibration_general,
                          f_from_loss, induced_generator)
from fdual.measures import (BinnedSource, JointMeasure, Priors,
                            TableQuantizer, random_measure)
from fdual.optimize import bracket_min, weighted_min
from fdual.risk import min_per_bin, optimal_phi_risk, phi_risk

U_SETS = (np.geomspace(1e-2, 1e2, 21), np.geomspace(1e-6, 1e6, 301),
          np.array([0.0]))


def old_min_objective_convex(phi, u_arr, bracket=50.0):
    b = bracket
    prev = None
    for _ in range(12):
        lo = np.full_like(u_arr, -b)
        hi = np.full_like(u_arr, b)

        def objective(alpha):
            return phi(-alpha) + phi(alpha) * u_arr

        arg, val = bracket_min(objective, lo, hi)
        near_edge = np.any(b - np.abs(arg) < 1e-6 * b)
        if not near_edge:
            return val
        if prev is not None and np.all(np.abs(val - prev)
                                       <= 1e-12 * (1.0 + np.abs(prev))):
            return val
        prev = val
        b *= 2.0
    raise Unbounded("objective of the forward map diverges to -inf")


def old_min_objective_dense(phi, u_arr, bracket=50.0):
    grid = np.linspace(-bracket, bracket, 100_000)
    phi_pos = phi(grid)
    phi_neg = phi(-grid)
    lo, hi, best = (np.empty_like(u_arr) for _ in range(3))
    vals = np.empty_like(grid)
    for k, uu in enumerate(u_arr):
        np.multiply(phi_pos, uu, out=vals)
        vals += phi_neg
        i = int(np.argmin(vals))
        lo[k] = grid[max(i - 1, 0)]
        hi[k] = grid[min(i + 1, len(grid) - 1)]
        best[k] = vals[i]
    _, refined = bracket_min(lambda a: phi(-a) + phi(a) * u_arr, lo, hi)
    return np.where(refined < best, refined, best)


def old_f_from_loss(phi, u_arr):
    if phi.convex:
        return -old_min_objective_convex(phi, u_arr)
    return -old_min_objective_dense(phi, u_arr)


def old_gamma_step(phi, w_pos, w_neg, bound):
    def objective(alpha):
        return phi(alpha) * w_pos + phi(-alpha) * w_neg

    lo = np.full(w_pos.shape, -bound)
    hi = np.full(w_pos.shape, bound)
    gam, val = bracket_min(objective, lo, hi)
    empty = (w_pos + w_neg) == 0.0
    gam = np.where(empty, 0.0, gam)
    val = np.where(empty, 0.0, val)
    return gam, val


# e^(a/40) + u e^(-a/40) is least at a = 20 log u, off [-50, 50] for small
# or large u: the forward map must widen its bracket
SLOW = SurrogateLoss(lambda a: np.exp(-np.asarray(a) / 40.0), "slow",
                     convex=True, decreasing=True, alpha_star=math.inf,
                     inf_value=0.0)
CONVEX_LOSSES = [phi for phi in map(catalog_loss, LOSS_NAMES)
                 if phi.convex] + [SLOW]


def _same(x, y):
    return np.asarray(x).tobytes() == np.asarray(y).tobytes()


def _nan_loss(convex):
    """Hinge, except NaN for 0.5 < |a| < 3 (finite at ERM's +-4)."""
    def fn(a):
        bad = (np.abs(a) > 0.5) & (np.abs(a) < 3.0)
        return np.where(bad, np.nan, np.maximum(0.0, 1.0 - a))
    return SurrogateLoss(fn, "nan_hinge", convex=convex, decreasing=True,
                         alpha_star=1.0, inf_value=0.0)


class TestForwardMapOracle:
    # sym_kl at u = 0 has infimum -inf, so f(0) = +inf (test below)
    @pytest.mark.parametrize("name,k", [
        (name, k) for name in LOSS_NAMES for k in range(len(U_SETS))
        if not (name == "sym_kl" and k == 2)])
    def test_matches_old_routes_bit_for_bit(self, name, k):
        phi = catalog_loss(name)
        us = U_SETS[k]
        assert _same(f_from_loss(phi, us), old_f_from_loss(phi, us))
        assert f_from_loss(phi, float(us[-1])) == \
            old_f_from_loss(phi, us[-1:])[0]

    @pytest.mark.parametrize("name,k", [
        (name, k) for name in LOSS_NAMES for k in range(len(U_SETS))
        if not (name == "sym_kl" and k == 2)])
    def test_values_match_closed_form_generators(self, name, k):
        # within 1e-9 (1 + |f|), tighter than criterion 02's 1e-8
        us = U_SETS[k]
        want = catalog_generator(name)(us)
        got = f_from_loss(catalog_loss(name), us)
        assert np.all(np.abs(got - want) <= 1e-9 * (1.0 + np.abs(want)))

    def test_hinge_plateau_leaves_the_bracket_edge(self):
        # at u = 0 the objective max(0, 1 + a) is least on [-50, -1]; the
        # search ends at the plateau's right end, off the edge, so the
        # bracket never widens and the numeric route raises no Unbounded
        hinge = catalog_loss("hinge")
        args, vals, at_edge = weighted_min(hinge, 0.0, 1.0, 50.0)
        assert not at_edge.any() and vals[()] == 0.0
        assert abs(args[()] + 1.0) <= 1e-9
        assert f_from_loss(hinge, 0.0) == 0.0
        psi = psi_from_f(induced_generator(hinge))
        assert abs(psi.beta2 - 2.0) <= 1e-9

    def test_sym_kl_at_zero_is_infinite(self):
        # inf_a e^a + a - 1 is -inf: only the zero weight's term is left, so
        # f(0) = -inf phi = +inf, the closed form's value; the other
        # elements of the stack keep finite values
        sym_kl = catalog_loss("sym_kl")
        assert f_from_loss(sym_kl, 0.0) == catalog_generator("sym_kl")(0.0)
        got = f_from_loss(sym_kl, np.array([0.0, 0.5, 2.0]))
        assert got[0] == math.inf
        want = catalog_generator("sym_kl")(np.array([0.5, 2.0]))
        assert np.all(np.abs(got[1:] - want) <= 1e-9 * (1.0 + np.abs(want)))

    def test_edge_doubling_matches_old_route(self):
        # the minimizer of SLOW is at a = 20 log u = -138 for u = 1e-3: the
        # bracket doubles 50 -> 100 -> 200 before it is inside
        us = np.array([1e-3, 0.5, 2.0])
        _, _, at_edge = weighted_min(SLOW, us, 1.0, 50.0)
        assert at_edge.tolist() == [True, False, False]
        got = f_from_loss(SLOW, us)
        assert _same(got, old_f_from_loss(SLOW, us))
        np.testing.assert_allclose(got, -2.0 * np.sqrt(us), rtol=1e-9)


class TestPerElementBracket:
    """Each element of a stack widens its own bracket, so f(u) does not
    depend on what else is in the stack."""

    @pytest.mark.parametrize("phi", CONVEX_LOSSES, ids=lambda p: p.name)
    @given(us=st.lists(st.one_of(
        st.just(0.0), st.floats(-30.0, 30.0).map(lambda e: 10.0 ** e)),
        min_size=2, max_size=6))
    # sym_kl's bracket for f(0) = +inf widens eleven times; the other
    # element's must not follow it
    @example(us=[0.0, 0.01135733358343105])
    def test_stack_equals_each_element_alone(self, phi, us):
        got = f_from_loss(phi, np.array(us))
        assert _same(got, [f_from_loss(phi, u) for u in us])

    @pytest.mark.parametrize("name,solves", [
        ("sym_kl", 212), ("exponential", 202), ("logistic", 202),
        ("hinge", 201)])
    def test_only_widening_elements_are_solved_again(self, monkeypatch,
                                                     name, solves):
        seen, kernel = [], losses.weighted_min

        def counted(phi, u, *rest):
            seen.append(np.size(u))
            return kernel(phi, u, *rest)

        monkeypatch.setattr(losses, "weighted_min", counted)
        f_from_loss(catalog_loss(name),
                    np.append(0.0, np.geomspace(1e-3, 1e3, 200)))
        assert sum(seen) == solves


class TestGammaStepOracle:
    def test_threshold_weights(self, src_default):
        s = generate_samples(src_default, 300, 11)
        w_pos, w_neg = _threshold_weights(s, threshold_grid(src_default, 51))
        for name in ("hinge", "exponential", "logistic", "least_squares",
                     "sym_kl"):
            phi = catalog_loss(name)
            got = _gamma_step(phi, w_pos.ravel(), w_neg.ravel(), 4.0)
            want = old_gamma_step(phi, w_pos.ravel(), w_neg.ravel(), 4.0)
            assert _same(got[0], want[0]) and _same(got[1], want[1])

    def test_table_weights_with_empty_letters(self):
        src = BinnedSource([0.5, 0.3, 0.15, 0.05], [0.05, 0.15, 0.3, 0.5],
                           Priors(0.5, 0.5))
        s = generate_samples(src, 500, 3)
        c_pos, c_neg = _table_counts(s, src.n_bins)
        rows = np.zeros((4, 3))
        rows[[0, 1, 2, 3], [0, 0, 2, 2]] = 1.0  # letter 1 gets no mass
        w_pos, w_neg = c_pos @ rows / s.n, c_neg @ rows / s.n
        assert w_pos[1] == w_neg[1] == 0.0
        for name in ("hinge", "exponential", "logistic"):
            phi = catalog_loss(name)
            got = _gamma_step(phi, w_pos, w_neg, 4.0)
            want = old_gamma_step(phi, w_pos, w_neg, 4.0)
            assert _same(got[0], want[0]) and _same(got[1], want[1])
            assert got[0][1] == got[1][1] == 0.0


def _stack_measures(rng):
    """Random measures of 1 to 8 bins, then the plateau cases: mu == pi
    (hinge's flat [-1, 1]), zero_one's half-lines and one-zero-mass bins."""
    ms = [random_measure(rng, 1 + k % 8) for k in range(16)]
    half = Priors(0.5, 0.5)
    ms += [JointMeasure([0.25, 0.25], [0.25, 0.25], half),
           JointMeasure([0.2, 0.3], [0.4, 0.1], half),
           JointMeasure([0.3, 0.2 - 1e-12, 1e-12], [0.3, 0.1, 0.1], half)]
    return ms


class TestStack:
    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_stack_equals_per_element_loop(self, name, rng):
        # every element follows its own recurrence: one min_per_bin on all
        # bins of all measures gives each bin's bits alone; the two bins
        # with one zero mass (b = 50 + 690.8) take a round more than the rest
        phi = catalog_loss(name)
        ms = _stack_measures(rng)
        mu = np.concatenate([m.mu for m in ms] + [[0.0, 0.5]])
        pi = np.concatenate([m.pi for m in ms] + [[0.5, 0.0]])
        args, vals = min_per_bin(phi, mu, pi)
        for z in range(mu.size):
            a, v = min_per_bin(phi, mu[z:z + 1], pi[z:z + 1])
            assert _same(args[z], a[0]) and _same(vals[z], v[0]), (name, z)


class TestKernel:
    @staticmethod
    def _grid_sizes(sizes):
        """zero_one, recording the size of every lattice its closed form
        gets (objective evaluations come as (2,) + shape, the lattice 1-d)."""
        zero_one = catalog_loss("zero_one")

        def fn(a):
            if a.ndim == 1:
                sizes.append(a.size)
            return zero_one.fn(a)
        return replace(zero_one, fn=fn)

    def test_lattice_is_evaluated_once_per_step(self):
        # every bin has 50 <= b < 64, so one step 2**-8 and one call on the
        # widest window, b = 50 + log 4; the forward map's u share b = 50
        sizes = []
        phi = self._grid_sizes(sizes)
        mu = np.array([0.1, 0.2, 0.1, 0.4])
        pi = np.array([0.2, 0.4, 0.3, 0.1])
        min_per_bin(phi, mu, pi)
        assert sizes == [2 * math.ceil((50.0 + math.log(4.0)) * 2**8) + 1]
        sizes.clear()
        f_from_loss(phi, np.geomspace(1e-2, 1e2, 21))
        assert sizes == [2 * 50 * 2**8 + 1]

    def test_two_octaves_cost_two_lattice_calls(self):
        # b in (32, 64] has step 2**-8, b in (64, 128] step 2**-7; the
        # widest of each octave sets its window
        sizes = []
        phi = self._grid_sizes(sizes)
        b = np.array([50.0, 100.0, 64.0, 70.5, 33.0])
        weighted_min(phi, np.full(5, 0.3), np.full(5, 0.7), b)
        assert sorted(sizes) == [2 * 100 * 2**7 + 1, 2 * 64 * 2**8 + 1]

    @pytest.mark.parametrize("b", (1e6, 2.0**20, 2.0**20 + 1.0, 5e-3,
                                   1e-320))
    def test_window_is_bounded_for_any_half_width(self, b):
        # at most 2**(14 + 1) + 1 points, whatever b; the lattice reaches
        # less than one step past b (the step is at least 2**-1074)
        sizes = []
        phi = self._grid_sizes(sizes)
        args, vals, _ = weighted_min(phi, [0.3], [0.7], [b])
        step = 2.0 ** max(math.ceil(math.log2(b)) - 14, -1074)
        assert len(sizes) == 1 and sizes[0] <= 2**15 + 1
        assert vals == 0.3 and np.abs(args) < b + step

    @pytest.mark.parametrize("name", ("hinge", "zero_one"))
    def test_empty_stack(self, name):
        # no element: no lattice, no search round, three empty results
        args, vals, at_edge = weighted_min(catalog_loss(name), [], [], [])
        assert args.shape == vals.shape == at_edge.shape == (0,)

    def test_at_edge_marks_minimizers_on_the_bracket(self):
        phi = catalog_loss("exponential")
        args, vals, at_edge = weighted_min(phi, [0.0, 1.0], 1.0, 50.0)
        assert at_edge.tolist() == [True, False]
        assert args[0] == pytest.approx(-50.0, abs=1e-6)
        assert vals[1] == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("name", ("exponential", "zero_one"))
    def test_one_loss_call_per_objective_evaluation(self, name, monkeypatch):
        # bracket_min (on [-b, b] or on the best grid cells) evaluates the
        # objective; each evaluation calls phi once on (2,) + its shape.  The
        # widest bracket is 2 b = 102.8 (convex) or 2**-7 (two lattice cells
        # of step 2**-8): ceil(log(h0 / 1e-10) / log 8) rounds and the
        # midpoints
        solve_calls = {"exponential": 15, "zero_one": 10}[name]
        base = catalog_loss(name)
        calls, evals = [], []

        def fn(a):
            calls.append(a.shape)
            return base.fn(a)

        def counted(f, *bounds):
            return search(lambda x: evals.append(x.shape) or f(x), *bounds)

        search = optimize.bracket_min
        monkeypatch.setattr(optimize, "bracket_min", counted)
        min_per_bin(replace(base, fn=fn), np.array([0.1, 0.2, 0.3, 0.4]),
                    np.array([0.4, 0.1, 0.3, 0.2]))
        objective_calls = [c for c in calls if len(c) > 1]  # not the lattice
        assert evals and objective_calls == [(2,) + e for e in evals]
        assert evals == [(15, 4)] * (solve_calls - 1) + [(4,)]

    @pytest.mark.parametrize("name", ("logistic", "hinge", "zero_one",
                                      "eq10_nonconvex"))
    def test_kernels_bypass_the_loss_wrapper(self, name, monkeypatch):
        # weighted_min (convex or grid branch) and the tie rule evaluate the
        # closed form under their own guard: no SurrogateLoss.__call__ at all
        calls = []
        wrapper = SurrogateLoss.__call__

        def counted(self, alpha):
            calls.append(np.shape(alpha))
            return wrapper(self, alpha)

        monkeypatch.setattr(SurrogateLoss, "__call__", counted)
        phi = catalog_loss(name)
        # bin 2 is empty, so the rule also runs for the strictly convex loss
        mu, pi = np.array([0.2, 0.3, 0.0, 0.5]), np.array([0.4, 0.1, 0.3, 0.2])
        min_per_bin(phi, mu, pi)
        optimal_phi_risk(phi, SimpleNamespace(mu=mu, pi=pi))
        assert calls == []
        phi(np.zeros(2))  # the counter itself counts
        assert calls == [(2,)]

    def test_weights_broadcast(self):
        phi = catalog_loss("logistic")
        u = np.array([0.5, 2.0])
        one = weighted_min(phi, u, 1.0, 50.0)
        full = weighted_min(phi, u, np.ones(2), np.full(2, 50.0))
        assert all(_same(x, y) for x, y in zip(one, full))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -50.0])
    @pytest.mark.parametrize("name", ["zero_one", "hinge"])
    def test_half_widths_must_be_finite_and_positive(self, name, bad):
        # a NaN half-width once left the grid branch's outputs uninitialized
        with pytest.raises(ValueError, match="finite and positive"):
            weighted_min(catalog_loss(name), [0.3, 0.4], [0.5, 0.2],
                         [50.0, bad])


class TestNanObjective:
    @pytest.mark.parametrize("convex", (True, False))
    def test_min_per_bin_raises(self, convex):
        with pytest.raises(NanObjective):
            min_per_bin(_nan_loss(convex), np.array([0.3, 0.2]),
                        np.array([0.1, 0.4]))

    @pytest.mark.parametrize("convex", (True, False))
    def test_f_from_loss_raises(self, convex):
        with pytest.raises(NanObjective):
            f_from_loss(_nan_loss(convex), np.array([0.5, 2.0]))

    def test_joint_erm_raises(self, src_default):
        fc = FunctionClassSpec(gamma_bound=4.0,
                               thresholds=threshold_grid(src_default, 11))
        s = generate_samples(src_default, 200, 1)
        with pytest.raises(NanObjective):
            joint_erm(_nan_loss(True), s, fc)

    def test_grid_scan_counts_zero_weight_times_inf_as_zero(self):
        # exp(-a), +inf below -10, flagged non-convex: at weights (0, 1) the
        # term 0 * phi(a) is 0 on the grid too, as in the convex branch
        def fn(a):
            a = np.asarray(a, dtype=float)
            with np.errstate(over="ignore"):
                return np.where(a < -10.0, math.inf, np.exp(-a))

        phi = SurrogateLoss(fn, "capped_exp", convex=False, decreasing=True,
                            alpha_star=math.inf, inf_value=0.0)
        with np.errstate(invalid="ignore"):
            args, vals, at_edge = weighted_min(phi, [0.0, 0.5], [1.0, 1.0],
                                               50.0)
        assert np.all(np.isfinite(vals))
        # element 0 is e^a for a <= 10: least at the left edge
        assert args[0] == -50.0 and at_edge.tolist() == [True, False]
        assert args[1] == pytest.approx(0.5 * math.log(0.5), abs=1e-6)
        assert vals[1] == pytest.approx(math.sqrt(2.0), abs=1e-12)


def _capped_exp(cap):
    """exp(-a), +inf below ``cap``, flagged convex (it is, as an extended
    real function)."""
    def fn(a):
        return np.where(a < cap, math.inf, np.exp(-a))

    return SurrogateLoss(fn, "capped_exp", convex=True, decreasing=True,
                         alpha_star=math.inf, inf_value=0.0)


class TestInfiniteObjective:
    def test_convex_branch_raises_on_an_infinite_minimum(self):
        # capped below 10, phi(a) or phi(-a) is +inf at every a, so the
        # objective at weights (0.5, 1) is +inf on the whole bracket; the
        # 0 * inf of element 0 must not leak a warning either
        with pytest.raises(InfiniteObjective, match="capped_exp"):
            weighted_min(_capped_exp(10.0), [0.0, 0.5], [1.0, 1.0], 50.0)

    def test_convex_branch_finds_a_minimum_beside_infinite_values(self):
        # capped below -10, the objective 0.5 e^-a + e^a is finite only on
        # [-10, 10]: 15 points on [-50, 50] see it, and the search finds
        # its minimum sqrt 2 at a = -log(2) / 2
        args, vals, at_edge = weighted_min(_capped_exp(-10.0), [0.0, 0.5],
                                           [1.0, 1.0], 50.0)
        assert at_edge.tolist() == [True, False]
        assert vals[1] == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert args[1] == pytest.approx(-0.5 * math.log(2.0), abs=1e-6)


def _outcome(call):
    """The bytes of every array call() returns, or the name of the package
    error it raises; anything else (a warning made an error, a
    FloatingPointError) propagates."""
    try:
        out = call()
    except FdualError as exc:
        return type(exc).__name__
    parts = out if isinstance(out, tuple) else (out,)
    return b"".join(np.asarray(p, dtype=float).tobytes() for p in parts)


class TestCallerErrstate:
    # bin 0 is empty and bins 1 and 3 nearly so, which widens their brackets
    # to |a| ~ 740: exp(-a) overflows there, and 0 * inf meets a zero weight
    MU = np.array([0.0, 1e-300, 0.3, 0.7 - 1e-300])
    PI = np.array([0.3, 0.2, 0.5 - 1e-300, 1e-300])

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_a_raising_caller_changes_no_bit(self, name):
        # the kernels and wrappers own their floating-point guards, so a
        # caller's np.errstate(all="raise") and warnings as errors change no
        # result bit and raise nothing
        phi = catalog_loss(name)
        m = SimpleNamespace(mu=self.MU, pi=self.PI)
        src = BinnedSource([0.6, 0.4], [0.2, 0.8], Priors(0.5, 0.5))
        s = generate_samples(src, 200, 3)
        q = TableQuantizer(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        far = np.array([800.0, -800.0, 0.5, -1.0])  # exp overflows at +-800
        calls = [
            lambda: optimal_phi_risk(phi, m),
            lambda: weighted_min(phi, self.MU, self.PI, 740.0),
            lambda: weighted_min(phi, [0.0, 0.5], [1.0, 0.0], 50.0),
            lambda: phi_risk(phi, optimal_phi_risk(phi, m)[1], m),
            lambda: phi_risk(phi, far, m),
            lambda: phi_risk(phi, far[2:], SimpleNamespace(mu=self.MU[2:],
                                                           pi=self.PI[2:])),
            lambda: empirical_phi_risk(phi, far[:3], q, s),
            # letter 2 has no weight: 0 * phi(-800), which exp overflows
            lambda: empirical_phi_risk(phi, far[[2, 3, 1]], q, s),
            lambda: f_from_loss(phi, np.array([1e-6, 0.5, 1e6])),
            lambda: check_calibration_general(phi),
        ]
        want = [_outcome(c) for c in calls]
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = [_outcome(c) for c in calls]
        assert got == want
