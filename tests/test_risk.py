import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fdual import risk
from fdual.errors import InfiniteRisk, MismatchedPair
from fdual.losses import LOSS_NAMES, catalog_generator, catalog_loss
from fdual.measures import (JointMeasure, Priors, bayes_risk, f_divergence,
                            named_divergence, random_measure)
from fdual.optimize import SUBLEVEL_CAP, zero_safe
from fdual.risk import (RiskReport, closed_form_discriminant, min_per_bin,
                        optimal_phi_risk, phi_risk, verify_correspondence,
                        zero_one_risk)
from test_optimize import scalar_bracket, scalar_predicate

CONVEX_NAMES = ("hinge", "exponential", "logistic", "least_squares", "sym_kl")


def scalar_tie_rule(phi, m, args, vals):
    """The per-bin tie-rule loop that the masked pass replaced: one scalar
    15-point predicate search per bin; -inf where the plateau holds out to
    the cap."""
    args = args.copy()
    for z in range(m.z_count):
        a, v = float(args[z]), float(vals[z])
        slack = 1e-12 * (1.0 + abs(v))

        def on_plateau(x, z=z, v=v, slack=slack):
            return phi(x) * m.mu[z] + phi(-x) * m.pi[z] <= v + slack

        probe = a - 1e-6 * (1.0 + abs(a))
        if on_plateau(probe):
            lo = a - 1.0
            while on_plateau(lo) and a - lo < SUBLEVEL_CAP:
                lo = a - 2.0 * (a - lo)
            args[z] = (-math.inf if on_plateau(lo) else
                       scalar_predicate(on_plateau, lo, a, tol=1e-12)[0])
    return args


def _counted(phi, shapes):
    """phi, recording the shape of every array its closed form gets."""
    def fn(a):
        shapes.append(a.shape)
        return phi.fn(a)
    return replace(phi, fn=fn)


def scalar_lattice_min(phi, mu, pi):
    """The per-bin lattice scan plus scalar k-point refinement that
    min_per_bin's non-convex branch batches: bin z's lattice is k * step,
    step = 2**(ceil(log2 b_z) - 14), |k| <= ceil(b_z / step), with phi
    called on the lattice and on its negation."""
    b = 50.0 + np.abs(np.log(mu / pi))
    args = np.empty_like(mu)
    vals = np.empty_like(mu)
    for z in range(mu.size):
        step = 2.0 ** (math.ceil(math.log2(b[z])) - 14)
        top = math.ceil(b[z] / step)
        grid = np.arange(-top, top + 1) * step
        obj = phi(grid) * mu[z] + phi(-grid) * pi[z]
        i = int(np.argmin(obj))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
        arg, val = scalar_bracket(
            lambda a: float(phi(a) * mu[z] + phi(-a) * pi[z]), lo, hi)
        if obj[i] <= val:
            arg, val = float(grid[i]), float(obj[i])
        args[z], vals[z] = arg, val
    return args, vals


def _plateau_measures():
    half = Priors(0.5, 0.5)
    return [JointMeasure([0.25, 0.25], [0.25, 0.25], half),
            JointMeasure([0.1, 0.4], [0.1, 0.4], half),
            JointMeasure([0.2, 0.3], [0.4, 0.1], half),
            JointMeasure([0.3, 0.2 - 1e-12, 1e-12], [0.3, 0.1, 0.1], half)]


def _extreme_measure(q, pi_w, log_ratios, swap):
    """Bins whose mass ratios mu_z / pi_z reach down to about 1e-12: every
    bin but the last gets ratio (p/q) 10**r, the last takes the rest."""
    pr = Priors.from_q(q)
    pi = pr.q * np.asarray(pi_w) / np.sum(pi_w)
    mu = pr.p / pr.q * pi[:-1] * 10.0 ** np.asarray(log_ratios)
    mu = np.append(mu, pr.p - mu.sum())
    if swap:
        return JointMeasure(pi, mu, Priors(pr.q, pr.p))
    return JointMeasure(mu, pi, pr)


class TestPhiRisk:
    def test_hinge_worked_example(self, m_standard):
        val = phi_risk(catalog_loss("hinge"), np.array([1.0, -1.0]), m_standard)
        assert val == pytest.approx(0.6, abs=1e-12)

    def test_constant_zero_discriminant(self, m_standard, rng):
        for name in CONVEX_NAMES:
            phi = catalog_loss(name)
            val = phi_risk(phi, np.zeros(2), m_standard)
            assert val == pytest.approx(phi(0.0), abs=1e-12)

    def test_exponential_at_its_optimum(self, m_standard):
        gamma = np.array([0.5 * math.log(3.0), 0.5 * math.log(0.5)])
        val = phi_risk(catalog_loss("exponential"), gamma, m_standard)
        assert val == pytest.approx(0.9120955864630135, abs=1e-6)

    def test_infinite_term_raises(self, m_standard):
        with pytest.raises(InfiniteRisk):
            phi_risk(catalog_loss("sym_kl"), np.array([math.inf, 0.0]),
                     m_standard)

    def test_length_mismatch(self, m_standard):
        with pytest.raises(ValueError):
            phi_risk(catalog_loss("hinge"), np.zeros(3), m_standard)

    def test_minus_infinity_discriminant_raises(self, m_standard):
        # hinge's closed form reads +inf at -inf, so the term is infinite
        # (zero_one's reads 1 there, and its term is finite)
        with pytest.raises(InfiniteRisk):
            phi_risk(catalog_loss("hinge"), np.array([-math.inf, 1.0]),
                     m_standard)

    def test_one_loss_call_on_the_sign_pair(self, m_standard):
        shapes = []
        gamma = np.array([0.4, -1.2])
        phi = catalog_loss("logistic")
        got = phi_risk(_counted(phi, shapes), gamma, m_standard)
        assert shapes == [(2, 2)]
        want = phi(gamma) * m_standard.mu + phi(-gamma) * m_standard.pi
        assert got == float(want.sum())


class TestOptimalPhiRisk:
    def test_hinge_equals_one_minus_variational(self, m_standard):
        val, gamma = optimal_phi_risk(catalog_loss("hinge"), m_standard)
        assert val == pytest.approx(0.6, abs=1e-9)
        np.testing.assert_allclose(gamma, [1.0, -1.0], atol=1e-6)

    def test_logistic_matches_capacity_route(self, m_standard):
        val, _ = optimal_phi_risk(catalog_loss("logistic"), m_standard)
        want = math.log(2.0) - named_divergence("capacitory", m_standard)
        assert val == pytest.approx(want, abs=1e-8)

    def test_least_squares_on_equal_measures(self):
        m = JointMeasure([0.25, 0.25], [0.25, 0.25], Priors(0.5, 0.5))
        val, _ = optimal_phi_risk(catalog_loss("least_squares"), m)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_smallest_minimizer_reported_on_plateau(self):
        # equal masses leave the whole interval [-1, 1] optimal for the
        # hinge; the documented tie rule picks the left end
        m = JointMeasure([0.25, 0.25], [0.25, 0.25], Priors(0.5, 0.5))
        _, gamma = optimal_phi_risk(catalog_loss("hinge"), m)
        np.testing.assert_allclose(gamma, [-1.0, -1.0], atol=1e-6)

    def test_shuffling_bins_leaves_value_unchanged(self, rng):
        for name in CONVEX_NAMES:
            phi = catalog_loss(name)
            m = random_measure(rng, 6)
            perm = rng.permutation(6)
            m2 = JointMeasure(m.mu[perm], m.pi[perm], m.priors)
            v1, _ = optimal_phi_risk(phi, m)
            v2, _ = optimal_phi_risk(phi, m2)
            assert v1 == pytest.approx(v2, abs=1e-10)

    def test_concave_in_the_measure(self, rng):
        phi = catalog_loss("logistic")
        pr = Priors(0.5, 0.5)
        for _ in range(10):
            m1 = random_measure(rng, 4, pr)
            m2 = random_measure(rng, 4, pr)
            lam = float(rng.uniform(0.2, 0.8))
            mix = JointMeasure(lam * m1.mu + (1 - lam) * m2.mu,
                               lam * m1.pi + (1 - lam) * m2.pi, pr)
            v_mix, _ = optimal_phi_risk(phi, mix)
            v1, _ = optimal_phi_risk(phi, m1)
            v2, _ = optimal_phi_risk(phi, m2)
            assert v_mix >= lam * v1 + (1 - lam) * v2 - 1e-10


class TestTieRule:
    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_matches_scalar_loop_on_random_measures(self, name, rng):
        # a strictly convex loss skips the rule on bins of positive mass: it
        # reports min_per_bin's argmin, within 1e-7 of the closed form
        phi = catalog_loss(name)
        for k in range(12):
            m = random_measure(rng, 2 + k % 7)
            args, vals = min_per_bin(phi, m.mu, m.pi)
            _, gamma = optimal_phi_risk(phi, m)
            if not phi.strictly_convex:
                want = scalar_tie_rule(phi, m, args, vals)
                assert gamma.tobytes() == want.tobytes()
                continue
            assert gamma.tobytes() == args.tobytes()
            if name != "sym_kl":  # sym_kl has no closed-form discriminant
                np.testing.assert_allclose(
                    gamma, closed_form_discriminant(name, m), rtol=0.0,
                    atol=1e-7)

    @pytest.mark.parametrize("name", ("logistic", "least_squares"))
    def test_strictly_convex_loss_keeps_the_rule_on_zero_mass_bins(self,
                                                                   name):
        # JointMeasure rejects empty bins, so a bare (mu, pi) stands in; a
        # bin with mu_z = 0 may have a plateau (logistic's reaches the cap)
        phi = catalog_loss(name)
        m = SimpleNamespace(mu=np.array([0.0, 0.3, 0.0, 0.2]),
                            pi=np.array([0.25, 0.1, 0.4, 0.25]), z_count=4)
        args, vals = min_per_bin(phi, m.mu, m.pi)
        _, gamma = optimal_phi_risk(phi, m)
        want = scalar_tie_rule(phi, m, args, vals)
        want[[1, 3]] = args[[1, 3]]
        assert gamma.tobytes() == want.tobytes()
        if name == "logistic":
            assert gamma[0] == -math.inf

    def test_zero_mass_term_counts_as_zero(self):
        # exponential is inf far left of its empty bin's argmin, where the
        # objective's 0 * inf counts as 0 (no warning, no NaN), so the bin's
        # plateau has no left end, as logistic's has not
        m = SimpleNamespace(mu=np.array([0.0, 0.5]),
                            pi=np.array([0.25, 0.25]), z_count=2)
        ends = []
        for name in ("exponential", "logistic"):
            phi = catalog_loss(name)
            args, _ = min_per_bin(phi, m.mu, m.pi)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _, gamma = optimal_phi_risk(phi, m)
            assert gamma[1] == args[1]
            ends.append(gamma[0])
        assert ends == [-math.inf, -math.inf]

    @pytest.mark.parametrize("name", ("hinge", "zero_one", "eq10_nonconvex"))
    def test_matches_scalar_loop_on_plateaus(self, name):
        phi = catalog_loss(name)
        for m in _plateau_measures():
            args, vals = min_per_bin(phi, m.mu, m.pi)
            _, gamma = optimal_phi_risk(phi, m)
            want = scalar_tie_rule(phi, m, args, vals)
            assert gamma.tobytes() == want.tobytes()

    def test_unbounded_plateau_reports_minus_infinity(self):
        # every a < 0 minimizes bin 0; zero_one(-inf) = 1, so the -inf
        # argmin scores finitely
        m = JointMeasure([0.2, 0.3], [0.4, 0.1], Priors(0.5, 0.5))
        r_opt, gamma = optimal_phi_risk(catalog_loss("zero_one"), m)
        assert gamma[0] == -math.inf and math.isfinite(gamma[1])
        assert phi_risk(catalog_loss("zero_one"), gamma, m) == r_opt

    def test_one_loss_call_per_stage(self):
        # after min_per_bin's calls (its search rounds are 3-d too, on
        # (2, 15, bins)), the rule makes one call for the probe, one for
        # sublevel_end's doubling column of 42 points per bin, on
        # (2, 42, bins), then one per bisection round on its 15 points,
        # (2, 15, bins)
        phi = catalog_loss("zero_one")
        m = JointMeasure([0.2, 0.3], [0.4, 0.1], Priors(0.5, 0.5))
        search, shapes = [], []
        min_per_bin(_counted(phi, search), m.mu, m.pi)
        optimal_phi_risk(_counted(phi, shapes), m)
        assert shapes[:len(search)] == search
        probe, column, *rounds = shapes[len(search):]
        assert probe == (2, 2) and column == (2, 42, 2)
        assert 0 < len(rounds) <= 20 and set(rounds) == {(2, 15, 2)}

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_bisection_calls_per_search(self, name, monkeypatch):
        # the column call, then at most 12 rounds: here the finite ends lie
        # within 30 of their anchors, so a bracket is at most 64 wide, and
        # 64 cut by sixteenths to 1e-12 takes 12 rounds; an unbounded
        # plateau's zero-width bracket takes none
        calls, search = [], risk.sublevel_end

        def counting(pred, anchor, sign, **kw):
            calls.append(0)

            def counted(x):
                calls[-1] += 1
                return pred(x)
            return search(counted, anchor, sign, **kw)

        monkeypatch.setattr(risk, "sublevel_end", counting)
        phi = catalog_loss(name)
        for m in _plateau_measures():
            optimal_phi_risk(phi, m)
        assert bool(calls) == (not phi.strictly_convex)
        assert all(n <= 13 for n in calls)

    def test_strictly_convex_loss_skips_the_rule(self, m_standard):
        shapes = []
        phi = _counted(catalog_loss("logistic"), shapes)
        min_per_bin(phi, m_standard.mu, m_standard.pi)
        calls = len(shapes)
        optimal_phi_risk(phi, m_standard)
        assert len(shapes) == 2 * calls


class TestMinPerBinNonConvex:
    @pytest.mark.parametrize("name", ("zero_one", "eq10_nonconvex"))
    def test_matches_scalar_refinement_per_bin(self, name, rng):
        phi = catalog_loss(name)
        measures = [random_measure(rng, 2 + k % 7) for k in range(8)]
        f = catalog_generator(name)
        for m in measures + _plateau_measures():
            args, vals = min_per_bin(phi, m.mu, m.pi)
            want_args, want_vals = scalar_lattice_min(phi, m.mu, m.pi)
            assert args.tobytes() == want_args.tobytes()
            assert vals.tobytes() == want_vals.tobytes()
            # and the closed form -pi_z f(mu_z / pi_z), within 1e-12
            np.testing.assert_allclose(vals, -m.pi * f(m.mu / m.pi),
                                       rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("name", ("zero_one", "eq10_nonconvex"))
    def test_closed_form_on_random_measures(self, name, rng):
        # 400 measures of 2 to 8 bins, stacked into one min_per_bin call
        # (each bin gets its bits alone): every bin's minimum is within
        # 1e-12 of -pi_z f(mu_z / pi_z)
        ms = [random_measure(rng, 2 + k % 7) for k in range(400)]
        mu = np.concatenate([m.mu for m in ms])
        pi = np.concatenate([m.pi for m in ms])
        _, vals = min_per_bin(catalog_loss(name), mu, pi)
        want = -pi * catalog_generator(name)(mu / pi)
        np.testing.assert_allclose(vals, want, rtol=0.0, atol=1e-12)


class TestOneEmptyMass:
    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_mirrored_bins_mirror_the_minimum(self, name):
        # a bin with pi_z = 0 gets the finite bracket of its mirror bin
        # (mu_z = 0), so neither raises nor returns NaN
        phi = catalog_loss(name)
        mu, pi = np.array([0.5, 0.5]), np.array([0.0, 1.0])
        args, vals = min_per_bin(phi, mu, pi)
        m_args, m_vals = min_per_bin(phi, pi, mu)
        assert np.isfinite(args).all() and np.isfinite(m_args).all()
        np.testing.assert_allclose(vals, m_vals, rtol=1e-7, atol=1e-12)
        with np.errstate(all="ignore"):  # exp overflows at the edge
            for a, w_pos, w_neg, want in ((-args, pi, mu, m_vals),
                                          (-m_args, mu, pi, vals)):
                got = zero_safe(phi(a), phi(-a), w_pos, w_neg)
                np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-12)


class TestClosedFormDiscriminants:
    def test_exponential_half_log_ratio(self, m_standard):
        gamma = closed_form_discriminant("exponential", m_standard)
        np.testing.assert_allclose(gamma, [0.5493061443340549,
                                           -0.34657359027997264], atol=1e-12)

    def test_least_squares_vanishes_on_equal_measures(self):
        m = JointMeasure([0.2, 0.3], [0.2, 0.3], Priors(0.5, 0.5))
        np.testing.assert_allclose(
            closed_form_discriminant("least_squares", m), [0.0, 0.0],
            atol=1e-15)

    def test_sign_rule_with_tie_to_minus_one(self, m_standard):
        np.testing.assert_allclose(
            closed_form_discriminant("hinge", m_standard), [1.0, -1.0])
        m = JointMeasure([0.2, 0.3], [0.2, 0.3], Priors(0.5, 0.5))
        np.testing.assert_allclose(closed_form_discriminant("hinge", m),
                                   [-1.0, -1.0])

    @pytest.mark.parametrize("name", ["hinge", "exponential", "logistic",
                                      "least_squares"])
    def test_closed_forms_attain_the_optimum(self, name, rng):
        phi = catalog_loss(name)
        for _ in range(15):
            m = random_measure(rng, int(rng.integers(2, 8)))
            gamma = closed_form_discriminant(name, m)
            opt, _ = optimal_phi_risk(phi, m)
            assert phi_risk(phi, gamma, m) == pytest.approx(opt, abs=1e-8)


class TestCorrespondence:
    @pytest.mark.parametrize("name", CONVEX_NAMES)
    def test_optimal_risk_is_negative_divergence(self, name, rng):
        phi = catalog_loss(name)
        f = catalog_generator(name)
        for _ in range(20):
            m = random_measure(rng, int(rng.integers(2, 9)))
            opt, _ = optimal_phi_risk(phi, m)
            assert abs(opt + f_divergence(f, m)) <= 1e-6

    @pytest.mark.parametrize("name", LOSS_NAMES)
    @given(q=st.floats(0.15, 0.85),
           pi_w=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=8),
           data=st.data(), swap=st.booleans())
    def test_identity_at_extreme_mass_ratios(self, name, q, pi_w, data, swap):
        # criterion 01's identity at its 1e-6, per-bin ratios down to 1e-12
        log_ratios = data.draw(st.lists(st.floats(-12.0, 0.0),
                                        min_size=len(pi_w) - 1,
                                        max_size=len(pi_w) - 1))
        m = _extreme_measure(q, pi_w, log_ratios, swap)
        opt, _ = optimal_phi_risk(catalog_loss(name), m)
        assert abs(opt + f_divergence(catalog_generator(name), m)) <= 1e-6

    def test_report_contents(self, m_standard):
        rep = verify_correspondence(catalog_loss("hinge"),
                                    catalog_generator("hinge"), m_standard)
        assert rep.passed
        assert rep.correspondence_residual <= 1e-6
        assert rep.bayes_risk_of_q == pytest.approx(bayes_risk(m_standard))
        assert rep.bayes_risk_of_pair >= rep.bayes_risk_of_q - 1e-12
        assert rep.phi_risk >= rep.optimal_phi_risk - 1e-9

    def test_mismatched_pair_rejected(self, m_standard):
        with pytest.raises(MismatchedPair):
            verify_correspondence(catalog_loss("hinge"),
                                  catalog_generator("exponential"), m_standard)

    def test_csv_row_schema(self, m_standard):
        rep = verify_correspondence(catalog_loss("hinge"),
                                    catalog_generator("hinge"), m_standard)
        assert RiskReport.csv_header() == "loss,divergence,R_phi_opt,I_f,residual,pass"
        row = rep.to_csv_row().split(",")
        assert row[0] == "hinge" and row[-1] == "true"


class TestZeroOneRisk:
    def test_sign_convention_counts_zero_as_negative(self, m_standard):
        # gamma = 0 predicts the negative class, erring on the positive mass
        assert zero_one_risk(np.zeros(2), m_standard) == pytest.approx(0.5)
        assert zero_one_risk(np.array([1.0, -1.0]), m_standard) == \
            pytest.approx(0.3)
