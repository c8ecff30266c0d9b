import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from fdual import erm
from fdual.equivalence import variational_family_check
from fdual.erm import (FunctionClassSpec, consistency_sweep,
                       empirical_phi_risk, excess_bayes_risk,
                       generate_samples, joint_erm, lemma2_gap,
                       optimal_family_bayes, quantizer_mismatch,
                       threshold_grid)
from fdual.errors import (EmptySample, IncompatibleQuantizer, InfiniteRisk,
                          NonConvexLoss, NotVariationalFamily, NoWitnessFound,
                          ZeroMassBin)
from fdual.losses import catalog_generator, catalog_loss, induced_generator
from fdual.measures import (BinnedSource, Priors, TableQuantizer,
                            ThresholdQuantizer, UniformPairSource, bayes_risk,
                            induce_measures, named_divergence,
                            quantizer_masses)
from fdual.risk import min_per_bin, phi_risk, zero_one_risk


def old_family_bayes(fc, src):
    """Frozen copy of the table-family sweep optimal_family_bayes replaced:
    one validated TableQuantizer per routing, folded from +inf."""
    k = int(fc.table_bins)
    nb = src.n_bins
    best = math.inf
    for assign in itertools.product(range(k), repeat=nb):
        rows = np.zeros((nb, k))
        rows[np.arange(nb), list(assign)] = 1.0
        mu, pi = quantizer_masses(TableQuantizer(rows), src)
        best = min(best, float(np.minimum(mu, pi).sum()))
    return best


def old_erm_table(phi, s, fc):
    """Frozen copy of the table ERM that _erm_table replaced: up to 100
    rounds of a gamma step then a row step, a further gamma step after the
    loop, and the masses read once per risk.  Returns (gamma, rows, trace,
    empirical, population phi-risk, excess Bayes risk)."""
    k = int(fc.table_bins)
    nb = s.src.n_bins
    c_pos, c_neg = erm._table_counts(s, nb)
    n = s.n
    assign = np.arange(nb) % k
    trace = []
    for _ in range(100):
        rows = np.zeros((nb, k))
        rows[np.arange(nb), assign] = 1.0
        gamma, vals = erm._gamma_step(phi, c_pos @ rows / n, c_neg @ rows / n,
                                      fc.gamma_bound)
        cost = (np.outer(c_pos, phi(gamma)) + np.outer(c_neg, phi(-gamma))) / n
        assign_new = np.argmin(cost, axis=1)
        obj = float(cost[np.arange(nb), assign_new].sum())
        trace.append(obj)
        if len(trace) > 1 and trace[-2] - obj < 1e-10:
            assign = assign_new
            break
        assign = assign_new
    rows = np.zeros((nb, k))
    rows[np.arange(nb), assign] = 1.0
    q = TableQuantizer(rows)
    gamma, vals = erm._gamma_step(phi, c_pos @ rows / n, c_neg @ rows / n,
                                  fc.gamma_bound)
    mu, pi = quantizer_masses(q, s.src)
    excess = (float(np.sum(np.where(gamma > 0.0, pi, mu)))
              - old_family_bayes(fc, s.src))
    mu, pi = quantizer_masses(q, s.src)
    rphi = float(np.sum(phi(gamma) * mu + phi(-gamma) * pi))
    return gamma, rows, tuple(trace), float(vals.sum()), rphi, excess


def bench_table_cases():
    """The table_erm ops of the bench's erm workload at seeds 0-5: eight
    random bins, two letters, 2000 samples."""
    for seed in range(6):
        rng = np.random.default_rng((seed, 1002))
        for i, name in enumerate(("hinge", "exponential", "logistic")):
            pos = rng.uniform(0.05, 1.0, 8)
            neg = rng.uniform(0.05, 1.0, 8)
            priors = Priors.from_q(float(rng.uniform(0.3, 0.7)))
            src = BinnedSource(pos / pos.sum(), neg / neg.sum(), priors)
            yield catalog_loss(name), generate_samples(src, 2000,
                                                       (seed, 100 + i))


def assert_same_table_erm(res, old):
    gamma, rows, trace, empirical, rphi, excess = old
    assert res.gamma_star.tobytes() == gamma.tobytes()
    assert res.q_star.rows.tobytes() == rows.tobytes()
    assert [x.hex() for x in res.objective_trace] == [x.hex() for x in trace]
    assert [res.empirical_risk.hex(), res.population_phi_risk.hex(),
            res.excess_bayes.hex()] == [empirical.hex(), rphi.hex(),
                                        excess.hex()]


@pytest.fixture
def fc_default(src_default):
    return FunctionClassSpec(gamma_bound=4.0,
                             thresholds=threshold_grid(src_default, 101))


class TestGenerateSamples:
    def test_empty_rejected(self, src_default):
        with pytest.raises(EmptySample):
            generate_samples(src_default, 0, 0)

    def test_label_fraction_concentrates(self, src_default):
        s = generate_samples(src_default, 100_000, 123)
        frac_neg = float(np.mean(s.y < 0))
        assert 0.495 <= frac_neg <= 0.505

    def test_class_conditional_supports(self, src_default):
        s = generate_samples(src_default, 20_000, 7)
        xn = s.x[s.y < 0]
        xp = s.x[s.y > 0]
        assert xn.min() >= 0.0 and xn.max() <= 2.0
        assert xp.min() >= 1.0 and xp.max() <= 4.0

    def test_bit_reproducible(self, src_default):
        s1 = generate_samples(src_default, 1000, (3, 1000))
        s2 = generate_samples(src_default, 1000, (3, 1000))
        assert np.array_equal(s1.x, s2.x) and np.array_equal(s1.y, s2.y)

    def test_binned_sampling(self):
        src = BinnedSource([0.7, 0.2, 0.1], [0.1, 0.2, 0.7], Priors(0.5, 0.5))
        s = generate_samples(src, 50_000, 11)
        pos = s.x[s.y > 0].astype(int)
        frac0 = float(np.mean(pos == 0))
        assert abs(frac0 - 0.7) < 0.02


class TestEmpiricalPhiRisk:
    def test_zero_discriminant_gives_phi_zero(self, src_default):
        s = generate_samples(src_default, 500, 1)
        for name in ("hinge", "logistic"):
            phi = catalog_loss(name)
            val = empirical_phi_risk(phi, np.zeros(2),
                                     ThresholdQuantizer(1.5), s)
            assert val == pytest.approx(phi(0.0), abs=1e-12)

    def test_hand_computed_four_samples(self, src_default):
        s = generate_samples(src_default, 4, 99)
        phi = catalog_loss("hinge")
        t = 1.5
        gamma = np.array([-0.5, 2.0])
        manual = 0.0
        for xi, yi in zip(s.x, s.y):
            z = 0 if xi < t else 1
            manual += phi(yi * gamma[z])
        manual /= 4.0
        val = empirical_phi_risk(phi, gamma, ThresholdQuantizer(t), s)
        assert val == pytest.approx(manual, abs=1e-12)

    def test_doubling_sample_is_invariant(self, src_default):
        from fdual.erm import SampleSet
        s = generate_samples(src_default, 200, 5)
        doubled = SampleSet(x=np.concatenate([s.x, s.x]),
                            y=np.concatenate([s.y, s.y]), seed=-1,
                            src=src_default)
        phi = catalog_loss("hinge")
        gamma = np.array([1.0, -1.0])
        q = ThresholdQuantizer(1.3)
        assert empirical_phi_risk(phi, gamma, q, s) == pytest.approx(
            empirical_phi_risk(phi, gamma, q, doubled), abs=1e-12)

    def test_stochastic_table_route(self):
        src = BinnedSource([0.6, 0.4], [0.2, 0.8], Priors(0.5, 0.5))
        s = generate_samples(src, 1000, 3)
        phi = catalog_loss("hinge")
        rows = np.array([[0.5, 0.5], [0.5, 0.5]])
        val = empirical_phi_risk(phi, np.array([2.0, -2.0]),
                                 TableQuantizer(rows), s)
        # uniform rows average the two margins for every sample
        want = 0.5 * float(np.mean(phi(s.y * 2.0) + phi(s.y * -2.0)))
        assert val == pytest.approx(want, abs=1e-12)

    def test_mismatched_quantizer_rejected_like_quantizer_masses(
            self, src_default):
        phi = catalog_loss("hinge")
        pair = generate_samples(src_default, 50, 4)
        binned = generate_samples(
            BinnedSource([0.5, 0.3, 0.2], [0.2, 0.3, 0.5], Priors(0.5, 0.5)),
            50, 4)
        cases = [(TableQuantizer(np.full((3, 2), 0.5)), pair),
                 (TableQuantizer(np.full((4, 2), 0.5)), binned),
                 (TableQuantizer(np.full((2, 2), 0.5)), binned),
                 (ThresholdQuantizer(1.0), binned)]
        for q, s in cases:
            with pytest.raises(IncompatibleQuantizer):
                quantizer_masses(q, s.src)
            with pytest.raises(IncompatibleQuantizer):
                empirical_phi_risk(phi, np.zeros(2), q, s)

    def test_one_loss_call_on_the_sign_pair(self, src_default):
        s = generate_samples(src_default, 50, 4)
        base = catalog_loss("logistic")
        shapes = []

        def fn(a):
            shapes.append(a.shape)
            return base.fn(a)

        gamma = np.array([0.4, -1.2])
        q = ThresholdQuantizer(1.5)
        got = empirical_phi_risk(replace(base, fn=fn), gamma, q, s)
        assert shapes == [(2, 2)]
        w_pos, w_neg = erm._empirical_weights(q, s)
        assert got == float(np.sum(w_pos * base(gamma)
                                   + w_neg * base(-gamma)))

    def test_minus_infinity_discriminant_raises(self, src_default):
        # hinge's closed form reads +inf at -inf: an infinite term raises,
        # as in phi_risk
        s = generate_samples(src_default, 50, 4)
        with pytest.raises(InfiniteRisk):
            empirical_phi_risk(catalog_loss("hinge"),
                               np.array([-math.inf, 1.0]),
                               ThresholdQuantizer(1.5), s)

    def test_discriminant_length_must_match_the_alphabet(self, src_default):
        s = generate_samples(src_default, 50, 4)
        with pytest.raises(ValueError, match="alphabet"):
            empirical_phi_risk(catalog_loss("hinge"), np.zeros(3),
                               ThresholdQuantizer(1.5), s)


class TestJointErm:
    def test_nonconvex_rejected(self, src_default, fc_default):
        s = generate_samples(src_default, 100, 0)
        with pytest.raises(NonConvexLoss):
            joint_erm(catalog_loss("zero_one"), s, fc_default)

    def test_threshold_family_needs_a_uniform_pair(self, fc_default):
        src = BinnedSource([0.6, 0.4], [0.2, 0.8], Priors(0.5, 0.5))
        s = generate_samples(src, 100, 0)
        with pytest.raises(IncompatibleQuantizer, match="threshold "
                           "quantizers apply only to uniform-pair sources"):
            joint_erm(catalog_loss("hinge"), s, fc_default)

    def test_table_family_needs_a_binned_source(self, src_default):
        fc = FunctionClassSpec(gamma_bound=4.0, table_bins=2)
        s = generate_samples(src_default, 100, 0)
        with pytest.raises(IncompatibleQuantizer, match="table quantizers "
                           "apply only to binned sources"):
            joint_erm(catalog_loss("hinge"), s, fc)

    def test_selected_threshold_near_population_optimum(self, src_default,
                                                        fc_default):
        s = generate_samples(src_default, 10_000, (0, 10_000))
        res = joint_erm(catalog_loss("hinge"), s, fc_default)
        ts = fc_default.thresholds
        bayes = [bayes_risk(induce_measures(ThresholdQuantizer(t), src_default))
                 for t in ts]
        t_best = ts[int(np.argmin(bayes))]
        step = ts[1] - ts[0]
        assert abs(res.t_selected - t_best) <= step + 1e-12

    @pytest.mark.parametrize("name", ("hinge", "logistic", "exponential"))
    def test_population_risk_is_phi_risk_on_induced_measures(
            self, name, src_default, fc_default):
        # the result is scored by the one weighted-risk route, phi_risk's
        phi = catalog_loss(name)
        for n, seed in ((100, 0), (1000, 3), (10_000, 7)):
            res = joint_erm(phi, generate_samples(src_default, n, seed),
                            fc_default)
            m = induce_measures(res.q_star, src_default)
            assert res.population_phi_risk.hex() == \
                phi_risk(phi, res.gamma_star, m).hex()

    @pytest.mark.parametrize("name", ("hinge", "logistic", "exponential"))
    def test_search_noise_does_not_pick_the_threshold(self, name, src_default,
                                                      fc_default, monkeypatch):
        # +-1e-12 on every per-bin value, far below the 1e-9 tie slack,
        # leaves the selection as it is; thresholds with the same sample
        # split have equal totals, and the smallest of them is selected
        phi = catalog_loss(name)
        samples = [generate_samples(src_default, n, seed)
                   for n in (100, 1000) for seed in range(6)]
        plain = [joint_erm(phi, s, fc_default) for s in samples]
        step = erm._gamma_step
        for sign in (1.0, -1.0):
            def noisy(*args, sign=sign):
                gam, val = step(*args)
                wobble = np.where(np.arange(val.size) % 3 == 1, -sign, sign)
                return gam, val + 1e-12 * wobble
            monkeypatch.setattr(erm, "_gamma_step", noisy)
            for s, res in zip(samples, plain):
                got = joint_erm(phi, s, fc_default)
                assert got.t_selected == res.t_selected, (s.n, s.seed)
        ts = fc_default.thresholds
        for s, res in zip(samples, plain):
            k = int(np.flatnonzero(ts == res.t_selected)[0])
            w_pos, w_neg = erm._threshold_weights(s, ts[:k + 1])
            # no smaller threshold splits the sample as the selected one
            assert k == 0 or not (np.array_equal(w_pos[k - 1], w_pos[k])
                                  and np.array_equal(w_neg[k - 1], w_neg[k]))

    def test_single_class_sample_pushes_to_bound(self, src_default,
                                                 fc_default):
        s = generate_samples(src_default, 200, 4)
        pos_only = type(s)(x=s.x, y=np.ones_like(s.y), seed=-1,
                           src=src_default)
        res = joint_erm(catalog_loss("exponential"), pos_only, fc_default)
        np.testing.assert_allclose(res.gamma_star,
                                   [fc_default.gamma_bound] * 2, atol=1e-6)

    def test_erm_value_is_exact_over_small_family(self, src_default):
        fc = FunctionClassSpec(gamma_bound=4.0,
                               thresholds=threshold_grid(src_default, 11))
        s = generate_samples(src_default, 500, 8)
        phi = catalog_loss("hinge")
        res = joint_erm(phi, s, fc)
        from fdual.optimize import bracket_min
        for t in fc.thresholds:
            total = 0.0
            for z in (0, 1):
                in_bin = (s.x < t) if z == 0 else (s.x >= t)
                npos = float(np.sum(in_bin & (s.y > 0))) / s.n
                nneg = float(np.sum(in_bin & (s.y < 0))) / s.n
                _, v = bracket_min(
                    lambda a: phi(a) * npos + phi(-a) * nneg, -4.0, 4.0)
                total += v
            assert res.empirical_risk <= total + 1e-9

    def test_excess_bayes_nonnegative(self, src_default, fc_default):
        for seed in range(5):
            s = generate_samples(src_default, 300, seed)
            res = joint_erm(catalog_loss("hinge"), s, fc_default)
            assert res.excess_bayes >= -1e-12
            assert excess_bayes_risk(res, src_default, fc_default) == \
                pytest.approx(res.excess_bayes, abs=1e-15)

    def test_table_alternation_monotone(self):
        src = BinnedSource([0.5, 0.3, 0.15, 0.05], [0.05, 0.15, 0.3, 0.5],
                           Priors(0.5, 0.5))
        fc = FunctionClassSpec(gamma_bound=4.0, table_bins=2)
        s = generate_samples(src, 2000, 21)
        res = joint_erm(catalog_loss("hinge"), s, fc)
        trace = np.array(res.objective_trace)
        assert trace.size <= 100
        assert np.all(np.diff(trace) <= 1e-12)
        assert res.excess_bayes >= -1e-12

    def test_table_erm_matches_old_route_bit_for_bit(self):
        fc = FunctionClassSpec(gamma_bound=4.0, table_bins=2)
        for phi, s in bench_table_cases():
            assert_same_table_erm(joint_erm(phi, s, fc),
                                  old_erm_table(phi, s, fc))

    def test_table_erm_at_the_round_cap_matches_old_route(self, monkeypatch):
        # a loss whose offset falls by 1/r^2 per round keeps every decrease
        # above 1e-10, so both routes stop at the cap of 100 row steps
        hinge = catalog_loss("hinge")
        rounds = itertools.count(1)

        class Drifting:
            name, convex, offset = "drifting_hinge", True, 0.0

            def __call__(self, x):
                return hinge(x) + self.offset

        phi = Drifting()
        real_step = erm._gamma_step

        def step(*args):
            phi.offset = 1.0 / next(rounds)
            return real_step(*args)

        monkeypatch.setattr(erm, "_gamma_step", step)
        src = BinnedSource([0.5, 0.3, 0.15, 0.05], [0.05, 0.15, 0.3, 0.5],
                           Priors(0.5, 0.5))
        fc = FunctionClassSpec(gamma_bound=4.0, table_bins=2)
        s = generate_samples(src, 500, 21)
        res = joint_erm(phi, s, fc)
        rounds = itertools.count(1)
        old = old_erm_table(phi, s, fc)
        assert len(res.objective_trace) == 100
        assert_same_table_erm(res, old)


class TestExcessBayes:
    def test_zero_at_population_optimum(self, src_default, fc_default):
        ts = fc_default.thresholds
        bayes = [bayes_risk(induce_measures(ThresholdQuantizer(t), src_default))
                 for t in ts]
        t_best = float(ts[int(np.argmin(bayes))])
        m = induce_measures(ThresholdQuantizer(t_best), src_default)
        gamma = np.where(m.mu - m.pi > 0, 1.0, -1.0)
        from fdual.erm import ErmResult
        res = ErmResult(gamma_star=gamma, q_star=ThresholdQuantizer(t_best),
                        empirical_risk=0.0, population_phi_risk=0.0,
                        excess_bayes=0.0)
        assert excess_bayes_risk(res, src_default, fc_default) == \
            pytest.approx(0.0, abs=1e-15)

    def test_sign_flip_costs_total_variation(self, src_default, fc_default):
        ts = fc_default.thresholds
        bayes = [bayes_risk(induce_measures(ThresholdQuantizer(t), src_default))
                 for t in ts]
        t_best = float(ts[int(np.argmin(bayes))])
        m = induce_measures(ThresholdQuantizer(t_best), src_default)
        gamma = np.where(m.mu - m.pi > 0, 1.0, -1.0)
        flipped = -gamma
        v = named_divergence("variational", m)
        gap = zero_one_risk(flipped, m) - zero_one_risk(gamma, m)
        assert gap == pytest.approx(v, abs=1e-12)


class TestOptimalFamilyBayes:
    def test_threshold_family_equals_per_quantizer_loop(self, src_default,
                                                        fc_default):
        want = min(bayes_risk(induce_measures(ThresholdQuantizer(float(t)),
                                              src_default))
                   for t in fc_default.thresholds)
        assert optimal_family_bayes(fc_default, src_default) == want

    def test_threshold_family_needs_a_uniform_pair(self, fc_default):
        src = BinnedSource([0.6, 0.4], [0.2, 0.8], Priors(0.5, 0.5))
        with pytest.raises(IncompatibleQuantizer):
            optimal_family_bayes(fc_default, src)

    def test_table_family_needs_a_binned_source(self, src_default):
        fc = FunctionClassSpec(gamma_bound=4.0, table_bins=2)
        with pytest.raises(IncompatibleQuantizer,
                           match="table quantizers apply only to binned"):
            optimal_family_bayes(fc, src_default)

    def test_threshold_outside_the_overlap_empties_a_bin(self, src_default):
        # t = 3 > b = 2 gives pi a negative bin; folded in, the family
        # Bayes risk read 1/12 where the one valid member gives 5/24
        fc = FunctionClassSpec(gamma_bound=4.0,
                               thresholds=np.array([1.5, 3.0]))
        with pytest.raises(ZeroMassBin):
            optimal_family_bayes(fc, src_default)
        s = generate_samples(src_default, 200, 5)
        with pytest.raises(ZeroMassBin):
            joint_erm(catalog_loss("hinge"), s, fc)

    def test_table_family_matches_old_loop_bit_for_bit(self, rng):
        # every k**nb <= 256, so the old loop stays cheap
        for i in range(200):
            k = 2 + i % 2
            nb = int(rng.integers(2, 9 if k == 2 else 6))
            pos = rng.uniform(0.0, 1.0, nb)
            neg = rng.uniform(0.0, 1.0, nb)
            src = BinnedSource(pos / pos.sum(), neg / neg.sum(),
                               Priors.from_q(float(rng.uniform(0.05, 0.95))))
            fc = FunctionClassSpec(gamma_bound=1.0, table_bins=k)
            assert optimal_family_bayes(fc, src).hex() == \
                old_family_bayes(fc, src).hex()


class TestLemma2:
    def test_inequality_on_random_draws(self, rng):
        hinge = catalog_loss("hinge")
        fit = variational_family_check(induced_generator(hinge))
        worst = -np.inf
        for _ in range(100):
            a = float(rng.uniform(0.3, 2.0))
            b = a + float(rng.uniform(0.2, 1.5))
            c = b + float(rng.uniform(0.2, 3.0))
            src = UniformPairSource(a, b, c,
                                    Priors.from_q(float(rng.uniform(0.1, 0.9))))
            q = ThresholdQuantizer(float(rng.uniform(a, b)))
            gamma = rng.uniform(-4.0, 4.0, 2)
            lhs, rhs = lemma2_gap(hinge, gamma, q, src, family_fit=fit)
            worst = max(worst, lhs - rhs)
        assert worst <= 1e-10

    def test_equality_at_population_optimum(self, src_default):
        hinge = catalog_loss("hinge")
        ts = threshold_grid(src_default, 101)
        bayes = [bayes_risk(induce_measures(ThresholdQuantizer(t), src_default))
                 for t in ts]
        t_best = float(ts[int(np.argmin(bayes))])
        m = induce_measures(ThresholdQuantizer(t_best), src_default)
        gamma = np.where(m.mu - m.pi > 0, 1.0, -1.0)
        lhs, rhs = lemma2_gap(hinge, gamma, ThresholdQuantizer(t_best),
                              src_default)
        assert lhs == pytest.approx(0.0, abs=1e-10)
        assert rhs == pytest.approx(0.0, abs=1e-9)

    def test_bayes_rule_at_suboptimal_quantizer_doubles_the_gap(
            self, src_default):
        # with the per-bin sign rule in place the loss-excess equals the
        # scaled 0-1 excess, so the right side is exactly twice the left
        hinge = catalog_loss("hinge")
        q = ThresholdQuantizer(1.25)
        m = induce_measures(q, src_default)
        gamma = np.where(m.mu - m.pi > 0, 1.0, -1.0)
        lhs, rhs = lemma2_gap(hinge, gamma, q, src_default)
        assert rhs == pytest.approx(2.0 * lhs, abs=1e-8)
        assert lhs > 0

    def test_threshold_outside_the_overlap_empties_a_bin(self, src_default):
        hinge = catalog_loss("hinge")
        fit = variational_family_check(induced_generator(hinge))
        for bad in (0.5, 2.0):
            with pytest.raises(ZeroMassBin):
                lemma2_gap(hinge, np.zeros(2), ThresholdQuantizer(bad),
                           src_default, family_fit=fit)

    def test_non_member_rejected(self, src_default):
        q = ThresholdQuantizer(1.5)
        with pytest.raises(NotVariationalFamily):
            lemma2_gap(catalog_loss("exponential"), np.zeros(2), q,
                       src_default)

    def test_scaled_loss_excess_identity_across_family(self, src_default):
        # optimal-loss-risk excess tracks the 0-1 excess with factor c = 2
        hinge = catalog_loss("hinge")
        ts = threshold_grid(src_default, 51)
        bayes = np.array([bayes_risk(induce_measures(ThresholdQuantizer(t),
                                                     src_default))
                          for t in ts])
        p, q_ = src_default.priors.p, src_default.priors.q
        mu = np.column_stack([p * (ts - 1.0), p * (4.0 - ts)]) / 3.0
        pi = np.column_stack([q_ * ts, q_ * (2.0 - ts)]) / 2.0
        _, vals = min_per_bin(hinge, mu.ravel(), pi.ravel())
        rphi = vals.reshape(mu.shape).sum(axis=1)
        lhs = rphi - rphi.min()
        rhs = 2.0 * (bayes - bayes.min())
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)


class TestConsistencySweep:
    def test_rows_and_medians(self, src_default, fc_default):
        tab = consistency_sweep([catalog_loss("hinge")], [100, 400],
                                [0, 1, 2], src_default, fc_default)
        assert len(tab.rows) == 6
        med100 = tab.median_excess("hinge", 100)
        med400 = tab.median_excess("hinge", 400)
        assert med100 >= -1e-12 and med400 >= -1e-12
        text = tab.to_csv()
        assert text.splitlines()[0] == "loss,n,seed,excess_bayes,t_selected"
        with_rt = tab.to_csv(include_runtime=True)
        assert with_rt.splitlines()[0] == \
            "loss,n,seed,excess_bayes,t_selected,runtime_ms"

    def test_deterministic_csv(self, src_default, fc_default):
        t1 = consistency_sweep([catalog_loss("hinge")], [100], [0, 1],
                               src_default, fc_default)
        t2 = consistency_sweep([catalog_loss("hinge")], [100], [0, 1],
                               src_default, fc_default)
        assert t1.to_csv() == t2.to_csv()
        assert t1.summary_csv() == t2.summary_csv()


class TestQuantizerMismatch:
    def test_identical_objectives_find_nothing(self):
        f = catalog_generator("hinge")
        with pytest.raises(NoWitnessFound):
            quantizer_mismatch(f, f)

    def test_affine_equivalent_objectives_find_nothing(self):
        base = catalog_generator("exponential")
        shifted = lambda u: 3.0 * base(u) + 2.0 * np.asarray(u, dtype=float) \
            - 1.0
        with pytest.raises(NoWitnessFound):
            quantizer_mismatch(base, shifted)

    def test_variational_vs_hellinger_witness(self):
        wit = quantizer_mismatch(catalog_generator("hinge"),
                                 catalog_generator("exponential"))
        assert wit.t_opt_1 != wit.t_opt_2
        assert wit.bayes_gap > 0.0
        lines = wit.to_csv().splitlines()
        assert lines[0] == "t,risk_f1,risk_f2,bayes"
        assert len(lines) == 1 + wit.thresholds.size
        # the first objective's chosen threshold attains the best grid
        # Bayes risk on the witness source
        k1 = int(np.searchsorted(wit.thresholds, wit.t_opt_1))
        assert wit.bayes[k1] == pytest.approx(float(wit.bayes.min()),
                                              abs=1e-12)


class TestFunctionClassSpec:
    def test_exactly_one_family(self):
        with pytest.raises(ValueError):
            FunctionClassSpec(gamma_bound=2.0)
        with pytest.raises(ValueError):
            FunctionClassSpec(gamma_bound=2.0,
                              thresholds=np.array([1.1, 1.2]), table_bins=2)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="gamma_bound"):
            FunctionClassSpec(gamma_bound=float("nan"), table_bins=2)
        with pytest.raises(ValueError, match="NaN"):
            FunctionClassSpec(gamma_bound=2.0,
                              thresholds=np.array([1.1, float("nan")]))
        with pytest.raises(ValueError, match="NaN"):
            FunctionClassSpec(gamma_bound=2.0,
                              thresholds=np.array([float("nan")]))

    @pytest.mark.parametrize("bins", [0, -1, 1, 2.5, True])
    def test_table_bins_must_be_an_integer_from_2(self, bins):
        with pytest.raises(ValueError, match="table_bins must be an integer"):
            FunctionClassSpec(gamma_bound=2.0, table_bins=bins)

    def test_loss_bound_finite(self, fc_default):
        assert fc_default.loss_bound(catalog_loss("hinge")) == 5.0
        assert np.isfinite(fc_default.loss_bound(catalog_loss("sym_kl")))

    def test_family_bayes_sweep_matches_manual(self, src_default, fc_default):
        manual = min(
            bayes_risk(induce_measures(ThresholdQuantizer(float(t)),
                                       src_default))
            for t in fc_default.thresholds)
        assert optimal_family_bayes(fc_default, src_default) == \
            pytest.approx(manual, abs=1e-15)
