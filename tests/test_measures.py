import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fdual.errors import IncompatibleQuantizer, InfiniteValue, ZeroMassBin
from fdual.losses import catalog_generator
from fdual.measures import (BinnedSource, JointMeasure, Priors,
                            TableQuantizer, ThresholdQuantizer,
                            UniformPairSource, bayes_risk, f_divergence,
                            induce_measures, named_divergence,
                            quantizer_masses, random_measure,
                            threshold_masses)


def make_measure(mu, pi, p=0.5):
    return JointMeasure(mu, pi, Priors.from_q(1.0 - p))


class TestPriors:
    def test_sum_is_exact(self):
        for q in (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 1 / 3, 1 / 7):
            pr = Priors.from_q(q)
            assert pr.p + pr.q == 1.0
            assert 0.0 < pr.p < 1.0

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Priors(1.0, 0.0)
        with pytest.raises(ValueError):
            Priors(0.6, 0.6)


class TestJointMeasure:
    def test_strict_positivity_enforced(self):
        with pytest.raises(ZeroMassBin):
            JointMeasure([0.5, 0.0], [0.25, 0.25], Priors(0.5, 0.5))

    def test_mass_consistency_enforced(self):
        with pytest.raises(ValueError):
            JointMeasure([0.3, 0.3], [0.25, 0.25], Priors(0.5, 0.5))

    def test_immutable(self, m_standard):
        with pytest.raises(ValueError):
            m_standard.mu[0] = 1.0

    def test_csv_roundtrippable_text(self, m_standard):
        text = m_standard.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "z,mu,pi"
        z, mu, pi = lines[1].split(",")
        assert (int(z), float(mu), float(pi)) == (0, 0.3, 0.1)


class TestNanInput:
    # NaN fails no comparison-based check, so each constructor tests for it
    nan = float("nan")

    def test_joint_measure(self):
        with pytest.raises(ValueError, match="mu must not be NaN"):
            JointMeasure([0.5, self.nan], [0.25, 0.25], Priors(0.5, 0.5))
        with pytest.raises(ValueError, match="pi must not be NaN"):
            JointMeasure([0.25, 0.25], [self.nan, 0.5], Priors(0.5, 0.5))

    def test_binned_source(self):
        with pytest.raises(ValueError, match="pos_masses must not be NaN"):
            BinnedSource([self.nan, 1.0], [0.5, 0.5], Priors(0.5, 0.5))
        with pytest.raises(ValueError, match="neg_masses must not be NaN"):
            BinnedSource([0.5, 0.5], [1.0, self.nan], Priors(0.5, 0.5))

    def test_table_quantizer(self):
        with pytest.raises(ValueError, match="table rows must not be NaN"):
            TableQuantizer([[1.0, 0.0], [self.nan, 1.0]])


class TestInduceMeasures:
    def test_threshold_closed_forms(self, src_default):
        m = induce_measures(ThresholdQuantizer(1.5), src_default)
        np.testing.assert_allclose(m.mu, [1 / 12, 5 / 12], rtol=0, atol=1e-15)
        np.testing.assert_allclose(m.pi, [0.375, 0.125], rtol=0, atol=1e-15)

    def test_identity_table_halves_class_masses(self):
        src = BinnedSource([0.6, 0.4], [0.2, 0.8], Priors(0.5, 0.5))
        m = induce_measures(TableQuantizer(np.eye(2)), src)
        np.testing.assert_allclose(m.mu, [0.3, 0.2], atol=1e-15)
        np.testing.assert_allclose(m.pi, [0.1, 0.4], atol=1e-15)

    def test_uniform_rows_mix_everything(self):
        src = BinnedSource([0.6, 0.4], [0.2, 0.8], Priors(0.5, 0.5))
        m = induce_measures(TableQuantizer([[0.5, 0.5], [0.5, 0.5]]), src)
        np.testing.assert_allclose(m.mu, [0.25, 0.25], atol=1e-15)
        np.testing.assert_allclose(m.pi, [0.25, 0.25], atol=1e-15)

    def test_priors_recovered_exactly(self, rng):
        for _ in range(50):
            a = rng.uniform(0.2, 2.0)
            b = a + rng.uniform(0.1, 2.0)
            c = b + rng.uniform(0.1, 3.0)
            pr = Priors.from_q(float(rng.uniform(0.05, 0.95)))
            src = UniformPairSource(a, b, c, pr)
            t = float(rng.uniform(a, b))
            m = induce_measures(ThresholdQuantizer(t), src)
            assert abs(float(m.mu.sum()) - pr.p) <= 1e-12
            assert abs(float(m.pi.sum()) - pr.q) <= 1e-12

    def test_threshold_outside_support_empties_a_bin(self, src_default):
        with pytest.raises(ZeroMassBin):
            induce_measures(ThresholdQuantizer(0.5), src_default)
        with pytest.raises(ZeroMassBin):
            induce_measures(ThresholdQuantizer(2.0), src_default)

    def test_kind_mismatch(self, src_default):
        with pytest.raises(IncompatibleQuantizer):
            induce_measures(TableQuantizer(np.eye(2)), src_default)
        src = BinnedSource([0.6, 0.4], [0.2, 0.8], Priors(0.5, 0.5))
        with pytest.raises(IncompatibleQuantizer):
            induce_measures(ThresholdQuantizer(1.5), src)

    def test_raw_masses_skip_the_positivity_check(self, src_default):
        # quantizer_masses scores a threshold that empties a bin, and a
        # table whose second letter gets no mass; induce_measures refuses
        mu, pi = quantizer_masses(ThresholdQuantizer(2.0), src_default)
        assert pi[1] == 0.0
        src = BinnedSource([0.6, 0.4], [0.2, 0.8], Priors(0.5, 0.5))
        q = TableQuantizer([[1.0, 0.0], [1.0, 0.0]])
        mu, pi = quantizer_masses(q, src)
        assert mu.tolist() == [0.5, 0.0] and pi.tolist() == [0.5, 0.0]
        with pytest.raises(ZeroMassBin):
            induce_measures(q, src)

    def test_table_rows_must_match_the_source_bins(self):
        src = BinnedSource([0.6, 0.4], [0.2, 0.8], Priors(0.5, 0.5))
        q = TableQuantizer(np.full((3, 2), 0.5))
        for route in (quantizer_masses, induce_measures):
            with pytest.raises(IncompatibleQuantizer, match="3 rows"):
                route(q, src)


class TestThresholdMasses:
    def test_rows_equal_induced_measures_bitwise(self, rng):
        for _ in range(20):
            a = float(rng.uniform(0.2, 2.0))
            b = a + float(rng.uniform(0.1, 2.0))
            c = b + float(rng.uniform(0.1, 3.0))
            pr = Priors.from_q(float(rng.uniform(0.05, 0.95)))
            src = UniformPairSource(a, b, c, pr)
            ts = np.sort(rng.uniform(a, b, 7))
            mu, pi = threshold_masses(src, ts)
            assert mu.shape == pi.shape == (7, 2)
            for k, t in enumerate(ts):
                m = induce_measures(ThresholdQuantizer(float(t)), src)
                assert mu[k].tobytes() == m.mu.tobytes()
                assert pi[k].tobytes() == m.pi.tobytes()

    def test_closed_forms_bit_for_bit(self, rng):
        # the docstring formulas in their operation order
        for _ in range(50):
            a = float(rng.uniform(0.2, 2.0))
            b = a + float(rng.uniform(0.1, 2.0))
            c = b + float(rng.uniform(0.1, 3.0))
            pr = Priors.from_q(float(rng.uniform(0.05, 0.95)))
            p, q = pr.p, pr.q
            t = np.sort(rng.uniform(a, b, 5))
            mu, pi = threshold_masses(UniformPairSource(a, b, c, pr), t)
            want_mu = np.column_stack([p * (t - a) / (c - a),
                                       p * (c - t) / (c - a)])
            want_pi = np.column_stack([q * t / b, q * (b - t) / b])
            assert mu.tobytes() == want_mu.tobytes()
            assert pi.tobytes() == want_pi.tobytes()
            pos, neg = rng.uniform(0.05, 1.0, (2, 4))
            src = BinnedSource(pos / pos.sum(), neg / neg.sum(), pr)
            rows = rng.uniform(0.0, 1.0, (4, 3))
            tq = TableQuantizer(rows / rows.sum(axis=1, keepdims=True))
            mu, pi = quantizer_masses(tq, src)
            assert mu.tobytes() == (p * (src.pos_masses @ tq.rows)).tobytes()
            assert pi.tobytes() == (q * (src.neg_masses @ tq.rows)).tobytes()

    def test_scalar_threshold_is_one_row(self, src_default):
        mu, pi = threshold_masses(src_default, 1.5)
        assert mu.shape == pi.shape == (1, 2)

    def test_no_positivity_check(self, src_default):
        # outside (a, b) a bin goes empty or negative; callers that need
        # strictly positive masses check themselves
        mu, pi = threshold_masses(src_default, [0.5, 2.0])
        assert mu[0, 0] < 0.0 and pi[1, 1] == 0.0

    def test_needs_a_uniform_pair(self):
        src = BinnedSource([0.6, 0.4], [0.2, 0.8], Priors(0.5, 0.5))
        with pytest.raises(IncompatibleQuantizer):
            threshold_masses(src, [0.5])


class TestFDivergence:
    def test_hellinger_generator_value(self, m_standard):
        val = f_divergence(catalog_generator("exponential"), m_standard)
        expected = 0.1 * (-2 * math.sqrt(3.0)) + 0.4 * (-2 * math.sqrt(0.5))
        np.testing.assert_allclose(val, expected, atol=1e-12)
        np.testing.assert_allclose(val, -0.9120955864630135, atol=1e-12)

    def test_linear_generator_sees_only_priors(self, rng):
        linear = lambda u: np.asarray(u) - 1.0
        for _ in range(20):
            pr = Priors.from_q(float(rng.uniform(0.1, 0.9)))
            m1 = random_measure(rng, 4, pr)
            m2 = random_measure(rng, 7, pr)
            v1 = f_divergence(linear, m1)
            v2 = f_divergence(linear, m2)
            np.testing.assert_allclose(v1, pr.p - pr.q, atol=1e-12)
            np.testing.assert_allclose(v1, v2, atol=1e-12)

    def test_equal_measures_clipped_min(self):
        m = make_measure([0.25, 0.25], [0.25, 0.25])
        val = f_divergence(lambda u: -np.minimum(np.asarray(u), 1.0), m)
        np.testing.assert_allclose(val, -0.5, atol=1e-15)

    def test_infinite_value_raises(self, m_standard):
        spiky = lambda u: np.where(np.asarray(u) > 1.0, np.inf, 0.0)
        with pytest.raises(InfiniteValue):
            f_divergence(spiky, m_standard)


class TestNamedDivergence:
    def test_variational_value(self, m_standard):
        assert named_divergence("variational", m_standard) == pytest.approx(0.4)

    def test_identical_measures_vanish(self):
        m = make_measure([0.2, 0.3], [0.2, 0.3])
        for name in ("variational", "hellinger_term", "triangular",
                     "capacitory", "symmetric_kl"):
            assert named_divergence(name, m) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_kl_matches_generator_route(self, m_standard, rng):
        f = catalog_generator("sym_kl")
        gap = abs(named_divergence("symmetric_kl", m_standard)
                  - f_divergence(f, m_standard))
        assert gap <= 1e-9
        for _ in range(20):
            m = random_measure(rng, int(rng.integers(2, 7)))
            gap = abs(named_divergence("symmetric_kl", m)
                      - f_divergence(f, m))
            assert gap <= 1e-9

    def test_unknown_name(self, m_standard):
        with pytest.raises(ValueError):
            named_divergence("chi_squared", m_standard)


class TestBayesRisk:
    def test_worked_example(self, m_standard):
        assert bayes_risk(m_standard) == pytest.approx(0.3)

    def test_equal_measures(self):
        m = make_measure([0.2, 0.3], [0.2, 0.3])
        assert bayes_risk(m) == pytest.approx(0.5)

    def test_appendix_instance(self, src_default):
        m = induce_measures(ThresholdQuantizer(1.5), src_default)
        assert bayes_risk(m) == pytest.approx(1 / 12 + 0.125, abs=1e-12)

    def test_half_one_minus_variational_when_total_mass_one(self, rng):
        for _ in range(20):
            m = random_measure(rng, int(rng.integers(2, 9)))
            v = named_divergence("variational", m)
            np.testing.assert_allclose(bayes_risk(m), 0.5 * (1.0 - v),
                                       atol=1e-12)


class TestStructuralInvariants:
    def test_scaled_min_generator_gives_twice_bayes(self, rng):
        f = catalog_generator("hinge")
        for _ in range(30):
            m = random_measure(rng, int(rng.integers(2, 9)))
            np.testing.assert_allclose(bayes_risk(m),
                                       -0.5 * f_divergence(f, m), atol=1e-12)

    @pytest.mark.parametrize("name", ["hinge", "exponential", "least_squares",
                                      "logistic", "sym_kl"])
    def test_merging_bins_never_increases_divergence(self, name, rng):
        f = catalog_generator(name)
        for _ in range(10):
            m = random_measure(rng, 5)
            base = f_divergence(f, m)
            for i in range(m.z_count):
                for j in range(i + 1, m.z_count):
                    assert f_divergence(f, m.merge_bins(i, j)) <= base + 1e-12

    @given(q=st.floats(0.1, 0.9), t_frac=st.floats(0.05, 0.95))
    def test_induced_measures_satisfy_invariants(self, q, t_frac):
        pr = Priors.from_q(q)
        src = UniformPairSource(1.0, 2.0, 4.0, pr)
        t = 1.0 + t_frac * (2.0 - 1.0)
        m = induce_measures(ThresholdQuantizer(t), src)
        assert np.all(m.mu > 0) and np.all(m.pi > 0)
        assert bayes_risk(m) <= min(pr.p, pr.q) + 1e-12
