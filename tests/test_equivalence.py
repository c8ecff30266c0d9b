from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fdual.duality import psi_from_f
from fdual.equivalence import (C_GRID, Q_GRID, affine_fit, coercivity_check,
                               dominance_check, symmetry_check,
                               variational_family_check)
from fdual.errors import DegenerateFit, ZeroMassBin
from fdual.losses import catalog_generator, catalog_loss, induced_generator
from fdual.measures import (BinnedSource, Priors, TableQuantizer,
                            ThresholdQuantizer, UniformPairSource, bayes_risk,
                            f_divergence, induce_measures, random_measure)
from fdual.risk import optimal_phi_risk

REALIZABLE = ("hinge", "exponential", "least_squares", "logistic", "sym_kl")


def old_dominance_sides(q1, q2, src):
    """Frozen copy of the route dominance_check replaced: one induced
    JointMeasure per quantizer and prior for the Bayes risks, and one
    clipped divergence per c."""
    b1 = np.empty_like(Q_GRID)
    b2 = np.empty_like(Q_GRID)
    for i, q in enumerate(Q_GRID):
        priors = Priors.from_q(float(q))
        b1[i] = bayes_risk(induce_measures(q1, replace(src, priors=priors)))
        b2[i] = bayes_risk(induce_measures(q2, replace(src, priors=priors)))

    def clipped(m):
        p1, p_1 = m.conditionals()
        return np.array([-float(np.minimum(p1, c * p_1).sum())
                         for c in C_GRID])

    return (b1, b2, clipped(induce_measures(q1, src)),
            clipped(induce_measures(q2, src)))


class TestAffineFit:
    def test_constructed_affine_pair(self):
        f1 = catalog_generator("hinge")
        f2 = lambda u: -6.0 * np.minimum(np.asarray(u, dtype=float), 1.0) \
            + 2.0 * np.asarray(u, dtype=float) - 1.0
        rep = affine_fit(f1, f2)
        assert rep.verdict
        np.testing.assert_allclose([rep.c, rep.a, rep.b],
                                   [1 / 3, -2 / 3, 1 / 3], atol=1e-8)
        rev = affine_fit(f2, f1)
        np.testing.assert_allclose([rev.c, rev.a, rev.b], [3.0, 2.0, -1.0],
                                   atol=1e-8)

    def test_identity_fit(self):
        rep = affine_fit(catalog_generator("exponential"),
                         catalog_generator("exponential"))
        np.testing.assert_allclose([rep.c, rep.a, rep.b], [1.0, 0.0, 0.0],
                                   atol=1e-12)
        assert rep.residual <= 1e-12

    def test_distinct_shapes_rejected(self):
        rep = affine_fit(catalog_generator("hinge"),
                         catalog_generator("exponential"))
        assert not rep.verdict
        assert rep.residual > 1e-2

    def test_affine_reference_is_degenerate(self):
        with pytest.raises(DegenerateFit):
            affine_fit(catalog_generator("hinge"),
                       lambda u: 2.0 * np.asarray(u, dtype=float) - 1.0)

    def test_negative_scale_fails_verdict(self):
        f1 = lambda u: 2.0 * np.sqrt(np.asarray(u, dtype=float))
        rep = affine_fit(f1, catalog_generator("exponential"))
        assert rep.residual <= 1e-8 and rep.c < 0
        assert not rep.verdict

    @given(c=st.floats(0.1, 5.0), a=st.floats(-2.0, 2.0),
           b=st.floats(-2.0, 2.0))
    def test_random_affine_members_recovered(self, c, a, b):
        base = catalog_generator("exponential")
        f1 = lambda u: c * base(u) + a * np.asarray(u, dtype=float) + b
        rep = affine_fit(f1, base)
        assert rep.verdict
        np.testing.assert_allclose([rep.c, rep.a, rep.b], [c, a, b],
                                   atol=1e-7)


class TestVariationalFamily:
    def test_hinge_and_zero_one_members(self):
        rep = variational_family_check(induced_generator(catalog_loss("hinge")))
        assert rep.verdict
        np.testing.assert_allclose([rep.c, rep.a, rep.b], [2.0, 0.0, 0.0],
                                   atol=1e-6)
        rep01 = variational_family_check(
            induced_generator(catalog_loss("zero_one")))
        assert rep01.verdict
        np.testing.assert_allclose(rep01.c, 1.0, atol=1e-6)

    @pytest.mark.parametrize("name", ["exponential", "logistic",
                                      "least_squares"])
    def test_other_catalog_losses_outside(self, name):
        rep = variational_family_check(
            induced_generator(catalog_loss(name)))
        assert not rep.verdict

    def test_explicit_member(self):
        f = lambda u: -np.minimum(np.asarray(u, dtype=float), 1.0) \
            + 5.0 * np.asarray(u, dtype=float) + 3.0
        rep = variational_family_check(f)
        assert rep.verdict
        np.testing.assert_allclose([rep.c, rep.a, rep.b], [1.0, 5.0, 3.0],
                                   atol=1e-8)


class TestSymmetry:
    @pytest.mark.parametrize("name", REALIZABLE)
    def test_realizable_generators_are_symmetric(self, name):
        assert symmetry_check(catalog_generator(name))

    def test_plain_kl_is_not(self):
        assert not symmetry_check(catalog_generator("kl"))

    @pytest.mark.parametrize("name,expected", [("hinge", True),
                                               ("sym_kl", True),
                                               ("kl", False)])
    def test_symmetry_equals_swap_invariance(self, name, expected, rng):
        f = catalog_generator(name)
        assert symmetry_check(f) is expected
        for _ in range(15):
            m = random_measure(rng, int(rng.integers(2, 7)))
            gap = abs(f_divergence(f, m) - f_divergence(f, m.swapped()))
            if expected:
                assert gap <= 1e-9
        if not expected:
            m = random_measure(rng, 4)
            assert abs(f_divergence(f, m)
                       - f_divergence(f, m.swapped())) > 1e-6


class TestCoercivity:
    def test_superlinear_generators(self):
        assert coercivity_check(catalog_generator("sym_kl"))
        assert coercivity_check(lambda u: np.asarray(u, dtype=float) ** 2)
        assert coercivity_check(catalog_generator("kl"))

    @pytest.mark.parametrize("name", ["hinge", "exponential", "logistic"])
    def test_bounded_below_losses_are_not_coercive(self, name):
        assert not coercivity_check(catalog_generator(name))

    @pytest.mark.parametrize("name", ["zero_one", "hinge", "eq10_nonconvex",
                                      "exponential", "least_squares",
                                      "logistic", "sym_kl", "kl"])
    def test_coercive_exactly_when_psi_is_finite_everywhere(self, name):
        # 1-coercive <=> recession slope +inf <=> beta1 = -inf
        f = catalog_generator(name)
        assert coercivity_check(f) == (psi_from_f(f).beta1 == -np.inf)
        assert coercivity_check(f) == (name in ("sym_kl", "kl"))

    def test_coercive_generator_has_unbounded_loss(self):
        # the loss realizing the symmetric-KL generator dives to -inf
        phi = catalog_loss("sym_kl")
        assert phi(50.0) < -40.0
        assert phi.inf_value == -np.inf


class TestDominance:
    def test_identical_quantizers_dominate_both_ways(self, src_default):
        q = ThresholdQuantizer(1.5)
        rep = dominance_check(q, q, src_default)
        assert rep.dominance_by_prior == (True, True)
        assert rep.dominance_by_divergence == (True, True)
        assert rep.agreement

    def test_garbled_table_is_dominated(self):
        src = BinnedSource([0.7, 0.3], [0.2, 0.8], Priors(0.5, 0.5))
        q1 = TableQuantizer(np.eye(2))
        channel = np.array([[0.7, 0.3], [0.3, 0.7]])
        q2 = TableQuantizer(np.eye(2) @ channel)
        rep = dominance_check(q1, q2, src)
        assert rep.dominance_by_prior == (True, False)
        assert rep.dominance_by_divergence == (True, False)
        assert rep.agreement
        # every catalog loss ranks the pair the same way
        m1 = induce_measures(q1, src)
        m2 = induce_measures(q2, src)
        for name in REALIZABLE:
            phi = catalog_loss(name)
            r1, _ = optimal_phi_risk(phi, m1)
            r2, _ = optimal_phi_risk(phi, m2)
            assert r1 <= r2 + 1e-10

    def test_flipping_pair_agrees_without_dominance(self, src_default):
        rep = dominance_check(ThresholdQuantizer(1.5),
                              ThresholdQuantizer(1.9), src_default)
        assert rep.dominance_by_prior == (False, False)
        assert rep.agreement

    def test_matches_old_route_bit_for_bit(self, rng):
        cases = []
        for _ in range(200):
            a = float(rng.uniform(0.2, 2.0))
            b = a + float(rng.uniform(0.1, 2.0))
            c = b + float(rng.uniform(0.1, 3.0))
            q = float(rng.uniform(0.15, 0.85))
            src = UniformPairSource(a, b, c, Priors.from_q(q))
            t1, t2 = (float(t) for t in rng.uniform(a, b, 2))
            cases.append((ThresholdQuantizer(t1), ThresholdQuantizer(t2), src))
        for k in range(30):
            nb, z = 3 + k % 10, 2 + k % 11  # up to 12 letters per sum
            pos, neg = rng.uniform(0.05, 1.0, (2, nb))
            src = BinnedSource(pos / pos.sum(), neg / neg.sum(),
                               Priors.from_q(float(rng.uniform(0.15, 0.85))))
            rows = rng.uniform(0.05, 1.0, (2, nb, z))
            q1, q2 = (TableQuantizer(r / r.sum(axis=1, keepdims=True))
                      for r in rows)
            cases.append((q1, q2, src))
        for q1, q2, src in cases:
            rep = dominance_check(q1, q2, src)
            got = (rep.bayes_1, rep.bayes_2, rep.div_1, rep.div_2)
            for x, y in zip(got, old_dominance_sides(q1, q2, src)):
                assert x.tobytes() == y.tobytes()

    def test_emptied_bin_still_raises(self, src_default):
        with pytest.raises(ZeroMassBin):
            dominance_check(ThresholdQuantizer(1.5), ThresholdQuantizer(2.0),
                            src_default)
        src = BinnedSource([0.6, 0.4], [0.2, 0.8], Priors(0.5, 0.5))
        with pytest.raises(ZeroMassBin):
            dominance_check(TableQuantizer(np.eye(2)),
                            TableQuantizer([[1.0, 0.0], [1.0, 0.0]]), src)

    def test_report_grids_are_read_only(self, src_default):
        rep = dominance_check(ThresholdQuantizer(1.4),
                              ThresholdQuantizer(1.6), src_default)
        for grid in (rep.q_grid, rep.c_grid):
            with pytest.raises(ValueError):
                grid[0] = 0.5
        assert rep.q_grid[0] == 0.05

    def test_csv_layout(self, src_default):
        rep = dominance_check(ThresholdQuantizer(1.4),
                              ThresholdQuantizer(1.6), src_default)
        lines = rep.to_csv().strip().split("\n")
        assert lines[0] == "criterion,point,value_q1,value_q2"
        assert len(lines) == 1 + 19 + 25


class TestOrderingAgreement:
    def test_affine_pairs_order_thresholds_identically(self, rng):
        base = catalog_generator("exponential")
        for _ in range(25):
            c = float(rng.uniform(0.2, 4.0))
            a = float(rng.uniform(-2.0, 2.0))
            b = float(rng.uniform(-2.0, 2.0))
            f2 = lambda u, c=c, a=a, b=b: \
                c * base(u) + a * np.asarray(u, dtype=float) + b
            lo = float(rng.uniform(0.3, 1.5))
            mid = lo + float(rng.uniform(0.2, 1.0))
            hi = mid + float(rng.uniform(0.2, 2.0))
            src = UniformPairSource(lo, mid, hi,
                                    Priors.from_q(float(rng.uniform(0.2, 0.8))))
            t1 = float(rng.uniform(lo, mid))
            t2 = float(rng.uniform(lo, mid))
            m1 = induce_measures(ThresholdQuantizer(t1), src)
            m2 = induce_measures(ThresholdQuantizer(t2), src)
            d_base = f_divergence(base, m1) - f_divergence(base, m2)
            d_two = f_divergence(f2, m1) - f_divergence(f2, m2)
            assert np.sign(d_base) == np.sign(d_two) or abs(d_base) < 1e-12
