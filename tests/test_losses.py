import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fdual.duality import psi_from_f
from fdual.errors import BadLink, NotConvex, UnrealizableDivergence
from fdual.losses import (GLink, SurrogateLoss, catalog_generator,
                          catalog_link, catalog_loss, check_A3,
                          check_calibration_convex, check_calibration_general,
                          curve_csv, f_from_loss, loss_from_f,
                          LOSS_NAMES, RECIPE_LINKS)

INF = math.inf


def _adhoc_loss(fn, name, convex, decreasing, alpha_star, inf_value):
    return SurrogateLoss(fn, name, convex=convex, decreasing=decreasing,
                         alpha_star=alpha_star, inf_value=inf_value)


class TestCatalogValues:
    def test_spot_values(self):
        assert catalog_loss("hinge")(-1.0) == 2.0
        assert catalog_loss("sym_kl")(0.0) == 0.0
        assert catalog_loss("eq10_nonconvex")(0.5) == pytest.approx(
            math.exp(-0.5))
        assert catalog_loss("zero_one")(0.0) == 1.0
        assert catalog_loss("zero_one")(1e-9) == 0.0
        assert catalog_loss("logistic")(0.0) == pytest.approx(math.log(2.0))

    def test_negative_infinity_convention(self):
        for name in ("hinge", "exponential", "logistic", "least_squares",
                     "sym_kl", "eq10_nonconvex"):
            assert catalog_loss(name)(-INF) == INF

    def test_negative_infinity_inside_an_array(self):
        vals = catalog_loss("hinge")(np.array([-INF, 0.5, INF]))
        assert vals.tolist() == [INF, 0.5, 0.0]

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_scalar_and_array_calls_agree_bitwise(self, name):
        phi = catalog_loss(name)
        xs = np.random.default_rng(5).uniform(-60.0, 60.0, 4000)
        arr = phi(xs)
        assert all(phi(float(x)) == arr[k] for k, x in enumerate(xs))
        assert all(phi(xs[k:k + 1])[0] == arr[k] for k in range(0, 4000, 97))

    def test_u_star_is_value_at_zero(self):
        for name in ("hinge", "exponential", "least_squares"):
            phi = catalog_loss(name)
            assert phi.u_star == phi(0.0)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            catalog_loss("perceptron")


class TestForwardMap:
    def test_hinge_value(self):
        assert f_from_loss(catalog_loss("hinge"), 0.25) == pytest.approx(
            -0.5, abs=1e-9)

    def test_exponential_value(self):
        # inf_a e^a + 4 e^-a = 2*sqrt(4) = 4
        assert f_from_loss(catalog_loss("exponential"), 4.0) == pytest.approx(
            -4.0, abs=1e-9)

    def test_least_squares_value(self):
        # inf_a (1+a)^2 + (1-a)^2 = 2, so f(1) = -2 = -4*1/(1+1)
        assert f_from_loss(catalog_loss("least_squares"), 1.0) == pytest.approx(
            -2.0, abs=1e-9)

    def test_zero_one_recovers_clipped_min(self):
        z = catalog_loss("zero_one")
        for u in (0.0, 0.3, 1.0, 2.5):
            assert f_from_loss(z, u) == pytest.approx(-min(u, 1.0), abs=1e-6)

    def test_nonconvex_route_recovers_clipped_min(self):
        phi = catalog_loss("eq10_nonconvex")
        us = np.array([0.1, 0.5, 1.0, 3.0])
        np.testing.assert_allclose(f_from_loss(phi, us),
                                   -2 * np.minimum(us, 1.0), atol=1e-6)

    @pytest.mark.parametrize("name", ["hinge", "exponential", "logistic",
                                      "least_squares", "sym_kl"])
    def test_catalog_generators_reproduced(self, name):
        phi = catalog_loss(name)
        f = catalog_generator(name)
        us = np.geomspace(1e-3, 1e3, 41)
        np.testing.assert_allclose(f_from_loss(phi, us), f(us), atol=1e-6)

    def test_rejects_negative_ratio(self):
        with pytest.raises(ValueError):
            f_from_loss(catalog_loss("hinge"), -0.5)

    def test_unbounded_objective_detected(self):
        from fdual.errors import Unbounded
        # a linear decreasing loss drives the objective to -inf once the
        # ratio weight exceeds one
        lin = SurrogateLoss(lambda a: -np.asarray(a, dtype=float), "linear",
                            convex=True, decreasing=True,
                            alpha_star=math.inf, inf_value=-math.inf)
        with pytest.raises(Unbounded):
            f_from_loss(lin, 2.0)


class TestConstructiveMap:
    @pytest.mark.parametrize("name,link", sorted(RECIPE_LINKS.items()))
    def test_recipes_rebuild_catalog_losses(self, name, link):
        rec = loss_from_f(catalog_generator(name), catalog_link(link))
        ref = catalog_loss(name)
        alphas = np.linspace(-5.0, 5.0, 201)
        np.testing.assert_allclose(rec(alphas), ref(alphas), atol=1e-6)
        assert rec(0.0) == pytest.approx(
            psi_from_f(catalog_generator(name)).u_star, abs=1e-9)

    def test_exponential_link_on_clipped_min_is_nonconvex(self):
        rec = loss_from_f(catalog_generator("hinge"),
                          catalog_link("exp_shift"))
        assert not rec.convex
        assert rec.decreasing
        # it still induces the same generator as the hinge loss
        us = np.geomspace(1e-2, 1e2, 31)
        np.testing.assert_allclose(f_from_loss(rec, us),
                                   catalog_generator("hinge")(us), atol=1e-6)

    def test_many_links_one_generator(self):
        f = catalog_generator("hinge")

        def kinked(u):
            u = np.asarray(u, dtype=float)
            return np.where(u <= 2.0, u, 3.0 * u - 4.0)

        g2 = GLink(kinked, u_star=1.0, name="kinked")
        l1 = loss_from_f(f, catalog_link("identity"))
        l2 = loss_from_f(f, g2)
        alphas = np.linspace(-4.0, 4.0, 81)
        assert np.max(np.abs(l1(alphas) - l2(alphas))) > 0.1
        us = np.geomspace(1e-2, 1e2, 31)
        np.testing.assert_allclose(f_from_loss(l1, us), f_from_loss(l2, us),
                                   atol=1e-6)

    def test_unrealizable_generator_rejected(self):
        with pytest.raises(UnrealizableDivergence):
            loss_from_f(catalog_generator("kl"), catalog_link("identity"))

    def test_bad_link_rejected(self):
        f = catalog_generator("hinge")
        with pytest.raises(BadLink):
            loss_from_f(f, GLink(lambda u: np.asarray(u) + 0.5, u_star=1.0))
        with pytest.raises(BadLink):
            decreasing = GLink(lambda u: 2.0 - np.asarray(u, dtype=float),
                               u_star=1.0)
            loss_from_f(f, decreasing)

    def test_roundtrip_generator_loss_generator(self):
        us = np.geomspace(1e-3, 1e3, 41)
        for name, link in RECIPE_LINKS.items():
            rec = loss_from_f(catalog_generator(name), catalog_link(link))
            np.testing.assert_allclose(f_from_loss(rec, us),
                                       catalog_generator(name)(us), atol=1e-6)


class TestCalibrationConvex:
    def test_hinge_slope_minus_one(self):
        assert check_calibration_convex(catalog_loss("hinge"))

    def test_least_squares_slope_minus_two(self):
        assert check_calibration_convex(catalog_loss("least_squares"))

    def test_flat_minimum_at_zero_is_not_calibrated(self):
        sq = _adhoc_loss(lambda a: np.asarray(a, dtype=float) ** 2,
                         "alpha_sq", True, False, 0.0, 0.0)
        assert not check_calibration_convex(sq)

    def test_kink_at_zero_is_not_calibrated(self):
        vee = _adhoc_loss(lambda a: np.abs(np.asarray(a, dtype=float)) + 1.0,
                          "vee", True, False, 0.0, 1.0)
        assert not check_calibration_convex(vee)

    def test_requires_convex_flag(self):
        with pytest.raises(NotConvex):
            check_calibration_convex(catalog_loss("zero_one"))


class TestCalibrationGeneral:
    def test_hinge(self):
        assert check_calibration_general(catalog_loss("hinge"))

    def test_nonconvex_catalog_loss(self):
        assert check_calibration_general(catalog_loss("eq10_nonconvex"))

    def test_constant_loss_fails(self):
        const = _adhoc_loss(lambda a: np.ones_like(np.asarray(a, dtype=float)),
                            "const", True, True, -INF, 1.0)
        assert not check_calibration_general(const)


class TestA3:
    def test_hinge_and_least_squares_hold(self):
        assert check_A3(catalog_loss("hinge"))
        assert check_A3(catalog_loss("least_squares"))

    def test_vacuous_when_minimum_not_attained(self):
        assert check_A3(catalog_loss("exponential"))

    def test_heavier_positive_branch_fails(self):
        # e^a - a - 1 penalizes positive deviations from its minimum more
        mirrored = _adhoc_loss(
            lambda a: np.exp(np.minimum(np.asarray(a, dtype=float), 700.0))
            - np.asarray(a, dtype=float) - 1.0,
            "mirrored_sym_kl", True, False, 0.0, 0.0)
        assert not check_A3(mirrored)

    def test_symmetric_parabola_holds_with_equality(self):
        # (1+a)^2 penalizes both sides of its minimum identically, so the
        # non-strict comparison is satisfied
        mirrored_sq = _adhoc_loss(
            lambda a: (1.0 + np.asarray(a, dtype=float)) ** 2,
            "mirrored_square", True, False, -1.0, 0.0)
        assert check_A3(mirrored_sq)


class TestLinkCalls:
    @pytest.mark.parametrize("name", sorted(set(RECIPE_LINKS.values())))
    def test_scalar_and_array_calls_agree_bitwise(self, name):
        g = catalog_link(name)
        xs = np.random.default_rng(6).uniform(-30.0, 30.0, 4000)
        arr = g(xs)
        assert all(g(float(x)) == arr[k] for k, x in enumerate(xs))


class TestLinkValidation:
    def test_catalog_links_validate(self):
        for name in ("identity", "exp_shift", "square", "logistic_link",
                     "symkl_link"):
            catalog_link(name).validate()

    @given(shift=st.floats(-0.5, 0.5))
    def test_anchor_violations_are_caught(self, shift):
        if abs(shift) < 1e-9:
            return
        g = GLink(lambda u: np.asarray(u, dtype=float) + shift, u_star=1.0)
        with pytest.raises(BadLink):
            g.validate()


class TestCurveCsv:
    def test_two_column_format(self):
        text = curve_csv(catalog_loss("hinge"), [0.0, 1.0, 2.0],
                         x_name="alpha", y_name="phi")
        lines = text.strip().split("\n")
        assert lines[0] == "alpha,phi"
        assert lines[1] == "0.0,1.0"
        assert lines[3] == "2.0,0.0"
