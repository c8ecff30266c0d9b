import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fdual.duality import (Generator, check_convex_sampled,
                           check_theorem1_conditions, conjugate, phi_inverse,
                           psi_from_f, psi_tilde_from_loss)
from fdual.errors import GridTooNarrow, NoFixedPoint
from fdual.losses import catalog_generator, catalog_loss, induced_generator

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


class TestPsiFromF:
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

    def test_fully_numeric_route_matches_closed_form(self):
        # loss -> induced generator -> numeric Psi, no closed form anywhere
        psi = psi_from_f(induced_generator(catalog_loss("hinge")))
        grid = np.linspace(1e-3, 2.0 - 1e-3, 1000)
        np.testing.assert_allclose(psi(grid), 2.0 - grid, atol=1e-4)
        assert psi.u_star == pytest.approx(1.0, abs=1e-6)

    def test_no_fixed_point_for_degenerate_generator(self):
        lin = Generator(lambda u: 2.0 * np.asarray(u, dtype=float),
                        name="linear")
        with pytest.raises(NoFixedPoint):
            psi_from_f(lin)


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

    def test_csv_shape(self):
        psi = psi_from_f(catalog_generator("hinge"))
        text = check_theorem1_conditions(psi, tol=1e-6).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "condition,pass,witness_beta,residual"
        assert len(lines) == 4


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
