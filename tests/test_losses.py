import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fdual.duality import check_theorem1_conditions, conjugate, psi_from_f
from fdual.errors import BadLink, NotConvex, UnrealizableDivergence
from fdual.losses import (_SYM_KL_ROUNDS, GLink, SurrogateLoss,
                          _sym_kl_log_u, catalog_generator,
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
        # each closed form gives its own limit at -inf: the two bounded
        # losses stay finite there
        for name in ("hinge", "exponential", "logistic", "least_squares",
                     "sym_kl"):
            assert catalog_loss(name)(-INF) == INF
        assert catalog_loss("zero_one")(-INF) == 1.0
        assert catalog_loss("eq10_nonconvex")(-INF) == 2.0

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

    def test_strictly_convex_requires_convex(self):
        with pytest.raises(ValueError, match="flagged convex"):
            SurrogateLoss(np.exp, "exp", convex=False, decreasing=False,
                          alpha_star=-INF, inf_value=0.0,
                          strictly_convex=True)


class TestSymKlConjugate:
    """f*(v) = sup_u v*u - (u - 1) log u by the Newton solve on w = log u.

    REFERENCE holds (v, f*(v)) rounded from 60-digit values (mpmath, run
    offline: Newton on w iterated to a fixed point at 60 + log10|v| digits,
    checked against w = v - 1 + W(e^(1 - v)) at 700 digits; v = 705, 710
    and 710.75, finite up to the top of the doubles, at 800 digits).  The
    last two v are the worst of 399 evenly spaced v in (1, 700].
    """

    REFERENCE = [
        (-1e300, -691.7755278982137), (-1e100, -231.25850929940458),
        (-1e6, -14.815496742371597), (-745.0, -7.604478701534277),
        (-600.0, -7.3862274759294575), (-100.0, -5.5584594039795165),
        (-20.0, -3.8408891550836906), (-5.0, -2.2809487503686636),
        (-1.0, -0.8006536969425148), (-0.5, -0.4445012736990404),
        (-0.1, -0.0975610964895008), (-1e-3, -0.00099975006248568),
        (-1e-8, -9.999999975e-09), (-1e-12, -9.9999999999975e-13),
        (-1e-300, -1e-300), (-0.0, 0.0), (0.0, 0.0), (1e-300, 1e-300),
        (1e-12, 1.00000000000025e-12), (1e-8, 1.0000000025e-08),
        (1e-3, 0.0010002500625143258), (0.1, 0.1025639621201201),
        (0.5, 0.5713080749567703), (0.99, 1.3127899898153357),
        (1.0, 1.3303661247616805), (1.5, 2.3757996788736677),
        (2.0, 3.869586019429696), (3.0, 9.45140099288571),
        (5.0, 58.607198277506406), (10.0, 8112.08398927521),
        (50.0, 1.9073465724950998e+21), (100.0, 9.889030319346946e+42),
        (300.0, 7.145787367980123e+129), (699.0, 1.372613823952135e+303),
        (700.0, 3.7311512151407716e+303), (701.0, 1.0142320547350045e+304),
        (705.0, 5.5375193892845935e+305), (710.0, 8.218407461554972e+307),
        (710.75, 1.7398368732641605e+308),
        (16.76691729323308, 7038597.808031313),
        (34.285714285714285, 285628829724914.94),
    ]

    def test_reference_values(self):
        vs, want = np.array(self.REFERENCE).T
        got = conjugate(catalog_generator("sym_kl"))(vs)
        low = vs <= 1.0
        # at most 2 ulps for v <= 1 (exact at the zeros); above, the value
        # inherits the rounding of w, as d f*/dw = e^w + 1
        ulps = np.abs(got[low] - want[low]) / np.spacing(np.abs(want[low]))
        assert ulps.max() <= 2.0
        assert np.abs(got[~low] / want[~low] - 1.0).max() <= 1e-14

    def test_psi_is_exactly_zero_at_zero(self):
        psi = psi_from_f(catalog_generator("sym_kl"))
        assert psi(0.0) == 0.0 and psi(np.array([0.0]))[0] == 0.0

    def test_infinite_and_nan_arguments(self):
        fstar = conjugate(catalog_generator("sym_kl"))
        got = fstar(np.array([INF, -INF, math.nan, 711.0, 750.0]))
        assert got[0] == INF and got[1] == -INF and math.isnan(got[2])
        assert got[3] == got[4] == INF  # e^710 is beyond the doubles
        assert fstar(-INF) == -INF and math.isnan(fstar(math.nan))

    def test_round_count_is_the_least_that_has_settled(self):
        # 1e5 v log-spaced in magnitude over both signs: one round more moves
        # w by at most 2 ulps anywhere, one round fewer by more somewhere
        vs = np.concatenate([-np.geomspace(1e-300, 1e300, 50_000),
                             np.geomspace(1e-300, 750.0, 50_000)])
        with np.errstate(all="ignore"):
            w, more, fewer = (_sym_kl_log_u(vs, n) for n in
                              (_SYM_KL_ROUNDS, _SYM_KL_ROUNDS + 1,
                               _SYM_KL_ROUNDS - 1))
        ulp = np.spacing(np.abs(w))
        assert np.all(np.abs(more - w) <= 2.0 * ulp)
        assert np.any(np.abs(fewer - w) > 2.0 * ulp)


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

    # one digest per recipe over the rebuilt loss at POINTS (one array call
    # and a scalar call per point), its alpha_star, inf_value, convex and
    # decreasing, and the Theorem 1 report of the recipe's Psi on the
    # closed-form route (tol 1e-6) and the numeric one (tol 1e-4)
    POINTS = np.array([-INF, -1e3, -1.0, -1e-12, -0.0, 0.0, 1e-12, 1.0, 1e3,
                       INF, math.nan])
    DIGESTS = {
        "exponential": "8cbfb6d2e2f3859eff5d06c40064ab60"
                       "80df0197d56cebb07e0faee4ea03e376",
        "hinge": "74c0e2199045efbbb64c7e10318c5c29"
                 "96801aaca4955c277183b2bf2c67a7bb",
        "least_squares": "820cab1bc7c7d898ae1c34798c3fc417"
                         "7387dd97df101881197edf09e30893de",
        "logistic": "63e1e2776e9b3fa650906feac4a877f8"
                    "c0fdda5beb7af1ca61ee939c6e0b1416",
        "sym_kl": "1e7cdcb68ad41d3bbb7a0bc99afb0d02"
                  "45b795f38b483ce952fefb654b22868e",
    }

    @pytest.mark.parametrize("name,link", sorted(RECIPE_LINKS.items()))
    def test_recipe_bits_are_pinned(self, name, link):
        f = catalog_generator(name)
        rec = loss_from_f(f, catalog_link(link))
        arr = rec(self.POINTS)
        one = np.array([rec(float(x)) for x in self.POINTS])
        meta = np.array([rec.alpha_star, rec.inf_value, rec.convex,
                         rec.decreasing], dtype=float)
        csv = "".join(check_theorem1_conditions(
            psi_from_f(f, numeric=numeric), tol=1e-4 if numeric else 1e-6
        ).to_csv() for numeric in (False, True))
        digest = hashlib.sha256(arr.tobytes() + one.tobytes() + meta.tobytes()
                                + csv.encode()).hexdigest()
        assert digest == self.DIGESTS[name]

    @pytest.mark.parametrize("name,link", sorted(RECIPE_LINKS.items()))
    def test_build_calls_the_loss_twice(self, monkeypatch, name, link):
        # one call on the probe for both flags, one on its midpoints
        shapes, evaluate = [], SurrogateLoss._eval

        def counting(self, arr):
            shapes.append(arr.shape)
            return evaluate(self, arr)

        monkeypatch.setattr(SurrogateLoss, "_eval", counting)
        loss_from_f(catalog_generator(name), catalog_link(link))
        assert shapes == [(401,), (400,)]


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

    @pytest.mark.parametrize("name", sorted(set(RECIPE_LINKS.values())))
    def test_three_calls_of_the_link(self, name):
        # the anchor with anchor + 1e-6, the grid, and its midpoints
        shapes, fn = [], catalog_link(name).fn

        def counting(u):
            shapes.append(u.shape)
            return fn(u)

        GLink(counting, u_star=catalog_link(name).u_star).validate()
        assert shapes == [(2,), (201,), (200,)]

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


class TestClosedFormContract:
    """Every catalog closed form, reached through its evaluation wrapper,
    at points where exp overflows, logs see 0 and products meet inf.

    The wrappers ignore every floating-point warning on the closed form's
    behalf, so the test runs with all of them raised: one leaking out of a
    wrapper fails it.  Each digest covers the array call and the 15 scalar
    calls, and pins the closed forms' output bits.
    """

    POINTS = np.array([-INF, -1e3, -745.0, -50.0, -1.0, -1e-12, -0.0, 0.0,
                       1e-12, 1.0, 50.0, 745.0, 1e3, INF, math.nan])
    DIGESTS = {
        "loss:zero_one": "8fc072f30c871237c86c32f131fad858"
                         "7ebbc18b020ea25c47d128b471728269",
        "loss:hinge": "30646e4e662756f4434caec881eb5651"
                      "5d2a0ddc61db0fe41f14df15d89cbb08",
        "loss:exponential": "d96398cf12785878ae20fc15d5ac9c58"
                            "8a46282368c1da02b460604885650949",
        "loss:logistic": "de19a63482b143926fb3e710eba81b1a"
                         "441055c8b257c36eafc439ee92332759",
        "loss:least_squares": "badadf986cb2912f656b323a6e108603"
                              "fbf3ecc179e99fc5bff8f61d84128795",
        "loss:sym_kl": "e9b9b0f1f15b8e2ed0348f06b1b71827"
                       "731431c189d1da34ddf49295fa535ab9",
        "loss:eq10_nonconvex": "69df29ccde80724360018a6bd9cf7386"
                               "b7a71a47495de97b3814a5f995a64b51",
        "f:zero_one": "a15a7c4a20e5169d22a71349ab31ed73"
                      "49f09ede458c3940f4d288d87d2cb848",
        "fstar:zero_one": "c9a5c26e890d2709af4d1ac19275e537"
                          "a2458e00beaf51cc3d12fca6be7b9011",
        "f:hinge": "fca471239239e9797941688cfb6cdb2b"
                   "2bc79323fde6688ed58d51969024d604",
        "fstar:hinge": "29b5d9c734c4abd269c675d3b755590b"
                       "751aed409d00b0533cead36f7e339a23",
        "f:eq10_nonconvex": "fca471239239e9797941688cfb6cdb2b"
                            "2bc79323fde6688ed58d51969024d604",
        "fstar:eq10_nonconvex": "29b5d9c734c4abd269c675d3b755590b"
                                "751aed409d00b0533cead36f7e339a23",
        "f:exponential": "b4204cc5e252a5ceeb5f0050e163aa0a"
                         "ac0f87a074786f444344bffdfc7d3127",
        "fstar:exponential": "74970e464b634234df5b86a978ea7974"
                             "81f5260b9b45e949f6d2a08a5f36c31f",
        "f:least_squares": "23fa286efbe4a8d821a0fcd4f29f12f6"
                           "9dbb582056ff270a3ab576f6f9dc85bb",
        "fstar:least_squares": "03a9eab8e61a9af856a80a0746a3a95e"
                               "48cdb0099ccd1a2edb0d8032e2b92961",
        "f:logistic": "da7fdbf195f5443ef03f367f44307433"
                      "8b2ced7f38cbdd954458eada0c3d2590",
        "fstar:logistic": "7b3181e7e643df42c5df5330e3e188f5"
                          "db9fbac87e804f228f9088a2628a547e",
        "f:sym_kl": "905d73e8b529cc66dc3efa0d6051e7a2"
                    "1d4a7bbfc8f33e039284c4094e0a6c1c",
        "fstar:sym_kl": "38285c3f70af53b8baec9c4fe2cc61a0"
                        "2896bcbce463ad7a1841c856aeb9d2c7",
        "f:kl": "ac3bf3251c1e451cb977115a7c0776a9"
                "9a46c6d7cd0a42a9640314a41272e460",
        "fstar:kl": "ee0e148b10e3588c1d33992477500e56"
                    "b5a5dced11cabed566884c87e7de66f9",
        "g:identity": "aeb703c7501e76f0a03bb4944c22ec2b"
                      "97dc0ab32858d0421cfec0e700fcfb6a",
        "g:exp_shift": "ee0e148b10e3588c1d33992477500e56"
                       "b5a5dced11cabed566884c87e7de66f9",
        "g:square": "a7cdd83560708bc29d86176562dd7cb4"
                    "74abdd3e1b4e388652d148119d292430",
        "g:logistic_link": "b691c6aa2ea94ddc74e11c225433891b"
                           "3e567d2c00112b5571594ba6f364aa73",
        "g:symkl_link": "1e892c4d80efbcfaee17c79b1ff5832a"
                        "ddcbc5c676e024f396036a871591da18",
    }

    @staticmethod
    def _wrapper(key):
        kind, name = key.split(":")
        return {"loss": catalog_loss, "f": catalog_generator,
                 "fstar": lambda n: conjugate(catalog_generator(n)),
                 "g": catalog_link}[kind](name)

    @pytest.mark.parametrize("key", sorted(DIGESTS))
    def test_bits_under_raised_warnings(self, key):
        fn = self._wrapper(key)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                arr = np.asarray(fn(self.POINTS), dtype=float)
                one = np.array([fn(float(x)) for x in self.POINTS])
        digest = hashlib.sha256(arr.tobytes() + one.tobytes()).hexdigest()
        assert digest == self.DIGESTS[key]
