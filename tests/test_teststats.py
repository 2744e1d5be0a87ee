"""The four statistics: worked examples, invariants, and the generic cross-check."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy import integrate
from scipy.stats import chi2

from gradpower.errors import DomainError, EstimationError, GradpowerError
from gradpower.expfam import catalog_model, mle_from_dbar, sample
from gradpower.teststats import (
    TestKind,
    compute_statistics,
    compute_statistics_generic,
    statistics_from_dbar,
)

from helpers import BETA2_ZERO, CATALOG_FIXED, all_models, random_theta, theta_grid


class TestWorkedExample:
    """gamma with k=1, ten observations averaging 2, null theta0 = 1."""

    @pytest.fixture()
    def result(self):
        model = catalog_model("gamma", {"k": 1.0})
        data = [1.0, 3.0, 1.5, 2.5, 2.0, 2.0, 1.2, 2.8, 0.8, 3.2]
        assert np.mean(data) == 2.0
        return compute_statistics(model, data, 1.0)

    def test_mle(self, result):
        assert result.theta_hat == pytest.approx(0.5, abs=1e-15)
        assert result.d_bar == 2.0
        assert result.n == 10

    def test_statistics(self, result):
        assert result.statistic(TestKind.LR) == pytest.approx(
            20.0 * (1.0 - math.log(2.0)), rel=1e-12
        )
        assert result.statistic(TestKind.WALD) == pytest.approx(10.0, rel=1e-12)
        assert result.statistic(TestKind.SCORE) == pytest.approx(10.0, rel=1e-12)
        assert result.statistic(TestKind.GRADIENT) == pytest.approx(5.0, rel=1e-12)

    def test_wald_p_value_against_quadrature(self, result):
        # upper chi-square(1) tail at 10 via quadrature with t = u^2
        dens = lambda u: 2.0 * math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
        tail, err = integrate.quad(dens, math.sqrt(10.0), np.inf, epsabs=1e-14)
        assert err < 1e-12
        assert result.p_value(TestKind.WALD) == pytest.approx(tail, abs=1e-12)

    def test_p_values_keep_relative_accuracy_in_the_upper_tail(self):
        # statistics up to ~1400 put p near 1e-305, where 1 - cdf is exactly 0
        model = catalog_model("gamma", {"k": 1.0})
        checked = []
        for v in np.geomspace(0.05, 40.0, 300):
            result = compute_statistics(model, np.full(50, v), 1.0)
            for s, p in zip(result.s, result.p_values):
                if 0.0 < s <= 1400.0:
                    want = chi2.sf(s, 1)
                    assert abs(p - want) <= 1e-13 * want, s
                    checked.append(s)
        assert len(checked) > 500 and max(checked) > 1300.0

    def test_p_values_decrease_in_statistic(self, result):
        stats = [result.statistic(k) for k in TestKind]
        ps = [result.p_value(k) for k in TestKind]
        order = np.argsort(stats)
        assert all(ps[order[i]] >= ps[order[i + 1]] for i in range(3))


class TestNullFit:
    def test_all_statistics_vanish(self):
        # data whose sufficient-statistic mean equals -beta(theta0)
        model = catalog_model("gamma", {"k": 2.0})
        data = [1.5, 2.5]  # dbar = 2 = -beta(1.0)
        res = compute_statistics(model, data, 1.0)
        assert res.theta_hat == pytest.approx(1.0, abs=1e-15)
        for kind in TestKind:
            assert abs(res.statistic(kind)) <= 1e-12
            assert res.p_value(kind) == pytest.approx(1.0, abs=1e-9)


class TestRandomizedProperties:
    def test_nonnegative_finite_and_generic_agreement(self):
        # 1000 random (model, data, theta0) triples
        rng = np.random.default_rng(2718)
        names = list(CATALOG_FIXED)
        for trial in range(1000):
            name = names[trial % len(names)]
            model = catalog_model(name, CATALOG_FIXED[name])
            theta_true = random_theta(rng, name)
            theta0 = random_theta(rng, name)
            n = int(rng.integers(5, 40))
            stream = Generator(Philox(key=[1234, trial]))
            data = sample(model, theta_true, n, stream)
            res = compute_statistics(model, data, theta0)
            for kind in TestKind:
                s = res.statistic(kind)
                assert math.isfinite(s) and s >= -1e-10, (name, kind, s)
                assert 0.0 <= res.p_value(kind) <= 1.0
            th_g, s_g = compute_statistics_generic(model, data, theta0)
            assert th_g == res.theta_hat
            scale = 1.0 + max(abs(v) for v in res.s)
            for a, b in zip(res.s, s_g):
                assert abs(a - b) <= 1e-9 * scale, (name, a, b)

    def test_gradient_nonnegativity_identity(self):
        # S4 = n alpha'(t0) (t0 - t_hat)(beta(t0) - beta(t_hat)) >= 0
        rng = np.random.default_rng(11)
        model = catalog_model("pareto", {"k": 1.5})
        for trial in range(200):
            theta_true = random_theta(rng, "pareto")
            theta0 = random_theta(rng, "pareto")
            data = sample(model, theta_true, 12, Generator(Philox(key=[77, trial])))
            res = compute_statistics(model, data, theta0)
            assert res.statistic(TestKind.GRADIENT) >= -1e-12


class TestNullDistributionSmoke:
    def test_95th_percentile_near_chisq1(self):
        # under the null with large n the 0.95 quantile of each statistic
        # should sit near 3.8415
        model = catalog_model("gamma", {"k": 2.0})
        theta0 = 1.0
        reps, n = 10_000, 500
        stats = np.empty((reps, 4))
        for j in range(reps):
            stream = Generator(Philox(key=[424242, j]))
            data = sample(model, theta0, n, stream)
            d_bar = float(np.mean(model.d(data)))
            _, s = statistics_from_dbar(model, theta0, d_bar, n)
            stats[j] = s
        q95 = np.quantile(stats, 0.95, axis=0)
        for i, val in enumerate(q95):
            assert abs(val - 3.8415) < 0.3, (TestKind(i + 1), val)


class TestArrayForm:
    """An array of d-bar gives, element by element, what the scalar form gives."""

    def test_matches_scalar_form_on_law_draws(self):
        ulp = np.finfo(float).eps
        for name, model in all_models():
            low, mid, high = theta_grid(name)
            for n, theta in ((2, low), (50, high)):
                d_bar = model.sampler.dbar(theta, n, 2000, Generator(Philox(key=[31, n])))
                theta_hat, s = statistics_from_dbar(model, mid, d_bar, n)
                lz0, a0 = abs(model.log_zeta(mid)), abs(model.alpha(mid))
                for i, d in enumerate(d_bar.tolist()):
                    t, want = statistics_from_dbar(model, mid, d, n)
                    assert theta_hat[i] == t and s[3][i] == want[3], (name, n, d)
                    # numpy's log and square may round S1-S3 apart from libm's
                    lz, a = abs(model.log_zeta(t)), abs(model.alpha(t))
                    terms = (2.0 * n * (lz0 + lz + (a0 + a) * abs(d)), abs(want[1]), abs(want[2]))
                    for k in range(3):
                        assert abs(s[k][i] - want[k]) <= 4.0 * ulp * terms[k], (name, n, k, d)

    def test_failure_mask_is_where_the_scalar_form_raises(self):
        poles = {"pareto": math.log(CATALOG_FIXED["pareto"]["k"]),
                 "power": math.log(CATALOG_FIXED["power"]["phi"])}
        for name, model in all_models():
            centre = -model.beta(theta_grid(name)[1])
            edges = [0.0, -0.0, -1.0, -centre, math.inf, -math.inf, math.nan, 5e-324,
                     1e-300, 1e300, -1e300, centre]
            if name in poles:  # the closed form divides by d-bar minus this
                p = poles[name]
                edges += [p, math.nextafter(p, -math.inf), math.nextafter(p, math.inf)]
            d_bar = np.array(edges)
            for m in (model, dataclasses.replace(model, mle_closed_form=None)):
                theta_hat = mle_from_dbar(m, d_bar)
                failed = 0
                for d, t in zip(edges, theta_hat.tolist()):
                    try:
                        want = mle_from_dbar(m, d)
                    except EstimationError:
                        assert math.isnan(t), (name, d, t)
                        failed += 1
                    else:
                        assert t == want, (name, d)
                assert 3 <= failed < len(edges), name
                # a failed estimate leaves a NaN in its row instead of raising
                rows = statistics_from_dbar(m, theta_grid(name)[1], d_bar[:7], 50)[0]
                assert np.array_equal(np.isnan(rows), np.isnan(theta_hat[:7]))


    def test_wald_is_finite_where_the_cube_of_a_small_estimate_underflows(self):
        # invnormal-mu's alpha'(mu) = -lam / mu**3: below mu of about 1.7e-108 the cube
        # underflows, yet S_W is finite until it passes the float range for real
        lam, theta0, n = 3e-110, 7.0, 5
        model = catalog_model("invnormal-mu", {"theta": lam})
        d_bar = np.array([1.9e-110, 1e-109, 1.3e-108, 1e-100, 0.5, 7.0, 1e30, 1e-140])
        with np.errstate(all="ignore"):
            theta_hat, s = statistics_from_dbar(model, theta0, d_bar, n)
        with mpmath.workdps(40):
            for i, t in enumerate(theta_hat.tolist()):
                true = n * (mpmath.mpf(t) - theta0) ** 2 * mpmath.mpf(lam) / mpmath.mpf(t) ** 3
                if true > np.finfo(float).max:
                    assert s[1][i] == math.inf, t
                else:
                    assert abs(s[1][i] - true) <= 8 * np.finfo(float).eps * true, t
        assert s[1][-1] == math.inf and np.isfinite(s[1][:-1]).all()
        # rows whose cube stays in range are the scalar form's, bit for bit
        for i in (3, 4, 5, 6):
            assert s[1][i] == statistics_from_dbar(model, theta0, float(d_bar[i]), n)[1][1]

    def test_wald_is_accurate_where_the_cube_of_a_small_estimate_is_subnormal(self):
        # mu**3 is subnormal but not 0 there, so it keeps only a few bits: the direct
        # quotient was 50% low at 1.352e-108, 39% high at 1.9e-108 and 50% high at 1.9485e-108
        lam, theta0, n = 3e-110, 7.0, 5
        model = catalog_model("invnormal-mu", {"theta": lam})
        d_bar = np.array([1.352e-108, 1.9e-108, 1.9485e-108, 1e-100, 0.5])
        assert ((0.0 < d_bar[:3] ** 3) & (d_bar[:3] ** 3 < np.finfo(float).tiny)).all()
        theta_hat, s = statistics_from_dbar(model, theta0, d_bar, n)
        with mpmath.workdps(40):
            for t, got in zip(theta_hat.tolist(), s[1].tolist()):
                true = n * (mpmath.mpf(t) - theta0) ** 2 * mpmath.mpf(lam) / mpmath.mpf(t) ** 3
                assert abs(got - true) <= 8 * np.finfo(float).eps * true, t
        # rows whose cube is a normal float are the scalar form's, bit for bit
        for i in (3, 4):
            assert s[1][i] == statistics_from_dbar(model, theta0, float(d_bar[i]), n)[1][1]

    @pytest.mark.parametrize("name,value", [
        ("gamma", -1.0), ("normal-mean", math.inf),
        ("pareto", math.log(CATALOG_FIXED["pareto"]["k"]) - 1.0)])
    def test_one_failed_element_is_nan_there_only(self, name, value):
        # every element passes but one, whose closed form is outside the parameter
        # space (-2, inf, -1), not NaN; the closed form's values stand everywhere else
        model = catalog_model(name, CATALOG_FIXED[name])
        theta = theta_grid(name)[1]
        d_bar = model.sampler.dbar(theta, 50, 64, Generator(Philox(key=[31, 0])))
        passing = mle_from_dbar(model, d_bar)
        assert not np.isnan(passing).any()
        bad = d_bar.copy()
        bad[17] = value
        theta_hat = mle_from_dbar(model, bad)
        assert np.flatnonzero(np.isnan(theta_hat)).tolist() == [17]
        assert np.array_equal(np.delete(theta_hat, 17), np.delete(passing, 17))
        assert np.array_equal(np.delete(bad, 17), np.delete(d_bar, 17))  # d-bar untouched


class TestScoreGradientIdentity:
    """beta'' = 0 makes the score and gradient statistics one function of d-bar."""

    def test_alpha2_nonzero_only_where_beta2_vanishes(self):
        for name, model in all_models():
            grid = theta_grid(name)
            beta_linear = all(model.beta_d2(t) == 0.0 for t in grid)
            assert beta_linear == (name in BETA2_ZERO), name
            if any(model.alpha_d2(t) != 0.0 for t in grid):
                assert beta_linear, name

    def test_score_equals_gradient_on_law_draws_iff_beta2_zero(self):
        ulp = np.finfo(float).eps
        for name, model in all_models():
            low, mid, high = theta_grid(name)
            worst = 0.0
            for theta in (low, mid, high):
                d_bar = model.sampler.dbar(theta, 50, 2000, Generator(Philox(key=[7, 50])))
                theta_hat, s = statistics_from_dbar(model, mid, d_bar, 50)
                ok = ~np.isnan(theta_hat)
                score, gradient = s[2][ok], s[3][ok]
                worst = max(worst, float(np.max(np.abs(score - gradient) / np.abs(gradient))))
            if name in BETA2_ZERO:
                assert worst <= 4.0 * ulp, (name, worst)
            else:
                assert worst > 0.3, (name, worst)


class TestValidation:
    def test_theta0_outside_space(self):
        model = catalog_model("gamma", {"k": 1.0})
        with pytest.raises(DomainError):
            compute_statistics(model, [1.0, 2.0], -1.0)

    def test_empty_data(self):
        model = catalog_model("gamma", {"k": 1.0})
        with pytest.raises(DomainError):
            compute_statistics(model, [], 1.0)

    def test_support_violation(self):
        model = catalog_model("power", {"phi": 2.0})
        with pytest.raises(DomainError):
            compute_statistics(model, [0.5, 2.5], 1.0)

    def test_a_statistic_that_is_nan_without_raising_is_named(self):
        # S1 is inf - inf here: log zeta(theta0) and alpha(theta0) dbar both overflow
        model = catalog_model("normal-mean", {"theta": 1e-300})
        with pytest.raises(GradpowerError) as info:
            compute_statistics(model, [0.5, 1.5, 2.5], 1e10)
        assert type(info.value) is GradpowerError
        assert str(info.value) == ("statistics of 'normal-mean' leave the float range at "
                                   "theta0=10000000000.0, dbar=1.5")

    def test_generic_route_validates_like_the_dbar_route(self):
        model = catalog_model("power", {"phi": 2.0})
        for data, match in (([], "nonempty"), ([0.5, 2.5], "outside the support")):
            with pytest.raises(DomainError, match=match):
                compute_statistics_generic(model, data, 1.0)
