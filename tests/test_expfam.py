"""Catalog models: derivative consistency, cumulants, MLE, and samplers."""

import dataclasses
import math
import re

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy import stats

from gradpower import expfam
from gradpower.errors import ConvergenceError, DomainError, EstimationError, GradpowerError
from gradpower.expfam import (
    CATALOG_NAMES,
    ExpFamModel,
    Support,
    catalog_model,
    cumulants,
    load_data,
    mle,
    mle_from_dbar,
    model_info,
    sample,
)

from helpers import CATALOG_FIXED, all_models, theta_grid


class TestCatalog:
    def test_all_names_build(self):
        for name, fixed in CATALOG_FIXED.items():
            model = catalog_model(name, fixed)
            assert model.name == name
        assert set(CATALOG_NAMES) == set(CATALOG_FIXED)

    def test_gamma_derived_quantities(self):
        m = catalog_model("gamma", {"k": 2.0})
        assert m.alpha(1.7) == 1.7
        assert m.beta(1.0) == -2.0
        assert m.fisher_information(1.0) == 2.0
        assert m.beta_d1(2.0) == 0.5

    def test_normal_mean_is_degenerate_cubic(self):
        m = catalog_model("normal-mean", {"theta": 1.0})
        for mu in (-2.0, 0.0, 1.5):
            assert m.beta(mu) == -mu
            assert m.alpha_d2(mu) == 0.0
            assert m.beta_d2(mu) == 0.0

    def test_tev_derived_quantities(self):
        m = catalog_model("tev")
        assert m.beta(2.5) == -2.5
        assert m.fisher_information(2.0) == pytest.approx(0.25, rel=1e-15)

    def test_unknown_name(self):
        with pytest.raises(DomainError, match="unknown model"):
            catalog_model("weibull")
        # a name that is not a string is an unknown model too
        for lookup in (catalog_model, model_info):
            with pytest.raises(DomainError, match=r"unknown model \['gamma'\]"):
                lookup(["gamma"])

    def test_missing_or_bad_fixed(self):
        with pytest.raises(DomainError, match="requires fixed constant"):
            catalog_model("gamma")
        with pytest.raises(DomainError, match="must be positive"):
            catalog_model("gamma", {"k": -1.0})
        with pytest.raises(DomainError, match="unexpected fixed"):
            catalog_model("gamma", {"k": 1.0, "mu": 0.0})
        with pytest.raises(DomainError, match="takes no fixed"):
            catalog_model("tev", {"k": 1.0})
        with pytest.raises(DomainError, match="must be finite"):
            catalog_model("laplace", {"k": math.nan})
        # a constant that float() cannot read is a domain error too
        for bad in ("two", None, [2], 10 ** 400):
            with pytest.raises(DomainError, match="must be a real number"):
                catalog_model("gamma", {"k": bad})

    def test_model_info_covers_catalog(self):
        for name in CATALOG_NAMES:
            info = model_info(name)
            assert {"distribution", "alpha", "zeta", "d", "v", "mle"} <= set(info)


def _ref_log(t):
    return np.log(t) if isinstance(t, np.ndarray) else math.log(t)


_REF_LOG_2PI = math.log(2.0 * math.pi)


# Each catalog formula as an IEEE expression, operation for operation: alpha,
# alpha', alpha'', log zeta, beta, beta', beta'', the closed-form MLE of d-bar,
# and d and v of an observation.
REFERENCE = {
    "normal-variance": lambda mu: dict(
        alpha=lambda t: 0.5 / t,
        alpha_d1=lambda t: -0.5 / (t * t),
        alpha_d2=lambda t: 1.0 / t ** 3,
        log_zeta=lambda t: 0.5 * _ref_log(t),
        beta=lambda t: -t,
        beta_d1=lambda t: -1.0,
        beta_d2=lambda t: 0.0,
        mle_closed_form=lambda d: d,
        d=lambda x: (x - mu) ** 2,
        v=lambda x: x * 0.0 - 0.5 * _REF_LOG_2PI,
    ),
    "normal-mean": lambda var: dict(
        alpha=lambda t: -t / var,
        alpha_d1=lambda t: -1.0 / var,
        alpha_d2=lambda t: 0.0,
        log_zeta=lambda t: t * t / (2.0 * var),
        beta=lambda t: -t,
        beta_d1=lambda t: -1.0,
        beta_d2=lambda t: 0.0,
        mle_closed_form=lambda d: d,
        d=lambda x: x,
        v=lambda x: -x * x / (2.0 * var) - 0.5 * math.log(2.0 * math.pi * var),
    ),
    "invnormal-theta": lambda mu: dict(
        alpha=lambda t: t,
        alpha_d1=lambda t: 1.0,
        alpha_d2=lambda t: 0.0,
        log_zeta=lambda t: -0.5 * _ref_log(t),
        beta=lambda t: -0.5 / t,
        beta_d1=lambda t: 0.5 / (t * t),
        beta_d2=lambda t: -1.0 / t ** 3,
        mle_closed_form=lambda d: 0.5 / d,
        d=lambda x: (x - mu) ** 2 / (2.0 * mu * mu * x),
        v=lambda x: -0.5 * (_REF_LOG_2PI + 3.0 * np.log(x)),
    ),
    "invnormal-mu": lambda lam: dict(
        alpha=lambda t: lam / (2.0 * t * t),
        alpha_d1=lambda t: -lam / t ** 3,
        alpha_d2=lambda t: 3.0 * lam / t ** 4,
        log_zeta=lambda t: -lam / t,
        beta=lambda t: -t,
        beta_d1=lambda t: -1.0,
        beta_d2=lambda t: 0.0,
        mle_closed_form=lambda d: d,
        d=lambda x: x,
        v=lambda x: (
            -lam / (2.0 * x) + 0.5 * (math.log(lam) - _REF_LOG_2PI - 3.0 * np.log(x))
        ),
    ),
    "gamma": lambda k: dict(
        alpha=lambda t: t,
        alpha_d1=lambda t: 1.0,
        alpha_d2=lambda t: 0.0,
        log_zeta=lambda t: -k * _ref_log(t),
        beta=lambda t: -k / t,
        beta_d1=lambda t: k / (t * t),
        beta_d2=lambda t: -2.0 * k / t ** 3,
        mle_closed_form=lambda d: k / d,
        d=lambda x: x,
        v=lambda x: (k - 1.0) * np.log(x) - math.lgamma(k),
    ),
    "tev": lambda: dict(
        alpha=lambda t: 1.0 / t,
        alpha_d1=lambda t: -1.0 / (t * t),
        alpha_d2=lambda t: 2.0 / t ** 3,
        log_zeta=lambda t: _ref_log(t),
        beta=lambda t: -t,
        beta_d1=lambda t: -1.0,
        beta_d2=lambda t: 0.0,
        mle_closed_form=lambda d: d,
        d=lambda x: np.expm1(x),
        v=lambda x: x,
    ),
    "pareto": lambda k: dict(
        alpha=lambda t: 1.0 + t,
        alpha_d1=lambda t: 1.0,
        alpha_d2=lambda t: 0.0,
        log_zeta=lambda t: -_ref_log(t) - t * math.log(k),
        beta=lambda t: -1.0 / t - math.log(k),
        beta_d1=lambda t: 1.0 / (t * t),
        beta_d2=lambda t: -2.0 / t ** 3,
        mle_closed_form=lambda d: 1.0 / (d - math.log(k)),
        d=lambda x: np.log(x),
        v=lambda x: x * 0.0,
    ),
    "laplace": lambda k: dict(
        alpha=lambda t: 1.0 / t,
        alpha_d1=lambda t: -1.0 / (t * t),
        alpha_d2=lambda t: 2.0 / t ** 3,
        log_zeta=lambda t: _ref_log(2.0 * t),
        beta=lambda t: -t,
        beta_d1=lambda t: -1.0,
        beta_d2=lambda t: 0.0,
        mle_closed_form=lambda d: d,
        d=lambda x: np.abs(x - k),
        v=lambda x: x * 0.0,
    ),
    "power": lambda phi: dict(
        alpha=lambda t: 1.0 - t,
        alpha_d1=lambda t: -1.0,
        alpha_d2=lambda t: 0.0,
        log_zeta=lambda t: t * math.log(phi) - _ref_log(t),
        beta=lambda t: 1.0 / t - math.log(phi),
        beta_d1=lambda t: -1.0 / (t * t),
        beta_d2=lambda t: 2.0 / t ** 3,
        mle_closed_form=lambda d: 1.0 / (math.log(phi) - d),
        d=lambda x: np.log(x),
        v=lambda x: x * 0.0,
    ),
}

# each model's support and parameter space, given its fixed constant
DOMAINS = {
    "normal-variance": lambda mu: (Support(), (0.0, math.inf)),
    "normal-mean": lambda var: (Support(), (-math.inf, math.inf)),
    "invnormal-theta": lambda mu: (Support(lo=0.0), (0.0, math.inf)),
    "invnormal-mu": lambda lam: (Support(lo=0.0), (0.0, math.inf)),
    "gamma": lambda k: (Support(lo=0.0), (0.0, math.inf)),
    "tev": lambda: (Support(lo=0.0), (0.0, math.inf)),
    "pareto": lambda k: (Support(lo=k), (0.0, math.inf)),
    "laplace": lambda k: (Support(), (0.0, math.inf)),
    "power": lambda phi: (Support(lo=0.0, hi=phi), (0.0, math.inf)),
}

_MAGNITUDES = [1e-200, 1e-150, 1e-100, 1e-30, 1e-8, 0.3, 1.0, 2.7, 1e8, 1e30, 1e100, 1e150, 1e200]
# zero and negative arguments too: outside a parameter space (or, for d and v, a
# support) the formulas must still fail (or overflow) the same way
EXPRESSION_GRID = np.array([0.0] + _MAGNITUDES + [-m for m in _MAGNITUDES])


def _outcome(f, t):
    # the exact bits of f(t), or the kind of arithmetic error it raised
    try:
        with np.errstate(all="ignore"):
            y = f(t)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)
    if isinstance(y, np.ndarray):
        return y.dtype, y.shape, y.tobytes()
    return float(y).hex()


class TestCatalogExpressions:
    """Every catalog formula bit for bit against the test-local REFERENCE.

    The finite-difference checks below admit any rounding; these pin each IEEE
    expression, so a rewrite that changes a single float of any formula fails.
    """

    CASES = list(CATALOG_FIXED.items()) + [
        ("normal-variance", {"mu": -2.0}),
        ("normal-mean", {"theta": 1e-3}),
        ("invnormal-mu", {"theta": 0.3}),
        ("gamma", {"k": 0.5}),
        ("gamma", {"k": 7.3}),
        ("pareto", {"k": 0.2}),
        ("laplace", {"k": 4.0}),
        ("power", {"phi": 0.5}),
    ]

    def test_reference_covers_catalog(self):
        assert set(REFERENCE) == set(CATALOG_NAMES)

    @pytest.mark.parametrize("name, fixed", CASES)
    def test_formulas_bit_for_bit(self, name, fixed):
        model = catalog_model(name, fixed)
        for field, want in REFERENCE[name](*fixed.values()).items():
            got = getattr(model, field)
            for t in EXPRESSION_GRID:
                assert _outcome(got, float(t)) == _outcome(want, float(t)), (field, t)
            grid = EXPRESSION_GRID.copy()
            assert _outcome(got, grid) == _outcome(want, grid), field

    @pytest.mark.parametrize("name, fixed", CASES)
    def test_data_formulas_at_the_support_edges(self, name, fixed):
        # d and v at each fixed constant and its two float neighbours (Pareto's and
        # power's support ends, normal-variance's and Laplace's d = 0) and at +-inf
        model = catalog_model(name, fixed)
        want = REFERENCE[name](*fixed.values())
        edges = [math.inf, -math.inf] + [
            x for c in fixed.values()
            for x in (math.nextafter(c, -math.inf), c, math.nextafter(c, math.inf))
        ]
        for field in ("d", "v"):
            got = getattr(model, field)
            for x in edges:
                assert _outcome(got, x) == _outcome(want[field], x), (field, x)
            grid = np.array(edges)
            assert _outcome(got, grid) == _outcome(want[field], grid), field

    @pytest.mark.parametrize("name, fixed", CASES)
    def test_support_and_parameter_space(self, name, fixed):
        model = catalog_model(name, fixed)
        assert (model.support, model.param_space) == DOMAINS[name](*fixed.values())


class TestDerivativeConsistency:
    """Analytic alpha/beta derivatives against central finite differences."""

    H = 1e-6

    def test_beta_matches_log_zeta_ratio(self):
        for name, m in all_models():
            for th in theta_grid(name):
                fd = (m.log_zeta(th + self.H) - m.log_zeta(th - self.H)) / (2 * self.H)
                beta_fd = fd / m.alpha_d1(th)
                assert beta_fd == pytest.approx(m.beta(th), rel=1e-6, abs=1e-8), name

    def test_beta_derivatives(self):
        for name, m in all_models():
            for th in theta_grid(name):
                d1 = (m.beta(th + self.H) - m.beta(th - self.H)) / (2 * self.H)
                assert d1 == pytest.approx(m.beta_d1(th), rel=1e-6, abs=1e-8), name
                d2 = (m.beta(th + self.H) - 2 * m.beta(th) + m.beta(th - self.H)) / self.H ** 2
                assert d2 == pytest.approx(m.beta_d2(th), rel=1e-3, abs=1e-3), name

    def test_alpha_derivatives(self):
        for name, m in all_models():
            for th in theta_grid(name):
                d1 = (m.alpha(th + self.H) - m.alpha(th - self.H)) / (2 * self.H)
                assert d1 == pytest.approx(m.alpha_d1(th), rel=1e-6, abs=1e-8), name

    def test_positive_information(self):
        for name, m in all_models():
            for th in theta_grid(name):
                assert m.fisher_information(th) > 0.0, name


class TestCumulants:
    def test_gamma_example(self):
        c = cumulants(catalog_model("gamma", {"k": 2.0}), 1.0)
        assert (c.k_tt, c.k_ttt, c.k_t_tt, c.k_t_t_t) == (-2.0, 4.0, 0.0, -4.0)
        assert c.k_inv == 0.5

    def test_normal_mean_third_order_vanishes(self):
        m = catalog_model("normal-mean", {"theta": 2.0})
        for mu in (-1.0, 0.3, 2.0):
            c = cumulants(m, mu)
            assert c.k_ttt == 0.0 and c.k_t_tt == 0.0 and c.k_t_t_t == 0.0

    def test_cross_identity(self):
        # k_t_t_t + k_t_tt == alpha' * beta'' for every model and theta
        for name, m in all_models():
            for th in theta_grid(name):
                c = cumulants(m, th)
                want = m.alpha_d1(th) * m.beta_d2(th)
                assert c.k_t_t_t + c.k_t_tt == pytest.approx(want, rel=1e-13, abs=1e-13)

    def test_information_relation(self):
        for name, m in all_models():
            for th in theta_grid(name):
                c = cumulants(m, th)
                assert -c.k_tt == pytest.approx(m.fisher_information(th), rel=1e-14)
                assert c.k_tt < 0.0
                assert c.k_inv == pytest.approx(-1.0 / c.k_tt, rel=1e-14)

    def test_theta_outside_space(self):
        with pytest.raises(DomainError):
            cumulants(catalog_model("gamma", {"k": 1.0}), -0.5)

    @pytest.mark.parametrize("name, fixed, theta, call", [
        # k / theta**2 divides by an underflowed square
        ("gamma", {"k": 2.0}, 1e-300, cumulants),
        ("gamma", {"k": 2.0}, 1e-300, ExpFamModel.fisher_information),
        # theta**3 overflows in beta''
        ("normal-variance", {"mu": 0.001}, 1e150, cumulants),
    ])
    def test_derivatives_past_the_float_range_are_named(self, name, fixed, theta, call):
        with pytest.raises(GradpowerError) as info:
            call(catalog_model(name, fixed), theta)
        assert type(info.value) is GradpowerError
        assert str(info.value) == f"derivatives of {name!r} leave the float range at theta0={theta}"

    def test_information_needs_only_first_derivatives(self):
        # beta'' = -2k / theta**3 overflows at 1e103, but K = alpha' beta' does not
        model = catalog_model("gamma", {"k": 2.0})
        assert model.fisher_information(1e103) == 2e-206
        with pytest.raises(GradpowerError, match="leave the float range"):
            cumulants(model, 1e103)


class TestMle:
    def test_gamma_closed_form(self):
        m = catalog_model("gamma", {"k": 2.0})
        assert mle(m, [1.0, 3.0]) == 1.0  # xbar = 2 -> k/xbar

    def test_tev_closed_form(self):
        m = catalog_model("tev")
        data = np.log1p([0.5, 1.5])  # mean(exp(x) - 1) = 1
        assert mle(m, data) == pytest.approx(1.0, abs=1e-12)

    def test_pareto_closed_form(self):
        m = catalog_model("pareto", {"k": 1.0})
        data = np.exp([0.25, 0.75])  # mean(log x) = 0.5
        assert mle(m, data) == pytest.approx(2.0, abs=1e-12)

    def test_power_closed_form(self):
        m = catalog_model("power", {"phi": 2.0})
        data = 2.0 * np.exp([-0.5, -1.5])  # mean(log(phi/x)) = 1
        assert mle(m, data) == pytest.approx(1.0, abs=1e-12)

    def test_brent_fallback_matches_closed_form(self):
        for name, m in all_models():
            no_closed = dataclasses.replace(m, mle_closed_form=None)
            for dbar in (0.31, 1.0, 4.7):
                if name in ("pareto",):
                    dbar += math.log(m.fixed_params["k"])
                if name == "power":
                    dbar = math.log(m.fixed_params["phi"]) - dbar
                if name == "normal-mean":
                    dbar -= 2.0
                ref = mle_from_dbar(m, dbar)
                got = mle_from_dbar(no_closed, dbar)
                assert got == pytest.approx(ref, rel=1e-10, abs=1e-12), name

    def test_residual_contract(self):
        for name, m in all_models():
            rng = Generator(Philox(key=[5, 0]))
            data = sample(m, theta_grid(name)[1], 200, rng)
            th = mle(m, data)
            dbar = float(np.mean(m.d(data)))
            assert abs(m.beta(th) + dbar) <= 1e-12 * (1.0 + abs(dbar))

    def test_empty_data(self):
        with pytest.raises(DomainError, match="nonempty"):
            mle(catalog_model("gamma", {"k": 1.0}), [])

    def test_datum_outside_support(self):
        with pytest.raises(DomainError, match="outside the support"):
            mle(catalog_model("gamma", {"k": 1.0}), [1.0, -2.0])
        with pytest.raises(DomainError, match="outside the support"):
            mle(catalog_model("pareto", {"k": 2.0}), [1.5, 3.0])

    def test_degenerate_sample(self):
        # all observations at the fixed mean: dbar = 0, theta_hat leaves (0, inf)
        m = catalog_model("normal-variance", {"mu": 1.0})
        with pytest.raises(EstimationError):
            mle(m, [1.0, 1.0, 1.0])

    @staticmethod
    def _gamma_by_bracket(bracket):
        # beta(t) + dbar = 1 - 2/t at dbar = 1, which vanishes exactly at t = 2
        return dataclasses.replace(catalog_model("gamma", {"k": 2.0}), mle_closed_form=None,
                                   mle_bracket=bracket)

    def test_neither_closed_form_nor_bracket(self):
        with pytest.raises(EstimationError, match="^model 'gamma' provides neither a "
                                                  "closed-form MLE nor a bracket$"):
            mle_from_dbar(self._gamma_by_bracket(None), 1.0)

    def test_bracket_without_the_root(self):
        m = self._gamma_by_bracket(lambda dbar: (0.5, 1.0))
        with pytest.raises(EstimationError, match=r"^root not bracketed on \[0.5, 1.0\]$"):
            mle_from_dbar(m, 1.0)

    @pytest.mark.parametrize("bracket", [(2.0, 5.0), (0.5, 2.0)])
    def test_root_at_a_bracket_end(self, bracket):
        assert mle_from_dbar(self._gamma_by_bracket(lambda dbar: bracket), 1.0) == 2.0

    def test_brent_stops_at_its_iteration_cap(self):
        # a sign step defeats interpolation, and bisecting a bracket 2e300 wide down
        # to the 1e-14 tolerance takes about 1050 halvings, more than the cap allows
        calls = []

        def step(t):
            calls.append(t)
            return -1.0 if t < 0.3 else 1.0

        root = expfam._brent(step, -1e300, 1e300)
        assert len(calls) == 2 + expfam._BRENT_MAX_ITER
        assert root == calls[-1]


class TestSampling:
    def test_open_unit_replaces_an_exact_zero(self):
        class Zeros:
            def random(self, n):
                return np.zeros(n)

        assert expfam._open_unit(Zeros(), 3).tolist() == [2.0 ** -54] * 3

    def test_open_unit_replaces_only_the_zeros(self):
        class OneZero:
            def random(self, n):
                return np.array([0.5, 0.0, 0.25, 2.0 ** -53])[:n]

        assert expfam._open_unit(OneZero(), 4).tolist() == [0.5, 2.0 ** -54, 0.25, 2.0 ** -53]
        assert expfam._open_unit(OneZero(), 1).tolist() == [0.5]

    @pytest.mark.parametrize("n", [1, 2, 7, 904, 4095, 4096])
    def test_standard_normal_is_the_concatenated_box_muller(self, n):
        # r cos and r sin written into one array, against the concatenation of the two
        def concatenated(rng, n):
            m = (n + 1) // 2
            u1 = expfam._open_unit(rng, m)
            u2 = rng.random(m)
            r = np.sqrt(-2.0 * np.log(u1))
            ang = 2.0 * math.pi * u2
            return np.concatenate([r * np.cos(ang), r * np.sin(ang)])[:n]

        got_rng, want_rng = Generator(Philox(key=[23, n])), Generator(Philox(key=[23, n]))
        got = expfam._standard_normal(got_rng, n)
        assert got.shape == (n,)
        assert np.array_equal(got, concatenated(want_rng, n))
        assert got_rng.random() == want_rng.random()

    def test_stream_determinism(self):
        m = catalog_model("gamma", {"k": 2.0})
        a = sample(m, 1.0, 16, Generator(Philox(key=[9, 3])))
        b = sample(m, 1.0, 16, Generator(Philox(key=[9, 3])))
        assert np.array_equal(a, b)

    def test_gamma_mean(self):
        m = catalog_model("gamma", {"k": 2.0})
        xs = sample(m, 1.0, 100_000, Generator(Philox(key=[17, 0])))
        sd = float(np.std(xs))
        assert abs(float(np.mean(xs)) - 2.0) < 3.0 * sd / math.sqrt(xs.size)

    def test_tev_kolmogorov_smirnov(self):
        m = catalog_model("tev")
        theta = 1.0
        xs = np.sort(sample(m, theta, 100_000, Generator(Philox(key=[23, 0]))))
        cdf = 1.0 - np.exp(-np.expm1(xs) / theta)
        n = xs.size
        emp_hi = np.arange(1, n + 1) / n
        emp_lo = np.arange(0, n) / n
        ks = max(np.max(np.abs(emp_hi - cdf)), np.max(np.abs(cdf - emp_lo)))
        assert ks < 1.63 / math.sqrt(n)  # 1% critical value

    def test_invnormal_theta_sufficient_statistic_is_half_shape_gamma(self):
        # d(X) ~ Gamma(1/2, rate theta): the law the exact-power check of the
        # known-mean inverse normal ordering relies on
        m = catalog_model("invnormal-theta", {"mu": 1.2})
        theta = 1.5
        xs = sample(m, theta, 20_000, Generator(Philox(key=[29, 0])))
        ds = np.sort(m.d(xs))
        cdf = stats.gamma.cdf(ds, 0.5, scale=1.0 / theta)
        n = ds.size
        emp_hi = np.arange(1, n + 1) / n
        emp_lo = np.arange(0, n) / n
        ks = max(np.max(np.abs(emp_hi - cdf)), np.max(np.abs(cdf - emp_lo)))
        assert ks < 1.63 / math.sqrt(n)  # 1% critical value

    def test_mle_recovers_theta_for_all_models(self):
        for name, m in all_models():
            theta = 1.3 if name != "normal-mean" else 0.8
            xs = sample(m, theta, 100_000, Generator(Philox(key=[31, 1])))
            assert m.support.contains(xs), name
            th_hat = mle(m, xs)
            bound = 4.0 / math.sqrt(xs.size * m.fisher_information(theta))
            assert abs(th_hat - theta) < bound, (name, th_hat)

    def test_invgauss_moments(self):
        m = catalog_model("invnormal-mu", {"theta": 1.3})
        xs = sample(m, 1.2, 300_000, Generator(Philox(key=[11, 0])))
        assert float(np.mean(xs)) == pytest.approx(1.2, abs=0.01)
        assert float(np.var(xs)) == pytest.approx(1.2 ** 3 / 1.3, rel=0.03)

    def test_gamma_small_shape_branch(self):
        m = catalog_model("gamma", {"k": 0.5})
        xs = sample(m, 2.0, 200_000, Generator(Philox(key=[7, 1])))
        assert float(np.mean(xs)) == pytest.approx(0.25, abs=0.005)
        assert float(np.var(xs)) == pytest.approx(0.125, rel=0.03)
        assert np.all(xs > 0)

    def test_power_support_strict(self):
        m = catalog_model("power", {"phi": 2.0})
        xs = sample(m, 0.7, 50_000, Generator(Philox(key=[3, 2])))
        assert np.all((xs > 0.0) & (xs < 2.0))

    def test_invalid_args(self):
        m = catalog_model("gamma", {"k": 1.0})
        with pytest.raises(DomainError):
            sample(m, -1.0, 10, Generator(Philox(key=[1, 0])))
        with pytest.raises(DomainError):
            sample(m, 1.0, 0, Generator(Philox(key=[1, 0])))

    @pytest.mark.parametrize("n", [2.7, True, math.inf, math.nan])
    def test_count_must_be_an_integer(self, n):
        # int() once drew 2 observations for 2.7 and 1 for True, and raised a bare
        # OverflowError for inf and ValueError for NaN
        m = catalog_model("gamma", {"k": 1.0})
        with pytest.raises(DomainError, match=f"^n must be an integer, got {n!r}$"):
            sample(m, 1.0, n, Generator(Philox(key=[1, 0])))

    def test_integer_counts_draw_as_before(self):
        m = catalog_model("gamma", {"k": 1.0})
        want = m.sampler(1.0, 5, Generator(Philox(key=[1, 0])))
        for n in (5, np.int64(5)):
            assert np.array_equal(sample(m, 1.0, n, Generator(Philox(key=[1, 0]))), want)


def _dbar_cdf(name, theta, n, fixed=None):
    """scipy's CDF of d-bar over n observations of the catalog entry at theta."""
    fixed = CATALOG_FIXED[name] if fixed is None else fixed
    if name == "gamma":
        return stats.gamma(n * fixed["k"], scale=1.0 / (n * theta)).cdf
    if name == "normal-variance":
        return stats.gamma(n / 2.0, scale=2.0 * theta / n).cdf
    if name == "invnormal-theta":
        return stats.gamma(n / 2.0, scale=1.0 / (n * theta)).cdf
    if name in ("tev", "laplace"):
        return stats.gamma(n, scale=theta / n).cdf
    if name == "pareto":
        return stats.gamma(n, loc=math.log(fixed["k"]), scale=1.0 / (n * theta)).cdf
    if name == "power":
        reflected = stats.gamma(n, scale=1.0 / (n * theta))
        return lambda x: reflected.sf(math.log(fixed["phi"]) - x)
    if name == "normal-mean":
        return stats.norm(theta, math.sqrt(fixed["theta"] / n)).cdf
    if name == "invnormal-mu":
        shape = n * fixed["theta"]
        return stats.invgauss(theta / shape, scale=shape).cdf
    raise AssertionError(name)


class TestDbarLaw:
    """Each catalog sampler's ``dbar`` draws the exact law of the mean of d."""

    DRAWS = 20_000
    MEANS = 4_000
    KS_1PCT = 1.63  # 1% critical value of sqrt(size) * D

    @pytest.mark.parametrize("name, fixed, theta, n", [
        *(pytest.param(name, CATALOG_FIXED[name], 0.8 if name == "normal-mean" else 1.3, n,
                       id=f"{name}-{n}") for name in CATALOG_NAMES for n in (2, 50)),
        # a shape so small that the smaller inverse-Gaussian root cancels in its
        # difference form: most draws once sat on a floor, far below the true median
        *(pytest.param("invnormal-mu", {"theta": 1e-16}, 8.92, n, id=f"invnormal-mu-tiny-{n}")
          for n in (5, 50)),
    ])
    def test_one_sample_ks_against_scipy(self, name, fixed, theta, n):
        m = catalog_model(name, fixed)
        draws = m.sampler.dbar(theta, n, self.DRAWS, Generator(Philox(key=[41, n])))
        ks = stats.kstest(draws, _dbar_cdf(name, theta, n, fixed)).statistic
        assert ks < self.KS_1PCT / math.sqrt(self.DRAWS)

    @pytest.mark.parametrize("n", [2, 50])
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_two_sample_ks_against_observation_means(self, name, n):
        m = catalog_model(name, CATALOG_FIXED[name])
        theta = 0.8 if name == "normal-mean" else 1.3
        draws = m.sampler.dbar(theta, n, self.DRAWS, Generator(Philox(key=[43, n])))
        xs = m.sampler(theta, n * self.MEANS, Generator(Philox(key=[47, n])))
        means = np.mean(m.d(xs).reshape(self.MEANS, n), axis=1)
        ks = stats.ks_2samp(draws, means).statistic
        assert ks < self.KS_1PCT * math.sqrt(1.0 / self.DRAWS + 1.0 / self.MEANS)

    def test_law_travels_with_the_sampler(self):
        m = catalog_model("gamma", {"k": 2.0})
        assert m.sampler.dbar is not None
        stripped = dataclasses.replace(m, sampler=m.sampler.draw)
        assert not hasattr(stripped.sampler, "dbar")
        xs = stripped.sampler(1.0, 8, Generator(Philox(key=[1, 0])))
        assert np.array_equal(xs, m.sampler(1.0, 8, Generator(Philox(key=[1, 0]))))

    def test_rejection_rounds_are_capped(self, monkeypatch):
        # at shape n k = 1 about 5% of the proposals are rejected, so a single
        # round cannot fill 4096 draws
        monkeypatch.setattr(expfam, "_GAMMA_MAX_ROUNDS", 1)
        m = catalog_model("gamma", {"k": 0.5})
        with pytest.raises(ConvergenceError, match="rejection sampler"):
            m.sampler.dbar(1.0, 2, 4096, Generator(Philox(key=[5, 0])))


def _bits(x):
    # float64 bit patterns: equal arrays of these are equal in hex, signed zeros included
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


class TestLawPrefix:
    """``dbar(..., take)`` is the first ``take`` draws of the ``size``-draw layout, bit for bit."""

    TAKES = (1, 2, 903, 904, 2047, 2048, 2049, 3616, 4095, 4096)

    @staticmethod
    def check(law, theta, n, size, key, takes):
        full = law(theta, n, size, Generator(Philox(key=key)))
        assert full.shape == (size,)
        for take in takes:
            got = law(theta, n, size, Generator(Philox(key=key)), take=take)
            assert np.array_equal(_bits(got), _bits(full[:take])), (n, size, key, take)

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_every_model(self, name):
        law = catalog_model(name, CATALOG_FIXED[name]).sampler.dbar
        theta = 0.8 if name == "normal-mean" else 1.3
        for n in (2, 50, 2000):
            for seed in (0, 29, 2**63 + 7):
                self.check(law, theta, n, 4096, [seed, n], self.TAKES)
            # an odd layout: normal i >= m = 4 is the sine of pair i - m
            self.check(law, theta, n, 7, [3, n], range(1, 8))

    @pytest.mark.parametrize("take, message", [
        (-1, "take must lie in [0, 10], got -1"),
        (11, "take must lie in [0, 10], got 11"),
        (2.0, "take must be an integer, got 2.0"),
        (True, "take must be an integer, got True"),
    ])
    def test_a_prefix_outside_the_layout_is_refused(self, take, message):
        # every law, the gamma boost path included, refuses a prefix longer than its
        # layout, a negative one and one that is no integer count
        for name, fixed in (*CATALOG_FIXED.items(), ("gamma", {"k": 0.3})):
            law = catalog_model(name, fixed).sampler.dbar
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                law(1.3, 5, 10, Generator(Philox(key=[1, 1])), take=take)
        assert law(1.3, 5, 10, Generator(Philox(key=[1, 1])), take=0).shape == (0,)

    def test_signed_zeros_are_kept(self):
        # normal-mean at mean -0.0 with variance 5e-324: sqrt(var / n) underflows to 0,
        # so every draw is -0.0 + (±0) z, a zero with its normal's sign
        law = catalog_model("normal-mean", {"theta": 5e-324}).sampler.dbar
        full = law(-0.0, 2, 4096, Generator(Philox(key=[5, 5])))
        assert not full.any() and np.signbit(full).any() and (~np.signbit(full)).any()
        self.check(law, -0.0, 2, 4096, [5, 5], self.TAKES)

    def test_boost_path_below_shape_one(self):
        # gamma k = 0.3 at n = 2 draws Gamma(0.6): every round is formed before the boost
        law = catalog_model("gamma", {"k": 0.3}).sampler.dbar
        for seed in (1, 2, 3):
            self.check(law, 1.3, 2, 4096, [seed, 2], self.TAKES)

    def test_round_that_runs_out(self, monkeypatch):
        # at shape n k = 1 about 5% of the proposals are rejected, so at take = 4090 the
        # first round runs out and the second starts where the full draw's second does
        law = catalog_model("gamma", {"k": 0.5}).sampler.dbar
        for seed in (1, 2, 3):
            self.check(law, 1.3, 2, 4096, [seed, 2], (4090, *self.TAKES))
        monkeypatch.setattr(expfam, "_GAMMA_MAX_ROUNDS", 1)
        messages = []
        for take in (4096, 4090):
            with pytest.raises(ConvergenceError, match="rejection sampler") as err:
                law(1.3, 2, 4096, Generator(Philox(key=[1, 2])), take=take)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("gamma rejection sampler left ")
        assert messages[0].endswith(" of 4096 draws unaccepted after 1 rounds (shape=1.0)")


class TestGammaDraw:
    """The gamma draw against the all-elements squeeze-or-log acceptance, bit for bit."""

    @staticmethod
    def reference(rng, shape, n):
        # Marsaglia-Tsang with both tests evaluated on every proposal
        k = shape if shape >= 1.0 else shape + 1.0
        dd = k - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * dd)
        out = np.empty(n)
        filled = 0
        while filled < n:
            m = n - filled
            z = expfam._standard_normal(rng, m)
            u = expfam._open_unit(rng, m)
            v = (1.0 + c * z) ** 3
            pos = v > 0.0
            vsafe = np.where(pos, v, 1.0)
            squeeze = u < 1.0 - 0.0331 * z ** 4
            full = np.log(u) < 0.5 * z * z + dd * (1.0 - vsafe + np.log(vsafe))
            acc = dd * v[pos & (squeeze | full)]
            out[filled : filled + acc.size] = acc
            filled += acc.size
        if shape < 1.0:
            out *= expfam._open_unit(rng, n) ** (1.0 / shape)
        return out

    @pytest.mark.parametrize("key", [[3, 0], [61, 7], [2**40 + 5, 2**63]])
    @pytest.mark.parametrize("shape", [0.5, 1.0, 2.0, 2.5, 100.0, 800.0, 4000.0])
    def test_bit_identical_to_reference(self, shape, key):
        for size in (1, 7, 904, 4096):
            got_rng = Generator(Philox(key=key))
            want_rng = Generator(Philox(key=key))
            got = expfam._gamma_unit_rate(got_rng, shape, size)
            want = self.reference(want_rng, shape, size)
            assert np.array_equal(got, want), (shape, size)
            # the same number of draws consumed: the streams stay in step
            assert got_rng.random() == want_rng.random(), (shape, size)

    @pytest.mark.parametrize("key", [[13, 0], [17, 1], [19, 2]])
    def test_per_observation_sampler(self, key):
        sampler = catalog_model("gamma", {"k": 2.0}).sampler
        got = sampler(1.3, 50, Generator(Philox(key=key)))
        want = self.reference(Generator(Philox(key=key)), 2.0, 50) / 1.3
        assert np.array_equal(got, want)

    def test_power_of_a_gathered_subset(self):
        # The squeeze evaluates z ** 4 on a gathered subset of the proposals;
        # that is bit-identical only while numpy's pow gives each element the
        # same value whatever its position in the array.
        rng = np.random.default_rng(12)
        lengths = [1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 63, 65, 127, 904, 4095,
                   4096, 4097, 20_000]
        lengths += [int(m) for m in rng.integers(1, 20_001, size=12)]
        for length in lengths:
            x = rng.standard_normal(length) * rng.choice([0.01, 1.0, 40.0], size=length)
            full = x ** 4
            for frac in (0.01, 0.1, 0.25, 0.5):
                m = max(1, int(frac * length))
                idx = np.sort(rng.choice(length, size=m, replace=False))
                assert np.array_equal(full[idx], x[idx] ** 4), (length, frac)


class TestSupport:
    def test_open_endpoints(self):
        # every catalog support is an open interval
        s = Support(lo=0.0, hi=2.0)
        assert s.contains([0.5, 1.5])
        assert not s.contains([0.0])
        assert not s.contains([2.0])
        assert str(s) == "(0.0, 2.0)"


class TestLoadData(object):
    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("# comment\n1.5\n\n2.5e-1\n-3.25E+1\n")
        got = load_data(path)
        np.testing.assert_allclose(got, [1.5, 0.25, -32.5])

    def test_bad_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\nnot-a-number\n")
        with pytest.raises(DomainError, match="cannot parse"):
            load_data(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(DomainError, match="no observations"):
            load_data(path)
