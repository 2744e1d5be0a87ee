"""Coefficient tables, local power values, and ordering certificates."""

import dataclasses
import math

import numpy as np
import pytest

from gradpower import localpower
from gradpower.errors import DomainError
from gradpower.expfam import catalog_model, cumulants
from gradpower.expansion import scalar_coefficients, cdf_expansion
from gradpower.localpower import (
    SOURCE_CHAIN,
    SOURCE_TABLE,
    SOURCES,
    PowerQuery,
    _relation,
    local_power,
    power_coefficients,
    power_difference,
    power_ordering,
)
from gradpower.teststats import TestKind, statistics_from_dbar

from helpers import BETA2_ZERO, CATALOG_FIXED, NATURAL, all_models, random_theta

# series-oracle pins: gamma(k=2), theta0=1, eps=0.5, n=50, alpha=0.05 (lam=1/4)
PIN_POWERS = {
    TestKind.LR: 0.10286459830320273479,
    TestKind.WALD: 0.081017778604724827775,
    TestKind.SCORE: 0.081017778604724827775,
    TestKind.GRADIENT: 0.11378800815244168829,
}


class TestCoefficientTable:
    def test_gamma_rows(self):
        model = catalog_model("gamma", {"k": 2.0})
        want = np.array(
            [
                [2 / 3, 0.0, -2 / 3, 0.0],
                [2 / 3, 1.0, -1.0, -2 / 3],
                [2 / 3, 1.0, -1.0, -2 / 3],
                [2 / 3, -1 / 2, -1 / 2, 1 / 3],
            ]
        )
        for source in (SOURCE_CHAIN, SOURCE_TABLE):
            table = power_coefficients(model, 1.0, 1.0, source)
            np.testing.assert_allclose(table.a, want, atol=1e-14)

    def test_normal_mean_all_zero(self):
        model = catalog_model("normal-mean", {"theta": 1.0})
        for source in (SOURCE_CHAIN, SOURCE_TABLE):
            assert np.all(power_coefficients(model, 0.4, 1.3, source).a == 0.0)

    def test_zero_eps_all_zero(self):
        model = catalog_model("gamma", {"k": 2.0})
        assert np.all(power_coefficients(model, 1.0, 0.0).a == 0.0)

    def test_row_sums(self):
        rng = np.random.default_rng(101)
        for name, model in all_models():
            for _ in range(20):
                theta0 = random_theta(rng, name)
                eps = float(rng.normal())
                for source in (SOURCE_CHAIN, SOURCE_TABLE):
                    a = power_coefficients(model, theta0, eps, source).a
                    scale = max(1.0, float(np.max(np.abs(a))))
                    for row in (0, 1, 2):
                        assert abs(a[row].sum()) <= 1e-12 * scale
                a_chain = power_coefficients(model, theta0, eps, SOURCE_CHAIN).a
                assert abs(a_chain[3].sum()) <= 1e-12 * max(1.0, float(np.max(np.abs(a_chain))))

    def test_published_identity_chain(self):
        # a10=a20=a30=-a23=2a43, a21=-a22, a13=0, a12=a33 under the table source
        rng = np.random.default_rng(102)
        for name, model in all_models():
            for _ in range(20):
                theta0 = random_theta(rng, name)
                eps = float(rng.normal())
                a = power_coefficients(model, theta0, eps, SOURCE_TABLE).a
                tol = 1e-12 * max(1.0, float(np.max(np.abs(a))))
                assert abs(a[0, 0] - a[1, 0]) <= tol
                assert abs(a[0, 0] - a[2, 0]) <= tol
                assert abs(a[1, 3] + a[0, 0]) <= tol
                assert abs(2 * a[3, 3] - a[0, 0]) <= tol
                assert abs(a[1, 1] + a[1, 2]) <= tol
                assert abs(a[0, 3]) <= tol
                assert abs(a[0, 2] - a[2, 3]) <= tol

    def test_sources_differ_only_when_alpha2_nonzero(self):
        for name, model in all_models():
            theta0 = 1.1 if name != "normal-mean" else 0.2
            chain = power_coefficients(model, theta0, 1.0, SOURCE_CHAIN).a
            table = power_coefficients(model, theta0, 1.0, SOURCE_TABLE).a
            np.testing.assert_allclose(chain[:3], table[:3], atol=0)
            np.testing.assert_allclose(chain[3, 1:], table[3, 1:], atol=0)
            if name in NATURAL or name == "normal-mean":
                assert chain[3, 0] == table[3, 0]
            else:
                assert chain[3, 0] != table[3, 0]

    def test_score_gradient_rows_coincide_when_beta2_zero(self):
        for name in BETA2_ZERO:
            model = catalog_model(name, CATALOG_FIXED[name])
            theta0 = 0.9 if name != "normal-mean" else -0.4
            a = power_coefficients(model, theta0, 1.3, SOURCE_CHAIN).a
            np.testing.assert_array_equal(a[2], a[3])

    def test_vanishing_third_cumulant_merges_lr_wald_gradient(self):
        # alpha'' beta' = -alpha' beta''/2 kills the third-derivative
        # cumulant; LR, Wald, and gradient rows (chain source) must coincide
        import dataclasses

        base = catalog_model("gamma", {"k": 1.0})
        stub = dataclasses.replace(
            base,
            alpha_d1=lambda t: 1.0,
            alpha_d2=lambda t: 0.7,
            beta_d1=lambda t: 1.0,
            beta_d2=lambda t: -1.4,
        )
        a = power_coefficients(stub, 1.0, 1.3, SOURCE_CHAIN).a
        np.testing.assert_allclose(a[0], a[1], atol=1e-15)
        np.testing.assert_allclose(a[0], a[3], atol=1e-15)
        assert not np.allclose(a[0], a[2], atol=1e-6)  # score stays apart

    def test_sign_flip_negates_coefficients(self):
        for name, model in all_models():
            theta0 = 1.0 if name != "normal-mean" else 0.5
            for source in (SOURCE_CHAIN, SOURCE_TABLE):
                plus = power_coefficients(model, theta0, 1.3, source).a
                minus = power_coefficients(model, theta0, -1.3, source).a
                np.testing.assert_array_equal(plus, -minus)

    def test_scalar_expansion_agreement(self):
        # the gradient row must equal the scalar coefficient chain
        for name, model in all_models():
            theta0 = 1.2 if name != "normal-mean" else 0.5
            eps = 0.8
            row = power_coefficients(model, theta0, eps, SOURCE_CHAIN).row(TestKind.GRADIENT)
            e = scalar_coefficients(cumulants(model, theta0), eps)
            np.testing.assert_allclose(row, e.a, atol=1e-13)


class TestLocalPower:
    def test_pinned_values(self):
        model = catalog_model("gamma", {"k": 2.0})
        q = PowerQuery(model=model, theta0=1.0, eps=0.5, n=50, alpha=0.05)
        for kind, want in PIN_POWERS.items():
            assert local_power(q, kind).value == pytest.approx(want, abs=1e-10)

    def test_size_at_zero_drift(self):
        model = catalog_model("gamma", {"k": 2.0})
        for alpha in (0.01, 0.05, 0.10):
            q = PowerQuery(model=model, theta0=1.0, eps=0.0, n=50, alpha=alpha)
            for kind in TestKind:
                assert local_power(q, kind).value == pytest.approx(alpha, abs=1e-12)

    def test_first_order_equivalence(self):
        model = catalog_model("pareto", {"k": 1.5})
        q = PowerQuery(model=model, theta0=1.0, eps=0.7, n=math.inf, alpha=0.05)
        values = {local_power(q, kind).value for kind in TestKind}
        assert len(values) == 1

    def test_matches_cdf_expansion(self):
        model = catalog_model("gamma", {"k": 2.0})
        q = PowerQuery(model=model, theta0=1.0, eps=1.0, n=50, alpha=0.05)
        pi4 = local_power(q, TestKind.GRADIENT).value
        e = scalar_coefficients(cumulants(model, 1.0), 1.0)
        from gradpower.specfun import central_chisq_quantile

        x = central_chisq_quantile(1.0, 0.95)
        assert pi4 == pytest.approx(1.0 - cdf_expansion(e, 50, x).value, abs=1e-12)

    def test_clamping_flag(self):
        model = catalog_model("gamma", {"k": 0.3})
        q = PowerQuery(model=model, theta0=1.0, eps=2.0, n=20, alpha=0.01)
        got = local_power(q, TestKind.WALD)
        assert got.clamped and got.value == 0.0 and got.raw < 0.0

    def test_query_validation(self):
        model = catalog_model("gamma", {"k": 1.0})
        with pytest.raises(DomainError):
            PowerQuery(model=model, theta0=-1.0, eps=0.0, n=50, alpha=0.05)
        with pytest.raises(DomainError):
            PowerQuery(model=model, theta0=1.0, eps=0.0, n=50, alpha=1.5)
        with pytest.raises(DomainError):
            PowerQuery(model=model, theta0=1.0, eps=-8.0, n=49, alpha=0.05)

    def test_tiny_alpha_refused_by_name(self):
        # 1 - alpha rounds to 1, so no critical value exists in double precision
        model = catalog_model("gamma", {"k": 1.0})
        for alpha in (1e-300, 1e-17):
            with pytest.raises(DomainError, match="alpha"):
                PowerQuery(model=model, theta0=1.0, eps=0.5, n=50, alpha=alpha)
        PowerQuery(model=model, theta0=1.0, eps=0.5, n=50, alpha=1e-15)

    def test_small_alpha_critical_value(self):
        from scipy.stats import chi2

        model = catalog_model("gamma", {"k": 2.0})
        q = PowerQuery(model=model, theta0=1.0, eps=0.5, n=50, alpha=1e-12)
        # solved from the upper tail, so alpha is not rounded away as 1 - alpha
        assert abs(q.crit - chi2.isf(1e-12, 1)) <= 1e-13

    def test_shared_quantities(self):
        from gradpower.specfun import central_chisq_quantile

        model = catalog_model("gamma", {"k": 2.0})
        q = PowerQuery(model=model, theta0=1.0, eps=0.5, n=50, alpha=0.05)
        # crit, tables and mixture values: computed on first use, not at construction
        assert not {"crit", "lam", "_values"} & set(vars(q))
        assert q.crit == central_chisq_quantile(1.0, 0.05, upper=True)
        assert q.lam == 0.5 * model.fisher_information(1.0) * 0.5 ** 2
        assert q.scale == 1.0 / math.sqrt(50)
        assert PowerQuery(model=model, theta0=1.0, eps=0.5, n=math.inf, alpha=0.05).scale == 0.0


class TestQueryReuse:
    """A query reused across tests, sources and pairs gives the fresh-query values."""

    POINTS = (
        ("gamma", 1.0, 0.5, 50, 0.05),
        ("tev", 1.3, -0.8, 20, 1e-9),
        ("laplace", 0.9, 1.7, 1000, 0.2),
        ("pareto", 1.2, 0.6, math.inf, 0.01),
        ("normal-variance", 2.0, 0.0, 40, 0.05),
        ("invnormal-mu", 0.7, -0.4, 1, 0.3),
    )

    @pytest.mark.parametrize("name,theta0,eps,n,alpha", POINTS)
    def test_reused_equals_fresh(self, name, theta0, eps, n, alpha):
        model = catalog_model(name, CATALOG_FIXED[name])

        def fresh():
            return PowerQuery(model=model, theta0=theta0, eps=eps, n=n, alpha=alpha)

        q = fresh()
        for source in SOURCES:
            for kind in TestKind:
                assert local_power(q, kind, source) == local_power(fresh(), kind, source)
            for i in TestKind:
                for j in TestKind:
                    if i != j:
                        got = power_difference(q, i, j, source)
                        assert got == power_difference(fresh(), i, j, source)

    def test_unknown_source_raises_at_infinite_n(self):
        q = PowerQuery(model=catalog_model("gamma", {"k": 2.0}), theta0=1.0, eps=0.5,
                       n=math.inf, alpha=0.05)
        assert local_power(q, TestKind.LR).value == local_power(q, TestKind.GRADIENT).value
        with pytest.raises(DomainError, match="source"):
            local_power(q, TestKind.LR, "bogus")


class TestPowerDifference:
    def test_exact_antisymmetry(self):
        model = catalog_model("tev")
        q = PowerQuery(model=model, theta0=1.0, eps=0.8, n=40, alpha=0.05)
        for source in (SOURCE_CHAIN, SOURCE_TABLE):
            for i in TestKind:
                for j in TestKind:
                    d_ij = power_difference(q, i, j, source)
                    d_ji = power_difference(q, j, i, source)
                    assert d_ij == -d_ji

    def test_telescoped_equals_direct(self):
        # certificate representation against the raw expansion difference
        model = catalog_model("gamma", {"k": 2.0})
        q = PowerQuery(model=model, theta0=1.0, eps=1.0, n=50, alpha=0.05)
        for i, j in ((TestKind.GRADIENT, TestKind.LR), (TestKind.LR, TestKind.WALD)):
            direct = local_power(q, i).raw - local_power(q, j).raw
            tele = power_difference(q, i, j)
            assert tele == pytest.approx(direct, abs=1e-13)

    def test_gamma_example_weights(self):
        # grad-vs-lr telescopes through C = (0, -1/2, -1/3)
        from gradpower.localpower import _difference_terms

        table = power_coefficients(catalog_model("gamma", {"k": 2.0}), 1.0, 1.0)
        csum, C = _difference_terms(table, TestKind.GRADIENT, TestKind.LR)
        assert abs(csum) <= 1e-15
        np.testing.assert_allclose(C, (0.0, -0.5, -1 / 3), atol=1e-14)


class TestOrderings:
    def test_gamma_pareto_power(self):
        for name, fixed in (("gamma", {"k": 2.0}), ("pareto", {"k": 1.5}), ("power", {"phi": 3.0})):
            model = catalog_model(name, fixed)
            report = power_ordering(model, 1.0, "above", 0.05)
            assert report.describe() == "gradient > lr > wald = score (uniform in x)", name
            assert report.uniform

    def test_reversal_below(self):
        model = catalog_model("gamma", {"k": 2.0})
        report = power_ordering(model, 1.0, "below", 0.05)
        assert report.groups == (
            (TestKind.WALD, TestKind.SCORE),
            (TestKind.LR,),
            (TestKind.GRADIENT,),
        )

    def test_known_mean_inverse_normal_matches_small_shape_gamma(self):
        # d(x) is gamma-distributed with shape 1/2, and every statistic depends
        # on the data only through dbar, so statistics and orderings must agree
        # with the gamma catalog entry
        g_half = catalog_model("gamma", {"k": 0.5})
        for mu in (1.0, 1.2):
            iv = catalog_model("invnormal-theta", {"mu": mu})
            for theta0 in (0.5, 1.0, 2.5):
                for d_bar in (0.01, 0.3, 1.0 / (2.0 * theta0), 0.9, 4.0):
                    th_iv, s_iv = statistics_from_dbar(iv, theta0, d_bar, 37)
                    th_g, s_g = statistics_from_dbar(g_half, theta0, d_bar, 37)
                    assert th_iv == pytest.approx(th_g, rel=1e-14)
                    assert s_iv == pytest.approx(s_g, rel=1e-12, abs=1e-12)
        iv = catalog_model("invnormal-theta", {"mu": 1.0})
        for direction, expected in (
            ("above", "gradient > lr > wald = score (uniform in x)"),
            ("below", "wald = score > lr > gradient (uniform in x)"),
        ):
            r_iv = power_ordering(iv, 1.0, direction, 0.05)
            r_g = power_ordering(g_half, 1.0, direction, 0.05)
            assert r_iv.groups == r_g.groups, direction
            assert r_iv.describe() == expected

    def test_tev_depends_on_source(self):
        model = catalog_model("tev")
        chain = power_ordering(model, 1.0, "above", 0.05, source=SOURCE_CHAIN)
        table = power_ordering(model, 1.0, "above", 0.05, source=SOURCE_TABLE)
        assert chain.describe() == "score = gradient > lr > wald (uniform in x)"
        assert table.describe() == "gradient > score > lr > wald (uniform in x)"

    def test_beta2_zero_family_table_source(self):
        # all four beta''=0 entries show the strict chain under the table source
        for name in ("normal-variance", "invnormal-mu", "tev", "laplace"):
            model = catalog_model(name, CATALOG_FIXED[name])
            report = power_ordering(model, 1.1, "above", 0.05, source=SOURCE_TABLE)
            assert report.describe() == "gradient > score > lr > wald (uniform in x)", name

    def test_normal_mean_everything_equal(self):
        model = catalog_model("normal-mean", {"theta": 1.0})
        report = power_ordering(model, 0.3, "above", 0.05)
        assert report.groups == ((TestKind.LR, TestKind.WALD, TestKind.SCORE, TestKind.GRADIENT),)

    def test_certificates_consistent_with_numeric_differences(self):
        # every 'greater' certificate must match the sign of the evaluated
        # power difference at several (eps, alpha, n)
        rng = np.random.default_rng(55)
        for name, model in all_models():
            theta0 = 1.0 if name != "normal-mean" else 0.5
            report = power_ordering(model, theta0, "above", 0.05)
            for (i, j), cert in report.certificates.items():
                for eps in (0.25, 1.0):
                    for alpha in (0.01, 0.10):
                        q = PowerQuery(model=model, theta0=theta0, eps=eps, n=60, alpha=alpha)
                        diff = power_difference(q, i, j)
                        if cert.relation == "greater":
                            assert diff > -1e-15, (name, i, j)
                        elif cert.relation == "less":
                            assert diff < 1e-15, (name, i, j)
                        elif cert.relation == "equal":
                            assert abs(diff) <= 1e-13, (name, i, j)

    def test_invalid_inputs(self):
        model = catalog_model("gamma", {"k": 1.0})
        with pytest.raises(DomainError):
            power_ordering(model, 1.0, "sideways", 0.05)
        with pytest.raises(DomainError):
            power_ordering(model, 1.0, "above", 0.05, eps_grid=(0.5, -1.0))
        with pytest.raises(DomainError):
            power_ordering(model, 1.0, "above", 0.05, source="folklore")


class TestOrderingFallback:
    """Pairs without a uniform certificate are compared on a grid of queries."""

    # alpha'' = 1, beta'' = -5 at theta0 = 5: no pair with the gradient gets a uniform certificate
    STUB = dataclasses.replace(
        catalog_model("gamma", {"k": 1.0}),
        alpha_d1=lambda t: 1.0,
        alpha_d2=lambda t: 1.0,
        beta_d1=lambda t: 1.0,
        beta_d2=lambda t: -5.0,
    )
    ALPHAS = (0.01, 0.025, 0.05, 0.10, 0.20)

    def _report(self):
        return power_ordering(self.STUB, 5.0, "above", 0.05, source=SOURCE_TABLE)

    def test_fallback_pairs_match_pointwise_signs(self):
        report = self._report()
        assert not report.uniform
        fallback = {pair for pair, cert in report.certificates.items() if not cert.uniform}
        G = TestKind.GRADIENT
        assert fallback == {(TestKind.LR, G), (TestKind.WALD, G), (TestKind.SCORE, G)}
        for i, j in fallback:
            signs = set()
            for eps in report.eps_grid:
                for alpha in self.ALPHAS:
                    q = PowerQuery(model=self.STUB, theta0=5.0, eps=eps, n=1.0, alpha=alpha)
                    diff = power_difference(q, i, j, SOURCE_TABLE)
                    if abs(diff) > 1e-14:
                        signs.add(1 if diff > 0 else -1)
            assert report.certificates[(i, j)].relation == _relation(signs) == "mixed"

    def test_fallback_builds_no_drifted_point(self):
        # gamma k = 2 by rate theta^2; below theta0 = 1, theta0 - eps / sqrt(1) leaves
        # the parameter space for eps >= 1, which the signs must not depend on
        k = 2.0
        stub = dataclasses.replace(
            catalog_model("gamma", {"k": k}),
            alpha_d1=lambda t: 2.0 * t,
            alpha_d2=lambda t: 2.0,
            beta_d1=lambda t: 2.0 * k / t ** 3,
            beta_d2=lambda t: -6.0 * k / t ** 4,
        )
        report = power_ordering(stub, 1.0, "below", 0.05, source=SOURCE_TABLE)
        assert report.describe() == "score > gradient > wald > lr (grid-certified only)"
        fallback = {pair for pair, cert in report.certificates.items() if not cert.uniform}
        assert fallback
        for i, j in fallback:
            signs = set()
            for eps in report.eps_grid:
                for alpha in self.ALPHAS:
                    q = PowerQuery(model=stub, theta0=1.0, eps=-eps, n=100.0, alpha=alpha)
                    diff = power_difference(q, i, j, SOURCE_TABLE)
                    if abs(diff) > 1e-14:
                        signs.add(1 if diff > 0 else -1)
            assert report.certificates[(i, j)].relation == _relation(signs)

    def test_grid_shared_by_all_pairs(self, monkeypatch):
        calls = []
        tables = []
        solve = localpower.central_chisq_quantile
        build = localpower.power_coefficients

        def counting(df, p, *args, **kwargs):
            calls.append((df, p))
            return solve(df, p, *args, **kwargs)

        def counting_tables(*args, **kwargs):
            tables.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(localpower, "central_chisq_quantile", counting)
        monkeypatch.setattr(localpower, "power_coefficients", counting_tables)
        report = self._report()
        # one solve per (eps, alpha) grid point, not one per point and pair
        assert len(calls) == len(report.eps_grid) * len(self.ALPHAS) == 20
        # one table per eps, built by the certificate loop; the grid reuses its weights
        assert len(tables) == len(report.eps_grid) == 4
