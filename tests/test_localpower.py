"""Coefficient tables, local power values, and ordering certificates."""

import dataclasses
import math
import re
import sys
from fractions import Fraction
from itertools import chain as flat
from itertools import permutations

import numpy as np
import pytest

from gradpower import localpower
from gradpower.errors import DomainError, GradpowerError
from gradpower.expfam import catalog_model, cumulants
from gradpower.expansion import (
    _DRIFT_MAX,
    cdf_expansion,
    scalar_coefficients,
    st_moments,
    tensors_from_cumulants,
)
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

    @pytest.mark.parametrize("eps", [math.inf, -math.inf, math.nan])
    def test_non_finite_eps_refused(self, eps):
        with pytest.raises(DomainError, match=f"^eps must be finite, got {eps}$"):
            power_coefficients(catalog_model("gamma", {"k": 1.0}), 1.0, eps)

    @pytest.mark.parametrize("eps", [1e120, -1e200, pytest.param(10 ** 400, id="10**400"), 5.7e102])
    def test_huge_eps_refused(self, eps):
        # one drift rule: eps ** 3, a factor of every coefficient, must be finite
        model = catalog_model("gamma", {"k": 1.0})
        def message(eps):
            return f"^{re.escape(f'eps must be at most {_DRIFT_MAX} in magnitude, got {eps}')}$"

        with pytest.raises(DomainError, match=message(eps)):
            power_coefficients(model, 1.0, eps)
        for n in (50, math.inf):
            with pytest.raises(DomainError, match=message(eps)):
                PowerQuery(model=model, theta0=1.0, eps=eps, n=n, alpha=0.05)
        with pytest.raises(DomainError, match=message(abs(eps))):
            power_ordering(model, 1.0, "above" if eps > 0 else "below", 0.05,
                           eps_grid=(abs(eps),))
        # the largest drift allowed passes the drift rule, but its table overflows
        overflow = re.escape(f"local power coefficients overflow at theta0=1.0, eps={-_DRIFT_MAX}")
        with pytest.raises(DomainError, match=overflow):
            power_coefficients(model, 1.0, -_DRIFT_MAX)

    def test_overflowing_coefficients_refused(self):
        # below the drift bound P eps^3 still overflows at theta0 = 0.1: the builder
        # refuses the table, so no query or ordering evaluates it (every power would be NaN)
        model = catalog_model("gamma", {"k": 2.0})
        message = re.escape("local power coefficients overflow at theta0=0.1, eps=5e+102")
        for source in SOURCES:
            with pytest.raises(DomainError, match=message):
                power_coefficients(model, 0.1, 5e102, source)
            for n in (50, math.inf):
                q = PowerQuery(model=model, theta0=0.1, eps=5e102, n=n, alpha=0.05)
                with pytest.raises(DomainError, match=message):
                    local_power(q, TestKind.LR, source)
                with pytest.raises(DomainError, match=message):
                    power_difference(q, TestKind.LR, TestKind.WALD, source)
            with pytest.raises(DomainError, match=message):
                power_ordering(model, 0.1, "above", 0.05, source, eps_grid=(1.0, 5e102))

    @pytest.mark.parametrize("beta_d1", [0.0, -1.0])
    def test_non_positive_information_refused(self, beta_d1):
        model = dataclasses.replace(catalog_model("gamma", {"k": 1.0}),
                                    beta_d1=lambda t: beta_d1)
        with pytest.raises(DomainError,
                           match=r"^Fisher information must be positive at theta0=1.0$"):
            power_coefficients(model, 1.0, 0.5)

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

    def test_n_must_be_a_count(self):
        model = catalog_model("gamma", {"k": 2.0})
        for n in (True, False, 50.5, math.nan, np.float32(50.0), "50"):
            with pytest.raises(DomainError, match="n must be an integer"):
                PowerQuery(model=model, theta0=1.0, eps=0.5, n=n, alpha=0.05)
        whole = [PowerQuery(model=model, theta0=1.0, eps=0.5, n=n, alpha=0.05)
                 for n in (50, 50.0, np.int64(50))]
        assert len({local_power(q, TestKind.GRADIENT) for q in whole}) == 1
        assert PowerQuery(model=model, theta0=1.0, eps=0.5, n=math.inf, alpha=0.05).scale == 0.0
        with pytest.raises(DomainError, match=">= 1"):
            PowerQuery(model=model, theta0=1.0, eps=0.5, n=0, alpha=0.05)

    def test_expansion_n_must_be_a_count(self):
        # cdf_expansion and st_moments share PowerQuery's rule for n
        c = cumulants(catalog_model("gamma", {"k": 2.0}), 1.0)
        e, t = scalar_coefficients(c, 0.5), tensors_from_cumulants(c)
        for n in (True, False, 50.5, math.nan, np.float32(50.0), "50"):
            with pytest.raises(DomainError, match="n must be an integer"):
                cdf_expansion(e, n, 3.84)
            with pytest.raises(DomainError, match="n must be an integer"):
                st_moments(t, [0.5], n)
        assert len({cdf_expansion(e, n, 3.84) for n in (50, 50.0, np.int64(50))}) == 1
        assert st_moments(t, [0.5], 50) == st_moments(t, [0.5], 50.0) == st_moments(
            t, [0.5], np.int64(50))
        assert cdf_expansion(e, math.inf, 3.84).value == cdf_expansion(e, 10 ** 300, 3.84).value
        assert st_moments(t, [0.5], math.inf).m1 == st_moments(t, [0.5], 10 ** 300).m1
        for n in (0, -50, -math.inf):
            with pytest.raises(DomainError, match="n must be positive"):
                cdf_expansion(e, n, 3.84)
            with pytest.raises(DomainError, match="n must be positive"):
                st_moments(t, [0.5], n)

    def test_huge_n_refused(self):
        model = catalog_model("gamma", {"k": 2.0})
        message = f"n must be at most {sys.float_info.max}, got {10 ** 400}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            PowerQuery(model=model, theta0=1.0, eps=0.5, n=10 ** 400, alpha=0.05)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.25, math.nan])
    def test_one_alpha_rule(self, alpha):
        # PowerQuery and power_ordering refuse the same alphas with the same message
        model = catalog_model("gamma", {"k": 1.0})
        message = f"^alpha must lie in \\(0, 1\\), got {alpha}$"
        with pytest.raises(DomainError, match=message):
            PowerQuery(model=model, theta0=1.0, eps=0.5, n=50, alpha=alpha)
        with pytest.raises(DomainError, match=message):
            power_ordering(model, 1.0, "above", alpha)

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
        # crit, tails, densities and tables: computed on first use, not at construction
        assert not {"crit", "lam", "tails", "densities", "_values"} & set(vars(q))
        assert q.crit == central_chisq_quantile(1.0, 0.05, upper=True)
        assert q.lam == 0.5 * model.fisher_information(1.0) * 0.5 ** 2
        assert q.scale == 1.0 / math.sqrt(50)
        assert PowerQuery(model=model, theta0=1.0, eps=0.5, n=math.inf, alpha=0.05).scale == 0.0
        # the names above are the cached attributes, so the first check can fail
        q.tails, q.densities, q.coefficients(SOURCE_CHAIN)
        assert {"crit", "lam", "tails", "densities", "_values"} <= set(vars(q))


EDGE_THETAS = (5e-324, 1e-300, 1e-120, 1e103, 1e150, 1e300)


class TestNamedRefusalsAtEdgeTheta:
    """Every entry point that evaluates alpha' .. beta'' at theta0 returns finite values
    or refuses by name, never with Python's bare ZeroDivisionError or OverflowError."""

    CASES = [(name, t) for name in CATALOG_FIXED for t in EDGE_THETAS] + [
        ("normal-mean", -t) for t in EDGE_THETAS]

    @pytest.mark.parametrize("name, theta0", CASES)
    def test_finite_or_named(self, name, theta0):
        model = catalog_model(name, CATALOG_FIXED[name])
        calls = {
            "fisher_information": lambda: [model.fisher_information(theta0)],
            "cumulants": lambda: dataclasses.astuple(cumulants(model, theta0)),
            "power_coefficients": lambda: [
                a for row in power_coefficients(model, theta0, 1.0).rows for a in row],
            "lam": lambda: [PowerQuery(model, theta0, 1.0, 50, 0.05).lam],
        }
        named = f"derivatives of {name!r} leave the float range at theta0={theta0}"
        for label, call in calls.items():
            try:
                values = call()
            except GradpowerError as exc:
                assert isinstance(exc, DomainError) or str(exc) == named, (label, exc)
                continue
            assert all(map(math.isfinite, values)), (label, values)

    @pytest.mark.parametrize("name", list(CATALOG_FIXED))
    def test_every_power_of_two(self, name):
        # every theta0 = 2**k in the float range, at eps = 1: a finite result or the one
        # named numeric failure, never the coefficient-overflow DomainError, which is kept
        # for a drift that overflows the table (eps = 5e102)
        model = catalog_model(name, CATALOG_FIXED[name])

        def cumulant_values(theta0):
            c = cumulants(model, theta0)
            return c.k_tt, c.k_ttt, c.k_t_tt, c.k_t_t_t, c.k_inv

        calls = {
            "fisher_information": lambda theta0: [model.fisher_information(theta0)],
            "cumulants": cumulant_values,
            "power_coefficients": lambda theta0: [
                a for row in power_coefficients(model, theta0, 1.0).rows for a in row],
            "lam": lambda theta0: [PowerQuery(model, theta0, 1.0, 50, 0.05).lam],
        }
        refused = dict.fromkeys(calls, 0)
        powers = [math.ldexp(1.0, k) for k in range(-1074, 1024)]
        if name == "normal-mean":  # its parameter space is the real line
            powers += [-t for t in powers]
        for theta0 in powers:
            for label, call in calls.items():
                try:
                    values = call(theta0)
                except GradpowerError as exc:
                    assert type(exc) is GradpowerError, (label, theta0, exc)
                    assert str(exc) == (f"derivatives of {name!r} leave the float range"
                                        f" at theta0={theta0}"), (label, exc)
                    refused[label] += 1
                    continue
                assert all(map(math.isfinite, values)), (label, theta0, values)
        # normal-mean's derivatives do not depend on theta0; every other model's entry
        # points are refused somewhere, the second derivatives' at least wherever the
        # information's are
        assert all(refused.values()) == (name != "normal-mean"), refused
        assert refused["power_coefficients"] == refused["cumulants"] >= refused["lam"]
        assert refused["lam"] == refused["fisher_information"]

    def test_coefficients_refuse_source_theta0_and_eps_before_the_derivatives(self):
        model = catalog_model("gamma", {"k": 2.0})  # its derivatives fail at 1e-300
        for theta0, eps, source, match in [
            (-1.0, math.inf, "bogus", "unknown coefficient source"),
            (-1.0, math.inf, SOURCE_CHAIN, "outside parameter space"),
            (1e-300, math.inf, SOURCE_CHAIN, "eps must be finite"),
        ]:
            with pytest.raises(DomainError, match=match):
                power_coefficients(model, theta0, eps, source)
        with pytest.raises(GradpowerError, match="leave the float range"):
            power_coefficients(model, 1e-300, 1.0, SOURCE_CHAIN)


def _bits(value):
    # the exact bits of a power or a difference, so that -0.0 and 0.0 differ
    if isinstance(value, float):
        return value.hex()
    return (value.value.hex(), value.raw.hex(), value.clamped)


class TestQueryReuse:
    """A query reused across tests, sources and pairs gives the fresh-query values, bit
    for bit, whichever test or pair it evaluates first."""

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

        # q evaluates each source's tests first, r its pairs first and its tests in
        # reverse; every fresh query evaluates one test or pair only
        q, r = fresh(), fresh()
        pairs = [(i, j) for i in TestKind for j in TestKind if i != j]
        for source in SOURCES:
            for i, j in pairs:
                assert _bits(power_difference(r, i, j, source)) == _bits(
                    power_difference(fresh(), i, j, source))
            for kind in reversed(TestKind):
                assert _bits(local_power(r, kind, source)) == _bits(
                    local_power(fresh(), kind, source))
            for kind in TestKind:
                want = _bits(local_power(fresh(), kind, source))
                assert _bits(local_power(q, kind, source)) == want
                assert _bits(local_power(r, kind, source)) == want
            for i, j in pairs:
                assert _bits(power_difference(q, i, j, source)) == _bits(
                    power_difference(fresh(), i, j, source))

    def test_unknown_source_raises_at_infinite_n(self):
        q = PowerQuery(model=catalog_model("gamma", {"k": 2.0}), theta0=1.0, eps=0.5,
                       n=math.inf, alpha=0.05)
        assert local_power(q, TestKind.LR).value == local_power(q, TestKind.GRADIENT).value
        with pytest.raises(DomainError, match="source"):
            local_power(q, TestKind.LR, "bogus")


class TestSharedNullPoint:
    """A query moved to another drift shares its null point (theta0's derivative terms,
    Fisher information and critical value) and gives a fresh query's values bit for bit."""

    EPS = (0.0, 1e-3, -1e-3, 0.7, -0.7, 2.0, -2.0)

    @pytest.mark.parametrize("name", list(CATALOG_FIXED))
    def test_moved_equals_fresh(self, name):
        model = catalog_model(name, CATALOG_FIXED[name])
        theta0 = 0.4 if name == "normal-mean" else 1.0
        pairs = [(i, j) for i in TestKind for j in TestKind if i != j]
        for n in (20, 1000, math.inf):
            for alpha in (0.05, 1e-9):
                base = PowerQuery(model, theta0, 0.3, n, alpha)
                moved = base
                for step, eps in enumerate(self.EPS):
                    # moved from the base and along a chain, in turn; each asks for its
                    # powers or its differences first, and for its sources in either order
                    moved = (base if step % 2 else moved).at_eps(eps)
                    assert moved._root is base
                    assert (moved.eps, moved.n, moved.alpha) == (eps, n, alpha)

                    def fresh():
                        return PowerQuery(model=model, theta0=theta0, eps=eps, n=n, alpha=alpha)

                    def powers(source):
                        for kind in TestKind:
                            assert _bits(local_power(moved, kind, source)) == _bits(
                                local_power(fresh(), kind, source)), (n, eps, source, kind)

                    def differences(source):
                        for i, j in pairs:
                            assert _bits(power_difference(moved, i, j, source)) == _bits(
                                power_difference(fresh(), i, j, source)), (n, eps, source, i, j)

                    first, then = (powers, differences) if step % 3 else (differences, powers)
                    for source in SOURCES[::1 if step % 2 else -1]:
                        first(source)
                        then(source)
                        table = power_coefficients(model, theta0, eps, source)
                        got = moved.coefficients(source)
                        assert [_bits(a) for a in flat(*got.rows, got.sums)] == [
                            _bits(a) for a in flat(*table.rows, table.sums)]
                    assert _bits(moved.lam) == _bits(fresh().lam)
                    assert moved.crit == fresh().crit
                # one critical value and one derivative evaluation for the whole grid
                assert {"crit", "_fisher", "_terms"} <= set(vars(base))
                assert not {"_fisher", "_terms"} & set(vars(moved))

    @pytest.mark.parametrize("eps", [-5.0, 1e120, math.inf, math.nan])
    def test_moved_drift_refused_as_fresh(self, eps):
        # theta0 - 5 / sqrt(20) leaves gamma's parameter space; the others break the drift rule
        model = catalog_model("gamma", {"k": 2.0})
        base = PowerQuery(model, 1.0, 0.5, 20, 0.05)
        with pytest.raises(DomainError) as fresh:
            PowerQuery(model, 1.0, eps, 20, 0.05)
        with pytest.raises(DomainError) as moved:
            base.at_eps(eps)
        assert str(moved.value) == str(fresh.value)
        # at n = inf no drifted point is built: only the drift rule applies
        far = PowerQuery(model, 1.0, 0.5, math.inf, 0.05)
        if math.isfinite(eps) and abs(eps) < 1e100:
            assert far.at_eps(eps).eps == eps
        else:
            with pytest.raises(DomainError, match=re.escape(str(fresh.value))):
                far.at_eps(eps)

    def test_derivative_failure_not_cached(self):
        # a refused derivative evaluation is refused again at every drift, not remembered
        # as a value; gamma k = 2 at 1e103: K is finite, beta'' is not
        model = catalog_model("gamma", {"k": 2.0})
        q = PowerQuery(model, 1e103, 1.0, 50, 0.05)
        assert q.lam == 0.5 * model.fisher_information(1e103)
        for eps in (1.0, 2.0):
            with pytest.raises(GradpowerError, match="leave the float range"):
                local_power(q.at_eps(eps), TestKind.LR)


class TestUpperTailAccuracy:
    """Local power against the same expansion built from reference noncentral tails.

    The reference is ``Q_1 + s sum_k a_k Q_{1+2k} - s sum_k a_k``, with
    ``s = n^-1/2``.  The error is scaled by the terms' magnitude
    ``Q_1 + s sum_k |a_k| Q_{1+2k} + s |sum_k a_k|``, which stays fair where the
    expansion goes negative.  The constant is the row's exact sum: every row but
    the table source's gradient row is a consistent-chain row and sums to zero
    exactly; the table gradient row differs from its chain row in ``a_0`` alone,
    by ``(P - R) eps^3 / 6 = alpha'' beta' eps^3 / 2``, taken here in rational
    arithmetic from the model's float derivatives.
    """

    EPS = (0.1, 0.5, 1.0, 2.0, -0.1, -0.5, -1.0, -2.0)

    @staticmethod
    def constant(model, eps, kind, source):
        if source == SOURCE_CHAIN or kind != TestKind.GRADIENT:
            return 0.0
        return float(Fraction(model.alpha_d2(1.0)) * Fraction(model.beta_d1(1.0))
                     * Fraction(eps) ** 3 / 2)

    # each bound is at most 10x the worst error measured (1.7e-15, 1.2e-15,
    # 1.8e-15, 3.9e-15 and 5.5e-15)
    @pytest.mark.parametrize("alpha,bound", [(0.05, 1e-14), (1e-3, 1e-14), (1e-6, 1e-14),
                                             (1e-10, 2e-14), (1e-15, 3e-14)])
    def test_scaled_error_against_scipy(self, alpha, bound):
        from scipy.stats import chi2, ncx2

        x = float(chi2.isf(alpha, 1.0))
        dfs = np.array([1.0, 3.0, 5.0, 7.0])
        worst = 0.0
        for name, model in all_models():
            for eps in self.EPS:
                for n in (20, 50, 1000):
                    q = PowerQuery(model=model, theta0=1.0, eps=eps, n=n, alpha=alpha)
                    sf = ncx2.sf(x, dfs, 2.0 * q.lam)
                    for source in SOURCES:
                        table = q.coefficients(source)
                        for kind in TestKind:
                            term = q.scale * table.row(kind)
                            const = q.scale * self.constant(model, eps, kind, source)
                            want = sf[0] + term @ sf - const
                            magnitude = sf[0] + np.abs(term) @ sf + abs(const)
                            got = local_power(q, kind, source).raw
                            worst = max(worst, abs(got - want) / magnitude)
        assert worst <= bound

    @pytest.mark.parametrize("alpha", [1e-20, 1e-100])
    def test_tiny_alpha_against_40_digit_reference(self, alpha):
        # alphas where 1 - alpha rounds to 1.  The reference solves the critical
        # value from erfc and takes Q_1 = Phi(mu - sqrt x) + Phi(-mu - sqrt x) and
        # Q_{v+2} = Q_v + 2 g_{v+2}, each g from the Bessel form of the density
        import mpmath

        lams = (0.01, 0.5, 5.0, 50.0, 200.0)
        worst, checked = 0.0, 0
        with mpmath.workdps(40):
            a = mpmath.mpf(alpha)
            x0 = PowerQuery(model=catalog_model("gamma", {"k": 2.0}), theta0=1.0, eps=0.5,
                            n=20, alpha=alpha).crit
            x = mpmath.findroot(lambda t: mpmath.log(mpmath.erfc(mpmath.sqrt(t / 2)) / a), x0)
            r = mpmath.sqrt(x)
            for name in ("gamma", "tev", "invnormal-mu", "pareto"):
                model = catalog_model(name, CATALOG_FIXED[name])
                for lam in lams:
                    for sign in (1.0, -1.0):
                        eps = sign * math.sqrt(2.0 * lam / model.fisher_information(1.0))
                        L = 2 * mpmath.mpf(0.5 * model.fisher_information(1.0) * eps ** 2)
                        m = mpmath.sqrt(L)
                        q_ref = [mpmath.ncdf(m - r) + mpmath.ncdf(-m - r)]
                        for k in (3, 5, 7):
                            g = (mpmath.exp(-(x + L) / 2) * (x / L) ** (mpmath.mpf(k - 2) / 4)
                                 * mpmath.besseli(mpmath.mpf(k) / 2 - 1, r * m) / 2)
                            q_ref.append(q_ref[-1] + 2 * g)
                        for n in (20, 1000):
                            if not model.in_param_space(1.0 + eps / math.sqrt(n)):
                                continue  # large lam below the null at n = 20
                            q = PowerQuery(model=model, theta0=1.0, eps=eps, n=n, alpha=alpha)
                            checked += 1
                            row = q.coefficients(SOURCE_CHAIN).a
                            for kind in TestKind:
                                coef = [q.scale * mpmath.mpf(c) for c in row[kind - 1]]
                                want = q_ref[0] + mpmath.fsum(c * v for c, v in zip(coef, q_ref))
                                magnitude = q_ref[0] + mpmath.fsum(
                                    abs(c) * v for c, v in zip(coef, q_ref))
                                got = local_power(q, kind, SOURCE_CHAIN).raw
                                worst = max(worst, float(abs(got - want) / magnitude))
        assert checked >= 60
        assert worst <= 1e-13


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

    def test_row_sums_as_local_power_takes_them(self):
        # A_j - A_i, with A zero for every consistent-chain row: the float sum of two
        # such rows' difference (~1e-17), times G_1 ~ 1, would swamp a small tail
        q = PowerQuery(model=catalog_model("tev"), theta0=1.0, eps=0.5, n=50, alpha=1e-12)
        d = power_difference(q, TestKind.LR, TestKind.WALD)
        assert d == 5.428100501695604e-10
        assert d == local_power(q, TestKind.LR).raw - local_power(q, TestKind.WALD).raw
        for name, model in all_models():
            theta0 = 0.4 if name == "normal-mean" else 1.0
            for eps in (-0.5, 0.5, 1.0):
                for alpha in (0.05, 1e-6, 1e-12):
                    q = PowerQuery(model=model, theta0=theta0, eps=eps, n=50, alpha=alpha)
                    for source in SOURCES:
                        for i in TestKind:
                            for j in TestKind:
                                d = power_difference(q, i, j, source)
                                pi_i = local_power(q, i, source).raw
                                direct = pi_i - local_power(q, j, source).raw
                                # the direct difference keeps a few ulps of pi_i
                                tol = 1e-13 * abs(d) + 4.0 * sys.float_info.epsilon * abs(pi_i)
                                assert abs(d - direct) <= tol, (name, eps, alpha, source, i, j)

    def test_table_gradient_row_sum_is_its_a0_difference(self):
        # the table source's gradient row differs from its chain row in a_0 alone, so
        # its sum A is that difference: exactly 0 in a natural family (alpha'' = 0),
        # where both sources then give the same powers and differences, bit for bit
        for name, model in all_models():
            for eps in (-0.7, 0.1, 1.3):
                chain = power_coefficients(model, 1.0, eps, SOURCE_CHAIN)
                table = power_coefficients(model, 1.0, eps, SOURCE_TABLE)
                assert chain.sums == (0.0, 0.0, 0.0, 0.0)
                assert table.sums[:3] == (0.0, 0.0, 0.0)
                assert table.sums[3] == table.rows[3][0] - chain.rows[3][0]
                if name not in NATURAL:
                    continue
                assert table.sums[3] == 0.0 and table.rows == chain.rows
                q = PowerQuery(model=model, theta0=1.0, eps=eps, n=1000, alpha=1e-12)
                for i in TestKind:
                    assert _bits(local_power(q, i, SOURCE_TABLE)) == _bits(local_power(q, i))
                    for j in TestKind:
                        assert (_bits(power_difference(q, i, j, SOURCE_TABLE))
                                == _bits(power_difference(q, i, j)))
        # gamma k = 2, lam = 0.01, alpha = 1e-12, n = 1000: a 50-digit mpmath evaluation
        # of the telescoped difference, at the program's rows with A = 0, gives
        # -4.8587602341605467e-12; the row's float sum (~1e-19) moved it by 1.4e-8
        q = PowerQuery(model=catalog_model("gamma", {"k": 2.0}), theta0=1.0, eps=0.1,
                       n=1000, alpha=1e-12)
        got = power_difference(q, TestKind.WALD, TestKind.GRADIENT, SOURCE_TABLE)
        assert abs(got / -4.8587602341605467e-12 - 1.0) <= 1e-12

    def test_gamma_example_weights(self):
        # grad-vs-lr telescopes through C = (0, -1/2, -1/3)
        from gradpower.localpower import _difference_terms

        table = power_coefficients(catalog_model("gamma", {"k": 2.0}), 1.0, 1.0)
        csum, C = _difference_terms(table, TestKind.GRADIENT, TestKind.LR)
        assert abs(csum) <= 1e-15
        np.testing.assert_allclose(C, (0.0, -0.5, -1 / 3), atol=1e-14)

    @pytest.mark.parametrize("source", SOURCES)
    def test_first_partial_sum_comes_from_the_exact_row_sums(self, source):
        # every row has a_0 = -P eps^3 / 6 but the table-source gradient, whose row sum
        # is exactly its a_0 difference, so C_1 = csum - (a_j0 - a_i0) is exactly 0; a
        # float sum a_1 + a_2 + a_3 of the row difference left ~1e-16 (tev lr vs wald)
        from gradpower.localpower import _difference_terms

        for name, model in all_models():
            for eps in (-1.3, 0.25, 2.0):
                table = power_coefficients(model, 1.0, eps, source)
                for i, j in permutations(TestKind, 2):
                    csum, C = _difference_terms(table, i, j)
                    assert C[0] == 0.0, (name, eps, i, j)
                    assert csum == table.sums[j - 1] - table.sums[i - 1]


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
        terms = []
        tables = []

        def counting(log, name):
            inner = getattr(localpower, name)

            def wrapper(*args, **kwargs):
                log.append(args)
                return inner(*args, **kwargs)

            monkeypatch.setattr(localpower, name, wrapper)

        counting(calls, "central_chisq_quantile")
        counting(terms, "_null_terms")
        counting(tables, "_coefficient_table")
        report = self._report()
        # one solve per alpha, shared by every grid eps and pair
        assert sorted(p for _, p in calls) == list(self.ALPHAS)
        # one derivative evaluation, and one table per eps built from it by the
        # certificate loop; the grid reuses its weights
        assert len(terms) == 1
        assert [args[2] for args in tables] == list(report.eps_grid)
