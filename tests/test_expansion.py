"""Composite/simple/scalar coefficient chains, CDF expansion, and moments."""

import dataclasses
import itertools
import json
import math
import random
import re
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.special import chdtr
from scipy.stats import chi2, nct, norm

from gradpower import expansion, specfun
from gradpower.errors import DomainError, GradpowerError
from gradpower.expfam import CumulantSet, catalog_model, checked_data, cumulants, mle
from gradpower.expansion import (
    CumulantTensors,
    cdf_expansion,
    composite_coefficients,
    load_tensor_file,
    power_equivalence_flags,
    scalar_coefficients,
    simple_coefficients,
    st_moments,
    tensors_from_cumulants,
)
from gradpower.specfun import (
    ChiSquareParams,
    central_chisq_cdf,
    central_chisq_quantile,
    nc_chisq_cdf,
)
from gradpower.teststats import compute_statistics

from helpers import CATALOG_FIXED, random_tensors

# pinned by the quadrature+series oracle: gradient-coefficient expansion for
# the gamma(k=2) tensors at theta0=1, eps=1, n=50, evaluated at x=3.8415
CDF_EXPANSION_PIN = 0.72838988136047963074


def gamma_tensors():
    return tensors_from_cumulants(cumulants(catalog_model("gamma", {"k": 2.0}), 1.0))


class TestCompositeCoefficients:
    def test_hand_worked_two_dim_example(self):
        # p=2, q=1, K=I, only kappa_222 = 1, eps = (1,)
        k3 = np.zeros((2, 2, 2))
        k3[1, 1, 1] = 1.0
        t = CumulantTensors(p=2, q=1, K=np.eye(2), k3=k3, k21=np.zeros((2, 2, 2)))
        e = composite_coefficients(t, [1.0])
        assert e.f == 1
        assert e.lam == pytest.approx(0.5, abs=1e-15)
        np.testing.assert_allclose(e.a, (1 / 6, -1 / 4, 0.0, 1 / 12), atol=1e-12)

    def test_zero_drift_zero_coefficients(self):
        rng = np.random.default_rng(5)
        t = random_tensors(rng, p=3, q=1)
        e = composite_coefficients(t, [0.0, 0.0])
        assert e.lam == 0.0
        assert all(a == 0.0 for a in e.a)

    def test_zero_sum_normalization(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            t = random_tensors(rng, p=int(rng.integers(2, 5)), q=1)
            e = composite_coefficients(t, rng.normal(size=t.p - 1))
            assert abs(sum(e.a)) <= 1e-12 * max(1.0, max(abs(a) for a in e.a))

    def test_dimension_mismatch(self):
        t = random_tensors(np.random.default_rng(0), p=3, q=1)
        with pytest.raises(DomainError, match="length"):
            composite_coefficients(t, [1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_eps(self, bad):
        t = random_tensors(np.random.default_rng(0), p=3, q=1)
        with pytest.raises(DomainError, match="^eps must be finite$"):
            composite_coefficients(t, [1.0, bad])

    def test_permutation_of_nuisance_coordinates(self):
        rng = np.random.default_rng(3)
        t = random_tensors(rng, p=4, q=2)
        eps = rng.normal(size=2)
        base = composite_coefficients(t, eps)
        perm = [1, 0, 2, 3]
        tp = CumulantTensors(
            p=4,
            q=2,
            K=t.K[np.ix_(perm, perm)],
            k3=t.k3[np.ix_(perm, perm, perm)],
            k21=t.k21[np.ix_(perm, perm, perm)],
        )
        other = composite_coefficients(tp, eps)
        assert other.lam == pytest.approx(base.lam, abs=1e-10)
        np.testing.assert_allclose(other.a, base.a, atol=1e-10)

    def test_lambda_ignores_third_order_arrays(self):
        rng = np.random.default_rng(4)
        t = random_tensors(rng, p=3, q=1)
        eps = rng.normal(size=2)
        zeroed = CumulantTensors(
            p=3, q=1, K=t.K, k3=np.zeros((3, 3, 3)), k21=np.zeros((3, 3, 3))
        )
        assert composite_coefficients(zeroed, eps).lam == composite_coefficients(t, eps).lam


class TestContractions:
    """The einsum contractions against the triple loops they replaced, bit for bit."""

    @staticmethod
    def loop_vvv(t, a, b, c, r0=0):
        p = t.shape[0]
        total = 0.0
        for r in range(r0, p):
            for s in range(p):
                for u in range(p):
                    total += t[r, s, u] * a[r - r0] * b[s] * c[u]
        return total

    @staticmethod
    def loop_mv(t, m, b):
        p = t.shape[0]
        total = 0.0
        for r in range(p):
            for s in range(p):
                for u in range(p):
                    total += t[r, s, u] * m[r, s] * b[u]
        return total

    def test_bit_identical_to_loops(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            p = int(rng.integers(1, 13))
            q = int(rng.integers(0, p))
            t = rng.normal(size=(p, p, p))
            a, b, c = rng.normal(size=(3, p))
            m = rng.normal(size=(p, p))
            assert expansion._contract_vvv(t, a, b, c) == self.loop_vvv(t, a, b, c)
            assert expansion._contract_mv(t, m, b) == self.loop_mv(t, m, b)
            # the tested-block term: first index over q..p-1 via a zero-padded drift
            e = rng.normal(size=p - q)
            e_pad = np.zeros(p)
            e_pad[q:] = e
            assert expansion._contract_vvv(t, e_pad, b, c) == self.loop_vvv(t, e, b, c, q)


class TestReductionChain:
    def test_composite_equals_simple_at_q0(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            p = int(rng.integers(1, 5))
            t = random_tensors(rng, p=p, q=0)
            eps = rng.normal(size=p)
            a = composite_coefficients(t, eps)
            b = simple_coefficients(t, eps)
            worst = max(
                worst,
                abs(a.lam - b.lam),
                max(abs(x - y) for x, y in zip(a.a, b.a)),
            )
        assert worst <= 1e-10

    def test_simple_equals_scalar_at_p1(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            K = float(rng.uniform(0.2, 4.0))
            from gradpower.expfam import CumulantSet

            c = CumulantSet(
                k_tt=-K,
                k_ttt=float(rng.normal()),
                k_t_tt=float(rng.normal()),
                k_t_t_t=float(rng.normal()),
                k_inv=1.0 / K,
            )
            eps = float(rng.normal())
            a = scalar_coefficients(c, eps)
            b = simple_coefficients(tensors_from_cumulants(c), [eps])
            assert a.lam == pytest.approx(b.lam, abs=1e-12)
            np.testing.assert_allclose(a.a, b.a, atol=1e-12)

    def test_gamma_example(self):
        e = simple_coefficients(gamma_tensors(), [1.0])
        np.testing.assert_allclose(e.a, (2 / 3, -1 / 2, -1 / 2, 1 / 3), atol=1e-14)
        assert e.lam == pytest.approx(1.0, abs=1e-15)

    def test_simple_requires_q0(self):
        t = random_tensors(np.random.default_rng(1), p=3, q=1)
        with pytest.raises(DomainError, match="q = 0"):
            simple_coefficients(t, [1.0, 1.0])

    @pytest.mark.parametrize("k_tt,eps,message", [
        (-2.0, math.nan, "eps must be finite, got nan"),
        (-2.0, math.inf, "eps must be finite, got inf"),
        (-2.0, 1e200, "eps must be at most 5.643803094122288e\\+102 in magnitude, got 1e\\+200"),
        pytest.param(-2.0, -10 ** 400, "eps must be at most 5.643803094122288e\\+102 in "
                     f"magnitude, got {-10 ** 400}", id="-10**400"),
        (0.0, 1.0, "Fisher information must be positive, got -0.0"),
        (1.0, 1.0, "Fisher information must be positive, got -1.0"),
    ])
    def test_scalar_refusals(self, k_tt, eps, message):
        c = CumulantSet(k_tt=k_tt, k_ttt=1.0, k_t_tt=0.5, k_t_t_t=0.0, k_inv=0.5)
        with pytest.raises(DomainError, match=f"^{message}$"):
            scalar_coefficients(c, eps)


class TestCdfExpansion:
    def test_pinned_value(self):
        e = simple_coefficients(gamma_tensors(), [1.0])
        got = cdf_expansion(e, 50, 3.8415)
        assert not got.clamped
        assert got.value == pytest.approx(CDF_EXPANSION_PIN, abs=1e-10)

    def test_large_x_tends_to_one(self):
        e = simple_coefficients(gamma_tensors(), [1.0])
        assert cdf_expansion(e, 50, 1e4).value == pytest.approx(1.0, abs=1e-12)

    def test_zero_drift_reduces_to_central(self):
        e = simple_coefficients(gamma_tensors(), [0.0])
        for x in (0.5, 2.0, 6.0):
            assert cdf_expansion(e, 50, x).value == pytest.approx(
                central_chisq_cdf(1.0, x), abs=1e-14
            )

    def test_negative_x_convention(self):
        e = simple_coefficients(gamma_tensors(), [1.0])
        assert cdf_expansion(e, 50, -3.0).value == 0.0

    def test_nan_and_infinite_x(self):
        e = simple_coefficients(gamma_tensors(), [1.0])
        with pytest.raises(DomainError, match="^x must not be NaN$"):
            cdf_expansion(e, 50, math.nan)
        assert cdf_expansion(e, 50, math.inf) == (1.0, 1.0, False)

    def test_infinite_n_is_first_order(self):
        e = simple_coefficients(gamma_tensors(), [1.0])
        got = cdf_expansion(e, math.inf, 2.0)
        assert got.value == pytest.approx(
            nc_chisq_cdf(ChiSquareParams(1.0, e.lam), 2.0), abs=1e-14
        )

    def test_sanity_envelope_on_catalog_tensors(self):
        # raw values stay within [-0.02, 1.02] for |eps| <= 1, n >= 20
        for name, fixed in (("gamma", {"k": 2.0}), ("tev", {}), ("pareto", {"k": 1.5})):
            model = catalog_model(name, fixed)
            t = tensors_from_cumulants(cumulants(model, 1.0))
            for eps in (-1.0, -0.5, 0.5, 1.0):
                e = simple_coefficients(t, [eps])
                for x in np.linspace(0.05, 20.0, 40):
                    raw = cdf_expansion(e, 20, float(x)).raw
                    assert -0.02 <= raw <= 1.02, (name, eps, x, raw)


    def test_f1_matches_a_40_digit_telescoped_sum(self):
        # G_1 and g_3, g_5, g_7 in 40 digits: G_1 from the normal cdf and each density
        # from its Bessel form, summed as sum_k a_k G_{1+2k} with G_{v+2} = G_v - 2 g_{v+2}.
        # Points as analytic-sweep draws them (lam <= 200, x from 1e-2 to 1e2) reach
        # values below 1e-60, which the Poisson walk returned as 0 or with no correct digit.
        rng = random.Random(26)
        names = list(CATALOG_FIXED)
        tails = set()
        worst = 0.0
        with mpmath.workdps(40):
            for i in range(200):
                name = names[i % len(names)]
                model = catalog_model(name, CATALOG_FIXED[name])
                lam = math.exp(rng.uniform(math.log(1e-3), math.log(200.0)))
                eps = rng.choice((-1.0, 1.0)) * math.sqrt(2.0 * lam / model.fisher_information(1.0))
                e = scalar_coefficients(cumulants(model, 1.0), eps)
                x = math.exp(rng.uniform(math.log(1e-2), math.log(1e2)))
                n = rng.choice((20, 1000))
                L, xm = 2 * mpmath.mpf(e.lam), mpmath.mpf(x)
                r, mu = mpmath.sqrt(xm), mpmath.sqrt(L)
                G = [mpmath.ncdf(r - mu) - mpmath.ncdf(-r - mu)]
                for k in (3, 5, 7):
                    g = (mpmath.exp(-(xm + L) / 2) * (xm / L) ** (mpmath.mpf(k - 2) / 4)
                         * mpmath.besseli(mpmath.mpf(k) / 2 - 1, mpmath.sqrt(L * xm)) / 2)
                    G.append(G[-1] - 2 * g)
                want = G[0] + mpmath.fsum(mpmath.mpf(a) * v for a, v in zip(e.a, G)) / mpmath.sqrt(n)
                got = cdf_expansion(e, n, x).raw
                worst = max(worst, float(abs(got - want) / abs(want)))
                tails.add(x < 1.0 + 2.0 * e.lam)
        assert tails == {True, False}
        assert worst <= 1e-13


def _value_bits(values):
    # each ClampedProbability with its floats in hex form: equal exactly, sign of zero included
    return [(v.value.hex(), v.raw.hex(), v.clamped) for v in values]


class TestCdfExpansionOverAList:
    """A list of x gives each x's value of its own call, from one Poisson walk at f >= 2;
    the first x a loop of single calls would refuse decides the error."""

    XS = [0.0, -1.0, 1e-6, 0.05, 0.4, 1.0, 2.0, 3.5, 6.0, 9.0, 15.0, 30.0, 80.0, 300.0,
          450.0, math.inf]

    @pytest.fixture()
    def walks(self, monkeypatch):
        walks = []
        inner = specfun._poisson_weights
        monkeypatch.setattr(specfun, "_poisson_weights",
                            lambda params: walks.append(params.noncentrality) or inner(params))
        return walks

    @pytest.mark.parametrize("f", [1, 2, 3])
    @pytest.mark.parametrize("n", [20, 1000, math.inf])
    def test_equals_one_call_per_x(self, f, n, walks):
        for lam in (0.0, 0.4, 5.0, 190.0):
            for a in ((0.1, -0.3, 0.15, 0.05), (-20.0, 50.0, -10.0, -20.0), (0.0, 0.0, 0.0, 0.0)):
                e = expansion.PowerExpansion(f, lam, a)
                got = cdf_expansion(e, n, self.XS)
                assert isinstance(got, tuple)
                walks.clear()
                want = [cdf_expansion(e, n, x) for x in self.XS]
                assert _value_bits(got) == _value_bits(want), (f, n, lam, a)
                # the per-x calls walk once per positive finite x, the list once in all
                assert len(walks) == (0 if f == 1 else sum(0.0 < x < math.inf for x in self.XS))
        # the large coefficients clamp some values at both ends
        e = expansion.PowerExpansion(f, 5.0, (-20.0, 50.0, -10.0, -20.0))
        raw = [v.raw for v in cdf_expansion(e, 20, self.XS)]
        assert min(raw) < 0.0 and max(raw) > 1.0

    def test_one_walk_per_list(self, walks):
        e = expansion.PowerExpansion(3, 7.0, (0.1, -0.3, 0.15, 0.05))
        cdf_expansion(e, 50, self.XS)
        assert walks == [7.0]
        # a list with no positive finite x walks nothing, and an empty list gives ()
        assert cdf_expansion(e, 50, [0.0, -2.0, math.inf]) == (
            (0.0, 0.0, False), (0.0, 0.0, False), (1.0, 1.0, False))
        assert cdf_expansion(e, 50, []) == ()
        assert walks == [7.0]

    @pytest.mark.parametrize("f", [1, 3])
    @pytest.mark.parametrize("xs,n,error", [
        ([1.0, math.nan, 5e-324], 50, "^x must not be NaN$"),
        ([math.nan, 1.0], 50.5, "^x must not be NaN$"),
        ([0.0, 1.0], 50.5, "^n must be an integer, got 50.5$"),
        ([2.0, 5e-324, math.nan], 50, r"^x=5e-324 is too small"),
    ])
    def test_first_refused_x_decides(self, f, xs, n, error):
        e = expansion.PowerExpansion(f, 3.0, (0.1, -0.3, 0.15, 0.05))
        if f == 1 and "5e-324" in error:
            # at f = 1 nothing is walked, so 5e-324 has a value and the NaN decides
            error = "^x must not be NaN$"
        with pytest.raises(DomainError, match=error):
            for x in xs:
                cdf_expansion(e, n, x)
        with pytest.raises(DomainError, match=error):
            cdf_expansion(e, n, xs)

    def test_refused_walk_decides_before_a_later_nan(self):
        e = expansion.PowerExpansion(2, 1e14, (0.1, -0.3, 0.15, 0.05))
        with pytest.raises(GradpowerError, match="Poisson mixture needs more than"):
            cdf_expansion(e, 50, [0.0, 2e14, math.nan])
        with pytest.raises(DomainError, match="^x must not be NaN$"):
            cdf_expansion(e, 50, [0.0, math.nan, 2e14])


class TestPowerExpansionValidation:
    @pytest.mark.parametrize("lam", [-1e-13, -1e-300, -1.0, math.nan, math.inf, -math.inf,
                                     pytest.param(10 ** 400, id="10**400")])
    def test_bad_noncentrality_refused(self, lam):
        with pytest.raises(DomainError, match=r"noncentrality must be >= 0 and finite"):
            expansion.PowerExpansion(1, lam, (0.0, 0.0, 0.0, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("k", range(4))
    def test_non_finite_coefficient_refused(self, bad, k):
        a = [0.0, 0.0, 0.0, 0.0]
        a[k] = bad
        with pytest.raises(DomainError, match=r"coefficients must be finite"):
            expansion.PowerExpansion(1, 0.5, tuple(a))

    def test_non_zero_sum_refused(self):
        with pytest.raises(DomainError, match=r"coefficients must sum to zero"):
            expansion.PowerExpansion(1, 0.5, (0.1, 0.0, 0.0, 0.0))

    @pytest.mark.parametrize("f", [0, -1, 1.5, 2.0, True, math.inf, "2", None,
                                   pytest.param(10 ** 400, id="10**400")])
    def test_bad_dimension_refused(self, f):
        with pytest.raises(DomainError, match=r"^f must be"):
            expansion.PowerExpansion(f, 0.5, (0.0, 0.0, 0.0, 0.0))

    @pytest.mark.parametrize("a", [
        (0.0, 0.0), (0.0, 0.0, 0.0, 0.0, 0.0), "abcd", "00", None, 0.0,
        (0.0, 0.0, "0", 0.0), (0.0, 0.0, 0.0, 1j),
    ])
    def test_bad_coefficients_refused(self, a):
        with pytest.raises(DomainError, match=r"^a must be four real numbers"):
            expansion.PowerExpansion(1, 0.5, a)

    def test_boundary_values_accepted(self):
        for lam in (0.0, -0.0, 5e-324, 200.0):
            e = expansion.PowerExpansion(3, lam, (0.25, -0.5, 0.5, -0.25))
            assert math.isfinite(cdf_expansion(e, 50, 2.0).raw)


class TestSampleSize:
    """One n rule for cdf_expansion, st_moments and PowerExpansion.mixture_mean."""

    CALLS = {
        "cdf_expansion": lambda n: cdf_expansion(
            simple_coefficients(gamma_tensors(), [1.0]), n, 2.0),
        "st_moments": lambda n: st_moments(gamma_tensors(), [1.0], n),
        "mixture_mean": lambda n: simple_coefficients(gamma_tensors(), [1.0]).mixture_mean(n),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("n,message", [
        (0, "n must be positive, got 0"),
        (-math.inf, "n must be positive, got -inf"),
        (50.5, "n must be an integer, got 50.5"),
        (True, "n must be an integer, got True"),
        pytest.param(10 ** 400, f"n must be at most {sys.float_info.max}, got {10 ** 400}",
                     id="10**400"),
    ])
    def test_bad_n_refused(self, call, n, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            self.CALLS[call](n)

    def test_mixture_mean_at_infinite_n(self):
        e = simple_coefficients(gamma_tensors(), [1.0])
        assert e.mixture_mean(math.inf) == e.f + 2.0 * e.lam


class TestOverflowingDrift:
    """A drift whose quadratic form overflows is refused, with no numpy warning."""

    MESSAGE = r"^noncentrality must be >= 0 and finite, got inf$"

    def test_composite_and_moments_refuse_it(self):
        t = load_tensor_file(Path(__file__).with_name("normal_composite_tensors.json"))
        with pytest.raises(DomainError, match=self.MESSAGE):
            composite_coefficients(t, [1e200])
        # st_moments alone refuses the same drift
        with pytest.raises(DomainError, match=self.MESSAGE):
            st_moments(t, [1e200], 50)

    def test_simple_refuses_it(self):
        t = gamma_tensors()
        with pytest.raises(DomainError, match=self.MESSAGE):
            simple_coefficients(t, [1e200])
        with pytest.raises(DomainError, match=self.MESSAGE):
            st_moments(t, [1e200], 50)


class TestClamp:
    """``_clamp`` reports a probability outside [0, 1] as clamped, and never NaN."""

    def test_nan_is_refused_not_clamped(self):
        for raw in (math.nan, -math.nan):
            with pytest.raises(GradpowerError, match="^second-order probability is NaN$"):
                expansion._clamp(raw)

    def test_values(self):
        assert expansion._clamp(0.25) == (0.25, 0.25, False)
        assert expansion._clamp(-1e-300) == (0.0, -1e-300, True)
        assert expansion._clamp(1.5) == (1.0, 1.5, True)
        assert expansion._clamp(math.inf) == (1.0, math.inf, True)
        got = expansion._clamp(-0.0)
        assert not got.clamped and math.copysign(1.0, got.value) == -1.0


class TestTelescopedWeights:
    """``_weights`` in plain floats against the numpy sum it replaced."""

    @staticmethod
    def _check(row):
        csum, C = expansion._weights(list(row))
        with np.errstate(over="ignore"):
            want = float(np.sum(np.asarray(row, dtype=float)))
        assert csum.hex() == want.hex(), row
        assert math.copysign(1.0, csum) == math.copysign(1.0, want), row
        assert type(csum) is float and all(type(c) is float for c in C)
        c0, c1, c2, c3 = row
        assert C == (c1 + c2 + c3, c2 + c3, c3)

    def test_random_rows_match_numpy_sum(self):
        rng = np.random.default_rng(20261018)
        rows = rng.standard_normal((20000, 4)) * 10.0 ** rng.integers(-20, 21, (20000, 1))
        # half the rows sum to zero up to rounding, as every coefficient row does
        rows[:10000, 0] = -(rows[:10000, 1] + rows[:10000, 2] + rows[:10000, 3])
        for row in rows.tolist():
            self._check(row)

    def test_signed_zero_grid_matches_numpy_sum(self):
        grid = (0.0, -0.0, 1e-300, -1e-300, 5e-324, 1.0, -1.0, 1e308, -1e308)
        for row in itertools.product(grid, repeat=4):
            self._check(row)


class TestMoments:
    def test_null_moments(self):
        t = gamma_tensors()
        ms = st_moments(t, [0.0], 100)
        assert (ms.m1, ms.m2, ms.m3) == (1.0, 2.0, 8.0)
        assert composite_coefficients(t, [0.0]).mixture_mean(100) == 1.0

    def test_gamma_contractions(self):
        ms = st_moments(gamma_tensors(), [1.0], 200)
        rt = 1.0 / math.sqrt(200.0)
        assert ms.A[0] == pytest.approx(1.5, abs=1e-14)
        assert ms.A[1] == pytest.approx(0.5, abs=1e-14)
        assert ms.A[2] == pytest.approx(1 / 3, abs=1e-14)
        assert ms.m1 == pytest.approx(2.0 + 3.0 * rt, abs=1e-13)
        assert ms.m2 == pytest.approx(6.0 + 16.0 * rt, abs=1e-13)
        assert ms.m3 == pytest.approx(32.0 + 17.0 * rt, abs=1e-13)
        mixture_mean = composite_coefficients(gamma_tensors(), [1.0]).mixture_mean(200)
        assert mixture_mean == pytest.approx(3.0 - rt, abs=1e-13)

    def test_mixture_mean_matches_weights(self):
        rng = np.random.default_rng(9)
        t = random_tensors(rng, p=2, q=1)
        eps = [0.7]
        n = 64
        e = composite_coefficients(t, eps)
        a1, a2, a3 = e.a[1], e.a[2], e.a[3]
        want = e.f + 2.0 * e.lam + (2.0 / math.sqrt(n)) * (a1 + 2 * a2 + 3 * a3)
        assert e.mixture_mean(n) == pytest.approx(want, abs=1e-12)


class TestTensorValidation:
    def test_asymmetric_k_rejected(self):
        K = np.array([[1.0, 0.2], [0.1, 1.0]])
        with pytest.raises(DomainError, match="symmetric"):
            CumulantTensors(p=2, q=0, K=K, k3=np.zeros((2, 2, 2)), k21=np.zeros((2, 2, 2)))

    def test_non_positive_definite_rejected(self):
        K = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(DomainError, match="positive definite"):
            CumulantTensors(p=2, q=0, K=K, k3=np.zeros((2, 2, 2)), k21=np.zeros((2, 2, 2)))

    def test_asymmetric_k3_rejected(self):
        k3 = np.zeros((2, 2, 2))
        k3[0, 1, 1] = 1.0
        with pytest.raises(DomainError, match="k3"):
            CumulantTensors(p=2, q=0, K=np.eye(2), k3=k3, k21=np.zeros((2, 2, 2)))

    def test_k21_last_two_symmetry_only(self):
        # symmetric in (s, t) but not under first-index swaps: accepted
        k21 = np.zeros((2, 2, 2))
        k21[0, 1, 1] = 3.0
        CumulantTensors(p=2, q=0, K=np.eye(2), k3=np.zeros((2, 2, 2)), k21=k21)
        bad = np.zeros((2, 2, 2))
        bad[0, 0, 1] = 1.0
        with pytest.raises(DomainError, match="k21"):
            CumulantTensors(p=2, q=0, K=np.eye(2), k3=np.zeros((2, 2, 2)), k21=bad)

    @pytest.mark.parametrize("p,k3,k21,k111,message", [
        (0, (0, 0, 0), (0, 0, 0), None, "p must be >= 1, got 0"),
        (2, (2, 2), (2, 2, 2), None, r"k3 must have shape \(2, 2, 2\), got \(2, 2\)"),
        (2, (2, 2, 2), (2, 2, 3), None, r"k21 must have shape \(2, 2, 2\), got \(2, 2, 3\)"),
        (2, (2, 2, 2), (2, 2, 2), (2, 2), r"k111 must have shape \(2, 2, 2\), got \(2, 2\)"),
    ])
    def test_bad_dimension_or_shape(self, p, k3, k21, k111, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            CumulantTensors(p=p, q=0, K=np.eye(p), k3=np.zeros(k3), k21=np.zeros(k21),
                            k111=None if k111 is None else np.zeros(k111))

    @pytest.mark.parametrize("name", ["K", "k3", "k21", "k111"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_is_named(self, name, bad):
        # refused by name before the symmetry checks, which would report a NaN as an
        # asymmetry and warn about an infinite tolerance
        arrays = {"K": np.eye(2), "k3": np.zeros((2, 2, 2)), "k21": np.zeros((2, 2, 2)),
                  "k111": np.zeros((2, 2, 2))}
        arrays[name][(0,) * arrays[name].ndim] = bad
        with pytest.raises(DomainError, match=f"^{name} must be finite$"):
            CumulantTensors(p=2, q=0, **arrays)

    def test_bad_shapes_and_q(self):
        with pytest.raises(DomainError):
            CumulantTensors(p=2, q=2, K=np.eye(2), k3=np.zeros((2, 2, 2)), k21=np.zeros((2, 2, 2)))
        with pytest.raises(DomainError):
            CumulantTensors(p=2, q=0, K=np.eye(3), k3=np.zeros((2, 2, 2)), k21=np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("counts,message", [
        # accepted once, after which composite_coefficients raised a raw TypeError
        ({"p": 2.0, "q": 0}, "^p must be an integer, got 2.0$"),
        ({"p": True, "q": 0}, "^p must be an integer, got True$"),
        ({"p": 2, "q": 0.0}, "^q must be an integer, got 0.0$"),
        ({"p": 2, "q": False}, "^q must be an integer, got False$"),
        ({"p": "2", "q": 0}, "^p must be an integer, got '2'$"),
    ])
    def test_counts_must_be_integers(self, counts, message):
        with pytest.raises(DomainError, match=message):
            CumulantTensors(**counts, K=np.eye(2), k3=np.zeros((2, 2, 2)),
                            k21=np.zeros((2, 2, 2)))

    def test_integer_counts_of_any_integral_type(self):
        t = CumulantTensors(p=np.int64(2), q=np.int32(1), K=np.eye(2),
                            k3=np.zeros((2, 2, 2)), k21=np.zeros((2, 2, 2)))
        assert composite_coefficients(t, [0.5]) == composite_coefficients(
            dataclasses.replace(t, p=2, q=1), [0.5])


# positive definite to Cholesky, yet LU finds an exactly zero pivot: np.linalg.inv
# raises "Singular matrix" for it
SINGULAR_K = [[7.346861336999952, 2.2874649389799337],
              [2.2874649389799337, 0.7122083304758725]]


def _tensors(K, q):
    return CumulantTensors(p=2, q=q, K=K, k3=np.zeros((2, 2, 2)), k21=np.zeros((2, 2, 2)))


class TestInverses:
    @pytest.mark.parametrize("q", [0, 1])
    def test_k_that_passes_cholesky_but_cannot_be_inverted(self, q):
        np.linalg.cholesky(np.array(SINGULAR_K))
        with pytest.raises(DomainError, match="^K must be positive definite$"):
            _tensors(SINGULAR_K, q)

    @pytest.mark.parametrize("q, fails_at", [(0, 1), (1, 1), (1, 2)])
    def test_any_failed_inverse_is_refused(self, monkeypatch, q, fails_at):
        # without relying on LAPACK: the inverse of K (call 1), or of the nuisance
        # block (call 2), raises numpy's LinAlgError, and the tensors refuse K
        calls = []
        inv = np.linalg.inv

        def failing(a):
            calls.append(a)
            if len(calls) == fails_at:
                raise np.linalg.LinAlgError("Singular matrix")
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", failing)
        with pytest.raises(DomainError, match="^K must be positive definite$"):
            _tensors(np.eye(2), q)
        assert len(calls) == fails_at

    @pytest.mark.parametrize("q", [0, 1])
    def test_every_expansion_reads_the_stored_inverses(self, monkeypatch, q):
        t = _tensors([[2.0, 0.5], [0.5, 1.0]], q)
        assert np.array_equal(t._K_inv, np.linalg.inv(t.K))
        if q:
            assert np.array_equal(t._K11_inv, np.linalg.inv(t.K[:1, :1]))
        else:
            assert t._K11_inv is None

        def refused(a):
            raise AssertionError("an expansion inverted a matrix")

        monkeypatch.setattr(np.linalg, "inv", refused)
        eps = [0.5] * (2 - q)
        composite_coefficients(t, eps)
        st_moments(t, eps, 50)
        if q == 0:
            simple_coefficients(t, eps)

    @pytest.mark.parametrize("call", [
        lambda t: composite_coefficients(t, [0.5]),
        lambda t: st_moments(t, [0.5], 50),
    ], ids=["composite_coefficients", "st_moments"])
    @pytest.mark.parametrize("K, q", [([[1e-320]], 0), ([[1e-320, 0.0], [0.0, 1.0]], 1)],
                             ids=["K", "nuisance-block"])
    def test_k_whose_inverse_is_not_finite_is_refused(self, call, K, q):
        # Cholesky accepts a subnormal K11, and numpy inverts it to inf without raising;
        # the tensors refuse it by K's name, before any moment or noncentrality is formed
        p = len(K)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError,
                               match="^K and its nuisance block must have finite inverses$"):
                call(CumulantTensors(p=p, q=q, K=K, k3=np.zeros((p, p, p)),
                                     k21=np.zeros((p, p, p))))


class TestEquivalenceFlags:
    def test_flags_on_catalog_models(self):
        nm = tensors_from_cumulants(cumulants(catalog_model("normal-mean", {"theta": 1.0}), 0.5))
        flags = power_equivalence_flags(nm)
        assert flags["lr_wald_gradient"] is True
        assert flags["score_gradient"] is True
        tev = tensors_from_cumulants(cumulants(catalog_model("tev"), 1.0))
        flags = power_equivalence_flags(tev)
        # k3 = 2 k111 holds exactly when beta'' = 0
        assert flags["lr_wald_gradient"] is False
        assert flags["score_gradient"] is True
        gam = tensors_from_cumulants(cumulants(catalog_model("gamma", {"k": 2.0}), 1.0))
        flags = power_equivalence_flags(gam)
        assert flags["lr_wald_gradient"] is False
        assert flags["score_gradient"] is False

    def test_flag_none_without_k111(self):
        t = CumulantTensors(
            p=1, q=0, K=np.array([[1.0]]), k3=np.zeros((1, 1, 1)), k21=np.zeros((1, 1, 1))
        )
        assert power_equivalence_flags(t)["score_gradient"] is None


def _edited_fixture(tmp_path, **fields):
    # a copy of the normal composite fixture with some fields replaced
    doc = json.loads(NORMAL_COMPOSITE.read_text())
    doc.update(fields)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return path


class TestTensorFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "tensors.json"
        path.write_text(
            '{"p": 1, "q": 0, "K": [[2.0]], "k3": [[[4.0]]], "k21": [[[0.0]]],'
            ' "k111": [[[-4.0]]]}'
        )
        t = load_tensor_file(path)
        assert t.p == 1 and t.q == 0
        assert t.K[0, 0] == 2.0 and t.k111[0, 0, 0] == -4.0
        e = simple_coefficients(t, [1.0])
        np.testing.assert_allclose(e.a, (2 / 3, -1 / 2, -1 / 2, 1 / 3), atol=1e-14)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"p": 1, "q": 0, "K": [[1.0]]}')
        with pytest.raises(DomainError, match="missing tensor fields"):
            load_tensor_file(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DomainError, match="invalid tensor file"):
            load_tensor_file(path)

    @pytest.mark.parametrize("name", ["K", "k3", "k21", "k111"])
    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_entry_is_named_on_load(self, tmp_path, name, bad):
        doc = json.loads(NORMAL_COMPOSITE.read_text())
        entry = doc[name][0]
        while isinstance(entry[0], list):
            entry = entry[0]
        entry[0] = float(bad)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert bad in path.read_text()
        with pytest.raises(DomainError, match=f": {name} must be finite$"):
            load_tensor_file(path)

    @pytest.mark.parametrize("field, value, message", [
        # int() would load 2.9 as 2 and true as 1, a different model
        ("p", 2.9, "p must be an integer, got 2.9"),
        ("q", 1.5, "q must be an integer, got 1.5"),
        ("q", True, "q must be an integer, got True"),
        ("p", "2", "p must be an integer, got '2'"),
        ("q", None, "q must be an integer, got None"),
        ("K", [[1.0, 0.0], [1.0, 1.0]], "K must be symmetric under axis order (1, 0)"),
        ("K", [[1.0, 0.0], [0.0, -1.0]], "K must be positive definite"),
        ("K", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "K must have shape (2, 2), got (2, 3)"),
    ])
    def test_refusal_follows_the_path_alone(self, tmp_path, field, value, message):
        path = _edited_fixture(tmp_path, **{field: value})
        with pytest.raises(DomainError) as info:
            load_tensor_file(path)
        assert str(info.value) == f"{path}: {message}"

    def test_ragged_array_is_malformed(self, tmp_path):
        path = _edited_fixture(tmp_path, K=[[1.0, 0.0], [1.0]])
        with pytest.raises(DomainError, match="^" + re.escape(f"{path}: K must be real numbers: ")):
            load_tensor_file(path)

    def test_whole_float_counts_load(self, tmp_path):
        t = load_tensor_file(_edited_fixture(tmp_path, p=2.0, q=1.0))
        assert (t.p, t.q) == (2, 1) and type(t.p) is int and type(t.q) is int
        assert composite_coefficients(t, [0.5]) == composite_coefficients(
            load_tensor_file(NORMAL_COMPOSITE), [0.5])

    def test_symmetry_enforced_on_load(self, tmp_path):
        path = tmp_path / "asym.json"
        path.write_text(
            '{"p": 2, "q": 0, "K": [[1.0, 0.0], [0.0, 1.0]],'
            ' "k3": [[[0,0],[0,1]],[[0,0],[0,0]]],'
            ' "k21": [[[0,0],[0,0]],[[0,0],[0,0]]]}'
        )
        with pytest.raises(DomainError, match="k3"):
            load_tensor_file(path)


def _tensors_with(name, value):
    # valid p = 2 tensors with one array replaced
    arrays = {"K": np.eye(2), "k3": np.zeros((2, 2, 2)), "k21": np.zeros((2, 2, 2)),
              "k111": np.zeros((2, 2, 2))}
    arrays[name] = value
    return CumulantTensors(p=2, q=0, **arrays)


# every entry point that takes an array from its caller, with the name it refuses it by
OUTSIDE_ARRAYS = {
    "compute_statistics": ("data", lambda v: compute_statistics(
        catalog_model("gamma", {"k": 2.0}), v, 1.0)),
    "mle": ("data", lambda v: mle(catalog_model("gamma", {"k": 2.0}), v)),
    **{f"CumulantTensors-{name}": (name, lambda v, name=name: _tensors_with(name, v))
       for name in ("K", "k3", "k21", "k111")},
    "composite_coefficients": ("eps", lambda v: composite_coefficients(gamma_tensors(), v)),
    "st_moments": ("eps", lambda v: st_moments(gamma_tensors(), v, 50)),
}

NOT_REAL = {
    "string": ["a", 1.0],
    "text": "12",
    "bytes": b"12",
    "complex": [1 + 2j, 1.0],
    "complex-array": np.array([1 + 2j, 2.0]),
    "ragged": [[1.0, 2.0], [3.0]],
    "dict": {"x": 1},
    "huge-int": [10 ** 400, 1.0],
}
# the values a JSON tensor file can hold
JSON_NOT_REAL = ("string", "text", "ragged", "dict", "huge-int")

REAL = {
    "ints": [1, 2, 3],
    "2**70": 2 ** 70,
    "float32": np.float32([0.1, 2.5]),
    "bools": [True, False],
    "nested": [[1, 2.5], [3, 4]],
}


class TestOutsideArrays:
    """One conversion, and one refusal, for every array a caller passes in."""

    @pytest.mark.parametrize("value", NOT_REAL.values(), ids=NOT_REAL.keys())
    @pytest.mark.parametrize("entry", sorted(OUTSIDE_ARRAYS))
    def test_values_that_are_not_real_numbers_are_refused_by_name(self, entry, value):
        # never parsed (so "12" is not one observation of 12.0), never cast with numpy's
        # ComplexWarning and never refused by numpy's own error
        name, call = OUTSIDE_ARRAYS[entry]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^{name} must be real numbers: "):
                call(value)

    @pytest.mark.parametrize("value", [NOT_REAL[key] for key in JSON_NOT_REAL],
                             ids=JSON_NOT_REAL)
    def test_tensor_file_values_that_are_not_real_numbers_are_refused_by_name(
            self, tmp_path, value):
        path = _edited_fixture(tmp_path, K=value)
        with pytest.raises(DomainError, match="^" + re.escape(f"{path}: K must be real numbers: ")):
            load_tensor_file(path)

    def test_a_bad_count_is_reported_before_a_malformed_array(self, tmp_path):
        path = _edited_fixture(tmp_path, p=2.5, K=[[1.0, 0.0], [1.0]])
        with pytest.raises(DomainError) as info:
            load_tensor_file(path)
        assert str(info.value) == f"{path}: p must be an integer, got 2.5"

    @pytest.mark.parametrize("value", REAL.values(), ids=REAL.keys())
    def test_real_data_convert_as_numpy_would(self, value):
        want = np.asarray(value, dtype=float)
        got = checked_data(catalog_model("normal-mean", {"theta": 1.5}), value)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("K", [
        [[2, 0], [0, 1]], [[2 ** 70, 0], [0, 2 ** 70]], np.float32([[0.1, 0.0], [0.0, 2.5]]),
        [[True, False], [False, True]],
    ], ids=["ints", "2**70", "float32", "bools"])
    def test_real_tensors_convert_as_numpy_would(self, K):
        got = _tensors_with("K", K).K
        assert got.dtype == np.float64 and np.array_equal(got, np.asarray(K, dtype=float))


# normal(mu, v) at v = 1 with coordinates (mu, v): mu is the nuisance (q = 1)
# and v is tested.  Per observation K = diag(1/v, 1/(2 v^2)); k3: mu mu v = 1/v^2,
# v v v = 2/v^3; k21: mu,mu v = -1/v^2, v,v v = -1/v^3; k111: mu mu v = 1/v^2,
# v v v = 1/v^3.
NORMAL_COMPOSITE = Path(__file__).resolve().parent / "normal_composite_tensors.json"


def _exact_gradient_cdf(n, eps, x):
    # the gradient statistic is S = n (s2 - 1)^2 / 2 with s2 the variance MLE, and
    # n s2 / v ~ chi-square(n - 1) at v = 1 + eps / sqrt(n), whatever mu is
    v = 1.0 + eps / math.sqrt(n)
    r = math.sqrt(2.0 * x / n)
    return float(chi2.cdf(n * (1.0 + r) / v, n - 1) - chi2.cdf(max(n * (1.0 - r) / v, 0.0), n - 1))


class TestCompositeNormalVariance:
    """The composite expansion against the exact finite-n law of a normal variance test."""

    def test_fixture_meets_the_bartlett_identities(self):
        t = load_tensor_file(NORMAL_COMPOSITE)
        assert (t.p, t.q) == (2, 1)
        # k_rst + k_r,st + k_s,rt + k_t,rs + k_r,s,t = 0 for every index triple
        total = (t.k3 + t.k21 + np.einsum("srt->rst", t.k21) + np.einsum("trs->rst", t.k21)
                 + t.k111)
        assert np.array_equal(total, np.zeros((2, 2, 2)))

    def test_error_against_the_exact_law_is_of_order_one_over_n(self):
        t = load_tensor_file(NORMAL_COMPOSITE)
        e = composite_coefficients(t, [0.5])
        assert (e.f, e.lam) == (1, 0.0625)
        x = central_chisq_quantile(1.0, 0.05, upper=True)
        second, first = [], []
        for n in (50, 200, 800, 3200, 12800):
            exact = _exact_gradient_cdf(n, 0.5, x)
            second.append(cdf_expansion(e, n, x).value - exact)
            first.append(cdf_expansion(e, math.inf, x).value - exact)
        # each 4x in n divides the second-order error by about 4 and the
        # first-order error by at most 2
        for a, b in zip(second, second[1:]):
            assert 3.9 < a / b < 4.0, second
        for a, b in zip(first, first[1:]):
            assert 1.3 < a / b < 2.0, first
        assert second[0] == pytest.approx(-6.160e-3, rel=1e-3)
        assert second[-1] == pytest.approx(-2.469e-5, rel=1e-3)

    def test_mixture_mean_is_the_exact_mean_to_order_one_over_n(self):
        t = load_tensor_file(NORMAL_COMPOSITE)
        n, eps = 400, 0.5
        v = 1.0 + eps / math.sqrt(n)
        # E (s2 - 1)^2 = var s2 + (E s2 - 1)^2, with s2 = v C / n and C ~ chi-square(n - 1)
        exact = 0.5 * n * (2.0 * (n - 1) * (v / n) ** 2 + (v * (n - 1) / n - 1.0) ** 2)
        ms = st_moments(t, [eps], n)
        mixture_mean = composite_coefficients(t, [eps]).mixture_mean(n)
        assert exact == pytest.approx(1.148687, abs=1e-6)
        assert (mixture_mean, ms.m1) == (1.15, 1.09375)
        assert abs(mixture_mean - exact) < 2.0 / n < abs(ms.m1 - exact)

    @pytest.mark.parametrize("c", [0.7, -2.0])
    def test_linear_reparametrisation_of_the_nuisance_changes_nothing(self, c):
        # psi = mu + c v: the tensors transform with the Jacobian d(mu, v)/d(psi, v),
        # which makes K's off-diagonal -c/v, and the tested hypothesis stays v = 1
        t = load_tensor_file(NORMAL_COMPOSITE)
        J = np.array([[1.0, -c], [0.0, 1.0]])

        def pull(a):
            return np.einsum("rsu,ra,sb,uc->abc", a, J, J, J)

        tc = CumulantTensors(p=2, q=1, K=J.T @ t.K @ J, k3=pull(t.k3), k21=pull(t.k21),
                             k111=pull(t.k111))
        assert tc.K[0, 1] == -c
        assert composite_coefficients(tc, [0.5]) == composite_coefficients(t, [0.5])
        assert (composite_coefficients(tc, [0.5]).mixture_mean(50)
                == composite_coefficients(t, [0.5]).mixture_mean(50))
        # elsewhere the reordered sums may round apart in the last bits
        for eps in (-1.25, 0.3, 2.0):
            want, got = composite_coefficients(t, [eps]), composite_coefficients(tc, [eps])
            assert got.lam == want.lam
            np.testing.assert_allclose(got.a, want.a, rtol=1e-15, atol=1e-15)


def _exact_both_tested_gradient_cdf(n, eps, x):
    # with both parameters tested at (mu0, v0) = (0, 1), the gradient statistic is
    # S = n z (1 + s2) / 2 + n (s2 - 1)^2 / 2 with z = xbar^2 and s2 the variance MLE;
    # xbar ~ N(mu, v / n) is independent of n s2 / v ~ chi-square(n - 1), so given s2,
    # S <= x is |xbar| <= h, and the cdf is one integral over the law of s2
    mu, v = eps[0] / math.sqrt(n), 1.0 + eps[1] / math.sqrt(n)
    sd = math.sqrt(v / n)

    def given(c):
        s2 = v * c / n
        room = x - 0.5 * n * (s2 - 1.0) ** 2
        if room <= 0.0:
            return 0.0
        h = math.sqrt(room / (0.5 * n * (1.0 + s2)))
        return chi2.pdf(c, n - 1) * (norm.cdf((h - mu) / sd) - norm.cdf((-h - mu) / sd))

    r = math.sqrt(2.0 * x / n)
    value, _ = integrate.quad(given, max(n * (1.0 - r) / v, 0.0), n * (1.0 + r) / v,
                              epsabs=1e-14, epsrel=1e-12, limit=200)
    return value


class TestCompositeNormalBothTested:
    """The composite expansion at f = 2 against the exact law of a normal (mu, v) test."""

    def test_error_against_the_exact_law_is_of_order_one_over_n(self):
        fixture = load_tensor_file(NORMAL_COMPOSITE)
        t = dataclasses.replace(fixture, q=0)
        e = composite_coefficients(t, [0.6, 0.8])
        assert (e.f, e.lam) == (2, 0.34)
        x = central_chisq_quantile(2.0, 0.05, upper=True)
        second, first = [], []
        for n in (50, 200, 800, 3200, 12800):
            exact = _exact_both_tested_gradient_cdf(n, (0.6, 0.8), x)
            second.append(cdf_expansion(e, n, x).value - exact)
            first.append(cdf_expansion(e, math.inf, x).value - exact)
        # each 4x in n divides the second-order error by about 4 and the
        # first-order error by at most 2
        for a, b in zip(second, second[1:]):
            assert 3.9 < a / b < 4.1, second
        for a, b in zip(first, first[1:]):
            assert 1.3 < a / b < 2.0, first
        assert second[0] == pytest.approx(-8.22e-3, rel=1e-3)
        assert second[-1] == pytest.approx(-3.08e-5, rel=1e-3)


class TestCompositeNormalMeanTested:
    """The composite expansion against the exact noncentral-t law of a normal mean test."""

    @staticmethod
    def mean_tested():
        # the fixture in coordinates (v, mu): the nuisance v first, the mean tested
        t = load_tensor_file(NORMAL_COMPOSITE)
        ix = [1, 0]
        return CumulantTensors(p=2, q=1, K=t.K[np.ix_(ix, ix)], k3=t.k3[np.ix_(ix, ix, ix)],
                               k21=t.k21[np.ix_(ix, ix, ix)], k111=t.k111[np.ix_(ix, ix, ix)])

    def test_every_coefficient_is_zero(self):
        for eps in (-1.25, 0.3, 0.9, 2.0):
            e = composite_coefficients(self.mean_tested(), [eps])
            assert e.f == 1 and e.lam == 0.5 * eps * eps
            assert all(a == 0.0 for a in e.a), (eps, e.a)

    def test_error_against_the_exact_law_is_of_order_one_over_n(self):
        # with mu0 = 0, S_G = n xbar^2 / (s2 + xbar^2) = n T^2 / (n - 1 + T^2) for the
        # t statistic T, which is noncentral t with n - 1 degrees of freedom and
        # noncentrality eps at mu = eps / sqrt(n); S_G <= x is |T| <= h
        e = composite_coefficients(self.mean_tested(), [0.9])
        x = central_chisq_quantile(1.0, 0.05, upper=True)
        errors = []
        for n in (50, 200, 800, 3200, 12800):
            h = math.sqrt(x * (n - 1) / (n - x))
            exact = nct.cdf(h, n - 1, 0.9) - nct.cdf(-h, n - 1, 0.9)
            errors.append(cdf_expansion(e, n, x).value - exact)
        # all a_k = 0, so the expansion is its leading term, and each 4x in n
        # divides its error by about 4
        for a, b in zip(errors, errors[1:]):
            assert 3.9 < a / b < 4.2, errors
        assert errors[0] == pytest.approx(-5.977e-3, rel=1e-3)
        assert errors[-1] == pytest.approx(-2.2455e-5, rel=1e-3)


# inverse Gaussian IG(mu, lam) at (lam, mu) = (1, 1), in coordinates (lam, mu): the
# shape lam is the nuisance (q = 1) and the mean mu is tested.  Per observation
# l = log(lam) / 2 - lam x / (2 mu^2) + lam / mu - lam / (2 x) + const, and with
# E x = 1, var x = 1 and E 1/x = 2 the tensors below are small integers and halves
IG_MEAN_TESTED = CumulantTensors(
    p=2, q=1, K=np.diag([0.5, 1.0]),
    k3=np.array([[[1.0, 0.0], [0.0, -1.0]], [[0.0, -1.0], [-1.0, 6.0]]]),
    k21=np.array([[[0.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [1.0, -3.0]]]),
    k111=np.array([[[-1.0, 0.0], [0.0, -1.0]], [[0.0, -1.0], [-1.0, 3.0]]]),
)


def _exact_ig_mean_gradient_cdf(n, eps, x):
    # xbar ~ IG(mu, n lam) is independent of n lam V ~ chi-square(n - 1), where
    # V = mean(1/x) - 1/xbar (Tweedie 1957).  With mu0 = 1 the restricted shape is
    # 1 / (V + (xbar - 1)^2 / xbar), so S_G = n (xbar - 1)^2 / (V + (xbar - 1)^2 / xbar),
    # and S_G <= x is n lam V >= n lam (xbar - 1)^2 (n / x - 1 / xbar); lam = 1 here
    mu = 1.0 + eps / math.sqrt(n)
    shape = float(n)

    def given(u):
        pdf = math.sqrt(shape / (2.0 * math.pi * u ** 3)) * math.exp(
            -shape * (u - mu) ** 2 / (2.0 * mu * mu * u))
        return pdf * chi2.sf(n * (u - 1.0) ** 2 * (n / x - 1.0 / u), n - 1)

    # outside 1 +- 14 / sqrt(n) the law of xbar or the chi-square tail leaves no mass
    w = 14.0 / math.sqrt(n)
    value, _ = integrate.quad(given, max(1.0 - w, 1e-3), 1.0 + w, points=[1.0, mu],
                              epsabs=1e-14, epsrel=1e-12, limit=200)
    return value


class TestCompositeInverseGaussianMeanTested:
    """The composite expansion against the exact law of an inverse-Gaussian mean test with
    its shape as nuisance: a tested mean whose coefficients are not all zero."""

    def test_tensors_meet_the_bartlett_identities(self):
        t = IG_MEAN_TESTED
        total = (t.k3 + t.k21 + np.einsum("srt->rst", t.k21) + np.einsum("trs->rst", t.k21)
                 + t.k111)
        assert np.array_equal(total, np.zeros((2, 2, 2)))

    def test_every_row_sums_to_zero_and_no_coefficient_is_zero(self):
        for eps in (-1.25, -0.6, 0.3, 0.9, 2.0):
            e = composite_coefficients(IG_MEAN_TESTED, [eps])
            assert e.f == 1 and e.lam == 0.5 * eps * eps
            assert abs(sum(e.a)) <= 1e-15 * max(map(abs, e.a)), (eps, e.a)
            assert all(a != 0.0 for a in e.a), (eps, e.a)
        e = composite_coefficients(IG_MEAN_TESTED, [0.9])
        np.testing.assert_allclose(e.a, (0.729, -2.4435, 1.35, 0.3645), rtol=1e-15)

    @pytest.mark.parametrize("eps, pinned", [
        (0.9, (-1.4550e-2, -4.0021e-3, -1.0502e-3, -2.6899e-4, -6.8063e-5)),
        (-0.6, (-9.2238e-3, -2.4040e-3, -5.9753e-4, -1.4842e-4, -3.6962e-5)),
    ])
    def test_error_against_the_exact_law_is_of_order_one_over_n(self, eps, pinned):
        e = composite_coefficients(IG_MEAN_TESTED, [eps])
        x = central_chisq_quantile(1.0, 0.05, upper=True)
        second, first = [], []
        for n in (50, 200, 800, 3200, 12800):
            exact = _exact_ig_mean_gradient_cdf(n, eps, x)
            second.append(cdf_expansion(e, n, x).value - exact)
            first.append(cdf_expansion(e, math.inf, x).value - exact)
        for got, want in zip(second, pinned):
            assert got == pytest.approx(want, rel=1e-3), second
        # the n^-1/2 term matters: dropping it leaves a larger error at every n
        assert all(abs(s) < abs(f) for s, f in zip(second, first)), (second, first)
        # each 4x in n divides the second-order error by about 4; an n^-3/2 term shows
        # at n = 50, so the 3.9-4.1 band holds from n = 800 up
        ratios = [a / b for a, b in zip(second, second[1:])]
        assert all(3.6 < r < 4.1 for r in ratios), ratios
        assert all(3.9 < r < 4.1 for r in ratios[2:]), ratios
        if eps == 0.9:  # there the ratios reach 4 from below
            assert ratios == sorted(ratios) and ratios[-1] < 4.0, ratios


def _exact_ig_both_tested_gradient_cdf(n, eps, x):
    # xbar = u ~ IG(mu, n lam) is independent of n lam V ~ chi-square(n - 1), where
    # V = mean(1/x) - 1/xbar (Tweedie 1957).  Under the null (1, 1) the MLEs are
    # 1/V and u, and S_G = (n/2)(a/V + V - a - 1) + n (u - 1)^2 with
    # a = 1 - (u - 1)^2 / u, so given u, S_G <= x is V^2 - r V + a <= 0 with
    # r = 2 (x - n (u - 1)^2) / n + a + 1: V between the two roots
    lam = 1.0 + eps[0] / math.sqrt(n)
    mu = 1.0 + eps[1] / math.sqrt(n)
    shape = n * lam

    def given(u):
        a = 1.0 - (u - 1.0) ** 2 / u
        r = 2.0 * (x - n * (u - 1.0) ** 2) / n + a + 1.0
        disc = r * r - 4.0 * a
        if disc < 0.0:
            return 0.0
        hi = 0.5 * (r + math.sqrt(disc))
        if hi <= 0.0:  # both roots at or below 0: no V > 0
            return 0.0
        lo = max(a / hi, 0.0)  # the smaller root as the product over the larger
        pdf = math.sqrt(shape / (2.0 * math.pi * u ** 3)) * math.exp(
            -shape * (u - mu) ** 2 / (2.0 * mu * mu * u))
        return pdf * (chdtr(n - 1, shape * hi) - chdtr(n - 1, shape * lo))

    w = 14.0 / math.sqrt(n)
    value, _ = integrate.quad(given, max(1.0 - w, 1e-3), 1.0 + w, points=[1.0, mu],
                              epsabs=1e-14, epsrel=1e-12, limit=200)
    return value


class TestCompositeInverseGaussianBothTested:
    """The f = 2 expansion, through the expand path's walk, against the exact law of the
    inverse-Gaussian gradient test with (lam, mu) both tested: no coefficient is 0."""

    TENSORS = dataclasses.replace(IG_MEAN_TESTED, q=0)

    def test_coefficients(self):
        e = composite_coefficients(self.TENSORS, [0.5, 0.9])
        assert e.f == 2 and e.lam == pytest.approx(0.4675, rel=1e-15)
        np.testing.assert_allclose(e.a, (0.54733333333333333, -2.1635, 1.3425,
                                         0.27366666666666667), rtol=1e-14)

    @pytest.mark.parametrize("eps, pinned", [
        ((0.5, 0.9), (-1.2882e-3, -4.1690e-4, -1.1082e-4, -2.8145e-5, -7.0651e-6)),
        ((-0.4, -0.6), (3.5059e-3, 7.0550e-4, 1.6389e-4, 3.9880e-5, 9.8607e-6)),
    ])
    def test_error_against_the_exact_law_is_of_order_one_over_n(self, eps, pinned):
        e = composite_coefficients(self.TENSORS, eps)
        x = central_chisq_quantile(2.0, 0.05, upper=True)
        second, first = [], []
        for n in (50, 200, 800, 3200, 12800):
            exact = _exact_ig_both_tested_gradient_cdf(n, eps, x)
            (value,) = cdf_expansion(e, n, [x])  # a one-x list: the grid walk of expand
            assert value == cdf_expansion(e, n, x)  # the scalar walk, bit for bit
            second.append(value.value - exact)
            first.append(cdf_expansion(e, math.inf, x).value - exact)
        for got, want in zip(second, pinned):
            assert got == pytest.approx(want, rel=1e-3), second
        assert all(abs(s) < abs(f) for s, f in zip(second, first)), (second, first)
        # each 4x in n divides the second-order error by a ratio that moves monotonically
        # to 4, from one side; only the last is banded, as 800 -> 3200 reads 4.11 for
        # the second eps.  The first-order error halves instead
        ratios = [a / b for a, b in zip(second, second[1:])]
        assert ratios in (sorted(ratios), sorted(ratios, reverse=True)), ratios
        assert all(r < 4.0 for r in ratios) or all(r > 4.0 for r in ratios), ratios
        assert 3.9 < ratios[-1] < 4.1, ratios
        assert all(1.8 < a / b < 2.05 for a, b in zip(first, first[1:])), first
