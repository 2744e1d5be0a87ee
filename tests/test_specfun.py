"""Chi-square numerics against independent oracles.

Frozen constants below were produced before the implementation existed, from
40-digit adaptive quadrature of the chi-square density (and brute-force
Poisson mixing of quadrature values for the noncentral cases).  The
scipy-based checks re-derive a subset at runtime through routes that share no
code with the package.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammainc
from scipy.stats import chi2

from gradpower import specfun
from gradpower.errors import ConvergenceError, DomainError
from gradpower.specfun import (
    ChiSquareParams,
    central_chisq_cdf,
    central_chisq_pdf,
    central_chisq_quantile,
    central_chisq_sf,
    nc_chisq_cdf,
    nc_chisq_pdf,
)

# quadrature-oracle pins (40-digit arithmetic, rounded to double)
CDF_1_AT_3_8415 = 0.95000122792877773014
Q95_DF1 = 3.8414588206941259584
NC_CDF_1_05_2 = 0.65275653668226970279
NC_PDF_3_05_2 = 0.17225201450870823362
PDF_3_AT_1 = 0.2419707245191433498

# degrees of freedom of the quantile checks against scipy
QUANTILE_DFS = (0.5, 1.0, 2.0, 3.0, 7.5, 20.0, 50.0, 400.0)

# df and x grids on which lam = 0 must give the central law bit for bit
LAM0_DFS = [float(v) for v in np.geomspace(0.1, 400.0, 60)]
LAM0_XS = [float(v) for v in np.geomspace(1e-8, 1e3, 60)]


def chisq_density(df):
    def f(t):
        return t ** (0.5 * df - 1.0) * math.exp(-0.5 * t) / (
            2.0 ** (0.5 * df) * math.gamma(0.5 * df)
        )

    return f


def quad_cdf(df, x):
    """Adaptive quadrature of the density, substituting t = u^2 so the
    df=1 endpoint singularity disappears."""
    f = chisq_density(df)
    val, err = integrate.quad(
        lambda u: f(u * u) * 2.0 * u,
        0.0,
        math.sqrt(x),
        limit=300,
        epsabs=1e-14,
        epsrel=1e-13,
    )
    return val, err


def brute_nc_cdf(df, lam, x):
    """Independent Poisson-mixture summation on scipy's incomplete gamma."""
    total = 0.0
    j = 0
    while True:
        w = math.exp(-lam + j * math.log(lam) - math.lgamma(j + 1)) if lam > 0 else (
            1.0 if j == 0 else 0.0
        )
        total += w * gammainc(0.5 * (df + 2 * j), 0.5 * x)
        j += 1
        if (w < 1e-18 and j > lam) or j > 600:
            return total


class TestCentralCdf:
    def test_exponential_median(self):
        # df=2 is Exponential(rate 1/2); its median sits at 2 log 2
        assert central_chisq_cdf(2.0, 2.0 * math.log(2.0)) == pytest.approx(0.5, abs=1e-14)

    def test_support_boundary(self):
        assert central_chisq_cdf(5.0, 0.0) == 0.0
        assert central_chisq_cdf(5.0, -3.0) == 0.0

    def test_quadrature_pin(self):
        assert central_chisq_cdf(1.0, 3.8415) == pytest.approx(CDF_1_AT_3_8415, abs=1e-13)

    def test_against_adaptive_quadrature(self):
        for df in (1.0, 2.5, 7.0, 50.0):
            for x in (0.3, 4.0, 20.0):
                want, err = quad_cdf(df, x)
                assert err < 1e-12 or err < 1e-10 * max(want, 1e-30)
                assert central_chisq_cdf(df, x) == pytest.approx(want, abs=1e-12)

    def test_monotone_and_limits(self):
        xs = np.linspace(0.0, 200.0, 400)
        for df in (1.0, 3.0, 17.5, 50.0):
            vals = [central_chisq_cdf(df, x) for x in xs]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
            assert vals[-1] > 1.0 - 1e-12
            assert all(0.0 <= v <= 1.0 for v in vals)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            central_chisq_cdf(0.0, 1.0)
        with pytest.raises(DomainError):
            central_chisq_cdf(-2.0, 1.0)
        with pytest.raises(DomainError):
            central_chisq_cdf(2.0, math.nan)
        with pytest.raises(DomainError):
            central_chisq_cdf(math.inf, 1.0)

    def test_series_is_bounded(self, monkeypatch):
        # at a = 5e16, r + 1 == r, so the series terms stop shrinking
        with pytest.raises(ConvergenceError, match="series"):
            central_chisq_cdf(1e17, 1e17 - 16.0)
        monkeypatch.setattr(specfun, "_SERIES_MAX_TERMS", 3)
        with pytest.raises(ConvergenceError, match="series did not converge in 3 terms"):
            central_chisq_cdf(1.0, 0.5)

    def test_continued_fraction_is_bounded(self, monkeypatch):
        monkeypatch.setattr(specfun, "_CONTFRAC_MAX_TERMS", 3)
        with pytest.raises(ConvergenceError, match="fraction did not converge in 3 terms"):
            central_chisq_sf(1.0, 10.0)


class TestCentralSf:
    def test_complements_cdf(self):
        for df in (0.5, 1.0, 3.0, 17.5, 50.0):
            for x in np.geomspace(1e-3, 60.0, 40):
                total = central_chisq_sf(df, x) + central_chisq_cdf(df, x)
                assert total == pytest.approx(1.0, abs=4e-15)

    def test_upper_tail_keeps_relative_accuracy(self):
        # Q down to ~1e-300, where 1 - P is exactly 0; strictly relative, against
        # 40-digit values (scipy's chi2.sf is itself 2.1e-13 off at df=400, x=566)
        for df in QUANTILE_DFS:
            for x in np.geomspace(df + 1.0, 1300.0 + 2.0 * df, 25):
                with mpmath.workdps(40):
                    want = float(mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(float(x)) / 2,
                                                 mpmath.inf, regularized=True))
                assert central_chisq_sf(df, x) == pytest.approx(want, rel=3e-13, abs=0.0)

    def test_support_boundary(self):
        assert central_chisq_sf(5.0, 0.0) == 1.0
        assert central_chisq_sf(5.0, -3.0) == 1.0
        with pytest.raises(DomainError):
            central_chisq_sf(2.0, math.nan)


class TestNoncentralCdf:
    def test_reduces_to_central(self):
        # lam=0 with df=2 is the unit-rate-exponential-in-x/2 law
        for x in (0.1, 1.0, 4.0, 25.0):
            got = nc_chisq_cdf(ChiSquareParams(2.0, 0.0), x)
            assert got == pytest.approx(1.0 - math.exp(-0.5 * x), abs=1e-14)
        # the Poisson walk at lam=0 is one term of weight 1.0: the central cdf exactly
        for df in LAM0_DFS:
            for x in LAM0_XS:
                got = nc_chisq_cdf(ChiSquareParams(df, 0.0), x)
                assert got == central_chisq_cdf(df, x), (df, x)

    def test_zero_at_origin(self):
        assert nc_chisq_cdf(ChiSquareParams(1.0, 0.5), 0.0) == 0.0

    def test_series_pin(self):
        got = nc_chisq_cdf(ChiSquareParams(1.0, 0.5), 2.0)
        assert got == pytest.approx(NC_CDF_1_05_2, abs=1e-12)

    def test_against_brute_force_series(self):
        for df in (1.0, 4.0, 9.0):
            for lam in (0.25, 1.0, 5.0, 40.0):
                for x in (0.5, 6.0, 30.0, 90.0):
                    got = nc_chisq_cdf(ChiSquareParams(df, lam), x)
                    assert got == pytest.approx(brute_nc_cdf(df, lam, x), abs=1e-12)

    def test_monotone_in_x_decreasing_in_lam(self):
        xs = np.linspace(0.1, 40.0, 80)
        lams = (0.0, 0.25, 1.0, 2.0, 5.0)
        for df in (1.0, 3.0, 7.0):
            for lam in lams:
                vals = [nc_chisq_cdf(ChiSquareParams(df, lam), x) for x in xs]
                assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
            for x in (1.0, 10.0, 30.0):
                by_lam = [nc_chisq_cdf(ChiSquareParams(df, lam), x) for lam in lams]
                assert all(b <= a + 1e-15 for a, b in zip(by_lam, by_lam[1:]))

    def test_mixture_mean_pins_convention(self):
        # integrated mean must be df + 2*lam, not df + lam
        for df, lam in ((1.0, 0.5), (3.0, 2.0)):
            mean, err = integrate.quad(
                lambda x: x * nc_chisq_pdf(ChiSquareParams(df, lam), x),
                0.0,
                np.inf,
                limit=300,
            )
            assert err < 1e-7
            assert mean == pytest.approx(df + 2.0 * lam, abs=1e-6)

    def test_walk_is_bounded(self, monkeypatch):
        monkeypatch.setattr(specfun, "_POISSON_MAX_TERMS", 50)
        # lam = 1e4 needs ~800 terms per sweep
        for kernel in (nc_chisq_cdf, nc_chisq_pdf):
            with pytest.raises(ConvergenceError, match="Poisson"):
                kernel(ChiSquareParams(1.0, 1e4), 2e4)
        assert nc_chisq_cdf(ChiSquareParams(1.0, 4.0), 9.0) == pytest.approx(
            brute_nc_cdf(1.0, 4.0, 9.0), abs=1e-12
        )

    def test_invalid_params(self):
        with pytest.raises(DomainError):
            ChiSquareParams(0.0, 1.0)
        with pytest.raises(DomainError):
            ChiSquareParams(2.0, -0.5)
        with pytest.raises(DomainError):
            ChiSquareParams(2.0, math.nan)
        with pytest.raises(DomainError):
            nc_chisq_cdf(ChiSquareParams(2.0, 1.0), math.inf)


class TestNoncentralPdf:
    def test_reduces_to_central(self):
        for df in LAM0_DFS:
            for x in LAM0_XS:
                got = nc_chisq_pdf(ChiSquareParams(df, 0.0), x)
                assert got == central_chisq_pdf(df, x), (df, x)

    def test_central_df2_closed_form(self):
        got = nc_chisq_pdf(ChiSquareParams(2.0, 0.0), 0.001)
        assert got == pytest.approx(0.5 * math.exp(-0.0005), rel=1e-14)

    def test_finite_difference_of_cdf(self):
        h = 1e-6
        for df, lam, x in ((3.0, 0.0, 1.0), (5.0, 1.5, 4.0), (1.0, 0.5, 2.0)):
            fd = (
                nc_chisq_cdf(ChiSquareParams(df, lam), x + h)
                - nc_chisq_cdf(ChiSquareParams(df, lam), x - h)
            ) / (2.0 * h)
            assert nc_chisq_pdf(ChiSquareParams(df, lam), x) == pytest.approx(fd, abs=1e-9)

    def test_central_pin(self):
        assert nc_chisq_pdf(ChiSquareParams(3.0, 0.0), 1.0) == pytest.approx(
            PDF_3_AT_1, abs=1e-14
        )

    def test_difference_identity_value(self):
        # g_{3,lam}(x) = [G_{1,lam}(x) - G_{3,lam}(x)] / 2
        lhs = nc_chisq_pdf(ChiSquareParams(3.0, 0.5), 2.0)
        rhs = 0.5 * (
            nc_chisq_cdf(ChiSquareParams(1.0, 0.5), 2.0)
            - nc_chisq_cdf(ChiSquareParams(3.0, 0.5), 2.0)
        )
        assert lhs == pytest.approx(rhs, abs=1e-13)
        assert lhs == pytest.approx(NC_PDF_3_05_2, abs=1e-12)

    def test_domain_error_nonpositive_x(self):
        with pytest.raises(DomainError):
            nc_chisq_pdf(ChiSquareParams(3.0, 0.5), 0.0)
        with pytest.raises(DomainError):
            nc_chisq_pdf(ChiSquareParams(3.0, 0.5), -1.0)


class TestQuantile:
    def test_pins(self):
        assert central_chisq_quantile(1.0, 0.95) == pytest.approx(Q95_DF1, abs=1e-9)
        assert central_chisq_quantile(2.0, 0.5) == pytest.approx(
            2.0 * math.log(2.0), abs=1e-12
        )

    def test_round_trip(self):
        for df in (0.5, 1.0, 2.0, 3.0, 7.5, 20.0, 50.0):
            for p in (0.001, 0.01, 0.05, 0.3, 0.5, 0.9, 0.95, 0.975, 0.999):
                q = central_chisq_quantile(df, p)
                assert central_chisq_cdf(df, q) == pytest.approx(p, abs=1e-12)

    def test_extreme_tails(self):
        for p in (1e-10, 1e-6, 1.0 - 1e-10):
            q = central_chisq_quantile(1.0, p)
            assert central_chisq_cdf(1.0, q) == pytest.approx(p, abs=1e-12)

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.2, 1.4, math.nan):
            with pytest.raises(DomainError):
                central_chisq_quantile(2.0, bad)
        with pytest.raises(DomainError):
            central_chisq_quantile(-1.0, 0.5)

    def test_upper_tail_against_scipy(self):
        for df in QUANTILE_DFS:
            for alpha in np.geomspace(1e-300, 0.5, 61):
                want = chi2.isf(alpha, df)
                got = central_chisq_quantile(df, float(alpha), upper=True)
                assert abs(got - want) <= 1e-13 * want, (df, alpha)

    def test_lower_tail_against_scipy(self):
        for df in QUANTILE_DFS:
            for p in np.geomspace(1e-12, 0.5, 41):
                want = chi2.ppf(p, df)
                got = central_chisq_quantile(df, float(p))
                assert abs(got - want) <= 1e-13 * want, (df, p)

    @pytest.fixture()
    def tail_calls(self, monkeypatch):
        calls = []
        for name in ("central_chisq_sf", "central_chisq_cdf"):
            inner = getattr(specfun, name)

            def counting(df, x, inner=inner):
                calls.append(x)
                return inner(df, x)

            monkeypatch.setattr(specfun, name, counting)
        central_chisq_quantile.cache_clear()
        yield calls
        central_chisq_quantile.cache_clear()

    def test_few_tail_evaluations(self, tail_calls):
        for alpha in np.geomspace(1e-12, 0.5, 200):
            central_chisq_quantile.cache_clear()
            tail_calls.clear()
            central_chisq_quantile(1.0, float(alpha), upper=True)
            assert 1 <= len(tail_calls) <= 8, alpha

    def test_memo_hit_evaluates_nothing(self, tail_calls):
        first = central_chisq_quantile(3.0, 0.01, upper=True)
        assert tail_calls
        tail_calls.clear()
        assert central_chisq_quantile(3.0, 0.01, upper=True) == first
        assert tail_calls == []

    def test_iteration_cap(self, monkeypatch):
        # a tail that never falls to the target: the solve must stop, not spin
        monkeypatch.setattr(specfun, "central_chisq_sf", lambda df, x: 0.5)
        central_chisq_quantile.cache_clear()
        try:
            with pytest.raises(ConvergenceError, match="did not converge"):
                central_chisq_quantile(1.0, 0.05, upper=True)
        finally:
            central_chisq_quantile.cache_clear()
