"""Chi-square numerics against independent oracles.

Frozen constants below were produced before the implementation existed, from
40-digit adaptive quadrature of the chi-square density (and brute-force
Poisson mixing of quadrature values for the noncentral cases).  The
scipy-based checks re-derive a subset at runtime through routes that share no
code with the package.
"""

import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammainc
from scipy.stats import chi2

from gradpower import specfun
from gradpower.errors import ConvergenceError, DomainError, GradpowerError
from gradpower.specfun import (
    ChiSquareParams,
    central_chisq_cdf,
    central_chisq_pdf,
    central_chisq_quantile,
    central_chisq_sf,
    nc_chisq1_tails,
    nc_chisq_cdf,
    nc_chisq_mixture,
    nc_chisq_pdf,
)

from helpers import reference_poisson_mixture

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

    def test_density_off_the_support_and_underflowed(self):
        assert central_chisq_pdf(1.0, 0.0) == 0.0
        assert central_chisq_pdf(1.0, -3.0) == 0.0
        # log density -1000.6 is below the smallest normal double's log
        assert central_chisq_pdf(1.0, 2000.0) == 0.0

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
    def test_small_df_keeps_relative_accuracy(self):
        # below df + 1 at df < 0.1, P is near 1 and Q is taken without 1 - P
        with mpmath.workdps(40):
            for df in (1e-6, 1e-3, 0.05, 0.0999):
                for x in np.geomspace(1e-300, df + 1.0 - 1e-12, 25):
                    want = mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(float(x)) / 2,
                                           mpmath.inf, regularized=True)
                    got = central_chisq_sf(df, float(x))
                    assert abs(got - want) <= 4e-15 * want, (df, x, got)

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


class TestPoissonWalk:
    """One pass over the Poisson weights sums a cdf and three densities as it walks, each
    sum bit-identical to a walk of its own."""

    DFS = (1.0, 2.0, 3.0, 5.0, 12.0)
    LAMS = (0.0, 1e-3, 0.5, 5.0, 50.0, 200.0, 1e4)
    # at lam = 1e4 the central density at the modal index underflows for every x here
    XS = (1e-3, 0.01, 0.1, 0.5, 1.0, 3.84, 10.0, 40.0, 100.0, 400.0, 1e3)

    @pytest.mark.parametrize("df", DFS)
    def test_every_output_equals_its_own_walk(self, df):
        underflows = 0
        for lam in self.LAMS:
            params = ChiSquareParams(df, lam)
            for x in self.XS:
                cdf = reference_poisson_mixture(params, x, pdf=False)
                dfs = (df, df + 2.0, df + 4.0, df + 6.0)
                dens = [reference_poisson_mixture(ChiSquareParams(d, lam), x, True) for d in dfs]
                where = (df, lam, x)
                assert specfun._mixture_sums(params, x, df) == (cdf, *dens[:3]), where
                assert specfun._mixture_sums(params, x, df + 2.0) == (cdf, *dens[1:]), where
                # the density sums depend on lam and their own df alone
                other = ChiSquareParams(df + 7.0, lam)
                assert specfun._mixture_sums(other, x, df)[1:] == tuple(dens[:3]), where
                # the public kernels clamp the same sums
                g = min(max(cdf, 0.0), 1.0)
                clamped = tuple(max(d, 0.0) for d in dens)
                assert nc_chisq_cdf(params, x) == g, where
                assert nc_chisq_pdf(params, x) == clamped[0], where
                assert nc_chisq_mixture(params, x) == (g, clamped[1:]), where
                underflows += central_chisq_pdf(df + 2.0 * int(lam), x) == 0.0
        assert underflows >= len(self.XS)

    def test_walk_names_the_mixture_and_its_cap(self, monkeypatch):
        monkeypatch.setattr(specfun, "_POISSON_MAX_TERMS", 50)
        params = ChiSquareParams(1.0, 1e4)
        kernels = (
            lambda: specfun._mixture_sums(params, 2e4, 3.0),
            lambda: nc_chisq_mixture(params, 2e4),
            lambda: nc_chisq_cdf(params, 2e4),
            lambda: nc_chisq_pdf(params, 2e4),
        )
        for kernel in kernels:
            with pytest.raises(ConvergenceError,
                               match="Poisson mixture needs more than 50 terms per sweep"):
                kernel()

    def test_mixture_domain(self):
        for x in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                nc_chisq_mixture(ChiSquareParams(1.0, 0.5), x)

    @pytest.mark.parametrize("kernel", [nc_chisq_mixture, nc_chisq_cdf, nc_chisq_pdf])
    @pytest.mark.parametrize("lam", [0.5, 3.0])
    def test_walk_refuses_an_x_whose_half_underflows(self, kernel, lam):
        # the walk steps by x/2 and takes its log; at 5e-324 that is 0, refused by name
        with pytest.raises(DomainError, match=r"x=5e-324 is too small for the Poisson mixture"):
            kernel(ChiSquareParams(2.0, lam), 5e-324)
        kernel(ChiSquareParams(2.0, lam), 1e-323)  # the next float up is walked

    def test_refused_lam_also_fails_the_walk(self, monkeypatch):
        # Above the cap, a lam whose weight at j0 + cap is too large for the up sweep
        # to stop, and every lam from cap**2 on, is refused before any term is summed;
        # the reference walk, with the same cap, raises at each such lam.
        monkeypatch.setattr(specfun, "_POISSON_MAX_TERMS", 50)
        refused = capped = 0
        for lam in np.geomspace(1e-3, 5e3, 400):
            params = ChiSquareParams(1.0, float(lam))
            try:
                specfun._mixture_sums(params, float(lam), 3.0)
                continue
            except ConvergenceError as exc:
                tb = exc.__traceback__
                while tb.tb_frame.f_code.co_name != "_mixture_sums":
                    tb = tb.tb_next
                if "g" in tb.tb_frame.f_locals:
                    capped += 1  # a sweep reached the cap
                    continue
            refused += 1
            with pytest.raises(ConvergenceError, match="more than 50 terms per sweep"):
                reference_poisson_mixture(params, float(lam), pdf=False)
        assert refused > 100 and capped > 0

    def test_every_unfinishable_lam_is_refused(self):
        # From about 1e15 on the refusal gate's lgamma expression is rounding noise, and
        # near 2**53 the weight recurrence stalls; from _POISSON_MAX_TERMS**2 on the up
        # sweep's tail bound stays above about 0.24 within the cap.  Every lam here is
        # refused, none gives a value or a bare ZeroDivisionError or OverflowError.
        def around(v, k=35):
            lo = hi = v
            out = [v]
            for _ in range(k):
                lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)
                out += [lo, hi]
            return out

        lams = [float(v) for v in np.geomspace(2e11, 1.7e308, 2000)]
        lams += around(2.0 ** 52) + around(2.0 ** 53)
        assert len(lams) == 2142
        for lam in lams:
            params = ChiSquareParams(1.0, lam)
            for kernel in (nc_chisq_cdf, nc_chisq_pdf, nc_chisq_mixture):
                with pytest.raises(ConvergenceError, match="Poisson mixture needs more than"):
                    kernel(params, lam)

    def test_refusal_allocates_nothing(self):
        # about 8e7 terms per sweep are needed, 2**21 are allowed
        tracemalloc.start()
        try:
            with pytest.raises(ConvergenceError, match="Poisson mixture needs more than"):
                nc_chisq_mixture(ChiSquareParams(1.0, 1e14), 2e14)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_completed_walk_keeps_no_weights(self):
        # about 16k terms at lam = 1e6, summed as they are reached rather than stored
        tracemalloc.start()
        try:
            g, densities = nc_chisq_mixture(ChiSquareParams(1.0, 1e6), 2e6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.5 < g < 1.0 and all(d > 0.0 for d in densities)
        assert peak < 64 << 10


def _bits(values):
    # each value as its hex form: equal exactly, sign of zero and NaN included
    return tuple(float(v).hex() for v in values)


class TestPoissonGrid:
    """One walk over a whole x grid gives each x's four sums bit for bit as its own
    scalar walk does."""

    XS = [float(v) for v in np.geomspace(1e-6, 1e5, 23)]

    @pytest.mark.parametrize("df", [0.03, 0.7, 2.0, 5.0, 40.0])
    def test_grid_equals_scalar_walk(self, df):
        for lam in (0.0, 1e-3, 0.6, 7.0, 90.0, 1e4):
            params = ChiSquareParams(df, lam)
            # the walk takes the x at lam = 1e4 in several segments of weights
            xs = self.XS if lam < 1e4 else self.XS[::3] + [1.9e4, 2e4 + df, 2.1e4]
            for d in (df, df + 2.0):
                grid = specfun._mixture_grid(params, xs, d)
                for i, x in enumerate(xs):
                    assert _bits(a[i] for a in grid) == _bits(
                        specfun._mixture_sums(params, x, d)), (df, lam, d, x)

    @pytest.mark.parametrize("size", [1, specfun._GRID_BLOCK, specfun._GRID_BLOCK + 1])
    def test_grid_lengths(self, size):
        # a single x, one full block and a block plus one, over weights that span
        # several segments; the clamps of the cdf base engage at the ends of the grid
        params = ChiSquareParams(3.0, 2e3)
        xs = [float(v) for v in np.linspace(3.6e3, 4.6e3, size)]
        grid = specfun._mixture_grid(params, xs, 5.0)
        assert all(a.shape == (size,) for a in grid)
        for i, x in enumerate(xs):
            assert _bits(a[i] for a in grid) == _bits(specfun._mixture_sums(params, x, 5.0))

    def test_one_walk_per_grid(self, monkeypatch):
        walks = []
        inner = specfun._poisson_weights
        monkeypatch.setattr(specfun, "_poisson_weights",
                            lambda params: walks.append(params) or inner(params))
        params = ChiSquareParams(2.0, 50.0)
        specfun._mixture_grid(params, [1.0, 50.0, 100.0, 200.0], 4.0)
        assert walks == [params]

    def test_grid_keeps_no_weights(self):
        # about 16k weights at lam = 1e6, for a block of x and one more: the buffers hold
        # a segment of them for one block of x at a time
        xs = [float(v) for v in np.linspace(1.95e6, 2.05e6, specfun._GRID_BLOCK + 1)]
        tracemalloc.start()
        try:
            g, *densities = specfun._mixture_grid(ChiSquareParams(1.0, 1e6), xs, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < g[0] < 0.5 < g[-1] < 1.0 and all(np.all(d > 0.0) for d in densities)
        assert peak < 1 << 20

    @pytest.mark.parametrize("cap,lam,xs,error", [
        # the walk itself is refused at the first x, however the x after it fares: before
        # any term (lam = 1e14) or when a sweep reaches the cap (lam = 30 with 50 terms)
        (1 << 21, 1e14, [2e14, 5e-324], "Poisson mixture needs more than"),
        (50, 30.0, [1.0, 5e-324], "Poisson mixture needs more than 50 terms per sweep"),
        # the first x is refused before the walk is taken
        (50, 30.0, [5e-324, 1.0], "x=5e-324 is too small"),
        (1 << 21, 5.0, [1.0, 2.0, 5e-324], "x=5e-324 is too small"),
    ])
    def test_first_refusal_of_a_loop(self, monkeypatch, cap, lam, xs, error):
        monkeypatch.setattr(specfun, "_POISSON_MAX_TERMS", cap)
        params = ChiSquareParams(2.0, lam)
        with pytest.raises(GradpowerError, match=error):
            for x in xs:
                specfun._mixture_sums(params, x, 4.0)
        with pytest.raises(GradpowerError, match=error):
            specfun._mixture_grid(params, xs, 4.0)


HUGE = 10 ** 400  # an integer past the largest float


class TestHugeIntegers:
    """An integer too large for a float is a domain error, not an OverflowError."""

    @pytest.mark.parametrize("call", [
        lambda: ChiSquareParams(HUGE, 0.5),
        lambda: ChiSquareParams(1.0, HUGE),
        lambda: central_chisq_cdf(1.0, HUGE),
        lambda: central_chisq_sf(HUGE, 1.0),
        lambda: central_chisq_pdf(1.0, HUGE),
        lambda: nc_chisq1_tails(HUGE, 1.0),
        lambda: nc_chisq1_tails(1.0, HUGE),
        lambda: nc_chisq_cdf(ChiSquareParams(1.0, 0.5), HUGE),
        lambda: nc_chisq_pdf(ChiSquareParams(1.0, 0.5), HUGE),
        lambda: nc_chisq_mixture(ChiSquareParams(1.0, 0.5), HUGE),
        lambda: central_chisq_quantile(HUGE, 0.5),
        lambda: central_chisq_quantile(1.0, HUGE),
    ])
    def test_domain_error(self, call):
        with pytest.raises(DomainError, match=f"got {HUGE}$"):
            call()

    def test_largest_float_still_accepted(self):
        big = sys.float_info.max
        assert ChiSquareParams(big, big) == ChiSquareParams(big, big)
        assert central_chisq_cdf(1.0, big) == 1.0
        assert nc_chisq1_tails(0.0, big) == (1.0, 0.0)


class TestNoncentralTailsDf1:
    """The df-1 closed form: Q to 1e-13 relative and G to 1e-15 absolute."""

    LAMS = (0.0, 1e-6, 1e-3, 0.1, 0.5, 1.0, 5.0, 20.0, 50.0, 200.0)

    @staticmethod
    def xs():
        # up to twice the alpha = 1e-15 critical value, where Q reaches ~1e-29
        far = 2.0 * central_chisq_quantile(1.0, 1e-15, upper=True)
        return [float(v) for v in np.geomspace(1e-6, far, 41)]

    def test_against_40_digit_law(self):
        # X = (Z + mu)**2 with mu = sqrt(2 lam): Q = Phi(mu - sqrt x) + Phi(-mu - sqrt x)
        with mpmath.workdps(40):
            for lam in self.LAMS:
                mu = mpmath.sqrt(2 * mpmath.mpf(lam))
                for x in self.xs():
                    r = mpmath.sqrt(mpmath.mpf(x))
                    q = mpmath.ncdf(mu - r) + mpmath.ncdf(-mu - r)
                    g, got = nc_chisq1_tails(lam, x)
                    assert abs(got - q) <= 1e-13 * q, (lam, x, got)
                    assert abs(g - (1 - q)) <= 1e-15, (lam, x, g)

    def test_against_40_digit_poisson_mixture(self):
        # the law above is the Poisson-lam convention: sum_j w_j Q(1/2 + j, x/2)
        far = self.xs()[-1]
        with mpmath.workdps(40):
            for lam in (0.5, 5.0):
                for x in (0.5 * far, far):
                    lam_m, h = mpmath.mpf(lam), mpmath.mpf(x) / 2
                    q = mpmath.fsum(
                        mpmath.exp(-lam_m + j * mpmath.log(lam_m) - mpmath.loggamma(j + 1))
                        * mpmath.gammainc(mpmath.mpf(j) + 0.5, h, mpmath.inf, regularized=True)
                        for j in range(80)
                    )
                    assert abs(nc_chisq1_tails(lam, x)[1] - q) <= 1e-13 * q, (lam, x)

    def test_matches_the_mixture_walk(self):
        for lam in self.LAMS:
            for x in (1e-3, 0.5, 3.84, 20.0, 90.0):
                g, q = nc_chisq1_tails(lam, x)
                assert g == pytest.approx(nc_chisq_cdf(ChiSquareParams(1.0, lam), x), abs=1e-13)
                assert g + q == pytest.approx(1.0, abs=2e-16)

    def test_central_and_edges(self):
        for x in (1e-3, 1.0, 3.84, 60.0):
            assert nc_chisq1_tails(0.0, x)[1] == pytest.approx(central_chisq_sf(1.0, x),
                                                               rel=1e-14)
        assert nc_chisq1_tails(2.0, 0.0) == (0.0, 1.0)
        assert nc_chisq1_tails(2.0, -1.0) == (0.0, 1.0)
        for lam, x in ((-0.5, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan)):
            with pytest.raises(DomainError):
                nc_chisq1_tails(lam, x)


class TestOddDensities:
    """The closed-form df 3, 5 and 7 densities that local power uses."""

    # ROADMAP item 1's grid: 16 lam from 0 to 1e4 and 14 x from 1e-6 out to the
    # alpha = 1e-100 critical value (453.9)
    LAMS = (0.0, 1e-8, 1e-4, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 8.0, 20.0, 50.0, 200.0,
            1e3, 5e3, 1e4)

    @staticmethod
    def xs():
        far = central_chisq_quantile(1.0, 1e-100, upper=True)
        return [float(v) for v in np.geomspace(1e-6, far, 14)]

    def test_against_50_digit_bessel_form(self):
        # f_k(x) = e^{-(x+L)/2} (x/L)^{(k-2)/4} I_{k/2-1}(sqrt(L x)) / 2 with L = 2 lam,
        # and the central density at lam = 0; values that underflow are left out
        checked = 0
        with mpmath.workdps(50):
            for lam in self.LAMS:
                L = 2 * mpmath.mpf(lam)
                for x in self.xs():
                    xm = mpmath.mpf(x)
                    got = specfun._nc_chisq1_densities(lam, x)
                    for k, value in zip((3, 5, 7), got):
                        if lam == 0.0:
                            a = mpmath.mpf(k) / 2
                            want = xm ** (a - 1) * mpmath.exp(-xm / 2) / (2 ** a * mpmath.gamma(a))
                        else:
                            want = (mpmath.exp(-(xm + L) / 2) * (xm / L) ** (mpmath.mpf(k - 2) / 4)
                                    * mpmath.besseli(mpmath.mpf(k) / 2 - 1, mpmath.sqrt(L * xm)) / 2)
                        if want < sys.float_info.min:
                            assert value < 1e-300, (k, lam, x, value)
                            continue
                        checked += 1
                        assert abs(value - want) <= 1e-12 * want, (k, lam, x, value)
        assert checked >= 500

    def test_central_at_zero_noncentrality(self):
        for x in LAM0_XS:
            got = specfun._nc_chisq1_densities(0.0, x)
            for df, value in zip((3.0, 5.0, 7.0), got):
                assert value == pytest.approx(central_chisq_pdf(df, x), rel=1e-13, abs=0.0)

    def test_matches_the_mixture_walk_where_it_is_accurate(self):
        # near the centre the walk's absolute error is ~1e-14 of the largest density
        for lam in (0.01, 1.0, 8.0, 50.0):
            for x in (0.5, 3.84, 2.0 * lam + 1.0):
                walk = nc_chisq_mixture(ChiSquareParams(1.0, lam), x)[1]
                for got, want in zip(specfun._nc_chisq1_densities(lam, x), walk):
                    assert got == pytest.approx(want, rel=1e-10)

    def test_huge_noncentrality_underflows_to_zero(self):
        assert specfun._nc_chisq1_densities(1e14, 3.84) == (0.0, 0.0, 0.0)
        assert specfun._nc_chisq1_densities(sys.float_info.max, 3.84) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("lam,x", [(-0.5, 1.0), (math.nan, 1.0), (math.inf, 1.0),
                                       (1.0, 0.0), (1.0, -1.0), (1.0, math.inf),
                                       (1.0, math.nan)])
    def test_domain(self, lam, x):
        with pytest.raises(DomainError):
            specfun._nc_chisq1_densities(lam, x)


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

    @pytest.mark.parametrize("df,p", [(0.001, 1e-50), (50.0, 1e-309)])
    def test_newton_steps_that_leave_the_bracket(self, df, p):
        # (0.001, 1e-50) bisects a closed bracket in log x; at the subnormal 1e-309
        # the bracket's lower end is still 0 when a step leaves it, and x is halved
        assert central_chisq_quantile(df, p, upper=True) == pytest.approx(
            chi2.isf(p, df), rel=1e-13)

    def test_quantile_below_the_smallest_double(self):
        # the lower-tail start 2 exp((log p + lgamma(a + 1)) / a) underflows at a = 0.005
        assert central_chisq_quantile(0.01, 1e-10) == 0.0

    # lower-tail solves with a subnormal answer, each of which raised ConvergenceError
    # when the bracket had to shrink to a relative width the subnormals cannot hold:
    # the first from an earlier scan, the others from a scan of df in [0.01, 10] and
    # p in [1e-320, 0.49] (the last one also took log(0) at x = 5e-324)
    SUBNORMAL_SOLVES = [
        (0.047223405554182446, 2.7569349141498448e-08),
        (0.0822724134170047, 6.557905749819136e-14),
        (0.2359833466782195, 1.6423857575671216e-37),
        (0.6768750009458534, 2.5799136419283652e-108),
        (1.0811807510766078, 1.1077726085638996e-172),
        (1.536174946671828, 1.2445398373323484e-245),
        (1.726983290659436, 5.832566663241798e-280),
    ]

    @pytest.mark.parametrize("df,p", SUBNORMAL_SOLVES)
    def test_subnormal_lower_quantile(self, df, p):
        want = chi2.ppf(p, df)
        assert 0.0 < want < 2.0 ** -1022
        assert abs(central_chisq_quantile(df, p) - want) <= 4 * 5e-324

    def test_subnormal_target_below_the_tail_underflow_is_refused(self):
        # at df 1.94 the cdf flushes values below about 2**-1022 to 0, so the bracket
        # closes on that flush, near 5.8e-318, not on the root near 1.9e-323
        with pytest.raises(ConvergenceError, match="underflow"):
            central_chisq_quantile(1.9414919457438815, 2.733446762e-314)

    @pytest.mark.parametrize("df", [0.05, 0.5, 1.0, 1.9])
    def test_tails_at_the_smallest_double(self, df):
        # x / 2 rounds to 0 at x = 5e-324, so the log of x / 2 is taken from x
        with mpmath.workdps(40):
            want = mpmath.gammainc(mpmath.mpf(df) / 2, 0, mpmath.mpf(5e-324) / 2,
                                   regularized=True)
            assert central_chisq_cdf(df, 5e-324) == pytest.approx(float(want), rel=1e-13)
            assert central_chisq_sf(df, 5e-324) == pytest.approx(float(1 - want), rel=1e-13)

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

    def test_upper_tail_at_small_df(self):
        # Wilson-Hilferty has no positive start at most of these points, so the
        # far-tail or the lower-series start serves; below 1e-300 the answer need
        # only stay below
        for df in (1e-4, 1e-3, 0.01, 0.1):
            for p in (1e-10, 1e-3, 0.3):
                want = chi2.isf(p, df)
                got = central_chisq_quantile(df, p, upper=True)
                if want >= 1e-300:
                    assert abs(got - want) <= 1e-13 * want, (df, p, got)
                else:
                    assert got < 1e-300, (df, p, got)
        assert central_chisq_quantile(1e-4, 1e-10, upper=True) == pytest.approx(21.34, rel=1e-3)

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
