"""Central and noncentral chi-square numerics.

Everything is built on a from-scratch regularized lower incomplete gamma
function (series + continued fraction, Cephes-style), so the package needs
no numerical library for its distribution functions.  The noncentral
chi-square here uses the Poisson-mixture convention: a variate with ``df``
degrees of freedom and noncentrality ``lam`` is a central chi-square with
``df + 2J`` degrees of freedom where ``J ~ Poisson(lam)``.  Its mean is
``df + 2*lam``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist

from .errors import ConvergenceError, DomainError

__all__ = [
    "ChiSquareParams",
    "central_chisq_cdf",
    "central_chisq_pdf",
    "central_chisq_quantile",
    "central_chisq_sf",
    "nc_chisq_cdf",
    "nc_chisq_pdf",
]

_MACHEP = 2.220446049250313e-16
_TWO53 = 2.0 ** 53
_MAXLOG = 709.782712893384
_BIG = 4.503599627370496e15
_BIGINV = 2.2204460492503131e-16
# terms of the incomplete gamma series and continued fraction; near x = a the
# series takes about 6.6 sqrt(a) terms (7e5 at a = 1e10), the fraction far fewer
_SERIES_MAX_TERMS = 1 << 22
_CONTFRAC_MAX_TERMS = 1 << 22
# Poisson-mixture truncation: stop once the unaccumulated weight drops below this
_POISSON_TAIL = 1e-14
# terms per sweep of the Poisson walk: lam = 1e10 needs about 8 sqrt(lam) = 8e5
_POISSON_MAX_TERMS = 1 << 21
# memo entries for the quantile solve; each run uses a few (df, p) pairs
_QUANTILE_MEMO = 1024
# evaluations per quantile solve; a converging solve at df = 1 takes at most 8
_QUANTILE_MAX_STEPS = 100
# a solve stops once a step moves x by at most this relative amount (a few ulps)
_QUANTILE_STEP_TOL = 4.0 * _MACHEP
# after a Newton step this small the error is at rounding level, so a next
# step that fails to halve is the tail's rounding noise
_QUANTILE_NOISE_STEP = 1e-6
_NORMAL = NormalDist()


@dataclass(frozen=True)
class ChiSquareParams:
    """Degrees of freedom and (Poisson-convention) noncentrality."""

    df: float
    noncentrality: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.df) and self.df > 0.0):
            raise DomainError(f"df must be positive and finite, got {self.df}")
        if not (math.isfinite(self.noncentrality) and self.noncentrality >= 0.0):
            raise DomainError(
                f"noncentrality must be >= 0 and finite, got {self.noncentrality}"
            )


def _lower_gamma_series(a: float, x: float) -> float:
    # P(a, x) by the ascending power series; reliable for x <~ a + 1.
    ax = a * math.log(x) - x - math.lgamma(a)
    if ax < -_MAXLOG:
        return 0.0
    ax = math.exp(ax)
    # r - a counts the terms.  From 2**53 on r would stall, but there any x that
    # passes the underflow test above needs about sqrt(a) terms, far beyond the cap.
    r = a
    r_stop = a + _SERIES_MAX_TERMS if a + _SERIES_MAX_TERMS < _TWO53 else a
    c = 1.0
    total = 1.0
    while c / total > _MACHEP and r < r_stop:
        r += 1.0
        c *= x / r
        total += c
    if c / total > _MACHEP:
        raise ConvergenceError(
            f"incomplete gamma series did not converge in {_SERIES_MAX_TERMS} terms "
            f"(a={a}, x={x})"
        )
    return total * ax / a


def _upper_gamma_contfrac(a: float, x: float) -> float:
    # Q(a, x) by the Legendre continued fraction; reliable for x >~ a + 1.
    ax = a * math.log(x) - x - math.lgamma(a)
    if ax < -_MAXLOG:
        return 0.0
    ax = math.exp(ax)
    y = 1.0 - a
    z = x + y + 1.0
    c = 0.0
    pkm2, qkm2 = 1.0, x
    pkm1, qkm1 = x + 1.0, z * x
    ans = pkm1 / qkm1
    t = 1.0
    c_stop = float(_CONTFRAC_MAX_TERMS)  # c counts the terms; a float compares faster
    while t > _MACHEP and c < c_stop:
        c += 1.0
        y += 1.0
        z += 2.0
        yc = y * c
        pk = pkm1 * z - pkm2 * yc
        qk = qkm1 * z - qkm2 * yc
        if qk != 0.0:
            r = pk / qk
            t = abs((ans - r) / r)
            ans = r
        else:
            t = 1.0
        pkm2, pkm1 = pkm1, pk
        qkm2, qkm1 = qkm1, qk
        if abs(pk) > _BIG:
            pkm2 *= _BIGINV
            pkm1 *= _BIGINV
            qkm2 *= _BIGINV
            qkm1 *= _BIGINV
    if t > _MACHEP:
        raise ConvergenceError(
            f"incomplete gamma continued fraction did not converge in {_CONTFRAC_MAX_TERMS} "
            f"terms (a={a}, x={x})"
        )
    return ans * ax


def _validate_df_x(df: float, x: float) -> None:
    if not (math.isfinite(df) and df > 0.0):
        raise DomainError(f"df must be positive and finite, got {df}")
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x}")


def _central_tails(df: float, x: float) -> tuple[float, float]:
    # (P, Q): the series below df + 1, where Q = 1 - P is not small, and the
    # continued fraction in the tail, where P = 1 - Q is not small
    _validate_df_x(df, x)
    if x <= 0.0:
        return 0.0, 1.0
    if x < df + 1.0:
        p = _lower_gamma_series(0.5 * df, 0.5 * x)
        return p, 1.0 - p
    q = _upper_gamma_contfrac(0.5 * df, 0.5 * x)
    return 1.0 - q, q


def central_chisq_cdf(df: float, x: float) -> float:
    """P(X <= x) for a central chi-square with ``df`` degrees of freedom."""
    return min(max(_central_tails(df, x)[0], 0.0), 1.0)


def central_chisq_sf(df: float, x: float) -> float:
    """P(X > x), computed directly so that small upper tails keep their relative accuracy."""
    return min(max(_central_tails(df, x)[1], 0.0), 1.0)


def central_chisq_pdf(df: float, x: float) -> float:
    """Density of a central chi-square with ``df`` degrees of freedom."""
    _validate_df_x(df, x)
    if x <= 0.0:
        return 0.0
    a = 0.5 * df
    logp = (a - 1.0) * math.log(x) - 0.5 * x - a * math.log(2.0) - math.lgamma(a)
    if logp < -_MAXLOG:
        return 0.0
    return math.exp(logp)


def _walk_too_long(params: ChiSquareParams):
    raise ConvergenceError(
        f"Poisson mixture needs more than {_POISSON_MAX_TERMS} terms per sweep "
        f"(df={params.df}, lam={params.noncentrality})"
    )


def _poisson_mixture(params: ChiSquareParams, x: float, pdf: bool) -> float:
    # Outward walk over Poisson(lam) weights, starting at the modal index
    # j0 = floor(lam), with stable recurrences for the central cdf/pdf in the
    # shape parameter a = df/2 + j.  Starting at the mode avoids weight
    # underflow for large lam; each sweep stops once a geometric bound on its
    # remaining tail mass falls below half of _POISSON_TAIL.
    df, lam = params.df, params.noncentrality
    xg = 0.5 * x
    j0 = int(lam)
    a0 = 0.5 * df + j0
    half_tail = 0.5 * _POISSON_TAIL

    logw0 = -lam - math.lgamma(j0 + 1.0)
    if j0 > 0:
        logw0 += j0 * math.log(lam)
    w0 = math.exp(logw0)

    # T(a) = xg^a e^-xg / Gamma(a+1) links both recurrences:
    #   P(a+1, xg) = P(a, xg) - T(a)           (cdf, df -> df + 2)
    #   f_{df+2}(x) = f_df(x) * xg / a          (pdf, same step)
    logT0 = a0 * math.log(xg) - xg - math.lgamma(a0 + 1.0)
    T0 = math.exp(logT0) if logT0 > -_MAXLOG else 0.0
    if pdf:
        base0 = central_chisq_pdf(df + 2.0 * j0, x)
    else:
        base0 = central_chisq_cdf(df + 2.0 * j0, x)

    total = w0 * base0

    # upward sweep: j0+1, j0+2, ... (at most _POISSON_MAX_TERMS terms)
    w, base, T, a = w0, base0, T0, a0
    for j in range(j0, j0 + _POISSON_MAX_TERMS):
        wnext = w * lam / (j + 1.0)
        if j + 1.0 > lam:
            # tail above j is bounded by w_{j+1} / (1 - lam/(j+2))
            bound = wnext / (1.0 - lam / (j + 2.0))
            if bound < half_tail:
                break
        w = wnext
        if pdf:
            base *= xg / a
        else:
            base -= T
            T *= xg / (a + 1.0)
        a += 1.0
        base = max(base, 0.0)
        total += w * base
        if w < 1e-300 and j + 1 > lam:
            break
    else:
        _walk_too_long(params)

    # downward sweep: j0-1, ..., 0 (weights shrink below the mode; at most
    # _POISSON_MAX_TERMS terms)
    w, base, T, a = w0, base0, T0, a0
    for j in range(j0 - 1, max(j0 - 1 - _POISSON_MAX_TERMS, -1), -1):
        w *= (j + 1) / lam
        a -= 1.0
        if pdf:
            base *= a / xg
        else:
            T *= (a + 1.0) / xg
            base = min(base + T, 1.0)
        total += w * base
        if j > 0 and lam > j:
            # tail below j is bounded by w_{j-1} / (1 - (j-1)/lam)
            bound = (w * j / lam) / (1.0 - (j - 1.0) / lam)
            if bound < half_tail:
                break
    else:
        if j0 > _POISSON_MAX_TERMS:
            _walk_too_long(params)

    return total


def nc_chisq_cdf(params: ChiSquareParams, x: float) -> float:
    """CDF of the (Poisson-mixture) noncentral chi-square distribution."""
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x}")
    if x <= 0.0:
        return 0.0
    return min(max(_poisson_mixture(params, x, pdf=False), 0.0), 1.0)


def nc_chisq_pdf(params: ChiSquareParams, x: float) -> float:
    """Density of the (Poisson-mixture) noncentral chi-square distribution."""
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"x must be positive and finite, got {x}")
    return max(_poisson_mixture(params, x, pdf=True), 0.0)


@lru_cache(maxsize=_QUANTILE_MEMO)
def central_chisq_quantile(df: float, p: float, upper: bool = False) -> float:
    """The x with ``P(X <= x) = p``, or ``P(X > x) = p`` when ``upper`` is true.

    The solve always works on the smaller tail, so an upper-tail probability
    such as a test's size keeps its relative accuracy.  It runs Newton's
    method on log(tail) in t = log x from the starting values of AS 91 (Best
    & Roberts 1975): Wilson-Hilferty, or the leading series term deep in the
    lower tail.  Each evaluation tightens a bracket on the root, and a step
    that would leave the bracket bisects it instead.  Results are memoised
    per ``(df, p, upper)``.
    """
    if not (math.isfinite(df) and df > 0.0):
        raise DomainError(f"df must be positive and finite, got {df}")
    if not (math.isfinite(p) and 0.0 < p < 1.0):
        raise DomainError(f"p must lie in (0, 1), got {p}")
    if p > 0.5:
        p = 1.0 - p  # exact for p in (1/2, 1)
        upper = not upper
    return _solve_tail(df, p, upper)


def _tail_start(df: float, a: float, target: float, log_target: float, upper: bool) -> float:
    # AS 91 starting values for the x with tail(x) = target <= 1/2
    if upper or df >= -1.24 * log_target:
        h = 2.0 / (9.0 * df)
        z = -_NORMAL.inv_cdf(target) if upper else _NORMAL.inv_cdf(target)
        base = 1.0 - h + z * math.sqrt(h)  # Wilson-Hilferty
        if base > 0.0:
            x = df * base ** 3
            if upper and x > 2.2 * df + 6.0:
                # far upper tail: invert the leading asymptotic term of Q
                far = -2.0 * (log_target - (a - 1.0) * math.log(0.5 * x) + math.lgamma(a))
                x = far if far > 0.0 else x
            return x
    # deep lower tail: invert the leading series term (x/2)^a / Gamma(a + 1)
    return 2.0 * math.exp((log_target + math.lgamma(a + 1.0)) / a)


def _solve_tail(df: float, target: float, upper: bool) -> float:
    # The x with tail(x) = target <= 1/2, where tail is Q (upper) or P (lower).
    a = 0.5 * df
    lga = math.lgamma(a)
    log_target = math.log(target)
    tail = central_chisq_sf if upper else central_chisq_cdf
    x = _tail_start(df, a, target, log_target, upper)
    if x == 0.0:
        return 0.0  # the quantile lies below the smallest positive double
    lo, hi = 0.0, math.inf
    prev = math.inf  # size of the last Newton step taken
    for _ in range(_QUANTILE_MAX_STEPS):
        value = tail(df, x)
        if value == target:
            return x
        if (value > target) == upper:
            lo = x
        else:
            hi = x
        if hi - lo <= _QUANTILE_STEP_TOL * lo:
            return x
        new = step = math.nan
        if value > 0.0:
            # d log(tail) / dt = +-x f(x) / tail, where log(x f(x)) = a log(x/2) - x/2 - lgamma(a)
            log_slope = a * math.log(0.5 * x) - 0.5 * x - lga - math.log(value)
            ratio = value / target
            log_ratio = math.log(ratio) if ratio < math.inf else math.log(value) - log_target
            step = log_ratio * math.exp(min(-log_slope, _MAXLOG))
            step = -step if upper else step
            # done at a step of a few ulps, or once small steps stop shrinking:
            # then the rounding noise of the tail sets the step, not the error
            if abs(step) <= _QUANTILE_STEP_TOL or (
                prev < _QUANTILE_NOISE_STEP and abs(step) > 0.5 * prev
            ):
                return x * math.exp(-step)
            if abs(step) < _MAXLOG:
                new = x * math.exp(-step)
        if lo < new < hi:
            prev = abs(step)
        else:
            # bisect in log x; an open side of the bracket doubles or halves x
            if hi == math.inf:
                new = 2.0 * lo
            elif lo == 0.0:
                new = 0.5 * hi
            else:
                new = math.sqrt(lo) * math.sqrt(hi)
            prev = math.inf
        x = new
    raise ConvergenceError(
        f"chi-square quantile did not converge in {_QUANTILE_MAX_STEPS} steps "
        f"(df={df}, tail={'upper' if upper else 'lower'}, p={target})"
    )
