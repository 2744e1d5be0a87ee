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

from .errors import DomainError

__all__ = [
    "ChiSquareParams",
    "central_chisq_cdf",
    "central_chisq_pdf",
    "central_chisq_quantile",
    "nc_chisq_cdf",
    "nc_chisq_pdf",
]

_MACHEP = 2.220446049250313e-16
_MAXLOG = 709.782712893384
_BIG = 4.503599627370496e15
_BIGINV = 2.2204460492503131e-16
# Poisson-mixture truncation: stop once the unaccumulated weight drops below this
_POISSON_TAIL = 1e-14


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
    r = a
    c = 1.0
    total = 1.0
    while c / total > _MACHEP:
        r += 1.0
        c *= x / r
        total += c
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
    while t > _MACHEP:
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
    return ans * ax


def _validate_df_x(df: float, x: float) -> None:
    if not (math.isfinite(df) and df > 0.0):
        raise DomainError(f"df must be positive and finite, got {df}")
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x}")


def central_chisq_cdf(df: float, x: float) -> float:
    """P(X <= x) for a central chi-square with ``df`` degrees of freedom."""
    _validate_df_x(df, x)
    if x <= 0.0:
        return 0.0
    a = 0.5 * df
    xg = 0.5 * x
    # series in the small-x region, continued fraction in the tail
    if x < df + 1.0:
        p = _lower_gamma_series(a, xg)
    else:
        p = 1.0 - _upper_gamma_contfrac(a, xg)
    return min(max(p, 0.0), 1.0)


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

    # upward sweep: j0+1, j0+2, ...
    w, base, T, a = w0, base0, T0, a0
    j = j0
    while True:
        wnext = w * lam / (j + 1.0)
        if j + 1.0 > lam:
            # tail above j is bounded by w_{j+1} / (1 - lam/(j+2))
            bound = wnext / (1.0 - lam / (j + 2.0))
            if bound < half_tail:
                break
        j += 1
        w = wnext
        if pdf:
            base *= xg / a
        else:
            base -= T
            T *= xg / (a + 1.0)
        a += 1.0
        base = max(base, 0.0)
        total += w * base
        if w < 1e-300 and j > lam:
            break

    # downward sweep: j0-1, ..., 0 (at most j0 terms; weights shrink below the mode)
    w, base, T, a = w0, base0, T0, a0
    j = j0
    while j > 0:
        w *= j / lam
        j -= 1
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


def central_chisq_quantile(df: float, p: float) -> float:
    """Inverse of ``central_chisq_cdf`` in its second argument.

    Bracketing bisection followed by Newton refinement in log space; the
    returned x satisfies ``|central_chisq_cdf(df, x) - p| <= 1e-12`` over any
    practical (df, p) range.
    """
    if not (math.isfinite(df) and df > 0.0):
        raise DomainError(f"df must be positive and finite, got {df}")
    if not (math.isfinite(p) and 0.0 < p < 1.0):
        raise DomainError(f"p must lie in (0, 1), got {p}")

    lo = 0.0
    hi = df + 10.0 * math.sqrt(2.0 * df) + 50.0
    while central_chisq_cdf(df, hi) < p:
        hi *= 2.0
        if hi > 1e300:
            raise DomainError(f"quantile bracket expansion failed for p={p}")

    for _ in range(200):
        if hi - lo <= 1e-13:
            break
        mid = 0.5 * (lo + hi)
        if central_chisq_cdf(df, mid) < p:
            lo = mid
        else:
            hi = mid

    # Newton in t = log x; multiplicative steps stay inside (0, inf) and
    # handle the steep small-x region where absolute bisection stalls.
    x = 0.5 * (lo + hi)
    if x <= 0.0:
        x = hi if hi > 0.0 else 1e-300
    for _ in range(60):
        err = central_chisq_cdf(df, x) - p
        if abs(err) <= 1e-13:
            break
        slope = central_chisq_pdf(df, x) * x
        if slope <= 0.0:
            break
        step = err / slope
        step = max(min(step, 1.0), -1.0)
        x *= math.exp(-step)
    return x
