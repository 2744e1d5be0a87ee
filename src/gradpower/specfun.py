"""Central and noncentral chi-square numerics.

Everything is built on a from-scratch regularized lower incomplete gamma
function (series + continued fraction, Cephes-style), so the package needs
no numerical library for its distribution functions.  The noncentral
chi-square here uses the Poisson-mixture convention: a variate with ``df``
degrees of freedom and noncentrality ``lam`` is a central chi-square with
``df + 2J`` degrees of freedom where ``J ~ Poisson(lam)``.  Its mean is
``df + 2*lam``.  Below df + 1 at df < 0.1, where P is near 1, the upper
tail is summed on its own rather than taken as 1 - P.

Local power and the scalar (f = 1) CDF expansion need only odd degrees of
freedom, and there every value is elementary.  At one degree of freedom
both tails have a closed form in ``erfc``, which both expansions use for
their leading term, and the densities at df 3, 5 and 7 are modified
spherical Bessel functions, which their second-order terms use
(``_nc_chisq1_densities``).

Every other noncentral CDF and density is a sum over the Poisson weights,
walked once from the modal index up and then down (Benton & Krishnamoorthy
2003, *CSDA* 43:249).  One generator, ``_poisson_weights``, yields the
weights as the walk reaches them and owns the sweeps' stops, their cap and
the refusal of a noncentrality whose walk could not finish; all of these
depend on the noncentrality alone.  Each term is added to a CDF sum and to
the densities at three consecutive degrees of freedom as the walk reaches
it, so memory stays constant and :func:`nc_chisq_mixture` takes the CDF and
the three densities of a telescoped second-order sum from one pass.

As the weights do not depend on x, a whole grid of x (the CDF expansion
over an ``expand`` x list) takes them from one walk as well
(``_mixture_grid``): each x starts from the same scalar values, and the
steps run as in-order numpy accumulations over fixed-size segments of
weights and blocks of x.  Every value equals the scalar walk's bit for bit,
and memory stays bounded for any noncentrality and grid length.

A single x keeps the scalar loop, and only a list takes the grid, as the
grid's numpy set-up costs more than one x saves.  On a 2-core x86-64
machine (Python 3.11, numpy 2.4), one x at df 2, lam 0.5 took about 15 us
on the loop and 50 us on the grid, and acceptance criterion 1, a loop of
scalar calls, took 0.3 s on the loop and 1.0 to 1.5 s on one-x grids,
against its 1-s bound.  A 20-point list took 176 and 508 us on the grid at
lam 0.3 and 200, against 289 and 3,140 us for a loop of scalar walks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist

import numpy as np

from .errors import _FLOAT_MAX, ConvergenceError, DomainError, GradpowerError

__all__ = [
    "ChiSquareParams",
    "central_chisq_cdf",
    "central_chisq_pdf",
    "central_chisq_quantile",
    "central_chisq_sf",
    "nc_chisq1_tails",
    "nc_chisq_cdf",
    "nc_chisq_mixture",
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
# a walk over a grid of x takes this many weights, for this many x, per numpy step
_GRID_STEPS = 256
_GRID_BLOCK = 32
# memo entries for the quantile solve; each run uses a few (df, p) pairs
_QUANTILE_MEMO = 1024
# evaluations per quantile solve; a converging solve at df = 1 takes at most 8
_QUANTILE_MAX_STEPS = 100
# a solve stops once a step moves x by at most this relative amount (a few ulps)
_QUANTILE_STEP_TOL = 4.0 * _MACHEP
# the spacing of floats below 2**-1022: a bracket this narrow holds no float between
# its ends, while above 2**-1022 the relative test is met first
_SUBNORMAL_STEP = 5e-324
_FLOAT_MIN = 2.0 ** -1022
# after a Newton step this small the error is at rounding level, so a next
# step that fails to halve is the tail's rounding noise
_QUANTILE_NOISE_STEP = 1e-6
_NORMAL = NormalDist()
# the 1/sqrt(2 pi) of the odd-df densities, and its log
_C = 1.0 / math.sqrt(2.0 * math.pi)
_LOG_C = math.log(_C)
_SQRT2 = math.sqrt(2.0)
_LOG2 = math.log(2.0)


def _bessel_series_coefficients(terms: int):
    # (c0, c1, c2) of k = 1..terms: 1 / (k! (2n+3)(2n+5)...(2n+2k+1)) for n = 0, 1, 2
    c0 = c1 = c2 = 1.0
    table = []
    for k in range(1, terms + 1):
        c0, c1, c2 = c0 / (k * (2 * k + 1)), c1 / (k * (2 * k + 3)), c2 / (k * (2 * k + 5))
        table.append((c0, c1, c2))
    return tuple(table)


# the i_n(z) series below z = 2 in powers of z^2/2; at z = 2 it reaches rounding
# level at k = 11
_BESSEL_SERIES = _bessel_series_coefficients(15)


@dataclass(frozen=True)
class ChiSquareParams:
    """Degrees of freedom and (Poisson-convention) noncentrality."""

    df: float
    noncentrality: float = 0.0

    def __post_init__(self) -> None:
        _check_df(self.df)
        _check_noncentrality(self.noncentrality)


# Each rule compares with the largest float rather than calling math.isfinite,
# which raises OverflowError on an integer too large for a float.


def _check_df(df: float) -> None:
    if not (0.0 < df <= _FLOAT_MAX):
        raise DomainError(f"df must be positive and finite, got {df}")


def _check_noncentrality(lam: float) -> None:
    if not (0.0 <= lam <= _FLOAT_MAX):
        raise DomainError(f"noncentrality must be >= 0 and finite, got {lam}")


def _check_finite_x(x: float) -> None:
    if not (-_FLOAT_MAX <= x <= _FLOAT_MAX):
        raise DomainError(f"x must be finite, got {x}")


def _lower_gamma_series(a: float, x: float, ax: float) -> float:
    # P(a, x) by the ascending power series; reliable for x <~ a + 1.  ax is
    # the prefactor x**a e**-x / Gamma(a).
    # r - a counts the terms.  From 2**53 on r would stall, but there any x whose
    # prefactor does not underflow needs about sqrt(a) terms, far beyond the cap.
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


def _upper_gamma_contfrac(a: float, x: float, ax: float) -> float:
    # Q(a, x) by the Legendre continued fraction; reliable for x >~ a + 1.  ax
    # is the prefactor x**a e**-x / Gamma(a).
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


def _zeta(k: int) -> float:
    # Riemann zeta(k), k >= 2: the first n - 1 terms and an Euler-Maclaurin tail,
    # whose first left-out term is below 1e-18 at k = 2
    n = 256
    head = math.fsum(j ** -k for j in range(1, n))
    return (head + n ** (1 - k) / (k - 1) + 0.5 * n ** -k + k * n ** (-k - 1) / 12.0
            - k * (k + 1) * (k + 2) * n ** (-k - 3) / 720.0)


_EULER_GAMMA = 0.5772156649015329
# (-1)^k zeta(k) / k for k = 2..18: lgamma(1 + a) = -gamma a + sum_k c_k a^k, |a| < 1
_LGAMMA1P_SERIES = tuple((-1) ** k * _zeta(k) / k for k in range(2, 19))
# below this a, Q = 1 - P loses more than about 1e-14 where the series serves
_SMALL_A = 0.05


def _upper_gamma_small_a(a: float, x: float, log_x: float) -> float:
    # Q(a, x) for a < _SMALL_A and x < a + 1/2, where P is near 1 and 1 - P cancels:
    # with y = x^a / Gamma(a + 1) and S = sum_{n>=1} (-x)^n / (n! (a + n)),
    # P = y (1 + a S), so Q = (1 - y) - y a S, two non-negative terms as S < 0
    # (DiDonato & Morris 1986, ACM TOMS 12:377).  1 - y = -expm1(log y), and
    # lgamma(1 + a) is its Taylor series: math.lgamma cancels near 1.
    power, lg1p = a, -_EULER_GAMMA * a
    for c in _LGAMMA1P_SERIES:
        power *= a
        lg1p += c * power
    log_y = a * log_x - lg1p
    term, s = 1.0, 0.0
    for n in range(1, 20):  # x < 1, so x^n / n! < 1e-16 by n = 19
        term *= -x / n
        s += term / (a + n)
    return -math.expm1(log_y) - math.exp(log_y) * a * s


def _central_tails(df: float, x: float) -> tuple[float, float]:
    # (P, Q): the series below df + 1, where Q = 1 - P is not small unless df is,
    # and the continued fraction in the tail, where P = 1 - Q is not small
    _check_df(df)
    _check_finite_x(x)
    if x <= 0.0:
        return 0.0, 1.0
    a, h = 0.5 * df, 0.5 * x
    log_h = math.log(h) if h > 0.0 else math.log(x) - _LOG2  # x = 5e-324 halves to 0
    # both tails carry the prefactor h**a e**-h / Gamma(a); where it underflows,
    # so does the smaller tail
    log_ax = a * log_h - h - math.lgamma(a)
    lower = x < df + 1.0
    if log_ax < -_MAXLOG:
        return (0.0, 1.0) if lower else (1.0, 0.0)
    if lower:
        p = _lower_gamma_series(a, h, math.exp(log_ax))
        return p, _upper_gamma_small_a(a, h, log_h) if a < _SMALL_A else 1.0 - p
    q = _upper_gamma_contfrac(a, h, math.exp(log_ax))
    return 1.0 - q, q


def central_chisq_cdf(df: float, x: float) -> float:
    """P(X <= x) for a central chi-square with ``df`` degrees of freedom."""
    return min(max(_central_tails(df, x)[0], 0.0), 1.0)


def central_chisq_sf(df: float, x: float) -> float:
    """P(X > x), computed directly so that small upper tails keep their relative accuracy."""
    return min(max(_central_tails(df, x)[1], 0.0), 1.0)


def central_chisq_pdf(df: float, x: float) -> float:
    """Density of a central chi-square with ``df`` degrees of freedom."""
    _check_df(df)
    _check_finite_x(x)
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


def _poisson_weights(params: ChiSquareParams):
    # The Poisson(lam) weights of the walk, computed as they are reached and stored
    # nowhere: first (j0, w_j0) at the modal index j0 = floor(lam), which avoids weight
    # underflow for large lam; then w_j0+1, w_j0+2, ... up; then None; then w_j0-1,
    # w_j0-2, ... down.  Each sweep stops once a geometric bound on its remaining weight
    # falls below half of _POISSON_TAIL, after at most _POISSON_MAX_TERMS terms, and a
    # lam whose up sweep cannot stop within that cap is refused before the first yield.
    # The weights and the stops depend on lam alone, so one walk serves every x.
    lam = params.noncentrality
    half_tail = 0.5 * _POISSON_TAIL
    if lam >= _POISSON_MAX_TERMS ** 2:
        # within the cap above the mode the up sweep's tail bound stays above about
        # 0.24, so it cannot stop; the gate below is rounding noise from about 1e15
        _walk_too_long(params)
    j0 = int(lam)
    if lam > _POISSON_MAX_TERMS:
        # The weights fall above the mode, and each up step's tail bound is at least
        # its next weight, so the up sweep cannot stop within its cap while the weight
        # at j0 + cap exceeds half_tail.  Such a lam is refused before any term is
        # summed.  The factor e covers lgamma's rounding wherever a sweep can end
        # within the cap (lam below about 7e10).
        j_cap = j0 + _POISSON_MAX_TERMS
        if j_cap * math.log(lam) - lam - math.lgamma(j_cap + 1.0) > math.log(half_tail) + 1.0:
            _walk_too_long(params)

    logw0 = -lam - math.lgamma(j0 + 1.0)
    if j0 > 0:
        logw0 += j0 * math.log(lam)
    w0 = math.exp(logw0)
    yield j0, w0

    w = w0
    for j in range(j0, j0 + _POISSON_MAX_TERMS):
        wnext = w * lam / (j + 1.0)
        if j + 1.0 > lam:
            # tail above j is bounded by w_{j+1} / (1 - lam/(j+2))
            if wnext / (1.0 - lam / (j + 2.0)) < half_tail:
                break
        w = wnext
        yield w
    else:
        _walk_too_long(params)
    yield None

    w = w0
    for j in range(j0 - 1, max(j0 - 1 - _POISSON_MAX_TERMS, -1), -1):
        w *= (j + 1) / lam
        yield w
        if j > 0 and lam > j:
            # tail below j is bounded by w_{j-1} / (1 - (j-1)/lam)
            if (w * j / lam) / (1.0 - (j - 1.0) / lam) < half_tail:
                break
    else:
        if j0 > _POISSON_MAX_TERMS:
            _walk_too_long(params)


def _walk_shapes(df: float, d: float, j0: int) -> tuple[float, float, float, float]:
    # the shape parameters a = df/2 + j of the cdf and a_v = v/2 + j of the densities
    # at v = d, d + 2 and d + 4, at the modal index j0
    return 0.5 * df + j0, 0.5 * d + j0, 0.5 * (d + 2.0) + j0, 0.5 * (d + 4.0) + j0


def _walk_start(df: float, d: float, j0: int, x: float):
    # (xg, T, c, b1, b2, b3) at the modal index j0: x/2, the cdf step
    # T(a) = xg^a e^-xg / Gamma(a+1), the central cdf at df + 2 j0 and the central
    # densities at d + 2 j0, d + 2 + 2 j0 and d + 4 + 2 j0, all at x
    xg = 0.5 * x
    if xg == 0.0:  # x = 5e-324: the walk's steps divide by x/2 and take its log
        raise DomainError(f"x={x} is too small for the Poisson mixture (x/2 underflows to 0)")
    a0 = 0.5 * df + j0
    logT0 = a0 * math.log(xg) - xg - math.lgamma(a0 + 1.0)
    T0 = math.exp(logT0) if logT0 > -_MAXLOG else 0.0
    c0 = central_chisq_cdf(df + 2.0 * j0, x)
    return (xg, T0, c0, *(central_chisq_pdf(v + 2.0 * j0, x) for v in (d, d + 2.0, d + 4.0)))


def _mixture_sums(params: ChiSquareParams, x: float, d: float):
    # (G, f1, f2, f3): sums over the Poisson(lam) weights w_j of the central cdf at
    # df + 2j and of the central densities at d + 2j, d + 2 + 2j and d + 4 + 2j, all
    # at x.  The weights come from one _poisson_weights walk: the modal term, then up,
    # then down, each term added to all four sums as it is reached.
    # With a = df/2 + j and T(a) = xg^a e^-xg / Gamma(a+1), P(a+1, xg) = P(a, xg) - T(a),
    # and each step clamps the cdf base back into [0, 1]; f_{v+2}(x) = f_v(x) * xg / a
    # with a = v/2, a product of non-negative factors that needs no clamp.
    walk = _poisson_weights(params)
    j0, w0 = next(walk)
    xg, T0, c0, b10, b20, b30 = _walk_start(params.df, d, j0, x)
    a0, a10, a20, a30 = _walk_shapes(params.df, d, j0)
    g = w0 * c0
    t1, t2, t3 = w0 * b10, w0 * b20, w0 * b30

    c, T, a = c0, T0, a0
    b1, b2, b3, a1, a2, a3 = b10, b20, b30, a10, a20, a30
    for w in iter(walk.__next__, None):
        c -= T
        T *= xg / (a + 1.0)
        a += 1.0
        c = max(c, 0.0)
        g += w * c
        b1, b2, b3 = b1 * (xg / a1), b2 * (xg / a2), b3 * (xg / a3)
        a1, a2, a3 = a1 + 1.0, a2 + 1.0, a3 + 1.0
        t1, t2, t3 = t1 + w * b1, t2 + w * b2, t3 + w * b3

    c, T, a = c0, T0, a0
    b1, b2, b3, a1, a2, a3 = b10, b20, b30, a10, a20, a30
    for w in walk:
        a -= 1.0
        T *= (a + 1.0) / xg
        c = min(c + T, 1.0)
        g += w * c
        a1, a2, a3 = a1 - 1.0, a2 - 1.0, a3 - 1.0
        b1, b2, b3 = b1 * (a1 / xg), b2 * (a2 / xg), b3 * (a3 / xg)
        t1, t2, t3 = t1 + w * b1, t2 + w * b2, t3 + w * b3
    return g, t1, t2, t3


def _mixture_grid(params: ChiSquareParams, xs, d: float):
    # (G, f1, f2, f3) of _mixture_sums at every x of xs, positive and finite, as four
    # arrays, from one _poisson_weights walk.  Each x's modal terms come from the same
    # scalar calls (_walk_start); the steps are taken _GRID_STEPS weights at a time, for
    # _GRID_BLOCK x at a time, so memory stays bounded for any lam and grid length.
    # An x refused at its modal terms is refused after the walk of the x before it, as
    # a loop of _mixture_sums calls would refuse it.
    walk = _poisson_weights(params)
    j0, w0 = next(walk)
    starts, refused = [], None
    for x in xs:
        try:
            starts.append(_walk_start(params.df, d, j0, x))
        except (GradpowerError, ArithmeticError) as exc:
            if not starts:
                raise
            refused = exc
            break
    xg, T0, c0, *b0 = np.array(starts).T
    steps0 = np.array([T0, *b0])  # T, b1, b2, b3 at j0
    shapes0 = _walk_shapes(params.df, d, j0)
    sums = w0 * np.array([c0, *b0])  # G, f1, f2, f3
    for up in (True, False):
        steps, c, shapes = steps0.copy(), c0.copy(), shapes0
        sweep = iter(walk.__next__, None) if up else walk
        while (w := np.fromiter(itertools.islice(sweep, _GRID_STEPS), float)).size:
            shapes = _grid_segment(w, up, shapes, xg, steps, c, sums)
    if refused is not None:
        raise refused
    return tuple(sums)


def _grid_segment(w, up, shapes, xg, steps, c, sums):
    # One segment of a sweep over the weights w, in place on every x's steps (T, b1, b2,
    # b3), clamped cdf base c and sums (G, f1, f2, f3); returns the shape parameters
    # after it.  np.multiply.accumulate and np.add.accumulate run in sequence, so each
    # product and sum rounds as _mixture_sums rounds it, and the shape parameters step
    # by repeated +-1.0.  The clamp comes after the running sum: going up, c - T - T' ...
    # only falls, so once it is below 0 it stays there, as the clamped base stays at 0;
    # going down, c + T + T' ... only rises past 1 likewise.
    s = w.size
    a_seq = np.empty((4, s + 1))  # a, a1, a2, a3 before each step and after the last
    a_seq[:, 0] = shapes
    a_seq[:, 1:] = 1.0 if up else -1.0
    np.add.accumulate(a_seq, axis=1, out=a_seq)
    # the shapes that each step divides x/2 by (up) or divides by x/2 (down): a + 1.0
    # for T and a1, a2, a3 for the densities, before the step going up, after it down
    a_fac = a_seq[:, :s].copy() if up else a_seq[:, 1:].copy()
    a_fac[0] += 1.0
    rows = min(_GRID_BLOCK, xg.size)
    buf, cbuf = np.empty((4, rows, s + 1)), np.empty((rows, s + 1))
    with np.errstate(all="ignore"):  # overflow and inf * 0 as in float arithmetic
        for lo in range(0, xg.size, _GRID_BLOCK):
            hi = min(lo + _GRID_BLOCK, xg.size)
            prod, base = buf[:, :hi - lo], cbuf[:hi - lo]
            # T, b1, b2, b3 before each step and after the last
            prod[:, :, 0] = steps[:, lo:hi]
            h = xg[lo:hi, None]
            if up:
                np.divide(h, a_fac[:, None, :], out=prod[:, :, 1:])
            else:
                np.divide(a_fac[:, None, :], h, out=prod[:, :, 1:])
            np.multiply.accumulate(prod, axis=2, out=prod)
            # the cdf base: c - T before each step going up, c + T after it going down
            base[:, 0] = c[lo:hi]
            if up:
                np.negative(prod[0, :, :s], out=base[:, 1:])
            else:
                base[:, 1:] = prod[0, :, 1:]
            np.add.accumulate(base, axis=1, out=base)
            if up:  # Python's max(c, 0.0) and min(c, 1.0), signed zeros and NaN included
                np.copyto(base, 0.0, where=base < 0.0)
            else:
                np.copyto(base, 1.0, where=base > 1.0)
            c[lo:hi] = base[:, s]
            steps[:, lo:hi] = prod[:, :, s]
            # the terms w * c and w * b of each step, then their running sums
            prod[0, :, 1:] = base[:, 1:]
            prod[:, :, 1:] *= w
            prod[:, :, 0] = sums[:, lo:hi]
            np.add.accumulate(prod, axis=2, out=prod)
            sums[:, lo:hi] = prod[:, :, s]
    return a_seq[:, s]


def nc_chisq_cdf(params: ChiSquareParams, x: float) -> float:
    """CDF of the (Poisson-mixture) noncentral chi-square distribution."""
    _check_finite_x(x)
    if x <= 0.0:
        return 0.0
    # the densities at df + 2 and up, as the mixture takes them, cannot overflow
    return min(max(_mixture_sums(params, x, params.df + 2.0)[0], 0.0), 1.0)


def nc_chisq1_tails(lam: float, x: float) -> tuple[float, float]:
    """(G, Q) = (P(X <= x), P(X > x)) for one degree of freedom, in closed form.

    X = (Z + mu)**2 with Z standard normal and mu = sqrt(2 lam), so both tails
    are sums of normal tails (Johnson, Kotz & Balakrishnan, *Continuous
    Univariate Distributions* vol. 2, ch. 29).  ``erfc`` keeps Q's relative
    accuracy far into the upper tail, and G's in the lower tail (x < 2 lam),
    where G is a difference of two normal upper tails of which the second is
    the smaller.
    """
    _check_noncentrality(lam)
    _check_finite_x(x)
    if x <= 0.0:
        return 0.0, 1.0
    r, mu = math.sqrt(0.5 * x), math.sqrt(lam)  # sqrt(x)/sqrt(2) and mu/sqrt(2)
    q = 0.5 * (math.erfc(r - mu) + math.erfc(r + mu))
    if mu > r:
        g = 0.5 * (math.erfc(mu - r) - math.erfc(mu + r))
    else:
        g = 0.5 * (math.erf(r - mu) + math.erf(r + mu))
    return g, q


def _check_positive_x(x: float) -> None:
    if not (0.0 < x <= _FLOAT_MAX):
        raise DomainError(f"x must be positive and finite, got {x}")


def _nc_chisq1_densities(lam: float, x: float) -> tuple[float, float, float]:
    # (g3, g5, g7): the densities at df 3, 5 and 7 and noncentrality lam, in closed
    # form.  With L = 2 lam, s = sqrt(x), m = sqrt(L) and z = s m,
    #   f_{2n+3}(x) = c e^{-(x+L)/2} s^{n+1} m^{-n} i_n(z),   c = 1/sqrt(2 pi),
    # where i_n is the modified spherical Bessel function of the first kind
    # (Abramowitz & Stegun 10.2.12-13; DLMF 10.49): sinh z and cosh z times a
    # polynomial in 1/z.  Below z = 2 that polynomial cancels, so i_n is summed
    # from its power series instead, which also covers lam = 0.
    _check_noncentrality(lam)
    _check_positive_x(x)
    s, m = math.sqrt(x), _SQRT2 * math.sqrt(lam)  # 2 lam may overflow
    z = s * m
    if z < 2.0:
        # i_n(z) = z^n / (2n+1)!! * sum_k (z^2/2)^k / (k! (2n+3)(2n+5)...(2n+2k+1)),
        # so f_{2n+3} = c e^{-(x+L)/2} s^{2n+1} S_n / (2n+1)!!, with the exponent in logs
        h = 0.5 * z * z
        p = s0 = s1 = s2 = 1.0
        for c0, c1, c2 in _BESSEL_SERIES:
            p *= h
            s0, s1, s2 = s0 + c0 * p, s1 + c1 * p, s2 + c2 * p
            if c0 * p <= _MACHEP * s0:  # the n = 0 terms fall slowest
                break
        log_s = math.log(s)
        log_e = -0.5 * x - lam + log_s + _LOG_C
        return (math.exp(log_e) * s0,
                math.exp(log_e + 2.0 * log_s) * s1 / 3.0,
                math.exp(log_e + 4.0 * log_s) * s2 / 15.0)
    # e^{-(x+L)/2} sinh z and cosh z are e (1 -+ e^{-2z}) with e = e^{-(s-m)^2/2} / 2,
    # and (s - m)^2 / 2 = 2 ((x/2 - lam) / (s + m))^2 rounds least
    e = 0.5 * math.exp(-2.0 * ((0.5 * x - lam) / (s + m)) ** 2)
    if e == 0.0:
        return 0.0, 0.0, 0.0
    minus = -math.expm1(-2.0 * z)
    sh, ch = e * minus, e * (2.0 - minus)
    # i_0 = sinh/z, i_1 = (cosh - sinh/z)/z, i_2 = ((1 + 3/z^2) sinh - 3 cosh/z)/z
    r = s / m
    c_m = _C / m
    return (c_m * sh,
            c_m * r * (ch - sh / z),
            c_m * r * r * ((1.0 + 3.0 / (z * z)) * sh - 3.0 * ch / z))


def nc_chisq_pdf(params: ChiSquareParams, x: float) -> float:
    """Density of the (Poisson-mixture) noncentral chi-square distribution."""
    _check_positive_x(x)
    return max(_mixture_sums(params, x, params.df)[1], 0.0)


def nc_chisq_mixture(
    params: ChiSquareParams, x: float
) -> tuple[float, tuple[float, float, float]]:
    """``(G, (g2, g4, g6))`` at ``x`` from one pass over the Poisson weights.

    ``G`` is the CDF with ``params.df`` degrees of freedom and ``g2``, ``g4``,
    ``g6`` are the densities with ``d = df + 2``, ``d + 2`` and ``d + 4``, all
    at noncentrality ``lam``: the values of a telescoped second-order sum.
    ``x`` must be positive and finite; there each value equals what
    :func:`nc_chisq_cdf` or :func:`nc_chisq_pdf` returns at the same degrees of
    freedom.
    """
    _check_positive_x(x)
    return _clamped_mixture(*_mixture_sums(params, x, params.df + 2.0))


def _clamped_mixture(g, g2, g4, g6) -> tuple[float, tuple[float, float, float]]:
    # the cdf clamped into [0, 1] and the densities at 0 and up
    return min(max(g, 0.0), 1.0), (max(g2, 0.0), max(g4, 0.0), max(g6, 0.0))


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
    _check_df(df)
    if not (0.0 < p < 1.0):
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
                x = _far_upper_start(a, log_target, x)
            return x
        if upper:
            # Wilson-Hilferty fails at small df: start from the far upper tail
            # where that has a positive root, else invert the lower series at
            # P = 1 - target, as the quantile is then small
            far = -2.0 * (log_target + math.lgamma(a))
            if far > 0.0:
                return _far_upper_start(a, log_target, far)
            log_target = math.log1p(-target)
    # deep lower tail: invert the leading series term (x/2)^a / Gamma(a + 1)
    return 2.0 * math.exp((log_target + math.lgamma(a + 1.0)) / a)


def _far_upper_start(a: float, log_target: float, x: float) -> float:
    # far upper tail: invert the leading asymptotic term (x/2)^(a-1) e^(-x/2) / Gamma(a)
    # of Q once from x; keep x where the inversion has no positive root
    far = -2.0 * (log_target - (a - 1.0) * math.log(0.5 * x) + math.lgamma(a))
    return far if far > 0.0 else x


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
        gap = hi - lo
        if gap <= _QUANTILE_STEP_TOL * lo:
            return x
        if gap <= _SUBNORMAL_STEP:  # adjacent floats below 2**-1022
            if target < _FLOAT_MIN:
                # the tail kernel flushes values below about 2**-1022 to 0, so the
                # bracket may have closed on that flush rather than on the root
                raise ConvergenceError(
                    f"chi-square quantile: tail probability {target} is below the "
                    f"kernel's underflow (df={df}, tail={'upper' if upper else 'lower'})"
                )
            return x
        new = step = math.nan
        if value > 0.0:
            # d log(tail) / dt = +-x f(x) / tail, where log(x f(x)) = a log(x/2) - x/2 - lgamma(a)
            h = 0.5 * x
            log_h = math.log(h) if h > 0.0 else math.log(x) - _LOG2
            log_slope = a * log_h - h - lga - math.log(value)
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
