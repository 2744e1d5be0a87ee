"""One-parameter exponential-family models.

A model is the density ``exp{-log zeta(theta) - alpha(theta) d(x) + v(x)}``
on its support, with ``beta(theta) = zeta'(theta) / (zeta(theta) alpha'(theta))``
and Fisher information ``K(theta) = alpha'(theta) beta'(theta)``.  The module
ships a nine-entry catalog (normal with either parameter tested, inverse
normal likewise, gamma, truncated extreme value, Pareto, Laplace, power),
analytic cumulants, maximum likelihood estimation, and seedable samplers.
It owns the refusal of derivatives past the float range: ``_derivatives`` names
it for the Fisher information, the cumulants and the local power coefficients,
whether a derivative raises or comes out inf or NaN.
Each catalog sampler is a :class:`LawSampler`: besides drawing observations
it draws the mean of the sufficient statistic, d-bar, straight from its
closed-form law (gamma, normal or inverse Gaussian), in O(1) per draw, and
forms only the prefix of its draws that the caller keeps.
There is one law function per family: ``_dbar_gamma`` draws the affine gamma
``shift + sign Gamma`` whose shape, scale or rate, shift and sign each block
binds, and ``_dbar_normal_mean`` and ``_dbar_invnormal_mu`` draw the other two.

The catalog is one name-keyed table, ``_CATALOG``: each row holds the model's
builder, the name of its one fixed constant (if any) and whether that constant
must be positive, and its ``model info`` strings.  :func:`catalog_model` and
:func:`model_info` share the row lookup, and one check refuses a missing,
extra, non-numeric, non-finite or wrongly signed fixed constant.  ``_model``
adds to a builder's fields the name, the fixed constants, an MLE bracket from
the parameter space and the sampler: its observations are the law of d-bar at
n = 1 where d(x) = x, and the builder's ``draw`` elsewhere.

Catalog callables are module-level functions bound with ``functools.partial``,
so models that share a formula share one function (``c / t^2`` is one).  A
family block gives alpha and beta with their derivatives, the closed-form MLE
and the law of d-bar: ``_gamma_scale(k, c)`` (beta = -theta, d(X) ~ Gamma(k,
scale c theta)) for normal variance, tev and Laplace; ``_gamma_rate(k)`` (alpha
= theta, d(X) ~ Gamma(k, rate theta)) for gamma and inverse normal shape; and
``_log_exponential(x0, s)`` (d(X) = log x0 + s Exp(rate theta)) for Pareto
(s = 1) and power (s = -1).  A builder adds what its block lacks (d, v, the
support, log zeta, a ``draw``); the two mean-tested normals bind every field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    EstimationError,
    GradpowerError,
    _check_integer,
)

__all__ = [
    "CATALOG_NAMES",
    "CumulantSet",
    "ExpFamModel",
    "LawSampler",
    "Support",
    "catalog_model",
    "checked_data",
    "cumulants",
    "load_data",
    "mle",
    "mle_from_dbar",
    "model_info",
    "sample",
]

_LOG_2PI = math.log(2.0 * math.pi)
# rounds of the gamma rejection sampler: each round accepts at least 95% of the
# draws still missing (Marsaglia-Tsang), so a working stream finishes in a few
_GAMMA_MAX_ROUNDS = 64
# Brent root finder: absolute bracket tolerance and iteration cap
_BRENT_XTOL = 1e-14
_BRENT_MAX_ITER = 200
_TINY = float(np.finfo(float).tiny)  # the smallest normal float


@dataclass(frozen=True)
class Support:
    """Open interval ``(lo, hi)`` of observable values."""

    lo: float = -math.inf
    hi: float = math.inf

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(np.isfinite(x) & (x > self.lo) & (x < self.hi)))

    def __str__(self) -> str:
        return f"({self.lo}, {self.hi})"


@dataclass(frozen=True)
class ExpFamModel:
    """A one-parameter exponential-family model definition.

    ``alpha`` and ``beta`` come with analytic first/second derivatives;
    numerical differentiation is deliberately avoided so the cumulant chain
    stays auditable.  ``sampler(theta, n, rng)`` must consume only the given
    ``numpy.random.Generator`` and return ``n`` i.i.d. draws.  A sampler that
    also has ``dbar(theta, n, size, rng, take)`` (a :class:`LawSampler`) lets the
    simulation draw d-bar from its exact law instead of averaging draws.

    Either way the simulation evaluates a whole chunk of estimates at once, so
    for every model ``mle_closed_form`` and the callables evaluated at the
    estimate (``alpha``, ``alpha_d1``, ``beta``, ``beta_d1``, ``log_zeta``)
    must work elementwise on float64 arrays as well as on floats.  A closed
    form flags an estimate it cannot give with a non-finite value (or by
    raising :class:`~gradpower.errors.EstimationError` on a scalar).
    """

    name: str
    alpha: Callable[[float], float]
    alpha_d1: Callable[[float], float]
    alpha_d2: Callable[[float], float]
    log_zeta: Callable[[float], float]
    beta: Callable[[float], float]
    beta_d1: Callable[[float], float]
    beta_d2: Callable[[float], float]
    d: Callable
    v: Callable
    support: Support
    param_space: tuple[float, float]
    sampler: Callable[[float, int, np.random.Generator], np.ndarray]
    fixed_params: Mapping[str, float] = field(default_factory=dict)
    mle_closed_form: Callable[[float], float] | None = None
    mle_bracket: Callable[[float], tuple[float, float]] | None = None

    def in_param_space(self, theta: float) -> bool:
        lo, hi = self.param_space
        return math.isfinite(theta) and lo < theta < hi

    def require_theta(self, theta: float) -> None:
        if not self.in_param_space(theta):
            lo, hi = self.param_space
            raise DomainError(
                f"theta={theta} outside parameter space ({lo}, {hi}) of {self.name!r}"
            )

    def fisher_information(self, theta: float) -> float:
        self.require_theta(theta)
        ap, bp = _derivatives(self, theta, "alpha_d1", "beta_d1")
        return ap * bp


def _derivatives(model: ExpFamModel, theta: float, *names: str) -> list[float]:
    # the named derivatives at theta; a power of theta past the float range, as in c / theta**2
    # at 1e-300 or theta**3 at 1e150, is a numeric failure: the true values may be finite.
    # One that raises and one that comes out inf or NaN are the same fault, refused alike
    try:
        values = [getattr(model, name)(theta) for name in names]
    except (ZeroDivisionError, OverflowError):
        values = None
    return _in_range(model, theta, values)


def _in_range(model: ExpFamModel, theta: float, values):
    # ``values``, derivatives at theta or the products that form its cumulants, if all are
    # finite; None (a derivative raised) or any inf or NaN is refused by one name
    if values is None or not all(map(math.isfinite, values)):
        raise GradpowerError(
            f"derivatives of {model.name!r} leave the float range at theta0={theta}"
        )
    return values


def _third_order(model: ExpFamModel, theta: float) -> tuple[float, float, float, float, float]:
    # K = a'b', P = 2a''b' + a'b'', Q = a''b', R = a'b'' - a''b' and a'b'' (a = alpha, b = beta)
    # at theta; each caller refuses by _in_range a product that overflows
    ap, app, bp, bpp = _derivatives(model, theta, "alpha_d1", "alpha_d2", "beta_d1", "beta_d2")
    return ap * bp, 2.0 * app * bp + ap * bpp, app * bp, ap * bpp - app * bp, ap * bpp


@dataclass(frozen=True)
class CumulantSet:
    """Per-observation log-likelihood cumulants at a fixed parameter value.

    ``k_tt`` is the expected second derivative (negative Fisher information),
    ``k_ttt`` the expected third derivative, ``k_t_tt`` the score-Hessian
    cross moment, ``k_t_t_t`` the third score cumulant, and ``k_inv`` the
    reciprocal ``-1/k_tt``.
    """

    k_tt: float
    k_ttt: float
    k_t_tt: float
    k_t_t_t: float
    k_inv: float


def cumulants(model: ExpFamModel, theta: float) -> CumulantSet:
    """Evaluate the four third-order cumulants from the analytic derivatives."""
    model.require_theta(theta)
    K, P, Q, R, _ = _in_range(model, theta, _third_order(model, theta))
    return CumulantSet(k_tt=-K, k_ttt=-P, k_t_tt=Q, k_t_t_t=R, k_inv=1.0 / K)


# ------------------------------------------------------------------ #
# Sampling primitives (uniform-driven, fully determined by the stream)
# ------------------------------------------------------------------ #


def _open_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    # uniforms in the open interval (0, 1); Generator.random() covers [0, 1)
    u = rng.random(n)
    if not u.all():  # a zero is rare, so the mask is built only when one exists
        u[u == 0.0] = 2.0 ** -54
    return u


def _box_muller(u1: np.ndarray, u2: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Normals ``lo..hi-1`` of the Box-Muller layout over the uniform pairs ``(u1, u2)``.

    Normal ``i`` is ``r cos(a)`` of pair ``i`` below ``m = u1.size`` and ``r sin(a)``
    of pair ``i - m`` from ``m`` on, with ``r = sqrt(-2 log u1)`` and
    ``a = 2 pi u2``.  The pairs are drawn in full by the caller, so the stream's
    consumption is fixed by the layout alone.  Each call forms, in place, the
    radii and angles of the pairs it first reaches, so the calls on one layout
    must run in order from ``lo = 0``, each starting at the last one's ``hi``.
    """
    m = u1.size
    z = np.empty(hi - lo)
    if lo < m:
        top = min(hi, m)
        r, ang = u1[lo:top], u2[lo:top]
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        ang *= 2.0 * math.pi
        np.multiply(r, np.cos(ang), out=z[:top - lo])
    if hi > m:
        a = max(lo, m) - m
        np.multiply(u1[a:hi - m], np.sin(u2[a:hi - m]), out=z[a + m - lo:])
    return z


def _box_muller_pairs(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    # the (n + 1) // 2 uniform pairs of n Box-Muller normals
    m = (n + 1) // 2
    return _open_unit(rng, m), rng.random(m)


def _prefix(n: int, take: int | None) -> int:
    # a law draw's prefix length: n when take is None, else take, checked to lie in [0, n]
    if take is None:
        return n
    _check_integer("take", take)
    if not 0 <= take <= n:
        raise DomainError(f"take must lie in [0, {n}], got {take}")
    return take


def _standard_normal(rng: np.random.Generator, n: int, take: int | None = None) -> np.ndarray:
    # the first take (default n) of n Box-Muller normals; the stream moves as for all n
    return _box_muller(*_box_muller_pairs(rng, n), 0, n if take is None else take)


def _gamma_unit_rate(
    rng: np.random.Generator, shape: float, n: int, take: int | None = None
) -> np.ndarray:
    # The first take (default n) of n Marsaglia-Tsang squeeze-rejection draws, valid
    # for all shape > 0 via the u^(1/shape) boost below one.  A round draws all its
    # uniforms but forms its proposals in slices, in order, only until take values are
    # accepted; a round that runs out has formed them all, so the next one starts
    # where the full draw's does.  The boost uniforms follow every round, so below
    # shape one every round is formed in full.
    k = shape if shape >= 1.0 else shape + 1.0
    dd = k - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * dd)
    take = n if take is None else take
    want = take if shape >= 1.0 else n
    out = np.empty(n)
    filled = 0
    for _ in range(_GAMMA_MAX_ROUNDS):
        if filled >= want:
            break
        m = n - filled
        u1, u2 = _box_muller_pairs(rng, m)
        u_round = _open_unit(rng, m)
        lo = 0
        while lo < m and filled < want:
            # the proposals still missing, with a margin that the lowest acceptance
            # rate (about 95%, at shape one) nearly always covers
            need = want - filled
            hi = min(m, lo + need + (need >> 4) + 64)
            z, u = _box_muller(u1, u2, lo, hi), u_round[lo:hi]
            lo = hi
            v = (1.0 + c * z) ** 3
            pos = v > 0.0
            vsafe = v if pos.all() else np.where(pos, v, 1.0)
            # Accept on squeeze | full, but with the exact log test first: numpy's
            # float64 pow leaves its SIMD loop for a negative base, so z ** 4 over
            # the whole array costs more than the logs.  The squeeze then runs
            # only on the exact test's misses; each z ** 4 is the same float on a
            # gathered subset, so the draws do not change.  The exact test's right
            # side, 0.5 z z + dd ((1 - v) + log v), is formed in place: the same
            # operations, each commutative, so the same floats
            bound = np.log(vsafe)
            bound += 1.0 - vsafe
            bound *= dd
            zz = 0.5 * z
            zz *= z
            bound += zz
            ok = pos & (np.log(u) < bound)
            miss = np.flatnonzero(pos & ~ok)
            ok[miss] = u[miss] < 1.0 - 0.0331 * z[miss] ** 4
            acc = dd * v[ok]
            out[filled : filled + acc.size] = acc
            filled += acc.size
    if filled < want:  # every round was formed in full, so filled is the full draw's
        raise ConvergenceError(
            f"gamma rejection sampler left {n - filled} of {n} draws unaccepted "
            f"after {_GAMMA_MAX_ROUNDS} rounds (shape={shape})"
        )
    out = out[:take]
    if shape < 1.0:
        out *= _open_unit(rng, n)[:take] ** (1.0 / shape)
    return out


def _invgauss(
    mu: float, lam: float, n: int, rng: np.random.Generator, take: int | None = None
) -> np.ndarray:
    # The first take (default n) of n Michael-Schucany-Haas draws: one squared normal,
    # one uniform per draw.  The roots have product mu^2; the larger is a sum of
    # positive terms, and the smaller is taken as mu^2 over it, which keeps its
    # relative accuracy where their difference form cancels (a small shape lam)
    z = _standard_normal(rng, n, take)
    y = z * z
    x2 = mu + mu * mu * y / (2.0 * lam) + (mu / (2.0 * lam)) * np.sqrt(
        4.0 * mu * lam * y + (mu * y) ** 2
    )
    x1 = mu * mu / x2
    u = rng.random(n)[:take]
    return np.where(u <= mu / (mu + x1), x1, x2)


def _sample_normal_variance(mu, theta, n, rng):
    return mu + math.sqrt(theta) * _standard_normal(rng, n)


def _sample_tev(theta, n, rng):
    e = -np.log(_open_unit(rng, n))
    return np.log1p(theta * e)


def _sample_laplace(k, theta, n, rng):
    s = _open_unit(rng, n) - 0.5
    return k - theta * np.sign(s) * np.log1p(-2.0 * np.abs(s))


def _sample_log_exp(x0, s, theta, n, rng):
    # x0 U^(-s / theta): log X = log x0 + s Exp(rate theta), as -log U is Exp(1)
    return x0 * _open_unit(rng, n) ** (-s / theta)


# Exact laws of d-bar over n observations, ``(theta, n, size, rng, take=None) ->
# the first take (default size) of size draws``: one per family.  Every catalog
# d(X) is gamma, normal or inverse Gaussian, and each of those families is closed
# under taking means.


def _dbar_gamma(theta, n, size, rng, take=None, *, k, c=None, shift=0.0, sign=1.0):
    # d(X) = shift + sign G with G ~ Gamma(k, scale c theta), or Gamma(k, rate theta)
    # when c is None, so d-bar = shift + sign Gamma(n k, scale c theta / n or rate
    # n theta); the shift and the sign are exact
    g = _gamma_unit_rate(rng, n * k, size, _prefix(size, take))
    g = g / (n * theta) if c is None else g * (c * theta / n)
    return g if shift == 0.0 and sign == 1.0 else shift + sign * g


def _dbar_normal_mean(var, theta, n, size, rng, take=None):
    return theta + math.sqrt(var / n) * _standard_normal(rng, size, _prefix(size, take))


def _dbar_invnormal_mu(lam, theta, n, size, rng, take=None):
    # the mean of n draws of IG(mu, lam) is IG(mu, n lam)
    return _invgauss(theta, n * lam, size, rng, _prefix(size, take))


@dataclass(frozen=True)
class LawSampler:
    """A sampler that also draws d-bar, the mean of d over n observations, exactly.

    ``sampler(theta, n, rng)`` returns ``n`` observations from ``draw``;
    ``sampler.dbar(theta, n, size, rng, take=None)`` returns the first ``take``
    (default ``size``) of ``size`` independent draws of d-bar from its
    closed-form law, consuming only ``rng``.  They equal
    ``sampler.dbar(theta, n, size, rng)[:take]`` bit for bit: every uniform
    array is drawn at its full length, and only the transforms are cut to the
    prefix, so the cost falls with ``take``.  Where a partial draw leaves the
    stream is not part of the contract (a gamma draw stops at the rejection
    round that fills the prefix), and a full draw whose rejection rounds run
    out raises where a prefix that they fill does not.  A ``take`` that is no
    integer or lies outside [0, ``size``] raises :class:`DomainError`.  The law
    is bound to the sampler, so a model whose sampler is replaced carries no
    stale law.  The simulation calls a user's law the same way, with ``take``
    as the fifth positional argument; one that forms all ``size`` draws and
    returns their first ``take`` meets the contract, and one that takes no
    ``take`` is refused with a :class:`TypeError` naming it.
    """

    draw: Callable[[float, int, np.random.Generator], np.ndarray]
    dbar: Callable[[float, int, int, np.random.Generator, int | None], np.ndarray]

    def __call__(self, theta: float, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.draw(theta, n, rng)


def _one_observation_law(law, theta, n, rng):
    # for d(x) = x, n observations are n draws of d-bar over one observation
    return law(theta, 1, n, rng)


# ------------------------------------------------------------------ #
# Catalog building blocks
# ------------------------------------------------------------------ #


def _identity(t):
    return t


def _const(c, t):
    return c


def _neg(t):
    return -t


def _over(c, t):
    return c / t


def _over_sq(c, t):
    return c / (t * t)


def _over_cube(c, t):
    t3 = t ** 3
    q = c / t3
    if isinstance(q, np.ndarray) and not (
        np.isfinite(q).all() and q.all() and np.abs(t3).min(initial=math.inf) >= _TINY
    ):
        # t**3 leaves the float range, or keeps only a few bits as a subnormal, where
        # c / t**3 may not: those rows of an array of estimates divide step by step;
        # the scalar path keeps the direct form
        redo = ~np.isfinite(q) | (q == 0.0) | (np.abs(t3) < _TINY)
        redo &= np.isfinite(t) & (t != 0.0)
        if math.isfinite(c) and c != 0.0 and redo.any():
            tr = t[redo]
            q[redo] = c / tr / tr / tr
    return q


def _log(t):
    # numpy's log (which may round differently) only for an array of estimates,
    # so scalar statistics stay on libm's log bit for bit
    return np.log(t) if isinstance(t, np.ndarray) else math.log(t)


# normal, variance tested (mean fixed)
def _nv_d(mu, x):
    return (x - mu) ** 2


def _nv_v(x):
    return x * 0.0 - 0.5 * _LOG_2PI


# normal, mean tested (variance fixed)
def _nm_alpha(var, t):
    return -t / var


def _nm_log_zeta(var, t):
    return t * t / (2.0 * var)


def _nm_v(var, x):
    return -x * x / (2.0 * var) - 0.5 * math.log(2.0 * math.pi * var)


# inverse normal, shape tested (mean fixed): zeta and beta are gamma's at k = 1/2
def _ivt_d(mu, x):
    return (x - mu) ** 2 / (2.0 * mu * mu * x)


def _ivt_v(x):
    return -0.5 * (_LOG_2PI + 3.0 * np.log(x))


# inverse normal, mean tested (shape fixed)
def _ivm_alpha(lam, t):
    return lam / (2.0 * t * t)


def _ivm_alpha_d2(lam, t):
    return 3.0 * lam / t ** 4


def _ivm_v(lam, x):
    return -lam / (2.0 * x) + 0.5 * (math.log(lam) - _LOG_2PI - 3.0 * np.log(x))


# gamma, rate tested (shape fixed)
def _gam_log_zeta(k, t):
    return -k * _log(t)


def _gam_v(k, x):
    return (k - 1.0) * np.log(x) - math.lgamma(k)


# Laplace, scale tested (location fixed)
def _lap_log_zeta(t):
    return _log(2.0 * t)


def _lap_d(k, x):
    return np.abs(x - k)


# Pareto and power, exponent tested: log X = b + s Exp(rate theta) with b the log
# of the fixed end, s = 1 above it (Pareto) and s = -1 below it (power)
def _lx_alpha(s, t):
    return 1.0 + s * t


def _lx_beta(s, b, t):
    return -s / t - b


def _lx_mle(s, sb, dbar):
    # s / (dbar - b), the root of beta + dbar = 0, with a difference of +0 at dbar = b
    return 1.0 / (s * dbar - sb)


# two log zeta: one shared form would flip the sign of a NaN from the log of t < 0
def _par_log_zeta(k, t):
    return -_log(t) - t * math.log(k)


def _pow_log_zeta(phi, t):
    return t * math.log(phi) - _log(t)


def _zero_v(x):
    return x * 0.0


def _bracket_positive(closed, dbar):
    c = closed(dbar)
    if not (math.isfinite(c) and c > 0.0):
        raise EstimationError(f"cannot bracket MLE for dbar={dbar}")
    return (c / 16.0, c * 16.0)


def _bracket_real(closed, dbar):
    # the one real-line model's closed form is the identity, and d-bar is finite here
    c = closed(dbar)
    w = 8.0 * (1.0 + abs(c))
    return (c - w, c + w)


_POSITIVE = (0.0, math.inf)
_REAL = (-math.inf, math.inf)

# beta(theta) = -theta, so d-bar is its own estimate
_NEG_BETA = dict(
    beta=_neg,
    beta_d1=partial(_const, -1.0),
    beta_d2=partial(_const, 0.0),
    mle_closed_form=_identity,
)


def _gamma_scale(k, c):
    # beta = -theta and alpha = 1 / (c theta): d(X) is Gamma(k, scale c theta)
    return dict(
        _NEG_BETA,
        alpha=partial(_over, 1.0 / c),
        alpha_d1=partial(_over_sq, -1.0 / c),
        alpha_d2=partial(_over_cube, 2.0 / c),
        dbar=partial(_dbar_gamma, k=k, c=c),
    )


def _gamma_rate(k):
    # alpha(theta) = theta and zeta(theta) = theta^-k: d(X) is Gamma(k, rate theta)
    return dict(
        alpha=_identity,
        alpha_d1=partial(_const, 1.0),
        alpha_d2=partial(_const, 0.0),
        log_zeta=partial(_gam_log_zeta, k),
        beta=partial(_over, -k),
        beta_d1=partial(_over_sq, k),
        beta_d2=partial(_over_cube, -2.0 * k),
        mle_closed_form=partial(_over, k),
        dbar=partial(_dbar_gamma, k=k),
    )


def _log_exponential(x0, s):
    # alpha = 1 + s theta and beta = -s / theta - b; log zeta and the support are the builders'
    b = math.log(x0)
    return dict(
        alpha=partial(_lx_alpha, s),
        alpha_d1=partial(_const, s),
        alpha_d2=partial(_const, 0.0),
        beta=partial(_lx_beta, s, b),
        beta_d1=partial(_over_sq, s),
        beta_d2=partial(_over_cube, -2.0 * s),
        mle_closed_form=partial(_lx_mle, s, s * b),
        dbar=partial(_dbar_gamma, k=1.0, shift=b, sign=s),
        d=np.log,
        v=_zero_v,
        draw=partial(_sample_log_exp, x0, s),
    )


# Each builder maps the model's checked fixed constant to its fields, its block's and
# its own: d, v, the support, log zeta where the block has none, and a draw if d(x) != x.


def _normal_variance(mu):
    return dict(
        _gamma_scale(0.5, 2.0),
        log_zeta=partial(_gam_log_zeta, -0.5),  # zeta = sqrt(theta), gamma's at k = -1/2
        d=partial(_nv_d, mu),
        v=_nv_v,
        support=Support(),
        draw=partial(_sample_normal_variance, mu),
    )


def _normal_mean(var):
    return dict(
        _NEG_BETA,
        alpha=partial(_nm_alpha, var),
        alpha_d1=partial(_const, -1.0 / var),
        alpha_d2=partial(_const, 0.0),
        log_zeta=partial(_nm_log_zeta, var),
        d=_identity,
        v=partial(_nm_v, var),
        support=Support(),
        param_space=_REAL,
        dbar=partial(_dbar_normal_mean, var),
    )


def _invnormal_theta(mu):
    return dict(
        _gamma_rate(0.5),
        d=partial(_ivt_d, mu),
        v=_ivt_v,
        support=Support(lo=0.0),
        draw=partial(_invgauss, mu),
    )


def _invnormal_mu(lam):
    return dict(
        _NEG_BETA,
        alpha=partial(_ivm_alpha, lam),
        alpha_d1=partial(_over_cube, -lam),
        alpha_d2=partial(_ivm_alpha_d2, lam),
        log_zeta=partial(_over, -lam),
        d=_identity,
        v=partial(_ivm_v, lam),
        support=Support(lo=0.0),
        dbar=partial(_dbar_invnormal_mu, lam),
    )


def _gamma(k):
    return dict(
        _gamma_rate(k),
        d=_identity,
        v=partial(_gam_v, k),
        support=Support(lo=0.0),
    )


def _tev():
    return dict(
        _gamma_scale(1.0, 1.0),
        log_zeta=_log,
        d=np.expm1,
        v=_identity,
        support=Support(lo=0.0),
        draw=_sample_tev,
    )


def _pareto(k):
    return dict(
        _log_exponential(k, 1.0),
        log_zeta=partial(_par_log_zeta, k),
        support=Support(lo=k),
    )


def _laplace(k):
    # the density only normalizes on the whole real line, so the support is R
    return dict(
        _gamma_scale(1.0, 1.0),
        log_zeta=_lap_log_zeta,
        d=partial(_lap_d, k),
        v=_zero_v,
        support=Support(),
        draw=partial(_sample_laplace, k),
    )


def _power(phi):
    # theta * phi^-theta * x^(theta-1) integrates to one on (0, phi)
    return dict(
        _log_exponential(phi, -1.0),
        log_zeta=partial(_pow_log_zeta, phi),
        support=Support(lo=0.0, hi=phi),
    )


class _Entry(NamedTuple):
    """One catalog row: its builder, its one fixed constant, its ``model info``."""

    build: Callable[..., dict]
    key: str | None  # the fixed constant's name; None for a model without one
    positive: bool  # whether the fixed constant must be > 0
    info: Mapping[str, str]


_CATALOG = {
    "normal-variance": _Entry(_normal_variance, "mu", False, {
        "distribution": "normal with known mean mu, variance theta tested",
        "alpha": "1/(2 theta)",
        "zeta": "sqrt(theta)",
        "d": "(x - mu)^2",
        "v": "-log(2 pi)/2",
        "mle": "theta_hat = mean((x - mu)^2)",
        "fixed": "mu (real)",
        "support": "(-inf, inf)",
        "param_space": "theta > 0",
    }),
    "normal-mean": _Entry(_normal_mean, "theta", True, {
        "distribution": "normal with known variance theta, mean tested",
        "alpha": "-mu/theta",
        "zeta": "exp(mu^2/(2 theta))",
        "d": "x",
        "v": "-x^2/(2 theta) - log(2 pi theta)/2",
        "mle": "mu_hat = mean(x)",
        "fixed": "theta (> 0)",
        "support": "(-inf, inf)",
        "param_space": "mu real",
    }),
    "invnormal-theta": _Entry(_invnormal_theta, "mu", True, {
        "distribution": "inverse normal with known mean mu, shape theta tested",
        "alpha": "theta",
        "zeta": "theta^(-1/2)",
        "d": "(x - mu)^2 / (2 mu^2 x)",
        "v": "-log(2 pi x^3)/2",
        "mle": "theta_hat = 1 / (2 mean(d))",
        "fixed": "mu (> 0)",
        "support": "x > 0",
        "param_space": "theta > 0",
    }),
    "invnormal-mu": _Entry(_invnormal_mu, "theta", True, {
        "distribution": "inverse normal with known shape theta, mean mu tested",
        "alpha": "theta/(2 mu^2)",
        "zeta": "exp(-theta/mu)",
        "d": "x",
        "v": "-theta/(2x) + log(theta/(2 pi x^3))/2",
        "mle": "mu_hat = mean(x)",
        "fixed": "theta (> 0)",
        "support": "x > 0",
        "param_space": "mu > 0",
    }),
    "gamma": _Entry(_gamma, "k", True, {
        "distribution": "gamma with known shape k, rate theta tested",
        "alpha": "theta",
        "zeta": "theta^(-k)",
        "d": "x",
        "v": "(k-1) log(x) - log(Gamma(k))",
        "mle": "theta_hat = k / mean(x)",
        "fixed": "k (> 0)",
        "support": "x > 0",
        "param_space": "theta > 0",
    }),
    "tev": _Entry(_tev, None, False, {
        "distribution": "truncated extreme value, scale theta tested",
        "alpha": "1/theta",
        "zeta": "theta",
        "d": "exp(x) - 1",
        "v": "x",
        "mle": "theta_hat = mean(exp(x) - 1)",
        "fixed": "none",
        "support": "x > 0",
        "param_space": "theta > 0",
    }),
    "pareto": _Entry(_pareto, "k", True, {
        "distribution": "Pareto with known scale k, exponent theta tested",
        "alpha": "1 + theta",
        "zeta": "1/(theta k^theta)",
        "d": "log(x)",
        "v": "0",
        "mle": "theta_hat = 1 / mean(log(x/k))",
        "fixed": "k (> 0)",
        "support": "x > k",
        "param_space": "theta > 0",
    }),
    "laplace": _Entry(_laplace, "k", False, {
        "distribution": "Laplace with known location k, scale theta tested",
        "alpha": "1/theta",
        "zeta": "2 theta",
        "d": "|x - k|",
        "v": "0",
        "mle": "theta_hat = mean(|x - k|)",
        "fixed": "k (real)",
        "support": "(-inf, inf)",
        "param_space": "theta > 0",
    }),
    "power": _Entry(_power, "phi", True, {
        "distribution": "power on (0, phi) with known phi, exponent theta tested",
        "alpha": "1 - theta",
        "zeta": "phi^theta / theta",
        "d": "log(x)",
        "v": "0",
        "mle": "theta_hat = 1 / mean(log(phi/x))",
        "fixed": "phi (> 0)",
        "support": "0 < x < phi",
        "param_space": "theta > 0",
    }),
}

CATALOG_NAMES = tuple(_CATALOG)


def _entry(name: str) -> _Entry:
    if not isinstance(name, str) or name not in _CATALOG:
        raise DomainError(
            f"unknown model {name!r}; available: {', '.join(CATALOG_NAMES)}"
        )
    return _CATALOG[name]


def _checked_fixed(name: str, entry: _Entry, fixed: Mapping) -> dict[str, float]:
    # exactly the entry's one fixed constant, as a finite float of the right sign
    key = entry.key
    if key is None:
        if fixed:
            raise DomainError(f"model {name!r} takes no fixed constants, got {sorted(fixed)}")
        return {}
    if key not in fixed:
        raise DomainError(f"model {name!r} requires fixed constant {key!r}")
    try:
        val = float(fixed[key])
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"fixed constant {key}={fixed[key]!r} must be a real number") from None
    if not math.isfinite(val):
        raise DomainError(f"fixed constant {key}={fixed[key]} must be finite")
    if entry.positive and val <= 0.0:
        raise DomainError(f"fixed constant {key}={val} must be positive for {name!r}")
    extra = set(fixed) - {key}
    if extra:
        raise DomainError(f"model {name!r} got unexpected fixed constants {sorted(extra)}")
    return {key: val}


def _model(name, fixed_params, param_space=_POSITIVE, *, dbar, draw=None, **fields) -> ExpFamModel:
    # _bracket_positive needs a positive estimate, which only a space other than R ensures
    bracket = _bracket_real if param_space == _REAL else _bracket_positive
    if draw is None:  # d(x) = x: the observations are the law of d-bar at n = 1
        draw = partial(_one_observation_law, dbar)
    return ExpFamModel(
        name=name,
        param_space=param_space,
        fixed_params=fixed_params,
        mle_bracket=partial(bracket, fields["mle_closed_form"]),
        sampler=LawSampler(draw, dbar),
        **fields,
    )


def catalog_model(name: str, fixed: Mapping[str, float] | None = None) -> ExpFamModel:
    """Build a catalog model by name, binding its fixed constants."""
    entry = _entry(name)
    fixed = _checked_fixed(name, entry, dict(fixed or {}))
    return _model(name, fixed, **entry.build(*fixed.values()))


def model_info(name: str) -> Mapping[str, str]:
    """Static description of a catalog entry (functional forms, MLE, support)."""
    return dict(_entry(name).info)


# ------------------------------------------------------------------ #
# Estimation
# ------------------------------------------------------------------ #


def _brent(f, a: float, b: float) -> float:
    # classic Brent root finder: bisection / secant / inverse quadratic
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise EstimationError(f"root not bracketed on [{a}, {b}]")
    c, fc = a, fa
    d = e = b - a
    for _ in range(_BRENT_MAX_ITER):
        if fb * fc > 0.0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * 2.220446049250313e-16 * abs(b) + 0.5 * _BRENT_XTOL
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = f(b)
    return b


def mle_from_dbar(model: ExpFamModel, d_bar: float | np.ndarray) -> float | np.ndarray:
    """Solve ``beta(theta) + d_bar = 0`` for theta.

    Uses the model's closed form when available, otherwise Brent iteration on
    the model-supplied bracket.  Raises :class:`EstimationError` when the root
    is absent or lands outside the parameter space (degenerate samples).

    Given a float64 array of d-bar values, returns the array of estimates and
    makes the same checks element by element: an element that would raise
    gets a NaN estimate instead.  Where every element passes and the closed
    form is the identity, the result is ``d_bar`` itself, so write to neither.
    """
    if isinstance(d_bar, np.ndarray):
        return _mle_from_dbars(model, d_bar)
    if not math.isfinite(d_bar):
        raise EstimationError(f"non-finite sufficient-statistic mean {d_bar}")
    if model.mle_closed_form is None and model.mle_bracket is None:
        raise EstimationError(
            f"model {model.name!r} provides neither a closed-form MLE nor a bracket"
        )
    try:
        if model.mle_closed_form is not None:
            theta = float(model.mle_closed_form(d_bar))
        else:
            lo, hi = model.mle_bracket(d_bar)
            theta = _brent(lambda t: model.beta(t) + d_bar, lo, hi)
    except ZeroDivisionError:
        raise EstimationError(f"degenerate sample: dbar={d_bar}") from None
    if not model.in_param_space(theta):
        raise EstimationError(
            f"MLE {theta} outside parameter space of {model.name!r} (dbar={d_bar})"
        )
    resid = model.beta(theta) + d_bar
    if abs(resid) > 1e-12 * (1.0 + abs(d_bar)):
        raise EstimationError(
            f"MLE residual {resid} too large for {model.name!r} at theta={theta}"
        )
    return theta


def _mle_from_dbars(model: ExpFamModel, d_bar: np.ndarray) -> np.ndarray:
    # the scalar checks, element by element; a failed element gets NaN
    if model.mle_closed_form is None:
        theta = np.empty(d_bar.shape)
        for i, d in np.ndenumerate(d_bar):
            try:
                theta[i] = mle_from_dbar(model, float(d))
            except EstimationError:
                theta[i] = math.nan
        return theta
    # a zero division gives an infinite or NaN estimate, which the checks refuse
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        theta = np.asarray(model.mle_closed_form(d_bar), dtype=float)
        lo, hi = model.param_space
        ok = np.isfinite(d_bar) & np.isfinite(theta) & (lo < theta) & (theta < hi)
        resid = model.beta(theta) + d_bar
        ok &= ~(np.abs(resid) > 1e-12 * (1.0 + np.abs(d_bar)))
    return theta if ok.all() else np.where(ok, theta, math.nan)


def checked_data(model: ExpFamModel, data) -> np.ndarray:
    """``data`` as a float array, refused if empty or outside the model's support."""
    x = np.asarray(data, dtype=float)
    if x.size == 0:
        raise DomainError("data must be nonempty")
    if not model.support.contains(x):
        raise DomainError(
            f"data contain values outside the support {model.support} of {model.name!r}"
        )
    return x


def mle(model: ExpFamModel, data) -> float:
    """Maximum likelihood estimate of theta from observations."""
    x = checked_data(model, data)
    return mle_from_dbar(model, float(np.mean(model.d(x))))


def sample(
    model: ExpFamModel, theta: float, n: int, stream: np.random.Generator
) -> np.ndarray:
    """Draw ``n`` i.i.d. observations at ``theta``, consuming only ``stream``.

    Raises :class:`DomainError` for a ``theta`` outside the parameter space and
    for an ``n`` that is not an integer (a float or a bool included) or is below 1.
    """
    model.require_theta(theta)
    _check_integer("n", n)
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    return model.sampler(theta, int(n), stream)


def load_data(path) -> np.ndarray:
    """Read one observation per line; blank lines and ``#`` comments ignored."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                try:
                    values.append(float(text))
                except ValueError:
                    raise DomainError(f"{path}:{lineno}: cannot parse {text!r} as a number")
        except UnicodeDecodeError as exc:
            raise DomainError(f"{path}: not UTF-8 text: {exc}") from None
    if not values:
        raise DomainError(f"{path}: no observations found")
    return np.asarray(values, dtype=float)
