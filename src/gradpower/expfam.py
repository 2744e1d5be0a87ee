"""One-parameter exponential-family models.

A model is the density ``exp{-log zeta(theta) - alpha(theta) d(x) + v(x)}``
on its support, with ``beta(theta) = zeta'(theta) / (zeta(theta) alpha'(theta))``
and Fisher information ``K(theta) = alpha'(theta) beta'(theta)``.  The module
ships a nine-entry catalog (normal with either parameter tested, inverse
normal likewise, gamma, truncated extreme value, Pareto, Laplace, power),
analytic cumulants, maximum likelihood estimation, and seedable samplers.
Each catalog sampler is a :class:`LawSampler`: besides drawing observations
it draws the mean of the sufficient statistic, d-bar, straight from its
closed-form law (gamma, normal or inverse Gaussian), in O(1) per draw.

The catalog is one name-keyed table, ``_CATALOG``: each row holds the model's
builder, the name of its one fixed constant (if any) and whether that constant
must be positive, and its ``model info`` strings.  :func:`catalog_model` and
:func:`model_info` share the row lookup, and one check refuses a missing,
extra, non-numeric, non-finite or wrongly signed fixed constant.  A builder
returns the model's formulas; ``_model`` adds the name, the fixed constants and
an MLE bracket derived from the parameter space.

All catalog callables are module-level functions bound with
``functools.partial``, so entries that share a formula share one function and
differ only in the constants bound to it: ``c / t``, ``c / t^2`` and ``c / t^3``
are each one function, and the blocks ``_NEG_BETA`` (beta = -theta, so d-bar is
the MLE), ``_scale_alpha(c)`` (alpha = c / theta) and ``_gamma_rate(k)``
(alpha = theta, zeta = theta^-k) give the fields that several models share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError, EstimationError

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


@dataclass(frozen=True)
class Support:
    """Interval of observable values, with open/closed endpoints."""

    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = True
    hi_open: bool = True

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        lo_ok = (x > self.lo) if self.lo_open else (x >= self.lo)
        hi_ok = (x < self.hi) if self.hi_open else (x <= self.hi)
        return bool(np.all(np.isfinite(x) & lo_ok & hi_ok))

    def __str__(self) -> str:
        lb = "(" if self.lo_open else "["
        rb = ")" if self.hi_open else "]"
        return f"{lb}{self.lo}, {self.hi}{rb}"


@dataclass(frozen=True)
class ExpFamModel:
    """A one-parameter exponential-family model definition.

    ``alpha`` and ``beta`` come with analytic first/second derivatives;
    numerical differentiation is deliberately avoided so the cumulant chain
    stays auditable.  ``sampler(theta, n, rng)`` must consume only the given
    ``numpy.random.Generator`` and return ``n`` i.i.d. draws.  A sampler that
    also has ``dbar(theta, n, size, rng)`` (a :class:`LawSampler`) lets the
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
        return self.alpha_d1(theta) * self.beta_d1(theta)


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
    ap = model.alpha_d1(theta)
    app = model.alpha_d2(theta)
    bp = model.beta_d1(theta)
    bpp = model.beta_d2(theta)
    k_tt = -ap * bp
    return CumulantSet(
        k_tt=k_tt,
        k_ttt=-(2.0 * app * bp + ap * bpp),
        k_t_tt=app * bp,
        k_t_t_t=ap * bpp - app * bp,
        k_inv=-1.0 / k_tt,
    )


# ------------------------------------------------------------------ #
# Sampling primitives (uniform-driven, fully determined by the stream)
# ------------------------------------------------------------------ #


def _open_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    # uniforms in the open interval (0, 1); Generator.random() covers [0, 1)
    u = rng.random(n)
    zeros = u == 0.0
    if zeros.any():
        u[zeros] = 2.0 ** -54
    return u


def _standard_normal(rng: np.random.Generator, n: int) -> np.ndarray:
    # Box-Muller on uniform pairs; consumption order is fixed by n alone
    m = (n + 1) // 2
    u1 = _open_unit(rng, m)
    u2 = rng.random(m)
    r = np.sqrt(-2.0 * np.log(u1))
    ang = 2.0 * math.pi * u2
    z = np.concatenate([r * np.cos(ang), r * np.sin(ang)])
    return z[:n]


def _gamma_unit_rate(rng: np.random.Generator, shape: float, n: int) -> np.ndarray:
    # Marsaglia-Tsang squeeze-rejection, valid for all shape > 0 via the
    # u^(1/shape) boost below one.
    k = shape if shape >= 1.0 else shape + 1.0
    dd = k - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * dd)
    out = np.empty(n)
    filled = 0
    for _ in range(_GAMMA_MAX_ROUNDS):
        if filled == n:
            break
        m = n - filled
        z = _standard_normal(rng, m)
        u = _open_unit(rng, m)
        v = (1.0 + c * z) ** 3
        pos = v > 0.0
        vsafe = np.where(pos, v, 1.0)
        # Accept on squeeze | full, but with the exact log test first: numpy's
        # float64 pow leaves its SIMD loop for a negative base, so z ** 4 over
        # the whole array costs more than the logs.  The squeeze then runs
        # only on the exact test's misses; each z ** 4 is the same float on a
        # gathered subset, so the draws do not change.
        full = np.log(u) < 0.5 * z * z + dd * (1.0 - vsafe + np.log(vsafe))
        ok = pos & full
        miss = np.flatnonzero(pos & ~ok)
        ok[miss] = u[miss] < 1.0 - 0.0331 * z[miss] ** 4
        acc = dd * v[ok]
        out[filled : filled + acc.size] = acc
        filled += acc.size
    if filled < n:
        raise ConvergenceError(
            f"gamma rejection sampler left {n - filled} of {n} draws unaccepted "
            f"after {_GAMMA_MAX_ROUNDS} rounds (shape={shape})"
        )
    if shape < 1.0:
        out *= _open_unit(rng, n) ** (1.0 / shape)
    return out


def _invgauss(rng: np.random.Generator, mu: float, lam: float, n: int) -> np.ndarray:
    # Michael-Schucany-Haas: one squared normal, one uniform per draw
    z = _standard_normal(rng, n)
    y = z * z
    x1 = mu + mu * mu * y / (2.0 * lam) - (mu / (2.0 * lam)) * np.sqrt(
        4.0 * mu * lam * y + (mu * y) ** 2
    )
    x1 = np.maximum(x1, 1e-300)
    u = rng.random(n)
    return np.where(u <= mu / (mu + x1), x1, mu * mu / x1)


def _sample_normal_variance(mu, theta, n, rng):
    return mu + math.sqrt(theta) * _standard_normal(rng, n)


def _sample_normal_mean(var, theta, n, rng):
    return theta + math.sqrt(var) * _standard_normal(rng, n)


def _sample_invnormal_theta(mu, theta, n, rng):
    return _invgauss(rng, mu, theta, n)


def _sample_invnormal_mu(lam, theta, n, rng):
    return _invgauss(rng, theta, lam, n)


def _sample_gamma(k, theta, n, rng):
    return _gamma_unit_rate(rng, k, n) / theta


def _sample_tev(theta, n, rng):
    e = -np.log(_open_unit(rng, n))
    return np.log1p(theta * e)


def _sample_pareto(k, theta, n, rng):
    return k * _open_unit(rng, n) ** (-1.0 / theta)


def _sample_laplace(k, theta, n, rng):
    s = _open_unit(rng, n) - 0.5
    return k - theta * np.sign(s) * np.log1p(-2.0 * np.abs(s))


def _sample_power(phi, theta, n, rng):
    return phi * _open_unit(rng, n) ** (1.0 / theta)


# Exact laws of d-bar over n observations, ``(theta, n, size, rng) -> size
# draws``.  Every catalog d(X) is gamma, normal or inverse Gaussian, and each
# of those families is closed under taking means.


def _dbar_gamma_rate(k, theta, n, size, rng):
    # d(X) ~ Gamma(k, rate theta), so d-bar ~ Gamma(n k, rate n theta)
    return _gamma_unit_rate(rng, n * k, size) / (n * theta)


def _dbar_gamma_scale(k, c, theta, n, size, rng):
    # d(X) ~ Gamma(k, scale c theta), so d-bar ~ Gamma(n k, scale c theta / n)
    return _gamma_unit_rate(rng, n * k, size) * (c * theta / n)


def _dbar_pareto(logk, theta, n, size, rng):
    # log X = log k + Exp(rate theta)
    return logk + _dbar_gamma_rate(1.0, theta, n, size, rng)


def _dbar_power(logphi, theta, n, size, rng):
    # log X = log phi - Exp(rate theta)
    return logphi - _dbar_gamma_rate(1.0, theta, n, size, rng)


def _dbar_normal_mean(var, theta, n, size, rng):
    return theta + math.sqrt(var / n) * _standard_normal(rng, size)


def _dbar_invnormal_mu(lam, theta, n, size, rng):
    # the mean of n draws of IG(mu, lam) is IG(mu, n lam)
    return _invgauss(rng, theta, n * lam, size)


@dataclass(frozen=True)
class LawSampler:
    """A sampler that also draws d-bar, the mean of d over n observations, exactly.

    ``sampler(theta, n, rng)`` returns ``n`` observations from ``draw``;
    ``sampler.dbar(theta, n, size, rng)`` returns ``size`` independent draws of
    d-bar from its closed-form law, consuming only ``rng``.  The law is bound
    to the sampler, so a model whose sampler is replaced carries no stale law.
    """

    draw: Callable[[float, int, np.random.Generator], np.ndarray]
    dbar: Callable[[float, int, int, np.random.Generator], np.ndarray]

    def __call__(self, theta: float, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.draw(theta, n, rng)


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
    return c / t ** 3


def _log(t):
    # numpy's log (which may round differently) only for an array of estimates,
    # so scalar statistics stay on libm's log bit for bit
    return np.log(t) if isinstance(t, np.ndarray) else math.log(t)


# normal, variance tested (mean fixed)
def _nv_log_zeta(t):
    return 0.5 * _log(t)


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


# Pareto, exponent tested (scale fixed)
def _par_alpha(t):
    return 1.0 + t


def _par_log_zeta(k, t):
    return -_log(t) - t * math.log(k)


def _par_beta(k, t):
    return -1.0 / t - math.log(k)


def _zero_v(x):
    return x * 0.0


# Laplace, scale tested (location fixed)
def _lap_log_zeta(t):
    return _log(2.0 * t)


def _lap_d(k, x):
    return np.abs(x - k)


# power, exponent tested (upper endpoint fixed)
def _pow_alpha(t):
    return 1.0 - t


def _pow_log_zeta(phi, t):
    return t * math.log(phi) - _log(t)


def _pow_beta(phi, t):
    return 1.0 / t - math.log(phi)


# closed-form MLE roots of beta(theta) + dbar = 0
def _mle_dbar(dbar):
    return dbar


def _mle_pareto(logk, dbar):
    return 1.0 / (dbar - logk)


def _mle_power(logphi, dbar):
    return 1.0 / (logphi - dbar)


def _bracket_positive(closed, dbar):
    c = closed(dbar)
    if not (math.isfinite(c) and c > 0.0):
        raise EstimationError(f"cannot bracket MLE for dbar={dbar}")
    return (c / 16.0, c * 16.0)


def _bracket_real(closed, dbar):
    c = closed(dbar)
    if not math.isfinite(c):
        raise EstimationError(f"cannot bracket MLE for dbar={dbar}")
    w = 8.0 * (1.0 + abs(c))
    return (c - w, c + w)


_POSITIVE = (0.0, math.inf)
_REAL = (-math.inf, math.inf)

# beta(theta) = -theta, so d-bar is its own estimate
_NEG_BETA = dict(
    beta=_neg,
    beta_d1=partial(_const, -1.0),
    beta_d2=partial(_const, 0.0),
    mle_closed_form=_mle_dbar,
)


def _scale_alpha(c):
    # alpha(theta) = c / theta
    return dict(
        alpha=partial(_over, c),
        alpha_d1=partial(_over_sq, -c),
        alpha_d2=partial(_over_cube, 2.0 * c),
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
    )


# Each builder maps the model's checked fixed constant to its ExpFamModel
# fields; name, fixed_params and mle_bracket are filled in by _model.


def _normal_variance(mu):
    return dict(
        _NEG_BETA,
        **_scale_alpha(0.5),
        log_zeta=_nv_log_zeta,
        d=partial(_nv_d, mu),
        v=_nv_v,
        support=Support(),
        sampler=LawSampler(
            partial(_sample_normal_variance, mu), partial(_dbar_gamma_scale, 0.5, 2.0)
        ),
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
        sampler=LawSampler(partial(_sample_normal_mean, var), partial(_dbar_normal_mean, var)),
    )


def _invnormal_theta(mu):
    return dict(
        _gamma_rate(0.5),
        d=partial(_ivt_d, mu),
        v=_ivt_v,
        support=Support(lo=0.0),
        sampler=LawSampler(
            partial(_sample_invnormal_theta, mu), partial(_dbar_gamma_rate, 0.5)
        ),
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
        sampler=LawSampler(
            partial(_sample_invnormal_mu, lam), partial(_dbar_invnormal_mu, lam)
        ),
    )


def _gamma(k):
    return dict(
        _gamma_rate(k),
        d=_identity,
        v=partial(_gam_v, k),
        support=Support(lo=0.0),
        sampler=LawSampler(partial(_sample_gamma, k), partial(_dbar_gamma_rate, k)),
    )


def _tev():
    return dict(
        _NEG_BETA,
        **_scale_alpha(1.0),
        log_zeta=_log,
        d=np.expm1,
        v=_identity,
        support=Support(lo=0.0),
        sampler=LawSampler(_sample_tev, partial(_dbar_gamma_scale, 1.0, 1.0)),
    )


def _pareto(k):
    return dict(
        alpha=_par_alpha,
        alpha_d1=partial(_const, 1.0),
        alpha_d2=partial(_const, 0.0),
        log_zeta=partial(_par_log_zeta, k),
        beta=partial(_par_beta, k),
        beta_d1=partial(_over_sq, 1.0),
        beta_d2=partial(_over_cube, -2.0),
        mle_closed_form=partial(_mle_pareto, math.log(k)),
        d=np.log,
        v=_zero_v,
        support=Support(lo=k),
        sampler=LawSampler(partial(_sample_pareto, k), partial(_dbar_pareto, math.log(k))),
    )


def _laplace(k):
    # the density only normalizes on the whole real line, so the support is R
    return dict(
        _NEG_BETA,
        **_scale_alpha(1.0),
        log_zeta=_lap_log_zeta,
        d=partial(_lap_d, k),
        v=_zero_v,
        support=Support(),
        sampler=LawSampler(partial(_sample_laplace, k), partial(_dbar_gamma_scale, 1.0, 1.0)),
    )


def _power(phi):
    # theta * phi^-theta * x^(theta-1) integrates to one on (0, phi)
    return dict(
        alpha=_pow_alpha,
        alpha_d1=partial(_const, -1.0),
        alpha_d2=partial(_const, 0.0),
        log_zeta=partial(_pow_log_zeta, phi),
        beta=partial(_pow_beta, phi),
        beta_d1=partial(_over_sq, -1.0),
        beta_d2=partial(_over_cube, 2.0),
        mle_closed_form=partial(_mle_power, math.log(phi)),
        d=np.log,
        v=_zero_v,
        support=Support(lo=0.0, hi=phi),
        sampler=LawSampler(partial(_sample_power, phi), partial(_dbar_power, math.log(phi))),
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


def _model(name, fixed_params, param_space=_POSITIVE, **fields) -> ExpFamModel:
    # _bracket_positive needs a positive estimate, which only a space other than R ensures
    bracket = _bracket_real if param_space == _REAL else _bracket_positive
    return ExpFamModel(
        name=name,
        param_space=param_space,
        fixed_params=fixed_params,
        mle_bracket=partial(bracket, fields["mle_closed_form"]),
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


def _brent(f, a: float, b: float, xtol: float = 1e-14, maxiter: int = 200) -> float:
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
    for _ in range(maxiter):
        if fb * fc > 0.0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * 2.220446049250313e-16 * abs(b) + 0.5 * xtol
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
    gets a NaN estimate instead.
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
    return np.where(ok, theta, math.nan)


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
    """Draw ``n`` i.i.d. observations at ``theta``, consuming only ``stream``."""
    model.require_theta(theta)
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
