"""Second-order distribution expansion of the gradient statistic.

Under a sequence of local alternatives ``theta_2 = theta_20 + eps/sqrt(n)``
the statistic's distribution function expands as

    Pr(S <= x) = G_{f,lam}(x) + n^{-1/2} * sum_k a_k G_{f+2k,lam}(x) + O(1/n),

with ``G_{m,lam}`` the Poisson-mixture noncentral chi-square CDF, ``f``
the tested dimension, and ``lam`` half the quadratic form of eps in the
effective information.  This module computes the coefficients ``a_0..a_3``
for the composite case (nuisance block of dimension q) from numeric cumulant
arrays, the simple case (q = 0), and the scalar case (p = 1), plus the
matching first three moments.  The mean comes in two variants whose leading
terms disagree, the literal ``MomentSet.m1`` and the mixture-implied
``PowerExpansion.mixture_mean(n)``; both are exposed so simulation can
arbitrate.

The second-order sum is evaluated telescoped, through
``G_{m+2,lam} = G_{m,lam} - 2 g_{m+2,lam}`` with ``g`` the density:

    sum_k a_k G_{f+2k,lam}(x) = A G_{f,lam}(x) - 2 sum_m C_m g_{f+2m,lam}(x),

with ``A = sum_k a_k`` (zero up to rounding) and ``C_m = sum_{k>=m} a_k``
for m = 1..3.  At f = 1, the scalar case, the CDF and all three densities
are elementary, as in local power and power differences: ``G_1`` from
``erfc`` and ``g_3``, ``g_5``, ``g_7`` from modified spherical Bessel
functions, so no Poisson weights are walked.  Every other f takes them from
one Poisson-mixture walk, which a list of x shares.  Both are evaluated at
n = inf too, where the zero scale drops the second-order sum.

Contractions are single ``np.einsum`` calls over dense arrays, bit-identical to
direct triple loops.  The tested-block contraction zero-pads the drift to
length p rather than slicing the tensor: a sliced tensor sums in another order
and can differ in the last bit.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import _FLOAT_MAX, DomainError, GradpowerError, _check_float_size, _check_integer
from .errors import _check_sample_size
from .expfam import CumulantSet, _real_array
from .specfun import ChiSquareParams, _check_noncentrality, _clamped_mixture, _mixture_grid
from .specfun import _nc_chisq1_densities, nc_chisq1_tails, nc_chisq_mixture
from .specfun import nc_chisq_cdf  # noqa: F401 (unused; perfbench/tracing.py wraps it)

__all__ = [
    "ClampedProbability",
    "CumulantTensors",
    "MomentSet",
    "PowerExpansion",
    "cdf_expansion",
    "composite_coefficients",
    "load_tensor_file",
    "power_equivalence_flags",
    "scalar_coefficients",
    "simple_coefficients",
    "st_moments",
]

_SYM_TOL = 1e-12
# relative tolerance of power_equivalence_flags: a cumulant this small against
# the largest one counts as zero
_EQUIV_TOL = 1e-12
_FULL_SYMMETRY = ((0, 2, 1), (1, 0, 2), (2, 1, 0))
# each array's rank and the axis orders it must be symmetric under, within
# _SYM_TOL of its largest entry (or of 1)
_TENSOR_RULES = {
    "K": (2, ((1, 0),)),
    "k3": (3, _FULL_SYMMETRY),
    "k21": (3, ((0, 2, 1),)),
    "k111": (3, _FULL_SYMMETRY),
}


@dataclass(frozen=True)
class CumulantTensors:
    """Cumulant arrays of the log-likelihood derivatives at the null point.

    ``K`` holds the score covariances, ``k3`` the expected third derivatives
    (fully symmetric), ``k21`` the score/Hessian cross cumulants (symmetric in
    the last two indices, first index is the singly-differentiated one), and
    the optional ``k111`` the third score cumulants (fully symmetric).  The
    first ``q`` coordinates are the nuisance block.

    After ``p`` and ``q``, each array in turn must be real numbers of its shape,
    finite and symmetric as ``_TENSOR_RULES`` says; K must then be positive
    definite, with a finite inverse and, at q > 0, a finite nuisance-block inverse.
    """

    p: int
    q: int
    K: np.ndarray
    k3: np.ndarray
    k21: np.ndarray
    k111: np.ndarray | None = None

    def __post_init__(self):
        _check_integer("p", self.p)
        _check_integer("q", self.q)
        if self.p < 1:
            raise DomainError(f"p must be >= 1, got {self.p}")
        if not (0 <= self.q < self.p):
            raise DomainError(f"q must satisfy 0 <= q < p, got q={self.q}, p={self.p}")
        p, q = self.p, self.q
        for name, (rank, orders) in _TENSOR_RULES.items():
            value = getattr(self, name)
            if value is None and name == "k111":  # the one optional array
                continue
            a = _real_array(name, value)
            if a.shape != (p,) * rank:
                raise DomainError(f"{name} must have shape {(p,) * rank}, got {a.shape}")
            # a NaN or inf entry would otherwise fail a symmetry check or a later step
            # under another name
            if not np.all(np.isfinite(a)):
                raise DomainError(f"{name} must be finite")
            atol = _SYM_TOL * max(1.0, float(np.max(np.abs(a))))
            for order in orders:
                if not np.all(np.abs(a - np.transpose(a, order)) <= atol):
                    raise DomainError(f"{name} must be symmetric under axis order {order}")
            object.__setattr__(self, name, a)
        # K and its nuisance block (None at q = 0) are inverted once, here, for every
        # expansion: a K that passes Cholesky can still be singular in floating point,
        # or so near it that an inverse overflows to inf
        try:
            np.linalg.cholesky(self.K)
            K_inv = np.linalg.inv(self.K)
            K11_inv = np.linalg.inv(self.K[:q, :q]) if q else None
        except np.linalg.LinAlgError:
            raise DomainError("K must be positive definite") from None
        if not all(np.isfinite(a).all() for a in (K_inv, K11_inv) if a is not None):
            raise DomainError("K and its nuisance block must have finite inverses")
        object.__setattr__(self, "_K_inv", K_inv)
        object.__setattr__(self, "_K11_inv", K11_inv)


@dataclass(frozen=True)
class PowerExpansion:
    """Degrees of freedom, noncentrality, and the four expansion coefficients.

    :meth:`mixture_mean` gives the statistic's mean that these CDF-mixture
    weights imply; :class:`MomentSet` holds the literal expansion moments.
    """

    f: int
    lam: float
    a: tuple[float, float, float, float]

    def __post_init__(self):
        _check_integer("f", self.f)
        if self.f < 1:
            raise DomainError(f"f must be >= 1, got {self.f}")
        _check_float_size("f", self.f)
        # the rule of ChiSquareParams, which cdf_expansion builds from lam
        _check_noncentrality(self.lam)
        if not (
            isinstance(self.a, (tuple, list))
            and len(self.a) == 4
            and all(isinstance(c, numbers.Real) for c in self.a)
        ):
            raise DomainError(f"a must be four real numbers, got {self.a!r}")
        a0, a1, a2, a3 = self.a
        if not all(math.isfinite(c) for c in self.a):
            raise DomainError(f"coefficients must be finite, got {self.a}")
        scale = max(1.0, abs(a0), abs(a1), abs(a2), abs(a3))
        if abs(a0 + a1 + a2 + a3) > 1e-12 * scale:
            raise DomainError(
                f"coefficients must sum to zero, got {a0 + a1 + a2 + a3}"
            )

    def mixture_mean(self, n) -> float:
        """``f + 2 lam + (2/sqrt(n))(a1 + 2 a2 + 3 a3)``: the mean the CDF mixture implies.

        ``n`` may be ``math.inf``.  :attr:`MomentSet.m1` is the literal expansion
        mean, which carries the noncentrality once; simulation arbitrates
        between the two (see the montecarlo module).
        """
        _check_sample_size(n)
        a = self.a
        return self.f + 2.0 * self.lam + 2.0 * _inv_sqrt(n) * (a[1] + 2.0 * a[2] + 3.0 * a[3])


@dataclass(frozen=True)
class MomentSet:
    """First three moments of the statistic to second order.

    ``m1`` is the literal expansion mean ``f + lam + 2 A1/sqrt(n)``.  The mean
    that the CDF mixture implies, which carries the noncentrality twice, is
    :meth:`PowerExpansion.mixture_mean`.
    """

    m1: float
    m2: float
    m3: float
    A: tuple[float, float, float]


class ClampedProbability(NamedTuple):
    """A probability clamped into [0, 1], with its raw pre-clamp value."""

    value: float
    raw: float
    clamped: bool


def _clamp(raw: float) -> ClampedProbability:
    if math.isnan(raw):  # a failed evaluation, not a probability to clamp
        raise GradpowerError("second-order probability is NaN")
    value = min(max(raw, 0.0), 1.0)
    return ClampedProbability(value, raw, value != raw)


# ------------------------------------------------------------------ #
# Contractions
# ------------------------------------------------------------------ #


def _contract_vvv(t: np.ndarray, a, b, c) -> float:
    return float(np.einsum("rsu,r,s,u->", t, a, b, c))


def _contract_mv(t: np.ndarray, m: np.ndarray, b) -> float:
    # matrix pairs with the first two indices, vector with the third
    return float(np.einsum("rsu,rs,u->", t, m, b))


def _half_quadratic(eps: np.ndarray, M: np.ndarray) -> float:
    # the noncentrality eps' M eps / 2; a drift that overflows it is refused by
    # ChiSquareParams' rule instead of warned about
    with np.errstate(over="ignore", invalid="ignore"):
        lam = 0.5 * float(eps @ M @ eps)
    _check_noncentrality(lam)
    return lam


def _drift_terms(t: CumulantTensors, eps: np.ndarray):
    # (eps*, A, lam): the full-length drift, the padded inverse nuisance block
    # and half the drift's quadratic form in the Schur-complement information
    p, q = t.p, t.q
    A = np.zeros((p, p))
    if q == 0:
        return -eps.astype(float), A, _half_quadratic(eps, t.K)
    K12 = t.K[:q, q:]
    lam = _half_quadratic(eps, t.K[q:, q:] - t.K[q:, :q] @ t._K11_inv @ K12)
    A[:q, :q] = t._K11_inv
    return np.concatenate([t._K11_inv @ K12 @ eps, -eps]), A, lam


def _telescoped(csum, C, cdf, density):
    # sum_k c_k G_{f+2k} = csum * G_f - 2 * sum_m C_m g_{f+2m}, as G_{v+2} = G_v - 2 g_{v+2}:
    # the second-order sum of local power, power differences and the CDF expansion.
    # cdf() gives G_f and density(m) g_{f+2m}, each called only for a nonzero weight.
    total = csum * cdf() if csum != 0.0 else 0.0
    for m, c in enumerate(C, start=1):
        if c != 0.0:
            total -= 2.0 * c * density(m)
    return total


def _weights(coeffs):
    # (csum, C) of _telescoped: csum = sum_k c_k and C_m = sum_{k >= m} c_k, m = 1..3,
    # from four plain floats.  csum adds left to right from +0.0, as numpy sums four
    # values, so a row of -0.0 gives +0.0; sum() is not used, as it compensates
    # from Python 3.12 on.
    c0, c1, c2, c3 = coeffs
    return 0.0 + c0 + c1 + c2 + c3, (c1 + c2 + c3, c2 + c3, c3)


def _inv_sqrt(n) -> float:
    # the n^-1/2 factor of the second-order term; 0 at n = inf
    return 0.0 if math.isinf(n) else 1.0 / math.sqrt(n)


# the largest drift magnitude whose cube, a factor of every coefficient, is finite
_DRIFT_MAX = _FLOAT_MAX ** (1.0 / 3.0)


def _check_drift(eps) -> None:
    # the rule of every scalar drift; it compares rather than calling math.isfinite
    # or raising eps to a power, each of which overflows on a huge value
    if not (-_DRIFT_MAX <= eps <= _DRIFT_MAX):
        if eps != eps or eps in (math.inf, -math.inf):
            raise DomainError(f"eps must be finite, got {eps}")
        raise DomainError(f"eps must be at most {_DRIFT_MAX} in magnitude, got {eps}")


def _validate_eps(t: CumulantTensors, eps) -> np.ndarray:
    e = _real_array("eps", eps).reshape(-1)
    if e.size != t.p - t.q:
        raise DomainError(f"eps must have length p - q = {t.p - t.q}, got {e.size}")
    if not np.all(np.isfinite(e)):
        raise DomainError("eps must be finite")
    return e


def composite_coefficients(t: CumulantTensors, eps) -> PowerExpansion:
    """Expansion for a composite null: nuisance block estimated, last p-q tested."""
    e = _validate_eps(t, eps)
    es, A, lam = _drift_terms(t, e)
    k3, k21 = t.k3, t.k21
    k3k21s = _contract_vvv(k3 + 2.0 * k21, es, es, es)  # a term of both a1 and a2
    # first index of the block term runs over the tested coordinates only
    e_pad = np.zeros(t.p)
    e_pad[t.q :] = e

    a1 = 0.25 * (
        _contract_mv(k3, t._K_inv, es)
        - _contract_mv(4.0 * k21 + 3.0 * k3, A, es)
        - 2.0 * k3k21s
        - 2.0 * _contract_vvv(k3 + k21, e_pad, es, es)
    )
    a2 = -0.25 * (_contract_mv(k3, t._K_inv - A, es) - k3k21s)
    a3 = -_contract_vvv(k3, es, es, es) / 12.0
    a0 = -(a1 + a2 + a3)
    return PowerExpansion(f=t.p - t.q, lam=lam, a=(a0, a1, a2, a3))


def simple_coefficients(t: CumulantTensors, eps) -> PowerExpansion:
    """Expansion for a simple null (q = 0), via its dedicated closed forms.

    Kept independent of :func:`composite_coefficients` so the two can serve
    as mutual cross-checks.
    """
    if t.q != 0:
        raise DomainError(f"simple_coefficients requires q = 0, got q={t.q}")
    e = _validate_eps(t, eps)
    lam = _half_quadratic(e, t.K)
    k3, k21 = t.k3, t.k21

    kKe = _contract_mv(k3, t._K_inv, e)
    k3e = _contract_vvv(k3, e, e, e)
    k21e = _contract_vvv(k21, e, e, e)

    a0 = k3e / 6.0
    a1 = -(kKe - 2.0 * k21e) / 4.0
    a2 = (kKe - (k3e + 2.0 * k21e)) / 4.0
    a3 = k3e / 12.0
    return PowerExpansion(f=t.p, lam=lam, a=(a0, a1, a2, a3))


def scalar_coefficients(c: CumulantSet, eps: float) -> PowerExpansion:
    """Expansion for a scalar parameter, directly from a :class:`CumulantSet`."""
    _check_drift(eps)
    K = -c.k_tt
    if K <= 0.0:
        raise DomainError(f"Fisher information must be positive, got {K}")
    e3 = eps ** 3
    a0 = c.k_ttt * e3 / 6.0
    a1 = -(c.k_ttt * c.k_inv * eps - 2.0 * c.k_t_tt * e3) / 4.0
    a2 = (c.k_ttt * c.k_inv * eps - (c.k_ttt + 2.0 * c.k_t_tt) * e3) / 4.0
    a3 = c.k_ttt * e3 / 12.0
    return PowerExpansion(f=1, lam=0.5 * K * eps ** 2, a=(a0, a1, a2, a3))


def cdf_expansion(e: PowerExpansion, n, x):
    """Evaluate Pr(S <= x) to second order; ``n`` may be ``math.inf``.

    At f = 1 the CDF and densities are in closed form and keep their relative
    accuracy in both tails; any other f walks the Poisson weights once
    (:func:`~gradpower.specfun.nc_chisq_mixture`).  ``x`` may also be a sequence
    of points, for which a tuple of values is returned, each the value of its
    own call.  There one walk serves every point, and the first point that a
    loop of single calls would refuse raises that call's error.
    """
    if isinstance(x, numbers.Real):
        return _cdf_at(e, n, x)
    if e.f == 1:
        return tuple(_cdf_at(e, n, v) for v in x)
    values, walked, refused = [], [], None
    for v in x:
        try:
            value = _settled(n, v)
        except DomainError as exc:
            refused = exc
            break
        values.append(value)
        if value is None:
            walked.append(v)
    if walked:
        grid = _mixture_grid(ChiSquareParams(e.f, e.lam), walked, e.f + 2.0)
        mixtures = (_clamped_mixture(*sums) for sums in zip(*(a.tolist() for a in grid)))
        values = [_second_order(e, n, *next(mixtures)) if value is None else value
                  for value in values]
    if refused is not None:
        raise refused
    return tuple(values)


def _settled(n, x):
    # the value at an x that needs no CDF, or None where it needs one
    if math.isnan(x):
        raise DomainError("x must not be NaN")
    _check_sample_size(n)
    if x <= 0.0:
        # the distribution lives on [0, inf)
        return ClampedProbability(0.0, 0.0, False)
    if math.isinf(x):
        # all mixture components reach 1 and the coefficients sum to zero
        return ClampedProbability(1.0, 1.0, False)
    return None


def _cdf_at(e: PowerExpansion, n, x) -> ClampedProbability:
    value = _settled(n, x)
    if value is not None:
        return value
    if e.f == 1:
        g, densities = nc_chisq1_tails(e.lam, x)[0], _nc_chisq1_densities(e.lam, x)
    else:
        g, densities = nc_chisq_mixture(ChiSquareParams(e.f, e.lam), x)
    return _second_order(e, n, g, densities)


def _second_order(e: PowerExpansion, n, g, densities) -> ClampedProbability:
    # G_f plus the telescoped second-order sum at densities (g_{f+2}, g_{f+4}, g_{f+6})
    csum, C = _weights(e.a)
    # at n = inf the scale is 0 and the sum finite, so the value is g itself
    return _clamp(g + _inv_sqrt(n) * _telescoped(csum, C, lambda: g, lambda m: densities[m - 1]))


def st_moments(t: CumulantTensors, eps, n) -> MomentSet:
    """First three moments of the statistic to second order.

    ``A1..A3`` use the moment-generating-function contractions.  The mean
    through the CDF-mixture weights is
    ``composite_coefficients(t, eps).mixture_mean(n)``.
    """
    _check_sample_size(n)
    e = _validate_eps(t, eps)
    es, A, lam = _drift_terms(t, e)
    k3, k21 = t.k3, t.k21

    kKe = _contract_mv(k3, t._K_inv, es)
    kAe = _contract_mv(k3, A, es)
    k21Ae = _contract_mv(k21, A, es)
    k3s = _contract_vvv(k3, es, es, es)
    k21s = _contract_vvv(k21, es, es, es)

    A1 = -(kKe + 4.0 * k21Ae + kAe + k3s) / 4.0
    A2 = -(kKe - kAe - 2.0 * k21s) / 4.0
    A3 = -k3s / 12.0

    f = t.p - t.q
    rt = _inv_sqrt(n)
    m1 = f + lam + 2.0 * A1 * rt
    m2 = 2.0 * (f + 2.0 * lam) + 8.0 * (A1 + A2) * rt
    m3 = 8.0 * (f + 3.0 * lam) + 6.0 * (A1 + 2.0 * A2 + A3) * rt
    return MomentSet(m1=m1, m2=m2, m3=m3, A=(A1, A2, A3))


def power_equivalence_flags(t: CumulantTensors) -> dict:
    """Degeneracy flags for coinciding second-order local powers.

    ``lr_wald_gradient``: all third-derivative cumulants vanish, so the
    likelihood ratio, Wald, and gradient criteria share their expansion.
    ``score_gradient``: the third-derivative cumulants equal twice the third
    score cumulants (requires ``k111``), which collapses score and gradient.
    """
    scale = max(1.0, float(np.max(np.abs(t.k3))))
    flags = {"lr_wald_gradient": bool(np.all(np.abs(t.k3) <= _EQUIV_TOL * scale))}
    if t.k111 is not None:
        diff = t.k3 - 2.0 * t.k111
        s2 = max(1.0, float(np.max(np.abs(t.k3))), 2.0 * float(np.max(np.abs(t.k111))))
        flags["score_gradient"] = bool(np.all(np.abs(diff) <= _EQUIV_TOL * s2))
    else:
        flags["score_gradient"] = None
    return flags


def tensors_from_cumulants(c: CumulantSet) -> CumulantTensors:
    """Package scalar cumulants as 1-dimensional tensors (p = 1, q = 0)."""
    K = np.array([[-c.k_tt]])
    k3 = np.array([[[c.k_ttt]]])
    k21 = np.array([[[c.k_t_tt]]])
    k111 = np.array([[[c.k_t_t_t]]])
    return CumulantTensors(p=1, q=0, K=K, k3=k3, k21=k21, k111=k111)


def load_tensor_file(path) -> CumulantTensors:
    """Read cumulant tensors from a JSON document.

    Required fields: ``p``, ``q``, ``K`` (p x p), ``k3`` and ``k21``
    (p x p x p); optional ``k111``.  Symmetry and positive definiteness are
    validated on load.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DomainError(f"{path}: invalid tensor file: {exc}") from None
    if not isinstance(doc, dict):
        raise DomainError(f"{path}: invalid tensor file: the top level must be a JSON object")
    missing = {"p", "q", "K", "k3", "k21"} - set(doc)
    if missing:
        raise DomainError(f"{path}: missing tensor fields {sorted(missing)}")
    # a whole JSON float such as 2.0 is its integer; CumulantTensors refuses any other non-integer
    counts = {name: int(doc[name]) if type(doc[name]) is float and doc[name].is_integer()
              else doc[name] for name in ("p", "q")}
    arrays = {name: doc[name] for name in ("K", "k3", "k21", "k111") if name in doc}
    try:
        return CumulantTensors(**counts, **arrays)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from None
