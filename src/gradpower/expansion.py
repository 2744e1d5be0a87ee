"""Second-order distribution expansion of the gradient statistic.

Under a sequence of local alternatives ``theta_2 = theta_20 + eps/sqrt(n)``
the statistic's distribution function expands as

    Pr(S <= x) = G_{f,lam}(x) + n^{-1/2} * sum_k a_k G_{f+2k,lam}(x) + O(1/n),

with ``G_{m,lam}`` the Poisson-mixture noncentral chi-square CDF, ``f``
the tested dimension, and ``lam`` half the quadratic form of eps in the
effective information.  This module computes the coefficients ``a_0..a_3``
for the composite case (nuisance block of dimension q) from numeric cumulant
arrays, the simple case (q = 0), and the scalar case (p = 1), plus the
matching first three moments in two variants whose leading terms disagree;
both are exposed so simulation can arbitrate.

Contractions are single ``np.einsum`` calls over dense arrays, bit-identical to
direct triple loops.  The tested-block contraction zero-pads the drift to
length p rather than slicing the tensor: a sliced tensor sums in another order
and can differ in the last bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .expfam import CumulantSet
from .specfun import ChiSquareParams, nc_chisq_cdf

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


def _check_symmetric_3(t: np.ndarray, perms, label: str) -> None:
    scale = max(1.0, float(np.max(np.abs(t))) if t.size else 1.0)
    for perm in perms:
        if not np.allclose(t, np.transpose(t, perm), rtol=0.0, atol=_SYM_TOL * scale):
            raise DomainError(f"{label} is not symmetric under axis order {perm}")


@dataclass(frozen=True)
class CumulantTensors:
    """Cumulant arrays of the log-likelihood derivatives at the null point.

    ``K`` holds the score covariances, ``k3`` the expected third derivatives
    (fully symmetric), ``k21`` the score/Hessian cross cumulants (symmetric in
    the last two indices, first index is the singly-differentiated one), and
    the optional ``k111`` the third score cumulants (fully symmetric).  The
    first ``q`` coordinates are the nuisance block.
    """

    p: int
    q: int
    K: np.ndarray
    k3: np.ndarray
    k21: np.ndarray
    k111: np.ndarray | None = None

    def __post_init__(self):
        if self.p < 1:
            raise DomainError(f"p must be >= 1, got {self.p}")
        if not (0 <= self.q < self.p):
            raise DomainError(f"q must satisfy 0 <= q < p, got q={self.q}, p={self.p}")
        K = np.asarray(self.K, dtype=float)
        k3 = np.asarray(self.k3, dtype=float)
        k21 = np.asarray(self.k21, dtype=float)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "k3", k3)
        object.__setattr__(self, "k21", k21)
        p = self.p
        if K.shape != (p, p):
            raise DomainError(f"K must have shape ({p}, {p}), got {K.shape}")
        if k3.shape != (p, p, p) or k21.shape != (p, p, p):
            raise DomainError(f"k3 and k21 must have shape ({p}, {p}, {p})")
        scale = max(1.0, float(np.max(np.abs(K))))
        if not np.allclose(K, K.T, rtol=0.0, atol=_SYM_TOL * scale):
            raise DomainError("K must be symmetric")
        try:
            np.linalg.cholesky(K)
        except np.linalg.LinAlgError:
            raise DomainError("K must be positive definite") from None
        _check_symmetric_3(k3, [(0, 2, 1), (1, 0, 2), (2, 1, 0)], "k3")
        _check_symmetric_3(k21, [(0, 2, 1)], "k21")
        if self.k111 is not None:
            k111 = np.asarray(self.k111, dtype=float)
            object.__setattr__(self, "k111", k111)
            if k111.shape != (p, p, p):
                raise DomainError(f"k111 must have shape ({p}, {p}, {p})")
            _check_symmetric_3(k111, [(0, 2, 1), (1, 0, 2), (2, 1, 0)], "k111")


@dataclass(frozen=True)
class PowerExpansion:
    """Degrees of freedom, noncentrality, and the four expansion coefficients."""

    f: int
    lam: float
    a: tuple[float, float, float, float]

    def __post_init__(self):
        if self.lam < -1e-12:
            raise DomainError(f"noncentrality must be >= 0, got {self.lam}")
        a0, a1, a2, a3 = self.a
        scale = max(1.0, abs(a0), abs(a1), abs(a2), abs(a3))
        if abs(a0 + a1 + a2 + a3) > 1e-12 * scale:
            raise DomainError(
                f"coefficients must sum to zero, got {a0 + a1 + a2 + a3}"
            )


@dataclass(frozen=True)
class MomentSet:
    """First three moments of the statistic to second order.

    ``m1`` is the literal expansion mean ``f + lam + 2 A1/sqrt(n)``;
    ``mixture_mean`` is ``f + 2 lam + (2/sqrt(n))(a1 + 2 a2 + 3 a3)``, the mean
    implied by the CDF mixture.  The two differ in how the noncentrality
    enters; simulation arbitrates (see the montecarlo module).
    """

    m1: float
    m2: float
    m3: float
    A: tuple[float, float, float]
    mixture_mean: float


class ClampedProbability(NamedTuple):
    """A probability clamped into [0, 1], with its raw pre-clamp value."""

    value: float
    raw: float
    clamped: bool


def _clamp(raw: float) -> ClampedProbability:
    value = min(max(raw, 0.0), 1.0)
    return ClampedProbability(value=value, raw=raw, clamped=value != raw)


# ------------------------------------------------------------------ #
# Contractions
# ------------------------------------------------------------------ #


def _contract_vvv(t: np.ndarray, a, b, c) -> float:
    return float(np.einsum("rsu,r,s,u->", t, a, b, c))


def _contract_mv(t: np.ndarray, m: np.ndarray, b) -> float:
    # matrix pairs with the first two indices, vector with the third
    return float(np.einsum("rsu,rs,u->", t, m, b))


def _drift_terms(t: CumulantTensors, eps: np.ndarray):
    # (eps*, A, lam): the full-length drift, the padded inverse nuisance block
    # and half the drift's quadratic form in the Schur-complement information
    p, q = t.p, t.q
    A = np.zeros((p, p))
    if q == 0:
        return -eps.astype(float), A, 0.5 * float(eps @ t.K @ eps)
    K11 = t.K[:q, :q]
    K12 = t.K[:q, q:]
    K21 = t.K[q:, :q]
    K11_inv = np.linalg.inv(K11)
    top = K11_inv @ K12 @ eps
    A[:q, :q] = K11_inv
    eff = t.K[q:, q:] - K21 @ K11_inv @ K12
    return np.concatenate([top, -eps]), A, 0.5 * float(eps @ eff @ eps)


def _mixture_sum(total, step, coeffs, term):
    # total + step * c_k * term(k) for each nonzero c_k, added in order of k: the
    # second-order sum shared by local power, the CDF expansion and power differences
    for k, c in enumerate(coeffs):
        if c != 0.0:
            total += step * c * term(k)
    return total


def _inv_sqrt(n) -> float:
    # the n^-1/2 factor of the second-order term; 0 at n = inf
    return 0.0 if math.isinf(n) else 1.0 / math.sqrt(n)


def _validate_eps(t: CumulantTensors, eps) -> np.ndarray:
    e = np.asarray(eps, dtype=float).reshape(-1)
    if e.size != t.p - t.q:
        raise DomainError(f"eps must have length p - q = {t.p - t.q}, got {e.size}")
    if not np.all(np.isfinite(e)):
        raise DomainError("eps must be finite")
    return e


def composite_coefficients(t: CumulantTensors, eps) -> PowerExpansion:
    """Expansion for a composite null: nuisance block estimated, last p-q tested."""
    e = _validate_eps(t, eps)
    es, A, lam = _drift_terms(t, e)
    K_inv = np.linalg.inv(t.K)
    k3, k21 = t.k3, t.k21
    # first index of the block term runs over the tested coordinates only
    e_pad = np.zeros(t.p)
    e_pad[t.q :] = e

    a1 = 0.25 * (
        _contract_mv(k3, K_inv, es)
        - _contract_mv(4.0 * k21 + 3.0 * k3, A, es)
        - 2.0 * _contract_vvv(k3 + 2.0 * k21, es, es, es)
        - 2.0 * _contract_vvv(k3 + k21, e_pad, es, es)
    )
    a2 = -0.25 * (
        _contract_mv(k3, K_inv - A, es)
        - _contract_vvv(k3 + 2.0 * k21, es, es, es)
    )
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
    K_inv = np.linalg.inv(t.K)
    k3, k21 = t.k3, t.k21

    kKe = _contract_mv(k3, K_inv, e)
    k3e = _contract_vvv(k3, e, e, e)
    k21e = _contract_vvv(k21, e, e, e)

    a0 = k3e / 6.0
    a1 = -(kKe - 2.0 * k21e) / 4.0
    a2 = (kKe - (k3e + 2.0 * k21e)) / 4.0
    a3 = k3e / 12.0
    return PowerExpansion(f=t.p, lam=0.5 * float(e @ t.K @ e), a=(a0, a1, a2, a3))


def scalar_coefficients(c: CumulantSet, eps: float) -> PowerExpansion:
    """Expansion for a scalar parameter, directly from a :class:`CumulantSet`."""
    if not math.isfinite(eps):
        raise DomainError(f"eps must be finite, got {eps}")
    K = -c.k_tt
    if K <= 0.0:
        raise DomainError(f"Fisher information must be positive, got {K}")
    e3 = eps ** 3
    a0 = c.k_ttt * e3 / 6.0
    a1 = -(c.k_ttt * c.k_inv * eps - 2.0 * c.k_t_tt * e3) / 4.0
    a2 = (c.k_ttt * c.k_inv * eps - (c.k_ttt + 2.0 * c.k_t_tt) * e3) / 4.0
    a3 = c.k_ttt * e3 / 12.0
    return PowerExpansion(f=1, lam=0.5 * K * eps ** 2, a=(a0, a1, a2, a3))


def cdf_expansion(e: PowerExpansion, n, x: float) -> ClampedProbability:
    """Evaluate Pr(S <= x) to second order; ``n`` may be ``math.inf``."""
    if math.isnan(x):
        raise DomainError("x must not be NaN")
    if not (n > 0):
        raise DomainError(f"n must be positive, got {n}")
    if x <= 0.0:
        # the distribution lives on [0, inf)
        return ClampedProbability(0.0, 0.0, False)
    if math.isinf(x):
        # all mixture components reach 1 and the coefficients sum to zero
        return ClampedProbability(1.0, 1.0, False)
    scale = _inv_sqrt(n)
    raw = g0 = nc_chisq_cdf(ChiSquareParams(e.f, e.lam), x)
    if scale != 0.0:  # G_f is reused for k = 0
        raw = _mixture_sum(raw, scale, e.a, lambda k: g0 if k == 0 else nc_chisq_cdf(
            ChiSquareParams(e.f + 2 * k, e.lam), x))
    return _clamp(raw)


def st_moments(
    t: CumulantTensors, eps, n, *, expansion: PowerExpansion | None = None
) -> MomentSet:
    """First three moments of the statistic to second order.

    ``A1..A3`` use the moment-generating-function contractions; the companion
    ``mixture_mean`` field restates the mean through the CDF-mixture weights,
    those of ``composite_coefficients(t, eps)``.  A caller that has already
    built that expansion passes it as ``expansion``, so it is not built twice.
    """
    if not (n > 0):
        raise DomainError(f"n must be positive, got {n}")
    e = _validate_eps(t, eps)
    es, A, lam = _drift_terms(t, e)
    K_inv = np.linalg.inv(t.K)
    k3, k21 = t.k3, t.k21

    kKe = _contract_mv(k3, K_inv, es)
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

    if expansion is None:
        expansion = composite_coefficients(t, e)
    a = expansion.a
    mixture_mean = f + 2.0 * lam + 2.0 * rt * (a[1] + 2.0 * a[2] + 3.0 * a[3])
    return MomentSet(m1=m1, m2=m2, m3=m3, A=(A1, A2, A3), mixture_mean=mixture_mean)


def power_equivalence_flags(t: CumulantTensors, tol: float = 1e-12) -> dict:
    """Degeneracy flags for coinciding second-order local powers.

    ``lr_wald_gradient``: all third-derivative cumulants vanish, so the
    likelihood ratio, Wald, and gradient criteria share their expansion.
    ``score_gradient``: the third-derivative cumulants equal twice the third
    score cumulants (requires ``k111``), which collapses score and gradient.
    """
    scale = max(1.0, float(np.max(np.abs(t.k3))))
    flags = {"lr_wald_gradient": bool(np.all(np.abs(t.k3) <= tol * scale))}
    if t.k111 is not None:
        diff = t.k3 - 2.0 * t.k111
        s2 = max(1.0, float(np.max(np.abs(t.k3))), 2.0 * float(np.max(np.abs(t.k111))))
        flags["score_gradient"] = bool(np.all(np.abs(diff) <= tol * s2))
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
    try:
        return CumulantTensors(
            p=int(doc["p"]),
            q=int(doc["q"]),
            K=np.asarray(doc["K"], dtype=float),
            k3=np.asarray(doc["k3"], dtype=float),
            k21=np.asarray(doc["k21"], dtype=float),
            k111=np.asarray(doc["k111"], dtype=float) if "k111" in doc else None,
        )
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{path}: malformed tensor arrays: {exc}") from None
