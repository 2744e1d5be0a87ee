"""Local power of the four tests in one-parameter exponential families.

For the null ``theta = theta0`` against ``theta = theta0 + eps/sqrt(n)`` the
rejection probability of each criterion expands as

    Pi_i = 1 - G_{1,lam}(x) - n^{-1/2} * sum_k a_ik G_{1+2k,lam}(x),

with ``x`` the chi-square(1) critical value, ``lam = K(theta0) eps^2 / 2``,
and a 4 x 4 coefficient array ``a_ik`` built from ``alpha``/``beta``
derivatives at ``theta0``.  Pairwise power differences telescope into sums of
noncentral chi-square densities, which yields sign certificates that are
uniform in the critical value; :func:`power_ordering` turns those into an
ordered partition of the four tests.

Two conventions exist for the leading gradient coefficient ``a_40``; they
disagree whenever ``alpha'' != 0``.  The default ``consistent-chain`` source
enforces the zero-sum normalization of the underlying expansion; the
``table`` source reproduces the alternative tabulated sign, under which the
gradient row no longer sums to zero.  Both are exposed, and the montecarlo
module arbitrates empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import DomainError
from .expansion import ClampedProbability, _clamp, _inv_sqrt, _mixture_sum
from .expfam import ExpFamModel
from .specfun import ChiSquareParams, central_chisq_quantile, nc_chisq_cdf, nc_chisq_pdf
from .teststats import ALL_KINDS, TestKind

__all__ = [
    "CoefficientTable",
    "OrderingReport",
    "PairCertificate",
    "PowerQuery",
    "SOURCES",
    "SOURCE_CHAIN",
    "SOURCE_TABLE",
    "local_power",
    "power_coefficients",
    "power_difference",
    "power_ordering",
]

SOURCE_CHAIN = "consistent-chain"
SOURCE_TABLE = "table"
SOURCES = (SOURCE_CHAIN, SOURCE_TABLE)

_DEFAULT_EPS_GRID = (0.25, 0.5, 1.0, 2.0)
# equality threshold for coefficient-level comparisons
_COEF_TOL = 1e-13


def _check_source(source: str) -> str:
    if source not in SOURCES:
        raise DomainError(f"unknown coefficient source {source!r}; use one of {SOURCES}")
    return source


@dataclass(frozen=True)
class CoefficientTable:
    """Rows LR, Wald, score, gradient; columns mixture index k = 0..3."""

    a: np.ndarray

    def row(self, kind: TestKind) -> np.ndarray:
        return self.a[kind - 1]


@dataclass(frozen=True)
class PowerQuery:
    """An evaluation point and the values its four tests share, each computed on first use."""

    model: ExpFamModel
    theta0: float
    eps: float
    n: float
    alpha: float

    def __post_init__(self):
        self.model.require_theta(self.theta0)
        if not (0.0 < self.alpha < 1.0):
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha}")
        if 1.0 - self.alpha == 1.0:
            raise DomainError(f"alpha={self.alpha} is too small: 1 - alpha rounds to 1")
        if not (self.n >= 1):
            raise DomainError(f"n must be >= 1, got {self.n}")
        if math.isfinite(self.n) and not self.model.in_param_space(self.theta_drifted):
            raise DomainError(
                f"drifted parameter {self.theta_drifted} leaves the parameter space"
            )

    @property
    def theta_drifted(self) -> float:
        """The alternative theta0 + eps/sqrt(n) that the data are drawn under."""
        return self.theta0 + self.eps / math.sqrt(self.n)

    @cached_property
    def crit(self) -> float:  # solved on first use, never at construction
        return central_chisq_quantile(1.0, self.alpha, upper=True)

    @cached_property
    def lam(self) -> float:
        return 0.5 * self.model.fisher_information(self.theta0) * self.eps ** 2

    @property
    def scale(self) -> float:
        return _inv_sqrt(self.n)

    @cached_property
    def _values(self) -> dict:
        # source -> table and (df, density) -> value; per instance, as queries are unhashable
        return {}

    def coefficients(self, source: str) -> CoefficientTable:
        """The coefficient table under ``source``."""
        values = self._values
        if source not in values:
            values[source] = power_coefficients(self.model, self.theta0, self.eps, source)
        return values[source]

    def mixture(self, df: float, density: bool = False) -> float:
        """G_{df,lam}(crit), or the density g_{df,lam}(crit)."""
        key = (df, density)
        values = self._values
        if key not in values:
            kernel = nc_chisq_pdf if density else nc_chisq_cdf
            values[key] = kernel(ChiSquareParams(float(df), self.lam), self.crit)
        return values[key]


def power_coefficients(
    model: ExpFamModel, theta0: float, eps: float, source: str = SOURCE_CHAIN
) -> CoefficientTable:
    """The 4 x 4 local power coefficient array at ``theta0``."""
    _check_source(source)
    model.require_theta(theta0)
    if not math.isfinite(eps):
        raise DomainError(f"eps must be finite, got {eps}")
    ap = model.alpha_d1(theta0)
    app = model.alpha_d2(theta0)
    bp = model.beta_d1(theta0)
    bpp = model.beta_d2(theta0)
    K = ap * bp
    if K <= 0.0:
        raise DomainError(f"Fisher information must be positive at theta0={theta0}")

    P = 2.0 * app * bp + ap * bpp  # minus the third-derivative cumulant
    Q = app * bp
    R = ap * bpp - app * bp
    e = eps
    e3 = eps ** 3

    a_shared0 = -P * e3 / 6.0
    lr = (a_shared0, Q * e3 / 2.0, R * e3 / 6.0, 0.0)
    w1 = Q * e3 / 2.0 - P * e / (2.0 * K)
    wald = (a_shared0, w1, -w1, P * e3 / 6.0)
    score = (a_shared0, Q * e3 / 2.0 - R * e / (2.0 * K), R * e / (2.0 * K), R * e3 / 6.0)
    grad0 = a_shared0 if source == SOURCE_CHAIN else -R * e3 / 6.0
    grad = (
        grad0,
        Q * e3 / 2.0 + P * e / (4.0 * K),
        ap * bpp * e3 / 4.0 - P * e / (4.0 * K),
        -P * e3 / 12.0,
    )
    return CoefficientTable(a=np.array([lr, wald, score, grad], dtype=float))


def local_power(
    query: PowerQuery, test: TestKind, source: str = SOURCE_CHAIN
) -> ClampedProbability:
    """Second-order rejection probability of one test at the query point."""
    table = query.coefficients(source)  # fetched at n = inf too: it validates source and eps
    raw = 1.0 - query.mixture(1)
    scale = query.scale
    if scale != 0.0:  # at n = inf no higher mixture is walked
        raw = _mixture_sum(raw, -scale, table.row(test), lambda k: query.mixture(1 + 2 * k))
    return _clamp(raw)


def _difference_terms(table: CoefficientTable, i: TestKind, j: TestKind):
    # c_k = a_jk - a_ik; C_m = sum_{k >= m} c_k; csum = sum_k c_k.
    # Pi_i - Pi_j = n^{-1/2} [ csum * G_1 - 2 * sum_m C_m g_{1+2m} ]   (telescoped)
    c = table.row(j) - table.row(i)
    C = (c[1] + c[2] + c[3], c[2] + c[3], c[3])
    return float(c.sum()), C


def _telescoped(query: PowerQuery, csum: float, C) -> float:
    # csum * G_1 - 2 * sum_m C_m g_{1+2m}: Pi_i - Pi_j without its n^{-1/2} factor
    return _mixture_sum(csum * query.mixture(1), -2.0, C,
                        lambda k: query.mixture(3 + 2 * k, density=True))


def power_difference(
    query: PowerQuery, i: TestKind, j: TestKind, source: str = SOURCE_CHAIN
) -> float:
    """Pi_i - Pi_j via the telescoped density representation (exact antisymmetry)."""
    csum, C = _difference_terms(query.coefficients(source), i, j)
    return query.scale * _telescoped(query, csum, C)


@dataclass(frozen=True)
class PairCertificate:
    """Sign analysis of Pi_i - Pi_j across the eps grid.

    ``relation`` is one of ``greater``/``less``/``equal``/``mixed`` and refers
    to test i versus test j.  When ``uniform`` is true the relation holds for
    every critical value; otherwise it was established pointwise on a grid.
    ``csum`` and ``partial`` retain the certificate weights for the last grid
    eps: the difference equals
    ``n^{-1/2} [csum G_1 - 2 (C_1 g_3 + C_2 g_5 + C_3 g_7)]``.
    """

    i: TestKind
    j: TestKind
    relation: str
    uniform: bool
    csum: float
    partial: tuple[float, float, float]


def _relation(signs) -> str:
    # ``signs``: the set of nonzero signs seen for Pi_i - Pi_j or its parts
    if not signs:
        return "equal"
    if signs == {1}:
        return "greater"
    if signs == {-1}:
        return "less"
    return "mixed"


def _relation_from_weights(csum: float, C, tol: float) -> str:
    # positive contribution to Pi_i - Pi_j: csum > 0 or C_m < 0; NaN counts both ways
    vals = (-csum, *C)
    return _relation({1 for v in vals if not v >= -tol} | {-1 for v in vals if not v <= tol})


@dataclass(frozen=True)
class OrderingReport:
    """Ordered partition of the four tests by second-order local power."""

    groups: tuple[tuple[TestKind, ...], ...]
    uniform: bool
    direction: str
    source: str
    eps_grid: tuple[float, ...]
    certificates: Mapping[tuple[TestKind, TestKind], PairCertificate]

    def describe(self) -> str:
        parts = [" = ".join(k.label for k in grp) for grp in self.groups]
        tag = "uniform in x" if self.uniform else "grid-certified only"
        return " > ".join(parts) + f" ({tag})"


def power_ordering(
    model: ExpFamModel,
    theta0: float,
    eps_sign: str,
    alpha: float,
    source: str = SOURCE_CHAIN,
    eps_grid: tuple[float, ...] = _DEFAULT_EPS_GRID,
) -> OrderingReport:
    """Rank the four tests by local power for alternatives on one side.

    ``eps_sign`` is ``"above"`` (eps > 0) or ``"below"`` (eps < 0).  Each pair
    gets a telescoped-density sign certificate; when the certificate weights
    share one sign for every eps on the grid the relation is uniform in the
    critical value, otherwise the pair is compared pointwise and flagged.
    """
    _check_source(source)
    if eps_sign not in ("above", "below"):
        raise DomainError(f"eps_sign must be 'above' or 'below', got {eps_sign!r}")
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if not eps_grid or any(e <= 0.0 for e in eps_grid):
        raise DomainError("eps_grid must contain positive magnitudes")
    sign = 1.0 if eps_sign == "above" else -1.0
    tables = [power_coefficients(model, theta0, sign * eps, source) for eps in eps_grid]
    tols = [_COEF_TOL * max(1.0, float(np.max(np.abs(t.a)))) for t in tables]

    fallback = None  # pointwise queries, built when the first pair needs them
    certificates = {}
    for idx, i in enumerate(ALL_KINDS):
        for j in ALL_KINDS[idx + 1 :]:
            weights = [_difference_terms(table, i, j) for table in tables]
            relations = {_relation_from_weights(csum, C, tol)
                         for (csum, C), tol in zip(weights, tols)}
            if len(relations) == 1 and "mixed" not in relations:
                relation = relations.pop()
                uniform = True
            else:
                if fallback is None:
                    fallback = _grid_queries(model, theta0, sign, alpha, eps_grid)
                relation = _grid_relation(fallback, weights)
                uniform = False
            csum, C = weights[-1]
            certificates[(i, j)] = PairCertificate(
                i=i, j=j, relation=relation, uniform=uniform, csum=csum, partial=C
            )

    groups = _assemble_groups(certificates)
    uniform = all(cert.uniform for cert in certificates.values())
    return OrderingReport(
        groups=groups,
        uniform=uniform,
        direction=eps_sign,
        source=source,
        eps_grid=tuple(eps_grid),
        certificates=certificates,
    )


def _grid_queries(model, theta0, sign, alpha, eps_grid) -> list[list[PowerQuery]]:
    # per grid eps, one query per alpha; at n = inf no drifted point is built,
    # and the sign needs none
    alphas = sorted({0.01, 0.025, alpha, 0.10, 0.20})
    return [[PowerQuery(model, theta0, sign * eps, math.inf, a) for a in alphas]
            for eps in eps_grid]


def _grid_relation(queries, weights) -> str:
    # pointwise comparison at a spread of critical values, on each grid eps's
    # certificate weights; n only scales the difference, so the sign is taken
    # from the unscaled telescoped sum
    signs = set()
    for row, (csum, C) in zip(queries, weights):
        for q in row:
            diff = _telescoped(q, csum, C)
            if abs(diff) > 1e-14:
                signs.add(1 if diff > 0 else -1)
    return _relation(signs)


def _assemble_groups(certificates) -> tuple[tuple[TestKind, ...], ...]:
    # union equal pairs, then order the equality classes by the strict relations
    parent = {k: k for k in ALL_KINDS}

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for (i, j), cert in certificates.items():
        if cert.relation == "equal":
            parent[find(i)] = find(j)

    roots = {}
    for k in ALL_KINDS:
        roots.setdefault(find(k), []).append(k)
    classes = list(roots.values())

    def wins(members):
        total = 0
        for (i, j), cert in certificates.items():
            if cert.relation == "greater" and i in members:
                total += 1
            elif cert.relation == "greater" and j in members:
                total -= 1
            elif cert.relation == "less" and j in members:
                total += 1
            elif cert.relation == "less" and i in members:
                total -= 1
        return total

    classes.sort(key=wins, reverse=True)
    return tuple(tuple(sorted(cls)) for cls in classes)
