"""Local power of the four tests in one-parameter exponential families.

For the null ``theta = theta0`` against ``theta = theta0 + eps/sqrt(n)`` the
rejection probability of each criterion expands as

    Pi_i = 1 - G_{1,lam}(x) - n^{-1/2} * sum_k a_ik G_{1+2k,lam}(x),

with ``x`` the chi-square(1) critical value, ``lam = K(theta0) eps^2 / 2``,
and a 4 x 4 coefficient array ``a_ik`` built from ``alpha``/``beta``
derivatives at ``theta0``.  Since ``G_{v+2} = G_v - 2 g_{v+2}``, with ``g``
the density, it is evaluated telescoped:

    Pi_i = Q_{1,lam}(x) - n^{-1/2} [A_i G_{1,lam}(x) - 2 sum_m C_im g_{1+2m,lam}(x)],

with ``Q_1 = 1 - G_1`` from its ``erfc`` closed form, ``A_i = sum_k a_ik``
and ``C_im = sum_{k>=m} a_ik`` for m = 1..3.  Every row but the ``table``
source's gradient row sums to zero exactly, so :func:`local_power` and
:func:`power_difference` take its ``A_i`` as 0; that row differs from its
chain row in ``a_0`` alone, so its ``A_i`` is that difference, 0 again in a
natural family (``alpha'' = 0``).
Nothing cancels in the upper tail, so small-alpha power keeps its relative
accuracy at every alpha in (0, 1).  A :class:`PowerQuery` takes ``g_3``,
``g_5`` and ``g_7`` in closed form, from modified spherical Bessel functions,
and its four tests and both coefficient sources share them; no Poisson
weights are walked.  Every query that :meth:`PowerQuery.at_eps` moves to
another drift shares what no drift changes: theta0's derivative terms (K, P,
Q, R), its Fisher information and the critical value.  A query evaluates its
own point once per source, on the first :func:`local_power` call: one
coefficient table of plain-float rows and all four powers in one flat pass;
every later call looks its test up.  Pairwise power differences take the
same form, with ``A_j - A_i`` and the partial sums of ``a_jk - a_ik``; those
density weights give sign certificates that are uniform in the critical
value, and :func:`power_ordering` turns them into an ordered partition of the
four tests.

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
from itertools import chain
from typing import Mapping

import numpy as np

from .errors import DomainError, _check_sample_size
from .expansion import ClampedProbability, _check_drift, _clamp, _inv_sqrt, _telescoped
from .expfam import ExpFamModel, _in_range, _third_order
from .specfun import (
    _nc_chisq1_densities,
    central_chisq_quantile,
    nc_chisq1_tails,
    nc_chisq_cdf,  # noqa: F401 (unused; perfbench/tracing.py wraps it)
    nc_chisq_pdf,  # noqa: F401 (unused; perfbench/tracing.py wraps it)
)
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


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")


@dataclass(frozen=True)
class CoefficientTable:
    """Float rows LR, Wald, score, gradient; columns k = 0..3; ``sums``: each row's A_i."""

    rows: tuple[tuple[float, float, float, float], ...]
    sums: tuple[float, float, float, float]

    @property
    def a(self) -> np.ndarray:
        return np.array(self.rows)

    def row(self, kind: TestKind) -> np.ndarray:
        return np.array(self.rows[kind - 1])


class _lazy:
    # functools.cached_property without the lock Python 3.11 takes on each first access:
    # the value lands in the instance dict, which shadows this non-data descriptor
    def __init__(self, fn):
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.fn.__name__] = self.fn(obj)
        return value


@dataclass(frozen=True)
class PowerQuery:
    """An evaluation point and the values its four tests share, each computed on first use."""

    model: ExpFamModel
    theta0: float
    eps: float
    n: float
    alpha: float
    _root = None  # the query that at_eps moved this one from; it holds the null point's values

    def __post_init__(self):
        self.model.require_theta(self.theta0)
        _check_alpha(self.alpha)
        _check_sample_size(self.n)
        self._check_alternative()

    def _check_alternative(self) -> None:
        _check_drift(self.eps)
        if math.isfinite(self.n) and not self.model.in_param_space(self.theta_drifted):
            raise DomainError(
                f"drifted parameter {self.theta_drifted} leaves the parameter space"
            )

    def at_eps(self, eps: float) -> PowerQuery:
        """This query at drift ``eps``; it shares the null point and checks only the drift."""
        moved = object.__new__(PowerQuery)
        vars(moved).update(model=self.model, theta0=self.theta0, eps=eps, n=self.n,
                           alpha=self.alpha, _root=self._root or self)
        moved._check_alternative()
        return moved

    @property
    def theta_drifted(self) -> float:
        """The alternative theta0 + eps/sqrt(n) that the data are drawn under."""
        return self.theta0 + self.eps / math.sqrt(self.n)

    @_lazy
    def crit(self) -> float:  # solved on first use, never at construction
        root = self._root
        return central_chisq_quantile(1.0, self.alpha, upper=True) if root is None else root.crit

    @_lazy
    def lam(self) -> float:
        return 0.5 * (self._root or self)._fisher * self.eps ** 2

    @_lazy
    def _fisher(self) -> float:  # alpha' and beta' alone: K can be finite where beta'' is not
        return self.model.fisher_information(self.theta0)

    @_lazy
    def _terms(self) -> tuple[float, float, float, float, float]:
        return _null_terms(self.model, self.theta0)

    @property
    def scale(self) -> float:
        return _inv_sqrt(self.n)

    @_lazy
    def tails(self) -> tuple[float, float]:
        """(G_{1,lam}(crit), Q_{1,lam}(crit)): the df-1 cdf and upper tail, in closed form."""
        return nc_chisq1_tails(self.lam, self.crit)

    @_lazy
    def densities(self) -> tuple[float, float, float]:
        """(g_{3,lam}(crit), g_{5,lam}(crit), g_{7,lam}(crit)), in closed form.

        Each odd-df density is elementary (spherical Bessel functions), so no
        Poisson weights are walked; see ``specfun._nc_chisq1_densities``.
        """
        return _nc_chisq1_densities(self.lam, self.crit)

    @_lazy
    def _values(self) -> dict:
        # source -> table; per instance, as queries are unhashable
        return {}

    @_lazy
    def _powers(self) -> dict:
        # source -> the four tests' powers, from one pass of _four_powers
        return {}

    def coefficients(self, source: str) -> CoefficientTable:
        """The coefficient table under ``source``."""
        tables = self._values
        if source not in tables:
            _check_source(source)
            terms = (self._root or self)._terms
            tables[source] = _coefficient_table(terms, self.theta0, self.eps, source)
        return tables[source]


def _null_terms(model: ExpFamModel, theta0: float) -> tuple[float, float, float, float, float]:
    # the table's drift-free terms at theta0; no drift makes an overflowed product finite
    terms = _third_order(model, theta0)
    if terms[0] <= 0.0:
        raise DomainError(f"Fisher information must be positive at theta0={theta0}")
    return _in_range(model, theta0, terms)


def _coefficient_table(terms, theta0: float, eps: float, source: str) -> CoefficientTable:
    # the table at drift eps from the null point's terms; one that overflows is refused
    K, P, Q, R, apbpp = terms
    e3 = eps ** 3

    a_shared0 = -P * e3 / 6.0
    lr = (a_shared0, Q * e3 / 2.0, R * e3 / 6.0, 0.0)
    w1 = Q * e3 / 2.0 - P * eps / (2.0 * K)
    wald = (a_shared0, w1, -w1, P * e3 / 6.0)
    score = (a_shared0, Q * e3 / 2.0 - R * eps / (2.0 * K), R * eps / (2.0 * K), R * e3 / 6.0)
    grad0 = a_shared0 if source == SOURCE_CHAIN else -R * e3 / 6.0
    grad = (
        grad0,
        Q * e3 / 2.0 + P * eps / (4.0 * K),
        apbpp * e3 / 4.0 - P * eps / (4.0 * K),
        -P * e3 / 12.0,
    )
    rows = (lr, wald, score, grad)
    # P eps^3 and its kin overflow below the drift bound too; such a table would make
    # every power and certificate NaN, so it is refused
    if not all(map(math.isfinite, chain.from_iterable(rows))):
        raise DomainError(f"local power coefficients overflow at theta0={theta0}, eps={eps}")
    # A_i: every consistent-chain row sums to zero exactly, and the table source's
    # gradient row differs from its chain row in a_0 alone, so its sum is that
    # difference (0 where alpha'' = 0, as P = R there).  A float sum (~1e-19),
    # times G_1 ~ 1, would swamp a small upper tail
    return CoefficientTable(rows=rows, sums=(0.0, 0.0, 0.0, grad0 - a_shared0))


def power_coefficients(
    model: ExpFamModel, theta0: float, eps: float, source: str = SOURCE_CHAIN
) -> CoefficientTable:
    """The 4 x 4 local power coefficient array at ``theta0``; one that overflows is refused."""
    _check_source(source)
    model.require_theta(theta0)
    _check_drift(eps)
    return _coefficient_table(_null_terms(model, theta0), theta0, eps, source)


def local_power(
    query: PowerQuery, test: TestKind, source: str = SOURCE_CHAIN
) -> ClampedProbability:
    """Second-order rejection probability of one test at the query point.

    The first call per source evaluates all four tests in one pass; later calls look it up.
    """
    powers = query._powers.get(source)
    if powers is None:
        powers = query._powers[source] = _four_powers(query, source)
    return powers[test - 1]


def _four_powers(query: PowerQuery, source: str) -> tuple[ClampedProbability, ...]:
    # Pi_i = Q_1 - n^{-1/2} [A_i G_1 - 2 sum_m C_im g_{1+2m}] for the four rows in one loop,
    # by _telescoped's rules: zero weights skipped, m = 1..3 in order, densities on demand
    table = query.coefficients(source)  # fetched at n = inf too: it validates source and eps
    g1, q1 = query.tails
    scale = query.scale
    if scale == 0.0:  # at n = inf no density is evaluated
        return (_clamp(q1),) * 4
    powers = []
    for A, (_, c1, c2, c3) in zip(table.sums, table.rows):
        total = A * g1 if A != 0.0 else 0.0
        for m, C in enumerate((c1 + c2 + c3, c2 + c3, c3)):  # C_im, as _weights takes it
            if C != 0.0:
                total -= 2.0 * C * query.densities[m]
        powers.append(_clamp(q1 - scale * total))
    return tuple(powers)


def _difference_terms(table: CoefficientTable, i: TestKind, j: TestKind):
    # (csum, C) of Pi_i - Pi_j = n^{-1/2} [csum G_1 - 2 sum_m C_m g_{1+2m}] (telescoped):
    # csum = A_j - A_i from the exact row sums, as local_power takes them, C_1 = csum
    # minus the difference of the a_0, by the same sums, and C_m = sum_{k >= m}
    # (a_jk - a_ik) in floats for m = 2, 3
    d0, _, d2, d3 = (b - a for a, b in zip(table.rows[i - 1], table.rows[j - 1]))
    csum = table.sums[j - 1] - table.sums[i - 1]
    return csum, (csum - d0, d2 + d3, d3)


def _second_order(query: PowerQuery, csum: float, C) -> float:
    # csum * G_1 - 2 * sum_m C_m g_{1+2m} at the query point
    return _telescoped(csum, C, lambda: query.tails[0], lambda m: query.densities[m - 1])


def power_difference(
    query: PowerQuery, i: TestKind, j: TestKind, source: str = SOURCE_CHAIN
) -> float:
    """Pi_i - Pi_j via the telescoped density representation (exact antisymmetry)."""
    csum, C = _difference_terms(query.coefficients(source), i, j)
    return query.scale * _second_order(query, csum, C)


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
    _check_alpha(alpha)
    if not eps_grid or any(e <= 0.0 for e in eps_grid):
        raise DomainError("eps_grid must contain positive magnitudes")
    for eps in eps_grid:
        _check_drift(eps)  # before the sign multiplies it
    sign = 1.0 if eps_sign == "above" else -1.0
    model.require_theta(theta0)
    terms = _null_terms(model, theta0)
    tables = [_coefficient_table(terms, theta0, sign * eps, source) for eps in eps_grid]
    tols = [_COEF_TOL * max(1.0, *map(abs, chain.from_iterable(t.rows))) for t in tables]

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
    # per grid eps, one query per alpha, each alpha's moved from one query; at n = inf
    # no drifted point is built, and the sign needs none
    alphas = sorted({0.01, 0.025, alpha, 0.10, 0.20})
    roots = [PowerQuery(model, theta0, sign * eps_grid[0], math.inf, a) for a in alphas]
    return [[q.at_eps(sign * eps) for q in roots] for eps in eps_grid]


def _grid_relation(queries, weights) -> str:
    # pointwise comparison at a spread of critical values, on each grid eps's
    # certificate weights; n only scales the difference, so the sign is taken
    # from the unscaled telescoped sum
    signs = set()
    for row, (csum, C) in zip(queries, weights):
        for q in row:
            diff = _second_order(q, csum, C)
            if abs(diff) > 1e-14:
                signs.add(1 if diff > 0 else -1)
    return _relation(signs)


def _assemble_groups(certificates) -> tuple[tuple[TestKind, ...], ...]:
    # merge the classes of each equal pair, then sort the classes, stably, by wins:
    # each strict pair counts +1 for its winner's class, else -1 for its loser's
    cls = {k: k for k in ALL_KINDS}  # each test's class, named by one of its members
    for (i, j), cert in certificates.items():
        if cert.relation == "equal":
            cls = {k: cls[i] if c == cls[j] else c for k, c in cls.items()}
    wins = dict.fromkeys(cls.values(), 0)  # in the order of each class's first member
    for (i, j), cert in certificates.items():
        if cert.relation in ("greater", "less"):
            win, lose = (cls[i], cls[j]) if cert.relation == "greater" else (cls[j], cls[i])
            wins[win] += 1
            if lose != win:
                wins[lose] -= 1
    order = sorted(wins, key=wins.get, reverse=True)
    return tuple(tuple(k for k in ALL_KINDS if cls[k] == c) for c in order)
