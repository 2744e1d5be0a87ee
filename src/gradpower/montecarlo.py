"""Seeded Monte Carlo verification of the local power expansions.

Every statistic depends on a replicate's data only through d-bar, the mean of
the sufficient statistic, so a replicate is one d-bar.  Replicates are
processed in chunks of ``_CHUNK``, and d-bar has two sources:

* When the model's sampler carries the exact law of d-bar (every catalog
  model does, see :class:`~gradpower.expfam.LawSampler`), chunk ``c`` is one
  law draw laid out as ``_CHUNK`` values, from a Philox stream keyed by
  ``(seed, 2**63 + c)``, a key no replicate stream uses, and replicate ``j``
  takes value ``j mod _CHUNK`` of chunk ``j // _CHUNK``.  A chunk that ends
  before its last value (the last chunk of a run, or one replicate) asks the
  law for the prefix up to its last replicate, ``take = i + hi - lo`` for
  replicates ``lo..hi-1`` at offset ``i``: the law draws every uniform of the
  full layout but forms only those values, which equal the full draw's bit for
  bit.
* Otherwise replicate ``j`` draws ``n`` observations from its own Philox
  stream, keyed by ``(seed, j)``, and averages their ``d``.

Either way replicate ``j`` depends only on ``(seed, j)`` for a fixed model,
drifted parameter and ``n``, never on the replicate count.  Chunks run one
after another in the calling process; the worker count is recorded in the
report and starts no process, so reports are bit-identical for any worker
count.

Whatever its source, the d-bar of two consecutive chunks (at most 8192 values)
has a single evaluation: one call of
:func:`~gradpower.teststats.statistics_from_dbar`, which computes the
estimates and statistics element by element in numpy, float warnings off; a
replicate whose estimate fails (NaN) or with a non-finite statistic is a failure.
The pair drops failed rows from each of the four statistic arrays, or uses them
as they are when every row is usable, and counts each test's rejections on its
own 1-D array.  Each chunk of the pair still returns its own exactly rounded
sums of the first six powers of the gradient statistic over its kept rows,
which ``simulate`` combines across chunks with ``math.fsum``;
:func:`_exact_sum` gives each chunk's sums bit for bit as ``math.fsum`` would,
without its per-value Python loop, and the largest magnitude of every power
follows from one max/min pass over the chunk's statistic.  Every pass that
changes no value on a clean chunk (one with no zero uniform, no non-positive
gamma proposal and no failed row) is skipped.  For gamma with n = 50 a chunk of
4096 drawn from the law takes about 0.44 ms: 0.21 ms to draw (9 us of it to
build the chunk's generator), 0.08 ms to evaluate, 0.08 ms for the six power
sums and the rest for the rejection counts.  A run of 5000 is one pair, a full
chunk and a last one of 904, and takes about 0.63 ms: 0.34 ms to draw both
(0.10 ms of it for the 904-value prefix), 0.09 ms to evaluate the pair and
0.11 ms for both chunks' power sums (2-vCPU x86-64 shared with other tenants,
numpy 2.4, the lowest of eight medians of 200 in-process calls).

Besides plain size/power estimation the module carries the two arbitration
experiments this package is built around: which convention for the leading
gradient coefficient matches simulated rejection rates, and which of the two
second-order mean formulas matches the simulated mean of the gradient
statistic.
"""

from __future__ import annotations

import inspect
import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import DomainError, EstimationError, GradpowerError, _check_integer
from .expfam import ExpFamModel, catalog_model, cumulants
from .expansion import composite_coefficients, st_moments, tensors_from_cumulants
from .localpower import SOURCE_CHAIN, SOURCE_TABLE, PowerQuery, local_power
from .specfun import central_chisq_quantile  # noqa: F401 (unused; perfbench/tracing.py wraps it)
from .teststats import ALL_KINDS, TestKind, statistics_from_dbar

__all__ = [
    "GradientSourceAdjudication",
    "MeanExpansionAdjudication",
    "MomentEstimates",
    "SimulationConfig",
    "SimulationReport",
    "adjudicate_gradient_sources",
    "adjudicate_mean_expansion",
    "simulate",
]

_CHUNK = 4096
_MASK64 = (1 << 64) - 1
# chunk streams set this bit of the key's second word; replicate indices stay below it
_CHUNK_KEY = 1 << 63
_FAILURE_LIMIT = 1e-3
# _exact_sum's fast path: up to 2**18 values, max|x| in [2**-900, 2**960); below, its
# grid could underflow, above, math.fsum's partial sums could overflow
_EXACT_SUM_SIZE = 1 << 18
_EXACT_SUM_MIN = 2.0 ** -900
_EXACT_SUM_MAX = 2.0 ** 960


@dataclass(frozen=True)
class SimulationConfig:
    """One simulation experiment: model, drift, sizes, seed.

    ``workers`` is validated and recorded in the report; it starts no process,
    since every chunk runs in the calling process.
    """

    model: ExpFamModel
    theta0: float
    eps: float
    n: int
    reps: int
    alpha: float
    seed: int
    compare_sources: bool = False
    workers: int = 1

    def __post_init__(self):
        for name in ("n", "reps", "workers"):
            _check_integer(name, getattr(self, name))
        if self.n < 2:
            raise DomainError(f"per-replicate sample size must be >= 2, got {self.n}")
        self.query  # validates theta0, alpha and the drifted parameter
        if not 1 <= self.reps <= _CHUNK_KEY:
            raise DomainError(f"replicate count must lie in [1, 2**63], got {self.reps}")
        if self.workers < 1:
            raise DomainError(f"workers must be >= 1, got {self.workers}")
        _check_seed(self.seed)

    @cached_property
    def query(self) -> PowerQuery:
        return PowerQuery(self.model, self.theta0, self.eps, self.n, self.alpha)


@dataclass(frozen=True)
class MomentEstimates:
    """Sample mean, variance, and third central moment with standard errors."""

    mean: float
    variance: float
    third_central: float
    se_mean: float
    se_variance: float
    se_third: float


@dataclass(frozen=True)
class SimulationReport:
    """Aggregated rejection rates and gradient-statistic moments.

    ``wall_time`` is excluded from equality so that reports from identical
    configurations compare equal regardless of runtime.  ``workers`` echoes
    the configuration's recorded worker count, which changes no other field.
    """

    rejection_rate: tuple[float, float, float, float]
    mc_stderr: tuple[float, float, float, float]
    predicted_power: Mapping[str, tuple[float, float, float, float]]
    st_moment_estimates: MomentEstimates
    joint_score_gradient_rate: float
    failures: int
    reps: int
    reps_used: int
    seed: int
    model_name: str
    theta0: float
    eps: float
    n: int
    alpha: float
    critical_value: float
    workers: int
    wall_time: float = field(compare=False)


def _check_seed(seed: int) -> None:
    _check_integer("seed", seed)
    if not 0 <= seed <= _MASK64:
        raise DomainError(f"seed must lie in [0, 2**64), got {seed}")


def _check_index(j: int) -> None:
    # an index out of range would wrap onto another replicate's key or a chunk's
    _check_integer("replicate index", j)
    if not 0 <= j < _CHUNK_KEY:
        raise DomainError(f"replicate index must lie in [0, 2**63), got {j}")


def replicate_stream(seed: int, j: int) -> np.random.Generator:
    """The stream for replicate ``j``: Philox keyed by (seed, j).

    Raises :class:`DomainError` for a seed or ``j`` that is not an integer
    (a bool included), a seed outside [0, 2**64) or a ``j`` outside
    [0, 2**63), whose key would wrap onto another replicate's or a chunk's.
    """
    _check_seed(seed)
    _check_index(j)
    return np.random.Generator(np.random.Philox(key=np.array([seed, j], dtype=np.uint64)))


def _chunk_stream(seed: int, c: int) -> np.random.Generator:
    """The stream of chunk ``c``'s law draws; no replicate stream has its key."""
    key = np.array([seed & _MASK64, _CHUNK_KEY | c], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _takes_a_prefix(law) -> bool:
    # whether law's signature accepts the five positional arguments _law_dbars passes;
    # a callable whose signature cannot be read is given the benefit of the doubt
    try:
        inspect.signature(law).bind(0.0, 1, _CHUNK, None, _CHUNK)
    except TypeError:
        return False
    except ValueError:
        pass
    return True


def _law_dbars(
    law, theta_gen: float, n: int, seed: int, c: int, take: int = _CHUNK
) -> np.ndarray:
    # the first take values of chunk c's law draw, always laid out as a full chunk, so
    # that no replicate's d-bar depends on the replicate count
    try:
        return law(theta_gen, n, _CHUNK, _chunk_stream(seed, c), take)
    except TypeError as exc:
        if _takes_a_prefix(law):  # the law's own fault
            raise
        raise TypeError(
            f"the law of d-bar {law!r} must accept (theta, n, size, rng, take) and "
            "return the first take of its size draws, see expfam.LawSampler"
        ) from exc


def _dbars(config: SimulationConfig, lo: int, hi: int) -> np.ndarray:
    # the d-bar of replicates lo..hi-1: on the law route, for each chunk they reach,
    # the tail of the prefix of its law draw that reaches hi, in order; else one
    # observation mean per replicate stream
    model, n, seed = config.model, config.n, config.seed
    theta_gen = config.query.theta_drifted
    law = getattr(model.sampler, "dbar", None)
    if law is None:
        return np.array([np.mean(model.d(model.sampler(theta_gen, n, replicate_stream(seed, j))))
                         for j in range(lo, hi)], dtype=float)
    parts = []
    for c in range(lo // _CHUNK, (hi - 1) // _CHUNK + 1):
        base = c * _CHUNK
        take = min(hi - base, _CHUNK)
        parts.append(_law_dbars(law, theta_gen, n, seed, c, take)[max(lo - base, 0):])
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _statistics(config: SimulationConfig, lo: int, hi: int):
    # the statistics of replicates lo..hi-1, the mask of rows with an estimate and the
    # mask of usable rows; a failed row (a NaN theta_hat, or an estimate with a
    # non-finite statistic) is counted, so numpy's warnings are off
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d_bar = _dbars(config, lo, hi)
        theta_hat, s = statistics_from_dbar(config.model, config.theta0, d_bar, config.n)
        estimated = ~np.isnan(theta_hat)
        ok = estimated.copy()
        for si in s:
            ok &= np.isfinite(si)
    return estimated, ok, s


def replicate_statistics(config: SimulationConfig, j: int) -> tuple[float, float, float, float]:
    """Statistics of replicate ``j``: its row of the array evaluation ``simulate(config)`` makes.

    They depend on (``config.seed``, j) only, for a fixed model, drifted parameter
    and ``n``, so ``j`` may lie past ``config.reps``.  Raises
    :class:`EstimationError` when the estimate fails or a statistic is not
    finite, and :class:`DomainError` for a ``j`` that is not an integer or lies
    outside [0, 2**63), whose stream key would wrap onto another replicate's or
    a chunk's; every other input is checked by :class:`SimulationConfig`.
    """
    _check_index(j)
    estimated, ok, s = _statistics(config, j, j + 1)
    name = config.model.name
    if not estimated[0]:
        raise EstimationError(f"estimation failed in replicate {j} (model={name!r})")
    if not ok[0]:
        raise EstimationError(f"non-finite statistic in replicate {j} (model={name!r})")
    return tuple(float(si[0]) for si in s)


def _exact_sum(x: np.ndarray, top: float | None = None) -> float:
    """``math.fsum(x.tolist())``, bit for bit, without a Python loop over ``x``.

    ``top``, when given, must be max|x| (``max(x.max(), -x.min())``), which a
    caller may know without a pass over ``x``.

    With ``sigma = 2**(e + size.bit_length())`` and ``2**e`` above max|x|, the
    extraction ``hi = (sigma + x) - sigma`` and ``x - hi`` are exact (Rump, Ogita
    & Oishi 2008, *SIAM J. Sci. Comput.* 31(1):189, Lemma 3.3): every ``hi`` is a
    multiple of ``2**-53 sigma``, so ``t = hi.sum()`` is exact in any order, and
    ``|x - hi| <= 2**-53 sigma``, so their float sum ``r`` is within
    ``size**2 * 2**-106 * sigma`` (taken as ``2**-104``, for any summation tree).
    ``s = t + r`` is returned when its TwoSum error plus that bound is below half
    the gap to either neighbour of ``s``, so that the exact total rounds to ``s``.
    Near-ties, an empty or oversized array, a non-finite value, max|x| outside
    [2**-900, 2**960) and a zero or subnormal ``s`` go to ``math.fsum`` itself,
    so those results, signed zeros and raised errors are its own.
    """
    size = x.size
    if not 0 < size <= _EXACT_SUM_SIZE:
        top = math.nan
    elif top is None:
        top = float(max(x.max(), -x.min()))
    if not _EXACT_SUM_MIN <= top < _EXACT_SUM_MAX:  # NaN (no, too many or NaN values) or inf
        return math.fsum(x.tolist())
    scale = math.frexp(top)[1] + size.bit_length()  # sigma = 2**scale
    sigma = math.ldexp(1.0, scale)
    hi = x + sigma
    hi -= sigma
    t = float(hi.sum())
    np.subtract(x, hi, out=hi)  # the low parts, in place of the high ones
    r = float(hi.sum())
    s = t + r
    z = s - t
    err = abs((t - (s - z)) + (r - z)) + math.ldexp(size * size, scale - 104)
    # the bound is at least 2**-1002, so a zero or subnormal s always falls back
    if 2.0 * err < min(math.nextafter(s, math.inf) - s, s - math.nextafter(s, -math.inf)):
        return s
    return math.fsum(x.tolist())


def _power_sums(s4, edges):
    # the exactly rounded sums of s4, s4^2, ..., s4^6 (each power the last times s4)
    # over each segment s4[a:b] between consecutive edges, six per segment.  Rounding
    # is monotone and symmetric in sign, so the largest |power| of a segment is the
    # same chain of products of its max|s4|, inf and 0 included: one max/min pass per
    # segment gives _exact_sum every top.  A power or sum past the float range gives a
    # non-finite sum, which simulate refuses by name
    sums = []
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in zip(edges, edges[1:]):
            x = s4[a:b]
            first = float(max(x.max(), -x.min())) if a < b else math.nan
            power, top, out = x, first, []
            for k in range(6):
                if k:
                    power = power * x
                    top *= first
                try:
                    out.append(_exact_sum(power, top))
                except (OverflowError, ValueError):  # math.fsum past the range, or inf - inf
                    out.append(math.nan)
            sums.append(tuple(out))
    return sums


def _run_chunks(config: SimulationConfig, lo: int, hi: int):
    # replicates lo..hi-1, at most two chunks from the start of one, in one evaluation;
    # returns (rejection counts[4], joint34, failures by reason (estimation failed, a
    # statistic not finite), used, s4 power sums[6] of each chunk)
    estimated, ok, s = _statistics(config, lo, hi)
    edges = [0, hi - lo] if hi - lo <= _CHUNK else [0, _CHUNK, hi - lo]
    if ok.all():
        stats = s
    else:
        stats = [si[ok] for si in s]
        edges = [int(np.count_nonzero(ok[:b])) for b in edges]  # of the kept rows
    used = len(stats[3])
    n_estimated = int(np.count_nonzero(estimated))
    xcrit = config.query.crit
    reject = [si > xcrit for si in stats]
    joint34 = int(np.count_nonzero(reject[2] & reject[3]))
    rej = tuple(int(np.count_nonzero(r)) for r in reject)
    sums = _power_sums(stats[3], edges)
    return (rej, joint34, (hi - lo - n_estimated, n_estimated - used), used, sums)


def _central_moments(power_sums, used):
    m = [s / used for s in power_sums]  # raw moments M1..M6
    mean = m[0]
    c2 = m[1] - mean ** 2
    c3 = m[2] - 3.0 * mean * m[1] + 2.0 * mean ** 3
    c4 = m[3] - 4.0 * mean * m[2] + 6.0 * mean ** 2 * m[1] - 3.0 * mean ** 4
    c6 = (
        m[5]
        - 6.0 * mean * m[4]
        + 15.0 * mean ** 2 * m[3]
        - 20.0 * mean ** 3 * m[2]
        + 15.0 * mean ** 4 * m[1]
        - 5.0 * mean ** 6
    )
    se_mean = math.sqrt(max(c2, 0.0) / used)
    se_var = math.sqrt(max(c4 - c2 ** 2, 0.0) / used)
    se_third = math.sqrt(max(c6 - c3 ** 2 - 6.0 * c2 * c4 + 9.0 * c2 ** 3, 0.0) / used)
    return MomentEstimates(
        mean=mean,
        variance=c2,
        third_central=c3,
        se_mean=se_mean,
        se_variance=se_var,
        se_third=se_third,
    )


def _moment_estimates(partials, used, config) -> MomentEstimates:
    # the moments of the gradient statistic from the chunks' power sums; sums or moments
    # past the float range are refused by name rather than reported as inf or nan
    try:
        sums = [math.fsum(chunk[t] for p in partials for chunk in p[4]) for t in range(6)]
        moments = _central_moments(sums, used)
    except (OverflowError, ValueError):  # math.fsum or ** past the range, or inf - inf
        moments = None
    if moments is None or not all(map(math.isfinite, vars(moments).values())):
        raise GradpowerError(
            f"moment sums of the gradient statistic overflow (model={config.model.name!r}, "
            f"theta0={config.theta0}, eps={config.eps}, n={config.n}, seed={config.seed})"
        )
    return moments


def simulate(config: SimulationConfig) -> SimulationReport:
    """Run the experiment; deterministic for fixed (seed, reps, n, model)."""
    t_start = time.perf_counter()
    sources = (SOURCE_CHAIN, SOURCE_TABLE) if config.compare_sources else (SOURCE_CHAIN,)
    # builds and checks every coefficient table: an overflowing one is refused before
    # any chunk runs
    predicted = {
        src: tuple(local_power(config.query, kind, src).value for kind in ALL_KINDS)
        for src in sources
    }
    partials = [_run_chunks(config, lo, min(lo + 2 * _CHUNK, config.reps))
                for lo in range(0, config.reps, 2 * _CHUNK)]

    rej = [sum(p[0][i] for p in partials) for i in range(4)]
    joint34 = sum(p[1] for p in partials)
    unestimated = sum(p[2][0] for p in partials)
    non_finite = sum(p[2][1] for p in partials)
    failures = unestimated + non_finite
    used = sum(p[3] for p in partials)

    # reps >= 1, so a run with no usable replicate always trips this limit
    if failures > _FAILURE_LIMIT * config.reps:
        raise EstimationError(
            f"{failures}/{config.reps} replicates failed: estimation failed in "
            f"{unestimated}, a statistic was not finite in {non_finite} "
            f"(model={config.model.name!r}, theta0={config.theta0}, eps={config.eps}, "
            f"n={config.n}, seed={config.seed})"
        )

    moments = _moment_estimates(partials, used, config)
    rates = tuple(r / used for r in rej)
    stderr = tuple(math.sqrt(r * (1.0 - r) / used) for r in rates)

    return SimulationReport(
        rejection_rate=rates,
        mc_stderr=stderr,
        predicted_power=predicted,
        st_moment_estimates=moments,
        joint_score_gradient_rate=joint34 / used,
        failures=failures,
        reps=config.reps,
        reps_used=used,
        seed=config.seed,
        model_name=config.model.name,
        theta0=config.theta0,
        eps=config.eps,
        n=config.n,
        alpha=config.alpha,
        critical_value=config.query.crit,
        workers=config.workers,
        wall_time=time.perf_counter() - t_start,
    )


# ------------------------------------------------------------------ #
# Arbitration experiments
# ------------------------------------------------------------------ #


@dataclass(frozen=True)
class GradientSourceAdjudication:
    """Empirical check of the two gradient-coefficient conventions.

    The two sources predict different score/gradient power gaps whenever
    ``alpha'' != 0``; the truncated-extreme-value model separates them
    cleanly.  ``se_diff`` is the paired standard error of the rate
    difference; ``favored`` names the source whose prediction sits closer to
    the empirical difference.
    """

    report: SimulationReport
    empirical_diff: float
    se_diff: float
    predicted_diff: Mapping[str, float]
    distance_se: Mapping[str, float | None]
    favored: str

    def describe(self) -> str:
        lines = [
            "gradient-coefficient convention arbitration "
            f"(model={self.report.model_name}, theta0={self.report.theta0}, "
            f"eps={self.report.eps}, n={self.report.n}, reps={self.report.reps}, "
            f"alpha={self.report.alpha}, seed={self.report.seed})",
            f"empirical gradient-minus-score rejection gap: {self.empirical_diff:.6g} "
            f"(paired se {self.se_diff:.3g})",
        ]
        for src, pred in self.predicted_diff.items():
            dse = self.distance_se[src]
            dtxt = "exact" if dse is None else f"{dse:.3g} se"
            lines.append(f"predicted gap under {src!r}: {pred:.6g} (distance {dtxt})")
        lines.append(f"empirical evidence favors: {self.favored!r}")
        return "\n".join(lines)


def adjudicate_gradient_sources(
    theta0: float = 1.0,
    eps: float = 1.0,
    n: int = 400,
    reps: int = 1_000_000,
    alpha: float = 0.05,
    seed: int = 20260810,
) -> GradientSourceAdjudication:
    """Score-vs-gradient power gap on the truncated extreme value model."""
    model = catalog_model("tev")
    config = SimulationConfig(
        model=model, theta0=theta0, eps=eps, n=n, reps=reps, alpha=alpha,
        seed=seed, compare_sources=True,
    )
    rep = simulate(config)
    p3 = rep.rejection_rate[TestKind.SCORE - 1]
    p4 = rep.rejection_rate[TestKind.GRADIENT - 1]
    p34 = rep.joint_score_gradient_rate
    emp = p4 - p3
    var = (p4 * (1 - p4) + p3 * (1 - p3) - 2.0 * (p34 - p3 * p4)) / rep.reps_used
    se = math.sqrt(max(var, 0.0))

    predicted = {}
    for src, powers in rep.predicted_power.items():
        predicted[src] = powers[TestKind.GRADIENT - 1] - powers[TestKind.SCORE - 1]
    distance = {}
    for src, pred in predicted.items():
        gap = abs(emp - pred)
        distance[src] = None if se == 0.0 and gap == 0.0 else gap / se if se > 0.0 else math.inf
    favored = min(predicted, key=lambda s: abs(emp - predicted[s]))
    return GradientSourceAdjudication(
        report=rep,
        empirical_diff=emp,
        se_diff=se,
        predicted_diff=predicted,
        distance_se=distance,
        favored=favored,
    )


@dataclass(frozen=True)
class MeanExpansionAdjudication:
    """Empirical check of the two second-order mean formulas.

    ``literal_mean`` carries the noncentrality once; ``mixture_mean`` carries
    it twice, as the CDF-mixture weights imply.  ``favored`` names the closer
    formula, with distances in Monte Carlo standard errors.
    """

    report: SimulationReport
    empirical_mean: float
    se_mean: float
    literal_mean: float
    mixture_mean: float
    z_literal: float
    z_mixture: float
    favored: str

    def describe(self) -> str:
        return "\n".join(
            [
                "second-order mean arbitration "
                f"(model={self.report.model_name}, theta0={self.report.theta0}, "
                f"eps={self.report.eps}, n={self.report.n}, reps={self.report.reps}, "
                f"seed={self.report.seed})",
                f"empirical mean of the gradient statistic: {self.empirical_mean:.6g} "
                f"(se {self.se_mean:.3g})",
                f"mixture-implied mean: {self.mixture_mean:.6g} "
                f"({abs(self.z_mixture):.3g} se away)",
                f"literal expansion mean: {self.literal_mean:.6g} "
                f"({abs(self.z_literal):.3g} se away)",
                f"empirical evidence favors: {self.favored!r}",
            ]
        )


def adjudicate_mean_expansion(
    k: float = 2.0,
    theta0: float = 1.0,
    eps: float = 1.0,
    n: int = 200,
    reps: int = 200_000,
    alpha: float = 0.05,
    seed: int = 20260810,
) -> MeanExpansionAdjudication:
    """Mean of the gradient statistic on the gamma model under drift."""
    model = catalog_model("gamma", {"k": k})
    config = SimulationConfig(
        model=model, theta0=theta0, eps=eps, n=n, reps=reps, alpha=alpha, seed=seed,
    )
    rep = simulate(config)
    tensors = tensors_from_cumulants(cumulants(model, theta0))
    moments = st_moments(tensors, [eps], n)
    mixture_mean = composite_coefficients(tensors, [eps]).mixture_mean(n)
    est = rep.st_moment_estimates
    z_lit = (est.mean - moments.m1) / est.se_mean
    z_mix = (est.mean - mixture_mean) / est.se_mean
    favored = "mixture" if abs(z_mix) <= abs(z_lit) else "literal"
    return MeanExpansionAdjudication(
        report=rep,
        empirical_mean=est.mean,
        se_mean=est.se_mean,
        literal_mean=moments.m1,
        mixture_mean=mixture_mean,
        z_literal=z_lit,
        z_mixture=z_mix,
        favored=favored,
    )
