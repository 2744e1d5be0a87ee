"""Seeded Monte Carlo verification of the local power expansions.

Every statistic depends on a replicate's data only through d-bar, the mean of
the sufficient statistic, so a replicate is one d-bar.  Replicates are
processed in chunks of ``_CHUNK``, and a chunk gets its d-bar values by one of
two routes:

* When the model's sampler carries the exact law of d-bar (every catalog
  model does, see :class:`~gradpower.expfam.LawSampler`), chunk ``c`` draws
  all ``_CHUNK`` values at once from a Philox stream keyed by
  ``(seed, 2**63 + c)``, a key no replicate stream uses, and replicate ``j``
  takes value ``j mod _CHUNK`` of chunk ``j // _CHUNK``.
* Otherwise replicate ``j`` draws ``n`` observations from its own Philox
  stream, keyed by ``(seed, j)``, and averages their ``d``.

Either way replicate ``j`` depends only on ``(seed, j)`` for a fixed model,
drifted parameter and ``n``, never on the replicate count or on how chunks
are spread over worker processes, so reports are bit-identical for any worker
count.

On the law route a chunk computes its statistics in one call of
:func:`~gradpower.teststats.statistics_from_dbar` on its d-bar array, which
evaluates them element by element in numpy; a replicate whose estimate fails
has a NaN estimate in its row and is counted as a failure.  For gamma with
n = 50 a chunk of 4096 takes about 0.5 ms to draw, 0.14 ms to evaluate (a
loop of scalar calls took 18 ms) and 2.5 ms for its power sums (2-vCPU
x86-64, numpy 2.4).  The per-observation route, which serves any sampler
without a law, and models whose callables only take floats, calls it once
per replicate.  Each chunk returns exactly rounded power sums of the gradient
statistic, which ``math.fsum`` combines.

Besides plain size/power estimation the module carries the two arbitration
experiments this package is built around: which convention for the leading
gradient coefficient matches simulated rejection rates, and which of the two
second-order mean formulas matches the simulated mean of the gradient
statistic.
"""

from __future__ import annotations

import math
import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Mapping

import numpy as np

from .errors import DomainError, EstimationError
from .expfam import ExpFamModel, catalog_model, cumulants
from .expansion import st_moments, tensors_from_cumulants
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


@dataclass(frozen=True)
class SimulationConfig:
    """One simulation experiment: model, drift, sizes, seed."""

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
        for name in ("n", "reps", "workers", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise DomainError(f"{name} must be an integer, got {value!r}")
        if self.n < 2:
            raise DomainError(f"per-replicate sample size must be >= 2, got {self.n}")
        self.query  # validates theta0, alpha and the drifted parameter
        if not 1 <= self.reps <= _CHUNK_KEY:
            raise DomainError(f"replicate count must lie in [1, 2**63], got {self.reps}")
        if self.workers < 1:
            raise DomainError(f"workers must be >= 1, got {self.workers}")
        if not 0 <= self.seed <= _MASK64:
            raise DomainError(f"seed must lie in [0, 2**64), got {self.seed}")

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
    configurations compare equal regardless of runtime.
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


def replicate_stream(seed: int, j: int) -> np.random.Generator:
    """The stream for replicate ``j``: Philox keyed by (seed, j)."""
    key = np.array([seed & _MASK64, j & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _chunk_stream(seed: int, c: int) -> np.random.Generator:
    """The stream of chunk ``c``'s law draws; no replicate stream has its key."""
    key = np.array([seed & _MASK64, _CHUNK_KEY | c], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _law_dbars(law, theta_gen: float, n: int, seed: int, c: int) -> np.ndarray:
    # always a full chunk, so that no replicate's d-bar depends on the replicate count
    return law(theta_gen, n, _CHUNK, _chunk_stream(seed, c))


def _chunk_statistics(model, law, theta_gen, theta0, n, seed, c, size):
    # statistics of chunk c's first `size` replicates, one array evaluation;
    # a failed estimate leaves a NaN theta_hat in its row
    d_bar = _law_dbars(law, theta_gen, n, seed, c)[:size]
    return statistics_from_dbar(model, theta0, d_bar, n)


def replicate_statistics(
    model: ExpFamModel, theta_gen: float, theta0: float, n: int, seed: int, j: int
) -> tuple[float, float, float, float]:
    """Statistics of replicate ``j``, by the route :func:`simulate` takes.

    They depend on (seed, j) only, for a fixed model, ``theta_gen`` and ``n``.
    On the law route they are row ``j mod _CHUNK`` of its chunk's array
    evaluation.  Raises :class:`EstimationError` when the estimate fails.
    """
    law = getattr(model.sampler, "dbar", None)
    if law is None:
        xs = model.sampler(theta_gen, n, replicate_stream(seed, j))
        d_bar = float(np.mean(model.d(xs)))
        _, s = statistics_from_dbar(model, theta0, d_bar, n)
        return s
    c, i = divmod(j, _CHUNK)
    theta_hat, s = _chunk_statistics(model, law, theta_gen, theta0, n, seed, c, _CHUNK)
    if math.isnan(theta_hat[i]):
        raise EstimationError(f"estimation failed in replicate {j} (model={model.name!r})")
    return tuple(float(si[i]) for si in s)


def _run_chunk(model, theta_gen, theta0, n, seed, lo, hi, xcrit):
    # returns (rejection counts[4], joint34, failures, used, s4 power sums[6])
    law = getattr(model.sampler, "dbar", None)
    if law is None:
        rows = []
        for j in range(lo, hi):
            try:
                rows.append(replicate_statistics(model, theta_gen, theta0, n, seed, j))
            except EstimationError:
                continue
        stats = np.array(rows, dtype=float).reshape(-1, 4)
    else:
        theta_hat, s = _chunk_statistics(model, law, theta_gen, theta0, n, seed,
                                         lo // _CHUNK, hi - lo)
        stats = np.column_stack(s)[~np.isnan(theta_hat)]
    failures = hi - lo - len(stats)
    reject = stats > xcrit
    joint34 = int(np.count_nonzero(reject[:, 2] & reject[:, 3]))
    s4 = stats[:, 3]
    power = s4
    sums = []
    for _ in range(6):  # exactly rounded sums of s4, s4^2, ..., s4^6
        sums.append(math.fsum(power.tolist()))
        power = power * s4
    rej = tuple(int(c) for c in np.count_nonzero(reject, axis=0))
    return (rej, joint34, failures, len(stats), tuple(sums))


def _chunk_task(args):
    return _run_chunk(*args)


def _observations(sampler, theta, n, rng):
    return sampler(theta, n, rng)


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


def simulate(config: SimulationConfig) -> SimulationReport:
    """Run the experiment; deterministic for fixed (seed, reps, n, model)."""
    t_start = time.perf_counter()
    model = config.model
    theta_gen = config.query.theta_drifted
    xcrit = config.query.crit

    if config.workers > 1 and getattr(model.sampler, "dbar", None) is None:
        # a sampler may pickle as one that carries a law (a traced one does):
        # keep the workers on the route chosen here
        model = replace(model, sampler=partial(_observations, model.sampler))
    chunks = [
        (model, theta_gen, config.theta0, config.n, config.seed, lo,
         min(lo + _CHUNK, config.reps), xcrit)
        for lo in range(0, config.reps, _CHUNK)
    ]
    if config.workers > 1 and len(chunks) > 1:
        # the pool starts every worker at the first submit; more than one per
        # chunk would sit idle
        with ProcessPoolExecutor(max_workers=min(config.workers, len(chunks))) as pool:
            partials = list(pool.map(_chunk_task, chunks, chunksize=1))
    else:
        partials = [_run_chunk(*c) for c in chunks]

    rej = [sum(p[0][i] for p in partials) for i in range(4)]
    joint34 = sum(p[1] for p in partials)
    failures = sum(p[2] for p in partials)
    used = sum(p[3] for p in partials)
    sums = [math.fsum(p[4][t] for p in partials) for t in range(6)]

    if failures > _FAILURE_LIMIT * config.reps:
        raise EstimationError(
            f"estimation failed in {failures}/{config.reps} replicates "
            f"(model={model.name!r}, theta0={config.theta0}, eps={config.eps}, "
            f"n={config.n}, seed={config.seed})"
        )
    if used == 0:
        raise EstimationError("no usable replicates")

    rates = tuple(r / used for r in rej)
    stderr = tuple(math.sqrt(r * (1.0 - r) / used) for r in rates)

    sources = (SOURCE_CHAIN, SOURCE_TABLE) if config.compare_sources else (SOURCE_CHAIN,)
    predicted = {
        src: tuple(local_power(config.query, kind, src).value for kind in ALL_KINDS)
        for src in sources
    }

    return SimulationReport(
        rejection_rate=rates,
        mc_stderr=stderr,
        predicted_power=predicted,
        st_moment_estimates=_central_moments(sums, used),
        joint_score_gradient_rate=joint34 / used,
        failures=failures,
        reps=config.reps,
        reps_used=used,
        seed=config.seed,
        model_name=model.name,
        theta0=config.theta0,
        eps=config.eps,
        n=config.n,
        alpha=config.alpha,
        critical_value=xcrit,
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
    workers: int = 1,
) -> GradientSourceAdjudication:
    """Score-vs-gradient power gap on the truncated extreme value model."""
    model = catalog_model("tev")
    config = SimulationConfig(
        model=model, theta0=theta0, eps=eps, n=n, reps=reps, alpha=alpha,
        seed=seed, compare_sources=True, workers=workers,
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
    workers: int = 1,
) -> MeanExpansionAdjudication:
    """Mean of the gradient statistic on the gamma model under drift."""
    model = catalog_model("gamma", {"k": k})
    config = SimulationConfig(
        model=model, theta0=theta0, eps=eps, n=n, reps=reps, alpha=alpha,
        seed=seed, workers=workers,
    )
    rep = simulate(config)
    tensors = tensors_from_cumulants(cumulants(model, theta0))
    moments = st_moments(tensors, [eps], n)
    est = rep.st_moment_estimates
    z_lit = (est.mean - moments.m1) / est.se_mean
    z_mix = (est.mean - moments.mixture_mean) / est.se_mean
    favored = "mixture" if abs(z_mix) <= abs(z_lit) else "literal"
    return MeanExpansionAdjudication(
        report=rep,
        empirical_mean=est.mean,
        se_mean=est.se_mean,
        literal_mean=moments.m1,
        mixture_mean=moments.mixture_mean,
        z_literal=z_lit,
        z_mixture=z_mix,
        favored=favored,
    )
