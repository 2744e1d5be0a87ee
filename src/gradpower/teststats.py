"""Likelihood ratio, Wald, score, and gradient statistics for a scalar null.

For a sample x_1..x_n from a one-parameter exponential family and the null
``theta = theta0``, with dbar the mean of the sufficient statistic and
theta_hat the MLE (the root of ``beta(theta) + dbar = 0``):

    S1 = 2n [ log(zeta(theta0)/zeta(theta_hat)) + (alpha(theta0) - alpha(theta_hat)) dbar ]
    S2 = n (theta_hat - theta0)^2 alpha'(theta_hat) beta'(theta_hat)
    S3 = n alpha'(theta0) (beta(theta0) + dbar)^2 / beta'(theta0)
    S4 = n (theta0 - theta_hat) alpha'(theta0) (beta(theta0) + dbar)

All four are asymptotically chi-square with one degree of freedom under the
null, and p-values use that reference.  S4 is nonnegative because
``beta(theta_hat) = -dbar`` turns it into
``n alpha'(theta0) (theta0 - theta_hat)(beta(theta0) - beta(theta_hat))``,
and alpha' and beta' share their sign (their product is the positive Fisher
information).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import GradpowerError
from .expfam import ExpFamModel, _data_dbar, checked_data, mle_from_dbar
from .specfun import central_chisq_cdf  # noqa: F401 (unused; perfbench/tracing.py wraps it)
from .specfun import central_chisq_sf

__all__ = ["TestKind", "TestResult", "compute_statistics", "compute_statistics_generic"]


class TestKind(IntEnum):
    """The four rival criteria, in their conventional order."""

    __test__ = False  # not a pytest collection target

    LR = 1
    WALD = 2
    SCORE = 3
    GRADIENT = 4

    @property
    def label(self) -> str:
        """Lower-case name used in CLI output (``lr``, ``wald``, ...)."""
        return self.name.lower()


ALL_KINDS = (TestKind.LR, TestKind.WALD, TestKind.SCORE, TestKind.GRADIENT)


@dataclass(frozen=True)
class TestResult:
    __test__ = False  # not a pytest collection target

    theta_hat: float
    s: tuple[float, float, float, float]
    p_values: tuple[float, float, float, float]
    n: int
    d_bar: float

    def statistic(self, kind: TestKind) -> float:
        return self.s[kind - 1]

    def p_value(self, kind: TestKind) -> float:
        return self.p_values[kind - 1]


def statistics_from_dbar(model: ExpFamModel, theta0: float, d_bar: float | np.ndarray, n: int):
    """Closed-form statistics from the sufficient-statistic mean.

    This is the hot path shared with the simulation driver; it skips data
    validation and p-values.  Returns ``(theta_hat, (s1, s2, s3, s4))``.

    ``d_bar`` may also be a float64 array: then ``theta_hat`` and each
    statistic are arrays of the same shape, computed element by element.  An
    element whose estimate fails (see :func:`mle_from_dbar`) gets a NaN
    ``theta_hat`` instead of raising, and its statistics are not to be used.
    Terms that depend on ``theta0`` alone stay scalar calls, made once.
    """
    theta_hat = mle_from_dbar(model, d_bar)
    score0 = model.beta(theta0) + d_bar
    s1 = 2.0 * n * (
        model.log_zeta(theta0)
        - model.log_zeta(theta_hat)
        + (model.alpha(theta0) - model.alpha(theta_hat)) * d_bar
    )
    s2 = n * (theta_hat - theta0) ** 2 * model.alpha_d1(theta_hat) * model.beta_d1(theta_hat)
    s3 = n * model.alpha_d1(theta0) * score0 ** 2 / model.beta_d1(theta0)
    s4 = n * (theta0 - theta_hat) * model.alpha_d1(theta0) * score0
    return theta_hat, (s1, s2, s3, s4)


def compute_statistics(model: ExpFamModel, data, theta0: float) -> TestResult:
    """All four statistics and their chi-square(1) p-values for H0: theta = theta0."""
    model.require_theta(theta0)
    x = checked_data(model, data)
    d_bar = _data_dbar(model, x)
    try:
        theta_hat, s = statistics_from_dbar(model, theta0, d_bar, x.size)
    except (ZeroDivisionError, OverflowError):  # a term past the float range
        s = None
    if s is None or not all(map(math.isfinite, s)):  # also inf - inf, which raises nothing
        raise GradpowerError(
            f"statistics of {model.name!r} leave the float range at theta0={theta0}, "
            f"dbar={d_bar}"
        ) from None
    p = tuple(central_chisq_sf(1.0, si) for si in s)
    return TestResult(theta_hat=theta_hat, s=s, p_values=p, n=int(x.size), d_bar=d_bar)


def compute_statistics_generic(
    model: ExpFamModel, data, theta0: float
) -> tuple[float, tuple[float, float, float, float]]:
    """Cross-check evaluation through per-observation log-density terms.

    Computes S1 from summed log-density differences and S3/S4 from the summed
    per-observation score, instead of the collapsed dbar forms.  Used to catch
    transcription errors in catalog definitions; the dbar route is the
    authoritative one.
    """
    model.require_theta(theta0)
    x = checked_data(model, data)
    n = x.size
    theta_hat = mle_from_dbar(model, _data_dbar(model, x))

    def log_terms(theta):
        return -model.log_zeta(theta) - model.alpha(theta) * model.d(x) + model.v(x)

    def score_terms(theta):
        return -model.alpha_d1(theta) * (model.beta(theta) + model.d(x))

    s1 = 2.0 * float(np.sum(log_terms(theta_hat) - log_terms(theta0)))
    u0 = float(np.sum(score_terms(theta0)))
    K0 = model.alpha_d1(theta0) * model.beta_d1(theta0)
    K_hat = model.alpha_d1(theta_hat) * model.beta_d1(theta_hat)
    s2 = n * (theta_hat - theta0) ** 2 * K_hat
    s3 = u0 ** 2 / (n * K0)
    s4 = (theta_hat - theta0) * u0
    return theta_hat, (s1, s2, s3, s4)
