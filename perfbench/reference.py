"""Reference values for the benchmark's correctness gates, from scipy.

Reads one JSON document on stdin and writes one on stdout.  It runs in its
own process so that importing scipy never counts toward the benchmark's
memory or timings.  Every probability is evaluated in the same expansion the
program uses, but from ``scipy.stats.chi2``/``ncx2`` survival functions, so
upper tails keep their relative accuracy.  Noncentrality follows the
program's Poisson convention: scipy's ``nc`` is ``2 * lam``.

Input keys (each a list of points, all optional):

* ``crit``: ``alpha`` -> the chi-square(1) critical value.
* ``power``: ``alpha, lam, scale, row`` -> raw local power
  ``sf_1 + scale * sum_k row_k (sf_{1+2k} - 1)`` at the critical value.
* ``diff``: ``alpha, lam, scale, csum, C`` -> telescoped power difference
  ``scale * (csum G_1 - 2 sum_m C_m g_{1+2m})``.
* ``cdf``: ``f, lam, scale, a, x`` -> ``G_f + scale * sum_k a_k G_{f+2k}``.
* ``pvalue``: ``s`` -> ``chi2.sf(s, 1)``.

Each output point is ``[value, magnitude, weight]``.  The magnitude is the
sum of the absolute values of the terms, the scale against which relative
error is measured (it equals ``|value|`` when the terms do not cancel).  The
weight is the sum of the absolute coefficients of the chi-square terms, the
factor by which an absolute error in each kernel value is multiplied.
"""

from __future__ import annotations

import json
import sys
import warnings

import numpy as np
from scipy.stats import chi2, ncx2


def _dist(fn_central, fn_nc, x, df, lam):
    x, df, lam = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float))
                                       for v in (x, df, lam)))
    out = np.asarray(fn_central(x, df), dtype=float).copy()
    nc = lam > 0.0
    if nc.any():
        out[nc] = fn_nc(x[nc], df[nc], 2.0 * lam[nc])
    return out


def _sf(x, df, lam):
    return _dist(chi2.sf, ncx2.sf, x, df, lam)


def _cdf(x, df, lam):
    return _dist(chi2.cdf, ncx2.cdf, x, df, lam)


def _pdf(x, df, lam):
    return _dist(chi2.pdf, ncx2.pdf, x, df, lam)


def _column(points, key):
    return np.array([p[key] for p in points], dtype=float)


def crit(points):
    x = chi2.isf(_column(points, "alpha"), 1.0)
    return np.stack([x, np.abs(x), np.ones_like(x)], axis=1)


def power(points):
    x = chi2.isf(_column(points, "alpha"), 1.0)
    lam = _column(points, "lam")
    scale = _column(points, "scale")
    row = np.array([p["row"] for p in points], dtype=float).reshape(-1, 4)
    value = _sf(x, 1.0, lam)
    mag = value.copy()
    weight = np.ones_like(value)
    for k in range(4):
        sfk = _sf(x, 1.0 + 2 * k, lam)
        term = scale * row[:, k]
        value += term * sfk
        mag += np.abs(term) * sfk
        weight += np.abs(term)
    const = scale * row.sum(axis=1)
    return np.stack([value - const, mag + np.abs(const), weight], axis=1)


def diff(points):
    x = chi2.isf(_column(points, "alpha"), 1.0)
    lam = _column(points, "lam")
    scale = _column(points, "scale")
    csum = _column(points, "csum")
    C = np.array([p["C"] for p in points], dtype=float).reshape(-1, 3)
    g1 = _cdf(x, 1.0, lam)
    value = csum * g1
    mag = np.abs(csum) * g1
    weight = np.abs(csum)
    for m in range(1, 4):
        g = 2.0 * C[:, m - 1] * _pdf(x, 1.0 + 2 * m, lam)
        value -= g
        mag += np.abs(g)
        weight += 2.0 * np.abs(C[:, m - 1])
    return np.stack([scale * value, np.abs(scale) * mag, np.abs(scale) * weight], axis=1)


def cdf(points):
    f = _column(points, "f")
    lam = _column(points, "lam")
    scale = _column(points, "scale")
    x = _column(points, "x")
    a = np.array([p["a"] for p in points], dtype=float).reshape(-1, 4)
    value = _cdf(x, f, lam)
    mag = value.copy()
    weight = np.ones_like(value)
    for k in range(4):
        term = scale * a[:, k] * _cdf(x, f + 2 * k, lam)
        value += term
        mag += np.abs(term)
        weight += np.abs(scale * a[:, k])
    return np.stack([value, mag, weight], axis=1)


def pvalue(points):
    p = chi2.sf(_column(points, "s"), 1.0)
    return np.stack([p, p, np.ones_like(p)], axis=1)


KINDS = {"crit": crit, "power": power, "diff": diff, "cdf": cdf, "pvalue": pvalue}


def evaluate(doc: dict) -> dict:
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for kind, points in doc.items():
            if points:
                out[kind] = KINDS[kind](points).tolist()
            else:
                out[kind] = []
    return out


def main() -> int:
    doc = json.load(sys.stdin)
    json.dump(evaluate(doc), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
