"""Shared fixtures-in-spirit for the test suite: catalog sweeps, tensors and reference kernels."""

import math

import numpy as np

from gradpower import specfun
from gradpower.expfam import catalog_model

# one representative fixed-constant choice per catalog entry
CATALOG_FIXED = {
    "normal-variance": {"mu": 0.7},
    "normal-mean": {"theta": 1.5},
    "invnormal-theta": {"mu": 1.2},
    "invnormal-mu": {"theta": 2.0},
    "gamma": {"k": 2.0},
    "tev": {},
    "pareto": {"k": 1.5},
    "laplace": {"k": -0.3},
    "power": {"phi": 3.0},
}

# entries whose beta'' vanishes identically (score and gradient statistics coincide)
BETA2_ZERO = ("normal-variance", "normal-mean", "invnormal-mu", "tev", "laplace")

# natural entries (alpha'' = 0): both gradient-coefficient sources agree
NATURAL = ("invnormal-theta", "gamma", "pareto", "power")


def all_models():
    return [(name, catalog_model(name, fixed)) for name, fixed in CATALOG_FIXED.items()]


def theta_grid(name):
    if name == "normal-mean":
        return (-1.3, 0.4, 2.0)
    return (0.4, 1.0, 2.7)


def random_theta(rng, name):
    if name == "normal-mean":
        return float(rng.uniform(-2.0, 2.0))
    return float(rng.uniform(0.3, 3.0))


def random_tensors(rng, p, q=0, with_k111=False):
    """A random valid cumulant-tensor set of dimension p."""
    from gradpower.expansion import CumulantTensors

    R = rng.normal(size=(p, p))
    K = R @ R.T + p * np.eye(p)
    k3 = rng.normal(size=(p, p, p))
    k3 = sum(
        np.transpose(k3, perm)
        for perm in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    ) / 6.0
    k21 = rng.normal(size=(p, p, p))
    k21 = 0.5 * (k21 + np.transpose(k21, (0, 2, 1)))
    k111 = None
    if with_k111:
        k111 = rng.normal(size=(p, p, p))
        k111 = sum(
            np.transpose(k111, perm)
            for perm in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
        ) / 6.0
    return CumulantTensors(p=p, q=q, K=K, k3=k3, k21=k21, k111=k111)


def reference_poisson_mixture(params, x, pdf):
    """One noncentral cdf (``pdf`` false) or density sum, by a Poisson walk of its own.

    This is the single-kernel walk that ``specfun._mixture_sums`` replaced, which
    adds every term to a cdf sum and three density sums as it walks; it is kept as
    the reference that each of those four sums must equal bit for bit.
    """
    df, lam = params.df, params.noncentrality
    xg = 0.5 * x
    j0 = int(lam)
    a0 = 0.5 * df + j0
    half_tail = 0.5 * specfun._POISSON_TAIL

    logw0 = -lam - math.lgamma(j0 + 1.0)
    if j0 > 0:
        logw0 += j0 * math.log(lam)
    w0 = math.exp(logw0)

    logT0 = a0 * math.log(xg) - xg - math.lgamma(a0 + 1.0)
    T0 = math.exp(logT0) if logT0 > -specfun._MAXLOG else 0.0
    if pdf:
        base0 = specfun.central_chisq_pdf(df + 2.0 * j0, x)
    else:
        base0 = specfun.central_chisq_cdf(df + 2.0 * j0, x)

    total = w0 * base0

    w, base, T, a = w0, base0, T0, a0
    for j in range(j0, j0 + specfun._POISSON_MAX_TERMS):
        wnext = w * lam / (j + 1.0)
        if j + 1.0 > lam:
            bound = wnext / (1.0 - lam / (j + 2.0))
            if bound < half_tail:
                break
        w = wnext
        if pdf:
            base *= xg / a
        else:
            base -= T
            T *= xg / (a + 1.0)
        a += 1.0
        base = max(base, 0.0)
        total += w * base
        if w < 1e-300 and j + 1 > lam:
            break
    else:
        specfun._walk_too_long(params)

    w, base, T, a = w0, base0, T0, a0
    for j in range(j0 - 1, max(j0 - 1 - specfun._POISSON_MAX_TERMS, -1), -1):
        w *= (j + 1) / lam
        a -= 1.0
        if pdf:
            base *= a / xg
        else:
            T *= (a + 1.0) / xg
            base = min(base + T, 1.0)
        total += w * base
        if j > 0 and lam > j:
            bound = (w * j / lam) / (1.0 - (j - 1.0) / lam)
            if bound < half_tail:
                break
    else:
        if j0 > specfun._POISSON_MAX_TERMS:
            specfun._walk_too_long(params)

    return total
