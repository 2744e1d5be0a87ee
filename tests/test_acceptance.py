"""Acceptance gate: one test per numbered criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  The Monte Carlo criteria (7-10) use fixed seeds and take
about a second in total at their full replicate counts.
"""

import dataclasses
import math
import time

import numpy as np
from scipy import optimize, stats

from gradpower.cli import run
from gradpower.expfam import catalog_model, cumulants
from gradpower.expansion import (
    CumulantTensors,
    composite_coefficients,
    scalar_coefficients,
    simple_coefficients,
)
from gradpower.localpower import (
    SOURCE_CHAIN,
    SOURCE_TABLE,
    PowerQuery,
    local_power,
    power_coefficients,
    power_ordering,
)
from gradpower.montecarlo import (
    SimulationConfig,
    adjudicate_gradient_sources,
    adjudicate_mean_expansion,
    simulate,
)
from gradpower.specfun import ChiSquareParams, nc_chisq_cdf, nc_chisq_pdf
from gradpower.teststats import TestKind, statistics_from_dbar

from helpers import BETA2_ZERO, CATALOG_FIXED, random_tensors, random_theta

SEED = 20260810


def _verdict(num, label, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def _theta0_grid(name):
    if name == "normal-mean":
        return (-1.0, -0.3, 0.2, 0.9, 1.8)
    return (0.5, 0.8, 1.0, 1.5, 2.5)


def test_criterion_01_chisq_difference_identity():
    """G_{m,lam}(x) - G_{m+2,lam}(x) = 2 g_{m+2,lam}(x) on the full grid."""
    t0 = time.perf_counter()
    worst = 0.0
    xs = [40.0 * i / 100.0 for i in range(1, 101)]
    for m in range(1, 10):
        for lam in (0.0, 0.25, 0.5, 1.0, 2.0, 5.0):
            pm = ChiSquareParams(float(m), lam)
            pm2 = ChiSquareParams(float(m + 2), lam)
            for x in xs:
                gap = (
                    nc_chisq_cdf(pm, x)
                    - nc_chisq_cdf(pm2, x)
                    - 2.0 * nc_chisq_pdf(pm2, x)
                )
                worst = max(worst, abs(gap))
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        "noncentral chi-square difference identity",
        worst <= 1e-10 and elapsed < 1.0,
        f"max violation {worst:.2e}, {elapsed:.2f}s",
    )


def _coefficient_sweep():
    rng = np.random.default_rng(SEED)
    for name, fixed in CATALOG_FIXED.items():
        model = catalog_model(name, fixed)
        for _ in range(100):
            theta0 = random_theta(rng, name)
            eps = float(rng.uniform(-2.0, 2.0))
            yield name, model, theta0, eps


def test_criterion_02_coefficient_identities():
    """Published coefficient identities across the catalog sweep."""
    t0 = time.perf_counter()
    worst = 0.0
    for name, model, theta0, eps in _coefficient_sweep():
        a = power_coefficients(model, theta0, eps, SOURCE_TABLE).a
        scale = max(1.0, float(np.max(np.abs(a))))
        gaps = (
            abs(a[0, 0] - a[1, 0]),
            abs(a[0, 0] - a[2, 0]),
            abs(a[1, 1] + a[1, 2]),
            abs(a[0, 3]),
            abs(2.0 * a[3, 3] - a[0, 0]),
            abs(a[1, 3] + a[0, 0]),
            abs(a[0, 2] - a[2, 3]),
        )
        worst = max(worst, max(gaps) / scale)
    elapsed = time.perf_counter() - t0
    _verdict(
        2,
        "coefficient identity chain (9 models x 100 draws)",
        worst <= 1e-12 and elapsed < 1.0,
        f"max scaled violation {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_03_row_normalization():
    """Zero row sums: LR/Wald/score in both sources, gradient in chain source."""
    worst = 0.0
    for name, model, theta0, eps in _coefficient_sweep():
        for source in (SOURCE_CHAIN, SOURCE_TABLE):
            a = power_coefficients(model, theta0, eps, source).a
            scale = max(1.0, float(np.max(np.abs(a))))
            rows = (0, 1, 2, 3) if source == SOURCE_CHAIN else (0, 1, 2)
            for row in rows:
                worst = max(worst, abs(float(a[row].sum())) / scale)
    _verdict(3, "coefficient row normalization", worst <= 1e-12, f"max {worst:.2e}")


def test_criterion_04_reduction_chain():
    """composite(q=0) == simple == scalar(p=1), plus the worked 2-d example."""
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(1, 5))
        t = random_tensors(rng, p=p, q=0)
        eps = rng.normal(size=p)
        a = composite_coefficients(t, eps)
        b = simple_coefficients(t, eps)
        worst = max(worst, abs(a.lam - b.lam), *(abs(x - y) for x, y in zip(a.a, b.a)))
        if p == 1:
            from gradpower.expfam import CumulantSet

            c = CumulantSet(
                k_tt=-float(t.K[0, 0]),
                k_ttt=float(t.k3[0, 0, 0]),
                k_t_tt=float(t.k21[0, 0, 0]),
                k_t_t_t=0.0,
                k_inv=1.0 / float(t.K[0, 0]),
            )
            s = scalar_coefficients(c, float(eps[0]))
            worst = max(worst, *(abs(x - y) for x, y in zip(s.a, b.a)))

    k3 = np.zeros((2, 2, 2))
    k3[1, 1, 1] = 1.0
    hand = composite_coefficients(
        CumulantTensors(p=2, q=1, K=np.eye(2), k3=k3, k21=np.zeros((2, 2, 2))), [1.0]
    )
    hand_gap = max(
        abs(hand.a[0] - 1 / 6),
        abs(hand.a[1] + 1 / 4),
        abs(hand.a[2]),
        abs(hand.a[3] - 1 / 12),
        abs(hand.lam - 0.5),
    )
    _verdict(
        4,
        "reduction chain and worked composite example",
        worst <= 1e-10 and hand_gap <= 1e-12,
        f"chain max {worst:.2e}, example max {hand_gap:.2e}",
    )


def _ordering_holds(model, theta0, expected_groups, direction, alphas, ns, eps_values):
    """Certificate-level and value-level check of one expected ordering."""
    for alpha in alphas:
        report = power_ordering(model, theta0, direction, alpha)
        if report.groups != expected_groups or not report.uniform:
            return False, f"got {report.describe()} at theta0={theta0}, alpha={alpha}"
    sign = 1.0 if direction == "above" else -1.0
    for eps in eps_values:
        for alpha in alphas:
            for n in ns:
                q = PowerQuery(model=model, theta0=theta0, eps=sign * eps, n=n, alpha=alpha)
                pi = {k: local_power(q, k).value for k in TestKind}
                ranked = [pi[k] for grp in expected_groups for k in grp]
                for hi, lo in zip(ranked, ranked[1:]):
                    if hi < lo - 1e-13:
                        return False, f"value order broken at theta0={theta0}, eps={sign*eps}"
                for grp in expected_groups:
                    vals = [pi[k] for k in grp]
                    if max(vals) - min(vals) > 1e-12:
                        return False, f"tied group split at theta0={theta0}, eps={sign*eps}"
    return True, ""


GRAD_FIRST = ((TestKind.GRADIENT,), (TestKind.LR,), (TestKind.WALD, TestKind.SCORE))
GRAD_FIRST_REV = ((TestKind.WALD, TestKind.SCORE), (TestKind.LR,), (TestKind.GRADIENT,))

_SWEEP = dict(
    alphas=(0.01, 0.05, 0.10), ns=(20, 50, 100), eps_values=(0.25, 0.5, 1.0, 2.0)
)


def test_criterion_05a_natural_family_orderings():
    """gamma, Pareto, power: gradient > lr > wald = score, reversed below."""
    t0 = time.perf_counter()
    failures = []
    for name in ("gamma", "pareto", "power"):
        model = catalog_model(name, CATALOG_FIXED[name])
        for theta0 in _theta0_grid(name):
            ok, why = _ordering_holds(model, theta0, GRAD_FIRST, "above", **_SWEEP)
            if not ok:
                failures.append(f"{name}: {why}")
            ok, why = _ordering_holds(model, theta0, GRAD_FIRST_REV, "below", **_SWEEP)
            if not ok:
                failures.append(f"{name} reversed: {why}")
    elapsed = time.perf_counter() - t0
    _verdict(
        "5a",
        "natural-family orderings (gamma, pareto, power)",
        not failures and elapsed < 5.0,
        failures[0] if failures else f"{elapsed:.2f}s",
    )


def _rejection_region(model, theta0, alpha, n, kind):
    """Cut points ``(lo, hi)``: the test rejects exactly when dbar < lo or dbar > hi.

    For the known-mean inverse normal every statistic is a function of dbar
    that vanishes at dbar0 = -beta(theta0) and is monotone on either side,
    so each side holds at most one root of S(dbar) = chi2_{1, 1-alpha}.
    A side without a root contributes nothing (lo = 0, hi = inf).
    """
    crit = stats.chi2.isf(alpha, 1)
    d0 = -model.beta(theta0)

    def excess(d):
        return statistics_from_dbar(model, theta0, d, n)[1][kind - 1] - crit

    cuts = []
    for step, empty in ((0.5, 0.0), (2.0, math.inf)):
        edge = d0
        for _ in range(200):
            edge *= step
            if excess(edge) > 0.0:
                cuts.append(optimize.brentq(excess, *sorted((edge, d0)), xtol=1e-300))
                break
        else:
            cuts.append(empty)
    return tuple(cuts)


def _order_margin(pi, groups):
    """Smallest gap between adjacent groups; positive iff the order is strict."""
    return min(
        min(pi[k] for k in hi) - max(pi[k] for k in lo) for hi, lo in zip(groups, groups[1:])
    )


def test_criterion_05b_inverse_normal_ordering():
    """Known-mean inverse normal: gradient > lr > wald = score, reversed below.

    d(x) = (x - mu)^2 / (2 mu^2 x) is Gamma(1/2, rate theta), so the model is
    data-equivalent to the gamma entry with shape 1/2 (criterion 5a), and
    with alpha'' = 0 and alpha' beta'' < 0 the gradient test leads.  Besides
    the certificate and value sweep, the ordering is asserted strictly on
    exact powers at n = 1000, taken from the Gamma(n/2, rate theta) law of
    n dbar with scipy, and the expansion must stay within 10/n of them.
    """
    t0 = time.perf_counter()
    model = catalog_model("invnormal-theta", {"mu": 1.2})
    orderings = (("above", 1.0, GRAD_FIRST), ("below", -1.0, GRAD_FIRST_REV))
    failures = []
    for theta0 in _theta0_grid("invnormal-theta"):
        for direction, _, groups in orderings:
            ok, why = _ordering_holds(model, theta0, groups, direction, **_SWEEP)
            if not ok:
                failures.append(f"{direction}: {why}")

    n = 1000
    worst = 0.0
    margin = math.inf
    for theta0 in _theta0_grid("invnormal-theta"):
        for alpha in _SWEEP["alphas"]:
            regions = {k: _rejection_region(model, theta0, alpha, n, k) for k in TestKind}
            for eps in _SWEEP["eps_values"]:
                for direction, sign, groups in orderings:
                    theta = theta0 + sign * eps / math.sqrt(n)
                    law = stats.gamma(0.5 * n, scale=1.0 / (n * theta))
                    pi = {k: law.cdf(lo) + law.sf(hi) for k, (lo, hi) in regions.items()}
                    gap = _order_margin(pi, groups)
                    margin = min(margin, gap)
                    if gap <= 0.0:
                        failures.append(
                            f"exact {direction}: order broken at theta0={theta0}, "
                            f"eps={sign * eps}, alpha={alpha}"
                        )
                    q = PowerQuery(model=model, theta0=theta0, eps=sign * eps, n=n, alpha=alpha)
                    for k in TestKind:
                        worst = max(worst, abs(pi[k] - local_power(q, k).value))
    elapsed = time.perf_counter() - t0
    # the expansion error is O(1/n); the first-order term alone misses by 0.12
    _verdict(
        "5b",
        "known-mean inverse normal ordering (gradient first)",
        not failures and worst <= 10.0 / n,
        failures[0]
        if failures
        else f"exact n={n}: min margin {margin:.2e}, max |exact - expansion| {worst:.2e}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_06_equal_power_conditions():
    """normal-mean: all four powers coincide; beta''=0: score == gradient."""
    nm = catalog_model("normal-mean", {"theta": 1.5})
    coeff_zero = all(
        np.all(power_coefficients(nm, theta0, eps, src).a == 0.0)
        for theta0 in _theta0_grid("normal-mean")
        for eps in (0.25, 1.0, 2.0)
        for src in (SOURCE_CHAIN, SOURCE_TABLE)
    )
    worst_equal = 0.0
    for theta0 in _theta0_grid("normal-mean"):
        for eps in (0.5, 1.5):
            q = PowerQuery(model=nm, theta0=theta0, eps=eps, n=50, alpha=0.05)
            vals = [local_power(q, k).value for k in TestKind]
            worst_equal = max(worst_equal, max(vals) - min(vals))

    worst_sg = 0.0
    for name in BETA2_ZERO:
        model = catalog_model(name, CATALOG_FIXED[name])
        for theta0 in _theta0_grid(name):
            for eps in (-1.5, 0.5, 2.0):
                for alpha in (0.01, 0.05, 0.10):
                    q = PowerQuery(model=model, theta0=theta0, eps=eps, n=40, alpha=alpha)
                    gap = abs(
                        local_power(q, TestKind.SCORE, SOURCE_CHAIN).value
                        - local_power(q, TestKind.GRADIENT, SOURCE_CHAIN).value
                    )
                    worst_sg = max(worst_sg, gap)
    _verdict(
        6,
        "equal-power degeneracies",
        coeff_zero and worst_equal <= 1e-12 and worst_sg <= 1e-12,
        f"normal-mean spread {worst_equal:.2e}, score/gradient gap {worst_sg:.2e}",
    )


def test_criterion_07_monte_carlo_size():
    """Empirical size of all four tests at the null within 0.05 +/- 0.012."""
    t0 = time.perf_counter()
    cfg = SimulationConfig(
        model=catalog_model("gamma", {"k": 2.0}),
        theta0=1.0, eps=0.0, n=50, reps=100_000, alpha=0.05, seed=SEED,
    )
    rep = simulate(cfg)
    elapsed = time.perf_counter() - t0
    worst = max(abs(r - 0.05) for r in rep.rejection_rate)
    _verdict(
        7,
        "Monte Carlo size (gamma, n=50, 1e5 reps)",
        worst <= 0.012 and rep.failures == 0,
        f"sizes {[round(r, 4) for r in rep.rejection_rate]}, {elapsed:.0f}s",
    )


def test_criterion_08_monte_carlo_local_power():
    """Empirical power within 0.025 of the second-order prediction, each test."""
    cfg = SimulationConfig(
        model=catalog_model("gamma", {"k": 2.0}),
        theta0=1.0, eps=0.5, n=50, reps=200_000, alpha=0.05, seed=SEED,
    )
    rep = simulate(cfg)
    predicted = rep.predicted_power[SOURCE_CHAIN]
    gaps = [abs(e - p) for e, p in zip(rep.rejection_rate, predicted)]
    _verdict(
        8,
        "Monte Carlo power vs expansion (gamma, eps=0.5)",
        max(gaps) <= 0.025 and rep.failures == 0,
        f"abs gaps {[round(g, 4) for g in gaps]}",
    )


def test_criterion_09_mean_adjudication():
    """Empirical mean of the gradient statistic within 0.05 of the
    mixture-implied mean; distance to the literal formula is reported."""
    adj = adjudicate_mean_expansion(
        k=2.0, theta0=1.0, eps=1.0, n=200, reps=200_000, seed=SEED
    )
    gap_mixture = abs(adj.empirical_mean - adj.mixture_mean)
    detail = (
        f"mean {adj.empirical_mean:.4f}, mixture {adj.mixture_mean:.4f} "
        f"(gap {gap_mixture:.4f}), literal {adj.literal_mean:.4f} "
        f"({abs(adj.z_literal):.0f} se away), favored {adj.favored!r}"
    )
    _verdict(9, "second-order mean arbitration", gap_mixture <= 0.05, detail)


def test_criterion_10_gradient_source_adjudication():
    """The full-scale convention arbitration completes with a well-formed
    verdict; the verdict itself is informational."""
    adj = adjudicate_gradient_sources(
        theta0=1.0, eps=1.0, n=400, reps=1_000_000, alpha=0.05, seed=SEED
    )
    text = adj.describe()
    well_formed = (
        math.isfinite(adj.empirical_diff)
        and math.isfinite(adj.se_diff)
        and set(adj.predicted_diff) == {SOURCE_CHAIN, SOURCE_TABLE}
        and adj.favored in (SOURCE_CHAIN, SOURCE_TABLE)
        and adj.report.failures == 0
        and "favors" in text
    )
    print(text)
    _verdict(
        10,
        "gradient-coefficient convention arbitration (1e6 reps)",
        well_formed,
        f"empirical diff {adj.empirical_diff:.2e}, favored {adj.favored!r}",
    )


def test_criterion_11_simulation_determinism(tmp_path, capsys):
    """Identical simulate invocations produce byte-identical output."""
    argv = [
        "simulate", "--model", "gamma", "--fixed", "k=2", "--theta0", "1",
        "--eps", "0.5", "--n", "50", "--reps", "3000", "--alpha", "0.05",
        "--seed", "314159",
    ]
    out_a = tmp_path / "a.txt"
    out_b = tmp_path / "b.txt"
    code_a = run([*argv, "--output", str(out_a)])
    code_b = run([*argv, "--output", str(out_b)])
    capsys.readouterr()
    identical = out_a.read_bytes() == out_b.read_bytes()
    cfg = SimulationConfig(
        model=catalog_model("gamma", {"k": 2.0}),
        theta0=1.0, eps=0.5, n=50, reps=3000, alpha=0.05, seed=314159,
    )
    multi = simulate(dataclasses.replace(cfg, workers=2))
    reports_equal = simulate(cfg) == dataclasses.replace(multi, workers=1)
    _verdict(
        11,
        "simulation determinism",
        code_a == 0 and code_b == 0 and identical and reports_equal,
        f"bytes identical: {identical}",
    )
