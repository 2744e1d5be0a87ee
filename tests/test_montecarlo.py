"""Simulation driver: determinism, worker invariance, failure accounting."""

import dataclasses
import math

import numpy as np
import pytest

from gradpower import montecarlo
from gradpower.errors import DomainError, EstimationError
from gradpower.expfam import catalog_model
from gradpower.montecarlo import (
    SimulationConfig,
    adjudicate_gradient_sources,
    adjudicate_mean_expansion,
    replicate_statistics,
    replicate_stream,
    simulate,
)
from gradpower.teststats import TestKind

GAMMA = catalog_model("gamma", {"k": 2.0})


def _failing_closed_form(threshold, dbar):
    if dbar > threshold:
        raise EstimationError("synthetic failure for testing")
    return 2.0 / dbar


class TestDeterminism:
    def test_identical_configs_identical_reports(self):
        cfg = SimulationConfig(
            model=GAMMA, theta0=1.0, eps=0.5, n=50, reps=3000, alpha=0.05, seed=99
        )
        assert simulate(cfg) == simulate(cfg)

    def test_worker_count_invariance(self):
        cfg1 = SimulationConfig(
            model=GAMMA, theta0=1.0, eps=0.5, n=40, reps=9000, alpha=0.05, seed=7
        )
        cfg3 = dataclasses.replace(cfg1, workers=3)
        r1, r3 = simulate(cfg1), simulate(cfg3)
        assert dataclasses.replace(r3, workers=1) == r1

    def test_pool_size_capped_at_chunk_count(self, monkeypatch):
        built = []

        class SerialPool:
            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", SerialPool)
        cfg1 = SimulationConfig(
            model=GAMMA, theta0=1.0, eps=0.5, n=10, reps=2 * montecarlo._CHUNK + 1,
            alpha=0.05, seed=3,
        )
        r64 = simulate(dataclasses.replace(cfg1, workers=64))
        assert built == [3]
        assert dataclasses.replace(r64, workers=1) == simulate(cfg1)

    def test_critical_value_is_the_querys(self):
        cfg = SimulationConfig(
            model=GAMMA, theta0=1.0, eps=0.5, n=20, reps=50, alpha=0.05, seed=5
        )
        assert simulate(cfg).critical_value == cfg.query.crit

    def test_replicate_depends_only_on_seed_and_index(self):
        a = replicate_statistics(GAMMA, 1.05, 1.0, 50, 31337, 12)
        b = replicate_statistics(GAMMA, 1.05, 1.0, 50, 31337, 12)
        assert a == b
        c = replicate_statistics(GAMMA, 1.05, 1.0, 50, 31337, 13)
        assert a != c

    def test_streams_differ_across_replicates(self):
        u0 = replicate_stream(5, 0).random(4)
        u1 = replicate_stream(5, 1).random(4)
        assert not np.array_equal(u0, u1)


class TestAggregation:
    def test_size_sanity_at_null(self):
        cfg = SimulationConfig(
            model=GAMMA, theta0=1.0, eps=0.0, n=50, reps=4000, alpha=0.05, seed=2024
        )
        rep = simulate(cfg)
        for rate in rep.rejection_rate:
            assert abs(rate - 0.05) < 0.02
        for se in rep.mc_stderr:
            assert se == pytest.approx(math.sqrt(0.05 * 0.95 / 4000), rel=0.5)
        assert rep.failures == 0
        assert rep.reps_used == 4000

    def test_power_exceeds_size(self):
        # drifted rejection rate beats the null rate by >= 5 MC stderr
        null_cfg = SimulationConfig(
            model=GAMMA, theta0=1.0, eps=0.0, n=50, reps=4000, alpha=0.05, seed=11
        )
        alt_cfg = dataclasses.replace(null_cfg, eps=1.0)
        r0, r1 = simulate(null_cfg), simulate(alt_cfg)
        for i in range(4):
            gap = r1.rejection_rate[i] - r0.rejection_rate[i]
            se = math.hypot(r0.mc_stderr[i], r1.mc_stderr[i])
            assert gap > 5.0 * se, TestKind(i + 1)

    def test_predicted_power_sources(self):
        cfg = SimulationConfig(
            model=GAMMA, theta0=1.0, eps=0.5, n=50, reps=500, alpha=0.05, seed=3
        )
        rep = simulate(cfg)
        assert set(rep.predicted_power) == {"consistent-chain"}
        rep2 = simulate(dataclasses.replace(cfg, compare_sources=True))
        assert set(rep2.predicted_power) == {"consistent-chain", "table"}
        assert all(len(v) == 4 for v in rep2.predicted_power.values())

    def test_moment_estimates_track_sample(self):
        cfg = SimulationConfig(
            model=GAMMA, theta0=1.0, eps=1.0, n=100, reps=2000, alpha=0.05, seed=17
        )
        rep = simulate(cfg)
        s4 = np.array(
            [replicate_statistics(GAMMA, cfg.query.theta_drifted, 1.0, 100, 17, j)[3]
             for j in range(2000)]
        )
        est = rep.st_moment_estimates
        assert est.mean == pytest.approx(float(s4.mean()), rel=1e-12)
        assert est.variance == pytest.approx(float(s4.var()), rel=1e-9)
        m3 = float(np.mean((s4 - s4.mean()) ** 3))
        assert est.third_central == pytest.approx(m3, rel=1e-6)
        assert est.se_mean == pytest.approx(float(s4.std()) / math.sqrt(2000), rel=1e-6)


class TestFailureAccounting:
    def _threshold_for(self, cfg, n_failures):
        dbars = []
        for j in range(cfg.reps):
            rng = replicate_stream(cfg.seed, j)
            xs = GAMMA.sampler(cfg.query.theta_drifted, cfg.n, rng)
            dbars.append(float(np.mean(xs)))
        return float(np.sort(dbars)[-(n_failures + 1)] + 1e-12)

    def test_failures_counted_and_excluded(self):
        cfg = SimulationConfig(
            model=GAMMA, theta0=1.0, eps=0.0, n=30, reps=3000, alpha=0.05, seed=404
        )
        threshold = self._threshold_for(cfg, 2)
        flaky = dataclasses.replace(
            GAMMA,
            mle_closed_form=lambda dbar: _failing_closed_form(threshold, dbar),
        )
        rep = simulate(dataclasses.replace(cfg, model=flaky))
        assert rep.failures == 2
        assert rep.reps_used == 2998

    def test_excessive_failures_abort(self):
        always_fail = dataclasses.replace(
            GAMMA, mle_closed_form=lambda dbar: _failing_closed_form(-1.0, dbar)
        )
        cfg = SimulationConfig(
            model=always_fail, theta0=1.0, eps=0.0, n=10, reps=200, alpha=0.05, seed=1
        )
        with pytest.raises(EstimationError, match="estimation failed"):
            simulate(cfg)


class TestConfigValidation:
    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            SimulationConfig(model=GAMMA, theta0=1.0, eps=0.0, n=1, reps=10, alpha=0.05, seed=0)
        with pytest.raises(DomainError):
            SimulationConfig(model=GAMMA, theta0=1.0, eps=0.0, n=10, reps=0, alpha=0.05, seed=0)
        with pytest.raises(DomainError):
            SimulationConfig(model=GAMMA, theta0=1.0, eps=0.0, n=10, reps=10, alpha=1.2, seed=0)
        with pytest.raises(DomainError):
            # drifted parameter leaves (0, inf)
            SimulationConfig(model=GAMMA, theta0=0.2, eps=-2.0, n=9, reps=10, alpha=0.05, seed=0)
        with pytest.raises(DomainError, match="alpha"):
            SimulationConfig(model=GAMMA, theta0=1.0, eps=0.0, n=10, reps=10, alpha=1e-300, seed=0)

    def test_query_is_the_evaluation_point(self):
        cfg = SimulationConfig(model=GAMMA, theta0=1.0, eps=0.5, n=50, reps=10, alpha=0.05, seed=0)
        q = cfg.query
        assert (q.model, q.theta0, q.eps, q.n, q.alpha) == (GAMMA, 1.0, 0.5, 50, 0.05)
        assert cfg.query is q


class TestAdjudications:
    def test_gradient_source_report_shape(self):
        adj = adjudicate_gradient_sources(reps=2000, n=100, seed=5)
        assert set(adj.predicted_diff) == {"consistent-chain", "table"}
        assert math.isfinite(adj.empirical_diff)
        assert adj.favored in ("consistent-chain", "table")
        text = adj.describe()
        assert "favors" in text and "tev" in text

    def test_score_equals_gradient_for_tev(self):
        # beta'' = 0 makes the two statistics identical, so the empirical
        # rate difference is exactly zero
        adj = adjudicate_gradient_sources(reps=1500, n=50, seed=6)
        assert adj.empirical_diff == 0.0
        assert adj.se_diff == 0.0
        assert adj.favored == "consistent-chain"

    def test_mean_expansion_report_shape(self):
        adj = adjudicate_mean_expansion(reps=4000, n=100, seed=8)
        assert adj.favored in ("mixture", "literal")
        assert adj.mixture_mean != adj.literal_mean
        assert math.isfinite(adj.z_mixture) and math.isfinite(adj.z_literal)
        assert "arbitration" in adj.describe()
