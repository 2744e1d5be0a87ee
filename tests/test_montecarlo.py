"""Simulation driver: determinism, worker invariance, failure accounting."""

import dataclasses
import math
from functools import partial

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
from gradpower.teststats import TestKind, statistics_from_dbar

from helpers import all_models, theta_grid

GAMMA = catalog_model("gamma", {"k": 2.0})
# the same model with its sampler stripped to a plain function: no law of d-bar,
# so each replicate averages n observations from its own stream
GAMMA_OBSERVED = dataclasses.replace(GAMMA, sampler=GAMMA.sampler.draw)


def _law_dbars(model, theta, n, seed, reps):
    # the d-bar of replicates 0..reps-1 on the law route, chunk by chunk
    chunks = range(-(-reps // montecarlo._CHUNK))
    return np.concatenate(
        [montecarlo._law_dbars(model.sampler.dbar, theta, n, seed, c) for c in chunks]
    )[:reps]


def _failing_closed_form(threshold, dbar):
    # gamma k=2's closed form, flagging a failed estimate above the threshold
    return np.where(dbar > threshold, math.nan, 2.0 / dbar)


def _unwrapped(inner):
    return inner


class PicklesAsInner:
    """A sampler without a law that pickles as the sampler it wraps, as a tracing wrapper does."""

    def __init__(self, inner):
        self.inner = inner

    def __call__(self, theta, n, rng):
        return self.inner(theta, n, rng)

    def __reduce__(self):
        return (_unwrapped, (self.inner,))


class SerialPool:
    """Stands in for ProcessPoolExecutor: runs the chunks in this process, in order."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


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

        class CountingPool(SerialPool):
            def __init__(self, max_workers):
                built.append(max_workers)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountingPool)
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

    def test_solves_no_critical_value_of_its_own(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulate solved a critical value of its own")

        monkeypatch.setattr(montecarlo, "central_chisq_quantile", refuse)
        cfg = SimulationConfig(
            model=GAMMA, theta0=1.0, eps=0.5, n=20, reps=50, alpha=0.037, seed=5
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


class TestRoutes:
    """Law draws of d-bar for catalog samplers, observation means otherwise."""

    def test_lawless_model_simulates_as_before(self):
        # figures of the per-observation route, captured before the law route existed
        flaky = dataclasses.replace(
            GAMMA_OBSERVED, mle_closed_form=partial(_failing_closed_form, 2.95)
        )
        cases = [
            (GAMMA_OBSERVED, 0.5, 50, 99, (0.1022, 0.0774, 0.0774, 0.113), 0, 5000, 0.0754,
             1.523867992908895),
            (flaky, 0.0, 30, 404, (0.052210442088417686, 0.05261052210442088,
                                   0.05261052210442088, 0.05481096219243849),
             1, 4999, 0.040008001600320066, 1.0197423174076774),
        ]
        for model, eps, n, seed, rates, failures, used, joint, mean in cases:
            for workers in (1, 2):
                rep = simulate(SimulationConfig(model=model, theta0=1.0, eps=eps, n=n,
                                                reps=5000, alpha=0.05, seed=seed,
                                                workers=workers))
                assert rep.rejection_rate == rates
                assert (rep.failures, rep.reps_used) == (failures, used)
                assert rep.joint_score_gradient_rate == joint
                # the power sums are now exactly rounded, so only the last digits may move
                assert rep.st_moment_estimates.mean == pytest.approx(mean, rel=1e-13)

    def test_lawless_replicates_unchanged(self):
        # statistics of the per-observation route, captured before the law route existed
        captured = {
            0: (1.4869217772438796, 1.3697000722313735, 1.3697000722313752, 1.5512492677635534),
            12: (0.27811830498255946, 0.2880257409908203, 0.2880257409908209,
                 0.2733553006043555),
            4097: (0.014362926441409407, 0.014478025942270647, 0.014478025942270763,
                   0.014305890785088713),
        }
        for j, s in captured.items():
            assert replicate_statistics(GAMMA_OBSERVED, 1.05, 1.0, 50, 31337, j) == s

    def test_replicate_depends_on_seed_and_index_only(self, monkeypatch):
        runs = []

        def recording(model, theta0, d_bar, n):
            # one call per chunk: record each row of the array evaluation
            out = statistics_from_dbar(model, theta0, d_bar, n)
            runs[-1].extend(zip(*(s.tolist() for s in out[1])))
            return out

        monkeypatch.setattr(montecarlo, "statistics_from_dbar", recording)
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", SerialPool)
        base = SimulationConfig(model=GAMMA, theta0=1.0, eps=0.5, n=50, reps=5000,
                                alpha=0.05, seed=21)
        for reps in (5000, 9000):
            for workers in (1, 3):
                runs.append([])
                simulate(dataclasses.replace(base, reps=reps, workers=workers))
                assert len(runs[-1]) == reps
        monkeypatch.undo()
        for run in runs[1:]:
            assert run[:5000] == runs[0]
        assert runs[2] == runs[3]
        theta = base.query.theta_drifted
        for j in (0, 4095, 4096, 8999):
            assert replicate_statistics(GAMMA, theta, 1.0, 50, 21, j) == runs[2][j]

    def test_replicate_is_its_row_of_the_array_evaluation(self):
        for name, model in all_models():
            theta0 = theta_grid(name)[1]
            theta = theta0 + 0.1
            _, s = statistics_from_dbar(model, theta0, _law_dbars(model, theta, 20, 5, 9000), 20)
            for j in (0, 4095, 4096, 8999):
                want = tuple(float(si[j]) for si in s)
                assert replicate_statistics(model, theta, theta0, 20, 5, j) == want, (name, j)

    def test_failed_replicate_raises(self):
        always_fail = dataclasses.replace(
            GAMMA, mle_closed_form=partial(_failing_closed_form, -1.0)
        )
        with pytest.raises(EstimationError, match="replicate 4097"):
            replicate_statistics(always_fail, 1.0, 1.0, 20, 5, 4097)

    def test_workers_keep_the_route_chosen_in_the_parent(self):
        # the wrapper hides GAMMA's law here but would hand it back to a worker process
        model = dataclasses.replace(GAMMA, sampler=PicklesAsInner(GAMMA.sampler))
        cfg = SimulationConfig(model=model, theta0=1.0, eps=0.5, n=10,
                               reps=2 * montecarlo._CHUNK + 1, alpha=0.05, seed=8)
        serial = simulate(cfg)
        assert serial == simulate(dataclasses.replace(cfg, model=GAMMA_OBSERVED))
        fanned = simulate(dataclasses.replace(cfg, workers=2))
        assert dataclasses.replace(fanned, workers=1) == serial

    def test_chunk_streams_are_not_replicate_streams(self):
        u = montecarlo._chunk_stream(5, 0).random(4)
        for j in (0, 1, 2 ** 63 - 1):
            assert not np.array_equal(u, replicate_stream(5, j).random(4))


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
            [statistics_from_dbar(GAMMA, 1.0, float(d), 100)[1][3]
             for d in _law_dbars(GAMMA, cfg.query.theta_drifted, 100, 17, 2000)]
        )
        est = rep.st_moment_estimates
        assert est.mean == pytest.approx(float(s4.mean()), rel=1e-12)
        assert est.variance == pytest.approx(float(s4.var()), rel=1e-9)
        m3 = float(np.mean((s4 - s4.mean()) ** 3))
        assert est.third_central == pytest.approx(m3, rel=1e-6)
        assert est.se_mean == pytest.approx(float(s4.std()) / math.sqrt(2000), rel=1e-6)


class TestFailureAccounting:
    def _threshold_for(self, cfg, n_failures):
        dbars = _law_dbars(GAMMA, cfg.query.theta_drifted, cfg.n, cfg.seed, cfg.reps)
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
        # n, reps and workers must be integers, and seed an integer in [0, 2**64)
        good = dict(model=GAMMA, theta0=1.0, eps=0.0, n=50, reps=1000, alpha=0.05, seed=0)
        for field, value, message in [
            ("n", 50.5, "n must be an integer"),
            ("n", 50.0, "n must be an integer"),
            ("reps", 1000.0, "reps must be an integer"),
            ("reps", 2 ** 63 + 1, "replicate count"),
            ("workers", 2.0, "workers must be an integer"),
            ("seed", 1.5, "seed must be an integer"),
            ("seed", "7", "seed must be an integer"),
            ("seed", -1, "seed must lie in"),
            ("seed", 2 ** 64, "seed must lie in"),
        ]:
            with pytest.raises(DomainError, match=message):
                SimulationConfig(**{**good, field: value})

    def test_integer_edges_accepted(self):
        cfg = SimulationConfig(model=GAMMA, theta0=1.0, eps=0.0, n=np.int64(10), reps=5,
                               alpha=0.05, seed=2 ** 64 - 1)
        assert simulate(cfg).reps_used == 5

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
