"""Simulation driver: determinism, worker invariance, exact power sums, failure accounting."""

import dataclasses
import math
import os
import warnings
from functools import partial

import mpmath
import numpy as np
import pytest

from gradpower import montecarlo
from gradpower.errors import DomainError, EstimationError
from gradpower.expfam import LawSampler, catalog_model
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


def _config(model, theta, theta0, n, seed, reps=1):
    # the run whose data are drawn at theta: eps = (theta - theta0) sqrt(n) reaches it
    # exactly at every point these tests use
    config = SimulationConfig(model=model, theta0=theta0, eps=(theta - theta0) * math.sqrt(n),
                              n=n, reps=reps, alpha=0.05, seed=seed)
    assert config.query.theta_drifted == theta
    return config


def _failing_closed_form(threshold, dbar):
    # gamma k=2's closed form, flagging a failed estimate above the threshold
    return np.where(dbar > threshold, math.nan, 2.0 / dbar)


def _failing_at(values, dbar):
    # gamma k=2's closed form, flagging a failed estimate at each of the given d-bar values
    return np.where(np.isin(dbar, values), math.nan, 2.0 / dbar)


class HidesLaw:
    """A sampler without a law that wraps one with a law, as a tracing wrapper does."""

    def __init__(self, inner):
        self.inner = inner

    def __call__(self, theta, n, rng):
        return self.inner(theta, n, rng)


class PidRecorder:
    """A sampler without a law that appends the id of the process it runs in to a file."""

    def __init__(self, path):
        self.path = path

    def __call__(self, theta, n, rng):
        with open(self.path, "a") as f:
            f.write(f"{os.getpid()}\n")
        return GAMMA.sampler.draw(theta, n, rng)


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

    def test_chunks_run_in_the_calling_process(self, tmp_path):
        path = tmp_path / "pids"
        model = dataclasses.replace(GAMMA, sampler=PidRecorder(path))
        cfg = SimulationConfig(model=model, theta0=1.0, eps=0.5, n=2,
                               reps=montecarlo._CHUNK + 1, alpha=0.05, seed=4, workers=2)
        rep = simulate(cfg)
        assert set(path.read_text().split()) == {str(os.getpid())}
        assert dataclasses.replace(rep, workers=1) == simulate(
            dataclasses.replace(cfg, workers=1))

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
        config = _config(GAMMA, 1.05, 1.0, 50, 31337)
        a = replicate_statistics(config, 12)
        b = replicate_statistics(config, 12)
        assert a == b
        c = replicate_statistics(config, 13)
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
        config = _config(GAMMA_OBSERVED, 1.05, 1.0, 50, 31337)
        for j, s in captured.items():
            assert replicate_statistics(config, j) == s

    def test_replicate_depends_on_seed_and_index_only(self, monkeypatch):
        calls = []

        def recording(model, theta0, d_bar, n):
            # record each array evaluation, row by row
            out = statistics_from_dbar(model, theta0, d_bar, n)
            calls[-1].append(list(zip(*(s.tolist() for s in out[1]))))
            return out

        # the lawless route at a small n and within one chunk, to keep it quick; one
        # array evaluation per pair of chunks, of the pair's replicates
        cases = [(GAMMA, 50, {5000: [5000], 9000: [8192, 808]},
                  (0, 4095, 4096, 8191, 8192, 8999)),
                 (GAMMA_OBSERVED, 2, {300: [300], 500: [500]}, (0, 299, 300, 499))]
        for model, n, sizes, rows in cases:
            counts = list(sizes)
            base = SimulationConfig(model=model, theta0=1.0, eps=0.5, n=n, reps=counts[0],
                                    alpha=0.05, seed=21)
            runs = []
            monkeypatch.setattr(montecarlo, "statistics_from_dbar", recording)
            for reps in counts:
                for workers in (1, 3):
                    calls.append([])
                    simulate(dataclasses.replace(base, reps=reps, workers=workers))
                    assert [len(c) for c in calls[-1]] == sizes[reps]
                    runs.append([row for c in calls[-1] for row in c])
            monkeypatch.undo()
            for run in runs[1:]:
                assert run[:counts[0]] == runs[0]
            assert runs[2] == runs[3]
            config = dataclasses.replace(base, reps=counts[1])
            for j in rows:
                assert replicate_statistics(config, j) == runs[2][j]

    def test_replicate_is_its_row_of_the_array_evaluation(self):
        # law draws of replicates 0..8999, and observation means of some of them
        # under the stripped sampler: the middle indices are replicates whose S1,
        # S2 or S3 a scalar evaluation rounds apart from the array's, for some model
        rows = (0, 3, 29, 37, 97, 127, 148, 201, 204, 4095, 4096, 8999)
        for name, model in all_models():
            theta0 = theta_grid(name)[1]
            config = _config(model, theta0 + 0.1, theta0, 20, 5, reps=9000)
            theta = config.query.theta_drifted
            stripped = dataclasses.replace(model, sampler=model.sampler.draw)
            means = [np.mean(model.d(model.sampler(theta, 20, replicate_stream(5, j))))
                     for j in rows]
            for m, d_bar, at in ((model, _law_dbars(model, theta, 20, 5, 9000), rows),
                                 (stripped, np.array(means), range(len(rows)))):
                _, s = statistics_from_dbar(m, theta0, d_bar, 20)
                for i, j in zip(at, rows):
                    want = tuple(float(si[i]) for si in s)
                    got = replicate_statistics(dataclasses.replace(config, model=m), j)
                    assert got == want, (name, m is stripped, j)

    def test_failed_replicate_raises(self):
        always_fail = dataclasses.replace(
            GAMMA, mle_closed_form=partial(_failing_closed_form, -1.0)
        )
        with pytest.raises(EstimationError, match="replicate 4097"):
            replicate_statistics(_config(always_fail, 1.0, 1.0, 20, 5), 4097)

    def test_wrapper_that_hides_the_law_takes_the_observation_route(self):
        model = dataclasses.replace(GAMMA, sampler=HidesLaw(GAMMA.sampler))
        cfg = SimulationConfig(model=model, theta0=1.0, eps=0.5, n=10,
                               reps=2 * montecarlo._CHUNK + 1, alpha=0.05, seed=8)
        assert simulate(cfg) == simulate(dataclasses.replace(cfg, model=GAMMA_OBSERVED))

    def test_out_of_range_seed_or_index_refused(self):
        # a wrapped key would reuse another replicate's stream or a chunk's:
        # masked to 64 bits, (5, 2**64 + 5) is replicate 5's and (5, 2**63) chunk 0's.
        # replicate_statistics takes its seed from a run, whose own check refuses it
        bad_keys = [
            (21, -1, "replicate index"),
            (21, 2 ** 63, "replicate index"),
            (21, 2 ** 63 + 1, "replicate index"),
            (21, 2 ** 64 + 5, "replicate index"),
            (5, 2 ** 64 + 5, "replicate index"),
            (5, 2 ** 63, "replicate index"),
            (-1, 0, "seed must lie in"),
            (2 ** 64, 0, "seed must lie in"),
        ]
        for model in (GAMMA, GAMMA_OBSERVED):
            for seed, j, message in bad_keys:
                with pytest.raises(DomainError, match=message):
                    replicate_statistics(_config(model, 1.05, 1.0, 20, seed), j)
            s = replicate_statistics(_config(model, 1.05, 1.0, 20, 2 ** 64 - 1), 2 ** 63 - 1)
            assert all(math.isfinite(si) for si in s)
        for seed, j, message in bad_keys:
            with pytest.raises(DomainError, match=message):
                replicate_stream(seed, j)
        assert np.isfinite(replicate_stream(2 ** 64 - 1, 2 ** 63 - 1).random(4)).all()

    def test_law_forms_only_the_prefix_a_chunk_keeps(self):
        # every chunk is laid out as _CHUNK draws, but the law forms only those up to
        # the chunk's last replicate; the results are those of the unwrapped law
        calls = []

        def recording(theta, n, size, rng, take=None):
            calls.append((size, take))
            return GAMMA.sampler.dbar(theta, n, size, rng, take=take)

        model = dataclasses.replace(GAMMA, sampler=LawSampler(GAMMA.sampler.draw, recording))
        cfg = SimulationConfig(model=model, theta0=1.0, eps=0.5, n=50, reps=5000,
                               alpha=0.05, seed=11)
        assert simulate(cfg) == simulate(dataclasses.replace(cfg, model=GAMMA))
        assert calls == [(montecarlo._CHUNK, montecarlo._CHUNK), (montecarlo._CHUNK, 904)]
        calls.clear()
        got = replicate_statistics(cfg, montecarlo._CHUNK + 1)
        assert calls == [(montecarlo._CHUNK, 2)]
        assert got == replicate_statistics(dataclasses.replace(cfg, model=GAMMA),
                                           montecarlo._CHUNK + 1)

    def test_a_law_without_a_prefix_is_named(self):
        # a law on the four-argument form of earlier releases is refused with the
        # contract it misses; a TypeError from inside a law that has it is the law's own
        def four(theta, n, size, rng):
            return GAMMA.sampler.dbar(theta, n, size, rng)

        def broken(theta, n, size, rng, take=None):
            raise TypeError("inside the law")

        for law, message in ((four, r"must accept \(theta, n, size, rng, take\)"),
                             (broken, "^inside the law$")):
            model = dataclasses.replace(GAMMA, sampler=LawSampler(GAMMA.sampler.draw, law))
            cfg = SimulationConfig(model=model, theta0=1.0, eps=0.5, n=50, reps=10,
                                   alpha=0.05, seed=11)
            with pytest.raises(TypeError, match=message):
                simulate(cfg)
            with pytest.raises(TypeError, match=message):
                replicate_statistics(cfg, 3)

    def test_chunk_streams_are_not_replicate_streams(self):
        u = montecarlo._chunk_stream(5, 0).random(4)
        for j in (0, 1, 2 ** 63 - 1):
            assert not np.array_equal(u, replicate_stream(5, j).random(4))


class TestReplicateStatistics:
    """``replicate_statistics(config, j)`` is row j of ``simulate(config)``, on a checked run."""

    @pytest.mark.parametrize("field,value,message", [
        ("n", 2.5, "^n must be an integer, got 2.5$"),
        ("n", True, "^n must be an integer, got True$"),
        ("n", 0, "^per-replicate sample size must be >= 2, got 0$"),
        ("n", 1, "^per-replicate sample size must be >= 2, got 1$"),
        ("theta0", -1.0, r"^theta=-1.0 outside parameter space \(0.0, inf\) of 'gamma'$"),
        ("eps", -20.0, "^drifted parameter -1.828[0-9]* leaves the parameter space$"),
        ("seed", -1, r"^seed must lie in \[0, 2\*\*64\), got -1$"),
        ("seed", 1.5, "^seed must be an integer, got 1.5$"),
    ])
    def test_a_bad_run_is_refused_by_its_config(self, field, value, message):
        # each of these once went into the loose arguments unchecked: n = 2.5 and
        # True gave statistics, n = 0 a ZeroDivisionError and theta0 = -1 a ValueError
        good = dict(model=GAMMA, theta0=1.0, eps=0.5, n=50, reps=10, alpha=0.05, seed=3)
        for model in (GAMMA, GAMMA_OBSERVED):
            with pytest.raises(DomainError, match=message):
                replicate_statistics(SimulationConfig(**{**good, "model": model, field: value}), 0)

    def test_the_loose_arguments_are_gone(self):
        with pytest.raises(TypeError):
            replicate_statistics(GAMMA, 1.05, 1.0, 50, 3, 0)

    @pytest.mark.parametrize("model", [GAMMA, GAMMA_OBSERVED], ids=["law", "lawless"])
    def test_each_replicate_is_its_row_of_simulate(self, monkeypatch, model):
        rows = []

        def recording(model, theta0, d_bar, n):
            out = statistics_from_dbar(model, theta0, d_bar, n)
            rows.extend(zip(*(s.tolist() for s in out[1])))
            return out

        config = SimulationConfig(model=model, theta0=1.0, eps=0.5, n=20, reps=300,
                                  alpha=0.05, seed=9)
        monkeypatch.setattr(montecarlo, "statistics_from_dbar", recording)
        simulate(config)
        monkeypatch.undo()
        assert len(rows) == config.reps
        assert [replicate_statistics(config, j) for j in range(config.reps)] == rows


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


def _outcome(total, values):
    try:
        return "value", total(values)
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def _assert_same_sum(x):
    # bit-equal to math.fsum: the same value (NaN included) and sign, or the same error
    got = _outcome(montecarlo._exact_sum, np.asarray(x, dtype=float))
    want = _outcome(math.fsum, [float(v) for v in x])
    if got[0] != "value" or want[0] != "value":
        assert got == want
    elif math.isnan(want[1]):
        assert math.isnan(got[1])
    else:
        assert got[1] == want[1], (got[1], want[1])
        assert math.copysign(1.0, got[1]) == math.copysign(1.0, want[1])


_FSUM = math.fsum  # the reference while _count_fsum's counter is patched in


def _count_fsum(monkeypatch):
    # patches math.fsum with a counter; returns the list of its arguments' lengths
    calls = []

    def counting(values):
        values = list(values)
        calls.append(len(values))
        return _FSUM(values)

    monkeypatch.setattr(math, "fsum", counting)
    return calls


def _chained_powers(s4):
    # the powers whose sums a chunk returns: s4, s4*s4, (s4*s4)*s4, ...
    power = s4
    for _ in range(6):
        yield power
        power = power * s4


def _fsum_power_sums(s4):
    return tuple(math.fsum(power.tolist()) for power in _chained_powers(s4))


def _reference_chunk(config, lo, hi):
    # one chunk's whole result on a (rows, 4) stack of the statistics: rows
    # with a failed estimate dropped and counted, rejections counted down each column, and
    # the power sums by math.fsum
    model, n = config.model, config.n
    d_bar = montecarlo._law_dbars(model.sampler.dbar, config.query.theta_drifted, n,
                                  config.seed, lo // montecarlo._CHUNK)[:hi - lo]
    theta_hat, s = statistics_from_dbar(model, config.theta0, d_bar, n)
    stats = np.column_stack(s)[~np.isnan(theta_hat)]
    reject = stats > config.query.crit
    rej = tuple(int(c) for c in np.count_nonzero(reject, axis=0))
    joint34 = int(np.count_nonzero(reject[:, 2] & reject[:, 3]))
    # these chunks have no estimate with a non-finite statistic
    failures = (hi - lo - len(stats), 0)
    return rej, joint34, failures, len(stats), _fsum_power_sums(stats[:, 3])


def _reference_chunks(config, lo, hi):
    # _run_chunks' result from each chunk's reference: counts added, power sums by chunk
    refs = [_reference_chunk(config, a, min(a + montecarlo._CHUNK, hi))
            for a in range(lo, hi, montecarlo._CHUNK)]
    return (tuple(sum(r[0][i] for r in refs) for i in range(4)),
            sum(r[1] for r in refs),
            tuple(sum(r[2][i] for r in refs) for i in range(2)),
            sum(r[3] for r in refs),
            [r[4] for r in refs])


class TestExactSum:
    """``_exact_sum`` is ``math.fsum`` bit for bit, errors included."""

    def test_random_arrays(self):
        rng = np.random.default_rng(20261018)
        for _ in range(400):
            size = int(rng.integers(1, montecarlo._CHUNK + 1))
            signs = rng.choice([-1.0, 1.0], size)
            x = signs * np.exp2(rng.uniform(-43.0, 43.0, size)) * rng.random(size)
            _assert_same_sum(x ** int(rng.integers(1, 7)))

    def test_cancellation_ties_and_zeros(self):
        for x in [
            [1e16, 1.0, -1e16],
            [],
            [0.0, 0.0, 0.0],
            [-0.0],
            [-0.0, -0.0],
            [0.0, -0.0],
            [1.0, -1.0],
            [1.0, 2.0 ** -53],  # halfway: rounds to even
            [1.0 + 2.0 ** -52, 2.0 ** -53],
            [1.0, 2.0 ** -53, 2.0 ** -200],  # above halfway only by a far lower bit
            [-1.0, -2.0 ** -53, -(2.0 ** -200)],
            [1.0, 2.0 ** -53, -(2.0 ** -200)],
            [1e-300, 1e300, -1e300],
            [2.0 ** 959, 2.0 ** 959, -(2.0 ** 958)],
            [2.0 ** 959, 5e-324],  # the exact integer total has ~2000 bits
            [1e-300, 1e280, -1e280, 3e-290],
        ]:
            _assert_same_sum(x)

    def test_subnormal_results(self):
        tiny = 2.0 ** -1022
        for x in [
            [5e-324, 5e-324],
            [tiny, -tiny / 2],
            [2 * tiny, -tiny - 5e-324],
            [1.0, -1.0, 3e-320],
            [1e-310, 1e-310, 1e-310],
        ]:
            _assert_same_sum(x)

    def test_non_finite_values(self):
        for x in [
            [math.inf, 1.0],
            [-math.inf, 1e300],
            [math.nan],
            [1.0, math.nan, 2.0],
            [math.inf, -math.inf],
            [math.inf, math.nan],
        ]:
            _assert_same_sum(x)

    def test_overflow_raises_as_fsum(self):
        with pytest.raises(OverflowError, match="intermediate overflow"):
            montecarlo._exact_sum(np.array([1e308, 1e308]))
        _assert_same_sum([1e308, 1e308])
        _assert_same_sum([1e308, 1e308, -1e308])

    def test_largest_exact_size(self):
        # bin sums at their largest: all-ones 53-bit mantissas, then one value
        # 15 binades below the rest, so that each mantissa is shifted by 15
        near_two = np.nextafter(2.0, 0.0)
        x = np.full(montecarlo._EXACT_SUM_SIZE, near_two)
        x[0] = near_two * 2.0 ** -15
        _assert_same_sum(x)
        _assert_same_sum(-x)
        # the large parts cancel, so the sum is the low halves' bins alone; past
        # the size bound those would round, and math.fsum takes over
        for count in (montecarlo._EXACT_SUM_SIZE - 1, montecarlo._EXACT_SUM_SIZE + 7):
            x = np.append(np.full(count, near_two), -2.0 * count)
            _assert_same_sum(x)
            _assert_same_sum(-x)

    def test_half_ulp_split_over_many_parts(self):
        # 2**-53, half an ulp of 1, split exactly into thousands of parts: a tie that
        # rounds to even both down (from 1) and up (from 1 + 2**-52), and one ulp of
        # the half ulp either way of it
        rng = np.random.default_rng(27)
        for parts in (2000, 4095, 10_000):
            split = rng.multinomial(2 ** 30, np.full(parts, 1.0 / parts)) * 2.0 ** -83
            for head in (1.0, 1.0 + 2.0 ** -52):
                for nudge in (0.0, 2.0 ** -105, -(2.0 ** -105)):
                    x = np.concatenate(([head, nudge], split))
                    rng.shuffle(x)
                    _assert_same_sum(x)
                    _assert_same_sum(-x)

    def test_mirrored_cancellation(self):
        rng = np.random.default_rng(28)
        for size in (1, 100, 2048):
            x = rng.choice([-1.0, 1.0], size) * np.exp2(rng.uniform(-60.0, 60.0, size))
            both = np.concatenate((x, -x))
            rng.shuffle(both)
            _assert_same_sum(both)
            for residual in (5e-324, 1e-300, 2.0 ** -60, 1.0, -1.0):
                _assert_same_sum(np.append(both, residual))

    def test_sizes(self, monkeypatch):
        # spread positive values take the fast path at every size; mixed signs agree too
        rng = np.random.default_rng(29)
        calls = _count_fsum(monkeypatch)
        for size in (1, 2, montecarlo._CHUNK, montecarlo._EXACT_SUM_SIZE):
            x = np.exp2(rng.uniform(-30.0, 30.0, size))
            want = _FSUM(x.tolist())
            calls.clear()
            assert montecarlo._exact_sum(x) == want
            assert calls == []
            _assert_same_sum(x * rng.choice([-1.0, 1.0], size))

    def test_fast_path_range(self, monkeypatch):
        # the fast path covers max|x| in [2**-900, 2**960); just outside, math.fsum answers
        rng = np.random.default_rng(30)
        base = rng.choice([-1.0, 1.0], 1000) * rng.uniform(0.25, 1.0, 1000)
        base[17] = 1.0
        calls = _count_fsum(monkeypatch)
        for top, fast in ((2.0 ** -900, True), (np.nextafter(2.0 ** -900, 0.0), False),
                          (np.nextafter(2.0 ** 960, 0.0), True), (2.0 ** 960, False)):
            x = base * top
            assert np.abs(x).max() == top
            want = _FSUM(x.tolist())
            calls.clear()
            assert montecarlo._exact_sum(x) == want
            assert calls == ([] if fast else [x.size])

    def test_seeded_scan(self):
        # mixed arrays: wide exponents (overflow and subnormals included), chunk-like
        # powers, near-cancellation, near-ties and coarse grids with exact ties
        rng = np.random.default_rng(20261019)
        for i in range(2000):
            size = int(rng.integers(1, 600))
            signs = rng.choice([-1.0, 1.0], size)
            kind = i % 5
            if kind == 0:
                x = signs * np.exp2(rng.uniform(-1070.0, 1023.0, size))
            elif kind == 1:
                x = (rng.gamma(0.5, 4.0, size) * np.exp2(rng.integers(-40, 40))) ** (i % 6 + 1)
            elif kind == 2:
                y = signs * np.exp2(rng.uniform(-50.0, 50.0, size))
                x = np.concatenate((y, -y * (1.0 + 2.0 ** -52 * rng.integers(-2, 3, size))))
            elif kind == 3:
                head = 2.0 ** int(rng.integers(-800, 900))
                x = np.concatenate(([head, head * 2.0 ** -53 * rng.choice([-1.0, 1.0])],
                                    head * 2.0 ** -106 * signs * rng.integers(0, 4, size)))
            else:
                x = signs * rng.integers(0, 2 ** 20, size) * 2.0 ** int(rng.integers(-60, 60))
            rng.shuffle(x)
            _assert_same_sum(x)

    def test_real_chunks_take_the_fast_path(self, monkeypatch):
        # one law-route chunk, and a full chunk paired with a last one of 904, of three
        # benchmark legs: all six power sums of each chunk are exact without math.fsum,
        # so a silent fall-back to it shows up here
        calls = _count_fsum(monkeypatch)
        for model, eps, n in ((GAMMA, 0.5, 50), (catalog_model("tev"), 1.0, 400),
                              (catalog_model("invnormal-mu", {"theta": 2.0}), 1.0, 2000)):
            for reps in (montecarlo._CHUNK, 5000):
                config = SimulationConfig(model=model, theta0=1.0, eps=eps, n=n,
                                          reps=reps, alpha=0.05, seed=11)
                got = montecarlo._run_chunks(config, 0, reps)
                assert calls == [] and got[3] == reps
                assert len(got[4]) == -(-reps // montecarlo._CHUNK)

    def _chunk_matches_reference(self, config, lo, hi):
        got = montecarlo._run_chunks(config, lo, hi)
        assert got == _reference_chunks(config, lo, hi)
        rej, _, (unestimated, _), _, _ = got
        assert all(0 < r < hi - lo for r in rej)  # every count is tested on a mix
        return unestimated

    def test_chunk_sums_are_fsums_of_s4_powers(self):
        # a full chunk, a partial last chunk of 904 and the pair of them, for every
        # catalog model
        for name, model in all_models():
            theta0 = theta_grid(name)[1]
            config = _config(model, theta0 + 0.1, theta0, 20, 5)
            for lo, hi in ((0, montecarlo._CHUNK), (montecarlo._CHUNK, 5000), (0, 5000)):
                self._chunk_matches_reference(config, lo, hi)

    def test_chunk_with_failed_rows(self):
        flaky = dataclasses.replace(
            GAMMA, mle_closed_form=partial(_failing_closed_form, 2.95)
        )
        config = _config(flaky, 1.0, 1.0, 10, 5)
        assert self._chunk_matches_reference(config, 0, montecarlo._CHUNK) > 0
        assert self._chunk_matches_reference(config, montecarlo._CHUNK, 5000) > 0
        assert self._chunk_matches_reference(config, 0, 5000) > 0

    def test_chunk_with_one_failed_row(self):
        # the largest d-bar of the chunk fails: the other rows are gathered, not all of them
        top = float(_law_dbars(GAMMA, 1.0, 10, 5, montecarlo._CHUNK).max())
        flaky = dataclasses.replace(
            GAMMA, mle_closed_form=partial(_failing_closed_form, math.nextafter(top, 0.0))
        )
        config = _config(flaky, 1.0, 1.0, 10, 5)
        assert self._chunk_matches_reference(config, 0, montecarlo._CHUNK) == 1

    @pytest.mark.parametrize("where", ["first", "second", "both"])
    def test_pair_with_failed_rows_in_either_chunk(self, where):
        # a pair of a full chunk and a last one of 904 whose failed rows (chosen d-bar
        # values) sit in one chunk or both: each chunk's sums are over its own kept rows
        d_bar = _law_dbars(GAMMA, 1.0, 10, 5, 5000)
        rows = {"first": [3, 17, 4095], "second": [4096, 4500, 4999],
                "both": [0, 4095, 4096, 4999]}[where]
        flaky = dataclasses.replace(GAMMA, mle_closed_form=partial(_failing_at, d_bar[rows]))
        config = _config(flaky, 1.0, 1.0, 10, 5)
        assert self._chunk_matches_reference(config, 0, 5000) == len(rows)

    @pytest.mark.parametrize("empty", [0, 1])
    def test_pair_with_a_chunk_without_usable_rows(self, empty):
        # every row of one chunk fails: its segment of the kept rows is empty, and its
        # power sums are math.fsum's of no values
        d_bar = _law_dbars(GAMMA, 1.0, 10, 5, 5000)
        failed = d_bar[:montecarlo._CHUNK] if empty == 0 else d_bar[montecarlo._CHUNK:]
        flaky = dataclasses.replace(GAMMA, mle_closed_form=partial(_failing_at, failed))
        config = _config(flaky, 1.0, 1.0, 10, 5)
        got = montecarlo._run_chunks(config, 0, 5000)
        assert got == _reference_chunks(config, 0, 5000)
        assert got[2] == (len(failed), 0) and got[3] == 5000 - len(failed)
        assert got[4][empty] == (0.0,) * 6
        assert all(math.copysign(1.0, v) == 1.0 for v in got[4][empty])


class TestPowerSums:
    """Each segment's six sums from one max/min pass: the chained maxima are the tops."""

    @staticmethod
    def _check(s4, edges, monkeypatch):
        # every top _power_sums passes is max|x| of that power, and every sum is
        # math.fsum's in hex (NaN where math.fsum raises)
        exact_sum, tops = montecarlo._exact_sum, []

        def checked(x, top=None):
            want = float(max(x.max(), -x.min())) if x.size else None
            tops.append((top, want))
            return exact_sum(x, top)

        monkeypatch.setattr(montecarlo, "_exact_sum", checked)
        with np.errstate(over="ignore", invalid="ignore"):
            got = montecarlo._power_sums(s4, edges)
            want = []
            for a, b in zip(edges, edges[1:]):
                sums = []
                for power in _chained_powers(s4[a:b]):
                    kind, value = _outcome(math.fsum, power.tolist())
                    sums.append(value if kind == "value" else math.nan)
                want.append(tuple(sums))
        monkeypatch.undo()
        assert [tuple(map(float.hex, g)) for g in got] == [tuple(map(float.hex, w))
                                                             for w in want]
        for top, max_abs in tops:
            assert max_abs is None or top == max_abs, (top, max_abs)
        return tops

    def test_seeded_arrays(self, monkeypatch):
        rng = np.random.default_rng(20261020)
        for i in range(300):
            size = int(rng.integers(1, 3000))
            signs = rng.choice([-1.0, 1.0], size) if i % 2 else 1.0
            s4 = signs * rng.gamma(0.5, 2.0, size) * np.exp2(rng.integers(-200, 200))
            cut = int(rng.integers(0, size + 1))
            self._check(s4, [0, size], monkeypatch)
            self._check(s4, [0, cut, size], monkeypatch)

    def test_fifth_or_sixth_power_overflows(self, monkeypatch):
        rng = np.random.default_rng(31)
        for top in (1e55, 3e61, 1e62, 2.0 ** 171, 2.0 ** 205):
            s4 = rng.uniform(0.0, 1.0, 1000) * top
            s4[7] = top
            tops = [t for t, _ in self._check(s4, [0, 400, 1000], monkeypatch)]
            assert math.inf in tops  # some power passed the float range
            assert all(map(math.isfinite, tops[:4] + tops[6:10]))  # the first four did not

    def test_square_crosses_the_fast_path_floor(self, monkeypatch):
        # T_1 near 2**-450, so T_2 falls on either side of 2**-900, the fast path's floor
        rng = np.random.default_rng(32)
        for top in (2.0 ** -450, np.nextafter(2.0 ** -450, 0.0), 2.0 ** -449, 1.5 * 2.0 ** -451):
            s4 = rng.uniform(0.1, 1.0, 500) * top
            s4[123] = top
            tops = self._check(s4, [0, 500], monkeypatch)
            assert tops[0][0] == top and tops[1][0] == top * top

    def test_zeros_and_single_values(self, monkeypatch):
        for s4 in ([0.0, -0.0, 0.0], [-0.0], [-0.0, -0.0], [0.0], [3.5], [-2.0 ** -600],
                   [1e300], [5e-324], [1e-300, 0.0, -0.0]):
            x = np.array(s4)
            self._check(x, [0, x.size], monkeypatch)
            self._check(x, [0, 0, x.size], monkeypatch)  # an empty first segment
            self._check(x, [0, x.size, x.size], monkeypatch)  # an empty second one


class TestFailureAccounting:
    def _threshold_for(self, cfg, n_failures):
        dbars = _law_dbars(GAMMA, cfg.query.theta_drifted, cfg.n, cfg.seed, cfg.reps)
        return float(np.sort(dbars)[-(n_failures + 1)] + 1e-12)

    def test_non_finite_statistics_are_failures(self):
        # invnormal-mu with a shape of 1e-155: most rows have a finite estimate and a
        # Wald statistic whose true value passes the float range.  They are dropped as
        # failures, not counted as rejections, and warn nothing
        model = catalog_model("invnormal-mu", {"theta": 1e-155})
        config = SimulationConfig(model=model, theta0=7.0, eps=4.301078817733611, n=5,
                                  reps=200, alpha=0.999999, seed=3)
        q = config.query
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rej, _, failures, used, _ = montecarlo._run_chunks(config, 0, 200)
        with np.errstate(all="ignore"):
            theta_hat, s = statistics_from_dbar(
                model, 7.0, _law_dbars(model, q.theta_drifted, 5, 3, 200), 5)
        stats = np.column_stack(s)
        estimated = ~np.isnan(theta_hat)
        finite = np.isfinite(stats).all(axis=1) & estimated
        assert np.count_nonzero(np.isinf(stats[:, 1]) & estimated) > 100
        # the failed rows are exactly those whose true S_W = n (mu - 7)^2 lam / mu^3
        # passes the float range
        with mpmath.workdps(30):
            huge = [5 * (mpmath.mpf(t) - 7) ** 2 * mpmath.mpf(1e-155) / mpmath.mpf(t) ** 3
                    > np.finfo(float).max for t in theta_hat.tolist()]
        assert np.array_equal(~finite, huge)
        assert (failures, used) == ((200 - np.count_nonzero(estimated),
                                     np.count_nonzero(estimated & ~finite)),
                                    np.count_nonzero(finite))
        assert rej == tuple(int(c) for c in np.count_nonzero(stats[finite] > q.crit, axis=0))
        message = ("^121/200 replicates failed: estimation failed in 0,"
                   " a statistic was not finite in 121 ")
        with pytest.raises(EstimationError, match=message):
            simulate(config)
        j = int(np.flatnonzero(~finite)[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimationError, match=f"^non-finite statistic in replicate {j} "):
                replicate_statistics(config, j)

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

    def test_single_failed_replicate_trips_the_limit(self):
        # a run with no usable replicate always exceeds the failure limit first
        always_fail = dataclasses.replace(
            GAMMA, mle_closed_form=lambda dbar: _failing_closed_form(-1.0, dbar)
        )
        cfg = SimulationConfig(
            model=always_fail, theta0=1.0, eps=0.0, n=10, reps=1, alpha=0.05, seed=1
        )
        with pytest.raises(EstimationError, match="^1/1 replicates failed: estimation failed in 1,"
                                                  " a statistic was not finite in 0 "):
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
        # every alpha in (0, 1) is valid, even where 1 - alpha rounds to 1
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
            # bool passes as an Integral, but is neither a count nor a seed
            ("n", True, "n must be an integer"),
            ("reps", True, "reps must be an integer"),
            ("workers", True, "workers must be an integer"),
            ("seed", False, "seed must be an integer"),
            ("seed", True, "seed must be an integer"),
        ]:
            with pytest.raises(DomainError, match=message):
                SimulationConfig(**{**good, field: value})
        for seed, j, message in [
            (False, 0, "seed must be an integer"),
            (5, True, "replicate index must be an integer"),
            (5.0, 0, "seed must be an integer"),
            (5, 1.0, "replicate index must be an integer"),
        ]:
            with pytest.raises(DomainError, match=message):
                replicate_stream(seed, j)
            with pytest.raises(DomainError, match=message):
                replicate_statistics(_config(GAMMA, 1.05, 1.0, 20, seed), j)

    @pytest.mark.parametrize("field,value,message", [
        ("workers", 0, "^workers must be >= 1, got 0$"),
        ("workers", -3, "^workers must be >= 1, got -3$"),
        pytest.param("n", 10 ** 400, "^n must be at most", id="n-10**400"),
    ])
    def test_out_of_range_refused(self, field, value, message):
        good = dict(model=GAMMA, theta0=1.0, eps=0.0, n=50, reps=1000, alpha=0.05, seed=0)
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
