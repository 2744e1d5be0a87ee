"""Smoke tests of the benchmark at tiny size.

Run from the checkout root: ``python3 -m pytest -q perfbench/test_smoke.py``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gradpower import catalog_model, localpower, montecarlo  # noqa: E402
from gradpower.teststats import TestKind  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", ["analytic-grid", "analytic-sweep"])
def test_one_round_prints_every_end_to_end_metric(workload):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        got = result["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"] and got["value"] > 0


def test_traced_run_prints_every_per_layer_metric():
    proc = _bench("--workload", "analytic-sweep", "--seed", "7", "--seconds", "0",
                  "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for spec in SPEC["per_layer"]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    assert result["metrics"]["localpower.local_power_calls_per_op"]["value"] > 0


def test_without_program_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _bench("--workload", "analytic-grid", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_same_seed_same_inputs(tmp_path):
    a = workloads.AnalyticGrid(3, tmp_path / "a")
    b = workloads.AnalyticGrid(3, tmp_path / "b")
    a.prepare()
    b.prepare()
    strip = [[arg.replace(str(tmp_path / "b"), str(tmp_path / "a")) for arg in argv]
             for argv in b.commands]
    assert a.commands == strip
    for name in ("tensors_p12_q10.json", "tensors_p2_q0.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_fanout_report_equals_serial_report_and_gates_pass():
    leg = workloads.Leg("tiny", "tev", 0.0, 400, 5000, "size")

    class Tiny(workloads.McFanout):
        legs = (leg,)

    wl = Tiny(11, None)
    ops = wl.run_round(0, None)
    assert [op.failed for op in ops] == [0]
    assert wl.misses == []
    assert wl.speedup("tiny") > 0


def test_gate_flags_a_size_miss():
    model = catalog_model("gamma", {"k": 2.0})
    rep = montecarlo.simulate(montecarlo.SimulationConfig(
        model=model, theta0=1.0, eps=2.0, n=50, reps=300, alpha=0.05, seed=3))
    assert workloads.gate_miss(workloads.Leg("x", "gamma", 0.0, 50, 300, "size"), [rep])


def test_tracer_restores_the_program_and_counts_spans():
    original = localpower.nc_chisq_cdf
    model = catalog_model("gamma", {"k": 2.0})
    query = localpower.PowerQuery(model=model, theta0=1.0, eps=0.5, n=50, alpha=0.05)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        localpower.local_power(query, TestKind.LR)
        traced = tracer.traced_model(model)
        montecarlo.simulate(montecarlo.SimulationConfig(
            model=traced, theta0=1.0, eps=0.5, n=50, reps=8, alpha=0.05, seed=1))
    finally:
        tracer.enabled = False
        tracer.uninstall()
    assert localpower.nc_chisq_cdf is original
    table = tracer.layer_table()
    # one direct call, four from simulate's predicted powers
    assert table["localpower.local_power"]["calls"] == 5
    assert table["expfam.sampler"]["calls"] == 8
    assert tracer.obs_drawn == 400
    for row in table.values():
        assert 0.0 <= row["self_s"] <= row["total_s"] + 1e-12
    # a traced sampler travels to worker processes as the plain sampler
    assert traced.sampler.__reduce__()[1][0] is model.sampler


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile([3.0], 90) == 3.0


def test_scipy_reference_agrees_with_mpmath_in_the_far_tail():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40

    def nc_sf(x, df, lam):
        total = mpmath.mpf(0)
        lam = mpmath.mpf(lam)
        for j in range(int(lam) + 400):
            w = mpmath.exp(-lam + j * mpmath.log(lam) - mpmath.loggamma(j + 1))
            total += w * mpmath.gammainc(mpmath.mpf(df) / 2 + j, mpmath.mpf(x) / 2,
                                         regularized=True)
        return total

    for alpha, lam in ((1e-12, 0.5), (1e-12, 200.0), (1e-6, 50.0)):
        x = float(reference.crit([{"alpha": alpha}])[0][0])
        for df in (1, 7):
            got = float(reference._sf(x, df, lam)[0])
            want = float(nc_sf(x, df, lam))
            assert math.isclose(got, want, rel_tol=1e-9), (alpha, lam, df, got, want)
