"""gradpower benchmark: one workload, timed end to end or traced by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analytic-grid --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics, the tracing
overhead between the two kinds of round, and writes every span to
``perfbench/.work/``.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a human-readable report.  README.md beside this file defines each
metric and says why each workload was chosen.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_REPEATS = 15
SETUP_LOOPS = 5  # calibration loops timed after each set-up probe
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


@dataclass
class Round:
    traced: bool
    wall: float
    ops: list[calibration.Op]


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def import_program() -> None:
    if not (SRC / "gradpower" / "__init__.py").is_file():
        raise BenchError(f"no gradpower sources under {SRC}; run from the checkout root")
    sys.path.insert(0, str(SRC))
    import gradpower

    if Path(gradpower.__file__).resolve().parent != (SRC / "gradpower").resolve():
        raise BenchError(f"gradpower imported from {gradpower.__file__}, not from {SRC}")


def provenance() -> dict:
    import numpy

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "absent"
    try:
        cpu_max = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        cpu_max = "absent"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_max": cpu_max,
        "commit": commit_id(),
    }


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_rounds(wl, seconds: float, tracer) -> list:
    """Whole rounds until ``seconds`` have passed; traced runs alternate."""
    rounds = []
    t_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            ops = wl.run_round(len(rounds), tracer if traced else None)
        finally:
            if traced:
                tracer.enabled = False
                tracer.uninstall()
        rounds.append(Round(traced=traced, wall=time.perf_counter() - t0, ops=ops))
        enough = time.perf_counter() - t_start >= seconds
        if enough and (tracer is None or len(rounds) >= 2):
            wl.pacer.tick()  # samples after the last call
            return rounds


def reference_values(request: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "reference.py")],
        input=json.dumps(request), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"reference process failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def setup_seconds(workload: str) -> tuple[list[float], float]:
    """Fresh interpreter to ready, :data:`SETUP_REPEATS` times.

    Returns the raw seconds and the median calibration-loop time over the
    whole set-up phase (loops timed between probes).  One factor for the
    phase, not one per probe: a probe's own neighbourhood is too short to
    judge the machine's speed by.
    """
    times, loops = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != "ready\n" or proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {err.strip()}")
        times.append(dt)
        loops.extend(calibration.calibration_loop() for _ in range(SETUP_LOOPS))
    return times, statistics.median(loops)


def timing(rounds, pacer=None) -> tuple[float, float, float, int]:
    """Units per second, p50 and p90 seconds, and the number of timed calls.

    With a pacer the times are in reference seconds, else as measured.
    """
    secs = sorted(op.seconds * (pacer.scale(op) if pacer else 1.0)
                  for r in rounds for op in r.ops)
    units = sum(op.units for r in rounds for op in r.ops)
    return units / sum(secs), percentile(secs, 50), percentile(secs, 90), len(secs)


def end_to_end(wl, rounds, checked, rss, setup) -> tuple[dict, list[str]]:
    probes, setup_loop = setup
    raw_setup = statistics.median(probes)
    setup_s = raw_setup * calibration.CAL_REFERENCE_S / setup_loop
    rate, p50, p90, n = timing(rounds, wl.pacer)
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "ops_per_s": (rate, "1/s"),
        "op_ms_p50": (1e3 * p50, "ms"),
        "op_ms_p90": (1e3 * p90, "ms"),
        "relerr_max": (checked.relerr_max, "ratio"),
    }
    # the same figures under the names that describe each workload
    op_name = {"replicate": "sim_ms", "command": "cmd_ms", "call": "call_us"}[wl.unit]
    scale = 1e6 if wl.unit == "call" else 1e3
    rate_name = {"replicate": "reps_per_s", "command": "cmds_per_s", "call": "calls_per_s"}
    raw_rate, raw_p50, raw_p90, _ = timing(rounds)
    units = sum(op.units for r in rounds for op in r.ops)
    cal = statistics.median(wl.pacer.durations)
    lines = [
        f"timings in reference seconds (raw in brackets); calibration loop median "
        f"{1e6 * cal:.1f} us against a reference of {1e6 * calibration.CAL_REFERENCE_S:.1f} us",
        f"{rate_name[wl.unit]} = {rate:.6g} 1/s [{raw_rate:.6g}]  ({units} {wl.unit}s, "
        f"{n} timed calls, {len(rounds)} rounds)",
        f"{op_name}_p50 = {scale * p50:.6g} [{scale * raw_p50:.6g}]  (n={n})",
        f"{op_name}_p90 = {scale * p90:.6g} [{scale * raw_p90:.6g}]  (n={n}, "
        f"{n - math.ceil(0.9 * n)} samples beyond)",
        f"setup_s = {setup_s:.6g} [{raw_setup:.6g}]  (median of {len(probes)}; calibration "
        f"loop {1e6 * setup_loop:.1f} us over the set-up phase)",
        f"peak_rss_mb = {rss:.6g} MB  (self + children)",
        f"relerr_max = {checked.relerr_max:.6g}",
    ]
    return metrics, lines


def per_layer(wl, rounds, tracer) -> tuple[dict, list[str]]:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    busy = sum(op.seconds for r in traced for op in r.ops)
    table = tracer.layer_table()

    def rate(rs):
        return timing(rs, wl.pacer)[0]

    traced_ops = sum(len(r.ops) for r in traced)
    metrics = {}
    for layer, name in LAYER_SPANS:
        row = table.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{layer}_calls_per_op"] = (row["calls"] / traced_ops, "count")
        metrics[f"{layer}_pct"] = (100.0 * row["self_s"] / busy, "%")
    quantiles = table.get("specfun.quantile", {}).get("calls", 0)
    replicates = table.get("montecarlo.replicate", {}).get("calls", 0)
    summary = wl.summary()
    speedups = summary.get("fanout_speedup", {})
    power = tracer.power_results
    metrics.update({
        "specfun.cdf_calls_per_quantile": (
            tracer.cdf_calls_in_quantiles() / quantiles if quantiles else 0.0, "ratio"),
        "specfun.repeat_quantile_share": (tracer.repeat_quantile_share(), "ratio"),
        "localpower.clamped_share": (
            power["clamped"] / sum(power.values()) if power else 0.0, "ratio"),
        "cli.stdout_bytes_per_cmd": (summary.get("stdout_bytes_per_cmd", 0.0), "bytes"),
        "expfam.obs_per_rep": (tracer.obs_drawn / replicates if replicates else 0.0, "ratio"),
        "montecarlo.fanout_speedup": (speedups.get("tev-n400-eps1-both-sources", 0.0), "ratio"),
        "montecarlo.fanout_speedup_short": (speedups.get("tev-n400-null-short", 0.0), "ratio"),
        "trace.overhead_pct": (100.0 * (rate(plain) / rate(traced) - 1.0), "%"),
        "trace.spans_per_op": (len(tracer.span_name) / traced_ops, "count"),
    })
    lines = [f"traced rounds: {len(traced)} of {len(rounds)}, {traced_ops} traced calls "
             f"taking {busy:.3f} s; untraced {rate(plain):.6g} vs traced {rate(traced):.6g} "
             f"{wl.unit}s per reference second; {tracer.obs_drawn} observations drawn"]
    for name in sorted(table):
        row = table[name]
        lines.append(f"  {name:32s} calls={row['calls']:>9d} self={row['self_s']:.4f} s "
                     f"({1e6 * row['self_s'] / row['calls']:.2f} us/call) "
                     f"total={row['total_s']:.4f} s")
    absent = sorted(name for _, name in LAYER_SPANS if name not in table)
    if absent:
        lines.append(f"not exercised by {wl.name} (reported as 0): " + ", ".join(absent))
    if wl.name == "mc-fanout":
        lines.append("spans inside worker processes are not captured; workers=2 calls show "
                     "only as montecarlo.simulate self time")
    return metrics, lines


# (metric prefix, span name); every prefix yields <prefix>_calls_per_op (spans
# per timed call) and <prefix>_pct (self time as a share of the time spent in
# the traced rounds' timed calls)
LAYER_SPANS = (
    ("specfun.quantile", "specfun.quantile"),
    ("specfun.nc_cdf", "specfun.nc_cdf"),
    ("specfun.nc_pdf", "specfun.nc_pdf"),
    ("specfun.central_cdf", "specfun.central_cdf"),
    ("localpower.local_power", "localpower.local_power"),
    ("localpower.coefficients", "localpower.coefficients"),
    ("localpower.difference", "localpower.difference"),
    ("localpower.ordering", "localpower.ordering"),
    ("expansion.composite", "expansion.composite"),
    ("expansion.moments", "expansion.moments"),
    ("expansion.cdf", "expansion.cdf"),
    ("cli.run_self", "cli.run"),
    ("montecarlo.simulate", "montecarlo.simulate"),
    ("montecarlo.replicate", "montecarlo.replicate"),
    ("montecarlo.stream", "montecarlo.stream"),
    ("expfam.sampler", "expfam.sampler"),
    ("expfam.mle", "expfam.mle"),
    ("teststats.dbar_stats", "teststats.dbar_stats"),
    ("teststats.compute_statistics", "teststats.compute_statistics"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if args.seed < 0:
            raise BenchError(f"--seed must be >= 0, got {args.seed}")
        import_program()
        import tracing
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {', '.join(workloads.WORKLOADS)}")
        run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        workdir = WORK / f"{run_id}-{os.getpid()}"
        tracer = tracing.Tracer() if args.trace else None
        try:
            wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
            wl.prepare()
            rounds = run_rounds(wl, args.seconds, tracer)
            rss = peak_rss_mb()
            checked = wl.check(reference_values(wl.reference_request()))
            setup = setup_seconds(args.workload)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    ops = [op for rnd in rounds for op in rnd.ops]
    attempted = sum(op.units for op in ops) + checked.attempted
    failed = sum(op.failed for op in ops) + checked.failed
    info = provenance()
    print(f"# gradpower benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in info.items()))
    if args.trace:
        metrics, lines = per_layer(wl, rounds, tracer)
    else:
        metrics, lines = end_to_end(wl, rounds, checked, rss, setup)
    for line in lines:
        print(line)
    print(f"failed_ratio = {failed / attempted:.6g}  ({failed}/{attempted} {wl.unit}s and "
          "gate checks)")
    for key, val in wl.summary().items():
        print(f"{key}: {json.dumps(val)}")
    for note in checked.notes[:20]:
        print(f"gate miss: {note}")

    WORK.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": info, "summary": wl.summary(),
              "gate_misses": checked.notes,
              "metrics": {k: v[0] for k, v in metrics.items()}}
    (WORK / f"result-{run_id}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if tracer is not None:
        tracer.dump(WORK / f"trace-{run_id}.json", record)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
