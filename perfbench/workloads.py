"""The benchmark's four workloads: inputs, timed rounds, correctness gates.

Every workload is a closed loop driven from one process: each timed call
waits for the previous one.  A workload runs in rounds; a round is the same
fixed mix of calls each time (only Monte Carlo seeds and sweep draws change
between rounds), so throughput does not depend on where a run stops.  All
inputs come from the benchmark seed.  Why each workload exists, and which
layer it stresses, is written down in README.md beside this file.

Each timed call is one *operation*.  Its *units* are the work it completes:
replicates for ``mc-*``, one command for ``analytic-grid``, one library call
for ``analytic-sweep``.  ``failed`` counts units that raised, returned a
nonzero exit code, lost a replicate to ``EstimationError`` or missed a gate.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import time
import traceback
from array import array
from dataclasses import dataclass, field

import numpy as np

from calibration import Op, Pacer
from gradpower import cli, expansion, expfam, localpower, montecarlo, specfun, teststats
from gradpower.errors import GradpowerError
from gradpower.teststats import ALL_KINDS, TestKind

# fixed constants for every catalog entry
DEFAULT_FIXED = {
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

# Monte Carlo gates: the bounds of acceptance criteria 7 (size) and 8 (power)
SIZE_BOUND = 0.012
POWER_BOUND = 0.025
# Tolerances of the gates on computed probabilities: a value passes when
# |got - ref| <= TOL * magnitude + ABS_TOL * weight (see reference.py).  The
# relative parts sit well above what the seed commit reaches: about 1e-13 at
# the alphas of the grid and the Monte Carlo legs, about 1e-4 in the sweep,
# where alpha goes down to 1e-12 and upper tails are computed as 1 - P.
# ABS_TOL covers the Poisson-mixture truncation, which the program makes at
# an absolute 1e-14 per kernel value, so values far below that carry no
# relative accuracy.
MODERATE_TOL = 1e-9
SWEEP_TOL = 1e-2
ABS_TOL = 1e-13
STAT_TOL = 1e-7
PVALUE_ABS_TOL = 1e-12
MC_ALPHA = 0.05

_WORKLOAD_IDS = {"mc-oracle": 1, "mc-fanout": 2, "analytic-grid": 3, "analytic-sweep": 4}


@dataclass
class Checked:
    """Outcome of the post-run gates."""

    failed: int = 0
    attempted: int = 0
    relerr_max: float = 0.0
    notes: list[str] = field(default_factory=list)


def relerr(got: float, ref: list[float]) -> float:
    """Relative error against the magnitude of the reference's terms."""
    value, magnitude, _ = ref
    if got == value:
        return 0.0
    if magnitude == 0.0 or not math.isfinite(got):
        return math.inf
    return abs(got - value) / magnitude


def within(got: float, ref: list[float], tol: float) -> bool:
    value, magnitude, weight = ref
    return math.isfinite(got) and abs(got - value) <= tol * magnitude + ABS_TOL * weight


def power_request(model, theta0, eps, n, alpha, source, kind) -> dict:
    """Reference request for one raw local power value (see reference.py)."""
    table = localpower.power_coefficients(model, theta0, eps, source)
    return {"alpha": alpha, "lam": 0.5 * model.fisher_information(theta0) * eps ** 2,
            "scale": 1.0 / math.sqrt(n), "row": table.row(kind).tolist()}


def fmt17(x: float) -> str:
    # the CLI's number format
    return f"{float(x):.17g}"


def _theta0(rng: np.random.Generator, name: str) -> float:
    if name == "normal-mean":
        return float(rng.uniform(-1.0, 1.0))
    return float(rng.uniform(0.8, 1.5))


def _fixed_arg(name: str) -> str:
    return ",".join(f"{k}={v}" for k, v in DEFAULT_FIXED[name].items())


class Workload:
    name = ""
    unit = ""

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir
        self.models = {n: expfam.catalog_model(n, f) for n, f in DEFAULT_FIXED.items()}
        self.pacer = Pacer()
        self._op_index = 0

    def rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, _WORKLOAD_IDS[self.name], *key])

    def prepare(self) -> None:
        """Generate inputs; not timed."""

    def next_op(self, tracer) -> None:
        self.pacer.tick()
        if tracer is not None:
            tracer.op = self._op_index
        self._op_index += 1

    def run_round(self, r: int, tracer) -> list[Op]:
        raise NotImplementedError

    def reference_request(self) -> dict:
        raise NotImplementedError

    def check(self, ref: dict) -> Checked:
        raise NotImplementedError

    def summary(self) -> dict:
        """Workload-specific figures for the human-readable report."""
        return {}


# ------------------------------------------------------------------ #
# Monte Carlo
# ------------------------------------------------------------------ #


@dataclass(frozen=True)
class Leg:
    """``calls`` simulate calls of ``reps`` replicates each, gated together."""

    label: str
    model: str
    eps: float
    n: int
    reps: int
    gate: str  # "size": criterion 7 bound; "power": criterion 8 bound
    compare_sources: bool = False
    calls: int = 1
    theta0: float = 1.0


ORACLE_LEGS = (
    Leg("gamma-n50-null", "gamma", 0.0, 50, 5000, "size", calls=2),
    Leg("gamma-n50-eps0.5", "gamma", 0.5, 50, 5000, "power", calls=2),
    Leg("gamma-n200-eps1", "gamma", 1.0, 200, 5000, "power", calls=2),
    Leg("tev-n400-eps1-both-sources", "tev", 1.0, 400, 5000, "power", True, calls=2),
    Leg("invnormal-mu-n2000-eps1", "invnormal-mu", 1.0, 2000, 5000, "power", calls=2),
)

FANOUT_LEGS = (
    Leg("tev-n400-eps1-both-sources", "tev", 1.0, 400, 50_000, "power", True),
    Leg("tev-n400-null-short", "tev", 0.0, 400, 20_000, "size", calls=2),
)


def gate_miss(leg: Leg, reports) -> str | None:
    """Criterion 7 or 8 on the replicates of ``reports`` pooled."""
    failures = sum(rep.failures for rep in reports)
    if failures:
        return f"{failures} EstimationError replicates"
    used = sum(rep.reps_used for rep in reports)
    rates = [sum(round(rep.rejection_rate[i] * rep.reps_used) for rep in reports) / used
             for i in range(4)]
    if leg.gate == "size":
        worst = max(abs(r - MC_ALPHA) for r in rates)
        bound = SIZE_BOUND
    else:
        predicted = reports[0].predicted_power[localpower.SOURCE_CHAIN]
        worst = max(abs(r - p) for r, p in zip(rates, predicted))
        bound = POWER_BOUND
    if worst > bound:
        return f"{leg.gate} gap {worst:.4g} > {bound}"
    return None


class MonteCarlo(Workload):
    unit = "replicate"
    legs: tuple[Leg, ...] = ()
    workers = 1

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.first_reports: dict[str, object] = {}
        self.misses: list[str] = []
        self.leg_seconds: dict[str, list[float]] = {}

    def config(self, leg: Leg, key: tuple[int, ...], tracer, workers: int):
        model = self.models[leg.model]
        if tracer is not None:
            model = tracer.traced_model(model)
        return montecarlo.SimulationConfig(
            model=model, theta0=leg.theta0, eps=leg.eps, n=leg.n, reps=leg.reps,
            alpha=MC_ALPHA, seed=int(self.rng(*key).integers(2**62)),
            compare_sources=leg.compare_sources, workers=workers,
        )

    def run_round(self, r, tracer):
        ops = []
        for idx, leg in enumerate(self.legs):
            leg_ops, reports, miss = [], [], None
            for c in range(leg.calls):
                config = self.config(leg, (r, idx, c), tracer, self.workers)
                self.next_op(tracer)
                t0 = time.perf_counter()
                try:
                    reports.append(montecarlo.simulate(config))
                except GradpowerError as exc:
                    miss = f"{type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
                self.leg_seconds.setdefault(leg.label, []).append(dt)
                leg_ops.append(Op(t0, dt, leg.reps))
            if not miss:
                self.first_reports.setdefault(leg.label, reports[0])
                miss = gate_miss(leg, reports) or self.compare_serial(leg, r, idx, reports[0])
            if miss:
                self.misses.append(f"round {r} {leg.label}: {miss}")
                for op in leg_ops:
                    op.failed = op.units
            ops.extend(leg_ops)
        return ops

    def compare_serial(self, leg, r, idx, rep) -> str | None:
        return None

    def reference_request(self):
        crit, power = [], []
        self._points = []
        for leg in self.legs:
            rep = self.first_reports.get(leg.label)
            if rep is None:
                continue
            model = self.models[leg.model]
            crit.append({"alpha": MC_ALPHA})
            self._points.append(("crit", rep.critical_value))
            for src, values in rep.predicted_power.items():
                for kind in ALL_KINDS:
                    power.append(power_request(model, leg.theta0, leg.eps, leg.n, MC_ALPHA,
                                               src, kind))
                    self._points.append(("power", values[kind - 1]))
        return {"crit": crit, "power": power}

    def check(self, ref):
        out = Checked(notes=list(self.misses))
        refs = {"crit": iter(ref["crit"]), "power": iter(ref["power"])}
        for kind, got in self._points:
            r = next(refs[kind])
            out.relerr_max = max(out.relerr_max, relerr(got, r))
            if not within(got, r, MODERATE_TOL):
                out.failed += 1
                out.notes.append(f"{kind} value {got!r} vs reference {r[0]!r}")
        out.attempted = len(self._points)
        return out

    def summary(self):
        return {"leg_median_s": {label: float(np.median(secs))
                                 for label, secs in sorted(self.leg_seconds.items())}}


class McOracle(MonteCarlo):
    name = "mc-oracle"
    legs = ORACLE_LEGS


class McFanout(MonteCarlo):
    """Legs run at workers=2 (timed); round 0 runs each again at workers=1.

    The workers=1 rerun is the reference for the equality gate and the base
    of the fan-out speed-up.  It runs in round 0 only, which is never traced,
    so rounds after it spend their time on the workers=2 calls.
    """

    name = "mc-fanout"
    legs = FANOUT_LEGS
    workers = 2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # leg label -> (workers=1 seconds, workers=2 seconds) of round 0
        self.pairs: dict[str, tuple[float, float]] = {}

    def compare_serial(self, leg, r, idx, rep):
        if r != 0:
            return None
        t0 = time.perf_counter()
        try:
            serial = montecarlo.simulate(self.config(leg, (r, idx, 0), None, 1))
        except GradpowerError as exc:
            return f"workers=1 rerun: {type(exc).__name__}: {exc}"
        self.pairs[leg.label] = (time.perf_counter() - t0, self.leg_seconds[leg.label][-1])
        if serial != dataclasses.replace(rep, workers=1):
            return "workers=2 report differs from the workers=1 report"
        return None

    def speedup(self, label: str) -> float:
        if label not in self.pairs:
            return 0.0
        serial, parallel = self.pairs[label]
        return serial / parallel

    def summary(self):
        out = super().summary()
        out["fanout_speedup"] = {leg.label: self.speedup(leg.label) for leg in self.legs}
        return out


# ------------------------------------------------------------------ #
# Analytic grid: in-process CLI commands
# ------------------------------------------------------------------ #

GRID_ALPHAS = ("0.05", "0.01")
GRID_SOURCES = ("consistent", "table")
GRID_N = (50, 100, 200, 400)
# (p, q) of the generated composite tensor files; f = p - q tested components
TENSOR_SHAPES = ((2, 0), (3, 1), (4, 2), (6, 3), (8, 6), (12, 10))
EXPAND_N = ("50", "500")
EXPAND_X = "0.5:10:0.5"


def random_tensor_doc(rng: np.random.Generator, p: int, q: int) -> dict:
    R = rng.normal(size=(p, p))
    K = R @ R.T + p * np.eye(p)
    k3 = rng.normal(size=(p, p, p))
    k3 = sum(np.transpose(k3, perm) for perm in
             [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]) / 6.0
    k21 = rng.normal(size=(p, p, p))
    k21 = 0.5 * (k21 + np.transpose(k21, (0, 2, 1)))
    return {"p": p, "q": q, "K": K.tolist(), "k3": k3.tolist(), "k21": k21.tolist()}


class AnalyticGrid(Workload):
    name = "analytic-grid"
    unit = "command"

    def prepare(self):
        rng = self.rng(0)
        self.commands: list[list[str]] = []
        self.meta: list[dict] = []
        for name in expfam.CATALOG_NAMES:
            theta0 = fmt17(_theta0(rng, name))
            base = ["--model", name, "--fixed", _fixed_arg(name), "--theta0", theta0]
            for n in rng.choice(GRID_N, size=2, replace=False):
                for source in GRID_SOURCES:
                    for alpha in GRID_ALPHAS:
                        self.commands.append(["power", *base, "--eps", "grid", "--n", str(n),
                                              "--alpha", alpha, "--source", source])
                        self.meta.append({"model": name, "theta0": float(theta0),
                                          "n": int(n), "alpha": float(alpha),
                                          "source": source})
            for direction in ("above", "below"):
                self.commands.append(["order", *base, "--alpha", "0.05",
                                      "--direction", direction])
                self.meta.append({})
        self.workdir.mkdir(parents=True, exist_ok=True)
        for p, q in TENSOR_SHAPES:
            path = self.workdir / f"tensors_p{p}_q{q}.json"
            path.write_text(json.dumps(random_tensor_doc(rng, p, q)), encoding="utf-8")
            eps = ",".join(fmt17(e) for e in rng.uniform(-1.0, 1.0, size=p - q))
            for n in EXPAND_N:
                self.commands.append(["expand", "--tensors", str(path), f"--eps={eps}",
                                      "--n", n, "--x", EXPAND_X])
                self.meta.append({"n": int(n)})
        order = rng.permutation(len(self.commands))
        self.commands = [self.commands[i] for i in order]
        self.meta = [self.meta[i] for i in order]
        self.first_out: list[str | None] = [None] * len(self.commands)
        self.misses: list[str] = []
        self.stdout_bytes = 0
        self.commands_run = 0

    def run_round(self, r, tracer):
        self.rounds_run = r + 1
        ops = []
        for i, argv in enumerate(self.commands):
            out, err = io.StringIO(), io.StringIO()
            self.next_op(tracer)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    code = cli.run(argv)
                except Exception:  # a crash is a failed command, not a failed run
                    code = traceback.format_exc()
                dt = time.perf_counter() - t0
            text = out.getvalue()
            self.stdout_bytes += len(text.encode())
            self.commands_run += 1
            failed = 0
            if code != 0:
                self.misses.append(f"round {r} {' '.join(argv)}: exit {code} {err.getvalue()}")
                failed = 1
            elif self.first_out[i] is None:
                self.first_out[i] = text
            elif text != self.first_out[i]:
                self.misses.append(f"round {r} {' '.join(argv)}: stdout differs from round 0")
                failed = 1
            ops.append(Op(t0, dt, 1, failed))
        return ops

    def reference_request(self):
        # program values are recomputed untimed through the library and must
        # print exactly as the CLI printed them
        self._points = []  # (command index, kind, program value)
        power, cdf = [], []
        crit = [{"alpha": float(a)} for a in GRID_ALPHAS]
        self._crit_values = [specfun.central_chisq_quantile(1.0, 1.0 - float(a))
                             for a in GRID_ALPHAS]
        self._format_misses: set[int] = set()
        for i, argv in enumerate(self.commands):
            text = self.first_out[i]
            if text is None:
                continue
            if argv[0] == "power":
                self._power_points(i, text, power)
            elif argv[0] == "expand":
                self._expand_points(i, text, cdf)
        return {"crit": crit, "power": power, "cdf": cdf}

    def _power_points(self, i, text, power):
        m = self.meta[i]
        model = self.models[m["model"]]
        source = {"consistent": localpower.SOURCE_CHAIN, "table": localpower.SOURCE_TABLE}[
            m["source"]]
        rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")][1:]
        for line in rows:
            cols = line.split(",")
            eps = float(cols[0])
            query = localpower.PowerQuery(model=model, theta0=m["theta0"], eps=eps,
                                          n=m["n"], alpha=m["alpha"])
            for kind in ALL_KINDS:
                value = localpower.local_power(query, kind, source)
                if fmt17(value.value) != cols[1 + kind]:
                    self._format_misses.add(i)
                power.append(power_request(model, m["theta0"], eps, m["n"], m["alpha"],
                                           source, kind))
                self._points.append((i, "power", value.raw))

    def _expand_points(self, i, text, cdf):
        header = {}
        rows = []
        for line in text.splitlines():
            if line.startswith("# ") and "=" in line:
                key, _, val = line[2:].partition("=")
                header[key] = val
            elif line and line[0].isdigit():
                rows.append(line.split(","))
        f = int(header["f"])
        lam = float(header["lambda"])
        a = tuple(float(header[f"a{k}"]) for k in range(4))
        n = self.meta[i]["n"]
        e = expansion.PowerExpansion(f=f, lam=lam, a=a)
        for x_text, cdf_text, _ in rows:
            x = float(x_text)
            value = expansion.cdf_expansion(e, n, x)
            if fmt17(value.value) != cdf_text:
                self._format_misses.add(i)
            cdf.append({"f": f, "lam": lam, "scale": 1.0 / math.sqrt(n), "a": list(a), "x": x})
            self._points.append((i, "cdf", value.raw))

    def check(self, ref):
        out = Checked(notes=list(self.misses))
        bad = set(self._format_misses)
        for i in sorted(self._format_misses):
            out.notes.append(f"{' '.join(self.commands[i])}: CLI output differs from library")
        for got, r in zip(self._crit_values, ref["crit"]):
            out.relerr_max = max(out.relerr_max, relerr(got, r))
            if not within(got, r, MODERATE_TOL):
                out.failed += 1
                out.notes.append(f"critical value {got!r} vs reference {r[0]!r}")
        refs = {"power": iter(ref["power"]), "cdf": iter(ref["cdf"])}
        for i, kind, got in self._points:
            r = next(refs[kind])
            err = relerr(got, r)
            out.relerr_max = max(out.relerr_max, err)
            if not within(got, r, MODERATE_TOL) and i not in bad:
                bad.add(i)
                out.notes.append(f"{' '.join(self.commands[i])}: {kind} relerr {err:.3g}")
        # a command that failed a gate fails once per round it ran in
        out.failed += len(bad) * self.rounds_run
        out.attempted = len(self._crit_values)
        return out

    def summary(self):
        per_cmd = self.stdout_bytes / self.commands_run if self.commands_run else 0.0
        return {"commands_per_round": len(self.commands), "stdout_bytes_per_cmd": per_cmd}


# ------------------------------------------------------------------ #
# Analytic sweep: library calls, no input repeats
# ------------------------------------------------------------------ #

SWEEP_N = (20, 50, 200, 1000, 10_000)
SWEEP_LAM_MAX = 200.0
SWEEP_ALPHA_LOG10 = (-12.0, math.log10(0.2))
SWEEP_MIX = ("power",) * 5 + ("diff",) * 2 + ("cdf",) * 2 + ("stat",)
SWEEP_ROUND = 200
DATA_FILES = 27
DATA_N = (20, 200, 2000)
# fixed accuracy panel: relerr_max of this workload is its maximum
PANEL_MODELS = ("gamma", "tev")
PANEL_ALPHAS = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12)
PANEL_LAMS = (0.5, 5.0, 50.0, 200.0)
PANEL_N = 50
# one flat float row per call, so memory grows by a few bytes per call:
#   power: model, theta0, eps, n, alpha, source, test, raw
#   diff:  model, theta0, eps, n, alpha, source, i, j, value
#   cdf:   model, theta0, eps, n, x, raw
#   stat:  data file, theta0, s1..s4, p1..p4
ROW_WIDTH = {"power": 8, "diff": 9, "cdf": 6, "stat": 10}


class AnalyticSweep(Workload):
    name = "analytic-sweep"
    unit = "call"

    def prepare(self):
        rng = self.rng(0)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.data = []
        for i in range(DATA_FILES):
            name = expfam.CATALOG_NAMES[i % len(expfam.CATALOG_NAMES)]
            n = DATA_N[i % len(DATA_N)]
            stream = np.random.Generator(np.random.Philox(key=rng.integers(2**62, size=2)))
            xs = expfam.sample(self.models[name], _theta0(rng, name), n, stream)
            path = self.workdir / f"data_{i:02d}_{name}.txt"
            path.write_text("".join(f"{fmt17(x)}\n" for x in xs), encoding="utf-8")
            self.data.append((name, expfam.load_data(path)))
        self.draws = self.rng(1)
        self.rows = {kind: array("d") for kind in ROW_WIDTH}
        self.misses: list[str] = []
        self.panel_relerr: dict[float, float] = {}

    def _query(self, rng):
        m = int(rng.integers(len(expfam.CATALOG_NAMES)))
        name = expfam.CATALOG_NAMES[m]
        theta0 = _theta0(rng, name)
        lam = SWEEP_LAM_MAX * float(rng.random()) ** 2
        eps = math.sqrt(2.0 * lam / self.models[name].fisher_information(theta0))
        n = int(rng.choice(SWEEP_N))
        return m, theta0, eps, n

    def _draw(self, kind):
        """(row prefix, module, function name, arguments) of the next call."""
        rng = self.draws
        if kind == "stat":
            d = int(rng.integers(len(self.data)))
            name, data = self.data[d]
            theta0 = _theta0(rng, name)
            return [d, theta0], teststats, "compute_statistics", (
                self.models[name], data, theta0)
        m, theta0, eps, n = self._query(rng)
        model = self.models[expfam.CATALOG_NAMES[m]]
        if kind == "cdf":
            e = expansion.scalar_coefficients(expfam.cumulants(model, theta0), eps)
            x = 10.0 ** float(rng.uniform(-2.0, 2.0))
            return [m, theta0, eps, n, x], expansion, "cdf_expansion", (e, n, x)
        alpha = 10.0 ** float(rng.uniform(*SWEEP_ALPHA_LOG10))
        s = int(rng.integers(2))
        source = localpower.SOURCES[s]
        query = localpower.PowerQuery(model=model, theta0=theta0, eps=eps, n=n, alpha=alpha)
        if kind == "power":
            test = int(rng.integers(1, 5))
            return ([m, theta0, eps, n, alpha, s, test], localpower, "local_power",
                    (query, TestKind(test), source))
        i, j = (int(k) + 1 for k in rng.choice(4, size=2, replace=False))
        return ([m, theta0, eps, n, alpha, s, i, j], localpower, "power_difference",
                (query, TestKind(i), TestKind(j), source))

    def run_round(self, r, tracer):
        ops = []
        for step in range(SWEEP_ROUND):
            kind = SWEEP_MIX[step % len(SWEEP_MIX)]
            row, module, attr, args = self._draw(kind)
            # looked up per call, so a traced round times the wrapper
            fn = getattr(module, attr)
            self.next_op(tracer)
            t0 = time.perf_counter()
            try:
                result = fn(*args)
            except GradpowerError as exc:
                dt = time.perf_counter() - t0
                self.misses.append(f"{kind} {row}: {type(exc).__name__}: {exc}")
                ops.append(Op(t0, dt, 1, 1))
                continue
            dt = time.perf_counter() - t0
            if kind == "stat":
                row += [*result.s, *result.p_values]
            elif kind == "diff":
                row.append(result)
            else:
                row.append(result.raw)
            self.rows[kind].extend(row)
            ops.append(Op(t0, dt, 1, 0))
        return ops

    def _iter(self, kind):
        rows, width = self.rows[kind], ROW_WIDTH[kind]
        for k in range(0, len(rows), width):
            yield rows[k:k + width].tolist()

    def _model(self, m):
        return self.models[expfam.CATALOG_NAMES[int(m)]]

    def reference_request(self):
        power = [power_request(self._model(m), theta0, eps, n, alpha,
                               localpower.SOURCES[int(s)], TestKind(int(test)))
                 for m, theta0, eps, n, alpha, s, test, _ in self._iter("power")]
        diff = []
        for m, theta0, eps, n, alpha, s, i, j, _ in self._iter("diff"):
            model = self._model(m)
            table = localpower.power_coefficients(model, theta0, eps, localpower.SOURCES[int(s)])
            c = table.row(TestKind(int(j))) - table.row(TestKind(int(i)))
            diff.append({"alpha": alpha, "lam": 0.5 * model.fisher_information(theta0) * eps ** 2,
                         "scale": 1.0 / math.sqrt(n), "csum": float(c.sum()),
                         "C": [float(c[1] + c[2] + c[3]), float(c[2] + c[3]), float(c[3])]})
        cdf = []
        for m, theta0, eps, n, x, _ in self._iter("cdf"):
            e = expansion.scalar_coefficients(expfam.cumulants(self._model(m), theta0), eps)
            cdf.append({"f": e.f, "lam": e.lam, "scale": 1.0 / math.sqrt(n), "a": list(e.a),
                        "x": x})
        pvalue = [{"s": s} for row in self._iter("stat") for s in row[2:6]]
        crit = []
        self._panel = []
        for alpha in PANEL_ALPHAS:
            crit.append({"alpha": alpha})
            self._panel.append(("crit", alpha,
                                specfun.central_chisq_quantile(1.0, 1.0 - alpha)))
            for name in PANEL_MODELS:
                m = expfam.CATALOG_NAMES.index(name)
                for lam in PANEL_LAMS:
                    eps = math.sqrt(2.0 * lam / self._model(m).fisher_information(1.0))
                    query = localpower.PowerQuery(model=self._model(m), theta0=1.0, eps=eps,
                                                  n=PANEL_N, alpha=alpha)
                    for source in localpower.SOURCES:
                        for test in ALL_KINDS:
                            power.append(power_request(self._model(m), 1.0, eps, PANEL_N,
                                                       alpha, source, test))
                            got = localpower.local_power(query, test, source).raw
                            self._panel.append(("power", alpha, got))
        return {"power": power, "diff": diff, "cdf": cdf, "pvalue": pvalue, "crit": crit}

    def check(self, ref):
        out = Checked(notes=list(self.misses))
        refs = {k: iter(v) for k, v in ref.items()}
        for kind in ("power", "diff", "cdf"):
            for row in self._iter(kind):
                r = next(refs[kind])
                if not within(row[-1], r, SWEEP_TOL):
                    out.failed += 1
                    out.notes.append(f"{kind} {row[:-1]}: {row[-1]!r} vs {r[0]!r}")
        for d, theta0, *sp in self._iter("stat"):
            name, data = self.data[int(d)]
            _, generic = teststats.compute_statistics_generic(self.models[name], data, theta0)
            p_ref = [next(refs["pvalue"])[0] for _ in range(4)]
            ok = all(abs(s - g) <= STAT_TOL * (1.0 + abs(g)) for s, g in zip(sp[:4], generic))
            ok = ok and all(abs(p - q) <= PVALUE_ABS_TOL for p, q in zip(sp[4:], p_ref))
            if not ok:
                out.failed += 1
                out.notes.append(f"stat {name} theta0={theta0}: {sp} vs generic {generic}")
        # the panel is evaluated after the timed loop; it is the workload's relerr_max
        self.panel_relerr = dict.fromkeys(PANEL_ALPHAS, 0.0)
        for kind, alpha, got in self._panel:
            r = next(refs[kind])
            err = relerr(got, r)
            self.panel_relerr[alpha] = max(self.panel_relerr[alpha], err)
            out.relerr_max = max(out.relerr_max, err)
            if not within(got, r, SWEEP_TOL):
                out.failed += 1
                out.notes.append(f"panel {kind} {got!r} vs {r[0]!r}")
        out.attempted = len(self._panel)
        return out

    def summary(self):
        return {"panel_relerr_by_alpha": {f"{a:g}": e for a, e in self.panel_relerr.items()}}


WORKLOADS = {
    cls.name: cls for cls in (McOracle, McFanout, AnalyticGrid, AnalyticSweep)
}
