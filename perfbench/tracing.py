"""In-memory span tracer that times gradpower's layers from outside.

The tracer replaces module attributes with timing wrappers, under the names
the callers look up at call time (``gradpower.localpower.nc_chisq_cdf`` is
the name ``local_power`` resolves), so no file of the program changes.  Each
span keeps its name, start, end, parent span and the benchmark operation it
belongs to; spans stay in memory until :meth:`Tracer.dump` writes them out.

Only the benchmark process records spans.  Worker processes forked by
``simulate(workers > 1)`` inherit the wrappers but skip recording (the pid
check below), and a traced sampler pickles as the plain sampler, so work done
inside worker processes shows up only as wall time of the parent's calls.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import time
from array import array
from collections import Counter

# (span name, module, attribute): the attribute is the name a caller resolves
WRAPPED = (
    ("specfun.quantile", "gradpower.localpower", "central_chisq_quantile"),
    ("specfun.quantile", "gradpower.montecarlo", "central_chisq_quantile"),
    ("specfun.nc_cdf", "gradpower.localpower", "nc_chisq_cdf"),
    ("specfun.nc_cdf", "gradpower.expansion", "nc_chisq_cdf"),
    ("specfun.nc_pdf", "gradpower.localpower", "nc_chisq_pdf"),
    ("specfun.central_cdf", "gradpower.specfun", "central_chisq_cdf"),
    ("specfun.central_cdf", "gradpower.teststats", "central_chisq_cdf"),
    ("localpower.local_power", "gradpower.localpower", "local_power"),
    ("localpower.local_power", "gradpower.montecarlo", "local_power"),
    ("localpower.local_power", "gradpower.cli", "local_power"),
    ("localpower.coefficients", "gradpower.localpower", "power_coefficients"),
    ("localpower.difference", "gradpower.localpower", "power_difference"),
    ("localpower.ordering", "gradpower.cli", "power_ordering"),
    ("expansion.composite", "gradpower.expansion", "composite_coefficients"),
    ("expansion.composite", "gradpower.cli", "composite_coefficients"),
    ("expansion.moments", "gradpower.cli", "st_moments"),
    ("expansion.cdf", "gradpower.expansion", "cdf_expansion"),
    ("expansion.cdf", "gradpower.cli", "cdf_expansion"),
    ("cli.run", "gradpower.cli", "run"),
    ("montecarlo.simulate", "gradpower.montecarlo", "simulate"),
    ("montecarlo.replicate", "gradpower.montecarlo", "replicate_statistics"),
    ("montecarlo.stream", "gradpower.montecarlo", "replicate_stream"),
    ("teststats.dbar_stats", "gradpower.montecarlo", "statistics_from_dbar"),
    ("teststats.dbar_stats", "gradpower.teststats", "statistics_from_dbar"),
    ("teststats.compute_statistics", "gradpower.teststats", "compute_statistics"),
    ("expfam.mle", "gradpower.teststats", "mle_from_dbar"),
)

SAMPLER_SPAN = "expfam.sampler"
# spans recorded inside a quantile span under this name are its cdf evaluations
_QUANTILE = "specfun.quantile"
_CENTRAL_CDF = "specfun.central_cdf"


class Tracer:
    """Records spans while :attr:`enabled`; one instance per benchmark run."""

    def __init__(self):
        self.pid = os.getpid()
        self.enabled = False
        self.op = -1
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        # one entry per span, in typed arrays to keep a long run's spans small
        self.span_name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.span_op = array("q")
        self._stack: list[int] = []
        self.quantile_args: list[tuple[float, float]] = []
        self.power_results = Counter()
        self.obs_drawn = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------ #

    def recording(self) -> bool:
        return self.enabled and os.getpid() == self.pid

    def open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    # -- installation --------------------------------------------------- #

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording():
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer._observe(name, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _observe(self, name, args, result) -> None:
        if name == _QUANTILE:
            self.quantile_args.append((float(args[0]), float(args[1])))
        elif name == "localpower.local_power":
            self.power_results["clamped" if result.clamped else "inside"] += 1

    def install(self) -> None:
        """Swap every entry of :data:`WRAPPED` for its timing wrapper."""
        for name, module_name, attr in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def traced_model(self, model):
        """``model`` with its sampler timed through a picklable wrapper."""
        return dataclasses.replace(model, sampler=TracedSampler(self, model.sampler))

    # -- reduction ------------------------------------------------------ #

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        table = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = table[self.names[self.span_name[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return table

    def cdf_calls_in_quantiles(self) -> int:
        q = self._name_id.get(_QUANTILE)
        c = self._name_id.get(_CENTRAL_CDF)
        if q is None or c is None:
            return 0
        return sum(
            1
            for i, nid in enumerate(self.span_name)
            if nid == c and self.parent[i] >= 0 and self.span_name[self.parent[i]] == q
        )

    def repeat_quantile_share(self) -> float:
        if not self.quantile_args:
            return 0.0
        distinct = len(set(self.quantile_args))
        return (len(self.quantile_args) - distinct) / len(self.quantile_args)

    def dump(self, path, extra: dict) -> None:
        """Write every span (times in ns from the first span) plus ``extra``."""
        t0 = min(self.start) if self.start else 0.0
        doc = dict(extra)
        doc["span_names"] = self.names
        doc["spans"] = {
            "name": self.span_name.tolist(),
            "start_ns": [round((s - t0) * 1e9) for s in self.start],
            "end_ns": [round((e - t0) * 1e9) for e in self.end],
            "parent": self.parent.tolist(),
            "op": self.span_op.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _plain(inner):
    return inner


class TracedSampler:
    """Times ``model.sampler`` and counts observations drawn.

    Pickles as the bare sampler, so chunks sent to worker processes carry no
    tracer state and record nothing.
    """

    def __init__(self, tracer: Tracer, inner):
        self.tracer = tracer
        self.inner = inner

    def __call__(self, theta, n, rng):
        tracer = self.tracer
        if not tracer.recording():
            return self.inner(theta, n, rng)
        idx = tracer.open(SAMPLER_SPAN)
        try:
            return self.inner(theta, n, rng)
        finally:
            tracer.close(idx)
            tracer.obs_drawn += int(n)

    def __reduce__(self):
        return (_plain, (self.inner,))
