"""Command-line front end.

Subcommands: ``model`` (catalog listing/detail), ``stat`` (statistics from a
data file), ``power`` (local power table), ``order`` (power ordering with
certificates), ``expand`` (tensor-file expansion), ``simulate`` (Monte
Carlo).  Output is CSV or structured ``key: value`` text, always prefixed by
comment lines echoing the effective configuration; numbers carry 17
significant digits so CSV round-trips losslessly.

Exit codes: 0 success, 1 usage error, 2 domain/validation error, 3 numeric
failure.  Output files are written only after a command fully succeeds, and
anything volatile (wall time) goes to stderr so identical invocations produce
byte-identical output.

The argument parser is built once per process, on the first ``run`` call, and
reused by every later call: its defaults are immutable, each parse returns a
fresh namespace, and a parse error raises instead of changing parser state.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

import numpy as np

from . import __version__
from .errors import DomainError, EstimationError, GradpowerError
from .expfam import CATALOG_NAMES, catalog_model, load_data, model_info
from .expansion import cdf_expansion, composite_coefficients, load_tensor_file, st_moments
from .localpower import (
    SOURCE_CHAIN,
    SOURCE_TABLE,
    PowerQuery,
    local_power,
    power_ordering,
)
from .montecarlo import SimulationConfig, simulate
from .teststats import ALL_KINDS, compute_statistics

__all__ = ["main", "run"]

_SOURCE_FLAG = {"consistent": SOURCE_CHAIN, "table": SOURCE_TABLE}
# start:stop:step grids longer than this are refused before they are built
_MAX_GRID_POINTS = 10 ** 6


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only a plain negative number as a value; widen that
        # to anything starting "-digit" or "-.digit", so that a grid or list
        # such as "--eps -1:1:0.25" or "--eps -1,2" is the flag's value
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise _UsageError(message)


def _fmt(x) -> str:
    if type(x) is float:  # most values; the checks below are for the rest
        return f"{x:.17g}"
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    return f"{float(x):.17g}"


def _parse_fixed(text: str | None) -> dict:
    fixed = {}
    if not text:
        return fixed
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise _UsageError(f"--fixed entry {item!r} must look like key=value")
        key, _, val = item.partition("=")
        key = key.strip()
        if key in fixed:
            raise _UsageError(f"--fixed key {key!r} given more than once")
        try:
            fixed[key] = float(val)
        except ValueError:
            raise _UsageError(f"--fixed value {val!r} for key {key!r} is not a number")
    return fixed


def _parse_grid(text: str, flag: str) -> list[float]:
    if text == "grid":
        text = "0:2:0.1"
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise _UsageError(f"{flag} grid must look like start:stop:step, got {text!r}")
        try:
            a, b, step = (float(p) for p in parts)
        except ValueError:
            raise _UsageError(f"{flag} grid {text!r} contains a non-number")
        if not all(math.isfinite(v) for v in (a, b, step)):
            raise _UsageError(f"{flag} grid {text!r} must have finite start, stop and step")
        if step <= 0 or b < a:
            raise _UsageError(f"{flag} grid {text!r} must have step > 0 and stop >= start")
        steps = (b - a) / step + 1e-9
        if steps >= _MAX_GRID_POINTS:  # also catches an overflow to inf
            raise _UsageError(f"{flag} grid {text!r} has more than {_MAX_GRID_POINTS} points")
        return [a + i * step for i in range(int(math.floor(steps)) + 1)]
    if "," in text:
        try:
            return [float(p) for p in text.split(",")]
        except ValueError:
            raise _UsageError(f"{flag} list {text!r} contains a non-number")
    try:
        return [float(text)]
    except ValueError:
        raise _UsageError(f"{flag} value {text!r} is not a number")


def _config_header(command: str, pairs: list[tuple[str, object]]) -> list[str]:
    parts = " ".join(f"{k}={v}" for k, v in pairs)
    return [f"# gradpower {command} {parts}".rstrip()]


def _catalog_model(args):
    # a catalog command's model, built before its grids are parsed, and its header's first pairs
    head = [("model", args.model), ("fixed", args.fixed or "-"), ("theta0", _fmt(args.theta0))]
    return catalog_model(args.model, _parse_fixed(args.fixed)), head


def _emit(lines: list[str], path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="gradpower", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"gradpower {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="{model,stat,power,order,expand,simulate}")

    def add_common(p):
        p.add_argument("--model", required=True, choices=CATALOG_NAMES,
                       help="catalog model name")
        p.add_argument("--fixed", default="",
                       help="fixed constants as key=value[,key=value...]")
        p.add_argument("--output", default=None, help="write output to this file")
        p.add_argument("--theta0", type=float, required=True, help="null parameter value")

    p_model = sub.add_parser("model", help="list catalog models or show one")
    p_model.add_argument("action", choices=["list", "info"], help="what to show")
    p_model.add_argument("name", nargs="?", default=None, help="model name for 'info'")
    p_model.add_argument("--output", default=None, help="write output to this file")

    p_stat = sub.add_parser("stat", help="test statistics from a data file")
    add_common(p_stat)
    p_stat.add_argument("--data", required=True, help="data file, one observation per line")
    p_stat.add_argument("--format", choices=["csv", "text"], default="text",
                        help="output format (default text)")

    p_power = sub.add_parser("power", help="second-order local power table")
    add_common(p_power)
    p_power.add_argument("--eps", required=True,
                         help="drift: number, start:stop:step, or 'grid' (0:2:0.1)")
    p_power.add_argument("--n", type=int, required=True, help="sample size")
    p_power.add_argument("--alpha", type=float, required=True, help="nominal size")
    p_power.add_argument("--source", choices=sorted(_SOURCE_FLAG), default="consistent",
                         help="gradient leading-coefficient convention")

    p_order = sub.add_parser("order", help="power ordering with sign certificates")
    add_common(p_order)
    p_order.add_argument("--alpha", type=float, required=True, help="nominal size")
    p_order.add_argument("--direction", choices=["above", "below"], required=True,
                         help="side of the alternative")
    p_order.add_argument("--source", choices=sorted(_SOURCE_FLAG), default="consistent",
                         help="gradient leading-coefficient convention")
    p_order.add_argument("--eps-grid", default="0.25,0.5,1,2",
                         help="comma list of positive drift magnitudes")

    p_expand = sub.add_parser("expand", help="expansion from a cumulant tensor file")
    p_expand.add_argument("--tensors", required=True, help="JSON tensor file")
    p_expand.add_argument("--eps", required=True, help="comma vector of drifts")
    p_expand.add_argument("--n", type=int, required=True, help="sample size")
    p_expand.add_argument("--x", required=True,
                          help="evaluation points: number, list, or start:stop:step")
    p_expand.add_argument("--output", default=None, help="write output to this file")

    p_sim = sub.add_parser("simulate", help="Monte Carlo size/power experiment")
    add_common(p_sim)
    p_sim.add_argument("--eps", type=float, required=True, help="drift")
    p_sim.add_argument("--n", type=int, required=True, help="per-replicate sample size")
    p_sim.add_argument("--reps", type=int, required=True, help="replicate count")
    p_sim.add_argument("--alpha", type=float, required=True, help="nominal size")
    p_sim.add_argument("--seed", type=int, required=True, help="stream seed")
    p_sim.add_argument("--compare-sources", action="store_true",
                       help="predict power under both coefficient conventions")
    return parser


def _cmd_model(args) -> list[str]:
    if args.action == "list":
        if args.name is not None:
            raise _UsageError(f"model list takes no model name, got {args.name!r}")
        lines = _config_header("model", [("action", "list")])
        lines.extend(CATALOG_NAMES)
        return lines
    if not args.name:
        raise _UsageError("model info requires a model name")
    info = model_info(args.name)
    lines = _config_header("model", [("action", "info"), ("name", args.name)])
    for key, val in info.items():
        lines.append(f"{key}: {val}")
    return lines


def _cmd_stat(args) -> list[str]:
    model, head = _catalog_model(args)
    data = load_data(args.data)
    # d(x) of extreme data may overflow: numpy's warnings are off, and the estimate
    # refuses the non-finite mean by name
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        result = compute_statistics(model, data, args.theta0)
    header = _config_header("stat", [*head, ("data", args.data), ("format", args.format)])
    pairs = [("n", str(result.n)), ("d_bar", _fmt(result.d_bar)),
             ("theta_hat", _fmt(result.theta_hat))]
    pairs += [(f"s_{kind.label}", _fmt(result.statistic(kind))) for kind in ALL_KINDS]
    pairs += [(f"p_{kind.label}", _fmt(result.p_value(kind))) for kind in ALL_KINDS]
    if args.format == "csv":
        return header + [",".join(k for k, _ in pairs), ",".join(v for _, v in pairs)]
    return header + [f"{k}: {v}" for k, v in pairs]


def _cmd_power(args) -> list[str]:
    model, head = _catalog_model(args)
    source = _SOURCE_FLAG[args.source]
    eps_values = _parse_grid(args.eps, "--eps")
    lines = _config_header("power", [
        *head, ("eps", args.eps), ("n", args.n), ("alpha", _fmt(args.alpha)), ("source", source),
    ])
    lines.append("eps,lambda,pi_lr,pi_wald,pi_score,pi_gradient")
    clamped = 0
    # every grid point moves one query, so theta0's derivatives and crit are taken once
    query = PowerQuery(model, args.theta0, eps_values[0], args.n, args.alpha)
    for eps in eps_values:
        query = query.at_eps(eps)
        row = [_fmt(eps), _fmt(query.lam)]
        for kind in ALL_KINDS:
            value = local_power(query, kind, source)
            clamped += value.clamped
            row.append(_fmt(value.value))
        lines.append(",".join(row))
    if clamped:
        print(f"warning: {clamped} power value(s) clamped into [0, 1]", file=sys.stderr)
    return lines


def _cmd_order(args) -> list[str]:
    model, head = _catalog_model(args)
    source = _SOURCE_FLAG[args.source]
    grid = tuple(_parse_grid(args.eps_grid, "--eps-grid"))
    report = power_ordering(model, args.theta0, args.direction, args.alpha,
                            source=source, eps_grid=grid)
    lines = _config_header("order", [
        *head, ("alpha", _fmt(args.alpha)), ("direction", args.direction), ("source", source),
        ("eps_grid", args.eps_grid),
    ])
    lines.append(f"ordering: {report.describe()}")
    lines.append(f"uniform: {_fmt(report.uniform)}")
    for (i, j), cert in sorted(report.certificates.items()):
        ctxt = ",".join(_fmt(c) for c in cert.partial)
        lines.append(
            f"pair {i.label} vs {j.label}: {cert.relation}"
            f" ({'uniform' if cert.uniform else 'grid-certified'});"
            f" csum={_fmt(cert.csum)}; C=({ctxt})"
        )
    return lines


def _cmd_expand(args) -> list[str]:
    tensors = load_tensor_file(args.tensors)
    eps = _parse_grid(args.eps, "--eps")
    if len(eps) != tensors.p - tensors.q:
        raise DomainError(
            f"--eps must supply {tensors.p - tensors.q} component(s), got {len(eps)}"
        )
    xs = _parse_grid(args.x, "--x")
    expansion = composite_coefficients(tensors, eps)
    moments = st_moments(tensors, eps, args.n)
    lines = _config_header("expand", [
        ("tensors", args.tensors), ("eps", args.eps), ("n", args.n), ("x", args.x),
    ])
    lines.append(f"# f={expansion.f}")
    lines.append(f"# lambda={_fmt(expansion.lam)}")
    for k in range(4):
        lines.append(f"# a{k}={_fmt(expansion.a[k])}")
    lines.append(f"# mean_literal={_fmt(moments.m1)}")
    lines.append(f"# mean_mixture={_fmt(expansion.mixture_mean(args.n))}")
    lines.append(f"# variance={_fmt(moments.m2)}")
    lines.append(f"# third_moment={_fmt(moments.m3)}")
    lines.append("x,cdf,clamped")
    for x, value in zip(xs, cdf_expansion(expansion, args.n, xs)):
        lines.append(f"{_fmt(x)},{_fmt(value.value)},{int(value.clamped)}")
    return lines


def _cmd_simulate(args) -> list[str]:
    model, head = _catalog_model(args)
    config = SimulationConfig(
        model=model, theta0=args.theta0, eps=args.eps, n=args.n, reps=args.reps,
        alpha=args.alpha, seed=args.seed, compare_sources=args.compare_sources,
    )
    report = simulate(config)
    lines = _config_header("simulate", [
        *head, ("eps", _fmt(args.eps)), ("n", args.n), ("reps", args.reps),
        ("alpha", _fmt(args.alpha)), ("seed", args.seed),
        ("compare_sources", _fmt(args.compare_sources)),
    ])
    lines.append(f"critical_value: {_fmt(report.critical_value)}")
    for kind in ALL_KINDS:
        lines.append(
            f"rejection_rate_{kind.label}: {_fmt(report.rejection_rate[kind - 1])}"
        )
    for kind in ALL_KINDS:
        lines.append(f"mc_stderr_{kind.label}: {_fmt(report.mc_stderr[kind - 1])}")
    for src, powers in report.predicted_power.items():
        for kind in ALL_KINDS:
            lines.append(
                f"predicted_power_{src}_{kind.label}: {_fmt(powers[kind - 1])}"
            )
    est = report.st_moment_estimates
    lines.append(f"s4_mean: {_fmt(est.mean)}")
    lines.append(f"s4_mean_se: {_fmt(est.se_mean)}")
    lines.append(f"s4_variance: {_fmt(est.variance)}")
    lines.append(f"s4_variance_se: {_fmt(est.se_variance)}")
    lines.append(f"s4_third_central: {_fmt(est.third_central)}")
    lines.append(f"s4_third_central_se: {_fmt(est.se_third)}")
    lines.append(f"joint_score_gradient_rate: {_fmt(report.joint_score_gradient_rate)}")
    lines.append(f"failures: {report.failures}")
    lines.append(f"reps_used: {report.reps_used}")
    lines.append(f"seed: {report.seed}")
    print(f"wall_time_seconds: {report.wall_time:.3f}", file=sys.stderr)
    return lines


_HANDLERS = {
    "model": _cmd_model,
    "stat": _cmd_stat,
    "power": _cmd_power,
    "order": _cmd_order,
    "expand": _cmd_expand,
    "simulate": _cmd_simulate,
}


def run(argv: list[str]) -> int:
    """Parse ``argv`` and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help / --version print and stop
            return int(exc.code or 0)
        if args.command is None:
            raise _UsageError("a subcommand is required (model, stat, power, order, expand, simulate)")
        lines = _HANDLERS[args.command](args)
        _emit(lines, args.output)
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except (EstimationError, GradpowerError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
