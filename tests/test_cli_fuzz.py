"""Seeded fuzz of the command-line contract over edge-value arguments.

A hand-rolled generator draws argv for ``power``, ``order``, ``expand``,
``simulate`` (at most 200 replicates) and ``stat`` from edge floats (5e-324,
1e-300, 1e150, 1e300, nan, inf, negatives) and ordinary values, and every
run must keep the documented contract: an exit code of 0-3 with no exception
escaping ``cli.run``, no stdout on a non-zero exit, no ``nan`` at exit 0 and
stderr made of documented lines only, never a bare Python message such as
"float division by zero".
"""

import json
import random
import re

import pytest

from gradpower import cli
from gradpower.expfam import CATALOG_NAMES

from helpers import CATALOG_FIXED

SEED = 20261019
COUNT = 2000

EDGE = ["5e-324", "1e-300", "1e-120", "1e-16", "1e150", "1e300", "nan", "inf", "-inf",
        "-1", "-1e-300", "-1e300", "0", "-0"]
ORDINARY = ["0.05", "0.25", "0.5", "1", "1.5", "2", "7", "0.999999", "1e-6"]
ALPHAS = ["0.05", "0.01", "1e-12", "1e-300", "0.999999", "5e-324", "0", "1", "nan", "-0.5"]
SIZES = ["2", "5", "50", "1000", "1", "0", "-3", "10" * 20]

# every stderr line a run may write: the error line of its exit code, the clamp
# warning of power and the wall time of simulate
DOCUMENTED = re.compile(
    r"(usage error|domain error|numeric failure|i/o error): \S.*"
    r"|warning: \d+ power value\(s\) clamped into \[0, 1\]"
    r"|wall_time_seconds: \d+\.\d{3}"
)
PREFIX = {1: ("usage error: ",), 2: ("domain error: ", "i/o error: "), 3: ("numeric failure: ",)}
# Python's own messages for float and math failures, which a named refusal replaces
BARE = re.compile(
    r"(float |integer )?(division|modulo)( or modulo)? by zero|\(\d+, '[^']*'\)"
    r"|math (domain|range) error|int too large to convert to float|Warning"
)


def _number(rng):
    pick = rng.random()
    if pick < 0.35:
        return rng.choice(EDGE)
    if pick < 0.85:
        return rng.choice(ORDINARY)
    return repr(rng.choice([1.0, -1.0, 1e-200, 1e200]) * rng.lognormvariate(0.0, 2.0))


def _fixed(rng, name):
    key = next(iter(CATALOG_FIXED[name]), None)
    if key is None or rng.random() < 0.1:
        return []
    value = _number(rng) if rng.random() < 0.5 else repr(CATALOG_FIXED[name][key])
    return ["--fixed", f"{key}={value}"]


def _common(rng):
    name = rng.choice(CATALOG_NAMES)
    return ["--model", name, *_fixed(rng, name), "--theta0", _number(rng)]


def _grid(rng):
    pick = rng.random()
    if pick < 0.6:
        return _number(rng)
    if pick < 0.8:
        return ",".join(_number(rng) for _ in range(rng.randint(1, 3)))
    start, stop, step = _number(rng), _number(rng), _number(rng)
    span, h = float(stop) - float(start), float(step)
    if h > 0.0 and 1e3 < span / h < 1e6:  # a long grid below the refusal limit only costs time
        step = repr(span / rng.randint(1, 20))
    return f"{start}:{stop}:{step}"


def _argv(rng, data, tensors):
    command = rng.choice(["power", "order", "expand", "simulate", "stat"])
    if command == "power":
        argv = ["power", *_common(rng), "--eps", _grid(rng), "--n", rng.choice(SIZES),
                "--alpha", rng.choice(ALPHAS)]
        return argv + (["--source", "table"] if rng.random() < 0.3 else [])
    if command == "order":
        argv = ["order", *_common(rng), "--alpha", rng.choice(ALPHAS),
                "--direction", rng.choice(["above", "below"])]
        argv += ["--eps-grid", _grid(rng)] if rng.random() < 0.7 else []
        return argv + (["--source", "table"] if rng.random() < 0.3 else [])
    if command == "expand":
        eps = ",".join(_number(rng) for _ in range(rng.choice([1, 1, 2])))
        return ["expand", "--tensors", rng.choice(tensors), "--eps", eps,
                "--n", rng.choice(SIZES), "--x", _grid(rng)]
    if command == "simulate":
        argv = ["simulate", *_common(rng), "--eps", _number(rng), "--n", rng.choice(SIZES),
                "--reps", str(rng.choice([1, 10, 200])), "--alpha", rng.choice(ALPHAS),
                "--seed", str(rng.randrange(4))]
        return argv + (["--compare-sources"] if rng.random() < 0.2 else [])
    return ["stat", *_common(rng), "--data", rng.choice(data)] + (
        ["--format", "csv"] if rng.random() < 0.3 else [])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    # data files (ordinary, edge and empty) and tensor files (f = 1 and f = 2, and a
    # composite one) for stat and expand
    root = tmp_path_factory.mktemp("fuzz")
    rng = random.Random(SEED + 1)
    data = []
    for i, values in enumerate([
        [f"{rng.lognormvariate(0.0, 1.0)!r}" for _ in range(20)],
        [f"{rng.gauss(0.0, 1.0)!r}" for _ in range(20)],
        ["1e-300", "5e-324", "2"], ["1e300", "1e150", "3"], ["-1", "0.5", "2"],
        ["1", "nan"], ["inf", "1"], ["0", "0", "0"], [],
    ]):
        path = root / f"data{i}.txt"
        path.write_text("".join(v + "\n" for v in values))
        data.append(str(path))
    tensors = [
        {"p": 1, "q": 0, "K": [[2.0]], "k3": [[[4.0]]], "k21": [[[0.0]]]},
        {"p": 1, "q": 0, "K": [[1e-300]], "k3": [[[1e300]]], "k21": [[[-1e300]]]},
        {"p": 2, "q": 0, "K": [[1.0, 0.0], [0.0, 0.5]],
         "k3": [[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 2.0]]],
         "k21": [[[0.0, -1.0], [-1.0, 0.0]], [[0.0, 0.0], [0.0, -1.0]]]},
    ]
    paths = []
    for i, tensor in enumerate(tensors):
        path = root / f"tensors{i}.json"
        path.write_text(json.dumps(tensor))
        paths.append(str(path))
    return data, paths


def test_cli_contract_under_fuzz(capsys, inputs):
    data, tensors = inputs
    rng = random.Random(SEED)
    codes = set()
    for _ in range(COUNT):
        argv = _argv(rng, data, tensors)
        try:
            code = cli.run(argv)
        except Exception as exc:  # any escape breaks the contract
            pytest.fail(f"{type(exc).__name__} escaped cli.run for {argv}: {exc}")
        out, err = capsys.readouterr()
        codes.add(code)
        assert code in (0, 1, 2, 3), argv
        lines = err.splitlines()
        assert all(DOCUMENTED.fullmatch(line) for line in lines), (argv, err)
        assert not BARE.search(err), (argv, err)
        if argv[0] == "stat":  # stat takes no x, so a refusal of x is a NaN statistic
            assert "x must be finite" not in err, (argv, err)
        if code:
            assert out == "", argv
            assert len(lines) == 1 and lines[0].startswith(PREFIX[code]), (argv, err)
        else:
            assert "nan" not in out.lower(), (argv, out)
    assert codes == {0, 1, 2, 3}  # the draw reaches every documented outcome
