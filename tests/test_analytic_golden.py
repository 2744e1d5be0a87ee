"""Analytic outputs pinned bit for bit across versions.

``analytic_golden.json`` holds raw second-order values, with floats written by
``float.hex``, for the nine catalog models at ``theta0 = 1`` and each
noncentrality ``lam`` in ``LAMS``, reached by ``eps = sqrt(2 lam / K(theta0))``:

- the raw ``local_power`` of every test and the ``power_difference`` of every
  pair of tests, under both coefficient sources, for each alpha in ``ALPHAS``
  and n in ``NS``;
- the raw ``cdf_expansion`` of the model's scalar coefficients, re-based to
  each tested dimension f in ``FS``, at each x in ``XS`` and n in ``NS``.

The grid reaches the long and two-sided Poisson walks of ``lam = 200`` and
the far upper tail of ``alpha = 1e-12``.  A point the program refuses records
the name of the exception it raised.  A change that is meant to move an
analytic value regenerates the file with::

    PYTHONPATH=src python tests/test_analytic_golden.py

which prints how many values moved and, per kind, the largest relative move
``|new - old| / max(|old|, |new|)`` (inf for a value that became or stopped
being an exception name).
"""

import json
import math
from pathlib import Path

import pytest

from gradpower.errors import GradpowerError
from gradpower.expansion import PowerExpansion, cdf_expansion, scalar_coefficients
from gradpower.expfam import catalog_model, cumulants
from gradpower.localpower import SOURCES, PowerQuery, local_power, power_difference
from gradpower.teststats import ALL_KINDS

from helpers import CATALOG_FIXED

GOLDEN = Path(__file__).with_name("analytic_golden.json")
THETA0 = 1.0
LAMS = (0.0, 0.01, 0.5, 5.0, 50.0, 200.0)
ALPHAS = (0.05, 1e-6, 1e-12)
NS = (20, 1000, math.inf)
FS = (1, 2, 3)
XS = (1e-3, 0.5, 3.84, 40.0, 400.0)
PAIRS = [(i, j) for idx, i in enumerate(ALL_KINDS) for j in ALL_KINDS[idx + 1:]]


def _attempt(fn):
    try:
        return fn().hex()
    except GradpowerError as exc:
        return type(exc).__name__


def _point(name, lam):
    model = catalog_model(name, CATALOG_FIXED[name])
    eps = math.sqrt(2.0 * lam / model.fisher_information(THETA0))
    doc = {}
    for n in NS:
        for alpha in ALPHAS:
            try:
                query = PowerQuery(model, THETA0, eps, n, alpha)
            except GradpowerError as exc:
                doc[f"n={n} alpha={alpha}"] = type(exc).__name__
                continue
            doc[f"n={n} alpha={alpha}"] = {source: {
                "local_power": [_attempt(lambda: local_power(query, k, source).raw)
                                for k in ALL_KINDS],
                "power_difference": [_attempt(lambda: power_difference(query, i, j, source))
                                     for i, j in PAIRS],
            } for source in SOURCES}
        e = scalar_coefficients(cumulants(model, THETA0), eps)
        doc[f"n={n} cdf_expansion"] = [
            _attempt(lambda: cdf_expansion(PowerExpansion(f, e.lam, e.a), n, x).raw)
            for f in FS for x in XS]
    return doc


def _key(name, lam):
    return f"{name} lam={lam}"


def _golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_model_and_lam():
    assert sorted(_golden()) == sorted(_key(name, lam) for name in CATALOG_FIXED for lam in LAMS)


@pytest.mark.parametrize("lam", LAMS)
@pytest.mark.parametrize("name", list(CATALOG_FIXED))
def test_analytic_values_match_golden(name, lam):
    assert _point(name, lam) == _golden()[_key(name, lam)]


def _values(doc):
    # {(kind, key, label, ...): recorded value}; a refused query is one value of kind "query"
    out = {}
    for key, point in doc.items():
        for label, entry in point.items():
            if isinstance(entry, str):
                out["query", key, label] = entry
            elif isinstance(entry, list):
                out.update((("cdf_expansion", key, label, i), v) for i, v in enumerate(entry))
            else:
                for source, kinds in entry.items():
                    for kind, values in kinds.items():
                        out.update(((kind, key, label, source, i), v)
                                   for i, v in enumerate(values))
    return out


def _relative_move(old, new):
    # |new - old| / max(|old|, |new|): 0 for a zero that changed sign, and inf
    # where either is an exception name
    try:
        a, b = float.fromhex(old), float.fromhex(new)
    except ValueError:
        return math.inf
    return abs(b - a) / max(abs(a), abs(b)) if a != b else 0.0


def _report_moves(old, new):
    old_values, new_values = _values(old), _values(new)
    moved = {}  # kind -> (count, largest relative move)
    for path, value in new_values.items():
        before = old_values.get(path)
        if before != value:
            count, largest = moved.get(path[0], (0, 0.0))
            rel = math.inf if before is None else _relative_move(before, value)
            moved[path[0]] = (count + 1, max(largest, rel))
    total = sum(count for count, _ in moved.values())
    print(f"{total} of {len(new_values)} values moved")
    for kind, (count, largest) in sorted(moved.items()):
        print(f"  {kind}: {count} moved, largest relative move {largest:.3g}")


if __name__ == "__main__":
    doc = {_key(name, lam): _point(name, lam) for name in CATALOG_FIXED for lam in LAMS}
    _report_moves(_golden() if GOLDEN.exists() else {}, doc)
    with open(GOLDEN, "w", encoding="utf-8") as fh:  # one line per model and lam
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(key)}: {json.dumps(doc[key], sort_keys=True, separators=(',', ':'))}"
            for key in sorted(doc)) + "\n}\n")
