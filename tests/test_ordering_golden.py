"""Orderings of the four tests pinned across versions.

``ordering_golden.json`` holds two SHA-256 digests:

- ``groups``: the ordered partition that ``_assemble_groups`` makes for each of
  the 4^6 = 4,096 assignments of greater/less/equal/mixed to the six pairs;
- ``orderings``: ``describe()`` and every certificate's relation and uniform
  flag over a sweep of ``power_ordering`` calls (nine catalog models, a theta0
  grid, both directions, both coefficient sources, two alphas and three eps
  grids), which includes grid-certified pairs.

A change that is meant to move a grouping or an ordering regenerates the
file with::

    PYTHONPATH=src python tests/test_ordering_golden.py
"""

import functools
import hashlib
import itertools
import json
from pathlib import Path
from types import SimpleNamespace

from gradpower.expfam import CATALOG_NAMES, catalog_model
from gradpower.localpower import (
    SOURCES,
    PowerQuery,
    _assemble_groups,
    _second_order,
    power_coefficients,
    power_difference,
    power_ordering,
)
from gradpower.teststats import ALL_KINDS

from helpers import CATALOG_FIXED

GOLDEN = Path(__file__).with_name("ordering_golden.json")
PAIRS = tuple(itertools.combinations(ALL_KINDS, 2))
RELATIONS = ("greater", "less", "equal", "mixed")
EPS_GRIDS = ((0.25, 0.5, 1.0, 2.0), (0.01, 5.0), (0.1, 1.0, 10.0))
ALPHAS = (1e-6, 0.05)
# large theta0 puts the table source's A-only pairs of the beta'' = 0 models on
# their tolerance, so those pairs are grid-certified
THETA0S = (0.003, 1.0, 100.0, 3000.0)
NORMAL_MEAN_THETA0S = (-30.0, -1.3, 0.4, 30.0)
# the identity below is checked at this n, small enough to keep every drift in range
N = 1e8


def _sha(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _groups_digest():
    lines = []
    for relations in itertools.product(RELATIONS, repeat=len(PAIRS)):
        certificates = {
            pair: SimpleNamespace(relation=rel)  # the one field that grouping reads
            for pair, rel in zip(PAIRS, relations)
        }
        groups = _assemble_groups(certificates)
        lines.append(" > ".join(" = ".join(k.label for k in grp) for grp in groups))
    return _sha(lines)


@functools.cache
def _sweep():
    # ((name, model, theta0, direction, source, alpha, eps_grid), report) for every case
    cases = []
    for name in CATALOG_NAMES:
        model = catalog_model(name, CATALOG_FIXED[name])
        theta0s = NORMAL_MEAN_THETA0S if name == "normal-mean" else THETA0S
        for theta0, direction, source, alpha, grid in itertools.product(
            theta0s, ("above", "below"), SOURCES, ALPHAS, EPS_GRIDS
        ):
            report = power_ordering(model, theta0, direction, alpha, source, grid)
            cases.append(((name, model, theta0, direction, source, alpha, grid), report))
    return tuple(cases)


def _orderings_digest():
    lines = []
    for (name, _, theta0, direction, source, alpha, grid), report in _sweep():
        pairs = " ".join(
            f"{i.label}/{j.label}:{cert.relation}:{cert.uniform}"
            for (i, j), cert in report.certificates.items()
        )
        lines.append(f"{name} {theta0!r} {direction} {source} {alpha!r} {grid}: "
                     f"{report.describe()} | {pairs}")
    return _sha(lines)


def _digests():
    sweep = _sweep()
    return {
        "groups": _groups_digest(),
        "orderings": _orderings_digest(),
        "orderings_count": len(sweep),
        "grid_certified_count": sum(not report.uniform for _, report in sweep),
    }


def _golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_groupings_match_golden():
    assert _groups_digest() == _golden()["groups"]


def test_orderings_match_golden():
    golden = _golden()
    sweep = _sweep()
    assert len(sweep) == golden["orderings_count"]
    assert sum(not report.uniform for _, report in sweep) == golden["grid_certified_count"] > 0
    assert _orderings_digest() == golden["orderings"]


def _last_eps_points():
    # every certificate of the sweep with its case's table and query at the last grid eps
    for (_, model, theta0, direction, source, alpha, grid), report in _sweep():
        eps = (1.0 if direction == "above" else -1.0) * grid[-1]
        table = power_coefficients(model, theta0, eps, source)
        query = PowerQuery(model, theta0, eps, N, alpha)
        for cert in report.certificates.values():
            yield source, table, query, cert


def test_certificate_csum_is_the_difference_of_the_row_sums():
    # A_j - A_i from the table's exact sums, as local_power takes them
    for _, table, _, cert in _last_eps_points():
        assert cert.csum == table.sums[cert.j - 1] - table.sums[cert.i - 1], cert


def test_certificate_weights_give_power_difference_bit_for_bit():
    for source, _, query, cert in _last_eps_points():
        got = query.scale * _second_order(query, cert.csum, cert.partial)
        want = power_difference(query, cert.i, cert.j, source)
        assert got == want, cert


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(_digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
