"""Monte Carlo reports pinned bit for bit across versions.

``simulate_reports_golden.json`` holds, for each leg shape below at seeds 1
and 9, every compared :class:`~gradpower.montecarlo.SimulationReport` field
with floats written by ``float.hex``.  ``workers`` and ``wall_time`` are left
out: neither describes the simulated replicates.  A change that is meant to
move a report regenerates the file with::

    PYTHONPATH=src python tests/test_simulate_golden.py
"""

import dataclasses
import json
from collections.abc import Mapping
from pathlib import Path

import pytest

from gradpower.expfam import catalog_model
from gradpower.montecarlo import SimulationConfig, simulate

from helpers import CATALOG_FIXED

GOLDEN = Path(__file__).with_name("simulate_reports_golden.json")
SEEDS = (1, 9)
# (label, model, eps, n, reps, compare_sources): the serial legs of acceptance
# criteria 7-10 at 5000 replicates, then a long and a short tev leg
LEGS = (
    ("gamma-n50-null", "gamma", 0.0, 50, 5000, False),
    ("gamma-n50-eps0.5", "gamma", 0.5, 50, 5000, False),
    ("gamma-n200-eps1", "gamma", 1.0, 200, 5000, False),
    ("tev-n400-eps1-both-sources", "tev", 1.0, 400, 5000, True),
    ("invnormal-mu-n2000-eps1", "invnormal-mu", 1.0, 2000, 5000, False),
    ("tev-n400-eps1-both-sources-long", "tev", 1.0, 400, 50_000, True),
    ("tev-n400-null-short", "tev", 0.0, 400, 20_000, False),
)
_NOT_COMPARED = ("workers", "wall_time")


def _hexed(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [_hexed(v) for v in value]
    if isinstance(value, Mapping):
        return {k: _hexed(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value):
        return {f.name: _hexed(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


def _report_fields(label, seed):
    _, name, eps, n, reps, both = next(leg for leg in LEGS if leg[0] == label)
    report = simulate(SimulationConfig(
        model=catalog_model(name, CATALOG_FIXED[name]), theta0=1.0, eps=eps, n=n,
        reps=reps, alpha=0.05, seed=seed, compare_sources=both,
    ))
    return {f.name: _hexed(getattr(report, f.name))
            for f in dataclasses.fields(report) if f.name not in _NOT_COMPARED}


def _key(label, seed):
    return f"{label} seed={seed}"


def _golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_leg_and_seed():
    assert sorted(_golden()) == sorted(_key(leg[0], s) for leg in LEGS for s in SEEDS)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("label", [leg[0] for leg in LEGS])
def test_report_matches_golden(label, seed):
    assert _report_fields(label, seed) == _golden()[_key(label, seed)]


if __name__ == "__main__":
    doc = {_key(leg[0], s): _report_fields(leg[0], s) for leg in LEGS for s in SEEDS}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
