"""Catalog samplers pinned bit for bit across versions.

``law_draws_golden.json`` holds, for each catalog model at each n in ``NS``,
the SHA-256 of 4096 draws of d-bar from ``sampler.dbar`` and of the n
observations from ``sampler``, each followed by the next uniform of the same
stream, so that the number of values each draw consumes is pinned as well.
Values are hashed as little-endian float64 bytes.  A change that is meant to
move a draw regenerates the file with::

    PYTHONPATH=src python tests/test_law_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from numpy.random import Generator, Philox

from gradpower.expfam import CATALOG_NAMES, catalog_model

from helpers import CATALOG_FIXED

GOLDEN = Path(__file__).with_name("law_draws_golden.json")
NS = (2, 50, 2000)
SIZE = 4096


def _digest(draw):
    rng = Generator(Philox(key=[29, 3]))
    values = np.append(draw(rng), rng.random())
    return hashlib.sha256(values.astype("<f8").tobytes()).hexdigest()


def _hashes(name, n):
    sampler = catalog_model(name, CATALOG_FIXED[name]).sampler
    theta = 0.8 if name == "normal-mean" else 1.3
    return {
        "dbar": _digest(lambda rng: sampler.dbar(theta, n, SIZE, rng)),
        "sampler": _digest(lambda rng: sampler(theta, n, rng)),
    }


def _key(name, n):
    return f"{name} n={n}"


def _golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_model_and_n():
    assert sorted(_golden()) == sorted(_key(name, n) for name in CATALOG_NAMES for n in NS)


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_draws_match_golden(name, n):
    assert _hashes(name, n) == _golden()[_key(name, n)]


if __name__ == "__main__":
    doc = {_key(name, n): _hashes(name, n) for name in CATALOG_NAMES for n in NS}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
