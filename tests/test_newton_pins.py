"""Newton's rows pinned bit for bit: scan_families and refine_alphas.

newton_pins.json holds every field of scan_families(16, seed) at two
seeds in each of the bench's four scan regimes, and refine_alphas from a
few starts, each float as float.hex. A change to the Newton core that
claims to keep every output bit is held to them. Re-record only on a
deliberate change of those outputs, by running this module:

    PYTHONPATH=src python tests/test_newton_pins.py
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from ymwaves.constraints import refine_alphas, scan_families

PINS = Path(__file__).with_name("newton_pins.json")
# (lam, k, omega, g) of the bench's scan regimes: the acceptance light
# cone, the light cone at lam != 0 and g != 1, off the cone at omega = 2,
# and off it at k = 0.8, omega = 0.4
REGIMES = [(0.0, 1.0, 1.0, 1.0), (-0.7, 1.3, 1.3, 1.6), (0.0, 1.0, 2.0, 1.0), (0.0, 0.8, 0.4, 1.0)]
SEEDS = (3, 11)
# lam = the square root of the largest float, as in test_newton: a start
# there finds no descent, and one past norm 1e8 stops at once
_HUGE_LAM = math.sqrt(np.finfo(float).max * (1.0 - 5e-8))
# (start, couplings) of refine_alphas: two starts on the light cone, one
# off it, and two that end unconverged
REFINES = [
    ((0.3, 0.2, -0.05, 1.1, 0.95), (0.0, 1.0, 1.0, 1.0)),
    ((0.5, -1.0, 0.7, 1.1, -0.2), (-0.7, 1.3, 1.3, 1.6)),
    ((1.2, -0.4, 0.9, -2.1, 0.6), (0.0, 1.0, 2.0, 1.0)),
    ((0.5, 0.0, 0.0, 0.0, 0.0), (_HUGE_LAM, 1.0, 1.0, 1.0)),
    ((0.0, 0.0, 0.0, 1e9, 1e9), (_HUGE_LAM, 1.0, 1.0, 1.0)),
]


def _hex(value):
    """A field as text: floats (also in tuples) as float.hex, others as str."""
    if isinstance(value, tuple):
        return " ".join(map(_hex, value))
    return value.hex() if isinstance(value, float) else str(value)


def _rows(rows):
    """Each row as one line of its fields, separated by |."""
    return [" | ".join(map(_hex, row)) for row in rows]


def _key(regime, seed):
    return " ".join(map(repr, (*regime, seed)))


def _record():
    """The pins as the library now computes them."""
    scans = {_key(regime, seed): _rows(scan_families(16, seed, *regime))
             for regime in REGIMES for seed in SEEDS}
    refines = _rows(refine_alphas(start, *cpl) for start, cpl in REFINES)
    return {"scan_families": scans, "refine_alphas": refines}


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("seed", SEEDS)
def test_scan_rows_are_pinned_bit_for_bit(regime, seed, pins):
    want = pins["scan_families"][_key(regime, seed)]
    got = _rows(scan_families(16, seed, *regime))
    assert len(got) == len(want) == 16
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"row {i}"


@pytest.mark.parametrize("case", range(len(REFINES)))
def test_refine_alphas_is_pinned_bit_for_bit(case, pins):
    start, cpl = REFINES[case]
    assert _rows([refine_alphas(start, *cpl)]) == [pins["refine_alphas"][case]]


if __name__ == "__main__":
    PINS.write_text(json.dumps(_record(), indent=1) + "\n")
