"""One hash over Newton's outputs, to show that a change moved no bit.

Run from a checkout, before and after a change to the Newton core:

    python tests/newton_sweep.py

It imports ymwaves from the checkout's own src/ and prints one SHA-256
over the float.hex rows of two things: scan_families(2000, 0, ...) in
seven regimes (on and off the light cone, lam != 0 with g != 1, omega = 0
and k = 0), and 50 refine_alphas starts spread over the same regimes.
Equal hashes mean equal amplitudes, iterations, flags, labels, distances
and largest normalized constraints, row for row. It takes about a second
and a half; pytest does not collect it.
"""

import hashlib
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ymwaves.constraints import refine_alphas, scan_families  # noqa: E402

# (lam, k, omega, g)
REGIMES = [(0.0, 1.0, 1.0, 1.0), (0.0, 1.0, 2.0, 1.0), (0.0, 0.8, 0.4, 1.0),
           (0.7, 1.3, 1.3, 1.3), (0.0, 1.0, -1.0, 1.0), (0.0, 1.0, 0.0, 1.0),
           (0.0, 0.0, 1.0, 1.0)]
SEEDS = 2000
REFINES = 50


def _line(values) -> str:
    return " ".join(v.hex() if isinstance(v, float) else repr(v) for v in values)


def rows():
    """Every scan row and refinement as one line of float.hex and reprs."""
    for cpl in REGIMES:
        for r in scan_families(SEEDS, 0, *cpl):
            yield _line((*cpl, r.seed_index, *r.initial, *r.alphas, r.converged,
                         r.max_constraint, r.label, r.distance, r.iterations))
    starts = np.random.default_rng(43).uniform(-3.0, 3.0, (REFINES, 5)).tolist()
    for i, start in enumerate(starts):
        cpl = REGIMES[i % len(REGIMES)]
        res = refine_alphas(start, *cpl)
        yield _line((*cpl, *start, *res.alphas, res.converged, res.iterations,
                     res.max_normalized))


def main():
    t0 = time.perf_counter()
    digest, count = hashlib.sha256(), 0
    for line in rows():
        digest.update(line.encode() + b"\n")
        count += 1
    print(f"{digest.hexdigest()}  {count} rows in {time.perf_counter() - t0:.2f} s")


if __name__ == "__main__":
    main()
