"""Drift correction for call timings.

On a shared host the CPU itself speeds up and slows down with the
neighbours' load, so raw wall times of identical calls swing by more than
any useful regression bound. The benchmark therefore times a fixed
pure-Python reference workload between the calls it measures and reports
every call time as

    normalized = raw * NOMINAL_REF_S / median(nearby reference block times)

i.e. the time the call would have taken had the reference run at its
nominal speed. A block's time is the mean of its reps: a call's wall time
integrates the machine's speed over the call, slow moments included, and
so does a mean, where a median of reps would skip them. A uniform
slowdown of the machine stretches the call and the reference alike and
cancels.

This module imports nothing from ymwaves: a change to the program must
never change the yardstick it is measured with.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# A typical reference rep on the machine recorded in machine.json (2 vCPU
# Xeon under KVM, Python 3.11.7, numpy 2.4.6). Changing it rescales every
# normalized figure, so it is fixed for the life of the benchmark.
NOMINAL_REF_S = 1.25e-3
# A typical reference start (setup_child.py --reference) on that machine:
# a fresh interpreter importing this module, numpy with it, and running
# one reference rep. Cold starts of the program are normalized by it.
NOMINAL_START_S = 0.1

# Each reference block lasts at least this share of the call before it,
# so long calls are bracketed by enough reference time to be judged.
REF_SHARE = 0.3
# Blocks taken on each side of a call for its running median.
WINDOW = 1


class _Nine(NamedTuple):
    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    c6: float
    c7: float
    c8: float
    c9: float


@dataclass(frozen=True)
class _Params:
    a1: float = 0.0
    a2: float = 0.0
    a3: float = 0.0
    a4: float = 0.0
    a5: float = 0.0
    lam: float = 0.0
    k: float = 1.0
    omega: float = 1.0
    g: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4", "a5", "lam", "k", "omega", "g", "c"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(name)


@dataclass(frozen=True)
class _Triple:
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __add__(self, other):
        return _Triple(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other):
        return _Triple(self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, s):
        return _Triple(self.x * s, self.y * s, self.z * s)

    __rmul__ = __mul__


def _newton_like() -> float:
    """Validated parameter records, a nine-entry polynomial tuple and a
    small least-squares solve, as in one damped Newton step."""
    x = np.array([0.3, -0.2, 0.5, 0.7, 0.1])
    total = 0.0
    for _ in range(3):
        cols = []
        for j in range(6):
            q = _Params(*(x + 0.01 * j), lam=0.1)
            w = q.omega / q.c
            s = q.lam + 2.0 * q.g * q.a3
            quad = q.k ** 2 - w ** 2 - 4.0 * q.g ** 2 * (q.a1 ** 2 - q.a2 ** 2)
            nine = _Nine(q.a1 * s * s, s * q.a4, q.a1 * q.a5, quad * q.a5, quad * q.a4,
                         s * q.a2, q.a2 * q.a4, s, q.a5 * q.a5)
            cols.append(np.array(nine, dtype=float))
        step, *_ = np.linalg.lstsq(np.array(cols[:5]).T, -cols[5], rcond=None)
        total += float(np.max(np.abs(step))) + float(np.linalg.norm(cols[5]))
    return total


def _stencil_like() -> float:
    """Arithmetic on small immutable coefficient records with trig frames,
    as in finite-difference residual stencils."""
    acc = _Triple()
    for i in range(40):
        y = 0.05 * i
        c, s = math.cos(0.7 * y), math.sin(0.7 * y)
        sx, sy, sz = _Triple(c, s, 0.0), _Triple(-s, c, 0.0), _Triple(0.0, 0.0, 1.0)
        e = (0.3 + 0.2 * math.cos(y)) * sy + (0.5 * math.sin(y)) * sz
        acc = acc + (e - sx * 0.1) * (1.0 / 12.0)
    return acc.x


def _csv_like() -> int:
    """17-digit %-formatting of closed-form values into CSV rows."""
    out = io.StringIO()
    writer = csv.writer(out)
    for i in range(30):
        th = 0.1 * i
        p = _Triple(th, 0.5, -th)
        vals = (th, p.x, p.y, p.z, math.cos(th), math.sin(th), 0.0,
                -math.sin(th), 0.5 * math.cos(th), 0.0)
        writer.writerow(["%.17g" % v for v in vals])
    return len(out.getvalue())


def reference_rep() -> float:
    """One fixed unit of work with the program's instruction mix.

    One part each in the style of the three workloads: Newton steps
    (scan), stencil arithmetic (certify) and CSV formatting (fields).
    """
    return _newton_like() + _stencil_like() + _csv_like()


def reference_block(min_s: float) -> list[float]:
    """Run reference reps for at least min_s seconds; return each rep's time.

    A first, uncounted rep refills the caches the measured call evicted;
    counted, it reads up to half again slower than the reps after it.
    """
    reference_rep()
    reps = []
    total = 0.0
    while not reps or total < min_s:
        t0 = time.perf_counter()
        reference_rep()
        dt = time.perf_counter() - t0
        reps.append(dt)
        total += dt
    return reps


def block_times(blocks: list[list[float]]) -> list[float]:
    """The mean rep time of each reference block."""
    return [statistics.fmean(block) for block in blocks]


def normalize(call_s: list[float], blocks: list[list[float]],
              nominal: float = NOMINAL_REF_S) -> list[float]:
    """Scale each call time by nominal / running median of nearby block times.

    blocks[i] holds the reps timed just before call i and blocks[i + 1]
    those just after it, so there is one more block than calls. Call i
    is judged against blocks i - WINDOW + 1 .. i + WINDOW; with WINDOW
    at 1 that is the mean of the two blocks around it.
    """
    if len(blocks) != len(call_s) + 1:
        raise ValueError("need one reference block before and after every call")
    times = block_times(blocks)
    return [raw * nominal / statistics.median(times[max(0, i - WINDOW + 1):i + WINDOW + 1])
            for i, raw in enumerate(call_s)]


class DriftClock:
    """Times calls in a closed loop, with a reference block around each."""

    def __init__(self):
        self.blocks = [reference_block(0.0)]
        self.calls: list[float] = []

    def time_call(self, fn):
        """Run fn(), record its wall time, then a reference block; return fn's result."""
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        self.calls.append(dt)
        self.blocks.append(reference_block(REF_SHARE * dt))
        return result

    def normalized(self) -> list[float]:
        return normalize(self.calls, self.blocks)
