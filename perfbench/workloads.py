"""The three workloads: what each call is, in what mix, and how it is checked.

A workload is an endless sequence of cycles. A cycle is a list of
groups; a group is one or more calls that share a check and carry a
number of items (seeds, configurations or CSV rows). Every cycle has the
same mix of call kinds and sizes, so the latency percentiles of whole
cycles do not depend on how many cycles a run completes; the seed only
draws the parameters and the order.

Calls go through ymwaves.cli.main with generated argv, plus
ymwaves.constraints.oracle_constraints on certify. Both are looked up on
their modules at call time so that the traced run sees its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

import ymwaves.cli
import ymwaves.constraints
import ymwaves.fields
import ymwaves.observables
import ymwaves.residuals

import checks


@dataclass
class Group:
    items: int
    calls: list            # thunks, each timed on its own
    check: Callable        # list of call results -> checks.Verdict


def _num(x: float) -> str:
    return "%.17g" % x


class CliResult(NamedTuple):
    rc: int
    out: str
    err: str


def cli_call(argv: list[str]):
    """A thunk running `ymwaves <argv>` in process with captured output."""
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = ymwaves.cli.main(argv)
        return CliResult(rc, out.getvalue(), err.getvalue())
    run.argv = argv
    return run


def _sign(rng: random.Random) -> float:
    return rng.choice((1.0, -1.0))


# ---------------------------------------------------------------- scan

# One cycle: 100 calls, sizes in seeds. The median falls inside the 20
# calls of 6 seeds and the 90th percentile inside the ten calls of 24,
# with exactly ten calls beyond it.
SCAN_SIZES = ([n for n in range(1, 9) for _ in range(5)] + [6] * 20
              + [n for n in (8, 10, 12, 14, 16) for _ in range(5)] + [24] * 10
              + [32, 48, 64, 128, 256])


def _scan_regime(index: int, rng: random.Random):
    """(lam, k, omega, g) of regime 0..3: the acceptance light cone, the
    light cone at lam != 0 and g != 1, off the cone at omega = 2, and off
    it at k = 0.8, omega = 0.4."""
    if index == 0:
        return 0.0, 1.0, 1.0, 1.0
    if index == 1:
        k = rng.uniform(0.5, 2.0)
        return _sign(rng) * rng.uniform(0.2, 1.5), k, k, rng.uniform(0.5, 2.0)
    if index == 2:
        return 0.0, 1.0, 2.0, 1.0
    return 0.0, 0.8, 0.4, 1.0


def _scan_group(n: int, regime: int, rng: random.Random) -> Group:
    lam, k, omega, g = _scan_regime(regime, rng)
    argv = ["scan", "--seeds", str(n), "--seed", str(rng.randrange(2 ** 31)),
            "--lambda", _num(lam), "--k", _num(k), "--omega", _num(omega), "--g", _num(g)]

    def check(results):
        rc, out, _ = results[0]
        return checks.check_scan(rc, out, n, lam, k, omega, g)
    return Group(items=n, calls=[cli_call(argv)], check=check)


def scan_cycle(rng: random.Random) -> list[Group]:
    # regimes go round-robin within each size, so every size sees the
    # same regime mix whatever the seed
    seen: dict[int, int] = {}
    plan = []
    for n in SCAN_SIZES:
        plan.append((n, seen.get(n, 0) % 4))
        seen[n] = seen.get(n, 0) + 1
    first, rest = plan[0], plan[1:]
    rng.shuffle(rest)
    return [_scan_group(n, regime, rng) for n, regime in [first] + rest]


# ------------------------------------------------------------- certify

FINE_GRID = "0:6.2832:16,-1:1:16,0:6.2832:16"

# One cycle: Family I, Family II with all four (eta, xi), Family III with
# free omega, and two perturbed non-solutions. Every configuration runs
# verify on the default grid, classify and the oracle; every other one
# also runs verify on the 16^3 grid. Of the 28 calls the median falls
# among the oracle fits and the 90th percentile among the fine grids.
CERTIFY_PLAN = [("I", 1, 1, True), ("II", 1, 1, False), ("II", 1, -1, True),
                ("II", -1, 1, False), ("II", -1, -1, True), ("III", 1, 1, False),
                ("perturb-I", 1, 1, True), ("perturb-II", -1, 1, False)]


def family_amplitudes(family: str, k: float, omega: float, alpha4: float, lam: float,
                      g: float, eta: int, xi: int) -> tuple[float, ...]:
    """(alpha1..alpha5) of the catalogued families, at c = 1."""
    base3 = -lam / (2.0 * g)
    if family == "I":
        return (0.0, 0.0, base3, alpha4, 0.0)
    if family == "II":
        amp = eta * k / (4.0 * g)
        return (amp, amp, xi * alpha4 + base3, alpha4, eta * alpha4)
    return (eta * omega / (2.0 * g), eta * k / (2.0 * g), base3, alpha4, eta * alpha4)


def _certify_group(kind: str, eta: int, xi: int, fine: bool, rng: random.Random) -> Group:
    k = _sign(rng) * rng.uniform(0.5, 3.0)
    alpha4 = _sign(rng) * rng.uniform(0.3, 2.0)
    lam = rng.uniform(-1.5, 1.5)
    g = _sign(rng) * rng.uniform(0.5, 2.0)
    family = kind.removeprefix("perturb-")
    omega = _sign(rng) * rng.uniform(0.2, 3.0) if family == "III" else k
    alphas = list(family_amplitudes(family, k, omega, alpha4, lam, g, eta, xi))
    physics = ["--lambda", _num(lam), "--k", _num(k), "--g", _num(g)]
    solution = not kind.startswith("perturb")
    if solution:
        config = ["--family", family, "--alpha4", _num(alpha4), "--eta", str(eta),
                  "--xi", str(xi)] + physics
        if family == "III":
            config += ["--omega", _num(omega)]
    else:
        # alpha4 is a free parameter of every family; move another amplitude
        j = rng.choice((0, 1, 2, 4))
        alphas[j] += _sign(rng) * rng.uniform(0.05, 0.5)
        config = [f for i, a in enumerate(alphas) for f in (f"--alpha{i + 1}", _num(a))]
        config += physics + ["--omega", _num(omega)]
    signs = {"I": "", "II": f" eta={eta:+d} xi={xi:+d}", "III": f" eta={eta:+d}"}[family]

    def oracle():
        p = ymwaves.fields.AnsatzParams(*alphas, lam=lam, k=k, omega=omega, g=g)
        return tuple(ymwaves.constraints.oracle_constraints(p))

    calls = [cli_call(["verify"] + config)]
    if fine:
        calls.append(cli_call(["verify", "--grid", FINE_GRID] + config))
    calls += [cli_call(["classify"] + config), oracle]

    def check(results):
        return checks.check_certify(solution, family, signs, results[:-2],
                                    results[-2], results[-1])
    return Group(items=1, calls=calls, check=check)


def certify_cycle(rng: random.Random) -> list[Group]:
    plan = list(CERTIFY_PLAN)
    first, rest = plan[0], plan[1:]
    rng.shuffle(rest)
    return [_certify_group(*entry, rng) for entry in [first] + rest]


# -------------------------------------------------------------- fields

# One cycle: 17 calls, sizes in CSV rows as ("fields", (nt, ny, nz)) or
# ("profile", theta samples). The median falls inside the six 1000-point
# grids and the 90th percentile inside the two 5000-point ones.
FIELDS_PLAN = [("profile", 64), ("fields", (1, 1, 100)), ("fields", (2, 1, 100)),
               ("profile", 256), ("fields", (4, 10, 10)), ("fields", (10, 10, 10)),
               ("fields", (1, 20, 50)), ("fields", (5, 2, 100)), ("fields", (2, 5, 100)),
               ("fields", (1, 10, 100)), ("fields", (4, 25, 10)), ("profile", 1024),
               ("fields", (2, 10, 100)), ("profile", 4096), ("fields", (5, 10, 100)),
               ("fields", (1, 50, 100)), ("fields", (20, 10, 100))]


def _fields_group(kind: str, size, index: int, rng: random.Random) -> Group:
    family = ("I", "II")[index % 2]
    k = _sign(rng) * rng.uniform(0.5, 3.0)
    alpha4 = _sign(rng) * rng.uniform(0.3, 2.0)
    eta, xi = rng.choice((1, -1)), rng.choice((1, -1))
    config = ["--family", family, "--alpha4", _num(alpha4), "--k", _num(k),
              "--lambda", _num(rng.uniform(-1.5, 1.5)),
              "--g", _num(_sign(rng) * rng.uniform(0.5, 2.0)),
              "--eta", str(eta), "--xi", str(xi)]
    if kind == "profile":
        n = size
        argv = ["energy-profile", "--theta-samples", str(n)] + config
        verify = checks.check_profile
    else:
        n = math.prod(size)
        spans = (rng.uniform(0.5, 4.0), rng.uniform(0.5, 2.0), rng.uniform(1.0, 8.0))
        grid = ",".join(f"{_num(lo)}:{_num(lo + span)}:{count}" for lo, span, count in
                        zip((rng.uniform(-1, 1) for _ in range(3)), spans, size))
        argv = ["fields", f"--grid={grid}"] + config
        verify = checks.check_fields

    def check(results):
        rc, out, _ = results[0]
        return verify(rc, out, n, family, k, alpha4, eta, xi)
    return Group(items=n, calls=[cli_call(argv)], check=check)


def fields_cycle(rng: random.Random) -> list[Group]:
    plan = list(enumerate(FIELDS_PLAN))
    first, rest = plan[1], plan[:1] + plan[2:]
    rng.shuffle(rest)
    return [_fields_group(kind, size, i, rng) for i, (kind, size) in [first] + rest]


CYCLES = {"scan": scan_cycle, "certify": certify_cycle, "fields": fields_cycle}

# Why each workload exists; BENCHMARK.json carries the same lines.
WHY = {
    "scan": "Newton search in four regimes: constraints and AnsatzParams work, "
            "no residual or grid fields; omega=2 keeps its known unlabelled roots",
    "certify": "verify on two grids, classify and the oracle over Families I-III and "
               "non-solutions: residual stencils, Bianchi, single-point fields",
    "fields": "closed-form E and B over 100 to 20,000-point grids plus energy "
              "profiles: fields, observables and CSV output, no Newton or residuals",
}


def probe() -> int:
    """One direct call of every function a per-layer metric names.

    The traced run reads a per-layer figure off this probe only when its
    workload never reaches that function, so every metric has a measured
    value on every workload. Returns the probe's item count.
    """
    C, F = ymwaves.constraints, ymwaves.fields
    R, O = ymwaves.residuals, ymwaves.observables
    p = C.build_family_ii(1.3, 0.8, 0.4, 1.2, 1, -1)
    s = F.SpacetimePoint(t=0.3, x=0.17, y=-0.4, z=0.9)
    root = C.refine_alphas((0.5, -1.0, 0.7, 1.1, -0.2), 0.0, 1.0, 1.0, 1.0)
    C.branch_projection(root.alphas, 0.0, 1.0, 1.0, 1.0)
    C.classify(p)
    C.oracle_constraints(p)
    F.electric_field_analytic(p, s)
    F.magnetic_field_analytic(p, s)
    F.field_strength(p, s)
    R.residual_sample(p, s)
    R.residual_sample(p, s, mode="numeric")
    R.bianchi_residual(p, s)
    R.grid_points((0.0, 1.0, 4), (0.0, 1.0, 4), (0.0, 1.0, 4))
    O.energy_density(p, s)
    return 1


def cycles(workload: str, seed: int):
    """Endless cycles of one workload; the same seed gives the same calls."""
    make = CYCLES[workload]
    index = 0
    while True:
        yield make(random.Random(f"{workload}:{seed}:{index}"))
        index += 1
