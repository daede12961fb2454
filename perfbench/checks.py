"""Output checks for the three workloads.

Every check reads only what the program printed (CSV rows, report lines,
exit codes) and the closed forms stated in PAPER.md and the family
catalogue; nothing here calls into ymwaves, so a bug in the program
cannot vouch for itself.

A check returns a Verdict: `failed` counts items whose operation failed
(a scan seed labelled 'none', a wrong verdict, a row off its closed
form), `errors` describes outputs that are wrong rather than merely
failed, and `converged` counts scan seeds whose Newton run converged.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, field

REL_TOL = 1e-9


@dataclass
class Verdict:
    failed: int = 0
    errors: list = field(default_factory=list)
    converged: int = 0


def _close(x: float, y: float, tol: float = REL_TOL) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def on_branch(label: str, a, lam: float, k: float, omega: float, g: float,
              c: float = 1.0) -> bool:
    """Whether amplitudes a = (a1..a5) lie on the named branch's parametrization.

    Families I-III as catalogued; the two planes: pure-gauge (a3 = -lam/2g,
    a4 = a5 = 0, a1 and a2 free) and abelian-z (a1 = a2 = a4 = 0, light
    cone only). I, II and abelian-z exist only on the light cone.
    """
    a1, a2, a3, a4, a5 = a
    base3 = -lam / (2.0 * g)
    cone = _close(omega, k * c)
    if label == "I":
        return cone and _close(a1, 0.0) and _close(a2, 0.0) and _close(a5, 0.0) \
            and _close(a3, base3)
    if label == "II":
        return cone and not _close(a4, 0.0) and any(
            _close(a1, eta * k / (4.0 * g)) and _close(a2, eta * k / (4.0 * g))
            and _close(a5, eta * a4) and _close(a3, xi * a4 + base3)
            for eta in (1, -1) for xi in (1, -1))
    if label == "III":
        return any(
            _close(a1, eta * omega / (2.0 * g * c)) and _close(a2, eta * k / (2.0 * g))
            and _close(a3, base3) and _close(a5, eta * a4)
            for eta in (1, -1))
    if label == "pure-gauge":
        return _close(a3, base3) and _close(a4, 0.0) and _close(a5, 0.0)
    if label == "abelian-z":
        return cone and _close(a1, 0.0) and _close(a2, 0.0) and _close(a4, 0.0)
    return False


def check_scan(rc: int, out: str, n_seeds: int, lam: float, k: float, omega: float,
               g: float) -> Verdict:
    """Every converged, labelled root lies on its branch; 'none' is a failure."""
    v = Verdict()
    rows = list(_rows(out))
    if len(rows) != n_seeds:
        v.errors.append(f"scan printed {len(rows)} rows for {n_seeds} seeds")
        v.failed += abs(n_seeds - len(rows))
    unexplained = 0
    for row in rows:
        if row[1] != "1":
            continue
        v.converged += 1
        label = row[8]
        if label == "none":
            unexplained += 1
            v.failed += 1
        elif not on_branch(label, [float(x) for x in row[2:7]], lam, k, omega, g):
            v.failed += 1
            v.errors.append(f"scan root {row[2:7]} is not on branch {label}")
    if rc != (1 if unexplained else 0):
        v.errors.append(f"scan exit code {rc} with {unexplained} unexplained roots")
    return v


_CONSTRAINT_LINE = re.compile(r"^constraint c(\d) = (\S+) ")


def check_certify(expect_solution: bool, family: str | None, signs: str,
                  verify_runs, classify_run, oracle_values) -> Verdict:
    """Exit codes match the verdict, classify names what was built, and the
    oracle's nine values agree with the constraints verify printed."""
    errors = []
    for rc, out, _ in verify_runs:
        if rc != (0 if expect_solution else 1):
            errors.append(f"verify exit {rc}, expected {'solution' if expect_solution else 'violation'}")
        if ("VERIFIED\n" if expect_solution else "NOT VERIFIED\n") not in out:
            errors.append("verify verdict line does not match its exit code")
    rc, out, _ = classify_run
    if expect_solution:
        want = f"family {family}{signs} ("
        if rc != 0 or not out.startswith(want):
            errors.append(f"classify said {out.strip()!r} (exit {rc}), expected {want!r}")
    elif rc != 1 or not out.startswith("not a solution"):
        errors.append(f"classify said {out.strip()!r} (exit {rc}) for a non-solution")
    printed = {}
    for line in verify_runs[0][1].splitlines():
        m = _CONSTRAINT_LINE.match(line)
        if m:
            printed[int(m.group(1))] = float(m.group(2))
    if sorted(printed) != list(range(1, 10)):
        errors.append("verify did not print all nine constraints")
    else:
        direct = [printed[i] for i in range(1, 10)]
        scale = 1.0 + max(abs(x) for x in direct)
        worst = max(abs(o - d) for o, d in zip(oracle_values, direct))
        if worst > 1e-6 * scale:
            errors.append(f"oracle differs from the nine constraints by {worst:.3g}")
    return Verdict(failed=1 if errors else 0, errors=errors)


def energy_closed_form(family: str, k: float, alpha4: float, eta: int, xi: int,
                       theta: float) -> float:
    """Density at kappa = 1/4: Family I k^2 a4^2 cos^2 th, Family II
    (k^2 a4^2 / 2)(1 - xi eta cos th)."""
    amp = k * k * alpha4 * alpha4
    if family == "I":
        return amp * math.cos(theta) ** 2
    return 0.5 * amp * (1.0 - xi * eta * math.cos(theta))


def check_fields(rc: int, out: str, n_rows: int, family: str, k: float, alpha4: float,
                 eta: int, xi: int) -> Verdict:
    """Each row's density from E_y and B_x matches the closed form; the row
    count equals the grid size."""
    v = Verdict()
    tol = REL_TOL * (1.0 + k * k * alpha4 * alpha4)
    seen = 0
    for row in _rows(out):
        seen += 1
        t, z = float(row[0]), float(row[2])
        ey = [float(x) for x in row[4:7]]
        bx = [float(x) for x in row[7:10]]
        # kappa Tr(E.E + B.B) with Tr(s_i s_j) = 2 delta_ij and kappa = 1/4
        density = 0.5 * (sum(x * x for x in ey) + sum(x * x for x in bx))
        expect = energy_closed_form(family, k, alpha4, eta, xi, k * z - k * t)
        if abs(density - expect) > tol:
            v.failed += 1
            if len(v.errors) < 5:
                v.errors.append(f"fields row {row[:4]}: density {density!r}, closed form {expect!r}")
    _count_rows(v, "fields", rc, seen, n_rows)
    return v


def check_profile(rc: int, out: str, n_rows: int, family: str, k: float, alpha4: float,
                  eta: int, xi: int) -> Verdict:
    """energy-profile densities match the closed form at each sampled phase."""
    v = Verdict()
    tol = REL_TOL * (1.0 + k * k * alpha4 * alpha4)
    seen = 0
    for i, row in enumerate(_rows(out)):
        seen += 1
        theta = 2.0 * math.pi * i / n_rows
        expect = energy_closed_form(family, k, alpha4, eta, xi, theta)
        if not _close(float(row[0]), theta) or abs(float(row[1]) - expect) > tol:
            v.failed += 1
            if len(v.errors) < 5:
                v.errors.append(f"energy-profile row {i}: {row[:2]}, closed form {expect!r}")
    _count_rows(v, "energy-profile", rc, seen, n_rows)
    return v


def _rows(out: str):
    """Data rows of a CSV report, parsed one at a time."""
    rows = csv.reader(io.StringIO(out))
    next(rows, None)
    return rows


def _count_rows(v: Verdict, command: str, rc: int, seen: int, n_rows: int):
    if rc != 0 or seen != n_rows:
        v.errors.append(f"{command} exit {rc} with {seen} rows for {n_rows} expected")
        v.failed += abs(n_rows - seen)
