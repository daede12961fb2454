"""End-to-end acceptance checks, one per release criterion.

Each test prints a single PASS/FAIL line (kept visible through pytest's
capture) so the suite doubles as a checklist; the assert that follows
makes failures count.
"""

import math
import time
from dataclasses import replace

import numpy as np

from ymwaves.constraints import (
    build_family_i,
    build_family_ii,
    build_family_iii,
    constraint_scales,
    nine_constraints,
    normalized_constraints,
    oracle_constraints,
    scan_families,
)
from ymwaves.fields import (
    AnsatzParams,
    field_strength,
    field_strength_norm,
)
from ymwaves.observables import (
    energy_density,
    mean_energy_closed_form,
    node_locations,
    point_at_phase,
)
from ymwaves.residuals import (
    ampere_commutator_term,
    ampere_residual,
    bianchi_residual,
    gauss_commutator_term,
    gauss_residual,
    grid_points,
    max_residual_norm,
    residual_sample,
)

from conftest import random_params, random_point

GRID = ((0.0, 2.0 * math.pi, 10), (-1.0, 1.0, 10), (0.0, 2.0 * math.pi, 10))


def report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def draw(rng, lo=0.2, hi=5.0):
    return float(rng.uniform(lo, hi) * rng.choice([-1.0, 1.0]))


def test_acceptance_1_family_residuals(capsys):
    """All three families solve the equations pointwise, both routes."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    pts = grid_points(*GRID)
    sign_pairs = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    worst_analytic = 0.0
    worst_numeric = 0.0
    for i in range(50):
        lam = float(rng.uniform(-5.0, 5.0))
        a4 = float(rng.uniform(-5.0, 5.0))
        eta, xi = sign_pairs[i % 4]
        sols = [
            build_family_i(draw(rng), a4, lam, draw(rng)),
            build_family_ii(draw(rng), draw(rng), lam, draw(rng), eta, xi),
            build_family_iii(draw(rng), float(rng.uniform(-5.0, 5.0)), a4,
                             lam, draw(rng), eta),
        ]
        for p in sols:
            worst_analytic = max(worst_analytic, max_residual_norm(p, pts))
            for s in pts[:: len(pts) // 4]:
                worst_numeric = max(worst_numeric, residual_sample(p, s, mode="numeric").norm)
    elapsed = time.perf_counter() - start
    ok = worst_analytic < 1e-10 and worst_numeric < 1e-10 and elapsed < 30.0
    report(capsys, 1, ok,
           f"150 instances: max analytic {worst_analytic:.2e} (< 1e-10), "
           f"max numeric {worst_numeric:.2e} (< 1e-10), {elapsed:.1f}s (< 30s)")
    assert ok


def test_acceptance_2_oracle_equivalence(capsys):
    """Direct constraint polynomials match the residual-fit oracle."""
    rng = np.random.default_rng(202)
    worst = 0.0
    worst_bound = 0.0
    for _ in range(100):
        p = random_params(rng)
        diff = np.max(np.abs(nine_constraints(p).as_array() - oracle_constraints(p).as_array()))
        bound = 1e-12 * max(constraint_scales(p))
        worst = max(worst, diff)
        worst_bound = max(worst_bound, diff / bound)
        if diff > bound:
            break
    ok = worst_bound <= 1.0
    report(capsys, 2, ok,
           f"100 sets: max |direct - oracle| {worst:.2e}, worst fraction of "
           f"the 1e-12 x largest constraint bound {worst_bound:.2e}")
    assert ok


def test_acceptance_3_dispersion(capsys):
    """Wave families demand omega = k c; the pure-gauge family does not."""
    checks = []
    for p in (build_family_i(1.4, 1.1, 0.3, 0.9),
              build_family_ii(1.4, 1.1, 0.3, 0.9, -1, 1)):
        checks.append(np.max(normalized_constraints(p)) < 1e-9)
        detuned = replace(p, omega=p.omega + 1e-3)
        checks.append(nine_constraints(detuned).max_abs() > 1e-4)
    k = 1.3
    for ratio in (0.0, 0.5, 1.0, 2.0, 10.0):
        q = build_family_iii(k, ratio * k, 0.8, 0.4, 1.1)
        checks.append(np.max(normalized_constraints(q)) < 1e-9)
    ok = all(checks)
    report(capsys, 3, ok,
           "I and II verify only on the light cone (detuning 1e-3 lifts a "
           "constraint past 1e-4); III verifies at omega/kc in {0, 0.5, 1, 2, 10}")
    assert ok


def test_acceptance_4_energy_closed_form(capsys):
    """Density closed forms, phase average, and node pattern, kappa = 1/4."""
    from ymwaves.constraints import classify

    thetas = [2.0 * math.pi * i / 1000 for i in range(1000)]
    worst_point = 0.0
    worst_mean = 0.0
    nodes_ok = True
    for eta, xi in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        sol = classify(build_family_ii(1.2, 0.9, 0.0, 1.0, eta, xi))
        p = sol.params()
        amp = sol.k ** 2 * sol.alpha4 ** 2
        dens = [energy_density(p, point_at_phase(p, th)) for th in thetas]
        want = [0.5 * amp * (1.0 - xi * eta * math.cos(th)) for th in thetas]
        worst_point = max(worst_point, max(abs(d - w) for d, w in zip(dens, want)))
        worst_mean = max(worst_mean, abs(sum(dens) / len(dens) - 0.5 * amp))
        worst_mean = max(worst_mean, abs(mean_energy_closed_form(sol) - 0.5 * amp))
        nodes_ok &= node_locations(sol) == ([0.0] if xi * eta > 0 else [math.pi])
    sol_i = classify(build_family_i(1.2, 0.9, 0.0, 1.0))
    nodes_ok &= node_locations(sol_i) == [0.5 * math.pi, 1.5 * math.pi]
    p_i = sol_i.params()
    doubling = energy_density(p_i, point_at_phase(p_i, 0.7), kappa=0.5)
    doubling_ok = doubling == 2.0 * energy_density(p_i, point_at_phase(p_i, 0.7))
    ok = worst_point < 1e-12 and worst_mean < 1e-10 and nodes_ok and doubling_ok
    report(capsys, 4, ok,
           f"1000 thetas x 4 sign pairs: pointwise {worst_point:.2e} (< 1e-12), "
           f"mean {worst_mean:.2e} (< 1e-10), nodes as predicted; kappa = 1/4 "
           "matches the compact forms, kappa = 1/2 doubles them exactly")
    assert ok


def test_acceptance_5_pure_gauge(capsys):
    """Family III carries no field strength, at any frequency pair."""
    rng = np.random.default_rng(505)
    freqs = [(float(rng.uniform(-3.0, 3.0)), float(rng.uniform(-3.0, 3.0)))
             for _ in range(10)] + [(0.0, 0.0)]
    worst = 0.0
    for k, omega in freqs:
        p = build_family_iii(k, omega, draw(rng, hi=2.0), draw(rng, hi=2.0),
                             draw(rng, hi=2.0))
        for _ in range(3):
            f = field_strength(p, random_point(rng))
            worst = max(worst, field_strength_norm(f))
    ok = worst < 1e-12
    report(capsys, 5, ok, f"11 (k, omega) pairs incl. (0, 0): max |F| {worst:.2e} (< 1e-12)")
    assert ok


def test_acceptance_6_bianchi(capsys):
    """The homogeneous equations hold to rounding for arbitrary inputs."""
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(20):
        p = random_params(rng)
        s = random_point(rng)
        worst = max(worst, bianchi_residual(p, s) / max(constraint_scales(p)))
    ok = worst <= 1e-12
    report(capsys, 6, ok,
           f"20 random sets: div B and Faraday residual {worst:.2e} of the largest "
           f"constraint scale (<= 1e-12)")
    assert ok


def test_acceptance_7_superposition_fails(capsys):
    """Adding two nonlinear waves parameter-wise is not a solution."""
    a = build_family_ii(1.0, 1.0, 0.0, 1.0, 1, 1)
    b = build_family_ii(1.0, 2.0, 0.0, 1.0, 1, 1)
    both_solve = (nine_constraints(a).max_abs() < 1e-12
                  and nine_constraints(b).max_abs() < 1e-12)
    summed = replace(a, alpha1=a.alpha1 + b.alpha1, alpha2=a.alpha2 + b.alpha2,
                     alpha3=a.alpha3 + b.alpha3, alpha4=a.alpha4 + b.alpha4,
                     alpha5=a.alpha5 + b.alpha5)
    worst = nine_constraints(summed).max_abs()
    ok = both_solve and worst > 1e-2
    report(capsys, 7, ok,
           f"summed amplitudes of two Family II waves violate a constraint "
           f"by {worst:.3g} (> 1e-2) while each wave solves exactly")
    assert ok


def test_acceptance_8_scan_exhaustiveness(capsys):
    """Every converged random root lands on a known branch."""
    start = time.perf_counter()
    rows = scan_families(1000, seed=0, lam=0.0, k=1.0, omega=1.0, g=1.0)
    elapsed = time.perf_counter() - start
    converged = [r for r in rows if r.converged]
    unmatched = [r for r in converged if r.label == "none" or r.distance > 1e-6]
    tally = {}
    for r in converged:
        tally[r.label] = tally.get(r.label, 0) + 1
    ok = not unmatched and elapsed < 300.0
    report(capsys, 8, ok,
           f"1000 seeds: {len(converged)} converged, {len(unmatched)} off-branch "
           f"(need 0), tally {tally}, {elapsed:.0f}s (< 300s)")
    assert ok


def test_acceptance_9_abelian_limit(capsys):
    """At g = 0 the machinery reduces to Maxwell for a linear wave."""
    rng = np.random.default_rng(909)
    commutators_zero = True
    worst = 0.0
    worst_numeric = 0.0
    for _ in range(10):
        k = draw(rng, hi=3.0)
        p = AnsatzParams(alpha4=float(rng.uniform(-3.0, 3.0)), k=k, omega=k, g=0.0)
        s = random_point(rng)
        commutators_zero &= gauss_commutator_term(p, s).norm() == 0.0
        commutators_zero &= ampere_commutator_term(p, s).norm() == 0.0
        worst = max(worst, gauss_residual(p, s).norm(),
                    ampere_residual(p, s).norm())
        worst_numeric = max(worst_numeric, residual_sample(p, s, mode="numeric").norm)
    ok = commutators_zero and worst < 1e-12 and worst_numeric < 1e-12
    report(capsys, 9, ok,
           f"g = 0 linear waves: commutator terms identically zero, analytic "
           f"residual {worst:.2e} and numeric {worst_numeric:.2e} (both < 1e-12)")
    assert ok
