"""One-seed-at-a-time Newton scan: the reference the batched scan is checked against.

Every seed is refined alone, with the nine constraints evaluated through
AnsatzParams and nine_constraints for each Jacobian column and
line-search trial, and each step solved by np.linalg.lstsq; it stops on
the largest constraint over Newton's stop scale (stop_scales). Roots are
labelled by nearest_branch, the branches written out by hand here rather
than read from the library's branch table. The batched scan in
ymwaves.constraints takes the same steps up to rounding, so labels and
converged flags must agree seed for seed.
"""

import math

import numpy as np

from ymwaves.constraints import _STARTS, _monomials, _substitute, nine_constraints
from ymwaves.fields import AnsatzParams


def _params(alphas, lam, k, omega, g):
    return AnsatzParams(*alphas, lam=lam, k=k, omega=omega, g=g)


def stop_scales(alphas, table):
    """Newton's stop scales at the amplitudes, from the term table at the
    couplings (constraints._substitute): each constraint's bound group,
    its bound on magnitudes, floored at 1. A term that overflows is inf,
    as in the library's Newton."""
    with np.errstate(all="ignore"):
        m = _monomials(table, np.array(alphas, dtype=float)[None, :])
        return np.maximum(1.0, np.add.reduceat(m, _STARTS)[6::7, 0])


def worst_stop(alphas, lam, k, omega, g, table):
    """The largest |c_i| of nine_constraints over its stop scale."""
    values = nine_constraints(_params(alphas, lam, k, omega, g)).as_array()
    return float(np.max(np.abs(values) / stop_scales(alphas, table)))


def jacobian(fvec, x):
    """Central-difference Jacobian of fvec at x, one column at a time."""
    jac = np.empty((9, 5))
    for j in range(5):
        d = 1e-7 * max(1.0, abs(x[j]))
        xp = x.copy(); xp[j] += d
        xm = x.copy(); xm[j] -= d
        jac[:, j] = (fvec(xp) - fvec(xm)) / (2.0 * d)
    return jac


def refine(alphas0, lam, k, omega, g, tol=1e-13, max_iter=120):
    """(alphas, converged, iterations, max_normalized) of one seed."""
    x = np.array(alphas0, dtype=float)
    table = _substitute(lam, k, omega, g)

    def fvec(arr):
        return nine_constraints(_params(arr, lam, k, omega, g)).as_array()

    def max_norm(arr):
        return worst_stop(arr, lam, k, omega, g, table)

    fx = fvec(x)
    it = 0
    for it in range(1, max_iter + 1):
        if max_norm(x) <= tol:
            return tuple(x), True, it - 1, max_norm(x)
        step, *_ = np.linalg.lstsq(jacobian(fvec, x), -fx, rcond=None)
        base = float(np.linalg.norm(fx))
        t = 1.0
        accepted = False
        while t >= 2.0 ** -24:
            trial = x + t * step
            ftrial = fvec(trial)
            if float(np.linalg.norm(ftrial)) < (1.0 - 1e-4 * t) * base:
                x, fx = trial, ftrial
                accepted = True
                break
            t *= 0.5
        if not accepted or float(np.linalg.norm(x)) > 1e8:
            break
    final = max_norm(x)
    return tuple(x), final <= tol, it, final


def nearest_branch(alphas, lam, k, omega, g):
    """(label, point, distance) of the nearest catalogued branch.

    Each branch is a line or plane in amplitude space, projected onto by
    a closed-form least-squares fit of its free parameters. Branches of
    the light cone count only on it, to 1e-9 of |omega| + |k| with no
    floor, the wave families only for alpha4 != 0; ties prefer I, II,
    III, abelian-z, pure-gauge in that order.
    """
    a1, a2, a3, a4, a5 = (float(v) for v in alphas)
    base3 = -lam / (2.0 * g)
    on_cone = abs(omega - k) <= 1e-9 * (abs(omega) + abs(k))
    wavelike = a4 != 0.0
    cand = {}

    def put(name, point):
        d = math.sqrt(sum((p - a) ** 2 for p, a in zip(point, (a1, a2, a3, a4, a5))))
        if name not in cand or d < cand[name][1]:
            cand[name] = (point, d)

    if on_cone:
        if wavelike:
            put("I", (0.0, 0.0, base3, a4, 0.0))
            for eta in (1, -1):
                edge = eta * k / (4.0 * g)
                for xi in (1, -1):
                    t = (xi * (a3 - base3) + a4 + eta * a5) / 3.0
                    put("II", (edge, edge, base3 + xi * t, t, eta * t))
        put("abelian-z", (0.0, 0.0, a3, 0.0, a5))
    if wavelike:
        for eta in (1, -1):
            t = (a4 + eta * a5) / 2.0
            put("III", (eta * omega / (2.0 * g), eta * k / (2.0 * g), base3, t, eta * t))
    put("pure-gauge", (a1, a2, base3, 0.0, 0.0))
    order = ("I", "II", "III", "abelian-z", "pure-gauge")
    best = min(order, key=lambda name: cand.get(name, ((), math.inf))[1])
    return (best, *cand[best])


def scan_labels(n_seeds, seed, lam, k, omega, g, spread=3.0,
                success_tol=1e-8, snap_tol=1e-3):
    """(label, converged) per seed, drawn and snapped as scan_families does."""
    rng = np.random.default_rng(seed)
    table = _substitute(lam, k, omega, g)
    out = []
    for _ in range(n_seeds):
        start = tuple(rng.uniform(-spread, spread, size=5))
        alphas, _, _, worst = refine(start, lam, k, omega, g)
        success = worst <= success_tol
        label = ""
        if success:
            label, point, dist = nearest_branch(alphas, lam, k, omega, g)
            snapped = worst_stop(point, lam, k, omega, g, table)
            if dist > snap_tol or snapped > success_tol:
                label = "none"
        out.append((label, success))
    return out

