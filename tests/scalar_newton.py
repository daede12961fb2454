"""One-seed-at-a-time Newton scan: the reference the batched scan is checked against.

Every seed is refined alone, with the nine constraints evaluated through
AnsatzParams and nine_constraints for each Jacobian column and
line-search trial, and each step solved by np.linalg.lstsq. The batched
scan in ymwaves.constraints takes the same steps up to rounding, so
labels and converged flags must agree seed for seed.
"""

import numpy as np

from ymwaves.constraints import branch_projection, nine_constraints, normalized_constraints
from ymwaves.fields import AnsatzParams


def _params(alphas, lam, k, omega, g, c):
    return AnsatzParams(*alphas, lam=lam, k=k, omega=omega, g=g, c=c)


def refine(alphas0, lam, k, omega, g, c=1.0, tol=1e-13, max_iter=120):
    """(alphas, converged, iterations, max_normalized) of one seed."""
    x = np.array(alphas0, dtype=float)

    def fvec(arr):
        return nine_constraints(_params(arr, lam, k, omega, g, c)).as_array()

    def max_norm(arr):
        return float(np.max(normalized_constraints(_params(arr, lam, k, omega, g, c))))

    fx = fvec(x)
    it = 0
    for it in range(1, max_iter + 1):
        if max_norm(x) <= tol:
            return tuple(x), True, it - 1, max_norm(x)
        jac = np.empty((9, 5))
        for j in range(5):
            d = 1e-7 * max(1.0, abs(x[j]))
            xp = x.copy(); xp[j] += d
            xm = x.copy(); xm[j] -= d
            jac[:, j] = (fvec(xp) - fvec(xm)) / (2.0 * d)
        step, *_ = np.linalg.lstsq(jac, -fx, rcond=None)
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


def scan_labels(n_seeds, seed, lam, k, omega, g, c=1.0, spread=3.0,
                success_tol=1e-8, snap_tol=1e-3):
    """(label, converged) per seed, drawn and snapped as scan_families does."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_seeds):
        start = tuple(rng.uniform(-spread, spread, size=5))
        alphas, _, _, worst = refine(start, lam, k, omega, g, c)
        success = worst <= success_tol
        label = ""
        if success:
            label, point, dist = branch_projection(alphas, lam, k, omega, g, c)
            snapped = float(np.max(normalized_constraints(_params(point, lam, k, omega, g, c))))
            if dist > snap_tol or snapped > success_tol:
                label = "none"
        out.append((label, success))
    return out

