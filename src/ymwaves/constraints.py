"""The nine algebraic constraints and the solution-family catalogue.

Collecting the harmonic coefficients of both equation-of-motion
residuals gives nine polynomial constraints c1..c9 in the parameters;
a configuration solves the equations of motion for all points iff all
nine vanish (except in the static case k = omega = 0, where the phase is
frozen and only three grouped sums remain, see classify).

Known solution branches, each with a builder:

    Family I    alpha1 = alpha2 = alpha5 = 0, alpha3 = -lam/2g, omega = kc;
                a linear wave with amplitude alpha4.
    Family II   alpha1 = alpha2 = eta k/4g, alpha3 = xi alpha4 - lam/2g,
                alpha5 = eta alpha4, omega = kc, for any signs eta, xi;
                nonlinear waves with a constant offset in E and B.
    Family III  alpha1 = eta omega/2gc, alpha2 = eta k/2g,
                alpha3 = -lam/2g, alpha5 = eta alpha4, any omega and k;
                pure gauge, E = B = 0 identically.

At omega = kc the constraint variety additionally contains two
degenerate planes that carry no new physics (see scan_families): the
pure-gauge plane (alpha1, alpha2 free, alpha3 = -lam/2g,
alpha4 = alpha5 = 0, zero fields) and a z-polarized Abelian plane
(alpha1 = alpha2 = alpha4 = 0, alpha3 and alpha5 free) whose fields are
a linear wave along the fixed sz color direction, i.e. Family I physics
with the polarization relabeled and an inert constant potential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .fields import AnsatzParams, SpacetimePoint, _require_finite, field_coefficient_groups
from .residuals import ConstraintVector, _harmonics, ampere_residual, gauss_residual
from .su2 import rotated_coeffs

__all__ = [
    "ConstraintVector",
    "nine_constraints",
    "constraint_scales",
    "normalized_constraints",
    "FamilySolution",
    "NotASolution",
    "TrivialZeroField",
    "ClassificationError",
    "build_family_i",
    "build_family_ii",
    "build_family_iii",
    "classify",
    "oracle_constraints",
    "RefineResult",
    "refine_alphas",
    "branch_projection",
    "ScanRow",
    "scan_families",
]


def nine_constraints(p: AnsatzParams) -> ConstraintVector:
    """Evaluate the nine constraint polynomials.

    They are exactly the harmonic groups of the two residuals (see
    ConstraintVector for the signs). At g = 0 most entries degenerate to
    Abelian dispersion relations; interpret with care.
    """
    return _harmonics(p.alpha1, p.alpha2, p.alpha3, p.alpha4, p.alpha5,
                      p.lam, p.k, p.omega, p.g, p.c)


def constraint_scales(p: AnsatzParams) -> tuple[float, ...]:
    """Largest monomial magnitude of each constraint, floored at 1.

    Used to normalize the raw values so that tolerance checks mean the
    same thing for order-one and order-hundred parameters.
    """
    m = _scale_monomials(p.alpha1, p.alpha2, p.alpha3, p.alpha4, p.alpha5,
                         p.lam, p.k, p.omega, p.g, p.c)
    return tuple(max(1.0, *m[lo:hi]) for lo, hi in zip(_SCALE_STARTS, _SCALE_STARTS[1:]))


# where each constraint's monomials begin in _scale_monomials, plus the end
_SCALE_STARTS = (0, 3, 5, 7, 9, 15, 21, 24, 26, 28)


def _scale_monomials(a1, a2, a3, a4, a5, lam, k, omega, g, c):
    """Monomial magnitudes of c1..c9, grouped by _SCALE_STARTS.

    Plain arithmetic only, so it evaluates on floats and on numpy
    amplitude columns alike, as _harmonics does.
    """
    x = abs(lam + 2.0 * g * a3)
    g = abs(g)
    w = abs(omega / c)
    k = abs(k)
    a1, a2, a4, a5 = abs(a1), abs(a2), abs(a4), abs(a5)
    quad_parts = (k ** 2, w ** 2, 4.0 * g ** 2 * a1 ** 2, 4.0 * g ** 2 * a2 ** 2)
    mix_parts = (w * a1, k * a2)
    return (
        a1 * x ** 2, 4.0 * g ** 2 * a1 * a4 ** 2, 2.0 * g * w * a4 * a5,
        4.0 * g * a1 * a5 * x, w * a4 * x,
        4.0 * g ** 2 * a1 * a4 ** 2, 4.0 * g ** 2 * a1 * a5 ** 2,
        2.0 * g * a2 ** 2 * x, 2.0 * g * a1 ** 2 * x,
        *(a5 * q for q in quad_parts), *(4.0 * g * a4 * m for m in mix_parts),
        *(a4 * q for q in quad_parts), *(4.0 * g * a5 * m for m in mix_parts),
        a2 * x ** 2, 4.0 * g ** 2 * a2 * a4 ** 2, 2.0 * g * k * a4 * a5,
        4.0 * g * a2 * a5 * x, k * a4 * x,
        4.0 * g ** 2 * a2 * a4 ** 2, 4.0 * g ** 2 * a2 * a5 ** 2,
    )


def normalized_constraints(p: AnsatzParams) -> np.ndarray:
    """Absolute constraint values divided by their monomial scales."""
    cv = nine_constraints(p).as_array()
    return np.abs(cv) / np.array(constraint_scales(p))


@dataclass(frozen=True)
class FamilySolution:
    """A configuration on one of the named branches, by its free parameters."""

    family: str
    k: float
    omega: float
    alpha4: float
    lam: float
    g: float
    c: float = 1.0
    eta: Optional[int] = None
    xi: Optional[int] = None

    def params(self) -> AnsatzParams:
        if self.family == "I":
            return build_family_i(self.k, self.alpha4, self.lam, self.g, self.c)
        if self.family == "II":
            return build_family_ii(self.k, self.alpha4, self.lam, self.g,
                                   self.eta, self.xi, self.c)
        if self.family == "III":
            return build_family_iii(self.k, self.omega, self.alpha4, self.lam,
                                    self.g, self.eta, self.c)
        raise ValueError(f"unknown family {self.family!r}")


@dataclass(frozen=True)
class NotASolution:
    """Constraint check failed; violated holds 1-based constraint indices."""

    violated: tuple[int, ...]
    worst: float


@dataclass(frozen=True)
class TrivialZeroField:
    """A solving configuration whose E and B vanish without a family pattern."""

    note: str = ""


class ClassificationError(RuntimeError):
    """A verified solution that matches no catalogued pattern.

    Raising instead of guessing keeps the family catalogue falsifiable;
    scan_families records such roots under the label 'none'.
    """


def _check_sign(name, value):
    if value not in (1, -1):
        raise ValueError(f"{name} must be +1 or -1, got {value!r}")


def build_family_i(k: float, alpha4: float, lam: float, g: float,
                   c: float = 1.0) -> AnsatzParams:
    """Linear-wave branch; requires g != 0 and k != 0."""
    if g == 0.0:
        raise ValueError("family I requires g != 0")
    if k == 0.0:
        raise ValueError("family I requires k != 0")
    return AnsatzParams(alpha1=0.0, alpha2=0.0, alpha3=-lam / (2.0 * g),
                        alpha4=alpha4, alpha5=0.0,
                        lam=lam, k=k, omega=k * c, g=g, c=c)


def build_family_ii(k: float, alpha4: float, lam: float, g: float,
                    eta: int, xi: int, c: float = 1.0) -> AnsatzParams:
    """Nonlinear-wave branch; any sign pair (eta, xi) yields a solution."""
    if g == 0.0:
        raise ValueError("family II requires g != 0")
    if k == 0.0:
        raise ValueError("family II requires k != 0")
    if alpha4 == 0.0:
        raise ValueError("family II requires alpha4 != 0")
    _check_sign("eta", eta)
    _check_sign("xi", xi)
    amp = eta * k / (4.0 * g)
    return AnsatzParams(alpha1=amp, alpha2=amp,
                        alpha3=xi * alpha4 - lam / (2.0 * g),
                        alpha4=alpha4, alpha5=eta * alpha4,
                        lam=lam, k=k, omega=k * c, g=g, c=c)


def build_family_iii(k: float, omega: float, alpha4: float, lam: float,
                     g: float, eta: int = 1, c: float = 1.0) -> AnsatzParams:
    """Pure-gauge branch; no dispersion relation ties omega to k."""
    if g == 0.0:
        raise ValueError("family III requires g != 0")
    _check_sign("eta", eta)
    return AnsatzParams(alpha1=eta * omega / (2.0 * g * c),
                        alpha2=eta * k / (2.0 * g),
                        alpha3=-lam / (2.0 * g),
                        alpha4=alpha4, alpha5=eta * alpha4,
                        lam=lam, k=k, omega=omega, g=g, c=c)


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _fields_vanish(p: AnsatzParams, tol: float) -> bool:
    (ec, ecs, esn), (bc, bcs, bsn) = field_coefficient_groups(p)
    w = abs(p.omega / p.c)
    scale = max(1.0,
                abs(p.lam * p.alpha1), 2.0 * abs(p.g * p.alpha1 * p.alpha3),
                w * abs(p.alpha4), 2.0 * abs(p.g * p.alpha1 * p.alpha5),
                w * abs(p.alpha5), 2.0 * abs(p.g * p.alpha1 * p.alpha4),
                abs(p.lam * p.alpha2), 2.0 * abs(p.g * p.alpha2 * p.alpha3),
                abs(p.k * p.alpha4), 2.0 * abs(p.g * p.alpha2 * p.alpha5),
                abs(p.k * p.alpha5), 2.0 * abs(p.g * p.alpha2 * p.alpha4))
    return max(abs(v) for v in (ec, ecs, esn, bc, bcs, bsn)) <= tol * scale


def classify(p: AnsatzParams, tol: float = 1e-9, pattern_tol: float = 1e-6):
    """Decide whether p solves the equations of motion and name its branch.

    Returns a FamilySolution (priority III, then II, then I), a
    TrivialZeroField for solving configurations with vanishing fields
    outside the family patterns, or a NotASolution listing the violated
    constraints. The static case k = omega = 0 is decided by the three
    grouped static conditions rather than the nine constraints, which are
    over-strong when the phase is frozen. Raises ClassificationError for
    a verified solution matching no catalogued pattern, and ValueError
    for g = 0 (the patterns all divide by g).
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if p.g == 0.0:
        raise ValueError("family classification requires g != 0")

    if p.k == 0.0 and p.omega == 0.0:
        q = p.lam + 2.0 * p.g * (p.alpha3 + p.alpha5)
        scale_q = max(1.0, abs(p.lam), 2.0 * abs(p.g) * (abs(p.alpha3) + abs(p.alpha5)))
        groups = (
            abs(p.alpha1) * q * q / max(1.0, abs(p.alpha1) * scale_q ** 2),
            2.0 * abs(p.g) * abs(p.alpha2 ** 2 - p.alpha1 ** 2) * abs(q)
            / max(1.0, 2.0 * abs(p.g) * (p.alpha1 ** 2 + p.alpha2 ** 2) * scale_q),
            abs(p.alpha2) * q * q / max(1.0, abs(p.alpha2) * scale_q ** 2),
        )
        if max(groups) <= tol:
            return TrivialZeroField(note="static configuration, zero fields")
        return NotASolution(violated=(), worst=max(groups))

    nm = normalized_constraints(p)
    bad = tuple(int(i) + 1 for i in np.flatnonzero(nm > tol))
    if bad:
        return NotASolution(violated=bad, worst=float(nm.max()))

    two_g = 2.0 * p.g
    if _fields_vanish(p, tol):
        # family III needs a running wave amplitude; everything else
        # with zero fields is an inert vacuum configuration
        if abs(p.alpha4) > pattern_tol:
            eta = 1 if p.alpha5 * p.alpha4 >= 0.0 else -1
            ok = (
                _rel_close(p.alpha5, eta * p.alpha4, pattern_tol)
                and _rel_close(p.alpha1, eta * p.omega / (two_g * p.c), pattern_tol)
                and _rel_close(p.alpha2, eta * p.k / two_g, pattern_tol)
                and _rel_close(p.alpha3, -p.lam / two_g, pattern_tol)
            )
            if ok:
                return FamilySolution("III", k=p.k, omega=p.omega, alpha4=p.alpha4,
                                      lam=p.lam, g=p.g, c=p.c, eta=eta)
        return TrivialZeroField(note="zero fields")

    if abs(p.alpha1) > pattern_tol:
        for eta in (1, -1):
            amp = eta * p.k / (4.0 * p.g)
            if not (_rel_close(p.alpha1, amp, pattern_tol)
                    and _rel_close(p.alpha2, amp, pattern_tol)
                    and _rel_close(p.alpha5, eta * p.alpha4, pattern_tol)
                    and _rel_close(p.omega, p.k * p.c, pattern_tol)
                    and abs(p.alpha4) > pattern_tol):
                continue
            xi_val = (p.alpha3 + p.lam / two_g) / p.alpha4
            xi = 1 if xi_val >= 0.0 else -1
            if abs(xi_val - xi) <= pattern_tol * max(1.0, 1.0 / abs(p.alpha4)):
                return FamilySolution("II", k=p.k, omega=p.omega, alpha4=p.alpha4,
                                      lam=p.lam, g=p.g, c=p.c, eta=eta, xi=xi)
        raise ClassificationError(
            "solution with alpha1 != 0 outside the catalogued patterns")

    if abs(p.alpha2) <= pattern_tol:
        if (_rel_close(p.alpha5, 0.0, pattern_tol)
                and _rel_close(p.alpha3, -p.lam / two_g, pattern_tol)
                and _rel_close(p.omega, p.k * p.c, pattern_tol)):
            return FamilySolution("I", k=p.k, omega=p.omega, alpha4=p.alpha4,
                                  lam=p.lam, g=p.g, c=p.c)
    raise ClassificationError("solution outside the catalogued patterns")


# (harmonic, channel, sign) of c1..c9 among the oracle's fit coefficients:
# harmonics 1, cos, cos^2, sin; channels gauss, then ampere e_x, e_y, e_z,
# each on the rotated frame Sx, Sy, Sz
_ORACLE_ENTRIES = ((0, 0, 1), (1, 0, 1), (2, 0, -1),
                   (0, 8, 1), (1, 8, 1), (3, 7, 1),
                   (0, 9, 1), (1, 9, 1), (2, 9, 1))


def oracle_constraints(p: AnsatzParams, h: float = 1e-4, n_theta: int = 8,
                       y_samples=(-0.4, 0.37, 0.9), full_output: bool = False):
    """Recover the nine constraints from numeric residuals alone.

    Samples both residuals in numeric mode on an equispaced phase grid
    (realized through z when k dominates, through t otherwise) at several
    y values, projects every sample onto the rotated frame, and fits the
    harmonic series [1, cos, cos^2, sin] to all twelve channels by one
    least-squares solve. The nine entries of _ORACLE_ENTRIES reproduce
    nine_constraints without ever evaluating the constraint polynomials;
    this is the independent oracle the algebra is tested against.

    Raises ValueError for k = omega = 0 (frozen phase, nothing to fit)
    and for degenerate sampling plans. With full_output=True also
    returns a dict of fit diagnostics.
    """
    if n_theta < 7:
        raise ValueError("need at least 7 phase samples to separate the harmonics")
    ys = tuple(y_samples)
    if len(ys) < 2 or len(set(ys)) != len(ys):
        raise ValueError("need at least 2 distinct y samples")
    if p.k == 0.0 and p.omega == 0.0:
        raise ValueError("phase is frozen at k = omega = 0; the oracle needs a wave")

    thetas = [2.0 * math.pi * i / n_theta for i in range(n_theta)]
    use_z = abs(p.k) >= abs(p.omega)

    design, samples = [], []
    for yv in ys:
        for th in thetas:
            if use_z:
                s = SpacetimePoint(t=0.0, x=0.17, y=yv, z=th / p.k)
            else:
                # fixed z contributes k z0 to the phase; absorb it into t
                z0 = 0.3
                s = SpacetimePoint(t=(p.k * z0 - th) / p.omega, x=0.17, y=yv, z=z0)
            design.append((1.0, math.cos(th), math.cos(th) ** 2, math.sin(th)))
            ga = gauss_residual(p, s, mode="numeric", h=h)
            am = ampere_residual(p, s, mode="numeric", h=h)
            samples.append([v for e in (ga, *am.components())
                            for v in rotated_coeffs(e, p.lam, yv)])

    design, samples = np.array(design), np.array(samples)
    coef = np.linalg.lstsq(design, samples, rcond=None)[0]
    harmonic, channel, sign = np.array(_ORACLE_ENTRIES).T
    cv = ConstraintVector(*(float(v) for v in sign * coef[harmonic, channel]))
    if not full_output:
        return cv
    off = np.ones(coef.shape, dtype=bool)
    off[harmonic, channel] = False
    diagnostics = {
        "max_fit_residual": float(np.max(np.abs(design @ coef - samples))),
        "max_off_channel": float(np.max(np.abs(coef[off]))),
    }
    return cv, diagnostics


class RefineResult(NamedTuple):
    alphas: tuple[float, float, float, float, float]
    converged: bool
    iterations: int
    max_normalized: float


# Defaults of refine_alphas, also used by scan_families.
_TOL = 1e-13
_MAX_ITER = 120
# Seeds drawn and refined together. Rows never interact, so this only
# bounds the working arrays; it cannot change any output.
_BLOCK = 512
# lstsq's default singular-value cutoff for a 9 x 5 system
_RCOND = 9.0 * np.finfo(float).eps


def _check_couplings(lam, k, omega, g, c):
    """Reject couplings before any Newton work rather than part way."""
    for name, value in (("lambda", lam), ("k", k), ("omega", omega), ("g", g), ("c", c)):
        _require_finite(name, value)
    if g == 0.0:
        raise ValueError("g must be nonzero: the branch patterns divide by it")
    if c == 0.0:
        raise ValueError("c must be nonzero")


def _constraint_rows(x, couplings):
    """c1..c9 of every amplitude row of x, shape (n, 5) -> (n, 9)."""
    return np.array(_harmonics(*x.T, *couplings)).T


def _worst_normalized(f, x, couplings):
    """Largest normalized constraint per row, given the rows' values f."""
    m = np.array(_scale_monomials(*x.T, *couplings))
    scales = np.maximum(1.0, np.maximum.reduceat(m, _SCALE_STARTS[:-1], axis=0))
    return np.max(np.abs(f) / scales.T, axis=1)


def _within_tol(f, x, couplings, tol):
    """Rows whose largest normalized constraint is at most tol.

    Every scale monomial is at most 4 M^5, M the largest of 1 and the
    magnitudes of the amplitudes, lam + 2 g alpha3, k, omega / c and g;
    rows with a constraint above tol times 8 M^5 (room for rounding)
    cannot pass, which spares evaluating the scales until a row nears
    its root.
    """
    lam, k, omega, g, c = couplings
    m = np.maximum(np.abs(x).max(axis=1), np.abs(lam + 2.0 * g * x[:, 2]))
    m = np.maximum(m, max(1.0, abs(k), abs(omega / c), abs(g)))
    near = np.flatnonzero(np.abs(f).max(axis=1) <= tol * 8.0 * m ** 5)
    out = np.zeros(len(x), dtype=bool)
    if near.size:
        out[near] = _worst_normalized(f[near], x[near], couplings) <= tol
    return out


# the ten central-difference points: +d then -d along each amplitude
_STENCIL = np.repeat(np.eye(5), 2, axis=0) * np.tile([1.0, -1.0], 5)[:, None]


def _jacobian(x, couplings):
    """Central-difference Jacobian of the constraints, shape (n, 9, 5).

    All ten stencil points of every row go through one evaluation.
    """
    d = 1e-7 * np.maximum(1.0, np.abs(x))
    stencil = x[:, None, :] + _STENCIL * d[:, None, :]
    f = _constraint_rows(stencil.reshape(-1, 5), couplings).reshape(len(x), 10, 9)
    return ((f[:, 0::2] - f[:, 1::2]) / (2.0 * d)[:, :, None]).transpose(0, 2, 1)


def _newton(x0, couplings, tol, max_iter):
    """Damped least-squares Newton on every amplitude row of x0 at once.

    Returns the final rows, the iterations each took and their largest
    normalized constraint. A row stops when it converges (counting the
    iterations completed before), when its line search fails or its
    norm passes 1e8 (counting the current one), or at max_iter. Raises
    OverflowError when the constraints are not finite at x0.
    """
    x = np.array(x0, dtype=float)
    iters = np.full(len(x), max_iter)
    with np.errstate(all="ignore"):
        fx = _constraint_rows(x, couplings)
        if not np.isfinite(fx).all():
            raise OverflowError("the constraints overflow at the starting amplitudes")
        live = np.arange(len(x))
        for it in range(1, max_iter + 1):
            done = _within_tol(fx[live], x[live], couplings, tol)
            iters[live[done]] = it - 1
            live = live[~done]
            if not live.size:
                break
            xa, fa = x[live], fx[live]
            jac = _jacobian(xa, couplings)
            # a row whose Jacobian overflowed stops here, unconverged
            ok = np.isfinite(jac).all(axis=(1, 2))
            step = np.zeros_like(xa)
            step[ok] = -(np.linalg.pinv(jac[ok], rcond=_RCOND) @ fa[ok, :, None])[:, :, 0]
            base = np.linalg.norm(fa, axis=1)
            accepted = np.zeros(len(live), dtype=bool)
            t = np.ones(len(live))
            trying = np.flatnonzero(ok)
            while trying.size:
                trial = xa[trying] + t[trying, None] * step[trying]
                ftrial = _constraint_rows(trial, couplings)
                better = (np.linalg.norm(ftrial, axis=1)
                          < (1.0 - 1e-4 * t[trying]) * base[trying])
                won = trying[better]
                xa[won], fa[won] = trial[better], ftrial[better]
                accepted[won] = True
                trying = trying[~better]
                t[trying] *= 0.5
                trying = trying[t[trying] >= 2.0 ** -24]
            x[live], fx[live] = xa, fa
            stop = ~accepted | (np.linalg.norm(xa, axis=1) > 1e8)
            iters[live[stop]] = it
            live = live[~stop]
        worst = _worst_normalized(fx, x, couplings)
    return x, iters, worst


def refine_alphas(alphas0, lam: float, k: float, omega: float, g: float,
                  c: float = 1.0, tol: float = _TOL, max_iter: int = _MAX_ITER) -> RefineResult:
    """Damped least-squares Newton on the nine constraints over the amplitudes.

    The five amplitudes are the unknowns; lam, k, omega, g, c stay fixed
    and must be finite with g and c nonzero. The Jacobian is taken by
    central differences and steps come from a least-squares solve, halved
    until the residual norm decreases. The default tol runs to the
    rounding floor because near junctions of solution branches the
    constraints vanish quadratically in distance, and stopping early
    would leave roots far from every pattern. Divergent iterations report
    converged=False and are meant to be discarded by the caller. Raises
    OverflowError when the constraints overflow at alphas0.
    """
    x = np.array(alphas0, dtype=float)
    if x.shape != (5,):
        raise ValueError("alphas0 must have five entries")
    if not np.isfinite(x).all():
        raise ValueError(f"alphas0 must be finite, got {tuple(alphas0)!r}")
    _check_couplings(lam, k, omega, g, c)
    xs, iters, worst = _newton(x[None, :], (lam, k, omega, g, c), tol, max_iter)
    return RefineResult(tuple(xs[0]), bool(worst[0] <= tol), int(iters[0]), float(worst[0]))


_BRANCHES = ("I", "II", "III", "abelian-z", "pure-gauge")


def branch_projection(alphas, lam: float, k: float, omega: float, g: float,
                      c: float = 1.0) -> tuple[str, tuple[float, ...], float]:
    """Closest solution branch: its label, nearest point, and the distance.

    Each branch is a line or plane in amplitude space; projection is an
    exact least-squares fit of its free parameters (alpha4 on the wave
    families, alpha1 and alpha2 on the pure-gauge plane, alpha3 and
    alpha5 on the z-polarized plane). Branches that only exist on the
    light cone are skipped when omega is off it. Ties prefer the named
    families.
    """
    if g == 0.0:
        raise ValueError("branch patterns require g != 0")
    a1, a2, a3, a4, a5 = (float(v) for v in alphas)
    two_g = 2.0 * g
    base3 = -lam / two_g
    on_cone = abs(omega - k * c) <= 1e-9 * max(1.0, abs(k * c))
    # a root with a4 ~ 0 is a vacuum point; the planes describe it, the
    # wave families would only match it degenerately
    wavelike = abs(a4) > 1e-9
    cand: dict[str, tuple[tuple[float, ...], float]] = {}

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
            put("III", (eta * omega / (two_g * c), eta * k / two_g, base3, t, eta * t))
    put("pure-gauge", (a1, a2, base3, 0.0, 0.0))
    best = min(_BRANCHES, key=lambda name: cand.get(name, ((), math.inf))[1])
    point, dist = cand[best]
    return best, point, dist


class ScanRow(NamedTuple):
    seed_index: int
    initial: tuple[float, ...]
    alphas: tuple[float, ...]
    converged: bool
    max_constraint: float
    label: str
    distance: float
    iterations: int


def scan_families(n_seeds: int, seed: int = 0, lam: float = 0.0, k: float = 1.0,
                  omega: Optional[float] = None, g: float = 1.0, c: float = 1.0,
                  spread: float = 3.0, success_tol: float = 1e-8,
                  snap_tol: float = 1e-3) -> list[ScanRow]:
    """Random-seed search for solutions of the nine constraints.

    Seeds are drawn from numpy's default_rng(seed), five uniform values
    in [-spread, spread] per row in row order, so output is reproducible
    per version. omega defaults to k c. All seeds are Newton-refined
    together, each exactly as refine_alphas would refine it alone; a
    root counts as successful when every normalized constraint is below
    success_tol.

    Successful roots within snap_tol of a branch are polished onto its
    exact parametrization, which is accepted only when it satisfies the
    constraints at least as well as success_tol. The polish matters near
    branch junctions, where the constraints vanish cubically in the
    offset and Newton floors about a cube root of machine epsilon away
    from every branch. Roots that no branch explains at snap_tol keep
    their raw amplitudes and the label 'none', which would falsify the
    catalogue.

    Raises ValueError for non-finite couplings or g = 0 or c = 0 before
    any Newton work, and OverflowError when the constraints overflow at
    the seeds.
    """
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    if omega is None:
        omega = k * c
    _check_couplings(lam, k, omega, g, c)
    rng = np.random.default_rng(seed)
    rows = []
    for lo in range(0, n_seeds, _BLOCK):
        starts = rng.uniform(-spread, spread, size=(min(_BLOCK, n_seeds - lo), 5))
        final, iters, worsts = _newton(starts, (lam, k, omega, g, c), _TOL, _MAX_ITER)
        for j, start in enumerate(starts):
            worst = float(worsts[j])
            success = worst <= success_tol
            alphas = tuple(final[j])
            if success:
                label, point, dist = branch_projection(alphas, lam, k, omega, g, c)
                if dist <= snap_tol:
                    snapped_worst = float(np.max(normalized_constraints(
                        AnsatzParams(*point, lam=lam, k=k, omega=omega, g=g, c=c))))
                    if snapped_worst <= success_tol:
                        alphas = point
                        worst = snapped_worst
                        _, _, dist = branch_projection(point, lam, k, omega, g, c)
                    else:
                        label = "none"
                else:
                    label = "none"
            else:
                label, dist = "", math.inf
            rows.append(ScanRow(seed_index=lo + j, initial=tuple(start), alphas=alphas,
                                converged=success, max_constraint=worst, label=label,
                                distance=dist, iterations=int(iters[j])))
    return rows
