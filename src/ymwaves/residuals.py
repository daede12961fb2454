"""Equation-of-motion residuals for the ansatz fields.

Three residuals are exposed:

    gauss:   div E - i g (A . E - E . A)
    ampere:  -(1/c) dE/dt + curl B - i g ([phi, E] + A x B + B x A)
    bianchi: cyclic covariant derivative of the field strength,
             D_mu F_nu_ga + D_nu F_ga_mu + D_ga F_mu_nu

A configuration solves the equations of motion iff gauss and ampere
vanish for all points; bianchi vanishes identically for any potentials
and is tracked purely as a discretization diagnostic.

The analytic mode reads the residuals off the nine constraint
polynomials c1..c9 (ConstraintVector), the harmonic groups of the
reduced algebra. The numeric mode differentiates the closed-form fields
with five-point stencils and adds exact commutators, which makes it an
independent check of that reduction. The closed-form fields themselves
are checked against finite differences of the potentials in the fields
module, so the two links together cover the whole derivation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .fields import (
    _AXES,
    AnsatzParams,
    ColorVector,
    SpacetimePoint,
    _angles,
    _check_h,
    _covariant_potential,
    _curl,
    _grid_axis,
    _point_rows,
    _potentials,
    _values,
    central_difference4,
    electric_field_analytic,
    field_strength,
    magnetic_field_analytic,
    shifted,
    vector_potential,
)
from .su2 import LieElement, _along_sx, _along_sy_sz, minus_i_commutator

__all__ = [
    "ConstraintVector",
    "gauss_residual",
    "ampere_residual",
    "gauss_commutator_term",
    "ampere_commutator_term",
    "bianchi_residual",
    "ResidualSample",
    "residual_sample",
    "grid_points",
    "max_residual_norm",
    "residual_allowance",
    "bianchi_allowance",
    "field_strength_allowance",
]

_MODES = ("analytic", "numeric")


class ConstraintVector(NamedTuple):
    """The nine constraint polynomial values c1..c9, in fixed order.

    They are the harmonic groups of the two residuals. The gauss residual
    is (c1 + c2 cos th - c3 cos^2 th) Sx; the ampere residual has e_y
    part (c4 + c5 cos th) Sz + c6 sin th Sy and e_z part
    (c7 + c8 cos th + c9 cos^2 th) Sx.
    """

    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    c6: float
    c7: float
    c8: float
    c9: float

    def as_array(self) -> np.ndarray:
        return np.array(self, dtype=float)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.as_array())))


def _harmonics(a1, a2, a3, a4, a5, lam, k, omega, g, c) -> ConstraintVector:
    """The nine constraint polynomials, the one place they are written.

    Plain arithmetic only, so the amplitudes may be floats or equal-length
    numpy arrays (one configuration per entry); the batched Newton of
    constraints.scan_families evaluates it on amplitude columns.
    """
    w = omega / c
    x = lam + 2.0 * g * a3
    quad = k ** 2 - w ** 2 - 4.0 * g ** 2 * (a1 ** 2 - a2 ** 2)
    mix = w * a1 - k * a2
    return ConstraintVector(
        c1=a1 * x ** 2 + 2.0 * g * a4 * (2.0 * g * a1 * a4 - w * a5),
        c2=x * (4.0 * g * a1 * a5 - w * a4),
        c3=4.0 * g ** 2 * a1 * (a4 ** 2 - a5 ** 2),
        c4=2.0 * g * (a2 ** 2 - a1 ** 2) * x,
        c5=a5 * quad + 4.0 * g * a4 * mix,
        c6=a4 * quad + 4.0 * g * a5 * mix,
        c7=a2 * x ** 2 + 2.0 * g * a4 * (2.0 * g * a2 * a4 - k * a5),
        c8=x * (4.0 * g * a2 * a5 - k * a4),
        c9=4.0 * g ** 2 * a2 * (a5 ** 2 - a4 ** 2),
    )


def _check_mode(mode: str):
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")


def gauss_commutator_term(p: AnsatzParams, s: SpacetimePoint) -> LieElement:
    """Exact -i g (A . E - E . A) with the closed-form E; zero at g = 0."""
    a = vector_potential(p, s)
    e = electric_field_analytic(p, s)
    out = LieElement()
    for ai, ei in zip(a.components(), e.components()):
        out = out + p.g * minus_i_commutator(ai, ei)
    return out


def _residual_coefficients(cv: ConstraintVector, cos_th, sin_th, cos_fr, sin_fr):
    """Gauss, ampere e_y and ampere e_z residuals as coefficients on sx, sy, sz.

    Plain arithmetic on c1..c9 and the cosines and sines of the phase and
    of the frame angle, which may be floats or numpy columns.
    """
    c1, c2, c3, c4, c5, c6, c7, c8, c9 = cv
    return (
        _along_sx(cos_fr, sin_fr, c1 + c2 * cos_th - c3 * cos_th * cos_th),
        _along_sy_sz(cos_fr, sin_fr, c6 * sin_th, c4 + c5 * cos_th),
        _along_sx(cos_fr, sin_fr, c7 + c8 * cos_th + c9 * cos_th * cos_th),
    )


def _analytic_residuals(p: AnsatzParams, s: SpacetimePoint):
    """Gauss and ampere residuals at s, read off c1..c9."""
    gauss, ey, ez = _residual_coefficients(_harmonics(*_values(p)), *_angles(p, s))
    return LieElement(*gauss), ColorVector(LieElement(), LieElement(*ey), LieElement(*ez))


def _max_analytic_norm(p: AnsatzParams, blocks) -> float:
    """Largest residual_sample norm over blocks of rows (fields._Rows).

    c1..c9 are evaluated once. The norms round as residual_sample's do,
    so the result equals the max of residual_sample(...).norm over the
    same points. Raises OverflowError when a norm is not finite.
    """
    cv = _harmonics(*_values(p))
    worst = -math.inf
    with np.errstate(all="ignore"):
        for rows in blocks:
            gauss, ey, ez = (LieElement(*u).norm_squared()
                             for u in _residual_coefficients(cv, *rows.angles()))
            norms = np.sqrt(gauss + (ey + ez))
            top = float(norms.max())
            if not math.isfinite(top):
                raise OverflowError("the analytic residual is not finite")
            worst = max(worst, top)
    return worst


def gauss_residual(p: AnsatzParams, s: SpacetimePoint,
                   mode: str = "analytic", h: float = 1e-4) -> LieElement:
    """Gauss-law residual at one point; a LieElement along Sx for this ansatz."""
    _check_mode(mode)
    if mode == "analytic":
        return _analytic_residuals(p, s)[0]
    _check_h(h)
    e = lambda q: electric_field_analytic(p, q)
    div = (
        central_difference4(e, s, "x", h).ex
        + central_difference4(e, s, "y", h).ey
        + central_difference4(e, s, "z", h).ez
    )
    return div + gauss_commutator_term(p, s)


def ampere_commutator_term(p: AnsatzParams, s: SpacetimePoint) -> ColorVector:
    """Exact -i g ([phi, E] + A x B + B x A) with closed-form fields; zero at g = 0."""
    phi, a = _potentials(p, s)
    e = electric_field_analytic(p, s)
    b = magnetic_field_analytic(p, s)
    # -i g (A x B + B x A)_i = g eps_ijk minus_i_commutator(A_j, B_k)
    cross = ColorVector(
        p.g * (minus_i_commutator(a.ey, b.ez) - minus_i_commutator(a.ez, b.ey)),
        p.g * (minus_i_commutator(a.ez, b.ex) - minus_i_commutator(a.ex, b.ez)),
        p.g * (minus_i_commutator(a.ex, b.ey) - minus_i_commutator(a.ey, b.ex)),
    )
    phi_comm = ColorVector(*(p.g * minus_i_commutator(phi, ei) for ei in e.components()))
    return cross + phi_comm


def ampere_residual(p: AnsatzParams, s: SpacetimePoint,
                    mode: str = "analytic", h: float = 1e-4) -> ColorVector:
    """Ampere-law residual at one point, as a ColorVector."""
    _check_mode(mode)
    if mode == "analytic":
        return _analytic_residuals(p, s)[1]
    _check_h(h)
    de_dt = central_difference4(lambda q: electric_field_analytic(p, q), s, "t", h)
    curl_b = _curl(central_difference4, lambda q: magnetic_field_analytic(p, q), s, h)
    return (-1.0 / p.c) * de_dt + curl_b + ampere_commutator_term(p, s)


def bianchi_residual(p: AnsatzParams, s: SpacetimePoint, h: float = 1e-4,
                     inner_h: float | None = None) -> float:
    """Norm of the cyclic covariant derivative of the numeric field strength.

    Identically zero in exact arithmetic for any parameters; the returned
    value is pure discretization error, O(h^2) in the step (see
    bianchi_allowance for the scale).

    The tensor fed to the outer derivative is assembled with its own step
    inner_h, half the outer step by default. With equal steps the nested
    symmetric differences telescope for this ansatz (nothing depends on
    x, the wave phase rides on a single potential component per axis, and
    the one doubly y-dependent commutator is [Sx, Sx] = 0), so the
    residual would collapse to rounding noise and carry no convergence
    order to measure; pass inner_h=h to observe that collapse.
    """
    _check_h(h)
    if inner_h is None:
        inner_h = 0.5 * h
    _check_h(inner_h)
    f_here = field_strength(p, s, inner_h)
    f_plus = [field_strength(p, shifted(s, ax, h), inner_h) for ax in _AXES]
    f_minus = [field_strength(p, shifted(s, ax, -h), inner_h) for ax in _AXES]
    a_here = _covariant_potential(p, s)

    def cov_deriv(mu, nu, ga):
        d = (f_plus[mu][nu][ga] - f_minus[mu][nu][ga]) * (0.5 / h)
        if mu == 0:
            d = (1.0 / p.c) * d
        # i g [A_mu, F_nu_ga] = -g * minus_i_commutator(A_mu, F_nu_ga)
        return d - p.g * minus_i_commutator(a_here[mu], f_here[nu][ga])

    total = 0.0
    for mu, nu, ga in combinations(range(4), 3):
        term = cov_deriv(mu, nu, ga) + cov_deriv(nu, ga, mu) + cov_deriv(ga, mu, nu)
        total += term.norm_squared()
    return math.sqrt(total)


@dataclass(frozen=True)
class ResidualSample:
    """Both equation-of-motion residuals at one point, with a combined norm."""

    gauss: LieElement
    ampere: ColorVector
    point: SpacetimePoint
    norm: float


def residual_sample(p: AnsatzParams, s: SpacetimePoint,
                    mode: str = "analytic", h: float = 1e-4) -> ResidualSample:
    """Evaluate both residuals at s and bundle them with their joint norm."""
    _check_mode(mode)
    if mode == "analytic":
        ga, am = _analytic_residuals(p, s)
    else:
        ga = gauss_residual(p, s, mode=mode, h=h)
        am = ampere_residual(p, s, mode=mode, h=h)
    norm = math.sqrt(ga.norm_squared() + am.norm_squared())
    return ResidualSample(gauss=ga, ampere=am, point=s, norm=norm)


# x of grid points, nonzero so that accidental x-dependence shows up
_GRID_X = 0.31


def grid_points(t_range, y_range, z_range, x: float = _GRID_X):
    """Points of a rectangular (t, y, z) grid at fixed x.

    Each range is (start, stop, count) with count >= 1; a single count
    collapses to the start value. x is held at a nonzero default so that
    accidental x-dependence in anything evaluated on the grid shows up.
    """
    t, y, z = (_grid_axis(*r).tolist() for r in (t_range, y_range, z_range))
    return [SpacetimePoint(t=tv, x=x, y=yv, z=zv) for tv in t for yv in y for zv in z]


def max_residual_norm(p: AnsatzParams, points,
                      mode: str = "analytic", h: float = 1e-4) -> float:
    """Largest combined residual norm over an iterable of points."""
    _check_mode(mode)
    if mode == "analytic":
        return _max_analytic_norm(p, [_point_rows(p, list(points))])
    return max(residual_sample(p, s, mode=mode, h=h).norm for s in points)


def _scales(p: AnsatzParams):
    freq = max(abs(p.k), abs(p.omega) / abs(p.c), abs(p.lam), 1.0)
    amp = 1.0 + sum(abs(a) for a in (p.alpha1, p.alpha2, p.alpha3, p.alpha4, p.alpha5))
    return freq, amp


def residual_allowance(p: AnsatzParams, h: float) -> float:
    """Error budget for the numeric residual modes at step h.

    Fifth-derivative truncation of the five-point stencils plus a
    roundoff floor. Prefactors are calibrated against measured worst
    cases (3.5e-2 and 0.15 respectively, amplitudes to ~10, frequencies
    to ~3) and carry roughly a 10x margin.
    """
    freq, amp = _scales(p)
    field_scale = amp * freq * (1.0 + abs(p.g) * amp)
    truncation = 0.3 * field_scale * freq ** 5 * h ** 4
    roundoff = 3.0 * 2.3e-16 * field_scale / h
    return truncation + roundoff


def bianchi_allowance(p: AnsatzParams, h: float) -> float:
    """Error budget for the finite-difference Bianchi residual at step h.

    The nested differencing is second order; the budget scales with the
    fourth power of the largest frequency (an outer derivative of the
    inner truncation error) and with the commutator amplitudes. The
    roundoff floor carries the 1/h^2 amplification of the nested
    stencils. Prefactors are calibrated against measured worst cases
    (1.3e-2 and 0.2, amplitudes to ~50) with roughly a 10x margin.
    """
    freq, amp = _scales(p)
    poly = amp * (1.0 + abs(p.g) * amp)
    truncation = 0.15 * poly * freq ** 4 * h ** 2
    roundoff = 3.0 * 2.3e-16 * poly / h ** 2
    return truncation + roundoff


def field_strength_allowance(p: AnsatzParams, h: float) -> float:
    """Error budget for a second-order field-strength evaluation at step h.

    Third-derivative truncation of the central differences plus a
    roundoff floor; the 0.5 prefactor sits 5-10x above measured worst
    cases for amplitudes to ~10 and frequencies to ~5. This bounds the
    finite-difference noise in F itself, which is what "F vanishes"
    checks must compare against.
    """
    _check_h(h)
    freq, amp = _scales(p)
    truncation = 0.5 * amp * freq ** 3 * h ** 2
    roundoff = 3.0 * 2.3e-16 * amp * freq / h
    return truncation + roundoff
