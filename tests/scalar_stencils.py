"""Point-by-point finite-difference stencils: the reference the column core is checked against.

Every stencil point is its own SpacetimePoint, every field is evaluated
through the one-point closed forms, and the potentials are built on the
rotated frame of rotated_basis, a tuple of LieElements, with the
commutators of minus_i_commutator on LieElements. The numeric residuals,
the homogeneous equations' among them, field_strength, bianchi_residual
and the oracle's samples in ymwaves run
on numpy columns instead (fields._stencil); they must equal these
functions bit for bit, NaN and signed zeros included. ymwaves has no
numeric E and B of its own: they are entries of field_strength,
E_i = F_0i and B = (-F_23, -F_31, -F_12), and must equal
electric_field_numeric and magnetic_field_numeric here value for value
(a zero's sign may differ).
"""

import math
from dataclasses import replace
from itertools import combinations

import numpy as np

from ymwaves.fields import ColorVector, electric_field_analytic, magnetic_field_analytic
from ymwaves.residuals import ResidualSample
from ymwaves.su2 import LieElement, _commutator, _frame_coeffs

AXES = ("t", "x", "y", "z")


def minus_i_commutator(a: LieElement, b: LieElement) -> LieElement:
    """-i[a, b], again traceless Hermitian; coefficients are 2 (a x b).

    This is the combination in which commutators enter the field
    definitions, e.g. -ig[phi, A] = g * minus_i_commutator(phi, A).
    """
    return LieElement(*_commutator(a.coeffs(), b.coeffs()))


def rotated_basis(lam: float, y: float) -> tuple[LieElement, LieElement, LieElement]:
    """y-dependent frame Sx, Sy, Sz obtained by rotating sx, sy about sz.

    Sx = cos(lam y) sx + sin(lam y) sy, Sy = -sin(lam y) sx + cos(lam y) sy,
    Sz = sz. The frame keeps the su(2) relations ([Sx, Sy] = 2i Sz and
    cyclic) for every y, and d/dy gives lam Sy and -lam Sx respectively.
    """
    c = math.cos(lam * y)
    s = math.sin(lam * y)
    return (
        LieElement(c, s, 0.0),
        LieElement(-s, c, 0.0),
        LieElement(0.0, 0.0, 1.0),
    )


def rotated_coeffs(e: LieElement, lam: float, y: float) -> tuple[float, float, float]:
    """Components of e on the rotated frame at (lam, y)."""
    return _frame_coeffs(math.cos(lam * y), math.sin(lam * y), e.coeffs())


def shifted(s, axis, delta):
    """Copy of s displaced by delta along one of 't', 'x', 'y', 'z'."""
    return replace(s, **{axis: getattr(s, axis) + delta})


def central_difference(f, s, axis, h):
    """Second-order first derivative of f along axis at s."""
    return (f(shifted(s, axis, h)) - f(shifted(s, axis, -h))) * (0.5 / h)


def central_difference4(f, s, axis, h):
    """Fourth-order five-point first derivative of f along axis at s."""
    f1 = f(shifted(s, axis, h))
    f2 = f(shifted(s, axis, 2.0 * h))
    fm1 = f(shifted(s, axis, -h))
    fm2 = f(shifted(s, axis, -2.0 * h))
    return ((f1 - fm1) * 8.0 - (f2 - fm2)) * (1.0 / (12.0 * h))


def potentials(p, s):
    """phi and A at s, both on one rotated frame."""
    th = p.phase(s)
    sx, sy, sz = rotated_basis(p.lam, s.y)
    ey = (p.alpha3 + p.alpha5 * math.cos(th)) * sz + (p.alpha4 * math.sin(th)) * sy
    return p.alpha1 * sx, ColorVector(LieElement(), ey, p.alpha2 * sx)


def covariant_potential(p, s):
    """A_mu = (phi, -A) at s."""
    phi, a = potentials(p, s)
    return (phi, -a.ex, -a.ey, -a.ez)


def curl(diff, f, s, h):
    dx, dy, dz = (diff(f, s, axis, h) for axis in ("x", "y", "z"))
    return ColorVector(dy.ez - dz.ey, dz.ex - dx.ez, dx.ey - dy.ex)


def electric_field_numeric(p, s, h=1e-4):
    """E from central differences of the potentials plus exact commutators."""
    da_dt = central_difference(lambda q: potentials(p, q)[1], s, "t", h)
    grad = ColorVector(*(central_difference(lambda q: potentials(p, q)[0], s, axis, h)
                         for axis in ("x", "y", "z")))
    phi, a = potentials(p, s)
    comm = ColorVector(*(p.g * minus_i_commutator(phi, ai) for ai in a.components()))
    return (-1.0 / p.c) * da_dt - grad + comm


def magnetic_field_numeric(p, s, h=1e-4):
    """B from a central-difference curl of A plus the exact quadratic term."""
    a = potentials(p, s)[1]
    quad = ColorVector(
        p.g * minus_i_commutator(a.ey, a.ez),
        p.g * minus_i_commutator(a.ez, a.ex),
        p.g * minus_i_commutator(a.ex, a.ey),
    )
    return curl(central_difference, lambda q: potentials(p, q)[1], s, h) + quad


def gauss_commutator_term(p, s):
    a = potentials(p, s)[1]
    e = electric_field_analytic(p, s)
    out = LieElement()
    for ai, ei in zip(a.components(), e.components()):
        out = out + p.g * minus_i_commutator(ai, ei)
    return out


def ampere_commutator_term(p, s):
    phi, a = potentials(p, s)
    e = electric_field_analytic(p, s)
    b = magnetic_field_analytic(p, s)
    cross = ColorVector(
        p.g * (minus_i_commutator(a.ey, b.ez) - minus_i_commutator(a.ez, b.ey)),
        p.g * (minus_i_commutator(a.ez, b.ex) - minus_i_commutator(a.ex, b.ez)),
        p.g * (minus_i_commutator(a.ex, b.ey) - minus_i_commutator(a.ey, b.ex)),
    )
    phi_comm = ColorVector(*(p.g * minus_i_commutator(phi, ei) for ei in e.components()))
    return cross + phi_comm


def gauss_residual(p, s, h=1e-4):
    """Numeric-mode Gauss residual at s."""
    e = lambda q: electric_field_analytic(p, q)
    div = (
        central_difference4(e, s, "x", h).ex
        + central_difference4(e, s, "y", h).ey
        + central_difference4(e, s, "z", h).ez
    )
    return div + gauss_commutator_term(p, s)


def ampere_residual(p, s, h=1e-4):
    """Numeric-mode Ampere residual at s."""
    de_dt = central_difference4(lambda q: electric_field_analytic(p, q), s, "t", h)
    curl_b = curl(central_difference4, lambda q: magnetic_field_analytic(p, q), s, h)
    return (-1.0 / p.c) * de_dt + curl_b + ampere_commutator_term(p, s)


def residual_sample(p, s, h=1e-4):
    ga = gauss_residual(p, s, h)
    am = ampere_residual(p, s, h)
    norm = math.sqrt(ga.norm_squared() + sum(e.norm_squared() for e in am.components()))
    return ResidualSample(gauss=ga, ampere=am, point=s, norm=norm)


def max_residual_norm(p, points, h=1e-4):
    return max(residual_sample(p, s, h).norm for s in points)


def homogeneous_residual(p, s, h=1e-4):
    """Numeric div B and Faraday residual (1/c) dB/dt + curl E + i g ([phi, B]
    - A x E - E x A) at s. D . B's commutator term, -i g (A . B - B . A),
    is left out: it vanishes identically for this ansatz."""
    b = lambda q: magnetic_field_analytic(p, q)
    div = (
        central_difference4(b, s, "x", h).ex
        + central_difference4(b, s, "y", h).ey
        + central_difference4(b, s, "z", h).ez
    )
    db_dt = central_difference4(b, s, "t", h)
    curl_e = curl(central_difference4, lambda q: electric_field_analytic(p, q), s, h)
    phi, a = potentials(p, s)
    e, bs = electric_field_analytic(p, s), magnetic_field_analytic(p, s)
    comm = ColorVector(
        p.g * (minus_i_commutator(a.ey, e.ez) - minus_i_commutator(a.ez, e.ey))
        - p.g * minus_i_commutator(phi, bs.ex),
        p.g * (minus_i_commutator(a.ez, e.ex) - minus_i_commutator(a.ex, e.ez))
        - p.g * minus_i_commutator(phi, bs.ey),
        p.g * (minus_i_commutator(a.ex, e.ey) - minus_i_commutator(a.ey, e.ex))
        - p.g * minus_i_commutator(phi, bs.ez),
    )
    return div, (1.0 / p.c) * db_dt + curl_e + comm


def max_numeric_norms(p, points, h=1e-4):
    """max_residual_norm, then the largest norm of homogeneous_residual, over points."""
    def norm(s):
        div, faraday = homogeneous_residual(p, s, h)
        return math.sqrt(div.norm_squared() + sum(e.norm_squared() for e in faraday.components()))
    return max_residual_norm(p, points, h), max(norm(s) for s in points)


def field_strength(p, s, h=1e-4):
    """Antisymmetric 4x4 tensor of LieElement from central differences of A_mu."""
    here = covariant_potential(p, s)
    grad = []
    for mu, axis in enumerate(AXES):
        plus = covariant_potential(p, shifted(s, axis, h))
        minus = covariant_potential(p, shifted(s, axis, -h))
        row = [(u - v) * (0.5 / h) for u, v in zip(plus, minus)]
        grad.append([(1.0 / p.c) * d for d in row] if mu == 0 else row)
    f_tensor = [[LieElement() for _ in range(4)] for _ in range(4)]
    for mu in range(4):
        for nu in range(mu + 1, 4):
            val = grad[mu][nu] - grad[nu][mu] - p.g * minus_i_commutator(here[mu], here[nu])
            f_tensor[mu][nu] = val
            f_tensor[nu][mu] = -val
    return f_tensor


def bianchi_residual(p, s, h=1e-4, inner_h=None):
    if inner_h is None:
        inner_h = 0.5 * h
    f_here = field_strength(p, s, inner_h)
    f_plus = [field_strength(p, shifted(s, ax, h), inner_h) for ax in AXES]
    f_minus = [field_strength(p, shifted(s, ax, -h), inner_h) for ax in AXES]
    a_here = covariant_potential(p, s)

    def cov_deriv(mu, nu, ga):
        d = (f_plus[mu][nu][ga] - f_minus[mu][nu][ga]) * (0.5 / h)
        if mu == 0:
            d = (1.0 / p.c) * d
        return d - p.g * minus_i_commutator(a_here[mu], f_here[nu][ga])

    total = 0.0
    for mu, nu, ga in combinations(range(4), 3):
        term = cov_deriv(mu, nu, ga) + cov_deriv(nu, ga, mu) + cov_deriv(ga, mu, nu)
        total += term.norm_squared()
    return math.sqrt(total)


def oracle_samples(p, points, h=1e-4):
    """The oracle's (n, 12) sample matrix: both numeric residuals at each
    point on the rotated frame, gauss then ampere e_x, e_y, e_z."""
    return np.array([[v for e in (gauss_residual(p, s, h), *ampere_residual(p, s, h).components())
                      for v in rotated_coeffs(e, p.lam, s.y)] for s in points])
