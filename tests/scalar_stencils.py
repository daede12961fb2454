"""Point-by-point complex-step stencils: the reference the column core is checked against.

Every stencil point is its own point, taken one at a time: the point
itself with imaginary parts 0 (at), and its copies moved by ih along t,
x, y and z, at the library's one step h (fields._step). At each, the
potentials and the closed forms are the library's plain arithmetic
(fields._potential_columns, fields._wave) on the cosines and sines of
the phase and the frame angle. It runs on numpy arrays of one element,
since numpy may fuse the multiply and the add of a complex product
(FMA) where Python's complex does not, which moves the sign of a zero
that underflowed; everything after it runs on Python numbers. A
derivative is Im f(s + ih) / h (complex_step), a value at the point is
the real part of f there (value), and the commutators are those of
minus_i_commutator on LieElements, zero at g = 0 (commutator). The
numeric residuals, the homogeneous equations' among them (verify's
Bianchi line and bianchi_residual), field_strength and the oracle's
samples in ymwaves run on numpy columns instead (fields._stencil); they
must equal these functions bit for bit, NaN and signed zeros included.
ymwaves has no numeric E and B of its own: they are entries of
field_strength, E_i = F_0i and B = (-F_23, -F_31, -F_12), and must equal
electric_field_numeric and magnetic_field_numeric here value for value
(a zero's sign may differ). The library's public commutator terms read
the fields at a real point (point_fields), the potentials built on the
frame of rotated_basis.
"""

import math
from types import SimpleNamespace

import numpy as np

from ymwaves.fields import (
    ColorVector,
    _potential_columns,
    _step,
    _wave,
    electric_field_analytic,
    field_coefficient_groups,
    magnetic_field_analytic,
)
from ymwaves.residuals import ResidualSample
from ymwaves.su2 import LieElement, _commutator, _frame_coeffs

AXES = ("t", "x", "y", "z")


def minus_i_commutator(a: LieElement, b: LieElement) -> LieElement:
    """-i[a, b], again traceless Hermitian; coefficients are 2 (a x b).

    This is the combination in which commutators enter the field
    definitions, e.g. -ig[phi, A] = g * minus_i_commutator(phi, A).
    """
    return LieElement(*_commutator(a.coeffs(), b.coeffs()))


def commutator(p, a: LieElement, b: LieElement) -> LieElement:
    """minus_i_commutator(a, b) in a term p.g times it: zero at g = 0, where
    the term is zero even if the commutator overflows."""
    return minus_i_commutator(a, b) if p.g else LieElement()


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


def at(s, axis=None, h=0.0):
    """Where a complex step evaluates: the coordinates of s as complex
    arrays of one element, the one along axis moved by ih. Every real part
    is s's."""
    return SimpleNamespace(**{a: np.array([complex(getattr(s, a), h if a == axis else 0.0)])
                              for a in AXES})


def angles(p, q):
    """cos and sin of the phase, then of the frame angle lam y, at the
    complex point q. An infinite angle raises math.cos's ValueError; a NaN
    phase passes, as it does through math.cos."""
    with np.errstate(all="ignore"):
        th = p.k * q.z - p.omega * q.t
        fr = p.lam * q.y
        if np.isinf(th.real).any() or np.isinf(fr.real).any():
            raise ValueError("math domain error")
        return np.cos(th), np.sin(th), np.cos(fr), np.sin(fr)


def lie(triple) -> LieElement:
    """A coefficient triple at one point, floats or arrays of one element,
    as a LieElement of Python complex numbers."""
    return LieElement(*(complex(np.ravel(v)[0]) for v in triple))


ZERO = lie((0.0, 0.0, 0.0))


def potentials(p, q):
    """phi and A at the complex point q."""
    with np.errstate(all="ignore"):
        phi, a = _potential_columns(p, *angles(p, q))
    return lie(phi), ColorVector(*map(lie, a))


def covariant_potential(p, q):
    """A_mu = (phi, -A) at the complex point q."""
    phi, a = potentials(p, q)
    return (phi, -a.ex, -a.ey, -a.ez)


def closed_forms(p, q):
    """E and B at the complex point q."""
    with np.errstate(all="ignore"):
        ey, bx = [lie(_wave(group, *angles(p, q))) for group in field_coefficient_groups(p)]
    return ColorVector(ZERO, ey, ZERO), ColorVector(bx, ZERO, ZERO)


def mapped(fn, x):
    """fn on every coefficient of a LieElement, a ColorVector or a tuple of them."""
    if isinstance(x, LieElement):
        return LieElement(*map(fn, x.coeffs()))
    if isinstance(x, ColorVector):
        return ColorVector(*(mapped(fn, e) for e in x.components()))
    return tuple(mapped(fn, e) for e in x)


def value(f, s):
    """f at s: the real parts of f at s with imaginary parts 0."""
    return mapped(lambda v: v.real, f(at(s)))


def complex_step(f, s, axis, h):
    """First derivative of f along axis at s: Im f(s + ih) / h."""
    return mapped(lambda v: v.imag / h, f(at(s, axis, h)))


def curl(f, s, h):
    dx, dy, dz = (complex_step(f, s, axis, h) for axis in ("x", "y", "z"))
    return ColorVector(dy.ez - dz.ey, dz.ex - dx.ez, dx.ey - dy.ex)


def divergence(f, s, h):
    dx, dy, dz = (complex_step(f, s, axis, h) for axis in ("x", "y", "z"))
    return dx.ex + dy.ey + dz.ez


def point_fields(p, s):
    """phi, A, E and B at the real point s: the potentials on the frame of
    rotated_basis, E and B the one-point closed forms."""
    th = p.phase(s)
    sx, sy, sz = rotated_basis(p.lam, s.y)
    ey = (p.alpha3 + p.alpha5 * math.cos(th)) * sz + (p.alpha4 * math.sin(th)) * sy
    a = ColorVector(LieElement(), ey, p.alpha2 * sx)
    return p.alpha1 * sx, a, electric_field_analytic(p, s), magnetic_field_analytic(p, s)


def stencil_fields(p, s):
    """phi, A, E and B at s as a complex step's own point gives them."""
    return value(lambda q: (*potentials(p, q), *closed_forms(p, q)), s)


def electric_field_numeric(p, s):
    """E from complex steps of the potentials plus exact commutators."""
    h = _step(p)
    da_dt = complex_step(lambda q: potentials(p, q)[1], s, "t", h)
    grad = ColorVector(*(complex_step(lambda q: potentials(p, q)[0], s, axis, h)
                         for axis in ("x", "y", "z")))
    phi, a = value(lambda q: potentials(p, q), s)
    comm = ColorVector(*(p.g * commutator(p, phi, ai) for ai in a.components()))
    return -da_dt - grad + comm


def magnetic_field_numeric(p, s):
    """B from a complex-step curl of A plus the exact quadratic term."""
    a = value(lambda q: potentials(p, q)[1], s)
    quad = ColorVector(
        p.g * commutator(p, a.ey, a.ez),
        p.g * commutator(p, a.ez, a.ex),
        p.g * commutator(p, a.ex, a.ey),
    )
    return curl(lambda q: potentials(p, q)[1], s, _step(p)) + quad


def gauss_commutator_term(p, fields):
    """-i g (A . E - E . A) from phi, A, E and B."""
    _, a, e, _ = fields
    out = LieElement()
    for ai, ei in zip(a.components(), e.components()):
        out = out + p.g * commutator(p, ai, ei)
    return out


def ampere_commutator_term(p, fields):
    """-i g ([phi, E] + A x B + B x A) from phi, A, E and B."""
    phi, a, e, b = fields
    cross = ColorVector(
        p.g * (commutator(p, a.ey, b.ez) - commutator(p, a.ez, b.ey)),
        p.g * (commutator(p, a.ez, b.ex) - commutator(p, a.ex, b.ez)),
        p.g * (commutator(p, a.ex, b.ey) - commutator(p, a.ey, b.ex)),
    )
    phi_comm = ColorVector(*(p.g * commutator(p, phi, ei) for ei in e.components()))
    return cross + phi_comm


def gauss_residual(p, s):
    """Numeric-mode Gauss residual at s."""
    div = divergence(lambda q: closed_forms(p, q)[0], s, _step(p))
    return div + gauss_commutator_term(p, stencil_fields(p, s))


def ampere_residual(p, s):
    """Numeric-mode Ampere residual at s."""
    h = _step(p)
    de_dt = complex_step(lambda q: closed_forms(p, q)[0], s, "t", h)
    curl_b = curl(lambda q: closed_forms(p, q)[1], s, h)
    return -de_dt + curl_b + ampere_commutator_term(p, stencil_fields(p, s))


def residual_sample(p, s):
    ga = gauss_residual(p, s)
    am = ampere_residual(p, s)
    norm = math.sqrt(ga.norm_squared() + sum(e.norm_squared() for e in am.components()))
    return ResidualSample(gauss=ga, ampere=am, point=s, norm=norm)


def max_residual_norm(p, points):
    return max(residual_sample(p, s).norm for s in points)


def homogeneous_residual(p, s):
    """Numeric div B and Faraday residual dB/dt + curl E + i g ([phi, B]
    - A x E - E x A) at s. D . B's commutator term, -i g (A . B - B . A),
    is left out: it vanishes identically for this ansatz."""
    h = _step(p)
    b = lambda q: closed_forms(p, q)[1]
    div = divergence(b, s, h)
    db_dt = complex_step(b, s, "t", h)
    curl_e = curl(lambda q: closed_forms(p, q)[0], s, h)
    phi, a, e, bs = stencil_fields(p, s)
    comm = ColorVector(
        p.g * (commutator(p, a.ey, e.ez) - commutator(p, a.ez, e.ey))
        - p.g * commutator(p, phi, bs.ex),
        p.g * (commutator(p, a.ez, e.ex) - commutator(p, a.ex, e.ez))
        - p.g * commutator(p, phi, bs.ey),
        p.g * (commutator(p, a.ex, e.ey) - commutator(p, a.ey, e.ex))
        - p.g * commutator(p, phi, bs.ez),
    )
    return div, db_dt + curl_e + comm


def max_numeric_norms(p, points):
    """max_residual_norm, then the largest norm of homogeneous_residual, over points."""
    def norm(s):
        div, faraday = homogeneous_residual(p, s)
        return math.sqrt(div.norm_squared() + sum(e.norm_squared() for e in faraday.components()))
    return max_residual_norm(p, points), max(norm(s) for s in points)


def field_strength(p, s):
    """Antisymmetric 4x4 tensor of LieElement from complex steps of A_mu."""
    h = _step(p)
    pot = lambda q: covariant_potential(p, q)
    here = value(pot, s)
    grad = [complex_step(pot, s, axis, h) for axis in AXES]
    f_tensor = [[LieElement() for _ in range(4)] for _ in range(4)]
    for mu in range(4):
        for nu in range(mu + 1, 4):
            val = grad[mu][nu] - grad[nu][mu] - p.g * commutator(p, here[mu], here[nu])
            f_tensor[mu][nu] = val
            f_tensor[nu][mu] = -val
    return f_tensor


def oracle_samples(p, points):
    """The oracle's (n, 12) sample matrix: both numeric residuals at each
    point on the rotated frame, gauss then ampere e_x, e_y, e_z."""
    return np.array([[v for e in (gauss_residual(p, s), *ampere_residual(p, s).components())
                      for v in rotated_coeffs(e, p.lam, s.y)] for s in points])
