"""Gauge potentials and color fields for the traveling-wave ansatz.

The configuration is built from five real amplitudes on the rotated
su(2) frame Sx, Sy, Sz (see su2.rotated_basis), with phase
theta = k z - omega t:

    phi = alpha1 Sx
    A   = [(alpha3 + alpha5 cos theta) Sz + alpha4 sin theta Sy] e_y
          + alpha2 Sx e_z

The fields follow the non-Abelian definitions

    E = -(1/c) dA/dt - grad phi - i g [phi, A]
    B = curl A - i g (A x A),        (A x A)_i = eps_ijk A_j A_k

and the covariant tensor F_mu_nu = d_mu A_nu - d_nu A_mu + i g [A_mu, A_nu]
with A_mu = (phi, -A) and d_0 = (1/c) d/dt, so F_0i = E_i and
B_i = -(1/2) eps_ijk F_jk.

Every field comes in two routes: a closed form (the reduced algebra) and
a numeric route that differentiates the potentials by central finite
differences and takes exact commutators. Agreement of the two is the
correctness check for the closed forms.

Grids go through one array core (_Grid): the closed forms are plain
arithmetic on the cosines and sines of the phase and of the frame angle,
so they run on floats for one point and on numpy columns for a block of
grid rows, with the same rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .su2 import LieElement, _along_sy_sz, minus_i_commutator, rotated_basis

__all__ = [
    "AnsatzParams",
    "SpacetimePoint",
    "ColorVector",
    "scalar_potential",
    "vector_potential",
    "electric_field_analytic",
    "magnetic_field_analytic",
    "electric_field_numeric",
    "magnetic_field_numeric",
    "field_strength",
    "field_strength_norm",
    "field_coefficient_groups",
    "shifted",
    "central_difference",
    "central_difference4",
]

_AXES = ("t", "x", "y", "z")

# Rows per block of the grid core. Grid commands evaluate and write one
# block at a time, so their memory does not grow with the grid.
_GRID_BLOCK = 1024


def _require_finite(name, value):
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class AnsatzParams:
    """Amplitudes and couplings of one configuration.

    alpha1..alpha5 are the ansatz amplitudes, lam the frame rotation rate,
    k and omega the wave numbers, g the coupling and c the wave speed.
    """

    alpha1: float = 0.0
    alpha2: float = 0.0
    alpha3: float = 0.0
    alpha4: float = 0.0
    alpha5: float = 0.0
    lam: float = 0.0
    k: float = 0.0
    omega: float = 0.0
    g: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "alpha3", "alpha4", "alpha5",
                     "lam", "k", "omega", "g", "c"):
            _require_finite(name, getattr(self, name))
        if self.c == 0.0:
            raise ValueError("c must be nonzero")

    def phase(self, s: "SpacetimePoint") -> float:
        return self.k * s.z - self.omega * s.t

    @property
    def is_abelian(self) -> bool:
        return self.g == 0.0


@dataclass(frozen=True)
class SpacetimePoint:
    t: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __post_init__(self):
        for name in ("t", "x", "y", "z"):
            _require_finite(name, getattr(self, name))


@dataclass(frozen=True)
class ColorVector:
    """Spatial vector with su(2)-valued components."""

    ex: LieElement = LieElement()
    ey: LieElement = LieElement()
    ez: LieElement = LieElement()

    def components(self) -> tuple[LieElement, LieElement, LieElement]:
        return (self.ex, self.ey, self.ez)

    def norm_squared(self) -> float:
        return sum(e.norm_squared() for e in self.components())

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def __add__(self, other):
        if not isinstance(other, ColorVector):
            return NotImplemented
        return ColorVector(self.ex + other.ex, self.ey + other.ey, self.ez + other.ez)

    def __sub__(self, other):
        if not isinstance(other, ColorVector):
            return NotImplemented
        return ColorVector(self.ex - other.ex, self.ey - other.ey, self.ez - other.ez)

    def __neg__(self):
        return ColorVector(-self.ex, -self.ey, -self.ez)

    def __mul__(self, s):
        if not isinstance(s, (int, float)):
            return NotImplemented
        return ColorVector(self.ex * s, self.ey * s, self.ez * s)

    __rmul__ = __mul__


def shifted(s: SpacetimePoint, axis: str, delta: float) -> SpacetimePoint:
    """Copy of s displaced by delta along one of 't', 'x', 'y', 'z'."""
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {_AXES}, got {axis!r}")
    return replace(s, **{axis: getattr(s, axis) + delta})


def central_difference(f, s: SpacetimePoint, axis: str, h: float):
    """Second-order first derivative of f along axis at s."""
    return (f(shifted(s, axis, h)) - f(shifted(s, axis, -h))) * (0.5 / h)


def central_difference4(f, s: SpacetimePoint, axis: str, h: float):
    """Fourth-order five-point first derivative of f along axis at s."""
    f1 = f(shifted(s, axis, h))
    f2 = f(shifted(s, axis, 2.0 * h))
    fm1 = f(shifted(s, axis, -h))
    fm2 = f(shifted(s, axis, -2.0 * h))
    return ((f1 - fm1) * 8.0 - (f2 - fm2)) * (1.0 / (12.0 * h))


def _potentials(p: AnsatzParams, s: SpacetimePoint) -> tuple[LieElement, ColorVector]:
    """phi and A at s, both on one rotated frame."""
    th = p.phase(s)
    sx, sy, sz = rotated_basis(p.lam, s.y)
    ey = (p.alpha3 + p.alpha5 * math.cos(th)) * sz + (p.alpha4 * math.sin(th)) * sy
    return p.alpha1 * sx, ColorVector(LieElement(), ey, p.alpha2 * sx)


def scalar_potential(p: AnsatzParams, s: SpacetimePoint) -> LieElement:
    """phi = alpha1 Sx at the point's y."""
    return _potentials(p, s)[0]


def vector_potential(p: AnsatzParams, s: SpacetimePoint) -> ColorVector:
    """A with its e_y wave part and constant e_z leg; e_x is zero."""
    return _potentials(p, s)[1]


def _field_monomials(a1, a2, a3, a4, a5, lam, k, omega, g, c):
    """The signed monomials of the field coefficient groups e_const, e_cos,
    e_sin, b_const, b_cos, b_sin, two per group: the one place the closed-form
    fields are written, in plain arithmetic as residuals._harmonics is."""
    w = omega / c
    return (
        (-lam * a1, -(2.0 * g * a1 * a3)),
        (w * a4, -(2.0 * g * a1 * a5)),
        (-w * a5, 2.0 * g * a1 * a4),
        (lam * a2, 2.0 * g * a2 * a3),
        (-k * a4, 2.0 * g * a2 * a5),
        (k * a5, -(2.0 * g * a2 * a4)),
    )


def _values(p: AnsatzParams):
    """The amplitudes, then the couplings: the arguments of the closed forms."""
    return (p.alpha1, p.alpha2, p.alpha3, p.alpha4, p.alpha5, p.lam, p.k, p.omega, p.g, p.c)


def field_coefficient_groups(p: AnsatzParams):
    """Harmonic coefficients of the closed-form fields.

    Returns ((e_const, e_cos, e_sin), (b_const, b_cos, b_sin)) where the
    electric e_y component is (e_const + e_cos cos th) Sy + e_sin sin th Sz
    and the magnetic e_x component is the same shape with the b groups.
    """
    (a, b), (c, d), (e, f), (g, h), (i, j), (k, l) = _field_monomials(
        p.alpha1, p.alpha2, p.alpha3, p.alpha4, p.alpha5, p.lam, p.k, p.omega, p.g, p.c)
    return (a + b, c + d, e + f), (g + h, i + j, k + l)


def _wave(group, cos_th, sin_th, cos_fr, sin_fr):
    """(const + cos_c cos th) Sy + sin_c sin th Sz for one coefficient group
    (const, cos_c, sin_c), as coefficients on sx, sy, sz.

    Plain arithmetic, so the cosines and sines of the phase th and of the
    frame angle lam y may be floats or numpy columns.
    """
    const, cos_c, sin_c = group
    return _along_sy_sz(cos_fr, sin_fr, const + cos_c * cos_th, sin_c * sin_th)


def _angles(p: AnsatzParams, s: SpacetimePoint):
    """cos and sin of the phase, then of the frame angle lam y, at s."""
    th = p.phase(s)
    fr = p.lam * s.y
    return math.cos(th), math.sin(th), math.cos(fr), math.sin(fr)


def electric_field_analytic(p: AnsatzParams, s: SpacetimePoint) -> ColorVector:
    """Closed form of E; only the e_y component is nonzero."""
    ey = _wave(field_coefficient_groups(p)[0], *_angles(p, s))
    return ColorVector(LieElement(), LieElement(*ey), LieElement())


def magnetic_field_analytic(p: AnsatzParams, s: SpacetimePoint) -> ColorVector:
    """Closed form of B; only the e_x component is nonzero."""
    ex = _wave(field_coefficient_groups(p)[1], *_angles(p, s))
    return ColorVector(LieElement(*ex), LieElement(), LieElement())


class _Rows(NamedTuple):
    """A block of points as numpy columns: the coordinates, then cos and
    sin of the phase and of the frame angle lam y."""

    t: np.ndarray
    y: np.ndarray
    z: np.ndarray
    theta: np.ndarray
    cos_th: np.ndarray
    sin_th: np.ndarray
    cos_fr: np.ndarray
    sin_fr: np.ndarray

    def angles(self):
        return self.cos_th, self.sin_th, self.cos_fr, self.sin_fr


def _rows(p: AnsatzParams, t, y, z, cos_fr, sin_fr) -> _Rows:
    theta = p.k * z - p.omega * t  # AnsatzParams.phase on columns
    return _Rows(t, y, z, theta, np.cos(theta), np.sin(theta), cos_fr, sin_fr)


def _point_rows(p: AnsatzParams, points) -> _Rows:
    """The points of a list of SpacetimePoints as one block."""
    t, y, z = (np.array([getattr(s, axis) for s in points], dtype=float)
               for axis in ("t", "y", "z"))
    return _rows(p, t, y, z, np.cos(p.lam * y), np.sin(p.lam * y))


def _grid_axis(lo, hi, n) -> np.ndarray:
    """One (start, stop, count) axis of a grid; a single count collapses to
    the start value.

    An axis that overflows holds inf or nan, without a numpy warning; its
    users reject it (SpacetimePoint, _Grid.blocks).
    """
    n = int(n)
    if n < 1:
        raise ValueError("grid counts must be >= 1")
    if n == 1:
        return np.array([float(lo)])
    with np.errstate(all="ignore"):
        return lo + np.arange(n) * ((hi - lo) / (n - 1))


class _Grid:
    """The product grid of three axes t, y, z, t slowest and z fastest,
    held as its axes; residuals.grid_points lists the same points."""

    def __init__(self, t, y, z):
        self.t, self.y, self.z = t, y, z

    @classmethod
    def from_ranges(cls, t_range, y_range, z_range) -> "_Grid":
        return cls(*(_grid_axis(*r) for r in (t_range, y_range, z_range)))

    def __len__(self) -> int:
        return len(self.t) * len(self.y) * len(self.z)

    def point(self, i: int, x: float) -> SpacetimePoint:
        """Row i as a SpacetimePoint at the given x."""
        it, rest = divmod(i, len(self.y) * len(self.z))
        iy, iz = divmod(rest, len(self.z))
        return SpacetimePoint(t=float(self.t[it]), x=x, y=float(self.y[iy]),
                              z=float(self.z[iz]))

    def blocks(self, p: AnsatzParams):
        """The rows in blocks of at most _GRID_BLOCK, as _Rows.

        Checks first, before any block is made, that the coordinates, the
        phase, the frame angle and the field coefficients are finite over
        the whole grid, and raises OverflowError otherwise. The phase and
        the frame angle are monotone in each coordinate, also after
        rounding, so their values at the ends of the axes bound them.
        """
        t_ends = (float(self.t.min()), float(self.t.max()))
        z_ends = (float(self.z.min()), float(self.z.max()))
        checked = [p.k * z - p.omega * t for t in t_ends for z in z_ends]
        checked += [p.lam * float(self.y.min()), p.lam * float(self.y.max())]
        checked += [v for group in field_coefficient_groups(p) for v in group]
        if not all(map(math.isfinite, checked)):
            raise OverflowError("the grid coordinates, the phase, the frame angle "
                                "or the field coefficients are not finite")
        return self._blocks(p)

    def _blocks(self, p: AnsatzParams):
        ny, nz = len(self.y), len(self.z)
        # the frame depends on y alone: one cos and sin per y value
        cos_y, sin_y = np.cos(p.lam * self.y), np.sin(p.lam * self.y)
        n = len(self)
        for start in range(0, n, _GRID_BLOCK):
            it, rest = np.divmod(np.arange(start, min(start + _GRID_BLOCK, n)), ny * nz)
            iy, iz = np.divmod(rest, nz)
            yield _rows(p, self.t[it], self.y[iy], self.z[iz], cos_y[iy], sin_y[iy])


def _field_columns(p: AnsatzParams, rows: _Rows):
    """E_y and B_x coefficient columns on sx, sy, sz over one block of rows."""
    return tuple(_wave(group, *rows.angles()) for group in field_coefficient_groups(p))


def _check_h(h: float):
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"step h must be positive and finite, got {h!r}")


def electric_field_numeric(p: AnsatzParams, s: SpacetimePoint, h: float = 1e-4) -> ColorVector:
    """E from finite differences of the potentials plus exact commutators."""
    _check_h(h)
    pot = lambda q: scalar_potential(p, q)
    vec = lambda q: vector_potential(p, q)
    da_dt = central_difference(vec, s, "t", h)
    grad = ColorVector(
        central_difference(pot, s, "x", h),
        central_difference(pot, s, "y", h),
        central_difference(pot, s, "z", h),
    )
    phi, a = _potentials(p, s)
    comm = ColorVector(*(p.g * minus_i_commutator(phi, ai) for ai in a.components()))
    return (-1.0 / p.c) * da_dt - grad + comm


def _curl(diff, f, s: SpacetimePoint, h: float) -> ColorVector:
    """Curl of the ColorVector-valued f at s, one stencil diff per axis."""
    dx, dy, dz = (diff(f, s, axis, h) for axis in ("x", "y", "z"))
    return ColorVector(dy.ez - dz.ey, dz.ex - dx.ez, dx.ey - dy.ex)


def magnetic_field_numeric(p: AnsatzParams, s: SpacetimePoint, h: float = 1e-4) -> ColorVector:
    """B from a finite-difference curl plus the exact quadratic term."""
    _check_h(h)
    curl = _curl(central_difference, lambda q: vector_potential(p, q), s, h)
    a = vector_potential(p, s)
    quad = ColorVector(
        p.g * minus_i_commutator(a.ey, a.ez),
        p.g * minus_i_commutator(a.ez, a.ex),
        p.g * minus_i_commutator(a.ex, a.ey),
    )
    return curl + quad


def _covariant_potential(p: AnsatzParams, s: SpacetimePoint) -> tuple[LieElement, ...]:
    """A_mu = (phi, -A) at s."""
    phi, a = _potentials(p, s)
    return (phi, -a.ex, -a.ey, -a.ez)


def field_strength(p: AnsatzParams, s: SpacetimePoint, h: float = 1e-4):
    """Antisymmetric 4x4 tensor of LieElement, assembled numerically.

    Derivatives are second-order central differences; the commutator
    i g [A_mu, A_nu] is exact. Index 0 differentiates via (1/c) d/dt.
    """
    _check_h(h)
    here = _covariant_potential(p, s)
    # grad[mu][nu] = d_mu A_nu, one stencil over the whole 4-potential per axis
    grad = []
    for mu, axis in enumerate(_AXES):
        plus = _covariant_potential(p, shifted(s, axis, h))
        minus = _covariant_potential(p, shifted(s, axis, -h))
        row = [(u - v) * (0.5 / h) for u, v in zip(plus, minus)]
        grad.append([(1.0 / p.c) * d for d in row] if mu == 0 else row)

    f_tensor = [[LieElement() for _ in range(4)] for _ in range(4)]
    for mu in range(4):
        for nu in range(mu + 1, 4):
            # i g [A_mu, A_nu] = -g * minus_i_commutator(A_mu, A_nu)
            val = grad[mu][nu] - grad[nu][mu] \
                - p.g * minus_i_commutator(here[mu], here[nu])
            f_tensor[mu][nu] = val
            f_tensor[nu][mu] = -val
    return f_tensor


def field_strength_norm(f_tensor) -> float:
    """Root of the summed squared coefficients over all 16 entries."""
    return math.sqrt(sum(f_tensor[m][n].norm_squared() for m in range(4) for n in range(4)))
