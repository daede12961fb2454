"""Gauge potentials and color fields for the traveling-wave ansatz.

The configuration is built from five real amplitudes on the rotated
su(2) frame Sx, Sy, Sz (see su2._along_sx), with phase
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
a numeric route, field_strength, that differentiates the potentials by
central finite differences and takes exact commutators. The numeric E
and B are its entries, E_i = F_0i and B_i = -(1/2) eps_ijk F_jk.
Agreement of the two routes is the correctness check for the closed
forms.

Everything runs on one array core. The closed forms and the potentials
are plain arithmetic on the cosines and sines of the phase and of the
frame angle, giving coefficient triples of floats for one point and of
numpy columns for many, with the same rounding. _rows is the one way
from a (4, n) coordinate array to rows: _Grid streams a grid through it
in blocks, and a stencil is one block of points (_block), the
coordinates and their copies moved along each axis by the steps of a
scheme: _central, _five_point or _complex_step, whose step ih subtracts
nothing. F is assembled once over its block, with su2's triple algebra,
for field_strength, verify's pure-gauge line and the Bianchi probe
alike. The one-point functions are views.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .su2 import LieElement, _along_sx, _along_sy_sz, _commutator, _Triple

__all__ = [
    "AnsatzParams",
    "SpacetimePoint",
    "ColorVector",
    "electric_field_analytic",
    "magnetic_field_analytic",
    "field_strength",
    "field_strength_norm",
    "field_coefficient_groups",
]

_AXES = ("t", "x", "y", "z")

# Rows per block of the grid core. Grid commands evaluate and write one
# block at a time, so their memory does not grow with the grid.
_GRID_BLOCK = 1024
_GRID_X = 0.31  # x of grid points, nonzero so that accidental x-dependence shows up


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
class ColorVector(_Triple):
    """Spatial vector with su(2)-valued components, added component by component."""

    ex: LieElement = LieElement()
    ey: LieElement = LieElement()
    ez: LieElement = LieElement()

    def components(self) -> tuple[LieElement, LieElement, LieElement]:
        return (self.ex, self.ey, self.ez)

    _parts = components

    def norm_squared(self) -> float:
        return self.ex.norm_squared() + self.ey.norm_squared() + self.ez.norm_squared()


# The differencing schemes, first derivatives, and their steps: the
# multiples of h at which each takes f, in the order of its arguments
def _central(f1, fm1, h: float):  # second order
    return (f1 - fm1) * (0.5 / h)


def _five_point(f1, f2, fm1, fm2, h: float):  # fourth order
    return ((f1 - fm1) * 8.0 - (f2 - fm2)) * (1.0 / (12.0 * h))


def _complex_step(f1, h: float):  # no subtraction, so no cancellation at any h
    return f1.imag / h


_CENTRAL = (1.0, -1.0)
_FIVE_POINT = (1.0, 2.0, -1.0, -2.0)
_COMPLEX_STEP = (1j,)  # for f analytic: f'(x) = Im f(x + ih) / h + O(h^2)
_SCHEMES = {_CENTRAL: _central, _FIVE_POINT: _five_point, _COMPLEX_STEP: _complex_step}

# the zero coefficient triple of a field component that vanishes; _stacked
# leaves it as the zeros it starts from
_ZERO = (0.0, 0.0, 0.0)


def _potential_columns(p: AnsatzParams, cos_th, sin_th, cos_fr, sin_fr):
    """phi and the components of A as coefficient triples on one rotated
    frame, from the cosines and sines of the phase and of the frame angle
    lam y: plain arithmetic on floats or numpy columns, rounding as alpha Sx
    and u Sz + v Sy on LieElements."""
    phi = _along_sx(cos_fr, sin_fr, p.alpha1)
    ey = _along_sy_sz(cos_fr, sin_fr, p.alpha4 * sin_th, p.alpha3 + p.alpha5 * cos_th)
    ez = _along_sx(cos_fr, sin_fr, p.alpha2)
    return phi, (_ZERO, ey, ez)


class _Magnitude:
    """An expression on magnitudes, the sum of its monomials' magnitudes
    before any cancel, which bounds its rounding: + and - add, *, / and **
    combine, unary - keeps. Atoms enter as _Magnitude(abs(atom)), constants
    by their magnitude. Below the normal floats rounding is absolute, so a
    nonzero magnitude there, an atom or a result, counts as the smallest
    normal float."""

    def __init__(self, value):
        self.value = sys.float_info.min if 0.0 < value < sys.float_info.min else value

    __add__ = __radd__ = __sub__ = __rsub__ = lambda s, o: type(s)(s.value + _mag(o))
    __mul__ = __rmul__ = lambda s, o: type(s)(s.value * _mag(o))
    __truediv__ = lambda s, o: type(s)(s.value / _mag(o))
    __pow__ = lambda s, n: type(s)(s.value ** n)
    __neg__ = lambda s: s


def _mag(v):
    return v.value if isinstance(v, _Magnitude) else abs(v)


def _field_groups(a1, a2, a3, a4, a5, lam, k, omega, g, c):
    """field_coefficient_groups at the closed forms' arguments, the one place they
    are written; on _Magnitude atoms, each group's bound."""
    w = omega / c
    return (
        (-lam * a1 - 2.0 * g * a1 * a3, w * a4 - 2.0 * g * a1 * a5, -w * a5 + 2.0 * g * a1 * a4),
        (lam * a2 + 2.0 * g * a2 * a3, -k * a4 + 2.0 * g * a2 * a5, k * a5 - 2.0 * g * a2 * a4),
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
    return _field_groups(*_values(p))


def _fields_vanish(p: AnsatzParams, tol: float) -> bool:
    """Whether every field coefficient group is within tol of zero, relative
    to its own bound: the group evaluated on magnitudes (_Magnitude)."""
    bounds = _field_groups(*(_Magnitude(abs(v)) for v in _values(p)))
    pairs = zip(sum(field_coefficient_groups(p), ()), sum(bounds, ()))
    return all(abs(v) <= tol * b.value for v, b in pairs)


def _derivative_bounds(p: AnsatzParams):
    """The bounds on magnitudes of the equations of E and B, then of F: the
    six field groups, then the amplitudes, summed, times the rates of a
    derivative or a commutator with phi or A. No bound of c1..c9 exceeds
    the first (measured, to an ulp), so what passes verify's analytic line
    passes its numeric one."""
    m = [_Magnitude(abs(v)) for v in _values(p)]
    amp, (lam, k, omega, g, c) = _summed([m[:5]]), m[5:]
    rates = k + omega / c + lam + 2.0 * g * amp
    return (_summed(_field_groups(*m)) * rates).value, (amp * rates).value


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
    """A block of points as numpy columns: the coordinates, the phase, then
    cos and sin of the phase and of the frame angle lam y."""

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


def _cos_sin(angle):
    """cos and sin of an array of angles: the grid core's one trigonometry."""
    return np.cos(angle), np.sin(angle)


def _phase(p: AnsatzParams, t, z):
    """AnsatzParams.phase on columns."""
    return p.k * z - p.omega * t


def _rows(p: AnsatzParams, coords: np.ndarray) -> _Rows:
    """The rows of coords, t, x, y, z along its first axis: a (4, n) array,
    or a block of them (4, rows, n). The one way from coordinates to rows."""
    t, _, y, z = coords
    theta = _phase(p, t, z)
    return _Rows(t, y, z, theta, *_cos_sin(theta), *_cos_sin(p.lam * y))


def _check_count(n: int):
    """Raise ValueError for a count n >= 1 of floats that no array can hold.
    The grid core makes its values block by block, never a whole axis, but
    refuses such a count at once; the probe reserves the array and touches
    none of it."""
    try:
        if len(np.empty(n)) != n:
            raise MemoryError
    except (MemoryError, ValueError):  # ValueError: past numpy's largest size
        raise ValueError(f"count {n} is more than memory holds") from None


class _Axis(NamedTuple):
    """A grid axis as (start, step, count): value i is start + i * step, or
    start alone for a single count. Its values are made from their indices
    as they are needed; no axis is held whole. They are monotone in i, also
    after rounding, so its ends bound them.

    An axis that overflows holds inf or nan, on which numpy warns; its
    users reject it first (_Grid.check) or silence numpy (grid_points).
    """

    start: float
    step: float
    count: int

    def at(self, i) -> np.ndarray:
        """The values at the index array i."""
        if self.count == 1:
            return np.full(np.shape(i), float(self.start))
        return self.start + i * self.step

    def ends(self):
        """The first and the last value, as at rounds them, as floats."""
        if self.count == 1:
            return float(self.start), float(self.start)
        return self.start + 0 * self.step, self.start + (self.count - 1) * self.step


def _grid_axis(lo, hi, n) -> _Axis:
    """One (start, stop, count) axis of a grid; a single count collapses to
    the start value. A count that is not whole, is below 1, or that no array
    can hold (_check_count), is a ValueError.
    """
    if isinstance(n, float) and not n.is_integer():  # int() would drop its fraction
        raise ValueError(f"count must be a whole number >= 1, got {n}")
    n = int(n)
    if n < 1:
        raise ValueError(f"count must be >= 1, got {n}")
    if n == 1:
        return _Axis(lo, 0.0, 1)
    _check_count(n)
    return _Axis(lo, (hi - lo) / (n - 1), n)


class _Grid:
    """The product grid of three axes t, y, z, t slowest and z fastest,
    held as its axes (_Axis, or any with a count, values at indices and
    ends); residuals.grid_points lists the same points."""

    def __init__(self, t, y, z):
        self.t, self.y, self.z = t, y, z

    @classmethod
    def from_ranges(cls, t_range, y_range, z_range) -> "_Grid":
        """The grid of three (start, stop, count) ranges; a bad count is a
        ValueError that names its axis."""
        axes = []
        for name, r in zip("tyz", (t_range, y_range, z_range)):
            try:
                axes.append(_grid_axis(*r))
            except ValueError as exc:
                raise ValueError(f"grid axis {name}: {exc}") from None
        return cls(*axes)

    def __len__(self) -> int:
        return self.t.count * self.y.count * self.z.count

    def coordinates(self, rows) -> np.ndarray:
        """The given row numbers as the columns t, x, y, z of a (4, n)
        array, at x = _GRID_X."""
        it, rest = np.divmod(np.asarray(rows), self.y.count * self.z.count)
        iy, iz = np.divmod(rest, self.z.count)
        return np.array([self.t.at(it), np.full(len(it), _GRID_X), self.y.at(iy),
                         self.z.at(iz)])

    def check(self, p: AnsatzParams):
        """Raise OverflowError unless the coordinates, the phase, the frame
        angle and the field coefficients are finite over the whole grid.
        The phase and the frame angle are monotone in each coordinate, also
        after rounding, so their values at the ends of the axes bound them.
        """
        t_ends, y_ends, z_ends = self.t.ends(), self.y.ends(), self.z.ends()
        checked = [_phase(p, t, z) for t in t_ends for z in z_ends]
        checked += [p.lam * y for y in y_ends]
        checked += [v for group in field_coefficient_groups(p) for v in group]
        if not all(map(math.isfinite, checked)):
            raise OverflowError("the grid coordinates, the phase, the frame angle "
                                "or the field coefficients are not finite")

    def blocks(self, p: AnsatzParams):
        """The rows in blocks of at most _GRID_BLOCK, as _Rows, in grid order.
        Checks the whole grid (check) before any block is made."""
        self.check(p)
        n = len(self)
        return (_rows(p, self.coordinates(np.arange(start, min(start + _GRID_BLOCK, n))))
                for start in range(0, n, _GRID_BLOCK))

    def angle_blocks(self, p: AnsatzParams):
        """The cos and sin of the grid's phases in chunks of at most
        _GRID_BLOCK: each a row over (t, z) pairs, t slower, every pair once.

        A point's phase depends on it only through its (t, z) pair, so the
        trigonometry runs on the nt nz phases, not on the nt ny nz points,
        and no frame angle is taken (see residuals._max_analytic_norm).
        Each phase rounds as in _rows. Checks the whole grid (check),
        frame angles included, before any chunk is made.
        """
        self.check(p)
        nt, nz = self.t.count, self.z.count
        per_z = min(nz, _GRID_BLOCK)
        per_t = _GRID_BLOCK // per_z

        def chunks():
            for t0 in range(0, nt, per_t):
                t = self.t.at(np.arange(t0, min(t0 + per_t, nt)))[:, None]
                for z0 in range(0, nz, per_z):
                    z = self.z.at(np.arange(z0, min(z0 + per_z, nz)))
                    yield _cos_sin(_phase(p, t, z).ravel())
        return chunks()


def _field_columns(p: AnsatzParams, rows: _Rows):
    """E_y and B_x coefficient columns on sx, sy, sz over one block of rows."""
    return tuple(_wave(group, *rows.angles()) for group in field_coefficient_groups(p))


def _stacked(triples, shape=(), dtype=float) -> np.ndarray:
    """Coefficient triples of floats or columns of the given shape as one
    array (3 coefficients, len(triples), *shape) of dtype. The array starts
    as zeros, and a triple that is _ZERO is not copied into it."""
    out = np.zeros((3, len(triples), *shape), dtype)
    for j, e in enumerate(triples):
        if e is not _ZERO:
            for i, c in enumerate(e):
                out[i, j] = c
    return out


def _coordinates(points) -> np.ndarray:
    """t, x, y, z of a list of SpacetimePoints as the rows of a (4, n) array."""
    return np.array([(s.t, s.x, s.y, s.z) for s in points], dtype=float).reshape(-1, 4).T


@functools.cache
def _offsets(steps) -> np.ndarray:
    """The multiples of h by which each row of the block of steps moves t, x, y, z."""
    offsets = np.vstack([np.zeros(4), *(m * np.eye(4) for m in steps)])
    offsets.flags.writeable = False  # one array per scheme, shared by every call
    return offsets


def _block(coords: np.ndarray, steps, h: float) -> np.ndarray:
    """Every point of coords, shape (4, n), and its copies moved by m h
    along t, x, y and z for each m in steps, shape (1 + 4 len(steps), 4, n):
    the point first, then for each step the four axes. The moved
    coordinate is coordinate + m * h; the others are copied, signed zeros
    included."""
    offsets = _offsets(steps)[:, :, None]
    with np.errstate(all="ignore"):
        return np.where(offsets != 0.0, coords + offsets * h, coords)


def _derivative(values: np.ndarray, steps, h: float) -> np.ndarray:
    """The derivatives along t, x, y and z from values over blocks of the
    scheme of steps (_SCHEMES): shape (..., rows, n) to (..., 4, n), real."""
    moved = values[..., 1:, :].reshape(*values.shape[:-2], -1, 4, values.shape[-1])
    return _SCHEMES[steps](*(moved[..., j, :, :] for j in range(moved.shape[-3])), h)


def _stencil(p: AnsatzParams, coords: np.ndarray, steps, h: float, axes: str,
             here: bool = False) -> _Rows:
    """The block of coords and steps (see _block) as rows, each column of
    shape (rows, n).

    A point-by-point evaluation visits the point itself if here, then each
    axis of axes at the steps in turn. At the first row so visited, taking
    the points in turn, whose coordinates are not finite this raises
    SpacetimePoint's ValueError, and at the first whose phase or frame
    angle is infinite, math.cos's. A NaN phase passes, as it does through
    math.cos. Rows not visited are not checked.
    """
    moved = _block(coords, steps, h)
    with np.errstate(all="ignore"):
        rows = _rows(p, moved.transpose(1, 0, 2))
    # the common case: with every coordinate, phase and frame cosine finite
    # no row is bad, and the order of the visit does not matter
    if (np.isfinite(moved).all() and np.isfinite(rows.theta).all()
            and np.isfinite(rows.cos_fr).all()):
        return rows
    with np.errstate(all="ignore"):
        bad = (~np.isfinite(moved).all(axis=1) | np.isinf(rows.theta)
               | np.isinf(p.lam * rows.y))  # the frame angle
    order = [0] * here + [1 + 4 * j + _AXES.index(a) for a in axes for j in range(len(steps))]
    hits = np.flatnonzero(bad[order].T)
    if hits.size:
        i, k = divmod(int(hits[0]), len(order))
        for axis, value in zip(_AXES, moved[order[k], :, i].real.tolist()):
            _require_finite(axis, value)
        raise ValueError("math domain error")
    return rows


def _check_h(h: float, name: str = "step h"):  # the Bianchi budget divides by h ** 2
    if not (h > 0.0 and math.isfinite(h) and h * h > 0.0):
        raise ValueError(f"{name} must be positive and finite, with h ** 2 above 0, got {h!r}")


# the entries F_mu_nu with mu < nu, in row order
_PAIRS = np.array([(mu, nu) for mu in range(4) for nu in range(mu + 1, 4)]).T


def _field_strength_columns(p: AnsatzParams, coords: np.ndarray, steps, h: float):
    """F at every point of coords, shape (4, n), by the scheme of steps.

    Returns F, shape (3 coefficients, 4, 4, n), and A_mu = (phi, -A) at
    the points, shape (3, 4, n), from one evaluation of the potentials
    over the block. With _CENTRAL each value rounds as field_strength's:
    (A(+h) - A(-h)) * (0.5 / h), then (1 / c) times the t row, then
    d_mu A_nu - d_nu A_mu - g * su2._commutator(A_mu, A_nu) above the
    diagonal and its negative below.
    """
    rows = _stencil(p, coords, steps, h, "txyz", here=True)
    with np.errstate(all="ignore"):
        phi, a = _potential_columns(p, *rows.angles())
        pot = _stacked((phi, *a), rows.theta.shape, rows.theta.dtype)
        pot[:, 1:] = -pot[:, 1:]  # A_mu = (phi, -A); the zero e_x becomes -0.0
        # grad[:, nu, mu] = d_mu A_nu
        grad = _derivative(pot, steps, h)
        grad[:, :, 0] = (1.0 / p.c) * grad[:, :, 0]
        here = pot[:, :, 0].real
        mu, nu = _PAIRS
        # i g [A_mu, A_nu] = -g * su2._commutator(A_mu, A_nu)
        upper = (grad[:, nu, mu] - grad[:, mu, nu]
                 - p.g * np.array(_commutator(here[:, mu], here[:, nu])))
        f = np.zeros((3, 4, 4, here.shape[-1]))
        f[:, mu, nu], f[:, nu, mu] = upper, -upper
    return f, here


def field_strength(p: AnsatzParams, s: SpacetimePoint, h: float = 1e-4):
    """Antisymmetric 4x4 tensor of LieElement, assembled numerically.

    Derivatives are second-order central differences; the commutator
    i g [A_mu, A_nu] is exact. Index 0 differentiates via (1/c) d/dt.
    A one-point view of _field_strength_columns.
    """
    _check_h(h)
    f = _field_strength_columns(p, _coordinates([s]), _CENTRAL, h)[0]
    return [[LieElement(*c) for c in row] for row in f[..., 0].transpose(1, 2, 0).tolist()]


def _summed(table):
    """The sum of a table of floats or columns in row order, one + at a time."""
    total = 0.0
    for row in table:
        for v in row:
            total = total + v
    return total


def field_strength_norm(f_tensor) -> float:
    """Root of the summed squared coefficients over all 16 entries."""
    return math.sqrt(_summed([[e.norm_squared() for e in row] for row in f_tensor]))
