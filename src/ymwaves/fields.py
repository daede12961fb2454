"""Gauge potentials and color fields for the traveling-wave ansatz.

The configuration is built from five real amplitudes on the rotated
su(2) frame Sx, Sy, Sz (see su2._along_sx), with phase
theta = k z - omega t:

    phi = alpha1 Sx
    A   = [(alpha3 + alpha5 cos theta) Sz + alpha4 sin theta Sy] e_y
          + alpha2 Sx e_z

The library works in units where the wave speed c is 1: omega is omega / c
and the time t is c t, the only forms in which c enters the phase and the
equations. The command line converts --omega, --c and its grid's t once.

The fields follow the non-Abelian definitions

    E = -dA/dt - grad phi - i g [phi, A]
    B = curl A - i g (A x A),        (A x A)_i = eps_ijk A_j A_k

and the covariant tensor F_mu_nu = d_mu A_nu - d_nu A_mu + i g [A_mu, A_nu]
with A_mu = (phi, -A) and d_0 = d/dt, so F_0i = E_i and
B_i = -(1/2) eps_ijk F_jk.

Every field comes in two routes: a closed form (the reduced algebra) and
a numeric route, field_strength, that differentiates the potentials by
complex steps and takes exact commutators. The numeric E and B are its
entries, E_i = F_0i and B_i = -(1/2) eps_ijk F_jk. Agreement of the two
routes is the correctness check for the closed forms.

Everything runs on one array core. The closed forms and the potentials
are plain arithmetic on the cosines and sines of the phase and of the
frame angle, giving coefficient triples of floats for one point and of
numpy columns for many, with the same rounding. _rows is the one way
from a (4, n) coordinate array to rows; a stencil is one block of points
(_block), the coordinates and their copies moved by ih along each axis.
_Grid streams a grid in blocks by their factors (_Grid.blocks). Every
derivative in the library is this complex step, f'(x) = Im f(x + ih) / h
(_derivative), which subtracts nothing and so truncates nothing, at the
one step _step(p). F is assembled once over its block, with su2's
triple algebra, for field_strength and verify's pure-gauge line alike.
field_strength is a one-column view of the core. The closed-form E and
B, and observables.energy_density on them, take the same arithmetic on
floats, at the cosines and sines of _angles: a trip through the column
core would cost each call its array setup, several times the call's own
work.
"""

from __future__ import annotations

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
    k and omega the wave numbers and g the coupling, in units where the
    wave speed c is 1: omega is omega / c, and a SpacetimePoint's t is c t.
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

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "alpha3", "alpha4", "alpha5",
                     "lam", "k", "omega", "g"):
            _require_finite(name, getattr(self, name))

    def phase(self, s: "SpacetimePoint") -> float:
        return _phase(self, s.t, s.z)


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


def _step(p: AnsatzParams) -> float:
    """The complex step of every derivative: the largest h that keeps h |k|,
    h |omega| and h |lam| at most 1e-10, where their cosh and sinh are 1
    and themselves. For f analytic, f'(x) = Im f(x + ih) / h + O(h^2)."""
    return 1e-10 / max(abs(p.k), abs(p.omega), abs(p.lam), 1e-300)


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


_TINY = sys.float_info.min  # the smallest normal float


class _Magnitude:
    """An expression on magnitudes, the sum of its monomials' magnitudes
    before any cancel, which bounds its rounding: + and - add, * and **
    combine, unary - keeps. Atoms enter as _Magnitude(abs(atom)), constants
    by their magnitude. Below the normal floats rounding is absolute, so a
    nonzero magnitude there, an atom or a result, counts as the smallest
    normal float."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = _TINY if 0.0 < value < _TINY else value

    __add__ = __radd__ = __sub__ = __rsub__ = lambda s, o: type(s)(s.value + _mag(o))
    __mul__ = __rmul__ = lambda s, o: type(s)(s.value * _mag(o))
    __pow__ = lambda s, n: type(s)(s.value ** n)
    __neg__ = lambda s: s


def _mag(v):
    return v.value if isinstance(v, _Magnitude) else abs(v)


def _field_groups(a1, a2, a3, a4, a5, lam, k, w, g):
    """field_coefficient_groups at the closed forms' arguments, the one place they
    are written; on _Magnitude atoms, each group's bound."""
    return (
        (-lam * a1 - 2.0 * g * a1 * a3, w * a4 - 2.0 * g * a1 * a5, -w * a5 + 2.0 * g * a1 * a4),
        (lam * a2 + 2.0 * g * a2 * a3, -k * a4 + 2.0 * g * a2 * a5, k * a5 - 2.0 * g * a2 * a4),
    )


def _values(p: AnsatzParams):
    """The amplitudes, then the couplings: the arguments of the closed forms."""
    return (p.alpha1, p.alpha2, p.alpha3, p.alpha4, p.alpha5, p.lam, p.k, p.omega, p.g)


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
    amp, (lam, k, omega, g) = _summed([m[:5]]), m[5:]
    rates = k + omega + lam + 2.0 * g * amp
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
    """A block of points as numpy columns: the phase, then cos and sin of
    the phase and of the frame angle lam y."""

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
    """The phase k z - omega t at floats or columns t and z."""
    return p.k * z - p.omega * t


def _rows(p: AnsatzParams, coords: np.ndarray) -> _Rows:
    """The rows of coords, t, x, y, z along its first axis: a (4, n) array,
    or a block of them (4, rows, n). The one way from coordinates to rows."""
    t, _, y, z = coords
    theta = _phase(p, t, z)
    return _Rows(theta, *_cos_sin(theta), *_cos_sin(p.lam * y))


def _check_count(n: int):
    """Raise ValueError for a count n >= 1 of floats that no array can hold.
    The grid core makes its values block by block, never a whole axis, but
    refuses such a count at once; the probe reserves the array and touches
    none of it."""
    try:
        np.empty(n)
    except (MemoryError, ValueError):  # ValueError: past numpy's largest size
        raise ValueError(f"count {n} is more than memory holds") from None


def _chunks(n: int):
    """The indices 0..n-1 in order, as arrays of at most _GRID_BLOCK: the
    grid core's one block rule, for grid rows, (t, z) pairs and profile
    samples alike."""
    return (np.arange(start, min(start + _GRID_BLOCK, n)) for start in range(0, n, _GRID_BLOCK))


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
    """The product grid of three axes t, y, z, held as its three _Axis
    tuples. Its row order, t slowest and z fastest, is written once, in
    indices: coordinates (and through it residuals.grid_points) and
    angle_blocks take their points from it, blocks each block's first row."""

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

    def indices(self, rows):
        """The t, y and z indices of the given row numbers: the grid's row
        order, t slowest and z fastest."""
        it, rest = np.divmod(np.asarray(rows), self.y.count * self.z.count)
        return (it, *np.divmod(rest, self.z.count))

    def coordinates(self, rows) -> np.ndarray:
        """The given row numbers as the columns t, x, y, z of a (4, n)
        array, at x = _GRID_X."""
        it, iy, iz = self.indices(rows)
        return np.array([self.t.at(it), np.full(len(it), _GRID_X), self.y.at(iy),
                         self.z.at(iz)])

    def check(self, p: AnsatzParams):
        """Raise OverflowError unless the coordinates, the phase, the frame
        angle and the field coefficients are finite over the whole grid.
        The phase and the frame angle are monotone in each coordinate, also
        after rounding, so their values at the ends of the axes bound them.
        A field coefficient on sx, sy or sz made from a group (const, cos_c,
        sin_c) (see _wave) is at most |const| + |cos_c| or |sin_c| in
        magnitude, also after rounding, so the group and these bounds being
        finite makes it finite.
        """
        t_ends, y_ends, z_ends = self.t.ends(), self.y.ends(), self.z.ends()
        checked = [_phase(p, t, z) for t in t_ends for z in z_ends]
        checked += [p.lam * y for y in y_ends]
        checked += [v for const, cos_c, sin_c in field_coefficient_groups(p)
                    for v in (abs(const) + abs(cos_c), sin_c)]
        if not all(map(math.isfinite, checked)):
            raise OverflowError("the grid coordinates, the phase, the frame angle "
                                "or the field coefficients are not finite")

    def blocks(self, p: AnsatzParams):
        """The blocks of _chunks by their factors. A block's rows are
        consecutive, so on each axis they touch a run of indices, consecutive
        modulo its count. A block is the three runs; each row's positions in
        them and in the (t, z) pairs, the t run times the z run, t slower; and
        the _Rows of the pairs' phases and the y run's frame angles, at most 3
        and 1 a row. Checks the whole grid (check) before returning."""
        self.check(p)
        ny, nz = self.y.count, self.z.count

        def blocks():
            for rows in _chunks(len(self)):
                (t0, y0, z0), r = self.indices(rows[0]), rows - rows[0]
                lines = (r + z0) // nz  # the z wraps since the first row
                at_t, at_z = (lines + y0) // ny, r % nz
                t = np.arange(t0, t0 + at_t[-1] + 1)
                y = np.arange(y0, y0 + min(ny, lines[-1] + 1)) % ny
                z = np.arange(z0, z0 + min(nz, len(r))) % nz
                theta = _phase(p, self.t.at(t)[:, None], self.z.at(z)).ravel()
                yield ((t, y, z), (at_t, lines % ny, at_z, at_t * len(z) + at_z),
                       _Rows(theta, *_cos_sin(theta), *_cos_sin(p.lam * self.y.at(y))))
        return blocks()

    def angle_blocks(self, p: AnsatzParams):
        """The cos and sin of the grid's phases, each (t, z) pair once, t
        slower, in the blocks of _chunks: the phases of the rows of the
        (t, z) plane, the grid at one y, from their t and z values alone.

        A point's phase depends on it only through its (t, z) pair, so the
        trigonometry runs on the nt nz phases, not on the nt ny nz points
        (see residuals._max_analytic_norm), and takes no frame angle.
        Checks the whole grid (check), frame angles included, before any
        block is made.
        """
        self.check(p)
        plane = _Grid(self.t, _Axis(0.0, 0.0, 1), self.z)
        return (_cos_sin(_phase(p, self.t.at(it), self.z.at(iz)))
                for it, _, iz in map(plane.indices, _chunks(len(plane))))


def _field_columns(p: AnsatzParams, angles):
    """E_y and B_x coefficients on sx, sy, sz at the cosines and sines of the
    phase and of the frame angle (_angles, _Rows.angles): floats, or
    columns over one block of rows."""
    return tuple(_wave(group, *angles) for group in field_coefficient_groups(p))


def _factored_columns(p: AnsatzParams, at_y, at_pair, rows: _Rows):
    """_field_columns at a grid block's rows (_Grid.blocks), bit for bit:
    _wave's v and w per (t, z) pair, _along_sy_sz's sx and sy parts per row
    and its sz part, 0.0 v + w, per pair, as (values, at_pair)."""
    c, minus_s = rows.cos_fr[at_y], (-rows.sin_fr)[at_y]
    columns = []
    for const, cos_c, sin_c in field_coefficient_groups(p):
        v, w = const + cos_c * rows.cos_th, sin_c * rows.sin_th
        v_rows, zero_w = v[at_pair], (0.0 * w)[at_pair]
        columns += [minus_s * v_rows + zero_w, c * v_rows + zero_w, (0.0 * v + w, at_pair)]
    return columns


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


def _block(coords: np.ndarray, h: float) -> np.ndarray:
    """Every point of coords, shape (4, n), then its copies moved by ih
    along t, x, y and z: shape (5, 4, n), complex. The step moves only an
    imaginary part, so every row's real parts are its point's coordinates,
    signed zeros included."""
    block = np.zeros((5, *coords.shape), complex)
    block.real = coords
    block.imag[range(1, 5), range(4)] = h
    return block


def _derivative(values: np.ndarray, h: float) -> np.ndarray:
    """The derivatives along t, x, y and z from values over blocks (see
    _block), Im f(x + ih) / h: shape (..., 5, n) to (..., 4, n), real."""
    return values[..., 1:, :].imag / h


def _stencil(p: AnsatzParams, coords: np.ndarray, h: float) -> _Rows:
    """The block of coords and h (see _block) as rows, each column of
    shape (5, n).

    A row's real coordinates, phase and frame angle are its point's, so
    only the points are checked, in turn: at the first whose coordinates
    are not finite this raises SpacetimePoint's ValueError, and at the
    first whose phase or frame angle is infinite, math.cos's. A NaN phase
    passes, as it does through math.cos.
    """
    t, _, y, z = coords
    with np.errstate(all="ignore"):
        rows = _rows(p, _block(coords, h).transpose(1, 0, 2))
        bad = ~np.isfinite(coords).all(axis=0) | np.isinf(_phase(p, t, z)) | np.isinf(p.lam * y)
    if bad.any():
        for axis, value in zip(_AXES, coords[:, bad.argmax()].tolist()):
            _require_finite(axis, value)
        raise ValueError("math domain error")
    return rows


def _commutators(g: float, a, b) -> np.ndarray:
    """su2._commutator(a, b) as an array, for a term g times it: zeros at
    g = 0, where the term is zero even if a commutator overflows."""
    if not g:
        return np.zeros(np.broadcast_shapes(np.shape(a), np.shape(b)))
    return np.array(_commutator(a, b))


# the entries F_mu_nu with mu < nu, in row order
_PAIRS = np.array([(mu, nu) for mu in range(4) for nu in range(mu + 1, 4)]).T


def _field_strength_columns(p: AnsatzParams, coords: np.ndarray):
    """F at every point of coords, shape (4, n), by complex steps.

    Returns F, shape (3 coefficients, 4, 4, n), from one evaluation of
    the potentials A_mu = (phi, -A) over the block: Im A(+ih) / h, then
    d_mu A_nu - d_nu A_mu - g * su2._commutator(A_mu, A_nu) above the
    diagonal and its negative below.
    """
    h = _step(p)
    rows = _stencil(p, coords, h)
    with np.errstate(all="ignore"):
        phi, a = _potential_columns(p, *rows.angles())
        pot = _stacked((phi, *a), rows.theta.shape, rows.theta.dtype)
        pot[:, 1:] = -pot[:, 1:]  # A_mu = (phi, -A); the zero e_x becomes -0.0
        # grad[:, nu, mu] = d_mu A_nu
        grad = _derivative(pot, h)
        here = pot[:, :, 0].real
        mu, nu = _PAIRS
        # i g [A_mu, A_nu] = -g * su2._commutator(A_mu, A_nu)
        comm = _commutators(p.g, here[:, mu], here[:, nu])
        upper = grad[:, nu, mu] - grad[:, mu, nu] - p.g * comm
        f = np.zeros((3, 4, 4, here.shape[-1]))
        f[:, mu, nu], f[:, nu, mu] = upper, -upper
    return f


def field_strength(p: AnsatzParams, s: SpacetimePoint):
    """Antisymmetric 4x4 tensor of LieElement, assembled numerically.

    Derivatives are complex steps; the commutator i g [A_mu, A_nu] is
    exact. Index 0 differentiates along t. A one-point view of
    _field_strength_columns.
    """
    f = _field_strength_columns(p, _coordinates([s]))
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
