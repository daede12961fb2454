"""Equation-of-motion residuals for the ansatz fields.

Three residuals are exposed, in the fields module's units, where the
wave speed c is 1 (omega is omega / c and t is c t):

    gauss:   div E - i g (A . E - E . A)
    ampere:  -dE/dt + curl B - i g ([phi, E] + A x B + B x A)
    bianchi: cyclic covariant derivative of the field strength,
             D_mu F_nu_ga + D_nu F_ga_mu + D_ga F_mu_nu, whose four
             independent sums are the homogeneous equations below

A configuration solves the equations of motion iff gauss and ampere
vanish for all points. The Bianchi identity holds for any potentials,
and with it the homogeneous equations vanish

    div B                                  (D . B, whose commutator
                                            term vanishes for the ansatz)
    dB/dt + curl E + i g ([phi, B] - A x E - E x A)

for every amplitude, not only on solutions. They are checked on the
closed-form E and B, beside the numeric gauss and ampere and from the
same derivatives (_numeric_residuals), so the check sees closed forms
that are the fields of no potential: verify's Bianchi line over its
points, bianchi_residual at one.

gauss_residual, ampere_residual, max_residual_norm and the analytic mode
of residual_sample read the residuals off the nine constraint
polynomials c1..c9 (ConstraintVector), the harmonic groups of the
reduced algebra, written once in _polynomials, which on magnitudes also
gives the constraints' bounds. Their joint norm is one formula in c1..c9 and
the cosine and sine of the phase (_analytic_norm_squared): the frame
Sx, Sy, Sz is a rotation of sx, sy, sz, so the norm takes no frame
angle, and verify takes its largest over a grid's (t, z) phases, not its
points (_max_analytic_norm). The numeric mode differentiates the
closed-form fields by complex steps, which truncate nothing, and adds
exact commutators, which makes it an independent check of that
reduction; residual_sample takes it at one point, the oracle at its
samples and verify as its largest norm over many points
(_max_numeric_norms). The closed-form fields themselves are checked
against complex steps of the potentials in the fields module, so the
two links together cover the whole derivation.

Both routes run on numpy columns, the points a (4, n) array of t, x, y,
z. The numeric route evaluates E and B once over the block of its
points (fields._stencil), phi and A once at the points, and takes
every derivative, commutator and norm on the arrays with su2's triple
algebra (_numeric_residuals), gauss, ampere and the homogeneous
equations in every call.
bianchi_residual and the numeric mode of residual_sample are one-column
views of these columns. The analytic residuals (gauss_residual,
ampere_residual, the analytic mode of residual_sample) and the
commutator terms take the same arithmetic on floats, at the cosines and
sines of fields._angles: a trip through the column core would cost each
call its array setup, several times the call's own work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fields import (
    _ZERO,
    AnsatzParams,
    ColorVector,
    SpacetimePoint,
    _angles,
    _commutators,
    _coordinates,
    _cos_sin,
    _derivative,
    _field_columns,
    _Grid,
    _phase,
    _potential_columns,
    _stacked,
    _stencil,
    _step,
    _values,
)
from .su2 import LieElement, _along_sx, _along_sy_sz, _norm_squared

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
]

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


# the atoms of c1..c9 by name, in the order _harmonics forms them
_ATOM_NAMES = ("alpha1", "alpha2", "lambda + 2 g alpha3", "alpha4", "alpha5", "k", "omega / c",
               "g")


def _harmonics(a1, a2, a3, a4, a5, lam, k, omega, g) -> ConstraintVector:
    """c1..c9 at the closed forms' arguments (fields._values), floats,
    columns or _Magnitudes (bounds), in their atoms, x = lam + 2 g alpha3
    for lam and alpha3. A column overflows to inf; a float atom whose
    square overflows raises OverflowError, which names it."""
    atoms = a1, a2, lam + 2.0 * g * a3, a4, a5, k, omega, g
    try:
        return _polynomials(*atoms)
    except OverflowError:
        raise _squares_overflow(_ATOM_NAMES, atoms) from None


def _squares_overflow(names, atoms) -> OverflowError:
    """The error for a float ** in c1..c9 or their bounds that overflowed,
    which reports only errno 34. A float ** raises only at a finite base,
    so it names the finite atoms whose square overflows, and apart from
    them an atom already infinite, which overflowed in its own sum."""
    bound = hasattr(atoms[0], "value")  # a bound's atoms are fields._Magnitude
    big = [(f"{name}{' on magnitudes' * bound} = {a!r}", math.isinf(a))
           for name, a in zip(names, (getattr(a, "value", a) for a in atoms))
           if type(a) is float and math.isinf(a * a)]
    summed = "".join(f"{atom} overflows in its own sum, and " for atom, inf in big if inf)
    return OverflowError(f"{summed}squaring {' and '.join(atom for atom, inf in big if not inf)} "
                         f"overflows in the {'bounds of the ' * bound}constraints c1..c9")


def _polynomials(a1, a2, x, a4, a5, k, w, g) -> ConstraintVector:
    """c1..c9 in their atoms, the one place they are written: on magnitudes
    their bounds; expanded once into monomials, the Newton core's values,
    Jacobian and the same bounds (constraints._term_table)."""
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


# Below, a LieElement of columns is an array of shape (3, n), its sx, sy,
# sz coefficients first, and a ColorVector one of shape (3, 3, n), the
# coefficient, then the spatial component. The su2 triple algebra
# (_commutator, _norm_squared) takes these arrays as they are.

# (A x B)_i = A_j B_k - A_k B_j for the cyclic (i, j, k): j and k per i
_J, _K = [1, 2, 0], [2, 0, 1]
# (curl F)_i = d_j F_k - d_k F_j for F = E, then B: the entries d_j F_k,
# then d_k F_j, of their derivatives flattened as (component, axis t x y z)
_CURL = [np.array([4 * (f + a) + 1 + b for f in (0, 3) for b, a in zip(*pair)])
         for pair in ((_J, _K), (_K, _J))]
# The commutators of _commutator_terms as pairs of rows of the _fields_at
# array (phi, A, E, B), each for i = x, y, z: A_i with E_i, phi with E_i,
# phi with B_i, A_j with B_k, A_j with E_k, A_k with B_j and A_k with E_j;
# gauss and ampere take twelve, the homogeneous equations the other nine
_LEFT = np.array([1, 2, 3, 0, 0, 0, 0, 0, 0, *(1 + j for j in _J * 2), *(1 + k for k in _K * 2)])
_RIGHT = np.array([4, 5, 6, 4, 5, 6, 7, 8, 9, *(7 + k for k in _K), *(4 + k for k in _K),
                   *(7 + j for j in _J), *(4 + j for j in _J)])


def _vector_at(v: np.ndarray) -> ColorVector:
    """The ColorVector of floats held by an array of shape (3, 3)."""
    return ColorVector(*(LieElement(*c) for c in v.T.tolist()))


def _commutator_terms(g: float, fields: np.ndarray):
    """-i g (A . E - E . A), its components summed in order as LieElements
    would sum them, -i g ([phi, E] + A x B + B x A), and the commutator
    terms of Faraday's law (see _numeric_residuals), from phi and the
    components of A, E and B as one array (see _fields_at). All twenty-one
    commutators (_LEFT, _RIGHT) are taken in one stacked call; at g = 0
    every term is zero."""
    comm = _commutators(g, fields.take(_LEFT, axis=1), fields.take(_RIGHT, axis=1))
    terms = g * comm[:, :9]
    # -i g (A x B + B x A)_i = g eps_ijk su2._commutator(A_j, B_k), and so
    # with E; Faraday's takes -g su2._commutator(phi, B_i)
    cross = g * (comm[:, 9:15] - comm[:, 15:21])
    return (0.0 + terms[:, 0] + terms[:, 1] + terms[:, 2], cross[:, :3] + terms[:, 3:6],
            cross[:, 3:] - terms[:, 6:9])


def _point_terms(p: AnsatzParams, s: SpacetimePoint):
    """_commutator_terms at s, overflowing to inf or NaN silently as floats
    do: phi, A and the closed-form E and B at the angles of s, laid out as
    _fields_at lays out a block."""
    angles = _angles(p, s)
    phi, a = _potential_columns(p, *angles)
    ey, bx = _field_columns(p, angles)
    fields = _stacked((phi, *a, _ZERO, ey, _ZERO, bx, _ZERO, _ZERO))
    with np.errstate(all="ignore"):
        return _commutator_terms(p.g, fields)


def gauss_commutator_term(p: AnsatzParams, s: SpacetimePoint) -> LieElement:
    """Exact -i g (A . E - E . A) with the closed-form E; zero at g = 0."""
    return LieElement(*_point_terms(p, s)[0].tolist())


def ampere_commutator_term(p: AnsatzParams, s: SpacetimePoint) -> ColorVector:
    """Exact -i g ([phi, E] + A x B + B x A) with closed-form fields; zero at g = 0."""
    return _vector_at(_point_terms(p, s)[1])


def _fields_at(p: AnsatzParams, rows) -> np.ndarray:
    """phi, then the components of A, E and B, over a stencil block of rows
    (fields._Rows) of shape (rows, n) as one array (3, 10, rows, n). E and
    B are taken on every row; phi and A, which only the commutators at the
    points read, on the first row alone, the points themselves, and are
    zero on the others."""
    shape, dtype = rows.theta.shape, rows.theta.dtype
    ey, bx = _field_columns(p, rows.angles())
    fields = _stacked((_ZERO,) * 5 + (ey, _ZERO, bx, _ZERO, _ZERO), shape, dtype)
    phi, a = _potential_columns(p, *(v[0] for v in rows.angles()))
    fields[:, :4, 0] = _stacked((phi, *a), shape[1:], dtype)
    return fields


def _numeric_residuals(p: AnsatzParams, coords: np.ndarray):
    """Numeric-mode gauss and ampere residuals at every point of coords,
    shape (4, n), as arrays of shape (3, n) and (3, 3, n), then the
    homogeneous equations' residuals of the same shapes, div B and
    Faraday's dB/dt + curl E + i g ([A_0, B] - A x E - E x A) with
    A_0 = phi, from the same derivatives and one stacked commutator call.
    D . B drops its commutator term, -i g (A . B - B . A): A has no e_x
    part and B nothing else, so it vanishes identically for this ansatz.

    E and B are evaluated once over the block of the points and their
    complex steps, phi and A once at the points (_fields_at).
    """
    h = _step(p)
    rows = _stencil(p, coords, h)
    with np.errstate(all="ignore"):
        fields = _fields_at(p, rows)
        # d[:, i, mu] = d_mu E_i at the points, then d_mu B_i; below, E's
        # div, curl and d/dt, then B's, at once
        d = _derivative(fields[:, 4:], h)
        div = d[:, 0::3, 1] + d[:, 1::3, 2] + d[:, 2::3, 3]
        flat = d.reshape(3, 24, -1)
        curl = flat.take(_CURL[0], axis=1) - flat.take(_CURL[1], axis=1)
        rate = d[:, :, 0]
        comm = _commutator_terms(p.g, fields[:, :, 0].real)
        # curl B - dE/dt rounds as -dE/dt + curl B
        ampere = curl[:, 3:] - rate[:, :3] + comm[1]
        faraday = rate[:, 3:] + curl[:, :3] + comm[2]
        gauss = div[:, 0] + comm[0]
    return gauss, ampere, (div[:, 1], faraday)


def _largest_norm(scalar: np.ndarray, vector: np.ndarray) -> float:
    """The largest over the points of sqrt(|scalar|^2 + |vector|^2), a
    residual of shape (3, n) beside one of shape (3, 3, n): the one norm of
    the numeric residuals, of residual_sample, verify and bianchi_residual
    alike, summed as LieElement and ColorVector sum it."""
    with np.errstate(all="ignore"):
        v = _norm_squared(vector)
        norms = np.sqrt(_norm_squared(scalar) + (v[0] + v[1] + v[2]))
    # the built-in max, which treats NaN as the point-by-point route does
    return max(norms.tolist())


def _max_numeric_norms(p: AnsatzParams, coords: np.ndarray):
    """The largest numeric residual norm over the points of coords, then that
    of the homogeneous residual, from one _numeric_residuals."""
    gauss, ampere, homogeneous = _numeric_residuals(p, coords)
    return _largest_norm(gauss, ampere), _largest_norm(*homogeneous)


def _residual_parts(cv: ConstraintVector, cos_th, sin_th):
    """The residuals' parts on the rotated frame at a phase: gauss along Sx,
    the Sy and Sz parts of ampere's e_y, ampere's e_z along Sx. Plain
    arithmetic on c1..c9 and the cosine and sine of the phase, which may
    be floats or numpy columns."""
    c1, c2, c3, c4, c5, c6, c7, c8, c9 = cv
    return (c1 + c2 * cos_th - c3 * cos_th * cos_th, c6 * sin_th, c4 + c5 * cos_th,
            c7 + c8 * cos_th + c9 * cos_th * cos_th)


def _analytic_norm_squared(cv: ConstraintVector, cos_th, sin_th):
    """The squared joint norm of the residuals read off c1..c9 at a phase,
    floats or columns. The frame Sx, Sy, Sz is a rotation of sx, sy, sz, an
    isometry, so the norm takes no frame angle: it is the one analytic
    norm, of residual_sample and of _max_analytic_norm alike."""
    gauss, sy, sz, ez = _residual_parts(cv, cos_th, sin_th)
    return gauss * gauss + ((sy * sy + sz * sz) + ez * ez)


def _residuals_at(p: AnsatzParams, s: SpacetimePoint):
    """Gauss and ampere residuals at s, read off c1..c9, as coefficients on
    sx, sy, sz, and their joint norm."""
    cv, (cos_th, sin_th, cos_fr, sin_fr) = _harmonics(*_values(p)), _angles(p, s)
    gauss, sy, sz, ez = _residual_parts(cv, cos_th, sin_th)
    ampere = ColorVector(LieElement(), LieElement(*_along_sy_sz(cos_fr, sin_fr, sy, sz)),
                         LieElement(*_along_sx(cos_fr, sin_fr, ez)))
    return (LieElement(*_along_sx(cos_fr, sin_fr, gauss)), ampere,
            math.sqrt(_analytic_norm_squared(cv, cos_th, sin_th)))


def _max_analytic_norm(cv: ConstraintVector, chunks) -> float:
    """Largest residual_sample norm over chunks of phases, read off the
    configuration's c1..c9, cv. A chunk is the cos and sin of some phases,
    as arrays: of a grid's nt nz (t, z) pairs (fields._Grid.angle_blocks),
    since the norm depends on a point through its phase alone
    (_analytic_norm_squared) and so takes no work per y, or of a list of
    points (max_residual_norm). Each element rounds as the one-point
    arithmetic does, so the result equals the max of
    residual_sample(...).norm over the same points. Raises OverflowError
    when a norm is not finite."""
    worst = -math.inf
    with np.errstate(all="ignore"):
        for cos_th, sin_th in chunks:
            top = float(np.sqrt(_analytic_norm_squared(cv, cos_th, sin_th)).max())
            if not math.isfinite(top):
                raise OverflowError("the analytic residual is not finite")
            worst = max(worst, top)
    return worst


def gauss_residual(p: AnsatzParams, s: SpacetimePoint) -> LieElement:
    """Gauss-law residual at one point, read off c1..c9; a LieElement along
    Sx for this ansatz."""
    return _residuals_at(p, s)[0]


def ampere_residual(p: AnsatzParams, s: SpacetimePoint) -> ColorVector:
    """Ampere-law residual at one point, read off c1..c9, as a ColorVector."""
    return _residuals_at(p, s)[1]


def bianchi_residual(p: AnsatzParams, s: SpacetimePoint) -> float:
    """Norm of the homogeneous equations' residual at s, div B and
    Faraday's law on the closed-form E and B: the four independent cyclic
    sums D_[mu F_nu ga] of the Bianchi identity, zero in exact arithmetic
    for any parameters. A one-point view of verify's Bianchi line
    (_max_numeric_norms), bit for bit; its complex steps truncate
    nothing, so the value is rounding alone."""
    return _largest_norm(*_numeric_residuals(p, _coordinates([s]))[2])


@dataclass(frozen=True)
class ResidualSample:
    """Both equation-of-motion residuals at one point, with a combined norm."""

    gauss: LieElement
    ampere: ColorVector
    point: SpacetimePoint
    norm: float


def residual_sample(p: AnsatzParams, s: SpacetimePoint, mode: str = "analytic") -> ResidualSample:
    """Evaluate both residuals at s and bundle them with their joint norm:
    read off c1..c9 in analytic mode, from complex steps of the closed-form
    fields in numeric mode."""
    if mode == "analytic":
        ga, am, norm = _residuals_at(p, s)
    elif mode == "numeric":
        gauss, ampere, _ = _numeric_residuals(p, _coordinates([s]))
        ga, am = LieElement(*gauss[:, 0].tolist()), _vector_at(ampere[:, :, 0])
        norm = _largest_norm(gauss, ampere)
    else:
        raise ValueError(f"mode must be one of ('analytic', 'numeric'), got {mode!r}")
    return ResidualSample(gauss=ga, ampere=am, point=s, norm=norm)


def grid_points(t_range, y_range, z_range):
    """Points of a rectangular (t, y, z) grid at x = fields._GRID_X, in the
    grid's row order, t slowest and z fastest: its rows' coordinates
    (fields._Grid.coordinates).

    Each range is (start, stop, count) with count >= 1; a single count
    collapses to the start value.
    """
    grid = _Grid.from_ranges(t_range, y_range, z_range)
    with np.errstate(all="ignore"):  # SpacetimePoint rejects a value that overflowed
        coords = grid.coordinates(np.arange(len(grid))).T.tolist()
    return [SpacetimePoint(*c) for c in coords]


def max_residual_norm(p: AnsatzParams, points) -> float:
    """Largest combined residual norm over a nonempty iterable of points, read off c1..c9."""
    coords = _coordinates(list(points))
    if not coords.size:
        raise ValueError("max_residual_norm needs at least one point; the point list is empty")
    with np.errstate(all="ignore"):  # a phase that overflows leaves a norm not finite
        phases = _cos_sin(_phase(p, coords[0], coords[3]))  # of t and z
    return _max_analytic_norm(_harmonics(*_values(p)), [phases])
