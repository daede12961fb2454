"""Equation-of-motion residuals for the ansatz fields.

Three residuals are exposed:

    gauss:   div E - i g (A . E - E . A)
    ampere:  -(1/c) dE/dt + curl B - i g ([phi, E] + A x B + B x A)
    bianchi: cyclic covariant derivative of the field strength,
             D_mu F_nu_ga + D_nu F_ga_mu + D_ga F_mu_nu

A configuration solves the equations of motion iff gauss and ampere
vanish for all points. The Bianchi identity holds for any potentials,
and with it the homogeneous equations vanish

    div B                                  (D . B, whose commutator
                                            term vanishes for the ansatz)
    (1/c) dB/dt + curl E + i g ([phi, B] - A x E - E x A)

for every amplitude, not only on solutions. verify checks these on the
closed-form E and B, beside the numeric gauss and ampere and from the
same derivatives (_numeric_residuals), so its Bianchi line sees closed
forms that are the fields of no potential. bianchi_residual, the nested
probe of the field strength built from the potentials, never sees the
closed forms; it is a library diagnostic of its outer central
difference.

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
algebra (_numeric_residuals), the homogeneous equations' too when asked;
bianchi_residual differentiates the field strength at the points of its
outer central difference. The one-point functions are views of these
columns and round as a point-by-point evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .fields import (
    _GRID_X,
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
    _field_strength_columns,
    _Grid,
    _phase,
    _potential_columns,
    _stacked,
    _stencil,
    _step,
    _summed,
    _values,
    electric_field_analytic,
    magnetic_field_analytic,
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
    "bianchi_allowance",
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


# the atoms of c1..c9 by name, in the order _atoms returns them
_ATOM_NAMES = ("alpha1", "alpha2", "lambda + 2 g alpha3", "alpha4", "alpha5", "k", "omega / c",
               "g")


def _harmonics(*values) -> ConstraintVector:
    """c1..c9 at the closed forms' arguments (fields._values), floats,
    columns or _Magnitudes (bounds). A column overflows to inf; a float
    atom whose square overflows raises OverflowError, which names it."""
    atoms = _atoms(*values)
    try:
        return _polynomials(*atoms)
    except OverflowError:
        raise _squares_overflow(_ATOM_NAMES, atoms) from None


def _squares_overflow(names, atoms) -> OverflowError:
    """The error for a float ** in c1..c9 or their bounds that overflowed,
    which reports only errno 34: it names the atoms whose square overflows."""
    bound = hasattr(atoms[0], "value")  # a bound's atoms are fields._Magnitude
    big = [f"{name}{' on magnitudes' * bound} = {a!r}"
           for name, a in zip(names, (getattr(a, "value", a) for a in atoms))
           if type(a) is float and math.isinf(a * a)]
    return OverflowError(f"squaring {' and '.join(big)} overflows in the "
                         f"{'bounds of the ' * bound}constraints c1..c9")


def _atoms(a1, a2, a3, a4, a5, lam, k, omega, g, c):
    """The atoms of c1..c9: x = lam + 2 g alpha3 for lam and alpha3, w = omega / c."""
    return a1, a2, lam + 2.0 * g * a3, a4, a5, k, omega / c, g


def _polynomials(a1, a2, x, a4, a5, k, w, g) -> ConstraintVector:
    """c1..c9 in their atoms, the one place they are written: on magnitudes
    their bounds; expanded once into monomials, the Newton core's values,
    Jacobian and stop scales (constraints._term_table)."""
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
_J1, _K1 = [1 + j for j in _J], [1 + k for k in _K]  # j and k among the axes t, x, y, z
# The commutators of _commutator_terms as pairs of rows of the _fields_at
# array (phi, A, E, B), each for i = x, y, z: A_i with E_i, A_j with B_k,
# A_k with B_j and phi with E_i, the twelve of gauss and ampere; then phi
# with B_i, A_j with E_k and A_k with E_j, the nine more of the
# homogeneous equations
_LEFT = np.array([1, 2, 3, *(1 + j for j in _J), *(1 + k for k in _K), 0, 0, 0,
                  0, 0, 0, *(1 + j for j in _J), *(1 + k for k in _K)])
_RIGHT = np.array([4, 5, 6, *(7 + k for k in _K), *(7 + j for j in _J), 4, 5, 6,
                   7, 8, 9, *(4 + k for k in _K), *(4 + j for j in _J)])
_EQUATIONS = 12  # the slots of gauss and ampere


def _vector_at(v: np.ndarray) -> ColorVector:
    """The ColorVector of floats held by an array of shape (3, 3)."""
    return ColorVector(*(LieElement(*c) for c in v.T.tolist()))


def _commutator_terms(g: float, fields: np.ndarray, homogeneous: bool = False):
    """-i g (A . E - E . A), its components summed in order as LieElements
    would sum them, and -i g ([phi, E] + A x B + B x A), from phi and the
    components of A, E and B as one array (see _fields_at); with
    homogeneous, also the commutator terms of Faraday's law (see
    _numeric_residuals). The commutators (_LEFT, _RIGHT), twelve or all
    twenty-one, are taken in one stacked call; at g = 0 every term is
    zero."""
    slots = len(_LEFT) if homogeneous else _EQUATIONS
    comm = _commutators(g, fields.take(_LEFT[:slots], axis=1),
                        fields.take(_RIGHT[:slots], axis=1))
    terms = g * comm[:, 0:3]
    # -i g (A x B + B x A)_i = g eps_ijk su2._commutator(A_j, B_k)
    cross = g * (comm[:, 3:6] - comm[:, 6:9])
    out = (0.0 + terms[:, 0] + terms[:, 1] + terms[:, 2], cross + g * comm[:, 9:12])
    if homogeneous:  # -g su2._commutator(phi, B_i) + g eps_ijk su2._commutator(A_j, E_k)
        out += (g * (comm[:, 15:18] - comm[:, 18:21]) - g * comm[:, 12:15],)
    return out


def _point_fields(p: AnsatzParams, s: SpacetimePoint) -> np.ndarray:
    """The array of _fields_at at s, from the one-point potentials and closed forms."""
    phi, a = _potential_columns(p, *_angles(p, s))
    e, b = electric_field_analytic(p, s), magnetic_field_analytic(p, s)
    return _stacked([phi, *a, *(c.coeffs() for v in (e, b) for c in v.components())])


def gauss_commutator_term(p: AnsatzParams, s: SpacetimePoint) -> LieElement:
    """Exact -i g (A . E - E . A) with the closed-form E; zero at g = 0."""
    return LieElement(*_commutator_terms(p.g, _point_fields(p, s))[0].tolist())


def ampere_commutator_term(p: AnsatzParams, s: SpacetimePoint) -> ColorVector:
    """Exact -i g ([phi, E] + A x B + B x A) with closed-form fields; zero at g = 0."""
    return _vector_at(_commutator_terms(p.g, _point_fields(p, s))[1])


def _fields_at(p: AnsatzParams, rows) -> np.ndarray:
    """phi, then the components of A, E and B, over a stencil block of rows
    (fields._Rows) of shape (rows, n) as one array (3, 10, rows, n). E and
    B are taken on every row; phi and A, which only the commutators at the
    points read, on the first row alone, the points themselves, and are
    zero on the others."""
    shape, dtype = rows.theta.shape, rows.theta.dtype
    ey, bx = _field_columns(p, rows)
    fields = _stacked((_ZERO,) * 5 + (ey, _ZERO, bx, _ZERO, _ZERO), shape, dtype)
    phi, a = _potential_columns(p, *(v[0] for v in rows.angles()))
    fields[:, :4, 0] = _stacked((phi, *a), shape[1:], dtype)
    return fields


def _numeric_residuals(p: AnsatzParams, coords: np.ndarray, homogeneous: bool = False):
    """Numeric-mode gauss and ampere residuals at every point of coords,
    shape (4, n), as arrays of shape (3, n) and (3, 3, n); with
    homogeneous, then the homogeneous equations' residuals of the same
    shapes, div B and Faraday's (1/c) dB/dt + curl E + i g ([A_0, B] -
    A x E - E x A) with A_0 = phi, from the same derivatives and one
    stacked commutator call. D . B drops its commutator term, -i g (A . B -
    B . A): A has no e_x part and B nothing else, so it vanishes
    identically for this ansatz.

    E and B are evaluated once over the block of the points and their
    complex steps, phi and A once at the points (_fields_at).
    """
    h = _step(p)
    rows = _stencil(p, coords, h)
    with np.errstate(all="ignore"):
        fields = _fields_at(p, rows)
        # d[:, i, mu] = d_mu E_i at the points, then d_mu B_i
        d = _derivative(fields[:, 4:], h)
        de, db = d[:, :3], d[:, 3:]
        comm = _commutator_terms(p.g, fields[:, :, 0].real, homogeneous)
        gauss = de[:, 0, 1] + de[:, 1, 2] + de[:, 2, 3] + comm[0]
        curl = db[:, _K, _J1] - db[:, _J, _K1]
        ampere = (-1.0 / p.c) * de[:, :, 0] + curl + comm[1]
        if not homogeneous:
            return gauss, ampere
        div_b = db[:, 0, 1] + db[:, 1, 2] + db[:, 2, 3]
        faraday = (1.0 / p.c) * db[:, :, 0] + (de[:, _K, _J1] - de[:, _J, _K1]) + comm[2]
    return gauss, ampere, (div_b, faraday)


def _largest_norm(scalar: np.ndarray, vector: np.ndarray) -> float:
    """The largest over the points of sqrt(|scalar|^2 + |vector|^2), a
    residual of shape (3, n) beside one of shape (3, 3, n), summed as
    residual_sample sums it."""
    with np.errstate(all="ignore"):
        v = _norm_squared(vector)
        norms = np.sqrt(_norm_squared(scalar) + (v[0] + v[1] + v[2]))
    # the built-in max, which treats NaN as the point-by-point route does
    return max(norms.tolist())


def _max_numeric_norms(p: AnsatzParams, coords: np.ndarray):
    """The largest numeric residual norm over the points of coords, then that
    of the homogeneous residual, from one _numeric_residuals."""
    gauss, ampere, homogeneous = _numeric_residuals(p, coords, homogeneous=True)
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


# (mu, nu, ga) of the twelve covariant derivatives D_mu F_nu_ga: for each
# triple mu < nu < ga its three cyclic orders, as bianchi_residual sums them
_CYCLIC = np.array([cyc for mu, nu, ga in combinations(range(4), 3)
                    for cyc in ((mu, nu, ga), (nu, ga, mu), (ga, mu, nu))]).T
# the points of bianchi_residual's outer difference, as multiples of h
# along t, x, y, z: the point, then +h along each axis, then -h
_OUTER = np.hstack([np.zeros((4, 1)), np.eye(4), -np.eye(4)])


def _check_h(h: float):  # the Bianchi budget divides by h ** 2
    if not (h > 0.0 and math.isfinite(h) and h * h > 0.0):
        raise ValueError(f"step h must be positive and finite, with h ** 2 above 0, got {h!r}")


def bianchi_residual(p: AnsatzParams, s: SpacetimePoint, h: float = 1e-4) -> float:
    """Norm of the cyclic covariant derivative of the numeric field strength.

    Identically zero in exact arithmetic for any parameters. F is taken
    by complex steps, which truncate nothing, at nine points: s, then s
    moved by +h along t, x, y and z, then by -h, the order in which a
    point-by-point evaluation visits them. The outer derivative is their
    central difference, (F(+h) - F(-h)) * (0.5 / h), so the returned value
    is its truncation error, O(h^2) in the step (see bianchi_allowance for
    the scale).
    """
    _check_h(h)
    point = _coordinates([s])
    with np.errstate(all="ignore"):
        outer = np.where(_OUTER != 0.0, point + _OUTER * h, point)
    # F at the nine points, (3 coefficients, mu, nu, point)
    f, here = _field_strength_columns(p, outer)
    mu, nu, ga = _CYCLIC
    with np.errstate(all="ignore"):
        d = (f[:, nu, ga, 1 + mu] - f[:, nu, ga, 5 + mu]) * (0.5 / h)
        d = np.where(mu == 0, (1.0 / p.c) * d, d)
        # i g [A_mu, F_nu_ga] = -g * su2._commutator(A_mu, F_nu_ga)
        cov = d - p.g * _commutators(p.g, here[:, mu, 0], f[:, nu, ga, 0])
        squares = _norm_squared(cov[:, 0::3] + cov[:, 1::3] + cov[:, 2::3]).tolist()
    return math.sqrt(_summed([squares]))


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
        gauss, ampere = _numeric_residuals(p, _coordinates([s]))
        ga, am = LieElement(*gauss[:, 0].tolist()), _vector_at(ampere[:, :, 0])
        norm = math.sqrt(ga.norm_squared() + am.norm_squared())
    else:
        raise ValueError(f"mode must be one of ('analytic', 'numeric'), got {mode!r}")
    return ResidualSample(gauss=ga, ampere=am, point=s, norm=norm)


def grid_points(t_range, y_range, z_range):
    """Points of a rectangular (t, y, z) grid at x = fields._GRID_X.

    Each range is (start, stop, count) with count >= 1; a single count
    collapses to the start value.
    """
    grid = _Grid.from_ranges(t_range, y_range, z_range)
    with np.errstate(all="ignore"):  # SpacetimePoint rejects a value that overflowed
        t, y, z = (axis.at(np.arange(axis.count)).tolist() for axis in (grid.t, grid.y, grid.z))
    return [SpacetimePoint(t=tv, x=_GRID_X, y=yv, z=zv) for tv in t for yv in y for zv in z]


def max_residual_norm(p: AnsatzParams, points) -> float:
    """Largest combined residual norm over a nonempty iterable of points, read off c1..c9."""
    coords = _coordinates(list(points))
    if not coords.size:
        raise ValueError("max_residual_norm needs at least one point; the point list is empty")
    t, _, _, z = coords
    with np.errstate(all="ignore"):  # a phase that overflows leaves a norm not finite
        angles = _cos_sin(_phase(p, t, z))
    return _max_analytic_norm(_harmonics(*_values(p)), [angles])


def _scales(p: AnsatzParams):
    freq = max(abs(p.k), abs(p.omega) / abs(p.c), abs(p.lam), 1.0)
    amp = 1.0 + sum(abs(a) for a in (p.alpha1, p.alpha2, p.alpha3, p.alpha4, p.alpha5))
    return freq, amp


def _power(name: str, base: float, n: int, budget: str) -> float:
    """base ** n in an error budget. A float ** that overflows reports only
    errno 34, so the OverflowError is raised again naming the step."""
    try:
        return base ** n
    except OverflowError:
        raise OverflowError(f"raising {name} = {base!r} to the power {n} overflows in the "
                            f"{budget}") from None


_FREQ = "the frequency scale max(1, |k|, |omega / c|, |lambda|)"


def _finite(total: float, budget: str, freq: float, h: float) -> float:
    """A budget's total, which overflows as a product of finite factors
    without raising: then an OverflowError names the budget and its inputs."""
    if not math.isfinite(total):
        raise OverflowError(f"the {budget} overflows at {_FREQ} = {freq!r} and h = {h!r}")
    return total


def bianchi_allowance(p: AnsatzParams, h: float) -> float:
    """Error budget for the Bianchi residual at step h.

    The outer central difference is second order; the budget scales with
    the fourth power of the largest frequency and with the commutator
    amplitudes. The roundoff floor carries a 1/h^2 amplification, which
    covers the outer difference's 1/h, and the 1 / c of its time
    derivative when |c| < 1. Prefactors were calibrated, with roughly a
    10x margin, on nested central differences (worst cases 1.3e-2 and 0.2,
    amplitudes to ~50); the complex-step F reads at most 0.092 of the
    budget on the acceptance gate's 20 random sets.
    """
    _check_h(h)
    freq, amp = _scales(p)
    poly = amp * (1.0 + abs(p.g) * amp)
    budget = "Bianchi allowance"
    h2 = _power("h", h, 2, budget)
    truncation = 0.15 * poly * _power(_FREQ, freq, 4, budget) * h2
    roundoff = 3.0 * 2.3e-16 * poly / h2 * max(1.0, 1.0 / abs(p.c))
    return _finite(truncation + roundoff, budget, freq, h)

