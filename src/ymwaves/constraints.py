"""The nine algebraic constraints and the solution-family catalogue.

Collecting the harmonic coefficients of both equation-of-motion
residuals gives nine polynomial constraints c1..c9 in the parameters; a
configuration solves the equations of motion for all points iff all nine
vanish (except in the static case k = omega = 0, where the phase is
frozen and only three grouped sums remain, see _judged). A verdict
judges each against itself on magnitudes, with no floor (_normalized).

The known solution branches, Families I-III and the two degenerate
planes (abelian-z and pure-gauge, see scan_families), are written once,
in the branch table _BRANCHES: each is an offset plus free parameters
along 0/+-1 directions in amplitude space, and its linear equations
(_EQUATIONS) are the residual of the projection onto it. An offset is
data, five slots, each a literal 0.0 or -0.0 or one entry +-coupling /
(2 g) or +-coupling / (4 g) of a single coupling (_Branch), so that
_offsets evaluates the rows, all of them or a builder's own, in one
gather and an entry rounds once, as its formula does. The builders,
classify, branch_projection and the scan's snap all read the branches
from it. classify judges each branch's equations as a verdict, against
themselves on magnitudes (_misfits); the light cone (_on_cone) is
judged the same way, and a wave family describes only a running wave,
alpha4 != 0 (_applies).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

# The batched LAPACK kernels behind np.linalg.qr(mode="raw") and
# np.linalg.inv, which Newton's step calls directly (_step): on its
# batches of a few (9, 6) matrices the wrappers' checks and conversions
# are about a third of each call. numpy names the kernels only in this
# private module; numpy 1.x splits qr_r_raw by shape into qr_r_raw_m and
# qr_r_raw_n, so the project requires numpy 2.0 or later.
from numpy.linalg import _umath_linalg
# np.einsum's kernel, without the wrapper's parsing on every call
from numpy._core.multiarray import c_einsum

from .fields import (
    _TINY,
    AnsatzParams,
    _fields_vanish,
    _Magnitude,
    _require_finite,
    _values,
)
from .residuals import (
    _ATOM_NAMES,
    ConstraintVector,
    _harmonics,
    _numeric_residuals,
    _polynomials,
    _squares_overflow,
)
from .su2 import _frame_coeffs

__all__ = [
    "ConstraintVector",
    "nine_constraints",
    "constraint_scales",
    "normalized_constraints",
    "FamilySolution",
    "PlaneSolution",
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
    return _harmonics(*_values(p))


class _Terms:
    """A polynomial in the atoms of c1..c9 (residuals._ATOM_NAMES), expanded:
    a dict from the atoms' exponents to the coefficient of that monomial.
    + and - collect like monomials, * and ** multiply out, and constants
    enter as constants, so _polynomials on _Terms atoms expands c1..c9
    (_term_table)."""

    def __init__(self, terms):
        self.terms = {e: v for e, v in terms.items() if v != 0.0}

    def __add__(self, other):
        out = dict(self.terms)
        for e, v in _expanded(other).items():
            out[e] = out.get(e, 0.0) + v
        return _Terms(out)

    def __mul__(self, other):
        out = {}
        for e, v in self.terms.items():
            for f, w in _expanded(other).items():
                key = tuple(map(operator.add, e, f))
                out[key] = out.get(key, 0.0) + v * w
        return _Terms(out)

    __rmul__ = __mul__
    __sub__ = lambda s, o: s + -1.0 * o
    __pow__ = lambda s, n: functools.reduce(operator.mul, [s] * n)


def _expanded(v):
    return v.terms if isinstance(v, _Terms) else {(0,) * len(_ATOM_NAMES): float(v)}


def _term_table():
    """c1..c9, their derivatives and their bounds, expanded once into a
    table of terms.

    The terms come in 63 groups, each a run of rows, seven per constraint:
    for each c_i its derivatives in the five amplitude atoms alpha1,
    alpha2, x = lam + 2 g alpha3, alpha4 and alpha5, in that order, then
    c_i itself, then its bound group: c_i's terms again, with |constants|,
    on the atoms' magnitudes (|alpha|, |lam| + 2|g alpha3|). So group
    7 i + j sums to the entry (i, j) of [J | f | b], the Jacobian with the
    values and the bounds on magnitudes (constraint_scales) as its sixth
    and seventh columns. A derivative that is identically zero holds one
    zero term. A term is a constant times up to three atoms times powers
    of k, omega and g.
    Returns the atoms of each term, shape (3, terms), 0 to 4 the atoms and
    6 to 10 their magnitudes, 5 and 11 standing for a factor 1; the powers
    of k, omega and g, shape (3, terms); the constants; where each group
    starts; and which terms are derivatives in x, which the chain rule
    multiplies by d x / d alpha3 = 2 g.
    """
    n = len(_ATOM_NAMES)
    polys = _polynomials(*(_Terms({tuple(int(i == j) for j in range(n)): 1.0})
                           for i in range(n)))
    groups = []
    for p in polys:
        groups += [{e[:j] + (e[j] - 1,) + e[j + 1:]: v * e[j]
                    for e, v in p.terms.items() if e[j]} or {(0,) * n: 0.0} for j in range(5)]
        groups += [p.terms, {e: abs(v) for e, v in p.terms.items()}]
    group, exponents, constants = map(np.array, zip(*[
        (i, e, v) for i, terms in enumerate(groups) for e, v in terms.items()]))
    factors = [[j for j in range(5) for _ in range(e[j])] + [5] * (3 - sum(e[:5]))
               for e in exponents.tolist()]
    return (np.array(factors).T + 6 * (group % 7 == 6), exponents[:, 5:].T, constants,
            np.searchsorted(group, np.arange(len(groups))), group % 7 == 2)


_FACTORS, _POWERS, _CONSTANTS, _STARTS, _ALPHA3 = _term_table()
# the exponents the terms take, and where each term's powers of k, omega
# and g sit in the flattened (3, len(_EXPONENTS)) array of their powers
_EXPONENTS = range(int(_POWERS.max()) + 1)
_POWER_INDEX = _POWERS + len(_EXPONENTS) * np.arange(3)[:, None]


class _Substituted(NamedTuple):
    """The term table at fixed couplings: each atom row's factor and
    offset, which make x = lam + 2 g alpha3 and its magnitude and leave the
    other rows exact (1 and -0.0); and every term's coefficient, a column."""

    scale: np.ndarray
    shift: np.ndarray
    coefficients: np.ndarray


def _substitute(lam, k, omega, g) -> _Substituted:
    """The term table at couplings (lam, k, omega, g), in its groups'
    order (_term_table), the bound groups' coefficients taken in
    magnitude. The powers of k, omega and g are taken once, by **, so
    that a float coupling whose square overflows raises the OverflowError
    that names it."""
    try:
        powers = np.array([[v ** n for n in _EXPONENTS] for v in (k, omega, g)]).ravel()
    except OverflowError:
        raise _squares_overflow(_ATOM_NAMES[5:], (k, omega, g)) from None
    pk, pw, pg = powers[_POWER_INDEX]
    two_g = 2.0 * g
    scale, shift = np.ones((12, 1)), np.full((12, 1), -0.0)
    scale[2::6, 0], shift[2::6, 0] = (two_g, abs(two_g)), (lam, abs(lam))
    # a coefficient may overflow although no power does: an inf or nan
    # term is judged by the callers, as the monomials are
    with np.errstate(over="ignore", invalid="ignore"):
        coefficients = _CONSTANTS * pk * pw * pg
        coefficients[_ALPHA3] *= two_g
        # the bound terms, whose factors are magnitudes
        np.abs(coefficients, out=coefficients, where=_FACTORS[0] > 5)
    return _Substituted(scale, shift, coefficients[:, None])


def _monomials(table: _Substituted, x):
    """The terms of the substituted table at every amplitude row of x,
    shape (n, 5) -> (terms, n), a column per row, from one gather of the
    three factors of every term, multiplied into the first. A term that
    overflows is inf, which the callers judge under their np.errstate."""
    one = np.ones((1, len(x)))
    atoms = np.concatenate([x.T, one, np.abs(x.T), one])
    atoms *= table.scale
    atoms += table.shift
    m, f1, f2 = atoms.take(_FACTORS, axis=0)
    m *= table.coefficients
    m *= f1
    m *= f2
    return m


def constraint_scales(p: AnsatzParams) -> tuple[float, ...]:
    """Each constraint's bound on rounding: c1..c9 on the magnitudes of their
    inputs (fields._Magnitude), lam + 2 g alpha3 as |lam| + 2|g alpha3|. With
    no floor, it scales as its constraint under the dilation and g rescale."""
    return tuple(m.value for m in _harmonics(*(_Magnitude(abs(v)) for v in _values(p))))


def _normalized(values, bounds, names) -> np.ndarray:
    """|value| / bound, what every verdict judges against tol: 0 for a value
    of 0, inf or nan (a violation) for one that overflowed. A bound that
    overflows under any other value is an OverflowError, never a verdict."""
    ratios = []
    for value, bound, name in zip(map(abs, values), bounds, names):
        if 0.0 < value < math.inf and not bound < math.inf:
            raise OverflowError(f"the bound of {name} on the magnitudes overflows")
        ratios.append(value / bound if value else 0.0)  # inf / inf is nan, a violation
    return np.array(ratios)


def normalized_constraints(p: AnsatzParams) -> np.ndarray:
    """Absolute constraint values over their bounds (constraint_scales, _normalized)."""
    return _normalized(nine_constraints(p), constraint_scales(p), ConstraintVector._fields)


@dataclass(frozen=True)
class FamilySolution:
    """A configuration on one of the named branches, by its free parameters."""

    family: str
    k: float
    omega: float
    alpha4: float
    lam: float
    g: float
    eta: Optional[int] = None
    xi: Optional[int] = None

    def params(self) -> AnsatzParams:
        return _build(**vars(self))


@dataclass(frozen=True)
class PlaneSolution:
    """A solving configuration on a degenerate plane: its label and amplitudes."""

    label: str
    alphas: tuple[float, float, float, float, float]


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


class _Branch(NamedTuple):
    """A solution branch in amplitude space: offset + sum_m t_m directions[m].

    Its offset is data, five slots. A slot is a literal, 0.0 or -0.0, or
    one entry (numerator, coupling, denominator), numerator +-1, coupling
    'omega', 'k' or 'lam' and denominator 2 or 4, which stands for
    numerator coupling / (denominator g). An entry takes one coupling, so
    that it rounds once, in the division: a sum over couplings would turn
    -lam / 2g at lam = 0.0 into +0.0. _offsets evaluates the slots, of
    every row at once or, for a builder (_build), of its row alone."""

    label: str
    eta: Optional[int]
    xi: Optional[int]
    cone: bool  # exists only on the light cone omega = k
    wave: bool  # describes only rows with a running wave, alpha4 != 0
    slots: tuple  # the five offset slots, literals or entries
    directions: tuple  # one or two 0/+-1 vectors with no coordinate in common


# The catalogue, the one place each branch is written. Ties between
# equally near branches go to the earlier row. A free coordinate without
# an offset holds -0.0, the additive identity, so offset + t is t exactly.
_BRANCHES = (
    _Branch("I", None, None, True, True, (0.0, 0.0, (-1, "lam", 2), -0.0, 0.0),
            ((0, 0, 0, 1, 0),)),
    *(_Branch("II", eta, xi, True, True,
              ((eta, "k", 4), (eta, "k", 4), (-1, "lam", 2), -0.0, -0.0),
              ((0, 0, xi, 1, eta),)) for eta in (1, -1) for xi in (1, -1)),
    *(_Branch("III", eta, None, False, True,
              ((eta, "omega", 2), (eta, "k", 2), (-1, "lam", 2), -0.0, -0.0),
              ((0, 0, 0, 1, eta),)) for eta in (1, -1)),
    _Branch("abelian-z", None, None, True, False, (0.0, 0.0, -0.0, 0.0, -0.0),
            ((0, 0, 1, 0, 0), (0, 0, 0, 0, 1))),
    _Branch("pure-gauge", None, None, False, False, (-0.0, -0.0, (-1, "lam", 2), 0.0, 0.0),
            ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0))),
)

# the table as arrays; a one-direction row is padded with a zero vector
_LABELS = np.array([b.label for b in _BRANCHES], dtype=object)
_CONE = np.array([b.cone for b in _BRANCHES])
_WAVE = np.array([b.wave for b in _BRANCHES])
_DIRECTIONS = np.array([b.directions + ((0,) * 5,) * (2 - len(b.directions))
                        for b in _BRANCHES], dtype=float)
# each offset slot as its place among the quotients _offsets takes,
# (0.0, -0.0, lam, -lam, k, -k, omega, -omega) each over 1, 2 g and 4 g:
# a literal over 1 is itself
_QUOTIENTS = np.array([[3 * (math.copysign(1.0, s) < 0) if isinstance(s, float) else
                         3 * (2 + 2 * ("lam", "k", "omega").index(s[1]) + (s[0] < 0)) + s[2] // 2
                         for s in b.slots] for b in _BRANCHES])
# each direction slot of the branches, with max(1, d . d) and where d != 0
_SLOTS = [(d, np.maximum(1.0, np.sum(d * d, axis=1)), d != 0.0)
          for d in _DIRECTIONS.transpose(1, 0, 2)]
# each branch's linear equations E (x - offset) = 0, E = I - sum_m d_m d_m^T / d_m . d_m
# over its directions d_m, so that E (x - offset) = x - P(x) for the
# projection P onto it that _projections takes; a padding zero vector adds 0
_EQUATIONS = np.eye(5) - sum(d[:, :, None] * d[:, None, :] / dd[:, None, None]
                             for d, dd, _ in _SLOTS)


def _offsets(couplings, rows=slice(None)) -> np.ndarray:
    """The offsets of the table's rows (all unless given) at couplings
    (lam, k, omega, g), shape (rows, 5), the one place the table's offsets
    are evaluated: the quotients are taken once per call, and every slot
    of every row is one gather at its place (_QUOTIENTS), with no loop
    over the rows. A literal is itself; an entry is its coupling, negated as
    the caller holds it, over its denominator times g, rounded once as
    numerator coupling / (denominator g) rounds, so that an int lam = 0
    gives alpha3 = 0.0 where np.float64 would give -0.0. Raises ValueError
    naming a coupling that is not finite, and naming the first row whose
    offset is not finite, as a coupling over a small g overflows."""
    for name, value in zip(("lambda", "k", "omega", "g"), couplings):
        _require_finite(name, value)
    lam, k, omega, g = couplings
    with np.errstate(all="ignore"):  # an offset that overflows is named below
        out = np.divide.outer((0.0, -0.0, lam, -lam, k, -k, omega, -omega),
                              (1.0, 2.0 * g, 4.0 * g)).take(_QUOTIENTS[rows])
    if not (finite := np.isfinite(out)).all():
        raise ValueError(f"the {_LABELS[rows][finite.all(axis=1).argmin()]} branch offset is "
                         "not finite at these couplings; it divides by g")
    return out


def _on_cone(k, omega, tol) -> bool:
    """Whether omega = k to tol, judged on magnitudes: |omega - k| <= tol
    (|omega| + |k|), a bound below the normal floats counting as the
    smallest normal float, as in _Magnitude. An overflow is off the cone."""
    return abs(omega - k) / max(abs(omega) + abs(k), _TINY) <= tol


def _applies(x, on_cone: bool) -> np.ndarray:
    """Which branches can describe each amplitude row of x, shape (n,
    branches): a cone branch only on the light cone, a wave family only
    where alpha4 != 0, a running wave; a vacuum point is the planes'."""
    return (on_cone | ~_CONE) & ((x[:, 3:4] != 0.0) | ~_WAVE)


def _projections(x, offsets, on_cone: bool):
    """The nearest points of every branch (offsets, see _offsets) to every
    amplitude row of x, shape (n, branches, 5), and their distances, shape
    (n, branches).

    The distance is inf where the branch cannot describe the row
    (_applies). A distance that overflows, as an offset near 1e299 at g
    near 1e-300 does when squared, reads as the largest float without
    numpy's warning, so that it still beats a branch that does not apply.
    A branch's directions are orthogonal, so the least-squares parameter
    along d is d . (x - offset) / d . d; with 0/+-1 entries only its sums
    round.
    """
    r = x[:, None, :] - offsets
    points = np.broadcast_to(offsets, r.shape)
    for d, dd, free in _SLOTS:
        t = sum(r[..., j] * d[:, j] for j in range(5)) / dd
        points = np.where(free, offsets + d * t[..., None], points)
    diff = points - x[:, None, :]
    with np.errstate(over="ignore"):  # read as the largest float below
        dist = np.sqrt(sum(diff[..., j] * diff[..., j] for j in range(5)))
    return points, np.where(_applies(x, on_cone), np.fmin(dist, np.finfo(float).max), np.inf)


def _nearest(x, couplings, offsets):
    """The nearest branch of each amplitude row of x, with the light cone to
    1e-9 (_on_cone) at the couplings and the branches' offsets there: its
    table index, the point on it and the distance."""
    lam, k, omega, g = couplings
    points, dist = _projections(x, offsets, _on_cone(k, omega, 1e-9))
    best = dist.argmin(axis=1)
    rows = np.arange(len(x))
    return best, points[rows, best], dist[rows, best]


def _misfits(x, offsets) -> np.ndarray:
    """Each branch's misfit at the amplitudes x, shape (branches,): the
    largest of its equations |E (x - offset)| (_EQUATIONS, offsets from
    _offsets), each over the
    same sum on magnitudes, |E| (|x| + |offset|), as every verdict is
    judged: no floor but _Magnitude's smallest normal float, and an
    equation whose value is 0 reads 0. The dilation and the g rescale
    scale x and the offsets alike, so no misfit moves."""
    with np.errstate(all="ignore"):  # an overflow reads nan, which matches nothing
        values = np.abs(np.einsum("bij,bj->bi", _EQUATIONS, x - offsets))
        bounds = np.einsum("bij,bj->bi", np.abs(_EQUATIONS), np.abs(x) + np.abs(offsets))
        return np.where(values == 0.0, 0.0, values / np.maximum(bounds, _TINY)).max(axis=1)


def _build(family, k, omega, alpha4, lam, g, eta=None, xi=None) -> AnsatzParams:
    """A family's configuration: its offset plus alpha4 along its direction.
    Signs the family does not have are ignored. A family on the light cone
    takes omega = k and needs k != 0."""
    if g == 0.0:
        raise ValueError(f"family {family} requires g != 0")
    branch = next((b for b in _BRANCHES if b.wave and b.label == family
                   and b.eta in (None, eta) and b.xi in (None, xi)), None)
    if branch is None:
        raise ValueError(f"unknown family {family!r} with signs eta={eta!r}, xi={xi!r}; "
                         "families are I, II and III, signs +1 or -1")
    if branch.cone and k == 0.0:
        raise ValueError(f"family {family} requires k != 0")
    # xi, the sign of (alpha3 - offset) / alpha4, needs a running wave
    if branch.xi is not None and alpha4 == 0.0:
        raise ValueError(f"family {family} requires alpha4 != 0")
    omega = k if branch.cone else omega
    (d,) = branch.directions
    row = _BRANCHES.index(branch)  # its own row alone
    offset = _offsets((lam, k, omega, g), slice(row, row + 1))[0].tolist()
    point = [o + s * alpha4 if s else o for o, s in zip(offset, d)]
    return AnsatzParams(*point, lam=lam, k=k, omega=omega, g=g)


def build_family_i(k: float, alpha4: float, lam: float, g: float) -> AnsatzParams:
    """Linear-wave branch; requires g != 0 and k != 0."""
    return _build("I", k, k, alpha4, lam, g)


def build_family_ii(k: float, alpha4: float, lam: float, g: float,
                    eta: int, xi: int) -> AnsatzParams:
    """Nonlinear-wave branch; any sign pair (eta, xi) yields a solution."""
    return _build("II", k, k, alpha4, lam, g, eta, xi)


def build_family_iii(k: float, omega: float, alpha4: float, lam: float,
                     g: float, eta: int = 1) -> AnsatzParams:
    """Pure-gauge branch; no dispersion relation ties omega to k."""
    return _build("III", k, omega, alpha4, lam, g, eta)


_PATTERN_TOL = 1e-6  # classify's branch misfit and light cone (see classify)
_STATIC_SUMS = ("c1 + c2 - c3", "c4 + c5", "c7 + c8 + c9")  # named in _static_sums' order


def _static_sums(a1, a2, a3, a5, lam, g):
    """The sums of _STATIC_SUMS at theta = 0 and k = omega = 0, factored
    through q = lam + 2 g (alpha3 + alpha5); on _Magnitude atoms, bounds."""
    q = lam + 2.0 * g * (a3 + a5)
    return a1 * q ** 2, 2.0 * g * (a2 ** 2 - a1 ** 2) * q, a2 * q ** 2


def _static_conditions(p: AnsatzParams) -> np.ndarray:
    """The normalized static sums of a frozen phase (k = omega = 0), which
    classify and verify judge in place of the over-strong nine. An input
    too large is an OverflowError, never a verdict."""
    inputs = (p.alpha1, p.alpha2, p.alpha3, p.alpha5, p.lam, p.g)
    try:
        values = _static_sums(*inputs)
        bounds = [m.value for m in _static_sums(*(_Magnitude(abs(v)) for v in inputs))]
    except OverflowError:  # a float ** reports only errno 34
        values = (math.inf,)
    if not all(map(math.isfinite, values)):
        raise OverflowError(f"the static conditions {', '.join(_STATIC_SUMS)} overflow")
    return _normalized(values, bounds, _STATIC_SUMS)


def _judged(p: AnsatzParams, tol: float, normalized):
    """What classify and verify judge against tol, its kind and the 1-based
    indices of the values not within tol: a frozen phase's static
    conditions, over which the nine are over-strong, or else the nine
    normalized constraints, normalized. The caller takes the nine first,
    so that an overflow in them is named as verify names it."""
    values, kind = normalized, "constraints"
    if p.k == 0.0 and p.omega == 0.0:
        values, kind = _static_conditions(p), "static conditions"
    return values, kind, tuple(i for i, v in enumerate(values, start=1) if not v <= tol)


def _sign_suffix(eta, xi) -> str:  # ' eta=+1 xi=-1', the signs a branch has
    return "".join(f" {name}={v:+d}" for name, v in (("eta", eta), ("xi", xi)) if v is not None)


def classify(p: AnsatzParams, tol: float = 1e-9):
    """Decide whether p solves the equations of motion and name its branch.

    Returns a FamilySolution (priority III, then II, then I), a
    PlaneSolution on the abelian-z plane, a TrivialZeroField for other
    solving configurations with vanishing fields (the pure-gauge plane
    among them), or a NotASolution listing the violated constraints. A
    branch matches when it applies (_applies, with the light cone to
    _PATTERN_TOL) and its misfit (_misfits) is at most _PATTERN_TOL;
    within a label the smallest misfit wins, so that the signs are read
    where lam dwarfs g alpha4. Whether p solves is _judged's verdict,
    which verify's checks share (the static conditions at k = omega = 0,
    else the nine). Raises ClassificationError, naming the nearest branch
    (_projections), for a verified solution matching no catalogued
    pattern, and ValueError for g = 0.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if p.g == 0.0:
        raise ValueError("family classification requires g != 0")

    values, kind, bad = _judged(p, tol, normalized_constraints(p))
    if bad:  # the static conditions are sums of constraints; none is named
        return NotASolution(violated=bad if kind == "constraints" else (),
                            worst=float(np.max(values)))
    if kind == "static conditions":
        return TrivialZeroField(note="static configuration, zero fields")

    alphas, offsets = _values(p)[:5], _offsets(_values(p)[5:])
    x = np.array([alphas])
    on_cone = _on_cone(p.k, p.omega, _PATTERN_TOL)
    misfit = _misfits(x[0], offsets)
    match = _applies(x, on_cone)[0] & (misfit <= _PATTERN_TOL)
    vanish = _fields_vanish(p, tol)
    # family III is pure gauge, the one family whose fields vanish
    for label in ("III",) if vanish else ("II", "I", "abelian-z"):
        rows = np.flatnonzero(match & (_LABELS == label))
        if not rows.size:
            continue
        if label == "abelian-z":
            return PlaneSolution(label, alphas)
        branch = _BRANCHES[rows[misfit[rows].argmin()]]
        return FamilySolution(label, k=p.k, omega=p.omega, alpha4=p.alpha4, lam=p.lam,
                              g=p.g, eta=branch.eta, xi=branch.xi)
    if vanish:
        return TrivialZeroField(note="zero fields")
    dist = _projections(x, offsets, on_cone)[1][0]
    near = int(dist.argmin())
    branch = _BRANCHES[near]
    raise ClassificationError(f"solution outside the catalogued patterns; nearest branch "
                              f"{branch.label}{_sign_suffix(branch.eta, branch.xi)} "
                              f"at distance {dist[near]:.17g}")


# (harmonic, channel, sign) of c1..c9 among the oracle's fit coefficients:
# harmonics 1, cos, cos^2, sin; channels gauss, then ampere e_x, e_y, e_z,
# each on the rotated frame Sx, Sy, Sz
_ORACLE_ENTRIES = ((0, 0, 1), (1, 0, 1), (2, 0, -1),
                   (0, 8, 1), (1, 8, 1), (3, 7, 1),
                   (0, 9, 1), (1, 9, 1), (2, 9, 1))
# The oracle samples 8 phases (4 alias cos 2 theta) at distinct y, so that lam y varies
_ORACLE_PHASES = 8
_ORACLE_YS = (-0.4, 0.37, 0.9)
# Its fixed plan, made once: every phase at each y in turn, the design
# matrix of [1, cos, cos^2, sin] at each sample, and where c1..c9 sit in
# the fit (_ORACLE_ENTRIES as index arrays)
_ORACLE_THETAS = [2.0 * math.pi * i / _ORACLE_PHASES for i in range(_ORACLE_PHASES)]
_ORACLE_TH = np.tile(_ORACLE_THETAS, len(_ORACLE_YS))
_ORACLE_Y = np.repeat(_ORACLE_YS, _ORACLE_PHASES)
_ORACLE_DESIGN = np.array([(1.0, math.cos(th), math.cos(th) ** 2, math.sin(th))
                           for th in _ORACLE_THETAS] * len(_ORACLE_YS))
_ORACLE_FIT = np.array(_ORACLE_ENTRIES).T


def oracle_constraints(p: AnsatzParams) -> ConstraintVector:
    """Recover the nine constraints from numeric residuals alone.

    Samples both residuals in numeric mode on an equispaced phase grid
    (realized through z when k dominates, through t otherwise) at each y
    of _ORACLE_YS, projects every sample onto the rotated frame, and fits the
    harmonic series [1, cos, cos^2, sin] to all twelve channels by one
    least-squares solve (_oracle_fit). All samples come from one evaluation of the
    numeric residuals on columns, the gauss and ampere values that
    residual_sample gives point by point in numeric mode. The nine entries
    of _ORACLE_ENTRIES reproduce nine_constraints without ever evaluating
    the constraint polynomials; this is the independent oracle the algebra
    is tested against. The phases, the y's and the design matrix depend on
    no input, so they are module constants.

    Raises ValueError for k = omega = 0 (frozen phase, nothing to fit).
    """
    coef, _ = _oracle_fit(p)
    harmonic, channel, sign = _ORACLE_FIT
    return ConstraintVector(*(float(v) for v in sign * coef[harmonic, channel]))


def _oracle_fit(p: AnsatzParams):
    """The coefficients of [1, cos, cos^2, sin] in the twelve channels,
    shape (4, 12), and the samples they fit, shape (24, 12)."""
    if p.k == 0.0 and p.omega == 0.0:
        raise ValueError("phase is frozen at k = omega = 0; the oracle needs a wave")
    use_z = abs(p.k) >= abs(p.omega)
    th, y = _ORACLE_TH, _ORACLE_Y
    with np.errstate(all="ignore"):
        # through z, or through t at z = 0.3, absorbing the k z it adds
        t, z = (0.0, th / p.k) if use_z else ((p.k * 0.3 - th) / p.omega, 0.3)
    coords = np.array(np.broadcast_arrays(t, 0.17, y, z))  # at x = 0.17

    ga, am, _ = _numeric_residuals(p, coords)
    with np.errstate(all="ignore"):
        frame = p.lam * y
        # gauss, ampere e_x, e_y, e_z on the frame: (Sx, Sy, Sz, channel, sample)
        on_frame = np.array(_frame_coeffs(np.cos(frame), np.sin(frame),
                                          np.concatenate([ga[:, None], am], axis=1)))
    # twelve channels: gauss, ampere e_x, e_y, e_z, each on Sx, Sy, Sz
    samples = on_frame.transpose(2, 1, 0).reshape(len(y), 12)
    return np.linalg.lstsq(_ORACLE_DESIGN, samples, rcond=None)[0], samples


class RefineResult(NamedTuple):
    """max_normalized is Newton's stop ratio max_i |c_i| / max(1, b_i), b_i
    the verdicts' bound (_value_and_jacobian), not normalized_constraints.
    converged is _newton's passed: within _TOL, inside norm 1e8."""

    alphas: tuple[float, float, float, float, float]
    converged: bool
    iterations: int
    max_normalized: float


# Newton's stop, in refine_alphas and scan_families
_TOL = 1e-13
_MAX_ITER = 120
# The scan's seed range, success tolerance and snap distance (see scan_families)
_SPREAD = 3.0
_SUCCESS_TOL = 1e-8
_SNAP_TOL = 1e-3
_SNAP_STOP = 1e-9  # where the scan's Newton first stops to snap
# Seeds drawn and refined together. Rows never interact, so this only
# bounds the working arrays; it cannot change any output.
_BLOCK = 512
# lstsq's default singular-value cutoff for a 9 x 5 system
_RCOND = 9.0 * np.finfo(float).eps


def _check_couplings(lam, k, omega, g) -> np.ndarray:
    """Reject couplings before any Newton work rather than part way; returns
    the branch offsets there (_offsets)."""
    if g == 0.0:
        raise ValueError("g must be nonzero: the branch patterns divide by it")
    return _offsets((lam, k, omega, g))


def _check_alphas(name, alphas, couplings):
    """The amplitudes as an array, and the branch offsets at the couplings."""
    x = np.array(alphas, dtype=float)
    if x.shape != (5,):
        raise ValueError(f"{name} must have five entries")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite, got {tuple(alphas)!r}")
    return x, _check_couplings(*couplings)


def _norms(a):
    """The Euclidean norm of every row of a, as np.linalg.norm(a, axis=1)
    computes it, without its dispatch."""
    return np.sqrt(np.add.reduce(a * a, axis=1))


def _value_and_jacobian(x, table: _Substituted):
    """[J | f] of every amplitude row of x, shape (n, 9, 6): the exact
    Jacobian of the constraints, then their values as a sixth column; and
    each row's largest |c_i| / max(1, b_i), b_i the bound the verdicts
    take (constraint_scales), floored at 1 so that roots where every term
    vanishes pass. All come from one evaluation of the term table, whose
    groups lie in the order of [J | f | b] (_term_table), so one reduceat
    sum over the monomials makes them all. A nonzero value whose bound
    overflows reads nan, never a pass, as no verdict takes such a bound
    (_normalized).

    It takes only gathers, elementwise products and reduceat sums, so a
    row rounds the same whatever the other rows are, which a BLAS
    contraction would not. A line-search trial that is accepted already
    carries the Jacobian and the stop test of the next Newton iteration.
    """
    # a reduceat over the terms sums each group over every row at once;
    # the groups become rows in a strided view
    jfb = np.add.reduceat(_monomials(table, x), _STARTS).T.reshape(-1, 9, 7)
    jf, f, bounds = jfb[:, :, :6], jfb[:, :, 5], jfb[:, :, 6]
    ratios = np.abs(f) / np.maximum(1.0, bounds)
    # a bound sums magnitudes, never below 0, and fmax sees an inf past any nan
    if np.fmax.reduce(bounds, axis=None, initial=0.0) == math.inf:
        ratios[np.isinf(bounds) & (f != 0.0)] = math.nan
    return jf, np.maximum.reduce(ratios, axis=1)


# R's entries among the top five rows of a factored (9, 6) matrix
_UPPER = np.triu(np.ones((5, 6), dtype=bool))


def _top_of_r(a):
    """The top five rows of R in the QR factorization of every (9, 6)
    matrix of a, bit for bit np.linalg.qr(a, mode="r")[:, :5]: both modes
    run LAPACK's factorization on a float copy of a, which it overwrites
    with R in its upper triangle, read off here through one fixed mask
    where mode="r" builds one with triu on every call. It runs in the
    caller's error state: QR fails only on an illegal argument, never on
    a matrix's values."""
    h = a.astype(np.float64)  # the wrapper's copy, factored in place
    _umath_linalg.qr_r_raw(h, signature="d->d")
    return np.where(_UPPER, h[:, :5], 0.0)


def _step(jf):
    """The least-squares Newton step -pinv(J) f of every row of [J | f]
    (_value_and_jacobian), (n, 9, 6) -> (n, 5).

    One QR of [J | f], factored as it stands, gives R, the top 5 x 5
    block, and Q^T f, the top of the last column; the step is -R^-1 Q^T f,
    R^-1 from LAPACK's inversion, as np.linalg.inv takes it. ||R||_F
    ||R^-1||_F bounds sigma_max / sigma_min from above, by at most 5
    times, so every row whose smallest singular value pinv would cut at
    _RCOND takes pinv's minimum-norm step instead. The diagonal of R
    alone bounds nothing without pivoting.

    Only an exactly zero pivot stops the inversion (LU of an upper
    triangular R, zeros below its diagonal, fails exactly then). The
    kernel writes NaN for that row's inverse alone and flags invalid; a
    NaN kappa is not below the cutoff, so the row takes pinv's step. Both
    kernels run in the caller's error state; _newton ignores every flag.
    """
    r = _top_of_r(jf)
    rj = r[:, :, :5]
    inv = _umath_linalg.inv(rj, signature="d->d")
    step = -(inv @ r[:, :, 5:])[:, :, 0]
    kept = c_einsum("nij,nij->n", rj, rj) * c_einsum("nij,nij->n", inv, inv) * _RCOND ** 2 < 1.0
    if not np.logical_and.reduce(kept):
        cut = ~kept
        step[cut] = -(np.linalg.pinv(jf[cut, :, :5], rcond=_RCOND) @ jf[cut, :, 5:])[:, :, 0]
    return step


def _newton(x0, table: _Substituted, tol=_TOL, budget=None):
    """Damped least-squares Newton on every amplitude row of x0 at once.

    Returns the final rows, the iterations each took, their largest
    normalized constraint and which passed: converged to tol without
    failing, within norm 1e8. A row stops when it converges to tol
    (counting the iterations completed before), when its Jacobian
    overflows or it fails, its line search failing or its norm passing
    1e8 whatever its constraint (counting the current one), or when it
    has used its budget, a count per row, _MAX_ITER unless given. table
    is the term table at the couplings (_substitute); only scan_families
    sets tol and budget (see there). Raises OverflowError when the
    constraints are not finite at x0.

    The rows still iterating are the working set: their amplitudes, value
    norms, [J | f] (_value_and_jacobian) and largest normalized
    constraints sit in working arrays, which are written out and
    compacted only in an iteration where a row stops, the budget with
    them. Every row tries the full step at once; only the rows it does
    not improve backtrack. Rows never interact, so each comes out as it
    would alone. For every double s, sqrt(s) > 1e8 exactly when s > 1e16.
    """
    xw = np.array(x0, dtype=float)
    budget = np.full(len(xw), _MAX_ITER) if budget is None else budget
    x, iters, worst = np.empty_like(xw), np.empty(len(xw), dtype=int), np.empty(len(xw))
    passed = np.empty(len(xw), dtype=bool)
    with np.errstate(all="ignore"):  # the step's LAPACK kernels' flags too
        jfw, ww = _value_and_jacobian(xw, table)
        if not np.logical_and.reduce(np.isfinite(jfw[:, :, 5]), axis=None):
            raise OverflowError("the constraints overflow at the starting amplitudes")
        nw = _norms(jfw[:, :, 5])
        rows = np.arange(len(xw))  # where each working row goes in x
        failed = np.zeros(len(xw), dtype=bool)  # stopped by the last iteration
        low = np.minimum.reduce(budget)
        for it in range(1, int(np.maximum.reduce(budget)) + 2):
            # a stopped, converged or spent row completed it - 1
            # iterations; one whose Jacobian overflowed stops in this one
            # (its values are finite: a step is kept only where it lowers
            # their norm)
            stop = failed | (ww <= tol)
            if it > low:
                stop |= budget < it
            go = np.logical_and.reduce(np.isfinite(jfw), axis=(1, 2)) > stop
            if not np.logical_and.reduce(go):
                leave = ~go
                out = rows[leave]
                iters[out] = it - stop[leave]
                x[out], worst[out] = xw[leave], ww[leave]
                passed[out] = (~failed & (ww <= tol))[leave]
                rows, xw, nw, jfw, ww = rows[go], xw[go], nw[go], jfw[go], ww[go]
                budget = budget[go]
                if not rows.size:
                    break
                low = np.minimum.reduce(budget)
            step = _step(jfw)
            xt = xw + step
            jft, wt = _value_and_jacobian(xt, table)
            nt = _norms(jft[:, :, 5])
            failed = ~(nt < (1.0 - 1e-4) * nw)
            trying, t = failed.nonzero()[0], 0.5
            while trying.size and t >= 2.0 ** -24:
                xb = xw[trying] + t * step[trying]
                jfb, wb = _value_and_jacobian(xb, table)
                nb = _norms(jfb[:, :, 5])
                better = nb < (1.0 - 1e-4 * t) * nw[trying]
                won = trying[better]
                xt[won], nt[won], jft[won], wt[won] = (
                    xb[better], nb[better], jfb[better], wb[better])
                failed[won] = False
                trying, t = trying[~better], 0.5 * t
            if trying.size:  # a row that found no descent stops where it was
                xt[trying], jft[trying], wt[trying] = xw[trying], jfw[trying], ww[trying]
            xw, nw, jfw, ww = xt, nt, jft, wt
            failed |= np.add.reduce(xw * xw, axis=1) > 1e16
        # also a start past norm 1e8, converged before any step
        passed &= ~(np.add.reduce(x * x, axis=1) > 1e16)
    return x, iters, worst, passed


def refine_alphas(alphas0, lam: float, k: float, omega: float, g: float) -> RefineResult:
    """Damped least-squares Newton on the nine constraints over the amplitudes.

    The five amplitudes are the unknowns; lam, k, omega, g stay fixed and
    must be finite with g nonzero. The couplings are
    substituted once into the term table of c1..c9 (_term_table), which
    gives every iteration its values, their exact Jacobian and their
    bounds on magnitudes, which the stop test floors at 1
    (_value_and_jacobian). Each step is the least-squares solution from one
    QR of [J | f], or pinv's minimum-norm step where J is rank deficient
    to _RCOND; it is halved until the residual norm decreases.
    _TOL runs to the rounding floor because near junctions of solution
    branches the constraints vanish quadratically or cubically in
    distance (double or triple roots, where Newton converges only
    linearly), and stopping early would leave roots far from every
    pattern.
    Divergent iterations report converged=False and are meant to be
    discarded by the caller. Raises OverflowError when the constraints
    overflow at alphas0.
    """
    x, _ = _check_alphas("alphas0", alphas0, (lam, k, omega, g))
    xs, iters, worst, passed = _newton(x[None, :], _substitute(lam, k, omega, g))
    return RefineResult(tuple(xs[0].tolist()), bool(passed[0]), int(iters[0]), float(worst[0]))


def branch_projection(alphas, lam: float, k: float, omega: float,
                      g: float) -> tuple[str, tuple[float, ...], float]:
    """Closest solution branch: its label, nearest point, and the distance.

    A one-row view of the branch table's projection: each branch is a
    line or plane in amplitude space, and its nearest point the exact
    least-squares fit of its free parameters. Branches that only exist on
    the light cone are skipped when omega is off it (_on_cone, to 1e-9),
    the wave families when alpha4 = 0 (_applies). Ties go to the earlier
    branch in the order I, II, III, abelian-z, pure-gauge. Raises
    ValueError unless the amplitudes are five finite values and the
    couplings finite with g nonzero.
    """
    x, offsets = _check_alphas("alphas", alphas, (lam, k, omega, g))
    best, point, dist = _nearest(x[None, :], (lam, k, omega, g), offsets)
    return str(_LABELS[best[0]]), tuple(point[0].tolist()), float(dist[0])


class ScanRow(NamedTuple):
    seed_index: int
    initial: tuple[float, ...]
    alphas: tuple[float, ...]
    converged: bool
    max_constraint: float
    label: str
    distance: float
    iterations: int


def _snap(x, worst, couplings, offsets, table):
    """The scan's snap of every amplitude row of x with largest normalized
    constraint worst, at the couplings and the branch offsets there: a row
    at most _SUCCESS_TOL whose nearest branch lies
    within _SNAP_TOL moves onto it when the point there is at most
    _SUCCESS_TOL too. Writes the snapped points and their worst into x and
    worst; returns each row's branch label ('' where it did not snap) and
    its distance to the nearest branch: inf where worst is above
    _SUCCESS_TOL, and 0 where the row snapped, since the point is that
    branch's own projection."""
    labels = np.full(len(x), "", dtype=object)
    dist = np.full(len(x), math.inf)
    ok = np.flatnonzero(worst <= _SUCCESS_TOL)
    with np.errstate(all="ignore"):
        best, points, dist[ok] = _nearest(x[ok], couplings, offsets)
        near = np.flatnonzero(dist[ok] <= _SNAP_TOL)
        snapped = _value_and_jacobian(points[near], table)[1]
        passed = snapped <= _SUCCESS_TOL
        kept = near[passed]  # positions among the rows at most _SUCCESS_TOL
        x[ok[kept]], worst[ok[kept]] = points[kept], snapped[passed]
        labels[ok[kept]] = _LABELS[best[kept]]
        dist[ok[kept]] = 0.0
    return labels, dist


def scan_families(n_seeds: int, seed: int = 0, lam: float = 0.0, k: float = 1.0,
                  omega: Optional[float] = None, g: float = 1.0) -> list[ScanRow]:
    """Random-seed search for solutions of the nine constraints.

    Seeds are drawn from numpy's default_rng(seed) stream, computed in the
    package (rng._DefaultRng), five uniform values in [-_SPREAD, _SPREAD]
    per row in row order, so output is reproducible across numpy
    versions; seed is an integer >= 0. omega defaults to k. All seeds
    are Newton-refined together, as refine_alphas refines one, with the
    couplings substituted into the term table once for the whole call; a
    root counts as successful when every normalized constraint is below
    _SUCCESS_TOL.

    Successful roots within _SNAP_TOL of a branch are polished onto its
    exact parametrization, which is accepted only when it satisfies the
    constraints at least as well as _SUCCESS_TOL. The polish matters near
    branch junctions, where the constraints vanish quadratically or
    cubically in the offset (double and triple roots, where Newton
    converges only linearly) and Newton floors up to a square or a cube
    root of machine epsilon away from every branch. Roots that no branch
    explains at _SNAP_TOL keep their raw amplitudes and the label 'none',
    which would falsify the catalogue.

    So Newton first stops at _SNAP_STOP, where a root is already near
    enough to snap, and the snap runs once. Only the rows it leaves that
    stopped at that test with iterations to spare resume, in one more
    Newton at refine_alphas' _TOL with the iterations they used counted
    against _MAX_ITER, and are snapped again. A row's Newton state is its
    amplitudes alone, so a resumed row continues its trajectory bit for
    bit: every row no branch explains, and every unconverged row, is
    exactly refine_alphas from its start. The iterations column counts up
    to the stop whose root was labelled, the loose one for a row snapped
    there.

    Raises TypeError for a seed that is not an integer, and ValueError
    for a negative seed, non-finite couplings, g = 0 or a frozen phase
    k = omega = 0, before any Newton work; OverflowError when a
    coupling's square overflows (naming it, as nine_constraints does) or
    the constraints' bound on magnitudes over the seeds' range overflows.
    The rows are those of _scan_blocks, listed.
    """
    return [row for block in _scan_blocks(n_seeds, seed, lam, k, omega, g) for row in block]


def _scan_blocks(n_seeds: int, seed: int, lam: float, k: float, omega: Optional[float],
                 g: float):
    """The rows of scan_families as lists of ScanRow, one block of _BLOCK
    seeds at a time, so that a caller can write each block as it comes.
    Checks the inputs before returning, before any block is made, so that
    such a caller writes nothing for a bad input: the constraints at every
    start the seeds may draw too, through their bounds on magnitudes.
    """
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    try:
        seed = operator.index(seed)
    except TypeError:
        raise TypeError(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if omega is None:
        omega = k
    offsets = _check_couplings(lam, k, omega, g)
    if k == 0.0 and omega == 0.0:
        raise ValueError("phase is frozen at k = omega = 0; the scan needs a wave")
    couplings = (lam, k, omega, g)
    table = _substitute(*couplings)
    # every start lies in the box |alpha| <= _SPREAD, where no constraint
    # passes its bound group at the corner
    with np.errstate(over="ignore", invalid="ignore"):
        bounds = np.add.reduceat(_monomials(table, np.full((1, 5), _SPREAD)), _STARTS)[6::7]
    if not np.isfinite(bounds).all():
        raise OverflowError(f"the constraints may overflow in the seed box |alpha| <= {_SPREAD:g}")
    # imported here, by the one caller, so that no other command loads it
    from .rng import _DefaultRng
    rng = _DefaultRng(seed)

    def blocks():
        for lo in range(0, n_seeds, _BLOCK):
            starts = rng.uniform(-_SPREAD, _SPREAD, size=(min(_BLOCK, n_seeds - lo), 5))
            x, iters, worst, passed = _newton(starts, table, _SNAP_STOP)
            labels, dist = _snap(x, worst, couplings, offsets, table)
            # the rows the loose test stopped that no branch explains
            resume = np.flatnonzero((labels == "") & passed & (worst > _TOL) & (iters < _MAX_ITER))
            if resume.size:
                xr, more, wr, _ = _newton(x[resume], table, _TOL, _MAX_ITER - iters[resume])
                labels[resume], dist[resume] = _snap(xr, wr, couplings, offsets, table)
                x[resume], iters[resume], worst[resume] = xr, iters[resume] + more, wr
            converged = worst <= _SUCCESS_TOL
            labels[converged & (labels == "")] = "none"
            # the rows of Python numbers, a column at a time
            yield list(map(ScanRow._make, zip(
                range(lo, lo + len(x)), map(tuple, starts.tolist()), map(tuple, x.tolist()),
                converged.tolist(), worst.tolist(), labels.tolist(), dist.tolist(),
                iters.tolist())))
    return blocks()
