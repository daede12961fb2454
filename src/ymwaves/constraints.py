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
along 0/+-1 directions in amplitude space. The builders, classify,
branch_projection and the scan's snap all read the branches from it.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .fields import (
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
    enter as constants, so _polynomials on _Terms atoms expands c1..c9;
    Newton's stop scales are the expansion's largest monomial (_largest)."""

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
    """c1..c9 and their derivatives, expanded once into a table of terms.

    The terms come in 54 groups, each a run of rows: c1..c9, then for
    each c_i its derivatives in the five amplitude atoms alpha1, alpha2,
    x = lam + 2 g alpha3, alpha4 and alpha5, in that order; a derivative
    that is identically zero holds one zero term. A term is a constant
    times up to three atoms times powers of k, omega / c and g.
    Returns the atoms of each term, shape (3, terms), 5 standing for a
    factor 1; the powers of k, omega / c and g, shape (3, terms); the
    constants; where each group starts; and which terms are derivatives
    in x, which the chain rule multiplies by d x / d alpha3 = 2 g.
    """
    n = len(_ATOM_NAMES)
    polys = _polynomials(*(_Terms({tuple(int(i == j) for j in range(n)): 1.0})
                           for i in range(n)))
    groups = [p.terms for p in polys]
    for p in polys:
        for j in range(5):
            groups.append({e[:j] + (e[j] - 1,) + e[j + 1:]: v * e[j]
                           for e, v in p.terms.items() if e[j]} or {(0,) * n: 0.0})
    group, exponents, constants = map(np.array, zip(*[
        (i, e, v) for i, terms in enumerate(groups) for e, v in terms.items()]))
    factors = [[j for j in range(5) for _ in range(e[j])] + [5] * (3 - sum(e[:5]))
               for e in exponents.tolist()]
    in_x = (group >= 9) & ((group - 9) % 5 == 2)
    return (np.array(factors).T, exponents[:, 5:].T, constants,
            np.searchsorted(group, np.arange(len(groups))), in_x)


_FACTORS, _POWERS, _CONSTANTS, _STARTS, _ALPHA3 = _term_table()
# the exponents the terms take, and where each term's powers of k, omega / c
# and g sit in the flattened (3, len(_EXPONENTS)) array of their powers
_EXPONENTS = range(int(_POWERS.max()) + 1)
_POWER_INDEX = _POWERS + len(_EXPONENTS) * np.arange(3)[:, None]


class _Substituted(NamedTuple):
    """The term table at fixed couplings: lam and 2 g, which make the atom
    x = lam + 2 g alpha3, and the coefficient of every term."""

    lam: float
    two_g: float
    coefficients: np.ndarray


def _substitute(lam, k, omega, g, c) -> _Substituted:
    """The term table at couplings (lam, k, omega, g, c); the first
    _STARTS[9] terms are those of c1..c9. The powers of k, omega / c and g
    are taken once, by **, so that a float coupling whose square overflows
    raises the OverflowError that names it."""
    w = omega / c
    try:
        powers = np.array([[v ** n for n in _EXPONENTS] for v in (k, w, g)]).ravel()
    except OverflowError:
        raise _squares_overflow(_ATOM_NAMES[5:], (k, w, g)) from None
    pk, pw, pg = powers[_POWER_INDEX]
    coefficients = _CONSTANTS * pk * pw * pg
    two_g = 2.0 * g
    coefficients[_ALPHA3] *= two_g
    return _Substituted(lam, two_g, coefficients)


def _monomials(table: _Substituted, amplitudes):
    """The terms of the substituted table at amplitude columns, shape
    (5, n) -> (terms, n)."""
    a1, a2, a3, a4, a5 = amplitudes
    f0, f1, f2 = _FACTORS
    with np.errstate(all="ignore"):  # a term that overflows is inf, judged by the callers
        atoms = np.array([a1, a2, table.lam + table.two_g * a3, a4, a5, np.ones_like(a1)])
        return table.coefficients[:, None] * atoms[f0] * atoms[f1] * atoms[f2]


def _largest(monomials):
    """Newton's stop scales from a table's monomials, shape (9, n): each
    constraint's largest term magnitude, floored at 1 so that roots where all vanish pass."""
    return np.maximum(1.0, np.maximum.reduceat(np.abs(monomials[:_STARTS[9]]), _STARTS[:9]))


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
    c: float = 1.0
    eta: Optional[int] = None
    xi: Optional[int] = None

    def params(self) -> AnsatzParams:
        return _build(self.family, self.k, self.omega, self.alpha4, self.lam, self.g, self.c,
                      self.eta, self.xi)


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
    """A solution branch in amplitude space: offset + sum_m t_m directions[m]."""

    label: str
    eta: Optional[int]
    xi: Optional[int]
    cone: bool  # exists only on the light cone omega = k c
    wave: bool  # describes only rows with a running wave, |alpha4| > 1e-9
    offset: Callable  # (lam, k, omega, g, c) -> five amplitudes
    directions: tuple  # one or two 0/+-1 vectors with no coordinate in common


# The catalogue, the one place each branch is written. Ties between
# equally near branches go to the earlier row. A free coordinate without
# an offset holds -0.0, the additive identity, so offset + t is t exactly.
_BRANCHES = (
    _Branch("I", None, None, True, True,
            lambda lam, k, omega, g, c: (0.0, 0.0, -lam / (2.0 * g), -0.0, 0.0),
            ((0, 0, 0, 1, 0),)),
    *(_Branch("II", eta, xi, True, True,
              lambda lam, k, omega, g, c, eta=eta: (
                  eta * k / (4.0 * g), eta * k / (4.0 * g), -lam / (2.0 * g), -0.0, -0.0),
              ((0, 0, xi, 1, eta),))
      for eta in (1, -1) for xi in (1, -1)),
    *(_Branch("III", eta, None, False, True,
              lambda lam, k, omega, g, c, eta=eta: (
                  eta * omega / (2.0 * g * c), eta * k / (2.0 * g), -lam / (2.0 * g), -0.0, -0.0),
              ((0, 0, 0, 1, eta),))
      for eta in (1, -1)),
    _Branch("abelian-z", None, None, True, False,
            lambda lam, k, omega, g, c: (0.0, 0.0, -0.0, 0.0, -0.0),
            ((0, 0, 1, 0, 0), (0, 0, 0, 0, 1))),
    _Branch("pure-gauge", None, None, False, False,
            lambda lam, k, omega, g, c: (-0.0, -0.0, -lam / (2.0 * g), 0.0, 0.0),
            ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0))),
)

# the table as arrays; a one-direction row is padded with a zero vector
_LABELS = np.array([b.label for b in _BRANCHES], dtype=object)
_CONE = np.array([b.cone for b in _BRANCHES])
_WAVE = np.array([b.wave for b in _BRANCHES])
_DIRECTIONS = np.array([b.directions + ((0,) * 5,) * (2 - len(b.directions))
                        for b in _BRANCHES], dtype=float)


def _check_finite(couplings):
    """Reject a coupling (lam, k, omega, g, c) that is not finite, by name."""
    for name, value in zip(("lambda", "k", "omega", "g", "c"), couplings):
        _require_finite(name, value)


def _check_offsets(couplings, branches=_BRANCHES):
    """Reject couplings at which a branch offset is not finite: it overflows,
    or 2 g or 2 g c underflows to zero and the offset divides by it."""
    for b in branches:
        try:
            finite = all(map(math.isfinite, b.offset(*couplings)))
        except ZeroDivisionError:
            finite = False
        if not finite:
            raise ValueError(f"the {b.label} branch offset is not finite at these couplings; "
                             "it divides by g and by g c")


def _projections(x, couplings, on_cone: bool):
    """The nearest points of every branch to every amplitude row of x, shape
    (n, branches, 5), and their distances, shape (n, branches).

    The distance is inf where the branch cannot describe the row: off the
    light cone for a cone branch, and for a wave family when
    |alpha4| <= 1e-9, a vacuum point that the planes describe. A distance
    that overflows reads as the largest float, so that it still beats a
    branch that does not apply. A branch's directions are orthogonal, so
    the least-squares parameter along d is d . (x - offset) / d . d; with
    0/+-1 entries only its sums round.
    """
    offsets = np.array([b.offset(*couplings) for b in _BRANCHES])
    r = x[:, None, :] - offsets
    points = np.broadcast_to(offsets, r.shape)
    for d in _DIRECTIONS.transpose(1, 0, 2):
        t = sum(r[..., j] * d[:, j] for j in range(5)) / np.maximum(1.0, np.sum(d * d, axis=1))
        points = np.where(d != 0.0, offsets + d * t[..., None], points)
    diff = points - x[:, None, :]
    dist = np.sqrt(sum(diff[..., j] * diff[..., j] for j in range(5)))
    applies = (on_cone | ~_CONE) & ((np.abs(x[:, 3:4]) > 1e-9) | ~_WAVE)
    return points, np.where(applies, np.fmin(dist, np.finfo(float).max), np.inf)


def _nearest(x, couplings):
    """The nearest branch of each amplitude row of x, with the light cone to
    1e-9 relative: its table index, the point on it and the distance."""
    lam, k, omega, g, c = couplings
    points, dist = _projections(x, couplings, abs(omega - k * c) <= 1e-9 * max(1.0, abs(k * c)))
    best = dist.argmin(axis=1)
    rows = np.arange(len(x))
    return best, points[rows, best], dist[rows, best]


def _build(family, k, omega, alpha4, lam, g, c, eta=None, xi=None) -> AnsatzParams:
    """A family's configuration: its offset plus alpha4 along its direction.
    Signs the family does not have are ignored. A family on the light cone
    takes omega = k c and needs k != 0."""
    _check_finite((lam, k, omega, g, c))
    if g == 0.0:
        raise ValueError(f"family {family} requires g != 0")
    if c == 0.0:
        raise ValueError("c must be nonzero")
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
    omega = k * c if branch.cone else omega
    _check_offsets((lam, k, omega, g, c), [branch])
    (d,) = branch.directions
    point = [o + s * alpha4 if s else o for o, s in zip(branch.offset(lam, k, omega, g, c), d)]
    return AnsatzParams(*point, lam=lam, k=k, omega=omega, g=g, c=c)


def build_family_i(k: float, alpha4: float, lam: float, g: float,
                   c: float = 1.0) -> AnsatzParams:
    """Linear-wave branch; requires g != 0 and k != 0."""
    return _build("I", k, k * c, alpha4, lam, g, c)


def build_family_ii(k: float, alpha4: float, lam: float, g: float,
                    eta: int, xi: int, c: float = 1.0) -> AnsatzParams:
    """Nonlinear-wave branch; any sign pair (eta, xi) yields a solution."""
    return _build("II", k, k * c, alpha4, lam, g, c, eta, xi)


def build_family_iii(k: float, omega: float, alpha4: float, lam: float,
                     g: float, eta: int = 1, c: float = 1.0) -> AnsatzParams:
    """Pure-gauge branch; no dispersion relation ties omega to k."""
    return _build("III", k, omega, alpha4, lam, g, c, eta)


_PATTERN_TOL = 1e-6  # classify's branch match, relative (see classify)
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


def _judged(p: AnsatzParams, tol: float, normalized=None):
    """What classify and verify judge against tol, its kind and the 1-based
    indices of the values not within tol: a frozen phase's static
    conditions, over which the nine are over-strong, or else the nine
    normalized constraints (normalized, when the caller has them). The
    nine come first, so that an overflow in them is named as verify names it."""
    values = normalized_constraints(p) if normalized is None else normalized
    kind = "constraints"
    if p.k == 0.0 and p.omega == 0.0:
        values, kind = _static_conditions(p), "static conditions"
    return values, kind, tuple(i for i, v in enumerate(values, start=1) if not v <= tol)


def _rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= _PATTERN_TOL * max(1.0, abs(a), abs(b))


def _sign_suffix(eta, xi) -> str:  # ' eta=+1 xi=-1', the signs a branch has
    return "".join(f" {name}={v:+d}" for name, v in (("eta", eta), ("xi", xi)) if v is not None)


def classify(p: AnsatzParams, tol: float = 1e-9):
    """Decide whether p solves the equations of motion and name its branch.

    Returns a FamilySolution (priority III, then II, then I), a
    PlaneSolution on the abelian-z plane, a TrivialZeroField for other
    solving configurations with vanishing fields (the pure-gauge plane
    among them), or a NotASolution listing the violated constraints. A
    branch matches when the amplitudes and, where it needs it, the light
    cone hold to _PATTERN_TOL (relative) on the branch table's projection.
    Whether p solves is _judged's verdict, which verify's checks share
    (the static conditions at k = omega = 0, else the nine). Raises
    ClassificationError for a verified solution matching no catalogued
    pattern, and ValueError for g = 0.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if p.g == 0.0:
        raise ValueError("family classification requires g != 0")

    values, kind, bad = _judged(p, tol)
    if bad:  # the static conditions are sums of constraints; none is named
        return NotASolution(violated=bad if kind == "constraints" else (),
                            worst=float(np.max(values)))
    if kind == "static conditions":
        return TrivialZeroField(note="static configuration, zero fields")

    alphas = _values(p)[:5]
    _check_offsets(_values(p)[5:])
    points, dist = _projections(np.array([alphas]), _values(p)[5:],
                                _rel_close(p.omega, p.k * p.c))
    vanish = _fields_vanish(p, tol)
    # family III is pure gauge, the one family whose fields vanish
    for label in ("III",) if vanish else ("II", "I", "abelian-z"):
        for branch, point, d in zip(_BRANCHES, points[0].tolist(), dist[0]):
            if not (branch.label == label and d < math.inf
                    and all(_rel_close(a, b) for a, b in zip(alphas, point))):
                continue
            if label == "abelian-z":
                return PlaneSolution(label, alphas)
            return FamilySolution(label, k=p.k, omega=p.omega, alpha4=p.alpha4, lam=p.lam,
                                  g=p.g, c=p.c, eta=branch.eta, xi=branch.xi)
    if vanish:
        return TrivialZeroField(note="zero fields")
    near = int(dist[0].argmin())
    branch = _BRANCHES[near]
    raise ClassificationError(f"solution outside the catalogued patterns; nearest branch "
                              f"{branch.label}{_sign_suffix(branch.eta, branch.xi)} "
                              f"at distance {dist[0, near]:.17g}")


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

    ga, am = _numeric_residuals(p, coords)
    with np.errstate(all="ignore"):
        frame = p.lam * y
        # gauss, ampere e_x, e_y, e_z on the frame: (Sx, Sy, Sz, channel, sample)
        on_frame = np.array(_frame_coeffs(np.cos(frame), np.sin(frame),
                                          np.concatenate([ga[:, None], am], axis=1)))
    # twelve channels: gauss, ampere e_x, e_y, e_z, each on Sx, Sy, Sz
    samples = on_frame.transpose(2, 1, 0).reshape(len(y), 12)
    return np.linalg.lstsq(_ORACLE_DESIGN, samples, rcond=None)[0], samples


class RefineResult(NamedTuple):
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


def _check_couplings(lam, k, omega, g, c):
    """Reject couplings before any Newton work rather than part way."""
    _check_finite((lam, k, omega, g, c))
    if g == 0.0:
        raise ValueError("g must be nonzero: the branch patterns divide by it")
    if c == 0.0:
        raise ValueError("c must be nonzero")
    _check_offsets((lam, k, omega, g, c))


def _check_alphas(name, alphas, couplings) -> np.ndarray:
    x = np.array(alphas, dtype=float)
    if x.shape != (5,):
        raise ValueError(f"{name} must have five entries")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite, got {tuple(alphas)!r}")
    _check_couplings(*couplings)
    return x


def _norms(a):
    """The Euclidean norm of every row of a, as np.linalg.norm(a, axis=1)
    computes it, without its dispatch."""
    return np.sqrt(np.add.reduce(a * a, axis=1))


def _value_and_jacobian(x, table: _Substituted):
    """The constraints of every amplitude row of x, shape (n, 9), their
    exact Jacobian, shape (n, 9, 5), and each row's largest normalized
    constraint, all from one evaluation of the term table.

    It takes only gathers, elementwise products and reduceat sums, so a
    row rounds the same whatever the other rows are, which a BLAS
    contraction would not. A line-search trial that is accepted already
    carries the Jacobian and the stop test of the next Newton iteration.
    """
    m = _monomials(table, x.T)
    # contiguous rows, which _norms sums in one order whatever their number
    sums = np.add.reduceat(m, _STARTS).T.copy()
    f = sums[:, :9]
    return f, sums[:, 9:].reshape(-1, 9, 5), np.max(np.abs(f) / _largest(m).T, axis=1)


# R's entries among the top five rows of a factored (9, 6) matrix
_UPPER = np.triu(np.ones((5, 6), dtype=bool))


def _top_of_r(a):
    """The top five rows of R in the QR factorization of every (9, 6)
    matrix of a, bit for bit np.linalg.qr(a, mode="r")[:, :5]: the raw mode
    runs the same LAPACK factorization and leaves R in its upper triangle,
    read off here through one fixed mask where mode="r" builds one with
    triu on every call."""
    h = np.linalg.qr(a, mode="raw")[0]
    return np.where(_UPPER, h.transpose(0, 2, 1)[:, :5], 0.0)


def _step(jac, f):
    """The least-squares Newton step -pinv(J) f of every row, (n, 9, 5) and
    (n, 9) -> (n, 5).

    One QR of [J | f] gives R, the top 5 x 5 block, and Q^T f, the top of
    the last column; the step is -R^-1 Q^T f, R^-1 from np.linalg.inv.
    ||R||_F ||R^-1||_F bounds sigma_max / sigma_min from above, by at most
    5 times, so every row whose smallest singular value pinv would cut at
    _RCOND takes pinv's minimum-norm step instead. The diagonal of R alone
    bounds nothing without pivoting.
    """
    r = _top_of_r(np.concatenate([jac, f[:, :, None]], axis=2))
    rj = r[:, :, :5]
    # an exactly zero pivot would stop the inversion; such rows fall back
    singular = ~(np.abs(np.diagonal(rj, axis1=1, axis2=2)).min(axis=1) > 0.0)
    if singular.any():
        rj = np.where(singular[:, None, None], np.eye(5), rj)
    inv = np.linalg.inv(rj)
    step = -(inv @ r[:, :, 5:])[:, :, 0]
    kappa2 = np.einsum("nij,nij->n", rj, rj) * np.einsum("nij,nij->n", inv, inv)
    cut = singular | ~(kappa2 * _RCOND ** 2 < 1.0)
    if cut.any():
        step[cut] = -(np.linalg.pinv(jac[cut], rcond=_RCOND) @ f[cut, :, None])[:, :, 0]
    return step


def _newton(x0, table: _Substituted, tol=_TOL, budget=None):
    """Damped least-squares Newton on every amplitude row of x0 at once.

    Returns the final rows, the iterations each took and their largest
    normalized constraint. A row stops when it converges to tol (counting
    the iterations completed before), when its Jacobian overflows, its
    line search fails or its norm passes 1e8 (counting the current one),
    or when it has used its budget, _MAX_ITER iterations or one count per
    row. table is the term table at the couplings (_substitute); only
    scan_families sets tol and budget (see there). Raises OverflowError
    when the constraints are not finite at x0.

    The rows still iterating are the working set: their amplitudes, values,
    value norms, Jacobians and largest normalized constraints sit in
    working arrays, which are written out and compacted only in an
    iteration where a row stops. Every row tries the full step at once;
    only the rows it does not improve backtrack. Rows never interact, so
    each comes out as it would alone.
    """
    xw = np.array(x0, dtype=float)
    budget = np.broadcast_to(_MAX_ITER if budget is None else budget, len(xw))
    x, iters, worst = np.empty_like(xw), np.empty(len(xw), dtype=int), np.empty(len(xw))
    with np.errstate(all="ignore"):
        fw, jw, ww = _value_and_jacobian(xw, table)
        if not np.isfinite(fw).all():
            raise OverflowError("the constraints overflow at the starting amplitudes")
        nw = _norms(fw)
        rows = np.arange(len(xw))  # where each working row goes in x
        failed = np.zeros(len(xw), dtype=bool)  # stopped by the last iteration
        for it in range(1, int(budget.max()) + 2):
            # a stopped, converged or spent row completed it - 1
            # iterations; one whose Jacobian overflowed stops in this one
            stop = failed | (ww <= tol) | (budget[rows] < it)
            go = ~stop & np.isfinite(jw).all(axis=(1, 2))
            if not go.all():
                out = rows[~go]
                iters[out] = it - stop[~go]
                x[out], worst[out] = xw[~go], ww[~go]
                rows, xw, fw, nw, jw, ww = rows[go], xw[go], fw[go], nw[go], jw[go], ww[go]
                if not rows.size:
                    break
            step = _step(jw, fw)
            xt = xw + step
            ft, jt, wt = _value_and_jacobian(xt, table)
            nt = _norms(ft)
            failed = ~(nt < (1.0 - 1e-4) * nw)
            trying, t = np.flatnonzero(failed), 0.5
            while trying.size and t >= 2.0 ** -24:
                xb = xw[trying] + t * step[trying]
                fb, jb, wb = _value_and_jacobian(xb, table)
                nb = _norms(fb)
                better = nb < (1.0 - 1e-4 * t) * nw[trying]
                won = trying[better]
                xt[won], ft[won], nt[won], jt[won], wt[won] = (
                    xb[better], fb[better], nb[better], jb[better], wb[better])
                failed[won] = False
                trying, t = trying[~better], 0.5 * t
            if trying.size:  # a row that found no descent stops where it was
                xt[trying], ft[trying], wt[trying] = xw[trying], fw[trying], ww[trying]
            xw, fw, nw, jw, ww = xt, ft, nt, jt, wt
            failed |= _norms(xw) > 1e8
    return x, iters, worst


def refine_alphas(alphas0, lam: float, k: float, omega: float, g: float,
                  c: float = 1.0) -> RefineResult:
    """Damped least-squares Newton on the nine constraints over the amplitudes.

    The five amplitudes are the unknowns; lam, k, omega, g, c stay fixed
    and must be finite with g and c nonzero. The couplings are
    substituted once into the term table of c1..c9 (_term_table), which
    gives every iteration its values, their exact Jacobian and the scales
    of the stop test. Each step is the least-squares solution from one
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
    x = _check_alphas("alphas0", alphas0, (lam, k, omega, g, c))
    xs, iters, worst = _newton(x[None, :], _substitute(lam, k, omega, g, c))
    return RefineResult(tuple(xs[0]), bool(worst[0] <= _TOL), int(iters[0]), float(worst[0]))


def branch_projection(alphas, lam: float, k: float, omega: float, g: float,
                      c: float = 1.0) -> tuple[str, tuple[float, ...], float]:
    """Closest solution branch: its label, nearest point, and the distance.

    A one-row view of the branch table's projection: each branch is a
    line or plane in amplitude space, and its nearest point the exact
    least-squares fit of its free parameters. Branches that only exist on
    the light cone are skipped when omega is off it, the wave families
    when |alpha4| <= 1e-9. Ties go to the earlier branch in the order I,
    II, III, abelian-z, pure-gauge. Raises ValueError unless the
    amplitudes are five finite values and the couplings finite with g
    and c nonzero.
    """
    x = _check_alphas("alphas", alphas, (lam, k, omega, g, c))
    best, point, dist = _nearest(x[None, :], (lam, k, omega, g, c))
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


def _snap(x, worst, couplings, table):
    """The scan's snap of every amplitude row of x with largest normalized
    constraint worst: a row at most _SUCCESS_TOL whose nearest branch lies
    within _SNAP_TOL moves onto it when the point there is at most
    _SUCCESS_TOL too. Writes the snapped points and their worst into x and
    worst; returns each row's branch label ('' where it did not snap) and
    its distance to the nearest branch (inf where worst is above
    _SUCCESS_TOL)."""
    labels = np.full(len(x), "", dtype=object)
    dist = np.full(len(x), math.inf)
    ok = np.flatnonzero(worst <= _SUCCESS_TOL)
    with np.errstate(all="ignore"):
        best, points, dist[ok] = _nearest(x[ok], couplings)
        near = np.flatnonzero(dist[ok] <= _SNAP_TOL)
        snapped = _value_and_jacobian(points[near], table)[2]
        passed = snapped <= _SUCCESS_TOL
        kept = near[passed]  # positions among the rows at most _SUCCESS_TOL
        x[ok[kept]], worst[ok[kept]] = points[kept], snapped[passed]
        labels[ok[kept]] = _LABELS[best[kept]]
        dist[ok[kept]] = _nearest(x[ok[kept]], couplings)[2]
    return labels, dist


def scan_families(n_seeds: int, seed: int = 0, lam: float = 0.0, k: float = 1.0,
                  omega: Optional[float] = None, g: float = 1.0, c: float = 1.0) -> list[ScanRow]:
    """Random-seed search for solutions of the nine constraints.

    Seeds are drawn from numpy's default_rng(seed), five uniform values
    in [-_SPREAD, _SPREAD] per row in row order, so output is reproducible
    per version. omega defaults to k c. All seeds are Newton-refined
    together, as refine_alphas refines one, with the couplings
    substituted into the term table once for the whole call; a root
    counts as successful when every normalized constraint is below
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

    Raises ValueError for non-finite couplings, g = 0, c = 0 or a frozen
    phase k = omega = 0 before any Newton work, and OverflowError when a
    coupling's square overflows (naming it, as nine_constraints does) or
    the constraints overflow at the seeds. The rows are those of
    _scan_blocks, listed.
    """
    return [row for block in _scan_blocks(n_seeds, seed, lam, k, omega, g, c) for row in block]


def _scan_blocks(n_seeds: int, seed: int, lam: float, k: float, omega: Optional[float],
                 g: float, c: float):
    """The rows of scan_families as lists of ScanRow, one block of _BLOCK
    seeds at a time, so that a caller can write each block as it comes.
    Checks the inputs before returning, before any block is made, so that
    such a caller writes nothing for a bad input.
    """
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    if omega is None:
        omega = k * c
    _check_couplings(lam, k, omega, g, c)
    if k == 0.0 and omega == 0.0:
        raise ValueError("phase is frozen at k = omega = 0; the scan needs a wave")
    couplings = (lam, k, omega, g, c)
    table = _substitute(*couplings)
    rng = np.random.default_rng(seed)

    def blocks():
        for lo in range(0, n_seeds, _BLOCK):
            starts = rng.uniform(-_SPREAD, _SPREAD, size=(min(_BLOCK, n_seeds - lo), 5))
            x, iters, worst = _newton(starts, table, _SNAP_STOP)
            labels, dist = _snap(x, worst, couplings, table)
            # the rows the loose test stopped that no branch explains: a row
            # that failed its line search stopped where that test had turned
            # it away, one past norm 1e8 stopped failed whatever the test
            # said, and one whose Jacobian overflowed as it passed stops in
            # its resumed first iteration, counted as refine_alphas counts it
            resume = np.flatnonzero((labels == "") & (worst > _TOL) & (worst <= _SNAP_STOP)
                                    & (iters < _MAX_ITER) & (_norms(x) <= 1e8))
            if resume.size:
                xr, more, wr = _newton(x[resume], table, _TOL, _MAX_ITER - iters[resume])
                labels[resume], dist[resume] = _snap(xr, wr, couplings, table)
                x[resume], iters[resume], worst[resume] = xr, iters[resume] + more, wr
            converged = worst <= _SUCCESS_TOL
            labels[converged & (labels == "")] = "none"
            yield [ScanRow(seed_index=lo + j, initial=tuple(start), alphas=tuple(a),
                           converged=bool(conv), max_constraint=float(w), label=label,
                           distance=float(d), iterations=int(n))
                   for j, (start, a, conv, w, label, d, n)
                   in enumerate(zip(starts, x, converged, worst, labels, dist, iters))]
    return blocks()
