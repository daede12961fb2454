"""The algebra of c1..c9: the term table of their expansion, the
constraint and field bounds on magnitudes, the branch table, and symmetries.

The symmetry tests run every relation on the two evaluation paths of
the one polynomial source: the scalar nine_constraints and the term
table that gives the scan its values. The exact sign symmetries also
keep the bounds, and with them the normalized constraints, bit for bit.
"""

import math
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ymwaves.constraints import (
    _BRANCHES,
    _CONSTANTS,
    _FACTORS,
    _POWERS,
    _STARTS,
    _applies,
    _misfits,
    _offsets,
    _projections,
    _static_sums,
    _substitute,
    _value_and_jacobian,
    branch_projection,
    constraint_scales,
    nine_constraints,
    normalized_constraints,
)
from ymwaves.fields import (
    AnsatzParams,
    SpacetimePoint,
    _field_groups,
    _Magnitude,
    electric_field_analytic,
    magnetic_field_analytic,
)
from ymwaves.residuals import _polynomials

value = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
coupling = st.floats(min_value=0.2, max_value=2.0) | st.floats(min_value=-2.0, max_value=-0.2)
rows = st.lists(st.tuples(*[value] * 5), min_size=1, max_size=6).map(np.array)
couplings = st.tuples(value, value, value, coupling)


def _terms(sp, poly):
    """The terms of sympy's expansion of poly, with exact coefficients."""
    return sp.Add.make_args(sp.nsimplify(sp.expand(poly), rational=True))


def _summed(terms, point):
    """The sum of |term| over terms, exactly, at the point."""
    return float(sum(abs(t.subs(point)) for t in terms))


def _within_ulps(got, want, n):
    return abs(got - want) <= n * np.spacing(want)


def _expanded_constraints(sp, atoms):
    """c1..c9 from their one source, expanded by sympy with exact coefficients."""
    return [sp.expand(sp.nsimplify(poly, rational=True)) for poly in _polynomials(*atoms)]


def _table_groups(sp, atoms, magnitudes):
    """The term table read back as lists of sympy terms, one per group:
    for each of c1..c9 its derivatives in alpha1, alpha2, x, alpha4 and
    alpha5, the constraint itself, then its bound group, whose terms take
    the magnitudes of those five atoms."""
    factors = [*atoms[:5], sp.Integer(1), *magnitudes, sp.Integer(1)]
    k, w, g = atoms[5:]
    terms = [sp.Rational(c) * factors[f0] * factors[f1] * factors[f2] * k ** pk * w ** pw * g ** pg
             for c, (f0, f1, f2), (pk, pw, pg) in zip(_CONSTANTS, _FACTORS.T, _POWERS.T)]
    ends = [*_STARTS[1:], len(terms)]
    return [terms[a:b] for a, b in zip(_STARTS, ends)]


def test_term_table_is_the_expansion_of_c1_to_c9():
    # read back, the table holds each of c1..c9 term for term as sympy
    # expands it, after its derivatives in the five amplitude atoms, and
    # then again as its bound group: the same terms with |constants|, on
    # the magnitudes of the amplitude atoms
    sp = pytest.importorskip("sympy")
    atoms = sp.symbols("a1 a2 x a4 a5 k w g")
    magnitudes = sp.symbols("A1 A2 X A4 A5", positive=True)
    groups = _table_groups(sp, atoms, magnitudes)
    assert len(groups) == 9 * 7
    on_magnitudes = dict(zip(atoms[:5], magnitudes))
    for i, poly in enumerate(_expanded_constraints(sp, atoms)):
        terms = sp.Add.make_args(poly)
        assert Counter(groups[7 * i + 5]) == Counter(terms), f"c{i + 1}"
        for j in range(5):
            derivative = sp.Add(*groups[7 * i + j])
            assert sp.expand(derivative - sp.diff(poly, atoms[j])) == 0, f"c{i + 1}, atom {j}"
        bound = [abs(c) * rest.subs(on_magnitudes) for c, rest in map(sp.Mul.as_coeff_Mul, terms)]
        assert Counter(groups[7 * i + 6]) == Counter(bound), f"bound of c{i + 1}"
    # at couplings of either sign, a bound group's coefficients are its
    # value group's in magnitude, term for term
    ends = [*_STARTS[1:], None]
    for cpl in [(0.7, -1.3, 2.1, -0.6), (-0.4, 1.1, -0.9, 1.7), (0.0, -2.0, -2.0, -1.0)]:
        coefficients = _substitute(*cpl).coefficients
        for i in range(9):
            values = coefficients[_STARTS[7 * i + 5]:ends[7 * i + 5]]
            bounds = coefficients[_STARTS[7 * i + 6]:ends[7 * i + 6]]
            assert np.array_equal(bounds, np.abs(values)), f"bound of c{i + 1} at {cpl}"


def test_exact_jacobian_is_sympys_derivative():
    # the table's Jacobian in the amplitudes, 2 g d/dx for alpha3, is
    # sympy's derivative to a few ulps of the derivative's largest term
    sp = pytest.importorskip("sympy")
    atoms = sp.symbols("a1 a2 x a4 a5 k w g")
    derivatives = [[sp.expand(sp.diff(poly, atoms[j]) * (2 * atoms[7] if j == 2 else 1))
                    for j in range(5)] for poly in _expanded_constraints(sp, atoms)]
    rng = np.random.default_rng(6)
    for _ in range(10):
        a = rng.uniform(-3.0, 3.0, 5)
        lam, k, omega = rng.uniform(-3.0, 3.0, 3)
        g = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)
        jac = _value_and_jacobian(a[None, :], _substitute(lam, k, omega, g))[0][0, :, :5]
        # the atoms as the table takes them, x rounded
        values = (a[0], a[1], lam + 2.0 * g * a[2], a[3], a[4], k, omega, g)
        point = dict(zip(atoms, map(sp.Rational, values)))
        for i, row in enumerate(derivatives):
            for j, d in enumerate(row):
                exact = d.subs(point)
                scale = float(max(abs(t.subs(point)) for t in sp.Add.make_args(d)))
                err = float(abs(sp.Rational(jac[i, j]) - exact))
                assert err <= 4 * np.spacing(scale), f"d c{i + 1} / d alpha{j + 1}"


def _signed(rng, n):
    """n values of magnitude 0.1 to 3 and random signs."""
    return rng.uniform(0.1, 3.0, n) * rng.choice([-1.0, 1.0], n)


def test_scales_are_the_sum_of_expanded_monomials():
    # each constraint's bound is the sum of the magnitudes of its terms,
    # expanded in the inputs themselves (lam + 2 g alpha3 multiplied out),
    # to rounding, at inputs of either sign
    sp = pytest.importorskip("sympy")
    names = sp.symbols("a1:6 lam k omega g")
    a1, a2, a3, a4, a5, lam, k, omega, g = names
    polys = [_terms(sp, poly) for poly in _polynomials(a1, a2, lam + 2 * g * a3, a4, a5, k,
                                                       omega, g)]
    rng = np.random.default_rng(3)
    for _ in range(20):
        values = _signed(rng, 9)
        p = AnsatzParams(*values[:5], lam=values[5], k=values[6], omega=values[7], g=values[8])
        point = dict(zip(names, map(sp.Rational, values)))
        for i, (terms, bound) in enumerate(zip(polys, constraint_scales(p)), 1):
            assert _within_ulps(bound, _summed(terms, point), 8), f"c{i}"


def test_field_scale_is_the_sum_of_expanded_monomials():
    # each field coefficient group's bound is the sum of its expanded terms' magnitudes
    sp = pytest.importorskip("sympy")
    names = sp.symbols("a1:6 lam k omega g")
    groups = [_terms(sp, v) for group in _field_groups(*names) for v in group]
    rng = np.random.default_rng(4)
    for _ in range(20):
        values = _signed(rng, 9)
        magnitudes = _field_groups(*(_Magnitude(abs(v)) for v in values))
        point = dict(zip(names, map(sp.Rational, values)))
        for terms, m in zip(groups, [m for group in magnitudes for m in group], strict=True):
            assert _within_ulps(m.value, _summed(terms, point), 4)


def test_static_sums_are_the_grouped_constraints():
    # at k = omega = 0 the factored static sums are c1 + c2 - c3, c4 + c5
    # and c7 + c8 + c9 at theta = 0, all read off _polynomials
    sp = pytest.importorskip("sympy")
    a1, a2, a3, a4, a5, lam, g = sp.symbols("a1:6 lam g")
    c = _polynomials(a1, a2, lam + 2 * g * a3, a4, a5, 0, 0, g)
    grouped = (c.c1 + c.c2 - c.c3, c.c4 + c.c5, c.c7 + c.c8 + c.c9)
    for i, (got, want) in enumerate(zip(_static_sums(a1, a2, a3, a5, lam, g), grouped), 1):
        assert sp.expand(sp.nsimplify(got - want, rational=True)) == 0, f"static sum {i}"


# the catalogue: Families I and II for every sign pair, Family III for
# each eta, and the two planes
CATALOGUE = {("I", None, None), ("abelian-z", None, None), ("pure-gauge", None, None),
             *(("II", eta, xi) for eta in (1, -1) for xi in (1, -1)),
             ("III", 1, None), ("III", -1, None)}


@given(st.sampled_from(_BRANCHES), value, value, coupling, value, st.tuples(value, value))
def test_every_branch_solves_the_constraints(branch, lam, k, g, omega, free):
    # a point of any branch solves c1..c9, and projects onto itself
    assert {(b.label, b.eta, b.xi) for b in _BRANCHES} == CATALOGUE
    assert len(_BRANCHES) == len(CATALOGUE)
    if branch.cone:
        omega = k
    couplings = (lam, k, omega, g)
    row = _BRANCHES.index(branch)
    # the branch's own row alone, as a builder takes it
    point = _offsets(couplings, slice(row, row + 1))[0] + sum(
        t * np.array(d) for t, d in zip(free, branch.directions))
    worst = normalized_constraints(AnsatzParams(*point, lam=lam, k=k, omega=omega, g=g))
    assert np.max(worst) <= 1e-12
    offsets = _offsets(couplings)
    points, dist = _projections(point[None, :], offsets, True)
    assert np.max(np.abs(points[0, row] - point)) <= 1e-12
    # its own equations hold to rounding, judged on their magnitudes
    assert _misfits(point, offsets)[row] <= 4.0 * np.finfo(float).eps
    if _applies(point[None, :], True)[0, row]:
        assert dist[0, row] <= 1e-12
        assert branch_projection(point, *couplings)[2] <= 1e-12


# The branch offsets as the formulas of the table's rows, written out: the
# reference that _offsets, all rows at once or one alone, matches bit for bit
REFERENCE_OFFSETS = {
    ("I", None, None): lambda lam, k, omega, g: (0.0, 0.0, -lam / (2.0 * g), -0.0, 0.0),
    **{("II", eta, xi): lambda lam, k, omega, g, eta=eta: (
        eta * k / (4.0 * g), eta * k / (4.0 * g), -lam / (2.0 * g), -0.0, -0.0)
       for eta in (1, -1) for xi in (1, -1)},
    **{("III", eta, None): lambda lam, k, omega, g, eta=eta: (
        eta * omega / (2.0 * g), eta * k / (2.0 * g), -lam / (2.0 * g), -0.0, -0.0)
       for eta in (1, -1)},
    ("abelian-z", None, None): lambda lam, k, omega, g: (0.0, 0.0, -0.0, 0.0, -0.0),
    ("pure-gauge", None, None): lambda lam, k, omega, g: (-0.0, -0.0, -lam / (2.0 * g), 0.0, 0.0),
}


def _reference_offsets(couplings, branches):
    """The offsets of branches by REFERENCE_OFFSETS, the first that is not
    finite a ValueError naming its branch, as _offsets raises."""
    rows = []
    for b in branches:
        row = REFERENCE_OFFSETS[b.label, b.eta, b.xi](*couplings)
        if not all(map(math.isfinite, row)):
            raise ValueError(f"the {b.label} branch offset is not finite")
        rows.append(row)
    return np.array(rows)


def _bits(call):
    """call's result as int64 bits, or the message of the ValueError it raises."""
    try:
        return call().view(np.int64).tolist()
    except ValueError as e:
        return str(e).split(" is not finite")[0]


# any coupling: moderate, 1e-300 to 1e300 in magnitude, a signed zero, a
# small int, or a random finite bit pattern, subnormals among them
any_coupling = (st.floats(min_value=-3.0, max_value=3.0)
                | st.builds(lambda m, e: m * 10.0 ** e,
                            st.floats(1.0, 10.0) | st.floats(-10.0, -1.0), st.integers(-300, 299))
                | st.sampled_from([0.0, -0.0]) | st.integers(-3, 3)
                | st.integers(0, 2 ** 64 - 1).map(
                    lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]).filter(math.isfinite))


@settings(max_examples=500)
@given(any_coupling, any_coupling, any_coupling, any_coupling.filter(lambda g: g != 0))
def test_offsets_are_the_formulas_bit_for_bit(lam, k, omega, g):
    # the table's offsets, all rows at once and each branch's own row, are
    # the formulas' bits, and raise where they raise, naming the same branch
    couplings = (lam, k, omega, g)
    assert _bits(lambda: _offsets(couplings)) == _bits(
        lambda: _reference_offsets(couplings, _BRANCHES))
    for row, b in enumerate(_BRANCHES):
        assert _bits(lambda: _offsets(couplings, slice(row, row + 1))[0]) == _bits(
            lambda: _reference_offsets(couplings, [b])[0])


def test_every_row_solves_c1_to_c9_exactly():
    # each row read as exact data, an entry (n, coupling, d) as n / d
    # coupling / g and a literal as 0, plus t1 and t2 along its
    # directions, with the cone rows at omega = k: every c_i expands to 0
    sp = pytest.importorskip("sympy")
    lam, k, omega, g, t1, t2 = sp.symbols("lam k omega g t1 t2")
    nonzero = {}  # the indices of the c_i that do not vanish, per row
    for b in _BRANCHES:
        couplings = {"lam": lam, "k": k, "omega": k if b.cone else omega}
        point = [0 if isinstance(s, float) else sp.Rational(s[0], s[2]) * couplings[s[1]] / g
                 for s in b.slots]
        for t, d in zip((t1, t2), b.directions):
            point = [p + t * v for p, v in zip(point, d)]
        a1, a2, a3, a4, a5 = point
        c = _polynomials(a1, a2, lam + 2 * g * a3, a4, a5, k, couplings["omega"], g)
        bad = [i for i, ci in enumerate(c, 1) if sp.expand(ci) != 0]
        if bad:
            nonzero[b.label, b.eta, b.xi] = bad
    assert not nonzero


def _paths(x, lam, k, omega, g):
    """c1..c9 of each amplitude row: scalar nine_constraints, then the
    term table's values."""
    scalar = np.array([nine_constraints(AnsatzParams(*r, lam=lam, k=k, omega=omega, g=g))
                       for r in x.tolist()])
    return scalar, _value_and_jacobian(x, _substitute(lam, k, omega, g))[0][:, :, 5]


def _normalized_and_scales(x, lam, k, omega, g):
    """normalized_constraints of each amplitude row, then its bounds."""
    params = [AnsatzParams(*r, lam=lam, k=k, omega=omega, g=g) for r in x.tolist()]
    return (np.array([normalized_constraints(p) for p in params]),
            np.array([constraint_scales(p) for p in params]))


def _unchanged(x, cpl, y, flipped):
    """Whether the normalized constraints and the bounds are bit-identical
    at (x, cpl) and at the flipped (y, flipped)."""
    return all(np.array_equal(a, b) for a, b in
               zip(_normalized_and_scales(x, *cpl), _normalized_and_scales(y, *flipped)))


def _rounding_bound(x, lam, k, omega, g):
    """An absolute bound on the rounding in c1..c9, per row.

    Every monomial is at most 4 M^5, M the largest of 1 and the
    magnitudes of the inputs and of the unexpanded lam + 2 g alpha3.
    """
    m = np.maximum(np.abs(x).max(axis=1), abs(lam) + 2.0 * abs(g) * np.abs(x[:, 2]))
    m = np.maximum(m, max(1.0, abs(k), abs(omega), abs(g)))
    return 1e-12 * m[:, None] ** 5


@given(rows, couplings, value)
def test_lambda_shift_into_alpha3(x, cpl, delta):
    # c depends on lam and alpha3 only through lam + 2 g alpha3
    lam, k, omega, g = cpl
    y = x.copy()
    y[:, 2] -= delta
    lam2 = lam + 2.0 * g * delta
    bound = np.maximum(_rounding_bound(x, lam, k, omega, g),
                       _rounding_bound(y, lam2, k, omega, g))
    for before, after in zip(_paths(x, *cpl), _paths(y, lam2, k, omega, g)):
        assert np.all(np.abs(after - before) <= bound)


@given(rows, couplings, st.floats(min_value=0.25, max_value=4.0))
def test_coupling_rescale(x, cpl, s):
    # (alpha, g) -> (alpha / s, g s) divides every constraint by s
    lam, k, omega, g = cpl
    y = x / s
    bound = np.maximum(_rounding_bound(x, lam, k, omega, g),
                       _rounding_bound(y, lam, k, omega, g * s))
    for before, after in zip(_paths(x, *cpl), _paths(y, lam, k, omega, g * s)):
        assert np.all(np.abs(after * s - before) <= bound)


@given(rows, couplings)
def test_eta_flip(x, cpl):
    # (alpha1, alpha2, alpha5) -> -(alpha1, alpha2, alpha5) is exact
    y = x * np.array([-1.0, -1.0, 1.0, 1.0, -1.0])
    for before, after in zip(_paths(x, *cpl), _paths(y, *cpl)):
        assert np.all(after[:, 0::2] == -before[:, 0::2])  # c1, c3, c5, c7, c9
        assert np.all(after[:, 1::2] == before[:, 1::2])  # c2, c4, c6, c8
    assert _unchanged(x, cpl, y, cpl)


@given(rows, couplings)
def test_xi_flip(x, cpl):
    # (lam, alpha3) -> -(lam, alpha3) negates lam + 2 g alpha3 exactly
    lam, k, omega, g = cpl
    y = x * np.array([1.0, 1.0, -1.0, 1.0, 1.0])
    flipped = [1, 3, 7]  # c2, c4, c8
    kept = [0, 2, 4, 5, 6, 8]
    for before, after in zip(_paths(x, *cpl), _paths(y, -lam, k, omega, g)):
        assert np.all(after[:, flipped] == -before[:, flipped])
        assert np.all(after[:, kept] == before[:, kept])
    assert _unchanged(x, cpl, y, (-lam, k, omega, g))


@given(rows, couplings)
def test_time_reversal(x, cpl):
    # (omega, alpha1) -> -(omega, alpha1) negates c1..c3 and keeps the rest, exactly
    lam, k, omega, g = cpl
    y = x * np.array([-1.0, 1.0, 1.0, 1.0, 1.0])
    for before, after in zip(_paths(x, *cpl), _paths(y, lam, k, -omega, g)):
        assert np.all(after[:, :3] == -before[:, :3])
        assert np.all(after[:, 3:] == before[:, 3:])
    assert _unchanged(x, cpl, y, (lam, k, -omega, g))


@given(rows, couplings)
def test_parity(x, cpl):
    # (k, alpha2) -> -(k, alpha2) negates c7..c9 and keeps the rest, exactly
    lam, k, omega, g = cpl
    y = x * np.array([1.0, -1.0, 1.0, 1.0, 1.0])
    for before, after in zip(_paths(x, *cpl), _paths(y, lam, -k, omega, g)):
        assert np.all(after[:, 6:] == -before[:, 6:])
        assert np.all(after[:, :6] == before[:, :6])
    assert _unchanged(x, cpl, y, (lam, -k, omega, g))


@given(rows, couplings, st.floats(min_value=0.25, max_value=4.0))
def test_dilation(x, cpl, s):
    # (alpha, lam, k, omega) -> s (alpha, lam, k, omega) multiplies every
    # constraint by s^3. The rounding is bounded by the constraints' bounds,
    # the magnitudes of the monomials before the sum cancels them, with
    # |lam| + 2|g alpha3| for the rounded lam + 2 g alpha3 (measured worst
    # 6.7e-16 of it on 4,000 configurations), plus an absolute floor for
    # subnormal inputs, which scale with less precision
    lam, k, omega, g = cpl
    total = np.array([constraint_scales(AnsatzParams(*r, lam=lam, k=k, omega=omega, g=g))
                      for r in x.tolist()])
    bound = 1e-14 * s ** 3 * total + 1e-300
    for before, after in zip(_paths(x, *cpl), _paths(x * s, lam * s, k * s, omega * s, g)):
        assert np.all(np.abs(after - s ** 3 * before) <= bound)


def _boosted(b, u0, u1):
    """The (time, space) pair (u0, u1) under a boost along z of rapidity b."""
    ch, sh = math.cosh(b), math.sinh(b)
    return u0 * ch - u1 * sh, u1 * ch - u0 * sh


@given(st.tuples(*[value] * 9), st.floats(min_value=-2.0, max_value=2.0),
       st.tuples(value, value, value))
def test_boost_along_z(params, b, point):
    # a boost along z moves (alpha1, alpha2) = (phi, A_z), (omega, k) and
    # (t, z) as (time, space) pairs and keeps alpha3..alpha5, lam, g, y
    # and the phase k z - omega t: c4, c5 and c6 are invariant, (c1, c7),
    # (c2, c8) and (c3, -c9) move as pairs, and the closed-form E_y and
    # B_x mix as E_y cosh b + B_x sinh b and B_x cosh b + E_y sinh b. The
    # rounding is bounded on magnitudes, a boosted pair's atoms by
    # (|u0| + |u1|) cosh b, the fields' also by the boosted phase's
    # magnitude; over 3,000 uniform draws the worst errors were 0.23 and
    # 0.04 of these bounds
    a1, a2, a3, a4, a5, lam, k, omega, g = params
    t, y, z = point
    ch, eps = math.cosh(b), np.finfo(float).eps
    (b1, b2), (w, q), (bt, bz) = (_boosted(b, *u) for u in ((a1, a2), (omega, k), (t, z)))
    x = lam + 2.0 * g * a3
    c = _polynomials(a1, a2, x, a4, a5, k, omega, g)
    (c1, c7), (c2, c8), (c3, c9) = (_boosted(b, *u) for u in ((c.c1, c.c7), (c.c2, c.c8),
                                                              (c.c3, -c.c9)))
    want = (c1, c2, c3, c.c4, c.c5, c.c6, c7, c8, -c9)
    got = _polynomials(b1, b2, x, a4, a5, q, w, g)
    # the atoms on magnitudes, a boosted pair's bounding both frames'
    pair, rate = _Magnitude((abs(a1) + abs(a2)) * ch), _Magnitude((abs(omega) + abs(k)) * ch)
    m = [_Magnitude(abs(v)) for v in params]
    bounds = _polynomials(pair, pair, m[5] + 2.0 * m[8] * m[2], m[3], m[4], rate, rate, m[8])
    for i, (u, v, bound) in enumerate(zip(got, want, bounds), 1):
        assert abs(u - v) <= 4.0 * eps * 2.0 * ch * bound.value, f"c{i}"

    p = AnsatzParams(a1, a2, a3, a4, a5, lam, k, omega, g)
    boosted = AnsatzParams(b1, b2, a3, a4, a5, lam, q, w, g)
    s, sb = SpacetimePoint(t, 0.3, y, z), SpacetimePoint(bt, 0.3, y, bz)
    e, bx, e2, bx2 = (np.array(v) for v in (
        electric_field_analytic(p, s).ey.coeffs(), magnetic_field_analytic(p, s).ex.coeffs(),
        electric_field_analytic(boosted, sb).ey.coeffs(),
        magnetic_field_analytic(boosted, sb).ex.coeffs()))
    sh = math.sinh(b)
    fields = sum(v for group in _field_groups(pair, pair, *m[2:6], rate, rate, m[8])
                 for v in group)
    phase = (2.0 * rate * ((abs(t) + abs(z)) * ch)).value
    bound = 4.0 * eps * fields.value * (1.0 + phase)
    assert np.all(np.abs(e2 - (e * ch + bx * sh)) <= bound)
    assert np.all(np.abs(bx2 - (bx * ch + e * sh)) <= bound)
