"""The algebra of c1..c9: the scale and field monomial tables, the branch
table, and symmetries.

The symmetry tests run every relation on both evaluation paths of the
one polynomial source: the scalar nine_constraints and the batched rows
of the Newton core.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ymwaves.constraints import (
    _BRANCHES,
    _SCALE_STARTS,
    _constraint_rows,
    _projections,
    _scale_monomials,
    branch_projection,
    nine_constraints,
    normalized_constraints,
)
from ymwaves.fields import AnsatzParams, _field_monomials, field_coefficient_groups
from ymwaves.residuals import _harmonics

value = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
coupling = st.floats(min_value=0.2, max_value=2.0) | st.floats(min_value=-2.0, max_value=-0.2)
rows = st.lists(st.tuples(*[value] * 5), min_size=1, max_size=6).map(np.array)
couplings = st.tuples(value, value, value, coupling, st.floats(min_value=0.5, max_value=2.0))


def test_scale_table_lists_every_monomial():
    # with positive symbols and lam = X - 2 g alpha3 the polynomials expand
    # in X = lam + 2 g alpha3, whose magnitude the scale table uses
    sp = pytest.importorskip("sympy")
    a1, a2, a3, a4, a5, x, k, omega, g = sp.symbols("a1:6 X k omega g", positive=True)
    args = (a1, a2, a3, a4, a5, x - 2.0 * g * a3, k, omega, g, 1)
    polys = _harmonics(*args)
    monomials = [sp.nsimplify(m, rational=True) for m in _scale_monomials(*args)]
    for i, (poly, lo, hi) in enumerate(zip(polys, _SCALE_STARTS, _SCALE_STARTS[1:]), 1):
        terms = [sp.nsimplify(abs(t), rational=True) for t in sp.Add.make_args(sp.expand(poly))]
        assert len(terms) == hi - lo, f"c{i}"
        assert set(terms) == set(monomials[lo:hi]), f"c{i}"


def test_field_monomial_table_lists_every_term():
    # each coefficient group of the fields expands into exactly its two
    # monomials, signs included, so their magnitudes are its scale
    sp = pytest.importorskip("sympy")
    names = ("alpha1", "alpha2", "alpha3", "alpha4", "alpha5", "lam", "k", "omega", "g", "c")
    args = sp.symbols(" ".join(names))
    groups = [v for group in field_coefficient_groups(SimpleNamespace(**dict(zip(names, args))))
              for v in group]
    for group, pair in zip(groups, _field_monomials(*args), strict=True):
        terms = sp.Add.make_args(sp.expand(group))
        assert len(terms) == 2
        assert set(terms) == {sp.expand(m) for m in pair}


# the catalogue: Families I and II for every sign pair, Family III for
# each eta, and the two planes
CATALOGUE = {("I", None, None), ("abelian-z", None, None), ("pure-gauge", None, None),
             *(("II", eta, xi) for eta in (1, -1) for xi in (1, -1)),
             ("III", 1, None), ("III", -1, None)}


@given(st.sampled_from(_BRANCHES), value, value, coupling, st.floats(min_value=0.5, max_value=2.0),
       value, st.tuples(value, value))
def test_every_branch_solves_the_constraints(branch, lam, k, g, c, omega, free):
    # a point of any branch solves c1..c9, and projects onto itself
    assert {(b.label, b.eta, b.xi) for b in _BRANCHES} == CATALOGUE
    assert len(_BRANCHES) == len(CATALOGUE)
    if branch.cone:
        omega = k * c
    couplings = (lam, k, omega, g, c)
    point = np.array(branch.offset(*couplings)) + sum(
        t * np.array(d) for t, d in zip(free, branch.directions))
    worst = normalized_constraints(AnsatzParams(*point, lam=lam, k=k, omega=omega, g=g, c=c))
    assert np.max(worst) <= 1e-12
    points, dist = _projections(point[None, :], couplings, True)
    row = _BRANCHES.index(branch)
    assert np.max(np.abs(points[0, row] - point)) <= 1e-12
    if abs(point[3]) > 1e-9 or not branch.wave:
        assert dist[0, row] <= 1e-12
        assert branch_projection(point, *couplings)[2] <= 1e-12


def _both_paths(x, lam, k, omega, g, c):
    """c1..c9 of each amplitude row: scalar nine_constraints, then the batched rows."""
    scalar = np.array([nine_constraints(AnsatzParams(*r, lam=lam, k=k, omega=omega, g=g, c=c))
                       for r in x.tolist()])
    return scalar, _constraint_rows(x, (lam, k, omega, g, c))


def _rounding_bound(x, lam, k, omega, g, c):
    """An absolute bound on the rounding in c1..c9, per row.

    Every monomial is at most 4 M^5, M the largest of 1 and the
    magnitudes of the inputs and of the unexpanded lam + 2 g alpha3.
    """
    m = np.maximum(np.abs(x).max(axis=1), abs(lam) + 2.0 * abs(g) * np.abs(x[:, 2]))
    m = np.maximum(m, max(1.0, abs(k), abs(omega / c), abs(g)))
    return 1e-12 * m[:, None] ** 5


@given(rows, couplings, value)
def test_lambda_shift_into_alpha3(x, cpl, delta):
    # c depends on lam and alpha3 only through lam + 2 g alpha3
    lam, k, omega, g, c = cpl
    y = x.copy()
    y[:, 2] -= delta
    lam2 = lam + 2.0 * g * delta
    bound = np.maximum(_rounding_bound(x, lam, k, omega, g, c),
                       _rounding_bound(y, lam2, k, omega, g, c))
    for before, after in zip(_both_paths(x, *cpl), _both_paths(y, lam2, k, omega, g, c)):
        assert np.all(np.abs(after - before) <= bound)


@given(rows, couplings, st.floats(min_value=0.25, max_value=4.0))
def test_coupling_rescale(x, cpl, s):
    # (alpha, g) -> (alpha / s, g s) divides every constraint by s
    lam, k, omega, g, c = cpl
    y = x / s
    bound = np.maximum(_rounding_bound(x, lam, k, omega, g, c),
                       _rounding_bound(y, lam, k, omega, g * s, c))
    for before, after in zip(_both_paths(x, *cpl), _both_paths(y, lam, k, omega, g * s, c)):
        assert np.all(np.abs(after * s - before) <= bound)


@given(rows, couplings)
def test_eta_flip(x, cpl):
    # (alpha1, alpha2, alpha5) -> -(alpha1, alpha2, alpha5) is exact
    y = x * np.array([-1.0, -1.0, 1.0, 1.0, -1.0])
    for before, after in zip(_both_paths(x, *cpl), _both_paths(y, *cpl)):
        assert np.all(after[:, 0::2] == -before[:, 0::2])  # c1, c3, c5, c7, c9
        assert np.all(after[:, 1::2] == before[:, 1::2])  # c2, c4, c6, c8


@given(rows, couplings)
def test_xi_flip(x, cpl):
    # (lam, alpha3) -> -(lam, alpha3) negates lam + 2 g alpha3 exactly
    lam, k, omega, g, c = cpl
    y = x * np.array([1.0, 1.0, -1.0, 1.0, 1.0])
    flipped = [1, 3, 7]  # c2, c4, c8
    kept = [0, 2, 4, 5, 6, 8]
    for before, after in zip(_both_paths(x, *cpl), _both_paths(y, -lam, k, omega, g, c)):
        assert np.all(after[:, flipped] == -before[:, flipped])
        assert np.all(after[:, kept] == before[:, kept])


@given(rows, couplings)
def test_time_reversal(x, cpl):
    # (omega, alpha1) -> -(omega, alpha1) negates c1..c3 and keeps the rest, exactly
    lam, k, omega, g, c = cpl
    y = x * np.array([-1.0, 1.0, 1.0, 1.0, 1.0])
    for before, after in zip(_both_paths(x, *cpl), _both_paths(y, lam, k, -omega, g, c)):
        assert np.all(after[:, :3] == -before[:, :3])
        assert np.all(after[:, 3:] == before[:, 3:])


@given(rows, couplings)
def test_parity(x, cpl):
    # (k, alpha2) -> -(k, alpha2) negates c7..c9 and keeps the rest, exactly
    lam, k, omega, g, c = cpl
    y = x * np.array([1.0, -1.0, 1.0, 1.0, 1.0])
    for before, after in zip(_both_paths(x, *cpl), _both_paths(y, lam, -k, omega, g, c)):
        assert np.all(after[:, 6:] == -before[:, 6:])
        assert np.all(after[:, :6] == before[:, :6])


@given(rows, couplings, st.floats(min_value=0.25, max_value=4.0))
def test_dilation(x, cpl, s):
    # (alpha, lam, k, omega) -> s (alpha, lam, k, omega) multiplies every
    # constraint by s^3. The rounding is bounded by the magnitudes of the
    # monomials before the sum cancels them, with |lam| + 2|g alpha3| for
    # the rounded lam + 2 g alpha3 (measured worst 6.7e-16 of it on 4,000
    # configurations), plus an absolute floor for subnormal inputs, which
    # scale with less precision
    lam, k, omega, g, c = cpl
    monomials = np.array(_scale_monomials(*np.abs(x).T, abs(lam), k, omega, abs(g), c))
    bound = 1e-14 * s ** 3 * np.add.reduceat(monomials, _SCALE_STARTS[:-1], axis=0).T + 1e-300
    for before, after in zip(_both_paths(x, *cpl), _both_paths(x * s, lam * s, k * s, omega * s, g, c)):
        assert np.all(np.abs(after - s ** 3 * before) <= bound)
