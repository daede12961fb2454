"""The column stencil core against the point-by-point reference.

The numeric residuals, field_strength, bianchi_residual and the oracle
run every stencil point of every sample point through one evaluation on
numpy columns. tests/scalar_stencils.py takes one complex step at a time
instead; both must give the same floats bit for bit, and raise the same
error where a point overflows. The numeric E and B, entries of
field_strength, must equal the reference's own E and B stencils value
for value. The complex step must give the closed forms' own derivatives.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ymwaves.constraints
import ymwaves.fields
import ymwaves.residuals
import ymwaves.su2
import scalar_stencils as ref
from conftest import numeric_e_and_b
from ymwaves.cli import _NUMERIC_POINTS, _parse_grid, build_parser, main
from ymwaves.constraints import (
    _ORACLE_ENTRIES,
    build_family_i,
    build_family_ii,
    build_family_iii,
    nine_constraints,
    oracle_constraints,
)
from ymwaves.fields import (
    AnsatzParams,
    SpacetimePoint,
    _coordinates,
    _derivative,
    _field_columns,
    _field_strength_columns,
    _Grid,
    _potential_columns,
    _rows,
    _stacked,
    _stencil,
    _step,
    _values,
    field_coefficient_groups,
    field_strength,
)
from ymwaves.residuals import (
    _max_numeric_norms,
    ampere_commutator_term,
    bianchi_residual,
    gauss_commutator_term,
    grid_points,
    residual_sample,
)

value = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
coupling = st.floats(min_value=0.2, max_value=2.0) | st.floats(min_value=-2.0, max_value=-0.2)
speed = st.floats(min_value=0.3, max_value=3.0)
sign = st.sampled_from((1, -1))
points = st.builds(SpacetimePoint, value, value, value, value)
steps = st.sampled_from((1e-4, 1e-3, 1e-2, 0.25))
AMPLITUDES = ("alpha1", "alpha2", "alpha3", "alpha4", "alpha5")
DEFAULT_GRID = build_parser().parse_args(["verify"]).grid
FINE_GRID = "0:6.2832:16,-1:1:16,0:6.2832:16"
FAMILY_II = ["--family", "II", "--k", "1.3", "--alpha4", "0.8", "--lambda", "0.4", "--g", "1.2",
             "--xi", "-1"]


@st.composite
def configurations(draw):
    """Family I, II and III waves and perturbed non-solutions, with lam != 0
    allowed, g of both signs and c != 1."""
    k, alpha4, lam, g, c = draw(coupling), draw(coupling), draw(value), draw(coupling), draw(speed)
    family = draw(st.sampled_from(("I", "II", "III")))
    if family == "I":
        p = build_family_i(k, alpha4, lam, g, c)
    elif family == "II":
        p = build_family_ii(k, alpha4, lam, g, draw(sign), draw(sign), c)
    else:
        p = build_family_iii(k, draw(value), alpha4, lam, g, draw(sign), c)
    if draw(st.booleans()):
        name = draw(st.sampled_from(AMPLITUDES))
        p = AnsatzParams(**{**vars(p), name: getattr(p, name) + draw(value)})
    return p


def hexes(x):
    """float.hex of every float in a float, LieElement, ColorVector or nesting of them."""
    if isinstance(x, float):
        return [x.hex()]
    if hasattr(x, "coeffs"):
        return [v.hex() for v in x.coeffs()]
    if hasattr(x, "components"):
        return [h for e in x.components() for h in hexes(e)]
    return [h for e in x for h in hexes(e)]


@given(configurations(), points)
def test_numeric_residuals_equal_the_reference(p, s):
    fields = ref.point_fields(p, s)
    assert hexes(gauss_commutator_term(p, s)) == hexes(ref.gauss_commutator_term(p, fields))
    assert hexes(ampere_commutator_term(p, s)) == hexes(ref.ampere_commutator_term(p, fields))
    smp, want = residual_sample(p, s, "numeric"), ref.residual_sample(p, s)
    assert hexes([smp.gauss, smp.ampere, smp.norm]) == hexes([want.gauss, want.ampere, want.norm])
    assert smp.point == s


@given(configurations(), points, steps)
def test_field_strength_and_bianchi_equal_the_reference(p, s, h):
    assert hexes(field_strength(p, s)) == hexes(ref.field_strength(p, s))
    assert hexes(bianchi_residual(p, s, h)) == hexes(ref.bianchi_residual(p, s, h))


@given(configurations(), st.sets(st.sampled_from(AMPLITUDES)), points)
def test_numeric_e_and_b_equal_the_reference(p, zeroed, s):
    # B negates entries of field_strength: == on every coefficient, since
    # only the sign of a zero may differ
    p = AnsatzParams(**{**vars(p), **dict.fromkeys(zeroed, 0.0)})
    wants = (ref.electric_field_numeric(p, s), ref.magnetic_field_numeric(p, s))
    for got, want in zip(numeric_e_and_b(p, s), wants):
        for u, v in zip(got.components(), want.components()):
            assert u.coeffs() == v.coeffs()


@given(configurations(), st.lists(points, min_size=1, max_size=8))
def test_many_points_equal_the_reference(p, pts):
    # the largest residual_sample norm, then the largest homogeneous one,
    # as verify takes them, the Faraday signs included
    want = ref.max_numeric_norms(p, pts)
    assert hexes(_max_numeric_norms(p, _coordinates(pts))) == hexes(want)
    # F at every point, one field_strength after another
    f = _field_strength_columns(p, _coordinates(pts))[0]
    want = [ref.field_strength(p, s) for s in pts]
    assert hexes(f.transpose(3, 1, 2, 0).tolist()) == hexes(want)


def _closed_forms(p, rows):
    """E_y and B_x, then phi, A_y and A_z, over rows as one array (3, 5, *shape)."""
    phi, (_, ay, az) = _potential_columns(p, *rows.angles())
    return _stacked((*_field_columns(p, rows), phi, ay, az), rows.theta.shape, rows.theta.dtype)


@given(configurations(), st.lists(points, min_size=1, max_size=8))
def test_complex_step_derivatives_are_the_closed_form_ones(p, pts):
    # the closed forms are affine in cos theta and sin theta, so d/dtheta
    # takes cos to -sin and sin to cos and drops the constant part; the
    # frame turns about sz at the rate lam, so d/dy of (u, v, w) on sx,
    # sy, sz is lam (-v, u, 0); nothing depends on x. An imaginary part
    # below the normal floats rounds absolutely, to the smallest subnormal,
    # which the coefficients and the division by h scale
    coords = _coordinates(pts)
    h = _step(p)
    coefficients = sum(map(abs, (*sum(field_coefficient_groups(p), ()), *_values(p)[:5])))
    d = _derivative(_closed_forms(p, _stencil(p, coords, h)), h)
    at = _rows(p, coords)
    here = _closed_forms(p, at)
    zero = np.zeros_like(at.theta)
    parts = (_closed_forms(p, at._replace(cos_th=-at.sin_th, sin_th=at.cos_th)),
             _closed_forms(p, at._replace(cos_th=zero, sin_th=zero)))
    turn = np.array([-here[1], here[0], 0.0 * here[2]])
    for axis, rate, want, terms in ((3, p.k, parts[0] - parts[1], parts),
                                    (0, -p.omega, parts[0] - parts[1], parts),
                                    (2, p.lam, turn, (here,))):
        size = max(np.abs(t).max() for t in terms)
        bound = 4.0 * (abs(rate) * size * np.finfo(float).eps + (1.0 + coefficients) * 5e-324 / h)
        assert np.abs(d[:, :, axis] - rate * want).max() <= bound
    assert not d[:, :, 1].any()


def test_a_complex_step_names_a_coordinate_that_is_not_finite():
    # the moved coordinate is complex; the error names its real part
    coords = _coordinates([SpacetimePoint(t=0.3, y=-0.4, z=0.9)])
    coords[3, 0] = math.inf
    p = build_family_ii(k=1.3, alpha4=0.8, lam=0.4, g=1.2, eta=1, xi=-1)
    with pytest.raises(ValueError, match="^z must be finite, got inf$"):
        _max_numeric_norms(p, coords)


@given(configurations())
def test_oracle_fits_the_reference_samples(p):
    # the oracle's own sampling plan, through k when it dominates
    use_z = abs(p.k) >= abs(p.omega)
    thetas = [2.0 * math.pi * i / 8 for i in range(8)]
    pts = [SpacetimePoint(t=0.0, x=0.17, y=y, z=th / p.k) if use_z
           else SpacetimePoint(t=(p.k * 0.3 - th) / p.omega, x=0.17, y=y, z=0.3)
           for y in (-0.4, 0.37, 0.9) for th in thetas]
    design = np.array([(1.0, math.cos(th), math.cos(th) ** 2, math.sin(th))
                       for _ in range(3) for th in thetas])
    coef = np.linalg.lstsq(design, ref.oracle_samples(p, pts), rcond=None)[0]
    harmonic, channel, sgn = np.array(_ORACLE_ENTRIES).T
    assert hexes(list(oracle_constraints(p))) == hexes((sgn * coef[harmonic, channel]).tolist())


@pytest.mark.parametrize("p, s, h", [
    # Bianchi's outer step h takes a coordinate past the largest float, x
    # at +h, then t at -h; a complex step moves no real part, so the other
    # routes take the point itself
    (build_family_ii(1.3, 0.8, 0.4, 1.2, 1, -1), SpacetimePoint(x=1.7e308), 1e307),
    (build_family_iii(1.3, 0.5, 0.8, 0.4, 1.2), SpacetimePoint(t=-1.7e308), 1e307),
    # the phase or the frame angle overflows at the point, or at a
    # neighbour of Bianchi's outer step
    (build_family_ii(1.3, 0.8, 0.4, 1.2, 1, -1), SpacetimePoint(y=-1.7e308, z=1.7e308), 1e307),
    (build_family_i(1e300, 1.0, 0.5, 1.0), SpacetimePoint(z=1.797693134862e8), 1e-4),
    (build_family_i(1e300, 1.0, 0.5, 1.0), SpacetimePoint(z=1e9), 1e-4),
    (build_family_i(1.0, 1.0, 1e300, 1.0), SpacetimePoint(y=1.797693134862e8), 1e-4),
    # a NaN phase passes through math.cos and np.cos alike
    (build_family_iii(1e300, 1e300, 1.0, 0.0, 1.0), SpacetimePoint(t=1e10, z=1e10), 1e-4),
])
def test_overflowing_stencils_fail_as_the_reference(p, s, h):
    cases = [
        (lambda: residual_sample(p, s, "numeric"), lambda: ref.residual_sample(p, s)),
        (lambda: _max_numeric_norms(p, _coordinates([SpacetimePoint(), s])),
         lambda: ref.max_numeric_norms(p, [SpacetimePoint(), s])),
        (lambda: field_strength(p, s), lambda: ref.field_strength(p, s)),
        (lambda: bianchi_residual(p, s, h), lambda: ref.bianchi_residual(p, s, h)),
    ]
    for core, scalar in cases:
        outcomes = []
        for fn in (core, scalar):
            try:
                result = fn()
            except ValueError as exc:
                outcomes.append(("ValueError", str(exc)))
            else:
                got = result.norm if hasattr(result, "norm") and not callable(result.norm) \
                    else result
                outcomes.append(("ok", hexes(got)))
        assert outcomes[0] == outcomes[1]


def test_commutators_at_g_zero_are_zero_as_in_the_reference():
    # phi, A_y and A_z near 1e10, 1e300 and 1e10 overflow every commutator
    # they enter; at g = 0 each term is zero, in the core and the reference
    p = AnsatzParams(alpha1=1e10, alpha2=1e10, alpha3=1e300, alpha4=1e10, k=1.0, omega=1.0,
                     g=0.0)
    pts = [SpacetimePoint(t=0.3, x=0.17, y=-0.4, z=0.9), SpacetimePoint(z=-1.1)]
    got = [_max_numeric_norms(p, _coordinates(pts)),
           _field_strength_columns(p, _coordinates(pts))[0].transpose(3, 1, 2, 0).tolist(),
           bianchi_residual(p, pts[0])]
    want = [ref.max_numeric_norms(p, pts), [ref.field_strength(p, s) for s in pts],
            ref.bianchi_residual(p, pts[0])]
    assert hexes(got) == hexes(want)
    assert all(map(math.isfinite, (*got[0], got[2]))) and np.isfinite(got[1]).all()


def test_one_field_evaluation_per_numeric_call(monkeypatch):
    calls = []
    real = ymwaves.residuals._field_columns
    monkeypatch.setattr(ymwaves.residuals, "_field_columns",
                        lambda p, rows: calls.append(rows.t.shape) or real(p, rows))
    built = []
    original = SpacetimePoint.__post_init__

    def counting(self):
        built.append(self)
        original(self)
    p = build_family_ii(k=1.3, alpha4=0.8, lam=0.4, g=1.2, eta=1, xi=-1)
    s = SpacetimePoint(t=0.3, x=0.17, y=-0.4, z=0.9)
    coords = _coordinates([SpacetimePoint(t=0.1 * i, y=0.2 * i, z=-0.3 * i) for i in range(28)])
    monkeypatch.setattr(SpacetimePoint, "__post_init__", counting)
    residual_sample(p, s, "numeric")
    _max_numeric_norms(p, coords)
    # E and B once per call, over the points and their 4 complex steps
    assert calls == [(5, 1), (5, 28)]
    assert built == []


def test_one_stacked_commutator_per_numeric_call(monkeypatch, capsys):
    calls = []
    real = ymwaves.fields._commutator
    monkeypatch.setattr(ymwaves.fields, "_commutator",
                        lambda a, b: calls.append(np.shape(a)) or real(a, b))
    p = build_family_ii(k=1.3, alpha4=0.8, lam=0.4, g=1.2, eta=1, xi=-1)
    assert main(["verify", *FAMILY_II]) == 0
    capsys.readouterr()
    # A . E, A_j x B_k, A_k x B_j and [phi, E], then the homogeneous
    # equations' [phi, B], A_j x E_k and A_k x E_j: twenty-one slots of one
    # call at verify's 28 numeric points
    assert calls == [(3, 21, 28)]
    calls.clear()
    oracle_constraints(p)
    # the oracle takes the twelve of gauss and ampere alone
    assert calls == [(3, 12, 24)]


def test_verify_and_the_oracle_build_no_points_but_bianchis(monkeypatch, capsys):
    built = []
    original = SpacetimePoint.__post_init__

    def counting(self):
        built.append(self)
        original(self)
    p = build_family_ii(k=1.3, alpha4=0.8, lam=0.4, g=1.2, eta=1, xi=-1)
    monkeypatch.setattr(SpacetimePoint, "__post_init__", counting)
    for grid in (DEFAULT_GRID, FINE_GRID):
        built.clear()
        assert main(["verify", *FAMILY_II, "--grid", grid]) == 0
        # the numeric points, and the Bianchi line with them, are read off the grid
        assert built == []
    capsys.readouterr()
    built.clear()
    oracle_constraints(p)
    assert built == []


def test_verify_takes_one_complex_step_block(monkeypatch, capsys):
    # the numeric residual and the Bianchi line share one block of 28
    # points; the only other block is the pure-gauge F line's, of 8 of
    # them, taken only when the fields vanish
    blocks = []
    real = ymwaves.fields._block

    def counted(coords, h):
        blocks.append(coords.shape[1])
        return real(coords, h)
    monkeypatch.setattr(ymwaves.fields, "_block", counted)
    family_iii = ["--family", "III", "--k", "0.7", "--omega", "-1.9", "--alpha4", "1.1",
                  "--lambda", "-0.3", "--g", "0.8"]
    for config, want in ((FAMILY_II, [28]), (family_iii, [28, 8]),
                         (["--alpha1", "0.7", "--alpha2", "-1.1", "--alpha4", "0.9"], [28])):
        for grid in (DEFAULT_GRID, FINE_GRID):
            blocks.clear()
            main(["verify", *config, "--grid", grid])
            assert blocks == want
    capsys.readouterr()


def test_verify_and_the_oracle_take_the_su2_algebra_on_arrays(monkeypatch, capsys):
    # the array core runs _commutator and _norm_squared on coefficient
    # arrays; it wraps no columns in LieElements to borrow their arithmetic
    def forbidden(*args):
        raise AssertionError("LieElement or ColorVector arithmetic in the array core")
    for cls in (ymwaves.su2.LieElement, ymwaves.fields.ColorVector):
        for name in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "norm_squared"):
            monkeypatch.setattr(cls, name, forbidden)
    family_ii = ["--family", "II", "--k", "1.3", "--alpha4", "0.8", "--lambda", "0.4",
                 "--g", "1.2", "--xi", "-1"]
    family_iii = ["--family", "III", "--k", "0.7", "--omega", "-1.9", "--alpha4", "1.1",
                  "--lambda", "-0.3", "--g", "0.8"]
    for config in (family_ii, family_iii):  # III also checks F on the columns
        for grid in (DEFAULT_GRID, FINE_GRID):
            assert main(["verify", *config, "--grid", grid]) == 0
    capsys.readouterr()
    oracle_constraints(build_family_ii(k=1.3, alpha4=0.8, lam=0.4, g=1.2, eta=1, xi=-1))


def test_verify_evaluates_the_constraints_and_their_scales_once(monkeypatch, capsys):
    # c1..c9 on floats, then their bounds on magnitudes (fields._Magnitude)
    calls = []
    real = ymwaves.residuals._harmonics

    def harmonics(*args):
        calls.append("bounds" if isinstance(args[0], ymwaves.fields._Magnitude) else "c1..c9")
        return real(*args)
    monkeypatch.setattr(ymwaves.residuals, "_harmonics", harmonics)
    monkeypatch.setattr(ymwaves.constraints, "_harmonics", harmonics)
    for argv in (["--family", "II", "--k", "1.3", "--alpha4", "0.8", "--xi", "-1"],
                 ["--family", "III", "--k", "0.7", "--omega", "-1.9", "--alpha4", "1.1"],
                 ["--alpha1", "0.7", "--alpha2", "-1.1", "--alpha4", "0.9", "--k", "1.3",
                  "--omega", "0.8"]):
        calls.clear()
        main(["verify", *argv])
        assert sorted(calls) == ["bounds", "c1..c9"]
    capsys.readouterr()


@pytest.mark.parametrize("grid", [DEFAULT_GRID, FINE_GRID])
def test_grid_coordinates_are_the_grid_points(grid):
    ranges = _parse_grid(grid)
    full = _Grid.from_ranges(*ranges)
    n = len(full)
    # the rows verify takes its numeric points from
    rows = list(range(0, n, max(1, n // _NUMERIC_POINTS)))
    points = grid_points(*ranges)
    want = [hexes([points[i].t, points[i].x, points[i].y, points[i].z]) for i in rows]
    assert [hexes(c) for c in full.coordinates(rows).T.tolist()] == want


@pytest.mark.parametrize("k, omega, message", [
    (5e-324, 0.0, "z must be finite, got inf"),
    (0.0, 5e-324, "t must be finite, got -inf"),
])
def test_oracle_sample_that_overflows_raises_the_point_error(k, omega, message):
    # a phase realized through a tiny k or omega puts a sample at infinity
    p = AnsatzParams(alpha1=0.3, alpha4=0.8, k=k, omega=omega)
    with pytest.raises(ValueError, match=f"^{message}$"):
        oracle_constraints(p)


def test_field_strength_evaluates_the_potentials_once(monkeypatch):
    calls = []
    real = ymwaves.fields._potential_columns
    monkeypatch.setattr(ymwaves.fields, "_potential_columns",
                        lambda p, *angles: calls.append(angles[0].shape) or real(p, *angles))
    p = build_family_ii(k=1.3, alpha4=0.8, lam=0.4, g=1.2, eta=1, xi=-1)
    s = SpacetimePoint(t=0.3, x=0.17, y=-0.4, z=0.9)
    field_strength(p, s)
    bianchi_residual(p, s)
    # the point and its four complex steps; for Bianchi, at each of the
    # nine points of its outer difference
    assert calls == [(5, 1), (5, 9)]


def test_oracle_does_not_read_the_constraint_polynomials(monkeypatch):
    p = AnsatzParams(alpha1=0.7, alpha2=-1.1, alpha3=0.4, alpha4=0.9, alpha5=-0.3,
                     lam=0.6, k=1.3, omega=0.8, g=0.9, c=1.4)
    want = nine_constraints(p).as_array()

    def forbidden(*args):
        raise AssertionError("the oracle must not evaluate c1..c9 or read residuals off them")
    monkeypatch.setattr(ymwaves.residuals, "_harmonics", forbidden)
    monkeypatch.setattr(ymwaves.residuals, "_polynomials", forbidden)
    monkeypatch.setattr(ymwaves.residuals, "_residual_parts", forbidden)
    got = oracle_constraints(p).as_array()
    assert np.max(np.abs(got - want)) < 1e-6 * (1.0 + np.max(np.abs(want)))


def test_oracle_sees_a_wrong_field_monomial(monkeypatch):
    # perturb one monomial of the closed-form fields, 2 g alpha2 alpha5 in
    # b_cos, by 1%: the numeric route, and with it the oracle, must part
    # from nine_constraints
    real = ymwaves.fields._field_groups

    def perturbed(a1, a2, a3, a4, a5, lam, k, omega, g, c):
        e, (b_const, b_cos, b_sin) = real(a1, a2, a3, a4, a5, lam, k, omega, g, c)
        return e, (b_const, b_cos + 0.01 * (2.0 * g * a2 * a5), b_sin)
    p = build_family_ii(k=1.3, alpha4=0.8, lam=0.4, g=1.2, eta=1, xi=-1, c=1.5)
    want = nine_constraints(p).as_array()
    assert np.max(np.abs(oracle_constraints(p).as_array() - want)) < 1e-6
    monkeypatch.setattr(ymwaves.fields, "_field_groups", perturbed)
    assert np.max(np.abs(oracle_constraints(p).as_array() - want)) > 1e-3
