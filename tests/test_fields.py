import math
from dataclasses import replace

import numpy as np
import pytest

from ymwaves.constraints import build_family_i, build_family_ii, build_family_iii
from ymwaves.fields import (
    AnsatzParams,
    ColorVector,
    SpacetimePoint,
    _angles,
    _field_columns,
    _potential_columns,
    _rows,
    electric_field_analytic,
    field_coefficient_groups,
    field_strength,
    field_strength_norm,
    magnetic_field_analytic,
)
from ymwaves.su2 import LieElement

from conftest import numeric_e_and_b, random_params, random_point
from scalar_stencils import rotated_basis
from su2_matrices import SIGMA_Y, matrix


def test_params_validation():
    with pytest.raises(ValueError):
        AnsatzParams(alpha1=float("nan"))
    with pytest.raises(ValueError):
        AnsatzParams(omega=float("inf"))
    with pytest.raises(ValueError):
        SpacetimePoint(t=float("inf"))


def test_phase_definition():
    p = AnsatzParams(k=2.0, omega=0.5)
    s = SpacetimePoint(t=3.0, z=1.25)
    assert p.phase(s) == pytest.approx(2.0 * 1.25 - 0.5 * 3.0)


def potentials(p, s):
    """phi and A at s, from the core's potential columns."""
    phi, a = _potential_columns(p, *_angles(p, s))
    return LieElement(*phi), ColorVector(*(LieElement(*v) for v in a))


def test_scalar_potential_cases():
    s = SpacetimePoint(y=1.0)
    assert potentials(AnsatzParams(alpha1=0.0), s)[0] == LieElement()
    assert potentials(AnsatzParams(alpha1=1.0, lam=0.0), s)[0] == LieElement(1.0, 0.0, 0.0)
    # lam*y = pi/2 turns Sx into sigma_y
    p = AnsatzParams(alpha1=2.0, lam=math.pi / 2.0)
    m = matrix(potentials(p, s)[0])
    assert np.allclose(m, 2.0 * SIGMA_Y, atol=1e-15)


def test_vector_potential_cases():
    s = SpacetimePoint()
    assert potentials(AnsatzParams(), s)[1] == ColorVector()
    a = potentials(AnsatzParams(alpha2=1.0, lam=0.0), s)[1]
    assert a.ex == LieElement()
    assert a.ez == LieElement(1.0, 0.0, 0.0)
    # at theta = pi the alpha3 and alpha5 legs cancel and sin theta = 0
    p = AnsatzParams(alpha3=1.0, alpha5=1.0, alpha4=0.77, k=1.0, omega=1.0)
    s_pi = SpacetimePoint(z=math.pi)
    assert potentials(p, s_pi)[1].ey.norm() < 1e-14


def test_color_vector_arithmetic_is_componentwise(rng):
    # +, -, unary - and real scaling act on each LieElement component, and
    # a mixed operand or a complex scale is refused
    u, v = (ColorVector(*(LieElement(*rng.normal(size=3).tolist()) for _ in range(3)))
            for _ in range(2))
    assert (u + v).components() == tuple(a + b for a, b in zip(u.components(), v.components()))
    assert (u - v).components() == tuple(a - b for a, b in zip(u.components(), v.components()))
    assert (-u).components() == tuple(-a for a in u.components())
    for s in (3, -0.75):
        assert (u * s).components() == (s * u).components() == tuple(
            a * s for a in u.components())
    for refused in (lambda: u.ex + u, lambda: u + u.ex, lambda: u * u, lambda: u * 2j,
                    lambda: 2j * u):
        with pytest.raises(TypeError):
            refused()


def test_family_i_closed_fields():
    k, a4 = 1.4, 0.8
    p = build_family_i(k, a4, lam=0.9, g=1.1)
    for s in (SpacetimePoint(z=0.3), SpacetimePoint(t=1.2, y=0.5, z=-0.8)):
        th = p.phase(s)
        _, sy, _ = rotated_basis(p.lam, s.y)
        e = electric_field_analytic(p, s)
        b = magnetic_field_analytic(p, s)
        want = k * a4 * math.cos(th)
        assert (e.ey - want * sy).norm() < 1e-13
        assert (b.ex - (-want) * sy).norm() < 1e-13
        assert e.ex.norm() == e.ez.norm() == 0.0
        assert b.ey.norm() == b.ez.norm() == 0.0


@pytest.mark.parametrize("eta", [1, -1])
@pytest.mark.parametrize("xi", [1, -1])
def test_family_ii_closed_fields(eta, xi):
    k, a4 = 2.0, 0.6
    p = build_family_ii(k, a4, lam=0.5, g=0.7, eta=eta, xi=xi)
    s = SpacetimePoint(t=0.4, y=-0.3, z=1.1)
    th = p.phase(s)
    _, sy, sz = rotated_basis(p.lam, s.y)
    amp = 0.5 * k * a4
    want_ey = (amp * (math.cos(th) - xi * eta)) * sy + (-amp * eta * math.sin(th)) * sz
    e = electric_field_analytic(p, s)
    b = magnetic_field_analytic(p, s)
    assert (e.ey - want_ey).norm() < 1e-13
    # the magnetic x-component is minus the electric y-component
    assert (b.ex + e.ey).norm() < 1e-14


def test_family_iii_fields_vanish():
    p = build_family_iii(k=3.0, omega=5.0, alpha4=2.0, lam=1.0, g=1.0)
    assert p.alpha1 == 2.5 and p.alpha2 == 1.5 and p.alpha3 == -0.5 and p.alpha5 == 2.0
    for s in (SpacetimePoint(), SpacetimePoint(t=0.7, y=1.2, z=-0.4)):
        assert electric_field_analytic(p, s).norm() < 1e-14
        assert magnetic_field_analytic(p, s).norm() < 1e-14


def _magnitudes_match(p, rng, n=200):
    """Whether |B_x| equals |E_y| bit for bit, coefficient by coefficient,
    at n random points."""
    e, b = _field_columns(p, _rows(p, rng.uniform(-5.0, 5.0, (4, n))).angles())
    return all(np.array_equal(abs(u).view(np.int64), abs(v).view(np.int64)) for u, v in zip(e, b))


@pytest.mark.parametrize("family, eta, xi", [("I", 1, 1), *(("II", eta, xi) for eta in (1, -1)
                                                           for xi in (1, -1))])
def test_null_waves_have_b_the_negative_of_e_in_floats(family, eta, xi, rng):
    # on Families I and II, E^2 = B^2: B's groups are E's negated, and
    # negation is exact, so each |B_x| coefficient is |E_y|'s to the bit (the
    # fields command formats B_x from E_y's text on this)
    for _ in range(20):
        k, alpha4, lam, g = rng.uniform(0.2, 3.0, 4) * rng.choice([-1.0, 1.0], 4)
        p = (build_family_i(k, alpha4, lam, g) if family == "I"
             else build_family_ii(k, alpha4, lam, g, eta, xi))
        e, b = field_coefficient_groups(p)
        assert b == tuple(-v for v in e)
        assert _magnitudes_match(p, rng)


@pytest.mark.parametrize("p", [
    # pure gauge at omega != k: E and B are rounding residue, here in e_const only
    build_family_iii(k=0.9, omega=1.7, alpha4=1.2, lam=0.4, g=0.7),
    AnsatzParams(alpha1=0.3, alpha2=-0.2, alpha3=0.1, alpha4=0.5, alpha5=-0.4, lam=0.8,
                 k=1.0, omega=0.5),
])
def test_other_waves_have_b_apart_from_e(p, rng):
    assert not _magnitudes_match(p, rng)


def test_static_cancellation_gives_zero_fields(rng):
    # k = omega = 0 with lam + 2 g (alpha3 + alpha5) = 0 kills E and B
    g, lam, a5 = 0.8, 1.2, 0.4
    a3 = -lam / (2.0 * g) - a5
    p = AnsatzParams(alpha1=0.9, alpha2=-1.3, alpha3=a3, alpha4=0.5, alpha5=a5,
                     lam=lam, k=0.0, omega=0.0, g=g)
    for _ in range(5):
        s = random_point(rng)
        assert electric_field_analytic(p, s).norm() < 1e-15
        assert magnetic_field_analytic(p, s).norm() < 1e-15


def test_transversality_for_random_params(rng):
    for _ in range(25):
        p = random_params(rng)
        s = random_point(rng)
        e = electric_field_analytic(p, s)
        b = magnetic_field_analytic(p, s)
        assert e.ex.norm() == 0.0 and e.ez.norm() == 0.0
        assert b.ey.norm() == 0.0 and b.ez.norm() == 0.0


def test_numeric_fields_match_analytic(rng):
    for _ in range(100):
        p = random_params(rng)
        s = random_point(rng)
        e, b = numeric_e_and_b(p, s)
        de = (e - electric_field_analytic(p, s)).norm()
        db = (b - magnetic_field_analytic(p, s)).norm()
        assert de < 1e-6
        assert db < 1e-6


def test_abelian_limit_fields(rng):
    # g = 0 drops every commutator; numeric and analytic stay in lockstep
    for _ in range(10):
        p = replace(random_params(rng), g=0.0)
        s = random_point(rng)
        e, b = numeric_e_and_b(p, s)
        assert (e - electric_field_analytic(p, s)).norm() < 1e-6
        assert (b - magnetic_field_analytic(p, s)).norm() < 1e-6


def test_field_strength_antisymmetric_and_x_trivial(rng):
    p = random_params(rng)
    s = random_point(rng)
    f = field_strength(p, s)
    for mu in range(4):
        assert f[mu][mu] == LieElement()
        for nu in range(4):
            assert f[mu][nu] == -f[nu][mu]
    # nothing depends on x and A_x = 0, so every x row is exactly zero
    for nu in range(4):
        assert f[1][nu] == LieElement()


def test_field_strength_matches_e_and_b(rng):
    for _ in range(10):
        p = random_params(rng)
        s = random_point(rng)
        f = field_strength(p, s)
        e = electric_field_analytic(p, s)
        b = magnetic_field_analytic(p, s)
        # F_0i = E_i
        for i, comp in enumerate(e.components()):
            assert (f[0][i + 1] - comp).norm() < 1e-6
        # B_i = -(1/2) eps_ijk F_jk
        assert (b.ex - (-1.0) * f[2][3]).norm() < 1e-6
        assert (b.ey - (-1.0) * f[3][1]).norm() < 1e-6
        assert (b.ez - (-1.0) * f[1][2]).norm() < 1e-6


def test_field_strength_builds_one_frame_per_point(monkeypatch):
    # the point-by-point reference: one frame per stencil point
    import scalar_stencils

    ys = []
    real = scalar_stencils.angles
    monkeypatch.setattr(scalar_stencils, "angles", lambda p, q: ys.append(q.y) or real(p, q))
    p = build_family_ii(k=1.3, alpha4=0.8, lam=0.4, g=1.2, eta=1, xi=-1)
    scalar_stencils.field_strength(p, SpacetimePoint(t=0.3, x=0.17, y=-0.4, z=0.9))
    # the point and its four complex steps, one frame each; only the step
    # along y moves the frame
    assert [y.tolist() for y in ys] == [[-0.4 + 0j]] * 3 + [[complex(-0.4, 1e-10 / 1.3)],
                                                          [-0.4 + 0j]]


def test_family_i_field_strength_entry():
    p = build_family_i(1.0, 1.0, lam=0.0, g=1.0)
    s = SpacetimePoint(z=0.35)
    f = field_strength(p, s)
    want = (p.k * p.alpha4 * math.cos(p.phase(s))) * rotated_basis(0.0, s.y)[1]
    assert (f[0][2] - want).norm() < 1e-6


def test_family_iii_field_strength_vanishes():
    p = build_family_iii(k=3.0, omega=5.0, alpha4=2.0, lam=1.0, g=1.0)
    for s in (SpacetimePoint(), SpacetimePoint(t=0.3, y=0.8, z=-1.1)):
        assert field_strength_norm(field_strength(p, s)) < 1e-6
