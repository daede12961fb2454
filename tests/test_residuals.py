import math
import re
from dataclasses import replace

import pytest

from ymwaves.cli import _ROUNDING
from ymwaves.constraints import build_family_i, build_family_ii, build_family_iii
from ymwaves.fields import (
    AnsatzParams,
    SpacetimePoint,
    _derivative_bounds,
    field_strength,
    field_strength_norm,
)
from ymwaves.residuals import (
    ampere_commutator_term,
    ampere_residual,
    bianchi_allowance,
    bianchi_residual,
    gauss_commutator_term,
    gauss_residual,
    grid_points,
    max_residual_norm,
    residual_sample,
)

from conftest import random_params, random_point
from scalar_stencils import rotated_coeffs

GRID = ((0.0, 2.0 * math.pi, 10), (-1.0, 1.0, 10), (0.0, 2.0 * math.pi, 10))


def test_mode_and_step_validation():
    p, s = AnsatzParams(k=1.0, omega=1.0), SpacetimePoint()
    with pytest.raises(ValueError):
        residual_sample(p, s, mode="fancy")
    with pytest.raises(ValueError):
        bianchi_residual(p, s, h=-1.0)
    # h squares to 0, which the Bianchi budget divides by
    with pytest.raises(ValueError, match="^step h must be positive and finite"):
        bianchi_residual(p, s, h=1e-170)


def test_gauss_residual_is_along_sx(rng):
    for _ in range(20):
        p = random_params(rng)
        s = random_point(rng)
        r = gauss_residual(p, s)
        cx, cy, cz = rotated_coeffs(r, p.lam, s.y)
        scale = max(1.0, abs(cx))
        assert abs(cy) < 1e-13 * scale
        assert abs(cz) < 1e-13 * scale


def test_ampere_residual_structure(rng):
    for _ in range(20):
        p = random_params(rng)
        s = random_point(rng)
        r = ampere_residual(p, s)
        assert r.ex.norm() == 0.0
        y_x, _, _ = rotated_coeffs(r.ey, p.lam, s.y)
        _, z_y, z_z = rotated_coeffs(r.ez, p.lam, s.y)
        scale = max(1.0, r.norm())
        assert abs(y_x) < 1e-13 * scale  # e_y part lives in span{Sy, Sz}
        assert abs(z_y) < 1e-13 * scale and abs(z_z) < 1e-13 * scale  # e_z along Sx


def test_numeric_structure_matches(rng):
    p = random_params(rng)
    s = random_point(rng)
    r = residual_sample(p, s, mode="numeric").ampere
    # A has no e_x part and B nothing else, so every e_x term is a zero
    assert r.ex.norm() == 0.0


def test_numeric_matches_analytic_within_allowance(rng):
    # verify's allowance for rounding alone, without tol
    for _ in range(60):
        p = random_params(rng, spread=5.0)
        s = random_point(rng)
        angles = abs(p.phase(s)) + abs(p.lam * s.y)
        allow = _derivative_bounds(p)[0] * _ROUNDING * (1.0 + angles)
        numeric = residual_sample(p, s, "numeric")
        dg = (numeric.gauss - gauss_residual(p, s)).norm()
        da = (numeric.ampere - ampere_residual(p, s)).norm()
        assert dg < allow
        assert da < allow


def test_numeric_ampere_differentiates_whole_fields(monkeypatch):
    # the point-by-point reference: one field evaluation per stencil point
    import scalar_stencils as res

    axes = []
    real = res.closed_forms
    monkeypatch.setattr(res, "closed_forms",
                        lambda p, q: axes.append([a for a in res.AXES if getattr(q, a).imag.any()])
                        or real(p, q))
    p = build_family_ii(k=1.3, alpha4=0.8, lam=0.4, g=1.2, eta=1, xi=-1)
    res.ampere_residual(p, SpacetimePoint(t=0.3, x=0.17, y=-0.4, z=0.9))
    # E and B whole at one complex step per axis, t for E and x, y, z for
    # curl B, then at the point itself for the commutator term
    assert axes == [["t"], ["x"], ["y"], ["z"], []]


def test_residuals_are_x_independent(rng):
    p = random_params(rng)
    s0 = SpacetimePoint(t=0.3, x=0.0, y=0.8, z=-0.4)
    s1 = replace(s0, x=17.5)
    for mode in ("analytic", "numeric"):
        r0, r1 = residual_sample(p, s0, mode), residual_sample(p, s1, mode)
        assert (r0.gauss, r0.ampere) == (r1.gauss, r1.ampere)


def test_family_residuals_vanish_on_grid():
    pts = grid_points(*GRID)
    sols = [build_family_i(1.3, 0.9, lam=0.4, g=0.8)]
    sols += [build_family_ii(1.1, 0.7, lam=-0.3, g=1.2, eta=e, xi=x)
             for e in (1, -1) for x in (1, -1)]
    sols += [build_family_iii(0.9, 1.7, 1.1, lam=0.6, g=0.5, eta=-1)]
    for p in sols:
        assert max_residual_norm(p, pts) < 1e-10


def test_superposed_family_ii_fails(rng):
    a = build_family_ii(1.0, 1.0, lam=0.0, g=1.0, eta=1, xi=1)
    b = build_family_ii(1.0, 2.0, lam=0.0, g=1.0, eta=1, xi=1)
    summed = replace(a, alpha1=a.alpha1 + b.alpha1, alpha2=a.alpha2 + b.alpha2,
                     alpha3=a.alpha3 + b.alpha3, alpha4=a.alpha4 + b.alpha4,
                     alpha5=a.alpha5 + b.alpha5)
    assert max_residual_norm(summed, [random_point(rng) for _ in range(5)]) > 1e-2


def test_abelian_limit_commutators_vanish(rng):
    # family-I-shaped potentials at g = 0: a Maxwell plane wave
    p = AnsatzParams(alpha4=1.3, k=2.0, omega=2.0, g=0.0)
    for _ in range(5):
        s = random_point(rng)
        assert gauss_commutator_term(p, s).norm() == 0.0
        assert ampere_commutator_term(p, s).norm() == 0.0
        assert residual_sample(p, s, mode="analytic").norm < 1e-13
        assert residual_sample(p, s, mode="numeric").norm == 0.0


def test_commutator_terms_are_zero_at_g_zero_where_they_overflow():
    # A_y near 1e300 against E_y, A_z and F near 1e10: each commutator
    # overflows, and g = 0 takes its term out, not as 0 * inf = NaN
    p = AnsatzParams(alpha3=1e300, alpha4=1e10, k=1.0, omega=1.0, g=0.0)
    s = SpacetimePoint(t=0.3, x=0.17, y=-0.4, z=0.9)
    assert math.isfinite(residual_sample(p, s, "numeric").norm)
    assert gauss_commutator_term(p, s).norm() == ampere_commutator_term(p, s).norm() == 0.0
    q = replace(p, alpha2=1e10)
    assert math.isfinite(field_strength_norm(field_strength(q, s)))
    assert math.isfinite(bianchi_residual(q, s))


def test_bianchi_second_order_ratio(rng):
    for _ in range(5):
        p = random_params(rng)
        s = random_point(rng)
        v1 = bianchi_residual(p, s, h=1e-2)
        v2 = bianchi_residual(p, s, h=5e-3)
        assert v1 < bianchi_allowance(p, 1e-2)
        assert v2 < bianchi_allowance(p, 5e-3)
        assert v1 / v2 == pytest.approx(4.0, abs=0.5)


def test_bianchi_large_amplitudes(rng):
    for _ in range(3):
        p = random_params(rng, spread=10.0)
        s = random_point(rng)
        assert bianchi_residual(p, s, h=1e-2) < bianchi_allowance(p, 1e-2)


def test_bianchi_family_iii():
    p = build_family_iii(k=1.5, omega=2.5, alpha4=1.0, lam=0.3, g=1.0)
    s = SpacetimePoint(t=0.2, y=0.4, z=0.9)
    assert bianchi_residual(p, s, h=1e-2) < bianchi_allowance(p, 1e-2)
    assert field_strength_norm(field_strength(p, s)) < 1e-6


def test_residual_sample_norm_combines_both(rng):
    p = random_params(rng)
    s = random_point(rng)
    smp = residual_sample(p, s)
    want = math.sqrt(smp.gauss.norm() ** 2 + smp.ampere.norm() ** 2)
    assert smp.norm == pytest.approx(want)
    assert smp.point == s


def test_grid_points_shape_and_default_x():
    pts = grid_points((0.0, 1.0, 3), (0.0, 0.0, 1), (-1.0, 1.0, 2))
    assert len(pts) == 6
    assert all(s.x == 0.31 for s in pts)
    assert {s.t for s in pts} == {0.0, 0.5, 1.0}
    with pytest.raises(ValueError):
        grid_points((0.0, 1.0, 0), (0.0, 0.0, 1), (0.0, 0.0, 1))


def test_max_residual_norm_names_an_empty_point_list():
    p = build_family_i(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="the point list is empty"):
        max_residual_norm(p, [])
    with pytest.raises(ValueError, match="the point list is empty"):
        max_residual_norm(p, iter(()))


@pytest.mark.parametrize("p, h, want", [
    (build_family_ii(k=2.0, alpha4=1.0, lam=0.3, g=1.5, eta=1, xi=-1), 1e-4, 3.6128950000000002e-6),
    (build_family_ii(k=2.0, alpha4=1.0, lam=0.3, g=1.5, eta=1, xi=-1), 3e-3, 8.391269783722223e-4),
    (build_family_iii(k=1.0, omega=2.5, alpha4=0.7, lam=-0.4, g=0.8, c=3.7), 1e-4,
     1.0316478714390063e-06),
    (build_family_iii(k=1.0, omega=2.5, alpha4=0.7, lam=-0.4, g=0.8, c=-1.0), 3e-3,
     1.2423511713956254e-03),
])
def test_bianchi_allowance_is_pinned_for_unit_and_faster_speeds(p, h, want):
    # the 1 / |c| of the time derivative enters only below |c| = 1
    assert bianchi_allowance(p, h) == want


@pytest.mark.parametrize("c", [1e-3, 1e-6])
def test_numeric_residual_is_rounding_at_small_wave_speeds(c):
    # at each point, verify's rounding bound without tol
    p = build_family_i(k=1.0, alpha4=1.0, lam=0.0, g=1.0, c=c)
    bound = _derivative_bounds(p)[0]
    for s in grid_points((0.0, 2.0 * math.pi, 4), (-1.0, 1.0, 3), (0.0, 2.0 * math.pi, 4)):
        rounding = _ROUNDING * (1.0 + abs(p.phase(s)))
        assert residual_sample(p, s, mode="numeric").norm <= bound * rounding


@pytest.mark.parametrize("allowance", [bianchi_allowance])
@pytest.mark.parametrize("h", [0.0, 1e-320])
def test_allowances_reject_steps_whose_square_underflows(allowance, h):
    with pytest.raises(ValueError, match="step h"):
        allowance(build_family_i(k=1.0, alpha4=1.0, lam=0.0, g=1.0), h)


@pytest.mark.parametrize("allowance, n, budget", [
    (bianchi_allowance, 2, "Bianchi allowance"),
])
def test_allowances_name_the_power_that_overflows(allowance, n, budget):
    p = build_family_i(k=1.0, alpha4=1.0, lam=0.0, g=1.0)
    with pytest.raises(OverflowError) as info:
        allowance(p, 1e300)
    assert str(info.value) == f"raising h = 1e+300 to the power {n} overflows in the {budget}"
    scale = "the frequency scale max(1, |k|, |omega / c|, |lambda|) = 1e+200"
    with pytest.raises(OverflowError, match=re.escape(f"raising {scale} to the power")):
        allowance(replace(p, lam=1e200), 1e-4)


@pytest.mark.parametrize("allowance, budget, lam, h", [
    (bianchi_allowance, "Bianchi allowance", 1e30, 1e120),
])
def test_allowances_name_the_product_that_overflows(allowance, budget, lam, h):
    # every power is finite, and their product is not
    p = build_family_i(k=1.0, alpha4=1.0, lam=0.0, g=1.0)
    with pytest.raises(OverflowError) as info:
        allowance(replace(p, lam=lam), h)
    assert str(info.value) == (f"the {budget} overflows at the frequency scale "
                               f"max(1, |k|, |omega / c|, |lambda|) = {lam!r} and h = {h!r}")
