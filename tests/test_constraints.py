import math
from dataclasses import replace

import numpy as np
import pytest

import ymwaves.constraints
from ymwaves.constraints import (
    _ORACLE_DESIGN,
    _ORACLE_FIT,
    ClassificationError,
    ConstraintVector,
    FamilySolution,
    NotASolution,
    PlaneSolution,
    TrivialZeroField,
    _oracle_fit,
    branch_projection,
    build_family_i,
    build_family_ii,
    build_family_iii,
    classify,
    constraint_scales,
    nine_constraints,
    normalized_constraints,
    oracle_constraints,
    refine_alphas,
    scan_families,
)
from ymwaves.fields import AnsatzParams

from conftest import random_params
from scalar_newton import scan_labels

# independently recomputed by polynomial expansion of the harmonic groups,
# then frozen; guards against silent sign or factor drift
PINNED = AnsatzParams(alpha1=0.7, alpha2=-1.1, alpha3=0.4, alpha4=0.9,
                      alpha5=-0.3, lam=0.6, k=1.3, omega=0.8, g=0.9)
PINNED_VALUES = (3.4455600000000004, -1.94832, 1.63296,
                 1.7107200000000007, 5.432760000000001, 0.8953199999999999,
                 -4.171680000000001, 0.02376000000000002, 2.566080000000001)


def test_pinned_constraint_values():
    got = nine_constraints(PINNED).as_array()
    assert np.max(np.abs(got - np.array(PINNED_VALUES))) < 1e-13


def test_oracle_agrees_at_pinned_point():
    direct = nine_constraints(PINNED).as_array()
    fitted = oracle_constraints(PINNED).as_array()
    assert np.max(np.abs(direct - fitted)) < 1e-8


def test_constraint_vector_helpers():
    v = nine_constraints(PINNED)
    assert isinstance(v, ConstraintVector)
    assert ConstraintVector is ymwaves.ConstraintVector is ymwaves.residuals.ConstraintVector
    assert v.max_abs() == pytest.approx(5.432760000000001)
    assert v.as_array().shape == (9,)


def test_family_i_exact_zero():
    p = build_family_i(k=1.0, alpha4=1.0, lam=0.0, g=1.0)
    assert nine_constraints(p).max_abs() == 0.0
    assert p.alpha3 == 0.0 and p.omega == 1.0


def test_family_i_nonzero_background():
    p = build_family_i(k=2.0, alpha4=0.5, lam=1.4, g=0.7)
    assert p.alpha3 == pytest.approx(-1.4 / 1.4)
    assert nine_constraints(p).max_abs() < 1e-12


def test_family_ii_reference_point():
    p = build_family_ii(k=4.0, alpha4=1.0, lam=0.0, g=1.0, eta=1, xi=1)
    assert p.alpha1 == pytest.approx(1.0)
    assert p.alpha2 == pytest.approx(1.0)
    assert p.alpha3 == pytest.approx(1.0)
    assert p.alpha5 == pytest.approx(1.0)
    assert p.omega == pytest.approx(4.0)
    assert nine_constraints(p).max_abs() < 1e-12


@pytest.mark.parametrize("eta", [1, -1])
@pytest.mark.parametrize("xi", [1, -1])
def test_family_ii_all_sign_pairs(eta, xi):
    p = build_family_ii(k=1.7, alpha4=0.8, lam=0.9, g=1.1, eta=eta, xi=xi)
    assert nine_constraints(p).max_abs() < 1e-12


def test_family_ii_alpha3_perturbation():
    # moving alpha3 off the branch only touches the quadratic-in-x group:
    # c1 shifts by a1*((2g xi a4 + 2g d)^2 - (2g xi a4)^2) and nothing else new
    p = build_family_ii(k=4.0, alpha4=1.0, lam=0.0, g=1.0, eta=1, xi=1)
    d = 1e-3
    q = replace(p, alpha3=p.alpha3 + d)
    c = nine_constraints(q)
    want = p.alpha1 * ((2.0 * 1.0 * 1.0 + 2.0 * d) ** 2 - (2.0 * 1.0 * 1.0) ** 2)
    assert c.c1 == pytest.approx(want, rel=1e-12)
    assert c.c1 == pytest.approx(0.00800399999999879, abs=1e-15)
    fitted = oracle_constraints(q)
    assert fitted.c1 == pytest.approx(want, abs=1e-8)


def test_family_iii_values_and_any_omega():
    p = build_family_iii(k=3.0, omega=5.0, alpha4=2.0, lam=1.0, g=1.0)
    assert p.alpha1 == pytest.approx(2.5)
    assert p.alpha2 == pytest.approx(1.5)
    assert p.alpha3 == pytest.approx(-0.5)
    assert p.alpha5 == pytest.approx(2.0)
    for omega in (0.0, 1.5, 3.0, 6.0, 30.0):
        q = build_family_iii(k=3.0, omega=omega, alpha4=2.0, lam=1.0, g=1.0)
        assert nine_constraints(q).max_abs() < 1e-12


def test_builder_validation():
    with pytest.raises(ValueError):
        build_family_i(k=1.0, alpha4=1.0, lam=0.0, g=0.0)
    with pytest.raises(ValueError):
        build_family_i(k=0.0, alpha4=1.0, lam=0.0, g=1.0)
    with pytest.raises(ValueError):
        build_family_ii(k=1.0, alpha4=0.0, lam=0.0, g=1.0, eta=1, xi=1)
    with pytest.raises(ValueError):
        build_family_ii(k=1.0, alpha4=1.0, lam=0.0, g=1.0, eta=2, xi=1)
    with pytest.raises(ValueError):
        build_family_iii(k=1.0, omega=1.0, alpha4=1.0, lam=0.0, g=0.0)


def test_classify_family_i():
    p = build_family_i(k=1.2, alpha4=0.7, lam=0.5, g=0.9)
    out = classify(p)
    assert isinstance(out, FamilySolution)
    assert out.family == "I"
    assert out.alpha4 == pytest.approx(0.7)
    assert out.params() == p


@pytest.mark.parametrize("eta", [1, -1])
@pytest.mark.parametrize("xi", [1, -1])
def test_classify_family_ii_signs(eta, xi):
    p = build_family_ii(k=2.0, alpha4=1.3, lam=0.4, g=0.8, eta=eta, xi=xi)
    out = classify(p)
    assert out.family == "II"
    assert out.eta == eta and out.xi == xi


@pytest.mark.parametrize("ratio", [0.0, 0.5, 1.0, 2.0, 10.0])
def test_classify_family_iii_any_frequency(ratio):
    k = 1.5
    p = build_family_iii(k=k, omega=ratio * k, alpha4=0.9, lam=0.3, g=1.1, eta=-1)
    out = classify(p)
    assert out.family == "III"
    assert out.eta == -1
    assert out.omega == pytest.approx(ratio * k)


def test_classify_vacuum_and_static():
    with pytest.raises(ValueError):
        classify(AnsatzParams(k=0.0, omega=0.0, g=0.0))
    out = classify(AnsatzParams(alpha1=0.0, alpha2=0.0, alpha3=0.25, alpha4=0.0,
                                alpha5=-0.25, lam=0.0, k=0.0, omega=0.0, g=1.0))
    assert isinstance(out, TrivialZeroField)


def test_classify_names_the_abelian_z_plane():
    # verified solutions off every family: a z-polarized linear wave
    for lam, g in ((0.0, 1.0), (0.4, -1.3)):
        p = AnsatzParams(alpha3=0.3, alpha5=0.7, lam=lam, k=1.0, omega=1.0, g=g)
        assert classify(p) == PlaneSolution("abelian-z", (0.0, 0.0, 0.3, 0.0, 0.7))
    assert PlaneSolution is ymwaves.PlaneSolution
    # the pure-gauge plane has zero fields and stays a trivial configuration
    pure = AnsatzParams(alpha1=0.3, alpha2=-0.2, k=1.0, omega=1.0)
    assert isinstance(classify(pure), TrivialZeroField)


def test_classify_rejects_non_solution(rng):
    p = random_params(rng)
    if nine_constraints(p).max_abs() < 1e-6:  # pragma: no cover
        pytest.skip("random draw landed on a solution")
    out = classify(p)
    assert isinstance(out, NotASolution)
    assert len(out.violated) >= 1
    assert all(1 <= i <= 9 for i in out.violated)


def test_classify_detects_detuned_family_iii():
    # an alpha5 kick off a transverse-free family III point excites the
    # cos/sin pair of the e_y equation at leading order, with equal and
    # opposite sizes 2(k^2 - w^2/c^2) delta; the leakage into the cos^2
    # channels c3 and c9 sits at delta^2, but it is all those constraints
    # hold, so against their own bounds they are violated at any tol
    d = 1e-3
    p = build_family_iii(k=2.0, omega=3.0, alpha4=0.0, lam=0.5, g=1.0)
    q = replace(p, alpha5=d)
    out = classify(q, tol=1e-4)
    assert isinstance(out, NotASolution)
    assert out.violated == (3, 5, 6, 9)
    direct = nine_constraints(q)
    assert direct.c5 == pytest.approx(2.0 * (4.0 - 9.0) * d, rel=1e-9)
    assert direct.c6 == pytest.approx(-2.0 * (4.0 - 9.0) * d, rel=1e-9)
    assert classify(q).violated == (3, 5, 6, 9)
    fitted = oracle_constraints(q).as_array()
    assert np.max(np.abs(fitted - direct.as_array())) < 1e-8


def test_a_constraint_that_overflows_is_violated():
    # c1 and c4 overflow to inf, as do their scales, so they normalize to
    # NaN: not within tol, so not a solution, as verify's checks judge them
    with np.errstate(all="ignore"):
        out = classify(AnsatzParams(alpha1=1e103, alpha3=-1e103, k=1e100, omega=1e100))
    assert isinstance(out, NotASolution)
    assert out.violated == (1, 4)


def test_classify_argument_validation():
    p = build_family_i(k=1.0, alpha4=1.0, lam=0.0, g=1.0)
    with pytest.raises(ValueError):
        classify(replace(p, g=0.0))
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            classify(p, tol=bad)


def test_constraint_scales_positive(rng):
    # each bound is positive and at least its value, to rounding, and has
    # no floor: dilating the configuration by a power of two s scales
    # every bound by s^3 exactly, far below 1
    s = 2.0 ** -40
    for _ in range(10):
        p = random_params(rng)
        bounds = np.array(constraint_scales(p))
        assert np.all(bounds > 0.0)
        n = normalized_constraints(p)
        assert np.all(n >= 0.0) and np.all(n <= 1.0 + 1e-15)
        small = replace(p, **{name: s * getattr(p, name) for name in (
            "alpha1", "alpha2", "alpha3", "alpha4", "alpha5", "lam", "k", "omega")})
        assert np.array_equal(constraint_scales(small), s ** 3 * bounds)
        assert np.array_equal(normalized_constraints(small), n)


def test_oracle_validation():
    with pytest.raises(ValueError):
        oracle_constraints(AnsatzParams(k=0.0, omega=0.0))


def test_oracle_omega_dominant_path():
    p = replace(PINNED, k=0.05, omega=1.4)  # residual sampling sweeps t instead of z
    direct = nine_constraints(p).as_array()
    fitted = oracle_constraints(p).as_array()
    assert np.max(np.abs(direct - fitted)) < 1e-7


def test_oracle_fit_diagnostics():
    coef, samples = _oracle_fit(PINNED)
    off = np.ones(coef.shape, dtype=bool)
    off[_ORACLE_FIT[0], _ORACLE_FIT[1]] = False
    assert np.max(np.abs(_ORACLE_DESIGN @ coef - samples)) < 1e-8  # the fit's residual
    assert np.max(np.abs(coef[off])) < 1e-8  # the channels no constraint sits in
    fitted = oracle_constraints(PINNED)
    assert fitted.max_abs() == pytest.approx(nine_constraints(PINNED).max_abs(), abs=1e-8)


def test_refine_recovers_family_ii(rng):
    p = build_family_ii(k=1.0, alpha4=1.0, lam=0.2, g=1.0, eta=1, xi=1)
    start = np.array([p.alpha1, p.alpha2, p.alpha3, p.alpha4, p.alpha5])
    start = start + rng.uniform(-0.05, 0.05, size=5)
    out = refine_alphas(start, lam=0.2, k=1.0, omega=1.0, g=1.0, c=1.0)
    assert out.converged
    assert out.max_normalized < 1e-10
    _, _, dist = branch_projection(tuple(out.alphas), lam=0.2, k=1.0, omega=1.0, g=1.0)
    assert dist < 1e-6


def test_branch_projection_is_exact_on_branch():
    cases = [
        ("I", build_family_i(k=1.0, alpha4=0.8, lam=0.6, g=1.0)),
        ("II", build_family_ii(k=1.0, alpha4=0.8, lam=0.6, g=1.0, eta=-1, xi=1)),
        ("III", build_family_iii(k=1.0, omega=1.0, alpha4=0.8, lam=0.6, g=1.0)),
    ]
    for want, p in cases:
        alphas = (p.alpha1, p.alpha2, p.alpha3, p.alpha4, p.alpha5)
        label, point, dist = branch_projection(alphas, lam=0.6, k=1.0, omega=1.0, g=1.0)
        assert label == want
        assert dist < 1e-12
        assert np.allclose(point, alphas)


@pytest.mark.parametrize("alphas, bad", [
    ((math.nan, 0.0, 0.0, 1.0, 0.0), {}),
    ((0.1, 0.2, 0.3, math.inf, 0.5), {}),
    ((0.1, 0.2, 0.3, 0.4), {}),
    ((0.1, 0.2, 0.3, 0.4, 0.5), {"k": math.inf}),
    ((0.1, 0.2, 0.3, 0.4, 0.5), {"omega": math.nan}),
    ((0.1, 0.2, 0.3, 0.4, 0.5), {"c": 0.0}),
    ((0.1, 0.2, 0.3, 0.4, 0.5), {"g": 0.0}),
])
def test_branch_projection_validates_input(alphas, bad):
    with pytest.raises(ValueError):
        branch_projection(alphas, **(dict(lam=0.0, k=1.0, omega=1.0, g=1.0, c=1.0) | bad))


@pytest.mark.parametrize("call", [
    # 2 g c underflows to zero and the Family III offset divides by it
    lambda: branch_projection((0.0, 0.0, 0.0, 1.0, 0.0), 0.0, 1.0, 1.0, 1e-300, 1e-300),
    lambda: refine_alphas((0.5, -1.0, 0.7, 1.1, -0.2), 0.0, 1.0, 1.0, 1e-300, 1e-300),
    lambda: scan_families(3, g=1e-300, c=1e-300),
    lambda: build_family_iii(1.0, 0.5, 1.0, 0.0, 1e-300, c=1e-300),
    lambda: classify(AnsatzParams(k=1.0, omega=1e-300, g=1e-300, c=1e-300)),
    # k / 4g overflows
    lambda: build_family_ii(1e10, 1.0, 0.0, 1e-300, 1, 1),
])
def test_couplings_that_overflow_a_branch_offset_are_rejected(call):
    with pytest.raises(ValueError, match="branch offset is not finite"):
        call()


def test_scan_is_deterministic_and_labeled():
    rows_a = scan_families(12, seed=7, lam=0.3, k=1.0, g=1.0)
    rows_b = scan_families(12, seed=7, lam=0.3, k=1.0, g=1.0)
    assert rows_a == rows_b
    for r in rows_a:
        assert r.converged
        assert r.label in {"I", "II", "III", "abelian-z", "pure-gauge"}
        assert r.max_constraint < 1e-8
        assert r.distance < 1e-6
    with pytest.raises(ValueError):
        scan_families(0)


def test_scan_rows_reproduce_constraints():
    for r in scan_families(6, seed=3, lam=0.0, k=1.0, g=1.0):
        p = AnsatzParams(*r.alphas, lam=0.0, k=1.0, omega=1.0, g=1.0)
        assert np.max(normalized_constraints(p)) < 1e-8


# the benchmark's four scan regimes (lam, k, omega, g): the acceptance light
# cone, the light cone at lam != 0 and g != 1, and two points off the cone
SCAN_REGIMES = [(0.0, 1.0, 1.0, 1.0), (-0.7, 1.3, 1.3, 1.6),
                (0.0, 1.0, 2.0, 1.0), (0.0, 0.8, 0.4, 1.0)]


@pytest.mark.parametrize("lam, k, omega, g", SCAN_REGIMES)
def test_batched_scan_matches_scalar_newton(lam, k, omega, g):
    rows = scan_families(50, seed=11, lam=lam, k=k, omega=omega, g=g)
    got = [(r.label, r.converged) for r in rows]
    assert got == scan_labels(50, seed=11, lam=lam, k=k, omega=omega, g=g)


@pytest.mark.parametrize("lam, k, omega, g", SCAN_REGIMES)
def test_classify_agrees_with_scan_labels(lam, k, omega, g):
    rows = [r for r in scan_families(200, seed=5, lam=lam, k=k, omega=omega, g=g) if r.converged]
    # the catalogue explains every root but those of the vacuum line
    # alpha1 = alpha2 = alpha4 = alpha5 = 0 off the light cone (not yet named)
    for r in rows:
        if r.label == "none":
            assert omega != k and max(abs(r.alphas[i]) for i in (0, 1, 3, 4)) < 1e-6
    labelled = [r for r in rows if r.label != "none"]
    assert len(labelled) > 100
    for r in labelled:
        p = AnsatzParams(*r.alphas, lam=lam, k=k, omega=omega, g=g)
        out = classify(p)
        # the abelian-z plane's field coefficients omega alpha5 and k alpha5
        # are judged against themselves, so near its alpha5 = 0 edge it is
        # still the plane; the whole pure-gauge plane is vacuum
        if r.label == "pure-gauge":
            assert isinstance(out, TrivialZeroField)
        elif r.label == "abelian-z":
            assert out == PlaneSolution("abelian-z", r.alphas)
        else:
            # same family, and the signs rebuild the root exactly
            assert isinstance(out, FamilySolution) and out.family == r.label
            assert out.params() == p


# The scan stops Newton at _SNAP_STOP, snaps, and resumes the rows no
# branch explains to _TOL. At omega = -1, whose light cone roots the
# catalogue does not yet hold, many rows take that path; at omega = 1/2
# some resumed rows snap only on the second pass.
@pytest.mark.parametrize("omega", [-1.0, 0.5])
def test_scan_labels_on_the_resume_path_match_scalar_newton(omega):
    rows = scan_families(100, seed=3, lam=0.0, k=1.0, omega=omega, g=1.0)
    got = [(r.label, r.converged) for r in rows]
    assert got == scan_labels(100, seed=3, lam=0.0, k=1.0, omega=omega, g=1.0)


@pytest.mark.parametrize("max_iter", [None, 22])
def test_rows_no_branch_explains_are_refine_alphas_bit_for_bit(max_iter, monkeypatch):
    # a resumed row continues its trajectory with the iterations it used
    # counted against _MAX_ITER, so every row the snap leaves as it was,
    # labelled 'none' or unconverged, is refine_alphas from its start
    if max_iter is not None:
        monkeypatch.setattr(ymwaves.constraints, "_MAX_ITER", max_iter)
    cpl = dict(lam=0.0, k=1.0, omega=-1.0, g=1.0)
    rows = scan_families(300, seed=0, **cpl)
    left = [r for r in rows if r.label in ("none", "")]
    assert len(left) > 50
    for r in left:
        out = refine_alphas(r.initial, **cpl)
        assert [float(a).hex() for a in r.alphas] == [a.hex() for a in out.alphas]
        assert (r.iterations, r.max_constraint.hex()) == (out.iterations, out.max_normalized.hex())
    assert max(r.iterations for r in rows) <= ymwaves.constraints._MAX_ITER


def test_scan_rows_do_not_depend_on_batching(monkeypatch):
    full = scan_families(30, seed=4, lam=0.3, k=1.0, omega=2.0, g=0.8)
    assert scan_families(7, seed=4, lam=0.3, k=1.0, omega=2.0, g=0.8) == full[:7]
    monkeypatch.setattr(ymwaves.constraints, "_BLOCK", 4)
    assert scan_families(30, seed=4, lam=0.3, k=1.0, omega=2.0, g=0.8) == full
    assert all(0 <= r.iterations <= 120 for r in full)


def test_scan_builds_few_params(monkeypatch):
    built = []
    post_init = AnsatzParams.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(AnsatzParams, "__post_init__", counting)
    scan_families(50, seed=0)
    assert len(built) <= 2 * 50


def test_scan_validates_couplings_before_newton(monkeypatch):
    def no_newton(*args):
        raise AssertionError("Newton ran on invalid couplings")

    monkeypatch.setattr(ymwaves.constraints, "_newton", no_newton)
    for bad in ({"g": 0.0}, {"c": 0.0}, {"omega": math.nan}, {"lam": math.inf}):
        with pytest.raises(ValueError):
            scan_families(3, **bad)
        with pytest.raises(ValueError):
            refine_alphas((0.1, 0.2, 0.3, 0.4, 0.5),
                          **(dict(lam=0.0, k=1.0, omega=1.0, g=1.0) | bad))
    with pytest.raises(ValueError):
        refine_alphas((0.1, math.nan, 0.3, 0.4, 0.5), lam=0.0, k=1.0, omega=1.0, g=1.0)


def test_refine_overflow(recwarn):
    with pytest.raises(OverflowError):
        refine_alphas((1.0, 0.0, 0.0, 0.0, 0.0), lam=1e308, k=1.0, omega=1.0, g=1.0)
    # finite constraints whose Jacobian overflows: the row stops unconverged.
    # x = lam + 2 g alpha3 = 3 lam / 2, so c1 = alpha1 x^2 is finite and
    # its derivative x^2 in alpha1 is not
    lam = math.sqrt(np.finfo(float).max * (1.0 - 5e-8))
    start = (0.25, 0.0, lam / 4.0, 0.0, 0.0)
    out = refine_alphas(start, lam=lam, k=1.0, omega=1.0, g=1.0)
    assert not out.converged
    assert out.iterations == 1
    assert out.alphas == start
    assert len(recwarn) == 0


def test_refine_counts_iterations(monkeypatch):
    p = build_family_ii(k=1.0, alpha4=1.0, lam=0.2, g=1.0, eta=1, xi=1)
    on_branch = (p.alpha1, p.alpha2, p.alpha3, p.alpha4, p.alpha5)
    out = refine_alphas(on_branch, lam=0.2, k=1.0, omega=1.0, g=1.0)
    assert out.converged and out.iterations == 0
    monkeypatch.setattr(ymwaves.constraints, "_MAX_ITER", 2)
    off = refine_alphas((0.5, -1.0, 0.7, 1.1, -0.2), lam=0.0, k=1.0, omega=1.0, g=1.0)
    assert not off.converged and off.iterations == 2


def test_classification_error_is_runtime_error():
    assert issubclass(ClassificationError, RuntimeError)
