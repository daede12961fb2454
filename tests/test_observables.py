import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import ymwaves.observables
from ymwaves.cli import main
from ymwaves.constraints import (
    FamilySolution,
    build_family_i,
    build_family_ii,
    build_family_iii,
    classify,
)
from ymwaves.fields import AnsatzParams
from ymwaves.observables import (
    _profile_blocks,
    energy_closed_form,
    energy_density,
    mean_energy_closed_form,
    node_locations,
    point_at_phase,
)


def energy_profile(sol, n_samples):
    """The thetas, densities and closed forms of _profile_blocks, each one list."""
    thetas, densities, closed = [], [], []
    for block in _profile_blocks(sol.params(), sol, n_samples):
        for whole, part in zip((thetas, densities, closed), block):
            whole += part.tolist()
    return thetas, densities, closed


def family_ii_solution(k=1.0, alpha4=1.0, lam=0.0, g=1.0, eta=1, xi=1):
    return classify(build_family_ii(k, alpha4, lam=lam, g=g, eta=eta, xi=xi))


def test_family_ii_density_extremes():
    sol = family_ii_solution()
    p = sol.params()
    assert energy_density(p, point_at_phase(p, math.pi)) == pytest.approx(1.0)
    assert energy_closed_form(sol, math.pi) == pytest.approx(1.0)
    assert energy_density(p, point_at_phase(p, 0.0)) < 1e-25
    assert energy_closed_form(sol, 0.0) == 0.0


def test_family_ii_opposite_signs_swap_node():
    sol = family_ii_solution(eta=1, xi=-1)
    p = sol.params()
    assert energy_density(p, point_at_phase(p, math.pi)) < 1e-25
    assert energy_density(p, point_at_phase(p, 0.0)) == pytest.approx(1.0)


def test_family_i_density_matches_closed_form():
    sol = classify(build_family_i(k=1.3, alpha4=0.7, lam=0.4, g=0.9))
    p = sol.params()
    for th in np.linspace(0.0, 2.0 * math.pi, 17):
        want = (1.3 * 0.7) ** 2 * math.cos(th) ** 2
        assert energy_closed_form(sol, th) == pytest.approx(want, abs=1e-12)
        assert energy_density(p, point_at_phase(p, th)) == pytest.approx(want, abs=1e-12)


def test_family_iii_density_vanishes():
    sol = classify(build_family_iii(k=2.0, omega=3.0, alpha4=1.5, lam=0.8, g=1.0))
    p = sol.params()
    for th in (0.0, 1.0, 2.5):
        assert energy_density(p, point_at_phase(p, th)) < 1e-28
    with pytest.raises(ValueError):
        energy_closed_form(sol, 0.0)
    with pytest.raises(ValueError):
        mean_energy_closed_form(sol)
    with pytest.raises(ValueError):
        node_locations(sol)


def test_kappa_scaling_and_validation():
    sol = family_ii_solution()
    p = sol.params()
    s = point_at_phase(p, 2.0)
    assert energy_density(p, s, kappa=0.5) == 2.0 * energy_density(p, s)
    with pytest.raises(ValueError):
        energy_density(p, s, kappa=0.0)


def test_mean_density_closed_form():
    sol = family_ii_solution(k=2.0, alpha4=0.9)
    densities = energy_profile(sol, n_samples=128)[1]
    sampled_mean = sum(densities) / len(densities)
    assert mean_energy_closed_form(sol) == pytest.approx(2.0 ** 2 * 0.9 ** 2 / 2.0)
    # uniform phase sampling of a trigonometric polynomial is exact
    assert sampled_mean == pytest.approx(mean_energy_closed_form(sol), abs=1e-10)
    sol_i = classify(build_family_i(k=2.0, alpha4=0.9, lam=0.0, g=1.0))
    densities_i = energy_profile(sol_i, n_samples=128)[1]
    assert sum(densities_i) / 128 == pytest.approx(mean_energy_closed_form(sol_i), abs=1e-10)


@pytest.mark.parametrize("eta,xi,want", [(1, 1, [0.0]), (-1, -1, [0.0]),
                                         (1, -1, [math.pi]), (-1, 1, [math.pi])])
def test_node_locations_family_ii(eta, xi, want):
    sol = family_ii_solution(eta=eta, xi=xi)
    assert node_locations(sol) == want


def test_node_locations_family_i():
    sol = classify(build_family_i(k=1.0, alpha4=1.0, lam=0.0, g=1.0))
    assert node_locations(sol) == [0.5 * math.pi, 1.5 * math.pi]


def test_nodes_minimize_the_density():
    for sol in (classify(build_family_i(k=1.0, alpha4=1.0, lam=0.0, g=1.0)),
                family_ii_solution(eta=1, xi=-1)):
        p = sol.params()
        for node in node_locations(sol):
            assert energy_density(p, point_at_phase(p, node)) < 1e-25
            res = minimize_scalar(
                lambda th: energy_density(p, point_at_phase(p, th)),
                bounds=(node - 1.0, node + 1.0), method="bounded",
                options={"xatol": 1e-10})
            assert abs(res.x - node) < 1e-4  # density is quadratic at the node
            assert res.fun < 1e-15


def test_energy_profile_contents():
    sol = family_ii_solution(k=1.0, alpha4=2.0)
    thetas, densities, closed_forms = energy_profile(sol, n_samples=64)
    assert len(thetas) == len(densities) == len(closed_forms) == 64
    assert all(d >= 0.0 for d in densities)
    # the closed forms hold at kappa = 1/4, so the densities are at kappa = 1/4
    diffs = [abs(d - c) for d, c in zip(densities, closed_forms)]
    assert max(diffs) < 1e-12
    with pytest.raises(ValueError):
        energy_profile(sol, n_samples=1)


def test_density_is_phase_periodic():
    p = build_family_ii(k=1.3, alpha4=0.9, lam=0.2, g=1.1, eta=-1, xi=-1)
    for th in (0.7, 2.9):
        a = energy_density(p, point_at_phase(p, th))
        b = energy_density(p, point_at_phase(p, th + 2.0 * math.pi))
        assert b == pytest.approx(a, rel=1e-10)


def test_point_at_phase_routes():
    p = build_family_i(k=2.0, alpha4=1.0, lam=0.0, g=1.0)
    s = point_at_phase(p, 1.3)
    assert s.z == pytest.approx(0.65) and s.t == 0.0 and s.x == s.y == 0.0
    static_k = AnsatzParams(alpha4=1.0, k=0.0, omega=2.0)
    s2 = point_at_phase(static_k, 1.3)
    assert s2.t == pytest.approx(-0.65) and s2.z == 0.0
    assert static_k.phase(s2) == pytest.approx(1.3)
    with pytest.raises(ValueError):
        point_at_phase(AnsatzParams(k=0.0, omega=0.0), 1.0)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
PROFILE_1025 = [2.0 * math.pi * i / 1025 for i in range(1025)]


@given(st.sampled_from(["I", "II"]), _FINITE, _FINITE, st.sampled_from([-1, 1]),
       st.sampled_from([-1, 1]), st.lists(_FINITE, min_size=1, max_size=40))
@example("I", 1.0, 1.0, 1, 1, PROFILE_1025)
@example("II", 1.7, -0.8, -1, 1, PROFILE_1025)
@example("I", 1e200, 0.0, 1, 1, [0.0, 1.0])  # inf * 0: nan
@example("II", 1e200, 1.0, 1, 1, [0.0, math.pi])  # 0.5 inf (1 - 1): nan at theta = 0
def test_energy_closed_form_on_a_column_is_its_value_at_each_float(family, k, alpha4, eta, xi,
                                                                   thetas):
    sol = FamilySolution(family, k, k, alpha4, 0.0, 1.0, eta, xi)
    with np.errstate(over="ignore", invalid="ignore"):
        column = energy_closed_form(sol, np.array(thetas))
        each = np.array([energy_closed_form(sol, th) for th in thetas])
    assert column.view(np.int64).tolist() == each.view(np.int64).tolist()


@pytest.mark.parametrize("family", ["I", "II"])
def test_closed_forms_that_overflow_are_inf(family):
    # as energy_density's, not an OverflowError from squaring a float
    sol = FamilySolution(family, 1e200, 1e200, 1.0, 0.0, 1.0, 1, 1)
    assert energy_closed_form(sol, 1.0) == math.inf
    assert mean_energy_closed_form(sol) == math.inf


def test_the_profile_takes_its_closed_form_once_per_block_and_pass(monkeypatch, capsys):
    # on the block's cosines, the density's own, not on the phases again
    calls = []
    original = ymwaves.observables._closed_form

    def counting(sol, cos_theta):
        calls.append(np.size(cos_theta))
        return original(sol, cos_theta)
    monkeypatch.setattr(ymwaves.observables, "_closed_form", counting)
    assert main(["energy-profile", "--family", "II", "--alpha4", "-0.8", "--k", "1.7",
                 "--theta-samples", "1030"]) == 0
    assert capsys.readouterr().out.count("\r\n") == 1 + 1030
    # two blocks, in the check's pass and in the written one
    assert calls == [1024, 6, 1024, 6]
