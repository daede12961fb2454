import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis.strategies import floats

from ymwaves.su2 import LieElement, _along_sx, _along_sy_sz, _commutator, _frame_coeffs

from su2_matrices import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    commutator,
    decompose,
    from_matrix,
    matrix,
    pauli,
    trace_inner,
)

angles = floats(min_value=-10.0, max_value=10.0, allow_nan=False)
coeff = floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def rotated_basis(lam, y):
    """The frame Sx, Sy, Sz at (lam, y) as LieElements, from the frame
    coefficients the array core uses."""
    c, s = math.cos(lam * y), math.sin(lam * y)
    return (LieElement(*_along_sx(c, s, 1.0)), LieElement(*_along_sy_sz(c, s, 1.0, 0.0)),
            LieElement(*_along_sy_sz(c, s, 0.0, 1.0)))


def test_pauli_definitions():
    assert np.array_equal(pauli("z"), np.diag([1.0 + 0j, -1.0 + 0j]))
    assert np.allclose(pauli("x") @ pauli("x"), IDENTITY)
    assert np.allclose(commutator(pauli("x"), pauli("y")), 2j * pauli("z"))


def test_pauli_invalid_axis():
    with pytest.raises(ValueError):
        pauli("w")


def test_pauli_returns_copy():
    m = pauli("x")
    m[0, 0] = 99.0
    assert SIGMA_X[0, 0] == 0.0


def test_trace_inner_normalization():
    assert trace_inner(SIGMA_X, SIGMA_X) == pytest.approx(2.0)
    assert trace_inner(SIGMA_X, SIGMA_Y) == pytest.approx(0.0)
    assert trace_inner(IDENTITY, IDENTITY) == pytest.approx(2.0)


def test_commutator_antisymmetry_and_relations():
    m = SIGMA_X + 0.3 * SIGMA_Z
    assert np.allclose(commutator(m, m), 0.0)
    _, sy, sz = rotated_basis(0.7, 1.1)
    sx, _, _ = rotated_basis(0.7, 1.1)
    assert np.allclose(commutator(matrix(sy), matrix(sz)), 2j * matrix(sx), atol=1e-13)


@given(angles, angles)
def test_rotated_basis_commutation_relations(lam, y):
    sx, sy, sz = rotated_basis(lam, y)
    mx, my, mz = matrix(sx), matrix(sy), matrix(sz)
    assert np.allclose(commutator(mx, my), 2j * mz, atol=1e-13)
    assert np.allclose(commutator(my, mz), 2j * mx, atol=1e-13)
    assert np.allclose(commutator(mz, mx), 2j * my, atol=1e-13)


def test_rotated_basis_special_angles():
    sx, sy, sz = rotated_basis(0.0, 123.4)
    assert np.allclose(matrix(sx), SIGMA_X)
    assert np.allclose(matrix(sy), SIGMA_Y)
    assert np.allclose(matrix(sz), SIGMA_Z)
    # quarter turn: lam*y = pi/2
    sx, sy, sz = rotated_basis(math.pi / 2.0, 1.0)
    assert np.allclose(matrix(sx), SIGMA_Y, atol=1e-15)
    assert np.allclose(matrix(sy), -SIGMA_X, atol=1e-15)
    assert np.allclose(matrix(sz), SIGMA_Z)


def test_rotated_basis_y_derivatives():
    # d(Sx)/dy = lam*Sy and d(Sy)/dy = -lam*Sx, via central differences
    lam, y, h = 0.9, 0.4, 1e-6
    for pick, want_sign, want_pick in ((0, 1.0, 1), (1, -1.0, 0)):
        up = matrix(rotated_basis(lam, y + h)[pick])
        dn = matrix(rotated_basis(lam, y - h)[pick])
        want = want_sign * lam * matrix(rotated_basis(lam, y)[want_pick])
        assert np.allclose((up - dn) / (2.0 * h), want, atol=1e-8)


@given(coeff, coeff, coeff, coeff, coeff, coeff, coeff, coeff)
def test_decompose_reconstruct_identity(a, b, c, d, e, f, g_, h_):
    m = (a + 1j * b) * IDENTITY + (c + 1j * d) * SIGMA_X \
        + (e + 1j * f) * SIGMA_Y + (g_ + 1j * h_) * SIGMA_Z
    a0, ax, ay, az = decompose(m)
    back = a0 * IDENTITY + ax * SIGMA_X + ay * SIGMA_Y + az * SIGMA_Z
    assert np.allclose(back, m, atol=1e-13 * max(1.0, float(np.abs(m).max())))


def test_decompose_examples():
    assert decompose(SIGMA_Z) == (0.0, 0.0, 0.0, 1.0)
    assert decompose(IDENTITY) == (1.0, 0.0, 0.0, 0.0)
    assert decompose(3.0 * SIGMA_X + 2.0 * SIGMA_Y) == (0.0, 3.0, 2.0, 0.0)


def test_lie_element_matrix_round_trip():
    e = LieElement(0.25, -1.5, 3.75)
    back = from_matrix(matrix(e))
    assert back == e
    assert e.norm() == pytest.approx(math.sqrt(0.25 ** 2 + 1.5 ** 2 + 3.75 ** 2))


def test_from_matrix_rejects_non_su2():
    with pytest.raises(ValueError):
        from_matrix(IDENTITY)  # traceful
    with pytest.raises(ValueError):
        from_matrix(1j * SIGMA_X)  # anti-Hermitian


def test_lie_element_arithmetic():
    a = LieElement(1.0, 2.0, 3.0)
    b = LieElement(-0.5, 0.25, 1.0)
    assert a + b == LieElement(0.5, 2.25, 4.0)
    assert a - b == LieElement(1.5, 1.75, 2.0)
    assert -a == LieElement(-1.0, -2.0, -3.0)
    assert 2.0 * a == a * 2.0 == LieElement(2.0, 4.0, 6.0)
    with pytest.raises(TypeError):
        a * a  # no Lie-element product, only commutators


@given(coeff, coeff, coeff, coeff, coeff, coeff)
def test_minus_i_commutator_matches_matrix_route(ax, ay, az, bx, by, bz):
    a = LieElement(ax, ay, az)
    b = LieElement(bx, by, bz)
    via_coeffs = LieElement(*_commutator(a.coeffs(), b.coeffs()))
    m = -1j * commutator(matrix(a), matrix(b))
    scale = max(1.0, float(np.abs(m).max()))
    assert np.allclose(matrix(via_coeffs), m, atol=1e-12 * scale)
    # coefficients are twice the cross product of the coefficient vectors
    cross = 2.0 * np.cross([ax, ay, az], [bx, by, bz])
    assert np.allclose(via_coeffs.coeffs(), cross, atol=1e-12 * max(1.0, np.abs(cross).max()))


@given(coeff, coeff, coeff, coeff, coeff, coeff, coeff, coeff, coeff)
def test_jacobi_identity(ax, ay, az, bx, by, bz, cx, cy, cz):
    a, b, c = (np.array([[v + 0j, 0], [0, -v]]) + w * SIGMA_X + u * SIGMA_Y
               for v, w, u in ((az, ax, ay), (bz, bx, by), (cz, cx, cy)))
    total = commutator(a, commutator(b, c)) + commutator(b, commutator(c, a)) \
        + commutator(c, commutator(a, b))
    scale = max(1.0, *(float(np.abs(m).max()) for m in (a, b, c)))
    assert float(np.abs(total).max()) <= 1e-10 * scale ** 3
    # the same identity on the coefficient triples of the array core
    u, v, w = (ax, ay, az), (bx, by, bz), (cx, cy, cz)
    cyclic = ((u, v, w), (v, w, u), (w, u, v))
    total = np.sum([_commutator(p, _commutator(q, r)) for p, q, r in cyclic], axis=0)
    scale = max(1.0, *map(abs, (ax, ay, az, bx, by, bz, cx, cy, cz)))
    assert float(np.abs(total).max()) <= 1e-10 * scale ** 3


def test_rotated_coeffs_inverts_frame_expansion():
    lam, y = 1.3, -0.7
    sx, sy, sz = rotated_basis(lam, y)
    e = 0.8 * sx + (-0.45) * sy + 2.0 * sz
    cx, cy, cz = _frame_coeffs(math.cos(lam * y), math.sin(lam * y), e.coeffs())
    assert cx == pytest.approx(0.8, abs=1e-14)
    assert cy == pytest.approx(-0.45, abs=1e-14)
    assert cz == pytest.approx(2.0, abs=1e-14)


def test_trace_inner_equals_twice_coefficient_dot():
    a = LieElement(0.3, -1.2, 0.75)
    b = LieElement(2.0, 0.5, -0.25)
    dot = sum(u * v for u, v in zip(a.coeffs(), b.coeffs()))
    assert trace_inner(matrix(a), matrix(b)) == pytest.approx(2.0 * dot)
