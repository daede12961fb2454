"""The batched Newton core: the fused value and Jacobian, the QR step, and
the convergence test."""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from ymwaves.constraints import (
    _RCOND,
    _constraint_rows,
    _scale_columns,
    _step,
    _value_and_jacobian,
    _within_tol,
    _worst_normalized,
    constraint_scales,
    nine_constraints,
)
from ymwaves.fields import AnsatzParams

from scalar_newton import jacobian

value = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
rows = st.lists(st.tuples(*[value] * 5), min_size=1, max_size=6).map(np.array)
# lam != 0, g != 1 and c != 1, as off the acceptance regime
positive = st.floats(min_value=0.2, max_value=0.9) | st.floats(min_value=1.1, max_value=3.0)
couplings = st.tuples(positive | positive.map(lambda v: -v), value, value, positive, positive)


def _hex(a):
    return [float(v).hex() for v in np.ravel(a)]


def _hex_signless_zero(a):
    # the batched stencil adds 0 * d to the coordinates it does not move,
    # which turns an input -0.0 into 0.0, so zeros may differ in sign only
    return _hex(np.asarray(a) + 0.0)


def _params(a, cpl):
    lam, k, omega, g, c = cpl
    return AnsatzParams(*a.tolist(), lam=lam, k=k, omega=omega, g=g, c=c)


@given(rows, couplings)
def test_fused_jacobian_is_the_column_by_column_difference(x, cpl):
    f, jac = _value_and_jacobian(x, cpl)
    assert f.shape == (len(x), 9) and jac.shape == (len(x), 9, 5)
    assert _hex(f) == _hex(_constraint_rows(x, cpl))
    for row, f_row, jac_row in zip(x, f, jac):
        want = jacobian(lambda a: _constraint_rows(a[None, :], cpl)[0], row)
        assert _hex_signless_zero(jac_row) == _hex_signless_zero(want)
        # through AnsatzParams the polynomials run on Python floats, whose
        # x ** 2 (libm pow) can round differently from numpy's x * x, so
        # that route agrees to rounding over the stencil step only
        scales = np.array(constraint_scales(_params(row, cpl)))
        want = jacobian(lambda a: nine_constraints(_params(a, cpl)).as_array(), row)
        assert np.all(np.abs(f_row - nine_constraints(_params(row, cpl)).as_array())
                      <= 1e-14 * scales)
        assert np.all(np.abs(jac_row - want) <= 1e-7 * scales[:, None])


def _pinv_step(jac, f):
    return np.array([-(np.linalg.pinv(j, rcond=_RCOND) @ v) for j, v in zip(jac, f)])


def test_qr_step_matches_pinv_on_full_rank_rows():
    rng = np.random.default_rng(7)
    for n in (1, 6, 64):
        jac = rng.normal(size=(n, 9, 5)) * rng.uniform(0.1, 10.0, size=(n, 1, 5))
        f = rng.normal(size=(n, 9))
        want = _pinv_step(jac, f)
        got = _step(jac, f)
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want).max(axis=1, keepdims=True))


def test_rank_deficient_rows_take_the_pinv_step_exactly():
    rng = np.random.default_rng(8)
    jac = rng.normal(size=(5, 9, 5))
    f = rng.normal(size=(5, 9))
    jac[1, :, 2] = 0.0  # a zero column
    jac[3, :, 4] = jac[3, :, 1]  # a duplicated column
    # sigma_min / sigma_max = 1e-16 though every pivot of R is 1: a cutoff
    # on the diagonal of R would take the unregularized step here
    jac[4] = 0.0
    jac[4, :5, :5] = np.eye(5)
    jac[4, 0, 1] = 1e8
    got = _step(jac, f)
    want = _pinv_step(jac, f)
    for i in (1, 3, 4):
        assert _hex(got[i]) == _hex(want[i])
    assert np.allclose(got[[0, 2]], want[[0, 2]], rtol=1e-10, atol=0.0)


wide = value | st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
wide_g = st.floats(min_value=0.2, max_value=1e3)


@given(st.lists(st.tuples(*[wide] * 5, st.floats(0.5, 2.0) | st.floats(2.0, 1e3), st.booleans()),
                min_size=1, max_size=8).map(np.array),
       st.tuples(wide, wide, wide, wide_g | wide_g.map(lambda v: -v), positive),
       st.floats(min_value=1e-15, max_value=1e-2))
# the bound's worst case: alpha1 = alpha4 = g = M, so 4 g^2 alpha1 alpha4^2 = 4 M^5
@example(np.array([[1e3, 0.0, 0.0, 1e3, 0.0, 1.0, 1.0]]), (0.0, 0.0, 0.0, 1e3, 1.0), 1e-13)
def test_prefilter_turns_away_only_failing_rows(rows, cpl, tol):
    # _within_tol rejects a row with a constraint above 8 tol M^5 before
    # it evaluates the scales; with every constraint of a row at u times
    # its tolerance, u near 1 or far above it, that shortcut must agree
    # with the full normalized check
    x, u, sign = rows[:, :5], rows[:, 5], np.where(rows[:, 6] > 0.0, 1.0, -1.0)
    f = tol * _scale_columns(*x.T, *cpl).T * (u * sign)[:, None]
    assert np.array_equal(_within_tol(f, x, cpl, tol), _worst_normalized(f, x, cpl) <= tol)
