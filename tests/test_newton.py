"""The batched Newton core: the term table's values, exact Jacobian and
stop test, the QR step, and the working set that batches rows."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ymwaves.constraints import (
    _RCOND,
    _SNAP_STOP,
    _TOL,
    _newton,
    _step,
    _substitute,
    _top_of_r,
    _value_and_jacobian,
    constraint_scales,
    nine_constraints,
    normalized_constraints,
    refine_alphas,
    scan_families,
)
from ymwaves.fields import AnsatzParams

import linalg_step
from scalar_newton import jacobian, stop_scales

value = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
rows = st.lists(st.tuples(*[value] * 5), min_size=1, max_size=6).map(np.array)
# lam != 0 and g != 1, as off the acceptance regime
positive = st.floats(min_value=0.2, max_value=0.9) | st.floats(min_value=1.1, max_value=3.0)
couplings = st.tuples(positive | positive.map(lambda v: -v), value, value, positive)


def _hex(a):
    return [float(v).hex() for v in np.ravel(a)]


def _params(a, cpl):
    lam, k, omega, g = cpl
    return AnsatzParams(*a.tolist(), lam=lam, k=k, omega=omega, g=g)


@given(rows, couplings)
def test_exact_jacobian_is_the_column_by_column_difference(x, cpl):
    table = _substitute(*cpl)
    jf, worst = _value_and_jacobian(x, table)
    assert jf.shape == (len(x), 9, 6) and worst.shape == (len(x),)
    jac, f = jf[:, :, :5], jf[:, :, 5]
    # the table sums the expanded monomials, nine_constraints (the route
    # verify and classify take) the nested c1..c9 of the same atoms: they
    # agree to rounding, 8 ulps of Newton's stop scale
    rounding = 8.0 * np.finfo(float).eps
    for i, row in enumerate(x):
        p = _params(row, cpl)
        scales = stop_scales(row, _substitute(*cpl))
        assert np.all(np.abs(f[i] - nine_constraints(p).as_array()) <= rounding * scales)
        assert _hex(worst[i]) == _hex(np.max(np.abs(f[i]) / scales))
        # each row alone, bit for bit as in the batch
        alone = _value_and_jacobian(row[None, :], table)
        assert [_hex(a[0]) for a in alone] == [_hex(b[i]) for b in (jf, worst)]
        # the central difference of nine_constraints through AnsatzParams
        # agrees with the exact Jacobian to its truncation and rounding
        want = jacobian(lambda a: nine_constraints(_params(a, cpl)).as_array(), row)
        assert np.all(np.abs(jac[i] - want) <= 1e-7 * scales[:, None])


def test_the_stop_ratio_is_the_verdicts_bound_floored_at_1():
    # Newton's ratio is max |c_i| / max(1, bound_i) with the verdicts'
    # bound, constraint_scales, which takes its own route on magnitudes:
    # the two bounds agree to 8 ulps. Small rows and couplings put bounds
    # below 1, where the floor holds.
    rng = np.random.default_rng(41)
    rounding = 8.0 * np.finfo(float).eps
    for size in (1e-3, 0.1, 1.0, 3.0):
        for _ in range(50):
            x = size * rng.uniform(-3.0, 3.0, (4, 5))
            g = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)
            cpl = (*(size * rng.uniform(-3.0, 3.0, 3)), g)
            jf, worst = _value_and_jacobian(x, _substitute(*cpl))
            for row, f, got in zip(x, jf[:, :, 5], worst):
                want = np.max(np.abs(f) / np.maximum(1.0, constraint_scales(_params(row, cpl))))
                assert abs(got - want) <= rounding * want


def test_the_floor_lets_newton_see_a_family_i_root():
    # a seed that lands on Family I: near it the terms of some constraints
    # vanish one by one, so at the raw root such a value is its own bound's
    # size; no rule relative to the bound alone sees the root converge, the
    # floor at 1 does
    start = (-1.946066276384646, 2.1790735340993193, 0.24876732149455005,
             -1.2017286567756913, -0.4638766728140493)
    res = refine_alphas(start, 0.0, 1.0, 1.0, 1.0)
    assert res.converged and res.max_normalized <= _TOL
    p = AnsatzParams(*res.alphas, lam=0.0, k=1.0, omega=1.0, g=1.0)
    normalized = normalized_constraints(p)
    assert normalized.max() > 1e-9
    assert np.all(np.array(constraint_scales(p))[normalized > 1e-9] < 1.0)


def test_a_nonzero_value_whose_bound_overflows_never_passes():
    # at k = 5e153 the bound of c6 overflows at alpha4 = 4: off the light
    # cone by one ulp its value is finite and nonzero, a ratio no verdict
    # takes, and refine_alphas steps on to a root whose bound is finite;
    # on the cone the value is 0, which passes, as in the verdicts
    k, omega = 5e153, float(np.nextafter(5e153, np.inf))
    x = np.array([(0.0, 0.0, 0.0, 4.0, 0.0)])
    with np.errstate(all="ignore"):
        _, worst = _value_and_jacobian(x, _substitute(0.0, k, omega, 1.0))
        _, on_cone = _value_and_jacobian(x, _substitute(0.0, k, k, 1.0))
    assert np.isnan(worst[0]) and on_cone[0] == 0.0
    res = refine_alphas(x[0], 0.0, k, omega, 1.0)
    assert res.converged and res.iterations == 1
    p = AnsatzParams(*res.alphas, lam=0.0, k=k, omega=omega, g=1.0)
    assert normalized_constraints(p).max() <= _TOL


def _pinv_step(jac, f):
    return np.array([-(np.linalg.pinv(j, rcond=_RCOND) @ v) for j, v in zip(jac, f)])


def _jf(jac, f):
    """[J | f], as _value_and_jacobian lays it out and _step takes it."""
    return np.concatenate([jac, f[:, :, None]], axis=2)


def test_qr_step_matches_pinv_on_full_rank_rows():
    rng = np.random.default_rng(7)
    for n in (1, 6, 64):
        jac = rng.normal(size=(n, 9, 5)) * rng.uniform(0.1, 10.0, size=(n, 1, 5))
        f = rng.normal(size=(n, 9))
        want = _pinv_step(jac, f)
        got = _step(_jf(jac, f))
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want).max(axis=1, keepdims=True))


@pytest.mark.parametrize("n", [1, 6, 64])
def test_r_from_the_raw_factorization_is_numpys_r(n):
    rng = np.random.default_rng(n)
    random = rng.normal(size=(n, 9, 6)) * 10.0 ** rng.integers(-6, 7, size=(n, 1, 6))
    deficient = random.copy()
    deficient[:, :, 3] = deficient[:, :, 1]  # a duplicated column
    deficient[::2, :, 4] = 2.0 * deficient[::2, :, 0] - deficient[::2, :, 2]  # a combination
    zero = random.copy()
    zero[:, :, rng.integers(0, 6, size=n)] = 0.0
    zero[:, :, 0] = 0.0  # a zero first column, where LAPACK's reflector is the identity
    for a in (random, deficient, zero):
        assert _hex(_top_of_r(a)) == _hex(np.linalg.qr(a, mode="r")[:, :5])


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
    with np.errstate(invalid="ignore"):  # as _newton calls it
        got = _step(_jf(jac, f))
    want = _pinv_step(jac, f)
    for i in (1, 3, 4):
        assert _hex(got[i]) == _hex(want[i])
    assert np.allclose(got[[0, 2]], want[[0, 2]], rtol=1e-10, atol=0.0)


def test_a_zero_pivot_changes_no_other_row_of_the_batch():
    # a zero column gives R an exactly zero pivot, so LAPACK's inversion
    # writes NaN for that row's inverse, whose kappa then cuts it to pinv's
    # step; every row, full rank or not, steps as it does alone, bit for
    # bit, and as numpy.linalg's wrappers step it (linalg_step), which raise
    # on the same pivot and rescan. _step runs in the caller's error state,
    # here _newton's, which ignores the kernel's invalid flag.
    rng = np.random.default_rng(9)
    for n in (1, 6, 8, 64, 256):
        jf = rng.normal(size=(n, 9, 6)) * 10.0 ** rng.integers(-6, 7, size=(n, 1, 6))
        jf[1::4, :, 4] = jf[1::4, :, 1]  # rank deficient: a duplicated column
        jf[2::4, :, 3] = jf[2::4, :, 0] * (1.0 + 1e-15)  # numerically deficient
        # without the zero pivot the batch inverts at once
        assert _hex(_step(jf)) == _hex(linalg_step.step(jf))
        zero = min(2, n - 1)
        jf[zero, :, 3] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(_top_of_r(jf)[:, :, :5])
        with np.errstate(invalid="ignore"):
            got = _step(jf)
            assert _hex(got) == _hex(linalg_step.step(jf))
            for i in range(n):
                assert _hex(got[i]) == _hex(_step(jf[i:i + 1])[0])
        want = _pinv_step(jf[zero:zero + 1, :, :5], jf[zero:zero + 1, :, 5])
        assert _hex(got[zero]) == _hex(want)


def test_a_zero_pivot_inside_newton_takes_pinvs_step_silently():
    # off the cone at (0, 0, 0, 0, a) the Jacobian's alpha3 column is zero,
    # so R of the first [J | f] has an exactly zero pivot, and pinv's step
    # lands on the vacuum at once. _newton's error state carries the
    # kernels, so no warning escapes, and each row steps alike in a batch
    cpl = (0.0, 1.0, 2.0, 1.0)
    starts = np.array([(0.0, 0.0, 0.0, 0.0, a) for a in (0.25, 0.5, -1.0, 2.0)])
    jf, _ = _value_and_jacobian(starts, _substitute(*cpl))
    pivots = np.diagonal(_top_of_r(jf)[:, :, :5], axis1=1, axis2=2)
    assert np.all(np.abs(pivots).min(axis=1) == 0.0)
    mixed = np.empty((8, 5))
    mixed[::2], mixed[1::2] = starts, np.random.default_rng(45).uniform(-3.0, 3.0, (4, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x0 in starts:
            res = refine_alphas(x0, *cpl)
            assert res.converged and res.iterations == 1 and res.max_normalized == 0.0
        _batch_matches_each_row_alone(mixed, cpl)


def test_newton_calls_no_linalg_wrapper(monkeypatch):
    # the step calls LAPACK's kernels itself; the scan and a refinement
    # give the same rows with numpy.linalg's qr and inv refusing every call
    def refuse(*args, **kwargs):
        raise AssertionError("a numpy.linalg wrapper was called")

    def run():
        return (scan_families(64, 3, 0.0, 1.0, 2.0, 1.0),
                refine_alphas((0.3, -1.2, 0.7, 1.1, -0.4), 0.0, 1.0, 1.0, 1.0))

    want = repr(run())
    monkeypatch.setattr(np.linalg, "qr", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    assert repr(run()) == want


# At lam = sqrt of the largest float (as in test_refine_overflow) every
# way a row stops has a start: the vacuum converges at once; at
# (1/4, 0, lam/4, 0, 0), where x = lam + 2 g alpha3 = 3 lam / 2, c1 =
# alpha1 x^2 stays finite but its derivative x^2 in alpha1 overflows;
# (0.5, 0, 0, 0, 0) finds no descent; and (0, 0, 0, 1e9, 1e9) starts
# past norm 1e8.
_HUGE_LAM = math.sqrt(np.finfo(float).max * (1.0 - 5e-8))
_STOPS = [(0.0, 0.0, 0.0, 0.0, 0.0), (0.25, 0.0, _HUGE_LAM / 4.0, 0.0, 0.0),
          (0.5, 0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1e9, 1e9)]
# At k = omega = 1e30 rows of order 1 converge, some of order 3e7 fail
# their line search, and rows of order 1e20 pass norm 1e8
_WIDE = (0.0, 1e30, 1e30, 1.0)
_ORDERS = [1.0, 3e7, 1e20]


def _batch_matches_each_row_alone(x0, cpl):
    table = _substitute(*cpl)
    x, iters, worst, passed = _newton(x0, table)
    for i in range(len(x0)):
        xi, it_i, worst_i, passed_i = _newton(x0[i:i + 1], table)
        assert _hex(x[i]) == _hex(xi[0])
        assert (iters[i], _hex(worst[i]), passed[i]) == (it_i[0], _hex(worst_i[0]), passed_i[0])
    # a row passes exactly when it ends within tol inside norm 1e8; one whose
    # line search failed ends where the test against tol turned it away
    assert np.array_equal(passed, (worst <= _TOL) & ~(np.linalg.norm(x, axis=1) > 1e8))
    return x, iters, worst


@settings(max_examples=25)
@given(st.one_of(
    st.tuples(st.lists(st.sampled_from(_STOPS), min_size=1, max_size=8).map(np.array),
              st.just((_HUGE_LAM, 1.0, 1.0, 1.0))),
    st.tuples(st.lists(st.tuples(*[value] * 5, st.sampled_from(_ORDERS)), min_size=1, max_size=8)
              .map(lambda r: np.array(r)[:, :5] * np.array(r)[:, 5:]), st.just(_WIDE)),
    st.tuples(rows, st.sampled_from([(0.0, 1.0, 2.0, 1.0), (-0.7, 1.3, 1.3, 1.6)]))))
# an exact root past norm 1e8 (alpha5 alone, on the cone) converges before
# any step, and has not passed
@example((np.array([(0.0, 0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0, 1e20)]), _WIDE))
def test_batching_never_changes_a_row(batch):
    x0, cpl = batch
    _batch_matches_each_row_alone(x0, cpl)


@settings(max_examples=25)
@given(st.lists(st.tuples(st.tuples(*[value] * 5), st.integers(min_value=1, max_value=120)),
                min_size=1, max_size=8),
       st.sampled_from([(0.0, 1.0, 1.0, 1.0), (0.0, 1.0, 2.0, 1.0), (-0.7, 1.3, 1.3, 1.6)]),
       st.sampled_from([_TOL, _SNAP_STOP]))
# budgets that cut rows short beside rows that converge within theirs
@example([((1.0, -2.0, 0.5, 1.5, -0.3), 1), ((0.4, 1.1, -2.2, 0.9, 2.5), 120),
          ((-1.3, 0.2, 2.8, -0.6, 1.7), 5), ((2.1, -0.8, -1.4, 2.6, 0.3), 12)],
         (0.0, 1.0, 1.0, 1.0), _TOL)
def test_a_row_takes_its_own_budget_in_any_batch(drawn, cpl, tol):
    # the scan's resume passes each row the iterations it has left: every
    # row of a batch with mixed budgets comes out as it does alone
    x0 = np.array([row for row, _ in drawn])
    budget = np.array([b for _, b in drawn])
    table = _substitute(*cpl)
    x, iters, worst, passed = _newton(x0, table, tol, budget)
    assert np.all(iters <= budget)
    for i in range(len(x0)):
        xi, it_i, worst_i, passed_i = _newton(x0[i:i + 1], table, tol, budget[i:i + 1])
        assert _hex(x[i]) == _hex(xi[0])
        assert (iters[i], _hex(worst[i]), passed[i]) == (it_i[0], _hex(worst_i[0]), passed_i[0])


def test_one_batch_holds_every_way_to_stop():
    cpl = (_HUGE_LAM, 1.0, 1.0, 1.0)
    x0 = np.array(_STOPS * 2)
    x, iters, worst = _batch_matches_each_row_alone(x0, cpl)
    assert worst[0] <= _TOL and iters[0] == 0  # converged before any step
    assert np.all(worst[1:4] > _TOL) and np.all(iters[1:4] == 1)  # stopped in the first
    assert np.array_equal(x[1:3], x0[1:3])  # unmoved: no step, or no descent
    with np.errstate(all="ignore"):
        jf, _ = _value_and_jacobian(x0[1:3], _substitute(*cpl))
    assert np.isfinite(jf[:, :, 5]).all()
    assert np.isfinite(jf[:, :, :5]).all(axis=(1, 2)).tolist() == [False, True]
    assert np.linalg.norm(x[3]) > 1e8


def test_refine_reports_a_root_past_norm_1e8_as_not_converged():
    # RefineResult.converged is _newton's passed: an exact root past norm
    # 1e8 stops at iteration 0 within _TOL, and has not converged
    res = refine_alphas((0.0, 0.0, 0.0, 0.0, 1e9), 0.0, 1.0, 1.0, 1.0)
    assert res == ((0.0, 0.0, 0.0, 0.0, 1e9), False, 0, 0.0)
    _, iters, _, passed = _newton(np.array([res.alphas]), _substitute(0.0, 1.0, 1.0, 1.0))
    assert iters.tolist() == [0] and passed.tolist() == [False]


def test_a_row_that_lands_within_tol_past_norm_1e8_has_not_passed():
    # one step lands at norm 1e8 + 5e-5 with its largest normalized
    # constraint 3.5e-11, within _SNAP_STOP: it stops failed, not passed,
    # alone and in a batch with a row that passes
    table = _substitute(0.0, 1.0, 1.0, 1.0)
    x0 = np.array([(99999999.99999997, 100.0, 1e-3, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0, 0.0)])
    for rows in (x0[:1], x0):
        x, iters, worst, passed = _newton(rows, table, _SNAP_STOP)
        assert iters[0] == 1 and worst[0] <= _SNAP_STOP
        assert 1e8 < np.linalg.norm(x[0]) <= 1e8 + 1e-4
        assert passed.tolist() == [False, True][:len(rows)]
