"""The output checks accept correct output and catch wrong output."""

import math

import pytest

import checks
import workloads


@pytest.mark.parametrize("family", ["I", "II", "III"])
def test_catalogued_amplitudes_lie_on_their_branch(family):
    for eta in (1, -1):
        for xi in (1, -1):
            omega = 0.7 if family == "III" else 1.3
            a = workloads.family_amplitudes(family, 1.3, omega, 0.8, 0.4, 1.2, eta, xi)
            assert checks.on_branch(family, a, 0.4, 1.3, omega, 1.2)
            moved = (a[0] + 1e-3,) + a[1:]
            assert not checks.on_branch(family, moved, 0.4, 1.3, omega, 1.2)


def test_scan_counts_unlabelled_roots_as_failures_not_wrong_output():
    header = "seed,converged,alpha1,alpha2,alpha3,alpha4,alpha5,max_constraint,classification,distance\n"
    rows = ("0,1,0.5,-0.25,0,0,0,0,pure-gauge,0\n"
            "1,1,0.1,0.2,0.3,0.4,0.5,0,none,0.1\n"
            "2,0,1,1,1,1,1,1,,inf\n")
    v = checks.check_scan(1, header + rows, 3, 0.0, 1.0, 2.0, 1.0)
    assert (v.failed, v.errors, v.converged) == (1, [], 2)
    assert checks.check_scan(0, header + rows, 3, 0.0, 1.0, 2.0, 1.0).errors


def test_fields_rows_are_checked_against_the_closed_form():
    k, a4 = 1.5, 0.8
    header = "t,y,z,theta,E_y_sigma_x,E_y_sigma_y,E_y_sigma_z,B_x_sigma_x,B_x_sigma_y,B_x_sigma_z\n"

    def row(z, scale=1.0):
        th = k * z
        e = k * a4 * math.cos(th) * scale   # Family I: E = k a4 cos th Sy, B = -E
        return f"0,0,{z!r},{th!r},0,{e!r},0,0,{-e!r},0\n"

    good = header + row(0.1) + row(0.7)
    assert checks.check_fields(0, good, 2, "I", k, a4, 1, 1).failed == 0
    bad = header + row(0.1) + row(0.7, scale=1.01)
    assert checks.check_fields(0, bad, 2, "I", k, a4, 1, 1).failed == 1
    short = checks.check_fields(0, good, 3, "I", k, a4, 1, 1)
    assert short.failed == 1 and short.errors
