import argparse
import csv
import importlib
import io
import math
import os
import re
import signal
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import ymwaves.cli
import ymwaves.constraints
import ymwaves.fields
from ymwaves.cli import main
from ymwaves.constraints import (
    ClassificationError,
    FamilySolution,
    NotASolution,
    PlaneSolution,
    build_family_i,
    build_family_ii,
    build_family_iii,
    normalized_constraints,
)
from ymwaves.csvtext import _csv_block
from ymwaves.fields import AnsatzParams, SpacetimePoint, _derivative_bounds
from ymwaves.residuals import bianchi_residual

SMALL_GRID = "0:6.2832:5,-1:1:3,0:6.2832:5"
NON_SOLUTION = ["--alpha1", "0.7", "--alpha2", "-1.1", "--alpha3", "0.4",
                "--alpha4", "0.9", "--alpha5", "-0.3", "--lambda", "0.6",
                "--k", "1.3", "--omega", "0.8", "--g", "0.9"]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_family_ii_passes(capsys):
    code, out, _ = run(["verify", "--family", "II", "--k", "4", "--alpha4", "1",
                        "--grid", SMALL_GRID], capsys)
    assert code == 0
    assert out.strip().endswith("VERIFIED")
    assert "constraint c1 = " in out
    assert "max analytic residual" in out
    assert "bianchi residual norm" in out


def test_verify_rejects_non_solution(capsys):
    code, out, _ = run(["verify", *NON_SOLUTION, "--grid", SMALL_GRID], capsys)
    assert code == 1
    assert "violated constraints:" in out
    assert out.strip().endswith("NOT VERIFIED")


def test_verify_family_iii_reports_pure_gauge(capsys):
    code, out, _ = run(["verify", "--family", "III", "--k", "3", "--omega", "5",
                        "--alpha4", "2", "--grid", SMALL_GRID], capsys)
    assert code == 0
    assert "pure gauge: F ~ 0" in out
    assert "VERIFIED" in out


def test_verify_family_iii_at_alpha4_0_reports_as_its_raw_amplitudes(capsys):
    # the pure-gauge line reads the configuration, not the flag that built it
    family = run(["verify", "--family", "III", "--alpha4", "0", "--k", "1", "--omega", "2"], capsys)
    raw = run(["verify", "--alpha1", "1", "--alpha2", "0.5", "--k", "1", "--omega", "2"], capsys)
    assert family == raw
    assert family[0] == 0


@pytest.mark.parametrize("p, pure_gauge", [
    (build_family_iii(3, 5, 2, 0.4, 1.2), True),
    (build_family_i(3, 2, 0.4, 1.2), False),
    (build_family_ii(3, 2, 0.4, 1.2, 1, -1), False),
])
def test_verify_raw_amplitudes_report_pure_gauge(p, pure_gauge, capsys):
    # no --family: the pure-gauge line comes from the fields vanishing
    raw = [a for name in ("alpha1", "alpha2", "alpha3", "alpha4", "alpha5", "k", "omega", "g")
           for a in (f"--{name}", repr(getattr(p, name)))]
    code, out, _ = run(["verify", *raw, "--lambda", repr(p.lam), "--grid", SMALL_GRID], capsys)
    assert code == 0
    assert ("pure gauge: F ~ 0" in out) == pure_gauge


@pytest.mark.parametrize("eta", ["1", "-1"])
@pytest.mark.parametrize("g", ["0.7", "1.3"])
@pytest.mark.parametrize("lam", ["1e6", "1e8"])
def test_verify_judges_the_analytic_residual_on_the_constraint_scale(lam, g, eta, capsys):
    # lambda + 2 g alpha3 cancels to a rounding error of order 1e-16 |lambda|;
    # the residual carries it like the constraints do, past a bare 1e-9
    code, out, _ = run(["verify", "--family", "II", "--alpha4", "3", "--k", "5",
                        "--lambda", lam, "--g", g, "--eta", eta], capsys)
    assert code == 0
    assert out.endswith("\nVERIFIED\n")
    value, allowance = map(float, re.search(
        r"^max analytic residual over 1000 grid points = (\S+) \(allowance (\S+)\)$",
        out, re.M).groups())
    assert 1e-9 < value <= allowance


def test_verify_rejects_a_detuned_large_lambda_configuration(capsys):
    p = replace(build_family_i(5.0, 3.0, 1e8, 1.3), alpha1=0.1)
    raw = [a for name in ("alpha1", "alpha2", "alpha3", "alpha4", "alpha5", "k", "omega", "g")
           for a in (f"--{name}", repr(getattr(p, name)))]
    code, out, _ = run(["verify", *raw, "--lambda", repr(p.lam)], capsys)
    assert code == 1
    assert out.endswith("\nNOT VERIFIED\n")


def test_verify_writes_report_file(tmp_path, capsys):
    dest = tmp_path / "report.txt"
    code, out, _ = run(["verify", "--family", "I", "--alpha4", "1",
                        "--grid", SMALL_GRID, "--out", str(dest)], capsys)
    assert code == 0
    assert out == ""
    assert dest.read_text().strip().endswith("VERIFIED")


def test_classify_family_ii_with_signs(capsys):
    code, out, _ = run(["classify", "--family", "II", "--k", "2", "--alpha4", "1.5",
                        "--eta", "-1", "--xi", "1"], capsys)
    assert code == 0
    assert "family II eta=-1 xi=+1" in out
    assert "alpha4=1.5" in out


def test_classify_trivial_static_configuration(capsys):
    code, out, _ = run(["classify", "--k", "0", "--omega", "0",
                        "--alpha3", "0.25", "--alpha5", "-0.25"], capsys)
    assert code == 0
    assert "trivial zero-field configuration" in out


def _raw(p: AnsatzParams, c: float = 1.0) -> list[str]:
    """The raw flags of a configuration at wave speed c: --omega is c times
    the library's omega, exactly where c is a power of 2."""
    values = [p.alpha1, p.alpha2, p.alpha3, p.alpha4, p.alpha5, p.lam, p.k, p.omega * c, p.g, c]
    names = [f"--alpha{i}" for i in range(1, 6)] + ["--lambda", "--k", "--omega", "--g", "--c"]
    return [f for name, v in zip(names, values) for f in (name, repr(v))]


STATIC = ["--k", "0", "--omega", "0"]
WAVE = ["--k", "1.3", "--alpha4", "-0.8", "--lambda", "0.4", "--g", "1.2"]
DETUNED = build_family_ii(1.3, -0.8, 0.4, 1.2, -1, 1)  # detuned below by 1e-4 in alpha5


@pytest.mark.parametrize("config, solves", [
    ([*STATIC, "--alpha1", "1", "--alpha4", "1"], True),
    ([*STATIC, "--alpha3", "0.25", "--alpha5", "-0.25"], True),
    ([*STATIC, "--alpha2", "0.8", "--alpha3", "-0.7", "--alpha5", "0.7", "--alpha4", "1.2"], True),
    ([*STATIC, "--alpha1", "0.3", "--alpha2", "0.4", "--alpha3", "0.5", "--lambda", "-1"], True),
    ([*STATIC, "--alpha1", "1", "--lambda", "1"], False),
    ([*STATIC, "--alpha2", "0.6", "--alpha5", "0.9", "--g", "1.5"], False),
    ([*STATIC, "--alpha1", "1", "--alpha2", "1", "--alpha4", "2", "--lambda", "0.5"], False),
    # running waves: the families, then two detuned configurations
    (["--family", "I", *WAVE], True),
    *((["--family", "II", *WAVE, "--eta", eta, "--xi", xi], True)
      for eta in ("1", "-1") for xi in ("1", "-1")),
    (["--family", "III", *WAVE, "--omega", "3"], True),
    (NON_SOLUTION, False),
    (_raw(replace(DETUNED, alpha5=DETUNED.alpha5 + 1e-4)), False),
])
def test_verify_and_classify_agree_on_static_configurations(config, solves, capsys):
    # at k = omega = 0 both judge the three static conditions, not the nine
    # constraints, which are over-strong when the phase is frozen; on a
    # running wave both judge the nine
    args = ymwaves.cli._parse(["verify", *config, "--grid", SMALL_GRID])
    _, judged, residuals, kind, _ = ymwaves.cli._verify_checks(args)
    checks = judged + residuals
    p = ymwaves.cli._build_params(args)
    assert kind == ("static conditions" if p.k == p.omega == 0.0 else "constraints")
    assert (len(judged), len(residuals)) == (3 if kind == "static conditions" else 9, 3)
    failing = [i for i, c in enumerate(judged, start=1) if not c.value <= c.allowance]

    verified, report, _ = run(["verify", *config, "--grid", SMALL_GRID], capsys)
    assert verified == (0 if all(c.value <= c.allowance for c in checks) else 1)
    lines = report.splitlines()
    first = lines.index(checks[0].line)  # the checks' lines are printed in order
    assert lines[first:first + len(checks)] == [c.line for c in checks]
    violated = [line for line in lines if line.startswith("violated ")]
    assert violated == [f"violated {kind}: " + ", ".join(map(str, failing))] * bool(failing)
    assert isinstance(ymwaves.constraints.classify(p), NotASolution) == bool(failing)
    classified, _, _ = run(["classify", *config], capsys)
    assert verified == classified == (0 if solves else 1)


_AMPLITUDES = ("alpha1", "alpha2", "alpha3", "alpha4", "alpha5")
_signed = st.builds(lambda m, sign: m * sign, st.floats(0.1, 3.0), st.sampled_from([1.0, -1.0]))


@st.composite
def _configurations(draw):
    """A configuration of one of five kinds: raw amplitudes, a static one,
    a static one that solves (alpha1 = alpha2 = 0), a family, or a family
    whose alpha5 is detuned by 1e-6 alpha4. The raw kinds may take g = 0."""
    kind = draw(st.sampled_from(["raw", "static", "static root", "family", "detuned"]))
    lam, k, omega, alpha4, g = (draw(_signed) for _ in range(5))
    if kind in ("family", "detuned"):
        family = draw(st.sampled_from(["I", "II", "III"]))
        eta, xi = draw(st.sampled_from([1, -1])), draw(st.sampled_from([1, -1]))
        p = FamilySolution(family, k, omega if family == "III" else k, alpha4, lam, g,
                           eta, xi).params()
        return replace(p, alpha5=p.alpha5 + 1e-6 * alpha4) if kind == "detuned" else p
    alphas = [draw(_signed) for _ in range(5)]
    if kind == "static root":
        alphas[:2] = 0.0, 0.0
    if kind != "raw":
        k = omega = 0.0
    return AnsatzParams(*alphas, lam=lam, k=k, omega=omega, g=draw(st.sampled_from([g, 0.0])))


def _verdicts(p: AnsatzParams):
    """verify's judged kind and which of its constraint or static-condition
    checks pass, then the name classify gives p (None at g = 0): a family
    and its signs, a plane's label, the violated indices, a trivial zero
    field with its note, or 'unclassified'. The amplitudes and couplings
    classify returns with the name are p's own, so they are left out.
    verify runs at wave speed 2, which the CLI divides out exactly."""
    args = ymwaves.cli._parse(["verify", *_raw(p, 2.0), "--grid", "0:0:1,0:0:1,0:0:1"])
    _, checks, _, kind, _ = ymwaves.cli._verify_checks(args)
    judged = [c.passes for c in checks]
    if p.g == 0.0:
        return kind, judged, None
    try:
        out = ymwaves.constraints.classify(p)
    except ClassificationError:
        return kind, judged, "unclassified"
    if isinstance(out, FamilySolution):
        return kind, judged, (out.family, out.eta, out.xi)
    if isinstance(out, PlaneSolution):
        return kind, judged, out.label
    if isinstance(out, NotASolution):
        return kind, judged, out.violated
    return kind, judged, out


@given(_configurations(), st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e), st.booleans())
# names that a match floored at 1 moves: to Family II, and to eta=+1
@example(build_family_i(1.0, 1.0, 1.0, 1.0), 1e-6, True)
@example(build_family_iii(1.0, 0.5, 1.0, 1.0, 1.0, -1), 1e-6, False)
def test_verdicts_do_not_change_under_the_dilation_or_the_g_rescale(p, s, dilate):
    # (alpha, lam, k, omega) -> s (alpha, lam, k, omega) multiplies every
    # constraint and every bound by s^3, and (alpha, g) -> (alpha / s, g s)
    # divides both by s, so no verdict may move, nor the branch classify
    # names: its equations and their bounds scale alike
    if dilate:
        q = replace(p, **{name: s * getattr(p, name)
                          for name in (*_AMPLITUDES, "lam", "k", "omega")})
    else:
        q = replace(p, g=p.g * s, **{name: getattr(p, name) / s for name in _AMPLITUDES})
    assert _verdicts(q) == _verdicts(p)


@pytest.mark.parametrize("config, lines, verdict", [
    (["--alpha1", "1", "--alpha4", "1"], ["normalized 0", "normalized 0", "normalized 0"],
     "VERIFIED\n"),
    (["--alpha1", "1", "--lambda", "1"], ["normalized 1", "normalized 1", "normalized 0"],
     "violated static conditions: 1, 2\nNOT VERIFIED\n"),
], ids=["verified", "violated"])
def test_verify_prints_the_static_conditions(config, lines, verdict, capsys):
    code, out, _ = run(["verify", "--k", "0", "--omega", "0", *config], capsys)
    assert code == (0 if verdict == "VERIFIED\n" else 1)
    report = out.splitlines()
    # after the nine constraints, one line per static condition
    assert report[9:12] == [
        f"static condition 1: c1 + c2 - c3 at theta = 0 ({lines[0]})",
        f"static condition 2: c4 + c5 at theta = 0 ({lines[1]})",
        f"static condition 3: c7 + c8 + c9 at theta = 0 ({lines[2]})",
    ]
    assert report[12].startswith("max analytic residual")
    assert out.endswith("\n" + verdict)
    # a running wave has no static conditions to print
    _, wave, _ = run(["verify", "--omega", "0", *config], capsys)
    assert "static condition" not in wave


def test_classify_abelian_z_plane(capsys):
    code, out, _ = run(["classify", "--alpha3", "0.3", "--alpha5", "0.7", "--k", "1"], capsys)
    assert code == 0
    assert out == "abelian-z plane (alpha3=0.29999999999999999, alpha5=0.69999999999999996)\n"


def test_classify_names_the_abelian_z_plane_near_its_alpha5_edge(capsys):
    # its fields omega alpha5 and k alpha5 are judged against themselves,
    # so they do not vanish however small alpha5 is
    code, out, _ = run(["classify", "--alpha3", "0.3", "--alpha5", "1e-12", "--k", "1"], capsys)
    assert (code, out) == (0, "abelian-z plane (alpha3=0.29999999999999999, "
                              "alpha5=9.9999999999999998e-13)\n")


@pytest.mark.parametrize("argv, want", [
    # lambda + 2 g alpha3 cancels to a rounding residue of order 1e-16
    # |lambda|, which its bound |lambda| + 2 |g alpha3| carries
    (["--family", "I", "--alpha4", "3", "--k", "5", "--lambda", "1e8", "--g", "1.3"],
     "family I (k=5, omega=5, alpha4=3)\n"),
    (["--family", "III", "--omega", "0.3", "--alpha4", "3", "--k", "5", "--lambda", "1e8",
      "--g", "1.3"], "family III eta=+1 (k=5, omega=0.29999999999999999, alpha4=3)\n"),
    (["--family", "II", "--k", "100", "--lambda", "1e6", "--g", "1e-3", "--alpha4", "1"],
     "family II eta=+1 xi=+1 (k=100, omega=100, alpha4=1)\n"),
    # a wave however small is a wave: alpha4 != 0
    (["--family", "II", "--alpha4", "1e-12"],
     "family II eta=+1 xi=+1 (k=1, omega=1, alpha4=9.9999999999999998e-13)\n"),
    (["--family", "I", "--alpha4", "1e-12"],
     "family I (k=1, omega=1, alpha4=9.9999999999999998e-13)\n"),
    # xi = +1 misfits by 2e-14 here, within _PATTERN_TOL, but xi = -1 by less
    *((["--family", "II", "--alpha4", "1e-3", "--k", "1e-2", "--lambda", "1e8", "--g", "1e-3",
        "--xi", "-1", "--eta", eta],
       f"family II eta={eta} xi=-1 (k=0.01, omega=0.01, alpha4=0.001)\n") for eta in ("+1", "-1")),
])
def test_classify_names_a_family_whose_lambda_cancels(argv, want, capsys):
    assert run(["classify", *argv], capsys)[:2] == (0, want)


@pytest.mark.parametrize("s", [1.0, 1e-4, 1e-5, 1e-30])
def test_a_dilated_non_solution_is_rejected_at_every_size(s, capsys):
    # with no floor on the bounds, tol is relative at every size
    p = AnsatzParams(0.7 * s, -1.1 * s, 0.4 * s, 0.9 * s, -0.3 * s, lam=0.6 * s, k=1.3 * s,
                     omega=0.8 * s)
    code, out, _ = run(["verify", *_raw(p), "--grid", SMALL_GRID], capsys)
    assert code == 1 and out.endswith("\nNOT VERIFIED\n")
    code, out, _ = run(["classify", *_raw(p)], capsys)
    assert (code, out) == (1, "not a solution; violated constraints: 1, 2, 3, 4, 5, 6, 7, 8, 9\n")


@pytest.mark.parametrize("command", ["verify", "classify", "fields"])
def test_family_iii_zero_speed_is_usage_error(command, capsys):
    code, out, err = run([command, "--family", "III", "--alpha4", "1", "--c", "0"], capsys)
    assert code == 2
    assert out == ""
    assert "error: c must be nonzero" in err


def test_classify_rejects_non_solution(capsys):
    code, out, _ = run(["classify", *NON_SOLUTION], capsys)
    assert code == 1
    assert "not a solution; violated constraints:" in out


def test_classify_names_the_nearest_branch(capsys):
    # a root of the nine constraints on no catalogued branch
    code, out, _ = run(["classify", "--alpha1", "-0.25", "--alpha2", "0.25", "--alpha3", "0.3",
                        "--alpha4", "0.3", "--alpha5", "0.3", "--omega", "-1"], capsys)
    assert code == 1
    assert out.startswith("unclassified solution: solution outside the catalogued patterns; "
                          "nearest branch III eta=+1 at distance 0.46")


def test_scan_csv_report(tmp_path, capsys):
    dest = tmp_path / "scan.csv"
    code, out, _ = run(["scan", "--seeds", "25", "--out", str(dest)], capsys)
    assert code == 0
    assert "classification tally:" in out  # tally goes to stdout when csv goes to a file
    with open(dest, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["seed", "converged", "alpha1", "alpha2", "alpha3", "alpha4",
                       "alpha5", "max_constraint", "classification", "distance",
                       "iterations"]
    assert len(rows) == 26
    labels = {r[8] for r in rows[1:]}
    assert labels <= {"I", "II", "III", "abelian-z", "pure-gauge"}
    for r in rows[1:]:
        assert r[1] == "1"
        assert float(r[9]) < 1e-6
        assert 1 <= int(r[10]) <= 120


def test_scan_is_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["scan", "--seeds", "10", "--seed", "5", "--out", str(a)], capsys)
    run(["scan", "--seeds", "10", "--seed", "5", "--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_scan_roots_round_trip(tmp_path, capsys):
    dest = tmp_path / "scan.csv"
    run(["scan", "--seeds", "8", "--out", str(dest)], capsys)
    with open(dest, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for r in rows:
        p = AnsatzParams(alpha1=float(r["alpha1"]), alpha2=float(r["alpha2"]),
                         alpha3=float(r["alpha3"]), alpha4=float(r["alpha4"]),
                         alpha5=float(r["alpha5"]), lam=0.0, k=1.0, omega=1.0, g=1.0)
        assert np.max(normalized_constraints(p)) < 1e-8  # 17 digits reparse exactly


def test_scan_tally_on_stderr_without_out(capsys):
    code, out, err = run(["scan", "--seeds", "5"], capsys)
    assert code == 0
    assert "classification tally:" in err
    assert out.startswith("seed,converged")


def test_fields_family_i_columns(capsys):
    code, out, _ = run(["fields", "--family", "I", "--alpha4", "1"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 64
    for r in rows:
        th = float(r["theta"])
        assert float(r["E_y_sigma_y"]) == pytest.approx(math.cos(th), abs=1e-12)
        assert float(r["B_x_sigma_y"]) == pytest.approx(-math.cos(th), abs=1e-12)
        assert float(r["E_y_sigma_x"]) == 0.0
        assert float(r["E_y_sigma_z"]) == 0.0


def test_fields_family_iii_all_zero(capsys):
    code, out, _ = run(["fields", "--family", "III", "--k", "1", "--omega", "3",
                        "--alpha4", "1"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    cols = ["E_y_sigma_x", "E_y_sigma_y", "E_y_sigma_z",
            "B_x_sigma_x", "B_x_sigma_y", "B_x_sigma_z"]
    for r in rows:
        assert all(abs(float(r[c])) < 1e-13 for c in cols)


def test_fields_family_ii_constant_offset(capsys):
    # z spans exactly 63/64 of a period so the uniform mean kills the
    # oscillation and leaves the -xi eta k alpha4 / 2 offset
    zmax = 2.0 * math.pi * 63.0 / 64.0
    code, out, _ = run(["fields", "--family", "II", "--alpha4", "1",
                        "--grid", f"0:0:1,0:0:1,0:{zmax:.17g}:64"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    mean = sum(float(r["E_y_sigma_y"]) for r in rows) / len(rows)
    assert mean == pytest.approx(-0.5, abs=1e-10)


# every float, with the signed zeros, the subnormals, the ends, the
# infinities and NaN with and without its sign bit drawn often
_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310, 1e308, -1e308,
     1.7976931348623157e308, math.inf, -math.inf, math.nan, math.copysign(math.nan, -1.0)])


@given(st.lists(st.tuples(_FLOATS, st.sampled_from(["-a", "a", "other"]), _FLOATS),
                min_size=1, max_size=40))
def test_csv_block_is_each_values_own_text(rows):
    # columns a, b and -a, where b is -a, a or another value, mixed within
    # the column: each value is written as %.17g writes it alone
    a = np.array([v for v, _, _ in rows])
    b = np.array([{"-a": -v, "a": v, "other": w}[how] for v, how, w in rows])
    want = "".join(",".join("%.17g" % v for v in row) + "\r\n"
                   for row in zip(a.tolist(), b.tolist(), (-a).tolist()))
    assert _csv_block([a, b, -a]) == want


def _texts(values):
    """The rows of _csv_block of values' distinct magnitudes m, ascending,
    in the columns m and -m, each with its "\\r\\n", and the rows %.17g
    writes for them. Lists of rows, not one text, so that pytest reports a
    wrong row at once rather than diffing a 200,000-line text."""
    m = np.unique(np.abs(np.asarray(values, dtype=float)).view(np.int64)).view(np.float64)
    want = ["%.17g,%.17g\r\n" % (x, -x) for x in m.tolist()]
    return _csv_block([m, -m]).splitlines(keepends=True), want


def test_csv_block_is_17g_on_random_bits_about_the_fixed_range():
    # %.17g's fixed notation, 1e-4 <= x < 1e17, and 1,000 doubles past each end
    lo, hi = np.array([1e-4, 1e17]).view(np.int64)
    bits = np.random.default_rng(0).integers(lo - 1000, hi + 1000, 200_000)
    got, want = _texts(bits.view(np.float64))
    assert got == want


def _ties():
    """Doubles x whose x 10^s is a half-integer, s = 16 - X for their
    17-digit exponent X: %.17g rounds them half to even."""
    ties = [1234567890123456 + i / 4 for i in (1, 3, 5, 7)]
    for s in range(1, 21):  # j / 2^(s+1), j odd, times 10^s is j 5^s / 2
        j = int(1.2345 * 10 ** (16 - s) * 2 ** (s + 1)) | 1
        ties += [(j + 2 * i) / 2 ** (s + 1) for i in range(4)]
    return ties


def test_csv_block_is_17g_at_powers_of_ten_ties_and_trailing_zeros():
    near_tens = []
    for k in range(-4, 18):
        down = up = float(f"1e{k}")
        near_tens.append(up)
        for _ in range(3):
            down, up = math.nextafter(down, 0.0), math.nextafter(up, math.inf)
            near_tens += [down, up]
    ties = _ties()
    for x in ties:  # each is a tie at its exponent
        assert (Fraction(x) * Fraction(10) ** (16 - int(("%.16e" % x).split("e")[1]))
                ).denominator == 2
    # trailing zeros, stripped with the point, but at 1e16 and up, which have none
    zeros = ([2.0, 100.0, 0.5, 1e16, 3e-4] + [k + 0.5 for k in range(20)]
             + [float(10 ** 16 + i) for i in range(-40, 40, 2)]
             + [float(10 ** 17 - 16 * i) for i in range(1, 40)])
    got, want = _texts(near_tens + ties + zeros)
    assert got == want


@given(st.lists(_FLOATS | st.floats(1e-4, 1e17), max_size=60))
@example([])
@example([0.0, 1e-5, 1e17, math.inf, math.nan])
def test_csv_block_is_17g_on_any_magnitudes(values):
    # any set of them, the fixed run empty or not
    got, want = _texts(values)
    assert got == want


def test_an_empty_block_is_no_text():
    assert _csv_block([np.empty(0), np.empty(0)]) == ""
    assert _csv_block([(np.array([1.0, -0.0]), np.empty(0, np.intp)), np.empty(0)]) == ""


# a factor's values: any float, repeats, exact ties and the powers of ten
# and their neighbours
_FACTOR_VALUES = st.lists(_FLOATS | st.sampled_from(
    _ties()[:8] + [float(f"1e{k}") for k in range(-5, 19)] + [0.1, math.nextafter(0.1, 1.0)]),
    min_size=1, max_size=12)


@st.composite
def _factored_columns(draw):
    """Columns of one length, each an array or a pair (values, index), and
    their expansion, each pair as values[index]: an index may repeat values
    and skip some, and the length may be 0."""
    n = draw(st.integers(0, 30))
    columns, expanded = [], []
    for _ in range(draw(st.integers(1, 6))):
        values = np.array(draw(_FACTOR_VALUES))
        if draw(st.booleans()):
            index = np.array(draw(st.lists(st.integers(0, len(values) - 1), min_size=n,
                                           max_size=n)), np.intp)
            columns.append((values, index))
            expanded.append(values[index])
        else:
            column = np.resize(values, n)  # the values repeated to the length
            columns.append(column)
            expanded.append(column)
    return columns, expanded


@given(_factored_columns())
def test_csv_block_of_factored_columns_is_that_of_their_rows(case):
    columns, expanded = case
    want = "".join(",".join("%.17g" % v for v in row) + "\r\n"
                   for row in zip(*(c.tolist() for c in expanded)))
    assert _csv_block(columns) == _csv_block(expanded) == want


def test_the_widest_texts_fill_their_cells_in_every_column():
    # with its sign each takes the 24 bytes before its separator: a cell one
    # byte short, or a separator written over a text, cuts or moves one
    wide = [-1.7976931348623157e308, -2.2250738585072014e-308, -5e-324,
            -0.00012345678901234567, math.copysign(math.nan, -1.0), -0.0]
    narrow = np.ones(len(wide))
    columns = [np.array(wide), narrow, np.roll(wide, 2), 2.0 * narrow, np.roll(wide, 4)]
    want = "".join(",".join("%.17g" % v for v in row) + "\r\n"
                   for row in zip(*(c.tolist() for c in columns)))
    assert want.startswith("-1.7976931348623157e+308,1,nan,2,-4.9406564584124654e-324\r\n")
    assert _csv_block(columns) == want


def test_energy_profile_family_ii(capsys):
    code, out, _ = run(["energy-profile", "--family", "II", "--alpha4", "1"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 256
    assert max(float(r["abs_diff"]) for r in rows) < 1e-12
    dens = [float(r["density"]) for r in rows]
    assert min(dens) < 1e-25
    assert max(dens) == pytest.approx(1.0)


def _profile_matches_its_closed_form(out, k, alpha4, n=256):
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == n
    assert max(float(r["closed_form"]) for r in rows) == pytest.approx(k * k * alpha4 * alpha4)
    assert max(float(r["abs_diff"]) for r in rows) <= 1e-12 * (1.0 + k * k * alpha4 * alpha4)


# catalogued waves at the edges of classify's branch match (which names
# each, see test_classify_names_a_family_whose_lambda_cancels): the first
# two cancel lambda against 2 g alpha3, the third's alpha4 is 1e-12; the
# profile is that of the family the flags build
@pytest.mark.parametrize("family, alpha4, couplings", [
    ("I", 3.0, ["--k", "5", "--lambda", "1e8", "--g", "1.3"]),
    ("II", 1.0, ["--k", "100", "--lambda", "1e6", "--g", "1e-3"]),
    ("II", 1e-12, []),
])
def test_energy_profile_prints_the_family_the_flags_build(family, alpha4, couplings, capsys):
    code, out, err = run(["energy-profile", "--family", family, "--alpha4", repr(alpha4),
                          *couplings], capsys)
    assert (code, err) == (0, "")
    _profile_matches_its_closed_form(out, float(couplings[1]) if couplings else 1.0, alpha4)


@pytest.mark.parametrize("k", ["1e-308", "1e-320"])
def test_energy_profile_at_a_subnormal_k_is_its_zero_profile(k, capsys):
    # the density is k^2 alpha4^2 cos^2 theta, 0 in floats; theta / k, a
    # coordinate that realizes the phase, would overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["energy-profile", "--family", "I", "--alpha4", "1", "--k", k,
                              "--theta-samples", "8"], capsys)
    assert (code, err) == (0, "")
    rows = list(csv.reader(io.StringIO(out)))
    assert [float(row[0]) for row in rows[1:]] == [2.0 * math.pi * i / 8 for i in range(8)]
    assert all(float(v) == 0.0 for row in rows[1:] for v in row[1:])


def test_energy_profile_rejects_family_iii(capsys):
    code, _, err = run(["energy-profile", "--family", "III", "--alpha4", "1"], capsys)
    assert code == 2
    assert "error:" in err


def test_bad_grid_is_usage_error(capsys):
    code, _, err = run(["verify", "--family", "I", "--alpha4", "1",
                        "--grid", "0:1:3"], capsys)
    assert code == 2
    assert "error:" in err


# every count here fails at once, before anything is allocated
@pytest.mark.parametrize("grid, message", [
    ("0:1:2,0:0:1,0:1:1000000000000000",
     "grid axis z: count 1000000000000000 is more than memory holds"),
    ("0:1:99999999999999999999,0:0:1,0:1:2",
     "grid axis t: count 99999999999999999999 is more than memory holds"),
    ("0:1:2,0:0:9223372036854775807,0:1:2",
     "grid axis y: count 9223372036854775807 is more than memory holds"),
    ("0:1:1e3,0:0:1,0:1:2", "grid axis t: count must be a whole number >= 1, got '1e3'"),
    ("0:1:2,0:0:2.5,0:1:2", "grid axis y: count must be a whole number >= 1, got '2.5'"),
    ("0:1:2,0:0:1,0:1:0", "grid axis z: count must be >= 1, got 0"),
    ("a:1:2,0:0:1,0:1:2", "grid axis t: start and stop must be numbers, got 'a:1:2'"),
    ("0:1:2,0:0:1,0:1e:2", "grid axis z: start and stop must be numbers, got '0:1e:2'"),
    ("0:1,0:0:1,0:1:2", "each grid axis must be 'start:stop:count'"),
    ("0:1:2:3,0:0:1,0:1:2", "each grid axis must be 'start:stop:count'"),
])
@pytest.mark.parametrize("command", ["verify", "fields"])
def test_a_bad_grid_count_names_its_axis(command, grid, message, capsys):
    code, out, err = run([command, "--family", "I", "--alpha4", "1", f"--grid={grid}"], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# as for the grid counts, every count here fails at once
@pytest.mark.parametrize("count, message", [
    ("1000000000000000", "count 1000000000000000 is more than memory holds"),
    ("99999999999999999999", "count 99999999999999999999 is more than memory holds"),
    ("9223372036854775807", "count 9223372036854775807 is more than memory holds"),
    ("1", "need at least 2 profile samples"),
    ("-3", "need at least 2 profile samples"),
])
def test_a_bad_theta_sample_count_is_named(count, message, capsys):
    code, out, err = run(["energy-profile", "--family", "I", "--alpha4", "1",
                          "--theta-samples", count], capsys)
    assert (code, out, err) == (2, "", f"error: --theta-samples: {message}\n")


def test_scan_writes_each_block_as_it_comes(monkeypatch, capsys):
    argv = ["scan", "--seeds", "10", "--seed", "3", "--omega", "2"]
    whole = run(argv, capsys)
    monkeypatch.setattr(ymwaves.constraints, "_BLOCK", 4)
    real = ymwaves.constraints._newton
    written = []  # what reached stdout before each Newton solve

    def newton(*args):
        written.append(capsys.readouterr().out)
        return real(*args)
    monkeypatch.setattr(ymwaves.constraints, "_newton", newton)
    code, rest, err = run(argv, capsys)
    assert (code, "".join(written) + rest, err) == whole
    # a block is solved once all before it are written: the header and the
    # rows of two blocks before the third (a resumed solve adds no lines)
    lines = {"".join(written[:i + 1]).count("\r\n") for i in range(len(written))}
    assert lines == {0, 1 + 4, 1 + 8}


@pytest.mark.parametrize("command", ["verify", "classify", "fields"])
@pytest.mark.parametrize("extra, given", [(["--alpha1", "5"], "--alpha1"),
                                          (["--alpha5=-1", "--alpha3", "0"], "--alpha3, --alpha5")])
def test_a_raw_amplitude_with_a_family_is_a_usage_error(command, extra, given, tmp_path,
                                                        capsys):
    # the family builds alpha1..alpha5 from --alpha4; a raw amplitude would be ignored
    dest = tmp_path / "out.txt"
    code, out, err = run([command, "--family", "II", "--alpha4", "1", *extra,
                          "--out", str(dest)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: --family II builds every amplitude from --alpha4, not {given}\n"
    assert not dest.exists()


@pytest.mark.parametrize("command", ["verify", "classify", "fields"])
@pytest.mark.parametrize("extra, given", [(["--eta", "-1"], "--eta"), (["--xi", "1"], "--xi"),
                                          (["--xi=-1", "--eta", "1"], "--eta, --xi")])
def test_a_sign_without_a_family_is_a_usage_error(command, extra, given, tmp_path, capsys):
    # only a family reads --eta and --xi; raw amplitudes would ignore them
    dest = tmp_path / "out.txt"
    code, out, err = run([command, "--alpha1", "1", *extra, "--out", str(dest)], capsys)
    assert (code, out) == (2, "")
    assert err == (f"error: {given} signs a family's amplitudes; without --family "
                   "the raw amplitudes carry their own signs\n")
    assert not dest.exists()


@pytest.mark.parametrize("command", ["verify", "classify", "fields"])
@pytest.mark.parametrize("family", ["I", "III"])
def test_a_family_takes_the_signs_it_does_not_have(command, family, capsys):
    # Family I has no sign and Family III no xi: the flags are read and ignored
    argv = [command, "--family", family, "--alpha4", "0.7", "--omega", "1"]
    signed = run(argv + ["--eta", "1", "--xi", "1"], capsys)
    assert signed[0] == 0
    assert signed == run(argv, capsys)


@pytest.mark.parametrize("argv", [
    ["verify", "--alpha4", "1", "--lambda", "-1e-3", "--grid", SMALL_GRID],
    ["scan", "--seeds", "3", "--omega", "-1e-3", "--lambda", "-.5"],
    ["fields", "--alpha4", "-.5", "--grid", "-1:1:3,0:1:2,0:1:2"],
], ids=lambda argv: argv[0])
def test_negative_values_are_read_as_values(argv, capsys):
    # each the same as its --flag=value form, which argparse never took for a flag
    joined = [argv[0]] + [f"{flag}={value}" for flag, value in zip(argv[1::2], argv[2::2])]
    result = run(argv, capsys)
    assert result == run(joined, capsys)
    assert result[0] != 2


@pytest.mark.parametrize("flag, value", [("--tol", "-1"), ("--tol", "nan")])
def test_bad_tolerance_or_step_is_usage_error(flag, value, tmp_path, capsys):
    dest = tmp_path / "report.txt"
    code, out, err = run(["verify", "--family", "I", "--alpha4", "1", "--grid", SMALL_GRID,
                          flag, value, "--out", str(dest)], capsys)
    assert code == 2
    assert f"error: {flag} must be positive and finite" in err
    assert out == ""
    assert not dest.exists()


def test_classify_usage_error_creates_no_output_file(tmp_path, capsys):
    dest = tmp_path / "x.txt"
    code, out, err = run(["classify", "--g", "0", "--alpha4", "1", "--out", str(dest)], capsys)
    assert code == 2
    assert err == "error: family classification requires g != 0\n"
    assert out == ""
    assert not dest.exists()


@pytest.mark.parametrize("argv, message", [
    (["verify", "--family", "I", "--alpha4", "1", "--grid=0:1:2,0:0:1,0:1:0"],
     "grid axis z: count must be >= 1, got 0"),
    (["classify", "--family", "II", "--k", "1e100", "--c=-1e250", "--alpha4", "1"],
     "an input is too large: omega = k*c overflows at k = 1e+100 and c = -1e+250"),
    (["scan", "--k", "1e200"],
     "an input is too large: squaring k = 1e+200 and omega / c = 1e+200 overflows in the "
     "constraints c1..c9"),
    (["fields", "--family", "I", "--alpha4", "1", "--c", "1e300",
      "--grid=0:1e10:2,0:0:1,0:1:2"],
     "an input is too large: c*t overflows at t = 10000000000.0 and c = 1e+300"),
    (["energy-profile", "--family", "I", "--alpha4", "0", "--k", "1e200"],
     "an input is too large: the energy density or its closed form overflows"),
], ids=["verify", "classify", "scan", "fields", "energy-profile"])
def test_no_usage_error_leaves_an_out_file(argv, message, tmp_path, capsys):
    # each error is raised inside its command, after parsing
    dest = tmp_path / "out.txt"
    code, out, err = run([*argv, "--out", str(dest)], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not dest.exists()


@pytest.mark.parametrize("extra", [["--tol", "1e-2"], ["--h", "0.5"], ["--family", "II"],
                                   ["--alpha3", "9"], ["--eta", "1"], ["--xi", "-1"]])
def test_scan_rejects_flags_it_does_not_read(extra, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--seeds", "3", *extra])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: {' '.join(extra)}" in err


@pytest.mark.parametrize("command, flag", [
    ("verify", "--h"), ("classify", "--h"), ("fields", "--h"), ("fields", "--tol"),
    ("energy-profile", "--h"),
    ("energy-profile", "--tol"), ("energy-profile", "--omega"), ("energy-profile", "--c"),
    *(("energy-profile", f"--alpha{i}") for i in (1, 2, 3, 5)),
])
def test_commands_reject_flags_they_do_not_read(command, flag, tmp_path, capsys):
    dest = tmp_path / "out.txt"
    with pytest.raises(SystemExit) as exc:
        main([command, "--family", "I", "--alpha4", "1", flag, "0.5", "--out", str(dest)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: {flag} 0.5" in err
    assert not dest.exists()


def test_each_command_takes_exactly_the_flags_it_reads():
    shared = ["--k", "--omega", "--lambda", "--g", "--c", "--out"]
    config = ["--family", *shared, *(f"--alpha{i}" for i in range(1, 6)), "--eta", "--xi"]
    want = {
        "verify": config + ["--tol", "--grid"],
        "classify": config + ["--tol"],
        "scan": shared + ["--seeds", "--seed"],
        "fields": config + ["--grid"],
        # a Family I or II wave reads omega / c = k alone
        "energy-profile": [f for f in config if f not in ("--omega", "--c", "--alpha1",
                                                          "--alpha2", "--alpha3", "--alpha5")]
        + ["--theta-samples"],
    }
    (sub,) = [a for a in ymwaves.cli._parser()[0]._actions
              if isinstance(a, argparse._SubParsersAction)]
    got = {name: [a.option_strings[0] for a in sp._actions if a.dest != "help"]
           for name, sp in sub.choices.items()}
    assert got == want


def test_classify_nan_tolerance_is_usage_error(capsys):
    code, out, err = run(["classify", "--alpha1", "0.7", "--alpha2", "-1.1", "--alpha3", "0.4",
                          "--alpha4", "0.9", "--alpha5", "-0.3", "--tol", "nan"], capsys)
    assert code == 2
    assert "unclassified" not in out
    assert "error: --tol must be positive and finite" in err


# the bound of the numeric residual overflows at fields near 1e300; then
# omega = k c overflows
@pytest.mark.parametrize("extra", [["--alpha4", "1e150", "--k", "1e150"], ["--k", "1e200"]])
def test_overflow_is_usage_error(extra, capsys):
    code, out, err = run(["verify", "--family", "I", "--alpha4", "1", *extra], capsys)
    assert code == 2
    assert "error: an input is too large" in err
    assert "Traceback" not in err
    assert out == ""  # no partial report


@pytest.mark.parametrize("argv, message", [
    *(pytest.param([command, *family, "--k", "1", "--omega", "0.5", "--g", "1e-300",
                    "--c", "1e-300"], "the III branch offset is not finite", id=command)
      for command, family in (("verify", ["--family", "III", "--alpha4", "1"]),
                              ("classify", ["--family", "III", "--alpha4", "1"]),
                              ("scan", []))),
    # an infinite coupling is named, not blamed on g and c
    pytest.param(["verify", "--family", "III", "--omega", "inf", "--alpha4", "1"],
                 "omega must be finite, got inf", id="verify-omega-inf"),
    pytest.param(["classify", "--family", "I", "--lambda", "inf", "--alpha4", "1"],
                 "lambda must be finite, got inf", id="classify-lambda-inf"),
])
def test_couplings_that_overflow_a_branch_offset_are_usage_errors(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert f"error: {message}" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("extra, message", [
    (["--g", "0"], "g must be nonzero: the branch patterns divide by it"),
    (["--omega", "nan"], "omega must be finite, got nan"),
    (["--lambda", "1e308"],
     "an input is too large: the constraints may overflow in the seed box |alpha| <= 3"),
    (["--k", "1e200"], "an input is too large: squaring k = 1e+200 and omega / c = 1e+200 "
                       "overflows in the constraints c1..c9"),
    (["--k", "0"], "phase is frozen at k = omega = 0; the scan needs a wave"),
    (["--seed", "-1"], "--seed must be >= 0, got -1"),
    (["--seeds", "0"], "--seeds must be >= 1, got 0"),
    (["--seeds", "-3"], "--seeds must be >= 1, got -3"),
    # g^2 is finite, but a term's coefficient, g^2 times a constant or 2 g, is not
    (["--g", "1e154"],
     "an input is too large: the constraints may overflow in the seed box |alpha| <= 3"),
], ids=lambda value: re.split("[:;,]", value)[0] if isinstance(value, str) else None)
def test_scan_bad_couplings_are_usage_errors(extra, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would reach stderr
        code, out, err = run(["scan", "--seeds", "3", *extra], capsys)
    assert code == 2
    assert err == f"error: {message}\n"
    assert out == ""


@pytest.mark.parametrize("command", ["verify", "classify", "scan", "energy-profile"])
@pytest.mark.parametrize("extra, names", [
    (["--k", "1e200"], "k = 1e+200 and omega / c = 1e+200"),
    (["--g", "1e160"], "g = 1e+160"),
])
def test_a_coupling_whose_square_overflows_is_named(command, extra, names, capsys):
    config = ["--seeds", "3"] if command == "scan" else ["--family", "I", "--alpha4", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run([command, *config, *extra], capsys)
    if command != "energy-profile":
        assert (code, out) == (2, "")
        assert err == (f"error: an input is too large: squaring {names} overflows in the "
                       "constraints c1..c9\n")
    elif extra[0] == "--k":  # the profile squares k, in its density and its closed form
        assert (code, out) == (2, "")
        assert err == ("error: an input is too large: the energy density or its closed form "
                       "overflows\n")
    else:  # it never squares g, and prints the wave's profile
        assert (code, err) == (0, "")
        _profile_matches_its_closed_form(out, 1.0, 1.0)


# the profile's one overflow check reads both columns it writes: at alpha4 = 0
# and k = 1e200 the density is 0 and only the closed form, inf * 0, is nan;
# at alpha4 = 1e154 and k = 1.3 the closed form is at most 1.69e308 and only
# the density overflows, on the half period about theta = pi
@pytest.mark.parametrize("physics", [["--family", "I", "--alpha4", "0", "--k", "1e200"],
                                     ["--family", "II", "--alpha4", "1e154", "--k", "1.3"]])
def test_a_profile_column_that_overflows_is_named(physics, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["energy-profile", *physics], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: an input is too large: the energy density or its closed form "
                   "overflows\n")


def test_a_family_i_profile_equals_its_closed_form_to_the_bit(capsys):
    # at k = alpha4 = 1 the density is cos theta * cos theta, and so is the
    # closed form, squared the same way
    code, out, err = run(["energy-profile", "--family", "I", "--alpha4", "1",
                          "--theta-samples", "1025"], capsys)
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1025
    assert {r["abs_diff"] for r in rows} == {"0"}


# every command that reads --c where --omega is not given, for raw
# amplitudes and for a family, and energy-profile, which refuses --c
WAVE_SPEED_CONFIGS = [
    *([command, "--alpha4", "1"] for command in ("verify", "classify", "fields")),
    *([command, "--family", "II", "--alpha4", "1"]
      for command in ("verify", "classify", "fields", "energy-profile")),
    ["scan", "--seeds", "3"],
]


def _refuses(argv, flag, capsys):
    """Whether the CLI refuses argv as a usage error that names flag, before
    any output: energy-profile takes no --omega or --c, since a Family I or
    II profile reads omega / c = k alone."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    return exc.value.code == 2 and out == "" and f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize("config", WAVE_SPEED_CONFIGS, ids=" ".join)
@pytest.mark.parametrize("c", ["inf", "-inf", "nan"])
def test_a_bad_wave_speed_is_named_before_k_c(config, c, capsys):
    # omega = k*c would be inf or nan too, but the user gave --c, not --omega
    if config[0] == "energy-profile":
        assert _refuses([*config, f"--c={c}"], f"--c={c}", capsys)
        return
    code, out, err = run([*config, f"--c={c}"], capsys)
    assert (code, out, err) == (2, "", f"error: c must be finite, got {float(c)!r}\n")


@pytest.mark.parametrize("config", WAVE_SPEED_CONFIGS, ids=" ".join)
def test_a_wave_frequency_k_c_that_overflows_is_named(config, capsys):
    # the library reads omega / c = k, so k*c is formed only where classify
    # prints a family's omega in the caller's units
    extra = ["--k", "1e100", "--c=-1e250"]
    if config[0] == "energy-profile":
        assert _refuses([*config, *extra], "--c=-1e250", capsys)
        return
    if config[0] == "verify":  # at t = 0, where c t is 0
        extra += ["--grid", "0:0:1,-1:1:3,0:6.2832:5"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run([*config, *extra], capsys)
    if config[0] == "classify":
        assert (code, out) == (2, "")
        assert err == ("error: an input is too large: omega = k*c overflows at k = 1e+100 "
                       "and c = -1e+250\n")
    else:
        assert code in (0, 1) and out and "error" not in err


def test_scan_runs_at_k_zero_with_a_running_phase(capsys):
    code, out, err = run(["scan", "--seeds", "3", "--k", "0", "--omega", "1"], capsys)
    assert code != 2, err
    assert out.startswith("seed,converged,")


def run_fresh(argv):
    """Exit code, stdout and stderr of the CLI in a fresh process, where
    numpy shows every warning it has not shown before; -B leaves no
    bytecode in the checkout, whose cold starts the bench measures."""
    env = {"PYTHONPATH": str(Path(ymwaves.cli.__file__).parents[1]), "PATH": ""}
    proc = subprocess.run([sys.executable, "-B", "-c", "import sys, ymwaves.cli; "
                           "sys.exit(ymwaves.cli.main(sys.argv[1:]))", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("argv", [
    ["fields", "--family", "I", "--alpha4", "1", "--grid", SMALL_GRID],
    ["scan", "--seeds", "300"],  # rows past stdout's buffer, written before the tally
    ["classify", "--family", "I", "--alpha4", "1"],
], ids=lambda argv: argv[0])
def test_a_closed_reader_ends_the_command_quietly(argv):
    # run as the command: a reader that closed stdout ends it as SIGPIPE
    # does, not as a usage error
    env = {"PYTHONPATH": str(Path(ymwaves.cli.__file__).parents[1]), "PATH": ""}
    read, write = os.pipe()
    os.close(read)  # closed before the command starts, so its first write fails
    with os.fdopen(write, "wb") as stdout:
        proc = subprocess.run([sys.executable, "-B", "-m", "ymwaves.cli", *argv],
                              stdout=stdout, stderr=subprocess.PIPE, env=env)
    assert proc.stderr == b""
    assert proc.returncode == -signal.SIGPIPE


def test_main_in_process_leaves_the_sigpipe_action_alone(capsys):
    before = signal.getsignal(signal.SIGPIPE)
    assert main(["classify", "--family", "I", "--alpha4", "1"]) == 0
    assert signal.getsignal(signal.SIGPIPE) == before


def test_a_scan_loads_no_random_number_library():
    # the package draws the scan's starts itself: numpy.random, and OpenSSL
    # through secrets and hashlib, would add about 6 MB to every scan; and
    # only the scan loads the package's stream
    env = {"PYTHONPATH": str(Path(ymwaves.cli.__file__).parents[1]), "PATH": ""}
    code = ("import sys, ymwaves.cli; ymwaves.cli.main(['classify', '--family', 'I', "
            "'--alpha4', '1']); print('ymwaves.rng' in sys.modules); "
            "ymwaves.cli.main(['scan', '--seeds', '3']); "
            "print(sorted({'numpy.random', 'secrets', 'hashlib'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert (lines[1], lines[-1]) == ("False", "[]"), proc.stdout


def test_only_the_csv_commands_load_the_csv_writer():
    # a start without a bytecode cache compiles every module it imports
    env = {"PYTHONPATH": str(Path(ymwaves.cli.__file__).parents[1]), "PATH": ""}
    code = ("import sys, ymwaves.cli; main = ymwaves.cli.main; "
            "main(['classify', '--family', 'I', '--alpha4', '1']); "
            "main(['verify', '--family', 'I', '--alpha4', '1', '--grid', '0:1:2,0:0:1,0:1:2']); "
            "main(['scan', '--seeds', '3']); print('ymwaves.csvtext' in sys.modules); "
            "main(['energy-profile', '--family', 'I', '--alpha4', '1', '--theta-samples', '2']); "
            "print('ymwaves.csvtext' in sys.modules)")
    proc = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = [line for line in proc.stdout.splitlines() if line in ("False", "True")]
    assert loaded == ["False", "True"], proc.stdout


# c1 and c7 and their scales overflow: the terms in the scales, the
# normalization and verify's analytic residual each warned
@pytest.mark.parametrize("command, want", [
    ("classify", (1, "not a solution; violated constraints: 1, 7\n", "")),
    ("verify", (2, "", "error: an input is too large: the analytic residual is not finite\n")),
])
def test_an_overflow_writes_no_runtime_warning(command, want):
    code, out, err = run_fresh([command, "--alpha1", "1e150", "--alpha2", "1e150",
                                "--alpha3", "1e150"])
    assert "RuntimeWarning" not in err
    assert (code, out, err) == want


# a frozen phase whose c1..c9 overflow, then one whose static sums do
@pytest.mark.parametrize("config, message", [
    (["--alpha1", "2", "--alpha2", "1", "--g", "1e308"],
     "squaring g = 1e+308 overflows in the constraints c1..c9"),
    (["--alpha1", "1", "--alpha3", "1e154", "--alpha5", "1e154", "--g", "0.5"],
     "the static conditions c1 + c2 - c3, c4 + c5, c7 + c8 + c9 overflow"),
])
@pytest.mark.parametrize("command", ["classify", "verify"])
def test_a_frozen_phase_that_overflows_is_an_error(command, config, message, capsys):
    code, out, err = run([command, "--k", "0", "--omega", "0", *config], capsys)
    assert (code, out, err) == (2, "", f"error: an input is too large: {message}\n")


# lambda + 2 g alpha3 cancels to 0, on a frozen phase and on a wave, while
# its bound |lambda| + 2 |g alpha3| squares past the largest float; then a
# bound that overflows as a product, under c1 = 4e10
@pytest.mark.parametrize("config, message", [
    (["--k", "0", "--omega", "0", "--lambda", "1e200", "--alpha3", "-5e199", "--alpha1", "1"],
     "squaring lambda + 2 g alpha3 on magnitudes = 2e+200 overflows in the bounds of the "
     "constraints c1..c9"),
    (["--k", "1", "--lambda", "1e200", "--alpha3", "-5e199", "--alpha1", "1", "--alpha4", "1"],
     "squaring lambda + 2 g alpha3 on magnitudes = 2e+200 overflows in the bounds of the "
     "constraints c1..c9"),
    (["--k", "1", "--lambda", "5e153", "--alpha3", "-2.5e153", "--alpha1", "1e10",
      "--alpha4", "1"], "the bound of c1 on the magnitudes overflows"),
], ids=["frozen", "wave", "product"])
@pytest.mark.parametrize("command", ["classify", "verify"])
def test_a_bound_that_overflows_is_never_a_verdict(command, config, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run([command, *config], capsys)
    assert (code, out, err) == (2, "", f"error: an input is too large: {message}\n")


# lambda + 2 g alpha3 = -inf overflowed in its own sum, where a float **
# raises no error, while alpha1, alpha2, alpha4, alpha5, k and omega each
# square past the largest float
@pytest.mark.parametrize("command", ["classify", "verify"])
def test_an_atom_that_overflowed_in_its_sum_is_named_apart(command, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run([command, "--family", "II", "--alpha4", "-1e308", "--eta", "1",
                              "--xi", "1", "--k", "1e308", "--lambda", "1e154", "--g", "1e103"],
                             capsys)
    assert (code, out) == (2, "")
    assert err == ("error: an input is too large: lambda + 2 g alpha3 = -inf overflows in its "
                   "own sum, and squaring alpha1 = 2.5e+204 and alpha2 = 2.5e+204 and "
                   "alpha4 = -1e+308 and alpha5 = -1e+308 and k = 1e+308 and "
                   "omega / c = 1e+308 overflows in the constraints c1..c9\n")


def test_console_entry_point():
    # the ymwaves script that pyproject.toml declares is cli.main, which
    # the module runs as a program too
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["ymwaves"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is main
    proc = subprocess.run([sys.executable, "-B", "-m", module, "classify", "--family", "I",
                           "--alpha4", "1"], capture_output=True, text=True, cwd=root)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "family I (k=1, omega=1, alpha4=1)\n"


@pytest.mark.parametrize("extra, message", [
    (["--grid", "0:inf:3,0:0:1,0:1:2"], "grid bounds must be finite"),
    (["--grid", "0:1:3,nan:0:1,0:1:2"], "grid bounds must be finite"),
    (["--grid=-1e308:1e308:3,0:0:1,0:1:2"], "an input is too large"),
    (["--k", "1e200", "--grid", "0:0:1,0:0:1,0:1e200:3"], "an input is too large"),
    (["--lambda", "1e200", "--grid", "0:0:1,0:1e200:2,0:1:2"], "an input is too large"),
    (["--grid", "0:1:3,0:y:1,0:1:2"], "grid axis y: start and stop must be numbers"),
])
def test_fields_bad_grid_writes_nothing(extra, message, tmp_path, capsys):
    dest = tmp_path / "fields.csv"
    for out_flag in ([], ["--out", str(dest)]):
        code, out, err = run(["fields", "--family", "I", "--alpha4", "1", *extra, *out_flag],
                             capsys)
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert out == ""
    assert not dest.exists()


def test_fields_checks_the_grid_before_its_t_axis_as_given(capsys):
    # both overflow here; the grid's blocks check it as they are asked for,
    # before the t axis as given is checked and before any block is made
    code, out, err = run(["fields", "--family", "I", "--alpha4", "1",
                          "--grid=-1e308:1e308:3,0:0:1,0:1:2"], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: an input is too large: the grid coordinates, the phase, the frame "
                   "angle or the field coefficients are not finite\n")


@pytest.mark.parametrize("command", ["verify", "classify", "fields", "energy-profile"])
@pytest.mark.parametrize("family", ["I", "II"])
def test_family_omega_must_be_k_c(command, family, capsys):
    base = [command, "--family", family, "--alpha4", "1", "--k", "2"]
    if command == "energy-profile":  # it takes no --omega, even at k c
        assert _refuses(base + ["--omega", "3"], "--omega 3", capsys)
        assert _refuses(base + ["--omega", "2"], "--omega 2", capsys)
        return
    code, out, err = run(base + ["--omega", "3"], capsys)
    assert code == 2
    assert err.startswith("error: ") and "--omega 3 differs" in err
    assert out == ""
    code, out, _ = run(base + ["--omega", "2"], capsys)  # omega = k c is accepted
    assert code == 0 and out


# calls that read --c: a family off the light cone and raw amplitudes at a
# given --omega, a family on it and a scan at omega = k c; (command and
# flags, --omega or None, --grid or None)
UNIT_CALLS = [
    (["verify", "--family", "III", "--alpha4", "0.8", "--k", "1.3", "--lambda", "0.4",
      "--g", "1.2", "--eta", "-1"], 0.75, "0.5:3.25:5,-1:1:3,0:6.2832:5"),
    (["verify", *NON_SOLUTION[:-4], "--g", "0.9"], 0.8, "-1:2:4,-1:1:2,0:6.2832:4"),
    (["verify", "--family", "II", "--alpha4", "1", "--k", "2", "--xi", "-1"], None,
     "0.5:3.25:5,-1:1:3,0:6.2832:5"),
    (["classify", "--family", "III", "--alpha4", "0.8", "--k", "1.3", "--g", "1.2"], 0.75, None),
    (["scan", "--seeds", "40", "--seed", "3", "--k", "0.8"], 0.4, None),
    (["scan", "--seeds", "40", "--lambda", "-0.7", "--k", "1.3", "--g", "1.6"], None, None),
    (["fields", "--family", "III", "--alpha4", "0.8", "--k", "1.3", "--lambda", "0.4",
      "--g", "1.2"], 0.75, "0.5:3.25:4,-1:1:2,0:6.2832:4"),
    (["fields", *NON_SOLUTION[:-4], "--g", "0.9"], 0.8, "-1:2:3,-1:1:2,0:6.2832:3"),
]


def _at_speed(call, c, units):
    """A call of UNIT_CALLS at wave speed c, or, with units, the same call in
    the library's units: --omega over c, the grid's t range times c, and
    --c 1. At c a power of 2 both give the library the same numbers."""
    argv, omega, grid = call
    argv = [*argv, "--c", "1" if units else repr(c)]
    if omega is not None:
        argv += ["--omega", repr(omega / c if units else omega)]
    if grid is not None:
        t, rest = grid.split(",", 1)
        t0, t1, n = t.split(":")
        if units:
            t0, t1 = repr(c * float(t0)), repr(c * float(t1))
        argv += [f"--grid={t0}:{t1}:{n},{rest}"]
    return argv


@pytest.mark.parametrize("c", [2.0, 0.5, 2.0 ** -10])
@pytest.mark.parametrize("call", UNIT_CALLS, ids=lambda call: " ".join(call[0][:3]))
def test_the_cli_converts_the_wave_speed_once(call, c, capsys):
    # verify's report and the scan's CSV and tally are the same at (omega,
    # c, t) as at (omega / c, 1, c t); fields' columns but t, which prints
    # the grid as given, and classify's report but omega, which prints the
    # caller's
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run(_at_speed(call, c, False), capsys)
        want = run(_at_speed(call, c, True), capsys)
    command, omega = call[0][0], call[1]
    assert got[0] in (0, 1) and got[2] == want[2]
    if command == "fields":
        rows, units = ([row.split(",") for row in out.splitlines()] for out in (got[1], want[1]))
        assert [row[1:] for row in rows] == [row[1:] for row in units]
        at_one = run(_at_speed(call, 1.0, False), capsys)[1]  # the grid's own t
        assert [row[0] for row in rows] == [row.split(",")[0] for row in at_one.splitlines()]
        assert len(rows) > 1 and rows != units
    elif command == "classify":
        assert got[1] == want[1].replace(f"omega={omega / c:.17g}", f"omega={omega:.17g}")
        assert got[1] != want[1] and got[1].startswith("family III")
    else:
        assert got == want


@pytest.mark.parametrize("c", ["1e-308", "3e-320"])
def test_a_catalogued_wave_verifies_at_a_subnormal_wave_speed(c, capsys):
    # the library forms no 1 / c and no k c: it sees omega / c = k and the
    # grid's time as c t, here from 0 to c, and so the report of the wave
    # at c = 1 on that grid
    config = ["verify", "--family", "I", "--alpha4", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run([*config, "--c", c, "--grid", "0:1:2,0:1:2,0:1:2"], capsys)
    assert (code, err) == (0, "")
    assert out.endswith("\nVERIFIED\n") and "nan" not in out
    assert run([*config, "--grid", f"0:{c}:2,0:1:2,0:1:2"], capsys) == (code, out, err)


@pytest.mark.parametrize("argv, message", [
    (["verify", "--family", "III", "--alpha4", "1", "--omega", "1", "--c", "1e-320"],
     "omega / c overflows at omega = 1.0 and c = 1e-320"),
    (["scan", "--omega", "-1e10", "--c", "1e-300"],
     "omega / c overflows at omega = -10000000000.0 and c = 1e-300"),
    (["fields", "--family", "I", "--alpha4", "1", "--c", "1e300",
      "--grid", "0:1e10:2,0:0:1,0:1:2"], "c*t overflows at t = 10000000000.0 and c = 1e+300"),
    (["verify", "--family", "I", "--alpha4", "1", "--c", "-1e300",
      "--grid", "-1e10:0:2,0:0:1,0:1:2"], "c*t overflows at t = -10000000000.0 and c = -1e+300"),
], ids=["verify-omega", "scan-omega", "fields-t", "verify-t"])
def test_a_converted_omega_or_time_that_overflows_is_named(argv, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(argv, capsys)
    assert (code, out, err) == (2, "", f"error: an input is too large: {message}\n")


@pytest.mark.parametrize("c", ["1e-3", "1e-6"])
def test_small_wave_speed_verifies(c, capsys):
    # the library reads omega / c = k and the grid's t as c t
    code, out, _ = run(["verify", "--family", "I", "--alpha4", "1", "--c", c], capsys)
    assert code == 0
    assert out.endswith("\nVERIFIED\n")


@pytest.mark.parametrize("argv", [
    ["--family", "II", "--alpha4", "1", "--k", "2", "--lambda", "0.3", "--g", "1.5",
     "--c", "1e-3"],
    ["--family", "I", "--alpha4", "2", "--k", "3", "--c", "1e-6"],
])
def test_small_wave_speed_bianchi_budget(argv, capsys):
    # Faraday's time derivative is along c t, and the Bianchi bound carries
    # omega / c
    code, out, _ = run(["verify", *argv], capsys)
    assert code == 0
    assert out.endswith("\nVERIFIED\n")


def _bianchi_line(out):
    """verify's Bianchi line as (value, allowance)."""
    m = re.search(r"^bianchi residual norm over \d+ grid points = (\S+) "
                  r"\(div B and Faraday, allowance (\S+)\)$", out, re.M)
    return float(m.group(1)), float(m.group(2))


def _numeric_line(out):
    """verify's numeric residual line as (value, allowance)."""
    m = re.search(r"^max numeric residual over \d+ grid points = (\S+) "
                  r"\(allowance (\S+)\)$", out, re.M)
    return float(m.group(1)), float(m.group(2))


def test_the_bianchi_line_sees_a_closed_form_e_that_no_potential_gives(monkeypatch, capsys):
    # flip the sign of -2 g alpha1 alpha5 in E's cos group: the homogeneous
    # equations on the closed-form E and B see it, over verify's grid and
    # at one point through bianchi_residual alike
    argv = ["verify", "--family", "II", "--alpha4", "1", "--k", "2", "--lambda", "0.3",
            "--g", "1.5"]
    p = build_family_ii(k=2.0, alpha4=1.0, lam=0.3, g=1.5, eta=1, xi=1)
    s = SpacetimePoint(t=0.3, x=0.17, y=-0.4, z=0.9)
    bound = _derivative_bounds(p)[0]
    value, allowance = _bianchi_line(run(argv, capsys)[1])
    assert max(value, bianchi_residual(p, s)) <= allowance
    real = ymwaves.fields._field_groups

    def mutant(a1, a2, a3, a4, a5, lam, k, w, g):
        (e_const, _, e_sin), b = real(a1, a2, a3, a4, a5, lam, k, w, g)
        return (e_const, w * a4 + 2.0 * g * a1 * a5, e_sin), b
    monkeypatch.setattr(ymwaves.fields, "_field_groups", mutant)
    code, out, _ = run(argv, capsys)
    value, _ = _bianchi_line(out)
    assert code == 1
    assert min(value, bianchi_residual(p, s)) > 1e6 * 1e-9 * bound


def test_bianchi_residual_is_verifys_bianchi_line_at_one_point(capsys):
    # the one-point grid t:t:1,y:y:1,z:z:1 at x = _GRID_X, on random
    # amplitudes off shell and on the catalogued waves, fast and slow: at
    # wave speeds that are powers of 2, so that the CLI's omega / c and
    # c t are the library's omega and t exactly
    rng = np.random.default_rng(29)
    configs = [(AnsatzParams(*rng.uniform(-2.0, 2.0, 9).tolist()), c)
               for c in (0.5, 1.0, 4.0) for _ in range(4)]
    configs += [(build_family_i(1.0, 1.0, 0.0, 1.0), c) for c in (2.0 ** -20, 2.0 ** 7, 2.0 ** 13)]
    configs += [(build_family_ii(2.0, 1.0, 0.3, 1.5, 1, -1), 1.0),
                (build_family_iii(1.3, 0.5, 0.8, 0.4, 1.2), 1.0)]
    nonzero = 0
    for p, c in configs:
        t, y, z = rng.uniform(-3.0, 3.0, 3).tolist()
        grid = f"{t / c!r}:{t / c!r}:1,{y!r}:{y!r}:1,{z!r}:{z!r}:1"
        out = run(["verify", *_raw(p, c), "--grid", grid], capsys)[1]
        value = _bianchi_line(out)[0]
        s = SpacetimePoint(t, ymwaves.fields._GRID_X, y, z)
        assert bianchi_residual(p, s).hex() == value.hex()
        nonzero += value != 0.0
    assert nonzero > len(configs) // 2


@pytest.mark.parametrize("family", ["I", "II"])
def test_fast_waves_verify(family, capsys):
    # at c = 100 the nested probe's second-order budget rejected these
    # catalogued waves; the homogeneous equations hold them to rounding,
    # far inside tol times their bound
    code, out, _ = run(["verify", "--family", family, "--alpha4", "1", "--c", "100"], capsys)
    assert code == 0 and out.endswith("\nVERIFIED\n")
    value, allowance = _bianchi_line(out)
    bound = _derivative_bounds(FamilySolution(family, 1.0, 1.0, 1.0, 0.0, 1.0, 1, 1).params())[0]
    assert value <= 1e-6 * allowance and 1e-9 * bound < allowance < 1.01e-9 * bound


# catalogued waves at a fast phase (c = 1e4), at a small coupling under a
# large amplitude, and at a slow wave speed (c = 1e-6), where a truncation
# budget with a frequency floor fails them or decides nothing; then the
# numeric line as (value, allowance), the allowance tol times its bound
# plus rounding
@pytest.mark.parametrize("argv, want", [
    (["--family", "I", "--alpha4", "1", "--c", "1e4"], (0.0, 8.0000284217094309e-09)),
    (["--family", "I", "--k", "1", "--g", "1e-3", "--c", "100", "--alpha4", "1000"],
     (0.0, 8.0000284217094317e-06)),
    (["--family", "III", "--alpha4", "1", "--omega", "0.3", "--c", "1e-6"],
     (0.0, 720.01215801195497)),
])
def test_complex_step_lines_verify_where_a_stencil_budget_fails(argv, want, capsys):
    code, out, _ = run(["verify", *argv], capsys)
    assert (code, _numeric_line(out)) == (0, want)
    assert out.endswith("\nVERIFIED\n")


@pytest.mark.parametrize("argv", [
    ["--family", "I", "--alpha4", "1", "--k", "1e40"],  # h = 1e-30 would overflow cosh(k h)
    ["--family", "I", "--alpha4", "1", "--k", "1e70"],
    ["--family", "III", "--alpha4", "1", "--k", "1e40", "--omega", "1e39"],
    ["--family", "I", "--alpha4", "1", "--k", "1e12", "--grid", "0:0:1,0:0:1,0:1e290:3"],
])
def test_fast_phases_give_a_verdict(argv, capsys):
    # the complex step shrinks with the fastest rate, so its imaginary parts
    # stay small, and the allowance has no power of a frequency or a phase
    # to overflow, at phases up to 1e302
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["verify", *argv], capsys)
    assert (code, err) == (0, "")
    assert out.endswith("\nVERIFIED\n") and "nan" not in out


@pytest.mark.parametrize("argv", [
    # fields near 1e100 under a coupling near 1e120: the commutator rate
    # 2 |g| |alpha| times them overflows the bound, and the residual reads 0
    ["--alpha4", "1e100", "--g", "1e120"],
    # fields near 1e300 whose derivatives overflow: the residual reads NaN
    # at some points, and its largest norm 0
    ["--alpha4", "1e150", "--k", "1e150"],
    # a frame rotation near the largest float: gauss's divergence and its
    # commutator term are inf of opposite signs, and their sum NaN
    ["--alpha4", "1e103", "--lambda", "1e308"],
])
def test_a_numeric_bound_that_overflows_is_named(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["verify", "--family", "I", *argv], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: an input is too large: the bound of the numeric residual on the "
                   "magnitudes overflows\n")


def test_a_commutator_that_overflows_is_zero_at_g_zero(capsys):
    # on the light cone at lambda = 0 every constraint and the analytic
    # residual are 0; A_y near 1e300 against E_y near 1e10 overflows their
    # commutator, which g = 0 takes out of every line, not as 0 * inf = NaN
    code, out, err = run(["verify", "--alpha3", "1e300", "--alpha4", "1e10", "--g", "0",
                          "--grid", "0:6.2832:3,-1:1:3,0:6.2832:3"], capsys)
    assert (code, err) == (0, "")
    assert out.endswith("\nVERIFIED\n") and "nan" not in out


def test_the_homogeneous_equations_hold_off_shell(capsys):
    # they follow from the Bianchi identity, so they hold for every
    # amplitude, not only on the roots that the equations of motion pick
    rng = np.random.default_rng(7)
    for i in range(24):
        alphas = rng.uniform(-1.5, 1.5, 5)
        couplings = {"--lambda": rng.uniform(-1.5, 1.5), "--k": rng.uniform(-1.5, 1.5),
                     "--omega": rng.uniform(-1.5, 1.5), "--g": rng.uniform(-1.5, 1.5),
                     "--c": (0.7, 1.0, 2.0)[i % 3]}
        argv = [f for j, a in enumerate(alphas.tolist()) for f in (f"--alpha{j + 1}", repr(a))]
        argv += [f for flag, v in couplings.items() for f in (flag, repr(float(v)))]
        code, out, _ = run(["verify", *argv], capsys)
        value, allowance = _bianchi_line(out)
        numeric, numeric_allowance = _numeric_line(out)
        assert code == 1
        assert value <= allowance == numeric_allowance < numeric


@pytest.mark.parametrize("lam", ["1e17", "3e16", "1e308"])
@pytest.mark.parametrize("xi", ["1", "-1"])
def test_energy_profile_names_a_lambda_that_cancels_away(lam, xi, capsys):
    # lambda + 2 g alpha3 rounds to 0 in place of 2 g xi alpha4: the
    # fields would be another wave's, not the Family II one profiled
    code, out, err = run(["energy-profile", "--family", "II", "--alpha4", "1", "--xi", xi,
                          "--lambda", lam], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --lambda {float(lam):.17g} cancels against 2 g alpha3")
    # Family I's fields do not see the sum
    code, out, _ = run(["energy-profile", "--family", "I", "--alpha4", "1", "--lambda", lam],
                       capsys)
    assert code == 0
    _profile_matches_its_closed_form(out, 1.0, 1.0)


def test_energy_profile_keeps_a_lambda_that_survives(capsys):
    code, out, _ = run(["energy-profile", "--family", "II", "--alpha4", "1", "--xi", "-1",
                        "--lambda", "1e16"], capsys)
    assert code == 0
    _profile_matches_its_closed_form(out, 1.0, 1.0)


CALLS = [
    ["scan", "--seeds", "8", "--seed", "1", "--omega", "2"],  # a root on no branch
    ["scan", "--seeds", "8"],
    ["verify", "--family", "II", "--alpha4", "1", "--grid", SMALL_GRID],
    ["classify", *NON_SOLUTION],
    ["classify", "--family", "III", "--omega", "2", "--alpha4", "1", "--eta", "-1"],
    ["fields", "--family", "I", "--alpha4", "1", "--grid", "0:0:1,0:0:1,0:1:3"],
    ["verify", "--tol", "0"],
]


def test_the_shared_parser_keeps_no_state(capsys):
    fresh = []
    for argv in CALLS:
        ymwaves.cli._parser.cache_clear()
        fresh.append(run(argv, capsys))
    assert [r[0] for r in fresh] == [1, 0, 0, 1, 0, 0, 2]
    ymwaves.cli._parser.cache_clear()
    assert [run(argv, capsys) for argv in CALLS] == fresh
    assert [run(argv, capsys) for argv in reversed(CALLS)] == fresh[::-1]
    assert ymwaves.cli._parser.cache_info().misses == 1


def test_main_runs_a_rebound_command(monkeypatch, capsys):
    run(["scan", "--seeds", "1"], capsys)  # the parser is built by now
    seen = []
    monkeypatch.setattr(ymwaves.cli, "cmd_scan", lambda args: seen.append(args.seeds) or 7)
    assert run(["scan", "--seeds", "3"], capsys) == (7, "", "")
    assert seen == [3]
