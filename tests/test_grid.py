"""The grid core against the scalar, one-point-at-a-time routes.

fields and energy-profile evaluate their rows in blocks of numpy columns;
the references here build the same CSV the way the per-point code does,
with csv.writer per row: for fields one SpacetimePoint and the scalar
closed-form fields, for the profile the density's float route at each
phase.
"""

import csv
import functools
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ymwaves.cli
import ymwaves.csvtext
import ymwaves.fields
import ymwaves.residuals
from ymwaves.cli import _parse_grid, _parser, main
from ymwaves.constraints import build_family_i, build_family_ii, classify, nine_constraints
from ymwaves.fields import (
    AnsatzParams,
    SpacetimePoint,
    _Grid,
    electric_field_analytic,
    magnetic_field_analytic,
)
from ymwaves.observables import _density, _profile_blocks, energy_closed_form
from ymwaves.residuals import _max_analytic_norm, grid_points, max_residual_norm, residual_sample

from conftest import random_params, random_point

DEFAULT_GRID = _parser()[0].parse_args(["verify"]).grid
FINE_GRID = "0:6.2832:16,-1:1:16,0:6.2832:16"
FIELDS_HEADER = ["t", "y", "z", "theta", "E_y_sigma_x", "E_y_sigma_y", "E_y_sigma_z",
                 "B_x_sigma_x", "B_x_sigma_y", "B_x_sigma_z"]

# (family, alpha4, k, lam, g, eta, xi, grid). fields formats a repeated value
# once per block, matched on its bits: the three grids at lam = 0 with axes
# through 0 hold -0 and 0 in the same columns (and -0 as z and theta in the
# last of them), and the 7 x 3 x 77 grid cuts its (t, z) runs at the block
# boundaries. The last grid has 1,300 rows, more than one block.
CONFIGS = [
    ("I", 1.0, 1.0, 0.0, 1.0, 1, 1, ((0.0, 0.0, 1), (0.0, 0.0, 1), (0.0, 6.2832, 64))),
    ("II", -0.7, 1.9, 0.8, -1.3, -1, 1, ((-0.5, 1.5, 3), (-1.0, 1.0, 4), (0.2, 4.1, 5))),
    ("II", 1.3, -2.4, -1.1, 0.6, 1, -1, ((0.3, 2.0, 1), (0.1, 0.9, 7), (-1.0, 1.0, 1))),
    ("I", -1.6, 0.55, 1.4, -0.8, 1, 1, ((0.0, 3.0, 2), (-1.0, 2.0, 1), (0.0, 5.0, 33))),
    ("I", 1.0, -1.0, 0.0, 1.0, 1, 1, ((-1.0, 1.0, 3), (-1.0, 1.0, 3), (-1.0, 1.0, 5))),
    ("II", -0.8, -1.7, 0.0, 1.2, 1, -1, ((-1.0, 1.0, 5), (-1.0, 1.0, 5), (-1.0, 1.0, 3))),
    ("II", 1.1, 0.9, 0.0, -0.7, -1, 1, ((-1.0, 1.0, 3), (-1.0, 1.0, 5), (-0.0, 0.0, 1))),
    ("I", 0.6, -1.3, 0.9, 1.1, 1, 1, ((0.0, 2.0, 7), (-1.0, 1.0, 3), (-2.0, 3.0, 77))),
    ("II", 0.9, 2.7, -0.3, 1.7, -1, -1, ((-1.0, 1.0, 4), (-1.0, 1.0, 5), (0.0, 8.0, 65))),
]


def _num(x):
    return "%.17g" % x


def _params(family, alpha4, k, lam, g, eta, xi):
    if family == "I":
        return build_family_i(k, alpha4, lam, g)
    return build_family_ii(k, alpha4, lam, g, eta, xi)


def _argv(command, family, alpha4, k, lam, g, eta, xi):
    return [command, "--family", family, "--alpha4", _num(alpha4), "--k", _num(k),
            "--lambda", _num(lam), "--g", _num(g), "--eta", str(eta), "--xi", str(xi)]


def _axis(lo, hi, n):
    # the per-point code's axis: lo + i * step
    if n == 1:
        return [float(lo)]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _fields_reference(p, grid):
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(FIELDS_HEADER)
    t_axis, y_axis, z_axis = (_axis(*r) for r in grid)
    for t in t_axis:
        for y in y_axis:
            for z in z_axis:
                s = SpacetimePoint(t=t, x=0.0, y=y, z=z)
                ey = electric_field_analytic(p, s).ey.coeffs()
                bx = magnetic_field_analytic(p, s).ex.coeffs()
                writer.writerow([_num(v) for v in (t, y, z, p.phase(s), *ey, *bx)])
    return out.getvalue()


def _profile_reference(p, n):
    # the one-point float route at exactly theta, at frame angle 0 (y = 0)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["theta", "density", "closed_form", "abs_diff"])
    sol = classify(p)
    for i in range(n):
        th = 2.0 * math.pi * i / n
        dens = _density(p, (math.cos(th), math.sin(th), 1.0, 0.0), 0.25)
        cf = energy_closed_form(sol, th)
        writer.writerow([_num(v) for v in (th, dens, cf, abs(dens - cf))])
    return out.getvalue()


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


def _grid_text(grid):
    return ",".join(f"{_num(lo)}:{_num(hi)}:{n}" for lo, hi, n in grid)


@pytest.mark.parametrize("config", CONFIGS)
def test_fields_csv_matches_scalar_reference(config, capsys):
    *physics, grid = config
    out = _run(_argv("fields", *physics) + [f"--grid={_grid_text(grid)}"], capsys)
    assert out == _fields_reference(_params(*physics), grid)


@pytest.mark.parametrize("n", [2, 3, 64, 1025])
@pytest.mark.parametrize("config", CONFIGS)
def test_energy_profile_csv_matches_scalar_reference(config, n, capsys):
    *physics, _ = config
    out = _run(_argv("energy-profile", *physics) + ["--theta-samples", str(n)], capsys)
    assert out == _profile_reference(_params(*physics), n)


# off the light cone, B_x is not -E_y and fields formats B_x on its own:
# raw amplitudes over 7 x 3 x 77 points, more than one block
RAW = AnsatzParams(alpha1=0.3, alpha2=-0.2, alpha3=0.1, alpha4=0.5, alpha5=-0.4, lam=0.8,
                   k=1.0, omega=0.5, g=1.3)
RAW_ARGV = ["fields", "--alpha1", "0.3", "--alpha2", "-0.2", "--alpha3", "0.1", "--alpha4", "0.5",
            "--alpha5", "-0.4", "--lambda", "0.8", "--k", "1", "--omega", "0.5", "--g", "1.3"]


def test_off_cone_fields_csv_matches_scalar_reference(capsys):
    grid = CONFIGS[-2][-1]
    out = _run([*RAW_ARGV, f"--grid={_grid_text(grid)}"], capsys)
    # as lines, which a failure reports at the first that differs
    assert out.splitlines() == _fields_reference(RAW, grid).splitlines()


# configurations for the factored blocks of the grid core: a count of 1 on
# each axis in turn; lam = 0, where the frame sine is 0 and sigma_x's zero
# takes its sign from -0.0 v and 0.0 w; and a z axis longer than a block
# with ny > 1, so that blocks wrap z, and y and t with it
FACTORED_CONFIGS = [
    ("II", -0.7, 1.9, 0.8, -1.3, -1, 1, ((0.5, 0.5, 1), (-1.0, 1.0, 6), (0.2, 4.1, 9))),
    ("I", 1.3, -2.4, -1.1, 0.6, 1, 1, ((-0.5, 1.5, 4), (0.3, 0.3, 1), (0.2, 4.1, 9))),
    ("II", 0.9, 2.7, -0.3, 1.7, 1, -1, ((-0.5, 1.5, 4), (-1.0, 1.0, 6), (0.7, 0.7, 1))),
    ("I", 0.6, -1.3, 0.0, 1.1, 1, 1, ((-1.0, 1.0, 3), (-1.0, 1.0, 4), (-1.0, 1.0, 5))),
    ("II", 1.1, 0.9, 0.4, -0.7, -1, 1, ((0.0, 1.0, 2), (-1.0, 1.0, 2), (0.0, 9.0, 1100))),
]


@functools.cache
def _factored_reference(config):
    *physics, grid = config
    return _fields_reference(_params(*physics), grid)


@pytest.mark.parametrize("block", [4, 7, None])
@pytest.mark.parametrize("config", FACTORED_CONFIGS)
def test_factored_blocks_match_scalar_reference(config, block, monkeypatch, capsys):
    if block:
        monkeypatch.setattr(ymwaves.fields, "_GRID_BLOCK", block)
    *physics, grid = config
    out = _run(_argv("fields", *physics) + [f"--grid={_grid_text(grid)}"], capsys)
    assert out.splitlines() == _factored_reference(config).splitlines()


@pytest.mark.parametrize("block", [4, 7, None])
def test_blocks_take_each_phase_per_pair_and_frame_angle_per_y(block, monkeypatch):
    # a block's runs of t, y and z indices, consecutive modulo their counts,
    # cost at most 3 phases a row and 1 frame angle a row, also where a
    # block wraps an axis: the min..max span of the z indices of a block
    # that wraps z would take every z of the axis
    if block:
        monkeypatch.setattr(ymwaves.fields, "_GRID_BLOCK", block)
    sizes, real_trig = [], ymwaves.fields._cos_sin
    monkeypatch.setattr(ymwaves.fields, "_cos_sin",
                        lambda angle: sizes.append(angle.size) or real_trig(angle))
    p = build_family_ii(1.7, -0.8, 0.6, 1.3, -1, 1)
    for grid in [*ANALYTIC_GRIDS[:6], ((0.0, 1.0, 2), (-1.0, 1.0, 3), (0.0, 6.0, 5000))]:
        full = _Grid.from_ranges(*grid)
        counts = full.t.count, full.y.count, full.z.count
        blocks = full.blocks(p)
        while True:
            sizes.clear()
            block = next(blocks, None)
            if block is None:
                break
            (t, y, z), (at_t, _, at_z, at_pair), _ = block
            phases, frames = sizes
            rows = len(at_pair)
            assert phases == len(t) * len(z) <= 3 * rows and frames == len(y) <= rows
            for run, count in zip((t, y, z), counts):
                assert (np.diff(run) % count == 1).all() and len(set(run.tolist())) == len(run)
            assert (at_pair == at_t * len(z) + at_z).all()


class _RecordingNumpy:
    """numpy, recording the magnitudes, as bits, that each np.unique call is
    given and how many distinct ones it returns."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return getattr(np, name)

    def unique(self, bits, **kwargs):
        out = np.unique(bits, **kwargs)
        self.calls.append((bits, len(out[0])))
        return out


@pytest.mark.parametrize("argv, b_adds", [
    (_argv("fields", *CONFIGS[-1][:-1]), False),  # a null wave: |B_x| is |E_y| to the bit
    (RAW_ARGV, True),  # off the light cone
])
def test_fields_formats_each_distinct_magnitude_once(argv, b_adds, monkeypatch, capsys):
    recording = _RecordingNumpy()
    monkeypatch.setattr(ymwaves.csvtext, "np", recording)
    _run([*argv, f"--grid={_grid_text(CONFIGS[-1][-1])}"], capsys)
    # a block's distinct t, y and z values, its (t, z) pairs and its rows on
    # the 4 x 5 x 65 grid: it sorts the t, y and z runs, theta and the two
    # sigma_z columns per pair, and E_y's and B_x's sigma_x and sigma_y per row
    sizes = [(4, 5, 65, 4 * 65, 1024), (1, 5, 65, 65, 4 * 5 * 65 - 1024)]
    assert [bits.shape for bits, _ in recording.calls] == [
        (nt + ny + nz + 3 * pairs + 4 * n,) for nt, ny, nz, pairs, n in sizes]
    for (bits, formatted), (nt, ny, nz, pairs, n) in zip(recording.calls, sizes):
        # a block formats its distinct magnitudes, not its values
        assert formatted == len(set(bits.tolist())) < bits.size
        # B_x's sigma_x and sigma_y columns add values of their own off the cone only
        b = nt + ny + nz + 2 * pairs + 2 * n  # where B_x's sigma_x starts
        without_b = len(set(np.delete(bits, np.s_[b:b + 2 * n]).tolist()))
        assert (formatted > without_b) == b_adds


def test_output_does_not_depend_on_block_size(monkeypatch, capsys):
    *physics, grid = CONFIGS[-1]
    argvs = [_argv("fields", *physics) + [f"--grid={_grid_text(grid)}"],
             _argv("energy-profile", *physics) + ["--theta-samples", "1030"]]
    whole = [_run(argv, capsys) for argv in argvs]
    monkeypatch.setattr(ymwaves.fields, "_GRID_BLOCK", 4)
    assert [_run(argv, capsys) for argv in argvs] == whole
    # the patched block size reaches the profile, which reads it at each call
    sol = classify(_params(*physics))
    sizes = [len(block[0]) for block in _profile_blocks(sol.params(), sol, 1030)]
    assert sizes == [4] * 257 + [2]


def test_fields_builds_no_point_per_row(monkeypatch, capsys):
    built = []
    original = SpacetimePoint.__post_init__

    def counting(self):
        built.append(self)
        original(self)
    monkeypatch.setattr(SpacetimePoint, "__post_init__", counting)
    *physics, grid = CONFIGS[-1]
    out = _run(_argv("fields", *physics) + [f"--grid={_grid_text(grid)}"], capsys)
    assert out.count("\r\n") == 1 + 4 * 5 * 65
    assert built == []


# (t, y, z) grids for the analytic maximum: a small one; ny nz > _GRID_BLOCK;
# ny > _GRID_BLOCK; single-count axes; -0 axes and axes through 0; and
# verify's default grid and its 16^3 grid
ANALYTIC_GRIDS = [
    ((0.0, 6.2832, 5), (-1.0, 1.0, 3), (0.0, 6.2832, 7)),
    ((0.0, 1.0, 2), (-1.0, 1.0, 40), (0.0, 6.2832, 30)),
    ((0.3, 1.0, 2), (-1.0, 1.0, 1500), (0.0, 6.2832, 2)),
    ((0.7, 0.7, 1), (-0.4, -0.4, 1), (0.0, 6.2832, 9)),
    ((-0.0, 0.0, 1), (-1.0, 1.0, 3), (-0.0, 1.0, 1)),
    ((-1.0, 1.0, 3), (-0.0, 0.0, 1), (-1.0, 1.0, 5)),
    tuple(_parse_grid(DEFAULT_GRID)),
    tuple(_parse_grid(FINE_GRID)),
]


def test_analytic_max_equals_residual_samples(rng):
    family = build_family_ii(1.7, -0.8, 0.6, 1.3, -1, 1)
    for grid in ANALYTIC_GRIDS:
        on_grid = grid_points(*grid)
        for p in [family] + [random_params(rng) for _ in range(3)]:
            pts = [random_point(rng) for _ in range(40)] + on_grid
            want = max(residual_sample(p, s).norm for s in pts)
            assert max_residual_norm(p, pts) == want
            want = max(residual_sample(p, s).norm for s in on_grid)
            cv, full = nine_constraints(p), _Grid.from_ranges(*grid)
            assert _max_analytic_norm(cv, full.angle_blocks(p)) == want
            # the flat route: every point's own phase, block by block
            flat = ((r.cos_th[at[3]], r.sin_th[at[3]]) for _, at, r in full.blocks(p))
            assert _max_analytic_norm(cv, flat) == want


def test_max_residual_norm_takes_only_the_phases_trigonometry(monkeypatch):
    # every _cos_sin of one call, looked up in fields or in residuals: one,
    # over the points' phases; the norm reads no frame angle
    p = build_family_ii(1.7, -0.8, 0.6, 1.3, -1, 1)
    pts = grid_points((0.0, 2.0, 3), (-1.0, 1.0, 4), (0.5, 3.0, 5))
    want = max(residual_sample(p, s).norm for s in pts)
    calls, real = [], ymwaves.fields._cos_sin

    def counted(angle):
        calls.append(np.array(angle))
        return real(angle)

    for module in (ymwaves.fields, ymwaves.residuals):
        monkeypatch.setattr(module, "_cos_sin", counted, raising=False)
    assert max_residual_norm(p, pts) == want
    assert len(calls) == 1
    assert calls[0].tolist() == [p.phase(s) for s in pts]


def _profile_bits(p, sol, n_samples):
    """The thetas and densities of _profile_blocks, each as one array's bytes."""
    thetas, densities, _ = zip(*_profile_blocks(p, sol, n_samples))
    return np.concatenate(thetas).tobytes(), np.concatenate(densities).tobytes()


@pytest.mark.parametrize("block", [1, 4, 7, 64])
def test_analytic_chunks_hold_at_most_a_block(block, monkeypatch):
    p = build_family_ii(1.7, -0.8, 0.6, 1.3, -1, 1)
    sol = classify(p)
    profile = _profile_bits(p, sol, 1030)  # at the default block size, two blocks
    monkeypatch.setattr(ymwaves.fields, "_GRID_BLOCK", block)
    for grid in ANALYTIC_GRIDS[:6]:
        full = _Grid.from_ranges(*grid)
        sizes = [len(cos_th) for cos_th, _ in full.angle_blocks(p)]
        assert max(sizes) <= block
        assert sum(sizes) == full.t.count * full.z.count  # every (t, z) phase once
        want = max(residual_sample(p, s).norm for s in grid_points(*grid))
        assert _max_analytic_norm(nine_constraints(p), full.angle_blocks(p)) == want
        # every row once, in order, in blocks of at most the block size
        ny, nz = full.y.count, full.z.count
        rows = [(t[at_t] * ny + y[at_y]) * nz + z[at_z]
                for (t, y, z), (at_t, at_y, at_z, _), _ in full.blocks(p)]
        assert max(map(len, rows)) <= block
        assert np.concatenate(rows).tolist() == list(range(len(full)))
    # the profile's samples are cut by the same rule, and no bit depends on it
    assert _profile_bits(p, sol, 1030) == profile


def test_verify_takes_trig_on_distinct_phases_only(monkeypatch, capsys):
    # only verify's analytic residual is counted, not its numeric or
    # Bianchi stencils: phases are taken over (t, z) pairs, each once, and
    # no frame angle, which the analytic norm does not read
    inside, sizes = [], []
    real_trig, real_max = ymwaves.fields._cos_sin, ymwaves.cli._max_analytic_norm

    def trig(angle):
        if inside:
            sizes.append(angle.size)
        return real_trig(angle)

    def analytic(cv, chunks):
        inside.append(True)
        try:
            return real_max(cv, chunks)
        finally:
            inside.clear()
    monkeypatch.setattr(ymwaves.fields, "_cos_sin", trig)
    monkeypatch.setattr(ymwaves.cli, "_max_analytic_norm", analytic)
    for grid in (DEFAULT_GRID, FINE_GRID, "0:1:3,-1:1:1,0:6:400"):
        (_, _, nt), (_, _, ny), (_, _, nz) = _parse_grid(grid)
        sizes.clear()
        assert main(["verify", "--family", "II", "--k", "1.3", "--alpha4", "0.8",
                     "--lambda", "0.4", "--g", "1.2", "--xi", "-1", "--grid", grid]) == 0
        assert sum(sizes) == nt * nz  # one call per block, on its phases alone
        assert max(sizes) <= ymwaves.fields._GRID_BLOCK
    capsys.readouterr()


@pytest.mark.parametrize("config", [
    ["--alpha1", "0.7", "--alpha2", "-1.1", "--alpha3", "0.3", "--alpha4", "0.9", "--alpha5",
     "-0.4", "--k", "1.3", "--omega", "0.8", "--lambda", "0.9", "--g", "1.7"],
    ["--alpha1", "-2.3", "--alpha2", "0.6", "--alpha4", "1.9", "--alpha5", "1.2", "--k", "-0.7",
     "--omega", "2.1", "--lambda", "-1.4", "--g", "-0.8"],
    ["--family", "II", "--k", "1.3", "--alpha4", "0.8", "--lambda", "0.4", "--g", "1.2",
     "--xi", "-1"],
])
def test_analytic_line_does_not_depend_on_the_y_axis(config, capsys):
    # the analytic residual depends on a point only through its phase: grids
    # that differ in their y axis alone, one y, ten, and more y's than a
    # block, give the same value to the last bit
    lines = set()
    for y in ("0.4:0.4:1", "-1:1:10", "-3:5:1500"):
        main(["verify", *config, "--grid", f"0:6.2832:7,{y},-1:4:13"])
        analytic, = (line for line in capsys.readouterr().out.splitlines()
                     if line.startswith("max analytic residual"))
        lines.add(re.sub(r" over \d+ grid points", "", analytic))
    assert len(lines) == 1


def test_analytic_max_that_overflows_keeps_its_error(capsys):
    # c1..c9 are finite, the squares of the residual are not
    p = AnsatzParams(alpha1=1e100, lam=1e100, k=1.0, omega=1.0)
    for grid in (ANALYTIC_GRIDS[0], ANALYTIC_GRIDS[2]):
        with pytest.raises(OverflowError, match="^the analytic residual is not finite$"):
            _max_analytic_norm(nine_constraints(p), _Grid.from_ranges(*grid).angle_blocks(p))
    code = main(["verify", "--alpha1", "1e100", "--lambda", "1e100", "--grid", DEFAULT_GRID])
    assert code == 2
    assert capsys.readouterr() == ("", "error: an input is too large: the analytic residual "
                                       "is not finite\n")


@pytest.mark.parametrize("count", [2.5, 0.5, -1.5, math.inf, math.nan])
def test_grid_points_rejects_a_count_that_is_not_whole(count):
    # int() would take 2.5 as 2 and return two points
    with pytest.raises(ValueError, match=re.escape(
            f"grid axis t: count must be a whole number >= 1, got {count}")):
        grid_points((0, 1, count), (0, 1, 1), (0, 1, 1))
    assert len(grid_points((0, 1, 2.0), (0, 1, 1), (0, 1, 1))) == 2  # a whole float is a count


# the CLI in a fresh process that prints its exit code and peak RSS in kB;
# its children run with -B, which leaves no bytecode in the checkout
PEAK = ("import resource, sys, ymwaves.cli; code = ymwaves.cli.main(sys.argv[1:]); "
        "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")


def test_a_long_axis_is_not_held_whole():
    # the grid core makes every block's values from their indices, so a
    # single axis ten times as long takes no more memory; the four runs are
    # independent processes and run side by side
    env = {"PYTHONPATH": str(Path(ymwaves.cli.__file__).parents[1]), "PATH": ""}
    commands = [["fields", "--family", "I", "--alpha4", "1", "--grid", "0:1:1,0:1:1,0:1:{n}"],
                ["energy-profile", "--family", "I", "--alpha4", "1", "--theta-samples", "{n}"]]
    procs = {(i, n): subprocess.Popen(
        [sys.executable, "-B", "-c", PEAK, *(a.format(n=n) for a in argv), "--out", os.devnull],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
        for i, argv in enumerate(commands) for n in (200_000, 2_000_000)}
    peaks = {}
    for key, proc in procs.items():
        out, err = proc.communicate()
        code, kb = out.split()
        assert (code, err) == ("0", "")
        peaks[key] = int(kb) / 1024
    for i in range(len(commands)):
        assert peaks[i, 2_000_000] - peaks[i, 200_000] < 3.0, peaks
