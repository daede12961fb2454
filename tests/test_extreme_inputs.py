"""Every command at extreme couplings and amplitudes, in process, with
every warning an error.

A seeded draw gives each call a command, a family or raw amplitudes, and
some of its flags at values from the subnormal 1e-320 to 1e308, signed
zeros included: products of such values overflow or underflow in the
constraints, the fields, the residuals and their bounds. Whatever the
input, a call ends in a verdict or a usage error: exit 0, 1 or 2, no
exception, no numpy warning, and one "error:" line on stderr for exit 2,
none otherwise (scan writes its tally there too).
"""

import random
import warnings

import pytest

from ymwaves.cli import main

VALUES = ("1e-320", "-1e-320", "1e-160", "-1e-160", "1e103", "-1e103", "1e154", "-1e154",
          "1e308", "-1e308", "-0", "0", "1", "-1")
COUPLINGS = ("--k", "--omega", "--lambda", "--g", "--c")
AMPLITUDES = tuple(f"--alpha{i}" for i in range(1, 6))
# small grids and counts, so that a call costs milliseconds
EXTRA = {
    "verify": ["--grid", "0:6.2832:2,-1:1:2,0:6.2832:3"],
    "classify": [],
    "scan": ["--seeds", "3"],
    "fields": ["--grid", "0:1:2,-1:1:2,0:6.2832:3"],
    "energy-profile": ["--theta-samples", "5"],
}
CALLS = 500

# finite field coefficients whose wave const + cos_c cos theta overflows,
# on E_y and on B_x; and a t axis whose step overflows as given, though
# its c t axis, which the fields read, is finite
FIELD_OVERFLOWS = [
    *(["fields", *amplitudes, "--alpha4", "1", "--lambda", "0.5", "--grid=0:0:1,0:1:2,0:1:3"]
      for amplitudes in (["--alpha1", "1", "--alpha3", "-0.8e308", "--alpha5", "-0.8e308"],
                         ["--alpha2", "1", "--alpha3", "0.8e308", "--alpha5", "0.8e308"])),
    ["fields", "--c", "0.1", "--alpha4", "1", "--grid=-1e308:1e308:3,0:0:1,0:0:1"],
]
# a sum and a term coefficient that overflow, a wave number whose square
# underflows to a zero profile, and the overflowing fields
KNOWN = [
    ["verify", "--family", "I", "--alpha4", "1e103", "--lambda", "1e308"],
    ["scan", "--g", "1e154", "--seeds", "3"],
    ["energy-profile", "--family", "I", "--alpha4", "1", "--k", "1e-308"],
    *FIELD_OVERFLOWS,
]


def _draw(rng: random.Random) -> list:
    command = rng.choice(sorted(EXTRA))
    profile = command == "energy-profile"  # a Family I or II wave: k, lambda and g
    family = None if command == "scan" else rng.choice(["I", "II"] if profile
                                                        else ["I", "II", "III", None])
    argv = [command]
    if family is not None:
        argv += ["--family", family, "--alpha4", rng.choice(VALUES)]
        if family != "I":
            argv += ["--eta", rng.choice(["1", "-1"]), "--xi", rng.choice(["1", "-1"])]
    elif command != "scan":
        argv += [f for flag in AMPLITUDES if rng.random() < 0.6
                 for f in (flag, rng.choice(VALUES))]
    couplings = ("--k", "--lambda", "--g") if profile else COUPLINGS
    if family in ("I", "II"):  # on the light cone, omega is k c
        couplings = tuple(flag for flag in couplings if flag != "--omega")
    argv += [f for flag in couplings if rng.random() < 0.5 for f in (flag, rng.choice(VALUES))]
    return argv + EXTRA[command]


def _argvs():
    rng = random.Random(0)
    return KNOWN + [_draw(rng) for _ in range(CALLS)]


def test_extreme_inputs_end_in_a_verdict_or_one_error_line(capsys):
    argvs = _argvs()
    assert {argv[0] for argv in argvs} == set(EXTRA)
    assert set(VALUES) <= {v for argv in argvs for flag, v in zip(argv, argv[1:])
                           if flag in COUPLINGS + AMPLITUDES}
    failures = []
    for argv in argvs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except Exception as exc:  # a warning raised as an error lands here too
                code = f"{type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        errors = sum(line.startswith("error: ") for line in err.splitlines())
        if code not in (0, 1, 2) or errors != (code == 2) or "Warning" in err:
            failures.append((" ".join(argv), code, err))
    assert failures == []


@pytest.mark.parametrize("argv", FIELD_OVERFLOWS, ids=" ".join)
def test_fields_that_overflow_are_refused(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out, len(err.splitlines())) == (2, "", 1)
    assert err.startswith("error: ")


# a wave number at which the constraints overflow at some starts of the
# seed box and not at others: the first 600 seeds all stay finite, the
# 3,000 reach one that does not in their third block
@pytest.mark.parametrize("seeds", ["3000", "600"])
def test_scan_refuses_a_seed_box_that_may_overflow_before_writing(seeds, tmp_path, capsys):
    out = tmp_path / "f.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["scan", "--seeds", seeds, "--k", "7.742292e153", "--omega", "0",
                     "--out", str(out)])
    stdout, err = capsys.readouterr()
    assert (code, stdout, len(err.splitlines()), out.exists()) == (2, "", 1, False)
    assert err.startswith("error: ")
