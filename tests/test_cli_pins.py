"""The CLI's output pinned byte for byte.

cli_pins.json holds, for each call in CALLS, its exit code and the
sha256 of its stdout and of its stderr. The calls cover all five
commands, verdicts that pass and fail, usage errors, argparse's own
exits (its errors and its help, at 80 columns), and the wave speed at
c = 1, 2 and 0.5. A change that claims to keep every output byte is
held to them. Re-record only on a deliberate change of those outputs,
listing the calls that moved, by running this module:

    PYTHONPATH=src python tests/test_cli_pins.py
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path
from unittest import mock

import pytest

from ymwaves.cli import main

PINS = Path(__file__).with_name("cli_pins.json")

_GRID = "--grid=0:1.5:3,-1:1:3,0:6.2832:5"  # a t axis of its own, so c moves its phases
_SCAN = ["scan", "--seeds", "24"]
_FIELDS_GRID = "--grid=-0.5:2:4,-1:1:3,0:6.2832:7"
_LONG_FIELDS_GRID = "--grid=0:1.5:3,-1:1:20,0:6.2832:20"  # 1,200 rows, two blocks


def _at_speeds(calls, speeds=("2", "0.5")):
    """The calls as given, then each at the other wave speeds."""
    return calls + [[*argv, "--c", c] for c in speeds for argv in calls]


CALLS = [
    # verify: the three families, a plane, a static and a non-solution
    *_at_speeds([
        # a tolerance under the rounding, so that verify's allowances show it
        ["verify", "--family", "I", "--alpha4", "1.3", "--k", "0.7", "--tol", "1e-20", _GRID],
        ["verify", "--family", "II", "--alpha4", "-0.8", "--k", "1.7", "--lambda", "0.6",
         "--g", "1.3", "--eta", "-1", _GRID],
        ["verify", "--family", "III", "--alpha4", "0.9", "--k", "1.1", "--omega", "2.3",
         "--xi", "-1", _GRID],
        ["verify", "--alpha1", "0.7", "--alpha2", "-1.1", "--alpha3", "0.4", "--alpha4", "0.3",
         "--alpha5", "-0.6", "--k", "1.2", "--omega", "0.9", "--lambda", "0.2", _GRID],
    ]),
    ["verify", "--family", "I", "--alpha4", "1"],
    ["verify", "--k", "0", "--omega", "0", "--alpha1", "1", "--alpha2", "0.5"],
    ["verify", "--alpha3", "0.3", "--alpha5", "0.7", "--k", "1", "--grid=0:1:2,0:1:2,0:1:2"],
    ["verify", "--family", "III", "--alpha4", "0", "--k", "1", "--omega", "2"],
    # classify: every kind of answer
    *_at_speeds([
        ["classify", "--family", "II", "--k", "2", "--alpha4", "1.5", "--xi", "-1"],
        ["classify", "--family", "III", "--k", "1.1", "--omega", "2.3", "--alpha4", "0.9"],
        ["classify", "--alpha1", "0.7", "--alpha2", "-1.1", "--alpha3", "0.4", "--k", "1.2"],
    ]),
    ["classify", "--family", "I", "--alpha4", "-2.5", "--lambda", "0.3", "--g", "0.7"],
    ["classify", "--alpha3", "0.3", "--alpha5", "0.7", "--k", "1"],
    ["classify", "--alpha3", "0.3", "--alpha5", "1e-12", "--k", "1"],
    ["classify", "--k", "0", "--omega", "0", "--alpha1", "1", "--alpha2", "0.5"],
    ["classify", "--alpha4", "1", "--g", "0"],
    # scan: the bench's four regimes, and one that finds unlabelled roots
    *_at_speeds([
        [*_SCAN, "--seed", "3"],
        [*_SCAN, "--seed", "5", "--omega", "2"],
    ]),
    [*_SCAN, "--seed", "11", "--lambda", "-0.7", "--k", "1.3", "--g", "1.6"],
    [*_SCAN, "--seed", "2", "--k", "0.8", "--omega", "0.4"],
    # fields: the default grid, a product grid, and t at other speeds
    ["fields", "--family", "I", "--alpha4", "1"],
    *_at_speeds([
        ["fields", "--family", "II", "--alpha4", "0.6", "--k", "1.4", "--lambda", "0.5",
         "--eta", "-1", _FIELDS_GRID],
        ["fields", "--family", "III", "--alpha4", "1.2", "--k", "0.9", "--omega", "1.7",
         _FIELDS_GRID],
        ["fields", "--alpha1", "0.3", "--alpha2", "-0.2", "--alpha3", "0.1", "--alpha4", "0.5",
         "--alpha5", "-0.4", "--k", "1", "--omega", "0.5", "--lambda", "0.8", _FIELDS_GRID],
    ]),
    # fields past one block of rows (fields._GRID_BLOCK): a null wave and an off-cone one
    *(["fields", *flags, _LONG_FIELDS_GRID] for flags in (
        ["--family", "II", "--alpha4", "0.6", "--k", "1.4", "--lambda", "0.5", "--eta", "-1"],
        ["--alpha1", "0.3", "--alpha2", "-0.2", "--alpha3", "0.1", "--alpha4", "0.5",
         "--alpha5", "-0.4", "--k", "1", "--omega", "0.5", "--lambda", "0.8"])),
    # an off-cone wave at lambda = 0, past one block
    ["fields", "--alpha1", "0.3", "--alpha2", "-0.2", "--alpha3", "0.1", "--alpha4", "0.5",
     "--alpha5", "-0.4", "--k", "1", "--omega", "0.5", _LONG_FIELDS_GRID],
    # energy-profile: the two families it draws
    ["energy-profile", "--family", "I", "--alpha4", "1.3", "--k", "0.7", "--theta-samples", "33"],
    ["energy-profile", "--family", "II", "--alpha4", "-0.8", "--k", "1.7", "--lambda", "0.6",
     "--g", "1.3", "--xi", "-1", "--theta-samples", "17"],
    ["energy-profile", "--family", "II", "--alpha4", "1"],
    # past one block of phases
    ["energy-profile", "--family", "I", "--alpha4", "1.3", "--k", "0.7", "--theta-samples", "1030"],
    ["energy-profile", "--family", "II", "--alpha4", "-0.8", "--k", "1.7", "--lambda", "0.6",
     "--g", "1.3", "--xi", "-1", "--theta-samples", "1030"],
    # usage errors, each with its one error line
    ["verify", "--family", "I", "--alpha4", "1", "--grid=0:1:2,0:0:1,0:1:0"],
    ["fields", "--family", "I", "--alpha4", "1", "--grid=0:1:2,0:0:1"],
    ["fields", "--family", "I", "--alpha4", "1", "--c", "1e300", "--grid=0:1e10:2,0:0:1,0:1:2"],
    ["classify", "--family", "I", "--alpha4", "1", "--c", "2", "--omega", "3"],
    ["classify", "--eta", "-1", "--alpha4", "1"],
    ["scan", "--k", "1e200"],
    ["energy-profile", "--family", "III", "--alpha4", "1"],
    ["verify", "--family", "I", "--alpha4", "1", "--tol", "0"],
    # argparse's own exits: strings no parser takes, after "--" too, a
    # command's help, no command or an unknown one, an abbreviation, a
    # command's flag before it, a flag without its value, and a flag the
    # command does not have
    ["verify", "--k", "1", "--bogus", "2"],
    ["verify", "--k", "1", "stray"],
    ["classify", "--alpha4", "1", "--", "--k", "2"],
    ["scan", "-h"],
    [],
    ["frobnicate"],
    ["verify", "--alph", "1"],
    ["--k", "1", "verify"],
    ["verify", "--k"],
    ["energy-profile", "--family", "I", "--omega", "2"],
]


def _call(argv):
    """A call's exit code, main's return value or the code argparse exits
    with, and the sha256 of its stdout and of its stderr. Help and usage
    are wrapped at 80 columns, whatever the terminal."""
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          mock.patch.dict(os.environ, COLUMNS="80")):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return [code, *(hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err))]


def _key(argv):
    return " ".join(argv)


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


def test_every_call_is_pinned_once(pins):
    assert sorted(pins) == sorted(map(_key, CALLS))
    assert len(set(map(_key, CALLS))) == len(CALLS)


@pytest.mark.parametrize("argv", CALLS, ids=_key)
def test_cli_output_is_pinned_byte_for_byte(argv, pins):
    assert _call(argv) == pins[_key(argv)]


if __name__ == "__main__":
    PINS.write_text(json.dumps({_key(argv): _call(argv) for argv in CALLS}, indent=1) + "\n")
