"""verify and classify across regimes, in process: every catalogued wave
verifies and classify names its family and signs, and a detuned copy
neither verifies nor solves.

The grid runs k and alpha4 over 1e-3, 1 and 1e3, lambda and g over 1e-3
and 1e3, and c over 1e-4, 1 and 1e4, each family at its own couplings and
under the dilation (alpha, lambda, k, omega) -> s (alpha, lambda, k,
omega) at s = 1e-6 and 1e6, which moves every residual and every bound by
s^3: 1,944 verify calls in all, each on the raw flags of the wave at wave
speed c, which the CLI converts to the library's units. A truncation
budget with a frequency floor fails fast waves (c = 1e4) on the numeric
and Bianchi lines and passes anything at c = 1e-6; their complex steps
need none. The library's public numeric routes take the same complex
steps, so on the same waves, on grids whose time c t is as fast or as
slow, they read rounding alone, within verify's bounds.

The library's omega is omega / c, so c leaves its configurations alone:
classify runs on the grid without c, on each configuration's dilated
copies and on its g-rescaled copies (alpha, g) -> (alpha / s, g s), which
divide every constraint and bound by s, at s = 1e-6 and 1e6: 1,080 calls
with the detuned copies. The CLI's classify names each undilated wave,
and rejects its detuned copy, at each c: 648 calls.
"""

import contextlib
import io
import itertools
from dataclasses import replace

import numpy as np
import pytest

from ymwaves.cli import _ROUNDING, _parse_grid, main
from ymwaves.constraints import (
    FamilySolution,
    NotASolution,
    classify,
    constraint_scales,
    nine_constraints,
    oracle_constraints,
)
from ymwaves.fields import _derivative_bounds, field_strength, field_strength_norm
from ymwaves.residuals import grid_points, residual_sample

DECADES = (1e-3, 1.0, 1e3)
ENDS = (1e-3, 1e3)
SPEEDS = (1e-4, 1.0, 1e4)
AMPLITUDES = ("alpha1", "alpha2", "alpha3", "alpha4", "alpha5")
DILATED = (*AMPLITUDES, "lam", "k", "omega")
NAMES = ("alpha1", "alpha2", "alpha3", "alpha4", "alpha5", "lam", "k", "g")
GRID = "0:6.2832:3,-1:1:3,0:6.2832:3"
FLAGS = ("--alpha1", "--alpha2", "--alpha3", "--alpha4", "--alpha5", "--lambda", "--k", "--g")


def _run(command, p, c, *extra) -> str:
    """The output of a command on the raw flags of p at wave speed c:
    --omega is c times p's omega, which the CLI divides by c again."""
    argv = [command, *extra, "--omega", repr(p.omega * c), "--c", repr(c)]
    argv += [f for flag, name in zip(FLAGS, NAMES) for f in (flag, repr(getattr(p, name)))]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return out.getvalue()


def _wave(family, k, lam, g, alpha4):
    """The family's wave in the library's units, Family III at omega = 0.7 k."""
    omega = 0.7 * k if family == "III" else k
    return FamilySolution(family, k, omega, alpha4, lam, g, 1, -1).params()


@pytest.mark.parametrize("family", ["I", "II", "III"])
def test_every_regime_verifies_and_a_detuned_copy_does_not(family):
    wrong = []
    for k, lam, g, alpha4, c in itertools.product(DECADES, ENDS, ENDS, DECADES, SPEEDS):
        p = _wave(family, k, lam, g, alpha4)
        for s in (1.0, 1e-6, 1e6):
            q = replace(p, **{name: s * getattr(p, name) for name in DILATED})
            detuned = replace(q, alpha5=q.alpha5 + 1e-3 * q.alpha4)
            verdicts = [_run("verify", v, c, "--grid", GRID).splitlines()[-1]
                        for v in (q, detuned)]
            if verdicts != ["VERIFIED", "NOT VERIFIED"]:
                wrong.append((k, lam, g, alpha4, c, s))
    assert wrong == []


@pytest.mark.parametrize("family, signs", [("I", (None, None)), ("II", (1, -1)),
                                           ("III", (1, None))])
def test_classify_names_every_regime_and_rejects_a_detuned_copy(family, signs):
    wrong = []
    label = f"family {family}" + "".join(f" {n}={v:+d}" for n, v in zip(("eta", "xi"), signs)
                                         if v is not None)
    for k, lam, g, alpha4 in itertools.product(DECADES, ENDS, ENDS, DECADES):
        p = _wave(family, k, lam, g, alpha4)
        off = replace(p, alpha5=p.alpha5 + 1e-3 * p.alpha4)
        for c in SPEEDS:
            if (not _run("classify", p, c).startswith(label + " (")
                    or not _run("classify", off, c).startswith("not a solution")):
                wrong.append((p, c))
        copies = [p]
        for s in (1e-6, 1e6):
            copies.append(replace(p, **{name: s * getattr(p, name) for name in DILATED}))
            copies.append(replace(p, g=p.g * s,
                                  **{name: getattr(p, name) / s for name in AMPLITUDES}))
        for q in copies:
            out = classify(q)
            detuned = classify(replace(q, alpha5=q.alpha5 + 1e-3 * q.alpha4))
            if (not isinstance(out, FamilySolution) or (out.family, out.eta, out.xi)
                    != (family, *signs) or not isinstance(detuned, NotASolution)):
                wrong.append((q, out, detuned))
    assert wrong == []


@pytest.mark.parametrize("family", ["I", "II", "III"])
def test_public_numeric_routes_truncate_nothing(family):
    # on every third point of verify's grid, verify's rounding without tol:
    # the numeric residual against the bound of verify's numeric line,
    # Family III's F against that of its F line, and the oracle against
    # nine_constraints; c = 1e-6 slows the wave further. The time of
    # verify's grid at wave speed c is c t in the library
    (t0, t1, nt), *rest = _parse_grid(GRID)
    wrong = []
    for k, lam, g, alpha4 in itertools.product(DECADES, ENDS, ENDS, DECADES):
        p = _wave(family, k, lam, g, alpha4)
        field_bound, potential_bound = _derivative_bounds(p)
        for c in SPEEDS + (1e-6,):
            for s in grid_points((c * t0, c * t1, nt), *rest)[::3]:
                if not residual_sample(p, s, "numeric").norm <= field_bound * _ROUNDING:
                    wrong.append(("numeric", k, lam, g, alpha4, c, s))
                if family == "III" and not (field_strength_norm(field_strength(p, s))
                                            <= potential_bound * _ROUNDING):
                    wrong.append(("F", k, lam, g, alpha4, c, s))
        oracle = np.array(oracle_constraints(p)) - np.array(nine_constraints(p))
        if not np.abs(oracle).max() <= 1e-12 * max(constraint_scales(p)):
            wrong.append(("oracle", k, lam, g, alpha4))
    assert wrong == []
