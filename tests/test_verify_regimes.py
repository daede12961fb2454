"""verify and classify across regimes, in process: every catalogued wave
verifies and classify names its family and signs, and a detuned copy
neither verifies nor solves.

The grid runs k and alpha4 over 1e-3, 1 and 1e3, lambda and g over 1e-3
and 1e3, and c over 1e-4, 1 and 1e4, each family at its own couplings and
under the dilation (alpha, lambda, k, omega) -> s (alpha, lambda, k,
omega) at s = 1e-6 and 1e6, which moves every residual and every bound by
s^3: 1,944 verify calls in all. A truncation budget with a frequency
floor fails fast waves (c = 1e4) on the numeric and Bianchi lines and
passes anything at c = 1e-6; their complex steps need none. The
library's public numeric routes take the same complex steps, so on the
same waves they read rounding alone, within verify's bounds.

classify runs on the same grid, on each configuration's dilated copies
and on its g-rescaled copies (alpha, g) -> (alpha / s, g s), which divide
every constraint and bound by s, at s = 1e-6 and 1e6: 3,240 calls with
the detuned copies.
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
NAMES = ("alpha1", "alpha2", "alpha3", "alpha4", "alpha5", "lam", "k", "omega", "g", "c")
GRID = "0:6.2832:3,-1:1:3,0:6.2832:3"
FLAGS = ("--alpha1", "--alpha2", "--alpha3", "--alpha4", "--alpha5", "--lambda", "--k",
         "--omega", "--g", "--c")


def _verdict(p) -> str:
    """verify's last line on the raw flags of p, on a 27-point grid."""
    argv = ["verify", "--grid", GRID]
    argv += [f for flag, name in zip(FLAGS, NAMES) for f in (flag, repr(getattr(p, name)))]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return out.getvalue().splitlines()[-1]


@pytest.mark.parametrize("family", ["I", "II", "III"])
def test_every_regime_verifies_and_a_detuned_copy_does_not(family):
    wrong = []
    for k, lam, g, alpha4, c in itertools.product(DECADES, ENDS, ENDS, DECADES, SPEEDS):
        omega = 0.7 * k * c if family == "III" else k * c
        p = FamilySolution(family, k, omega, alpha4, lam, g, c, 1, -1).params()
        for s in (1.0, 1e-6, 1e6):
            q = replace(p, **{name: s * getattr(p, name) for name in DILATED})
            detuned = replace(q, alpha5=q.alpha5 + 1e-3 * q.alpha4)
            if (_verdict(q), _verdict(detuned)) != ("VERIFIED", "NOT VERIFIED"):
                wrong.append((k, lam, g, alpha4, c, s))
    assert wrong == []


@pytest.mark.parametrize("family, signs", [("I", (None, None)), ("II", (1, -1)),
                                           ("III", (1, None))])
def test_classify_names_every_regime_and_rejects_a_detuned_copy(family, signs):
    wrong = []
    for k, lam, g, alpha4, c in itertools.product(DECADES, ENDS, ENDS, DECADES, SPEEDS):
        omega = 0.7 * k * c if family == "III" else k * c
        p = FamilySolution(family, k, omega, alpha4, lam, g, c, 1, -1).params()
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
    # nine_constraints; c = 1e-6 slows the wave further
    points = grid_points(*_parse_grid(GRID))[::3]
    wrong = []
    for k, lam, g, alpha4, c in itertools.product(DECADES, ENDS, ENDS, DECADES, SPEEDS + (1e-6,)):
        omega = 0.7 * k * c if family == "III" else k * c
        p = FamilySolution(family, k, omega, alpha4, lam, g, c, 1, -1).params()
        field_bound, potential_bound = _derivative_bounds(p)
        for s in points:
            if not residual_sample(p, s, "numeric").norm <= field_bound * _ROUNDING:
                wrong.append(("numeric", k, lam, g, alpha4, c, s))
            if family == "III" and not (field_strength_norm(field_strength(p, s))
                                        <= potential_bound * _ROUNDING):
                wrong.append(("F", k, lam, g, alpha4, c, s))
        oracle = np.array(oracle_constraints(p)) - np.array(nine_constraints(p))
        if not np.abs(oracle).max() <= 1e-12 * max(constraint_scales(p)):
            wrong.append(("oracle", k, lam, g, alpha4, c))
    assert wrong == []
