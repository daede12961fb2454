"""Gauge-invariant diagnostics: energy density, closed forms, nodes, phase profiles.

The density is kappa * Tr(E.E + B.B) evaluated with the closed-form
fields. With Tr(sigma_i sigma_j) = 2 delta_ij the conventional
kappa = 1/2 yields exactly twice the compact per-family expressions
below, so kappa defaults to 1/4, the normalization under which

    Family II:  (k^2 alpha4^2 / 2) (1 - xi eta cos theta)
    Family I:   k^2 alpha4^2 cos^2 theta

hold pointwise. Pick kappa = 1/2 to recover the conventional scale;
nothing else in the module depends on the choice.

Both are functions of the phase alone, so the phase profile of
energy-profile evaluates the density at each of its phases directly,
not at a point whose coordinates realize it (point_at_phase). The
density and the closed forms are plain arithmetic on floats or columns
that squares by multiplication, so the profile takes both once per
block, on the block's one column of cosines, with the rounding of a
single phase.
"""

from __future__ import annotations

import math

import numpy as np

from .constraints import FamilySolution
from .fields import (AnsatzParams, SpacetimePoint, _angles, _check_count, _chunks, _cos_sin,
                     _field_columns)
from .su2 import _norm_squared

__all__ = [
    "energy_density",
    "energy_closed_form",
    "mean_energy_closed_form",
    "node_locations",
    "point_at_phase",
]


def _check_kappa(kappa: float):
    if not (kappa > 0.0 and math.isfinite(kappa)):
        raise ValueError(f"kappa must be positive, got {kappa!r}")


def _density(p: AnsatzParams, angles, kappa: float):
    """kappa * Tr(E.E + B.B) from the closed-form E_y and B_x at the cosines
    and sines of the phase and of the frame angle (fields._field_columns),
    floats or columns: Tr of a squared coefficient triple is twice its
    Euclidean square."""
    ey, bx = (_norm_squared(u) for u in _field_columns(p, angles))
    return kappa * 2.0 * (ey + bx)


def energy_density(p: AnsatzParams, s: SpacetimePoint, kappa: float = 0.25) -> float:
    """kappa * Tr(E.E + B.B) at one point; nonnegative for any input."""
    _check_kappa(kappa)
    return _density(p, _angles(p, s), kappa)


def _closed_form(sol: FamilySolution, c):
    """energy_closed_form at c, the cosine of the phase: a float or a column."""
    amp = (sol.k * sol.k) * (sol.alpha4 * sol.alpha4)
    if sol.family == "I":
        return amp * (c * c)
    if sol.family == "II":
        return 0.5 * amp * (1.0 - sol.xi * sol.eta * c)
    raise ValueError(f"no closed-form density for family {sol.family!r}")


def energy_closed_form(sol: FamilySolution, theta: float | np.ndarray) -> float | np.ndarray:
    """Per-family density at phase theta (kappa = 1/4 normalization), at a
    float or on a column of phases, with the same rounding: inf or nan
    where it overflows, as energy_density is. Squares multiply, as in
    _density: k^2 alpha4^2 is (k k)(alpha4 alpha4) and cos^2 theta is c c."""
    return _closed_form(sol, np.cos(theta))


def mean_energy_closed_form(sol: FamilySolution) -> float:
    """Phase average of the closed-form density."""
    if sol.family in ("I", "II"):
        return 0.5 * ((sol.k * sol.k) * (sol.alpha4 * sol.alpha4))
    raise ValueError(f"no closed-form density for family {sol.family!r}")


def node_locations(sol: FamilySolution) -> list[float]:
    """Phases in [0, 2 pi) where the density vanishes exactly."""
    if sol.family == "I":
        return [0.5 * math.pi, 1.5 * math.pi]
    if sol.family == "II":
        return [0.0] if sol.xi * sol.eta > 0 else [math.pi]
    raise ValueError(f"no density nodes defined for family {sol.family!r}")


def point_at_phase(p: AnsatzParams, theta: float) -> SpacetimePoint:
    """A point at x = y = 0 realizing phase theta, through z when k != 0, else through t."""
    if p.k != 0.0:
        return SpacetimePoint(z=theta / p.k)
    if p.omega != 0.0:
        return SpacetimePoint(t=-theta / p.omega)
    raise ValueError("k = omega = 0 admits no phase sweep")


def _profile_blocks(p: AnsatzParams, sol: FamilySolution, n_samples: int):
    """The density of p = sol.params(), a Family I or II wave, at kappa =
    1/4, the closed forms' normalization, at the n_samples phases theta =
    2 pi i / n_samples, as blocks of (thetas, densities, sol's closed
    forms), float columns. The density is evaluated at each theta itself,
    through its cosine and sine, at frame angle 0: the profile's points sit
    at y = 0; the closed form is energy_closed_form's on the same column of
    cosines. The phases are made block by block, in the sample numbers'
    blocks of fields._chunks, so memory does not grow with n_samples.

    Checks the input and the whole sweep before returning, so that a caller
    writing the blocks out writes nothing for a bad input: a count below 2,
    or one that no array can hold, is a ValueError, and a density or closed
    form column that is not finite an OverflowError.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 profile samples")
    _check_count(n_samples)

    def blocks():
        for samples in _chunks(n_samples):
            theta = 2.0 * math.pi * samples / n_samples
            cos, sin = _cos_sin(theta)
            yield theta, _density(p, (cos, sin, 1.0, 0.0), 0.25), _closed_form(sol, cos)

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        # one pass over the sweep that keeps nothing, before any row is made
        if not all(np.isfinite(columns).all() for _, *columns in blocks()):
            raise OverflowError("the energy density or its closed form overflows")
    return blocks()
