"""Gauge-invariant diagnostics: energy density, closed forms, nodes, phase profiles.

The density is kappa * Tr(E.E + B.B) evaluated with the closed-form
fields. With Tr(sigma_i sigma_j) = 2 delta_ij the conventional
kappa = 1/2 yields exactly twice the compact per-family expressions
below, so kappa defaults to 1/4, the normalization under which

    Family II:  (k^2 alpha4^2 / 2) (1 - xi eta cos theta)
    Family I:   k^2 alpha4^2 cos^2 theta

hold pointwise. Pick kappa = 1/2 to recover the conventional scale;
nothing else in the module depends on the choice.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .constraints import FamilySolution
from .fields import (
    AnsatzParams,
    SpacetimePoint,
    _Axis,
    _check_count,
    _field_columns,
    _Grid,
    electric_field_analytic,
    magnetic_field_analytic,
)
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


def energy_density(p: AnsatzParams, s: SpacetimePoint, kappa: float = 0.25) -> float:
    """kappa * Tr(E.E + B.B) at one point; nonnegative for any input."""
    _check_kappa(kappa)
    e = electric_field_analytic(p, s)
    b = magnetic_field_analytic(p, s)
    # Tr of a squared coefficient triple is twice its Euclidean square
    return kappa * 2.0 * (e.norm_squared() + b.norm_squared())


def energy_closed_form(sol: FamilySolution, theta: float) -> float:
    """Per-family density at phase theta (kappa = 1/4 normalization)."""
    amp = sol.k ** 2 * sol.alpha4 ** 2
    if sol.family == "I":
        return amp * math.cos(theta) ** 2
    if sol.family == "II":
        return 0.5 * amp * (1.0 - sol.xi * sol.eta * math.cos(theta))
    raise ValueError(f"no closed-form density for family {sol.family!r}")


def mean_energy_closed_form(sol: FamilySolution) -> float:
    """Phase average of the closed-form density."""
    if sol.family in ("I", "II"):
        return 0.5 * (sol.k ** 2 * sol.alpha4 ** 2)
    raise ValueError(f"no closed-form density for family {sol.family!r}")


def node_locations(sol: FamilySolution) -> list[float]:
    """Phases in [0, 2 pi) where the density vanishes exactly."""
    if sol.family == "I":
        return [0.5 * math.pi, 1.5 * math.pi]
    if sol.family == "II":
        return [0.0] if sol.xi * sol.eta > 0 else [math.pi]
    raise ValueError(f"no density nodes defined for family {sol.family!r}")


def _phase_coordinates(p: AnsatzParams, theta):
    """(t, z) realizing phase theta, through z when k != 0, else through t.

    Plain arithmetic, so theta may be a float or a numpy column.
    """
    if p.k != 0.0:
        return 0.0, theta / p.k
    if p.omega != 0.0:
        return -theta / p.omega, 0.0
    raise ValueError("k = omega = 0 admits no phase sweep")


def point_at_phase(p: AnsatzParams, theta: float) -> SpacetimePoint:
    """A point at x = y = 0 realizing phase theta, through z when k != 0, else through t."""
    t, z = _phase_coordinates(p, theta)
    return SpacetimePoint(t=t, x=0.0, y=0.0, z=z)


def _profile_phases(i, n: int):
    """The profile's phases 2 pi i / n at the sample indices i."""
    return 2.0 * math.pi * i / n


class _Sweep(NamedTuple):
    """The coordinate that realizes the profile's phases (_phase_coordinates),
    z when k != 0 and t otherwise, as a grid axis of count samples."""

    p: AnsatzParams
    count: int

    def at(self, i) -> np.ndarray:
        with np.errstate(over="ignore"):  # an overflow is named by _Grid.check
            t, z = _phase_coordinates(self.p, _profile_phases(i, self.count))
        return z if self.p.k != 0.0 else t

    def ends(self):
        return self.at(np.array([0, self.count - 1])).tolist()


def _profile_blocks(p: AnsatzParams, sol: FamilySolution, n_samples: int):
    """The density of p = sol.params(), a Family I or II wave, at n_samples
    phases theta in [0, 2 pi), as blocks of (thetas, densities, sol's closed
    forms), lists of floats, one block of the grid core at a time. The
    phases and their coordinates are made block by block, so memory does
    not grow with n_samples.

    Checks the input and the whole sweep before returning, so that a caller
    writing the blocks out writes nothing for a bad input: a count below 2,
    or one that no array can hold, is a ValueError, and a density or closed
    form that overflows an OverflowError.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 profile samples")
    _check_count(n_samples)
    point, sweep = _Axis(0.0, 0.0, 1), _Sweep(p, n_samples)
    grid = _Grid(point, point, sweep) if p.k != 0.0 else _Grid(sweep, point, point)

    def densities(rows):  # energy_density's rounding at its default kappa = 1/4
        ey, bx = (_norm_squared(u) for u in _field_columns(p, rows))
        return 0.25 * 2.0 * (ey + bx)
    with np.errstate(over="ignore"):  # an overflow is named below
        # one pass over the sweep that keeps nothing, before any row is made
        finite = all(np.isfinite(densities(rows)).all() for rows in grid.blocks(p))
    if not (finite and math.isfinite((sol.k * sol.k) * (sol.alpha4 * sol.alpha4))):
        raise OverflowError("the energy density or its closed form overflows")

    def profile():
        start = 0
        for rows in grid.blocks(p):
            stop = start + len(rows.t)
            block = _profile_phases(np.arange(start, stop), n_samples).tolist()
            start = stop
            yield block, densities(rows).tolist(), [energy_closed_form(sol, th) for th in block]
    return profile()
