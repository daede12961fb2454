"""Gauge-invariant diagnostics: energy density, flux, averages, nodes.

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
from dataclasses import dataclass

import numpy as np

from .constraints import FamilySolution
from .fields import (
    AnsatzParams,
    ColorVector,
    SpacetimePoint,
    _arange,
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
    "poynting",
    "time_averaged_electric",
    "node_locations",
    "EnergyProfile",
    "energy_profile",
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


def poynting(p: AnsatzParams, s: SpacetimePoint, kappa: float = 0.25) -> tuple[float, float, float]:
    """Energy flux 2 kappa eps_ijk Tr(E_j B_k) from the closed-form fields."""
    _check_kappa(kappa)
    e = electric_field_analytic(p, s).components()
    b = magnetic_field_analytic(p, s).components()

    def tr(u, v):
        # Tr of a product of coefficient triples is twice their dot product
        return 2.0 * (u.ax * v.ax + u.ay * v.ay + u.az * v.az)

    return (
        2.0 * kappa * (tr(e[1], b[2]) - tr(e[2], b[1])),
        2.0 * kappa * (tr(e[2], b[0]) - tr(e[0], b[2])),
        2.0 * kappa * (tr(e[0], b[1]) - tr(e[1], b[0])),
    )


# Uniform sampling of a trigonometric polynomial over its period is
# spectrally accurate, so the time average takes few samples
_AVERAGE_SAMPLES = 64


def time_averaged_electric(p: AnsatzParams, y: float) -> ColorVector:
    """E averaged over one temporal period at fixed (x, y, z) = (0, y, 0).
    Requires omega != 0."""
    if p.omega == 0.0:
        raise ValueError("time averaging needs omega != 0")
    period = 2.0 * math.pi / abs(p.omega)
    acc = ColorVector()
    for i in range(_AVERAGE_SAMPLES):
        s = SpacetimePoint(t=i * period / _AVERAGE_SAMPLES, x=0.0, y=y, z=0.0)
        acc = acc + electric_field_analytic(p, s)
    return acc * (1.0 / _AVERAGE_SAMPLES)


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


def point_at_phase(p: AnsatzParams, theta: float, y: float = 0.0) -> SpacetimePoint:
    """A point realizing phase theta, through z when k != 0, else through t."""
    t, z = _phase_coordinates(p, theta)
    return SpacetimePoint(t=t, x=0.0, y=y, z=z)


@dataclass(frozen=True)
class EnergyProfile:
    """Density sampled over one phase period, with the matching closed form."""

    thetas: tuple[float, ...]
    densities: tuple[float, ...]
    closed_forms: tuple[float, ...]
    kappa: float


def _profile_blocks(sol: FamilySolution, n_samples: int, kappa: float = 0.25):
    """The profile of energy_profile as blocks of (thetas, densities,
    closed forms), lists of floats, one block of the grid core at a time.

    Checks the input and the whole sweep (fields._Grid.blocks) before
    returning, so that a caller writing the blocks out writes nothing for
    a bad input. A sample count below 2, or one that no array can hold,
    is a ValueError.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 profile samples")
    _check_kappa(kappa)
    p = sol.params()
    thetas = 2.0 * math.pi * _arange(n_samples) / n_samples
    t, z = (np.atleast_1d(v) for v in _phase_coordinates(p, thetas))
    blocks = _Grid(t, np.zeros(1), z).blocks(p)

    def profile():
        start = 0
        for rows in blocks:
            ey, bx = (_norm_squared(u) for u in _field_columns(p, rows))
            # energy_density's rounding: kappa * 2 * (|E_y|^2 + |B_x|^2)
            densities = (kappa * 2.0 * (ey + bx)).tolist()
            block = thetas[start:start + len(densities)].tolist()
            start += len(densities)
            yield block, densities, [energy_closed_form(sol, th) * (kappa / 0.25) for th in block]
    return profile()


def energy_profile(sol: FamilySolution, n_samples: int = 256,
                   kappa: float = 0.25) -> EnergyProfile:
    """Sweep the density of a Family I or II wave over theta in [0, 2 pi)."""
    thetas, densities, closed = [], [], []
    for block in _profile_blocks(sol, n_samples, kappa):
        for whole, part in zip((thetas, densities, closed), block):
            whole += part
    return EnergyProfile(thetas=tuple(thetas), densities=tuple(densities),
                         closed_forms=tuple(closed), kappa=kappa)
