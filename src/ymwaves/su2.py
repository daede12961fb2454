"""su(2) building blocks: coefficient triples, a y-rotated basis, commutators.

Lie-algebra valued quantities are carried as real coefficient triples on
the Pauli basis (LieElement) and never as matrices, which keeps field
assembly exact and makes constraint extraction a matter of reading off
coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "LieElement",
    "minus_i_commutator",
    "rotated_basis",
    "rotated_coeffs",
]


@dataclass(frozen=True)
class LieElement:
    """Traceless Hermitian element ax*sx + ay*sy + az*sz, stored by coefficients.

    Addition, subtraction and real scalar multiplication act on the
    coefficients and are therefore exact up to float rounding, with no
    matrix arithmetic involved.
    """

    ax: float = 0.0
    ay: float = 0.0
    az: float = 0.0

    def coeffs(self) -> tuple[float, float, float]:
        return (self.ax, self.ay, self.az)

    def norm_squared(self) -> float:
        # plain arithmetic: the grid core calls it on coefficient columns
        return self.ax * self.ax + self.ay * self.ay + self.az * self.az

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def __add__(self, other):
        if not isinstance(other, LieElement):
            return NotImplemented
        return LieElement(self.ax + other.ax, self.ay + other.ay, self.az + other.az)

    def __sub__(self, other):
        if not isinstance(other, LieElement):
            return NotImplemented
        return LieElement(self.ax - other.ax, self.ay - other.ay, self.az - other.az)

    def __neg__(self):
        return LieElement(-self.ax, -self.ay, -self.az)

    def __mul__(self, s):
        if not isinstance(s, (int, float)):
            return NotImplemented
        return LieElement(self.ax * s, self.ay * s, self.az * s)

    __rmul__ = __mul__


def minus_i_commutator(a: LieElement, b: LieElement) -> LieElement:
    """-i[a, b], again traceless Hermitian; coefficients are 2 (a x b).

    This is the combination in which commutators enter the field
    definitions, e.g. -ig[phi, A] = g * minus_i_commutator(phi, A).
    """
    return LieElement(
        2.0 * (a.ay * b.az - a.az * b.ay),
        2.0 * (a.az * b.ax - a.ax * b.az),
        2.0 * (a.ax * b.ay - a.ay * b.ax),
    )


def rotated_basis(lam: float, y: float) -> tuple[LieElement, LieElement, LieElement]:
    """y-dependent frame Sx, Sy, Sz obtained by rotating sx, sy about sz.

    Sx = cos(lam y) sx + sin(lam y) sy, Sy = -sin(lam y) sx + cos(lam y) sy,
    Sz = sz. The frame keeps the su(2) relations ([Sx, Sy] = 2i Sz and
    cyclic) for every y, and d/dy gives lam Sy and -lam Sx respectively.
    """
    c = math.cos(lam * y)
    s = math.sin(lam * y)
    return (
        LieElement(c, s, 0.0),
        LieElement(-s, c, 0.0),
        LieElement(0.0, 0.0, 1.0),
    )


def _along_sx(c, s, u):
    """Coefficients of u Sx on sx, sy, sz, for the frame with cos c and sin s.

    Plain arithmetic, so it runs on floats and on numpy columns alike,
    and rounds as u * rotated_basis(lam, y)[0] does.
    """
    return (c * u, s * u, 0.0 * u)


def _along_sy_sz(c, s, v, w):
    """Coefficients of v Sy + w Sz on sx, sy, sz, for the frame with cos c
    and sin s; the same rounding as v * Sy + w * Sz on LieElements."""
    return ((-s) * v + 0.0 * w, c * v + 0.0 * w, 0.0 * v + w)


def _frame_coeffs(c, s, e: LieElement):
    """Components of e on the frame with cos c and sin s; plain arithmetic,
    so c, s and the coefficients of e may be floats or numpy columns."""
    return (
        c * e.ax + s * e.ay,
        -s * e.ax + c * e.ay,
        e.az,
    )


def rotated_coeffs(e: LieElement, lam: float, y: float) -> tuple[float, float, float]:
    """Components of e on the rotated frame at (lam, y)."""
    return _frame_coeffs(math.cos(lam * y), math.sin(lam * y), e)
