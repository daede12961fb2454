"""su(2) building blocks: coefficient triples, a y-rotated frame, commutators.

Lie-algebra valued quantities are carried as real coefficient triples on
the Pauli basis (LieElement) and never as matrices, which keeps field
assembly exact and makes constraint extraction a matter of reading off
coefficients. The triple algebra is written once: _commutator and
_norm_squared take three floats or an array whose first axis is the
coefficient, and LieElement and fields.ColorVector share the one
componentwise arithmetic of _Triple.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

__all__ = ["LieElement"]


def _commutator(a, b):
    """-i[a, b] = 2 (a x b) of two coefficient triples, as a tuple: three
    floats, or arrays whose first axis is the coefficient."""
    (ax, ay, az), (bx, by, bz) = a, b
    return (2.0 * (ay * bz - az * by), 2.0 * (az * bx - ax * bz), 2.0 * (ax * by - ay * bx))


def _norm_squared(e):
    """The squared norm of a coefficient triple, as in _commutator."""
    ex, ey, ez = e
    return ex * ex + ey * ey + ez * ez


class _Triple:
    """+, -, unary -, real scaling and norm, part by part, of a dataclass of
    three _parts() with a norm_squared."""

    def _pairwise(self, op, other):
        """op part by part with other, of the same type; else NotImplemented."""
        if not isinstance(other, type(self)):
            return NotImplemented
        return type(self)(*map(op, self._parts(), other._parts()))

    def __add__(self, other):
        return self._pairwise(operator.add, other)

    def __sub__(self, other):
        return self._pairwise(operator.sub, other)

    def __neg__(self):
        return type(self)(*map(operator.neg, self._parts()))

    def __mul__(self, s):
        if not isinstance(s, (int, float)):
            return NotImplemented
        return type(self)(*(part * s for part in self._parts()))

    __rmul__ = __mul__

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())


@dataclass(frozen=True)
class LieElement(_Triple):
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

    _parts = coeffs

    def norm_squared(self) -> float:
        return _norm_squared(self.coeffs())


def _along_sx(c, s, u):
    """Coefficients of u Sx on sx, sy, sz, for the frame with cos c and sin s.

    The frame Sx, Sy, Sz at y rotates sx, sy about sz by the angle lam y:
    Sx = cos sx + sin sy, Sy = -sin sx + cos sy, Sz = sz. It keeps the
    su(2) relations ([Sx, Sy] = 2i Sz and cyclic) for every y, and d/dy
    gives lam Sy and -lam Sx. Plain arithmetic, so it runs on floats and
    on numpy columns alike.
    """
    return (c * u, s * u, 0.0 * u)


def _along_sy_sz(c, s, v, w):
    """Coefficients of v Sy + w Sz on sx, sy, sz, for the frame with cos c
    and sin s; the same rounding as v * Sy + w * Sz on LieElements."""
    return ((-s) * v + 0.0 * w, c * v + 0.0 * w, 0.0 * v + w)


def _frame_coeffs(c, s, e):
    """Components of the coefficient triple e on the frame with cos c and
    sin s; plain arithmetic, so c, s and e may hold floats or numpy columns."""
    ex, ey, ez = e
    return (c * ex + s * ey, -s * ex + c * ey, ez)

