"""The 2x2 matrix route to su(2): the oracle the coefficient algebra is checked against.

ymwaves carries Lie-algebra elements as coefficient triples (LieElement)
and never builds a matrix. These helpers materialize a LieElement as
ax sx + ay sy + az sz on plain complex numpy arrays and read one back,
so the tests can compare the coefficient route with matrix products.
"""

import numpy as np

from ymwaves.su2 import LieElement

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)

_PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


def pauli(axis: str) -> np.ndarray:
    """Pauli matrix for axis 'x', 'y' or 'z' (a fresh copy)."""
    try:
        return _PAULI[axis].copy()
    except KeyError:
        raise ValueError(f"axis must be 'x', 'y' or 'z', got {axis!r}") from None


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix commutator [a, b] = ab - ba."""
    return a @ b - b @ a


def trace_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Trace pairing Tr(ab); on the Pauli basis Tr(sigma_i sigma_j) = 2 delta_ij."""
    return complex(np.trace(a @ b))


def decompose(m: np.ndarray):
    """Coefficients (a0, ax, ay, az) of m = a0 I + ax sx + ay sy + az sz.

    Works for any 2x2 complex matrix; coefficients are complex in general.
    """
    return (
        complex(np.trace(m)) / 2.0,
        trace_inner(m, SIGMA_X) / 2.0,
        trace_inner(m, SIGMA_Y) / 2.0,
        trace_inner(m, SIGMA_Z) / 2.0,
    )


def matrix(e: LieElement) -> np.ndarray:
    """The matrix ax sx + ay sy + az sz of a LieElement."""
    return e.ax * SIGMA_X + e.ay * SIGMA_Y + e.az * SIGMA_Z


def from_matrix(m: np.ndarray, tol: float = 1e-12) -> LieElement:
    """Read coefficients off a matrix, rejecting non-su(2) input.

    tol is relative to the matrix magnitude; trace and anti-Hermitian
    parts beyond it raise ValueError.
    """
    scale = max(1.0, float(np.abs(m).max()))
    if abs(complex(np.trace(m))) > tol * scale:
        raise ValueError("matrix is not traceless")
    if float(np.abs(m - m.conj().T).max()) > tol * scale:
        raise ValueError("matrix is not Hermitian")
    _, ax, ay, az = decompose(m)
    return LieElement(ax.real, ay.real, az.real)
