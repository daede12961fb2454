"""Newton's step through numpy.linalg's wrappers: the reference the direct
LAPACK calls are checked against.

ymwaves.constraints factors [J | f] and inverts R by calling the two
gufuncs that np.linalg.qr(mode="raw") and np.linalg.inv wrap, without
the wrappers' checks and conversions. Here the same step goes through
the wrappers, as the library took it before; every row must come out
the same bit for bit, an exact zero pivot's pinv fallback included.
"""

import numpy as np

from ymwaves.constraints import _RCOND, _UPPER


def top_of_r(a):
    """The top five rows of R of every (9, 6) matrix of a, read off the
    raw factorization."""
    h = np.linalg.qr(a, mode="raw")[0]
    return np.where(_UPPER, h.transpose(0, 2, 1)[:, :5], 0.0)


def step(jf):
    """-pinv(J) f of every row of [J | f], (n, 9, 6) -> (n, 5), as
    constraints._step takes it."""
    r = top_of_r(jf)
    rj = r[:, :, :5]
    singular = False
    try:
        inv = np.linalg.inv(rj)
    except np.linalg.LinAlgError:
        singular = ~(np.abs(np.diagonal(rj, axis1=1, axis2=2)).min(axis=1) > 0.0)
        rj = np.where(singular[:, None, None], np.eye(5), rj)
        inv = np.linalg.inv(rj)
    out = -(inv @ r[:, :, 5:])[:, :, 0]
    kappa2 = np.einsum("nij,nij->n", rj, rj) * np.einsum("nij,nij->n", inv, inv)
    cut = singular | ~(kappa2 * _RCOND ** 2 < 1.0)
    if cut.any():
        out[cut] = -(np.linalg.pinv(jf[cut, :, :5], rcond=_RCOND) @ jf[cut, :, 5:])[:, :, 0]
    return out
