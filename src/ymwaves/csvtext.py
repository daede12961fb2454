"""CSV rows of float columns, each value as %.17g writes it alone, for the
fields and energy-profile commands.

A block becomes its text as numpy bytes, with no Python string per cell:
each distinct magnitude is laid out once as a NUL-padded row of a byte
table, the cells are gathered from it, and the NULs are dropped. The
writer lives in a module of its own, which those two commands alone
import: without a bytecode cache every start compiles what it imports,
at about 95 KB of peak RSS per KB of source.
"""

import numpy as np


def _digit_groups() -> np.ndarray:
    """The ASCII digits of 0000..9999 as 4-byte words, word i holding i's
    four digits in order. Each digit column is broadcast from the ten
    digits, so building it makes no transient larger than the 40 KB table."""
    groups = np.empty((10, 10, 10, 10, 4), np.uint8)
    for i in range(4):
        groups[..., i] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - i))
    return groups.reshape(-1).view(np.uint32)


_GROUPS = _digit_groups()
# 10^-4 .. 10^17 as doubles: %.17g writes fixed notation where the 17-digit
# exponent X is -4 to 16, for 1e-4 <= x < 1e17. Each double 10^k here is at
# or above the real 10^k, and the double below it is more than 5e-17 of it
# below (8.3e-17 at 0.1, the closest), so each x in [10^X, 10^(X+1)) rounds
# to 17 digits at X, none up to 10^(X+1)
_TENS = np.array([float(f"1e{k}") for k in range(-4, 18)])
_SPLITTER = 134217729.0  # 2^27 + 1
# a cell's bytes: the sign, the text in bytes 1 to 23, NUL padded, and the
# separator at byte 24, a "," or, in a row's last cell, "\r\n"
_WIDTH = 26


def _halves(x):
    """Veltkamp's split of x into a high and a low half of 26 bits each."""
    c = _SPLITTER * x
    high = c - (c - x)
    return high, x - high


# 10^s for s = 16 - X, exact for s <= 22, and its halves
_SCALES = np.array([float(10 ** s) for s in range(21)])
_SCALE_HIGH, _SCALE_LOW = _halves(_SCALES)


def _lead(x: int) -> bytes:
    """The first 8 bytes of a digit row at exponent x, the first digit's
    byte marked 1: byte 7, after "0." and zeros below 1 and at x = 16,
    which has no point; else byte 6, before the point."""
    if x < 0:
        return (b"0." + b"0" * (-1 - x)).rjust(7, b"\0") + b"\1"
    return b"\0" * 6 + b"\1." if x < 16 else b"\0" * 7 + b"\1"


# per exponent, as 8-byte words: the lead with "0" in the first digit's
# byte, and the word that adds the digit there
_LEADS = np.frombuffer(b"".join(_lead(x).replace(b"\1", b"0") for x in range(-4, 17)), np.uint64)
_UNITS = np.frombuffer(b"".join(bytes(c == 1 for c in _lead(x)) for x in range(-4, 17)), np.uint64)


def _group_zeros() -> np.ndarray:
    """The trailing zeros of each 4-digit group 0000..9999, one for each of
    10, 100, 1000 and 10^4 that divides it, so 4 for 0000."""
    zeros = np.zeros(10 ** 4, np.uint8)
    for k in range(1, 5):
        zeros[:: 10 ** k] += 1
    return zeros


_ZEROS = _group_zeros()


def _kept(run: int, zeros: int) -> bytes:
    """A 0xFF for each byte of a digit row at exponent run - 4 that %.17g
    keeps, when its last 16 digits end in that many zeros, and a NUL for
    each it strips: the zeros after the point, and then a bare point; at
    X = 16 there is none."""
    fraction = 20 - run
    cut = zeros if zeros < fraction else fraction + (fraction > 0)
    return b"\xff" * (24 - cut) + b"\0" * cut


# _kept by 17 run + zeros, as three 8-byte words
_KEEP = np.frombuffer(b"".join(_kept(r, z) for r in range(21) for z in range(17)),
                      np.uint64).reshape(-1, 3)


def _rounded(x, s):
    """round(x 10^s) as int64, for x 10^s from 10^16 up to below 10^17, and
    whether it is a tie. Dekker's two-product gives the exact x 10^s as
    p + e, where p = fl(x 10^s) >= 10^16 > 2^53 is an integer, so the
    rounding is p plus e rounded, and the fractional part of e decides it
    exactly; a tie is a fractional part of 1/2."""
    high, low = _halves(x)
    p = x * _SCALES[s]
    e = ((high * _SCALE_HIGH[s] - p) + high * _SCALE_LOW[s] + low * _SCALE_HIGH[s]
         ) + low * _SCALE_LOW[s]
    whole = np.floor(e)
    frac = e - whole
    return p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5), frac == 0.5


def _digit_rows(n, run):
    """The 24-byte digit rows of 17-digit integers n, at the exponents
    run - 4: the lead (_lead) with the first digit, then the other 16
    digits from byte 8 on as four 4-digit groups from _GROUPS; and the
    number of trailing zeros of those 16 digits, counted group by group
    from the left (_ZEROS)."""
    words = np.empty((len(n), 6), np.uint32)
    upper = n // 10 ** 8
    first = upper // 10 ** 8
    words.view(np.uint64)[:, 0] = _LEADS[run] + _UNITS[run] * first.astype(np.uint64)
    zeros = np.zeros(len(n), np.uint8)
    for i, eight in enumerate((upper - first * 10 ** 8, n - upper * 10 ** 8)):
        four = eight // 10 ** 4
        for j, group in enumerate((four, eight - four * 10 ** 4)):
            words[:, 2 + 2 * i + j] = _GROUPS[group]
            zeros = _ZEROS[group] + (group == 0) * zeros
    return words.view(np.uint8), zeros


def _table(m):
    """A cell of _WIDTH bytes for each of m, ascending nonnegative floats
    with any NaN last (np.unique's magnitudes): byte 0 NUL, kept for the
    sign, the text %.17g writes in bytes 1 to 23, NUL padded, and "," at
    byte 24.

    The values 1e-4 <= x < 1e17, which %.17g writes in fixed notation, are
    laid out here, each run of one exponent X at once: its 17 digits are
    x 10^s rounded, s = 16 - X, exactly (_rounded), in digit rows
    (_digit_rows), which end at byte 23. At X = 1 to 15 the X digits after
    the first move one byte left, over the lead's point, which goes after
    them. Trailing zeros after the point, and then a bare point, are set
    to NUL, as %.17g strips them. %.17g itself writes the rest, each once:
    the values outside [1e-4, 1e17), and an exact tie, whose rounding it
    defines; at most 23 bytes each, as 1.7976931348623157e+308 is.
    """
    bounds = np.searchsorted(m, _TENS)
    lo, hi = bounds[0], bounds[-1]
    run = np.repeat(np.arange(21), np.diff(bounds))  # X + 4
    n, tie = _rounded(m[lo:hi], 20 - run)
    rows, zeros = _digit_rows(n, run)
    for exp, a, b in zip(range(1, 16), bounds[5:20] - lo, bounds[6:21] - lo):
        if a < b:
            rows[a:b, 7:7 + exp] = rows[a:b, 8:8 + exp]
            rows[a:b, 7 + exp] = ord(".")
    rows.view(np.uint64)[:] &= _KEEP.take(17 * run + zeros, axis=0)
    table = np.zeros((len(m), _WIDTH), np.uint8)
    table[lo:hi, :24] = rows
    table[:, 24] = ord(",")
    other = np.concatenate((np.arange(lo), lo + np.flatnonzero(tie), np.arange(hi, len(m))))
    texts = np.array(["%.17g" % x for x in m[other].tolist()], "S23")
    table[other, 1:24] = texts.view(np.uint8).reshape(-1, 23)
    return table


def _csv_block(columns) -> str:
    """Float columns of one length as CSV rows, each value as %.17g writes
    it alone, each row ended by "\\r\\n". Each distinct magnitude, matched
    on its bits, is laid out once (_table), and the cells are gathered from
    the table in row order. A value whose sign bit is set takes a "-" in
    its cell's byte 0, so -0 is "-0"; not a NaN, which %.17g writes "nan".
    The last cell of each row ends in "\\r\\n" in place of its ",", and the
    text is the cells' bytes without their NULs. No rows, no text."""
    cols = np.array(columns)
    bits, where = np.unique(np.abs(cols).view(np.int64), return_inverse=True)
    cells = _table(bits.view(np.float64)).take(where.reshape(cols.shape).T, axis=0)
    cells[..., 0][(np.signbit(cols) & ~np.isnan(cols)).T] = ord("-")
    cells[:, -1, 24:] = (ord("\r"), ord("\n"))
    return cells.tobytes().translate(None, b"\0").decode("ascii")
