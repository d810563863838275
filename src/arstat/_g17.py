"""Exact ``format(x, ".17g")`` cells for float64 arrays, in numpy.

For 1e-4 <= |x| < 1e16 the ``.17g`` form of x is fixed-point: the 17
significant digits of x rounded half-even, with trailing fractional zeros
and a bare decimal point dropped.  With E = floor(log10 |x|) those digits
are the integer nearest to |x| 10^(16 - E), a product that Dekker's
TwoProduct (Numer. Math. 18, 1971) gives exactly as hi + lo in doubles:
10^p is an exact double for p <= 22, and the split is exact well inside
the double range.  In [1e16, 1e17] every double is an even integer, so
``hi + rint(lo)`` is the half-even rounding of the exact product, which is
the correctly rounded result CPython's ``dtoa`` prints.

``log10`` only guesses E.  A row whose exact product falls outside
[1e16, 1e17) had a wrong guess and goes to ``format`` like every value
outside [1e-4, 1e16) (zeros, subnormals, huge and non-finite values), so
the guess picks a path and never a digit.
"""

import numpy as np

_WIDTH = 24  # at most 23: a sign, "0.", the three zeros of exponent -4, 17 digits
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for 53-bit doubles
_POW10 = np.array([float(10**p) for p in range(23)])
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_ZERO, _DOT, _MINUS = ord("0"), ord("."), ord("-")


def _exact_scaled(a: np.ndarray, p: np.ndarray):
    """hi + lo == a * 10^p exactly (Dekker's TwoProduct)."""
    b, b_hi, b_lo = _POW10[p], _POW10_HI[p], _POW10_LO[p]
    hi = a * b
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi, lo


def _digit_rows(d: np.ndarray) -> np.ndarray:
    """The 17 decimal digits of each d in [1e16, 1e17) as ASCII, one row per
    digit: shape (17, len(d))."""
    top = (d // 10**9).astype(np.uint32)  # 8 digits
    low = (d - top.astype(np.int64) * 10**9).astype(np.uint32)  # 9 digits
    out = np.empty((17, len(d)), dtype=np.uint8)
    for part, first, count in ((low, 8, 9), (top, 0, 8)):
        for row in range(first + count - 1, first - 1, -1):
            quotient = part // 10  # a scalar uint32 divisor: numpy uses libdivide
            out[row] = part - quotient * 10 + _ZERO
            part = quotient
    return out


def g17_cells(values) -> list[bytes]:
    """``[format(v, ".17g").encode() for v in values]``, computed in numpy."""
    x = np.asarray(values, dtype=float).ravel()
    a = np.abs(x)
    rows = np.flatnonzero((a >= 1e-4) & (a < 1e16))
    a = a[rows]
    # Group the rows by (exponent, sign), sorted so that each group is one
    # slice: group = 2 E + (1 if negative).
    group = np.floor(np.log10(a)).astype(np.intp) * 2 + (x[rows] < 0.0)
    order = np.argsort(group.astype(np.int8), kind="stable")
    rows, a, group = rows[order], a[order], group[order]
    exponent = group >> 1
    hi, lo = _exact_scaled(a, 16 - exponent)
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # The guess is right iff the exact product lies in [1e16, 1e17).  For
    # the upper bound, rounding is enough: no double in the fast range lies
    # within half a unit of the 17th digit below a power of ten.
    right = ((hi > 1e16) | ((hi == 1e16) & (lo >= 0.0))) & (digits < 10**17)
    if not right.all():
        rows, group, exponent, digits = rows[right], group[right], exponent[right], digits[right]
    ascii_digits = _digit_rows(digits)

    # Lay the cells out as columns of a (_WIDTH, n) array, so that every
    # copy below moves contiguous runs, then transpose to one cell per row.
    cells = np.zeros((_WIDTH, len(rows)), dtype=np.uint8)
    starts = np.flatnonzero(np.diff(group, prepend=group[:1] - 1)).tolist()
    for start, stop in zip(starts, [*starts[1:], len(rows)]):
        e, sign = divmod(int(group[start]), 2)
        block, src = cells[:, start:stop], ascii_digits[:, start:stop]
        if sign:
            block[0] = _MINUS
        if e >= 0:  # d.ddd, the point after digit e + 1
            block[sign : sign + e + 1] = src[: e + 1]
            block[sign + e + 1] = _DOT
            block[sign + e + 2 : sign + 18] = src[e + 1 :]
        else:  # 0.000ddd
            block[sign : sign + 1 - e] = _ZERO
            block[sign + 1] = _DOT
            block[sign + 1 - e : sign + 18 - e] = src
    cells = np.ascontiguousarray(cells.T)
    # Drop the trailing zeros among the 16 - e fractional digits, and the
    # point if none is left.
    zero_end = np.flatnonzero(ascii_digits[16] == _ZERO)
    if len(zero_end):
        e, sign = exponent[zero_end], group[zero_end] & 1
        trailing = np.argmax(ascii_digits[::-1, zero_end] != _ZERO, axis=0)
        dropped = np.minimum(trailing, 16 - e)
        length = sign + 18 + np.maximum(-e, 0) - dropped - (dropped == 16 - e)
        cells[zero_end] *= np.arange(_WIDTH) < length[:, None]

    table = np.zeros(len(x), dtype=f"V{_WIDTH}")
    table[rows] = cells.view(f"V{_WIDTH}").ravel()
    out = table.view(f"S{_WIDTH}").tolist()
    if len(rows) < len(x):
        slow = np.ones(len(x), dtype=bool)
        slow[rows] = False
        for i in np.flatnonzero(slow).tolist():
            out[i] = format(float(x[i]), ".17g").encode()
    return out
