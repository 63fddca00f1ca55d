"""CSV rows as '%.16e' and '%d' print them, a block of rows in a few numpy passes."""

import functools

import numpy as np

# a block of fewer float cells goes through '%' row by row.  Fresh processes on the 2-CPU VM: '%' costs about
# 0.9 us a cell; the vector pass 0.2 ms plus 0.25 us a cell, and 0.8 ms more on a process's first block.  They
# break even near 300 cells on later blocks and near 1300 on the first (BENCH_26.json)
_VECTOR_CELLS = 512
# 10^k in column k + 300 as hi, the double nearest it, and lo, the double nearest 10^k - hi, filled as needed
_TENS = np.full((2, 601), np.nan)


def csv_lines(columns: list) -> str:
    """One block of CSV rows: a float cell as '%.16e' prints it, an integer cell as '%d', and None an empty cell.

    A float x is printed from e = floor(log10|x|), moved by one where log10 is one off, and the integer nearest
    |x| 10^(16-e), from Dekker's exact product of |x| with 10^(16-e) as hi + lo (good to about 1e-15).  A cell
    that this cannot prove -- x not finite, |x| outside [1e-280, 1e280], or a fraction within 1e-9 of a tie --
    goes through '%.16e' itself.  A cell is 8 words of 4 bytes, zero where its text has no byte.
    """
    rows = len(next(c for c in columns if c is not None))
    floats = [j for j, c in enumerate(columns) if c is not None and c.dtype.kind == "f"]
    if rows * len(floats) < _VECTOR_CELLS:
        line = ",".join("" if c is None else "%.16e" if c.dtype.kind == "f" else "%d" for c in columns) + "\n"
        return "".join(line % cells for cells in zip(*(c.tolist() for c in columns if c is not None)))
    cells = np.zeros((rows, len(columns), 8), "<u4")
    cells[:, floats, :7] = _e16(np.stack([columns[j] for j in floats], axis=1).ravel()).reshape(rows, -1, 7)
    for j, c in enumerate(columns):
        if c is not None and j not in floats:
            cells[:, j, :6] = c.astype("S24").view("<u4").reshape(rows, 6)
    cells[:, :, 7], cells[:, -1, 7] = ord(","), ord("\n")
    return cells.tobytes().translate(None, b"\0").decode()


def _e16(x: np.ndarray) -> np.ndarray:
    """'%.16e' % x per x as 7 words: sign, lead digit and point; 16 digits in four; e, sign and exponent in two."""
    a = np.abs(x)
    zero = a == 0.0
    ok = zero | (a >= 1e-280) & (a <= 1e280)
    a = np.where(ok & ~zero, a, 1.0)
    e = np.floor(np.log10(a))
    high, low, frac = _scaled(a, e)
    off = (high < 1e8) | (high >= 1e9)  # log10 is one off near a power of ten
    if off.any():
        e[off] += np.where(high[off] < 1e8, -1.0, 1.0)
        high[off], low[off], frac[off] = _scaled(a[off], e[off])
    ok &= (high >= 1e8) & (high < 1e9) & (np.abs(frac - 0.5) > 1e-9)  # no tie within the error of about 1e-15
    low += np.floor(frac + 0.5)
    high[low == 1e8] += 1.0
    low[low == 1e8] = 0.0
    carry = high == 1e9  # 9.99...95e4 rounds up to 1.00...00e5
    high[carry], e[carry] = 1e8, e[carry] + 1.0
    high[zero] = 0.0  # scaled from 1.0: e = low = 0
    heads, digits, exponents = _tables()
    lead = np.floor(high / 1e8)
    eight = np.stack((high - lead * 1e8, low), axis=1)
    four = np.floor(eight / 1e4)
    out = np.empty((x.size, 7), "<u4")
    out[:, 0] = np.take(heads, np.where(np.signbit(x), lead + 10.0, lead).astype(np.intp))
    out[:, 1:5] = np.take(digits, np.stack((four, eight - four * 1e4), axis=2).reshape(-1, 4).astype(np.intp))
    out[:, 5:] = np.take(exponents, (e + 300.0).astype(np.intp), axis=0)
    if not ok.all():
        out[~ok, :6] = np.array(["%.16e" % v for v in x[~ok].tolist()], "S24").view("<u4").reshape(-1, 6)
        out[~ok, 6] = 0
    return out


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """floor(a 10^(16-e)) as high 10^8 + low, 0 <= low < 10^8, and the fraction above it."""
    k = (316.0 - e).astype(np.intp)
    need = np.zeros(601, bool)
    need[k] = True
    for col in np.flatnonzero(need & np.isnan(_TENS[0])).tolist():  # exact in Python ints
        num, den = (10 ** (col - 300), 1) if col >= 300 else (1, 10 ** (300 - col))
        m, q = (num / den).as_integer_ratio()  # the nearest double as m / q, q a power of two
        _TENS[:, col] = m / q, (num * q - m * den) / (den * q)
    hi, lo = np.take(_TENS, k, axis=1)
    p = a * hi
    # the products of halves of 26 bits are exact, and so is the rounding error of p that they sum to
    a1, h1 = a * 134217729.0, hi * 134217729.0
    a1, h1 = a1 - (a1 - a), h1 - (h1 - hi)
    a2, h2 = a - a1, hi - h1
    whole = np.floor(p)
    rest = (p - whole) + ((((a1 * h1 - p) + a1 * h2 + a2 * h1) + a2 * h2) + a * lo)
    up = np.floor(rest)
    high = np.floor(whole / 1e8)  # whole - high 10^8 is exact, but whole / 10^8 may round past an integer
    low = (whole - high * 1e8) + up
    shift = np.floor(low / 1e8)
    return high + shift, low - shift * 1e8, rest - up


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """As words: a lead digit and point, then with a minus; 0000 to 9999; e and an exponent of -300 to 300 in two."""
    d = np.arange(48, 58, dtype=np.uint8)
    return (np.array([b"%s%d." % (sign, k) for sign in (b"", b"-") for k in range(10)], "S4").view("<u4"),
            np.stack(np.meshgrid(d, d, d, d, indexing="ij"), axis=-1).view("<u4").ravel(),
            np.array([b"e%+03d" % e for e in range(-300, 301)], "S8").view("<u4").reshape(-1, 2))
