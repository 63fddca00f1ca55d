"""The CSV writer: every cell of a block is the text that '%.16e' or '%d' prints, on either path."""

import numpy as np
import pytest

from ergodiclab.cesaro import CSV_BLOCK_ROWS
from ergodiclab.csvtext import _VECTOR_CELLS, csv_lines


def neighbours(values, steps):
    """Each positive finite double of ``values`` and the ``steps`` doubles on either side of it."""
    bits = np.asarray(values, dtype=float).view(np.int64)[:, None] + np.arange(-steps, steps + 1)
    return bits.view(float).ravel()


def doubles():
    """Over 500 000 doubles, signed, among them every kind of cell the fast path must print or leave to '%'."""
    rng = np.random.default_rng(26)
    count = 214_000
    kinds = [
        rng.integers(0, 2**64, count, dtype=np.uint64).view(float),  # every exponent, subnormals, nan and inf
        rng.uniform(1.0, 10.0, count) * 10.0 ** rng.integers(-300, 301, count),
        neighbours([float(f"1e{k}") for k in range(-300, 301)], 10),  # powers of ten, where log10 may be one off
        # 9.99...95e-style values round up into the next decade
        neighbours([float(f"9.99999999999999995e{k}") for k in range(-300, 301)], 40),
        neighbours([1e-280, 1e280], 20),
        # 2^-25 = 2.98023223876953125e-08 and its kin are exact ties at 17 digits, which round to even
        np.ldexp(np.array([1.0, 3.0, 5.0, 7.0, 9.0, 11.0])[:, None], np.arange(-1074, 1021)).ravel(),
        np.array([0.0, np.inf, np.nan]),
    ]
    x = np.concatenate(kinds).view(np.uint64)
    return (x ^ rng.choice(np.array([0, 2**63], dtype=np.uint64), x.size)).view(float)  # either sign, NaNs too


def test_every_float_cell_is_what_percent_prints():
    x = doubles()
    assert x.size >= 500_000
    width = 21  # a trajectory's columns, CSV_BLOCK_ROWS rows to a block
    x = np.append(x, np.zeros(-x.size % width)).reshape(-1, width)
    got = "".join(csv_lines(list(x[i : i + CSV_BLOCK_ROWS].T)) for i in range(0, len(x), CSV_BLOCK_ROWS))
    line = ",".join(["%.16e"] * width) + "\n"
    if got != "".join(map(line.__mod__, map(tuple, x.tolist()))):
        cells, values = got.replace("\n", ",").split(","), x.ravel().tolist()
        wrong = [(v, cell) for v, cell in zip(values, cells) if cell != "%.16e" % v]
        pytest.fail(f"{len(wrong)} cells differ from '%.16e', among them {wrong[:5]}")


@pytest.mark.parametrize("rows", [3, CSV_BLOCK_ROWS])
@pytest.mark.parametrize("layout", ["trajectory", "norm curve"])
def test_blocks_write_integer_and_empty_cells_as_percent_rows_do(rows, layout):
    rng = np.random.default_rng(rows)
    floats = list(rng.standard_normal((6, rows)) * 10.0 ** rng.integers(-20, 20, (6, rows)))
    floats[1][::7] = -0.0
    index = rng.integers(-(2**62), 2**62, rows)
    columns = floats[:4] + [index] + floats[4:] if layout == "trajectory" else floats[:3] + [None, None]
    line = ",".join("" if c is None else "%d" if c.dtype.kind == "i" else "%.16e" for c in columns) + "\n"
    want = "".join(line % cells for cells in zip(*(c.tolist() for c in columns if c is not None)))
    assert csv_lines(columns) == want
    # the small block goes through '%' alone, the full one through the vector pass
    assert (rows * sum(c is not None and c.dtype.kind == "f" for c in columns) >= _VECTOR_CELLS) == (rows > 3)
