"""Grid kernels and the summaries read off the support of x: curves and trajectories match their per-point values."""

import tracemalloc
from collections import deque

import numpy as np
import pytest

from ergodiclab.cesaro import (
    cesaro_M,
    cesaro_T,
    curve_cesaro_M,
    curve_cesaro_T,
    geometric_grid,
    support_summaries,
)
from ergodiclab.coeffs import integral_b_row
from ergodiclab.semigroups import apply_M, apply_T, matrix_M, matrix_T
from ergodiclab.space import TruncatedVector, norm_l1, pair, row_stats
from rows import simulate_csv, sparse_vector

MEANS = {"M": (curve_cesaro_M, cesaro_M), "T": (curve_cesaro_T, cesaro_T)}
SEMIGROUPS = {"M": (apply_M, matrix_M), "T": (apply_T, matrix_T)}


def reduce(v: TruncatedVector):
    """What a curve or trajectory row keeps of a vector, reduced the long way."""
    a = np.abs(v.coords)
    return norm_l1(v), float(a.max()), int(a.argmax()) + 1, pair(np.ones(v.dim), v)


# the summaries sum a row in another order than its reduction: norms and maxima within this relative
# distance, f values and steps within it times ||x||_1; the largest coordinate keeps its bits
PIN = 1e-13


def close(got, want, scale):
    return np.all(np.abs(np.asarray(got) - np.asarray(want)) <= PIN * np.asarray(scale))


@pytest.mark.parametrize("n", [1, 2, 257])
@pytest.mark.parametrize("subject", sorted(MEANS))
def test_curve_equals_per_point_means(subject, n):
    curve_of, mean = MEANS[subject]
    x = sparse_vector(n)
    rs = geometric_grid(0.5, 1.7, 12)
    curve = curve_of(rs, x)
    means = [mean(float(r), x) for r in rs]
    stats = np.array([reduce(v) for v in means])
    assert close(curve.values, stats[:, 0], stats[:, 0])
    assert np.array_equal(curve.max_coordinate, stats[:, 1])
    assert np.array_equal(curve.max_index, stats[:, 2].astype(int))
    assert close(curve.f_value, stats[:, 3], norm_l1(x))
    assert close(curve.steps, [norm_l1(b - a) for a, b in zip(means, means[1:])], norm_l1(x))
    lines = curve.to_csv().strip().split("\n")[1:]
    rows = zip(rs, curve.values, curve.trunc_error, curve.max_coordinate, curve.f_value, strict=True)
    for line, row in zip(lines, rows, strict=True):
        assert line == ",".join(f"{v:.16e}" for v in row)


@pytest.mark.parametrize("n", [1, 2, 257])
def test_means_keep_their_closed_forms(n):
    # the expm1 pass shared by the diagonal and integral_b gives the bits of the direct forms
    x = sparse_vector(n)
    h = np.arange(1, n + 1, dtype=float)
    for r in geometric_grid(0.5, 1.7, 12):
        direct = (h / r) * -np.expm1(-r / h) * x.coords
        assert np.array_equal(cesaro_M(r, x).coords, direct)
        if n > 1:
            direct[1:] += np.cumsum(x.coords)[:-1] * integral_b_row(r, n)[1:] / r
        assert np.array_equal(cesaro_T(r, x).coords, direct)


@pytest.mark.parametrize("n", [1, 2, 257])
@pytest.mark.parametrize("subject", sorted(SEMIGROUPS))
def test_simulate_rows_equal_per_point_evaluation(tmp_path, subject, n):
    apply, matrix = SEMIGROUPS[subject]
    x = sparse_vector(n)
    lines = simulate_csv(tmp_path, subject, x, 9).decode().strip().split("\n")[1:]
    for line, t in zip(lines, np.linspace(0.0, 40.0, 9), strict=True):
        y = apply(float(t), x)
        assert np.array_equal(y.coords, matrix(float(t), n).apply(x).coords)
        norm, top, index, fval = reduce(y)
        cells = line.split(",")
        # t, the largest coordinate, its index and coordinates 1..16 keep their bits
        assert cells[0] == f"{t:.16e}" and cells[3:5] == [f"{top:.16e}", str(index)]
        assert cells[5:] == [f"{v:.16e}" for v in y.coords[:16]]
        assert close(float(cells[1]), norm, norm) and close(float(cells[2]), fval, norm_l1(x))


N_MEM = 65536


def memory_peaks(count):
    # tracemalloc peaks in bytes of the M and T curves and trajectories on 60 nonzeros
    coords = np.zeros(N_MEM)
    coords[7::1093] = np.resize([0.5, -0.25, 0.125], 60)
    x = TruncatedVector(coords)
    rs = geometric_grid(1.0, 2048.0 ** (1.0 / (count - 1)), count)
    ts = np.linspace(0.0, 100.0, count)
    runs = {
        "M curve": lambda: curve_cesaro_M(rs, x),
        "T curve": lambda: curve_cesaro_T(rs, x),
        "M trajectory": lambda: deque(support_summaries(x, ts, perturbed=False, mean=False), maxlen=0),
        "T trajectory": lambda: deque(support_summaries(x, ts, perturbed=True, mean=False), maxlen=0),
    }
    peaks = {}
    for name, run in runs.items():
        tracemalloc.start()
        try:
            run()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks


def test_curve_and_trajectory_memory_do_not_grow_with_the_grid():
    # the summaries hold arrays the size of the support of x, never an N-vector; the one
    # N-length temporary is the |x| of norm_l1(x), which scales the T curve's trunc_error
    vector = N_MEM * 8
    memory_peaks(50)  # the first run pays for lazy imports
    small, large = memory_peaks(50), memory_peaks(500)
    for name in small:
        limit = vector + 4096 if name == "T curve" else vector
        assert small[name] < limit and large[name] < limit, name
    # what may grow is a curve's table of five summaries per row and its trunc_error, 8 bytes
    # each and held twice while the curve is built, or the summaries a trajectory's caller keeps
    for name in small:
        assert large[name] - small[name] <= 2 * 6 * 450 * 8 + 4096, name


def test_row_stats_rejects_non_finite_rows():
    scratch = np.empty(3)
    assert row_stats(np.array([1.0, -3.0, 2.0]), scratch) == (6.0, 3.0, 2, 0.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            row_stats(np.array([1.0, bad, 2.0]), scratch)
