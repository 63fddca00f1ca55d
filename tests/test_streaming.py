"""Grid kernels: curves and trajectories equal their per-point values exactly, in O(N) memory."""

import json
import tracemalloc

import numpy as np
import pytest

from ergodiclab.cesaro import (
    cesaro_M,
    cesaro_T,
    curve_cesaro_M,
    curve_cesaro_T,
    geometric_grid,
)
from ergodiclab.cli import EXIT_OK, main
from ergodiclab.coeffs import integral_b_row
from ergodiclab.semigroups import apply_M, apply_T, matrix_M, matrix_T, trajectory_kernel
from ergodiclab.space import DualFunctional, TruncatedVector, norm_l1, pair, row_stats

F = DualFunctional.constant_one()
MEANS = {"M": (curve_cesaro_M, cesaro_M), "T": (curve_cesaro_T, cesaro_T)}
SEMIGROUPS = {"M": (apply_M, matrix_M), "T": (apply_T, matrix_T)}


def sparse_vector(n, seed=17):
    rng = np.random.default_rng(seed)
    coords = np.zeros(n)
    k = max(1, n // 8)
    coords[rng.choice(n, k, replace=False)] = rng.uniform(-1.0, 1.0, k)
    return TruncatedVector(coords)


def reduce(v: TruncatedVector):
    """What a curve or trajectory row keeps of a vector, reduced the long way."""
    a = np.abs(v.coords)
    return norm_l1(v), float(a.max()), int(a.argmax()) + 1, pair(F, v)


@pytest.mark.parametrize("n", [1, 2, 257])
@pytest.mark.parametrize("subject", sorted(MEANS))
def test_curve_equals_per_point_means(subject, n):
    curve_of, mean = MEANS[subject]
    x = sparse_vector(n)
    rs = geometric_grid(0.5, 1.7, 12)
    curve = curve_of(rs, x)
    means = [mean(float(r), x) for r in rs]
    stats = np.array([reduce(v) for v in means])
    assert np.array_equal(curve.values, stats[:, 0])
    assert np.array_equal(curve.max_coordinate, stats[:, 1])
    assert np.array_equal(curve.max_index, stats[:, 2].astype(int))
    assert np.array_equal(curve.f_value, stats[:, 3])
    assert np.array_equal(curve.steps, [norm_l1(b - a) for a, b in zip(means, means[1:])])
    lines = curve.to_csv().strip().split("\n")[1:]
    for line, r, (norm, top, _, fval), err in zip(lines, rs, stats, curve.trunc_error, strict=True):
        assert line == ",".join(f"{v:.16e}" for v in (r, norm, err, top, fval))


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
    config = {
        "subject": subject,
        "N": n,
        "vector": [[k + 1, v] for k, v in enumerate(x.coords.tolist()) if v],
        "r_grid": {"start": 0.25, "factor": 2.0, "count": 2},
        "t_grid": {"start": 0.0, "stop": 40.0, "count": 9},
    }
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert main(["simulate", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / "trajectory.csv").read_text().strip().split("\n")[1:]
    for line, t in zip(lines, np.linspace(0.0, 40.0, 9), strict=True):
        y = apply(float(t), x)
        assert np.array_equal(y.coords, matrix(float(t), n).apply(x).coords)
        norm, top, index, fval = reduce(y)
        want = [f"{v:.16e}" for v in (t, norm, fval, top)] + [str(index)]
        want += [f"{v:.16e}" for v in y.coords[:16]]
        assert line == ",".join(want)


N_MEM = 4096


def memory_peaks(count):
    # tracemalloc peaks in bytes of curve_cesaro_T and of the T trajectory
    x = sparse_vector(N_MEM)
    rs = geometric_grid(1.0, 2048.0 ** (1.0 / (count - 1)), count)
    ts = np.linspace(0.0, 100.0, count)
    tracemalloc.start()
    try:
        curve_cesaro_T(rs, x)
        _, curve_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        scratch = np.empty(N_MEM)
        for y in trajectory_kernel(x, perturbed=True)(ts):
            row_stats(y, scratch)
        _, trajectory_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return curve_peak, trajectory_peak


def test_curve_and_trajectory_memory_do_not_grow_with_the_grid():
    # a grid kernel holds a fixed number of N-vectors, however many points it
    # samples (measured: T curve 7.2 / 7.8, T trajectory 7.1 / 7.1 N-vectors at
    # 50 / 500 points); 10 N-vectors leaves room for a stray temporary
    vector = N_MEM * 8
    curve_50, trajectory_50 = memory_peaks(50)
    curve_500, trajectory_500 = memory_peaks(500)
    for peak in (curve_50, curve_500, trajectory_50, trajectory_500):
        assert peak < 10 * vector
    # what may grow is the curve's six per-row summaries (values, steps, max,
    # argmax, f value, trunc_error) of 8 bytes each, plus a page of slack
    assert curve_500 - curve_50 <= 6 * 450 * 8 + 4096
    assert trajectory_500 - trajectory_50 <= 4096


def test_row_stats_rejects_non_finite_rows():
    scratch = np.empty(3)
    assert row_stats(np.array([1.0, -3.0, 2.0]), scratch) == (6.0, 3.0, 2, 0.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            row_stats(np.array([1.0, bad, 2.0]), scratch)
