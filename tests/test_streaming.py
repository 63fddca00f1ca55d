"""Grid kernels and the summaries read off the support of x: curves and trajectories match their per-point values."""

import json
import time
import tracemalloc
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from ergodiclab import cesaro, space
from ergodiclab.cesaro import (
    Support,
    cesaro_M,
    cesaro_T,
    curve_cesaro_M,
    curve_cesaro_T,
    geometric_grid,
    support_summaries,
)
from ergodiclab.cli import EXIT_OK, ExperimentConfig, cmd_cesaro, cmd_simulate, main
from ergodiclab.semigroups import grid_kernel, matrix_M, matrix_T
from ergodiclab.space import TruncatedVector, norm_l1, pair, row_stats
from rows import csv_text, signed_with_gaps, simulate_csv, sparse_vector, support_of

MEANS = {"M": (curve_cesaro_M, cesaro_M), "T": (curve_cesaro_T, cesaro_T)}
SEMIGROUPS = {"M": matrix_M, "T": matrix_T}


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
    curve = curve_of(rs, support_of(x))
    means = [mean(float(r), x) for r in rs]
    stats = np.array([reduce(v) for v in means])
    assert close(curve.values, stats[:, 0], stats[:, 0])
    assert np.array_equal(curve.max_coordinate, stats[:, 1])
    assert np.array_equal(curve.max_index, stats[:, 2].astype(int))
    assert close(curve.f_value, stats[:, 3], norm_l1(x))
    assert close(curve.steps, [norm_l1(b - a) for a, b in zip(means, means[1:])], norm_l1(x))
    lines = csv_text(curve).strip().split("\n")[1:]
    rows = zip(rs, curve.values, curve.trunc_error, curve.max_coordinate, curve.f_value, strict=True)
    for line, row in zip(lines, rows, strict=True):
        assert line == ",".join(f"{v:.16e}" for v in row)


@pytest.mark.parametrize("n", [1, 2, 257])
@pytest.mark.parametrize("subject", sorted(SEMIGROUPS))
def test_simulate_rows_equal_per_point_evaluation(tmp_path, subject, n):
    x = sparse_vector(n)
    lines = simulate_csv(tmp_path, subject, x, 9).decode().strip().split("\n")[1:]
    for line, t in zip(lines, np.linspace(0.0, 40.0, 9), strict=True):
        y = SEMIGROUPS[subject](float(t), n).apply(x)
        assert np.array_equal(y.coords, grid_kernel(x, subject == "T", mean=False)([t])[0])
        norm, top, index, fval = reduce(y)
        cells = line.split(",")
        # t, the largest coordinate, its index and coordinates 1..16 keep their bits
        assert cells[0] == f"{t:.16e}" and cells[3:5] == [f"{top:.16e}", str(index)]
        assert cells[5:] == [f"{v:.16e}" for v in y.coords[:16]]
        assert close(float(cells[1]), norm, norm) and close(float(cells[2]), fval, norm_l1(x))


def config_csvs(out, vector, n):
    """The bytes of the cesaro_curve.csv and trajectory.csv that cesaro and simulate on T write for ``vector``."""
    config = {"subject": "T", "N": n, "vector": vector, "r_grid": {"start": 0.25, "factor": 2.0, "count": 11},
              "t_grid": {"start": 0.0, "stop": 40.0, "count": 9}}
    out.mkdir()
    (out / "cfg.json").write_text(json.dumps(config))
    for command in ("cesaro", "simulate"):
        assert main([command, "--config", str(out / "cfg.json"), "--out", str(out)]) == EXIT_OK
    return (out / "cesaro_curve.csv").read_bytes(), (out / "trajectory.csv").read_bytes()


def summary_cells(trajectory):
    """The t and the summaries of each trajectory row, without its tracked coordinates."""
    return [line.split(b",")[:5] for line in trajectory.splitlines()]


@pytest.mark.parametrize("n", [257, 1024])
def test_the_config_support_drops_zero_entries_and_sorts_the_rest(tmp_path, n):
    listed = [[k + 1, v] for k, v in enumerate(signed_with_gaps(n).coords.tolist())]  # -0.0 at 4, +0.0 between
    nonzero = [[k, v] for k, v in listed if v]
    curve, trajectory = config_csvs(tmp_path / "nonzero", nonzero, n)
    for name, vector in (("every", listed), ("reversed", nonzero[::-1])):
        other_curve, other_trajectory = config_csvs(tmp_path / name, vector, n)
        assert other_curve == curve, name
        # a listed -0.0 keeps its sign in the tracked coordinates alone
        assert summary_cells(other_trajectory) == summary_cells(trajectory), name


N_MEM, NNZ = 65536, 60


def traced_peak(run) -> int:
    """The tracemalloc peak in bytes of ``run()``."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def memory_peaks(count, N=N_MEM):
    # tracemalloc peaks in bytes of the M and T curves and trajectories on NNZ nonzeros
    index = np.arange(8.0, N_MEM, 1093.0)[:NNZ]
    x = Support(N, index, np.resize([0.5, -0.25, 0.125], NNZ))
    rs = geometric_grid(1.0, 2048.0 ** (1.0 / (count - 1)), count)
    ts = np.linspace(0.0, 100.0, count)
    runs = {
        "M curve": lambda: curve_cesaro_M(rs, x),
        "T curve": lambda: curve_cesaro_T(rs, x),
        "M trajectory": lambda: deque(support_summaries(x, ts, perturbed=False, mean=False), maxlen=0),
        "T trajectory": lambda: deque(support_summaries(x, ts, perturbed=True, mean=False), maxlen=0),
    }
    return {name: traced_peak(run) for name, run in runs.items()}


def test_curve_and_trajectory_memory_do_not_grow_with_the_grid():
    # a block of grid points holds (block, width) arrays of at most _BLOCK_ELEMENTS doubles, ten
    # of them at most at once, and the support's arrays a few dozen doubles per nonzero
    limit = 10 * cesaro._BLOCK_ELEMENTS * 8 + 64 * NNZ * 8
    memory_peaks(50)  # the first run pays for lazy imports
    # the two blocks alive at once are full from about 410 points on: the narrowest, NNZ wide, hold 204 points
    small, large = memory_peaks(1000), memory_peaks(1450)
    for name in small:
        assert small[name] < limit and large[name] < limit, name
    # what may grow is a curve's table of five summaries per row and its trunc_error, 8 bytes
    # each and held twice while the curve is built, or the summaries a trajectory's caller keeps
    for name in small:
        assert large[name] - small[name] <= 2 * 6 * 450 * 8 + 4096, name
    # no array has N entries: at N = 2^22 an N-vector is 32 MB, and the peaks stay those at N = 65536
    wide = memory_peaks(1000, N=2**22)
    for name in small:
        assert abs(wide[name] - small[name]) <= 4096, name


def test_D_bisection_memory_does_not_grow_with_the_grid(monkeypatch):
    # D's bisection over a T curve's whole r grid at once held about 89 bytes per point; it runs _D_POINTS at a time
    x = Support(N_MEM, np.array([8.0, 1101.0, 20000.0, 65000.0]), np.array([0.5, -0.25, 0.125, 0.125]))
    bisect, peaks = cesaro._D_minima, {}

    def traced(r_grid, N):
        peaks[count] = max(peaks.get(count, 0), traced_peak(lambda: bisect(r_grid, N)))
        return bisect(r_grid, N)

    monkeypatch.setattr(cesaro, "_D_minima", traced)
    for count in (20_000, 100_000):
        rs = geometric_grid(1.0, 2048.0 ** (1.0 / (count - 1)), count)
        deque(support_summaries(x, rs, perturbed=True, mean=True), maxlen=0)
    assert peaks[100_000] <= peaks[20_000] + 1024, peaks


def test_D_bisection_in_chunks_keeps_the_bits_of_one_pass(monkeypatch):
    # chunks of 1000 points end inside blocks of 67 points, and each chunk but the first starts on the pair before it
    index = np.arange(8.0, N_MEM, 1093.0)[:NNZ]
    x = Support(N_MEM, index, np.resize([0.5, -0.25, 0.125], NNZ))
    rs = geometric_grid(1.0, 2048.0 ** (1.0 / 4999), 5000)
    table = {}
    for points in (1000, rs.size):
        monkeypatch.setattr(cesaro, "_D_POINTS", points)
        table[points] = np.concatenate([*support_summaries(x, rs, perturbed=True, mean=True)])
    assert table[1000].tobytes() == table[rs.size].tobytes()


def cap_config(subject, tmp_path, count=None):
    """A config at the M/T cap N = 2^26 with 4 nonzeros: r up to N, t up to 1e6, or ``count`` points of each."""
    N = 2**26
    return ExperimentConfig(subject=subject, N=N, vector=((1, 0.5), (1000, -0.25), (2**20, 0.125), (N, 0.125)),
                            r_grid=(1.0, 2.0, 27) if count is None else (1.0, (N / 2.0) ** (1.0 / count), count),
                            t_grid=(0.0, 1e6, 101 if count is None else count), out_dir=str(tmp_path))


@pytest.mark.parametrize("command", [cmd_cesaro, cmd_simulate], ids=["cesaro", "simulate"])
@pytest.mark.parametrize("subject", ["M", "T"])
def test_cap_runs_in_under_a_second_and_10_MB(tmp_path, subject, command):
    cfg = cap_config(subject, tmp_path)
    command(replace(cfg, N=64, vector=((1, 1.0),), r_grid=(1.0, 2.0, 6)))  # pays for lazy imports
    start = time.perf_counter()
    peak = traced_peak(lambda: command(cfg))
    assert time.perf_counter() - start < 1.0 and peak < 10e6, peak


@pytest.mark.parametrize("command", [cmd_cesaro, cmd_simulate], ids=["cesaro", "simulate"])
def test_command_memory_grows_by_the_per_point_summaries_alone(tmp_path, command):
    # the CSV goes out a block of rows at a time: what grows with the grid is the grid itself and, for a
    # curve, the 8 numbers it keeps per point (r, five summaries, trunc_error, max_index) and the 11 at
    # most that D's bisection over the grid, or the verdict's power-law fit, forms beside them; the CSV
    # lines of the whole grid, kept until the file was written, took over 300 bytes per point
    per_point = 8 if command is cmd_simulate else 19 * 8
    command(cap_config("T", tmp_path, 1000))  # pays for lazy imports and a first run of full CSV blocks
    small, large = (traced_peak(lambda: command(cap_config("T", tmp_path, count))) for count in (2000, 20000))
    assert large - small <= per_point * 18000 + 64 * 1024, (small, large)


@pytest.mark.parametrize("n", [1, 7, 1000, 65536])
def test_row_stats_keeps_the_bits_of_each_rows_own_reductions(n):
    # a block of rows goes through in passes of _BLOCK_ELEMENTS elements, or one row; here three passes or more
    rows = np.random.default_rng(n).uniform(-1.0, 1.0, (max(3, 2 * space._BLOCK_ELEMENTS // n + 1), n))
    want = [[np.abs(row).sum(), np.abs(row).max(), np.abs(row).argmax() + 1, row.sum()] for row in rows]
    assert row_stats(rows).tolist() == want


def test_row_stats_rejects_non_finite_rows():
    assert row_stats(np.array([[1.0, -3.0, 2.0], [0.0, 0.0, 0.0]])).tolist() == [[6.0, 3.0, 2, 0.0], [0.0, 0.0, 1, 0.0]]
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            row_stats(np.array([[1.0, 2.0, 3.0], [1.0, bad, 2.0]]))
