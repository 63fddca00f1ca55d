"""M/T kernels against the direct formulas, and curves and trajectories that keep their bits for any CPU count.

No M/T code path reads the CPU count: these tests pin that a curve, its CSV, its Cauchy verdict and
the ``simulate`` CSV keep their bytes with the process pinned to 1, 2, 3 or 7 CPUs (as many as it
may use), and that an error late in a grid raises the first bad point's error on the calling thread.
"""

import threading

import numpy as np
import pytest

from ergodiclab import cesaro
from ergodiclab.cesaro import (
    cesaro_M,
    cesaro_T,
    curve_cesaro_M,
    curve_cesaro_M_opnorm,
    curve_cesaro_T,
    geometric_grid,
)
from ergodiclab.cli import ExperimentConfig, cmd_simulate
from ergodiclab.diagnostics import cauchy_convergence_test
from ergodiclab.semigroups import apply_M, apply_T, grid_kernel
from ergodiclab.space import TruncatedVector
from rows import (
    csv_text, on_cpus, one_point_mean, one_point_orbit, same_bits, simulate_csv, sparse_vector, support_of,
)

CURVES = {"M": curve_cesaro_M, "T": curve_cesaro_T}
FIELDS = ("r_grid", "trunc_error", "values", "steps", "max_coordinate", "max_index", "f_value")


@pytest.mark.parametrize("count", [1, 2, 5, 13])
@pytest.mark.parametrize("n", [1, 2, 257])
@pytest.mark.parametrize("subject", sorted(CURVES))
def test_curves_and_trajectories_keep_their_bytes_for_any_cpu_count(tmp_path, subject, n, count):
    x = sparse_vector(n)
    rs = geometric_grid(0.5, 1.7, count)
    results = {}
    for k in (1, 2, 3, 7):
        with on_cpus(k):
            curve = CURVES[subject](rs, support_of(x))
            verdict = cauchy_convergence_test(curve, 1, 1e-2).to_json() if count >= 2 else None
            results[k] = curve, csv_text(curve), verdict, simulate_csv(tmp_path / str(k), subject, x, count)
    serial, csv, verdict, trajectory = results[1]
    for k in (2, 3, 7):
        curve = results[k][0]
        for name in FIELDS:
            assert same_bits(getattr(curve, name), getattr(serial, name)), (k, name)
        assert results[k][1:] == (csv, verdict, trajectory)


EDGE_VECTORS = {
    # explicit +0.0 and -0.0 entries after a negative prefix sum: at t = 0 the
    # coupling there is -0.0, and the diagonal's +0.0 must win as before
    "explicit_zeros": [-1.0, 0.0, -0.0, 0.25, 0.0, -0.0, 0.0, 0.0],
    "minus_zero_N1": [-0.0],
    "support_after_zeros": [-0.0, 0.0, 0.75, 0.0, -0.5, 0.0],
    "zero_vector": [0.0] * 9,
    "dense": np.random.default_rng(3).uniform(-1.0, 1.0, 300).tolist(),
}


@pytest.mark.parametrize("calls", ["gathered", "sliced"])
@pytest.mark.parametrize("name", sorted(EDGE_VECTORS))
def test_support_aware_rows_equal_the_direct_formulas(name, calls):
    # gathered: every grid point in one kernel call; sliced: the one-point calls
    x = TruncatedVector(np.array(EDGE_VECTORS[name]))
    rs = geometric_grid(1e-3, 3.0, 8)
    ts = np.linspace(0.0, 40.0, 6).tolist()
    if calls == "gathered":
        means = zip(grid_kernel(x, False, mean=True)(rs), grid_kernel(x, True, mean=True)(rs))
        orbits = zip(grid_kernel(x, False, mean=False)(ts), grid_kernel(x, True, mean=False)(ts))
    else:
        means = ((cesaro_M(r, x).coords, cesaro_T(r, x).coords) for r in rs)
        orbits = ((apply_M(t, x).coords, apply_T(t, x).coords) for t in ts)
    for r, (mean_M, mean_T) in zip(rs, means, strict=True):
        assert same_bits(mean_M, one_point_mean(r, x, perturbed=False))
        assert same_bits(mean_T, one_point_mean(r, x, perturbed=True))
    for t, (orbit_M, orbit_T) in zip(ts, orbits, strict=True):
        assert same_bits(orbit_M, one_point_orbit(t, x, perturbed=False))
        assert same_bits(orbit_T, one_point_orbit(t, x, perturbed=True))


def test_full_support_opnorm_equals_the_direct_formula():
    rs = geometric_grid(0.5, 2.0, 12)
    ones = TruncatedVector(np.ones(1024))
    want = [one_point_mean(r, ones, perturbed=False).max() for r in rs]
    assert same_bits(curve_cesaro_M_opnorm(rs, 1024).values, want)


def raised(run):
    """The type and message of what ``run`` raises; no thread may outlive the call."""
    before = threading.active_count()
    with pytest.raises(Exception) as info:
        run()
    assert threading.active_count() == before
    return type(info.value), str(info.value)


@pytest.mark.parametrize("subject", sorted(CURVES))
def test_bad_r_in_a_later_piece_raises_as_in_a_serial_run(subject):
    rs = geometric_grid(0.5, 1.5, 20)
    rs[9], rs[15] = -2.0, -1.0  # two bad points past the start of the grid; a serial run meets -2.0
    assert raised(lambda: CURVES[subject](rs, support_of(sparse_vector(64)))) == (
        ValueError, "averaging length r must be > 0, got -2.0")


def poison(monkeypatch, name, at):
    """Make the support rows of ``cesaro.<name>``, formed a block of grid points at a time, NaN from grid value ``at``.

    A value, not an index: ``cmd_simulate`` summarises its grid in pieces, each a grid of its own.
    """
    real = getattr(cesaro, name)

    def rows(*args):
        start, grid = 0, args[6]
        for y, *rest in real(*args):
            points = grid[start : start + len(y), None]
            start += len(y)
            yield np.where(points >= at, np.nan, y), *rest

    monkeypatch.setattr(cesaro, name, rows)


def test_nan_row_in_a_later_piece_raises_as_in_a_serial_run(monkeypatch, tmp_path):
    x = TruncatedVector(np.eye(1, 32).ravel())
    rs = geometric_grid(0.5, 1.1, 20)
    poison(monkeypatch, "_mean_rows", rs[15])
    assert raised(lambda: curve_cesaro_M(rs, support_of(x))) == (ValueError, "coords must be finite (no NaN/inf)")

    cfg = ExperimentConfig(subject="T", N=32, r_grid=(0.5, 2.0, 2), t_grid=(0.0, 19.0, 20), out_dir=str(tmp_path))
    poison(monkeypatch, "_trajectory_rows", 15.0)
    assert raised(lambda: cmd_simulate(cfg)) == (ValueError, "coords must be finite (no NaN/inf)")
    assert not (tmp_path / "trajectory.csv").exists()


def test_a_bad_point_in_a_later_csv_block_leaves_no_file(monkeypatch, tmp_path):
    # the blocks before the bad point have gone out to a temporary sibling, which the error removes unpublished;
    # 16 nonzeros, each before a gap, give rows of 80 elements: blocks of _BLOCK_ELEMENTS // 80 points, two CSV blocks
    count = 2 * cesaro.CSV_BLOCK_ROWS + 5
    cfg = ExperimentConfig(subject="T", N=64, vector=tuple((k, 1.0) for k in range(1, 65, 4)), r_grid=(0.5, 2.0, 2),
                           t_grid=(0.0, 40.0, count), out_dir=str(tmp_path))
    poison(monkeypatch, "_trajectory_rows", 40.0)
    with pytest.raises(ValueError, match="coords must be finite"):
        cmd_simulate(cfg)
    assert list(tmp_path.iterdir()) == []
