"""M/T kernels against the direct formulas, and curves and trajectories that keep their bits for any CPU count.

No M/T code path reads the CPU count (``verification.run_all`` alone does, and
``tests/test_verification.py`` pins its results): these tests pin that a curve, its CSV, its Cauchy
verdict and the ``simulate`` CSV keep their bytes whatever ``os.sched_getaffinity``
reports, and that an error late in a grid raises what a one-CPU run raises, on the
calling thread.
"""

import json
import os
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
    means_kernel,
)
from ergodiclab.cli import EXIT_OK, ExperimentConfig, cmd_simulate, main
from ergodiclab.diagnostics import cauchy_convergence_test
from ergodiclab.semigroups import apply_M, apply_T, trajectory_kernel
from ergodiclab.space import TruncatedVector

CURVES = {"M": curve_cesaro_M, "T": curve_cesaro_T}
FIELDS = ("r_grid", "trunc_error", "values", "steps", "max_coordinate", "max_index", "f_value")


def sparse_vector(n, seed=17):
    rng = np.random.default_rng(seed)
    coords = np.zeros(n)
    k = max(1, n // 8)
    coords[rng.choice(n, k, replace=False)] = rng.uniform(-1.0, 1.0, k)
    return TruncatedVector(coords)


@pytest.fixture
def cpus(monkeypatch):
    """Set how many CPUs the process may use."""
    def use(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)

    return use


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def simulate_csv(tmp_path, subject, x, ts):
    config = {
        "subject": subject,
        "N": x.dim,
        "vector": [[k + 1, v] for k, v in enumerate(x.coords.tolist()) if v],
        "r_grid": {"start": 0.25, "factor": 2.0, "count": 2},
        "t_grid": {"start": 0.0, "stop": 40.0, "count": ts},
    }
    tmp_path.mkdir()
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert main(["simulate", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)]) == EXIT_OK
    return (tmp_path / "trajectory.csv").read_bytes()


@pytest.mark.parametrize("count", [1, 2, 5, 13])
@pytest.mark.parametrize("n", [1, 2, 257])
@pytest.mark.parametrize("subject", sorted(CURVES))
def test_curves_and_trajectories_keep_their_bytes_for_any_cpu_count(tmp_path, cpus, subject, n, count):
    x = sparse_vector(n)
    rs = geometric_grid(0.5, 1.7, count)
    results = {}
    for k in (1, 2, 3, 7):
        cpus(k)
        curve = CURVES[subject](rs, x)
        verdict = cauchy_convergence_test(curve, 1, 1e-2).to_json() if count >= 2 else None
        results[k] = curve, curve.to_csv(), verdict, simulate_csv(tmp_path / str(k), subject, x, count)
    serial, csv, verdict, trajectory = results[1]
    for k in (2, 3, 7):
        curve = results[k][0]
        for name in FIELDS:
            assert same_bits(getattr(curve, name), getattr(serial, name)), (k, name)
        assert results[k][1:] == (csv, verdict, trajectory)


def direct_M(r, x):
    # the parent formula, in its operation order: ((h/r) * -expm1(-r/h)) * x
    h = np.arange(1, x.dim + 1, dtype=float)
    return (h / r) * -np.expm1(-r / h) * x.coords


def direct_T(r, x):
    h = np.arange(1, x.dim + 1, dtype=float)
    row = direct_M(r, x)
    if x.dim > 1:
        he = h * np.expm1(-r / h)
        row[1:] += (he[:-1] - he[1:]) * np.cumsum(x.coords)[:-1] / r
    return row


def direct_trajectory(t, x, perturbed):
    h = np.arange(1, x.dim + 1, dtype=float)
    decay = np.exp(-t / h)
    row = decay * x.coords
    if perturbed and x.dim > 1:
        pairs = h[1:] * (h[1:] - 1)
        row[1:] += -np.expm1(-t / pairs) * decay[1:] * np.cumsum(x.coords)[:-1]
    return row


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
        means = zip(means_kernel(x, False)(rs), means_kernel(x, True)(rs))
        orbits = zip(trajectory_kernel(x, False)(ts), trajectory_kernel(x, True)(ts))
    else:
        means = ((cesaro_M(r, x).coords, cesaro_T(r, x).coords) for r in rs)
        orbits = ((apply_M(t, x).coords, apply_T(t, x).coords) for t in ts)
    for r, (mean_M, mean_T) in zip(rs, means, strict=True):
        assert same_bits(mean_M, direct_M(r, x))
        assert same_bits(mean_T, direct_T(r, x))
    for t, (orbit_M, orbit_T) in zip(ts, orbits, strict=True):
        assert same_bits(orbit_M, direct_trajectory(t, x, perturbed=False))
        assert same_bits(orbit_T, direct_trajectory(t, x, perturbed=True))


def test_full_support_opnorm_equals_the_direct_formula():
    rs = geometric_grid(0.5, 2.0, 12)
    ones = TruncatedVector(np.ones(1024))
    want = [direct_M(r, ones).max() for r in rs]
    assert same_bits(curve_cesaro_M_opnorm(rs, 1024).values, want)


def serial_and_split(cpus, run):
    """The exception ``run`` raises on one CPU, then on seven; no thread may outlive the call."""
    raised = []
    before = threading.active_count()
    for k in (1, 7):
        cpus(k)
        with pytest.raises(Exception) as info:
            run()
        raised.append((type(info.value), str(info.value)))
        assert threading.active_count() == before
    return raised


@pytest.mark.parametrize("subject", sorted(CURVES))
def test_bad_r_in_a_later_piece_raises_as_in_a_serial_run(cpus, subject):
    rs = geometric_grid(0.5, 1.5, 20)
    rs[9], rs[15] = -2.0, -1.0  # two bad points past the start of the grid; a serial run meets -2.0
    first, split = serial_and_split(cpus, lambda: CURVES[subject](rs, sparse_vector(64)))
    assert first == split == (ValueError, "averaging length r must be > 0, got -2.0")


def poison(monkeypatch, name, at):
    """Make the support rows of ``cesaro.<name>``, formed a block of grid points at a time, NaN from ``at`` on."""
    real = getattr(cesaro, name)

    def rows(*args):
        start = 0
        for y, *rest in real(*args):
            points = np.arange(start, start + len(y))[:, None]
            start += len(y)
            yield np.where(points >= at, np.nan, y), *rest

    monkeypatch.setattr(cesaro, name, rows)


def test_nan_row_in_a_later_piece_raises_as_in_a_serial_run(cpus, monkeypatch, tmp_path):
    x = TruncatedVector(np.eye(1, 32).ravel())
    rs = geometric_grid(0.5, 1.1, 20)
    poison(monkeypatch, "_mean_rows", 15)
    first, split = serial_and_split(cpus, lambda: curve_cesaro_M(rs, x))
    assert first == split == (ValueError, "coords must be finite (no NaN/inf)")

    cfg = ExperimentConfig(subject="T", N=32, r_grid=(0.5, 2.0, 2), t_grid=(0.0, 19.0, 20), out_dir=str(tmp_path))
    poison(monkeypatch, "_trajectory_rows", 15)
    first, split = serial_and_split(cpus, lambda: cmd_simulate(cfg))
    assert first == split == (ValueError, "coords must be finite (no NaN/inf)")
    assert not (tmp_path / "trajectory.csv").exists()
