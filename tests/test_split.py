"""M/T kernels against the direct formulas, and curves and trajectories that keep their bits for any CPU count.

No M/T code path reads the CPU count: these tests pin that a curve, its CSV, its Cauchy verdict and
the ``simulate`` CSV keep their bytes with the process pinned to 1, 2, 3 or 7 CPUs (as many as it
may use), and that an error late in a grid raises the first bad point's error on the calling thread.
The module is being folded into ``test_blocks.py`` and ``test_summaries.py`` a few tests at a time.
"""

import numpy as np
import pytest

from ergodiclab.cesaro import (
    cesaro_M,
    cesaro_T,
    curve_cesaro_M,
    curve_cesaro_T,
    geometric_grid,
)
from ergodiclab.diagnostics import cauchy_convergence_test
from ergodiclab.semigroups import grid_kernel, matrix_M, matrix_T
from ergodiclab.space import TruncatedVector
from rows import (
    csv_text, on_cpus, one_point_mean, one_point_orbit, raised, same_bits, simulate_csv, sparse_vector, support_of,
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
    # gathered: every grid point in one kernel call; sliced: the one-point means and the operators' actions
    x = TruncatedVector(np.array(EDGE_VECTORS[name]))
    rs = geometric_grid(1e-3, 3.0, 8)
    ts = np.linspace(0.0, 40.0, 6).tolist()
    if calls == "gathered":
        means = zip(grid_kernel(x, False, mean=True)(rs), grid_kernel(x, True, mean=True)(rs))
        orbits = zip(grid_kernel(x, False, mean=False)(ts), grid_kernel(x, True, mean=False)(ts))
    else:
        means = ((cesaro_M(r, x).coords, cesaro_T(r, x).coords) for r in rs)
        orbits = ((matrix_M(t, x.dim).apply(x).coords, matrix_T(t, x.dim).apply(x).coords) for t in ts)
    for r, (mean_M, mean_T) in zip(rs, means, strict=True):
        assert same_bits(mean_M, one_point_mean(r, x, perturbed=False))
        assert same_bits(mean_T, one_point_mean(r, x, perturbed=True))
    for t, (orbit_M, orbit_T) in zip(ts, orbits, strict=True):
        assert same_bits(orbit_M, one_point_orbit(t, x, perturbed=False))
        assert same_bits(orbit_T, one_point_orbit(t, x, perturbed=True))


@pytest.mark.parametrize("subject", sorted(CURVES))
def test_bad_r_in_a_later_piece_raises_as_in_a_serial_run(subject):
    rs = geometric_grid(0.5, 1.5, 20)
    rs[9], rs[15] = -2.0, -1.0  # two bad points past the start of the grid; a serial run meets -2.0
    assert raised(lambda: CURVES[subject](rs, support_of(sparse_vector(64)))) == (
        ValueError, "averaging length r must be > 0, got -2.0")
