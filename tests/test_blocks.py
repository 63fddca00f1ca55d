"""Block evaluation: grid kernels return one (grid, N) array, and checks read the operator's structure.

Every row of a block must keep the bits of its one-point value: a trajectory row those of
``matrix_M/matrix_T(t, N).apply(x)``, a mean row those of the one-point formula in the operation
order the kernels have always used, where the coupling is divided by r after the prefix product.
The structure reads of ``verify`` must equal the dense reads (and eigenvalues) they replace, and
``StructuredOperator.apply_block`` on a block must equal ``apply`` row by row.
"""

import math
import tracemalloc

import numpy as np
import pytest

from ergodiclab import coeffs, semigroups, verification
from ergodiclab.cesaro import adaptive_simpson
from ergodiclab.semigroups import (
    grid_kernel,
    matrix_A,
    matrix_B,
    matrix_M,
    matrix_T,
    opnorm_l1,
)
from ergodiclab.space import TruncatedVector, basis_vector
from rows import one_point_mean, perturbation, signed_with_gaps

NS = [1, 2, 257, 1024]
TS = [0.0, 0.5, 7.0, 300.0, 1e4, 1e6]  # t = 1e6 underflows e^{-t/h} below h = 1342
RS = [1e-3, 0.05, 1.0, 30.0, 900.0, 8857.0]
MB = 2**20


@pytest.fixture(params=["gathered", "sliced"])
def on_grid(request):
    """Evaluate a grid kernel with the whole grid gathered into one call, or sliced into one call per point."""
    if request.param == "gathered":
        return lambda kernel, grid: kernel(grid)
    return lambda kernel, grid: np.concatenate([kernel([point]) for point in grid])


@pytest.mark.parametrize("perturbed", [False, True], ids=["M", "T"])
@pytest.mark.parametrize("n", NS)
def test_trajectory_block_rows_are_the_operator_action(on_grid, n, perturbed):
    x = signed_with_gaps(n)
    block = on_grid(grid_kernel(x, perturbed, mean=False), TS)
    assert block.shape == (len(TS), n) and block.flags.c_contiguous
    for t, row in zip(TS, block, strict=True):
        want = (matrix_T if perturbed else matrix_M)(t, n).apply(x).coords
        assert row.tobytes() == want.tobytes(), t


@pytest.mark.parametrize("perturbed", [False, True], ids=["C_M", "C_T"])
@pytest.mark.parametrize("n", NS)
def test_means_block_rows_are_the_one_point_means(on_grid, n, perturbed):
    x = signed_with_gaps(n)
    block = on_grid(grid_kernel(x, perturbed, mean=True), RS)
    assert block.shape == (len(RS), n) and block.flags.c_contiguous
    for r, row in zip(RS, block, strict=True):
        assert row.tobytes() == one_point_mean(r, x, perturbed).tobytes(), r


@pytest.mark.parametrize("mean", [True, False], ids=["means_kernel", "trajectory_kernel"])
def test_bad_grid_point_names_the_first(mean):
    name = "averaging length r must be > 0" if mean else "time t must be >= 0"
    with pytest.raises(ValueError, match=f"{name}, got -2.0"):
        grid_kernel(signed_with_gaps(8), True, mean)([0.5, -2.0, -1.0])


def test_simpson_refuses_an_integrand_of_the_wrong_shape():
    with pytest.raises(ValueError, match="shape"):
        adaptive_simpson(lambda nodes: np.ones((nodes.size + 1, 2)), 0.0, 1.0, 1e-9)
    with pytest.raises(ValueError, match="shape"):
        adaptive_simpson(lambda nodes: np.ones(nodes.size), 0.0, 1.0, 1e-9)


# --- the structure reads of verify ---

@pytest.mark.parametrize("n", NS)
def test_structure_reads_equal_the_dense_reads(n):
    for t in (0.01, 0.5, 1.0, 5.0):  # check_opnorm_M_minus_I
        op = matrix_M(t, n)
        assert np.abs(op.diag - 1.0).max() == opnorm_l1(op.dense() - np.eye(n))
    for t in (0.0, 0.3, 2.0, 50.0):  # check_opnorm_M_bounded
        op = matrix_M(t, n)
        assert np.abs(op.diag).max() == opnorm_l1(op.dense())
    for t in (0.0, 0.7, 3.0):  # check_nonnegativity
        for builder in (matrix_M, perturbation, matrix_T):
            op = builder(t, n)
            assert op.min_entry() == op.dense().min()
    signed = semigroups.StructuredOperator(-matrix_T(0.7, n).diag, -matrix_T(0.7, n).below)
    assert signed.min_entry() == signed.dense().min()
    assert matrix_B(n).min_entry() == matrix_B(n).dense().min()


@pytest.mark.parametrize("n", NS)
def test_dense_column_ranges_are_columns_of_the_whole_matrix(n):
    for op in (matrix_B(n), matrix_T(0.7, n), matrix_M(0.5, n)):
        below = np.zeros(n) if op.below is None else op.below
        whole = np.diag(op.diag) + np.tril(np.tile(below[:, None], (1, n)), -1)
        assert np.array_equal(op.dense(), whole)
        for start, stop in ((0, n), (0, min(64, n)), (n // 3, n // 2 + 1), (n - 1, n)):
            assert np.array_equal(op.dense(start, stop), whole[:, start:stop])


def dense_measurements(ctx):
    """The six measured values as the checks read them off dense matrices, eigenvalues and basis vectors."""
    n = ctx.small_N
    minus_I = max(0.0, *(abs(opnorm_l1(matrix_M(t, n).dense() - np.eye(n)) - (1.0 - math.exp(-t)))
                         for t in (0.01, 0.5, 1.0, 5.0)))
    bounded = max(0.0, *(opnorm_l1(matrix_M(t, n).dense()) for t in (0.0, 0.3, 2.0, 50.0)))
    negative = max(0.0, *(float(-builder(t, n).dense().min())
                          for t in (0.0, 0.7, 3.0) for builder in (matrix_M, perturbation, matrix_T)))
    op = matrix_B(n)
    entries = op.dense()
    if ctx.inject_corruption:
        entries[min(1, n - 1), 0] += 1e-3
    apart = max(0.0, *(float(np.abs(entries[:, k - 1] - op.apply(basis_vector(k, n)).coords).max())
                       for k in range(1, n + 1)))
    stochastic = 0.0
    for t in (0.5, 2.0):
        deficit = 1.0 - matrix_T(t, n).dense().sum(axis=0)
        hi = coeffs.tail_sum_b(n, t)
        stochastic = max(stochastic, float((-deficit).max()), float((deficit - hi).max()))
    m = min(ctx.N, 512)
    expected = np.sort(-1.0 / np.arange(1, m + 1, dtype=float))
    spectrum = max(float(np.abs(np.sort(np.linalg.eigvals(builder(m).dense()).real) - expected).max())
                   for builder in (matrix_A, matrix_B))
    spectrum = max(spectrum, abs(float(np.abs(np.diag(matrix_B(m).dense())).min()) - 1.0 / m))
    return [minus_I, bounded, negative, apart, stochastic, spectrum]


@pytest.mark.parametrize("corrupt", [False, True], ids=["clean", "corrupted"])
@pytest.mark.parametrize("n", NS)
def test_checks_measure_what_the_dense_reads_measured(n, corrupt):
    ctx = verification._Context(n, 7, 1e-10, 1e-2, corrupt)
    checks = (verification.check_opnorm_M_minus_I, verification.check_opnorm_M_bounded,
              verification.check_nonnegativity, verification.check_matrix_B_consistency,
              verification.check_column_stochasticity, verification.check_spectrum)
    got = [check(ctx).measured for check in checks]
    assert np.array(got).tobytes() == np.array(dense_measurements(ctx)).tobytes()


@pytest.mark.parametrize("n", NS)
def test_block_action_equals_the_vector_action(n):
    rng = np.random.default_rng(n)
    block = np.concatenate((np.eye(n), rng.uniform(-1.0, 1.0, (3, n))))
    for op in (matrix_B(n), matrix_T(0.7, n), matrix_M(2.0, n), matrix_A(n)):
        images = op.apply_block(block)
        assert images.shape == block.shape
        for row, image in zip(block, images, strict=True):
            assert image.tobytes() == op.apply(TruncatedVector(row)).coords.tobytes()


@pytest.mark.parametrize(
    "check, limit",
    [
        (verification.check_opnorm_M_minus_I, 1 * MB),
        (verification.check_opnorm_M_bounded, 1 * MB),
        (verification.check_nonnegativity, 1 * MB),
        # B's entries 64 columns at a time: eight 1024 x 64 blocks, half a dense 1024 x 1024 matrix (3.1 MB measured)
        (verification.check_matrix_B_consistency, 4 * MB),
        (verification.check_column_stochasticity, 1 * MB),
        (verification.check_spectrum, 3 * MB),  # one dense 512 x 512 matrix at a time, read in place
        # the accepted Simpson terms by level and in one array sorted by left end: 5.3 MB measured, and 6.8 MB
        # when the sort went through a concatenated copy, an indexed copy and a stacked one
        (verification.check_oracle_cesaro_T, 6 * MB),
    ],
    ids=lambda v: getattr(v, "__name__", ""),
)
def test_structure_checks_build_no_dense_matrix(check, limit):
    ctx = verification._Context(4096, 7, 1e-10, 1e-2, False)
    assert ctx.small_N == 1024
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        check(ctx)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < limit
