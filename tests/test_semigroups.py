"""Tests for the truncated semigroup operators and their structure."""

import io
import math
import time
import tracemalloc

import numpy as np
import pytest

from ergodiclab import semigroups
from ergodiclab.coeffs import b, tail_sum_b
from ergodiclab.semigroups import (
    StructuredOperator,
    adjoint_residual_vector,
    apply_M,
    apply_T,
    from_sparse_triples,
    kernel_B,
    matrix_A,
    matrix_A_inverse,
    matrix_B,
    matrix_M,
    matrix_T,
    opnorm_l1,
    to_sparse_triples,
)
from ergodiclab.space import (
    TruncatedVector,
    basis_vector,
    norm_l1,
    pair,
)
from rows import perturbation


def rand_vec(rng, n):
    return TruncatedVector(rng.uniform(-1, 1, n))


def triples_text(op):
    buf = io.StringIO()
    to_sparse_triples(op, buf)
    return buf.getvalue()


# --- diagonal semigroup M and generator A ---

def test_M_at_zero_is_identity():
    rng = np.random.default_rng(1)
    x = rand_vec(rng, 12)
    assert np.array_equal(apply_M(0.0, x).coords, x.coords)


def test_M_on_basis_vector():
    y = apply_M(1.0, basis_vector(2, 5))
    expected = math.exp(-0.5)
    assert y.coords[1] == pytest.approx(0.6065306597126334, abs=1e-16)
    assert y.coords[1] == expected
    assert np.all(y.coords[[0, 2, 3, 4]] == 0.0)


def test_M_contraction_toward_identity():
    rng = np.random.default_rng(2)
    for t in (0.01, 0.5, 1.0, 4.0):
        for _ in range(20):
            x = rand_vec(rng, 30)
            drift = norm_l1(apply_M(t, x) - x)
            assert drift <= (1 - math.exp(-t)) * norm_l1(x) + 1e-14


def test_M_rejects_negative_time():
    with pytest.raises(ValueError):
        apply_M(-1e-9, basis_vector(1, 2))
    # a NaN t is refused too, not turned into NaN entries (or a T whose power scan reads inf)
    for call in (lambda: apply_M(math.nan, basis_vector(1, 2)), lambda: apply_T(math.nan, basis_vector(1, 2)),
                 lambda: matrix_M(math.nan, 2), lambda: matrix_T(math.nan, 2)):
        with pytest.raises(ValueError, match="time t must be >= 0, got nan"):
            call()


def test_A_on_basis_vectors():
    A = matrix_A(4)
    assert np.array_equal(A.apply(basis_vector(1, 4)).coords, [-1.0, 0, 0, 0])
    y = A.apply(basis_vector(3, 4))
    assert y.coords[2] == pytest.approx(-1.0 / 3.0, abs=1e-17)


def test_A_is_derivative_of_M_at_zero():
    rng = np.random.default_rng(3)
    eps = 1e-6
    A = matrix_A(25)
    for _ in range(10):
        x = rand_vec(rng, 25)
        fd = (1.0 / eps) * (apply_M(eps, x) - x)
        assert norm_l1(fd - A.apply(x)) <= eps * norm_l1(x)


def test_A_inverse_examples():
    assert np.array_equal(matrix_A_inverse(3).apply(basis_vector(1, 3)).coords, [-1.0, 0, 0])
    n = 17
    y = matrix_A_inverse(n).apply(basis_vector(n, n))
    assert y.coords[-1] == -float(n)
    assert opnorm_l1(matrix_A_inverse(n).dense()) == float(n)


def test_A_inverse_inverts_A():
    # bit-exact on basis vectors; rounding-level on generic floats where
    # (h*x)/h need not round-trip
    A, A_inv = matrix_A(40), matrix_A_inverse(40)
    for k in (1, 2, 39):
        e = basis_vector(k, 40)
        assert np.array_equal(A.apply(A_inv.apply(e)).coords, e.coords)
        assert np.array_equal(A_inv.apply(A.apply(e)).coords, e.coords)
    rng = np.random.default_rng(4)
    x = rand_vec(rng, 40)
    assert norm_l1(A.apply(A_inv.apply(x)) - x) <= 1e-14 * norm_l1(x) * 40
    assert norm_l1(A_inv.apply(A.apply(x)) - x) <= 1e-14 * norm_l1(x) * 40


def test_semigroup_law_M_exact():
    rng = np.random.default_rng(5)
    for t, s in ((0.0, 1.0), (0.5, 0.5), (2.0, 7.0)):
        x = rand_vec(rng, 33)
        lhs = apply_M(t + s, x)
        rhs = apply_M(t, apply_M(s, x))
        assert norm_l1(lhs - rhs) <= 1e-14 * norm_l1(x)



def test_opnorm_M_below_both_bounds():
    for t in (0.0, 0.1, 3.0):
        v = opnorm_l1(matrix_M(t, 20).dense())
        assert v <= 1.0 + 1e-15
        assert v <= 2.0  # the generic bound, never tight here


# --- perturbation N_t and full semigroup T ---

def test_N_on_basis_vector_matches_coefficients():
    n = 12
    for t in (0.3, 1.0, 6.0):
        for k in (1, 4, n):
            y = perturbation(t, n).apply(basis_vector(k, n))
            expected = np.zeros(n)
            for j in range(k + 1, n + 1):
                expected[j - 1] = b(j, t)
            assert np.allclose(y.coords, expected, atol=5e-16)


def test_N_at_zero_vanishes():
    rng = np.random.default_rng(6)
    x = rand_vec(rng, 9)
    assert norm_l1(perturbation(0.0, 9).apply(x)) == 0.0


def test_N_norm_bound():
    rng = np.random.default_rng(7)
    for t in (0.1, 1.0, 10.0):
        for _ in range(20):
            x = rand_vec(rng, 50)
            assert norm_l1(perturbation(t, 50).apply(x)) <= norm_l1(x) + 1e-13


def test_T_at_zero_is_identity():
    rng = np.random.default_rng(8)
    x = rand_vec(rng, 14)
    assert np.array_equal(apply_T(0.0, x).coords, x.coords)


def test_T_column_sums_equal_edge_decay():
    # every truncated column sums to exp(-t/N): the tail deficit is uniform
    for n in (1, 5, 64):
        for t in (0.5, 2.0):
            entries = matrix_T(t, n).dense()
            sums = entries.sum(axis=0)
            assert np.allclose(sums, math.exp(-t / n), atol=1e-14 * n)
            deficit = 1.0 - sums
            assert np.all(deficit >= -1e-14 * n)
            assert np.all(deficit <= tail_sum_b(n, t) + 1e-14 * n)


def test_T_operator_norm_is_one_ish():
    # generic bound is 2 + sup-norm of the functional = 3; the l1 instance
    # is column-stochastic up to truncation, so the norm is exp(-t/N) <= 1
    for t in (0.5, 2.0):
        v = opnorm_l1(matrix_T(t, 32).dense())
        assert v == pytest.approx(math.exp(-t / 32), abs=1e-14)
        assert v <= 1.0 + 1e-14 < 3.0


def test_T_semigroup_defect_small_for_interior_support():
    n = 4096
    x = basis_vector(1, n)
    lhs = apply_T(2.0, x)
    rhs = apply_T(1.0, apply_T(1.0, x))
    defect = norm_l1(lhs - rhs)
    bound = 2.0 * tail_sum_b(n, 2.0)
    assert defect <= bound
    assert defect <= 1e-12  # regression pin: measured 9.4e-17 on first verified run



def test_f_conserved_by_T_up_to_deficit():
    rng = np.random.default_rng(9)
    n = 128
    for t in (0.1, 1.0, 4.0):
        deficit = tail_sum_b(n, t)
        for _ in range(10):
            x = rand_vec(rng, n)
            drift = abs(pair(np.ones(n), apply_T(t, x)) - pair(np.ones(n), x))
            assert drift <= deficit * norm_l1(x) + 1e-13


# --- derivative Ndot and generator B ---

def matrix_Ndot(n):
    """Derivative at t = 0 of N_t: the strictly lower part of B = A + Ndot."""
    return StructuredOperator(np.zeros(n), matrix_B(n).below)


def test_Ndot_on_first_basis_vector():
    n = 10
    Ndot = matrix_Ndot(n)
    y = Ndot.apply(basis_vector(1, n))
    assert y.coords[1] == 0.5
    assert y.coords[2] == pytest.approx(1.0 / 6.0, abs=1e-17)
    expected = np.zeros(n)
    for h in range(1, n):
        expected[h] = 1.0 / (h * h + h)
    assert np.allclose(y.coords, expected, atol=1e-17)
    assert norm_l1(Ndot.apply(TruncatedVector(np.zeros(n)))) == 0.0


def test_Ndot_is_derivative_of_N_at_zero():
    rng = np.random.default_rng(10)
    x = rand_vec(rng, 60)
    errs = []
    for t in (1e-3, 1e-4, 1e-5):
        diff = norm_l1((1.0 / t) * perturbation(t, 60).apply(x) - matrix_Ndot(60).apply(x))
        errs.append(diff)
        assert diff <= t * norm_l1(x)
    # linear decay in t: each decade shrinks the error by roughly 10
    assert errs[1] <= 0.2 * errs[0]
    assert errs[2] <= 0.2 * errs[1]


def test_B_on_basis_vectors():
    n = 9
    B = matrix_B(n)
    for k in (1, 3, n):
        y = B.apply(basis_vector(k, n))
        expected = np.zeros(n)
        expected[k - 1] = -1.0 / k
        for h in range(k, n):
            expected[h] += 1.0 / (h * h + h)
        assert np.allclose(y.coords, expected, atol=1e-16)
    assert norm_l1(B.apply(TruncatedVector(np.zeros(n)))) == 0.0


def test_pair_f_with_B_columns_is_minus_one_over_N():
    for n in (1, 10, 100):
        for k in (1, n // 2 + 1, n):
            val = pair(np.ones(n), matrix_B(n).apply(basis_vector(k, n)))
            assert val == pytest.approx(-1.0 / n, abs=1e-13)


def test_adjoint_residual_matches_per_column_fsum():
    # oracle: exact-rounding sums of the actual operator columns
    n = 100
    res = adjoint_residual_vector(n)
    B = matrix_B(n)
    for k in range(1, n + 1):
        col = B.apply(basis_vector(k, n)).coords
        assert res[k - 1] == pytest.approx(math.fsum(col), abs=5e-16)


def kahan_residual_reference(N):
    """The adjoint residual as one Python loop over k: the reference the array form must match bit for bit."""
    res = [-1.0 / N]  # k = N, then N - 1 down to 1
    s = 0.0
    c = 0.0
    for k in range(N - 1, 0, -1):
        term = 1.0 / (k * (k + 1))
        y = term - c
        t2 = s + y
        c = (t2 - s) - y
        s = t2
        res.append(s - 1.0 / k)
    return np.array(res[::-1])


@pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 1000, 32768, 65536])
def test_adjoint_residual_keeps_the_bits_of_the_python_loop(n):
    res = adjoint_residual_vector(n)
    assert res.flags.c_contiguous and res.tobytes() == kahan_residual_reference(n).tobytes()


def test_adjoint_residual_holds_a_few_arrays_not_a_float_object_per_entry():
    # the Kahan loop reads Python floats a block at a time: the traced peak was 9.1 N-arrays of doubles
    # while every term and every running sum was a list of floats, and is 3.1 with them a block at a time
    n = 2**16
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        adjoint_residual_vector(n)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * n


# --- matrix of B, kernel, spectrum ---

def test_matrix_B_explicit_3x3():
    entries = matrix_B(3).dense()
    expected = np.array(
        [
            [-1.0, 0.0, 0.0],
            [0.5, -0.5, 0.0],
            [1.0 / 6.0, 1.0 / 6.0, -1.0 / 3.0],
        ]
    )
    assert np.array_equal(entries, expected)


def test_B_adjoint_matches_transpose():
    n = 40
    rng = np.random.default_rng(11)
    op = matrix_B(n)
    entries = op.dense()
    for _ in range(10):
        y = rand_vec(rng, n)
        direct = op.apply_adjoint(y).coords
        dense = entries.T @ y.coords
        assert np.allclose(direct, dense, atol=1e-14)


def test_matrix_B_triple_count():
    for n in (1, 3, 20):
        text = triples_text(matrix_B(n))
        rows = [ln for ln in text.splitlines() if ln and not ln.startswith("%")]
        assert len(rows) == n * (n + 1) // 2


def test_sparse_triples_round_trip():
    op = matrix_B(7)
    back = from_sparse_triples(triples_text(op))
    assert np.array_equal(back.dense(), op.dense())


def test_kernel_B_trivial_small_and_large():
    assert kernel_B(1) is True
    assert kernel_B(100) is True
    # cross-check: the matrix is far from singular
    svals = np.linalg.svd(matrix_B(100).dense(), compute_uv=False)
    assert svals[-1] > 0.0


def test_kernel_B_large_is_fast():
    start = time.monotonic()
    assert kernel_B(5000) is True
    assert time.monotonic() - start < 1.0


def test_kernel_B_reads_B(monkeypatch):
    # negative control: a zero on the diagonal of B leaves the last column null
    def broken(N):
        op = matrix_B(N)
        diag = op.diag.copy()
        diag[-1] = 0.0
        return StructuredOperator(diag, op.below)

    monkeypatch.setattr(semigroups, "matrix_B", broken)
    assert kernel_B(8) is False


@pytest.mark.parametrize("n", [1000, 65536])
def test_kernel_B_never_forms_the_dense_matrix(monkeypatch, n):
    def refuse(self):
        raise AssertionError("a nonzero diagonal decides without the dense matrix")

    monkeypatch.setattr(StructuredOperator, "dense", refuse)
    assert kernel_B(n) is True


def test_triangular_spectrum_accumulates_at_zero():
    for n in (10, 200):
        for builder in (matrix_A, matrix_B):
            eigs = np.sort(np.linalg.eigvals(builder(n).dense()).real)
            expected = np.sort(-1.0 / np.arange(1, n + 1, dtype=float))
            assert np.allclose(eigs, expected, atol=1e-12)
    assert abs(np.diag(matrix_B(1000).dense())).min() == pytest.approx(1e-3, abs=1e-18)


def test_matrix_structure_conventions():
    n = 12
    t = 1.3
    m_entries = matrix_M(t, n).dense()
    assert np.array_equal(m_entries, np.diag(np.diag(m_entries)))
    h = np.arange(1, n + 1, dtype=float)
    assert np.array_equal(np.diag(m_entries), np.exp(-t / h))
    n_entries = perturbation(t, n).dense()
    assert np.array_equal(n_entries, np.tril(n_entries, -1))  # strictly lower
    b_entries = matrix_B(n).dense()
    assert np.array_equal(b_entries, np.tril(b_entries))
    assert np.array_equal(np.diag(b_entries), -1.0 / h)


def test_truncation_error_within_certificate():
    # embed dimension 64 into 512 and compare the two truncations of T(t)
    small, big = 64, 512
    rng = np.random.default_rng(12)
    for t in (0.5, 2.0):
        x_small = rand_vec(rng, small)
        x_big = TruncatedVector(np.concatenate([x_small.coords, np.zeros(big - small)]))
        y_small = apply_T(t, x_small)
        y_big = apply_T(t, x_big)
        diff = norm_l1(TruncatedVector(y_big.coords[:small]) - y_small) + float(
            np.abs(y_big.coords[small:]).sum()
        )
        cert = norm_l1(x_small) * tail_sum_b(small, t)
        assert diff <= cert + 1e-14


# --- one structured form behind apply, apply_adjoint, dense and triples ---

BUILDERS = {
    "matrix_M": lambda n: matrix_M(1.3, n),
    "matrix_N": lambda n: perturbation(1.3, n),
    "matrix_T": lambda n: matrix_T(1.3, n),
    "matrix_A": matrix_A,
    "matrix_A_inverse": matrix_A_inverse,
    "matrix_Ndot": matrix_Ndot,
    "matrix_B": matrix_B,
}


@pytest.mark.parametrize("name", BUILDERS)
def test_operator_forms_agree(name):
    rng = np.random.default_rng(11)
    for n in (1, 2, 17, 40):
        op = BUILDERS[name](n)
        dense = op.dense()
        assert dense.shape == (n, n)
        for k in range(1, n + 1):
            assert np.array_equal(dense[:, k - 1], op.apply(basis_vector(k, n)).coords)
        for _ in range(5):
            y = rand_vec(rng, n)
            assert np.abs(op.apply_adjoint(y).coords - dense.T @ y.coords).max() <= 1e-14
        # the header's dim restores trailing zero rows and columns, even of an all-zero matrix
        assert np.array_equal(from_sparse_triples(triples_text(op)).dense(), dense)


def test_operator_rejects_bad_shapes():
    with pytest.raises(ValueError):
        StructuredOperator(np.zeros(0))
    with pytest.raises(ValueError):
        StructuredOperator(np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError):
        matrix_B(3).apply(basis_vector(1, 4))
    with pytest.raises(ValueError):
        matrix_B(3).apply_adjoint(basis_vector(1, 2))


def test_triples_dim_comes_from_header():
    # a zero last row and column survive only through the header
    text = "% sparse triples, column-action, dim 3\n1 1 0.5\n2 2 0.25\n"
    assert np.array_equal(from_sparse_triples(text).dense(), np.diag([0.5, 0.25, 0.0]))
    seeded = "% seeded substochastic matrix, dim 256, column sums 0.97\n3 1 0.97\n"
    assert from_sparse_triples(seeded).dim == 256
    # without a stated dim, the largest index sets it
    assert from_sparse_triples("1 1 0.5\n2 2 0.25\n").dim == 2


@pytest.mark.parametrize(
    "text",
    [
        "% dim 2\n3 1 0.5\n",
        "% dim 2\n1 3 0.5\n",
        "% dim 2\n0 1 0.5\n",
        "% dim 0\n",
        "% no dimension here\n",
        "1 -1 0.5\n",
    ],
)
def test_triples_reject_indices_outside_dim(text):
    with pytest.raises(ValueError):
        from_sparse_triples(text)


def test_triples_reject_a_repeated_pair():
    # stored as entries, a repeated (i, j) would sum where the dense fill kept the last value
    with pytest.raises(ValueError, match=r"triple \(2, 1\) is given more than once"):
        from_sparse_triples("% dim 2\n2 1 0.5\n1 1 0.25\n2 1 0.25\n")


@pytest.mark.parametrize("text", ["% dim 4097\n1 1 0.5\n", "1 1000000 0.5\n", "1 1 0.5\n"])
def test_triples_reject_other_than_expected_dim(text):
    with pytest.raises(ValueError, match="expected 2"):
        from_sparse_triples(text, dim=2)
    assert from_sparse_triples("% dim 2\n1 1 0.5\n", dim=2).dim == 2
