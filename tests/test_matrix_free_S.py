"""The matrix-free S path against the dense path it replaces, and its block sweeps against one point at a time."""

import math

import numpy as np
import pytest

from ergodiclab import exp_semigroup
from ergodiclab.cesaro import stream_cesaro_S
from ergodiclab.cli import ExperimentConfig, cmd_simulate
from ergodiclab.exp_semigroup import PowerBoundedOperator, apply_S, poisson_window, series_blocks, stream_S
from ergodiclab.semigroups import SparseOperator, StructuredOperator, from_sparse_triples, matrix_T
from ergodiclab.space import TruncatedVector


def triples(n, per_col=8, c=0.97, seed=3):
    """Seeded nonnegative triple text with min(n, per_col) entries per column, each column summing to c."""
    rng = np.random.default_rng(seed)
    lines = [f"% seeded, dim {n}"]
    for col in range(1, n + 1):
        rows = np.sort(rng.choice(n, min(n, per_col), replace=False)) + 1
        weights = rng.uniform(0.1, 1.0, rows.size)
        lines += [f"{row} {col} {w!r}" for row, w in zip(rows.tolist(), (weights * (c / weights.sum())).tolist())]
    return "\n".join(lines) + "\n"


def operator(kind, n):
    if kind == "identity":
        return PowerBoundedOperator.from_matrix(StructuredOperator(np.ones(n)))
    if kind == "timestep":
        return PowerBoundedOperator.from_matrix(matrix_T(1.0, n))
    return PowerBoundedOperator.from_matrix(from_sparse_triples(triples(n), dim=n))


def dense_powers(x, matrix, count):
    powers = [x]
    for _ in range(count):
        powers.append(matrix @ powers[-1])
    return np.array(powers)


def dense_S(t, x, matrix):
    """sum_j P(Poisson(t) = j) T^j x over the whole Poisson window, with dense matrix-vector products."""
    L, p, _ = poisson_window(t, 1e-30)
    return p @ dense_powers(x, matrix, L + p.size - 1)[L:]


def dense_mean_S(r, x, matrix):
    """(1/r) sum_j P(Poisson(r) >= j+1) T^j x over the whole Poisson window, with dense products."""
    L, p, _ = poisson_window(r, 1e-30)
    upper = np.cumsum(p[::-1])[::-1]
    u = np.concatenate([np.full(L, upper[0]), upper[1:], [0.0]]) / r
    return u @ dense_powers(x, matrix, u.size - 1)


@pytest.mark.parametrize("n", [1, 2, 64, 256])
@pytest.mark.parametrize("kind", ["identity", "timestep", "file"])
def test_matrix_free_S_matches_the_dense_path(kind, n):
    T = operator(kind, n)
    matrix = T.operator.dense()
    x = np.random.default_rng(n).uniform(0.0, 1.0, n)
    tol = 1e-16 * x.sum()
    ts, rs = [0.0, 0.5, 3.0, 20.0], [0.5, 4.0, 32.0, 128.0]
    for t, row in zip(ts, stream_S(ts, TruncatedVector(x), T, tol), strict=True):
        want = dense_S(t, x, matrix)
        assert np.abs(row - want).sum() <= 1e-13 * np.abs(want).sum(), t
    for r, (row, _err) in zip(rs, stream_cesaro_S(rs, TruncatedVector(x), T, tol), strict=True):
        want = dense_mean_S(r, x, matrix)
        assert np.abs(row - want).sum() <= 1e-13 * np.abs(want).sum(), r


@pytest.mark.parametrize("budget", [1, 64, 2**20], ids=["one_point_blocks", "small_blocks", "one_block"])
def test_stream_S_rows_keep_the_bits_of_apply_S(monkeypatch, budget):
    monkeypatch.setattr(exp_semigroup, "BLOCK_ELEMENTS", budget)
    T = operator("file", 16)
    x = TruncatedVector(np.random.default_rng(1).uniform(-1.0, 1.0, 16))
    ts = np.linspace(0.0, 20.0, 21).tolist() + [800.0, 0.25]  # e^{-800} underflows; the grid need not increase
    rows = list(stream_S(ts, x, T, 1e-10))
    assert len(rows) == len(ts)
    for t, row in zip(ts, rows):
        assert row.tobytes() == apply_S(t, x, T, 1e-10).coords.tobytes(), t


@pytest.mark.parametrize("budget", [1, 300, 2**20])
def test_series_blocks_fit_the_element_budget(monkeypatch, budget):
    monkeypatch.setattr(exp_semigroup, "BLOCK_ELEMENTS", budget)
    lasts = [3, 90, 7, 0, 250, 250, 40] * 5
    blocks = list(series_blocks(range(len(lasts)), 10, lambda i: (lasts[int(i)], i)))
    assert [item[1] for block in blocks for item in block] == list(range(len(lasts)))
    for block in blocks:
        assert len(block) == 1 or len(block) * (10 + 1 + max(item[0] for item in block)) <= budget


def test_mean_blocks_agree_with_one_block(monkeypatch):
    T, rs = operator("timestep", 64), [0.5, 4.0, 32.0, 64.0, 1.0]
    x = TruncatedVector(np.random.default_rng(4).uniform(-1.0, 1.0, 64))
    whole = list(stream_cesaro_S(rs, x, T, 1e-10))
    monkeypatch.setattr(exp_semigroup, "BLOCK_ELEMENTS", 200)  # one point per block, three powers per product
    for (row, err), (want, _) in zip(stream_cesaro_S(rs, x, T, 1e-10), whole, strict=True):
        assert np.abs(row - want).sum() <= 1e-9 and 0.0 <= err <= 1e-10


def test_simulate_S_rows_are_apply_S_bit_for_bit(tmp_path):
    (tmp_path / "W.txt").write_text(triples(16))
    cfg = ExperimentConfig(subject="S", N=16, vector=((1, 0.5), (7, -0.25), (16, 1.0)), t_grid=(0.0, 20.0, 21),
                           s_matrix=("file", str(tmp_path / "W.txt")), out_dir=str(tmp_path / "out"))
    csv_path, _ = cmd_simulate(cfg)
    T, x = cfg.power_operator(), cfg.input_vector()
    for t, line in zip(cfg.t_values().tolist(), csv_path.read_text().splitlines()[1:], strict=True):
        assert line.split(",")[5:] == ["%.16e" % v for v in apply_S(t, x, T, cfg.quadrature_tol).coords.tolist()]


def test_signed_operator_bound_is_an_upper_bound():
    # |T| = [[0.5, 1.5], [0, 0.5]]: 1^T |T|^n peaks at 2 and falls to 0.8125 at n = 4
    T = PowerBoundedOperator.from_matrix(np.array([[0.5, -1.5], [0.0, 0.5]]))
    assert (T.exact_bound, T.certified_power, T.power_bound) == (False, 4, 2.0)
    norms = [np.abs(np.linalg.matrix_power(T.operator.dense(), k)).sum(axis=0).max() for k in range(64)]
    assert max(norms) <= T.power_bound
    # 0.9 times a rotation: ||T^n||_1 <= 0.9^n sqrt(2) falls below 1, but 1^T |T|^n grows, so nothing is certified
    c = 0.9 / math.sqrt(2.0)
    rotation = PowerBoundedOperator.from_matrix(np.array([[c, -c], [c, c]]), horizon=64)
    assert (rotation.exact_bound, rotation.power_bound) == (False, math.inf)
    assert PowerBoundedOperator.from_matrix(matrix_T(1.0, 8)).exact_bound


def test_sparse_operator_matches_its_dense_form():
    rng = np.random.default_rng(2)
    dense = rng.uniform(-1.0, 1.0, (9, 9)) * (rng.random((9, 9)) < 0.4)
    op = SparseOperator.from_dense(dense)
    assert np.array_equal(op.dense(), dense)
    for _ in range(5):
        y = rng.uniform(-1.0, 1.0, 9)
        assert np.allclose(op.apply_block(y), dense @ y, rtol=0.0, atol=1e-15)
        assert np.allclose(op.adjoint_block(y), dense.T @ y, rtol=0.0, atol=1e-15)
    empty = SparseOperator.from_dense(np.zeros((3, 3)))
    assert empty.apply_block(np.ones(3)).dtype == float and not empty.apply_block(np.ones(3)).any()
