"""The matrix-free S path against the dense path it replaces, and its block sweeps against one point at a time."""

import math

import numpy as np
import pytest

from ergodiclab import exp_semigroup
from ergodiclab.cesaro import curve_cesaro_S, geometric_grid
from ergodiclab.cli import ExperimentConfig, cmd_simulate
from ergodiclab.exp_semigroup import PowerBoundedOperator, apply_S, poisson_window, stream_S, stream_cesaro_S
from ergodiclab.semigroups import SparseOperator, StructuredOperator, from_sparse_triples, matrix_T
from ergodiclab.space import TruncatedVector, basis_vector


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
    for t, row in zip(ts, np.concatenate([*stream_S(ts, TruncatedVector(x), T, tol)]), strict=True):
        want = dense_S(t, x, matrix)
        assert np.abs(row - want).sum() <= 1e-13 * np.abs(want).sum(), t
    means = np.concatenate([block for block, _err in stream_cesaro_S(rs, TruncatedVector(x), T, tol)])
    for r, row in zip(rs, means, strict=True):
        want = dense_mean_S(r, x, matrix)
        assert np.abs(row - want).sum() <= 1e-13 * np.abs(want).sum(), r


@pytest.mark.parametrize("budget", [1, 64, 2**20], ids=["one_point_blocks", "small_blocks", "one_block"])
def test_stream_S_rows_keep_the_bits_of_apply_S(monkeypatch, tmp_path, budget):
    monkeypatch.setattr(exp_semigroup, "BLOCK_ELEMENTS", budget)
    T = operator("file", 16)
    x = TruncatedVector(np.random.default_rng(1).uniform(-1.0, 1.0, 16))
    ts = np.linspace(0.0, 20.0, 21).tolist() + [800.0, 0.25]  # e^{-800} underflows; the grid need not increase
    blocks = list(stream_S(ts, x, T, 1e-10))
    assert all(block.shape[1:] == (16,) and block.flags.c_contiguous for block in blocks)
    rows = np.concatenate(blocks)
    assert len(rows) == len(ts) and (budget == 2**20) == (len(blocks) == 1)
    for t, row in zip(ts, rows):
        assert row.tobytes() == apply_S(t, x, T, 1e-10).coords.tobytes(), t
    # simulate's summaries of a block keep the bits of the 1-d reductions of each apply_S row
    (tmp_path / "W.txt").write_text(triples(16))
    cfg = ExperimentConfig(subject="S", N=16, vector=tuple((k + 1, v) for k, v in enumerate(x.coords.tolist())),
                           t_grid=(0.0, 20.0, 21), s_matrix=("file", str(tmp_path / "W.txt")),
                           out_dir=str(tmp_path / "out"))
    want = ["t,norm_l1,f_value,max_coordinate,max_index," + ",".join(f"coord_{j}" for j in range(1, 17))]
    for t in cfg.t_values().tolist():
        y = apply_S(t, x, T, cfg.quadrature_tol).coords  # cfg's matrix is T's file
        a = np.abs(y)
        cells = [t, a.sum(), y.sum(), a.max()]
        want.append(",".join(["%.16e" % v for v in cells] + ["%d" % (a.argmax() + 1)] + ["%.16e" % v for v in y]))
    assert cmd_simulate(cfg)[0].read_bytes() == ("\n".join(want) + "\n").encode()


def test_S_curve_steps_carry_the_row_before_across_sweeps(monkeypatch):
    monkeypatch.setattr(exp_semigroup, "BLOCK_ELEMENTS", 400)  # up to 9 points per sweep, one at the largest r
    T, x = operator("timestep", 32), TruncatedVector(np.random.default_rng(5).uniform(-1.0, 1.0, 32))
    rs = geometric_grid(0.5, 1.25, 20)
    blocks = list(stream_cesaro_S(rs, x, T, 1e-10))
    assert len(blocks) >= 3
    rows = np.concatenate([means for means, _ in blocks])
    steps = curve_cesaro_S(rs, x, T, 1e-10).steps
    assert steps.tolist() == [np.abs(b - a).sum() for a, b in zip(rows, rows[1:])]


@pytest.mark.parametrize("budget", [1, 300, 2**20])
def test_series_blocks_fit_the_element_budget(monkeypatch, budget):
    monkeypatch.setattr(exp_semigroup, "BLOCK_ELEMENTS", budget)
    lasts = [3, 90, 7, 0, 250, 250, 40] * 5
    T, x = operator("identity", 10), TruncatedVector(np.ones(10))  # power_bound * ||x||_1 = 10

    def window(point, norm):  # point i reads weights i + 1 and stops at J = lasts[i], with bound 10 * 0.1 / (i + 1)
        J = lasts[int(point)]
        return 0, np.full(J + 3, point + 1.0), np.concatenate([np.ones(J), np.full(3, 0.1 / (point + 1.0))])

    sweeps = list(exp_semigroup._sweeps(np.arange(float(len(lasts))), x, T, 1.0, window))
    rows = [row for weights, _, _ in sweeps for row in weights]
    assert np.concatenate([bounds for _, bounds, _ in sweeps]).tolist() == [10.0 * (0.1 / i)
                                                                            for i in range(1, len(lasts) + 1)]
    for i, (J, row) in enumerate(zip(lasts, rows, strict=True)):  # each row stops at its own J, in grid order
        assert (row[: J + 1] == i + 1).all() and not row[J + 1 :].any()
    for weights, _, powers in sweeps:
        assert len(list(powers)) == weights.shape[1] == 1 + max(lasts[int(row[0]) - 1] for row in weights)
        assert len(weights) == 1 or len(weights) * (10 + weights.shape[1]) <= budget


def test_mean_blocks_agree_with_one_block(monkeypatch):
    T, rs = operator("timestep", 64), [0.5, 4.0, 32.0, 64.0, 1.0]
    x = TruncatedVector(np.random.default_rng(4).uniform(-1.0, 1.0, 64))
    (whole, _), = stream_cesaro_S(rs, x, T, 1e-10)
    with monkeypatch.context() as m:
        m.setattr(exp_semigroup, "BLOCK_ELEMENTS", 200)  # a point or two per block, three powers per product
        blocks = list(stream_cesaro_S(rs, x, T, 1e-10))
    assert len(blocks) > 1
    for row, err, want in zip(*(np.concatenate(part) for part in zip(*blocks)), whole, strict=True):
        assert np.abs(row - want).sum() <= 1e-9 and 0.0 <= err <= 1e-10
    # each row stops at its own J: its certificate is its one-point certificate, its row that row to rounding
    x, rs = basis_vector(1, 256), 2.0 ** np.arange(8)
    for T in (operator("timestep", 256), operator("file", 256)):
        alone = [next(stream_cesaro_S([r], x, T, 1e-10)) for r in rs]
        for budget in (2**20, 200):
            monkeypatch.setattr(exp_semigroup, "BLOCK_ELEMENTS", budget)
            blocks = list(stream_cesaro_S(rs, x, T, 1e-10))
            assert (len(blocks) == 1) == (budget > 200)
            for row, err, (want, want_err) in zip(*(np.concatenate(p) for p in zip(*blocks)), alone, strict=True):
                assert err.tobytes() == want_err.tobytes()
                assert np.abs(row - want[0]).max() <= 1e-15 * np.abs(want[0]).sum()
        monkeypatch.undo()


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
