"""Summaries of M/T curves and trajectories read off the support of x, pinned against the full rows.

The full rows come from ``grid_kernel``.  The summaries
sum in another order: norms within PIN of the row's relative to it, f values and
steps within PIN times ||x||_1.  The largest |coordinate| keeps its bits, and its
index is the row's except at a tie within rounding.  Lemmas (a)-(c) of
``support_summaries`` are checked on sampled points with 50-digit decimals.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from ergodiclab import cesaro
from ergodiclab.cesaro import (
    _D_minima,
    curve_cesaro_M,
    curve_cesaro_T,
    geometric_grid,
    support_summaries,
)
from ergodiclab.cli import ExperimentConfig, cmd_simulate
from ergodiclab.semigroups import grid_kernel
from ergodiclab.space import TruncatedVector, norm_l1, row_stats
from rows import raised, signed_with_gaps, support_of

PIN = 1e-13
NS = [1, 2, 257, 1024, 65536]
KINDS = [(mean, perturbed) for mean in (True, False) for perturbed in (False, True)]
KIND_IDS = ["C_M", "C_T", "M", "T"]
RS = geometric_grid(0.05, 3.0, 12)  # up to r = 8857
TS = [0.0, 0.5, 7.0, 300.0, 1e4, 1e6]  # t = 1e6 underflows e^{-t/h} below h = 1342


CASES = {
    "zero": lambda n: np.zeros(n),
    "full": lambda n: np.random.default_rng(1).uniform(-1.0, 1.0, n),
    "signed_gap": lambda n: signed_with_gaps(n).coords,
}


def full_rows(x, grid, mean, perturbed):
    for row in grid_kernel(x, perturbed, mean)(grid):
        yield row.copy()


def table(x, grid, perturbed, mean):
    """The summaries of every grid point as one (points, 5) array, joined from C-ordered (block, 5) arrays."""
    blocks = [*support_summaries(x, grid, perturbed, mean)]
    assert all(block.shape[1:] == (5,) and block.flags.c_contiguous for block in blocks)
    return np.concatenate(blocks) if blocks else np.empty((0, 5))


def summary_rows(x, grid, perturbed, mean):
    """The summaries of every grid point, one (norm, top, index, f, step) tuple each."""
    return [(norm, top, int(index), f, step) for norm, top, index, f, step in table(x, grid, perturbed, mean).tolist()]


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("n", NS)
def test_summaries_pin_the_full_rows(n, case, kind):
    mean, perturbed = kind
    x = TruncatedVector(CASES[case](n))
    scale = norm_l1(x)
    grid = RS if mean else TS
    prev, ties = None, []
    summaries = summary_rows(support_of(x), grid, perturbed, mean)
    for row, (norm, top, index, fval, step) in zip(full_rows(x, grid, mean, perturbed), summaries, strict=True):
        want_norm, want_top, want_index, want_f = row_stats(row[None])[0]
        assert abs(norm - want_norm) <= PIN * want_norm
        assert top == want_top
        if index != want_index:
            assert abs(row[index - 1]) == want_top
            ties.append(index)
        assert abs(fval - want_f) <= PIN * scale
        if mean and prev is not None:
            assert abs(step - np.abs(row - prev).sum()) <= PIN * scale
        else:
            assert math.isnan(step)
        prev = row
    assert ties == []  # none seen on these cases


def test_zero_vector_reads_max_zero_at_index_one():
    for mean, perturbed in KINDS:
        for summary in summary_rows(support_of(TruncatedVector(np.zeros(5))), RS if mean else TS, perturbed, mean):
            assert summary[:4] == (0.0, 0.0, 1, 0.0)


@pytest.mark.parametrize("perturbed", [False, True], ids=["M", "T"])
def test_bad_grid_points_raise(perturbed):
    x = support_of(signed_with_gaps(64))
    curve = curve_cesaro_T if perturbed else curve_cesaro_M
    with pytest.raises(ValueError, match="averaging length r must be > 0, got -2.0"):
        curve([0.5, 1.0, -2.0, -1.0], x)
    with pytest.raises(ValueError, match="time t must be >= 0, got -1.0"):
        list(support_summaries(x, [0.0, 1.0, -1.0], perturbed, mean=False))
    # h/r overflows at r far below N / DBL_MAX, which the CLI refuses
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="coords must be finite"):
        list(support_summaries(support_of(signed_with_gaps(65536)), [1e-320], perturbed, mean=True))


# --- blocks of grid points: every row keeps the bits of a one-point call ---

BLOCK_CASES = {
    "sparse": lambda: signed_with_gaps(257).coords,
    "full": lambda: np.random.default_rng(2).uniform(-1.0, 1.0, cesaro._BLOCK_ELEMENTS + 1),  # wider than a block
}


@pytest.fixture
def block_sizes(monkeypatch):
    """The number of grid points in each block that support_summaries evaluates, in order."""
    sizes = []

    def spy(real):
        def rows(*args):
            for block in real(*args):
                sizes.append(len(block[0]))
                yield block

        return rows

    for name in ("_mean_rows", "_trajectory_rows"):
        monkeypatch.setattr(cesaro, name, spy(getattr(cesaro, name)))
    return sizes


def long_grid(mean):
    return geometric_grid(0.05, 1.02, 1000) if mean else np.linspace(0.0, 300.0, 1000)


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_blocks_keep_the_bits_of_one_call_per_point(monkeypatch, block_sizes, case, kind):
    # the chosen budget, one point per block and the whole grid in one block give every row the same bits
    mean, perturbed = kind
    x = support_of(TruncatedVector(BLOCK_CASES[case]()))
    longest = long_grid(mean)
    table(x, longest, perturbed, mean)
    K = block_sizes[0]
    assert (K == 1) == (case == "full") and 2 * K + 1 <= longest.size
    for count in (K - 1, K, K + 1, 2 * K + 1):
        grid = longest[:count]
        block_sizes.clear()
        blocked = table(x, grid, perturbed, mean)
        assert block_sizes == [K] * (count // K) + [count % K] * (count % K > 0)
        for point, row in zip(grid, blocked, strict=True):
            assert row[:4].tobytes() == table(x, [point], perturbed, mean)[0, :4].tobytes()
        for budget, sizes in ((1, [1] * count), (10**9, [count] * (count > 0))):
            with monkeypatch.context() as m:
                m.setattr(cesaro, "_BLOCK_ELEMENTS", budget)
                block_sizes.clear()
                other = table(x, grid, perturbed, mean)
                assert block_sizes == sizes
            assert blocked.tobytes() == other.tobytes(), budget


def rows_then_error(blocks):
    """How many rows ``blocks`` hands over before its ValueError, and the error's message."""
    count = 0
    with pytest.raises(ValueError) as info:
        for block in blocks:
            count += len(block)
    return count, str(info.value)


@pytest.mark.parametrize("mean", [True, False], ids=["curve", "trajectory"])
def test_bad_point_in_a_later_block_raises_after_the_rows_before_it(monkeypatch, block_sizes, mean):
    x = support_of(signed_with_gaps(64))
    grid = long_grid(mean)
    table(x, grid, perturbed=True, mean=mean)
    bad = block_sizes[0] + 5  # in the second block
    assert block_sizes[1] > 6
    grid[bad], grid[bad + 1] = -2.0, -1.0
    message = "averaging length r must be > 0, got -2.0" if mean else "time t must be >= 0, got -2.0"
    # the whole grid is checked first: a bad point raises before any row
    assert rows_then_error(support_summaries(x, grid, perturbed=True, mean=mean)) == (0, message)
    # a NaN row there instead: the rows before it in its block still go out
    name = "_mean_rows" if mean else "_trajectory_rows"
    real = getattr(cesaro, name)

    def poisoned(*args):
        start = 0
        for y, *rest in real(*args):
            y[np.arange(start, start + len(y)) == bad] = np.nan
            start += len(y)
            yield y, *rest

    monkeypatch.setattr(cesaro, name, poisoned)
    got = rows_then_error(support_summaries(x, long_grid(mean), perturbed=True, mean=mean))
    assert got == (bad, "coords must be finite (no NaN/inf)")


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


# --- lemmas (a)-(c), on sampled h up to 2**22, in 50-digit arithmetic ---

H_MAX = 2**22


def sampled_h(around=(), low=1):
    """Geometric h in low..2**22 and every integer within 4 of each point ``around``."""
    h = {int(v) for v in np.geomspace(low, H_MAX, 80)}
    for m in around:
        h.update(range(max(low, m - 4), min(H_MAX, m + 4) + 1))
    return sorted(h)


def decimal_exp(x):
    return Decimal(x).exp()


def unimodal(values, peak_at, rising):
    """``values`` rise (if ``rising``, else fall) up to index ``peak_at`` and turn after it.

    Not strictly: where e^{-r/h} is below the 50 digits, neighbours are equal.
    """
    sign = 1 if rising else -1
    up = all(sign * (b - a) >= 0 for a, b in zip(values[:peak_at], values[1 : peak_at + 1]))
    down = all(sign * (b - a) <= 0 for a, b in zip(values[peak_at:], values[peak_at + 1 :]))
    return up and down


@pytest.mark.parametrize("t", [0.3, 3.0, 41.5, 1000.0, 2.0**20 + 0.75, 2.0**22 * 1.9])
def test_lemma_a_peak_of_b_sits_within_two_of_floor_half_t_plus_one(t):
    m = math.floor((t + 1) / 2)
    hs = sampled_h(around=[m], low=2)
    with localcontext() as ctx:
        ctx.prec = 50
        T = Decimal(t)
        values = [decimal_exp(-T / h) - decimal_exp(-T / (h - 1)) for h in hs]
    peak = values.index(max(values))
    assert m <= hs[peak] <= m + 2
    assert unimodal(values, peak, rising=True)


@pytest.mark.parametrize("r", [1e-3, 0.5, 4.0, 64.0, 5000.0, 2.0**21])
def test_lemma_b_integral_b_falls_in_h(r):
    hs = sampled_h(low=2)
    with localcontext() as ctx:
        ctx.prec = 50
        R = Decimal(r)
        values = [h * -(decimal_exp(-R / h) - 1) - (h - 1) * -(decimal_exp(-R / (h - 1)) - 1) for h in hs]
    assert unimodal(values, 0, rising=True)  # falls from the first sample on


@pytest.mark.parametrize("r0, r1", [(0.05, 0.051), (1.0, 1.02), (3.0, 9.0), (500.0, 510.0), (2.0**21, 2.0**21 * 1.5)])
def test_lemma_c_D_falls_to_the_found_minimum_and_rises_after(r0, r1):
    (at,), _ = _D_minima(np.array([r0, r1]), float(H_MAX))
    hs = sampled_h(around=[int(at)])
    with localcontext() as ctx:
        ctx.prec = 50
        R0, R1 = Decimal(r0), Decimal(r1)
        values = [h / R1 * -(decimal_exp(-R1 / h) - 1) - h / R0 * -(decimal_exp(-R0 / h) - 1) for h in hs]
    low = hs.index(int(at))
    assert min(values) == values[low]
    assert unimodal(values, low, rising=False)


def test_T_curve_step_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    n = 1024
    x = signed_with_gaps(n)
    r0, r1 = 60.0, 60.0 * 1.02
    (at,), _ = _D_minima(np.array([r0, r1]), float(n))
    assert 22 < at < 42 and not x.coords[22:41].any()  # D's minimum lies inside the gap 23..41
    step = summary_rows(support_of(x), [r0, r1], perturbed=True, mean=True)[1][4]

    def row(r):
        r = mpmath.mpf(r)
        F = [mpmath.mpf(0)] + [h / r * -mpmath.expm1(-r / h) for h in range(1, n + 1)]
        prefix, out = mpmath.mpf(0), []
        for h in range(1, n + 1):
            xh = mpmath.mpf(float(x.coords[h - 1]))
            out.append(xh * F[h] + prefix * (F[h] - F[h - 1]))
            prefix += xh
        return out

    with mpmath.workdps(40):
        exact = mpmath.fsum(abs(a - b) for a, b in zip(row(r1), row(r0)))
    assert abs(step - float(exact)) <= PIN * norm_l1(x)
