"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every criterion asserts its stated tolerance and runtime budget.
"""

import json
import math
import time

import numpy as np

from ergodiclab import verification
from ergodiclab.cesaro import (
    adaptive_simpson,
    cesaro_M,
    cesaro_M_opnorm,
    cesaro_quadrature,
    cesaro_T,
    geometric_grid,
)
from ergodiclab.cli import EXIT_OK, ExperimentConfig, cmd_matrix, cmd_verify
from ergodiclab.coeffs import b, integral_b, tail_sum_b
from ergodiclab.exp_semigroup import PowerBoundedOperator, apply_S, renorm, semigroup_defect_S
from ergodiclab.semigroups import (
    adjoint_residual_vector,
    grid_kernel,
    kernel_B,
    matrix_A_inverse,
    matrix_M,
    matrix_T,
    opnorm_l1,
)
from ergodiclab.space import TruncatedVector, basis_vector, norm_l1, pair


_results = []


def _report(num: int, title: str, passed: bool, elapsed: float, limit: float, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    extra = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:2d} {status}  {title} ({elapsed:.2f}s / limit {limit:.0f}s){extra}")
    _results.append((num, status))
    assert passed, f"criterion {num}: {title}{extra}"
    assert elapsed <= limit, f"criterion {num} exceeded runtime limit: {elapsed:.2f}s > {limit}s"


def test_criterion_01_coefficient_identities():
    start = time.monotonic()
    # the verify check runs the whole grid 1 <= m < n <= 1000 at any N
    ctx = verification._Context(1000, 0, 1e-10, 1e-2, False)
    worst = verification.check_coeffs_sum_identities(ctx).measured
    elapsed = time.monotonic() - start
    _report(1, "coefficient sum identities on 1<=m<n<=1000", worst <= 1e-13, elapsed, 5.0,
            f"worst {worst:.2e}")


def test_criterion_02_exact_norm_identity_M():
    start = time.monotonic()
    worst = 0.0
    for N in (1, 2, 17, 256):
        eye = np.eye(N)
        for t in (0.01, 0.5, 1.0, 5.0):
            measured = opnorm_l1(matrix_M(t, N).dense() - eye)
            worst = max(worst, abs(measured - (1.0 - math.exp(-t))))
    elapsed = time.monotonic() - start
    _report(2, "l1 norm of M(t)-I equals 1-exp(-t)", worst <= 1e-14, elapsed, 1.0,
            f"worst {worst:.2e}")


def test_criterion_03_semigroup_laws():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst_m = 0.0
    for t, s in ((0.0, 1.0), (0.5, 0.5), (3.0, 8.0)):
        x = TruncatedVector(rng.uniform(-1, 1, 64))
        lhs = matrix_M(t + s, 64).apply(x)
        rhs = matrix_M(t, 64).apply(matrix_M(s, 64).apply(x))
        worst_m = max(worst_m, norm_l1(lhs - rhs) / norm_l1(x))
    n = 4096
    e1 = basis_vector(1, n)
    T1 = matrix_T(1.0, n)
    defect = norm_l1(matrix_T(2.0, n).apply(e1) - T1.apply(T1.apply(e1)))
    bound = 2.0 * tail_sum_b(n, 2.0)
    # regression baseline pinned from the first verified run (measured 9.4e-17)
    passed = worst_m <= 1e-14 and defect <= bound and defect < 1e-5 and defect <= 1e-12
    elapsed = time.monotonic() - start
    _report(3, "semigroup laws: M exact, T defect within certificate", passed, elapsed, 2.0,
            f"M {worst_m:.2e}, T defect {defect:.2e} vs {bound:.2e}")


def test_criterion_04_column_stochasticity():
    start = time.monotonic()
    n = 1024
    ok = True
    norms = []
    slack = 1e-14 * n
    for t in (0.5, 2.0):
        entries = matrix_T(t, n).dense()
        sums = entries.sum(axis=0)
        lo = 1.0 - tail_sum_b(n, t)
        ok = ok and bool(np.all(sums >= lo - slack) and np.all(sums <= 1.0 + slack))
        norm = opnorm_l1(entries)
        norms.append(norm)
        ok = ok and norm <= 1.0 + slack and norm < 3.0  # strictly inside the generic bound
    elapsed = time.monotonic() - start
    _report(4, "T(t) columns sum into [e^{-t/N}, 1], ||T|| = 1 on l1", ok, elapsed, 2.0,
            f"norms {norms[0]:.6f}, {norms[1]:.6f}")


def test_criterion_05_mean_ergodicity_M():
    start = time.monotonic()
    grid = geometric_grid(1.0, 2.0, 14)  # 1 .. 8192 <= 1e4
    ok = True
    for h in range(1, 101):
        e_h = basis_vector(h, 101)
        for r in grid:
            if norm_l1(cesaro_M(float(r), e_h)) > h / r:
                ok = False
    e1 = basis_vector(1, 4)
    norms = np.array([norm_l1(cesaro_M(float(r), e1)) for r in grid])
    slope = float(np.polyfit(np.log(grid), np.log(norms), 1)[0])
    ok = ok and abs(slope - (-1.0)) <= 0.05
    elapsed = time.monotonic() - start
    _report(5, "strong means of M decay at rate h/r with exponent -1", ok, elapsed, 2.0,
            f"slope {slope:.4f}")


def test_criterion_06_uniform_failure_M():
    start = time.monotonic()
    n = 4096
    grid = np.exp(np.linspace(math.log(1.0), math.log(float(n)), 40))
    floor = 1.0 - 1.0 / math.e
    vals = np.array([cesaro_M_opnorm(float(r), n) for r in grid])
    ok = bool(np.all(vals >= floor - 1e-12))
    for m in (10, 100, 1000):
        ok = ok and opnorm_l1(matrix_A_inverse(m).dense()) == float(m)
    elapsed = time.monotonic() - start
    _report(6, "opnorm floor 1-1/e on r in [1,N] and ||A_N^{-1}|| = N", ok, elapsed, 2.0,
            f"min opnorm {vals.min():.10f}")


def test_criterion_07_non_mean_ergodicity_T():
    start = time.monotonic()
    n = 65536
    e1 = basis_vector(1, n)
    ok = True
    max_coords = []
    for r in (10.0, 100.0, 1000.0):
        v = cesaro_T(r, e1)
        fval = pair(np.ones(n), v)
        ok = ok and fval >= 1.0 - r / (2.0 * n)
        max_coords.append(float(np.abs(v.coords).max()))
    ok = ok and max_coords[0] > max_coords[1] > max_coords[2]
    ok = ok and kernel_B(n) is True
    res = adjoint_residual_vector(n)
    ok = ok and float(np.abs(res + 1.0 / n).max()) <= 1e-15
    elapsed = time.monotonic() - start
    _report(7, "mass escape for T at N=65536 with conserved functional", ok, elapsed, 30.0,
            f"max coords {max_coords[0]:.4f} > {max_coords[1]:.4f} > {max_coords[2]:.4f}")


def test_criterion_08_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    n = 100
    for r in (0.5, 5.0, 50.0):
        for h in range(1, n + 1):
            closed = integral_b(h, float(r))
            oracle = adaptive_simpson(
                lambda nodes, _h=h: [[b(_h, s)] for s in nodes], 0.0, float(r), 1e-10
            )[0]
            worst = max(worst, abs(closed - oracle))
    for r in (0.5, 5.0, 50.0):
        for h in range(1, n + 1):
            x = basis_vector(h, n)
            oracle_M = cesaro_quadrature(grid_kernel(x, perturbed=False, mean=False), float(r), 1e-10)
            diff = norm_l1(cesaro_M(float(r), x) - oracle_M)
            worst = max(worst, diff)
            oracle_T = cesaro_quadrature(grid_kernel(x, perturbed=True, mean=False), float(r), 1e-10)
            diff_t = norm_l1(cesaro_T(float(r), x) - oracle_T)
            worst = max(worst, diff_t)
    elapsed = time.monotonic() - start
    _report(8, "quadrature oracle matches all closed forms", worst <= 1e-9, elapsed, 30.0,
            f"worst {worst:.2e}")


def test_criterion_09_matrix_export(tmp_path):
    start = time.monotonic()
    cfg = ExperimentConfig(N=3, r_grid=(0.5, 2.0, 3), out_dir=str(tmp_path))
    cmd_matrix(cfg)
    dense = json.loads((tmp_path / "matrix_B_dense.json").read_text())
    expected = [
        [-1.0, 0.0, 0.0],
        [0.5, -0.5, 0.0],
        [1.0 / 6.0, 1.0 / 6.0, -1.0 / 3.0],
    ]
    ok = dense["entries"] == expected and dense["display_transpose_of_row_action"] is True
    elapsed = time.monotonic() - start
    _report(9, "3x3 generator matrix export, exact entries", ok, elapsed, 1.0)


def test_criterion_10_exponential_semigroup():
    start = time.monotonic()
    n = 64
    T = PowerBoundedOperator.from_matrix(matrix_T(1.0, n), horizon=256)
    tol = 1e-12
    worst_ratio = 0.0
    rng = np.random.default_rng(7)
    probes = [basis_vector(k, n) for k in range(1, n + 1)]
    probes += [TruncatedVector(rng.uniform(-1, 1, n)) for _ in range(5)]
    for t in (0.1, 1.0, 10.0):
        for x in probes:
            ratio = renorm(apply_S(t, x, T, tol), T) / renorm(x, T)
            worst_ratio = max(worst_ratio, ratio)
    ok = worst_ratio <= 1.0 + 1e-9
    # fixed vectors of user matrices stay fixed
    mat = np.full((3, 3), 0.25)
    np.fill_diagonal(mat, 0.5)
    U = PowerBoundedOperator.from_matrix(mat, horizon=64)
    fixed = TruncatedVector(np.full(3, 1.0 / 3.0))
    fix_tol = 1e-10
    for t in (0.5, 5.0):
        ok = ok and norm_l1(apply_S(t, fixed, U, fix_tol) - fixed) <= fix_tol
    # semigroup law defect within the series-truncation budget
    defect_tol = 1e-10
    x = TruncatedVector(rng.uniform(-1, 1, n))
    defect = semigroup_defect_S(1.0, 2.0, x, T, defect_tol)
    ok = ok and defect <= 4.0 * defect_tol * T.power_bound
    elapsed = time.monotonic() - start
    _report(10, "exponential semigroup contractive in renorm", ok, elapsed, 5.0,
            f"max renorm ratio {worst_ratio:.12f}, defect {defect:.2e}")


def test_criterion_11_determinism(tmp_path):
    start = time.monotonic()
    cfg = ExperimentConfig(N=16, seed=424242, r_grid=(0.5, 2.0, 5), out_dir=str(tmp_path / "v"))
    code_a, (path,) = cmd_verify(cfg)
    first = path.read_bytes()
    code_b, (path_b,) = cmd_verify(cfg)
    ok = code_a == code_b == EXIT_OK and first == path_b.read_bytes()
    elapsed = time.monotonic() - start
    _report(11, "verify runs are byte-identical for equal config and seed", ok, elapsed, 60.0)


def test_zz_summary():
    print()
    print("acceptance summary:", ", ".join(f"{n}:{s}" for n, s in sorted(_results)))
    assert len(_results) == 11
    assert all(s == "PASS" for _, s in _results)
