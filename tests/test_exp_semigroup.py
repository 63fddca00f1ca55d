"""Tests for the exponential semigroup built from power-bounded matrices."""

import math

import numpy as np
import pytest

from ergodiclab import exp_semigroup
from ergodiclab.exp_semigroup import (
    PowerBoundedOperator,
    apply_S,
    poisson_window,
    renorm,
    semigroup_defect_S,
)
from ergodiclab.semigroups import matrix_T, to_sparse_triples
from ergodiclab.space import TruncatedVector, basis_vector, norm_l1, vector


@pytest.fixture(scope="module")
def T1_64():
    return PowerBoundedOperator.from_timestep(1.0, 64, horizon=256)


def rand_vec(rng, n):
    return TruncatedVector(rng.uniform(-1, 1, n))


def column_sum_matrix(n, c, seed=0):
    """Seeded nonnegative matrix whose columns all sum to c, so f(Tx) = c f(x)."""
    mat = np.random.default_rng(seed).uniform(0.1, 1.0, (n, n))
    return mat * (c / mat.sum(axis=0))


def full_scan_bound(mat, horizon):
    bound, power = 1.0, np.eye(mat.shape[0])
    for _ in range(horizon):
        power = mat @ power
        bound = max(bound, float(np.abs(power).sum(axis=0).max()))
    return bound


# --- power bound and renorm ---

def test_power_bound_identity():
    T = PowerBoundedOperator.identity(5)
    assert T.power_bound == 1.0


def test_power_bound_includes_n_zero():
    # a nilpotent matrix has vanishing powers, but the n=0 term keeps the bound at 1
    T = PowerBoundedOperator.from_matrix(np.zeros((3, 3)), horizon=8)
    assert T.power_bound == 1.0


def test_power_bound_nondecreasing_in_horizon():
    rng = np.random.default_rng(0)
    mat = rng.uniform(0, 0.4, (6, 6))
    bounds = [PowerBoundedOperator.from_matrix(mat, horizon=h).power_bound for h in (1, 4, 16, 64)]
    assert all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))


@pytest.mark.parametrize(
    "mat, scanned",
    [
        (matrix_T(1.0, 64).entries, 1),
        (matrix_T(1.0, 256).entries, 1),
        (column_sum_matrix(32, 0.97), 1),
        # ||T^n|| = (1 + 4n)/2^n: 2.5, 2.25, 1.625, 1.0625, then 21/32 <= 1
        (np.array([[0.5, 2.0], [0.0, 0.5]]), 5),
        (np.array([[1.01]]), 256),
    ],
)
def test_power_bound_early_exit_matches_full_scan(monkeypatch, mat, scanned):
    norms = []

    def counting_opnorm(entries):
        norms.append(float(np.abs(entries).sum(axis=0).max()))
        return norms[-1]

    monkeypatch.setattr(exp_semigroup, "opnorm_l1", counting_opnorm)
    T = PowerBoundedOperator.from_matrix(mat, horizon=256)
    assert len(norms) == scanned
    assert T.power_bound == full_scan_bound(mat, 256)


def test_renorm_identity_operator():
    rng = np.random.default_rng(1)
    T = PowerBoundedOperator.identity(9)
    for _ in range(5):
        x = rand_vec(rng, 9)
        assert renorm(x, T) == norm_l1(x)


def test_renorm_zero_operator():
    T = PowerBoundedOperator.from_matrix(np.zeros((4, 4)), horizon=16)
    x = vector([1.0, -2.0, 3.0, 0.5])
    assert renorm(x, T) == norm_l1(x)  # attained at n = 0


def test_renorm_on_timestep_matrix(T1_64):
    assert renorm(basis_vector(1, 64), T1_64) == pytest.approx(1.0, abs=1e-15)


def test_renorm_sandwich(T1_64):
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rand_vec(rng, 64)
        v = renorm(x, T1_64)
        assert norm_l1(x) - 1e-12 <= v <= T1_64.power_bound * norm_l1(x) + 1e-12


def test_renorm_contractivity(T1_64):
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rand_vec(rng, 64)
        image = TruncatedVector(T1_64.matrix @ x.coords)
        assert renorm(image, T1_64) <= renorm(x, T1_64) + 1e-12


def test_renorm_warns_when_horizon_not_stabilized():
    # norms grow all the way to the horizon for an expanding 1x1 matrix
    T = PowerBoundedOperator(matrix=np.array([[1.01]]), power_bound=1.01**20, horizon=20)
    with pytest.warns(UserWarning, match="horizon too short"):
        renorm(vector([1.0]), T)


def test_renorm_no_warning_when_stabilized(T1_64):
    import warnings as _warnings

    with _warnings.catch_warnings():
        _warnings.simplefilter("error")
        renorm(basis_vector(1, 64), T1_64)


def test_renorm_is_a_norm(T1_64):
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rand_vec(rng, 64)
        y = rand_vec(rng, 64)
        a = float(rng.uniform(-3, 3))
        assert renorm(a * x, T1_64) == pytest.approx(abs(a) * renorm(x, T1_64), abs=1e-12)
        assert renorm(x + y, T1_64) <= renorm(x, T1_64) + renorm(y, T1_64) + 1e-12


# --- the semigroup itself ---

def test_S_at_zero_is_identity(T1_64):
    rng = np.random.default_rng(5)
    x = rand_vec(rng, 64)
    assert np.array_equal(apply_S(0.0, x, T1_64, 1e-12).coords, x.coords)


def test_S_of_identity_matrix_is_identity():
    T = PowerBoundedOperator.identity(7)
    rng = np.random.default_rng(6)
    x = rand_vec(rng, 7)
    for t in (0.5, 3.0, 20.0):
        assert norm_l1(apply_S(t, x, T, 1e-12) - x) <= 1e-11


def test_S_norm_on_timestep_matrix(T1_64):
    # at truncation the column sums are c = exp(-1/64), so the norm of
    # S(5)e_1 is exp(-5(1-c)): within the 5/64 truncation deficit of 1
    y = apply_S(5.0, basis_vector(1, 64), T1_64, 1e-12)
    predicted = math.exp(-5.0 * (1.0 - math.exp(-1.0 / 64.0)))
    assert norm_l1(y) == pytest.approx(predicted, abs=1e-11)
    assert abs(norm_l1(y) - 1.0) <= 5.0 / 64.0 + 1e-11


def test_S_tolerance_validation(T1_64):
    with pytest.raises(ValueError):
        apply_S(1.0, basis_vector(1, 64), T1_64, 0.0)
    with pytest.raises(ValueError):
        apply_S(-0.5, basis_vector(1, 64), T1_64, 1e-10)


def test_S_renorm_contractive(T1_64):
    rng = np.random.default_rng(7)
    tol = 1e-10
    for t in (0.1, 1.0, 10.0, 100.0):
        for _ in range(5):
            x = rand_vec(rng, 64)
            val = renorm(apply_S(t, x, T1_64, tol), T1_64)
            assert val <= renorm(x, T1_64) * (1.0 + 10.0 * tol) + 10.0 * tol


def test_fixed_vectors_are_fixed_by_S():
    # doubly stochastic symmetric matrix: the uniform vector is fixed
    mat = np.full((3, 3), 0.25)
    np.fill_diagonal(mat, 0.5)
    T = PowerBoundedOperator.from_matrix(mat, horizon=64)
    fixed = vector([1 / 3, 1 / 3, 1 / 3])
    tol = 1e-11
    for t in (0.2, 1.0, 15.0):
        assert norm_l1(apply_S(t, fixed, T, tol) - fixed) <= tol


def test_diag_fixed_vector():
    T = PowerBoundedOperator.from_matrix(np.diag([1.0, 0.5]), horizon=32)
    e1 = basis_vector(1, 2)
    for t in (0.5, 8.0):
        assert norm_l1(apply_S(t, e1, T, 1e-12) - e1) <= 1e-12


def test_semigroup_defect_zero_times(T1_64):
    assert semigroup_defect_S(0.0, 0.0, basis_vector(1, 64), T1_64, 1e-10) == 0.0


def test_semigroup_defect_identity_matrix():
    T = PowerBoundedOperator.identity(5)
    x = vector([1.0, 2.0, -1.0, 0.0, 0.5])
    assert semigroup_defect_S(1.0, 2.0, x, T, 1e-14) <= 1e-13


def test_semigroup_defect_bound(T1_64):
    rng = np.random.default_rng(8)
    tol = 1e-10
    for t, s in ((1.0, 1.0), (0.5, 2.5)):
        x = rand_vec(rng, 64)
        defect = semigroup_defect_S(t, s, x, T1_64, tol)
        assert defect <= 4.0 * tol * T1_64.power_bound


def test_from_triples_matches_matrix():
    op = matrix_T(1.0, 16)
    T = PowerBoundedOperator.from_triples(to_sparse_triples(op), horizon=32)
    assert np.allclose(T.matrix, op.entries, atol=1e-15)
    rng = np.random.default_rng(9)
    x = rand_vec(rng, 16)
    direct = PowerBoundedOperator.from_matrix(op.entries, horizon=32)
    lhs = apply_S(1.5, x, T, 1e-11)
    rhs = apply_S(1.5, x, direct, 1e-11)
    assert norm_l1(lhs - rhs) <= 1e-10


# --- Poisson weights and large t ---

@pytest.mark.parametrize("t", [0.3, 7.0, 100.0, 700.0, 760.0, 1000.0, 5000.0])
def test_poisson_window_matches_log_pmf(t):
    L, p, lost = poisson_window(t, 1e-30)
    j = L + np.arange(p.size)
    lgammas = np.array([math.lgamma(k + 1) for k in j])
    log_pmf = j * math.log(t) - t - lgammas
    # the reference itself is only good to about eps times its largest term
    reference_error = 8 * np.finfo(float).eps * (t + j * math.log(t) + lgammas)
    big = p > 1e-280
    assert np.all(np.abs(p[big] / np.exp(log_pmf[big]) - 1.0) <= 1e-14 + reference_error[big])
    assert abs(p.sum() - 1.0) <= 1e-13
    assert 0.0 <= lost <= 1e-29
    assert (L == 0) == (t < 708.0)


@pytest.mark.parametrize("t", [100.0, 1000.0, 10000.0])
def test_poisson_window_against_high_precision(t):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    L, p, _ = poisson_window(t, 1e-30)
    for k in np.linspace(0, p.size - 1, 40).astype(int):
        j = L + int(k)
        ref = mpmath.exp(j * mpmath.log(t) - t - mpmath.loggamma(j + 1))
        assert abs(float(p[k] / ref) - 1.0) <= 2e-14


def test_poisson_window_starts_at_e_to_the_minus_t():
    # below the underflow threshold the weights are the plain recurrence from e^{-t}
    L, p, _ = poisson_window(30.0, 1e-20)
    weight = math.exp(-30.0)
    assert L == 0 and p[0] == weight
    for j in range(1, p.size):
        weight *= 30.0 / j
        assert p[j] == weight


@pytest.mark.parametrize("t", [760.0, 1000.0])
@pytest.mark.parametrize("tol", [1e-10, 1e-17])
def test_S_beyond_exp_underflow(t, tol):
    # columns summing to c give f(S(t)x) = ||x||_1 exp(-t(1 - c)) for x >= 0
    c = 0.97
    T = PowerBoundedOperator.from_matrix(column_sum_matrix(16, c), horizon=64)
    x = TruncatedVector(np.random.default_rng(10).uniform(0.0, 1.0, 16))
    want = norm_l1(x) * math.exp(-t * (1.0 - c))
    assert want > 0.0
    y = apply_S(t, x, T, tol)
    assert abs(norm_l1(y) - want) <= tol + 1e-11 * want


def test_S_tolerance_below_rounding_level(T1_64):
    # a stop rule built on 1 - (accumulated mass) has a floor near 1e-16
    x = basis_vector(1, 64)
    y = apply_S(5.0, x, T1_64, 1e-17)
    predicted = math.exp(-5.0 * (1.0 - math.exp(-1.0 / 64.0)))
    assert norm_l1(y) == pytest.approx(predicted, abs=1e-15)
