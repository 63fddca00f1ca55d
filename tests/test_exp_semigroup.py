"""Tests for the exponential semigroup built from power-bounded matrices."""

import io
import math
import warnings

import numpy as np
import pytest

from ergodiclab.cesaro import curve_cesaro_S
from ergodiclab.exp_semigroup import (
    PowerBoundedOperator,
    apply_S,
    poisson_window,
    renorm,
    semigroup_defect_S,
    stream_S,
    stream_cesaro_S,
)
from ergodiclab.semigroups import (
    SparseOperator,
    StructuredOperator,
    from_sparse_triples,
    matrix_T,
    to_sparse_triples,
)
from ergodiclab.space import TruncatedVector, basis_vector, norm_l1


@pytest.fixture(scope="module")
def T1_64():
    return PowerBoundedOperator.from_matrix(matrix_T(1.0, 64), horizon=256)


def rand_vec(rng, n):
    return TruncatedVector(rng.uniform(-1, 1, n))


def column_sum_matrix(n, c, seed=0):
    """Seeded nonnegative matrix whose columns all sum to c, so f(Tx) = c f(x)."""
    mat = np.random.default_rng(seed).uniform(0.1, 1.0, (n, n))
    return mat * (c / mat.sum(axis=0))


def count_scan(monkeypatch):
    """The largest entry of each 1^T T^n that the power scan of a dense (so sparse-stored) matrix forms."""
    norms, adjoint = [], SparseOperator.adjoint_block

    def counting(self, coords):
        out = adjoint(self, coords)
        norms.append(float(out.max()))
        return out

    monkeypatch.setattr(SparseOperator, "adjoint_block", counting)
    return norms


def full_scan_bound(mat, horizon):
    bound, power = 1.0, np.eye(mat.shape[0])
    for _ in range(horizon):
        power = mat @ power
        bound = max(bound, float(np.abs(power).sum(axis=0).max()))
    return bound


# --- power bound and renorm ---

def test_power_bound_identity():
    T = PowerBoundedOperator.from_matrix(StructuredOperator(np.ones(5)))
    assert T.power_bound == 1.0


def test_power_bound_includes_n_zero():
    # a nilpotent matrix has vanishing powers, but the n=0 term keeps the bound at 1
    T = PowerBoundedOperator.from_matrix(np.zeros((3, 3)), horizon=8)
    assert T.power_bound == 1.0


def test_power_bound_nonincreasing_in_horizon():
    # a longer scan can only reach a certifying power: ||T^5|| = 21/32 is the first <= 1
    mat = np.array([[0.5, 2.0], [0.0, 0.5]])
    bounds = [PowerBoundedOperator.from_matrix(mat, horizon=h).power_bound for h in (1, 4, 5, 16, 64)]
    assert bounds == [math.inf, math.inf, 2.5, 2.5, 2.5]


@pytest.mark.parametrize(
    "mat, scanned",
    [
        (matrix_T(1.0, 64).dense(), 1),
        (matrix_T(1.0, 256).dense(), 1),
        (column_sum_matrix(32, 0.97), 1),
        # ||T^n|| = (1 + 4n)/2^n: 2.5, 2.25, 1.625, 1.0625, then 21/32 <= 1
        (np.array([[0.5, 2.0], [0.0, 0.5]]), 5),
        # no power comes back to norm <= 1, so nothing is certified; the
        # Jordan block's ||J^n|| = n + 1 would read as a bound of 257 otherwise
        (np.array([[1.01]]), 256),
        (np.array([[1.0, 1.0], [0.0, 1.0]]), 256),
        (np.zeros((3, 3)), 1),
    ],
)
def test_power_bound_early_exit_matches_full_scan(monkeypatch, mat, scanned):
    norms = count_scan(monkeypatch)
    T = PowerBoundedOperator.from_matrix(mat, horizon=256)
    assert len(norms) == scanned
    certified = norms[-1] <= 1.0
    assert certified == (scanned < 256)
    assert T.power_bound == (full_scan_bound(mat, 256) if certified else math.inf)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_power_bound_rejects_non_finite_entries(bad):
    # max(1.0, nan) is 1.0, so a NaN entry would otherwise read as a proven bound of 1
    with pytest.raises(ValueError, match="finite"):
        PowerBoundedOperator.from_matrix(np.array([[bad, 0.0], [0.0, 0.5]]))


def test_power_bound_overflow_ends_scan_quietly(monkeypatch):
    norms = count_scan(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        T = PowerBoundedOperator.from_matrix(np.array([[1e300, 0.0], [0.0, 0.5]]))
    assert T.power_bound == math.inf
    assert len(norms) == 2  # T itself, then T^2 overflows


def test_renorm_identity_operator():
    rng = np.random.default_rng(1)
    T = PowerBoundedOperator.from_matrix(StructuredOperator(np.ones(9)))
    for _ in range(5):
        x = rand_vec(rng, 9)
        assert renorm(x, T) == norm_l1(x)


def test_renorm_zero_operator():
    T = PowerBoundedOperator.from_matrix(np.zeros((4, 4)), horizon=16)
    x = TruncatedVector([1.0, -2.0, 3.0, 0.5])
    assert renorm(x, T) == norm_l1(x)  # attained at n = 0


def test_renorm_on_timestep_matrix(T1_64):
    assert renorm(basis_vector(1, 64), T1_64) == pytest.approx(1.0, abs=1e-15)


def test_renorm_sandwich(T1_64):
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rand_vec(rng, 64)
        v = renorm(x, T1_64)
        assert norm_l1(x) - 1e-12 <= v <= T1_64.power_bound * norm_l1(x) + 1e-12



def walked_renorm(x, T, powers=4096):
    """max ||T^n x||_1 over n <= powers, the sup that renorm reads off its certified power."""
    v, best = x.coords, norm_l1(x)
    for _ in range(powers):
        v = T.operator.apply(TruncatedVector(v)).coords
        best = max(best, float(np.abs(v).sum()))
    return best


@pytest.mark.parametrize(
    "T, k, bound",
    [
        (PowerBoundedOperator.from_matrix(StructuredOperator(np.ones(5))), 1, 1.0),
        (PowerBoundedOperator.from_matrix(np.zeros((5, 5))), 1, 1.0),
        (PowerBoundedOperator.from_matrix(matrix_T(1.0, 64)), 1, 1.0),
        # ||T^n||_1 = 2, 1.75, 1.25, then 0.8125 <= 1 at n = 4
        (PowerBoundedOperator.from_matrix(np.array([[0.5, 1.5], [0.0, 0.5]])), 4, 2.0),
        # ||T|| = 2, ||T^2|| = 4, T^3 = 0: renorm(e_1) = 4 sits at m = k - 1 = 2, one power short reads 2
        (PowerBoundedOperator.from_matrix(np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])), 3, 4.0),
    ],
    ids=["identity", "zero", "timestep_64", "certified_at_4", "weighted_shift_3"],
)
def test_renorm_equals_the_walk_over_4096_powers(T, k, bound):
    assert (T.certified_power, T.power_bound) == (k, bound)
    rng = np.random.default_rng(5)
    for x in [basis_vector(j, T.dim) for j in (1, T.dim)] + [rand_vec(rng, T.dim) for _ in range(5)]:
        assert renorm(x, T) == walked_renorm(x, T)


def test_renorm_refuses_an_operator_without_a_certified_bound():
    T = PowerBoundedOperator.from_matrix(np.array([[1.0, 1.0], [0.0, 1.0]]), horizon=64)
    assert T.power_bound == math.inf and T.certified_power is None
    with pytest.raises(ValueError, match="certified"):
        renorm(TruncatedVector([1.0, 1.0]), T)


def test_power_bound_and_certified_power_agree():
    eye = SparseOperator.from_dense(np.eye(2))
    with pytest.raises(ValueError, match="certified_power"):
        PowerBoundedOperator(eye, power_bound=1.0, certified_power=None)
    with pytest.raises(ValueError, match="certified_power"):
        PowerBoundedOperator(eye, power_bound=math.inf, certified_power=3)
    with pytest.raises(ValueError, match="certified_power"):
        PowerBoundedOperator(eye, power_bound=1.0, certified_power=0)


def test_renorm_no_warning_when_stabilized(T1_64):
    import warnings as _warnings

    with _warnings.catch_warnings():
        _warnings.simplefilter("error")
        renorm(basis_vector(1, 64), T1_64)



# --- the semigroup itself ---

def test_S_at_zero_is_identity(T1_64):
    rng = np.random.default_rng(5)
    x = rand_vec(rng, 64)
    assert np.array_equal(apply_S(0.0, x, T1_64, 1e-12).coords, x.coords)


def test_S_of_identity_matrix_is_identity():
    T = PowerBoundedOperator.from_matrix(StructuredOperator(np.ones(7)))
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
    # the means refuse what the trajectories refuse, with the same words
    identity = PowerBoundedOperator.from_matrix(StructuredOperator(np.ones(4)))
    for mean in (lambda *a: next(stream_cesaro_S(*a)), curve_cesaro_S):
        for tol in (0.0, -1e-10):
            with pytest.raises(ValueError, match="tol must be > 0"):
                mean([0.5, 1.0], basis_vector(1, 64), T1_64, tol)
        for T in (T1_64, identity):
            with pytest.raises(ValueError, match="dimension mismatch"):
                mean([0.5, 1.0], basis_vector(1, 1), T, 1e-10)
    # a non-finite point, after a good one, is named before any series runs
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"time t must be .*, got {bad}"):
            next(stream_S([0.5, bad], basis_vector(1, 64), T1_64, 1e-10))
        with pytest.raises(ValueError, match=f"averaging length r must be .*, got {bad}"):
            next(stream_cesaro_S([0.5, bad], basis_vector(1, 64), T1_64, 1e-10))


@pytest.mark.parametrize("call", [
    lambda x, T: apply_S(0.4, x, T, 1e-10),
    lambda x, T: next(stream_S([0.4], x, T, 1e-10)),
    lambda x, T: next(stream_cesaro_S([0.1, 0.2, 0.4], x, T, 1e-10)),
    lambda x, T: curve_cesaro_S([0.1, 0.2, 0.4], x, T, 1e-10),
    lambda x, T: semigroup_defect_S(0.2, 0.2, x, T, 1e-10),
], ids=["apply_S", "stream_S", "stream_cesaro_S", "curve_cesaro_S", "semigroup_defect_S"])
def test_S_target_below_the_normal_range_raises(call):
    # eps * tol * r / (power_bound * ||x||_1) underflows, and the window's loss would certify an error of 0
    T = PowerBoundedOperator.from_matrix(np.array([[0.5, 1.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="below the smallest normal double"):
        call(TruncatedVector(np.array([1e300, 1.0])), T)


def test_fixed_vectors_are_fixed_by_S():
    # doubly stochastic symmetric matrix: the uniform vector is fixed
    mat = np.full((3, 3), 0.25)
    np.fill_diagonal(mat, 0.5)
    T = PowerBoundedOperator.from_matrix(mat, horizon=64)
    fixed = TruncatedVector([1 / 3, 1 / 3, 1 / 3])
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
    T = PowerBoundedOperator.from_matrix(StructuredOperator(np.ones(5)))
    x = TruncatedVector([1.0, 2.0, -1.0, 0.0, 0.5])
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
    buf = io.StringIO()
    to_sparse_triples(op, buf)
    T = PowerBoundedOperator.from_matrix(from_sparse_triples(buf.getvalue()), horizon=32)
    assert np.array_equal(T.operator.dense(), op.dense())
    rng = np.random.default_rng(9)
    x = rand_vec(rng, 16)
    direct = PowerBoundedOperator.from_matrix(op.dense(), horizon=32)
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


@pytest.mark.parametrize("rest_tol", [1e-10, 1e-17, 1e-30])
@pytest.mark.parametrize("t", [0.01, 1.0, 30.0, 700.0, 760.0, 1e4])
def test_poisson_window_loss_covers_the_dropped_first_moment(t, rest_tol):
    # past the window's last index R, sum_{i > R} i P(X = i) = t P(X >= R) for X ~ Poisson(t)
    mpmath = pytest.importorskip("mpmath")
    L, p, lost = poisson_window(t, rest_tol)
    with mpmath.workdps(40):
        dropped = mpmath.mpf(t) * mpmath.gammainc(L + p.size - 1, 0, t, regularized=True)
    assert lost >= dropped


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
