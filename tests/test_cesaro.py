"""Tests for Cesaro means: closed forms against the quadrature oracle."""

import decimal
import math
import sys

import numpy as np
import pytest

from ergodiclab.cesaro import (
    CesaroCurve,
    QuadratureError,
    adaptive_simpson,
    cesaro_M,
    cesaro_M_opnorm,
    cesaro_quadrature,
    cesaro_T,
    cesaro_T_certificate,
    curve_cesaro_M,
    curve_cesaro_M_opnorm,
    curve_cesaro_S,
    curve_cesaro_T,
    geometric_grid,
    stream_cesaro_S,
)
from ergodiclab import cesaro, verification
from ergodiclab.coeffs import b, integral_b
from ergodiclab.exp_semigroup import PowerBoundedOperator, apply_S
from ergodiclab.semigroups import apply_M, apply_T, trajectory_kernel
from ergodiclab.space import (
    DualFunctional,
    TruncatedVector,
    basis_vector,
    norm_l1,
    pair,
    vector,
    zero_vector,
)

F = DualFunctional.constant_one()
FLOOR = 1.0 - 1.0 / math.e


# --- the quadrature oracle itself, validated on independent ground truth ---

def test_simpson_exact_on_cubics():
    # Simpson integrates cubics exactly; the adaptive layer must not spoil that
    result = adaptive_simpson(lambda nodes: [[s**3 - 2 * s + 1] for s in nodes], 0.0, 2.0, 1e-12)
    assert result[0] == pytest.approx(4.0 - 4.0 + 2.0, abs=1e-13)


def test_simpson_on_exponential():
    result = adaptive_simpson(lambda nodes: [[math.exp(-s)] for s in nodes], 0.0, 3.0, 1e-12)
    assert result[0] == pytest.approx(1.0 - math.exp(-3.0), abs=1e-11)


def test_simpson_vector_valued():
    result = adaptive_simpson(
        lambda nodes: [[math.sin(s), math.cos(s)] for s in nodes], 0.0, math.pi / 2, 1e-12
    )
    assert result == pytest.approx([1.0, 1.0], abs=1e-11)


def test_simpson_budget_exhaustion_carries_payload():
    # an oscillatory integrand at an impossible tolerance must fail loudly,
    # having evaluated no more nodes than the budget allows
    seen = []

    def f(nodes):
        seen.extend(nodes.tolist())
        return np.sin(1000.0 * nodes)[:, None]

    with pytest.raises(QuadratureError) as info:
        adaptive_simpson(f, 0.0, 10.0, 1e-18, budget=64)
    err = info.value
    assert err.best_estimate.shape == (1,)
    assert np.isfinite(err.best_estimate).all()
    assert err.achieved_error >= 0.0
    assert len(seen) <= 64


def test_simpson_rejects_bad_arguments():
    f = lambda nodes: [[1.0] for _ in nodes]
    with pytest.raises(ValueError):
        adaptive_simpson(f, 0.0, 1.0, -1e-9)
    with pytest.raises(ValueError):
        adaptive_simpson(f, 1.0, 1.0, 1e-9)


# --- the level-synchronous rule against the depth-first rule it replaced ---

class _Exhausted(Exception):
    pass


def depth_first_simpson(f, a, b, tol, budget=2**20):
    """The depth-first adaptive Simpson rule, one node per call of ``f(s)``; kept as the reference."""
    evals = [0]

    def ev(s):
        evals[0] += 1
        if evals[0] > budget:
            raise _Exhausted()
        return np.asarray(f(s), dtype=float)

    def simpson(lo, f_lo, hi, f_hi):
        mid = 0.5 * (lo + hi)
        f_mid = ev(mid)
        return mid, f_mid, (hi - lo) / 6.0 * (f_lo + 4.0 * f_mid + f_hi)

    fa = ev(a)
    fb = ev(b)
    m0, fm0, whole0 = simpson(a, fa, b, fb)
    acc = np.zeros_like(fa)
    min_width = (b - a) * 1e-13
    stack = [(a, fa, m0, fm0, b, fb, whole0, tol)]
    try:
        while stack:
            lo, f_lo, mid, f_mid, hi, f_hi, whole, ltol = stack.pop()
            lm, f_lm, left = simpson(lo, f_lo, mid, f_mid)
            rm, f_rm, right = simpson(mid, f_mid, hi, f_hi)
            delta = left + right - whole
            err = float(np.abs(delta).sum()) / 15.0
            if err <= ltol or (hi - lo) < min_width:
                acc = acc + left + right + delta / 15.0
            else:
                stack.append((lo, f_lo, lm, f_lm, mid, f_mid, left, 0.5 * ltol))
                stack.append((mid, f_mid, rm, f_rm, hi, f_hi, right, 0.5 * ltol))
    except _Exhausted:
        raise QuadratureError("budget exhausted", best_estimate=acc, achieved_error=math.inf) from None
    return acc


def _on_grid(point):
    """The grid integrand that evaluates ``point`` at each node."""
    return lambda nodes: np.array([point(s) for s in nodes])


def _oracle_pair(n, r, k, perturbed):
    """The one-point integrand the oracle took before grid integrands, and the grid kernel it takes now."""
    x = basis_vector(k, n)
    apply = apply_T if perturbed else apply_M
    return (lambda s: apply(s, x).coords), trajectory_kernel(x, perturbed), 1e-11 * r


SIMPSON_CASES = {
    "cubic": lambda: (lambda s: np.array([s**3 - 2 * s + 1]), 0.0, 2.0, 1e-12),
    "exponential": lambda: (lambda s: np.array([math.exp(-s)]), 0.0, 3.0, 1e-12),
    "sin_cos": lambda: (lambda s: np.array([math.sin(s), math.cos(s)]), 0.0, math.pi / 2, 1e-12),
    **{
        f"b_h{h}_r{r:g}": (lambda h=h, r=r: (lambda s: np.array([b(h, s)]), 0.0, r, 1e-11 * integral_b(h, r)))
        for h in (1, 2, 31, 100)
        for r in (0.5, 4.0, 100.0)
    },
}


def _recording(f, seen):
    """``f``, noting in ``seen`` the node, or every node of the grid, it is called at."""

    def recorded(nodes):
        seen.extend(np.atleast_1d(nodes).tolist())
        return f(nodes)

    return recorded


@pytest.mark.parametrize("case", sorted(SIMPSON_CASES))
def test_level_synchronous_simpson_keeps_the_depth_first_bits(case):
    point, a, b_end, tol = SIMPSON_CASES[case]()
    old_nodes, new_nodes = [], []
    want = depth_first_simpson(_recording(point, old_nodes), a, b_end, tol)
    got = adaptive_simpson(_recording(_on_grid(point), new_nodes), a, b_end, tol)
    assert got.tobytes() == want.tobytes()
    assert sorted(new_nodes) == sorted(old_nodes)


@pytest.mark.parametrize("perturbed", [False, True], ids=["M", "T"])
@pytest.mark.parametrize("n", [100, 256])
def test_grid_kernel_oracle_keeps_the_depth_first_bits(n, perturbed):
    for r in (0.5, 5.0, 20.0, 100.0):
        for k in (1, 17, n):
            point, kernel, tol = _oracle_pair(n, r, k, perturbed)
            old_nodes, new_nodes = [], []
            want = depth_first_simpson(_recording(point, old_nodes), 0.0, r, tol)
            got = adaptive_simpson(_recording(kernel, new_nodes), 0.0, r, tol)
            assert got.tobytes() == want.tobytes(), (r, k)
            assert sorted(new_nodes) == sorted(old_nodes), (r, k)


def test_budget_boundary_is_the_depth_first_node_count():
    point = lambda s: np.array([math.exp(-s) * math.sin(5.0 * s)])
    seen = []
    want = depth_first_simpson(_recording(point, seen), 0.0, 3.0, 1e-12)
    assert adaptive_simpson(_on_grid(point), 0.0, 3.0, 1e-12, budget=len(seen)).tobytes() == want.tobytes()
    with pytest.raises(QuadratureError):
        depth_first_simpson(point, 0.0, 3.0, 1e-12, budget=len(seen) - 1)
    with pytest.raises(QuadratureError):
        adaptive_simpson(_on_grid(point), 0.0, 3.0, 1e-12, budget=len(seen) - 1)


def _one_node_per_call(f, a, b, tol, budget=2**20):
    """adaptive_simpson's signature over the depth-first rule, feeding f one node at a time."""
    return depth_first_simpson(lambda s: np.array(next(iter(f(np.array([s])))), dtype=float), a, b, tol, budget)


@pytest.mark.parametrize("N", [1, 2, 257, 1024])
def test_registry_results_equal_under_the_depth_first_rule(monkeypatch, N):
    want = verification.run_all(N, 7)
    monkeypatch.setattr(cesaro, "adaptive_simpson", _one_node_per_call)
    assert verification.run_all(N, 7) == want


def test_oracle_calls_its_kernel_once_per_level_not_per_node():
    kernel = trajectory_kernel(basis_vector(1, 100), perturbed=False)
    calls, nodes = [], []

    def counted(grid):
        calls.append(grid.size)
        nodes.extend(grid.tolist())
        return kernel(grid)

    cesaro_quadrature(counted, 100.0, 1e-11)
    # 14 levels evaluate 869 nodes here; one call per node would make these equal
    assert 20 * len(calls) < len(nodes)


# --- means of the diagonal semigroup ---

def test_cesaro_M_basis_closed_form():
    y = cesaro_M(1.0, basis_vector(1, 4))
    assert y.coords[0] == pytest.approx(0.6321205588285577, abs=1e-16)
    z = cesaro_M(1.0, zero_vector(4))
    assert norm_l1(z) == 0.0
    with pytest.raises(ValueError):
        cesaro_M(0.0, basis_vector(1, 4))


def test_cesaro_M_decay_bound():
    for h in (1, 3, 10, 100):
        x = basis_vector(h, 128)
        for r in (1.0, 10.0, 1e4):
            assert norm_l1(cesaro_M(r, x)) <= h / r


def test_cesaro_M_against_oracle():
    for r in (0.5, 3.0, 20.0):
        for k in (1, 2, 5):
            x = basis_vector(k, 8)
            closed = cesaro_M(r, x)
            oracle = cesaro_quadrature(trajectory_kernel(x, perturbed=False), r, 1e-12)
            assert norm_l1(closed - oracle) <= 1e-10


def test_cesaro_M_opnorm_values():
    assert cesaro_M_opnorm(1.0, 1) == pytest.approx(0.6321205588285577, abs=1e-15)
    v = cesaro_M_opnorm(10.0, 100)
    assert v >= FLOOR
    assert v == pytest.approx((100.0 / 10.0) * (1 - math.exp(-0.1)), abs=1e-14)
    assert cesaro_M_opnorm(1e6, 10) <= 10.0 / 1e6


@pytest.mark.parametrize("n", [1, 2, 16, 64])
def test_opnorm_is_the_max_of_the_dense_mean_diagonal(n):
    rs = geometric_grid(1e-3, 3.0, 12)
    want = []
    for r in rs:
        dense = np.column_stack([cesaro_M(r, basis_vector(k, n)).coords for k in range(1, n + 1)])
        want.append(float(np.diag(dense).max()))
    assert curve_cesaro_M_opnorm(rs, n).values.tolist() == want
    assert [cesaro_M_opnorm(r, n) for r in rs] == want


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_opnorm_refuses_a_nonpositive_r(bad):
    with pytest.raises(ValueError, match="averaging length"):
        cesaro_M_opnorm(bad, 8)
    with pytest.raises(ValueError, match="averaging length"):
        curve_cesaro_M_opnorm([bad, 1.0], 8)


def test_cesaro_M_opnorm_floor_inside_r_le_N():
    for n in (4, 64, 1024):
        for r in np.linspace(1.0, float(n), 7):
            assert cesaro_M_opnorm(float(r), n) >= FLOOR - 1e-12


# --- means of the perturbed semigroup ---

def test_cesaro_T_first_coordinate():
    y = cesaro_T(10.0, basis_vector(1, 64))
    assert y.coords[0] == pytest.approx(0.09999546000702375, abs=1e-16)


def test_cesaro_T_f_value_conservation():
    for n in (64, 1024):
        for r in (1.0, 10.0):
            y = cesaro_T(r, basis_vector(1, n))
            fval = pair(F, y)
            assert fval <= 1.0 + 1e-13
            assert fval >= 1.0 - r / (2.0 * n)
            # the exact deficit is the certificate value
            assert 1.0 - fval == pytest.approx(cesaro_T_certificate(r, n), abs=1e-12)


def test_cesaro_T_zero_vector():
    assert norm_l1(cesaro_T(1.0, zero_vector(5))) == 0.0


def test_cesaro_T_against_oracle():
    n = 1024
    x = basis_vector(1, n)
    closed = cesaro_T(5.0, x)
    oracle = cesaro_quadrature(trajectory_kernel(x, perturbed=True), 5.0, 1e-10)
    assert norm_l1(closed - oracle) <= 1e-9


def test_certificate_bounded_by_r_over_2N():
    for n in (16, 1024):
        for r in (0.5, 4.0, float(n) // 2 or 0.5):
            cert = cesaro_T_certificate(r, n)
            assert 0.0 <= cert <= r / (2.0 * n) + 1e-16


def _exact_certificate(r, N):
    """1 - (N/r)(1 - exp(-r/N)) in 60-digit decimals, summed as its series below r/N = 1."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        u = decimal.Decimal(r) / N
        if u >= 1:
            return 1 - (1 - (-u).exp()) / u
        term, total = u / 2, decimal.Decimal(0)
        for k in range(1, 60):  # u^k / (k+1)! with alternating signs
            total += term
            term *= -u / (k + 2)
        return total


@pytest.mark.parametrize("N", [1024, 65536, 2**22])
def test_T_certificate_never_understates_at_small_r_over_N(N):
    # here the subtraction 1 - (N/r)(1 - exp(-r/N)) would lose up to 13 of 16 digits
    for r in np.geomspace(1e-6, 1.0, 60):
        cert = cesaro_T_certificate(float(r), N)
        exact = _exact_certificate(float(r), N)
        assert decimal.Decimal(cert) >= exact
        assert (decimal.Decimal(cert) - exact) / exact <= decimal.Decimal("1e-15")


def test_T_certificate_never_understates_at_any_r_over_N():
    rng = np.random.default_rng(17)
    normal = np.exp(rng.uniform(math.log(1e-300), math.log(1e6), 400)).tolist()
    subnormal = np.exp(rng.uniform(math.log(1e-322), math.log(1e-307), 50)).tolist()
    for u in normal + subnormal + [0.5, 1.0, 2.0]:
        N = int(rng.integers(1, 2**22 + 1))
        r = u * N
        cert = cesaro_T_certificate(r, N)
        exact = _exact_certificate(r, N)
        assert decimal.Decimal(cert) >= exact, (r, N)
        if cert >= sys.float_info.min:
            assert (decimal.Decimal(cert) - exact) / exact <= decimal.Decimal("2e-15"), (r, N)


# --- quadrature of generic semigroups ---

def test_quadrature_of_constant_semigroup():
    x = vector([2.0, -1.0, 0.5])
    result = cesaro_quadrature(lambda nodes: np.tile(x.coords, (nodes.size, 1)), 3.0, 1e-12)
    assert norm_l1(result - x) <= 1e-13


def mean_S(r, x, T, tol):
    """C_S(r)x, the one row of stream_cesaro_S on a one-point grid."""
    return TruncatedVector(next(stream_cesaro_S([r], x, T, tol))[0])


def test_cesaro_S_identity():
    T = PowerBoundedOperator.identity(6)
    rng = np.random.default_rng(1)
    x = TruncatedVector(rng.uniform(-1, 1, 6))
    result = mean_S(2.0, x, T, 1e-10)
    assert norm_l1(result - x) <= 1e-9


def test_cesaro_S_fixed_vector():
    mat = np.full((3, 3), 0.25)
    np.fill_diagonal(mat, 0.5)
    T = PowerBoundedOperator.from_matrix(mat, horizon=64)
    fixed = vector([1 / 3, 1 / 3, 1 / 3])
    result = mean_S(5.0, fixed, T, 1e-10)
    assert norm_l1(result - fixed) <= 1e-9


def test_cesaro_S_f_conservation_from_timestep():
    n, r = 64, 20.0
    T = PowerBoundedOperator.from_timestep(1.0, n, horizon=64)
    tol = 1e-8
    result = mean_S(r, basis_vector(1, n), T, tol)
    deficit_bound = r / (2.0 * n)
    assert abs(pair(F, result) - 1.0) <= tol * 10 + deficit_bound


# --- closed-form mean of the exponential semigroup ---

def _fixed_vector_matrix():
    mat = np.full((3, 3), 0.25)
    np.fill_diagonal(mat, 0.5)
    return mat


def _substochastic(n, c=0.97, seed=11):
    """Seeded nonnegative matrix whose columns all sum to c."""
    rng = np.random.default_rng(seed)
    mat = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.2) + 1e-3 * np.eye(n)
    return mat * (c / mat.sum(axis=0))


S_CASES = {
    "identity": lambda: PowerBoundedOperator.identity(6),
    "fixed_vector_3x3": lambda: PowerBoundedOperator.from_matrix(_fixed_vector_matrix(), horizon=64),
    "timestep_64": lambda: PowerBoundedOperator.from_timestep(1.0, 64, horizon=64),
    "substochastic_48": lambda: PowerBoundedOperator.from_matrix(_substochastic(48), horizon=64),
}
S_RADII = (0.5, 4.0, 32.0, 128.0)


@pytest.mark.parametrize("case", sorted(S_CASES))
def test_closed_form_S_matches_quadrature_oracle(case):
    T = S_CASES[case]()
    x = TruncatedVector(np.random.default_rng(3).uniform(0.0, 1.0, T.dim))
    tol = 1e-10
    # the rows curve_cesaro_S reduces, one per radius
    for r, (closed, _err) in zip(S_RADII, stream_cesaro_S(S_RADII, x, T, tol), strict=True):
        orbit = lambda nodes: np.array([apply_S(s, x, T, tol / 10.0).coords for s in nodes])
        oracle = cesaro_quadrature(orbit, r, tol)
        assert norm_l1(TruncatedVector(closed) - oracle) <= 1e-9


def test_closed_form_S_uses_no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the closed form must not call the quadrature")

    monkeypatch.setattr(cesaro, "adaptive_simpson", refuse)
    T = S_CASES["timestep_64"]()
    curve = curve_cesaro_S(geometric_grid(1.0, 2.0, 8), basis_vector(1, 64), T, 1e-10)
    assert len(curve) == 8
    assert mean_S(3.0, basis_vector(1, 64), T, 1e-10).dim == 64


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-14])
@pytest.mark.parametrize("case", sorted(S_CASES))
def test_closed_form_S_certificate_within_tol(case, tol):
    T = S_CASES[case]()
    x = TruncatedVector(np.random.default_rng(4).uniform(-1.0, 1.0, T.dim))
    curve = curve_cesaro_S(geometric_grid(0.25, 2.0, 10), x, T, tol)
    assert np.all(curve.trunc_error <= tol)
    assert np.all(curve.trunc_error >= 0.0)


@pytest.mark.parametrize("n", [64, 256])
def test_closed_form_S_exact_f_value(n):
    # columns of T(1) sum to c = exp(-1/n): f(C_S(r)e_1) = (1 - exp(-ra))/(ra), a = 1 - c
    T = PowerBoundedOperator.from_timestep(1.0, n, horizon=64)
    a = -math.expm1(-1.0 / n)
    rs = geometric_grid(0.5, 2.0, 9)
    curve = curve_cesaro_S(rs, basis_vector(1, n), T, 1e-10)
    for r, fval, cert in zip(rs, curve.f_value, curve.trunc_error):
        assert abs(fval - -math.expm1(-r * a) / (r * a)) <= cert + 1e-15


def test_closed_form_S_one_sweep_per_curve():
    # the curve forms T^j x once, up to the J that the largest r needs
    T = S_CASES["timestep_64"]()
    calls = []

    class Counting:
        def __init__(self, op):
            self.op = op

        def __getattr__(self, name):
            return getattr(self.op, name)

        def apply_block(self, coords):
            calls.append(1)
            return self.op.apply_block(coords)

    object.__setattr__(T, "operator", Counting(T.operator))
    x = basis_vector(1, 64)
    curve_cesaro_S([128.0], x, T, 1e-10)
    single = len(calls)
    calls.clear()
    curve_cesaro_S(geometric_grid(1.0, 2.0, 8), x, T, 1e-10)
    assert len(calls) == single
    assert 128 < single <= 128 + 12 * math.sqrt(128)


def test_closed_form_S_large_r_beyond_exp_underflow():
    # r past 745 has e^{-r} = 0 in double precision; the weights start in log space
    T = PowerBoundedOperator.from_matrix(_substochastic(8), horizon=64)
    a = 0.03
    for r in (760.0, 2000.0):
        curve = curve_cesaro_S([r], basis_vector(1, 8), T, 1e-10)
        assert curve.f_value[0] == pytest.approx(-math.expm1(-r * a) / (r * a), abs=1e-10)


# --- curves ---

def test_curve_construction_and_csv():
    grid = geometric_grid(1.0, 2.0, 6)
    curve = curve_cesaro_T(grid, basis_vector(1, 64))
    text = curve.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "r,value_or_norm,trunc_error,max_coordinate,f_value"
    assert len(lines) == 7
    assert all(len(line.split(",")) == 5 for line in lines[1:])


def test_norm_mode_curve_csv_blank_columns():
    curve = curve_cesaro_M_opnorm(geometric_grid(1.0, 2.0, 4), 16)
    for line in curve.to_csv().strip().split("\n")[1:]:
        cells = line.split(",")
        assert cells[3] == "" and cells[4] == ""


@pytest.mark.parametrize("start, factor, count", [(0.25, 2.0, 10), (1e-3, 3.0, 12), (1.0, 1.0000001, 1000),
                                                  (1e-300, 1e5, 62), (1e-300, 1e5, 100), (1e-300, 1e200, 3)])
def test_grid_splits_the_power_only_where_it_overflows(start, factor, count):
    grid = geometric_grid(start, factor, count)
    with np.errstate(over="ignore"):
        plain = start * factor ** np.arange(count, dtype=float)
    finite = np.isfinite(plain)
    assert grid[finite].tobytes() == plain[finite].tobytes()
    assert np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0)
    assert grid[-1] == geometric_grid(start, factor, count, last=True)[0]
    assert grid[-1] == pytest.approx(10.0 ** (math.log10(start) + (count - 1) * math.log10(factor)), rel=1e-12)


def test_curve_grid_validation():
    with pytest.raises(ValueError):
        CesaroCurve(
            r_grid=np.array([2.0, 1.0]),
            kind="norm",
            values=np.array([1.0, 1.0]),
            trunc_error=np.zeros(2),
        )
    with pytest.raises(ValueError):
        CesaroCurve(
            r_grid=np.array([1.0, 2.0]),
            kind="norm",
            values=np.array([1.0, 1.0]),
            trunc_error=np.array([0.0, -1.0]),
        )


def test_curve_statistics():
    curve = curve_cesaro_M(geometric_grid(1.0, 4.0, 3), basis_vector(1, 8))
    assert curve.values[0] == pytest.approx(1 - math.exp(-1), abs=1e-15)
    assert list(curve.max_index) == [1, 1, 1]
    assert curve.f_value[0] == pytest.approx(curve.values[0], abs=1e-15)
