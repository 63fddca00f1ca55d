"""Tests for Cesaro means: closed forms against the quadrature oracle."""

import math

import numpy as np
import pytest

from ergodiclab.cesaro import (
    CesaroCurve,
    QuadratureError,
    adaptive_simpson,
    cesaro_M,
    cesaro_M_opnorm,
    cesaro_quadrature,
    cesaro_S,
    cesaro_T,
    cesaro_T_certificate,
    curve_cesaro_M,
    curve_cesaro_M_opnorm,
    curve_cesaro_S,
    curve_cesaro_T,
    geometric_grid,
)
from ergodiclab import cesaro
from ergodiclab.exp_semigroup import PowerBoundedOperator, apply_S
from ergodiclab.semigroups import apply_M, apply_T
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
    result = adaptive_simpson(lambda s: np.array([s**3 - 2 * s + 1]), 0.0, 2.0, 1e-12)
    assert result[0] == pytest.approx(4.0 - 4.0 + 2.0, abs=1e-13)


def test_simpson_on_exponential():
    result = adaptive_simpson(lambda s: np.array([math.exp(-s)]), 0.0, 3.0, 1e-12)
    assert result[0] == pytest.approx(1.0 - math.exp(-3.0), abs=1e-11)


def test_simpson_vector_valued():
    result = adaptive_simpson(
        lambda s: np.array([math.sin(s), math.cos(s)]), 0.0, math.pi / 2, 1e-12
    )
    assert result == pytest.approx([1.0, 1.0], abs=1e-11)


def test_simpson_budget_exhaustion_carries_payload():
    # an oscillatory integrand at an impossible tolerance must fail loudly
    with pytest.raises(QuadratureError) as info:
        adaptive_simpson(
            lambda s: np.array([math.sin(1000.0 * s)]), 0.0, 10.0, 1e-18, budget=64
        )
    err = info.value
    assert err.best_estimate.shape == (1,)
    assert err.achieved_error >= 0.0


def test_simpson_rejects_bad_arguments():
    f = lambda s: np.array([1.0])
    with pytest.raises(ValueError):
        adaptive_simpson(f, 0.0, 1.0, -1e-9)
    with pytest.raises(ValueError):
        adaptive_simpson(f, 1.0, 1.0, 1e-9)


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
            oracle = cesaro_quadrature(apply_M, r, x, 1e-12)
            assert norm_l1(closed - oracle) <= 1e-10


def test_cesaro_M_opnorm_values():
    assert cesaro_M_opnorm(1.0, 1) == pytest.approx(0.6321205588285577, abs=1e-15)
    v = cesaro_M_opnorm(10.0, 100)
    assert v >= FLOOR
    assert v == pytest.approx((100.0 / 10.0) * (1 - math.exp(-0.1)), abs=1e-14)
    assert cesaro_M_opnorm(1e6, 10) <= 10.0 / 1e6


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
    oracle = cesaro_quadrature(apply_T, 5.0, x, 1e-10)
    assert norm_l1(closed - oracle) <= 1e-9


def test_cesaro_T_linearity():
    rng = np.random.default_rng(0)
    n = 64
    x = TruncatedVector(rng.uniform(-1, 1, n))
    y = TruncatedVector(rng.uniform(-1, 1, n))
    for r in (0.5, 7.0):
        lhs = cesaro_T(r, 1.25 * x + -0.5 * y)
        rhs = 1.25 * cesaro_T(r, x) + -0.5 * cesaro_T(r, y)
        assert norm_l1(lhs - rhs) <= 1e-12


def test_certificate_bounded_by_r_over_2N():
    for n in (16, 1024):
        for r in (0.5, 4.0, float(n) // 2 or 0.5):
            cert = cesaro_T_certificate(r, n)
            assert 0.0 <= cert <= r / (2.0 * n) + 1e-16


# --- quadrature of generic semigroups ---

def test_quadrature_of_constant_semigroup():
    x = vector([2.0, -1.0, 0.5])
    result = cesaro_quadrature(lambda s, v: v, 3.0, x, 1e-12)
    assert norm_l1(result - x) <= 1e-13


def test_cesaro_S_identity():
    T = PowerBoundedOperator.identity(6)
    rng = np.random.default_rng(1)
    x = TruncatedVector(rng.uniform(-1, 1, 6))
    result = cesaro_S(2.0, x, T, 1e-10)
    assert norm_l1(result - x) <= 1e-9


def test_cesaro_S_fixed_vector():
    mat = np.full((3, 3), 0.25)
    np.fill_diagonal(mat, 0.5)
    T = PowerBoundedOperator.from_matrix(mat, horizon=64)
    fixed = vector([1 / 3, 1 / 3, 1 / 3])
    result = cesaro_S(5.0, fixed, T, 1e-10)
    assert norm_l1(result - fixed) <= 1e-9


def test_cesaro_S_f_conservation_from_timestep():
    n, r = 64, 20.0
    T = PowerBoundedOperator.from_timestep(1.0, n, horizon=64)
    tol = 1e-8
    result = cesaro_S(r, basis_vector(1, n), T, tol)
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
    curve = curve_cesaro_S(S_RADII, x, T, tol)
    for r, closed in zip(S_RADII, curve.vectors):
        oracle = cesaro_quadrature(lambda s, v: apply_S(s, v, T, tol / 10.0), r, x, tol)
        assert norm_l1(closed - oracle) <= 1e-9


def test_closed_form_S_uses_no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the closed form must not call the quadrature")

    monkeypatch.setattr(cesaro, "adaptive_simpson", refuse)
    T = S_CASES["timestep_64"]()
    curve = curve_cesaro_S(geometric_grid(1.0, 2.0, 8), basis_vector(1, 64), T, 1e-10)
    assert len(curve) == 8
    assert cesaro_S(3.0, basis_vector(1, 64), T, 1e-10).dim == 64


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
    for r, fval, cert in zip(rs, curve.f_values(), curve.trunc_error):
        assert abs(fval - -math.expm1(-r * a) / (r * a)) <= cert + 1e-15


def test_closed_form_S_one_sweep_per_curve():
    # the curve forms T^j x once, up to the J that the largest r needs
    T = S_CASES["timestep_64"]()
    calls = []

    class Counting(np.ndarray):
        def __matmul__(self, other):
            calls.append(1)
            return np.asarray(self) @ other

    object.__setattr__(T, "matrix", T.matrix.view(Counting))
    x = basis_vector(1, 64)
    cesaro_S(128.0, x, T, 1e-10)
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
        assert curve.f_values()[0] == pytest.approx(-math.expm1(-r * a) / (r * a), abs=1e-10)


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
    norms = curve.norms()
    assert norms[0] == pytest.approx(1 - math.exp(-1), abs=1e-15)
    assert list(curve.max_indices()) == [1, 1, 1]
    fv = curve.f_values()
    assert fv[0] == pytest.approx(norms[0], abs=1e-15)
