"""Tests for the ergodicity diagnostics and verdict machinery."""

import json
import math

import numpy as np
import pytest

from ergodiclab.cesaro import (
    curve_cesaro_M,
    curve_cesaro_M_opnorm,
    curve_cesaro_T,
    geometric_grid,
    CesaroCurve,
)
from ergodiclab.diagnostics import (
    UNIFORM_FLOOR,
    ConvergenceVerdict,
    cauchy_convergence_test,
    kernel_criterion,
    mass_escape_profile,
    sine_criterion,
    uniform_criterion_M,
)
from ergodiclab.exp_semigroup import PowerBoundedOperator
from ergodiclab.semigroups import StructuredOperator, matrix_A, matrix_B, matrix_N
from ergodiclab.space import basis_vector, zero_vector


def evidence_map(evs):
    return {e.name: e for e in evs}


# --- kernel criterion ---

def test_kernel_criterion_for_decay_generator():
    # the decay generator is diagonal and self-adjoint at finite truncation
    evs = evidence_map(kernel_criterion(matrix_A(100)))
    assert evs["generator_null_dim"].value == 0
    assert evs["adjoint_null_dim"].value == 0


def test_kernel_criterion_for_perturbed_generator():
    n = 100
    evs = evidence_map(kernel_criterion(matrix_B(n)))
    assert evs["generator_null_dim"].value == 0
    assert evs["adjoint_null_dim"].value == 0
    # the all-ones functional is nearly fixed: residual uniformly -1/N
    assert evs["adjoint_ones_residual_max"].value == pytest.approx(1.0 / n, abs=1e-14)
    assert evs["adjoint_ones_residual_min"].value == pytest.approx(1.0 / n, abs=1e-14)
    assert evs["adjoint_ones_residual_uniform"].value is True


def test_kernel_criterion_residual_scales_as_inverse_N():
    for n in (10, 100, 1000):
        evs = evidence_map(kernel_criterion(matrix_B(n)))
        assert (evs["generator_null_dim"].value, evs["adjoint_null_dim"].value) == (0, 0)
        assert evs["adjoint_ones_residual_max"].value == pytest.approx(1.0 / n, abs=1e-14)


def test_kernel_criterion_zero_generator():
    evs = evidence_map(kernel_criterion(StructuredOperator(np.zeros(7), np.zeros(7))))
    assert evs["generator_null_dim"].value == 7
    assert evs["adjoint_null_dim"].value == 7


@pytest.mark.parametrize(
    "op",
    [matrix_N(1.0, 5), StructuredOperator(np.zeros(6), np.ones(6))],
    ids=["matrix_N", "strictly_lower_ones"],
)
def test_kernel_criterion_strictly_lower_has_nullity_one(op):
    # a zero diagonal does not make every column null: only the last column vanishes
    assert np.linalg.matrix_rank(op.dense()) == op.dim - 1
    evs = evidence_map(kernel_criterion(op))
    assert evs["generator_null_dim"].value == 1
    assert evs["adjoint_null_dim"].value == 1


@pytest.mark.parametrize("n", [1000, 65536])
def test_kernel_criterion_reads_the_structure(monkeypatch, n):
    def refuse(self):
        raise AssertionError("a nonzero diagonal decides without the dense matrix")

    monkeypatch.setattr(StructuredOperator, "dense", refuse)
    for op in (matrix_A(n), matrix_B(n)):
        evs = evidence_map(kernel_criterion(op))
        assert (evs["generator_null_dim"].value, evs["adjoint_null_dim"].value) == (0, 0)


# --- fixed-space separation ---

def test_sine_criterion_identity():
    T = PowerBoundedOperator.identity(4)
    evs = evidence_map(sine_criterion(T))
    assert evs["fixed_space_dim"].value == 4
    assert evs["adjoint_fixed_space_dim"].value == 4
    assert evs["separation_holds"].value is True


def test_sine_criterion_timestep_matrix():
    # strictly sub-unit triangular diagonal: both fixed spaces are trivial,
    # separation is vacuous and the obstruction lives beyond every truncation
    T = PowerBoundedOperator.from_timestep(1.0, 64, horizon=16)
    evs = evidence_map(sine_criterion(T))
    assert evs["fixed_space_dim"].value == 0
    assert evs["adjoint_fixed_space_dim"].value == 0
    assert evs["separation_holds"].value is True
    assert evs["obstruction_infinite_dimensional_only"].value is True


def test_sine_criterion_diagonal():
    T = PowerBoundedOperator.from_matrix(np.diag([1.0, 0.5]), horizon=16)
    evs = evidence_map(sine_criterion(T))
    assert evs["fixed_space_dim"].value == 1
    assert evs["adjoint_fixed_space_dim"].value == 1
    assert evs["separation_holds"].value is True


def test_sine_criterion_detects_failed_separation():
    # Jordan block at eigenvalue 1: fix(T) = span(e_1), fix(T') = span(e_2),
    # and <e_1, e_2> = 0, so separation fails (the operator is not mean ergodic)
    T = PowerBoundedOperator.from_matrix(np.array([[1.0, 1.0], [0.0, 1.0]]), horizon=4)
    evs = evidence_map(sine_criterion(T))
    assert evs["fixed_space_dim"].value == 1
    assert evs["adjoint_fixed_space_dim"].value == 1
    assert evs["separation_holds"].value is False


# --- uniform ergodicity facts for the decay semigroup ---

def test_uniform_criterion_M_small():
    evs = evidence_map(uniform_criterion_M(10, geometric_grid(1.0, 2.0, 4)))
    assert evs["inverse_generator_norm"].value == 10.0
    assert evs["min_eigenvalue_modulus"].value == pytest.approx(0.1, abs=1e-17)
    assert evs["opnorm_floor_holds_on_grid"].value is True


def test_uniform_criterion_M_large():
    evs = evidence_map(uniform_criterion_M(10_000, geometric_grid(1.0, 4.0, 7)))
    assert evs["inverse_generator_norm"].value == 10_000.0
    assert evs["min_eigenvalue_modulus"].value == pytest.approx(1e-4, abs=1e-18)


def test_uniform_criterion_M_single_dim():
    # 1x1 truncation: the mean decays like (1-e^{-r})/r, uniformly ergodic
    evs = evidence_map(uniform_criterion_M(1, geometric_grid(0.25, 2.0, 3)))
    assert evs["inverse_generator_norm"].value == 1.0
    vals = [(1 - math.exp(-r)) / r for r in (0.25, 0.5, 1.0)]
    assert evs["opnorm_min_on_grid"].value == pytest.approx(min(vals), abs=1e-15)


# --- mass escape ---

def test_mass_escape_profile_conservation():
    n = 1024
    profile = mass_escape_profile(geometric_grid(1.0, 2.0, 5), n)
    for r, fval in zip(profile.r_grid, profile.f_value):
        assert 1.0 - r / (2.0 * n) <= fval <= 1.0 + 1e-13
    assert profile.caveats == []


def test_mass_escape_profile_trends():
    n = 4096
    profile = mass_escape_profile(geometric_grid(1.0, 4.0, 5), n)
    assert np.all(np.diff(profile.max_coordinate) <= 1e-15)  # nonincreasing max coordinate
    assert np.all(np.diff(profile.max_index) >= 0)  # max index never moves down
    assert np.all(profile.values <= 1.0 + 1e-13)
    assert np.all(profile.values + profile.trunc_error >= 1.0 - 1e-13)


def test_mass_escape_profile_caveat_for_large_r():
    profile = mass_escape_profile(geometric_grid(16.0, 2.0, 3), 64)
    assert any("certificate degraded" in c for c in profile.caveats)


def test_zero_vector_curve_is_all_zero():
    curve = curve_cesaro_T(geometric_grid(1.0, 2.0, 4), zero_vector(32))
    assert np.all(curve.values == 0.0)


# --- convergence verdicts ---

def test_convergence_on_decaying_curve():
    grid = geometric_grid(1.0, 2.0, 11)  # r = 1..1024
    curve = curve_cesaro_M(grid, basis_vector(1, 64))
    # tail differences on this grid sit at ~4e-3 and halve per step
    verdict = cauchy_convergence_test(curve, window=3, tol=1e-2)
    assert verdict.verdict == "converges"
    deeper = curve_cesaro_M(geometric_grid(1.0, 2.0, 15), basis_vector(1, 64))
    assert cauchy_convergence_test(deeper, window=3, tol=1e-3).verdict == "converges"


def test_divergence_on_opnorm_curve():
    n = 4096
    grid = geometric_grid(1.0, 2.0, 13)  # r up to 4096 = N
    curve = curve_cesaro_M_opnorm(grid, n)
    verdict = cauchy_convergence_test(curve, window=3, tol=1e-3)
    assert verdict.verdict == "diverges"
    assert verdict.witness >= UNIFORM_FLOOR - 1e-12
    assert verdict.witness >= verdict.threshold


def test_constant_curve_converges():
    grid = geometric_grid(1.0, 2.0, 8)
    curve = CesaroCurve(
        r_grid=grid, kind="norm", values=np.ones(8), trunc_error=np.zeros(8)
    )
    verdict = cauchy_convergence_test(curve, window=3, tol=1e-6)
    assert verdict.verdict == "converges"


def test_convergence_test_needs_enough_samples():
    grid = geometric_grid(1.0, 2.0, 4)
    curve = CesaroCurve(
        r_grid=grid, kind="norm", values=np.ones(4), trunc_error=np.zeros(4)
    )
    with pytest.raises(ValueError):
        cauchy_convergence_test(curve, window=3, tol=1e-6)


def test_mass_escape_curve_diverges():
    n = 8192
    grid = geometric_grid(32.0, 2.0, 7)  # r = 32..2048, certificates stay sane
    curve = curve_cesaro_T(grid, basis_vector(1, n))
    verdict = cauchy_convergence_test(curve, window=3, tol=1e-4)
    assert verdict.verdict == "diverges"
    assert verdict.detail["max_coordinate_drop"] <= 0.5


def test_verdict_soundness_enforced():
    with pytest.raises(ValueError):
        ConvergenceVerdict("diverges", witness=None, threshold=None)
    with pytest.raises(ValueError):
        ConvergenceVerdict("diverges", witness=0.1, threshold=0.5)
    v = ConvergenceVerdict("diverges", witness=0.7, threshold=0.5)
    assert json.loads(v.to_json())["verdict"] == "diverges"
