"""Tests for the ergodicity diagnostics and verdict machinery."""

import json

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
)
from ergodiclab.semigroups import StructuredOperator, matrix_A, matrix_B
from ergodiclab.space import TruncatedVector, basis_vector
from rows import perturbation, support_of


# --- kernel criterion ---

def test_kernel_criterion_for_decay_generator():
    # the decay generator is diagonal and self-adjoint at finite truncation
    evs = kernel_criterion(matrix_A(100))
    assert evs["null_dim"] == 0


def test_kernel_criterion_for_perturbed_generator():
    n = 100
    evs = kernel_criterion(matrix_B(n))
    assert evs["null_dim"] == 0
    # the all-ones functional is nearly fixed: residual uniformly -1/N
    assert evs["adjoint_ones_residual_max"] == pytest.approx(1.0 / n, abs=1e-14)
    assert evs["adjoint_ones_residual_min"] == pytest.approx(1.0 / n, abs=1e-14)
    assert evs["adjoint_ones_residual_uniform"] is True


def test_kernel_criterion_residual_scales_as_inverse_N():
    for n in (10, 100, 1000):
        evs = kernel_criterion(matrix_B(n))
        assert evs["null_dim"] == 0
        assert evs["adjoint_ones_residual_max"] == pytest.approx(1.0 / n, abs=1e-14)


def test_kernel_criterion_zero_generator():
    evs = kernel_criterion(StructuredOperator(np.zeros(7), np.zeros(7)))
    assert evs["null_dim"] == 7


@pytest.mark.parametrize(
    "op",
    [perturbation(1.0, 5), StructuredOperator(np.zeros(6), np.ones(6))],
    ids=["matrix_N", "strictly_lower_ones"],
)
def test_kernel_criterion_strictly_lower_has_nullity_one(op):
    # a zero diagonal does not make every column null: only the last column vanishes
    assert np.linalg.matrix_rank(op.dense()) == op.dim - 1
    evs = kernel_criterion(op)
    assert evs["null_dim"] == 1


@pytest.mark.parametrize("n", [1000, 65536])
def test_kernel_criterion_reads_the_structure(monkeypatch, n):
    def refuse(self):
        raise AssertionError("a nonzero diagonal decides without the dense matrix")

    monkeypatch.setattr(StructuredOperator, "dense", refuse)
    for op in (matrix_A(n), matrix_B(n)):
        evs = kernel_criterion(op)
        assert evs["null_dim"] == 0


# --- mass escape ---

def test_zero_vector_curve_is_all_zero():
    curve = curve_cesaro_T(geometric_grid(1.0, 2.0, 4), support_of(TruncatedVector(np.zeros(32))))
    assert np.all(curve.values == 0.0)


# --- convergence verdicts ---

def test_convergence_on_decaying_curve():
    grid = geometric_grid(1.0, 2.0, 11)  # r = 1..1024
    curve = curve_cesaro_M(grid, support_of(basis_vector(1, 64)))
    # tail differences on this grid sit at ~4e-3 and halve per step
    verdict = cauchy_convergence_test(curve, window=3, tol=1e-2)
    assert verdict.verdict == "converges"
    deeper = curve_cesaro_M(geometric_grid(1.0, 2.0, 15), support_of(basis_vector(1, 64)))
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


def test_growing_tail_differences_do_not_converge():
    # every step is below tol, yet the steps grow along the fitted power law (slope 1)
    grid = geometric_grid(1.0, 2.0, 10)
    values = 0.1 + 1e-6 * np.concatenate([[0.0], np.cumsum(grid[1:])])
    curve = CesaroCurve(r_grid=grid, kind="norm", values=values, trunc_error=np.zeros(10))
    verdict = cauchy_convergence_test(curve, window=3, tol=1e-3)
    assert verdict.detail["cauchy_ok"] is True
    assert verdict.detail["power_decay_ok"] is False
    assert verdict.verdict == "inconclusive"


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
    curve = curve_cesaro_T(grid, support_of(basis_vector(1, n)))
    assert np.all(np.diff(curve.max_coordinate) <= 0.0)
    verdict = cauchy_convergence_test(curve, window=3, tol=1e-4)
    assert verdict.verdict == "diverges"
    assert verdict.detail["max_coordinate_drop"] <= 0.5


def test_mass_escape_below_the_floor_is_inconclusive():
    # ||C(r)x||_1 holds 0.6, above 1/2 but below the floor 1 - 1/e, while the largest coordinate decays like 1/r
    grid = geometric_grid(1.0, 2.0, 8)
    held = np.full(grid.size, 0.6)
    curve = CesaroCurve(grid, "vector", np.zeros(grid.size), held, steps=np.full(grid.size - 1, 0.1),
                        max_coordinate=0.6 / grid, max_index=np.arange(1, grid.size + 1), f_value=held)
    verdict = cauchy_convergence_test(curve, window=3, tol=1e-3)
    assert verdict.verdict == "inconclusive"


def test_verdict_soundness_enforced():
    with pytest.raises(ValueError):
        ConvergenceVerdict("diverges", witness=None, threshold=None)
    with pytest.raises(ValueError):
        ConvergenceVerdict("diverges", witness=0.1, threshold=0.5)
    v = ConvergenceVerdict("diverges", witness=0.7, threshold=0.5)
    assert json.loads(v.to_json())["verdict"] == "diverges"
