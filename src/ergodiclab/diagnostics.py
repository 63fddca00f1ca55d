"""Ergodicity verdicts assembled from finite-truncation evidence.

Finite truncations of the operators here are always mean ergodic and
uniformly mean ergodic as matrices, so every verdict about the
infinite-dimensional objects is phrased as a scaling law across the
truncation dimension (adjoint residuals shrinking like -1/N, an
operator-norm floor persisting for r <= N, l1 mass escaping to ever
higher coordinates), never as a single-N fact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .cesaro import CesaroCurve, cesaro_M_opnorm, curve_cesaro_T
from .exp_semigroup import PowerBoundedOperator
from .semigroups import StructuredOperator, matrix_A, matrix_A_inverse, nullity, numerical_rank
from .space import TruncatedVector, basis_vector

__all__ = [
    "Evidence", "ConvergenceVerdict", "kernel_criterion", "sine_criterion", "uniform_criterion_M",
    "mass_escape_profile", "cauchy_convergence_test",
]

UNIFORM_FLOOR = 1.0 - 1.0 / math.e


@dataclass(frozen=True)
class Evidence:
    """One named numerical fact supporting a verdict.

    ``bound`` is the threshold the value is compared against when the
    fact acts as a quantitative witness; ``ref`` names the criterion the
    fact instantiates.
    """

    name: str
    value: float | int | list | bool
    bound: float | None = None
    ref: str | None = None


def kernel_criterion(op: StructuredOperator) -> list[Evidence]:
    """Null-space dimensions of a generator and its adjoint at truncation N.

    A trivial adjoint null space certifies mean ergodicity.  The evidence
    also records the adjoint image of the all-ones functional (the
    coordinate sums of the generator columns): when that residual is
    uniformly small but nonzero, the finite truncations are flagging an
    emergent fixed functional of the infinite-dimensional adjoint.
    """
    null_dim = nullity(op)  # a square matrix and its transpose share their rank
    residual = op.apply_adjoint(TruncatedVector(np.ones(op.dim))).coords
    return [
        Evidence("generator_null_dim", null_dim, ref="adjoint-kernel criterion"),
        Evidence("adjoint_null_dim", null_dim, ref="adjoint-kernel criterion"),
        Evidence("adjoint_ones_residual_max", float(np.abs(residual).max())),
        Evidence("adjoint_ones_residual_min", float(np.abs(residual).min())),
        Evidence(
            "adjoint_ones_residual_uniform",
            bool(np.abs(residual - residual.mean()).max() <= 1e-12 + 1e-9 * np.abs(residual).max()),
        ),
    ]


def _null_basis(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space (columns); may have zero columns."""
    _, svals, vt = np.linalg.svd(matrix)
    rank = numerical_rank(svals)
    return vt[rank:].T if rank else np.eye(matrix.shape[0])


def sine_criterion(T: PowerBoundedOperator) -> list[Evidence]:
    """Fixed-space separation check for a power-bounded matrix.

    Computes bases of fix(T) and fix(T'); separation holds when no
    nonzero fixed functional annihilates the whole fixed space, i.e. the
    cross-Gram matrix has full rank over fix(T').  Mean ergodicity of T
    is equivalent to separation.
    """
    eye, matrix = np.eye(T.dim), T.dense()
    fix_T = _null_basis(matrix - eye)
    fix_Tp = _null_basis(matrix.T - eye)
    dim_fix = fix_T.shape[1]
    dim_fix_adj = fix_Tp.shape[1]
    if dim_fix_adj == 0:
        separated = True  # vacuous: nothing to separate
    elif dim_fix == 0:
        separated = False
    else:
        gram = fix_T.T @ fix_Tp  # rows: fixed vectors, cols: fixed functionals
        separated = numerical_rank(np.linalg.svd(gram, compute_uv=False)) == dim_fix_adj
    evidence = [
        Evidence("fixed_space_dim", dim_fix, ref="fixed-space separation"),
        Evidence("adjoint_fixed_space_dim", dim_fix_adj, ref="fixed-space separation"),
        Evidence("separation_holds", bool(separated), ref="fixed-space separation"),
    ]
    if dim_fix == 0 and dim_fix_adj == 0:
        evidence.append(
            Evidence("obstruction_infinite_dimensional_only", True)
        )
    return evidence


def uniform_criterion_M(N: int, r_grid) -> list[Evidence]:
    """Three mutually consistent facts behind the uniform-ergodicity failure.

    (i) the inverse of the decay generator has l1 norm exactly N, growing
    without bound; (ii) the generator eigenvalues -1/h accumulate at 0;
    (iii) the mean's operator norm keeps a floor of 1 - 1/e for every
    r <= N.  Any one of these degenerates at fixed N; together, across
    growing N, they witness the failure in the limit.
    """
    # both operators are diagonal: the l1 norm is the largest |entry|, the eigenvalues the entries
    inv_norm = float(np.abs(matrix_A_inverse(N).diag).max())
    min_eig = float(np.abs(matrix_A(N).diag).min())
    r_grid = np.asarray(r_grid, dtype=float)
    floor_rs = r_grid[r_grid <= N]
    floor_vals = np.array([cesaro_M_opnorm(r, N) for r in floor_rs])
    floor_ok = bool(floor_vals.size > 0 and np.all(floor_vals >= UNIFORM_FLOOR - 1e-12))
    return [
        Evidence("inverse_generator_norm", float(inv_norm), bound=float(N), ref="resolvent-pole criterion"),
        Evidence("min_eigenvalue_modulus", float(min_eig), ref="spectral accumulation at 0"),
        Evidence("opnorm_floor_holds_on_grid", floor_ok, bound=UNIFORM_FLOOR, ref="operator-norm floor"),
        Evidence(
            "opnorm_min_on_grid",
            float(floor_vals.min()) if floor_vals.size else float("nan"),
            bound=UNIFORM_FLOOR,
        ),
    ]


def mass_escape_profile(r_grid, N: int) -> CesaroCurve:
    """Means of the perturbed semigroup applied to e_1, tracked across r.

    The coordinate-sum functional stays within r/(2N) of 1 while every
    individual coordinate decays: the l1 mass survives but escapes to
    ever higher coordinates, so no strong limit can exist (any candidate
    would have to lie in the trivial generator kernel, forcing 0, yet the
    conserved functional forbids 0).
    """
    if N < 1:
        raise ValueError(f"truncation N must be >= 1, got {N}")
    curve = curve_cesaro_T(np.asarray(r_grid, dtype=float), basis_vector(1, N))
    degraded = [float(r) for r in curve.r_grid if r / (2.0 * N) > 0.1]
    if degraded:
        curve.caveats.append(
            "certificate degraded: r/(2N) exceeds 0.1 at r = "
            + ", ".join(f"{r:g}" for r in degraded)
        )
    return curve


_VERDICTS = ("converges", "diverges", "inconclusive")


@dataclass(frozen=True)
class ConvergenceVerdict:
    verdict: str  # "converges" | "diverges" | "inconclusive"
    witness: float | None = None
    threshold: float | None = None
    detail: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict not in _VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == "diverges":
            if self.witness is None or self.threshold is None or self.witness < self.threshold:
                raise ValueError("diverges requires witness >= threshold")

    def to_json(self) -> str:
        return json.dumps(
            {
                "verdict": self.verdict,
                "witness": self.witness,
                "threshold": self.threshold,
                "detail": self.detail,
            },
            indent=2,
            sort_keys=True,
        )


def cauchy_convergence_test(
    curve: CesaroCurve,
    window: int,
    tol: float,
    floor: float = UNIFORM_FLOOR,
) -> ConvergenceVerdict:
    """Numerical stand-in for convergence of the means as r grows.

    converges: successive differences over the last ``window`` samples
    all fall below ``tol`` and the difference tail is dominated by a
    fitted power decay (or has already hit rounding level).
    diverges: a quantitative lower-bound witness exists: the curve stays
    at or above ``floor`` over the last window while failing the Cauchy
    test (norm mode), or the l1 norm holds the floor while the max
    coordinate decays (vector mode: mass escape).
    Anything else is inconclusive.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    n = len(curve)
    if n < 2 * window:
        raise ValueError(f"need at least {2 * window} samples, got {n}")

    diffs = curve.steps
    tail_diffs = diffs[-window:]
    scale = float(np.abs(curve.values).max())
    cauchy_ok = bool(np.all(tail_diffs < tol))
    decay_ok = _power_decay_dominates(curve.r_grid[1:], diffs, scale)
    detail = {
        "max_tail_diff": float(tail_diffs.max()),
        "cauchy_ok": cauchy_ok,
        "power_decay_ok": decay_ok,
    }

    if cauchy_ok and decay_ok:
        return ConvergenceVerdict("converges", detail=detail)

    window_min = float(curve.values[-window:].min())
    maxes = curve.max_coordinate
    if window_min >= floor - 1e-12 and (curve.kind == "norm" or maxes[-1] <= 0.5 * maxes[0]):
        detail["norm_window_min"] = window_min
        if curve.kind == "vector":  # the mass escapes
            detail["max_coordinate_drop"] = float(maxes[-1] / maxes[0])
        return ConvergenceVerdict("diverges", witness=window_min, threshold=floor - 1e-12, detail=detail)
    return ConvergenceVerdict("inconclusive", detail=detail)


def _power_decay_dominates(r_values: np.ndarray, diffs: np.ndarray, scale: float) -> bool:
    """True when the difference sequence sits under a fitted decaying power law."""
    rounding = 100.0 * np.finfo(float).eps * max(scale, 1.0)
    live = diffs > rounding
    if not np.any(live[-max(2, live.size // 2):]):
        return True  # differences already at rounding level: flat tail
    if np.sum(live) < 3:
        return True
    logs_r = np.log(r_values[live])
    logs_d = np.log(diffs[live])
    slope, intercept = np.polyfit(logs_r, logs_d, 1)
    if slope >= 0:
        return False
    fitted = intercept + slope * logs_r
    return bool(np.all(logs_d <= fitted + math.log(10.0)))
