"""Cesaro means C(r)x = (1/r) * integral of T(s)x over [0, r].

Closed forms are the production path for all three semigroups: the
diagonal decay semigroup has diagonal means, the perturbed one reduces
to the coefficient antiderivatives, and the exponential semigroup of a
power-bounded matrix integrates its uniformization series term by term
into Poisson upper tails.  An adaptive Simpson quadrature serves only as
the independent oracle for every closed form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .coeffs import integral_b_row
from .exp_semigroup import PowerBoundedOperator, poisson_window
from .space import DualFunctional, TruncatedVector, norm_l1, pair

__all__ = [
    "QuadratureError",
    "CesaroCurve",
    "cesaro_M",
    "cesaro_M_opnorm",
    "cesaro_T",
    "cesaro_T_certificate",
    "cesaro_quadrature",
    "cesaro_S",
    "adaptive_simpson",
    "curve_cesaro_M",
    "curve_cesaro_T",
    "curve_cesaro_M_opnorm",
    "curve_cesaro_S",
]

_F_ONES = DualFunctional.constant_one()
_EPS = sys.float_info.epsilon


class QuadratureError(RuntimeError):
    """Raised when adaptive refinement exhausts its budget before reaching tol.

    Carries the best available estimate and the achieved error bound.
    """

    def __init__(self, message: str, best_estimate: np.ndarray, achieved_error: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.achieved_error = achieved_error


def _check_r(r: float):
    if r <= 0:
        raise ValueError(f"averaging length r must be > 0, got {r}")


def cesaro_M(r: float, x: TruncatedVector) -> TruncatedVector:
    """Mean of the decay semigroup: coordinate h is scaled by (h/r)(1 - exp(-r/h)).

    Exact (diagonal), no truncation error.
    """
    _check_r(r)
    h = np.arange(1, x.dim + 1, dtype=float)
    return TruncatedVector((h / r) * -np.expm1(-r / h) * x.coords)


def cesaro_M_opnorm(r: float, N: int) -> float:
    """Exact l1 operator norm of the decay-semigroup mean at truncation N.

    The diagonal entries (h/r)(1 - exp(-r/h)) increase in h, so the max
    sits at h = N; it stays above 1 - 1/e for every r <= N, while for any
    fixed N it decays like N/r as r grows: finite truncations are
    uniformly mean ergodic, but no norm decay happens uniformly in N.
    """
    _check_r(r)
    if N < 1:
        raise ValueError(f"truncation N must be >= 1, got {N}")
    h = np.arange(1, N + 1, dtype=float)
    return float(((h / r) * -np.expm1(-r / h)).max())


def cesaro_T(r: float, x: TruncatedVector) -> TruncatedVector:
    """Mean of the perturbed semigroup, via coefficient antiderivatives.

    Truncation drops integrated coefficient mass beyond the edge; the
    discrepancy is bounded by cesaro_T_certificate(r, N) * norm_l1(x).
    """
    _check_r(r)
    out = cesaro_M(r, x).coords.copy()
    if x.dim > 1:
        prefix = np.cumsum(x.coords)[:-1]
        out[1:] += prefix * integral_b_row(r, x.dim)[1:] / r
    return TruncatedVector(out)


def cesaro_T_certificate(r: float, N: int) -> float:
    """Per-unit-norm truncation bound for cesaro_T at truncation N.

    Exact value of (1/r) * integral of (1 - exp(-s/N)) over [0, r],
    which is 1 - (N/r)(1 - exp(-r/N)) <= r/(2N).
    """
    _check_r(r)
    if N < 1:
        raise ValueError(f"truncation N must be >= 1, got {N}")
    return 1.0 - (N / r) * -math.expm1(-r / N)


def adaptive_simpson(
    f: Callable[[float], np.ndarray],
    a: float,
    b: float,
    tol: float,
    budget: int = 2**20,
) -> np.ndarray:
    """Adaptive composite Simpson rule for array-valued integrands.

    Bisection is keyed to the l1 norm of the local Richardson defect;
    an interval is accepted when that defect is within 15x its share of
    the tolerance.  Raises QuadratureError with the best estimate and the
    achieved error bound if ``budget`` evaluations are not enough.
    """
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if not b > a:
        raise ValueError(f"need b > a, got [{a}, {b}]")
    if budget < 8:
        raise ValueError(f"budget too small to form any estimate, got {budget}")
    evals = [0]

    def ev(s: float) -> np.ndarray:
        evals[0] += 1
        if evals[0] > budget:
            raise _BudgetExhausted()
        return np.asarray(f(s), dtype=float)

    def simpson(lo, f_lo, hi, f_hi):
        mid = 0.5 * (lo + hi)
        f_mid = ev(mid)
        return mid, f_mid, (hi - lo) / 6.0 * (f_lo + 4.0 * f_mid + f_hi)

    fa = ev(a)
    fb = ev(b)
    m0, fm0, whole0 = simpson(a, fa, b, fb)
    acc = np.zeros_like(fa)
    acc_err = 0.0
    min_width = (b - a) * 1e-13
    # stack entries: (lo, f_lo, mid, f_mid, hi, f_hi, whole, local_tol)
    stack = [(a, fa, m0, fm0, b, fb, whole0, tol)]
    in_flight = None  # whole of the interval being refined when budget dies
    try:
        while stack:
            lo, f_lo, mid, f_mid, hi, f_hi, whole, ltol = stack.pop()
            in_flight = whole
            lm, f_lm, left = simpson(lo, f_lo, mid, f_mid)
            rm, f_rm, right = simpson(mid, f_mid, hi, f_hi)
            in_flight = None
            delta = left + right - whole
            err = float(np.abs(delta).sum()) / 15.0
            if err <= ltol or (hi - lo) < min_width:
                acc = acc + left + right + delta / 15.0
                acc_err += err
            else:
                stack.append((lo, f_lo, lm, f_lm, mid, f_mid, left, 0.5 * ltol))
                stack.append((mid, f_mid, rm, f_rm, hi, f_hi, right, 0.5 * ltol))
    except _BudgetExhausted:
        pending = [entry[6] for entry in stack]
        if in_flight is not None:
            pending.append(in_flight)
        best = acc + sum(pending, np.zeros_like(acc))
        # unrefined intervals carry no defect estimate; their whole l1 mass
        # is a safe overestimate of what the result may still move by
        achieved = acc_err + sum(float(np.abs(p).sum()) for p in pending)
        raise QuadratureError(
            f"quadrature budget {budget} exhausted before reaching tol {tol}",
            best_estimate=best,
            achieved_error=achieved,
        ) from None
    return acc


class _BudgetExhausted(Exception):
    pass


def cesaro_quadrature(
    semigroup_apply: Callable[[float, TruncatedVector], TruncatedVector],
    r: float,
    x: TruncatedVector,
    tol: float,
    budget: int = 2**20,
) -> TruncatedVector:
    """Quadrature oracle for the mean of an arbitrary semigroup.

    Approximates (1/r) * integral of semigroup_apply(s, x) over [0, r]
    with l1 error below ``tol``.
    """
    _check_r(r)

    def integrand(s: float) -> np.ndarray:
        return semigroup_apply(s, x).coords

    total = adaptive_simpson(integrand, 0.0, r, tol * r, budget=budget)
    return TruncatedVector(total / r)


def cesaro_S(
    r: float,
    x: TruncatedVector,
    T: PowerBoundedOperator,
    tol: float,
) -> TruncatedVector:
    """Mean of the exponential semigroup of T: curve_cesaro_S on a one-point grid."""
    return curve_cesaro_S([r], x, T, tol).vectors[0]


def _mean_weights(r: float, scale: float, tol: float) -> tuple[np.ndarray, float]:
    """u_j = P(X >= j+1)/r for X ~ Poisson(r), j = 0..R, and the window's loss.

    The upper tails are summed from the top of the Poisson window; u_R is 0.
    """
    _check_r(r)
    L, p, lost = poisson_window(r, _EPS * tol * r / scale if scale else math.inf)
    upper = np.cumsum(p[::-1])[::-1]  # P(X >= L + k)
    return np.concatenate([np.full(L, upper[0]), upper[1:], [0.0]]) / r, lost


# --- sampled curves over r-grids ---

@dataclass
class CesaroCurve:
    """Samples of r -> C(r)x (vector mode) or r -> ||C(r)|| (norm mode).

    ``trunc_error`` holds one per-sample certificate bounding the l1
    discrepancy against the untruncated mean.
    """

    r_grid: np.ndarray
    kind: str  # "vector" | "norm"
    trunc_error: np.ndarray
    vectors: list[TruncatedVector] | None = None
    values: np.ndarray | None = None
    caveats: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.r_grid = np.asarray(self.r_grid, dtype=float)
        self.trunc_error = np.asarray(self.trunc_error, dtype=float)
        if self.r_grid.ndim != 1 or self.r_grid.size < 1:
            raise ValueError("r_grid must be a nonempty 1-d array")
        if np.any(self.r_grid <= 0) or np.any(np.diff(self.r_grid) <= 0):
            raise ValueError("r_grid must be strictly increasing and positive")
        if not np.all(np.isfinite(self.trunc_error)) or np.any(self.trunc_error < 0):
            raise ValueError("trunc_error entries must be finite and nonnegative")
        if self.kind == "vector":
            if self.vectors is None or len(self.vectors) != self.r_grid.size:
                raise ValueError("vector curve needs one sample per grid point")
        elif self.kind == "norm":
            if self.values is None or len(self.values) != self.r_grid.size:
                raise ValueError("norm curve needs one value per grid point")
            self.values = np.asarray(self.values, dtype=float)
        else:
            raise ValueError(f"unknown curve kind {self.kind!r}")

    def __len__(self) -> int:
        return int(self.r_grid.size)

    def norms(self) -> np.ndarray:
        if self.kind == "norm":
            return self.values.copy()
        return np.array([norm_l1(v) for v in self.vectors])

    def max_coordinates(self) -> np.ndarray | None:
        if self.kind != "vector":
            return None
        return np.array([float(np.abs(v.coords).max()) for v in self.vectors])

    def max_indices(self) -> np.ndarray | None:
        """1-based index of the largest absolute coordinate per sample."""
        if self.kind != "vector":
            return None
        return np.array([int(np.abs(v.coords).argmax()) + 1 for v in self.vectors])

    def f_values(self) -> np.ndarray | None:
        if self.kind != "vector":
            return None
        return np.array([pair(_F_ONES, v) for v in self.vectors])

    def to_csv(self) -> str:
        """CSV with columns r, value_or_norm, trunc_error, max_coordinate, f_value."""
        lines = ["r,value_or_norm,trunc_error,max_coordinate,f_value"]
        norms = self.norms()
        maxes = self.max_coordinates()
        fvals = self.f_values()
        for i in range(len(self)):
            cells = [f"{self.r_grid[i]:.16e}", f"{norms[i]:.16e}", f"{self.trunc_error[i]:.16e}"]
            if self.kind == "vector":
                cells.append(f"{maxes[i]:.16e}")
                cells.append(f"{fvals[i]:.16e}")
            else:
                cells.extend(["", ""])
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def geometric_grid(start: float, factor: float, count: int) -> np.ndarray:
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError("need start > 0, factor > 1, count >= 1")
    return start * factor ** np.arange(count, dtype=float)


def curve_cesaro_M(r_grid, x: TruncatedVector) -> CesaroCurve:
    r_grid = np.asarray(r_grid, dtype=float)
    return CesaroCurve(
        r_grid=r_grid,
        kind="vector",
        vectors=[cesaro_M(r, x) for r in r_grid],
        trunc_error=np.zeros(r_grid.size),
    )


def curve_cesaro_T(r_grid, x: TruncatedVector) -> CesaroCurve:
    r_grid = np.asarray(r_grid, dtype=float)
    scale = norm_l1(x)
    return CesaroCurve(
        r_grid=r_grid,
        kind="vector",
        vectors=[cesaro_T(r, x) for r in r_grid],
        trunc_error=np.array([scale * cesaro_T_certificate(r, x.dim) for r in r_grid]),
    )


def curve_cesaro_M_opnorm(r_grid, N: int) -> CesaroCurve:
    r_grid = np.asarray(r_grid, dtype=float)
    return CesaroCurve(
        r_grid=r_grid,
        kind="norm",
        values=np.array([cesaro_M_opnorm(r, N) for r in r_grid]),
        trunc_error=np.zeros(r_grid.size),
    )


def curve_cesaro_S(r_grid, x: TruncatedVector, T: PowerBoundedOperator, tol: float) -> CesaroCurve:
    """Closed-form means C_S(r)x = (1/r) sum_j P(Poisson(r) >= j+1) T^j x.

    Integrating S(s)x = sum_j P(Poisson(s) = j) T^j x over [0, r] term by
    term gives these weights.  The powers T^j x are formed once for the
    whole grid, up to the first J at which the largest r drops at most
    ``tol``: power_bound * ||x||_1 * (1/r) * sum_{j>J} P(X >= j+1), plus
    the Poisson window's loss.  That drop grows with r, so each row's own
    bound, reported as its ``trunc_error``, is within ``tol`` too.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.ndim != 1 or r_grid.size < 1:
        raise ValueError("r_grid must be a nonempty 1-d array")
    scale = T.power_bound * norm_l1(x)
    rows = [_mean_weights(float(r), scale, tol) for r in r_grid]

    def error_bounds(u, lost, r):
        # l1 error of stopping at J = 0..R: the weight past J, plus the
        # window's loss on each kept weight and on the tail
        after = np.append(np.cumsum(u[::-1])[::-1][1:], 0.0)
        return scale * (after + ((np.arange(u.size) + 2) / r + 1.0) * lost)

    top = int(np.argmax(r_grid))
    within = np.flatnonzero(error_bounds(*rows[top], r_grid[top]) <= tol)
    if not within.size:
        raise ValueError(f"tol {tol:g} is out of reach at ||x||_1 * power_bound = {scale:g}")
    J = int(within[0])
    powers = np.empty((J + 1, x.dim))
    powers[0] = x.coords
    for j in range(1, J + 1):
        powers[j] = T.matrix @ powers[j - 1]
    weights = np.empty((r_grid.size, J + 1))
    errors = np.empty(r_grid.size)
    for i, ((u, lost), r) in enumerate(zip(rows, r_grid)):
        u = np.pad(u, (0, max(0, J + 1 - u.size)))
        weights[i] = u[: J + 1]
        errors[i] = error_bounds(u, lost, r)[J]
    return CesaroCurve(
        r_grid=r_grid,
        kind="vector",
        vectors=[TruncatedVector(row) for row in weights @ powers],
        trunc_error=errors,
    )
