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

from .cesaro import CesaroCurve
from .semigroups import StructuredOperator, nullity
from .space import TruncatedVector

__all__ = ["ConvergenceVerdict", "kernel_criterion", "cauchy_convergence_test"]

UNIFORM_FLOOR = 1.0 - 1.0 / math.e


def kernel_criterion(op: StructuredOperator) -> dict:
    """Null-space dimension of a generator (and so of its adjoint) at truncation N.

    A trivial adjoint null space certifies mean ergodicity; a square matrix
    and its transpose share their rank, so one ``null_dim`` serves both.
    The dict also records the adjoint image of the all-ones functional (the
    coordinate sums of the generator columns): when that residual is
    uniformly small but nonzero, the finite truncations are flagging an
    emergent fixed functional of the infinite-dimensional adjoint.
    """
    residual = op.apply_adjoint(TruncatedVector(np.ones(op.dim))).coords
    return {
        "null_dim": nullity(op),
        "adjoint_ones_residual_max": float(np.abs(residual).max()),
        "adjoint_ones_residual_min": float(np.abs(residual).min()),
        "adjoint_ones_residual_uniform":
            bool(np.abs(residual - residual.mean()).max() <= 1e-12 + 1e-9 * np.abs(residual).max()),
    }


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


def cauchy_convergence_test(curve: CesaroCurve, window: int, tol: float) -> ConvergenceVerdict:
    """Numerical stand-in for convergence of the means as r grows.

    converges: successive differences over the last ``window`` samples
    all fall below ``tol`` and the difference tail is dominated by a
    fitted power decay (or has already hit rounding level).
    diverges: a quantitative lower-bound witness exists: the curve stays
    at or above UNIFORM_FLOOR over the last window while failing the Cauchy
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
    threshold = UNIFORM_FLOOR - 1e-12
    if window_min >= threshold and (curve.kind == "norm" or maxes[-1] <= 0.5 * maxes[0]):
        detail["norm_window_min"] = window_min
        if curve.kind == "vector":  # the mass escapes
            detail["max_coordinate_drop"] = float(maxes[-1] / maxes[0])
        return ConvergenceVerdict("diverges", witness=window_min, threshold=threshold, detail=detail)
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
