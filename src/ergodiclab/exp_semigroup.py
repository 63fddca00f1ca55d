"""Exponential semigroup S(t) = e^{-t} e^{tT} for a power-bounded matrix T.

The construction turns any power-bounded operator into a bounded
uniformly continuous semigroup: under the renorm
|||x||| = sup_n ||T^n x||_1 the operator T is contractive, hence
|||S(t)||| <= exp(t(|||T||| - 1)) <= 1.  Fixed vectors of T are exactly
the fixed vectors of every S(t).

Series evaluation is matrix-free: S(t)x = sum_j P(Poisson(t) = j) T^j x
is accumulated over the powers T^j x, never forming the exponential
densely.  The Poisson weights come from ``poisson_window``, which starts in
log space where e^{-t} would underflow and sums tails from the top (Fox &
Glynn, "Computing Poisson probabilities", CACM 1988), so neither large t
nor a tolerance near the rounding level stalls the series.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .semigroups import from_sparse_triples, matrix_T, opnorm_l1
from .space import TruncatedVector, norm_l1

__all__ = ["PowerBoundedOperator", "renorm", "poisson_window", "apply_S", "semigroup_defect_S"]

_MAX_SERIES_TERMS = 100_000
_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min  # smallest normal double
_LOG_TINY = math.log(_TINY)


@dataclass(frozen=True, eq=False)
class PowerBoundedOperator:
    """Square matrix with a bound on sup_n of its power norms.

    ``power_bound`` is the max of the l1 operator norms of T^n over
    n = 0..horizon (n = 0 included, so the bound is always >= 1 and the
    renorm below dominates the original norm).  When some power k has
    ||T^k||_1 <= 1 the bound is proven for all n, not just up to horizon.
    """

    matrix: np.ndarray
    power_bound: float
    horizon: int

    def __post_init__(self):
        arr = np.asarray(self.matrix, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("matrix must be square")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])

    @classmethod
    def from_matrix(cls, matrix, horizon: int = 256) -> "PowerBoundedOperator":
        """Scan ||T^n|| for n = 0..horizon, stopping at the first k with ||T^k|| <= 1.

        Past such a k, submultiplicativity gives ||T^n|| <= max_{j<k} ||T^j||
        for every n, so the early stop returns what the full scan would.
        """
        arr = np.asarray(matrix, dtype=float)
        bound = 1.0  # n = 0 term
        power = np.eye(arr.shape[0])
        for _ in range(horizon):
            power = arr @ power
            norm = opnorm_l1(power)
            if norm <= 1.0:
                break
            bound = max(bound, norm)
        return cls(matrix=arr, power_bound=bound, horizon=horizon)

    @classmethod
    def identity(cls, dim: int, horizon: int = 256) -> "PowerBoundedOperator":
        return cls(matrix=np.eye(dim), power_bound=1.0, horizon=horizon)

    @classmethod
    def from_timestep(cls, t: float, dim: int, horizon: int = 256) -> "PowerBoundedOperator":
        """The perturbed-semigroup matrix T(t) at truncation ``dim`` as input."""
        return cls.from_matrix(matrix_T(t, dim).entries, horizon=horizon)

    @classmethod
    def from_triples(cls, text: str, horizon: int = 256) -> "PowerBoundedOperator":
        return cls.from_matrix(from_sparse_triples(text), horizon=horizon)


def renorm(x: TruncatedVector, T: PowerBoundedOperator) -> float:
    """Renorm |||x||| = max_{0 <= n <= horizon} ||T^n x||_1.

    Includes n = 0, so ||x||_1 <= |||x||| <= power_bound * ||x||_1.  The
    finite horizon stands in for a sup over all powers; if the max is
    attained only in the last 10% of powers the horizon has not
    stabilized and a warning is emitted.
    """
    if x.dim != T.dim:
        raise ValueError(f"dimension mismatch: operator {T.dim}, vector {x.dim}")
    v = x.coords.copy()
    best = float(np.abs(v).sum())
    best_at = 0
    for n in range(1, T.horizon + 1):
        v = T.matrix @ v
        norm = float(np.abs(v).sum())
        if norm > best:
            best = norm
            best_at = n
    if best_at > 0.9 * T.horizon:
        warnings.warn(
            f"renorm max attained at power {best_at} of {T.horizon}: "
            "horizon too short to have stabilized",
            stacklevel=2,
        )
    return best


def poisson_window(t: float, rest_tol: float) -> tuple[int, np.ndarray, float]:
    """Poisson(t) probabilities p_L..p_R and a bound on what they leave out.

    Returns ``(L, p, lost)`` with p[k] = P(X = L + k).  L = 0 while e^{-t}
    is a normal double; beyond that, L is the first index whose
    log-probability (from math.lgamma) clears the smallest normal double,
    and the window is normalized to remove the error of that log-space
    start.  Later entries follow from p_{j+1} = p_j t/(j+1) until, past the
    mode, the geometric bound on sum_{i>R} i p_i is within ``rest_tol``.
    ``lost`` bounds that right remainder plus the mass below L and the
    shift the normalization makes, so it bounds both the missing
    probability and the missing first moment sum_{i>R} i p_i.
    """
    if t == 0:
        return 0, np.ones(1), 0.0
    log_t = math.log(t)
    L = 0
    if -t < _LOG_TINY:
        # the log-pmf increases up to the mode, where it is about -log(2 pi t)/2
        lo, hi = 0, int(t)
        while lo < hi:
            mid = (lo + hi) // 2
            if mid * log_t - t - math.lgamma(mid + 1) < _LOG_TINY:
                lo = mid + 1
            else:
                hi = mid
        L = lo
    p = math.exp(L * log_t - t - math.lgamma(L + 1))
    probs = [p]
    j = L
    while True:
        q = t / (j + 1)
        if q < 1.0:  # past the mode the terms shrink at least geometrically
            rest = p * q * ((j + 1) / (1.0 - q) + q / (1.0 - q) ** 2)
            if rest <= rest_tol:
                break
        j += 1
        if j > _MAX_SERIES_TERMS:
            raise ValueError(f"Poisson window at t = {t:g} needs more than {_MAX_SERIES_TERMS} terms")
        p *= q
        probs.append(p)
    probs = np.array(probs)
    if L == 0:
        return 0, probs, rest
    total = probs.sum()
    left = L * _TINY
    return L, probs / total, 2.0 * (left + rest / total)


def apply_S(t: float, x: TruncatedVector, T: PowerBoundedOperator, tol: float) -> TruncatedVector:
    """e^{-t} e^{tT} x by truncated uniformization series with a certified remainder.

    The series stops at the first J whose dropped weight P(Poisson(t) > J),
    multiplied by power_bound * ||x||_1, is within ``tol``; that weight is
    summed from the top of the Poisson window, so it has no rounding floor.
    """
    if t < 0:
        raise ValueError(f"time t must be >= 0, got {t}")
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if x.dim != T.dim:
        raise ValueError(f"dimension mismatch: operator {T.dim}, vector {x.dim}")
    scale = T.power_bound * norm_l1(x)
    L, p, lost = poisson_window(t, _EPS * tol / scale if scale else math.inf)
    # after[k] = P(X > L + k - 1); after[0] covers every J < L as well
    after = np.append(np.cumsum(p[::-1])[::-1], 0.0) + lost
    within = np.flatnonzero(after * scale <= tol)
    if not within.size:
        raise ValueError(f"tol {tol:g} is out of reach at ||x||_1 * power_bound = {scale:g}")
    J = 0 if within[0] == 0 else L + int(within[0]) - 1
    v = x.coords
    acc = None
    for j in range(J + 1):
        if j:
            v = T.matrix @ v
        if j >= L:
            term = p[j - L] * v
            acc = term if acc is None else acc + term
    return TruncatedVector(np.zeros_like(v) if acc is None else acc)


def semigroup_defect_S(
    t: float, s: float, x: TruncatedVector, T: PowerBoundedOperator, tol: float
) -> float:
    """l1 defect ||S(t+s)x - S(t)S(s)x||; bounded by 4 * tol * power_bound."""
    joint = apply_S(t + s, x, T, tol)
    stepped = apply_S(t, apply_S(s, x, T, tol), T, tol)
    return norm_l1(joint - stepped)
