"""Exponential semigroup S(t) = e^{-t} e^{tT} for a power-bounded operator T.

The construction turns any power-bounded operator into a bounded
uniformly continuous semigroup: under the renorm
|||x||| = sup_n ||T^n x||_1 the operator T is contractive, hence
|||S(t)||| <= exp(t(|||T||| - 1)) <= 1.  Fixed vectors of T are exactly
the fixed vectors of every S(t).

Everything is matrix-free: T acts in O(N) (``StructuredOperator``) or
O(nnz) (``SparseOperator``), and S(t)x = sum_j P(Poisson(t) = j) T^j x
is accumulated over the powers T^j x, never forming the exponential
densely.  The Poisson weights come from ``poisson_window``, which starts in
log space where e^{-t} would underflow and sums tails from the top (Fox &
Glynn, "Computing Poisson probabilities", CACM 1988), so neither large t
nor a tolerance near the rounding level stalls the series.  The Cesaro
means C_S(r)x read the same series with upper tails / r as weights; both
streams run one power sweep per block of grid points (``_sweeps``), and
each point stops at its own J.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .coeffs import _EPS, _check_finite, _check_r, _check_t
from .semigroups import SparseOperator, StructuredOperator
from .space import TruncatedVector, norm_l1

__all__ = [
    "PowerBoundedOperator", "renorm", "poisson_window", "series_target", "stream_S", "stream_cesaro_S", "apply_S",
    "semigroup_defect_S",
]

_MAX_SERIES_TERMS = 100_000
_TINY = sys.float_info.min  # smallest normal double
_LOG_TINY = math.log(_TINY)
# a block of grid points holds at most this many elements: its N-vector rows plus their series weights
BLOCK_ELEMENTS = 2**20


@dataclass(frozen=True, eq=False)
class PowerBoundedOperator:
    """Matrix-free operator T, with its transpose action, and a bound on sup_n of its power norms.

    ``power_bound`` bounds the l1 operator norms of T^n over all n >= 0
    (n = 0 included, so the bound is always >= 1 and the renorm below
    dominates the original norm).  Its certificate is ``certified_power``,
    a k >= 1 with ||T^k||_1 <= 1, past which no power norm exceeds
    max_{n<k} ||T^n||_1; an operator without one has power_bound inf.
    ``exact_bound`` is False for a T with a negative entry, whose scan
    reads |T| instead: power_bound is then an upper bound, not the sup.
    """

    operator: StructuredOperator | SparseOperator
    power_bound: float
    certified_power: int | None
    exact_bound: bool = True

    def __post_init__(self):
        if (self.certified_power is None) != (self.power_bound == math.inf):
            raise ValueError("a finite power_bound needs a certified_power and an infinite one has none")
        if self.certified_power is not None and self.certified_power < 1:
            raise ValueError("certified_power must be >= 1")

    @property
    def dim(self) -> int:
        return self.operator.dim

    def powers(self, coords: np.ndarray, count: int) -> Iterator[np.ndarray]:
        """coords, T coords, ..., T^count coords: one matvec apart."""
        yield coords
        for _ in range(count):
            coords = self.operator.apply_block(coords)
            yield coords

    @classmethod
    def from_matrix(cls, matrix, horizon: int = 256) -> "PowerBoundedOperator":
        """Scan ||T^n|| for n = 0..horizon, stopping at the first k with ||T^k|| <= 1.

        ``matrix`` is a structured or sparse operator, or a dense array, stored
        sparse.  For nonnegative T, ||T^n||_1 is the largest entry of 1^T T^n,
        one adjoint action per power; for signed T the scan reads 1^T |T|^n,
        which bounds 1^T |T^n| entrywise.  Past such a k,
        submultiplicativity gives ||T^n|| <= max_{j<k} ||T^j|| for every n,
        so the early stop returns what the full scan would.  Without such a
        k the norms seen up to horizon bound nothing beyond it (the Jordan
        block [[1, 1], [0, 1]] has ||T^n|| = n + 1), so the bound is inf, as
        it is when a power's norm overflows.
        """
        op = matrix if isinstance(matrix, (StructuredOperator, SparseOperator)) else SparseOperator.from_dense(matrix)
        scanned, bound, row = op.magnitude(), 1.0, np.ones(op.dim)  # |T|, the n = 0 term, and 1^T |T|^0
        exact = scanned is op  # no entry is negative
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, horizon + 1):
                row = scanned.adjoint_block(row)
                norm = float(row.max())
                if not math.isfinite(norm):
                    break
                if norm <= 1.0:
                    return cls(op, bound, k, exact)
                bound = max(bound, norm)
        return cls(op, math.inf, None, exact)


def renorm(x: TruncatedVector, T: PowerBoundedOperator) -> float:
    """Renorm |||x||| = sup_{n >= 0} ||T^n x||_1, exactly max_{0 <= m < k} ||T^m x||_1.

    With k the certified power, n = qk + m gives ||T^n x|| <= ||T^k||^q ||T^m x||
    <= ||T^m x||, so the sup is reached below k.  Includes m = 0, so
    ||x||_1 <= |||x||| <= power_bound * ||x||_1.
    """
    if x.dim != T.dim:
        raise ValueError(f"dimension mismatch: operator {T.dim}, vector {x.dim}")
    if T.certified_power is None:
        raise ValueError("renorm needs a certified power bound, and this operator has none")
    return max(float(np.abs(v).sum()) for v in T.powers(x.coords, T.certified_power - 1))


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
    if -t < _LOG_TINY:  # the log-pmf increases up to the mode, where it is about -log(2 pi t)/2
        L = bisect.bisect_left(range(int(t)), True, key=lambda j: j * log_t - t - math.lgamma(j + 1) >= _LOG_TINY)
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


def series_target(tol: float, power_bound: float, norm: float, r: float = 1.0) -> float:
    """poisson_window's rest_tol for a series within tol * r at scale = power_bound * ||x||_1 (inf at scale 0).

    Raises ValueError where the target is below the smallest normal double:
    there the window's loss reads 0, so it could certify no error.
    """
    scale = power_bound * norm
    if not scale:
        return math.inf
    target = _EPS * tol * r / scale
    if target < _TINY:
        raise ValueError(f"the S series' target eps * quadrature_tol * r / (power bound * l1 norm) = eps * {tol:g} * "
                         f"{r:g} / ({power_bound:g} * {norm:g}) is below the smallest normal double, "
                         "where it could certify no error")
    return target


def _sweeps(grid: np.ndarray, x: TruncatedVector, T: PowerBoundedOperator, tol: float,
            window: Callable[[float, float], tuple]) -> Iterator[tuple[np.ndarray, np.ndarray, Iterator[np.ndarray]]]:
    """The power sweeps of an S series over a checked grid, for ``stream_S`` and ``stream_cesaro_S``.

    ``window(point, ||x||_1)`` gives the point's first nonzero power L, its weights w of T^L x, T^{L+1} x, ...,
    and its error bounds per J = 0, 1, ... in units of power_bound * ||x||_1; the point stops at the first J
    whose bound is within ``tol``.  A sweep block takes points while its count times (dim + 1 + its largest J)
    fits BLOCK_ELEMENTS, and at least one, so it holds O(BLOCK_ELEMENTS + N) elements at any grid size.  It
    goes out as its (block, largest J + 1) weights, each row zero outside L..J, each row's bound at its own J,
    and the powers x, Tx, ..., T^J x.
    """
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if x.dim != T.dim:
        raise ValueError(f"dimension mismatch: operator {T.dim}, vector {x.dim}")
    norm = norm_l1(x)
    scale = T.power_bound * norm

    def sweep(block):
        weights = np.zeros((len(block), max(J for J, *_ in block) + 1))
        for row, (J, L, w, _) in zip(weights, block):
            row[L : J + 1] = w[: max(J + 1 - L, 0)]
        return weights, np.array([bound for *_, bound in block]), T.powers(x.coords, weights.shape[1] - 1)

    block, width = [], 0
    for point in grid.tolist():
        L, w, bounds = window(point, norm)
        within = np.flatnonzero(scale * bounds <= tol)
        if not within.size:
            raise ValueError(f"tol {tol:g} is out of reach at ||x||_1 * power_bound = {scale:g}")
        J = int(within[0])
        if block and (len(block) + 1) * (x.dim + 1 + max(width, J)) > BLOCK_ELEMENTS:
            yield sweep(block)
            block, width = [], 0
        block.append((J, L, w, scale * bounds[J]))
        width = max(width, J)
    if block:
        yield sweep(block)


def stream_S(t_grid: Iterable[float], x: TruncatedVector, T: PowerBoundedOperator, tol: float) -> Iterator[np.ndarray]:
    """e^{-t} e^{tT} x per t of ``t_grid``, by truncated uniformization series with certified remainders.

    Each series stops at the first J whose dropped weight P(Poisson(t) > J),
    multiplied by power_bound * ||x||_1, is within ``tol``; that weight is
    summed from the top of the Poisson window, so it has no rounding floor.
    The grid is checked first.  A sweep block (``_sweeps``) goes out as one
    (block, N) array: row i adds p_i(j) T^j x in increasing j, with
    p_i(j) = 0 outside L_i..J_i, so every row keeps the bits of a one-point grid.
    """
    t_grid = _check_finite(_check_t(np.array(t_grid, dtype=float, ndmin=1)), "time t")

    def window(t, norm):
        L, p, lost = poisson_window(t, series_target(tol, T.power_bound, norm))
        # P(X > J) for J = 0..R; the mass below L is in lost, so every J < L reads P(X >= L)
        after = np.cumsum(p[::-1])[::-1]
        return L, p, np.concatenate([np.full(L, after[0]), after[1:], [0.0]]) + lost

    for weights, _, powers in _sweeps(t_grid, x, T, tol, window):
        rows = np.zeros((len(weights), x.dim))
        for j, v in enumerate(powers):
            # a row starts at +0 and so is never -0: the zero weights outside L_i..J_i leave its bits alone
            rows += weights[:, j, None] * v
        yield rows


def stream_cesaro_S(r_grid, x: TruncatedVector, T: PowerBoundedOperator, tol: float) -> Iterator[tuple]:
    """Closed-form means C_S(r)x = (1/r) sum_j P(Poisson(r) >= j+1) T^j x.

    Integrating S(s)x = sum_j P(Poisson(s) = j) T^j x over [0, r] term by term gives these weights.  The
    grid is checked first.  Each mean stops at the first J at which power_bound * ||x||_1 * (1/r) *
    sum_{j>J} P(X >= j+1), plus the Poisson window's loss, is within ``tol``, so a row and its trunc_error
    do not depend on the other points of its grid.  A sweep block (``_sweeps``) goes out as (block, N)
    means and the (block,) trunc_errors; its powers are summed into the means by one product per chunk of
    BLOCK_ELEMENTS / N of them.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.ndim != 1 or r_grid.size < 1:
        raise ValueError("r_grid must be a nonempty 1-d array")
    r_grid = _check_finite(_check_r(r_grid), "averaging length r")

    def window(r, norm):  # u_j = P(X >= j+1)/r for X ~ Poisson(r), j = 0..R, with upper tails summed from the top
        L, p, lost = poisson_window(r, series_target(tol, T.power_bound, norm, r))
        upper = np.cumsum(p[::-1])[::-1]  # P(X >= L + k)
        u = np.concatenate([np.full(L, upper[0]), upper[1:], [0.0]]) / r
        # stopping at J drops the weight past J, plus the window's loss on each kept weight and on the tail
        return 0, u, np.append(np.cumsum(u[::-1])[::-1][1:], 0.0) + ((np.arange(u.size) + 2) / r + 1.0) * lost

    chunk = max(1, BLOCK_ELEMENTS // x.dim)
    for weights, errors, powers in _sweeps(r_grid, x, T, tol, window):
        for start in range(0, weights.shape[1], chunk):
            stack = np.array(list(itertools.islice(powers, chunk)))
            # summed power by power as in stream_S, these means took 9.5 s against 3.7 s (T(1), N = 65536,
            # r = 1, 2, ..., 4096, one BLAS thread, 2-CPU VM); stream_S keeps that order, which apply_S's bits need
            part = weights[:, start : start + len(stack)] @ stack
            means = part if start == 0 else np.add(means, part, out=means)
        yield means, errors


def apply_S(t: float, x: TruncatedVector, T: PowerBoundedOperator, tol: float) -> TruncatedVector:
    """S(t)x within ``tol`` in l1: ``stream_S`` on a one-point grid."""
    return TruncatedVector(next(stream_S([t], x, T, tol))[0])


def semigroup_defect_S(t: float, s: float, x: TruncatedVector, T: PowerBoundedOperator, tol: float) -> float:
    """l1 defect ||S(t+s)x - S(t)S(s)x||; bounded by 4 * tol * power_bound."""
    joint = apply_S(t + s, x, T, tol)
    stepped = apply_S(t, apply_S(s, x, T, tol), T, tol)
    return norm_l1(joint - stepped)
