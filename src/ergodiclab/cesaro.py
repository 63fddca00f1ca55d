"""Cesaro means C(r)x = (1/r) * integral of T(s)x over [0, r].

Closed forms are the production path for all three semigroups: the
diagonal decay semigroup has diagonal means, the perturbed one reduces
to the coefficient antiderivatives, and the exponential semigroup of a
power-bounded matrix integrates its uniformization series term by term
into Poisson upper tails (``exp_semigroup.stream_cesaro_S``, which shares
the power sweeps of S(t)x).  An adaptive Simpson quadrature over grid
integrands, one call per refinement level, serves only as the independent
oracle for every closed form.

The M and T means at every r are one (r, N) array of ``coeffs.family``'s rows from ``semigroups.grid_kernel``;
``curve_cesaro_S`` reads the S means one power sweep at a time; the per-point functions are the one-point case,
and ||C_M(r)|| is a formula in r and N alone.  M and T curves and trajectories never form a row:
``support_summaries`` reads each row's summaries off the ``Support`` of x in O(nnz) per grid point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, TextIO

import numpy as np

from .coeffs import _EPS, _check_r, _check_t
from .csvtext import csv_lines
from .exp_semigroup import PowerBoundedOperator, stream_cesaro_S
from .semigroups import grid_kernel
from .space import _BLOCK_ELEMENTS, TruncatedVector, row_stats

__all__ = [
    "QuadratureError", "Support", "CesaroCurve", "cesaro_M", "cesaro_M_opnorm", "cesaro_T", "cesaro_T_certificate",
    "cesaro_quadrature", "adaptive_simpson", "support_summaries", "curve_cesaro_M", "curve_cesaro_T",
    "curve_cesaro_M_opnorm", "curve_cesaro_S", "geometric_grid",
]

# a grid integrand returns one row per node, as a (nodes, n) array
Integrand = Callable[[np.ndarray], np.ndarray]
# a CSV is written this many grid points at a time
CSV_BLOCK_ROWS = 256


class Support(NamedTuple):
    """x at truncation N by its nonzero entries: their 1-based indices, increasing, and their values."""

    N: int
    index: np.ndarray
    values: np.ndarray


class QuadratureError(RuntimeError):
    """Raised when adaptive refinement exhausts its budget before reaching tol.

    Carries the best available estimate and the achieved error bound.
    """

    def __init__(self, message: str, best_estimate: np.ndarray, achieved_error: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.achieved_error = achieved_error


def cesaro_M(r: float, x: TruncatedVector) -> TruncatedVector:
    """Mean of the decay semigroup: ``grid_kernel`` on a one-point grid."""
    return TruncatedVector(grid_kernel(x, perturbed=False, mean=True)([r])[0])


def cesaro_T(r: float, x: TruncatedVector) -> TruncatedVector:
    """Mean of the perturbed semigroup: ``grid_kernel`` on a one-point grid."""
    return TruncatedVector(grid_kernel(x, perturbed=True, mean=True)([r])[0])


def cesaro_M_opnorm(r, N: int):
    """Exact l1 operator norm of the decay-semigroup mean at truncation N, per r of a number or an array.

    The diagonal entries (h/r)(1 - exp(-r/h)) increase in h, so the max
    sits at h = N, formed by numpy's expm1 like the h = N entry of
    a mean row; it stays above 1 - 1/e for every r <= N, while for any
    fixed N it decays like N/r as r grows: finite truncations are
    uniformly mean ergodic, but no norm decay happens uniformly in N.
    """
    if N < 1:
        raise ValueError(f"truncation N must be >= 1, got {N}")
    r = _check_r(r)
    norm = (N / r) * -np.expm1(-r / N)
    return norm if norm.ndim else float(norm)


# (-1)^k / (k+3)! for k = 16 down to 0: (u/2 - u phi_2(-u)) / u^2 in Horner order, next term < eps/40 for u < 1
_PHI2_TAIL = tuple((-1) ** k / math.factorial(k + 3) for k in range(16, -1, -1))


def cesaro_T_certificate(r, N: int):
    """Per-unit-norm truncation bound for cesaro_T at truncation N, per r of a number or an array.

    Exact value of (1/r) * integral of (1 - exp(-s/N)) over [0, r],
    which is 1 - (N/r)(1 - exp(-r/N)) = u phi_2(-u) <= r/(2N) for u = r/N, phi_2(z) = (e^z - 1 - z)/z^2.
    Below u = 1, where subtracting from 1 cancels, the series u/2 - u^2/6 + u^3/24 - ... (np.polyval in
    Horner order) is within 2 eps; above, 1 + expm1(-u)/u is within 4 eps.  Either is raised past its
    bound, so it never understates.
    """
    r = _check_r(r)
    if N < 1:
        raise ValueError(f"truncation N must be >= 1, got {N}")
    u = r / N
    low, high = np.minimum(u, 1.0), np.maximum(u, 1.0)
    value = np.where(u < 1.0, low / 2.0 - low * low * np.polyval(_PHI2_TAIL, low), 1.0 + np.expm1(-high) / high)
    # below the normal range rounding errs by whole subnormal steps, not by eps * value
    value = value + np.maximum(np.where(u < 1.0, 2.5, 4.5) * _EPS * value, 2 * math.ulp(0.0))
    return value if value.ndim else float(value)


def adaptive_simpson(f: Integrand, a: float, b: float, tol: float, budget: int = 2**20) -> np.ndarray:
    """Adaptive composite Simpson rule for a grid integrand ``f(nodes) -> rows``.

    ``f`` returns a (nodes, n) array, row i at nodes[i], as the grid kernels do
    (``semigroups.grid_kernel``).  One call of ``f`` evaluates the
    new midpoints of every interval of a refinement level.  Bisection is keyed to the l1 norm of the
    local Richardson defect; an interval is accepted when that defect is within 15x its share of the
    tolerance.  Accepted intervals are summed by descending left end, the order of a depth-first
    refinement that takes right halves first.  Raises QuadratureError with the best estimate and the
    achieved error bound if ``budget`` nodes are not enough.
    """
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if not b > a:
        raise ValueError(f"need b > a, got [{a}, {b}]")
    if budget < 8:
        raise ValueError(f"budget too small to form any estimate, got {budget}")
    # the k pending intervals as rows lo, mid, hi of x; the integrand there, (3, k, n); their Simpson estimates
    x = np.array([[a], [0.5 * (a + b)], [b]])
    fx = _rows(f, x.ravel())[:, None]
    whole = (b - a) / 6.0 * (fx[0] + 4.0 * fx[1] + fx[2])
    evals, ltol, min_width = 3, tol, (b - a) * 1e-13
    accepted = []  # per level: the accepted intervals' left ends, their (left, right, defect / 15) terms, errors
    while k := x.shape[1]:
        ends, whole = fx.reshape(3, k, -1), whole.reshape(k, -1)  # the halves' left ends: ends[:2]; right: ends[1:]
        if evals + 2 * k > budget:
            # unrefined intervals carry no defect estimate; their l1 mass safely bounds what they may still move
            raise QuadratureError(
                f"quadrature budget {budget} exhausted before reaching tol {tol}",
                best_estimate=_sum_accepted(accepted) + whole.sum(axis=0),
                achieved_error=sum(float(e.sum()) for *_, e in accepted) + float(np.abs(whole).sum()),
            )
        # the halves, left ones then right ones, (lo, lm, mid) and (mid, rm, hi), as the rows of a (3, 2, k) array
        halves = np.concatenate((x[:2], 0.5 * (x[:2] + x[1:]), x[1:])).reshape(3, 2, k)
        fresh = _rows(f, halves[1].ravel()).reshape(2, k, -1)
        evals += 2 * k
        parts = fresh * 4.0  # f_lo + 4 f_mid + f_hi, then times width / 6, in place
        parts += ends[:2]
        parts += ends[1:]
        parts *= ((halves[2] - halves[0]) / 6.0)[..., None]
        delta = parts[0] + parts[1]
        delta -= whole
        err = np.add.reduce(np.abs(delta, out=whole), axis=1) / 15.0
        ok = (err <= ltol) | ((x[2] - x[0]) < min_width)
        kept, refined = ok.nonzero()[0], (~ok).nonzero()[0]
        accepted.append((x[0, kept], np.concatenate((parts, delta[None] / 15.0)).take(kept, 1), err[kept]))
        # the next level: the refined intervals' left halves, then their right halves
        x = halves.take(refined, 2).reshape(3, -1)
        whole, fx = (v.take(refined, 1) for v in (parts, np.concatenate((ends[:2], fresh, ends[1:]))))
        ltol = 0.5 * ltol
    return _sum_accepted(accepted)


def _rows(f: Integrand, nodes: np.ndarray) -> np.ndarray:
    """The integrand at ``nodes`` as a (nodes, n) array, C-ordered so that every reduction keeps one order."""
    out = np.ascontiguousarray(f(nodes), dtype=float)
    if out.ndim != 2 or out.shape[0] != nodes.size:
        raise ValueError(f"the integrand returned an array of shape {out.shape} for {nodes.size} nodes")
    return out


def _sum_accepted(accepted) -> np.ndarray:
    """The sum by descending left end, each interval adding left, right and defect / 15 in turn, bit for bit."""
    order = np.argsort(np.concatenate([level[0] for level in accepted]))[::-1]
    rank, terms, start = np.argsort(order), np.empty((3 * order.size, accepted[0][1].shape[2])), 0
    for _, level, _ in accepted:  # each level's (3, count, n) terms go straight to their rank: no copy of them all
        at = rank[start : (start := start + level.shape[1])]
        terms.reshape(-1, 3, terms.shape[1])[at] = level.transpose(1, 0, 2)
    if terms.shape[1] == 1:  # numpy adds the rows of a (rows, n > 1) array in order, but one column pairwise
        return np.cumsum(np.concatenate([np.zeros((1, 1)), terms]), axis=0)[-1]
    return np.add.reduce(terms, axis=0, initial=0.0)


def cesaro_quadrature(kernel: Integrand, r: float, tol: float) -> TruncatedVector:
    """Quadrature oracle for the mean (1/r) * integral over [0, r] of an orbit, within ``tol`` in l1.

    ``kernel(nodes)`` returns the orbit at each node as a (nodes, N) array, as
    ``semigroups.grid_kernel(x, perturbed, mean=False)`` does.
    """
    _check_r(r)
    total = adaptive_simpson(kernel, 0.0, r, tol * r)
    return TruncatedVector(total / r)


# --- M and T rows summarised from the support of x ---

# D's bisection runs over this many grid points at a time, about 89 bytes each
_D_POINTS = 4096
_NONE = np.empty((1, 0))
# 1/(n+2)! for n = 17 down to 0: phi_2(u) = (e^u - 1 - u)/u^2 in Horner order, next term < eps/4 for u < 1
_PHI2 = [1.0 / math.factorial(n + 2) for n in range(17, -1, -1)]


def support_summaries(x: Support, grid, perturbed: bool, mean: bool) -> Iterator[np.ndarray]:
    """Summaries of M(t)x, or T(t)x if ``perturbed``, per t; of C_M(r)x or C_T(r)x per r if ``mean``.

    Coordinate h is x_h W(h) + P_{h-1} (W(h) - W(h-1)), with W(h) = e^{-t/h}, or F(h, r) =
    (h/r)(1 - e^{-r/h}) for a mean, and no P term for M.  The prefix sum P is constant on each
    gap [a, c] between support indices, so a gap's l1 mass telescopes to |P| (W(c) - W(a-1)).
    By lemmas (a)-(c) of the README its largest coordinate sits at floor((t + 1)/2) + {0, 1, 2}
    clamped into the gap, or at a for a mean, and its step is |P| (D(a-1) + D(c) - 2 min D) over
    the gap for D = F(., r_i) - F(., r_{i-1}).  O(nnz) work per grid point, and no N-vector.
    The grid is checked first.  A block of points is one numpy pass over (block, width) arrays, C-ordered and
    reduced row by row, so every row keeps the bits of a one-point block; it goes out as a C-ordered (block, 5)
    array of per-point l1 norm, largest |coordinate|, its 1-based index, coordinate sum f and l1 step from the
    point before (nan at the first point and for trajectories).  Support coordinates and gap maxima keep the bits
    of the full-row kernels; norms, f values and steps sum in another order.  Inf/NaN rows raise after those before.
    """
    s, xs = np.asarray(x.index, dtype=float), np.asarray(x.values, dtype=float)
    prefix = np.cumsum(xs)
    before = np.concatenate(([0.0], prefix))[:-1]  # x_1 + ... + x_{s-1}
    ends = np.append(s[1:] - 1.0, float(x.N))
    gap = (s < ends) & perturbed
    a, c, P = s[gap] + 1.0, ends[gap], prefix[gap]
    grid, size, prev = (_check_r if mean else _check_t)(np.asarray(grid, dtype=float)), np.abs(P), None

    def blocks(width: int) -> Iterator[np.ndarray]:
        """The grid in columns of _BLOCK_ELEMENTS / width points."""
        rows = max(1, _BLOCK_ELEMENTS // max(width, 1))
        return (grid[i : i + rows, None] for i in range(0, grid.size, rows))

    def summaries(y, sums, tops, where, variation):
        nonlocal prev
        rows, magnitude = np.arange(len(y)), np.abs(y)
        norm = np.add.reduce(magnitude, axis=1) + _dots(size, sums)
        f = np.add.reduce(y, axis=1) + _dots(P, sums)
        top, index = np.zeros(rows.size), np.ones(rows.size)  # an all-zero row, as argmax reads it
        for values, places in ((magnitude, s), (np.abs(tops), where)):
            if values.shape[1]:  # candidates run by index: the first of equal maxima wins
                k = values.argmax(axis=1)
                v, p = values[rows, k], places[k] if places.ndim == 1 else places[rows, k]
                take = (v > top) | ((v == top) & (top > 0.0) & (p < index))
                top, index = np.where(take, v, top), np.where(take, p, index)
        step = np.full(rows.size, math.nan)
        if mean:
            change = y - np.concatenate((y[:1] if prev is None else prev, y[:-1]))
            step = np.add.reduce(np.abs(change, out=change), axis=1) + _dots(size, variation)
            step[0], prev = math.nan if prev is None else step[0], y[-1:].copy()
        finite = int(np.logical_and.accumulate(np.isfinite(norm)).sum())  # the rows before a non-finite one
        yield np.column_stack((norm, top, index, f, step))[:finite]
        if finite < rows.size:
            raise ValueError("coords must be finite (no NaN/inf)")

    # the rows' arrays live on while the next block forms (freed first, wide pages faulted in again); not their tuple
    formed = (_mean_rows if mean else _trajectory_rows)(s, xs, before, a, c, P, grid, perturbed, blocks)
    yield from itertools.chain.from_iterable(itertools.starmap(summaries, formed))


def _dots(v: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """v @ row for each row, each as the 1-d dot of that row alone; a gemv would sum in another order."""
    return np.matmul(v, rows[:, :, None])[:, 0]


def _trajectory_rows(s, xs, before, a, c, P, t_grid, perturbed, blocks):
    """Per block of t: support coordinates, gap masses per unit |P|, gap peak coordinates and their indices."""
    n, g = s.size, c.size
    if not perturbed:
        for t in blocks(n):
            yield np.exp(-t / s) * xs, _NONE, _NONE, _NONE, _NONE
        return
    # one exp pass at s and c, one expm1 pass at s(s-1) and (a-1)c/(c-a+1), then both at the peak candidates
    # h and h(h-1); h = 1 has prefix sum 0, so any positive pair count serves there
    decay_at = np.concatenate((s, c))
    cut_at = np.concatenate((np.maximum(s * (s - 1.0), 1.0), (a - 1.0) * c / (c - a + 1.0)))
    lo, hi, P3, peak = a[:, None], c[:, None], np.repeat(P, 3), np.arange(3.0)
    for t in blocks(n + 4 * g):
        h = np.minimum(np.maximum(np.floor((t + 1.0) / 2.0)[:, :, None] + peak, lo), hi).reshape(len(t), 3 * g)
        decay, cut = np.exp(-t / decay_at), -np.expm1(-t / cut_at)  # b(h, t) = e^{-t/h} cut(h)
        y = cut[:, :n] * decay[:, :n] * before + decay[:, :n] * xs
        yield y, decay[:, n:] * cut[:, n:], -np.expm1(-t / (h * (h - 1.0))) * np.exp(-t / h) * P3, h, _NONE


def _mean_rows(s, xs, before, a, c, P, r_grid, perturbed, blocks):
    """Per block of r: support coordinates, gap masses per unit |P|, gap maxima at a, and gap variations of D."""
    if not perturbed:
        for r in blocks(s.size):
            yield -np.expm1(-r / s) * (s / r) * xs, _NONE, _NONE, _NONE, _NONE
        return
    # E(h) = h expm1(-r/h), so that F(h, r) = -E(h)/r, from one expm1 pass at every index a row reads; E(0) = 0
    Q = np.sort(np.concatenate(([0.0], s - 1.0, s, a, c)))
    Q = Q[np.append(True, Q[1:] != Q[:-1])]  # np.unique, which imports numpy.ma
    i_s, i_b, i_g, i_a = (_positions(Q, h) for h in (s, s - 1.0, a - 1.0, a))
    ends, g, G_prev, i = np.searchsorted(Q, np.concatenate((a - 1.0, c))), c.size, None, 0
    at, start = (), 0  # per r after the first, D's least integer point against the r before, and D there
    for r in blocks(Q.size):  # E: one buffer, the first and largest block's; e = expm1(-r/Q[1:]) is read in it first
        E = (E if i else np.zeros((len(r), Q.size)))[: len(r)]
        e = np.expm1(np.divide(-r, Q[1:], out=E[:, 1:]), out=E[:, 1:])
        own = -_columns(e, i_b) * (s / r) * xs  # Q[1:] holds s where Q holds s - 1
        np.multiply(e, Q[1:], out=e)
        y = (_columns(E, i_b) - _columns(E, i_s)) * before / r + own
        G = E.take(ends, 1) / r  # -F at a - 1, then at c
        variation = _NONE
        if g:
            if i + len(r) > start + len(at):  # the next _D_POINTS points, from this block on
                start, minima = i, _D_minima(r_grid[max(i - 1, 0) : i + _D_POINTS], c[-1])
                at, least = (np.concatenate(([0.0] if i == 0 else [], m))[:, None] for m in minima)
            D = np.concatenate((G[:1] if G_prev is None else G_prev, G[:-1])) - G
            low, block = np.minimum(D[:, :g], D[:, g:]), slice(i - start, i - start + len(r))
            np.minimum(low, least[block], out=low, where=(a - 1.0 <= at[block]) & (at[block] <= c))
            variation = (D[:, :g] - low) + (D[:, g:] - low)
        yield y, G[:, :g] - G[:, g:], (_columns(E, i_g) - _columns(E, i_a)) * P / r, a, variation
        G_prev, i = G[-1:].copy(), i + len(r)  # a copy: a view would keep all of G alive through the next block


def _positions(Q: np.ndarray, h: np.ndarray) -> np.ndarray | slice:
    """Where the sorted ``Q`` holds each of ``h``, as a slice when they are consecutive."""
    at = np.searchsorted(Q, h)
    return slice(at[0], at[-1] + 1) if at.size and at[-1] - at[0] == at.size - 1 else at


def _columns(A: np.ndarray, at: np.ndarray | slice) -> np.ndarray:
    """Columns ``at`` of ``A`` in C order; A[:, indices] comes out F-ordered, and its rows sum in another order."""
    return A[:, at] if isinstance(at, slice) else A.take(at, 1)


def _D_minima(r_grid: np.ndarray, N: float) -> tuple[np.ndarray, np.ndarray]:
    """Per pair of neighbouring r, the integer h in 1..N where D is least, and D there.

    D falls in h while k(r_i/h) < k(r_{i-1}/h) and rises after, k(u) = (1 - (1 + u) e^{-u})/u
    (lemma (c)); bisection finds the least integer where it rises, and the minimum is there or
    just before.
    """

    def k(u):  # as u e^{-u} phi_2(u) below u = 1, where the direct form cancels
        out, low = (-np.expm1(-u) - u * np.exp(-u)) / u, u < 1.0
        out[low] = (v := u[low]) * np.exp(-v) * np.polyval(_PHI2, v)
        return out

    r0, r1 = r_grid[:-1], r_grid[1:]
    lo, hi, pairs = np.zeros(r0.size), np.full(r0.size, N + 1.0), np.stack((r1, r0))  # D falls at lo, rises at hi
    while np.any(hi - lo > 1.0):
        mid = np.maximum(np.floor((lo + hi) / 2.0), 1.0)
        up = np.greater_equal(*k(pairs / mid))  # k at r_i / mid and r_{i-1} / mid in one pass
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    h = np.stack((np.maximum(hi - 1.0, 1.0), np.minimum(hi, N)))
    D = np.expm1(-r0 / h) * h / r0 - np.expm1(-r1 / h) * h / r1  # as support_summaries forms it
    return h[D.argmin(axis=0), np.arange(r0.size)], D.min(axis=0)


# --- sampled curves over r-grids ---

@dataclass
class CesaroCurve:
    """Samples of r -> C(r)x (vector mode) or r -> ||C(r)|| (norm mode).

    A curve keeps per sample only what its readers need, never the means
    themselves: ``values`` (||C(r)x||_1, or ||C(r)|| in norm mode) and
    ``steps``, the l1 distance of each sample from the one before (in norm
    mode |difference of values| unless given).  Vector mode adds the
    largest |coordinate|, its 1-based index and the coordinate sum
    f(C(r)x).  ``trunc_error`` holds one per-sample certificate bounding
    the l1 discrepancy against the untruncated mean.
    """

    r_grid: np.ndarray
    kind: str  # "vector" | "norm"
    trunc_error: np.ndarray
    values: np.ndarray
    steps: np.ndarray | None = None
    max_coordinate: np.ndarray | None = None
    max_index: np.ndarray | None = None
    f_value: np.ndarray | None = None

    def __post_init__(self):
        self.r_grid = np.asarray(self.r_grid, dtype=float)
        self.trunc_error = np.asarray(self.trunc_error, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        n = self.r_grid.size
        if self.r_grid.ndim != 1 or n < 1:
            raise ValueError("r_grid must be a nonempty 1-d array")
        if not np.all(self.r_grid > 0) or np.any(np.diff(self.r_grid) <= 0):
            raise ValueError("r_grid must be strictly increasing and positive")
        if not np.all(np.isfinite(self.trunc_error)) or np.any(self.trunc_error < 0):
            raise ValueError("trunc_error entries must be finite and nonnegative")
        if self.values.shape != (n,):
            raise ValueError("a curve needs one value per grid point")
        if self.kind == "norm" and self.steps is None:
            self.steps = np.abs(np.diff(self.values))
        per_sample = (self.max_coordinate, self.max_index, self.f_value)
        if self.kind == "vector":
            if any(a is None or len(a) != n for a in per_sample):
                raise ValueError("vector curve needs max_coordinate, max_index and f_value per grid point")
        elif self.kind != "norm":
            raise ValueError(f"unknown curve kind {self.kind!r}")
        if self.steps is None or len(self.steps) != n - 1:
            raise ValueError("a curve needs one step per pair of neighbouring grid points")

    def __len__(self) -> int:
        return int(self.r_grid.size)

    def to_csv(self, out: TextIO):
        """Write the CSV with columns r, value_or_norm, trunc_error, max_coordinate, f_value to ``out``.

        The rows go out CSV_BLOCK_ROWS at a time through ``csv_lines``; a norm curve leaves the last two cells empty.
        """
        columns = [self.r_grid, self.values, self.trunc_error]
        columns += [self.max_coordinate, self.f_value] if self.kind == "vector" else [None, None]
        out.write("r,value_or_norm,trunc_error,max_coordinate,f_value\n")
        for i in range(0, len(self), CSV_BLOCK_ROWS):
            out.write(csv_lines([c if c is None else np.asarray(c[i : i + CSV_BLOCK_ROWS], float) for c in columns]))


def geometric_grid(start: float, factor: float, count: int, last: bool = False) -> np.ndarray:
    """start * factor^k for k < count (k = count - 1 alone if ``last``); where factor^k alone overflows,
    a power factor^a first brings start near 1, itself in two halves where it overflows (start < 1/DBL_MAX)."""
    if not (0 < start < math.inf and factor > 1) or count < 1:
        raise ValueError("need finite start > 0, factor > 1, count >= 1")
    k = np.array([count - 1.0]) if last else np.arange(count, dtype=float)
    with np.errstate(over="ignore"):
        power, a = factor ** k, np.minimum(k, max(0.0, math.floor(-math.log(start, factor))))
        half = np.where(np.isinf(factor ** a), np.floor(a / 2), a)
        lift = start * factor ** half * factor ** (a - half)
        return np.where(np.isinf(power), lift * factor ** (k - a), start * power)


def _vector_curve(r_grid: np.ndarray, blocks: Iterable[np.ndarray], trunc_error) -> CesaroCurve:
    """A vector curve from (block, 5) arrays of summaries, as ``support_summaries`` yields them, in grid order."""
    table, i = np.empty((r_grid.size, 5)), 0
    for block in blocks:
        table[i : i + len(block)], i = block, i + len(block)
    return CesaroCurve(r_grid, "vector", trunc_error, table[:, 0], steps=table[1:, 4], max_coordinate=table[:, 1],
                       max_index=table[:, 2].astype(int), f_value=table[:, 3])


def curve_cesaro_M(r_grid, x: Support) -> CesaroCurve:
    r_grid = np.asarray(r_grid, dtype=float)
    return _vector_curve(r_grid, support_summaries(x, r_grid, perturbed=False, mean=True), np.zeros(r_grid.size))


def curve_cesaro_T(r_grid, x: Support) -> CesaroCurve:
    """Summaries of C_T(r)x; each errs by cesaro_T_certificate(r, N) * ||x||_1 at most.

    ||x||_1 is summed on the support by math.fsum, correctly rounded; it and the product each
    round within eps/2 of themselves, so the product is raised by 2 eps of itself, with a floor
    of two subnormal steps, and never understates.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    norm = math.fsum(np.abs(x.values).tolist())
    error = norm * cesaro_T_certificate(r_grid, x.N)
    if norm:
        error = error + np.maximum(2 * _EPS * error, 2 * math.ulp(0.0))
    return _vector_curve(r_grid, support_summaries(x, r_grid, perturbed=True, mean=True), error)


def curve_cesaro_S(r_grid, x: TruncatedVector, T: PowerBoundedOperator, tol: float) -> CesaroCurve:
    """The closed-form means of ``stream_cesaro_S``, summarised in the C-ordered passes of ``row_stats``; each step
    is the l1 distance from the row before, across passes and sweeps (the first row's, from itself, is dropped)."""
    r_grid = np.asarray(r_grid, dtype=float)
    tables, errors, prev, size = [], [], None, max(1, _BLOCK_ELEMENTS // x.dim)
    for means, error in stream_cesaro_S(r_grid, x, T, tol):
        for part in (means[i : i + size] for i in range(0, len(means), size)):
            change = part - np.concatenate((part[:1] if prev is None else prev, part[:-1]))
            tables.append(np.column_stack((row_stats(part), np.add.reduce(np.abs(change, out=change), axis=1))))
            prev = part[-1:].copy()  # a view would keep the whole block alive through the next sweep
        errors.append(error)
    return _vector_curve(r_grid, tables, np.concatenate(errors))


def curve_cesaro_M_opnorm(r_grid, N: int) -> CesaroCurve:
    """||C_M(r)|| per r: the closed form of cesaro_M_opnorm, O(1) per r at any N."""
    r_grid = np.asarray(r_grid, dtype=float)
    return CesaroCurve(r_grid=r_grid, kind="norm", values=cesaro_M_opnorm(r_grid, N), trunc_error=np.zeros(r_grid.size))
