"""Cesaro means C(r)x = (1/r) * integral of T(s)x over [0, r].

Closed forms are the production path for all three semigroups: the
diagonal decay semigroup has diagonal means, the perturbed one reduces
to the coefficient antiderivatives, and the exponential semigroup of a
power-bounded matrix integrates its uniformization series term by term
into Poisson upper tails.  An adaptive Simpson quadrature over grid
integrands, one call per refinement level, serves only as the independent
oracle for every closed form.

Each mean is a grid kernel: ``means_kernel`` returns the means at every r
as one (r, N) array, ``stream_cesaro_S`` yields them one r at a time; the
per-point functions are the one-point case, and ||C_M(r)|| is a formula in
r and N alone.  M and T curves and trajectories never form a row: ``support_summaries``
reads each row's summaries off the support of x in O(nnz) per grid point.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from .coeffs import integral_b_from_expm1
from .exp_semigroup import BLOCK_ELEMENTS, PowerBoundedOperator, poisson_window, series_blocks, series_target
from .space import TruncatedVector, norm_l1, row_stats

__all__ = [
    "QuadratureError", "CesaroCurve", "cesaro_M", "cesaro_M_opnorm", "cesaro_T", "cesaro_T_certificate",
    "cesaro_quadrature", "adaptive_simpson", "means_kernel", "support_summaries", "stream_cesaro_S",
    "curve_cesaro_M", "curve_cesaro_T", "curve_cesaro_M_opnorm", "curve_cesaro_S",
]

_EPS = sys.float_info.epsilon

# a streamed mean is (C(r)x, its trunc_error)
Rows = Iterator[tuple[np.ndarray, float]]
# a grid integrand returns one row per node, as a (nodes, n) array
Integrand = Callable[[np.ndarray], np.ndarray]


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


def means_kernel(x: TruncatedVector, perturbed: bool) -> Callable[[Iterable[float]], np.ndarray]:
    """Grid kernel of C_M(r)x, or of C_T(r)x if ``perturbed``: row i of ``kernel(r_grid)`` is the mean at r_grid[i].

    C_M(r) scales coordinate h by (h/r)(-e_h), e_h = expm1(-r/h), so a
    signed zero x_h keeps its sign.  C_T(r) adds x_1 + ... + x_{h-1} times
    integral_b(h, r)/r, from the same expm1 pass.  One numpy pass per call
    forms the whole (r, N) array, in the operation order of a one-point
    call, so each row keeps its bits.
    """
    h = np.arange(1, x.dim + 1, dtype=float)
    coupled = perturbed and x.dim > 1
    prefix = np.cumsum(x.coords)[:-1] if coupled else None

    def rows(r_grid: Iterable[float]) -> np.ndarray:
        r = np.array(r_grid, dtype=float, ndmin=1)[:, None]
        if np.any(r <= 0):
            _check_r(r[r <= 0][0])
        e = np.expm1(-r / h)
        out = -e * (h / r) * x.coords
        if coupled:
            out[:, 1:] += integral_b_from_expm1(h, e, np.empty((r.size, x.dim - 1))) * prefix / r
        return out

    return rows


def cesaro_M(r: float, x: TruncatedVector) -> TruncatedVector:
    """Mean of the decay semigroup: means_kernel on a one-point grid."""
    return TruncatedVector(means_kernel(x, perturbed=False)([r])[0])


def cesaro_T(r: float, x: TruncatedVector) -> TruncatedVector:
    """Mean of the perturbed semigroup: means_kernel on a one-point grid."""
    return TruncatedVector(means_kernel(x, perturbed=True)([r])[0])


def _M_opnorm(r: np.ndarray, N: int) -> np.ndarray:
    """(N/r)(1 - exp(-r/N)) over an array of r, by numpy's expm1 like the h = N entry of means_kernel."""
    if N < 1:
        raise ValueError(f"truncation N must be >= 1, got {N}")
    if np.any(r <= 0):
        _check_r(float(r.min()))
    return (N / r) * -np.expm1(-r / N)


def cesaro_M_opnorm(r: float, N: int) -> float:
    """Exact l1 operator norm of the decay-semigroup mean at truncation N.

    The diagonal entries (h/r)(1 - exp(-r/h)) increase in h, so the max
    sits at h = N; it stays above 1 - 1/e for every r <= N, while for any
    fixed N it decays like N/r as r grows: finite truncations are
    uniformly mean ergodic, but no norm decay happens uniformly in N.
    """
    return float(_M_opnorm(np.array([r], dtype=float), N)[0])


# (-1)^k / (k+3)! for k = 16 down to 0: (u/2 - u phi_2(-u)) / u^2 in Horner order, next term < eps/40 for u < 1
_PHI2_TAIL = tuple((-1) ** k / math.factorial(k + 3) for k in range(16, -1, -1))


def cesaro_T_certificate(r: float, N: int) -> float:
    """Per-unit-norm truncation bound for cesaro_T at truncation N.

    Exact value of (1/r) * integral of (1 - exp(-s/N)) over [0, r],
    which is 1 - (N/r)(1 - exp(-r/N)) = u phi_2(-u) <= r/(2N) for u = r/N, phi_2(z) = (e^z - 1 - z)/z^2.
    Below u = 1, where subtracting from 1 cancels, the series u/2 - u^2/6 + u^3/24 - ... is within 2 eps;
    above, 1 + expm1(-u)/u is within 4 eps.  Either is raised past its bound, so it never understates.
    """
    return float(_T_certificates(np.array([r], dtype=float), N)[0])


def _T_certificates(r: np.ndarray, N: int) -> np.ndarray:
    """cesaro_T_certificate over an array of r, the series by np.polyval in the same Horner order.

    Above u = 1 each value keeps math.expm1, which differs from np.expm1 in about one last bit in eight.
    """
    if np.any(r <= 0):
        _check_r(r[r <= 0][0])
    if N < 1:
        raise ValueError(f"truncation N must be >= 1, got {N}")
    u = r / N
    low = np.minimum(u, 1.0)
    value = np.where(u < 1.0, low / 2.0 - low * low * np.polyval(_PHI2_TAIL, low), 0.0)
    for i in np.flatnonzero(u >= 1.0):
        value[i] = 1.0 + math.expm1(-u[i]) / u[i]
    # below the normal range rounding errs by whole subnormal steps, not by eps * value
    return value + np.maximum(np.where(u < 1.0, 2.5, 4.5) * _EPS * value, 2 * math.ulp(0.0))


def adaptive_simpson(f: Integrand, a: float, b: float, tol: float, budget: int = 2**20) -> np.ndarray:
    """Adaptive composite Simpson rule for a grid integrand ``f(nodes) -> rows``.

    ``f`` returns a (nodes, n) array, row i at nodes[i], as the grid kernels do
    (``semigroups.trajectory_kernel``).  One call of ``f`` evaluates the
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
    # the pending intervals: ends and midpoints, the integrand there, Simpson estimates
    lo, mid, hi = np.array([a]), np.array([0.5 * (a + b)]), np.array([b])
    f_lo, f_mid, f_hi = _rows(f, np.concatenate([lo, mid, hi]))[:, None]
    whole = _simpson(hi - lo, f_lo, f_mid, f_hi)
    evals, ltol, min_width = 3, tol, (b - a) * 1e-13
    accepted = []  # per level: the accepted intervals' left ends, their left, right and defect / 15 terms, errors
    while lo.size:
        k = lo.size
        if evals + 2 * k > budget:
            # unrefined intervals carry no defect estimate; their l1 mass safely bounds what they may still move
            raise QuadratureError(
                f"quadrature budget {budget} exhausted before reaching tol {tol}",
                best_estimate=_sum_accepted(accepted) + whole.sum(axis=0),
                achieved_error=sum(float(e.sum()) for *_, e in accepted) + float(np.abs(whole).sum()),
            )
        lm, rm = 0.5 * (lo + mid), 0.5 * (mid + hi)
        fresh = _rows(f, np.concatenate([lm, rm]))
        evals += 2 * k
        left = _simpson(mid - lo, f_lo, fresh[:k], f_mid)
        right = _simpson(hi - mid, f_mid, fresh[k:], f_hi)
        delta = left + right - whole
        err = np.abs(delta).sum(axis=1) / 15.0
        ok = (err <= ltol) | ((hi - lo) < min_width)
        accepted.append((lo[ok], left[ok], right[ok], delta[ok] / 15.0, err[ok]))
        # the next level: the left halves of the refined intervals, then their right halves
        go = ~ok
        lo, mid, hi, f_lo, f_hi, whole = (
            np.concatenate([first[go], second[go]])
            for first, second in ((lo, mid), (lm, rm), (mid, hi), (f_lo, f_mid), (f_mid, f_hi), (left, right))
        )
        f_mid = fresh[np.concatenate([go, go])]
        ltol = 0.5 * ltol
    return _sum_accepted(accepted)


def _rows(f: Integrand, nodes: np.ndarray) -> np.ndarray:
    """The integrand at ``nodes`` as a (nodes, n) array, C-ordered so that every reduction keeps one order."""
    out = np.ascontiguousarray(f(nodes), dtype=float)
    if out.ndim != 2 or out.shape[0] != nodes.size:
        raise ValueError(f"the integrand returned an array of shape {out.shape} for {nodes.size} nodes")
    return out


def _simpson(width: np.ndarray, f_lo: np.ndarray, f_mid: np.ndarray, f_hi: np.ndarray) -> np.ndarray:
    """Simpson's rule on a stack of intervals, one row per interval."""
    return (width / 6.0)[:, None] * (f_lo + 4.0 * f_mid + f_hi)


def _sum_accepted(accepted) -> np.ndarray:
    """The sum by descending left end, each interval adding left, right and defect / 15 in turn, bit for bit."""
    order = np.argsort(np.concatenate([level[0] for level in accepted]))[::-1]
    parts = [np.concatenate([level[i] for level in accepted])[order] for i in (1, 2, 3)]
    terms = np.stack(parts, axis=1).reshape(-1, parts[0].shape[1])
    if terms.shape[1] == 1:  # numpy adds the rows of a (rows, n > 1) array in order, but one column pairwise
        return np.cumsum(np.concatenate([np.zeros((1, 1)), terms]), axis=0)[-1]
    return np.add.reduce(terms, axis=0, initial=0.0)


def cesaro_quadrature(kernel: Integrand, r: float, tol: float, budget: int = 2**20) -> TruncatedVector:
    """Quadrature oracle for the mean (1/r) * integral over [0, r] of an orbit, within ``tol`` in l1.

    ``kernel(nodes)`` returns the orbit at each node as a (nodes, N) array, as
    ``semigroups.trajectory_kernel(x, perturbed)`` does.
    """
    _check_r(r)
    total = adaptive_simpson(kernel, 0.0, r, tol * r, budget=budget)
    return TruncatedVector(total / r)


def stream_cesaro_S(r_grid, x: TruncatedVector, T: PowerBoundedOperator, tol: float) -> Rows:
    """Closed-form means C_S(r)x = (1/r) sum_j P(Poisson(r) >= j+1) T^j x.

    Integrating S(s)x = sum_j P(Poisson(s) = j) T^j x over [0, r] term by
    term gives these weights.  One power sweep serves a block of grid points
    (``series_blocks``), up to the largest J that one of them needs: the
    first J at which power_bound * ||x||_1 * (1/r) * sum_{j>J} P(X >= j+1),
    plus the Poisson window's loss, is within ``tol``.  Each row's own bound
    at the block's J is yielded as its trunc_error.  The powers are summed
    into the block's rows by one product per chunk of BLOCK_ELEMENTS / N of them.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.ndim != 1 or r_grid.size < 1:
        raise ValueError("r_grid must be a nonempty 1-d array")
    scale = T.power_bound * norm_l1(x)

    def error_bounds(u, lost, r):
        # l1 error of stopping at J = 0..R: the weight past J, plus the
        # window's loss on each kept weight and on the tail
        after = np.append(np.cumsum(u[::-1])[::-1][1:], 0.0)
        return scale * (after + ((np.arange(u.size) + 2) / r + 1.0) * lost)

    def window(r):  # u_j = P(X >= j+1)/r for X ~ Poisson(r), j = 0..R, with upper tails summed from the top
        _check_r(r)
        L, p, lost = poisson_window(r, series_target(tol, scale, r))
        upper = np.cumsum(p[::-1])[::-1]  # P(X >= L + k)
        u = np.concatenate([np.full(L, upper[0]), upper[1:], [0.0]]) / r
        within = np.flatnonzero(error_bounds(u, lost, r) <= tol)
        if not within.size:
            raise ValueError(f"tol {tol:g} is out of reach at ||x||_1 * power_bound = {scale:g}")
        return int(within[0]), u, lost, r

    chunk = max(1, BLOCK_ELEMENTS // x.dim)
    for block in series_blocks(r_grid, x.dim, window):
        J = max(item[0] for item in block)
        weights, errors = np.empty((len(block), J + 1)), []
        for row, (_, u, lost, r) in zip(weights, block):
            u = np.pad(u, (0, max(0, J + 1 - u.size)))
            row[:] = u[: J + 1]
            errors.append(error_bounds(u, lost, r)[J])
        powers = T.powers(x.coords, J)
        for start in range(0, J + 1, chunk):
            stack = np.array(list(itertools.islice(powers, chunk)))
            part = weights[:, start : start + len(stack)] @ stack
            means = part if start == 0 else np.add(means, part, out=means)
        yield from zip(means, errors)


# --- M and T rows summarised from the support of x ---

# one row's l1 norm, largest |coordinate|, its 1-based index, coordinate sum f, and l1 step from the row before
Summary = tuple[float, float, int, float, float]
# a block of grid points has at most this many points, and its (block, width) arrays at most this many elements
_BLOCK_ROWS = 32
_BLOCK_ELEMENTS = 4096
_NONE = np.empty((1, 0))
# 1/(n+2)! for n = 17 down to 0: phi_2(u) = (e^u - 1 - u)/u^2 in Horner order, next term < eps/4 for u < 1
_PHI2 = [1.0 / math.factorial(n + 2) for n in range(17, -1, -1)]


def support_summaries(x: TruncatedVector, grid, perturbed: bool, mean: bool) -> Iterator[Summary]:
    """Summaries of M(t)x, or T(t)x if ``perturbed``, per t; of C_M(r)x or C_T(r)x per r if ``mean``.

    Coordinate h is x_h W(h) + P_{h-1} (W(h) - W(h-1)), with W(h) = e^{-t/h}, or F(h, r) =
    (h/r)(1 - e^{-r/h}) for a mean, and no P term for M.  The prefix sum P is constant on each
    gap [a, c] between support indices, so a gap's l1 mass telescopes to |P| (W(c) - W(a-1)).
    By lemmas (a)-(c) of the README its largest coordinate sits at floor((t + 1)/2) + {0, 1, 2}
    clamped into the gap, or at a for a mean, and its step is |P| (D(a-1) + D(c) - 2 min D) over
    the gap for D = F(., r_i) - F(., r_{i-1}).  O(nnz) work per grid point, and no N-vector.
    A block of grid points is one numpy pass over (block, width) arrays, C-ordered and reduced
    row by row, so every row keeps the bits of a one-point block.  Support coordinates and gap
    maxima keep the bits of the full-row kernels; norms, f values and steps are summed in
    another order.  The step is nan at the first point and for trajectories.
    """
    at = np.flatnonzero(x.coords)
    s, xs = at + 1.0, x.coords[at]
    prefix = np.cumsum(xs)
    before = np.concatenate(([0.0], prefix))[:-1]  # x_1 + ... + x_{s-1}
    ends = np.append(s[1:] - 1.0, float(x.dim))
    gap = (s < ends) & perturbed
    a, c, P = s[gap] + 1.0, ends[gap], prefix[gap]
    grid, size, prev = np.asarray(grid, dtype=float), np.abs(P), None
    stop = int(np.argmax(np.append(grid <= 0 if mean else grid < 0, True)))  # the first bad point, or the end

    def blocks(width: int) -> Iterator[np.ndarray]:
        """The grid up to its first bad point, in columns of _BLOCK_ROWS points or _BLOCK_ELEMENTS / width."""
        rows = max(1, min(_BLOCK_ROWS, _BLOCK_ELEMENTS // max(width, 1)))
        return (grid[i : min(i + rows, stop), None] for i in range(0, stop, rows))

    def summaries(y, sums, tops, where, variation):
        nonlocal prev
        rows = np.arange(len(y))
        magnitude = np.abs(y)
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
            step[0], prev = math.nan if prev is None else step[0], y[-1:]
        for summary in zip(norm.tolist(), top.tolist(), index.astype(int).tolist(), f.tolist(), step.tolist()):
            if not math.isfinite(summary[0]):
                raise ValueError("coords must be finite (no NaN/inf)")
            yield summary

    # a block stays alive while the next forms: freed first, a wide block's pages went back and faulted in again
    for block in (_mean_rows if mean else _trajectory_rows)(s, xs, before, a, c, P, grid, perturbed, blocks):
        yield from summaries(*block)
    if stop < grid.size:  # the first bad point raises as a one-point call does
        point = float(grid[stop])
        if mean:
            _check_r(point)
        raise ValueError(f"time t must be >= 0, got {point}")


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
    if g:  # per r after the first, D's least integer point against the r before, and D there
        at, least = (np.concatenate(([0.0], m))[:, None] for m in _D_minima(r_grid, c[-1]))
    for r in blocks(Q.size):
        e, E = np.expm1(-r / Q[1:]), np.zeros((len(r), Q.size))
        np.multiply(e, Q[1:], out=E[:, 1:])
        # Q[1:] holds s where Q holds s - 1
        y = (_columns(E, i_b) - _columns(E, i_s)) * before / r + -_columns(e, i_b) * (s / r) * xs
        G = E.take(ends, 1) / r  # -F at a - 1, then at c
        variation = _NONE
        if g:
            D = np.concatenate((G[:1] if G_prev is None else G_prev, G[:-1])) - G
            low, block = np.minimum(D[:, :g], D[:, g:]), slice(i, i + len(r))
            np.minimum(low, least[block], out=low, where=(a - 1.0 <= at[block]) & (at[block] <= c))
            variation = (D[:, :g] - low) + (D[:, g:] - low)
        yield y, G[:, :g] - G[:, g:], (_columns(E, i_g) - _columns(E, i_a)) * P / r, a, variation
        G_prev, i = G[-1:], i + len(r)


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
        out = (-np.expm1(-u) - u * np.exp(-u)) / u
        out[u < 1.0] = (u * np.exp(-u) * np.polyval(_PHI2, np.minimum(u, 1.0)))[u < 1.0]
        return out

    r0, r1 = r_grid[:-1], r_grid[1:]
    lo, hi = np.zeros(r0.size), np.full(r0.size, N + 1.0)  # D falls at lo, rises at hi
    while np.any(hi - lo > 1.0):
        mid = np.maximum(np.floor((lo + hi) / 2.0), 1.0)
        up = k(r1 / mid) >= k(r0 / mid)
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
    caveats: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.r_grid = np.asarray(self.r_grid, dtype=float)
        self.trunc_error = np.asarray(self.trunc_error, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        n = self.r_grid.size
        if self.r_grid.ndim != 1 or n < 1:
            raise ValueError("r_grid must be a nonempty 1-d array")
        if np.any(self.r_grid <= 0) or np.any(np.diff(self.r_grid) <= 0):
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

    def to_csv(self) -> str:
        """CSV with columns r, value_or_norm, trunc_error, max_coordinate, f_value, each row one %-format."""
        columns = [self.r_grid, self.values, self.trunc_error]
        if self.kind == "vector":
            columns += [self.max_coordinate, self.f_value]
        row = ",".join(["%.16e"] * len(columns) + [""] * (5 - len(columns)))
        lines = [row % cells for cells in zip(*(np.asarray(c, dtype=float).tolist() for c in columns))]
        return "\n".join(["r,value_or_norm,trunc_error,max_coordinate,f_value", *lines]) + "\n"


def geometric_grid(start: float, factor: float, count: int, last: bool = False) -> np.ndarray:
    """start * factor^k for k < count (k = count - 1 alone if ``last``); where factor^k alone overflows,
    a power of factor first brings start near 1."""
    if not (0 < start < math.inf and factor > 1) or count < 1:
        raise ValueError("need finite start > 0, factor > 1, count >= 1")
    k = np.array([count - 1.0]) if last else np.arange(count, dtype=float)
    with np.errstate(over="ignore"):
        power, a = factor ** k, np.minimum(k, max(0.0, math.floor(-math.log(start, factor))))
        return np.where(np.isinf(power), start * factor ** a * factor ** (k - a), start * power)


def _vector_curve(r_grid: np.ndarray, summaries: Iterable[Summary], trunc_error) -> CesaroCurve:
    """A vector curve from one ``Summary`` per grid point."""
    table = np.fromiter(summaries, np.dtype((float, 5)), count=r_grid.size)
    return CesaroCurve(r_grid, "vector", trunc_error, table[:, 0], steps=table[1:, 4], max_coordinate=table[:, 1],
                       max_index=table[:, 2].astype(int), f_value=table[:, 3])


def curve_cesaro_M(r_grid, x: TruncatedVector) -> CesaroCurve:
    r_grid = np.asarray(r_grid, dtype=float)
    return _vector_curve(r_grid, support_summaries(x, r_grid, perturbed=False, mean=True), np.zeros(r_grid.size))


def curve_cesaro_T(r_grid, x: TruncatedVector) -> CesaroCurve:
    """Summaries of C_T(r)x; each errs by cesaro_T_certificate(r, N) * norm_l1(x) at most."""
    r_grid = np.asarray(r_grid, dtype=float)
    summaries = support_summaries(x, r_grid, perturbed=True, mean=True)
    return _vector_curve(r_grid, summaries, norm_l1(x) * _T_certificates(r_grid, x.dim))


def curve_cesaro_S(r_grid, x: TruncatedVector, T: PowerBoundedOperator, tol: float) -> CesaroCurve:
    """The closed-form means of ``stream_cesaro_S``, summarised row by row."""
    r_grid = np.asarray(r_grid, dtype=float)
    summaries, errors = [], []
    scratch, prev = np.empty(x.dim), None
    for row, err in stream_cesaro_S(r_grid, x, T, tol):
        step = math.nan if prev is None else float(np.abs(row - prev).sum())
        summaries.append((*row_stats(row, scratch), step))
        errors.append(err)
        prev = row
    return _vector_curve(r_grid, summaries, errors)


def curve_cesaro_M_opnorm(r_grid, N: int) -> CesaroCurve:
    """||C_M(r)|| per r: the closed form of cesaro_M_opnorm, O(1) per r at any N."""
    r_grid = np.asarray(r_grid, dtype=float)
    return CesaroCurve(r_grid=r_grid, kind="norm", values=_M_opnorm(r_grid, N), trunc_error=np.zeros(r_grid.size))
