"""Exponential-gap coefficient family, its exact sum and integral identities, and the M/T rows built on it.

The family b(n, t) = exp(-t/n) - exp(-t/(n-1)) (with b(1, t) = exp(-t)) drives every off-diagonal
operator in this package.  Its partial sums telescope to differences of exponentials, its infinite tails
are 1 - exp(-t/m), and its time antiderivatives are available in closed form; those three identities are
what make rigorous truncation certificates possible at all.  ``family`` forms every entry of M(t), T(t)
and their Cesaro means from them; the operators, grid kernels, coefficient rows and support summaries all
read it, a gap of a support as one wide index pair.
"""

from __future__ import annotations

import math
import sys

import numpy as np

_EPS = sys.float_info.epsilon

__all__ = [
    "b", "partial_sum_b", "tail_sum_b", "integral_b", "b_row", "mean_E", "family",
]


def _check_t(t, name: str = "time t") -> np.ndarray:
    """t, a number or an array, as a float array once every entry is >= 0 (a NaN is not)."""
    t = np.asarray(t, dtype=float)
    bad = ~(t >= 0)
    if bad.any():
        raise ValueError(f"{name} must be >= 0, got {t[bad][0]}")
    return t


def _check_r(r) -> np.ndarray:
    """r, a number or an array, as a float array once every entry is > 0 (a NaN is not)."""
    r = np.asarray(r, dtype=float)
    bad = ~(r > 0)
    if bad.any():
        raise ValueError(f"averaging length r must be > 0, got {r[bad][0]}")
    return r


def _h(N: int) -> np.ndarray:
    """Indices 1..N as floats, after checking the truncation."""
    if N < 1:
        raise ValueError(f"truncation N must be >= 1, got {N}")
    return np.arange(1, N + 1, dtype=float)


def _check_finite(grid: np.ndarray, name: str) -> np.ndarray:
    """``grid`` once every point is finite: an S series at an infinite t or r would need infinitely many terms."""
    if not np.isfinite(grid).all():
        raise ValueError(f"{name} must be finite, got {grid[~np.isfinite(grid)][0]}")
    return grid


def b(n: int, t: float) -> float:
    """Coefficient b(n, t): exp(-t) for n=1, exp(-t/n) - exp(-t/(n-1)) for n>=2.

    Always nonnegative.  For n >= 2 the difference is evaluated as
    exp(-t/n) * (1 - exp(-t/(n(n-1)))) to avoid cancellation between two
    nearly equal exponentials when t/n is small.
    """
    if n < 1:
        raise ValueError(f"index n must be >= 1, got {n}")
    _check_t(t)
    if n == 1:
        return math.exp(-t)
    return math.exp(-t / n) * -math.expm1(-t / (n * (n - 1)))


def partial_sum_b(m: int, n: int, t: float) -> float:
    """Sum of b(h, t) for h = m+1 .. n, in closed form exp(-t/n) - exp(-t/m).

    m = 0 addresses the full leading sum h = 1..n and is handled by the
    limit convention exp(-t/0) := 0 for t > 0 and 1 for t = 0.
    """
    if m < 0:
        raise ValueError(f"lower index m must be >= 0, got {m}")
    if m >= n:
        raise ValueError(f"need m < n, got m={m}, n={n}")
    _check_t(t)
    if m == 0:
        lower = 1.0 if t == 0 else 0.0
    else:
        lower = math.exp(-t / m)
    return math.exp(-t / n) - lower


def tail_sum_b(m: int, t: float) -> float:
    """Infinite tail sum of b(h, t) over h > m: 1 - exp(-t/m), rounded up.

    This is the master truncation-error quantity: the l1 mass of the
    coefficient family past index m; the exact value is below t/m.
    -expm1(-t/m) is within 1.5 eps (half an ulp in t/m, whose relative
    condition number is below 1, and one in expm1); it is raised by 2.5 eps
    of itself, with a floor of two subnormal steps for t > 0, so it never
    understates.
    """
    if m < 1:
        raise ValueError(f"index m must be >= 1, got {m}")
    _check_t(t)
    if t == 0:
        return 0.0
    value = -math.expm1(-t / m)
    return value + max(2.5 * _EPS * value, 2 * math.ulp(0.0))


def integral_b(h: int, r: float) -> float:
    """Time integral of b(h, s) over s in [0, r], in closed form.

    Equals 1 - exp(-r) for h = 1 and
    h*(1 - exp(-r/h)) - (h-1)*(1 - exp(-r/(h-1))) for h >= 2.
    """
    if h < 1:
        raise ValueError(f"index h must be >= 1, got {h}")
    _check_t(r, "upper limit r")
    if h == 1:
        return -math.expm1(-r)
    return (h - 1) * math.expm1(-r / (h - 1)) - h * math.expm1(-r / h)


def b_row(t: float, n_max: int) -> np.ndarray:
    """Vectorized b(n, t) for n = 1..n_max (0-based entry n-1): e^{-t}, then ``family``'s couplings at t."""
    h = _h(n_max)
    _, coupling = family(np.reshape(_check_t(t), (1, 1)), h, h[:-1], False)
    return np.concatenate(([math.exp(-t)], coupling[0]))


def mean_E(grid, h) -> np.ndarray:
    """E(h) = h expm1(-r/h) at every r of ``grid`` and h of ``h``, broadcast, as one new array; -E(h)/r is F(h, r)."""
    E = np.divide(-grid, h)
    return np.multiply(np.expm1(E, out=E), h, out=E)


def family(grid: np.ndarray, h: np.ndarray, prev: np.ndarray | None, mean: bool) -> tuple[np.ndarray, ...]:
    """The M/T rows at every point of a checked (points, 1) grid: their diagonal at h, and their coupling over
    the pairs of ``prev`` with the last prev.shape[-1] indices of h.

    A row of M(t) or T(t) has diagonal W(h) = e^{-t/h}; a row of C_M(r) or C_T(r) has diagonal (h/r)(-e_h),
    e_h = expm1(-r/h).  The coupling over a pair (p, h), p < h, of any width is the step W(h) - W(p):
    e^{-t/h} (-expm1(-t/g)) with g = hp/(h - p), which is b(h, t) for p = h - 1, as h - p is then 1.0
    exactly; or E(p) - E(h) of ``mean_E``, which is integral_b(h, r), to be divided by r after the
    prefix product.  M, the family without coupling, takes prev None and gets None.  Every rate is formed
    by division: reciprocals would change the bits of a quarter of T's couplings.  Each array is new.
    """
    e = np.divide(-grid, h)
    if mean:
        np.expm1(e, out=e)
        diag = np.divide(-h, grid)  # -(h/r) e_h, bit for bit
        diag *= e
    else:
        diag = np.exp(e, out=e)
    if prev is None:
        return diag, None
    top = np.s_[..., h.shape[-1] - prev.shape[-1] :]  # the paired indices; a slice from -width would read all at 0
    if mean:
        coupling = mean_E(grid, prev)
        coupling -= np.multiply(e, h, out=e)[top]
        return diag, coupling
    g = h[top] * prev  # divided by h - p in place: every temporary of a call shows in the peak RSS of verify
    coupling = np.divide(-grid, np.divide(g, h[top] - prev, out=g))
    np.negative(np.expm1(coupling, out=coupling), out=coupling)
    coupling *= diag[top]
    return diag, coupling
