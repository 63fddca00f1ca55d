"""Concrete operators at truncation N, all in one structured form.

Two uniformly continuous semigroups are implemented on the truncated
space: the diagonal decay semigroup M(t) with generator A, and its
rank-structured perturbation T(t) = M(t) + N_t with generator
B = A + Ndot, built from the all-ones functional.  Every one of these
operators is a diagonal plus, at row j, a weight times the prefix sum
x_1 + ... + x_{j-1}.  ``StructuredOperator`` stores those two arrays, which the action,
its adjoint, dense entries and the triple export all read, so they cannot drift apart.
M(t), T(t) and the orbit and mean rows of ``grid_kernel`` take theirs from ``coeffs.family``.

M is diagonal and therefore exact at every truncation; the perturbation
drops coefficient mass beyond the truncation edge, at most
``coeffs.tail_sum_b(N, t)`` <= t/N per unit input norm, and each
certificate calls that function itself.

Convention: matrices act on column vectors; the image of basis vector
e_k is column k.  The row-action display of the same operators is the
transpose of what is stored here.
"""

from __future__ import annotations

import bisect
import json
import re
from dataclasses import dataclass, replace
from typing import Callable, Iterable, TextIO

import numpy as np

from .coeffs import _check_r, _check_t, _h, family
from .space import TruncatedVector

__all__ = [
    "StructuredOperator", "SparseOperator", "nullity", "apply_M", "apply_T", "grid_kernel",
    "matrix_M", "matrix_T", "matrix_A", "matrix_A_inverse", "matrix_B", "kernel_B",
    "adjoint_residual_vector", "opnorm_l1", "to_sparse_triples", "from_sparse_triples", "matrix_json",
]


def _check(op, x: TruncatedVector):
    if x.dim != op.dim:
        raise ValueError(f"dimension mismatch: operator {op.dim}, vector {x.dim}")


@dataclass(frozen=True, eq=False)
class StructuredOperator:
    """Column k holds ``diag[k-1]`` on the diagonal and ``below[j-1]`` at every row j > k.

    ``below`` is None for a diagonal operator.
    """

    diag: np.ndarray
    below: np.ndarray | None = None

    def __post_init__(self):
        if self.diag.ndim != 1 or self.diag.size < 1:
            raise ValueError("diag must be a nonempty 1-d array")
        if self.below is not None and self.below.shape != self.diag.shape:
            raise ValueError("below must have the shape of diag")

    @property
    def dim(self) -> int:
        return int(self.diag.size)

    def apply(self, x: TruncatedVector) -> TruncatedVector:
        """O(N) action: diag_j x_j + below_j (x_1 + ... + x_{j-1})."""
        _check(self, x)
        return TruncatedVector(self.apply_block(x.coords))

    def apply_block(self, coords: np.ndarray) -> np.ndarray:
        """The action of ``apply`` on the last axis: one N-vector, or a (k, N) block of k vectors."""
        out = self.diag * coords
        if self.below is not None:
            out[..., 1:] += coords.cumsum(axis=-1)[..., :-1] * self.below[1:]
        return out

    def min_entry(self) -> float:
        """The smallest entry of ``dense()``, read off diag, below[1:] and the zeros off the band."""
        low = float(self.diag.min())
        if self.dim > 1:
            low = min(low, 0.0, 0.0 if self.below is None else float(self.below[1:].min()))
        return low

    def apply_adjoint(self, y: TruncatedVector) -> TruncatedVector:
        _check(self, y)
        return TruncatedVector(self.adjoint_block(y.coords))

    def adjoint_block(self, coords: np.ndarray) -> np.ndarray:
        """O(N) transpose action on one N-vector: diag_k y_k plus the suffix sum of below_j y_j over j > k."""
        out = self.diag * coords
        if self.below is not None:
            out[:-1] += np.cumsum((self.below[1:] * coords[1:])[::-1])[::-1]
        return out

    def magnitude(self) -> "StructuredOperator":
        """The operator of the entries' absolute values: this one when none is negative."""
        below = None if self.below is None else np.abs(self.below)
        return self if self.min_entry() >= 0.0 else StructuredOperator(np.abs(self.diag), below)

    def dense(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Columns start..stop-1 of the N x N matrix, all of them by default.  It takes O(N^2) memory at full width."""
        n, stop = self.dim, self.dim if stop is None else stop
        below = np.zeros(n) if self.below is None else self.below
        out = np.tril(np.broadcast_to(below[:, None], (n, stop - start)), -1 - start)
        out[np.arange(start, stop), np.arange(stop - start)] = self.diag[start:stop]
        return out


@dataclass(frozen=True, eq=False)
class SparseOperator:
    """An N x N matrix stored as its entries ``vals`` at 0-based ``rows`` and ``cols``, no pair twice.

    Its action and that of its transpose are one ``np.bincount`` over the entries each: O(nnz).
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    dim: int

    def __post_init__(self):
        if not np.isfinite(self.vals).all():
            raise ValueError("matrix entries must be finite")

    @classmethod
    def from_dense(cls, entries) -> "SparseOperator":
        arr = np.asarray(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("matrix must be square")
        rows, cols = np.nonzero(arr)
        return cls(rows, cols, arr[rows, cols], arr.shape[0])

    def apply(self, x: TruncatedVector) -> TruncatedVector:
        _check(self, x)
        return TruncatedVector(self.apply_block(x.coords))

    def apply_block(self, coords: np.ndarray) -> np.ndarray:
        """The action on one N-vector; a row no entry reaches is 0."""
        return np.bincount(self.rows, self.vals * coords[self.cols], self.dim).astype(float, copy=False)

    def adjoint_block(self, coords: np.ndarray) -> np.ndarray:
        return np.bincount(self.cols, self.vals * coords[self.rows], self.dim).astype(float, copy=False)

    def magnitude(self) -> "SparseOperator":
        """The operator of the entries' absolute values: this one when none is negative."""
        return self if self.vals.min(initial=0.0) >= 0.0 else replace(self, vals=np.abs(self.vals))

    def dense(self) -> np.ndarray:
        """The N x N matrix.  It takes O(N^2) memory, so use it at small N only."""
        out = np.zeros((self.dim, self.dim))
        out[self.rows, self.cols] = self.vals
        return out


# diagonal entries or singular values at or below this fraction of the largest count as zero
RANK_RTOL = 1e-10


def nullity(op: StructuredOperator) -> int:
    """Null-space dimension of ``op``, which is also that of its adjoint.

    Every structured operator is lower triangular, so when each diagonal
    entry clears RANK_RTOL times the largest |entry| both null spaces are
    trivial, read off in O(N).  Otherwise the singular values of
    ``dense()`` decide, an O(N^3) fallback for small N.
    """
    scale = np.abs(op.diag).max()
    if op.below is not None and op.dim > 1:
        scale = max(scale, np.abs(op.below[1:]).max())
    if scale > 0.0 and np.abs(op.diag).min() > RANK_RTOL * scale:
        return 0
    svals = np.linalg.svd(op.dense(), compute_uv=False)  # descending
    return op.dim - int(np.sum(svals > RANK_RTOL * svals[0]))


# --- the operators ---

def matrix_M(t: float, N: int) -> StructuredOperator:
    """Diagonal decay semigroup: coordinate h is scaled by exp(-t/h), ``family``'s diagonal at t."""
    return StructuredOperator(family(np.reshape(_check_t(t), (1, 1)), _h(N), False, False)[0][0])


def matrix_A(N: int) -> StructuredOperator:
    """Generator of the decay semigroup: coordinate h is scaled by -1/h."""
    return StructuredOperator(-1.0 / _h(N))


def matrix_A_inverse(N: int) -> StructuredOperator:
    """Inverse of the decay generator: coordinate h is scaled by -h.

    Its l1 operator norm at truncation N equals N, so the inverses blow up
    as the truncation grows: the finite shadow of an unbounded inverse.
    """
    return StructuredOperator(-_h(N))


def matrix_T(t: float, N: int) -> StructuredOperator:
    """Perturbed semigroup T(t) = M(t) + N_t, where N_t holds b(j, t) at every row j > k of column k.

    Nonnegative matrix for t >= 0; every column of the truncated matrix
    sums to exp(-t/N), so the truncated operator has l1 norm exp(-t/N) <= 1
    and conserves the coordinate-sum functional up to that deficit.  Row 1 lies below no diagonal and holds 0.
    """
    diag, coupling = family(np.reshape(_check_t(t), (1, 1)), _h(N), True, False)
    return StructuredOperator(diag[0], np.concatenate(([0.0], coupling[0])))


def matrix_B(N: int) -> StructuredOperator:
    """Generator B = A + Ndot: column k has -1/k at row k and 1/(j(j-1)) at rows j > k.

    Ndot, the derivative of N_t at t = 0, is the strictly lower part.
    Lower triangular in the column-action convention; the row-action
    display of the same operator is this matrix's transpose.
    """
    h = _h(N)
    j = h[1:]  # row 1 lies below no diagonal and holds 0
    return StructuredOperator(-1.0 / h, np.concatenate(([0.0], 1.0 / (j * (j - 1)))))


# --- rows over grids ---

def grid_kernel(x: TruncatedVector, perturbed: bool, mean: bool) -> Callable[[Iterable[float]], np.ndarray]:
    """Grid kernel of M(t)x, or T(t)x if ``perturbed``; of C_M(r)x or C_T(r)x per r if ``mean``.

    Row i of ``kernel(grid)`` is the orbit or the mean at grid[i]: ``family``'s diagonal times x,
    so a signed zero x_h keeps its sign, plus its coupling times x_1 + ... + x_{h-1}, divided by r
    after that product for a mean.  The grid is checked first.  One numpy pass per call forms the
    whole (grid, N) array, in the operation order of a one-point call, so each row keeps its bits.
    """
    h = _h(x.dim)
    prefix = np.cumsum(x.coords)[:-1] if perturbed else None

    def rows(grid: Iterable[float]) -> np.ndarray:
        grid = (_check_r if mean else _check_t)(np.array(grid, dtype=float, ndmin=1))[:, None]
        out, coupling = family(grid, h, perturbed, mean)
        np.multiply(out, x.coords, out=out)
        if perturbed:
            coupling *= prefix
            if mean:
                coupling /= grid
            out[:, 1:] += coupling
        return out

    return rows


def apply_M(t: float, x: TruncatedVector) -> TruncatedVector:
    """M(t)x; exact at every truncation (no off-diagonal coupling)."""
    return TruncatedVector(grid_kernel(x, perturbed=False, mean=False)([t])[0])


def apply_T(t: float, x: TruncatedVector) -> TruncatedVector:
    """T(t)x, less what lands beyond the truncation edge: at most tail_sum_b(N, t) ||x||_1."""
    return TruncatedVector(grid_kernel(x, perturbed=True, mean=False)([t])[0])


# --- structural diagnostics ---

def kernel_B(N: int) -> bool:
    """True when the generator B has a trivial kernel at truncation N.

    Its diagonal -1/h clears the rank threshold for N < 1e10, so the
    structure decides in O(N).
    """
    return nullity(matrix_B(N)) == 0


def adjoint_residual_vector(N: int) -> np.ndarray:
    """Coordinate sums of B e_k for k = 1..N, i.e. the adjoint image of all-ones.

    Each entry telescopes to exactly -1/N.  Suffix sums are accumulated
    with Kahan compensation so the uniformity holds to ~1e-16 even at
    N = 65536, where a naive running sum would drift.
    """
    _h(N)  # checks the truncation
    k = np.arange(N - 1, 0, -1, dtype=float)  # N - 1 down to 1; k(k + 1) is exact below 2^53
    sums = 1.0 / (k * (k + 1.0))  # the terms, overwritten by their running sums a block at a time
    s = c = 0.0
    for start in range(0, N - 1, 4096):  # Python floats for one block at a time, not for all N
        block = []
        for term in sums[start : start + 4096].tolist():
            y = term - c
            t = s + y
            c, s = (t - s) - y, t
            block.append(s)
        sums[start : start + 4096] = block
    sums -= 1.0 / k
    return np.append(sums[::-1], -1.0 / N)


def opnorm_l1(entries: np.ndarray) -> float:
    """l1 operator norm of a matrix in column-action convention: max abs column sum."""
    arr = np.asarray(entries, dtype=float)
    if arr.ndim != 2:
        raise ValueError("expected a matrix")
    return float(np.abs(arr).sum(axis=0).max())


# --- exchange formats ---

# the first comment line that states a dimension
_DIM_HEADER = re.compile(r"^[ \t]*[%#].*?\bdim[ \t]+(\d+)\b", re.M)
_DATA_LINE = re.compile(r"^[ \t]*[^%#\s]", re.M)
_TRIPLE = np.dtype([("row", np.int64), ("col", np.int64), ("val", float)])


def to_sparse_triples(op: StructuredOperator, out: TextIO):
    """Stream ``row col value`` lines (1-based, 17 significant digits) into ``out``.

    Only nonzero entries are written, column by column.  Memory stays O(N):
    each below-diagonal row is formatted once, and a column is one join of
    those pieces around its column index.
    """
    out.write(f"% sparse triples, column-action, dim {op.dim}\n")
    below = np.zeros(op.dim) if op.below is None else op.below
    rows = np.flatnonzero(below).tolist()  # 0-based
    heads = [f"{j + 1} " for j in rows]
    tails = [f" {v:.16e}\n" for v in below[rows].tolist()]
    # consecutive lines of one column meet as tails[i] + heads[i + 1]
    joints = [t + h for t, h in zip(tails, heads[1:])] + tails[-1:]
    for k, d in enumerate(op.diag.tolist(), start=1):
        col = str(k)
        if d != 0.0:
            out.write(f"{col} {col} {d:.16e}\n")
        first = bisect.bisect_left(rows, k)  # first row below the diagonal
        if first < len(rows):
            out.write(heads[first] + col + col.join(joints[first:]))


def from_sparse_triples(text: str, dim: int | None = None) -> SparseOperator:
    """Parse the triple format into its validated entries, without forming the matrix.

    The file's dimension is the ``dim N`` of the first comment line that
    states one, as the writer's header does, so trailing zero rows and
    columns survive; without such a line it is the largest index.  A file
    of another dimension than an expected ``dim`` is refused, and so are an
    index outside 1..N and a (row, col) pair given twice.
    """
    triples = np.zeros(0, _TRIPLE)
    if _DATA_LINE.search(text):
        try:
            # one comment character keeps loadtxt in C
            triples = np.loadtxt(text.replace("#", "%").splitlines(), dtype=_TRIPLE, comments="%", ndmin=1)
        except ValueError as exc:  # loadtxt's advice on its usecols argument means nothing to a file's author
            raise ValueError(f"malformed triples: {str(exc).split('; use')[0]}") from None
    rows, cols = triples["row"], triples["col"]
    stated = _DIM_HEADER.search(text)
    if stated:
        found = int(stated.group(1))
    elif not triples.size:
        raise ValueError("no triples found")
    else:
        found = int(max(rows.max(), cols.max()))
    if dim is not None and found != dim:
        raise ValueError(f"matrix file has dim {found}, expected {dim}")
    if found < 1:
        raise ValueError(f"matrix dim must be at least 1, got {found}")
    outside = np.flatnonzero((rows < 1) | (rows > found) | (cols < 1) | (cols > found))
    if outside.size:
        raise ValueError(f"triple index ({rows[outside[0]]}, {cols[outside[0]]}) outside 1..{found}")
    order = np.lexsort((cols, rows))
    twice = np.flatnonzero((np.diff(rows[order]) == 0) & (np.diff(cols[order]) == 0))
    if twice.size:
        k = order[twice[0]]
        raise ValueError(f"triple ({rows[k]}, {cols[k]}) is given more than once")
    return SparseOperator(rows - 1, cols - 1, triples["val"], found)


def matrix_json(op: StructuredOperator) -> str:
    """Dense JSON of the matrix, flagging the display convention."""
    payload = {
        "dim": op.dim,
        "convention": "column-action",
        "display_transpose_of_row_action": True,
        "entries": op.dense().tolist(),
    }
    return json.dumps(payload, indent=2, sort_keys=True)
