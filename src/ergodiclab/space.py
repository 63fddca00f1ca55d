"""Truncated l1 sequence-space arithmetic.

Vectors live in the span of the first N coordinate directions of l1 and
carry their truncation dimension explicitly.  Indices are 1-based at the
API surface; storage is a dense float64 array.  All operations are pure
and every vector is immutable once constructed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TruncatedVector", "basis_vector", "project_Q", "project_P", "norm_l1", "pair", "row_stats",
]

# a pass over a block of rows, M/T summaries (sweep: README) or S rows, keeps its arrays within this, or is one row
_BLOCK_ELEMENTS = 12288


@dataclass(frozen=True)
class TruncatedVector:
    """Element of the span of the first ``dim`` coordinate vectors of l1."""

    coords: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coords, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("coords must be a nonempty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coords must be finite (no NaN/inf)")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)

    @property
    def dim(self) -> int:
        return int(self.coords.size)

    def __add__(self, other: "TruncatedVector") -> "TruncatedVector":
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return TruncatedVector(self.coords + other.coords)

    def __sub__(self, other: "TruncatedVector") -> "TruncatedVector":
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return TruncatedVector(self.coords - other.coords)

    def __rmul__(self, scalar: float) -> "TruncatedVector":
        return TruncatedVector(float(scalar) * self.coords)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedVector)
            and self.dim == other.dim
            and bool(np.array_equal(self.coords, other.coords))
        )


def basis_vector(k: int, dim: int) -> TruncatedVector:
    """The k-th coordinate vector at truncation ``dim`` (1 at k, 0 elsewhere)."""
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    if not 1 <= k <= dim:
        raise IndexError(f"basis index {k} out of range 1..{dim}")
    coords = np.zeros(dim)
    coords[k - 1] = 1.0
    return TruncatedVector(coords)


def project_Q(x: TruncatedVector, h: int) -> TruncatedVector:
    """Single-coordinate projection: keep coordinate h, zero the rest."""
    if not 1 <= h <= x.dim:
        raise IndexError(f"projection index {h} out of range 1..{x.dim}")
    coords = np.zeros(x.dim)
    coords[h - 1] = x.coords[h - 1]
    return TruncatedVector(coords)


def project_P(x: TruncatedVector, h: int) -> TruncatedVector:
    """Partial-sum projection: keep coordinates 1..h, zero those above h.

    Contractive on l1: the result never has larger l1 norm than x.
    """
    if not 1 <= h <= x.dim:
        raise IndexError(f"projection index {h} out of range 1..{x.dim}")
    coords = x.coords.copy()
    coords[h:] = 0.0
    return TruncatedVector(coords)


def norm_l1(x: TruncatedVector) -> float:
    return float(np.abs(x.coords).sum())


def row_stats(rows: np.ndarray) -> np.ndarray:
    """l1 norm, largest |coordinate|, its 1-based index and coordinate sum of each row of a (k, N) block, as (k, 4).

    Each pass takes a C-ordered run of rows within _BLOCK_ELEMENTS elements, or one row, and reduces
    along its rows, so every row keeps the bits of its own 1-d reductions.  Rejects a NaN or inf
    coordinate as ``TruncatedVector`` does: the max of |coords| is finite iff all are.
    """
    out, size = np.empty((len(rows), 4)), max(1, _BLOCK_ELEMENTS // rows.shape[1])
    for i in range(0, len(rows), size):
        part = rows[i : i + size]
        at = (magnitude := np.abs(part)).argmax(axis=1)
        out[i : i + size] = np.column_stack((np.add.reduce(magnitude, axis=1), magnitude[np.arange(len(part)), at],
                                             at + 1, np.add.reduce(part, axis=1)))
    if not np.isfinite(out[:, 1]).all():
        raise ValueError("coords must be finite (no NaN/inf)")
    return out


def pair(f: np.ndarray, x: TruncatedVector) -> float:
    """Duality pairing sum_k f_k x_k of a coefficient array f (an l-infinity element) with x.

    The all-ones f, np.ones(N), gives the coordinate sum of x bit for bit.
    """
    if f.size < x.dim:
        raise ValueError(f"functional length {f.size} shorter than vector dim {x.dim}")
    return float((f[: x.dim] * x.coords).sum())
