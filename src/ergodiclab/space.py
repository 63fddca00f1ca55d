"""Truncated l1 sequence-space arithmetic.

Vectors live in the span of the first N coordinate directions of l1 and
carry their truncation dimension explicitly.  Indices are 1-based at the
API surface; storage is a dense float64 array.  All operations are pure
and every vector is immutable once constructed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TruncatedVector", "basis_vector", "project_Q", "project_P", "norm_l1", "pair", "row_stats",
]


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


def row_stats(coords: np.ndarray, scratch: np.ndarray) -> tuple[float, float, int, float]:
    """l1 norm, largest |coordinate|, its 1-based index and coordinate sum of a row.

    One |.| pass into ``scratch`` (same length) serves the first three, so
    streamed rows need no vector object.  Rejects a NaN or inf coordinate
    as ``TruncatedVector`` does: the max of |coords| is finite iff all are.
    """
    np.abs(coords, out=scratch)
    k = int(scratch.argmax())
    top = float(scratch[k])
    if not math.isfinite(top):
        raise ValueError("coords must be finite (no NaN/inf)")
    return float(scratch.sum()), top, k + 1, float(coords.sum())


def pair(f: np.ndarray, x: TruncatedVector) -> float:
    """Duality pairing sum_k f_k x_k of a coefficient array f (an l-infinity element) with x.

    The all-ones f, np.ones(N), gives the coordinate sum of x bit for bit.
    """
    if f.size < x.dim:
        raise ValueError(f"functional length {f.size} shorter than vector dim {x.dim}")
    return float((f[: x.dim] * x.coords).sum())
