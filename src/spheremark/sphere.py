"""Unit-hypersphere message vectors and their cosine geometry.

Payload vectors live on the surface of the unit hypersphere S^(d-1),
stored as float64 arrays.  Uniform samples come from normalized
Gaussian draws, similarity is plain cosine, and a vector's byte form
(to_bytes) is what seal's vector_sha256 hashes.

unit and cosine also take a block, an (n, d) array with one vector per
row.  One vector is a block of one row: _to_rows and _from_rows hold that
rule for every module, so each layer computes a vector and a block by
the same arithmetic.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DimensionMismatchError, DomainError

DEFAULT_DIM = 256
NORM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class UnitVector:
    """A unit-norm float64 vector with at least two components."""

    components: np.ndarray

    def __post_init__(self):
        arr = np.array(self.components, dtype=np.float64, copy=True)
        if arr.ndim != 1:
            raise DimensionError("components must be a flat sequence")
        if arr.size < 2:
            raise DimensionError(f"dimension {arr.size} < 2")
        if not np.all(np.isfinite(arr)):
            raise DomainError("components must be finite")
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > NORM_TOL:
            raise DomainError(f"norm {norm:.17g} deviates from 1 beyond {NORM_TOL}")
        arr.flags.writeable = False
        object.__setattr__(self, "components", arr)

    @property
    def dim(self) -> int:
        return int(self.components.size)

    def to_bytes(self) -> bytes:
        """u32 little-endian component count, then that many
        little-endian float64 components."""
        body = self.components.astype("<f8").tobytes()
        return struct.pack("<I", self.dim) + body


def _to_rows(v) -> tuple[np.ndarray, bool]:
    """v as an (n, d) block, and whether v was one UnitVector: its (1, d) row."""
    if isinstance(v, UnitVector):
        return v.components[None, :], True
    return np.asarray(v), False


def _from_rows(result: np.ndarray, one: bool):
    """A per-row result for one vector: row 0 of a block as a UnitVector,
    else entry 0 as a plain value.  For a block, the result unchanged."""
    if not one:
        return result
    return UnitVector(result[0]) if result.ndim == 2 else result.item(0)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # matmul runs each (1, d) @ (d, 1) product as one BLAS dot, so row k
    # equals np.dot(a[k], b[k]) bit for bit, in a block of any size
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def unit(values: np.ndarray) -> UnitVector | np.ndarray:
    """Normalize an arbitrary nonzero vector onto the sphere.

    An (n, d) array is a block of vectors: each row is normalized, and
    the rows come back as an array.  A flat array is a block of one row.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim not in (1, 2):
        raise DimensionError(f"cannot normalize an array of {arr.ndim} dimensions")
    rows = np.atleast_2d(arr)
    norms = np.sqrt(_row_dots(rows, rows))
    if not np.all(np.isfinite(norms) & (norms > 0.0)):
        raise DomainError("cannot normalize a zero or non-finite vector")
    return _from_rows(rows / norms[:, None], arr.ndim == 1)


def sample_uniform(dim: int, rng: np.random.Generator) -> UnitVector:
    """Draw a vector uniformly from the surface of S^(dim-1).

    Parameters
    ----------
    dim : int
        Ambient dimension, at least 2.
    rng : numpy.random.Generator
        Source stream; consumed draws advance it.

    Returns
    -------
    UnitVector
        A normalized vector of ``dim`` independent Gaussian draws.
        Rotation invariance of the Gaussian makes the direction
        uniform on the sphere.
    """
    if dim < 2:
        raise DimensionError(f"dimension {dim} < 2")
    return unit(rng.standard_normal(dim))


def cosine(a: UnitVector | np.ndarray, b: UnitVector | np.ndarray) -> float | np.ndarray:
    """Cosine similarity of two unit vectors, clamped to [-1, 1].

    For two (n, d) blocks of unit rows, entry k is the cosine of row k
    of each.
    """
    rows_a, one = _to_rows(a)
    rows_b, one_b = _to_rows(b)
    if one != one_b or rows_a.ndim != 2 or rows_a.shape != rows_b.shape:
        raise DimensionMismatchError(f"cosine takes two unit vectors or two blocks of "
                                     f"one shape, got {rows_a.shape} and {rows_b.shape}")
    return _from_rows(np.clip(_row_dots(rows_a, rows_b), -1.0, 1.0), one)
