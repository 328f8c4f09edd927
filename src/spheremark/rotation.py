"""Secret-keyed uniformly random rotations of the payload sphere.

A 64-bit secret seed deterministically selects a rotation matrix
drawn from the uniform (Haar) distribution on SO(d).  Construction:

1. fill a d x d matrix with standard Gaussian entries from the
   key-derived stream (Ginibre ensemble),
2. factor it as Q R by Householder QR,
3. rescale column j of Q by sign(R[j, j]) (sign(0) counts as +1) so
   the factorization is the unique one with positive diagonal --
   without this step the QR convention biases the distribution,
4. if det is -1, negate the first column to land in SO(d).

The same seed yields different but deterministic matrices at
different dimensions because the stream is derived from (seed, dim).

sample_rotation holds the two most recently used (seed, dim) rotations,
enough for a wrong-key sweep's sender and receiver, so a process
factors each key's matrix once.  The held matrices are read-only and
take 2 * 8 * d^2 bytes (1 MiB at d = 256, 256 MiB at MAX_DIM), below
the ~5 d x d matrices sampling one of them peaks at.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from ._fileio import atomic_write, read_json
from .errors import DimensionError, DimensionMismatchError, KeyFileError
from .sphere import UnitVector, _from_rows, _to_rows, unit
from .streams import stream

MAX_SEED = 2**64 - 1

# Largest rotation sampled: sampling peaks near five d x d float64
# matrices (+655 MiB, 9 s at d = 4096), so d ~ 12k would exhaust 8 GiB.
MAX_DIM = 4096


@dataclass(frozen=True)
class SecretKey:
    """Watermarking secret: a 64-bit seed plus an optional label."""

    seed: int
    label: str | None = None

    def __post_init__(self):
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise KeyFileError("key seed must be an integer")
        if not 0 <= self.seed <= MAX_SEED:
            raise KeyFileError(f"key seed {self.seed} outside [0, 2^64)")
        if self.label is not None and not isinstance(self.label, str):
            raise KeyFileError("key has a non-text label")


def save_key(key: SecretKey, path: str) -> None:
    payload = {"seed": key.seed, "label": key.label}
    with atomic_write(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_key(path: str) -> SecretKey:
    """Read a key file, a JSON object with a seed field; SecretKey checks
    the fields, and every refusal names the file."""
    payload = read_json(path, KeyFileError, "key file")
    if not isinstance(payload, dict) or "seed" not in payload:
        raise KeyFileError(f"key file {path} lacks a seed field")
    try:
        return SecretKey(seed=payload["seed"], label=payload.get("label"))
    except KeyFileError as exc:
        raise KeyFileError(f"key file {path}: {exc}") from exc


@dataclass(frozen=True, eq=False)
class RotationMatrix:
    """A member of SO(d), stored as a read-only float64 matrix."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=np.float64, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionError(f"rotation matrix must be square, got {arr.shape}")
        if arr.shape[0] < 1:
            raise DimensionError("rotation matrix needs dimension >= 1")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return int(self.entries.shape[0])


def check_rotation_dim(dim: int) -> None:
    if not 1 <= dim <= MAX_DIM:
        raise DimensionError(f"rotation dimension {dim} outside [1, {MAX_DIM}]")


def sample_rotation(key: SecretKey, dim: int) -> RotationMatrix:
    """Draw the rotation selected by (key, dim) from Haar measure on SO(d).

    The two most recently used (seed, dim) rotations are held, so a
    process that asks again, such as every sweep with a right and a
    wrong key, gets the same read-only matrix without a second QR.
    """
    check_rotation_dim(dim)
    return _draw_rotation(key.seed, dim)


@functools.lru_cache(maxsize=2)
def _draw_rotation(seed: int, dim: int) -> RotationMatrix:
    q, r = np.linalg.qr(stream(seed, dim).standard_normal((dim, dim)))
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    q = q * signs  # rescales column j by signs[j]
    if float(np.linalg.det(q)) < 0.0:
        q[:, 0] = -q[:, 0]  # q * signs made a new array
    return RotationMatrix(q)


def _apply(m: RotationMatrix, v: UnitVector | np.ndarray, q: np.ndarray):
    rows, one = _to_rows(v)
    if rows.ndim != 2 or rows.shape[1] != m.dim:
        raise DimensionMismatchError(f"matrix dim {m.dim} != vector rows {rows.shape}")
    return _from_rows(unit(rows @ q), one)


def rotate(m: RotationMatrix, v: UnitVector | np.ndarray) -> UnitVector | np.ndarray:
    """Apply the rotation; renormalizes to absorb float drift.

    v may also be a block, an (n, d) array of unit rows, rotated by one
    matrix product; one vector is rotated as a block of one row.
    """
    return _apply(m, v, m.entries.T)


def unrotate(m: RotationMatrix, v: UnitVector | np.ndarray) -> UnitVector | np.ndarray:
    """Apply the inverse rotation (transpose, since m is orthogonal);
    a block of rows as rotate takes one."""
    return _apply(m, v, m.entries)
