"""Message bytes <-> sphere vector codecs.

The one codec is pure sign modulation: bit i (most significant bit
first) becomes component (2*b_i - 1)/sqrt(d), so a d-dimensional vector
carries d // 8 message bytes.  It is deterministic and exactly
idempotent, which makes it the ground-truth backend for calibrating
everything downstream.  The command line always uses it at
d = DEFAULT_DIM.  The Codec base class stays as the seam through which
the channel and the confidence scorer take a codec, so that tests can
pass fakes that break its contract.

Padding convention: a block of messages is an (n, L) uint8 array, each
row zero-padded on the right, and decode returns such rows of
capacity_bytes.  A message therefore must not end in a NUL byte itself;
Watermark.sign refuses one.
"""
from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityExceededError, DimensionError, DomainError
from .sphere import DEFAULT_DIM, UnitVector, _from_rows, _to_rows


@dataclass(frozen=True)
class Message:
    """An octet-string payload."""

    data: bytes

    def __post_init__(self):
        if not isinstance(self.data, bytes):
            object.__setattr__(self, "data", bytes(self.data))

    @property
    def text(self) -> str | None:
        """UTF-8 view of the payload, or None when it does not decode."""
        try:
            return self.data.decode("utf-8")
        except UnicodeDecodeError:
            return None


def _octets(message: Message) -> np.ndarray:
    """A message as a block of one byte row."""
    return np.frombuffer(message.data, dtype=np.uint8)[None, :]


def _message(row: np.ndarray) -> Message:
    """A zero-padded byte row as a message, its padding stripped."""
    return Message(row.tobytes().rstrip(b"\x00"))


class Codec(abc.ABC):
    """Interface any message<->vector codec must satisfy: both methods
    take a block, so a codec is written once, for n items.  dim is the
    length of the unit rows, and capacity_bytes the width of a decoded
    message row."""

    dim: int
    capacity_bytes: int

    @abc.abstractmethod
    def encode(self, octets: np.ndarray) -> np.ndarray:
        """Map an (n, L) uint8 array of zero-padded messages, L at most
        capacity_bytes, onto the unit rows of an (n, dim) array: row k
        encodes octets[k].  Raises CapacityExceededError beyond that."""

    @abc.abstractmethod
    def decode(self, rows: np.ndarray) -> np.ndarray:
        """Total inverse map: the (n, capacity_bytes) uint8 zero-padded
        messages of an (n, dim) array of unit rows; never errors on valid
        unit rows."""


class SignCodec(Codec):
    """Reference codec: one bit per component, sign modulated, so
    capacity_bytes is dim // 8.  dim below 2 raises DimensionError.

    encode and decode also take one Message or one UnitVector and then
    return one item.  Acceptance criterion 06 encodes one Message, so
    encode keeps that form.  Only perfbench/worker.py decodes one
    UnitVector, and decode's one-item form goes once the worker opens
    through Watermark (ROADMAP item 1 step C).
    """

    def __init__(self, dim: int = DEFAULT_DIM):
        if dim < 2:
            raise DimensionError(f"codec dimension {dim} < 2")
        self.dim = dim
        self.capacity_bytes = dim // 8
        self._scale = 1.0 / math.sqrt(dim)

    def encode(self, octets: np.ndarray | Message) -> np.ndarray | UnitVector:
        one = isinstance(octets, Message)
        if one:
            octets = _octets(octets)
        if octets.shape[1] > self.capacity_bytes:
            raise CapacityExceededError(
                f"message of {octets.shape[1]} bytes exceeds capacity of "
                f"{self.dim} bits ({self.capacity_bytes} bytes)")
        # bits past the message bytes stay 0, the zero padding; unpackbits'
        # count= would pad too, but leaves garbage when the rows are empty
        rows = np.zeros((len(octets), self.dim))
        rows[:, :8 * octets.shape[1]] = np.unpackbits(octets, axis=1)
        rows *= 2.0  # in place: (2b - 1)/sqrt(d) without three block-sized temporaries
        rows -= 1.0
        rows *= self._scale
        return _from_rows(rows, one)

    def decode(self, rows: np.ndarray | UnitVector) -> np.ndarray | Message:
        rows, one = _to_rows(rows)
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            raise DimensionError(
                f"vector rows {rows.shape} != codec dim {self.dim}")
        usable = 8 * self.capacity_bytes
        octets = np.packbits(rows[:, :usable] > 0.0, axis=1)  # exact zero decodes as 0
        return _message(octets[0]) if one else octets


def get_codec(name: str, dim: int) -> Codec:
    """The codec called name, at dimension dim; "sign" is the only one."""
    if name != "sign":
        raise DomainError(f"unknown codec {name!r}; the only codec is 'sign'")
    return SignCodec(dim)
