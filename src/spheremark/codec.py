"""Message bytes <-> sphere vector codecs.

The codec seam is a small abstract class so that any encoder/decoder
pair mapping byte messages onto unit vectors can plug into the
channel, the confidence scorer and the CLI.  The shipped reference
codec is pure sign modulation: bit i (most significant bit first)
becomes component (2*b_i - 1)/sqrt(d).  It is deterministic and
exactly idempotent, which makes it the ground-truth backend for
calibrating everything downstream.

Padding convention: messages shorter than capacity are zero-padded,
and decode strips trailing zero bytes.  Messages therefore must not
end in a NUL byte themselves; Watermark.sign_many rejects those.
"""
from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityExceededError, DimensionError, DomainError
from .sphere import UnitVector, _from_rows, _to_rows


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


@dataclass(frozen=True)
class CodecDescriptor:
    name: str
    dim: int
    capacity_bits: int

    def __post_init__(self):
        if self.dim < 2:
            raise DimensionError(f"codec dimension {self.dim} < 2")
        if not 0 < self.capacity_bits <= self.dim:
            raise DimensionError(
                f"capacity {self.capacity_bits} bits outside (0, dim={self.dim}]")

    @property
    def capacity_bytes(self) -> int:
        return self.capacity_bits // 8


class Codec(abc.ABC):
    """Interface any message<->vector codec must satisfy: both methods
    take a block, so a codec is written once, for n items."""

    descriptor: CodecDescriptor

    @abc.abstractmethod
    def encode(self, messages: list[Message]) -> np.ndarray:
        """Map messages within capacity onto the unit rows of an (n, dim)
        array: row k encodes messages[k]."""

    @abc.abstractmethod
    def decode(self, rows: np.ndarray) -> list[Message]:
        """Total inverse map, one message per row of an (n, dim) array of
        unit vectors; never errors on valid unit rows."""


class SignCodec(Codec):
    """Reference codec: one bit per component, sign modulated.

    encode and decode also take one Message or one UnitVector and then
    return one item, only because perfbench/worker.py calls them that
    way.  That form goes once the worker signs and opens through
    Watermark (ROADMAP item 1 step 1).
    """

    def __init__(self, dim: int = 256):
        self.descriptor = CodecDescriptor(name="sign", dim=dim, capacity_bits=dim)
        self._scale = 1.0 / math.sqrt(dim)

    def encode(self, messages: list[Message] | Message) -> np.ndarray | UnitVector:
        one = isinstance(messages, Message)
        messages = [messages] if one else messages
        cap_bytes = self.descriptor.capacity_bytes
        padded = bytearray()
        for m in messages:
            if len(m.data) > cap_bytes:
                raise CapacityExceededError(
                    f"message of {len(m.data)} bytes exceeds capacity of "
                    f"{self.descriptor.capacity_bits} bits ({cap_bytes} bytes)",
                    capacity_bits=self.descriptor.capacity_bits)
            padded += m.data.ljust(cap_bytes, b"\x00")
        octets = np.frombuffer(bytes(padded), dtype=np.uint8).reshape(len(messages), cap_bytes)
        bits = np.unpackbits(octets, axis=1)
        spare = self.descriptor.dim - bits.shape[1]  # dim not divisible by 8
        if spare:
            bits = np.pad(bits, ((0, 0), (0, spare)))
        rows = bits.astype(np.float64)
        rows *= 2.0  # in place: (2b - 1)/sqrt(d) without three block-sized temporaries
        rows -= 1.0
        rows *= self._scale
        return _from_rows(rows, one)

    def decode(self, rows: np.ndarray | UnitVector) -> list[Message] | Message:
        rows, one = _to_rows(rows)
        if rows.ndim != 2 or rows.shape[1] != self.descriptor.dim:
            raise DimensionError(
                f"vector rows {rows.shape} != codec dim {self.descriptor.dim}")
        usable = 8 * self.descriptor.capacity_bytes
        packed = np.packbits(rows[:, :usable] > 0.0, axis=1)  # exact zero decodes as 0
        messages = [Message(octets.tobytes().rstrip(b"\x00")) for octets in packed]
        return _from_rows(messages, one)


_CODECS = {"sign": SignCodec}


def get_codec(name: str, dim: int) -> Codec:
    """Look up a registered codec by name."""
    try:
        factory = _CODECS[name]
    except KeyError:
        raise DomainError(
            f"unknown codec {name!r}; registered: {sorted(_CODECS)}") from None
    return factory(dim)


def idempotence_check(codec: Codec, v: UnitVector | np.ndarray) -> tuple:
    """Does decode(encode(decode(v))) reproduce decode(v) byte-exactly?

    Returns (passes, encode(decoded), decoded).  Always true for the
    reference codec; lossy codecs may fail, and the confidence layer
    treats failure as an immediate rejection.  For a block, an (n, dim)
    array of unit rows, each of the three is per row: a list, an
    (n, dim) array and a list.  The codec sees a block either way.
    """
    rows, one = _to_rows(v)
    decoded = codec.decode(rows)
    try:
        reencoded = codec.encode(decoded)
        fits = [True] * len(decoded)
    except CapacityExceededError:
        # a decode that grew past capacity can never re-encode; that row
        # fails instead of erroring, and hands back its input row
        reencoded = rows.copy()
        fits = []
        for k, message in enumerate(decoded):
            try:
                reencoded[k] = codec.encode([message])[0]
            except CapacityExceededError:
                fits.append(False)
            else:
                fits.append(True)
    again = codec.decode(reencoded)
    passes = [ok and a.data == d.data for ok, a, d in zip(fits, again, decoded)]
    return _from_rows(passes, one), _from_rows(reencoded, one), _from_rows(decoded, one)
