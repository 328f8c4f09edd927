"""8-bit raster images with binary netpbm (PGM/PPM) round-trip.

Grayscale images are written as P5, 3-channel as P6, always maxval
255.  Readers accept maxval 1..255 and rescale samples to the 0..255
range; header numbers must be plain ASCII decimal digits; readers
tolerate '#' comments anywhere in the header; writers never emit them.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from ._fileio import atomic_write
from .errors import DimensionMismatchError, ImageFormatError

MAXVAL = 255


@dataclass(frozen=True, eq=False)
class RasterImage:
    """Row-major uint8 pixels of shape (height, width, channels)."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pixels)
        if arr.ndim == 2:
            arr = arr[:, :, np.newaxis]
        if arr.ndim != 3 or arr.shape[2] not in (1, 3):
            raise ImageFormatError(
                f"pixels must be (h, w) or (h, w, 1|3), got shape {arr.shape}")
        if arr.dtype != np.uint8:
            raise ImageFormatError(f"pixels must be uint8, got {arr.dtype}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ImageFormatError("image must be at least 1x1")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "pixels", arr)

    @property
    def height(self) -> int:
        return int(self.pixels.shape[0])

    @property
    def width(self) -> int:
        return int(self.pixels.shape[1])

    @property
    def channels(self) -> int:
        return int(self.pixels.shape[2])


# Header whitespace and # comments, and one header token.  One \s* takes a
# run of spaces; (?:\s|#[^\n]*)* repeats per byte, slower than a Python loop.
_SEPARATOR = re.compile(rb"\s*(?:#[^\n]*\s*)*")
_TOKEN = re.compile(rb"[^\s#]+")


def _read_header_tokens(buf: bytes, start: int, count: int) -> tuple[list[bytes], int]:
    """Collect whitespace-separated header tokens, skipping # comments."""
    tokens = []
    i = start
    for _ in range(count):
        token = _TOKEN.match(buf, _SEPARATOR.match(buf, i).end())
        if token is None:
            raise ImageFormatError("truncated netpbm header")
        tokens.append(token.group())
        i = token.end()
    # exactly one whitespace byte separates the header from pixel data
    if not buf[i:i + 1].isspace():
        raise ImageFormatError("netpbm header not terminated by whitespace")
    return tokens, i + 1


def read_image(path: str) -> RasterImage:
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as exc:
        raise ImageFormatError(f"cannot read image {path}: {exc}") from exc
    if len(buf) < 2:
        raise ImageFormatError(f"{path}: too short for a netpbm file")
    magic = buf[:2]
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise ImageFormatError(f"{path}: unsupported magic {magic!r}, want P5 or P6")
    tokens, data_start = _read_header_tokens(buf, 2, 3)
    # int() would also take "+10" and "1_0"; netpbm wants ASCII digits
    if not all(t.isdigit() for t in tokens):
        raise ImageFormatError(f"{path}: non-numeric header field")
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:  # more digits than int() will convert
        raise ImageFormatError(f"{path}: header field too long") from exc
    if width < 1 or height < 1:
        raise ImageFormatError(f"{path}: bad dimensions {width}x{height}")
    if not 0 < maxval <= MAXVAL:
        raise ImageFormatError(f"{path}: maxval {maxval} unsupported, want 1..255")
    need = width * height * channels
    if len(buf) - data_start != need:
        raise ImageFormatError(
            f"{path}: expected {need} pixel bytes, got {len(buf) - data_start}")
    # a read-only view of the file's bytes, not a copy
    arr = np.frombuffer(buf, dtype=np.uint8, offset=data_start).reshape(height, width, channels)
    if maxval < MAXVAL:
        if int(arr.max()) > maxval:
            raise ImageFormatError(f"{path}: sample {int(arr.max())} above maxval {maxval}")
        # round half up to the nearest 0..255 level, one table entry per sample value
        levels = np.arange(maxval + 1, dtype=np.uint16)
        arr = ((levels * MAXVAL + maxval // 2) // maxval).astype(np.uint8)[arr]
    return RasterImage(arr)


def write_image(img: RasterImage, path: str) -> None:
    magic = b"P5" if img.channels == 1 else b"P6"
    header = b"%s\n%d %d\n%d\n" % (magic, img.width, img.height, MAXVAL)
    with atomic_write(path, "wb") as fh:
        fh.write(header)
        fh.write(img.pixels)  # C-contiguous, so its buffer is the file's bytes


def psnr(a: RasterImage, b: RasterImage) -> float:
    """Peak signal-to-noise ratio in dB over all samples of all channels.

    Identical images return math.inf (serialize as the string "inf").
    """
    if a.pixels.shape != b.pixels.shape:
        raise DimensionMismatchError(
            f"shape mismatch: {a.pixels.shape} vs {b.pixels.shape}")
    # imagechannel imports this module, so its band split is imported here
    from .imagechannel import _bands

    # squared uint8 differences, at most 255**2 each, summed exactly in
    # int64 a band of rows at a time through one int32 buffer; below 2^53
    # the float64 sum np.mean would take is the same integer, so the
    # value is too
    _, rows = next(_bands(a.height, a.width))  # no band is longer than the first
    buf = np.empty((rows, a.width, a.channels), dtype=np.int32)
    total = 0
    for r0, r1 in _bands(a.height, a.width):
        part = np.subtract(a.pixels[r0:r1], b.pixels[r0:r1], out=buf[:r1 - r0], dtype=np.int32)
        np.square(part, out=part)
        total += int(part.sum(dtype=np.int64))
    mse = total / a.pixels.size
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(MAXVAL * MAXVAL / mse)
