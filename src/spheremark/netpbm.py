"""8-bit raster images with binary netpbm (PGM/PPM) round-trip.

Grayscale images are written as P5, 3-channel as P6, always maxval
255.  Readers accept maxval 1..255 and rescale samples to the 0..255
range; they tolerate '#' comments anywhere in the header; writers
never emit them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def _read_header_tokens(buf: bytes, start: int, count: int) -> tuple[list[bytes], int]:
    """Collect whitespace-separated header tokens, skipping # comments."""
    tokens = []
    i = start
    n = len(buf)
    while len(tokens) < count:
        while i < n and buf[i:i + 1].isspace():
            i += 1
        if i < n and buf[i] == ord("#"):
            while i < n and buf[i] != ord("\n"):
                i += 1
            continue
        j = i
        while j < n and not buf[j:j + 1].isspace() and buf[j] != ord("#"):
            j += 1
        if j == i:
            raise ImageFormatError("truncated netpbm header")
        tokens.append(buf[i:j])
        i = j
    # exactly one whitespace byte separates the header from pixel data
    if i >= n or not buf[i:i + 1].isspace():
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
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise ImageFormatError(f"{path}: non-numeric header field") from exc
    if width < 1 or height < 1:
        raise ImageFormatError(f"{path}: bad dimensions {width}x{height}")
    if not 0 < maxval <= MAXVAL:
        raise ImageFormatError(f"{path}: maxval {maxval} unsupported, want 1..255")
    need = width * height * channels
    data = buf[data_start:]
    if len(data) != need:
        raise ImageFormatError(f"{path}: expected {need} pixel bytes, got {len(data)}")
    arr = np.frombuffer(data, dtype=np.uint8).reshape(height, width, channels)
    if maxval < MAXVAL:
        if int(arr.max()) > maxval:
            raise ImageFormatError(f"{path}: sample {int(arr.max())} above maxval {maxval}")
        # round half up to the nearest 0..255 level
        arr = (arr.astype(np.uint16) * MAXVAL + maxval // 2) // maxval
    return RasterImage(arr.astype(np.uint8))


def write_image(img: RasterImage, path: str) -> None:
    magic = b"P5" if img.channels == 1 else b"P6"
    header = b"%s\n%d %d\n%d\n" % (magic, img.width, img.height, MAXVAL)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(img.pixels.tobytes())


def psnr(a: RasterImage, b: RasterImage) -> float:
    """Peak signal-to-noise ratio in dB over all samples of all channels.

    Identical images return math.inf (serialize as the string "inf").
    """
    if a.pixels.shape != b.pixels.shape:
        raise DimensionMismatchError(
            f"shape mismatch: {a.pixels.shape} vs {b.pixels.shape}")
    diff = a.pixels.astype(np.float64) - b.pixels.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(MAXVAL * MAXVAL / mse)
