"""Spread-spectrum watermarking of raster images.

The payload vector is spread across the luma plane as a weighted sum
of d key-derived pseudorandom carrier patterns.  Each carrier starts
as +-1/sqrt(H*W) signs, is mean-subtracted (so any constant
brightness shift is invisible to it) and renormalized to unit
Frobenius norm.  The embed amplitude is set analytically from the
target PSNR; extraction correlates a high-passed luma plane (pixel
minus 3x3 box blur) against the carriers and renormalizes.

Attacks are classical pixel-domain transforms, including a
quantization-only JPEG proxy (blockwise DCT against the standard
luminance table; no entropy coding).  Geometric attacks are applied
without any re-synchronization on the extract side, so their
degradation shows up honestly in the recovered cosine.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionError, DomainError, ImageSizeError,
                     UnknownTransformError)
from .netpbm import MAXVAL, RasterImage
from .rotation import SecretKey
from .sphere import UnitVector
from .streams import stream

MIN_SIDE = 32
PSNR_RANGE = (30.0, 60.0)

# Largest carrier stack (d * H * W float64 samples) generate() will
# allocate; 256 carriers over 1024x1024 is exactly at the limit.
MAX_CARRIER_BYTES = 2**31

# Target size of one block of carrier rows during generation, small
# enough that its passes run in cache.
_BLOCK_BYTES = 2**20

# Fixed luma transform (BT.601 weights); adding a delta to every RGB
# channel adds exactly that delta to this luma.
LUMA_WEIGHTS = np.array([0.299, 0.587, 0.114])

# Domain tag separating carrier streams from rotation streams.
_CARRIER_DOMAIN = 0x43415252  # "CARR"


def luma(img: RasterImage) -> np.ndarray:
    """Float64 luma plane in [0, 255]."""
    px = img.pixels.astype(np.float64)
    if img.channels == 1:
        return px[:, :, 0]
    return px @ LUMA_WEIGHTS


def _box_blur3(plane: np.ndarray) -> np.ndarray:
    """3x3 box blur with symmetric edge reflection."""
    padded = np.pad(plane, 1, mode="symmetric")
    acc = np.zeros_like(plane)
    for dy in range(3):
        for dx in range(3):
            acc += padded[dy:dy + plane.shape[0], dx:dx + plane.shape[1]]
    return acc / 9.0


def _highpass(plane: np.ndarray) -> np.ndarray:
    return plane - _box_blur3(plane)


@dataclass(frozen=True, eq=False)
class CarrierSet:
    """d keyed carrier patterns over one luma plane."""

    key: SecretKey
    dim: int
    height: int
    width: int
    patterns: np.ndarray  # (dim, height, width) float64, read-only

    @classmethod
    def generate(cls, key: SecretKey, dim: int, height: int, width: int) -> "CarrierSet":
        """Draw, centre and normalize the d carriers for one plane.

        Each carrier sample takes one bit b from the key's Philox
        stream and starts as (2b - 1) / sqrt(H*W).  The bits are the
        top bit of each 32-bit half of the raw 64-bit Philox words,
        low half first, carrier-major.  That is exactly the sequence
        ``Generator.integers(0, 2)`` yields: for a range of two it
        draws one 32-bit value per sample (the halves of each word,
        low first) and keeps its top bit, with no rejection.

        Rows are built in blocks of about _BLOCK_BYTES, so the only
        full-size array is the output.  Each block holds an even
        number of rows, so it consumes whole words, and runs the same
        per-row mean and norm reductions as one full-plane pass;
        every output is bit-equal to that pass.
        """
        if dim < 2:
            raise DimensionError(f"carrier count {dim} < 2")
        if height < MIN_SIDE or width < MIN_SIDE:
            raise ImageSizeError(f"plane {width}x{height} below {MIN_SIDE}x{MIN_SIDE}")
        n_px = height * width
        if 8 * dim * n_px > MAX_CARRIER_BYTES:
            raise ImageSizeError(
                f"{dim} carriers over a {width}x{height} plane need "
                f"{8 * dim * n_px} bytes, above the {MAX_CARRIER_BYTES}-byte limit")
        bitgen = stream(key.seed, _CARRIER_DOMAIN, dim, height, width).bit_generator
        level = 1.0 / math.sqrt(n_px)
        rows = max(2, _BLOCK_BYTES // (8 * n_px) // 2 * 2)
        flat = np.empty((dim, n_px))
        for start in range(0, dim, rows):
            block = flat[start:start + rows]
            n_bits = block.size
            words = bitgen.random_raw((n_bits + 1) // 2).astype("<u8", copy=False)
            # ~half has top bit 1 - b, so as int32 it is negative iff
            # b == 0: copysign gives +level for b == 1, -level for 0
            np.invert(words, out=words)
            np.copysign(level, words.view("<i4")[:n_bits], out=block.reshape(-1))
            block -= block.mean(axis=1, keepdims=True)
            block /= np.linalg.norm(block, axis=1, keepdims=True)
        pats = flat.reshape(dim, height, width)
        pats.flags.writeable = False
        return cls(key=key, dim=dim, height=height, width=width, patterns=pats)


@functools.lru_cache(maxsize=3)
def _cached_carriers(seed: int, dim: int, height: int, width: int) -> CarrierSet:
    return CarrierSet.generate(SecretKey(seed=seed), dim, height, width)


def _require_size(img: RasterImage) -> None:
    if img.height < MIN_SIDE or img.width < MIN_SIDE:
        raise ImageSizeError(
            f"image {img.width}x{img.height} below minimum {MIN_SIDE}x{MIN_SIDE}")


def embed(img: RasterImage, v: UnitVector, key: SecretKey,
          target_psnr_db: float = 42.0) -> RasterImage:
    """Add the carrier superposition for v to the luma of img.

    The pre-quantization amplitude realizes the target PSNR exactly;
    integer rounding and clipping move the achieved value slightly.
    """
    _require_size(img)
    if not PSNR_RANGE[0] <= target_psnr_db <= PSNR_RANGE[1]:
        raise DomainError(f"target PSNR {target_psnr_db} outside {PSNR_RANGE}")
    carriers = _cached_carriers(key.seed, v.dim, img.height, img.width)
    flat = carriers.patterns.reshape(v.dim, -1)
    delta = v.components @ flat
    norm = float(np.linalg.norm(delta))
    if norm == 0.0:
        raise ArithmeticError("degenerate carrier superposition")
    n_px = img.height * img.width
    # MSE target m gives sum(delta^2) = m * n_px; the per-channel add
    # below keeps the all-samples MSE equal to the luma-plane MSE.
    amplitude = MAXVAL * 10.0 ** (-target_psnr_db / 20.0) * math.sqrt(n_px)
    delta = (amplitude / norm) * delta
    plane = delta.reshape(img.height, img.width)
    out = img.pixels.astype(np.float64) + plane[:, :, np.newaxis]
    return RasterImage(np.clip(np.rint(out), 0, MAXVAL).astype(np.uint8))


def extract(img: RasterImage, key: SecretKey, dim: int) -> UnitVector:
    """Correlate high-passed luma against the keyed carriers."""
    _require_size(img)
    carriers = _cached_carriers(key.seed, dim, img.height, img.width)
    hp = _highpass(luma(img))
    raw = carriers.patterns.reshape(dim, -1) @ hp.ravel()
    norm = float(np.linalg.norm(raw))
    if norm == 0.0:
        # constant image: no signal at all; return a fixed direction,
        # which downstream scoring rejects
        raw = np.zeros(dim)
        raw[0] = 1.0
        return UnitVector(raw)
    return UnitVector(raw / norm)


# ---------------------------------------------------------------- attacks

def _quantize(values: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(values), 0, MAXVAL).astype(np.uint8)


def _reflect_index(idx: np.ndarray, n: int) -> np.ndarray:
    """Fold integer indices into [0, n) by symmetric reflection."""
    period = 2 * n
    m = np.mod(idx, period)
    return np.where(m < n, m, period - 1 - m)


def _bilinear_sample(plane: np.ndarray, yy: np.ndarray, xx: np.ndarray) -> np.ndarray:
    """Sample a plane at float coordinates with reflect padding."""
    h, w = plane.shape
    y0 = np.floor(yy).astype(np.int64)
    x0 = np.floor(xx).astype(np.int64)
    wy = yy - y0
    wx = xx - x0
    y0r = _reflect_index(y0, h)
    y1r = _reflect_index(y0 + 1, h)
    x0r = _reflect_index(x0, w)
    x1r = _reflect_index(x0 + 1, w)
    top = plane[y0r, x0r] * (1.0 - wx) + plane[y0r, x1r] * wx
    bot = plane[y1r, x0r] * (1.0 - wx) + plane[y1r, x1r] * wx
    return top * (1.0 - wy) + bot * wy


def _per_channel(img: RasterImage, fn) -> np.ndarray:
    px = img.pixels.astype(np.float64)
    return np.stack([fn(px[:, :, c]) for c in range(img.channels)], axis=2)


def _attack_identity(img: RasterImage, rng) -> RasterImage:
    return RasterImage(img.pixels.copy())


def _attack_hflip(img: RasterImage, rng) -> RasterImage:
    return RasterImage(np.ascontiguousarray(img.pixels[:, ::-1, :]))


def _attack_brightness(img: RasterImage, rng, factor: float) -> RasterImage:
    if factor < 0.0:
        raise DomainError(f"brightness factor {factor} < 0")
    return RasterImage(_quantize(img.pixels.astype(np.float64) * factor))


def _attack_brightness_add(img: RasterImage, rng, offset: float) -> RasterImage:
    return RasterImage(_quantize(img.pixels.astype(np.float64) + offset))


def _attack_contrast(img: RasterImage, rng, factor: float) -> RasterImage:
    if factor < 0.0:
        raise DomainError(f"contrast factor {factor} < 0")
    mean = float(np.mean(luma(img)))
    px = img.pixels.astype(np.float64)
    return RasterImage(_quantize(mean + factor * (px - mean)))


def _attack_saturation(img: RasterImage, rng, factor: float) -> RasterImage:
    # luma interpolation: factor 0 is grayscale, 1 is identity
    if factor < 0.0:
        raise DomainError(f"saturation factor {factor} < 0")
    if img.channels == 1:
        return RasterImage(img.pixels.copy())
    gray = luma(img)[:, :, np.newaxis]
    px = img.pixels.astype(np.float64)
    return RasterImage(_quantize(gray + factor * (px - gray)))


def _attack_gaussian_noise(img: RasterImage, rng, sigma: float) -> RasterImage:
    if sigma < 0.0:
        raise DomainError(f"noise sigma {sigma} < 0")
    noise = sigma * rng.standard_normal(img.pixels.shape)
    return RasterImage(_quantize(img.pixels.astype(np.float64) + noise))


def _attack_crop(img: RasterImage, rng, ratio: float) -> RasterImage:
    """Central crop to a side ratio, rescaled back to original size."""
    if not 0.0 < ratio <= 1.0:
        raise DomainError(f"crop ratio {ratio} outside (0, 1]")
    h, w = img.height, img.width
    ch = max(1, round(ratio * h))
    cw = max(1, round(ratio * w))
    y0 = (h - ch) // 2
    x0 = (w - cw) // 2
    ys = y0 + (np.arange(h) + 0.5) * (ch / h) - 0.5
    xs = x0 + (np.arange(w) + 0.5) * (cw / w) - 0.5
    yy, xx = np.meshgrid(ys, xs, indexing="ij")
    out = _per_channel(img, lambda p: _bilinear_sample(p, yy, xx))
    return RasterImage(_quantize(out))


def _attack_rotate(img: RasterImage, rng, degrees: float) -> RasterImage:
    """Rotate about the center, bilinear, reflect padding, same size."""
    theta = math.radians(degrees)
    cy = (img.height - 1) / 2.0
    cx = (img.width - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(img.height, dtype=np.float64),
                         np.arange(img.width, dtype=np.float64), indexing="ij")
    dy = yy - cy
    dx = xx - cx
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    src_y = cy + cos_t * dy + sin_t * dx
    src_x = cx - sin_t * dy + cos_t * dx
    out = _per_channel(img, lambda p: _bilinear_sample(p, src_y, src_x))
    return RasterImage(_quantize(out))


# Standard luminance quantization table (8x8, row major).
_Q_LUMA = np.array([
    [16, 11, 10, 16, 24, 40, 51, 61],
    [12, 12, 14, 19, 26, 58, 60, 55],
    [14, 13, 16, 24, 40, 57, 69, 56],
    [14, 17, 22, 29, 51, 87, 80, 62],
    [18, 22, 37, 56, 68, 109, 103, 77],
    [24, 35, 55, 64, 81, 104, 113, 92],
    [49, 64, 78, 87, 103, 121, 120, 101],
    [72, 92, 95, 98, 112, 100, 103, 99],
], dtype=np.float64)


def _dct8_matrix() -> np.ndarray:
    k = np.arange(8)
    mat = np.cos((2 * k[np.newaxis, :] + 1) * k[:, np.newaxis] * math.pi / 16.0)
    mat *= np.sqrt(2.0 / 8.0)
    mat[0, :] /= math.sqrt(2.0)
    return mat


_DCT8 = _dct8_matrix()


def _scaled_quant_table(quality: int) -> np.ndarray:
    if not 1 <= quality <= 100:
        raise DomainError(f"jpeg quality {quality} outside [1, 100]")
    if quality < 50:
        scale = 5000.0 / quality
    else:
        scale = 200.0 - 2.0 * quality
    table = np.floor((_Q_LUMA * scale + 50.0) / 100.0)
    return np.clip(table, 1.0, 255.0)


def _jpeg_plane(plane: np.ndarray, quality: int) -> np.ndarray:
    """Blockwise DCT quantization round-trip on one plane."""
    qt = _scaled_quant_table(quality)
    h, w = plane.shape
    ph = (8 - h % 8) % 8
    pw = (8 - w % 8) % 8
    padded = np.pad(plane, ((0, ph), (0, pw)), mode="symmetric") - 128.0
    bh, bw = padded.shape[0] // 8, padded.shape[1] // 8
    blocks = padded.reshape(bh, 8, bw, 8).transpose(0, 2, 1, 3)
    coeff = np.einsum("ij,abjk,lk->abil", _DCT8, blocks, _DCT8)
    coeff = np.rint(coeff / qt) * qt
    back = np.einsum("ji,abjk,kl->abil", _DCT8, coeff, _DCT8)
    out = back.transpose(0, 2, 1, 3).reshape(bh * 8, bw * 8) + 128.0
    return out[:h, :w]


def _attack_jpeg_like(img: RasterImage, rng, quality: float) -> RasterImage:
    """Luma-only JPEG proxy; on color images the luma delta is added
    to every channel, leaving chroma untouched."""
    q = int(quality)
    if q != quality:
        raise DomainError(f"jpeg quality {quality} must be an integer")
    y = luma(img)
    y2 = _jpeg_plane(y, q)
    px = img.pixels.astype(np.float64)
    if img.channels == 1:
        return RasterImage(_quantize(y2[:, :, np.newaxis]))
    return RasterImage(_quantize(px + (y2 - y)[:, :, np.newaxis]))


_TRANSFORMS = {
    "identity": (_attack_identity, None),
    "hflip": (_attack_hflip, None),
    "brightness": (_attack_brightness, "factor"),
    "brightness_add": (_attack_brightness_add, "offset"),
    "contrast": (_attack_contrast, "factor"),
    "saturation": (_attack_saturation, "factor"),
    "gaussian_noise": (_attack_gaussian_noise, "sigma"),
    "crop": (_attack_crop, "ratio"),
    "rotate": (_attack_rotate, "degrees"),
    "jpeg_like": (_attack_jpeg_like, "quality"),
}


def transform_names() -> list[str]:
    return sorted(_TRANSFORMS)


def attack(img: RasterImage, name: str, value: float | None = None,
           rng: np.random.Generator | None = None) -> RasterImage:
    """Apply a named pixel-domain transform.

    ``value`` is the transform's single parameter (None for identity
    and hflip).  ``rng`` feeds gaussian_noise; when omitted, a fixed
    stream makes repeated calls deterministic.
    """
    if name not in _TRANSFORMS:
        raise UnknownTransformError(
            f"unknown transform {name!r}; valid: {', '.join(transform_names())}")
    fn, param = _TRANSFORMS[name]
    if param is None:
        if value is not None:
            raise DomainError(f"transform {name!r} takes no parameter")
        args = ()
    else:
        if value is None:
            raise DomainError(f"transform {name!r} requires parameter {param!r}")
        args = (float(value),)
    if rng is None:
        rng = stream(0)
    return fn(img, rng, *args)
