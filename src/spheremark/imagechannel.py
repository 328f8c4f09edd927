"""Spread-spectrum watermarking of raster images.

The payload vector is spread across the luma plane as a weighted sum
of d key-derived pseudorandom carrier patterns.  Each carrier starts
as +-1/sqrt(H*W) signs, is mean-subtracted (so any constant
brightness shift is invisible to it) and renormalized to unit
Frobenius norm.  The embed amplitude is set analytically from the
target PSNR; extraction correlates a high-passed luma plane (pixel
minus 3x3 box blur) against the carriers and renormalizes.

A centred, normalized carrier takes only two values, which follow in
closed form from its count of set bits, so a carrier set is generated
and held as one sign bit per sample plus those two floats per
carrier: about d*H*W/8 bytes (8 MiB for 256 carriers at 512x512).
Generation makes no float sample, and embed and extract work on the
bits through per-word lookup tables; nothing builds the d*H*W float64
stack.

Attacks are classical pixel-domain transforms, including a
quantization-only JPEG proxy (blockwise DCT against the standard
luminance table; no entropy coding).  Geometric attacks are applied
without any re-synchronization on the extract side, so their
degradation shows up honestly in the recovered cosine.
"""
from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionError, DomainError, ImageSizeError,
                     UnknownTransformError)
from .netpbm import MAXVAL, RasterImage
from .rotation import SecretKey
from .sphere import UnitVector, unit
from .streams import stream

MIN_SIDE = 32
PSNR_RANGE = (30.0, 60.0)

# Largest 8 * d * H * W that generate() accepts: 256 carriers over
# 1024x1024 is exactly at the limit.  No float carrier sample is made
# anywhere: a held set is about d * H * W / 8 bytes, and generation
# draws one 32-bit Philox half per sample and packs its top bit.  So
# the limit bounds the d * H * W bit work of generation, embed and
# extract, and with it the full-size host, luma and delta arrays of
# the plane.  Raising it waits for a stated bound on those arrays.
MAX_CARRIER_BYTES = 2**31

# Most raw Philox words a generation worker draws at once (256 KiB).
# No buffer a worker allocates is larger, and each draw is freed before
# the next, so the freed memory that a worker thread's allocator keeps
# stays this small.
_DRAW_WORDS = 2**15

# Fixed luma transform (BT.601 weights); adding a delta to every RGB
# channel adds exactly that delta to this luma.
LUMA_WEIGHTS = np.array([0.299, 0.587, 0.114])

# Domain tag separating carrier streams from rotation streams.
_CARRIER_DOMAIN = 0x43415252  # "CARR"


def luma(img: RasterImage) -> np.ndarray:
    """Float64 luma plane in [0, 255]."""
    return _luma(img.pixels.astype(np.float64))


def _luma(px: np.ndarray) -> np.ndarray:
    """Luma plane of float64 pixels (height, width, channels)."""
    if px.shape[2] == 1:
        return px[:, :, 0]
    return px @ LUMA_WEIGHTS


def _highpass(plane: np.ndarray) -> np.ndarray:
    """The plane less its 3x3 box blur, edges reflected symmetrically."""
    padded = np.pad(plane, 1, mode="symmetric")
    acc = np.zeros_like(plane)
    for dy in range(3):
        for dx in range(3):
            acc += padded[dy:dy + plane.shape[0], dx:dx + plane.shape[1]]
    return plane - acc / 9.0


@dataclass(frozen=True, eq=False)
class CarrierSet:
    """d keyed carrier patterns over one luma plane, held as sign bits.

    Every sample of carrier i is one of two floats, ``hi[i]`` or
    ``lo[i]``, so the set keeps one bit per sample: bit i % 16 of
    ``words[i // 16, p]`` is set where carrier i takes ``hi[i]`` at
    pixel p (pixels in row-major order).  Bits past the last carrier
    are zero.  That is about d*H*W/8 bytes, against 8*d*H*W for a
    float64 stack of the carriers.
    """

    dim: int
    height: int
    width: int
    words: np.ndarray  # (ceil(dim / 16), height * width) uint16, read-only
    hi: np.ndarray     # (dim,) float64, read-only
    lo: np.ndarray     # (dim,) float64, read-only

    @classmethod
    def generate(cls, key: SecretKey, dim: int, height: int, width: int) -> "CarrierSet":
        """Draw the d carriers' sign bits for one plane and take hi and lo.

        Each carrier sample takes one bit b from the key's Philox
        stream and starts as (2b - 1) / sqrt(n), n = H*W.  Carrier i
        takes the 32-bit halves i*n .. (i+1)*n - 1 of the raw 64-bit
        Philox words, low half first, and keeps the top bit of each.
        That is exactly the sequence ``Generator.integers(0, 2)``
        yields: for a range of two it draws one 32-bit value per
        sample (the halves of each word, low first) and keeps its top
        bit, with no rejection.

        Centred and normalized, a row of k set bits takes
        hi = sqrt((n - k) / (k*n)) where b is 1 and
        lo = -sqrt(k / ((n - k)*n)) where it is 0, so only the bits and
        each carrier's popcount k are computed; no float sample is
        built.  Word group g (carriers 16g .. 16g + 15) starts at raw
        word 8*g*n.  Each group is one job on a pool of one thread per
        usable core, filled from its own copy of the stream skipped
        ahead to the group's first word, so the bits are the same for
        any number of cores.  A job's fault is re-raised here once the
        pool has shut down.
        """
        if dim < 2:
            raise DimensionError(f"carrier count {dim} < 2")
        if height < MIN_SIDE or width < MIN_SIDE:
            raise ImageSizeError(f"plane {width}x{height} below {MIN_SIDE}x{MIN_SIDE}")
        n_px = height * width
        if 8 * dim * n_px > MAX_CARRIER_BYTES:
            raise ImageSizeError(
                f"{dim} carriers over a {width}x{height} plane are {dim * n_px} "
                f"samples, above the limit of {MAX_CARRIER_BYTES // 8}")
        entropy = (key.seed, _CARRIER_DOMAIN, dim, height, width)
        n_words = -(-dim // 16)
        words = np.zeros((n_words, n_px), dtype=np.uint16)
        k = np.zeros(dim, dtype=np.int64)  # each carrier's set bits
        with ThreadPoolExecutor(min(_usable_cpus(), n_words)) as pool:
            list(pool.map(lambda g: _fill_group(words, k, entropy, dim, g),
                          range(n_words)))
        hi = np.sqrt((n_px - k) / (k * n_px))
        lo = -np.sqrt(k / ((n_px - k) * n_px))
        for held in (words, hi, lo):
            held.flags.writeable = False
        return cls(dim=dim, height=height, width=width, words=words, hi=hi, lo=lo)

    def superpose(self, v: np.ndarray) -> np.ndarray:
        """sum_i v[i] * carrier i, flattened to H*W samples.

        That is v.lo plus, at each pixel, the sum of v[i] * (hi[i] -
        lo[i]) over the carriers whose bit is set there.  The sum over
        one word's 16 carriers is a lookup in a 65536-entry table,
        built as the outer sum of two 256-entry byte tables.
        """
        weights = np.zeros(16 * len(self.words))
        weights[:self.dim] = v * (self.hi - self.lo)
        # [g, 0] is the table of word g's low byte, [g, 1] of its high byte
        tables = weights.reshape(-1, 2, 8) @ _BYTE_BITS.T
        tables[0, 1] += float(v @ self.lo)
        out = np.zeros(self.words.shape[1])
        part = np.empty_like(out)
        for word, (low, high) in zip(self.words, tables):
            # every uint16 indexes the table; "clip" only skips buffering
            np.take((high[:, np.newaxis] + low).ravel(), word, out=part, mode="clip")
            out += part
        return out

    def correlate(self, hp: np.ndarray) -> np.ndarray:
        """The d inner products of a plane (H*W samples) with the carriers.

        Carrier i gives lo[i] * sum(hp) + (hi[i] - lo[i]) * s_i, where
        s_i sums hp over the pixels whose bit i is set.  Per word, one
        bincount sums hp by word value; its row and column sums fold
        through the byte bits to the word's 16 carriers.
        """
        hp = hp.ravel()
        sums = np.empty((len(self.words), 2, 8))  # [g, 0]: low byte, [g, 1]: high
        for g, word in enumerate(self.words):
            by_value = np.bincount(word, weights=hp, minlength=65536).reshape(256, 256)
            sums[g, 0] = by_value.sum(axis=0) @ _BYTE_BITS
            sums[g, 1] = by_value.sum(axis=1) @ _BYTE_BITS
        return self.lo * hp.sum() + (self.hi - self.lo) * sums.reshape(-1)[:self.dim]


# _BYTE_BITS[b, j] is bit j of the byte b.
_BYTE_BITS = ((np.arange(256)[:, np.newaxis] >> np.arange(8)) & 1).astype(np.float64)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fill_group(words: np.ndarray, counts: np.ndarray, entropy: tuple, dim: int,
                g: int) -> None:
    """OR the bits of carriers 16*g .. min(16*g + 16, dim) - 1 into
    words[g] and add each carrier's set bits to its entry of counts,
    drawing at most _DRAW_WORDS raw words at a time.

    Half h of the stream belongs to carrier h // n at pixel h % n.  The
    group starts on raw word 8*g*n, and Philox4x64 makes four words per
    counter step, so advancing 2*g*n steps puts this copy of the stream
    exactly where the serial draw would be.
    """
    n_px = words.shape[1]
    first, last = 16 * g * n_px, min(16 * g + 16, dim) * n_px
    philox = stream(*entropy).bit_generator
    philox.advance(2 * g * n_px)
    for at in range(first, last, 2 * _DRAW_WORDS):
        count = min(2 * _DRAW_WORDS, last - at)
        halves = philox.random_raw(-(-count // 2)).astype("<u8", copy=False).view("<u4")
        halves >>= 31
        bits = halves[:count].astype(np.uint16)
        del halves
        for row in range(at // n_px, (at + count - 1) // n_px + 1):
            lo, hi = max(at, row * n_px), min(at + count, (row + 1) * n_px)
            part = bits[lo - at:hi - at]
            counts[row] += np.count_nonzero(part)
            part <<= row % 16
            words[row // 16, lo - row * n_px:hi - row * n_px] |= part
        del bits


# The last carrier set used, under its (seed, dim, height, width).  No
# caller comes back to an older plane, so one set is held; a miss
# empties the dict before generating, which frees the old set first
# and leaves the dict empty if generate refuses the plane.
_held_carriers: dict[tuple, CarrierSet] = {}
_carrier_lock = threading.Lock()


def _cached_carriers(seed: int, dim: int, height: int, width: int) -> CarrierSet:
    ident = (seed, dim, height, width)
    with _carrier_lock:
        if ident not in _held_carriers:
            _held_carriers.clear()
            _held_carriers[ident] = CarrierSet.generate(SecretKey(seed=seed), dim, height, width)
        return _held_carriers[ident]


def embed(img: RasterImage, v: UnitVector, key: SecretKey,
          target_psnr_db: float = 42.0) -> RasterImage:
    """Add the carrier superposition for v to the luma of img.

    The pre-quantization amplitude realizes the target PSNR exactly;
    integer rounding and clipping move the achieved value slightly.
    """
    if not PSNR_RANGE[0] <= target_psnr_db <= PSNR_RANGE[1]:
        raise DomainError(f"target PSNR {target_psnr_db} outside {PSNR_RANGE}")
    carriers = _cached_carriers(key.seed, v.dim, img.height, img.width)
    delta = carriers.superpose(v.components)
    norm = float(np.linalg.norm(delta))
    if norm == 0.0:
        raise ArithmeticError("degenerate carrier superposition")
    n_px = img.height * img.width
    # MSE target m gives sum(delta^2) = m * n_px; the per-channel add
    # below keeps the all-samples MSE equal to the luma-plane MSE.
    amplitude = MAXVAL * 10.0 ** (-target_psnr_db / 20.0) * math.sqrt(n_px)
    delta = (amplitude / norm) * delta
    plane = delta.reshape(img.height, img.width)
    return _quantize(img.pixels + plane[:, :, np.newaxis])


def extract(img: RasterImage, key: SecretKey, dim: int) -> UnitVector:
    """Correlate high-passed luma against the keyed carriers."""
    carriers = _cached_carriers(key.seed, dim, img.height, img.width)
    hp = _highpass(luma(img))
    raw = carriers.correlate(hp)
    if not raw.any():
        # constant image: no signal at all; return a fixed direction,
        # which downstream scoring rejects
        raw = np.zeros(dim)
        raw[0] = 1.0
    return unit(raw)


# ---------------------------------------------------------------- attacks
# Every transform maps float64 pixels (height, width, channels) to
# float64 pixels.  attack() converts the image once and hands that copy
# to the transform, which may overwrite it; _quantize rounds (half to
# even), clips and wraps once, for attacks and embed alike.  No
# transform holds more than about two float64 copies of the image: the
# pointwise ones work in place (gaussian_noise draws its noise a band of
# rows at a time), jpeg_like quantizes its padded luma plane in place,
# and crop and rotate fill one new array a band of rows at a time.

# Largest 16 * H * W * C (two float64 copies of the image) that
# attack() accepts.
MAX_ATTACK_BYTES = 2**31

# Most output pixels that one band of _resample computes at once.
_BAND_PIXELS = 2**15


def _quantize(values: np.ndarray) -> RasterImage:
    """Round, clip and wrap float pixels; rounds and clips ``values`` in
    place, so callers pass an array they own (a transform's output is
    attack()'s own float copy, a view of it or a new array)."""
    np.rint(values, out=values)
    np.clip(values, 0, MAXVAL, out=values)
    return RasterImage(values.astype(np.uint8))


def _reflect_index(idx: np.ndarray, n: int) -> np.ndarray:
    """Fold integer indices into [0, n) by symmetric reflection."""
    period = 2 * n
    m = np.mod(idx, period)
    return np.where(m < n, m, period - 1 - m)


def _resample(px: np.ndarray, coords) -> np.ndarray:
    """Bilinear samples of every channel, with reflect padding, into a
    new array of px's shape.

    ``coords(r0, r1)`` gives the source (y, x) coordinates of output
    rows r0 .. r1 - 1, as two arrays that broadcast to (r1 - r0, width).
    Rows go in bands of at most _BAND_PIXELS pixels; each band's
    weights and reflected corner indices are computed once and serve
    every channel.
    """
    h, w = px.shape[:2]
    out = np.empty_like(px)
    rows = max(1, _BAND_PIXELS // w)
    for r0 in range(0, h, rows):
        r1 = min(r0 + rows, h)
        yy, xx = coords(r0, r1)
        wy, y0, y1 = _axis_corners(yy, h)
        wx, x0, x1 = _axis_corners(xx, w)
        top = px[y0, x0] * (1.0 - wx) + px[y0, x1] * wx
        bot = px[y1, x0] * (1.0 - wx) + px[y1, x1] * wx
        top *= 1.0 - wy
        bot *= wy
        np.add(top, bot, out=out[r0:r1])
    return out


def _axis_corners(t: np.ndarray, n: int) -> tuple:
    """For float coordinates t along an axis of n samples: the weight of
    each upper neighbour, with a trailing axis for the channels, and
    the reflected indices of the lower and upper neighbours."""
    lower = np.floor(t).astype(np.int64)
    return ((t - lower)[..., np.newaxis], _reflect_index(lower, n),
            _reflect_index(lower + 1, n))


def _scale_about(px: np.ndarray, centre, factor: float) -> np.ndarray:
    """centre + factor * (px - centre), written into px."""
    px -= centre
    px *= factor
    px += centre
    return px


def _contrast(px: np.ndarray, rng, factor: float) -> np.ndarray:
    return _scale_about(px, float(np.mean(_luma(px))), factor)


def _saturation(px: np.ndarray, rng, factor: float) -> np.ndarray:
    # luma interpolation: factor 0 is grayscale, 1 is identity
    if px.shape[2] == 1:
        return px
    return _scale_about(px, _luma(px)[:, :, np.newaxis], factor)


def _gaussian_noise(px: np.ndarray, rng, sigma: float) -> np.ndarray:
    # bands of whole rows draw one stream in row-major order, as one
    # full-plane draw would
    rows = max(1, _BAND_PIXELS // px.shape[1])
    for r0 in range(0, px.shape[0], rows):
        band = px[r0:r0 + rows]
        band += sigma * rng.standard_normal(band.shape)
    return px


def _crop(px: np.ndarray, rng, ratio: float) -> np.ndarray:
    """Central crop to a side ratio, rescaled back to original size."""
    h, w = px.shape[:2]
    ch = max(1, round(ratio * h))
    cw = max(1, round(ratio * w))
    y0 = (h - ch) // 2
    x0 = (w - cw) // 2
    ys = y0 + (np.arange(h) + 0.5) * (ch / h) - 0.5
    xs = x0 + (np.arange(w) + 0.5) * (cw / w) - 0.5
    return _resample(px, lambda r0, r1: (ys[r0:r1, np.newaxis], xs))


def _rotate(px: np.ndarray, rng, degrees: float) -> np.ndarray:
    """Rotate about the center, bilinear, reflect padding, same size."""
    h, w = px.shape[:2]
    theta = math.radians(degrees)
    cy = (h - 1) / 2.0
    cx = (w - 1) / 2.0
    dx = np.arange(w, dtype=np.float64) - cx
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)

    def coords(r0, r1):
        dy = np.arange(r0, r1, dtype=np.float64)[:, np.newaxis] - cy
        return cy + cos_t * dy + sin_t * dx, cx - sin_t * dy + cos_t * dx

    return _resample(px, coords)


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
    padded = np.pad(plane, ((0, ph), (0, pw)), mode="symmetric")
    padded -= 128.0
    bh, bw = padded.shape[0] // 8, padded.shape[1] // 8
    blocks = padded.reshape(bh, 8, bw, 8).transpose(0, 2, 1, 3)
    coeff = np.einsum("ij,abjk,lk->abil", _DCT8, blocks, _DCT8)
    del padded, blocks
    coeff /= qt
    np.rint(coeff, out=coeff)
    coeff *= qt
    back = np.einsum("ji,abjk,kl->abil", _DCT8, coeff, _DCT8)
    del coeff
    out = back.transpose(0, 2, 1, 3).reshape(bh * 8, bw * 8)
    out += 128.0
    return out[:h, :w]


def _jpeg_like(px: np.ndarray, rng, quality: float) -> np.ndarray:
    """Luma-only JPEG proxy; on color images the luma delta is added
    to every channel, leaving chroma untouched."""
    y = _luma(px)
    y2 = _jpeg_plane(y, int(quality))
    if px.shape[2] == 1:
        return y2[:, :, np.newaxis]
    y2 -= y
    px += y2[:, :, np.newaxis]
    return px


_NON_NEGATIVE = (lambda v: v >= 0.0, ">= 0")

# name -> (transform(px, rng, value), its parameter's name or None, and
# the parameter's domain as (test, wording) or None for any finite value)
_TRANSFORMS = {
    "identity": (lambda px, rng, _: px, None, None),
    "hflip": (lambda px, rng, _: px[:, ::-1], None, None),
    "brightness": (lambda px, rng, f: np.multiply(px, f, out=px), "factor", _NON_NEGATIVE),
    "brightness_add": (lambda px, rng, v: np.add(px, v, out=px), "offset", None),
    "contrast": (_contrast, "factor", _NON_NEGATIVE),
    "saturation": (_saturation, "factor", _NON_NEGATIVE),
    "gaussian_noise": (_gaussian_noise, "sigma", _NON_NEGATIVE),
    "crop": (_crop, "ratio", (lambda v: 0.0 < v <= 1.0, "in (0, 1]")),
    "rotate": (_rotate, "degrees", None),
    "jpeg_like": (_jpeg_like, "quality",
                  (lambda v: v.is_integer() and 1 <= v <= 100, "an integer in [1, 100]")),
}


def transform_names() -> list[str]:
    return sorted(_TRANSFORMS)


def check_transform(name: str, value: float | str | None = None) -> float | None:
    """The one check of a transform spec: UnknownTransformError or DomainError
    if attack() must refuse it, else the value as a float (None if it takes none)."""
    if name not in _TRANSFORMS:
        raise UnknownTransformError(
            f"unknown transform {name!r}; valid: {', '.join(transform_names())}")
    _, param, domain = _TRANSFORMS[name]
    if (param is None) != (value is None):
        raise DomainError(f"transform {name!r} takes no parameter" if param is None
                          else f"transform {name!r} requires parameter {param!r}")
    if value is None:
        return None
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise DomainError(f"transform parameter {value!r} is not a number") from None
    if not math.isfinite(number):
        raise DomainError(f"transform {name!r} needs a finite {param}, got {value}")
    if domain is not None and not domain[0](number):
        raise DomainError(f"transform {name!r} needs {param} {domain[1]}, got {value}")
    return number


def attack(img: RasterImage, name: str, value: float | None = None,
           rng: np.random.Generator | None = None) -> RasterImage:
    """Apply a named pixel-domain transform.

    ``value`` is the transform's single parameter (None for identity
    and hflip), checked by check_transform before the image is copied.
    ``rng`` feeds gaussian_noise; when omitted, a fixed stream makes
    repeated calls deterministic.
    """
    value = check_transform(name, value)
    need = 16 * img.pixels.size
    if need > MAX_ATTACK_BYTES:
        raise ImageSizeError(
            f"image {img.width}x{img.height}x{img.channels} needs {need} bytes "
            f"for two float64 copies, above the limit of {MAX_ATTACK_BYTES}")
    if rng is None:
        rng = stream(0)
    return _quantize(_TRANSFORMS[name][0](img.pixels.astype(np.float64), rng, value))
