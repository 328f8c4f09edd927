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

Every pass over an image (high-pass, superpose, embed's add and norm,
and every attack) runs over one grid of bands of whole 8-row block
rows (_bands): it reads the read-only uint8 pixels and writes rounded,
clipped bytes straight into one uint8 output, so no pass makes a
float64 copy of the whole image.  What is held whole are float64
planes of H*W, one value per pixel: embed's delta and extract's
high-pass.  The bytes do not depend on the band split.

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
from functools import partial

import numpy as np

from .errors import (DimensionError, DomainError, ImageSizeError,
                     UnknownTransformError)
from .netpbm import MAXVAL, RasterImage
from .rotation import SecretKey
from .sphere import UnitVector, unit
from .streams import stream, stream_key

MIN_SIDE = 32
PSNR_RANGE = (30.0, 60.0)

# Largest 8 * d * H * W that generate() accepts: 256 carriers over
# 1024x1024 is exactly at the limit.  No float carrier sample is made
# anywhere: a held set is about d * H * W / 8 bytes (32 MiB at the
# limit), and generation draws one 32-bit Philox half per sample and
# packs its top bit.  So the limit bounds the held bits and the
# d * H * W bit work of generation, embed and extract.  The plane's own
# arrays have their own bound: embed holds the float64 delta plane and
# the uint8 output, extract the float64 high-pass plane (8 * H * W
# bytes each), and every other temporary is at most one band of
# max(_BAND_PIXELS, 8 * W) pixels or one 65536-entry word table.
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

# A band is as many whole 8-row block rows as fit in _BAND_PIXELS
# pixels, at least one, so at most max(_BAND_PIXELS, 8 * W) pixels.
# Every per-pixel temporary of _highpass, superpose, embed,
# attack and psnr is at most one band long; each band gives the bytes
# that a whole-plane pass would.
_BAND_PIXELS = 2**15


def _bands(height: int, width: int):
    """(r0, r1) for each band: multiples of 8, but the last r1 (the height)."""
    rows = 8 * max(1, _BAND_PIXELS // (8 * width))
    for r0 in range(0, height, rows):
        yield r0, min(r0 + rows, height)


def _floats(px: np.ndarray, r0: int, r1: int) -> np.ndarray:
    """A float64 copy of px's rows r0 .. r1 - 1."""
    return px[r0:r1].astype(np.float64)


def _render(shape: tuple, band) -> RasterImage:
    """The uint8 image of this shape whose rows r0 .. r1 - 1 are the
    float pixels band(r0, r1), rounded half to even in place and
    clipped straight into the output, one band of rows at a time."""
    out = np.empty(shape, dtype=np.uint8)
    for r0, r1 in _bands(*shape[:2]):
        values = band(r0, r1)
        np.rint(values, out=values)
        np.clip(values, 0, MAXVAL, out=out[r0:r1], casting="unsafe")
        del values  # not held while the next band is computed
    return RasterImage(out)


def _reflect_index(idx: np.ndarray, n: int) -> np.ndarray:
    """Fold integer indices into [0, n) by symmetric reflection."""
    period = 2 * n
    m = np.mod(idx, period)
    np.subtract(period - 1, m, out=m, where=m >= n)
    return m


def _luma(px: np.ndarray) -> np.ndarray:
    """Luma plane of float64 pixels (height, width, channels)."""
    if px.shape[2] == 1:
        return px[:, :, 0]
    return px @ LUMA_WEIGHTS


def _luma_at(px: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The float64 luma of uint8 pixels px at rows x cols, in C order,
    indices past an edge reflected as np.pad(mode="symmetric") does."""
    y = _luma(px[_reflect_index(rows, px.shape[0])].astype(np.float64))
    # take, unlike y[:, cols], gives C order, and the DCT's sums follow the layout
    return np.take(y, _reflect_index(cols, px.shape[1]), axis=1)


def _highpass(img: RasterImage) -> np.ndarray:
    """The luma plane less its 3x3 box blur, edges reflected
    symmetrically, a band of rows at a time: each band takes the luma
    of its rows and their reflected one-row halo straight from the
    uint8 pixels and sums its nine shifted views, so no whole luma
    plane is made."""
    h, w = img.height, img.width
    cols = np.arange(-1, w + 1)
    out = np.empty((h, w))
    for r0, r1 in _bands(h, w):
        padded = _luma_at(img.pixels, np.arange(r0 - 1, r1 + 1), cols)
        acc = np.zeros((r1 - r0, w))
        for dy in range(3):
            for dx in range(3):
                acc += padded[dy:dy + r1 - r0, dx:dx + w]
        acc /= 9.0
        np.subtract(padded[1:-1, 1:-1], acc, out=out[r0:r1])
    return out


def _norm(plane: np.ndarray) -> float:
    """The Euclidean norm of a float64 (H, W) plane without BLAS, so its
    bits do not depend on the BLAS threads: each row's squares are
    summed pairwise, a band of rows at a time through one reused
    buffer, and the row sums are added exactly."""
    h, w = plane.shape
    sums = np.empty(h)
    _, rows = next(_bands(h, w))  # no band is longer than the first
    buf = np.empty((rows, w))
    for r0, r1 in _bands(h, w):
        part = np.square(plane[r0:r1], out=buf[:r1 - r0])
        part.sum(axis=1, out=sums[r0:r1])
    return math.sqrt(math.fsum(sums))


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
        built.  The set's Philox key is derived once, and word group g
        (carriers 16g .. 16g + 15) is the counter block that starts at
        raw word 8*g*n of that key.  Each group is one job on a pool of
        one thread per usable core, opened at its own counter, so the
        bits are the same for any number of cores.  A job's fault is
        re-raised here once the pool has shut down.
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
        philox_key = stream_key(key.seed, _CARRIER_DOMAIN, dim, height, width)
        n_words = -(-dim // 16)
        words = np.zeros((n_words, n_px), dtype=np.uint16)
        k = np.zeros(dim, dtype=np.int64)  # each carrier's set bits
        with ThreadPoolExecutor(min(_usable_cpus(), n_words)) as pool:
            list(pool.map(lambda g: _fill_group(words, k, philox_key, dim, g),
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
        built as the outer sum of two 256-entry byte tables.  One
        table and one band of looked-up values serve every word.
        """
        weights = np.zeros(16 * len(self.words))
        weights[:self.dim] = v * (self.hi - self.lo)
        # [g, 0] is the table of word g's low byte, [g, 1] of its high byte
        tables = weights.reshape(-1, 2, 8) @ _BYTE_BITS.T
        tables[0, 1] += float(v @ self.lo)
        h, w = self.height, self.width
        out = np.zeros(h * w)
        table = np.empty((256, 256))
        _, rows = next(_bands(h, w))  # no band is longer than the first
        part = np.empty(rows * w)
        for word, (low, high) in zip(self.words, tables):
            np.add(high[:, np.newaxis], low, out=table)
            for r0, r1 in _bands(h, w):
                got = part[:(r1 - r0) * w]
                # every uint16 indexes the table; "clip" only skips buffering
                np.take(table.ravel(), word[r0 * w:r1 * w], out=got, mode="clip")
                out[r0 * w:r1 * w] += got
        return out

    def correlate(self, hp: np.ndarray) -> np.ndarray:
        """The d inner products of a plane (H*W samples) with the carriers.

        Carrier i gives lo[i] * sum(hp) + (hi[i] - lo[i]) * s_i, where
        s_i sums hp over the pixels whose bit i is set.  Per word, hp is
        summed by word value into one reused 65536-entry table, in
        pixel order from +0.0 as np.bincount sums, but with no intp copy
        of the word row; the table's row and column sums fold through
        the byte bits to the word's 16 carriers.
        """
        hp = hp.ravel()
        sums = np.empty((len(self.words), 2, 8))  # [g, 0]: low byte, [g, 1]: high
        by_value = np.empty(65536)
        table = by_value.reshape(256, 256)  # [high byte, low byte]
        for g, word in enumerate(self.words):
            by_value.fill(0.0)
            np.add.at(by_value, word, hp)
            sums[g, 0] = table.sum(axis=0) @ _BYTE_BITS
            sums[g, 1] = table.sum(axis=1) @ _BYTE_BITS
        return self.lo * hp.sum() + (self.hi - self.lo) * sums.reshape(-1)[:self.dim]


# _BYTE_BITS[b, j] is bit j of the byte b.
_BYTE_BITS = ((np.arange(256)[:, np.newaxis] >> np.arange(8)) & 1).astype(np.float64)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fill_group(words: np.ndarray, counts: np.ndarray, key: np.ndarray, dim: int,
                g: int) -> None:
    """OR the bits of carriers 16*g .. min(16*g + 16, dim) - 1 into
    words[g] and add each carrier's set bits to its entry of counts,
    drawing at most _DRAW_WORDS raw words at a time.

    Half h of the key's stream belongs to carrier h // n at pixel
    h % n.  The group starts on raw word 8*g*n, and Philox4x64 makes
    four words per counter step, so Philox at counter 2*g*n under the
    key is exactly where the serial draw would be.
    """
    n_px = words.shape[1]
    first, last = 16 * g * n_px, min(16 * g + 16, dim) * n_px
    philox = np.random.Philox(key=key, counter=2 * g * n_px)
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


# The last carrier set used, under its (seed, dim, height, width).  One
# set is held to bound memory, though a mixed-size corpus comes back to
# older planes; a miss empties the dict before generating, which frees
# the old set first and leaves the dict empty if generate refuses it.
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
    plane = delta.reshape(img.height, img.width)
    norm = _norm(plane)
    if norm == 0.0:
        raise ArithmeticError("degenerate carrier superposition")
    n_px = img.height * img.width
    # MSE target m gives sum(delta^2) = m * n_px; the per-channel add
    # below keeps the all-samples MSE equal to the luma-plane MSE.
    amplitude = MAXVAL * 10.0 ** (-target_psnr_db / 20.0) * math.sqrt(n_px)
    delta *= amplitude / norm
    return _render(img.pixels.shape,
                   lambda r0, r1: img.pixels[r0:r1] + plane[r0:r1, :, np.newaxis])


def extract(img: RasterImage, key: SecretKey, dim: int) -> UnitVector:
    """Correlate high-passed luma against the keyed carriers."""
    carriers = _cached_carriers(key.seed, dim, img.height, img.width)
    raw = carriers.correlate(_highpass(img))
    if not raw.any():
        # constant image: no signal at all; return a fixed direction,
        # which downstream scoring rejects
        raw = np.zeros(dim)
        raw[0] = 1.0
    return unit(raw)


# ---------------------------------------------------------------- attacks
# Every transform takes the image, the noise stream and its parameter
# and returns band(r0, r1): the float64 pixels (rows, width, channels)
# of output rows r0 .. r1 - 1, in an array that the caller may
# overwrite.  attack() calls it once per band, in row order, and
# _render rounds (half to even), clips and stores each band into one
# uint8 output, for attacks and embed alike.  No transform copies the
# whole image to float: pointwise ones convert a band of the uint8
# pixels at a time, crop and rotate gather a band's bilinear corners
# from the uint8 pixels one channel at a time, and jpeg_like takes the
# DCT round trip of each band's own block rows.  So every transform
# holds only its output and one band.

# Largest (C + 8) * H * W that attack() accepts: the bytes of an H x W
# x C image's uint8 output plus one float64 plane of H x W, a margin
# over the output and one band that a transform holds.
MAX_ATTACK_BYTES = 2**31


def _resample(px: np.ndarray, coords):
    """band(r0, r1) of bilinear samples of every channel of px, with
    reflect padding, at output rows r0 .. r1 - 1.

    ``coords(r0, r1)`` gives the source (y, x) coordinates of those
    rows, as two arrays that broadcast to (r1 - r0, width).  Each
    band's weights and the uint8 pixels at its four reflected corners
    are taken once and serve every channel, which is weighted on its
    own, so no float temporary has a channel axis.
    """
    h, w, channels = px.shape

    def band(r0, r1):
        yy, xx = coords(r0, r1)
        wy, y0, y1 = _axis_corners(yy, h)
        del yy
        wx, x0, x1 = _axis_corners(xx, w)
        del xx
        # the four corners' uint8 pixels, (rows, width, channels) each
        corners = [px[y0, x0], px[y0, x1], px[y1, x0], px[y1, x1]]
        del y0, y1, x0, x1
        out = np.empty(corners[0].shape)
        for c in range(channels):
            g00, g01, g10, g11 = (g[:, :, c] for g in corners)
            top = g00 * (1.0 - wx)
            top += g01 * wx
            bot = g10 * (1.0 - wx)
            bot += g11 * wx
            top *= 1.0 - wy
            bot *= wy
            np.add(top, bot, out=out[:, :, c])
        return out

    return band


def _axis_corners(t: np.ndarray, n: int) -> tuple:
    """For float coordinates t along an axis of n samples: the weight of
    each upper neighbour and the reflected indices of the lower and
    upper neighbours."""
    lower = np.floor(t)
    weight = t - lower
    lower = lower.astype(np.int64)
    low = _reflect_index(lower, n)
    lower += 1
    return weight, low, _reflect_index(lower, n)


def _scale_about(px: np.ndarray, centre, factor: float) -> np.ndarray:
    """centre + factor * (px - centre), written into px."""
    px -= centre
    px *= factor
    px += centre
    return px


def _contrast(img: RasterImage, rng, factor: float):
    # the mean luma from exact integer channel sums: no plane is made
    weights = (1.0,) if img.channels == 1 else LUMA_WEIGHTS
    sums = (w * int(img.pixels[:, :, c].sum(dtype=np.uint64)) for c, w in enumerate(weights))
    centre = math.fsum(sums) / (img.height * img.width)
    return lambda r0, r1: _scale_about(_floats(img.pixels, r0, r1), centre, factor)


def _saturation(img: RasterImage, rng, factor: float):
    # luma interpolation: factor 0 is grayscale, 1 is identity
    if img.channels == 1:
        return partial(_floats, img.pixels)

    def band(r0, r1):
        px = _floats(img.pixels, r0, r1)
        return _scale_about(px, _luma(px)[:, :, np.newaxis], factor)

    return band


def _gaussian_noise(img: RasterImage, rng, sigma: float):
    # bands of whole rows, drawn in row order, take one stream in
    # row-major order, as one full-plane draw would
    def band(r0, r1):
        px = _floats(img.pixels, r0, r1)
        px += sigma * rng.standard_normal(px.shape)
        return px

    return band


def _crop(img: RasterImage, rng, ratio: float):
    """Central crop to a side ratio, rescaled back to original size."""
    h, w = img.height, img.width
    ch = max(1, round(ratio * h))
    cw = max(1, round(ratio * w))
    y0 = (h - ch) // 2
    x0 = (w - cw) // 2
    ys = y0 + (np.arange(h) + 0.5) * (ch / h) - 0.5
    xs = x0 + (np.arange(w) + 0.5) * (cw / w) - 0.5
    return _resample(img.pixels, lambda r0, r1: (ys[r0:r1, np.newaxis], xs))


def _rotate(img: RasterImage, rng, degrees: float):
    """Rotate about the center, bilinear, reflect padding, same size."""
    h, w = img.height, img.width
    theta = math.radians(degrees)
    cy = (h - 1) / 2.0
    cx = (w - 1) / 2.0
    dx = np.arange(w, dtype=np.float64) - cx
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)

    def coords(r0, r1):
        dy = np.arange(r0, r1, dtype=np.float64)[:, np.newaxis] - cy
        return cy + cos_t * dy + sin_t * dx, cx - sin_t * dy + cos_t * dx

    return _resample(img.pixels, coords)


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


def _jpeg_plane(plane: np.ndarray, qt: np.ndarray) -> np.ndarray:
    """Blockwise DCT quantization round trip of a plane of whole 8x8
    blocks, into a new plane."""
    bh, bw = plane.shape[0] // 8, plane.shape[1] // 8
    blocks = (plane - 128.0).reshape(bh, 8, bw, 8).transpose(0, 2, 1, 3)
    coeff = np.einsum("ij,abjk,lk->abil", _DCT8, blocks, _DCT8)
    del blocks
    coeff /= qt
    np.rint(coeff, out=coeff)
    coeff *= qt
    back = np.einsum("ji,abjk,kl->abil", _DCT8, coeff, _DCT8)
    del coeff
    out = back.transpose(0, 2, 1, 3).reshape(bh * 8, bw * 8)
    out += 128.0
    return out


def _jpeg_like(img: RasterImage, rng, quality: float):
    """Luma-only JPEG proxy; on color images the luma delta is added
    to every channel, leaving chroma untouched.

    Each band takes the luma and round trip of the whole 8-row block
    rows that cover it, rows and columns past the edge reflected as
    np.pad(mode="symmetric") reflects them.  A band of _bands starts
    on a block row, so it computes only its own block rows and does
    not depend on any other band."""
    qt = _scaled_quant_table(int(quality))
    cols = np.arange(-(-img.width // 8) * 8)

    def band(r0, r1):
        y = _luma_at(img.pixels, np.arange(r0, -(-r1 // 8) * 8), cols)
        y2 = _jpeg_plane(y, qt)
        if img.channels == 1:
            return y2[:r1 - r0, :img.width, np.newaxis]
        y2 -= y
        del y  # not held while the band's pixels are converted
        return _floats(img.pixels, r0, r1) + y2[:r1 - r0, :img.width, np.newaxis]

    return band


_NON_NEGATIVE = (lambda v: v >= 0.0, ">= 0")

# name -> (transform(img, rng, value) -> band, its parameter's name or
# None, and the parameter's domain as (test, wording) or None for any
# finite value)
_TRANSFORMS = {
    "identity": (lambda img, rng, _: partial(_floats, img.pixels), None, None),
    "hflip": (lambda img, rng, _: partial(_floats, img.pixels[:, ::-1]), None, None),
    "brightness": (lambda img, rng, f: lambda r0, r1: _floats(img.pixels, r0, r1) * f,
                   "factor", _NON_NEGATIVE),
    "brightness_add": (lambda img, rng, v: lambda r0, r1: _floats(img.pixels, r0, r1) + v,
                       "offset", None),
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
    and hflip), checked by check_transform, and the image is checked
    against MAX_ATTACK_BYTES, before any pixel is converted.
    ``rng`` feeds gaussian_noise; when omitted, a fixed stream makes
    repeated calls deterministic.
    """
    value = check_transform(name, value)
    need = (img.channels + 8) * img.height * img.width
    if need > MAX_ATTACK_BYTES:
        raise ImageSizeError(
            f"image {img.width}x{img.height}x{img.channels} needs {need} bytes "
            f"for its output and one float64 plane, above the limit of "
            f"{MAX_ATTACK_BYTES}")
    if rng is None:
        rng = stream(0)
    return _render(img.pixels.shape, _TRANSFORMS[name][0](img, rng, value))
