"""Shared helpers: deterministic synthetic raster images, byte-row
blocks, and codecs whose decode breaks idempotence."""
import math

import numpy as np
import pytest

from spheremark import RasterImage, SignCodec
from spheremark.confidence import VERDICT_TRUSTED
from spheremark.streams import stream

_IMG_DOMAIN = 0x53594E54


def make_image(seed: int, height: int = 256, width: int = 256,
               color: bool = True) -> RasterImage:
    """Smooth low-frequency content plus mild texture noise.

    Stays inside [8, 247] so a 42 dB embedding never clips.
    """
    rng = stream(seed, _IMG_DOMAIN, height, width)
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    base = (
        128.0
        + 40.0 * np.sin(2.0 * math.pi * yy / 97.0)
        + 35.0 * np.cos(2.0 * math.pi * xx / 61.0)
        + 20.0 * np.sin(2.0 * math.pi * (xx + yy) / 143.0)
    )
    if color:
        px = base[:, :, None] + rng.uniform(-15.0, 15.0, size=3)[None, None, :]
    else:
        px = base[:, :, None]
    px = px + rng.normal(0.0, 4.0, size=px.shape)
    return RasterImage(np.clip(np.rint(px), 8, 247).astype(np.uint8))


def raw_qr_rotation(seed: int, dim: int) -> np.ndarray:
    """sample_rotation's construction without the R-diagonal sign
    rescale: the raw Householder Q of the same Gaussian draw, first
    column negated where det is -1.  Not Haar distributed; the angle
    tests use it as their negative control."""
    q, _ = np.linalg.qr(stream(seed, dim).standard_normal((dim, dim)))
    if float(np.linalg.det(q)) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def octets(messages, width=None) -> np.ndarray:
    """Byte strings as a block of messages: one uint8 row each, zero-padded
    on the right to width (default: the longest)."""
    if width is None:
        width = max(map(len, messages), default=0)
    rows = np.zeros((len(messages), width), dtype=np.uint8)
    for row, m in zip(rows, messages):
        row[:len(m)] = np.frombuffer(m, dtype=np.uint8)
    return rows


class DriftingCodec(SignCodec):
    """Overrides the block decode only: each decode adds one to the last
    byte, so no decode is idempotent."""

    def decode(self, rows):
        decoded = super().decode(rows)
        decoded[:, -1] += 1
        return decoded


class FlippingCodec(SignCodec):
    """Overrides the block decode only: each decode flips the low bit of
    the first byte, so no decode is idempotent."""

    def decode(self, rows):
        decoded = super().decode(rows)
        decoded[:, 0] ^= 1
        return decoded


def assert_row_is_report(block, k, report) -> None:
    """Row k of assess's BlockReport scores as the one-vector report
    does, field for field, and the report holds plain Python values."""
    assert (block.cosine[k], block.p_value[k], block.ell[k], block.idempotent[k],
            block.trusted[k]) == (report.cosine, report.p_value, report.ell,
                                  report.idempotent, report.verdict == VERDICT_TRUSTED)
    assert block.decoded[k].tobytes().rstrip(b"\x00") == report.message.data
    assert [type(getattr(report, f)) for f in ("cosine", "p_value", "ell", "idempotent")] \
        == [float, float, float, bool]


@pytest.fixture
def synth_image():
    return make_image
