import math

import numpy as np
import pytest

from spheremark import (DimensionMismatchError, ImageFormatError, RasterImage,
                        psnr, read_image, write_image)
from spheremark.streams import stream

# closed forms: a uniform +1 error is 48.1308 dB, +2 is 42.1102 dB
PSNR_PLUS_1 = 48.13080361867912
PSNR_PLUS_2 = 42.11020369539948


def _gray(h=16, w=20, seed=0):
    return RasterImage(stream(seed).integers(0, 256, size=(h, w, 1), dtype=np.uint8))


def _rgb(h=16, w=20, seed=1):
    return RasterImage(stream(seed).integers(0, 256, size=(h, w, 3), dtype=np.uint8))


class TestRasterImage:
    def test_promotes_2d_to_single_channel(self):
        img = RasterImage(np.zeros((4, 5), dtype=np.uint8))
        assert img.pixels.shape == (4, 5, 1)
        assert img.channels == 1

    def test_properties(self):
        img = _rgb(6, 9)
        assert (img.height, img.width, img.channels) == (6, 9, 3)

    def test_rejects_bad_dtype(self):
        with pytest.raises(ImageFormatError):
            RasterImage(np.zeros((4, 4, 1), dtype=np.float64))

    def test_rejects_bad_channel_count(self):
        with pytest.raises(ImageFormatError):
            RasterImage(np.zeros((4, 4, 2), dtype=np.uint8))

    def test_pixels_read_only(self):
        img = _gray()
        with pytest.raises(ValueError):
            img.pixels[0, 0, 0] = 1


class TestReadWrite:
    def test_p5_roundtrip(self, tmp_path):
        img = _gray()
        path = tmp_path / "g.pgm"
        write_image(img, path)
        back = read_image(path)
        assert np.array_equal(img.pixels, back.pixels)

    def test_p6_roundtrip(self, tmp_path):
        img = _rgb()
        path = tmp_path / "c.ppm"
        write_image(img, path)
        back = read_image(path)
        assert np.array_equal(img.pixels, back.pixels)

    def test_written_header_is_canonical(self, tmp_path):
        path = tmp_path / "g.pgm"
        write_image(_gray(3, 2), path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n2 3\n255\n")
        assert len(raw) == len(b"P5\n2 3\n255\n") + 6

    def test_reader_tolerates_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "c.pgm"
        body = bytes(range(6))
        path.write_bytes(b"P5 # magic\n# a comment line\n  3\t2 # dims\n255\n" + body)
        img = read_image(path)
        assert img.height == 2 and img.width == 3
        assert np.array_equal(img.pixels.ravel(), np.frombuffer(body, dtype=np.uint8))

    def test_reader_accepts_low_maxval(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n2 1\n15\n\x00\x0f")
        img = read_image(path)
        assert img.pixels.ravel().tolist() == [0, 255]

    def test_reader_rescales_low_maxval_rounding_half_up(self, tmp_path):
        path = tmp_path / "c.ppm"
        body = bytes([0, 1, 2, 3, 4, 5])
        path.write_bytes(b"P6\n2 1\n6\n" + body)
        img = read_image(path)
        # (p * 255 + 3) // 6: 42.5 rounds up to 43, 127.5 to 128
        assert img.pixels.ravel().tolist() == [0, 43, 85, 128, 170, 213]

    def test_reader_rejects_sample_above_maxval(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n2 1\n15\n\x00\x10")
        with pytest.raises(ImageFormatError):
            read_image(path)

    def test_reader_rejects_wide_maxval(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n2 1\n65535\n\x00\x00\x00\x00")
        with pytest.raises(ImageFormatError):
            read_image(path)

    def test_reader_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P4\n2 1\n255\n\x00\x00")
        with pytest.raises(ImageFormatError):
            read_image(path)

    def test_reader_rejects_truncated_body(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(ImageFormatError):
            read_image(path)

    def test_reader_rejects_trailing_garbage(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n2 1\n255\n\x00\x01extra")
        with pytest.raises(ImageFormatError):
            read_image(path)


class TestPsnr:
    def test_identical_is_infinite(self):
        img = _rgb()
        assert psnr(img, img) == math.inf

    def test_uniform_plus_one(self):
        a = RasterImage(np.full((8, 8, 1), 100, dtype=np.uint8))
        b = RasterImage(np.full((8, 8, 1), 101, dtype=np.uint8))
        assert psnr(a, b) == pytest.approx(PSNR_PLUS_1, abs=1e-3)

    def test_uniform_plus_two(self):
        a = RasterImage(np.full((8, 8, 3), 100, dtype=np.uint8))
        b = RasterImage(np.full((8, 8, 3), 102, dtype=np.uint8))
        assert psnr(a, b) == pytest.approx(PSNR_PLUS_2, abs=1e-3)

    def test_symmetry(self):
        a, b = _rgb(seed=2), _rgb(seed=3)
        assert psnr(a, b) == psnr(b, a)

    def test_averages_over_all_samples(self):
        # one corrupted sample out of 64: MSE = delta^2/64
        base = np.full((8, 8, 1), 50, dtype=np.uint8)
        bent = base.copy()
        bent[0, 0, 0] = 58
        want = 10.0 * math.log10(255.0**2 / (64.0 / 64))
        assert psnr(RasterImage(base), RasterImage(bent)) == pytest.approx(want, abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            psnr(_gray(4, 4), _gray(4, 5))
        with pytest.raises(DimensionMismatchError):
            psnr(_gray(4, 4), _rgb(4, 4))
