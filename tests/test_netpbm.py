import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spheremark import (DimensionMismatchError, ImageFormatError, RasterImage,
                        psnr, read_image, write_image)
from spheremark.netpbm import _read_header_tokens
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

    @pytest.mark.parametrize("shape", [(0, 4, 1), (4, 0, 3), (0, 0)])
    def test_rejects_empty_side(self, shape):
        with pytest.raises(ImageFormatError, match="at least 1x1"):
            RasterImage(np.zeros(shape, dtype=np.uint8))

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

    def test_read_holds_one_copy_of_the_pixels(self, tmp_path):
        # the pixels are a view of the file's bytes, not a copy of them
        path = tmp_path / "big.ppm"
        write_image(RasterImage(np.zeros((1024, 1024, 3), dtype=np.uint8)), path)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            img = read_image(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert img.pixels.shape == (1024, 1024, 3)
        assert peak < 1.5 * size

    @pytest.mark.parametrize("img, name", [(_gray(37, 53), "g.pgm"), (_rgb(37, 53), "c.ppm")])
    def test_file_bytes_round_trip(self, tmp_path, img, name):
        path, again = tmp_path / name, tmp_path / ("again-" + name)
        write_image(img, path)
        raw = path.read_bytes()
        magic = b"P5" if img.channels == 1 else b"P6"
        assert raw == magic + b"\n53 37\n255\n" + img.pixels.tobytes()
        write_image(read_image(path), again)
        assert again.read_bytes() == raw

    def test_write_makes_no_copy_of_the_pixels(self, tmp_path):
        img = RasterImage(np.zeros((1024, 1024, 3), dtype=np.uint8))
        tracemalloc.start()
        try:
            write_image(img, tmp_path / "big.ppm")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < img.pixels.size // 4

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

    def test_reader_rescales_every_low_maxval_level(self, tmp_path):
        path = tmp_path / "c.pgm"
        for maxval in range(1, 255):
            path.write_bytes(b"P5\n%d 1\n%d\n" % (maxval + 1, maxval) + bytes(range(maxval + 1)))
            want = [(p * 255 + maxval // 2) // maxval for p in range(maxval + 1)]
            assert read_image(path).pixels.ravel().tolist() == want, maxval

    def test_low_maxval_rescale_holds_one_more_copy(self, tmp_path):
        # the rescale is a lookup into a per-level table: beyond the
        # file's bytes only the uint8 result is held, not uint16 temporaries
        path = tmp_path / "big.ppm"
        samples = stream(2).integers(0, 16, size=(1024, 1024, 3), dtype=np.uint8)
        path.write_bytes(b"P6\n1024 1024\n15\n" + samples.tobytes())
        size = path.stat().st_size
        tracemalloc.start()
        try:
            img = read_image(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(img.pixels, (samples * 17).astype(np.uint8))
        assert peak - size < 1.5 * samples.nbytes, peak - size

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

    @pytest.mark.parametrize("header", [
        b"P5\n1_0 4\n2_55\n",  # int() reads these as 10 and 255
        b"P5\n+10 4\n255\n",
        b"P5\n10 4\n-255\n",
        b"P5\n10 4\n\xd9\xa2\n",  # a non-ASCII digit
    ])
    def test_reader_rejects_non_decimal_header_numbers(self, tmp_path, header):
        path = tmp_path / "c.pgm"
        path.write_bytes(header + bytes(40))
        with pytest.raises(ImageFormatError, match="non-numeric"):
            read_image(path)

    def test_reader_refuses_overlong_header_number(self, tmp_path):
        # int() refuses more than 4300 digits with a ValueError
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n" + b"1" * 5000 + b" 1\n255\n\x00")
        with pytest.raises(ImageFormatError):
            read_image(path)

    def test_reader_accepts_leading_zeros(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n002 01\n0255\n\x07\x09")
        assert read_image(path).pixels.ravel().tolist() == [7, 9]

    @pytest.mark.parametrize("padding", [b"#" + b"c" * 5 * 2**20 + b"\n", b" \n" * 5 * 2**19])
    def test_reader_reads_5mb_header(self, tmp_path, padding):
        # the header is scanned by compiled patterns, not byte by byte
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n" + padding + b"2 1" + padding + b"255\n\x07\x09")
        assert read_image(path).pixels.ravel().tolist() == [7, 9]


_JUNK_TOKEN = st.one_of(
    st.sampled_from([b"1_0", b"+2", b"-1", b"0x10", b"2.0", b"#c\n", b""]),
    st.binary(max_size=4),
)


@st.composite
def _netpbm_like(draw):
    """Mostly well-formed headers with body sizes near the right one,
    with some tokens, separators and sizes corrupted."""
    magic = draw(st.sampled_from([b"P5", b"P5", b"P6", b"P6", b"P4", b""]))
    width, height = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    fields = [str(n).encode() for n in (width, height, draw(st.integers(0, 300)))]
    fields = [draw(_JUNK_TOKEN) if draw(st.integers(0, 4)) == 0 else f
              for f in fields]
    seps = draw(st.lists(st.sampled_from([b" ", b"\n", b"\t", b"#x\n", b""]),
                         min_size=4, max_size=4))
    header = magic + b"".join(s + f for s, f in zip(seps, fields)) + seps[3]
    size = width * height * (3 if magic == b"P6" else 1)
    size = max(0, size + draw(st.sampled_from([0, 0, 0, -1, 1])))
    return header + draw(st.binary(min_size=size, max_size=size))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=64), _netpbm_like()))
@example(b"P5\n1_0 4\n2_55\n" + bytes(40))
@example(b"P6\n1 1\n15\n\x10\x00\x00")
def test_reader_reads_or_refuses_any_bytes(data):
    """Any byte string is read or refused with ImageFormatError."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.pgm")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            img = read_image(path)
        except ImageFormatError:
            return
    assert img.pixels.dtype == np.uint8
    assert img.pixels.size == img.height * img.width * img.channels


def _loop_header_tokens(buf: bytes, start: int, count: int) -> tuple[list[bytes], int]:
    """The header scanner as a per-byte loop: the oracle for the
    compiled patterns of _read_header_tokens."""
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
    if i >= n or not buf[i:i + 1].isspace():
        raise ImageFormatError("netpbm header not terminated by whitespace")
    return tokens, i + 1


_WHITESPACE = [bytes([c]) for c in b" \t\n\r\x0b\x0c"]  # all six that bytes.isspace takes
_HEADER_TOKEN = st.lists(
    st.one_of(st.sampled_from([bytes([c]) for c in b"0123456789+_\x1c\x1f"]),
              st.integers(0x80, 0xFF).map(lambda c: bytes([c]))),
    min_size=1, max_size=4).map(b"".join)
_COMMENT = st.builds(lambda body, closed: b"#" + body + (b"\n" if closed else b""),
                     st.binary(max_size=5).map(lambda b: b.replace(b"\n", b"")),
                     st.booleans())


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(_HEADER_TOKEN, st.sampled_from(_WHITESPACE), _COMMENT), max_size=12),
       st.integers(1, 4))
def test_header_scan_matches_per_byte_loop(parts, count):
    """The compiled patterns return the loop's tokens and data offset,
    or refuse with the loop's message."""
    buf = b"P5" + b"".join(parts)

    def scan(scanner):
        try:
            return scanner(buf, 2, count)
        except ImageFormatError as exc:
            return str(exc)

    assert scan(_read_header_tokens) == scan(_loop_header_tokens)


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

    @pytest.mark.parametrize("pair", ["random_rgb", "random_gray", "identical",
                                      "black_white", "one_sample"])
    def test_equals_float_formula_bit_for_bit(self, pair):
        # the float64 mean of squared differences, as psnr once computed it
        def float_psnr(a, b):
            diff = a.pixels.astype(np.float64) - b.pixels.astype(np.float64)
            mse = float(np.mean(diff * diff))
            return math.inf if mse == 0.0 else 10.0 * math.log10(255.0 * 255.0 / mse)

        black = np.zeros((64, 48, 3), dtype=np.uint8)
        one = black.copy()
        one[5, 7, 1] = 255
        a, b = {
            "random_rgb": (_rgb(96, 80, seed=4), _rgb(96, 80, seed=5)),
            "random_gray": (_gray(61, 37, seed=6), _gray(61, 37, seed=7)),
            "identical": (_rgb(seed=8), _rgb(seed=8)),
            "black_white": (RasterImage(black), RasterImage(black + 255)),
            "one_sample": (RasterImage(black), RasterImage(one)),
        }[pair]
        assert psnr(a, b) == float_psnr(a, b)
        assert psnr(b, a) == float_psnr(b, a)
        if pair == "identical":
            assert psnr(a, b) == math.inf
        if pair == "black_white":
            assert psnr(a, b) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            psnr(_gray(4, 4), _gray(4, 5))
        with pytest.raises(DimensionMismatchError):
            psnr(_gray(4, 4), _rgb(4, 4))
