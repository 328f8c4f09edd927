import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from spheremark import (CarrierSet, DimensionError, DomainError, ImageSizeError,
                        Message, RasterImage, SecretKey, SignCodec,
                        UnknownTransformError, attack, cosine, embed, extract,
                        psnr, rotate, sample_rotation, transform_names,
                        unrotate, write_image)
from spheremark import imagechannel
from spheremark.imagechannel import (_CARRIER_DOMAIN, _Q_LUMA, _luma,
                                     _scaled_quant_table)
from spheremark.streams import stream
from conftest import make_image

KEY = SecretKey(seed=99)
DIM = 256
WRONG_KEY_BOUND = 5.0 / math.sqrt(DIM)
PARAMETERISED = sorted(n for n, (_, param, _) in imagechannel._TRANSFORMS.items() if param)


def _sealed(seed=0, color=True, message=b"hello image chan",
            height=256, width=256):
    img = make_image(seed, height=height, width=width, color=color)
    codec = SignCodec(DIM)
    rot = sample_rotation(KEY, DIM)
    v = rotate(rot, codec.encode(Message(message)))
    wm = embed(img, v, KEY, target_psnr_db=42.0)
    return img, v, wm


def _integers_words(dim, height, width):
    """The carrier bits from Generator.integers signs, packed as
    CarrierSet.words: bit k of word g is carrier 16g + k."""
    rng = stream(KEY.seed, _CARRIER_DOMAIN, dim, height, width)
    n_px = height * width
    signs = np.zeros((16 * -(-dim // 16), n_px), dtype=np.uint16)
    signs[:dim] = rng.integers(0, 2, size=(dim, n_px))
    shifts = np.arange(16, dtype=np.uint16)[:, np.newaxis]
    return (signs.reshape(-1, 16, n_px) << shifts).sum(axis=1, dtype=np.uint16)


def _patterns(cs):
    """The (dim, height, width) float64 carriers rebuilt from the set's
    bits, hi and lo: the dense reference for superpose and correlate."""
    shifts = np.arange(16, dtype=np.uint16)[:, np.newaxis]
    bits = (cs.words[:, np.newaxis, :] >> shifts) & 1
    bits = bits.reshape(-1, cs.height * cs.width)[:cs.dim]
    pats = np.where(bits == 1, cs.hi[:, np.newaxis], cs.lo[:, np.newaxis])
    return pats.reshape(cs.dim, cs.height, cs.width)


def _same_carriers(a, b):
    """Whether two sets hold the same bits, and bit-equal hi and lo."""
    return (np.array_equal(a.words, b.words)
            and np.array_equal(a.hi.view(np.uint64), b.hi.view(np.uint64))
            and np.array_equal(a.lo.view(np.uint64), b.lo.view(np.uint64)))


def _refuse_carrier_work(*args, **kwargs):
    raise AssertionError("carrier work began before the refusal")


def _within_one_ulp(got, square):
    """Whether the exact root of the Fraction square lies between the
    floats next to got, on got's side of zero."""
    inner, outer = sorted(abs(Fraction(float(np.nextafter(got, bound))))
                          for bound in (0.0, 2 * got))
    return inner * inner <= square <= outer * outer


class TestCarriers:
    def test_rows_unit_norm_and_zero_mean(self):
        cs = CarrierSet.generate(KEY, 16, 32, 48)
        flat = _patterns(cs).reshape(16, -1)
        assert np.allclose(np.linalg.norm(flat, axis=1), 1.0, atol=1e-9)
        assert float(np.abs(flat.mean(axis=1)).max()) <= 1e-6

    def test_deterministic_across_calls(self):
        base = CarrierSet.generate(KEY, 8, 32, 32)
        for _ in range(100):
            again = CarrierSet.generate(KEY, 8, 32, 32)
            assert _same_carriers(base, again)

    def test_key_separates_carriers(self):
        a = CarrierSet.generate(SecretKey(seed=1), 8, 32, 32)
        b = CarrierSet.generate(SecretKey(seed=2), 8, 32, 32)
        assert not np.allclose(_patterns(a), _patterns(b))

    def test_shape_separates_carriers(self):
        a = _patterns(CarrierSet.generate(KEY, 8, 32, 32)).reshape(8, -1)
        b = _patterns(CarrierSet.generate(KEY, 8, 32, 64)).reshape(8, -1)
        assert not np.allclose(a, b[:, : a.shape[1]])

    def test_rejects_small_plane(self):
        with pytest.raises(ImageSizeError):
            CarrierSet.generate(KEY, 8, 31, 64)

    @pytest.mark.parametrize("dim, height, width", [
        (2, 32, 32),
        (3, 33, 35),     # odd d, odd H*W: the last word is half used
        (67, 64, 64),    # odd d: five words, the last one partly used
        (256, 33, 35),   # odd H*W: carrier rows straddle raw words
    ])
    def test_bit_equal_to_integers_reference(self, dim, height, width):
        got = CarrierSet.generate(KEY, dim, height, width).words
        assert np.array_equal(got, _integers_words(dim, height, width))

    @pytest.mark.parametrize("dim, height, width", [
        (67, 64, 64),    # five groups, the last one partly used
        (256, 33, 35),   # odd H*W: carrier rows straddle raw words
    ])
    def test_groups_opened_at_counter_under_one_key(self, monkeypatch, dim, height,
                                                    width):
        # the set's key is derived once; no group builds its own stream
        def no_stream(*entropy):
            raise AssertionError("a carrier group built its own stream")

        monkeypatch.setattr(imagechannel, "stream", no_stream)
        got = CarrierSet.generate(KEY, dim, height, width).words
        assert np.array_equal(got, _integers_words(dim, height, width))

    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    @pytest.mark.parametrize("dim, height, width", [
        (2, 32, 32),     # one word: more workers than words
        (67, 64, 64),    # a range per worker, each skipped ahead
        (256, 33, 35),   # odd H*W: carrier rows straddle raw words
        (5, 362, 363),   # draws of _DRAW_WORDS end inside carrier rows
        (5, 363, 363),   # odd H*W, the last raw word half used
        (40, 64, 64),    # 3 words: split 1 + 2 on two cores, one each on more
    ])
    def test_bit_equal_for_any_core_count(self, monkeypatch, cpus, dim, height, width):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = CarrierSet.generate(KEY, dim, height, width).words
        finally:
            sys.setswitchinterval(switch)
        assert np.array_equal(got, _integers_words(dim, height, width))

    @pytest.mark.parametrize("dim, height, width", [
        (2, 32, 32), (3, 33, 35), (67, 64, 64), (256, 33, 35), (5, 363, 363),
        (40, 64, 64)])
    def test_hi_lo_within_one_ulp(self, dim, height, width):
        # the centred, normalized row of k set bits among n takes
        # hi = sqrt((n - k) / (k n)) and lo = -sqrt(k / ((n - k) n))
        cs = CarrierSet.generate(KEY, dim, height, width)
        n = height * width
        bits = _integers_words(dim, height, width)
        for i in range(dim):
            k = int(np.count_nonzero(bits[i // 16] >> (i % 16) & 1))
            assert _within_one_ulp(cs.hi[i], Fraction(n - k, k * n)), (i, cs.hi[i])
            assert _within_one_ulp(cs.lo[i], Fraction(k, (n - k) * n)), (i, cs.lo[i])

    def test_generation_peak_memory(self, monkeypatch):
        # the float64 stack alone would be 128 MiB at 256x256.  Above the
        # held words: per worker one draw of _DRAW_WORDS raw words and its
        # bits, whatever the plane's size
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        for side in (256, 512, 1024):
            tracemalloc.start()
            try:
                held = CarrierSet.generate(KEY, 256, side, side).words.nbytes
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - held < 2.5 * 2**20, (side, peak - held)

    @pytest.mark.parametrize("dim, height, width", [
        (3, 33, 35), (67, 64, 64), (100, 97, 101), (256, 40, 33)])
    def test_held_bytes(self, dim, height, width):
        # every array the set holds: the packed words plus hi and lo
        cs = CarrierSet.generate(KEY, dim, height, width)
        held = [a for a in vars(cs).values() if isinstance(a, np.ndarray)]
        assert cs.words.dtype == np.uint16 and cs.hi.shape == cs.lo.shape == (dim,)
        assert all(not a.flags.writeable for a in held)
        assert sum(a.nbytes for a in held) == 2 * -(-dim // 16) * height * width + 2 * 8 * dim

    @pytest.mark.parametrize("dim, height, width", [
        (3, 33, 35), (67, 64, 64), (100, 97, 101), (256, 40, 33)])
    def test_correlate_and_superpose_match_dense(self, dim, height, width):
        cs = CarrierSet.generate(KEY, dim, height, width)
        dense = _patterns(cs).reshape(dim, -1)
        rng = stream(3, dim, height, width)
        hp = rng.standard_normal((height, width))
        want = dense @ hp.ravel()
        got = cs.correlate(hp)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        v = rng.standard_normal(dim)
        want = v @ dense
        got = cs.superpose(v)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_refuses_plane_above_memory_limit(self, monkeypatch):
        # the limit is inclusive: exactly MAX_CARRIER_BYTES is accepted
        monkeypatch.setattr(imagechannel, "MAX_CARRIER_BYTES", 8 * 4 * 32 * 32)
        assert CarrierSet.generate(KEY, 4, 32, 32).dim == 4
        with pytest.raises(ImageSizeError):
            CarrierSet.generate(KEY, 5, 32, 32)

    @pytest.mark.parametrize("faulty", ["first group", "last group"])
    def test_worker_fault_reaches_caller(self, monkeypatch, faulty):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        fill = imagechannel._fill_group
        bad = 0 if faulty == "first group" else 11  # 192 carriers: groups 0 .. 11

        def flaky(*args):
            if args[-1] == bad:
                raise MemoryError("injected")
            fill(*args)

        monkeypatch.setattr(imagechannel, "_fill_group", flaky)
        before = set(threading.enumerate())
        with pytest.raises(MemoryError, match="injected"):
            CarrierSet.generate(KEY, 192, 128, 128)
        assert set(threading.enumerate()) == before


@pytest.fixture
def no_held_carriers(monkeypatch):
    monkeypatch.setattr(imagechannel, "_held_carriers", {})


class TestCarrierCache:
    KEY = (1, 64, 128, 128)

    def test_hit_returns_held_set(self, no_held_carriers):
        first = imagechannel._cached_carriers(*self.KEY)
        assert imagechannel._cached_carriers(*self.KEY) is first

    @pytest.mark.parametrize("field", range(4))  # seed, dim, height, width
    def test_any_key_change_regenerates(self, no_held_carriers, field):
        first = imagechannel._cached_carriers(*self.KEY)
        changed = list(self.KEY)
        changed[field] += 1
        seed, dim, height, width = changed
        got = imagechannel._cached_carriers(*changed)
        assert got is not first
        assert (got.dim, got.height, got.width) == (dim, height, width)
        want = CarrierSet.generate(SecretKey(seed=seed), dim, height, width)
        assert _same_carriers(got, want)

    def test_miss_evicts_before_generating(self, no_held_carriers):
        # however many sets came before, a miss drops the held set before
        # generating the next.  At 512 x 512 a set's words take 2 MiB,
        # more than generating them holds besides, so two sets held at
        # once would show in the peak.
        keys = [(seed, 64, 512, 512) for seed in range(1, 5)]
        tracemalloc.start()
        try:
            for k in keys[:3]:
                imagechannel._cached_carriers(*k)
            tracemalloc.reset_peak()
            got = imagechannel._cached_carriers(*keys[3])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert imagechannel._held_carriers == {keys[3]: got}
        assert peak < 2 * got.words.nbytes, peak / got.words.nbytes

    def test_threads_alternating_planes_get_their_carriers(self, no_held_carriers):
        planes = [(KEY.seed, 8, 32 + i, 40) for i in range(4)]
        want = {p: CarrierSet.generate(KEY, *p[1:]) for p in planes}
        equal = []

        def client(mine):
            for i in range(40):
                p = mine[i % 2]
                equal.append(_same_carriers(imagechannel._cached_carriers(*p), want[p]))

        threads = [threading.Thread(target=client, args=(planes[2 * t:2 * t + 2],))
                   for t in range(2)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert len(equal) == 80 and all(equal)


class TestEmbed:
    def test_hits_target_psnr(self):
        img, _, wm = _sealed(0)
        assert abs(psnr(img, wm) - 42.0) <= 0.5

    def test_grayscale_supported(self):
        img, _, wm = _sealed(1, color=False)
        assert wm.channels == 1
        assert abs(psnr(img, wm) - 42.0) <= 0.5

    def test_delta_equal_across_rgb(self):
        # payload rides the luma plane: all three channels move together
        img, _, wm = _sealed(2)
        delta = wm.pixels.astype(np.int16) - img.pixels.astype(np.int16)
        interior = np.abs(img.pixels.astype(np.int16) - 128) < 100
        same = (delta[:, :, 0] == delta[:, :, 1]) & (delta[:, :, 1] == delta[:, :, 2])
        assert same[interior.all(axis=2)].mean() > 0.99

    def test_rejects_psnr_outside_range(self, monkeypatch, no_held_carriers):
        img = make_image(3)
        v = SignCodec(DIM).encode(Message(b"x"))
        monkeypatch.setattr(CarrierSet, "generate", _refuse_carrier_work)
        for bad in (29.9, 60.1):
            with pytest.raises(DomainError):
                embed(img, v, KEY, target_psnr_db=bad)

    def test_rejects_dim_below_two(self, no_held_carriers):
        img = make_image(0, height=32, width=32)
        extract(img, KEY, 8)  # a held set, which the refused miss drops
        with pytest.raises(DimensionError, match="carrier count 1 < 2"):
            extract(img, KEY, 1)
        assert imagechannel._held_carriers == {}

    def test_rejects_small_image(self, monkeypatch):
        img = make_image(4, height=16, width=64)
        v = SignCodec(DIM).encode(Message(b"x"))
        monkeypatch.setattr(imagechannel, "stream", _refuse_carrier_work)
        with pytest.raises(ImageSizeError, match="plane 64x16 below 32x32"):
            embed(img, v, KEY)


class TestSealedBytes:
    # digests of sealed files written before carrier generation was
    # streamed in row blocks; the rewrite keeps every byte
    DIGESTS = [
        (True, 256, 256,
         "85fee2aa34555276ddcba94b0e211e1182f7e4868e40d05eea9aeeee542fb730"),
        (False, 33, 35,
         "48b2a06dc8dfc366871471dc85aa963daa5e2cf062bb3c0447ccb1608cb41b08"),
    ]

    @pytest.mark.parametrize("color, height, width, digest", DIGESTS)
    def test_sealed_file_digest(self, tmp_path, color, height, width, digest):
        _, _, wm = _sealed(5, color=color, height=height, width=width)
        path = tmp_path / ("sealed.ppm" if color else "sealed.pgm")
        write_image(wm, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    # superpose and embed walk the plane in bands: 97 pixels is less
    # than a row of either image, 300 several rows of the 33x35 one
    @pytest.mark.parametrize("band", [97, 300])
    @pytest.mark.parametrize("color, height, width, digest", DIGESTS)
    def test_sealed_file_digest_for_any_band(self, monkeypatch, tmp_path, band, color,
                                             height, width, digest):
        monkeypatch.setattr(imagechannel, "_BAND_PIXELS", band)
        self.test_sealed_file_digest(tmp_path, color, height, width, digest)


class TestExtract:
    def test_no_attack_alignment(self):
        _, v, wm = _sealed(5)
        assert cosine(v, extract(wm, KEY, DIM)) >= 0.95

    def test_message_roundtrip(self):
        codec = SignCodec(DIM)
        rot = sample_rotation(KEY, DIM)
        img = make_image(6)
        payload = Message(b"full image round trip")
        wm = embed(img, rotate(rot, codec.encode(payload)), KEY, 42.0)
        decoded = codec.decode(unrotate(rot, extract(wm, KEY, DIM)))
        assert decoded.data == payload.data

    def test_wrong_key_below_bound(self):
        # 50 wrong keys x 20 sealed images at 64x64; the correlation
        # null has sd 1/sqrt(d), so 5/sqrt(d) is a >5-sigma bound
        codec = SignCodec(DIM)
        rot = sample_rotation(KEY, DIM)
        sealed = []
        for j in range(20):
            img = make_image(200 + j, height=64, width=64)
            v = rotate(rot, codec.encode(Message(bytes([j + 1]) * 16)))
            sealed.append((v, embed(img, v, KEY, 42.0)))
        worst = 0.0
        for k in range(50):
            wrong = SecretKey(seed=10_000 + k)
            for v, wm in sealed:
                worst = max(worst, abs(cosine(v, extract(wm, wrong, DIM))))
        assert worst <= WRONG_KEY_BOUND

    def test_flat_image_falls_back(self):
        # constant pixels have no highpass energy; extraction must not
        # divide by zero and the fallback never aligns with a payload
        flat = RasterImage(np.full((64, 64, 1), 77, dtype=np.uint8))
        vhat = extract(flat, KEY, DIM)
        assert abs(float(np.linalg.norm(vhat.components)) - 1.0) <= 1e-9

    def test_rejects_small_image(self, monkeypatch):
        tiny = RasterImage(np.zeros((8, 8, 1), dtype=np.uint8))
        monkeypatch.setattr(imagechannel, "stream", _refuse_carrier_work)
        with pytest.raises(ImageSizeError, match="plane 8x8 below 32x32"):
            extract(tiny, KEY, DIM)


class TestAttacks:
    def test_identity_bit_exact(self):
        _, _, wm = _sealed(7)
        assert np.array_equal(attack(wm, "identity").pixels, wm.pixels)

    def test_neutral_factors_bit_exact(self):
        _, _, wm = _sealed(8)
        for name in ("brightness", "contrast", "saturation"):
            out = attack(wm, name, 1.0)
            assert np.array_equal(out.pixels, wm.pixels), name

    def test_crop_full_frame_bit_exact(self):
        _, _, wm = _sealed(9)
        assert np.array_equal(attack(wm, "crop", 1.0).pixels, wm.pixels)

    def test_rotate_zero_bit_exact(self):
        _, _, wm = _sealed(10)
        assert np.array_equal(attack(wm, "rotate", 0.0).pixels, wm.pixels)

    def test_hflip_involution(self):
        _, _, wm = _sealed(11)
        flipped = attack(wm, "hflip")
        assert not np.array_equal(flipped.pixels, wm.pixels)
        assert np.array_equal(attack(flipped, "hflip").pixels, wm.pixels)

    def test_brightness_shift_immunity(self):
        # mean-free carriers plus the highpass front end ignore a
        # constant offset wherever no clipping occurs
        _, v, wm = _sealed(12)
        base = cosine(v, extract(wm, KEY, DIM))
        for offset in (10.0, -25.0):
            shifted = attack(wm, "brightness_add", offset)
            assert abs(cosine(v, extract(shifted, KEY, DIM)) - base) <= 0.01

    def test_contrast_leaves_direction(self):
        _, _, wm = _sealed(13)
        before = extract(wm, KEY, DIM)
        for factor in (0.5, 1.5):
            after = extract(attack(wm, "contrast", factor), KEY, DIM)
            assert cosine(before, after) >= 0.99

    def test_saturation_leaves_direction(self):
        _, _, wm = _sealed(14)
        before = extract(wm, KEY, DIM)
        after = extract(attack(wm, "saturation", 0.5), KEY, DIM)
        assert cosine(before, after) >= 0.99

    def test_saturation_on_grayscale_is_identity(self):
        _, _, wm = _sealed(15, color=False)
        assert np.array_equal(attack(wm, "saturation", 0.5).pixels, wm.pixels)

    def test_gaussian_noise_end_to_end(self):
        # 42 dB payload survives sigma_px = 2 sensor noise
        codec = SignCodec(DIM)
        rot = sample_rotation(KEY, DIM)
        rng = stream(11)
        for i in range(20):
            img = make_image(100 + i)
            sent = codec.encode(Message(bytes([1 + i]) * 16))
            wm = embed(img, rotate(rot, sent), KEY, 42.0)
            noisy = attack(wm, "gaussian_noise", 2.0, rng=rng)
            got = unrotate(rot, extract(noisy, KEY, DIM))
            agree = np.mean((got.components > 0) == (sent.components > 0))
            assert agree >= 0.95

    def test_gaussian_noise_deterministic_default(self):
        _, _, wm = _sealed(16)
        a = attack(wm, "gaussian_noise", 2.0)
        b = attack(wm, "gaussian_noise", 2.0)
        assert np.array_equal(a.pixels, b.pixels)

    def test_jpeg_survives_mild_compression(self):
        # quantization proxy at q=80 keeps most correlation; frozen run
        # measured 0.966 on this fixture
        _, v, wm = _sealed(0)
        out = attack(wm, "jpeg_like", 80.0)
        assert cosine(v, extract(out, KEY, DIM)) >= 0.90

    def test_jpeg_degrades_with_quality(self):
        _, v, wm = _sealed(0)
        cs = [cosine(v, extract(attack(wm, "jpeg_like", q), KEY, DIM))
              for q in (90.0, 60.0, 30.0)]
        assert cs[0] > cs[1] > cs[2]

    def test_geometric_attacks_desynchronize(self):
        # no synchronization layer: crop and rotation legitimately wreck
        # the correlation, but must degrade cleanly, not crash
        _, v, wm = _sealed(0)
        for name, val in (("crop", 0.9), ("rotate", 10.0), ("hflip", None)):
            out = attack(wm, name, val)
            assert out.pixels.shape == wm.pixels.shape
            assert abs(cosine(v, extract(out, KEY, DIM))) < 0.5

    def test_unknown_transform_lists_names(self):
        _, _, wm = _sealed(17)
        with pytest.raises(UnknownTransformError, match="jpeg_like"):
            attack(wm, "gaussian_blur")

    def test_transform_names_sorted(self):
        names = transform_names()
        assert names == sorted(names)
        assert "identity" in names and "jpeg_like" in names

    def test_parameter_validation(self):
        # refused before any pixel is converted: the output alone is 3 MiB
        img = RasterImage(np.zeros((1024, 1024, 3), dtype=np.uint8))
        tracemalloc.start()
        try:
            with pytest.raises(DomainError):
                attack(img, "identity", 1.0)  # takes no parameter
            with pytest.raises(DomainError):
                attack(img, "rotate")  # needs one
            for name, bad in (("brightness", -0.1), ("crop", 0.0), ("crop", 1.0001),
                              ("crop", 2.0), ("gaussian_noise", -1.0), ("jpeg_like", 0.0),
                              ("jpeg_like", 101.0), ("jpeg_like", 80.5), ("jpeg_like", 50.5),
                              ("rotate", "fast")):
                with pytest.raises(DomainError):
                    attack(img, name, bad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"refusals peaked at {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", PARAMETERISED)
    def test_non_finite_parameter_refused(self, name, bad):
        with pytest.raises(DomainError, match="finite"):
            attack(make_image(19, height=32, width=32), name, bad)


class TestAttackDigests:
    # sha256 over four outputs per case: a 41x67 colour and a 37x53 grey
    # image, each once with rng=None and once with a fresh stream(7).
    # The digests come from the earlier code, in which every attack
    # converted, rounded and clipped its own pixels; the shared float
    # path must keep every byte.
    IMAGES = ((21, 41, 67, True), (22, 37, 53, False))
    DIGESTS = [
        ("identity", None, "b3d27c5e9e294251cc63198c37aeaa725a974ad7119807e450857781912b4a48"),
        ("hflip", None, "3d3150dd88c310795711cf0bec259a226939ccbd8de4cfb3dbaa59de997cd672"),
        ("brightness", 0.7, "b5d18dd8e53d6be2273afeb9d0766cf15334228bff31fc1d595e3eaa2f95c57e"),
        ("brightness", 1.6, "6dd8b92d0a9387047268b85a22519a6f60b081615fc2d3027ba25f07c191fbc3"),
        ("brightness_add", -20.5,
         "a0f5382264209ab0e038d98032ae06d911f3ae6948d2dd885d232691ae3136d5"),
        ("brightness_add", 30.0,
         "d02f82e2829614d3a5689afa5638457b54017beabb2c939c73e41b2b502fa2ad"),
        ("contrast", 0.5, "4adbc543a402892ec6c5c2cf5460c15a856d719eaced0c6ccd4e0d3b84c515aa"),
        ("contrast", 1.8, "f987f60716a188a449cddf7f5948fb8fef665204c379064590afed517a5f13ba"),
        ("saturation", 0.3, "4da772967816ec0e974bd5239ea7206c44f16d4b7803f0081c94648d4f13c47b"),
        ("saturation", 0.0, "5bc9a0e923a2d5384f378d14af423ae7430ced8ff97ccc306c9bffb7ca485926"),
        ("gaussian_noise", 3.0,
         "5574406c2b9f774424d6731704b9ef8834069834dfeb6f694f7ef4b94060e0b9"),
        ("crop", 0.8, "5db64108c0e6c299266c64a677c6ff7a2b458857012670a7220655993ab71f6d"),
        ("crop", 0.55, "2ad01da2efe0301a97d45edf54ad100b2f81a1b8ca4955505f1b2e24a695a835"),
        ("rotate", 7.5, "078de87326fd5305838cc88951eb0f08d2e17afa0302f4f958a18d45022c8f3e"),
        ("rotate", -31.0, "48a436cc83b6a971fdbb33f5ffd77d39b8c512653f1474fe87f3fd9febda5b96"),
        ("jpeg_like", 50.0, "3048ddc9a8cb1ee4b31c06b41acfa6043ebf7bcb4ac59ccddb1665446ecd7c63"),
        ("jpeg_like", 85.0, "19791fe4521009f3594c999d1076d7c5092fe7c6afccfa5940bfd98942be5de5"),
    ]

    @pytest.mark.parametrize("name, value, digest", DIGESTS)
    def test_outputs_pinned(self, name, value, digest):
        h = hashlib.sha256()
        for seed, height, width, color in self.IMAGES:
            img = make_image(seed, height=height, width=width, color=color)
            for rng in (None, stream(7)):
                h.update(attack(img, name, value, rng=rng).pixels.tobytes())
        assert h.hexdigest() == digest

    def test_every_transform_pinned(self):
        assert {name for name, _, _ in self.DIGESTS} == set(transform_names())

    # _resample walks the output in bands of rows: 1 pixel gives one row
    # per band (a band narrower than a row), 97 one row at these widths,
    # and 300 several rows with a shorter last band
    @pytest.mark.parametrize("band", [1, 97, 300])
    @pytest.mark.parametrize("name, value, digest", DIGESTS)
    def test_outputs_pinned_for_any_band(self, monkeypatch, band, name, value, digest):
        monkeypatch.setattr(imagechannel, "_BAND_PIXELS", band)
        self.test_outputs_pinned(name, value, digest)


def _whole_plane_bilinear(plane, yy, xx):
    """The resampler before banding: one channel at full-plane float
    coordinates, reflect padding."""
    h, w = plane.shape
    y0 = np.floor(yy).astype(np.int64)
    x0 = np.floor(xx).astype(np.int64)
    wy = yy - y0
    wx = xx - x0
    y0r = imagechannel._reflect_index(y0, h)
    y1r = imagechannel._reflect_index(y0 + 1, h)
    x0r = imagechannel._reflect_index(x0, w)
    x1r = imagechannel._reflect_index(x0 + 1, w)
    top = plane[y0r, x0r] * (1.0 - wx) + plane[y0r, x1r] * wx
    bot = plane[y1r, x0r] * (1.0 - wx) + plane[y1r, x1r] * wx
    return top * (1.0 - wy) + bot * wy


def _whole_plane_crop(px, ratio):
    """Full-plane source coordinates of a crop, as before banding."""
    h, w = px.shape[:2]
    ch, cw = max(1, round(ratio * h)), max(1, round(ratio * w))
    ys = (h - ch) // 2 + (np.arange(h) + 0.5) * (ch / h) - 0.5
    xs = (w - cw) // 2 + (np.arange(w) + 0.5) * (cw / w) - 0.5
    return np.meshgrid(ys, xs, indexing="ij")


def _whole_plane_rotate(px, degrees):
    """Full-plane source coordinates of a rotation, as before banding."""
    h, w = px.shape[:2]
    theta = math.radians(degrees)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    dy, dx = yy - cy, xx - cx
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    return cy + cos_t * dy + sin_t * dx, cx - sin_t * dy + cos_t * dx


class TestBandedResample:
    @pytest.mark.parametrize("band", [imagechannel._BAND_PIXELS, 97])
    @pytest.mark.parametrize("height, width, color",
                             [(301, 517, True), (97, 1031, True), (1031, 97, False)])
    @pytest.mark.parametrize("transform, oracle, value",
                             [(imagechannel._crop, _whole_plane_crop, 0.9),
                              (imagechannel._crop, _whole_plane_crop, 0.55),
                              (imagechannel._rotate, _whole_plane_rotate, 5.0),
                              (imagechannel._rotate, _whole_plane_rotate, -31.0)])
    def test_bit_equal_to_whole_plane(self, monkeypatch, band, height, width, color,
                                      transform, oracle, value):
        monkeypatch.setattr(imagechannel, "_BAND_PIXELS", band)
        img = make_image(23, height=height, width=width, color=color)
        px = img.pixels.astype(np.float64)
        yy, xx = oracle(px, value)
        want = np.stack([_whole_plane_bilinear(px[:, :, c], yy, xx)
                         for c in range(px.shape[2])], axis=2)
        rows = transform(img, None, value)
        got = np.concatenate([rows(r0, r1) for r0, r1 in imagechannel._bands(height, width)])
        assert np.array_equal(got, want)


# each transform's first pinned parameter
ONE_VALUE = {name: value for name, value, _ in reversed(TestAttackDigests.DIGESTS)}


class TestAttackMemory:
    @pytest.mark.parametrize("color", [True, False])
    @pytest.mark.parametrize("name", sorted(ONE_VALUE))
    def test_input_untouched(self, name, color):
        img = make_image(24, height=41, width=67, color=color)
        before = img.pixels.tobytes()
        out = attack(img, name, ONE_VALUE[name])
        assert img.pixels.tobytes() == before
        assert not np.shares_memory(out.pixels, img.pixels)

    # at 512x512 colour the uint8 output is 0.75 MiB, and so is one band
    # of 2**15 float64 colour pixels: the pointwise transforms hold the
    # output and one or two bands (measured 1.5-1.8 MiB, gaussian_noise's
    # noise band 2.25), crop and rotate a band's weights and corner
    # pixels (2.8 and 3.2), and jpeg_like a band's block rows and their
    # DCT round trip (2.6)
    PEAK_MIB = {"gaussian_noise": 2.5, "crop": 3.0, "rotate": 3.5, "jpeg_like": 3.0}

    @pytest.mark.parametrize("name", sorted(ONE_VALUE))
    def test_peak_within_banded_bound(self, name):
        img = make_image(25, height=512, width=512)
        tracemalloc.start()
        try:
            attack(img, name, ONE_VALUE[name])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = self.PEAK_MIB.get(name, 2.0)
        assert peak <= bound * 2**20, f"{name} peaked at {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("color", [True, False])
    def test_refuses_image_above_limit_before_converting(self, monkeypatch, color):
        img = make_image(26, height=512, width=512, color=color)
        need = (img.channels + 8) * img.height * img.width
        monkeypatch.setattr(imagechannel, "MAX_ATTACK_BYTES", need)
        assert attack(img, "rotate", 5.0).pixels.shape == img.pixels.shape
        monkeypatch.setattr(imagechannel, "MAX_ATTACK_BYTES", need - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ImageSizeError, match=f"{need} bytes .* limit of {need - 1}"):
                attack(img, "rotate", 5.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < img.pixels.size  # no output or float band was made


def _traced_peak(run):
    """The tracemalloc peak, in bytes, of one call of run()."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSealOpenMemory:
    # with the carriers held, embed at 512x512 colour holds the 2 MiB
    # float64 delta plane, the 0.75 MiB uint8 output and one band
    # (measured 3.6 MiB); extract holds the 2 MiB high-pass plane and one
    # band of pixels and luma (measured 3.5 MiB), and correlate's table
    # is 0.5 MiB; psnr holds one band of int32 differences (0.4 MiB)
    @pytest.mark.parametrize("step, bound_mib",
                             [("embed", 4.0), ("extract", 4.0), ("psnr", 0.5)])
    def test_peak_with_carriers_held(self, step, bound_mib):
        img, v, wm = _sealed(27, height=512, width=512)
        run = {"embed": lambda: embed(img, v, KEY, target_psnr_db=42.0),
               "extract": lambda: extract(wm, KEY, DIM),
               "psnr": lambda: psnr(img, wm)}[step]
        peak = _traced_peak(run)
        assert peak <= bound_mib * 2**20, f"{step} peaked at {peak / 2**20:.1f} MiB"

    def test_no_attack_peaks_above_embed(self):
        img, v, wm = _sealed(27, height=512, width=512)
        ceiling = _traced_peak(lambda: embed(img, v, KEY, target_psnr_db=42.0))
        peaks = {name: _traced_peak(lambda: attack(wm, name, value))
                 for name, value in ONE_VALUE.items()}
        assert max(peaks.values()) <= ceiling, (peaks, ceiling)


class TestJpegTables:
    def test_quality_50_is_base_table(self):
        assert np.array_equal(_scaled_quant_table(50), _Q_LUMA)

    def test_quality_100_is_all_ones(self):
        assert np.array_equal(_scaled_quant_table(100), np.ones((8, 8)))

    def test_lower_quality_coarser(self):
        q30, q70 = _scaled_quant_table(30), _scaled_quant_table(70)
        assert np.all(q30 >= q70)
        assert q30.sum() > q70.sum()


class TestLuma:
    def test_weights(self):
        px = np.zeros((4, 4, 3))
        px[:, :, 0] = 100
        assert np.allclose(_luma(px), 29.9)

    def test_grayscale_passthrough(self):
        px = make_image(19, color=False).pixels.astype(np.float64)
        assert np.array_equal(_luma(px), px[:, :, 0])


class TestContrastCentre:
    # at factor 0 every sample becomes the centre, the image's mean luma
    def test_colour_centre_is_mean_luma(self):
        px = np.empty((40, 56, 3), dtype=np.uint8)
        px[:, :] = (200, 100, 50)  # luma 0.299*200 + 0.587*100 + 0.114*50 = 124.2
        out = attack(RasterImage(px), "contrast", 0.0)
        assert np.all(out.pixels == 124)

    def test_grey_centre_keeps_value(self):
        px = np.full((40, 56, 1), 77, dtype=np.uint8)
        assert np.array_equal(attack(RasterImage(px), "contrast", 0.0).pixels, px)


def _whole_plane_luma(img):
    """Luma before banding: the whole image converted to float at once."""
    px = img.pixels.astype(np.float64)
    return px[:, :, 0] if img.channels == 1 else px @ imagechannel.LUMA_WEIGHTS


def _whole_plane_highpass(plane):
    """The high-pass before banding: one padded copy of the plane."""
    padded = np.pad(plane, 1, mode="symmetric")
    acc = np.zeros_like(plane)
    for dy in range(3):
        for dx in range(3):
            acc += padded[dy:dy + plane.shape[0], dx:dx + plane.shape[1]]
    return plane - acc / 9.0


class TestBandedPlanes:
    @pytest.mark.parametrize("band", [imagechannel._BAND_PIXELS, 97, 300])
    @pytest.mark.parametrize("height, width, color",
                             [(97, 1031, True), (1031, 97, True), (97, 1031, False),
                              (1031, 97, False), (1, 40, True), (40, 1, False)])
    def test_bit_equal_to_whole_plane(self, monkeypatch, band, height, width, color):
        monkeypatch.setattr(imagechannel, "_BAND_PIXELS", band)
        img = make_image(28, height=height, width=width, color=color)
        assert np.array_equal(imagechannel._highpass(img),
                              _whole_plane_highpass(_whole_plane_luma(img)))


def _whole_plane_jpeg(plane, quality):
    """The JPEG proxy's round trip before banding: one padded copy of
    the whole plane."""
    qt = _scaled_quant_table(quality)
    h, w = plane.shape
    padded = np.pad(plane, ((0, (8 - h % 8) % 8), (0, (8 - w % 8) % 8)), mode="symmetric")
    padded -= 128.0
    bh, bw = padded.shape[0] // 8, padded.shape[1] // 8
    blocks = padded.reshape(bh, 8, bw, 8).transpose(0, 2, 1, 3)
    coeff = np.einsum("ij,abjk,lk->abil", imagechannel._DCT8, blocks, imagechannel._DCT8)
    coeff /= qt
    np.rint(coeff, out=coeff)
    coeff *= qt
    back = np.einsum("ji,abjk,kl->abil", imagechannel._DCT8, coeff, imagechannel._DCT8)
    out = back.transpose(0, 2, 1, 3).reshape(bh * 8, bw * 8)
    out += 128.0
    return out[:h, :w]


def _bincount_correlate(cs, hp):
    """correlate as it summed before: one np.bincount per word row."""
    hp = hp.ravel()
    sums = np.empty((len(cs.words), 2, 8))
    for g, word in enumerate(cs.words):
        by_value = np.bincount(word, weights=hp, minlength=65536).reshape(256, 256)
        sums[g, 0] = by_value.sum(axis=0) @ imagechannel._BYTE_BITS
        sums[g, 1] = by_value.sum(axis=1) @ imagechannel._BYTE_BITS
    return cs.lo * hp.sum() + (cs.hi - cs.lo) * sums.reshape(-1)[:cs.dim]


BANDS = [imagechannel._BAND_PIXELS, 97, 300]


class TestBandedScoring:
    # heights and widths that are not multiples of 8, the JPEG block;
    # at 97 and 300 pixels a band of the wide images is one whole 8-row
    # block row, and only the last band is short
    SHAPES = [(97, 1031, True), (1031, 97, False), (45, 61, True), (45, 61, False),
              (1, 40, True), (7, 3, False)]

    @pytest.mark.parametrize("band", BANDS)
    @pytest.mark.parametrize("height, width, color", SHAPES)
    @pytest.mark.parametrize("quality", [13, 80, 100])
    def test_jpeg_like_bit_equal_to_whole_plane(self, monkeypatch, band, height, width,
                                                color, quality):
        monkeypatch.setattr(imagechannel, "_BAND_PIXELS", band)
        img = make_image(29, height=height, width=width, color=color)
        y = _whole_plane_luma(img)
        y2 = _whole_plane_jpeg(y, quality)
        if color:
            want = img.pixels.astype(np.float64) + (y2 - y)[:, :, np.newaxis]
        else:
            want = y2[:, :, np.newaxis]
        rows = imagechannel._jpeg_like(img, None, float(quality))
        got = np.concatenate([rows(r0, r1) for r0, r1 in imagechannel._bands(height, width)])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("band", BANDS)
    @pytest.mark.parametrize("height, width", [(97, 103), (33, 35)])
    def test_correlate_bit_equal_to_bincount(self, monkeypatch, band, height, width):
        monkeypatch.setattr(imagechannel, "_BAND_PIXELS", band)
        cs = CarrierSet.generate(KEY, 40, height, width)
        hp = imagechannel._highpass(make_image(30, height=height, width=width))
        got, want = cs.correlate(hp), _bincount_correlate(cs, hp)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("band", BANDS)
    @pytest.mark.parametrize("pair", ["random_rgb", "random_gray", "one_pixel",
                                      "all_255", "identical"])
    def test_psnr_equal_to_whole_image_sum(self, monkeypatch, band, pair):
        monkeypatch.setattr(imagechannel, "_BAND_PIXELS", band)
        black = np.zeros((301, 47, 3), dtype=np.uint8)
        a, b = {
            "random_rgb": (make_image(31, height=301, width=47), make_image(32, height=301, width=47)),
            "random_gray": (make_image(33, height=47, width=301, color=False),
                            make_image(34, height=47, width=301, color=False)),
            "one_pixel": (RasterImage(np.zeros((1, 1, 1), dtype=np.uint8)),
                          RasterImage(np.full((1, 1, 1), 200, dtype=np.uint8))),
            "all_255": (RasterImage(black), RasterImage(black + 255)),
            "identical": (make_image(31, height=301, width=47),) * 2,
        }[pair]
        squares = int(np.square(a.pixels.astype(np.int64) - b.pixels.astype(np.int64)).sum())
        mse = squares / a.pixels.size
        want = math.inf if mse == 0 else 10.0 * math.log10(255 * 255 / mse)
        assert psnr(a, b) == want
        if pair == "all_255":
            assert psnr(a, b) == 0.0


class TestBandGrid:
    @pytest.mark.parametrize("band", [imagechannel._BAND_PIXELS, 97])
    @pytest.mark.parametrize("width", [1, 97, 4096, 4097, 5000])
    def test_bands_on_block_rows(self, monkeypatch, band, width):
        monkeypatch.setattr(imagechannel, "_BAND_PIXELS", band)
        for height in range(1, 24):
            bands = list(imagechannel._bands(height, width))
            assert bands[0][0] == 0 and bands[-1][1] == height
            assert all(r1 == nxt for (_, r1), (nxt, _) in zip(bands, bands[1:]))
            for r0, r1 in bands:
                assert r0 % 8 == 0 and r0 < r1
                assert (r1 - r0) * width <= max(band, 8 * width)
            # each band but the last holds as many whole block rows as fit, at least one
            for r0, r1 in bands[:-1]:
                assert (r1 - r0) % 8 == 0
                assert r1 - r0 == 8 or (r1 - r0 + 8) * width > band

    # 8 rows of 4100 pixels pass 2**15, so each band is one block row,
    # and the last band, rows 16 .. 20, is cut short by the edge.  No
    # band depends on another, so they may be computed in any order.
    @pytest.mark.parametrize("order", [list, reversed])
    @pytest.mark.parametrize("color", [True, False])
    @pytest.mark.parametrize("quality", [13, 80])
    def test_jpeg_like_one_block_row_per_band(self, order, color, quality):
        bands = list(imagechannel._bands(21, 4100))
        assert bands == [(0, 8), (8, 16), (16, 21)]
        img = make_image(36, height=21, width=4100, color=color)
        y = _whole_plane_luma(img)
        y2 = _whole_plane_jpeg(y, quality)
        if color:
            want = img.pixels.astype(np.float64) + (y2 - y)[:, :, np.newaxis]
        else:
            want = y2[:, :, np.newaxis]
        rows = imagechannel._jpeg_like(img, None, float(quality))
        got = {r0: rows(r0, r1) for r0, r1 in order(bands)}
        assert np.array_equal(np.concatenate([got[r0] for r0, _ in bands]), want)


class TestNormWithoutBlas:
    # np.linalg.norm is a BLAS dot whose bits change with the BLAS thread
    # count (by 1-3 ulps at 512x512); embed's norm must not
    SCRIPT = ("import numpy as np\n"
              "from spheremark import imagechannel\n"
              "from spheremark.streams import stream\n"
              "plane = stream(0).standard_normal((512, 512))\n"
              "print(imagechannel._norm(plane).hex())\n")

    def test_same_bits_for_one_and_two_blas_threads(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        got = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            done = subprocess.run([sys.executable, "-c", self.SCRIPT], env=env,
                                  capture_output=True, text=True, check=True)
            got.add(done.stdout.strip())
        assert len(got) == 1, got

    @pytest.mark.parametrize("band", BANDS)
    @pytest.mark.parametrize("height, width", [(97, 1031), (1031, 97), (1, 40), (40, 1)])
    def test_exact_sum_of_row_sums_for_any_band(self, monkeypatch, band, height, width):
        monkeypatch.setattr(imagechannel, "_BAND_PIXELS", band)
        plane = stream(35).standard_normal((height, width))
        want = math.sqrt(math.fsum(float(np.sum(row * row)) for row in plane))
        assert imagechannel._norm(plane) == want
