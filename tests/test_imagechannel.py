import hashlib
import math

import numpy as np
import pytest

from spheremark import (CarrierSet, DomainError, ImageSizeError, Message,
                        RasterImage, SecretKey, SignCodec, UnknownTransformError,
                        attack, cosine, embed, extract, psnr, rotate,
                        sample_rotation, transform_names, unrotate,
                        write_image)
from spheremark import imagechannel
from spheremark.imagechannel import (_CARRIER_DOMAIN, _Q_LUMA,
                                     _scaled_quant_table, luma)
from spheremark.streams import stream
from conftest import make_image

KEY = SecretKey(seed=99)
DIM = 256
WRONG_KEY_BOUND = 5.0 / math.sqrt(DIM)


def _sealed(seed=0, color=True, message=b"hello image chan",
            height=256, width=256):
    img = make_image(seed, height=height, width=width, color=color)
    codec = SignCodec(DIM)
    rot = sample_rotation(KEY, DIM)
    v = rotate(rot, codec.encode(Message(message)))
    wm = embed(img, v, KEY, target_psnr_db=42.0)
    return img, v, wm


class TestCarriers:
    def test_rows_unit_norm_and_zero_mean(self):
        cs = CarrierSet.generate(KEY, 16, 32, 48)
        flat = cs.patterns.reshape(16, -1)
        assert np.allclose(np.linalg.norm(flat, axis=1), 1.0, atol=1e-9)
        assert float(np.abs(flat.mean(axis=1)).max()) <= 1e-6

    def test_deterministic_across_calls(self):
        base = CarrierSet.generate(KEY, 8, 32, 32)
        for _ in range(100):
            again = CarrierSet.generate(KEY, 8, 32, 32)
            assert np.array_equal(base.patterns, again.patterns)

    def test_key_separates_carriers(self):
        a = CarrierSet.generate(SecretKey(seed=1), 8, 32, 32)
        b = CarrierSet.generate(SecretKey(seed=2), 8, 32, 32)
        assert not np.allclose(a.patterns, b.patterns)

    def test_shape_separates_carriers(self):
        a = CarrierSet.generate(KEY, 8, 32, 32).patterns.reshape(8, -1)
        b = CarrierSet.generate(KEY, 8, 32, 64).patterns.reshape(8, -1)
        assert not np.allclose(a, b[:, : a.shape[1]])

    def test_rejects_small_plane(self):
        with pytest.raises(ImageSizeError):
            CarrierSet.generate(KEY, 8, 31, 64)

    @pytest.mark.parametrize("dim, height, width", [
        (2, 32, 32),
        (3, 33, 35),     # odd d, odd H*W: the last word is half used
        (67, 64, 64),    # odd d over three row blocks
        (256, 33, 35),   # odd H*W over three row blocks
    ])
    def test_bit_equal_to_integers_reference(self, dim, height, width):
        rng = stream(KEY.seed, _CARRIER_DOMAIN, dim, height, width)
        n_px = height * width
        signs = rng.integers(0, 2, size=(dim, n_px)).astype(np.float64)
        ref = (2.0 * signs - 1.0) / math.sqrt(n_px)
        ref -= ref.mean(axis=1, keepdims=True)
        ref /= np.linalg.norm(ref, axis=1, keepdims=True)
        got = CarrierSet.generate(KEY, dim, height, width).patterns
        assert np.array_equal(got.reshape(dim, -1).view(np.uint64),
                              ref.view(np.uint64))

    def test_refuses_plane_above_memory_limit(self, monkeypatch):
        # the limit is inclusive: exactly MAX_CARRIER_BYTES is accepted
        monkeypatch.setattr(imagechannel, "MAX_CARRIER_BYTES", 8 * 4 * 32 * 32)
        assert CarrierSet.generate(KEY, 4, 32, 32).dim == 4
        with pytest.raises(ImageSizeError):
            CarrierSet.generate(KEY, 5, 32, 32)


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

    def test_rejects_psnr_outside_range(self):
        img = make_image(3)
        v = SignCodec(DIM).encode(Message(b"x"))
        for bad in (29.9, 60.1):
            with pytest.raises(DomainError):
                embed(img, v, KEY, target_psnr_db=bad)

    def test_rejects_small_image(self):
        img = make_image(4, height=16, width=64)
        v = SignCodec(DIM).encode(Message(b"x"))
        with pytest.raises(ImageSizeError):
            embed(img, v, KEY)


class TestSealedBytes:
    # digests of sealed files written before carrier generation was
    # streamed in row blocks; the rewrite keeps every byte
    @pytest.mark.parametrize("color, height, width, digest", [
        (True, 256, 256,
         "85fee2aa34555276ddcba94b0e211e1182f7e4868e40d05eea9aeeee542fb730"),
        (False, 33, 35,
         "48b2a06dc8dfc366871471dc85aa963daa5e2cf062bb3c0447ccb1608cb41b08"),
    ])
    def test_sealed_file_digest(self, tmp_path, color, height, width, digest):
        _, _, wm = _sealed(5, color=color, height=height, width=width)
        path = tmp_path / ("sealed.ppm" if color else "sealed.pgm")
        write_image(wm, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


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

    def test_rejects_small_image(self):
        tiny = RasterImage(np.zeros((8, 8, 1), dtype=np.uint8))
        with pytest.raises(ImageSizeError):
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
        _, _, wm = _sealed(18)
        with pytest.raises(DomainError):
            attack(wm, "identity", 1.0)  # takes no parameter
        with pytest.raises(DomainError):
            attack(wm, "rotate")  # needs one
        for name, bad in (("brightness", -0.1), ("crop", 0.0), ("crop", 1.0001),
                          ("gaussian_noise", -1.0), ("jpeg_like", 0.0),
                          ("jpeg_like", 101.0), ("jpeg_like", 80.5)):
            with pytest.raises(DomainError):
                attack(wm, name, bad)


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
        px = np.zeros((4, 4, 3), dtype=np.uint8)
        px[:, :, 0] = 100
        assert np.allclose(luma(RasterImage(px)), 29.9)

    def test_grayscale_passthrough(self):
        img = make_image(19, color=False)
        assert np.allclose(luma(img), img.pixels[:, :, 0].astype(np.float64))
