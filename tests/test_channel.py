import csv
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

from spheremark import (ChannelProfile, Codec, ConfidenceReport,
                        DimensionError, DomainError, Message, SecretKey,
                        SignCodec, SweepRow, UnitVector, Watermark,
                        assess, calibrate, cosine, default_profiles, embed,
                        extract, load_profiles, perturb, rotate, run_sweep,
                        sample_rotation, sample_uniform, spherical_p_value,
                        unrotate, write_sweep_csv)
from spheremark import channel
from spheremark.channel import SWEEP_CSV_HEADER, profiles_from_dicts
from spheremark.streams import label_entropy, stream, stream_key
from conftest import DriftingCodec, assert_row_is_report, make_image, octets

CHI2_CRIT_15_99 = 30.57791416689249


class TestCalibrate:
    def test_formula(self):
        for target in (0.05, 0.5, 0.9, 0.984, 0.9999):
            want = math.sqrt(1.0 / target**2 - 1.0)
            assert calibrate(target, 256) == pytest.approx(want, abs=1e-12)

    def test_identity_target(self):
        assert calibrate(1.0, 256) == 0.0

    def test_half_power_point(self):
        assert calibrate(1.0 / math.sqrt(2.0), 256) == pytest.approx(1.0, abs=1e-12)

    def test_reference_operating_point(self):
        assert calibrate(0.984, 256) == pytest.approx(0.18106550773430982, abs=1e-12)

    def test_domain(self):
        for bad in (0.0, -0.1, 1.0001, math.nan):
            with pytest.raises(DomainError):
                calibrate(bad, 256)

    def test_roundtrip_with_mean_cosine(self):
        # calibrate inverts the deterministic noise-norm relation
        for sigma in (0.1, 0.5, 2.0):
            target = 1.0 / math.sqrt(1.0 + sigma * sigma)
            assert calibrate(target, 256) == pytest.approx(sigma, rel=1e-12)


class TestPerturb:
    def test_sigma_zero_is_input(self):
        v = sample_uniform(256, stream(17))
        assert perturb(v, 0.0, stream(18)) is v

    def test_rejects_bad_sigma(self):
        v = sample_uniform(8, stream(19))
        for bad in (-0.1, math.nan, math.inf):
            with pytest.raises(DomainError):
                perturb(v, bad, stream(20))

    def test_output_unit_norm(self):
        v = sample_uniform(64, stream(21))
        rng = stream(22)
        for sigma in (0.01, 0.5, 100.0):
            w = perturb(v, sigma, rng)
            assert abs(float(np.linalg.norm(w.components)) - 1.0) <= 1e-9

    def test_noise_norm_is_sigma(self):
        # before renormalization the displacement has length exactly sigma
        v = sample_uniform(64, stream(23))
        g = stream(24).standard_normal(64)
        w = perturb(v, 0.37, stream(24))
        displaced = v.components + 0.37 * g / np.linalg.norm(g)
        assert np.allclose(w.components, displaced / np.linalg.norm(displaced),
                           atol=1e-12)

    def test_pinned_digest(self):
        # 1800 outputs over three dimensions and sigmas, pinned when perturb
        # and run_sweep's blocks drew their noise through separate code
        digest = hashlib.sha256()
        for dim in (2, 16, 256):
            for sigma in (0.01, 0.18, 3.0):
                v = sample_uniform(dim, stream(dim, 1))
                rng = stream(dim, 2)
                for _ in range(200):
                    digest.update(perturb(v, sigma, rng).components.tobytes())
        assert digest.hexdigest() == \
            "b2edc0e6e003dca02567fefa629de47f89b79b9a488d04749206057bd13e62ca"

    def test_mean_cosine_small_sigma(self):
        # frozen anchor: 1/sqrt(1+sigma^2) at sigma=0.01
        v = sample_uniform(256, stream(42, 5))
        rng = stream(42, 6)
        n = 100_000
        total = 0.0
        for _ in range(n):
            total += cosine(v, perturb(v, 0.01, rng))
        want = 1.0 / math.sqrt(1.0 + 1e-4)
        assert abs(total / n - want) <= 1e-4

    def test_direction_uniform_at_huge_sigma(self):
        # sigma >> 1 drowns the signal; the output angle on the circle
        # must be uniform
        v = sample_uniform(2, stream(25))
        rng = stream(26)
        angles = np.empty(10_000)
        for i in range(10_000):
            w = perturb(v, 1e6, rng)
            angles[i] = math.atan2(w.components[1], w.components[0]) % (2 * math.pi)
        counts, _ = np.histogram(angles, bins=16, range=(0.0, 2 * math.pi))
        expected = len(angles) / 16
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat <= CHI2_CRIT_15_99

    def test_monotone_in_sigma(self):
        v = sample_uniform(256, stream(27))
        rng = stream(28)
        means = []
        for sigma in (0.05, 0.2, 0.8, 3.0):
            means.append(np.mean([cosine(v, perturb(v, sigma, rng))
                                  for _ in range(2000)]))
        assert all(a > b + 0.01 for a, b in zip(means, means[1:]))

    def test_rotation_commutes_with_noise(self):
        # unrotate(k, perturb(rotate(k, v))) and perturb(v) draw from the
        # same cosine distribution; two-sample KS at significance 0.01
        v = sample_uniform(256, stream(21, 3))
        m = sample_rotation(SecretKey(seed=77), 256)
        rv = rotate(m, v)
        rng_a, rng_b = stream(21, 1), stream(21, 2)
        a = np.array([cosine(v, unrotate(m, perturb(rv, 0.3, rng_a)))
                      for _ in range(10_000)])
        b = np.array([cosine(v, perturb(v, 0.3, rng_b)) for _ in range(10_000)])
        assert ks_2samp(a, b).pvalue >= 0.01


class TestProfiles:
    def test_from_target(self):
        p = ChannelProfile.from_target("jpeg_80", 0.965, 256)
        assert p.sigma == pytest.approx(math.sqrt(1 / 0.965**2 - 1), abs=1e-12)

    def test_from_dicts_error_paths(self):
        with pytest.raises(DomainError, match=r"profiles\[0\]"):
            profiles_from_dicts([{"target_cosine": 0.9}], 256)
        with pytest.raises(DomainError, match=r"profiles\[1\]"):
            profiles_from_dicts([{"name": "a", "target_cosine": 0.9},
                                 {"name": "b", "target_cosine": 1.7}], 256)

    def test_from_dicts_refuses_empty_list(self):
        with pytest.raises(DomainError, match="profile config"):
            profiles_from_dicts([], 256)

    @pytest.mark.parametrize("name", ["a\x00", "\x00", "a\x00b"])
    def test_name_with_nul_refused(self, name):
        # "a" and "a\x00" have one label_entropy, so they would share a stream
        with pytest.raises(DomainError, match=r"profiles\[1\]\.name"):
            profiles_from_dicts([{"name": "a", "target_cosine": 0.9},
                                 {"name": name, "target_cosine": 0.9}], 256)

    def test_load_profiles(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps([{"name": "soft", "target_cosine": 0.99}]))
        profs = load_profiles(path, 128)
        assert len(profs) == 1
        assert profs[0].name == "soft"

    @pytest.mark.parametrize("content, fragment", [
        (b"\xff\n", "cannot read profile config"),  # not UTF-8
        (None, "cannot read profile config"),  # no such file
        (b"[{", "profile config"),  # not JSON
    ], ids=["not-utf8", "missing", "not-json"])
    def test_load_refuses_unreadable_file(self, tmp_path, content, fragment):
        path = tmp_path / "p.json"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(DomainError, match=fragment):
            load_profiles(path, 128)

    def test_default_profiles_shipped(self):
        profs = default_profiles(256)
        assert len(profs) == 21
        by_name = {p.name: p for p in profs}
        assert by_name["identity_42db"].target_cosine == 0.984
        assert by_name["jpeg_50"].target_cosine == 0.903
        assert by_name["gaussianblur_17"].target_cosine == 0.898
        for p in profs:
            assert p.sigma == pytest.approx(
                math.sqrt(1 / p.target_cosine**2 - 1), abs=1e-12)


class TestWatermark:
    KEY = SecretKey(seed=5)

    def test_rotation_follows_codec_dim(self):
        wm = Watermark(self.KEY, SignCodec(64))
        assert np.array_equal(sample_rotation(wm.key, wm.codec.dim).entries,
                              sample_rotation(self.KEY, 64).entries)
        with pytest.raises(DimensionError):
            Watermark(self.KEY, SignCodec(4097))

    def test_sign_is_rotated_encode(self):
        codec = SignCodec(256)
        msg = Message(b"chain")
        got = Watermark(self.KEY, codec).sign(msg)
        want = rotate(sample_rotation(self.KEY, 256), codec.encode(msg))
        assert got.to_bytes() == want.to_bytes()

    @pytest.mark.parametrize("dim", [64, 256])
    def test_open_is_extract_unrotate_assess(self, dim):
        codec = SignCodec(dim)
        wm = Watermark(self.KEY, codec)
        sealed = embed(make_image(3), wm.sign(Message(b"open")), self.KEY)
        v_hat = unrotate(sample_rotation(self.KEY, dim), extract(sealed, self.KEY, dim))
        assert wm.open(sealed, 100.0) == assess(codec, v_hat, 100.0)
        assert wm.open(sealed, 100.0).message == Message(b"open")

    def test_open_extracts_before_sampling_the_rotation(self, monkeypatch):
        # a one-shot open generates the carriers before the rotation's QR,
        # and building a Watermark does neither
        sealed = embed(make_image(3), Watermark(self.KEY, SignCodec(256)).sign(Message(b"order")),
                       self.KEY)
        calls = []

        def recorder(name, fn):
            def record(*args):
                calls.append(name)
                return fn(*args)
            return record

        for name in ("extract", "sample_rotation"):
            monkeypatch.setattr(channel, name, recorder(name, getattr(channel, name)))
        wm = Watermark(self.KEY, SignCodec(256))
        assert calls == []
        assert wm.open(sealed, 100.0).message == Message(b"order")
        assert calls == ["extract", "sample_rotation"]

    @pytest.mark.parametrize("messages", [[b"ab\x00"], [b"\x00"], [b"ok", b"ok\x00"]])
    def test_refuses_trailing_nul(self, messages):
        # decode strips the zero padding, so b"ab\x00" would open as b"ab"
        wm = Watermark(self.KEY, SignCodec(256))
        with pytest.raises(DomainError, match="NUL"):
            wm.sign(Message(messages[-1]))
        # in a block of byte rows, trailing zeros are a row's padding
        signed = wm.sign_many(octets(messages))[1]
        for row, m in zip(signed, messages):
            want = wm.sign(Message(m.rstrip(b"\x00"))).components
            assert np.allclose(row, want, rtol=0, atol=1e-15)

    def test_sign_many_and_block_assess(self):
        codec = SignCodec(256)
        wm = Watermark(self.KEY, codec)
        messages = [b"first", b"second", b"\xff" * 32]
        v, signed = wm.sign_many(octets(messages))
        assert np.array_equal(v, codec.encode(octets(messages)))
        for row, m in zip(signed, messages):
            assert np.allclose(row, wm.sign(Message(m)).components, rtol=0, atol=1e-15)
        v_hat = unrotate(sample_rotation(self.KEY, 256), signed)
        block = assess(codec, v_hat, 100.0)
        for k, m in enumerate(messages):
            assert np.allclose(v_hat[k], codec.encode(Message(m)).components, rtol=0, atol=1e-14)
            assert_row_is_report(block, k, assess(
                codec, unrotate(sample_rotation(self.KEY, 256), wm.sign(Message(m))), 100.0))
        # sign is the one-row form of sign_many, and open scores one row
        for m in messages:
            assert np.array_equal(wm.sign(Message(m)).components,
                                  wm.sign_many(octets([m]))[1][0])
        sealed = embed(make_image(3, 64, 64), wm.sign(Message(messages[0])), self.KEY)
        row = extract(sealed, self.KEY, 256).components[None, :]
        assert_row_is_report(
            assess(codec, unrotate(sample_rotation(self.KEY, 256), row), 100.0), 0,
            wm.open(sealed, 100.0))


class TestRunSweep:
    def _codec_key(self):
        return SignCodec(256), SecretKey(seed=5)

    def test_identity_profile_exact(self):
        codec, key = self._codec_key()
        prof = ChannelProfile.from_target("identity", 1.0, 256)
        rows = run_sweep([prof], codec, key, 50, stream(99))
        assert rows[0].exact_match == 1.0
        assert rows[0].mean_cosine == 1.0
        assert rows[0].trusted_rate == 1.0

    def test_reference_profile_mean_cosine(self):
        codec, key = self._codec_key()
        prof = ChannelProfile.from_target("identity_42db", 0.984, 256)
        rows = run_sweep([prof], codec, key, 2000, stream(1234),
                         message_len=16, ell_threshold=100.0)
        assert abs(rows[0].mean_cosine - 0.984) <= 0.005
        assert rows[0].exact_match == 1.0

    # Largest |exact match - closed form| over the built-in profiles at
    # n = 20000 was 0.0264 (jpeg_60, 9 standard errors there): every bit
    # flips against the same fixed-length noise, so flips are not quite
    # independent and the product overstates exact match a little.
    CLOSED_FORM_GAP = 0.027

    def test_exact_match_follows_closed_form(self):
        # bit i flips when the noise's i-th coordinate outweighs the
        # signal's 1/sqrt(d); the noise is a uniform direction of length
        # sigma, so that is half a spherical cap's two-sided tail
        codec, key = self._codec_key()
        n, d = 2000, 256
        profiles = default_profiles(d)
        rows = run_sweep(profiles, codec, key, n, stream(17))
        for profile, row in zip(profiles, rows):
            flip = 0.5 * spherical_p_value(1.0 / (profile.sigma * math.sqrt(d)), d)
            closed = (1.0 - flip) ** d
            tol = self.CLOSED_FORM_GAP + 4.0 * math.sqrt(closed * (1.0 - closed) / n)
            assert abs(row.exact_match - closed) <= tol, (profile.name, row.exact_match, closed)

    def test_wrong_key_never_matches(self):
        codec, key = self._codec_key()
        prof = ChannelProfile.from_target("identity", 1.0, 256)
        rows = run_sweep([prof], codec, key, 100, stream(99),
                         unrotate_key=SecretKey(seed=6))
        assert rows[0].exact_match == 0.0
        assert rows[0].trusted_rate == 0.0

    def test_deterministic(self, tmp_path):
        codec, key = self._codec_key()
        profs = [ChannelProfile.from_target("a", 0.99, 256),
                 ChannelProfile.from_target("b", 0.9, 256)]
        rows1 = run_sweep(profs, codec, key, 40, stream(7))
        rows2 = run_sweep(profs, codec, key, 40, stream(7))
        assert rows1 == rows2
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(rows1, p1)
        write_sweep_csv(rows2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_profile_order_does_not_change_cells(self):
        codec, key = self._codec_key()
        a = ChannelProfile.from_target("a", 0.99, 256)
        b = ChannelProfile.from_target("b", 0.9, 256)
        fwd = {r.profile: r for r in run_sweep([a, b], codec, key, 30, stream(7))}
        rev = {r.profile: r for r in run_sweep([b, a], codec, key, 30, stream(7))}
        assert fwd == rev

    def test_monotone_profiles(self):
        codec, key = self._codec_key()
        profs = [ChannelProfile.from_target("soft", 0.99, 256),
                 ChannelProfile.from_target("mid", 0.9, 256),
                 ChannelProfile.from_target("hard", 0.7, 256)]
        rows = run_sweep(profs, codec, key, 150, stream(8))
        assert rows[0].mean_cosine > rows[1].mean_cosine > rows[2].mean_cosine

    def test_rejects_duplicate_names(self):
        codec, key = self._codec_key()
        prof = ChannelProfile.from_target("dup", 0.99, 256)
        with pytest.raises(DomainError):
            run_sweep([prof, prof], codec, key, 5, stream(9))

    @pytest.mark.parametrize("name", ["dup\x00", "dup\x00\x00"])
    def test_rejects_names_sharing_a_stream(self, name):
        # label_entropy ignores trailing NULs, so these would draw alike
        codec, key = self._codec_key()
        profs = [ChannelProfile.from_target("dup", 0.99, 256),
                 ChannelProfile.from_target(name, 0.99, 256)]
        with pytest.raises(DomainError, match="unique"):
            run_sweep(profs, codec, key, 5, stream(9))

    def test_rejects_name_not_utf8(self):
        codec, key = self._codec_key()
        prof = ChannelProfile.from_target("a\ud800", 0.99, 256)
        with pytest.raises(DomainError, match="UTF-8"):
            run_sweep([prof], codec, key, 5, stream(9))

    def test_rejects_bad_message_len(self):
        codec, key = self._codec_key()
        prof = ChannelProfile.from_target("p", 0.99, 256)
        for bad in (0, 33):
            with pytest.raises(DomainError):
                run_sweep([prof], codec, key, 5, stream(9), message_len=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_threshold(self, bad):
        codec, key = self._codec_key()
        prof = ChannelProfile.from_target("p", 0.99, 256)
        with pytest.raises(DomainError, match="finite"):
            run_sweep([prof], codec, key, 2, stream(9), ell_threshold=bad,
                      unrotate_key=SecretKey(seed=6))

    @pytest.mark.parametrize("threshold, sigma", [(math.nan, 0.1), (math.inf, 0.1),
                                                  (100.0, math.nan), (100.0, -0.5)])
    def test_refuses_before_any_rotation_or_draw(self, monkeypatch, threshold, sigma):
        # a 256-d rotation costs ~10 ms; bad arguments are refused first
        def forbidden(*args):
            raise AssertionError("sampled or drew before refusing")

        monkeypatch.setattr(channel, "sample_rotation", forbidden)
        monkeypatch.setattr(channel, "stream_key", forbidden)
        monkeypatch.setattr(channel, "rekey", forbidden)
        codec, key = self._codec_key()
        profiles = [ChannelProfile.from_target("fine", 0.99, 256),
                    ChannelProfile("bad", 0.9, sigma)]
        with pytest.raises(DomainError, match="finite"):
            run_sweep(profiles, codec, key, 2, stream(9), ell_threshold=threshold,
                      unrotate_key=SecretKey(seed=6))

    @pytest.mark.parametrize("n", [2**32, 2**40])
    def test_refuses_index_needing_two_words(self, monkeypatch, n):
        # the sweep's documented limit: a cell index below 2**32; a larger
        # count is refused before any work
        def forbidden(*args, **kwargs):
            raise AssertionError("sampled or drew before refusing")

        monkeypatch.setattr(channel, "sample_rotation", forbidden)
        monkeypatch.setattr(channel, "stream_key", forbidden)
        monkeypatch.setattr(channel, "rekey", forbidden)
        codec, key = self._codec_key()

        class NoDraws:
            integers = staticmethod(forbidden)

        with pytest.raises(DomainError, match="2\\*\\*32"):
            run_sweep([ChannelProfile.from_target("p", 0.99, 256)], codec, key, n,
                      NoDraws())

    def test_refuses_no_profiles_before_any_rotation_or_draw(self, monkeypatch):
        # an empty table would be written as a header alone
        def forbidden(*args, **kwargs):
            raise AssertionError("sampled or drew before refusing")

        monkeypatch.setattr(channel, "sample_rotation", forbidden)
        monkeypatch.setattr(channel, "rekey", forbidden)
        codec, key = self._codec_key()

        class NoDraws:
            integers = staticmethod(forbidden)

        with pytest.raises(DomainError, match="at least one profile"):
            run_sweep([], codec, key, 5, NoDraws())

    def test_rejects_empty_run(self):
        codec, key = self._codec_key()
        prof = ChannelProfile.from_target("p", 0.99, 256)
        with pytest.raises(DomainError):
            run_sweep([prof], codec, key, 0, stream(9))

    def test_csv_header(self, tmp_path):
        codec, key = self._codec_key()
        prof = ChannelProfile.from_target("only", 1.0, 256)
        rows = run_sweep([prof], codec, key, 3, stream(10))
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert lines[1].startswith("only,3,1.000000,1.000000,")

    def test_csv_quotes_profile_names(self, tmp_path):
        codec, key = self._codec_key()
        names = ["noisy, strong", 'say "hi"', "two\nlines"]
        profiles = [ChannelProfile.from_target(n, 0.99, 256) for n in names]
        path = tmp_path / "sweep.csv"
        write_sweep_csv(run_sweep(profiles, codec, key, 2, stream(10)), path)
        with open(path, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
        assert table[0] == SWEEP_CSV_HEADER.split(",")
        assert all(len(row) == 6 for row in table)
        assert [row[0] for row in table[1:]] == names


BLOCK = channel._BLOCK_ROWS


class ScalarSignCodec(Codec):
    """Sign modulation from a codec that is not a SignCodec and takes
    blocks only; counts the calls it receives."""

    def __init__(self, dim):
        self._inner = SignCodec(dim)
        self.dim, self.capacity_bytes = dim, self._inner.capacity_bytes
        self.calls = 0

    def encode(self, octets):
        assert isinstance(octets, np.ndarray) and octets.ndim == 2, "encode takes a block"
        self.calls += 1
        return self._inner.encode(octets)

    def decode(self, rows):
        assert isinstance(rows, np.ndarray) and rows.ndim == 2, "decode takes a block"
        self.calls += 1
        return self._inner.decode(rows)


def reference_sweep(profiles, codec, key, n_messages, rng, *, message_len=16,
                    ell_threshold=100.0, unrotate_key=None):
    """The sweep cell by cell, built from public pieces: cell i of a
    profile is row j = i % BLOCK of block k = i // BLOCK.  Its field f
    (message bytes, last byte, noise) comes from a fresh Philox under the
    key of SeedSequence([root, label]), started at counter
    (0, 3k + f, 0, 0), which draws rows 0 ... j and keeps row j."""
    dim = codec.dim
    m_send = sample_rotation(key, dim)
    m_recv = m_send if unrotate_key is None else sample_rotation(unrotate_key, dim)
    root = int(rng.integers(0, 2**63))
    rows = []
    for profile in profiles:
        cos_sum = ell_sum = 0.0
        match_count = trusted_count = 0
        profile_key = np.random.SeedSequence(
            [root, label_entropy(profile.name)]).generate_state(2, np.uint64)
        for i in range(n_messages):
            k, j = divmod(i, BLOCK)
            body_rng, last_rng, noise_rng = (
                np.random.Generator(np.random.Philox(key=profile_key,
                                                     counter=[0, 3 * k + f, 0, 0]))
                for f in range(3))
            body = body_rng.integers(0, 256, size=(j + 1, message_len), dtype=np.uint8)[j]
            body[-1] = last_rng.integers(1, 256, size=j + 1)[j]
            payload = body.tobytes()
            v = UnitVector(codec.encode(body[None, :])[0])
            noise_rng.standard_normal((j, dim))  # rows 0 ... j - 1
            received = perturb(rotate(m_send, v), profile.sigma, noise_rng)
            v_hat = unrotate(m_recv, received)
            report = assess(codec, v_hat, ell_threshold)
            cos_sum += cosine(v, v_hat)
            ell_sum += report.ell
            match_count += report.message.data == payload
            trusted_count += report.verdict == "trusted"
        rows.append(SweepRow(profile.name, n_messages, cos_sum / n_messages,
                             match_count / n_messages, ell_sum / n_messages,
                             trusted_count / n_messages))
    return rows


def per_cell_chain_cosines(profile, n_messages, root, *, message_len=16, dim=256):
    """Cell cosines of the layout the block draws replaced: cell i is one
    fresh Philox under the profile's key at counter (0, i, 0, 0), drawing
    its message bytes, its last byte and its noise in turn.  The noise is
    isotropic, so the rotations, which keep every cosine, are left out."""
    codec = SignCodec(dim)
    profile_key = np.random.SeedSequence(
        [root, label_entropy(profile.name)]).generate_state(2, np.uint64)
    out = np.empty(n_messages)
    for i in range(n_messages):
        cell_rng = np.random.Generator(np.random.Philox(key=profile_key, counter=[0, i, 0, 0]))
        body = cell_rng.integers(0, 256, size=message_len, dtype=np.uint8)
        body[-1] = cell_rng.integers(1, 256)
        v = codec.encode(Message(body.tobytes()))
        out[i] = cosine(v, perturb(v, profile.sigma, cell_rng))
    return out


def assert_same_sweep(got, want, tmp_path):
    """Counts equal, means within 1e-12 relative, CSV bytes equal."""
    assert [(r.profile, r.n, r.exact_match, r.trusted_rate) for r in got] == \
        [(r.profile, r.n, r.exact_match, r.trusted_rate) for r in want]
    for g, w in zip(got, want):
        assert g.mean_cosine == pytest.approx(w.mean_cosine, rel=1e-12, abs=0)
        assert g.mean_ell == pytest.approx(w.mean_ell, rel=1e-12, abs=0)
        assert type(g.n) is int
        for value in (g.mean_cosine, g.exact_match, g.mean_ell, g.trusted_rate):
            assert type(value) is float
    write_sweep_csv(got, tmp_path / "got.csv")
    write_sweep_csv(want, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestSweepBlocks:
    KEY = SecretKey(seed=5)
    WRONG = SecretKey(seed=6)
    # sigma 0 (no noise draw), the 42 dB reference point, and a hard
    # profile whose decodes miss
    PROFILES = [ChannelProfile.from_target("identity", 1.0, 256),
                ChannelProfile.from_target("reference", 0.984, 256),
                ChannelProfile.from_target("hard", 0.7, 256)]

    @pytest.mark.parametrize("wrong", [False, True], ids=["right", "wrong"])
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_equals_per_cell_chain(self, tmp_path, n, wrong):
        unrotate_key = self.WRONG if wrong else None
        got = run_sweep(self.PROFILES, SignCodec(256), self.KEY, n, stream(40, n),
                        unrotate_key=unrotate_key)
        want = reference_sweep(self.PROFILES, SignCodec(256), self.KEY, n,
                               stream(40, n), unrotate_key=unrotate_key)
        assert_same_sweep(got, want, tmp_path)
        if not wrong:
            assert got[0].exact_match == 1.0 and got[2].exact_match < 1.0

    def test_codec_without_row_methods(self, tmp_path):
        # a block-only codec that is not a SignCodec sweeps as the sign
        # codec does, and as its own per-cell chain does
        codec = ScalarSignCodec(256)
        got = run_sweep(self.PROFILES, codec, self.KEY, BLOCK + 1, stream(41))
        assert codec.calls > 0
        assert got == run_sweep(self.PROFILES, SignCodec(256), self.KEY, BLOCK + 1,
                                stream(41))
        want = reference_sweep(self.PROFILES, ScalarSignCodec(256), self.KEY,
                               BLOCK + 1, stream(41))
        assert_same_sweep(got, want, tmp_path)

    def test_block_only_codec_assesses_as_sign(self):
        sign, scalar = SignCodec(256), ScalarSignCodec(256)
        rng = stream(46)
        rows = np.stack([sign.encode(Message(b"row")).components,
                         sample_uniform(256, rng).components,
                         sample_uniform(256, rng).components])
        one = UnitVector(rows[1])
        assert assess(scalar, one, 100.0) == assess(sign, one, 100.0)
        got, want = assess(scalar, rows, 100.0), assess(sign, rows, 100.0)
        for field in ("cosine", "p_value", "ell", "idempotent", "trusted", "decoded"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
        assert got.idempotent.all()
        assert_row_is_report(got, 1, assess(sign, one, 100.0))

    def test_decode_only_subclass_is_honoured(self, tmp_path):
        # a subclass's block decode is what the sweep calls, so the
        # sweep scores such a codec as assess on one vector does
        codec = DriftingCodec(256)
        got = run_sweep(self.PROFILES, codec, self.KEY, BLOCK + 1, stream(44))
        assert [(r.exact_match, r.mean_ell, r.trusted_rate) for r in got] == \
            [(0.0, 0.0, 0.0)] * len(self.PROFILES)
        want = reference_sweep(self.PROFILES, DriftingCodec(256), self.KEY,
                               BLOCK + 1, stream(44))
        assert_same_sweep(got, want, tmp_path)

    def test_chain_steps_run_once_per_block(self, monkeypatch):
        # every step goes through the chain's public functions: the
        # products once per draw block, the scoring once per chunk of
        # blocks queued across profiles, never once per cell
        calls = {}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("rotate", "unrotate", "assess", "cosine"):
            monkeypatch.setattr(channel, name, counting(name, getattr(channel, name)))
        for name in ("encode", "decode"):
            monkeypatch.setattr(SignCodec, name, counting(name, getattr(SignCodec, name)))
        run_sweep(self.PROFILES, SignCodec(256), self.KEY, 2 * BLOCK + 1, stream(45))
        # 3 blocks of 64, 64 and 1 rows per profile: the first chunk is
        # scored at 257 rows, in profile 1's second block, the last at 130
        blocks, chunks = 3 * len(self.PROFILES), 2
        assert channel._SCORE_ROWS == 256
        # encode: each block's messages, then each chunk's re-encode;
        # decode: twice per chunk in assess's idempotence check
        assert calls == {"rotate": blocks, "unrotate": blocks, "assess": chunks,
                         "cosine": chunks, "encode": blocks + chunks, "decode": 2 * chunks}

    @pytest.mark.parametrize("wrong", [False, True], ids=["right", "wrong"])
    def test_builds_no_per_row_objects(self, monkeypatch, wrong):
        # a block stays byte rows and arrays from the draw to the totals:
        # messages and reports belong to the one-item forms only
        built = {Message: 0, ConfidenceReport: 0}

        def counting(cls):
            init = cls.__init__

            def wrapper(self, *args, **kwargs):
                built[cls] += 1
                init(self, *args, **kwargs)
            return wrapper

        for cls in built:
            monkeypatch.setattr(cls, "__init__", counting(cls))
        assert Message(b"counted") and built[Message] == 1  # the patch counts
        built[Message] = 0
        rows = run_sweep(self.PROFILES, SignCodec(256), self.KEY, BLOCK + 1, stream(48),
                         unrotate_key=self.WRONG if wrong else None)
        assert [r.n for r in rows] == [BLOCK + 1] * 3
        assert built == {Message: 0, ConfidenceReport: 0}

    @pytest.mark.parametrize("count, n", [(5, 100), (21, 1), (21, 13)])
    def test_scoring_chunks_equal_per_cell_chain(self, tmp_path, count, n):
        # 5 x 100: blocks of 64 and 36 rows, so the first chunk closes in
        # profile 2, between its two blocks; 21 x 1 and 21 x 13: one
        # chunk holds 21, then 20 profiles
        assert channel._SCORE_ROWS == 256
        profiles = default_profiles(256)[:count]
        got = run_sweep(profiles, SignCodec(256), self.KEY, n, stream(47, n))
        want = reference_sweep(profiles, SignCodec(256), self.KEY, n, stream(47, n))
        assert_same_sweep(got, want, tmp_path)
        # scored alone, each profile's rows form chunks of their own
        for profile, row in zip(profiles, got):
            assert run_sweep([profile], SignCodec(256), self.KEY, n, stream(47, n)) == [row]

    def test_profile_alone_equals_profile_among_defaults(self):
        # a block never mixes profiles, so neighbours cannot move a row
        codec = SignCodec(256)
        profiles = default_profiles(256)
        among = run_sweep(profiles, codec, self.KEY, BLOCK + 3, stream(42))
        for k in (0, 7, len(profiles) - 1):
            alone = run_sweep([profiles[k]], codec, self.KEY, BLOCK + 3, stream(42))
            assert alone == [among[k]]

    def test_memory_bounded_at_large_n(self):
        # whole (n, d) float64 arrays would take 39 MiB each at n = 20000;
        # the peak is the rotation sampling (~2.5 MiB) plus one block
        codec = SignCodec(256)
        prof = ChannelProfile.from_target("p", 0.9, 256)
        tracemalloc.start()
        try:
            rows = run_sweep([prof], codec, self.KEY, 20_000, stream(43))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows[0].n == 20_000
        assert peak < 6 * 2**20, peak


class TestBlockDraws:
    PROFILE_KEY = stream_key(3, 4)
    SIGMA = 0.3

    def _draw(self, k, n, rng=None, sigma=SIGMA):
        rng = np.random.Generator(np.random.Philox(key=0)) if rng is None else rng
        return channel._draw_block(rng, self.PROFILE_KEY, k, n, 16, 256, sigma)

    @pytest.mark.parametrize("k", [0, 1, 7])
    def test_shorter_block_is_a_prefix(self, k):
        # cells [64k, 64k + m) draw the first m rows of what cells
        # [64k, 64k + m') draw, so a cell does not depend on n_messages
        for m, longer in ((1, 2), (5, 17), (17, BLOCK - 1), (BLOCK - 1, BLOCK)):
            body, noise = self._draw(k, m)
            long_body, long_noise = self._draw(k, longer)
            assert np.array_equal(body, long_body[:m])
            assert np.array_equal(noise, long_noise[:m])
            # the noise has its own stream: sigma 0 draws none and moves no byte
            quiet_body, quiet_noise = self._draw(k, m, sigma=0.0)
            assert quiet_noise is None and np.array_equal(quiet_body, body)

    def test_fields_and_rows(self):
        body, noise = self._draw(2, BLOCK)
        assert body.shape == (BLOCK, 16) and body.dtype == np.uint8
        assert np.all(body[:, -1] != 0)
        assert noise.shape == (BLOCK, 256)
        assert np.allclose(np.linalg.norm(noise, axis=1), self.SIGMA, rtol=1e-14, atol=0)
        # block k's fields start at counter blocks 3k, 3k + 1 and 3k + 2
        fields = [np.random.Generator(np.random.Philox(key=self.PROFILE_KEY,
                                                       counter=[0, 6 + f, 0, 0]))
                  for f in range(3)]
        assert np.array_equal(body[:, :-1], fields[0].integers(
            0, 256, size=(BLOCK, 16), dtype=np.uint8)[:, :-1])
        assert np.array_equal(body[:, -1], fields[1].integers(1, 256, size=BLOCK))
        g = fields[2].standard_normal((BLOCK, 256))
        assert np.array_equal(noise[5], self.SIGMA / np.linalg.norm(g[5]) * g[5])

    def test_mean_cosine_matches_per_cell_layout(self):
        # old and new draws share a distribution: over 2000 cells each
        # default profile's mean cosine lies within 4 standard errors of
        # the per-cell chain's, under an unrelated root
        n = 2000
        profiles = default_profiles(256)
        rows = run_sweep(profiles, SignCodec(256), SecretKey(seed=5), n, stream(48))
        for profile, row in zip(profiles, rows):
            old = per_cell_chain_cosines(profile, n, root=49)
            standard_error = math.sqrt(2.0 / n) * float(old.std(ddof=1))
            assert abs(row.mean_cosine - float(old.mean())) <= 4 * standard_error, \
                (profile.name, row.mean_cosine, float(old.mean()), standard_error)
