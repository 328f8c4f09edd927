import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheremark import (CapacityExceededError, Codec, DimensionError,
                        DomainError, Message, SignCodec, UnitVector, assess,
                        get_codec, perturb, sample_uniform, unit)
from spheremark.streams import stream
from conftest import DriftingCodec, FlippingCodec, assert_row_is_report, octets

PHI_MINUS_2_5 = 0.0062096653257761351  # Gaussian tail at -2.5


class TestMessage:
    def test_text_roundtrip(self):
        m = Message("hej värld".encode("utf-8"))
        assert m.text == "hej värld"

    def test_text_none_for_binary(self):
        assert Message(b"\xff\xfe\x00a").text is None

    def test_data_held_as_bytes(self):
        m = Message(bytearray(b"ab"))
        assert type(m.data) is bytes and m.data == b"ab"


class TestEncode:
    def test_all_zero_components(self):
        v = SignCodec(256).encode(Message(b"\x00" * 32))
        assert np.all(v.components == -0.0625)

    def test_all_ones_components(self):
        v = SignCodec(256).encode(Message(b"\xff" * 32))
        assert np.all(v.components == 0.0625)

    def test_bit_order_msb_first(self):
        v = SignCodec(8).encode(Message(bytes([0b10110010])))
        want = np.array([1, -1, 1, 1, -1, -1, 1, -1]) / math.sqrt(8)
        assert np.allclose(v.components, want, atol=1e-15)

    def test_short_message_padded_with_zero_bits(self):
        # one byte at d=16: bits 8..15 come from the implicit NUL pad
        v = SignCodec(16).encode(Message(b"\xff"))
        assert np.all(v.components[:8] > 0)
        assert np.all(v.components[8:] < 0)

    def test_over_capacity(self):
        with pytest.raises(CapacityExceededError):
            SignCodec(256).encode(Message(b"x" * 33))

    def test_output_is_unit(self):
        v = SignCodec(256).encode(Message(b"payload"))
        assert abs(float(np.linalg.norm(v.components)) - 1.0) <= 1e-9


class TestDecode:
    def test_roundtrip_simple(self):
        c = SignCodec(256)
        for m in (b"hello", b"", b"a", b"x" * 32, bytes(range(1, 33))):
            assert c.decode(c.encode(Message(m))).data == m

    def test_exhaustive_d8(self):
        # at d=8 the decodable message space is exactly 256 strings:
        # the empty message plus the 255 single non-NUL bytes
        c = SignCodec(8)
        seen = set()
        for b in range(256):
            m = b"" if b == 0 else bytes([b])
            out = c.decode(c.encode(Message(m)))
            assert out.data == m
            seen.add(out.data)
        assert len(seen) == 256

    def test_total_on_arbitrary_vectors(self):
        c = SignCodec(256)
        rng = stream(13)
        for _ in range(200):
            m = c.decode(sample_uniform(256, rng))
            assert len(m.data) <= 32
            assert not m.data.endswith(b"\x00")

    def test_zero_component_decodes_as_zero_bit(self):
        raw = np.full(8, 1.0)
        raw[0] = 0.0
        c = SignCodec(8)
        bits = c.decode(unit(raw)).data
        assert bits == bytes([0b01111111])

    def test_strips_trailing_nuls_only(self):
        c = SignCodec(256)
        m = b"\x00inner\x00kept"
        assert c.decode(c.encode(Message(m))).data == m


class TestDescriptor:
    def test_fields(self):
        d = SignCodec(256)
        assert d.dim == 256
        assert d.capacity_bytes == 32

    def test_odd_dim_capacity(self):
        # capacity in whole bytes rounds down
        assert SignCodec(20).capacity_bytes == 2

    def test_min_dim(self):
        with pytest.raises(Exception):
            SignCodec(1)

    def test_registry(self):
        assert type(get_codec("sign", 64)) is SignCodec
        with pytest.raises(DomainError):
            get_codec("neural", 64)


class TestIdempotence:
    def test_reference_codec_always_passes(self):
        c = SignCodec(256)
        rng = stream(14)
        for _ in range(200):
            rep = assess(c, sample_uniform(256, rng), 100.0)
            assert rep.idempotent
            assert c.decode(c.encode(rep.message)) == rep.message

    def test_drifting_codec_fails(self):
        c = DriftingCodec(256)
        rep = assess(c, sample_uniform(256, stream(15)), 100.0)
        assert not rep.idempotent

    def test_mutating_codec_fails(self):
        c = FlippingCodec(256)
        v = SignCodec(256).encode(Message(b"steady payload"))
        rep = assess(c, v, 100.0)
        assert not rep.idempotent

    @pytest.mark.parametrize("codec", [SignCodec(256), FlippingCodec(256), DriftingCodec(256)],
                             ids=["sign", "flipping", "drifting"])
    def test_block_idempotence_is_per_row(self, codec):
        # a decode-overriding subclass fails on a block as on one vector
        rng = stream(32)
        vs = [sample_uniform(256, rng) for _ in range(3)]
        vs += [SignCodec(256).encode(Message(b"short")),
               SignCodec(256).encode(Message(bytes(range(1, 33))))]
        block = assess(codec, np.stack([v.components for v in vs]), 100.0)
        for k, v in enumerate(vs):
            assert_row_is_report(block, k, assess(codec, v, 100.0))
        assert block.idempotent.tolist() == [type(codec) is SignCodec] * 5


class TestContract:
    @pytest.mark.parametrize("missing", ["encode", "decode"])
    def test_codec_lacking_a_method_cannot_be_instantiated(self, missing):
        methods = {"encode": lambda self, octets: None,
                   "decode": lambda self, rows: None}
        del methods[missing]
        partial = type("Partial", (Codec,), methods)
        with pytest.raises(TypeError, match=missing):
            partial()
        assert Codec.__abstractmethods__ == {"encode", "decode"}

    @pytest.mark.parametrize("dim", [4, 20, 256])
    def test_sign_one_item_forms_are_row_zero_of_blocks(self, dim):
        c = SignCodec(dim)
        rng = stream(33, dim)
        cap = c.capacity_bytes
        for k in (0, cap // 2, cap):
            m = Message(rng.integers(1, 256, size=k, dtype=np.uint8).tobytes())
            v = c.encode(m)
            assert isinstance(v, UnitVector)
            assert v.components.tobytes() == c.encode(octets([m.data]))[0].tobytes()
        for _ in range(5):
            v = sample_uniform(dim, rng)
            assert c.decode(v).data.ljust(cap, b"\x00") == \
                c.decode(v.components[None, :])[0].tobytes()


class TestRows:
    @pytest.mark.parametrize("dim", [4, 20, 256])
    def test_block_encode_rows_are_one_item_encodes(self, dim):
        c = SignCodec(dim)
        cap = c.capacity_bytes
        rng = stream(30, dim)
        messages = [rng.integers(1, 256, size=k, dtype=np.uint8).tobytes()
                    for k in (0, cap // 2, cap, cap)]
        rows = c.encode(octets(messages, cap))
        assert rows.shape == (4, dim)
        for row, m in zip(rows, messages):
            assert np.array_equal(row, c.encode(Message(m)).components)
        # a narrower block encodes as its rows padded out to capacity
        short = [m[:cap // 2] for m in messages]
        assert np.array_equal(c.encode(octets(short)), c.encode(octets(short, cap)))

    @pytest.mark.parametrize("dim", [4, 20, 256])
    def test_block_decode_rows_are_one_item_decodes(self, dim):
        c = SignCodec(dim)
        cap = c.capacity_bytes
        rng = stream(31, dim)
        rows = np.stack([sample_uniform(dim, rng).components for _ in range(9)])
        rows[0, 0] = 0.0  # exact zero decodes as a 0 bit
        decoded = c.decode(rows)
        assert decoded.dtype == np.uint8 and decoded.shape == (9, cap)
        for row, r in zip(decoded, unit(rows)):
            assert row.tobytes() == c.decode(UnitVector(r)).data.ljust(cap, b"\x00")

    @pytest.mark.parametrize("dim, width", [(256, 33), (20, 3), (4, 1)])
    def test_block_encode_over_capacity(self, dim, width):
        with pytest.raises(CapacityExceededError):
            SignCodec(dim).encode(np.ones((2, width), dtype=np.uint8))

    def test_block_decode_dim_mismatch(self):
        with pytest.raises(DimensionError):
            SignCodec(256).decode(np.ones((2, 128)) / math.sqrt(128))

    def test_encode_and_decode_take_blocks(self):
        c = SignCodec(64)
        rows = c.encode(octets([b"one", b"two"]))
        assert isinstance(rows, np.ndarray) and rows.shape == (2, 64)
        assert np.array_equal(c.decode(rows), octets([b"one", b"two"], 8))


class TestNoiseFlipRate:
    def _flip_rate(self, sigma, trials=400):
        c = SignCodec(256)
        rng = stream(7, 2)
        flips = bits = 0
        for _ in range(trials):
            body = rng.integers(0, 256, size=30).astype(np.uint8).tobytes()
            m = bytes([int(rng.integers(1, 256))]) + body + bytes([int(rng.integers(1, 256))])
            v = c.encode(Message(m))
            w = perturb(v, sigma, rng)
            flips += int(np.count_nonzero((w.components > 0) != (v.components > 0)))
            bits += 256
        return flips / bits

    def test_matches_gaussian_tail(self):
        # noise of norm sigma spreads to sigma/sqrt(d) per component, so a
        # +-1/sqrt(d) sign flips with probability Phi(-1/sigma); sigma=0.4
        # puts that at Phi(-2.5), large enough to measure over 1e5 bits
        rate = self._flip_rate(0.4)
        assert abs(rate - PHI_MINUS_2_5) <= 0.2 * PHI_MINUS_2_5

    def test_tiny_noise_never_flips(self):
        # sigma=0.01 puts the tail at Phi(-100); no flip can occur
        assert self._flip_rate(0.01) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=32).filter(lambda b: not b or b[-1] != 0))
def test_roundtrip_property(payload):
    c = SignCodec(256)
    assert c.decode(c.encode(Message(payload))).data == payload
