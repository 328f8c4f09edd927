import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spheremark.channel import _noise
from spheremark.streams import label_entropy, rekey, stream, stream_key

ROOTS = [0, 7, 2**32 - 1, 2**32, 2**63 - 1, 0x243F6A8885A308D3]
LABELS = [0, label_entropy("a"), label_entropy("identity_42db"),
          label_entropy("é" * 20)]  # 40 bytes of UTF-8: ten entropy words
BLOCKS = [0, 63, 64, 2**32 - 1, 2**40]


def _seed_sequence_key(*entropy):
    return np.random.SeedSequence(list(entropy)).generate_state(2, np.uint64)


class TestStreamKeys:
    def test_labels_cover_one_to_ten_words(self):
        assert label_entropy("a") < 2**8
        assert 2**(32 * 9) <= label_entropy("é" * 20) < 2**(32 * 10)

    @given(st.lists(st.text(st.characters(blacklist_categories=("Cs",),
                                           blacklist_characters="\x00")),
                    min_size=2, max_size=2, unique=True))
    def test_nul_free_labels_are_distinct(self, labels):
        # a trailing NUL adds no entropy (label_entropy("a") equals
        # label_entropy("a\x00")), so sweep profile names may not contain one
        a, b = labels
        assert label_entropy(a) != label_entropy(b)
        assert label_entropy(a + "\x00") == label_entropy(a)

    @pytest.mark.parametrize("root", ROOTS)
    @pytest.mark.parametrize("label", LABELS)
    def test_equal_seed_sequence_state(self, root, label):
        # the key a sweep profile's cells share
        key = stream_key(root, label)
        assert key.dtype == np.uint64 and key.shape == (2,)
        assert np.array_equal(key, _seed_sequence_key(root, label))

    @pytest.mark.parametrize("prefix", [(), (5,), (1, 2, 3), (1, 2, 3, 4, 5, 6),
                                        (2**64 - 1, 2**96 + 5)])
    def test_any_prefix_length(self, prefix):
        # the last word lands in SeedSequence's 4-word pool or after it
        for i in range(70):
            assert np.array_equal(stream_key(*prefix, i), _seed_sequence_key(*prefix, i))

    def test_is_the_philox_key_of_stream(self):
        # a fresh Philox under the key, at counter 0, is the stream
        fresh = np.random.Generator(np.random.Philox(key=stream_key(11, 12)))
        assert np.array_equal(fresh.integers(0, 2**63, size=9),
                              stream(11, 12).integers(0, 2**63, size=9))


class TestRekey:
    KEY = stream_key(0x243F6A8885A308D3, label_entropy("reference_42db"))

    def _used_generator(self):
        # one bounded uint32 draw leaves half a Philox word buffered
        rng = stream(99)
        rng.standard_normal(5)
        rng.integers(0, 1000, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
        return rng

    def _fresh(self, block):
        return np.random.Generator(np.random.Philox(key=self.KEY, counter=[0, block, 0, 0]))

    @pytest.mark.parametrize("i", BLOCKS)
    def test_state_equals_fresh_stream(self, i):
        rng = self._used_generator()
        rekey(rng, self.KEY, i)
        fresh = self._fresh(i).bit_generator.state
        got = rng.bit_generator.state
        assert got["bit_generator"] == fresh["bit_generator"]
        for field in ("counter", "key"):
            assert np.array_equal(got["state"][field], fresh["state"][field])
        assert np.array_equal(got["buffer"], fresh["buffer"])
        for field in ("buffer_pos", "has_uint32", "uinteger"):
            assert got[field] == fresh[field]

    @pytest.mark.parametrize("i", BLOCKS)
    def test_draws_equal_fresh_stream(self, i):
        rng = self._used_generator()
        rekey(rng, self.KEY, i)
        fresh = self._fresh(i)
        # the samplers the sweep draws a block's fields with
        assert np.array_equal(rng.integers(0, 256, size=(3, 16), dtype=np.uint8),
                              fresh.integers(0, 256, size=(3, 16), dtype=np.uint8))
        assert np.array_equal(rng.integers(1, 256, size=3), fresh.integers(1, 256, size=3))
        assert np.array_equal(rng.standard_normal((3, 256)), fresh.standard_normal((3, 256)))
        assert np.array_equal(_noise(rng, 1, 256, 0.18), _noise(fresh, 1, 256, 0.18))

    @pytest.mark.parametrize("i", BLOCKS)
    def test_block_owns_two_to_the_64_steps(self, i):
        # block i's stream reaches block i + 1's start counter only after
        # 2**64 steps, so the draws of distinct blocks never overlap
        philox = self._fresh(i).bit_generator
        philox.advance(2**64 - 1)
        assert philox.state["state"]["counter"].tolist() == [2**64 - 1, i, 0, 0]
        philox.advance(1)
        assert philox.state["state"]["counter"].tolist() == [0, i + 1, 0, 0]
